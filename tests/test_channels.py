from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from onebitphase import channels
from onebitphase.channels import (
    Family,
    Model,
    apply_model,
    format_model,
    lambda_closed_form,
    lambda_monte_carlo,
    observe_pairs,
    parse_model,
    quantize,
    ratio_weights,
)
from onebitphase.recovery import (
    alt_min_many,
    initial_estimate,
    multi_init_select,
    resample_blocks,
)
from onebitphase.sensing import (
    MatrixOperator,
    build_paired_ensemble,
    intensities,
    sample_exponential,
    substream,
)


class TestModelSpecs:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("identity", Model("identity")),
            ("tanh:alpha=2", Model("tanh", 2.0)),
            ("expnoise:sigma=0.5", Model("expnoise", 0.5)),
            ("poisson:eta=4", Model("poisson", 4.0)),
            ("clipgauss:sigma=0.8", Model("clipgauss", 0.8)),
            ("tanh:alpha=0.1234567", Model("tanh", 0.1234567)),
        ],
    )
    def test_parse_and_format_round_trip(self, text, expected):
        model = parse_model(text)
        assert model == expected
        assert format_model(model) == text
        assert parse_model(format_model(model)) == model

    @pytest.mark.parametrize(
        "family", [name for name, entry in channels.FAMILIES.items() if entry.param]
    )
    @given(value=st.floats(min_value=0.0, allow_nan=False, allow_infinity=False))
    @settings(max_examples=200)
    def test_format_is_the_inverse_of_parse(self, family, value):
        # ``:g`` keeps six significant digits: 0.1234567 printed as 0.123457
        assume(channels.FAMILIES[family].rule[0](value))
        model = Model(family, value)
        assert parse_model(format_model(model)) == model

    @pytest.mark.parametrize(
        "text",
        ["gauss", "tanh", "tanh:beta=1", "identity:x=1", "expnoise:sigma=", "poisson:eta=abc"],
    )
    def test_bad_specs_rejected(self, text):
        with pytest.raises(ValueError):
            parse_model(text)

    @pytest.mark.parametrize(
        "bad",
        [
            lambda: Model("tanh", 0.0),
            lambda: Model("tanh", -1.0),
            lambda: Model("expnoise", -0.1),
            lambda: Model("poisson", 0.0),
            lambda: Model("clipgauss", -2.0),
            lambda: Model("tanh"),
            lambda: Model("identity", 1.0),
        ],
    )
    def test_bad_parameters_rejected(self, bad):
        with pytest.raises(ValueError):
            bad()


class TestApplyModel:
    def test_identity_returns_copy(self):
        z = np.array([0.0, 1.5, 3.0])
        out = apply_model(Model("identity"), z)
        np.testing.assert_array_equal(out, z)
        out[0] = 99.0
        assert z[0] == 0.0

    def test_negative_intensities_rejected(self):
        with pytest.raises(ValueError):
            apply_model(Model("identity"), np.array([1.0, -0.1]))

    def test_tanh_values(self):
        out = apply_model(Model("tanh", 2.0), np.array([0.0, 1.0]))
        np.testing.assert_allclose(out, [0.0, np.tanh(2.0)], atol=1e-15)

    def test_exponential_noise_adds_mean_sqrt_sigma(self):
        rng = substream(0, "test-exp")
        z = np.zeros(1000000)
        out = apply_model(Model("expnoise", 4.0), z, rng)
        assert np.mean(out) == pytest.approx(2.0, rel=0.01)
        assert np.min(out) >= 0.0

    def test_exponential_noise_sigma_zero_is_identity(self):
        rng = substream(0, "test-exp0")
        z = np.array([0.3, 1.7])
        np.testing.assert_array_equal(apply_model(Model("expnoise", 0.0), z, rng), z)
        assert lambda_closed_form(Model("expnoise", 0.0)) == 1.0

    def test_poisson_counts(self):
        rng = substream(0, "test-poisson")
        out = apply_model(Model("poisson", 0.5), np.full(100000, 2.0), rng)
        assert np.all(out == np.round(out))
        assert np.mean(out) == pytest.approx(4.0, rel=0.02)

    def test_clipped_gaussian_one_sided(self):
        rng = substream(0, "test-clip")
        out = apply_model(Model("clipgauss", 0.8), np.zeros(100000), rng)
        assert np.min(out) >= 0.0
        # half the draws clip to zero, the rest follow a half-normal law
        assert np.mean(out == 0.0) == pytest.approx(0.5, abs=0.01)
        assert np.mean(out) == pytest.approx(0.8 * np.sqrt(1 / (2 * np.pi)), rel=0.02)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="^unknown measurement model 'gauss'$"):
            Model("gauss")
        with pytest.raises(ValueError, match="^unknown measurement model 'gauss' in 'gauss:s=1'$"):
            parse_model("gauss:s=1")

    def test_stochastic_models_require_rng(self):
        for model in (Model("expnoise", 1.0), Model("poisson", 1.0), Model("clipgauss", 1.0)):
            with pytest.raises(ValueError):
                apply_model(model, np.array([1.0]))


class TestQuantize:
    def test_signs_and_ties(self):
        assert quantize(2.0, 1.0) == 1.0
        assert quantize(1.0, 2.0) == -1.0
        assert quantize(1.5, 1.5) == 0.0
        np.testing.assert_array_equal(
            quantize(np.array([3.0, 1.0, 2.0]), np.array([1.0, 3.0, 2.0])),
            np.array([1.0, -1.0, 0.0]),
        )

    @given(
        st.floats(min_value=0.0, max_value=30.0),
        st.floats(min_value=0.0, max_value=30.0),
    )
    @settings(max_examples=200)
    def test_monotone_distortion_invariance(self, b1, b2):
        t1, t2 = np.tanh(b1), np.tanh(b2)
        assume(t1 != t2 or b1 == b2)  # skip float-saturation ties
        assert quantize(t1, t2) == quantize(b1, b2)


class TestRatioWeights:
    def test_values(self):
        r1, r2 = ratio_weights(np.array([3.0]), np.array([1.0]))
        assert r1[0] == pytest.approx(0.75)
        assert r2[0] == pytest.approx(0.25)

    def test_rows_sum_to_one(self):
        rng = substream(0, "test-ratio")
        b1 = rng.exponential(size=1000)
        b2 = rng.exponential(size=1000)
        r1, r2 = ratio_weights(b1, b2)
        np.testing.assert_allclose(r1 + r2, 1.0, atol=1e-14)

    def test_zero_sum_pair_gets_weight_zero(self):
        # two zero Poisson counts: the pair's sign is a tie, so any weight gives
        # coefficient 0, and the other pairs keep their ratios
        r1, r2 = ratio_weights(np.array([0.0, 3.0]), np.array([0.0, 1.0]))
        np.testing.assert_array_equal(r1, [0.0, 0.75])
        np.testing.assert_array_equal(r2, [0.0, 0.25])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            ratio_weights(np.array([bad, 1.0]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="finite"):
            ratio_weights(np.array([1.0, 1.0]), np.array([1.0, bad]))


def _tiny_ensemble():
    rows = np.array([[2.0 + 0.0j, 0.0], [1.0 + 0.0j, 0.0]])
    return MatrixOperator(rows), (slice(None, 1), slice(1, None))


def _signs(ens, x0, model=Model("identity"), rng=None):
    """One bit per pair of ``x0``'s intensities measured through ``model``;
    ``ens`` is the ``(op, pairs)`` of a paired ensemble."""
    op, pairs = ens
    return observe_pairs(model, intensities(op, x0), pairs, rng)[1]


STACKED3 = (slice(None, 3), slice(3, None))


class TestQuantizeSignal:
    def test_hand_worked_pair(self):
        assert _signs(_tiny_ensemble(), np.array([1.0 + 0.0j, 0.0]))[0] == 1

    def test_scale_invariance(self):
        ens = build_paired_ensemble(6, 500, seed=1)
        rng = substream(0, "test-signal")
        x0 = (rng.standard_normal(6) + 1j * rng.standard_normal(6)) / np.sqrt(2)
        np.testing.assert_array_equal(_signs(ens, x0), _signs(ens, 5.0 * x0))

    def test_no_ties_under_identity(self):
        ens = build_paired_ensemble(4, 100000, seed=2)
        rng = substream(0, "test-signal2")
        x0 = (rng.standard_normal(4) + 1j * rng.standard_normal(4)) / np.sqrt(2)
        assert np.all(_signs(ens, x0) != 0)

    def test_deterministic_distortion_cannot_flip_signs(self):
        ens = build_paired_ensemble(8, 2000, seed=3)
        rng = substream(0, "test-signal3")
        x0 = (rng.standard_normal(8) + 1j * rng.standard_normal(8)) / np.sqrt(2)
        base = _signs(ens, x0)
        for alpha in (0.125, 1.0, 8.0, 64.0):
            np.testing.assert_array_equal(_signs(ens, x0, Model("tanh", alpha)), base)

    def test_noise_flips_some_signs(self):
        ens = build_paired_ensemble(8, 2000, seed=4)
        rng = substream(0, "test-signal4")
        x0 = (rng.standard_normal(8) + 1j * rng.standard_normal(8)) / np.sqrt(2)
        clean = _signs(ens, x0)
        noisy = _signs(ens, x0, Model("expnoise", 4.0), substream(0, "test-noise"))
        assert np.any(clean != noisy)

    def test_weights_shape_and_sum(self):
        op, pairs = build_paired_ensemble(4, 50, seed=6)
        b = intensities(op, np.ones(4, dtype=complex))
        weights = np.stack(ratio_weights(b[pairs[0]], b[pairs[1]]), axis=1)
        assert weights.shape == (50, 2)
        np.testing.assert_allclose(weights.sum(axis=1), 1.0, atol=1e-14)

    def test_non_finite_intensities_rejected(self):
        # a NaN difference used to become a tie through the int8 cast
        with pytest.raises(ValueError, match="finite"):
            observe_pairs(Model("identity"), [1.0, np.nan, 2.0, 0.5, 1.0, np.inf], STACKED3)

    @pytest.mark.parametrize(
        "pairs", [STACKED3, (slice(0, None, 2), slice(1, None, 2))], ids=["stacked", "interleaved"]
    )
    @pytest.mark.parametrize("model", [Model("expnoise", 1.0), Model("poisson", 2.0), Model("clipgauss", 0.5)])
    def test_stochastic_model_draws_family_by_family(self, pairs, model):
        b = sample_exponential(1.0, substream(0, "clean"), size=6)
        b_obs, y = observe_pairs(model, b, pairs, substream(0, "noise"))
        rng = substream(0, "noise")
        b1, b2 = apply_model(model, b[pairs[0]], rng), apply_model(model, b[pairs[1]], rng)
        np.testing.assert_array_equal(b_obs[pairs[0]], b1)
        np.testing.assert_array_equal(b_obs[pairs[1]], b2)
        np.testing.assert_array_equal(y, quantize(b1, b2))

    @pytest.mark.parametrize(
        "pairs", [STACKED3, (slice(0, None, 2), slice(1, None, 2))], ids=["stacked", "interleaved"]
    )
    @pytest.mark.parametrize("model", [Model("identity"), Model("tanh", 2.0)], ids=["identity", "tanh"])
    def test_deterministic_model_observes_what_apply_model_returns(self, pairs, model):
        b = sample_exponential(1.0, substream(0, "clean"), size=6)
        b_obs, _ = observe_pairs(model, b, pairs)
        assert b_obs.tobytes() == apply_model(model, b).tobytes()

    def test_pairs_must_split_the_intensities(self):
        with pytest.raises(ValueError, match="two families"):
            observe_pairs(Model("identity"), np.ones(7), (slice(None, 3), slice(3, 6)))


# a family that exists only in the tests: a deterministic gain z -> k z
GAIN = Family("k", (lambda v: v > 0, "must be positive"), lambda k, z, rng: k * z,
              noisy=False, clean_signs=False)


class TestModelTable:
    """A family is one entry of ``channels.FAMILIES``: adding the entry is
    all it takes to parse, format, check, apply and observe it."""

    def test_a_new_entry_parses_formats_and_refuses_by_its_rule(self, monkeypatch):
        monkeypatch.setitem(channels.FAMILIES, "gain", GAIN)
        model = parse_model("gain:k=2")
        assert model == Model("gain", 2.0)
        assert format_model(model) == "gain:k=2"
        with pytest.raises(ValueError, match="^bad parameter in model spec 'gain:k=-1': k must be positive$"):
            parse_model("gain:k=-1")
        with pytest.raises(ValueError, match="^expected gain:k=<float>, got 'gain:x=1'$"):
            parse_model("gain:x=1")
        with pytest.raises(ValueError, match="^k must be positive$"):
            Model("gain", 0.0)
        assert lambda_closed_form(model) is None

    def test_a_new_entry_applies_without_an_rng(self, monkeypatch):
        monkeypatch.setitem(channels.FAMILIES, "gain", GAIN)
        z = np.array([0.0, 1.5, 3.0])
        np.testing.assert_array_equal(apply_model(Model("gain", 2.0), z), 2.0 * z)

    @pytest.mark.parametrize("clean_signs", [False, True])
    def test_a_new_entry_observes_pairs_by_its_sign_rule(self, monkeypatch, clean_signs):
        monkeypatch.setitem(channels.FAMILIES, "gain", replace(GAIN, clean_signs=clean_signs))
        # the smallest gain rounds the observed values onto a few subnormals,
        # which ties pairs that the clean values order
        b = np.array([1.0, 0.2, 3.0, 0.5, 0.1, 2.9])
        b_obs, y = observe_pairs(Model("gain", 5e-324), b, STACKED3)
        np.testing.assert_array_equal(b_obs, 5e-324 * b)
        np.testing.assert_array_equal(y, [1.0, 1.0, 1.0] if clean_signs else [1.0, 0.0, 0.0])


class TestLambdaClosedForm:
    def test_identity(self):
        assert lambda_closed_form(Model("identity")) == 1.0

    @pytest.mark.parametrize(
        "sigma,expected",
        [(0.0, 1.0), (0.25, 2.0 / 2.25), (1.0, 0.75), (4.0, 5.0 / 9.0)],
    )
    def test_exponential_noise(self, sigma, expected):
        assert lambda_closed_form(Model("expnoise", sigma)) == pytest.approx(expected)

    def test_no_closed_form_for_the_rest(self):
        assert lambda_closed_form(Model("tanh", 1.0)) is None
        assert lambda_closed_form(Model("poisson", 1.0)) is None
        assert lambda_closed_form(Model("clipgauss", 1.0)) is None


class TestLambdaMonteCarlo:
    def test_identity_matches_unity(self):
        est, se = lambda_monte_carlo(Model("identity"), 200000, seed=0)
        assert est == pytest.approx(1.0, abs=0.01)
        assert 0.0 < se < 0.01

    @pytest.mark.parametrize("sigma", [0.25, 1.0, 4.0])
    def test_exponential_noise_matches_closed_form(self, sigma):
        est, se = lambda_monte_carlo(Model("expnoise", sigma), 200000, seed=1)
        assert abs(est - lambda_closed_form(Model("expnoise", sigma))) <= 3.0 * se

    def test_tanh_non_increasing_in_alpha(self):
        # common draws across the grid make the comparison exact
        grid = [0.5, 1.0, 2.0, 4.0]
        ests = [lambda_monte_carlo(Model("tanh", a), 100000, seed=2)[0] for a in grid]
        for lo, hi in zip(ests[1:], ests[:-1]):
            assert lo <= hi + 1e-12

    def test_poisson_decreasing_in_eta(self):
        grid = [0.5, 1.0, 2.0, 4.0]
        out = [lambda_monte_carlo(Model("poisson", e), 200000, seed=3) for e in grid]
        for (hi, hi_se), (lo, lo_se) in zip(out[:-1], out[1:]):
            assert lo < hi - 2.0 * np.hypot(hi_se, lo_se)

    def test_poisson_limits(self):
        fine, _ = lambda_monte_carlo(Model("poisson", 0.01), 100000, seed=4)
        coarse, _ = lambda_monte_carlo(Model("poisson", 50.0), 100000, seed=4)
        assert fine > 0.95
        assert coarse < 0.2

    @pytest.mark.parametrize("eta", [0.5, 4.0])
    def test_poisson_draws_two_conditional_counts(self, eta):
        samples, seed = 20000, 6
        rng = substream(seed, "lambda-mc")
        e1 = sample_exponential(1.0, rng, size=samples)
        e2 = sample_exponential(1.0, rng, size=samples)
        stat = np.sign(rng.poisson(e1 / eta) - rng.poisson(e2 / eta)) * (e1 - e2)
        expected = float(np.mean(stat)), float(np.std(stat, ddof=1) / np.sqrt(samples))
        assert lambda_monte_carlo(Model("poisson", eta), samples, seed) == expected

    @pytest.mark.parametrize(
        "model",
        [
            Model("identity"),
            Model("expnoise", 1.0),
            Model("tanh", 2.0),
            Model("poisson", 2.0),
            Model("clipgauss", 0.8),
        ],
    )
    def test_estimates_in_unit_interval(self, model):
        est, se = lambda_monte_carlo(model, 100000, seed=5)
        assert 0.0 < est <= 1.0 + 3.0 * se

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            lambda_monte_carlo(Model("identity"), 999)


# every public function that takes intensities, called on the observed pairs
# (b, y) of a paired ensemble (op, pairs) with one bad entry in family 2
TAKES_INTENSITIES = {
    "apply_model": lambda op, pairs, b, y: apply_model(Model("identity"), b),
    "quantize": lambda op, pairs, b, y: quantize(b[pairs[0]], b[pairs[1]]),
    "ratio_weights": lambda op, pairs, b, y: ratio_weights(b[pairs[0]], b[pairs[1]]),
    "observe_pairs": lambda op, pairs, b, y: observe_pairs(Model("identity"), b, pairs),
    "initial_estimate": lambda op, pairs, b, y: initial_estimate(
        "weighted1bit", op, b, y, pairs, 0
    ),
    "alt_min_many": lambda op, pairs, b, y: alt_min_many(op, b, [np.ones(op.n, complex)]),
    "multi_init_select": lambda op, pairs, b, y: multi_init_select(
        op, b, [np.ones(op.n, complex)]
    ),
    "resample_blocks": lambda op, pairs, b, y: resample_blocks(op, b, y, 0.5),
}


class TestOneIntensityRule:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -0.5], ids=["nan", "inf", "negative"])
    @pytest.mark.parametrize("entry", list(TAKES_INTENSITIES))
    def test_every_entry_point_refuses_with_the_one_message(self, entry, bad):
        op, pairs = build_paired_ensemble(4, 10, seed=7)
        b, y = observe_pairs(Model("identity"), intensities(op, np.ones(4, dtype=complex)), pairs)
        b[3] = bad
        with pytest.raises(ValueError, match="^intensities must be finite and non-negative$"):
            TAKES_INTENSITIES[entry](op, pairs, b, y)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -0.5], ids=["nan", "inf", "negative"])
    @pytest.mark.parametrize(
        "model",
        [Model("expnoise", 1.0), Model("poisson", 2.0), Model("clipgauss", 0.5)],
        ids=["expnoise", "poisson", "clipgauss"],
    )
    def test_refusal_draws_nothing(self, model, bad):
        rng = substream(0, "test-refusal")
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match="^intensities must be finite and non-negative$"):
            apply_model(model, np.array([1.0, bad]), rng)
        assert rng.bit_generator.state == before
