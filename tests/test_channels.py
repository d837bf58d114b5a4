import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from onebitphase.channels import (
    ClippedGaussianNoise,
    ExponentialNoise,
    Identity,
    PoissonNoise,
    TanhDistortion,
    apply_model,
    format_model,
    lambda_closed_form,
    lambda_monte_carlo,
    observe_pairs,
    parse_model,
    quantize,
    ratio_weights,
)
from onebitphase.sensing import (
    PairedEnsemble,
    build_paired_ensemble,
    paired_intensities,
    substream,
)


class TestModelSpecs:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("identity", Identity()),
            ("tanh:alpha=2", TanhDistortion(2.0)),
            ("expnoise:sigma=0.5", ExponentialNoise(0.5)),
            ("poisson:eta=4", PoissonNoise(4.0)),
            ("clipgauss:sigma=0.8", ClippedGaussianNoise(0.8)),
        ],
    )
    def test_parse_and_format_round_trip(self, text, expected):
        model = parse_model(text)
        assert model == expected
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
            lambda: TanhDistortion(0.0),
            lambda: TanhDistortion(-1.0),
            lambda: ExponentialNoise(-0.1),
            lambda: PoissonNoise(0.0),
            lambda: ClippedGaussianNoise(-2.0),
        ],
    )
    def test_bad_parameters_rejected(self, bad):
        with pytest.raises(ValueError):
            bad()


class TestApplyModel:
    def test_identity_returns_copy(self):
        z = np.array([0.0, 1.5, 3.0])
        out = apply_model(Identity(), z)
        np.testing.assert_array_equal(out, z)
        out[0] = 99.0
        assert z[0] == 0.0

    def test_negative_intensities_rejected(self):
        with pytest.raises(ValueError):
            apply_model(Identity(), np.array([1.0, -0.1]))

    def test_tanh_values(self):
        out = apply_model(TanhDistortion(2.0), np.array([0.0, 1.0]))
        np.testing.assert_allclose(out, [0.0, np.tanh(2.0)], atol=1e-15)

    def test_exponential_noise_adds_mean_sqrt_sigma(self):
        rng = substream(0, "test-exp")
        z = np.zeros(1000000)
        out = apply_model(ExponentialNoise(4.0), z, rng)
        assert np.mean(out) == pytest.approx(2.0, rel=0.01)
        assert np.min(out) >= 0.0

    def test_exponential_noise_sigma_zero_is_identity(self):
        rng = substream(0, "test-exp0")
        z = np.array([0.3, 1.7])
        np.testing.assert_array_equal(apply_model(ExponentialNoise(0.0), z, rng), z)
        assert lambda_closed_form(ExponentialNoise(0.0)) == 1.0

    def test_poisson_counts(self):
        rng = substream(0, "test-poisson")
        out = apply_model(PoissonNoise(0.5), np.full(100000, 2.0), rng)
        assert np.all(out == np.round(out))
        assert np.mean(out) == pytest.approx(4.0, rel=0.02)

    def test_clipped_gaussian_one_sided(self):
        rng = substream(0, "test-clip")
        out = apply_model(ClippedGaussianNoise(0.8), np.zeros(100000), rng)
        assert np.min(out) >= 0.0
        # half the draws clip to zero, the rest follow a half-normal law
        assert np.mean(out == 0.0) == pytest.approx(0.5, abs=0.01)
        assert np.mean(out) == pytest.approx(0.8 * np.sqrt(1 / (2 * np.pi)), rel=0.02)

    def test_stochastic_models_require_rng(self):
        for model in (ExponentialNoise(1.0), PoissonNoise(1.0), ClippedGaussianNoise(1.0)):
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

    def test_zero_sum_rejected(self):
        with pytest.raises(ValueError):
            ratio_weights(np.array([0.0]), np.array([0.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            ratio_weights(np.array([bad, 1.0]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="finite"):
            ratio_weights(np.array([1.0, 1.0]), np.array([1.0, bad]))


def _tiny_ensemble():
    rows1 = np.array([[2.0 + 0.0j, 0.0]])
    rows2 = np.array([[1.0 + 0.0j, 0.0]])
    return PairedEnsemble(n=2, m=1, seed=0, rows1=rows1, rows2=rows2)


def _signs(ens, x0, model=Identity(), rng=None):
    """One bit per pair of ``x0``'s intensities measured through ``model``."""
    return observe_pairs(model, *paired_intensities(ens, x0), rng)[2]


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
            np.testing.assert_array_equal(_signs(ens, x0, TanhDistortion(alpha)), base)

    def test_noise_flips_some_signs(self):
        ens = build_paired_ensemble(8, 2000, seed=4)
        rng = substream(0, "test-signal4")
        x0 = (rng.standard_normal(8) + 1j * rng.standard_normal(8)) / np.sqrt(2)
        clean = _signs(ens, x0)
        noisy = _signs(ens, x0, ExponentialNoise(4.0), substream(0, "test-noise"))
        assert np.any(clean != noisy)

    def test_weights_shape_and_sum(self):
        ens = build_paired_ensemble(4, 50, seed=6)
        x0 = np.ones(4, dtype=complex)
        weights = np.stack(ratio_weights(*paired_intensities(ens, x0)), axis=1)
        assert weights.shape == (50, 2)
        np.testing.assert_allclose(weights.sum(axis=1), 1.0, atol=1e-14)

    def test_non_finite_intensities_rejected(self):
        # a NaN difference used to become a tie through the int8 cast
        with pytest.raises(ValueError, match="finite"):
            observe_pairs(Identity(), [1.0, np.nan, 2.0], [0.5, 1.0, np.inf])


class TestLambdaClosedForm:
    def test_identity(self):
        assert lambda_closed_form(Identity()) == 1.0

    @pytest.mark.parametrize(
        "sigma,expected",
        [(0.0, 1.0), (0.25, 2.0 / 2.25), (1.0, 0.75), (4.0, 5.0 / 9.0)],
    )
    def test_exponential_noise(self, sigma, expected):
        assert lambda_closed_form(ExponentialNoise(sigma)) == pytest.approx(expected)

    def test_no_closed_form_for_the_rest(self):
        assert lambda_closed_form(TanhDistortion(1.0)) is None
        assert lambda_closed_form(PoissonNoise(1.0)) is None
        assert lambda_closed_form(ClippedGaussianNoise(1.0)) is None


class TestLambdaMonteCarlo:
    def test_identity_matches_unity(self):
        est, se = lambda_monte_carlo(Identity(), 200000, seed=0)
        assert est == pytest.approx(1.0, abs=0.01)
        assert 0.0 < se < 0.01

    @pytest.mark.parametrize("sigma", [0.25, 1.0, 4.0])
    def test_exponential_noise_matches_closed_form(self, sigma):
        est, se = lambda_monte_carlo(ExponentialNoise(sigma), 200000, seed=1)
        assert abs(est - lambda_closed_form(ExponentialNoise(sigma))) <= 3.0 * se

    def test_tanh_non_increasing_in_alpha(self):
        # common draws across the grid make the comparison exact
        grid = [0.5, 1.0, 2.0, 4.0]
        ests = [lambda_monte_carlo(TanhDistortion(a), 100000, seed=2)[0] for a in grid]
        for lo, hi in zip(ests[1:], ests[:-1]):
            assert lo <= hi + 1e-12

    def test_poisson_decreasing_in_eta(self):
        grid = [0.5, 1.0, 2.0, 4.0]
        out = [lambda_monte_carlo(PoissonNoise(e), 200000, seed=3) for e in grid]
        for (hi, hi_se), (lo, lo_se) in zip(out[:-1], out[1:]):
            assert lo < hi - 2.0 * np.hypot(hi_se, lo_se)

    def test_poisson_limits(self):
        fine, _ = lambda_monte_carlo(PoissonNoise(0.01), 100000, seed=4)
        coarse, _ = lambda_monte_carlo(PoissonNoise(50.0), 100000, seed=4)
        assert fine > 0.95
        assert coarse < 0.2

    @pytest.mark.parametrize(
        "model",
        [
            Identity(),
            ExponentialNoise(1.0),
            TanhDistortion(2.0),
            PoissonNoise(2.0),
            ClippedGaussianNoise(0.8),
        ],
    )
    def test_estimates_in_unit_interval(self, model):
        est, se = lambda_monte_carlo(model, 100000, seed=5)
        assert 0.0 < est <= 1.0 + 3.0 * se

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            lambda_monte_carlo(Identity(), 999)
