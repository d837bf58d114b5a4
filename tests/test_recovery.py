import tracemalloc

import numpy as np
import pytest

from onebitphase import recovery
from onebitphase.channels import Identity, observe_pairs, quantize, ratio_weights
from onebitphase.numkit import dist_sq, phase_op
from onebitphase.recovery import (
    InitKind,
    alt_min,
    alt_min_resampled,
    dense_lsq_solver,
    initial_estimate,
    multi_init_select,
    one_bit_terms,
    parse_init,
    random_init,
    spectral_estimate,
    surrogate_matvec,
)
from onebitphase.sensing import (
    MatrixOperator,
    build_cdp_operator,
    build_paired_ensemble,
    build_plain_ensemble,
    intensities,
    paired_intensities,
    substream,
)

from _oracles import dense_one_bit_matrix, dense_subexp_matrix, hermitian_top_eig


def _unit(rng, n):
    v = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * np.sqrt(0.5)
    return v / np.linalg.norm(v)


def _paired(n, m, seed):
    ens = build_paired_ensemble(n, m, seed=seed)
    return ens, _unit(substream(seed, "x0"), n)


def _pair_ops(ens):
    return MatrixOperator(ens.rows1), MatrixOperator(ens.rows2)


def _init(kind, ens, x0, seed, **kw):
    """``initial_estimate`` from the noiseless measured pairs of ``x0``."""
    b1, b2 = paired_intensities(ens, x0)
    _, _, y = observe_pairs(Identity(), b1, b2)
    stacked = (MatrixOperator(ens.stacked_rows()), np.concatenate([b1, b2]))
    return initial_estimate(kind, *_pair_ops(ens), b1, b2, y, stacked, seed, **kw)


def _subexp(rows, b, seed=0, **kw):
    """The subexp init reads only its stacked term."""
    stacked = (MatrixOperator(rows), b)
    return initial_estimate(InitKind.SUBEXP, None, None, None, None, None, stacked, seed, **kw)


def _signs(ens, x0):
    return quantize(*paired_intensities(ens, x0))


def _one_bit_surrogate(ens, y):
    return surrogate_matvec(one_bit_terms(*_pair_ops(ens), y))


class TestMatrixOperator:
    def test_apply_matches_conjugated_rows_bit_for_bit(self):
        rng = np.random.default_rng(7)
        rows = rng.standard_normal((64, 12)) + 1j * rng.standard_normal((64, 12))
        x = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        for view in (rows, rows[0::2], rows[1::2]):
            np.testing.assert_array_equal(
                MatrixOperator(view).apply(x), view.conj() @ x
            )

    def test_apply_makes_no_copy_of_the_rows(self):
        rng = np.random.default_rng(8)
        rows = rng.standard_normal((1024, 256)) + 1j * rng.standard_normal((1024, 256))
        x = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        op = MatrixOperator(rows)
        tracemalloc.start()
        try:
            op.apply(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < rows.nbytes / 8


class TestOneBitMatvec:
    def test_single_pair_by_hand(self):
        rows1 = np.array([[1.0 + 1.0j, 0.0]])
        rows2 = np.array([[0.0, 2.0 + 0.0j]])
        terms = one_bit_terms(MatrixOperator(rows1), MatrixOperator(rows2), np.array([1.0]))
        r = np.array([1.0 + 0.0j, 1.0 + 0.0j])
        a1, a2 = rows1[0], rows2[0]
        expected = a1 * np.vdot(a1, r) - a2 * np.vdot(a2, r)
        np.testing.assert_allclose(surrogate_matvec(terms)(r), expected, atol=1e-14)

    def test_zero_vector_maps_to_zero(self):
        ens, x0 = _paired(4, 20, seed=1)
        out = _one_bit_surrogate(ens, _signs(ens, x0))(np.zeros(4, dtype=complex))
        np.testing.assert_array_equal(out, np.zeros(4, dtype=complex))

    def test_matches_dense_assembly(self):
        ens, x0 = _paired(8, 50, seed=2)
        y = _signs(ens, x0)
        dense = dense_one_bit_matrix(ens.rows1, ens.rows2, y)
        rng = substream(2, "probe")
        for _ in range(5):
            r = _unit(rng, 8)
            np.testing.assert_allclose(
                _one_bit_surrogate(ens, y)(r), dense @ r, atol=1e-10
            )

    def test_dimension_mismatch(self):
        ens, x0 = _paired(4, 10, seed=3)
        with pytest.raises(ValueError):
            _one_bit_surrogate(ens, _signs(ens, x0))(np.ones(5, dtype=complex))


class TestOneBitPhase:
    def test_recovers_oversampled_signal(self):
        ens, x0 = _paired(8, 5000, seed=4)
        report = _init("onebit", ens, x0, seed=1)
        assert dist_sq(report.estimate, x0) <= 0.05
        assert report.converged
        assert np.linalg.norm(report.estimate) == pytest.approx(1.0, abs=1e-10)
        assert report.lambda_hat >= 0.0
        assert len(report.trace) == report.iterations

    def test_lambda_hat_near_channel_constant(self):
        ens, x0 = _paired(8, 100000, seed=5)
        report = _init("onebit", ens, x0, seed=1)
        assert 0.9 <= report.lambda_hat <= 1.1

    def test_matches_dense_oracle_with_shift(self):
        ens, x0 = _paired(8, 200, seed=6)
        report = _init("onebit", ens, x0, 1, tol=1e-12, max_iters=20000, shift=True)
        dense = dense_one_bit_matrix(ens.rows1, ens.rows2, _signs(ens, x0))
        top_val, top_vec = hermitian_top_eig(dense)
        assert dist_sq(report.estimate, top_vec) <= 1e-8
        assert report.lambda_hat == pytest.approx(top_val, abs=1e-6)

    def test_signal_scale_invariance(self):
        ens = build_paired_ensemble(6, 800, seed=7)
        x0 = _unit(substream(7, "x0"), 6)
        rep1 = _init("onebit", ens, x0, seed=2)
        rep2 = _init("onebit", ens, 3.0 * x0, seed=2)
        np.testing.assert_array_equal(rep1.estimate, rep2.estimate)

    def test_bitwise_reproducible(self):
        ens, x0 = _paired(6, 500, seed=8)
        rep1 = _init("onebit", ens, x0, seed=3)
        rep2 = _init("onebit", ens, x0, seed=3)
        np.testing.assert_array_equal(rep1.estimate, rep2.estimate)
        assert rep1.lambda_hat == rep2.lambda_hat
        assert rep1.iterations == rep2.iterations


class TestWeightedOneBitPhase:
    def test_recovers_oversampled_signal(self):
        ens, x0 = _paired(8, 5000, seed=11)
        report = _init("weighted1bit", ens, x0, seed=1)
        assert dist_sq(report.estimate, x0) <= 0.05
        assert np.linalg.norm(report.estimate) == pytest.approx(1.0, abs=1e-10)

    def test_matches_dense_oracle_with_shift(self):
        ens, x0 = _paired(8, 200, seed=12)
        report = _init("weighted1bit", ens, x0, 1, tol=1e-12, max_iters=20000, shift=True)
        b1, b2 = paired_intensities(ens, x0)
        weights = np.stack(ratio_weights(b1, b2), axis=1)
        dense = dense_one_bit_matrix(ens.rows1, ens.rows2, quantize(b1, b2), weights=weights)
        _, top_vec = hermitian_top_eig(dense)
        assert dist_sq(report.estimate, top_vec) <= 1e-8

    def test_uniform_weights_halve_the_eigenvalue(self):
        ens = build_paired_ensemble(6, 600, seed=13)
        x0 = _unit(substream(13, "x0"), 6)
        y = _signs(ens, x0)
        half = (np.full(600, 0.5), np.full(600, 0.5))
        rep_plain = spectral_estimate(one_bit_terms(*_pair_ops(ens), y), seed=4)
        rep_half = spectral_estimate(one_bit_terms(*_pair_ops(ens), y, half), seed=4)
        np.testing.assert_allclose(rep_half.estimate, rep_plain.estimate, atol=1e-12)
        assert rep_half.lambda_hat == pytest.approx(rep_plain.lambda_hat / 2, rel=1e-10)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    def test_bad_pair_intensities_rejected(self, bad):
        ens, x0 = _paired(4, 10, seed=14)
        b1, b2 = paired_intensities(ens, x0)
        b1[3] = bad
        stacked = (MatrixOperator(ens.stacked_rows()), np.ones(20))
        with pytest.raises(ValueError, match="intensities must be finite"):
            initial_estimate(
                "weighted1bit", *_pair_ops(ens), b1, b2, np.ones(10), stacked, 0
            )


class TestSubexpPhase:
    def test_single_rank_one_measurement(self):
        rows = np.array([[1.0 + 0.0j, 0.0, 0.0]])
        report = _subexp(rows, np.array([2.0]), seed=1)
        assert report.lambda_hat == pytest.approx(2.0, rel=1e-8)
        assert abs(report.estimate[0]) == pytest.approx(1.0, abs=1e-8)

    def test_identity_intensities_recover_signal(self):
        ens = build_plain_ensemble(8, 5000, seed=15)
        x0 = _unit(substream(15, "x0"), 8)
        b = intensities(MatrixOperator(ens.rows), x0)
        report = _subexp(ens.rows, b, seed=1)
        assert dist_sq(report.estimate, x0) <= 0.05
        assert 1.8 <= report.lambda_hat <= 2.2

    def test_matches_dense_oracle(self):
        ens = build_plain_ensemble(8, 300, seed=16)
        x0 = _unit(substream(16, "x0"), 8)
        b = intensities(MatrixOperator(ens.rows), x0)
        report = _subexp(ens.rows, b, seed=1, tol=1e-12, max_iters=20000)
        _, top_vec = hermitian_top_eig(dense_subexp_matrix(ens.rows, b))
        assert dist_sq(report.estimate, top_vec) <= 1e-8

    def test_paired_ensemble_uses_both_arms(self):
        ens, x0 = _paired(6, 2000, seed=17)
        report = _init("subexp", ens, x0, seed=1)
        assert dist_sq(report.estimate, x0) <= 0.05

    def test_risk_gap_identity(self):
        # gap between the surrogate quadratic form at x0 and at x equals
        # 1 - |<x0, x>|^2 for unit vectors, up to sampling error
        ens = build_plain_ensemble(4, 1000000, seed=18)
        op = MatrixOperator(ens.rows)
        x0 = _unit(substream(18, "x0"), 4)
        b = intensities(op, x0)
        risk_x0 = np.mean(b * b)
        rng = substream(18, "probes")
        for _ in range(5):
            x = _unit(rng, 4)
            risk_x = np.mean(b * intensities(op, x))
            gap = risk_x0 - risk_x
            expected = 1.0 - np.abs(np.vdot(x0, x)) ** 2
            assert gap == pytest.approx(expected, abs=0.02)

    def test_negative_intensities_rejected(self):
        ens = build_plain_ensemble(4, 10, seed=19)
        with pytest.raises(ValueError):
            _subexp(ens.rows, -np.ones(10))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_intensities_rejected(self, bad):
        ens = build_plain_ensemble(4, 10, seed=19)
        b = np.ones(10)
        b[3] = bad
        with pytest.raises(ValueError, match="intensities must be finite"):
            _subexp(ens.rows, b)

    def test_length_mismatch_rejected(self):
        ens = build_plain_ensemble(4, 10, seed=20)
        with pytest.raises(ValueError):
            _subexp(ens.rows, np.ones(11))


def _altmin_system(n, m, seed):
    ens = build_paired_ensemble(n, m, seed=seed)
    x0 = _unit(substream(seed, "x0"), n)
    rows = ens.stacked_rows()
    b = intensities(MatrixOperator(rows), x0)
    return ens, rows, b, x0


class TestAltMin:
    def test_exact_init_is_a_fixed_point(self):
        _, rows, b, x0 = _altmin_system(8, 64, seed=21)
        report = alt_min(MatrixOperator(rows), b, x0, max_iters=3)
        assert report.trace[0][1] <= 1e-20
        assert dist_sq(report.estimate, x0) <= 1e-12
        assert report.converged

    def test_objective_never_increases(self):
        _, rows, b, _ = _altmin_system(16, 64, seed=22)
        x_init = random_init(16, substream(22, "init"))
        report = alt_min(MatrixOperator(rows), b, x_init, max_iters=100)
        objectives = [v for _, v in report.trace]
        assert all(b2 <= b1 for b1, b2 in zip(objectives, objectives[1:]))

    def test_half_relaxation_is_alternating_projections(self, monkeypatch):
        _, rows, b, _ = _altmin_system(12, 96, seed=27)
        x_init = random_init(12, substream(27, "init"))
        solver = dense_lsq_solver(rows)
        monkeypatch.setattr(recovery, "RAAR_BETA", 0.5)
        seen = []
        alt_min(
            MatrixOperator(rows), b, x_init, max_iters=10, tol=0.0,
            lsq_solver=solver, callback=lambda k, x: seen.append(x),
        )
        x = x_init
        for got in seen:
            x = solver(np.sqrt(b) * phase_op(rows.conj() @ x))
            np.testing.assert_allclose(got, x, atol=1e-10)

    def test_reports_best_iterate(self):
        # RAAR is not monotone: on this system the 14th least-squares iterate
        # has a larger objective than the 13th.
        _, rows, b, _ = _altmin_system(16, 64, seed=28)
        x_init = random_init(16, substream(28, "init"))
        solver = dense_lsq_solver(rows)
        iterates = []

        def recording_solver(rhs):
            iterates.append(solver(rhs))
            return iterates[-1]

        report = alt_min(
            MatrixOperator(rows), b, x_init, max_iters=14, tol=0.0,
            lsq_solver=recording_solver,
        )
        objectives = [
            float(np.sum((np.abs(rows.conj() @ x) - np.sqrt(b)) ** 2)) for x in iterates
        ]
        assert objectives[-1] > objectives[-2]
        assert [v for _, v in report.trace] == np.minimum.accumulate(objectives).tolist()
        np.testing.assert_array_equal(report.estimate, iterates[int(np.argmin(objectives))])

    def test_converges_from_spectral_init(self):
        n = 64
        good = 0
        for seed in range(20):
            ens, rows, b, x0 = _altmin_system(n, 6 * n, seed=100 + seed)
            init = _init("onebit", ens, x0, seed=seed).estimate
            report = alt_min(MatrixOperator(rows), b, init, max_iters=50)
            if dist_sq(report.estimate, x0) <= 1e-6:
                good += 1
        assert good >= 18

    def test_direct_solver_matches_cgls(self):
        _, rows, b, x0 = _altmin_system(12, 96, seed=23)
        x_init = random_init(12, substream(23, "init"))
        op = MatrixOperator(rows)
        rep_cg = alt_min(op, b, x_init, max_iters=30)
        rep_direct = alt_min(
            op, b, x_init, max_iters=30, lsq_solver=dense_lsq_solver(rows)
        )
        assert dist_sq(rep_cg.estimate, rep_direct.estimate) <= 1e-10

    def test_masked_dft_operator(self):
        op = build_cdp_operator(16, 8, seed=24)
        x0 = _unit(substream(24, "x0"), 16)
        b = intensities(op, x0)
        x_init = random_init(16, substream(24, "init"))
        report = alt_min(op, b, x_init, max_iters=200)
        assert dist_sq(report.estimate, x0) <= 1e-6

    def test_callback_sees_every_iteration(self):
        _, rows, b, _ = _altmin_system(8, 48, seed=25)
        x_init = random_init(8, substream(25, "init"))
        seen = []
        report = alt_min(
            MatrixOperator(rows), b, x_init, max_iters=7, tol=0.0,
            callback=lambda k, x: seen.append(k),
        )
        assert seen == list(range(1, report.iterations + 1))

    def test_rejects_bad_inputs(self):
        _, rows, b, _ = _altmin_system(4, 16, seed=26)
        op = MatrixOperator(rows)
        with pytest.raises(ValueError):
            alt_min(op, -b, np.ones(4, dtype=complex))
        with pytest.raises(ValueError):
            alt_min(op, b, np.zeros(4, dtype=complex))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_intensities_rejected(self, bad):
        _, rows, b, _ = _altmin_system(4, 16, seed=26)
        b = b.copy()
        b[3] = bad
        with pytest.raises(ValueError, match="intensities must be finite"):
            alt_min(MatrixOperator(rows), b, np.ones(4, dtype=complex))


class TestAltMinResampled:
    def test_single_stage_schedule(self):
        ens, rows, b, x0 = _altmin_system(8, 40, seed=27)
        b_inter = intensities(MatrixOperator(ens.interleaved_rows()), x0)
        for kind in InitKind:
            report = alt_min_resampled(ens, b_inter, epsilon=0.5, init=kind)
            assert report.iterations == 1, kind
            assert len(report.trace) == 1, kind

    def test_insufficient_measurements_error_names_requirement(self):
        ens = build_paired_ensemble(16, 20, seed=28)
        b = np.ones(40)
        with pytest.raises(ValueError, match="64"):
            alt_min_resampled(ens, b, epsilon=0.1, init=InitKind.ONEBIT)

    def test_reaches_target_accuracy(self):
        n, eps = 32, 0.1
        stages = 3  # ceil(log(1/eps))
        pairs = 40 * n * stages // 2
        good = 0
        for seed in range(20):
            ens = build_paired_ensemble(n, pairs, seed=200 + seed)
            x0 = _unit(substream(200 + seed, "x0"), n)
            b = intensities(MatrixOperator(ens.interleaved_rows()), x0)
            report = alt_min_resampled(
                ens, b, epsilon=eps, init=InitKind.ONEBIT, seed=seed
            )
            assert report.iterations == stages
            if dist_sq(report.estimate, x0) <= eps**2:
                good += 1
        assert good >= 18

    def test_stage_errors_decrease(self):
        n, eps = 32, 0.1
        pairs = 40 * n * 3 // 2
        good = 0
        for seed in range(20):
            ens = build_paired_ensemble(n, pairs, seed=300 + seed)
            x0 = _unit(substream(300 + seed, "x0"), n)
            b = intensities(MatrixOperator(ens.interleaved_rows()), x0)
            errs = []
            alt_min_resampled(
                ens, b, epsilon=eps, init=InitKind.ONEBIT, seed=seed,
                callback=lambda t, x: errs.append(dist_sq(x, x0)),
            )
            if all(e2 < e1 for e1, e2 in zip(errs, errs[1:])):
                good += 1
        assert good >= 18

    def test_plain_ensemble_pairs_consecutive_rows(self):
        n = 16
        ens = build_plain_ensemble(n, 40 * n, seed=29)
        x0 = _unit(substream(29, "x0"), n)
        b = intensities(MatrixOperator(ens.rows), x0)
        report = alt_min_resampled(ens, b, epsilon=0.5, init=InitKind.WEIGHTED_ONEBIT)
        assert dist_sq(report.estimate, x0) <= 0.25

    def test_epsilon_domain(self):
        ens = build_paired_ensemble(4, 100, seed=30)
        b = np.ones(200)
        for eps in (0.0, 1.0, 1.5):
            with pytest.raises(ValueError):
                alt_min_resampled(ens, b, epsilon=eps, init=InitKind.RANDOM)


class TestMultiInitSelect:
    def test_picks_the_true_signal(self):
        _, rows, b, x0 = _altmin_system(8, 80, seed=31)
        rng = substream(31, "decoys")
        candidates = [
            (InitKind.RANDOM, _unit(rng, 8)),
            (InitKind.ONEBIT, x0),
            (InitKind.SUBEXP, _unit(rng, 8)),
        ]
        kind, vec = multi_init_select(candidates, MatrixOperator(rows), b)
        assert kind is InitKind.ONEBIT
        np.testing.assert_array_equal(vec, x0)

    def test_selection_is_phase_invariant(self):
        _, rows, b, x0 = _altmin_system(8, 80, seed=32)
        rng = substream(32, "decoys")
        decoy = _unit(rng, 8)
        rotated = np.exp(1j * 1.1) * x0
        kind, _ = multi_init_select(
            [(InitKind.RANDOM, decoy), (InitKind.ONEBIT, rotated)],
            MatrixOperator(rows),
            b,
        )
        assert kind is InitKind.ONEBIT

    def test_single_candidate(self):
        _, rows, b, x0 = _altmin_system(4, 16, seed=33)
        kind, vec = multi_init_select(
            [(InitKind.SUBEXP, x0)], MatrixOperator(rows), b
        )
        assert kind is InitKind.SUBEXP

    def test_empty_candidates_rejected(self):
        _, rows, b, _ = _altmin_system(4, 16, seed=34)
        with pytest.raises(ValueError):
            multi_init_select([], MatrixOperator(rows), b)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_intensities_rejected(self, bad):
        _, rows, b, x0 = _altmin_system(4, 16, seed=35)
        b = b.copy()
        b[3] = bad
        with pytest.raises(ValueError, match="intensities must be finite"):
            multi_init_select([(InitKind.ONEBIT, x0)], MatrixOperator(rows), b)

    def test_no_finite_score_raises(self):
        _, rows, b, _ = _altmin_system(4, 16, seed=36)
        nan_vec = np.full(4, np.nan, dtype=complex)
        candidates = [(InitKind.ONEBIT, nan_vec), (InitKind.SUBEXP, nan_vec)]
        with np.errstate(invalid="ignore"):
            with pytest.raises(RuntimeError, match="finite"):
                multi_init_select(candidates, MatrixOperator(rows), b)


class TestParseInit:
    def test_known_kinds(self):
        assert parse_init("onebit") is InitKind.ONEBIT
        assert parse_init("Weighted1bit") is InitKind.WEIGHTED_ONEBIT

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="random"):
            parse_init("magic")
