import tracemalloc

import numpy as np
import pytest

from onebitphase import recovery
from onebitphase.channels import QuantizedData, quantize_signal
from onebitphase.numkit import dist_sq, phase_op
from onebitphase.recovery import (
    InitKind,
    MatrixOperator,
    alt_min,
    alt_min_resampled,
    dense_lsq_solver,
    multi_init_select,
    one_bit_phase,
    one_bit_terms,
    parse_init,
    random_init,
    subexp_phase,
    surrogate_matvec,
    weighted_one_bit_phase,
)
from onebitphase.sensing import (
    PlainEnsemble,
    build_cdp_operator,
    build_paired_ensemble,
    build_plain_ensemble,
    cdp_intensities,
    paired_intensities,
    row_intensities,
    substream,
)

from _oracles import dense_one_bit_matrix, dense_subexp_matrix, hermitian_top_eig


def _unit(rng, n):
    v = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * np.sqrt(0.5)
    return v / np.linalg.norm(v)


def _quantized(n, m, seed, with_weights=False):
    ens = build_paired_ensemble(n, m, seed=seed)
    x0 = _unit(substream(seed, "x0"), n)
    return quantize_signal(ens, x0, with_weights=with_weights), x0


def _one_bit_surrogate(data):
    ens = data.ensemble
    ops = MatrixOperator(ens.rows1), MatrixOperator(ens.rows2)
    return surrogate_matvec(one_bit_terms(*ops, data.y))


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
        ens = build_paired_ensemble(2, 1, seed=0)
        ens = ens.__class__(n=2, m=1, seed=0, rows1=rows1, rows2=rows2)
        data = QuantizedData(ensemble=ens, y=np.array([1], dtype=np.int8))
        r = np.array([1.0 + 0.0j, 1.0 + 0.0j])
        a1, a2 = rows1[0], rows2[0]
        expected = a1 * np.vdot(a1, r) - a2 * np.vdot(a2, r)
        np.testing.assert_allclose(_one_bit_surrogate(data)(r), expected, atol=1e-14)

    def test_zero_vector_maps_to_zero(self):
        data, _ = _quantized(4, 20, seed=1)
        out = _one_bit_surrogate(data)(np.zeros(4, dtype=complex))
        np.testing.assert_array_equal(out, np.zeros(4, dtype=complex))

    def test_matches_dense_assembly(self):
        data, _ = _quantized(8, 50, seed=2)
        dense = dense_one_bit_matrix(data.ensemble.rows1, data.ensemble.rows2, data.y)
        rng = substream(2, "probe")
        for _ in range(5):
            r = _unit(rng, 8)
            np.testing.assert_allclose(
                _one_bit_surrogate(data)(r), dense @ r, atol=1e-10
            )

    def test_dimension_mismatch(self):
        data, _ = _quantized(4, 10, seed=3)
        with pytest.raises(ValueError):
            _one_bit_surrogate(data)(np.ones(5, dtype=complex))


class TestOneBitPhase:
    def test_recovers_oversampled_signal(self):
        data, x0 = _quantized(8, 5000, seed=4)
        report = one_bit_phase(data, seed=1)
        assert dist_sq(report.estimate, x0) <= 0.05
        assert report.converged
        assert np.linalg.norm(report.estimate) == pytest.approx(1.0, abs=1e-10)
        assert report.lambda_hat >= 0.0
        assert len(report.trace) == report.iterations

    def test_lambda_hat_near_channel_constant(self):
        data, _ = _quantized(8, 100000, seed=5)
        report = one_bit_phase(data, seed=1)
        assert 0.9 <= report.lambda_hat <= 1.1

    def test_matches_dense_oracle_with_shift(self):
        data, _ = _quantized(8, 200, seed=6)
        report = one_bit_phase(data, tol=1e-12, max_iters=20000, seed=1, shift=True)
        dense = dense_one_bit_matrix(data.ensemble.rows1, data.ensemble.rows2, data.y)
        top_val, top_vec = hermitian_top_eig(dense)
        assert dist_sq(report.estimate, top_vec) <= 1e-8
        assert report.lambda_hat == pytest.approx(top_val, abs=1e-6)

    def test_signal_scale_invariance(self):
        ens = build_paired_ensemble(6, 800, seed=7)
        x0 = _unit(substream(7, "x0"), 6)
        rep1 = one_bit_phase(quantize_signal(ens, x0), seed=2)
        rep2 = one_bit_phase(quantize_signal(ens, 3.0 * x0), seed=2)
        np.testing.assert_array_equal(rep1.estimate, rep2.estimate)

    def test_bitwise_reproducible(self):
        data, _ = _quantized(6, 500, seed=8)
        rep1 = one_bit_phase(data, seed=3)
        rep2 = one_bit_phase(data, seed=3)
        np.testing.assert_array_equal(rep1.estimate, rep2.estimate)
        assert rep1.lambda_hat == rep2.lambda_hat
        assert rep1.iterations == rep2.iterations

    def test_rejects_weighted_data(self):
        data, _ = _quantized(4, 50, seed=9, with_weights=True)
        with pytest.raises(ValueError):
            one_bit_phase(data)


class TestWeightedOneBitPhase:
    def test_recovers_oversampled_signal(self):
        data, x0 = _quantized(8, 5000, seed=11, with_weights=True)
        report = weighted_one_bit_phase(data, seed=1)
        assert dist_sq(report.estimate, x0) <= 0.05
        assert np.linalg.norm(report.estimate) == pytest.approx(1.0, abs=1e-10)

    def test_matches_dense_oracle_with_shift(self):
        data, _ = _quantized(8, 200, seed=12, with_weights=True)
        report = weighted_one_bit_phase(data, tol=1e-12, max_iters=20000, seed=1, shift=True)
        dense = dense_one_bit_matrix(
            data.ensemble.rows1, data.ensemble.rows2, data.y, weights=data.weights
        )
        _, top_vec = hermitian_top_eig(dense)
        assert dist_sq(report.estimate, top_vec) <= 1e-8

    def test_uniform_weights_halve_the_eigenvalue(self):
        ens = build_paired_ensemble(6, 600, seed=13)
        x0 = _unit(substream(13, "x0"), 6)
        plain = quantize_signal(ens, x0)
        half = QuantizedData(
            ensemble=ens, y=plain.y, weights=np.full((600, 2), 0.5)
        )
        rep_plain = one_bit_phase(plain, seed=4)
        rep_half = weighted_one_bit_phase(half, seed=4)
        np.testing.assert_allclose(rep_half.estimate, rep_plain.estimate, atol=1e-12)
        assert rep_half.lambda_hat == pytest.approx(rep_plain.lambda_hat / 2, rel=1e-10)

    def test_rejects_unweighted_data(self):
        data, _ = _quantized(4, 50, seed=14)
        with pytest.raises(ValueError):
            weighted_one_bit_phase(data)


class TestSubexpPhase:
    def test_single_rank_one_measurement(self):
        rows = np.array([[1.0 + 0.0j, 0.0, 0.0]])
        ens = PlainEnsemble(n=3, m=1, seed=0, rows=rows)
        report = subexp_phase(ens, np.array([2.0]), seed=1)
        assert report.lambda_hat == pytest.approx(2.0, rel=1e-8)
        assert abs(report.estimate[0]) == pytest.approx(1.0, abs=1e-8)

    def test_identity_intensities_recover_signal(self):
        ens = build_plain_ensemble(8, 5000, seed=15)
        x0 = _unit(substream(15, "x0"), 8)
        b = row_intensities(ens.rows, x0)
        report = subexp_phase(ens, b, seed=1)
        assert dist_sq(report.estimate, x0) <= 0.05
        assert 1.8 <= report.lambda_hat <= 2.2

    def test_matches_dense_oracle(self):
        ens = build_plain_ensemble(8, 300, seed=16)
        x0 = _unit(substream(16, "x0"), 8)
        b = row_intensities(ens.rows, x0)
        report = subexp_phase(ens, b, tol=1e-12, max_iters=20000, seed=1)
        _, top_vec = hermitian_top_eig(dense_subexp_matrix(ens.rows, b))
        assert dist_sq(report.estimate, top_vec) <= 1e-8

    def test_paired_ensemble_uses_both_arms(self):
        ens = build_paired_ensemble(6, 2000, seed=17)
        x0 = _unit(substream(17, "x0"), 6)
        b1, b2 = paired_intensities(ens, x0)
        report = subexp_phase(ens, np.concatenate([b1, b2]), seed=1)
        assert dist_sq(report.estimate, x0) <= 0.05

    def test_risk_gap_identity(self):
        # gap between the surrogate quadratic form at x0 and at x equals
        # 1 - |<x0, x>|^2 for unit vectors, up to sampling error
        ens = build_plain_ensemble(4, 1000000, seed=18)
        x0 = _unit(substream(18, "x0"), 4)
        b = row_intensities(ens.rows, x0)
        risk_x0 = np.mean(b * b)
        rng = substream(18, "probes")
        for _ in range(5):
            x = _unit(rng, 4)
            risk_x = np.mean(b * row_intensities(ens.rows, x))
            gap = risk_x0 - risk_x
            expected = 1.0 - np.abs(np.vdot(x0, x)) ** 2
            assert gap == pytest.approx(expected, abs=0.02)

    def test_negative_intensities_rejected(self):
        ens = build_plain_ensemble(4, 10, seed=19)
        with pytest.raises(ValueError):
            subexp_phase(ens, -np.ones(10))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_intensities_rejected(self, bad):
        ens = build_plain_ensemble(4, 10, seed=19)
        b = np.ones(10)
        b[3] = bad
        with pytest.raises(ValueError, match="intensities must be finite"):
            subexp_phase(ens, b)

    def test_length_mismatch_rejected(self):
        ens = build_plain_ensemble(4, 10, seed=20)
        with pytest.raises(ValueError):
            subexp_phase(ens, np.ones(11))


def _altmin_system(n, m, seed):
    ens = build_paired_ensemble(n, m, seed=seed)
    x0 = _unit(substream(seed, "x0"), n)
    rows = ens.stacked_rows()
    b = row_intensities(rows, x0)
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
            data = quantize_signal(ens, x0)
            init = one_bit_phase(data, seed=seed).estimate
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
        b = cdp_intensities(op, x0)
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
        b_inter = row_intensities(ens.interleaved_rows(), x0)
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
            b = row_intensities(ens.interleaved_rows(), x0)
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
            b = row_intensities(ens.interleaved_rows(), x0)
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
        b = row_intensities(ens.rows, x0)
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
