import threading
import tracemalloc

import numpy as np
import pytest

from onebitphase import recovery
from onebitphase.channels import Identity, observe_pairs, ratio_weights
from onebitphase.numkit import dist_sq, lanczos, phase_op
from onebitphase.recovery import (
    INIT_KINDS,
    RecoveryReport,
    alt_min_many,
    alt_min_resampled,
    factor_ahead,
    initial_estimate,
    multi_init_select,
    random_init,
    resample_blocks,
)
from onebitphase.sensing import (
    CdpOperator,
    MatrixOperator,
    build_cdp_operator,
    build_paired_ensemble,
    build_plain_ensemble,
    intensities,
    substream,
)

from _oracles import dense_one_bit_matrix, dense_subexp_matrix, hermitian_top_eig


def _unit(rng, n):
    v = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * np.sqrt(0.5)
    return v / np.linalg.norm(v)


def _paired(n, m, seed):
    """``(op, pairs)`` of a paired ensemble, and a unit signal."""
    return build_paired_ensemble(n, m, seed), _unit(substream(seed, "x0"), n)


def _observed(ens, x0):
    """The noiseless ``(b, y)`` of ``x0`` measured by ``ens = (op, pairs)``."""
    op, pairs = ens
    return observe_pairs(Identity(), intensities(op, x0), pairs)


def _family_rows(ens):
    op, pairs = ens
    return op.rows[pairs[0]], op.rows[pairs[1]]


def _init(kind, ens, x0, seed, **kw):
    """``initial_estimate`` from the noiseless measured pairs of ``x0``."""
    op, pairs = ens
    b, y = _observed(ens, x0)
    return initial_estimate(kind, op, b, y, pairs, seed, **kw)


def _subexp(rows, b, seed=0, **kw):
    """The subexp init reads only the operator and its intensities."""
    return initial_estimate("subexp", MatrixOperator(rows), b, None, None, seed, **kw)


def _signs(ens, x0):
    return _observed(ens, x0)[1]


def _one_bit_coefficients(ens, y):
    """The onebit surrogate's coefficients: 2y on family 1, -2y on family 2."""
    op, pairs = ens
    c = np.zeros(op.out_dim)
    c[pairs[0]], c[pairs[1]] = 2 * y, -2 * y
    return c


def _one_bit_surrogate(ens, y):
    return ens[0].surrogate(_one_bit_coefficients(ens, y))


def _init_coefficients(kind, ens, x0):
    """The surrogate coefficients of a spectral init from the noiseless
    measured pairs of ``x0``: intensities, signs, or signs with pair ratio
    weights."""
    b, y = _observed(ens, x0)
    if kind == "subexp":
        return b
    c = _one_bit_coefficients(ens, y)
    if kind == "weighted1bit":
        pairs = ens[1]
        for family, weights in zip(pairs, ratio_weights(b[pairs[0]], b[pairs[1]])):
            c[family] *= weights
    return c


def _formula(op, c):
    """The surrogate matvec as one apply and one adjoint: the reference for
    the dense operator's formed matrix."""
    return lambda r: op.adjoint(c * op.apply(r)) / c.size


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
        rows = np.array([[1.0 + 1.0j, 0.0], [0.0, 2.0 + 0.0j]])
        ens = (MatrixOperator(rows), (slice(None, 1), slice(1, None)))
        r = np.array([1.0 + 0.0j, 1.0 + 0.0j])
        a1, a2 = rows
        expected = a1 * np.vdot(a1, r) - a2 * np.vdot(a2, r)
        np.testing.assert_allclose(
            _one_bit_surrogate(ens, np.array([1.0]))(r), expected, atol=1e-14
        )

    def test_zero_vector_maps_to_zero(self):
        ops, x0 = _paired(4, 20, seed=1)
        out = _one_bit_surrogate(ops, _signs(ops, x0))(np.zeros(4, dtype=complex))
        np.testing.assert_array_equal(out, np.zeros(4, dtype=complex))

    def test_matches_dense_assembly(self):
        ops, x0 = _paired(8, 50, seed=2)
        y = _signs(ops, x0)
        dense = dense_one_bit_matrix(*_family_rows(ops), y)
        rng = substream(2, "probe")
        for _ in range(5):
            r = _unit(rng, 8)
            np.testing.assert_allclose(
                _one_bit_surrogate(ops, y)(r), dense @ r, atol=1e-10
            )

    def test_dimension_mismatch(self):
        ops, x0 = _paired(4, 10, seed=3)
        with pytest.raises(ValueError):
            _one_bit_surrogate(ops, _signs(ops, x0))(np.ones(5, dtype=complex))


class TestOneBitPhase:
    def test_recovers_oversampled_signal(self):
        ops, x0 = _paired(8, 5000, seed=4)
        report = _init("onebit", ops, x0, seed=1)
        assert dist_sq(report.estimate, x0) <= 0.05
        assert report.converged
        assert np.linalg.norm(report.estimate) == pytest.approx(1.0, abs=1e-10)
        assert report.lambda_hat >= 0.0
        assert len(report.trace) == report.iterations

    def test_lambda_hat_near_channel_constant(self):
        ops, x0 = _paired(8, 100000, seed=5)
        report = _init("onebit", ops, x0, seed=1)
        assert 0.9 <= report.lambda_hat <= 1.1

    def test_matches_dense_oracle_with_shift(self):
        ops, x0 = _paired(8, 200, seed=6)
        report = _init("onebit", ops, x0, 1, tol=1e-12, max_iters=20000)
        dense = dense_one_bit_matrix(*_family_rows(ops), _signs(ops, x0))
        top_val, top_vec = hermitian_top_eig(dense)
        assert dist_sq(report.estimate, top_vec) <= 1e-8
        assert report.lambda_hat == pytest.approx(top_val, abs=1e-6)

    def test_signal_scale_invariance(self):
        ops, x0 = _paired(6, 800, seed=7)
        rep1 = _init("onebit", ops, x0, seed=2)
        rep2 = _init("onebit", ops, 3.0 * x0, seed=2)
        np.testing.assert_array_equal(rep1.estimate, rep2.estimate)

    def test_bitwise_reproducible(self):
        ops, x0 = _paired(6, 500, seed=8)
        rep1 = _init("onebit", ops, x0, seed=3)
        rep2 = _init("onebit", ops, x0, seed=3)
        np.testing.assert_array_equal(rep1.estimate, rep2.estimate)
        assert rep1.lambda_hat == rep2.lambda_hat
        assert rep1.iterations == rep2.iterations


class TestWeightedOneBitPhase:
    def test_recovers_oversampled_signal(self):
        ops, x0 = _paired(8, 5000, seed=11)
        report = _init("weighted1bit", ops, x0, seed=1)
        assert dist_sq(report.estimate, x0) <= 0.05
        assert np.linalg.norm(report.estimate) == pytest.approx(1.0, abs=1e-10)

    def test_matches_dense_oracle_with_shift(self):
        ops, x0 = _paired(8, 200, seed=12)
        report = _init("weighted1bit", ops, x0, 1, tol=1e-12, max_iters=20000)
        b, y = _observed(ops, x0)
        pairs = ops[1]
        weights = np.stack(ratio_weights(b[pairs[0]], b[pairs[1]]), axis=1)
        dense = dense_one_bit_matrix(*_family_rows(ops), y, weights=weights)
        _, top_vec = hermitian_top_eig(dense)
        assert dist_sq(report.estimate, top_vec) <= 1e-8

    def test_uniform_weights_halve_the_eigenvalue(self):
        ops, x0 = _paired(6, 600, seed=13)
        op, c = ops[0], _one_bit_coefficients(ops, _signs(ops, x0))
        theta_plain, vec_plain, _, _ = lanczos(op.surrogate(c), op.n, seed=4)
        theta_half, vec_half, _, _ = lanczos(op.surrogate(0.5 * c), op.n, seed=4)
        np.testing.assert_allclose(vec_half, vec_plain, atol=1e-12)
        assert theta_half == pytest.approx(theta_plain / 2, rel=1e-10)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    def test_bad_pair_intensities_rejected(self, bad):
        (op, pairs), x0 = _paired(4, 10, seed=14)
        b, y = _observed((op, pairs), x0)
        b[3] = bad
        with pytest.raises(ValueError, match="intensities must be finite"):
            initial_estimate("weighted1bit", op, b, y, pairs, 0)

    def test_zero_count_pair_gets_weight_zero(self):
        # two zero Poisson counts: y = 0, so the pair's coefficient is 0 at any weight
        (op, pairs), x0 = _paired(4, 40, seed=15)
        b, y = _observed((op, pairs), x0)
        b[pairs[0]][2] = b[pairs[1]][2] = y[2] = 0.0
        report = initial_estimate("weighted1bit", op, b, y, pairs, 0)
        assert np.all(np.isfinite(report.estimate))
        assert np.linalg.norm(report.estimate) == pytest.approx(1.0, abs=1e-10)


class _CountingOperator:
    """Forwards to ``op`` and counts its applies, adjoints and solves; each
    ``*_rows`` list holds the vectors per call (1 for a single vector, k
    for a (k, len) stack)."""

    def __init__(self, op):
        self.op, self.n, self.out_dim = op, op.n, op.out_dim
        self.applies = self.adjoints = self.solves = 0
        self.apply_rows, self.solve_rows = [], []

    def surrogate(self, c):
        # a masked-DFT matvec is one apply and one adjoint, so it is built
        # over this wrapper to count them; a dense one reads only its matrix
        if isinstance(self.op, CdpOperator):
            return CdpOperator.surrogate(self, c)
        return self.op.surrogate(c)

    def apply(self, x):
        self.applies += 1
        self.apply_rows.append(len(x) if np.ndim(x) == 2 else 1)
        return self.op.apply(x)

    def adjoint(self, y):
        self.adjoints += 1
        return self.op.adjoint(y)

    def lsq_solve(self, y):
        self.solves += 1
        self.solve_rows.append(len(y) if np.ndim(y) == 2 else 1)
        return self.op.lsq_solve(y)


class TestOneSurrogate:
    @pytest.mark.parametrize("kind", ["onebit", "weighted1bit"])
    def test_layouts_hold_the_same_pairs(self, kind):
        # the same family rows stacked at [:m] and [m:] instead of
        # interleaved: only the order of the summands differs
        (op, pairs), x0 = _paired(8, 300, seed=9)
        stacked_op = MatrixOperator(np.vstack([op.rows[pairs[0]], op.rows[pairs[1]]]))
        stacked_pairs = (slice(None, 300), slice(300, None))
        interleaved = _init(kind, (op, pairs), x0, seed=2, tol=1e-12, max_iters=20000)
        stacked = _init(kind, (stacked_op, stacked_pairs), x0, seed=2, tol=1e-12, max_iters=20000)
        assert dist_sq(stacked.estimate, interleaved.estimate) <= 1e-12
        assert stacked.lambda_hat == pytest.approx(interleaved.lambda_hat, abs=1e-10)

    # the dense operator forms its matrix once, so the masked-DFT operator
    # is the one case left of these two tests; the parameter keeps its id
    @pytest.mark.parametrize("kind", ["subexp", "onebit", "weighted1bit"])
    @pytest.mark.parametrize("sensing", ["cdp"])
    def test_one_apply_and_one_adjoint_per_matvec(self, kind, sensing):
        op = build_cdp_operator(8, 4, seed=10)
        pairs, x0 = (slice(None, 16), slice(16, None)), _unit(substream(10, "x0"), 8)
        counting = _CountingOperator(op)
        b, y = _observed((op, pairs), x0)
        report = initial_estimate(kind, counting, b, y, pairs, seed=1)
        assert report.iterations > 1
        assert counting.applies == counting.adjoints == report.iterations

    @pytest.mark.parametrize("kind", ["subexp", "onebit", "weighted1bit"])
    def test_dense_matvec_makes_no_apply_or_adjoint(self, kind):
        (op, pairs), x0 = _paired(8, 64, seed=10)
        counting = _CountingOperator(op)
        b, y = _observed((op, pairs), x0)
        report = initial_estimate(kind, counting, b, y, pairs, seed=1)
        assert report.iterations > 1
        assert counting.applies == counting.adjoints == 0

    @pytest.mark.parametrize("sensing", ["cdp"])
    def test_matvec_is_the_formula_bit_for_bit(self, sensing):
        # the coefficients are made complex once; numpy makes the same cast
        # inside each real-by-complex multiply, so the bytes agree
        op = build_cdp_operator(16, 6, seed=11)
        rng = np.random.default_rng(12)
        c = rng.standard_normal(op.out_dim)
        c[::5] = 0.0
        c[1::7] = -0.0
        c[2::3] = -np.abs(c[2::3])
        matvec = op.surrogate(c)
        for _ in range(3):
            r = _unit(rng, op.n)
            expected = op.adjoint(c * op.apply(r)) / c.size
            assert matvec(r).tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "view",
        [
            lambda op, pairs: op,
            lambda op, pairs: op[pairs[1]],
            lambda op, pairs: MatrixOperator(np.random.default_rng(13).standard_normal((96, 16))),
        ],
        ids=["matrix", "strided-family", "real-rows"],
    )
    def test_dense_matvec_matches_the_formula(self, view):
        # the formed matrix sums the same terms in another order
        (full, pairs), _ = _paired(16, 96, seed=11)
        op = view(full, pairs)
        rng = np.random.default_rng(12)
        signed = rng.standard_normal(op.out_dim)
        signed[::5] = 0.0
        signed[1::7] = -0.0
        signed[2::3] = -np.abs(signed[2::3])
        ratio = np.concatenate(ratio_weights(*rng.exponential(size=(2, op.out_dim // 2))))
        for c in (signed, ratio * np.sign(signed), np.abs(signed)):
            matvec, formula = op.surrogate(c), _formula(op, c)
            for r in (_unit(rng, op.n), _unit(rng, op.n).real):
                expected = formula(r)
                assert np.linalg.norm(matvec(r) - expected) <= 1e-13 * np.linalg.norm(expected)
        assert not np.any(op.surrogate(np.zeros(op.out_dim))(_unit(rng, op.n)))

    @pytest.mark.parametrize("kind", ["subexp", "onebit", "weighted1bit"])
    def test_dense_matvec_takes_the_same_lanczos_steps(self, kind):
        ens, x0 = _paired(32, 256, seed=14)
        op = ens[0]
        c = _init_coefficients(kind, ens, x0)
        report = _init(kind, ens, x0, seed=3)
        theta, vec, residuals, converged = lanczos(_formula(op, c), op.n, seed=3)
        assert report.iterations == len(residuals) > 1
        assert report.converged and converged
        assert report.lambda_hat == pytest.approx(theta, rel=1e-12)
        assert dist_sq(report.estimate, vec) <= 1e-14

    @pytest.mark.parametrize("sensing", ["matrix", "cdp"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_coefficient_rejected(self, sensing, bad):
        # the sign split of the dense matrix would drop a NaN row unseen
        if sensing == "matrix":
            (op, pairs), x0 = _paired(8, 32, seed=15)
        else:
            op = build_cdp_operator(8, 4, seed=15)
            pairs, x0 = (slice(None, 16), slice(16, None)), _unit(substream(15, "x0"), 8)
        c = _init_coefficients("onebit", (op, pairs), x0)
        c[5] = bad
        with pytest.raises(ValueError, match="coefficients must be finite"):
            op.surrogate(c)

    @pytest.mark.parametrize("sensing", ["matrix", "cdp"])
    def test_matvec_takes_a_stack_row_by_row(self, sensing):
        if sensing == "matrix":
            op = build_plain_ensemble(6, 20, seed=16)
        else:
            op = build_cdp_operator(6, 3, seed=16)
        matvec = op.surrogate(np.random.default_rng(17).standard_normal(op.out_dim))
        rng = np.random.default_rng(18)
        stack = np.stack([_unit(rng, op.n) for _ in range(3)])
        for row, r in zip(matvec(stack), stack):
            np.testing.assert_allclose(row, matvec(r), rtol=1e-13, atol=1e-15)
        with pytest.raises(ValueError, match="operator expects"):
            matvec(np.ones((2, op.n + 1), dtype=complex))


class TestSubexpPhase:
    def test_single_rank_one_measurement(self):
        rows = np.array([[1.0 + 0.0j, 0.0, 0.0]])
        report = _subexp(rows, np.array([2.0]), seed=1)
        assert report.lambda_hat == pytest.approx(2.0, rel=1e-8)
        assert abs(report.estimate[0]) == pytest.approx(1.0, abs=1e-8)

    def test_identity_intensities_recover_signal(self):
        op = build_plain_ensemble(8, 5000, seed=15)
        x0 = _unit(substream(15, "x0"), 8)
        b = intensities(op, x0)
        report = _subexp(op.rows, b, seed=1)
        assert dist_sq(report.estimate, x0) <= 0.05
        assert 1.8 <= report.lambda_hat <= 2.2

    def test_matches_dense_oracle(self):
        op = build_plain_ensemble(8, 300, seed=16)
        x0 = _unit(substream(16, "x0"), 8)
        b = intensities(op, x0)
        report = _subexp(op.rows, b, seed=1, tol=1e-12, max_iters=20000)
        _, top_vec = hermitian_top_eig(dense_subexp_matrix(op.rows, b))
        assert dist_sq(report.estimate, top_vec) <= 1e-8

    def test_paired_ensemble_uses_both_arms(self):
        ops, x0 = _paired(6, 2000, seed=17)
        report = _init("subexp", ops, x0, seed=1)
        assert dist_sq(report.estimate, x0) <= 0.05

    def test_risk_gap_identity(self):
        # gap between the surrogate quadratic form at x0 and at x equals
        # 1 - |<x0, x>|^2 for unit vectors, up to sampling error
        op = build_plain_ensemble(4, 1000000, seed=18)
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
        op = build_plain_ensemble(4, 10, seed=19)
        with pytest.raises(ValueError):
            _subexp(op.rows, -np.ones(10))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_intensities_rejected(self, bad):
        op = build_plain_ensemble(4, 10, seed=19)
        b = np.ones(10)
        b[3] = bad
        with pytest.raises(ValueError, match="intensities must be finite"):
            _subexp(op.rows, b)

    def test_length_mismatch_rejected(self):
        op = build_plain_ensemble(4, 10, seed=20)
        with pytest.raises(ValueError):
            _subexp(op.rows, np.ones(11))


def _altmin_system(n, m, seed):
    ens, x0 = _paired(n, m, seed)
    return ens, ens[0].rows, intensities(ens[0], x0), x0


class TestAltMin:
    def test_exact_init_is_a_fixed_point(self):
        _, rows, b, x0 = _altmin_system(8, 64, seed=21)
        report = alt_min_many(MatrixOperator(rows), b, [x0], max_iters=3)[0]
        assert report.trace[0] <= 1e-20
        assert dist_sq(report.estimate, x0) <= 1e-12
        assert report.converged

    def test_objective_never_increases(self):
        _, rows, b, _ = _altmin_system(16, 64, seed=22)
        x_init = random_init(16, substream(22, "init"))
        report = alt_min_many(MatrixOperator(rows), b, [x_init], max_iters=100)[0]
        objectives = report.trace
        assert all(b2 <= b1 for b1, b2 in zip(objectives, objectives[1:]))

    def test_half_relaxation_is_alternating_projections(self, monkeypatch):
        _, rows, b, _ = _altmin_system(12, 96, seed=27)
        x_init = random_init(12, substream(27, "init"))
        op = MatrixOperator(rows)
        monkeypatch.setattr(recovery, "RAAR_BETA", 0.5)
        seen = []
        alt_min_many(
            op, b, [x_init], max_iters=10, tol=0.0, callback=lambda run, k, x: seen.append(x)
        )
        x = x_init
        for got in seen:
            x = op.lsq_solve(np.sqrt(b) * phase_op(rows.conj() @ x))
            np.testing.assert_allclose(got, x, atol=1e-10)

    def test_reports_best_iterate(self, monkeypatch):
        # RAAR is not monotone: on this system the 14th least-squares iterate
        # has a larger objective than the 13th.
        _, rows, b, _ = _altmin_system(16, 64, seed=28)
        x_init = random_init(16, substream(28, "init"))
        solve = MatrixOperator.lsq_solve
        iterates = []

        def recording_solve(op, rhs):
            # one start is a one-row stack: record its row
            x = solve(op, rhs)
            iterates.extend(x)
            return x

        monkeypatch.setattr(MatrixOperator, "lsq_solve", recording_solve)
        report = alt_min_many(MatrixOperator(rows), b, [x_init], max_iters=14, tol=0.0)[0]
        objectives = [
            float(np.sum((np.abs(rows.conj() @ x) - np.sqrt(b)) ** 2)) for x in iterates
        ]
        assert objectives[-1] > objectives[-2]
        assert report.trace == np.minimum.accumulate(objectives).tolist()
        np.testing.assert_array_equal(report.estimate, iterates[int(np.argmin(objectives))])

    def test_estimate_is_the_best_iterate_as_solved(self, monkeypatch):
        # copies taken at each solve: a later in-place write to the returned
        # array would show here, where the references of the test above
        # would follow it
        _, rows, b, _ = _altmin_system(16, 64, seed=28)
        x_init = random_init(16, substream(28, "init"))
        solve = MatrixOperator.lsq_solve
        iterates = []

        def copying_solve(op, rhs):
            x = solve(op, rhs)
            iterates.extend(x.copy())
            return x

        monkeypatch.setattr(MatrixOperator, "lsq_solve", copying_solve)
        report = alt_min_many(MatrixOperator(rows), b, [x_init], max_iters=14, tol=0.0)[0]
        objectives = [
            float(np.sum((np.abs(rows.conj() @ x) - np.sqrt(b)) ** 2)) for x in iterates
        ]
        assert report.trace == np.minimum.accumulate(objectives).tolist()
        best = iterates[int(np.argmin(objectives))]
        assert report.estimate.tobytes() == best.tobytes()

    @pytest.mark.parametrize("sensing", ["matrix", "cdp"])
    def test_one_solve_and_one_apply_per_iteration(self, sensing):
        if sensing == "matrix":
            _, rows, b, _ = _altmin_system(8, 48, seed=37)
            op = MatrixOperator(rows)
        else:
            op = build_cdp_operator(8, 4, seed=37)
            b = intensities(op, _unit(substream(37, "x0"), 8))
        counting = _CountingOperator(op)
        x_init = random_init(8, substream(37, "init"))
        report = alt_min_many(counting, b, [x_init], max_iters=9, tol=0.0)[0]
        assert report.iterations == 9
        assert counting.solves == 9
        assert counting.applies == 9 + 1

    @pytest.mark.parametrize("sensing", ["matrix", "cdp"])
    def test_inputs_are_not_written(self, sensing):
        if sensing == "matrix":
            _, rows, b, _ = _altmin_system(8, 48, seed=38)
            op = MatrixOperator(rows)
        else:
            op = build_cdp_operator(8, 4, seed=38)
            b = intensities(op, _unit(substream(38, "x0"), 8))
        x_init = random_init(8, substream(38, "init"))
        b_bytes, x_bytes = b.tobytes(), x_init.tobytes()
        alt_min_many(op, b, [x_init], max_iters=5, tol=0.0)
        assert b.tobytes() == b_bytes
        assert x_init.tobytes() == x_bytes

    def test_converges_from_spectral_init(self):
        n = 64
        good = 0
        for seed in range(20):
            ops, rows, b, x0 = _altmin_system(n, 6 * n, seed=100 + seed)
            init = _init("onebit", ops, x0, seed=seed).estimate
            report = alt_min_many(MatrixOperator(rows), b, [init], max_iters=50)[0]
            if dist_sq(report.estimate, x0) <= 1e-6:
                good += 1
        assert good >= 18

    def test_masked_dft_operator(self):
        op = build_cdp_operator(16, 8, seed=24)
        x0 = _unit(substream(24, "x0"), 16)
        b = intensities(op, x0)
        x_init = random_init(16, substream(24, "init"))
        report = alt_min_many(op, b, [x_init], max_iters=200)[0]
        assert dist_sq(report.estimate, x0) <= 1e-6

    def test_unobserved_coordinate_rejected(self):
        op = build_cdp_operator(8, 4, seed=29)
        masks = op.masks.copy()
        masks[:, 5] = 0.0
        blind = CdpOperator(masks)
        x_init = random_init(8, substream(29, "init"))
        with pytest.raises(ValueError, match="unobserved"):
            alt_min_many(blind, intensities(op, x_init), [x_init], max_iters=5)

    @pytest.mark.parametrize("sensing", ["matrix", "cdp"])
    def test_one_iteration_is_the_exact_least_squares_step(self, sensing):
        # the relaxation first reaches x in the second solve, so one
        # iteration is one phase projection and one solve, bit for bit
        if sensing == "matrix":
            _, rows, b, _ = _altmin_system(8, 48, seed=39)
            op = MatrixOperator(rows)
        else:
            op = build_cdp_operator(8, 4, seed=39)
            b = intensities(op, _unit(substream(39, "x0"), 8))
        x = random_init(8, substream(39, "init"))
        report = alt_min_many(op, b, [x], max_iters=1)[0]
        expected = op.lsq_solve(np.sqrt(b) * phase_op(op.apply(x)))
        assert report.estimate.tobytes() == expected.tobytes()
        assert report.iterations == 1

    def test_callback_sees_every_iteration(self):
        _, rows, b, _ = _altmin_system(8, 48, seed=25)
        x_init = random_init(8, substream(25, "init"))
        seen = []
        report = alt_min_many(
            MatrixOperator(rows), b, [x_init], max_iters=7, tol=0.0,
            callback=lambda run, k, x: seen.append(k),
        )[0]
        assert seen == list(range(1, report.iterations + 1))

    def test_rejects_bad_inputs(self):
        _, rows, b, _ = _altmin_system(4, 16, seed=26)
        op = MatrixOperator(rows)
        with pytest.raises(ValueError):
            alt_min_many(op, -b, [np.ones(4, dtype=complex)])
        with pytest.raises(ValueError):
            alt_min_many(op, b, [np.zeros(4, dtype=complex)])
        with pytest.raises(ValueError, match="max_iters must be at least 1"):
            alt_min_many(op, b, [np.ones(4, dtype=complex)], max_iters=0)
        with pytest.raises(ValueError, match="does not match b"):
            alt_min_many(op, b[:-1], [np.ones(4, dtype=complex)])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_intensities_rejected(self, bad):
        _, rows, b, _ = _altmin_system(4, 16, seed=26)
        b = b.copy()
        b[3] = bad
        with pytest.raises(ValueError, match="intensities must be finite"):
            alt_min_many(MatrixOperator(rows), b, [np.ones(4, dtype=complex)])


def _many_system(sensing, seed):
    """An operator, the noiseless intensities of a signal x0, x0 and four
    starts: three random ones and one near x0."""
    if sensing == "matrix":
        (op, _), x0 = _paired(12, 48, seed)
    else:
        op, x0 = build_cdp_operator(12, 4, seed), _unit(substream(seed, "x0"), 12)
    rng = substream(seed, "starts")
    starts = np.stack(
        [random_init(12, rng) for _ in range(3)] + [x0 + 0.1 * _unit(rng, 12)]
    )
    return op, intensities(op, x0), x0, starts


class TestAltMinMany:
    def test_cdp_runs_are_solo_runs_bit_for_bit(self):
        op, b, _, starts = _many_system("cdp", seed=80)
        reports = alt_min_many(op, b, starts, max_iters=150)
        assert len({r.iterations for r in reports}) > 1  # the stack shrinks on the way
        for report, start in zip(reports, starts):
            solo = alt_min_many(op, b, [start], max_iters=150)[0]
            assert report.estimate.tobytes() == solo.estimate.tobytes()
            assert report.trace == solo.trace
            assert report.iterations == solo.iterations
            assert report.converged == solo.converged

    def test_matrix_runs_match_solo_runs(self):
        # a stacked dense product is one GEMM, which agrees with the solo
        # run's GEMV to rounding
        op, b, _, starts = _many_system("matrix", seed=81)
        reports = alt_min_many(op, b, starts, max_iters=150)
        assert len({r.iterations for r in reports}) > 1
        for report, start in zip(reports, starts):
            solo = alt_min_many(op, b, [start], max_iters=150)[0]
            assert report.iterations == solo.iterations
            assert report.converged == solo.converged
            assert np.linalg.norm(report.estimate - solo.estimate) <= 1e-12 * np.linalg.norm(
                solo.estimate
            )

    @pytest.mark.parametrize("sensing", ["matrix", "cdp"])
    def test_runs_stop_independently(self, sensing):
        op, b, x0, starts = _many_system(sensing, seed=82)
        counting = _CountingOperator(op)
        seen = {0: [], 1: []}
        reports = alt_min_many(
            counting, b, [x0, starts[0]], max_iters=100,
            callback=lambda run, k, x: seen[run].append(k),
        )
        assert reports[0].converged and reports[0].iterations <= 3
        assert reports[1].iterations > reports[0].iterations + 10
        for run, report in enumerate(reports):
            assert seen[run] == list(range(1, report.iterations + 1))
        # the stopped run leaves the stack
        assert counting.solve_rows == (
            [2] * reports[0].iterations + [1] * (reports[1].iterations - reports[0].iterations)
        )

    def test_callback_sees_its_own_run_and_best_iterate(self):
        op, b, _, starts = _many_system("cdp", seed=83)
        last = {}
        reports = alt_min_many(
            op, b, starts, max_iters=40, callback=lambda run, k, x: last.update({run: (k, x)})
        )
        for run, report in enumerate(reports):
            k, x = last[run]
            assert k == report.iterations
            assert x.tobytes() == report.estimate.tobytes()

    @pytest.mark.parametrize("sensing", ["matrix", "cdp"])
    def test_one_stacked_solve_and_apply_per_iteration(self, sensing):
        op, b, _, starts = _many_system(sensing, seed=84)
        counting = _CountingOperator(op)
        reports = alt_min_many(counting, b, starts, max_iters=9, tol=0.0)
        assert [r.iterations for r in reports] == [9] * 4
        assert counting.solves == 9
        assert counting.applies == 9 + 1
        assert counting.solve_rows == [4] * 9
        assert counting.apply_rows == [4] * 10

    @pytest.mark.parametrize("sensing", ["matrix", "cdp"])
    def test_inputs_are_not_written(self, sensing):
        op, b, _, starts = _many_system(sensing, seed=85)
        b_bytes, start_bytes = b.tobytes(), starts.tobytes()
        alt_min_many(op, b, starts, max_iters=5, tol=0.0)
        assert b.tobytes() == b_bytes
        assert starts.tobytes() == start_bytes

    def test_rejects_bad_starts(self):
        op, b, _, starts = _many_system("cdp", seed=86)
        bad = starts.copy()
        bad[1] = 0.0
        with pytest.raises(ValueError, match="nonzero"):
            alt_min_many(op, b, bad)
        bad[1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            alt_min_many(op, b, bad)
        for shape in (starts[0], starts[:0], starts[None]):
            with pytest.raises(ValueError, match="stack"):
                alt_min_many(op, b, shape)
        with pytest.raises(ValueError, match="operator expects"):
            alt_min_many(op, b, starts[:, :-1])


INTERLEAVED = (slice(0, None, 2), slice(1, None, 2))


def _resampled_start(op, x0, epsilon, kind, seed=0):
    """Stages of the resampled schedule over the noiseless pairs of ``x0``,
    measured by the interleaved rows of ``op``, and the block-0 init of
    ``kind``."""
    init_data, stages = resample_blocks(op, *_observed((op, INTERLEAVED), x0), epsilon)
    return stages, initial_estimate(kind, *init_data, seed).estimate


class TestAltMinResampled:
    def test_single_stage_schedule(self):
        (op, _), x0 = _paired(8, 40, seed=27)
        for kind in INIT_KINDS:
            stages, x_init = _resampled_start(op, x0, 0.5, kind)
            report = alt_min_resampled(stages, x_init)
            assert report.iterations == 1, kind
            assert len(report.trace) == 1, kind

    def test_insufficient_measurements_error_names_requirement(self):
        (op, _), _ = _paired(16, 20, seed=28)
        with pytest.raises(ValueError, match="64"):
            resample_blocks(op, np.ones(40), np.ones(20), epsilon=0.1)

    def test_reaches_target_accuracy(self):
        n, eps = 32, 0.1
        stages = 3  # ceil(log(1/eps))
        pairs = 40 * n * stages // 2
        good = 0
        for seed in range(20):
            (op, _), x0 = _paired(n, pairs, seed=200 + seed)
            blocks, x_init = _resampled_start(op, x0, eps, "onebit", seed)
            report = alt_min_resampled(blocks, x_init)
            assert report.iterations == stages
            if dist_sq(report.estimate, x0) <= eps**2:
                good += 1
        assert good >= 18

    def test_stage_errors_decrease(self):
        n, eps = 32, 0.1
        pairs = 40 * n * 3 // 2
        good = 0
        for seed in range(20):
            (op, _), x0 = _paired(n, pairs, seed=300 + seed)
            stages, x_init = _resampled_start(op, x0, eps, "onebit", seed)
            errs = [dist_sq(x_init, x0)]
            alt_min_resampled(
                stages, x_init, callback=lambda t, x: errs.append(dist_sq(x, x0))
            )
            if all(e2 < e1 for e1, e2 in zip(errs, errs[1:])):
                good += 1
        assert good >= 18

    def test_each_stage_is_the_exact_least_squares_step(self):
        (op, _), x0 = _paired(8, 96, seed=33)
        stages, x_init = _resampled_start(op, x0, 0.1, "onebit")
        seen = []
        report = alt_min_resampled(stages, x_init, callback=lambda t, x: seen.append(x))
        x = x_init
        for (op, b), got in zip(stages, seen):
            x = op.lsq_solve(np.sqrt(b) * phase_op(op.apply(x)))
            np.testing.assert_array_equal(got, x)
        assert len(seen) == len(stages)
        assert report.converged

    def test_plain_ensemble_pairs_consecutive_rows(self):
        n = 16
        rows = build_plain_ensemble(n, 40 * n, seed=29).rows
        x0 = _unit(substream(29, "x0"), n)
        stages, x_init = _resampled_start(
            MatrixOperator(rows), x0, 0.5, "weighted1bit"
        )
        report = alt_min_resampled(stages, x_init)
        assert dist_sq(report.estimate, x0) <= 0.25

    def test_epsilon_domain(self):
        (op, _), _ = _paired(4, 100, seed=30)
        for eps in (0.0, 1.0, 1.5):
            with pytest.raises(ValueError):
                resample_blocks(op, np.ones(200), np.ones(100), eps)

    def test_block_layout(self):
        # 15 pairs in 4 blocks: block 0 takes 9 of the 30 interleaved
        # measurements, an odd count, and each stage takes 7
        op, pairs = build_paired_ensemble(3, 15, seed=31)
        b1, b2, y = np.arange(15.0), np.arange(15.0) + 15, np.sign(np.arange(15.0) - 7)
        b = np.empty(30)
        b[pairs[0]], b[pairs[1]] = b1, b2
        init_data, stages = resample_blocks(op, b, y, epsilon=0.1)
        families = (op[pairs[0]], op[pairs[1]])

        def assert_interleaved(block, b_block, lo):
            """``block``/``b_block`` hold measurements lo, lo+1, ... of
            a1_1, a2_1, a1_2, ..., and ``block`` is a view of the ensemble's
            rows."""
            assert np.shares_memory(block.rows, op.rows)
            assert len(b_block) == block.out_dim
            for i, j in enumerate(range(lo, lo + block.out_dim)):
                np.testing.assert_array_equal(block.rows[i], families[j % 2].rows[j // 2])
                assert b_block[i] == (b1, b2)[j % 2][j // 2]

        op0, b0, y0, pairs0 = init_data
        assert op0.out_dim == 9
        assert_interleaved(op0, b0, 0)
        # the 9th measurement has no partner in block 0
        for family, clean, block in zip(families, (b1, b2), pairs0):
            np.testing.assert_array_equal(op0.rows[block], family.rows[:4])
            np.testing.assert_array_equal(b0[block], clean[:4])
        np.testing.assert_array_equal(y0, y[:4])
        assert [op.out_dim for op, _ in stages] == [7, 7, 7]
        for k, (stage, b_stage) in enumerate(stages):
            assert_interleaved(stage, b_stage, 9 + 7 * k)

    @pytest.mark.parametrize("bad", ["op2", "b", "y"])
    def test_shape_mismatch_rejected(self, bad):
        (op, _), _ = _paired(4, 40, seed=32)
        args = dict(op=op, b=np.ones(80), y=np.ones(40))
        if bad == "op2":
            args["op"] = op[:-1]  # the second family is a row short
        else:
            args[bad] = np.ones(args[bad].size - 1)
        with pytest.raises(ValueError, match="shape"):
            resample_blocks(epsilon=0.5, **args)


    def test_inputs_are_not_written(self):
        (op, _), x0 = _paired(8, 120, seed=39)
        _, stages = resample_blocks(op, *_observed((op, INTERLEAVED), x0), 0.25)
        x_init = random_init(8, substream(39, "init"))
        snapshot = [b.tobytes() for _, b in stages] + [x_init.tobytes()]
        alt_min_resampled(stages, x_init)
        assert [b.tobytes() for _, b in stages] + [x_init.tobytes()] == snapshot


@pytest.fixture(params=[True, False], ids=["worker", "serial"])
def schedule(request, monkeypatch):
    """Force the worker schedule of ``factor_ahead``, then the serial one,
    whatever the BLAS thread count; yields whether the worker runs, and
    records the thread each stage is factored on in ``schedule.threads``."""
    monkeypatch.setattr(recovery, "_spare_core", lambda: request.param)
    threads = []
    factored = recovery._factored

    def recording(op, b):
        threads.append(threading.get_ident())
        return factored(op, b)

    monkeypatch.setattr(recovery, "_factored", recording)
    yield request.param, threads


class TestFactorAhead:
    def test_stages_are_factored_where_the_schedule_says(self, schedule):
        worker, threads = schedule
        (op, _), x0 = _paired(16, 320, seed=41)
        stages, x_init = _resampled_start(op, x0, 0.25, "onebit")
        before = threading.enumerate()
        with factor_ahead(stages) as ahead:
            assert (len(threading.enumerate()) > len(before)) == worker
            report = alt_min_resampled(ahead, x_init)
        assert threading.enumerate() == before
        assert len(threads) == len(stages) == 2
        assert (threading.get_ident() not in threads) == worker
        # the same bits as stages factored at their first solve
        (op, _), _ = _paired(16, 320, seed=41)
        plain, _ = _resampled_start(op, x0, 0.25, "onebit")
        assert alt_min_resampled(plain, x_init).estimate.tobytes() == report.estimate.tobytes()

    @pytest.mark.parametrize("zero_stage", [0, 1])
    def test_a_stage_that_cannot_be_factored_raises_in_the_caller(self, schedule, zero_stage):
        (op, _), x0 = _paired(16, 320, seed=42)
        stages, x_init = _resampled_start(op, x0, 0.25, "onebit")
        # all-zero rows give a zero Gram, which is not positive definite
        stages[zero_stage][0].rows[:] = 0.0
        before = threading.enumerate()
        seen = []
        with pytest.raises(np.linalg.LinAlgError, match="potrf found a leading minor"):
            with factor_ahead(stages) as ahead:
                alt_min_resampled(ahead, x_init, callback=lambda t, x: seen.append(t))
        assert threading.enumerate() == before
        assert seen == list(range(1, zero_stage + 1))

    def test_a_body_that_raises_joins_the_worker(self, schedule):
        worker, threads = schedule
        (op, _), x0 = _paired(16, 320, seed=43)
        stages, _ = _resampled_start(op, x0, 0.25, "onebit")
        before = threading.enumerate()
        with pytest.raises(RuntimeError, match="init failed"):
            with factor_ahead(stages):
                raise RuntimeError("init failed")
        assert threading.enumerate() == before
        # the serial schedule factors nothing it does not reach
        assert worker or threads == []

    def test_no_stages_start_no_thread(self, monkeypatch):
        def unread():
            raise AssertionError("no stages need no thread count")

        monkeypatch.setattr(recovery, "_spare_core", unread)
        with factor_ahead([]) as ahead:
            assert list(ahead) == []


class TestMultiInitSelect:
    def test_picks_the_true_signal(self):
        _, rows, b, x0 = _altmin_system(8, 80, seed=31)
        rng = substream(31, "decoys")
        starts = [_unit(rng, 8), x0, _unit(rng, 8)]
        row = multi_init_select(MatrixOperator(rows), b, starts)
        assert type(row) is int
        assert row == 1

    def test_selection_is_phase_invariant(self):
        _, rows, b, x0 = _altmin_system(8, 80, seed=32)
        rng = substream(32, "decoys")
        decoy = _unit(rng, 8)
        rotated = np.exp(1j * 1.1) * x0
        assert multi_init_select(MatrixOperator(rows), b, [decoy, rotated]) == 1

    def test_single_start(self):
        _, rows, b, x0 = _altmin_system(4, 16, seed=33)
        assert multi_init_select(MatrixOperator(rows), b, [x0]) == 0

    def test_inputs_are_not_written(self):
        _, rows, b, x0 = _altmin_system(8, 80, seed=40)
        rng = substream(40, "decoys")
        starts = np.stack([_unit(rng, 8), x0])
        snapshot = [starts.tobytes(), b.tobytes()]
        multi_init_select(MatrixOperator(rows), b, starts)
        assert [starts.tobytes(), b.tobytes()] == snapshot

    def test_empty_or_flat_starts_rejected(self):
        _, rows, b, x0 = _altmin_system(4, 16, seed=34)
        for starts in ([], np.empty((0, 4)), x0):
            with pytest.raises(ValueError, match="stack"):
                multi_init_select(MatrixOperator(rows), b, starts)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_intensities_rejected(self, bad):
        _, rows, b, x0 = _altmin_system(4, 16, seed=35)
        b = b.copy()
        b[3] = bad
        with pytest.raises(ValueError, match="intensities must be finite"):
            multi_init_select(MatrixOperator(rows), b, [x0])

    @pytest.mark.parametrize("sensing", ["matrix", "cdp"])
    def test_non_finite_start_is_skipped(self, sensing):
        op, b, x0, starts = _many_system(sensing, seed=41)
        nan_vec = np.full(op.n, np.nan, dtype=complex)
        with np.errstate(invalid="ignore"):
            row = multi_init_select(op, b, [starts[0], nan_vec, x0, starts[1]])
        assert row == 2

    def test_ties_keep_the_earliest_row(self):
        _, rows, b, _ = _altmin_system(8, 80, seed=42)
        decoy = _unit(substream(42, "decoy"), 8)
        assert multi_init_select(MatrixOperator(rows), b, [decoy, decoy, decoy]) == 0

    @pytest.mark.parametrize("sensing", ["matrix", "cdp"])
    def test_one_stacked_apply_over_the_starts(self, sensing):
        op, b, _, starts = _many_system(sensing, seed=43)
        counting = _CountingOperator(op)
        multi_init_select(counting, b, starts)
        assert counting.apply_rows == [4]
        assert counting.adjoints == counting.solves == 0

    def test_no_finite_score_raises(self):
        _, rows, b, _ = _altmin_system(4, 16, seed=36)
        nan_vec = np.full(4, np.nan, dtype=complex)
        with np.errstate(invalid="ignore"):
            with pytest.raises(RuntimeError, match="finite"):
                multi_init_select(MatrixOperator(rows), b, [nan_vec, nan_vec])


class TestInitKinds:
    def test_unknown_kind(self):
        (op, pairs), x0 = _paired(4, 10, seed=37)
        b, y = _observed((op, pairs), x0)
        message = "unknown init kind 'magic'; expected one of random, subexp, onebit, weighted1bit"
        with pytest.raises(ValueError, match=message):
            initial_estimate("magic", op, b, y, pairs, 0)

    @pytest.mark.parametrize("kind", ["subexp", "onebit", "weighted1bit"])
    def test_all_zero_surrogate_refused(self, kind):
        # every pair tied (y = 0), and for subexp every intensity zero: the
        # surrogate is zero and Lanczos would hand back its start vector
        (op, pairs), x0 = _paired(4, 4, seed=38)
        b = np.zeros(8) if kind == "subexp" else _observed((op, pairs), x0)[0]
        with pytest.raises(ValueError, match=f"every {kind} surrogate coefficient is zero"):
            initial_estimate(kind, op, b, np.zeros(4), pairs, 0)


SPECTRAL_KINDS = {"subexp", "onebit", "weighted1bit"}


def _reports_of(producer, seen):
    """The reports one call of ``producer`` returns.  A refinement calls back
    into ``seen``, one ``(run, k)`` per call."""
    if producer in INIT_KINDS:
        return [_init(producer, *_paired(8, 400, seed=90), seed=1)]
    if producer == "alt_min_many":
        # two starts: the one at x0 stops long before the random one
        op, b, x0, starts = _many_system("cdp", seed=82)
        reports = alt_min_many(
            op, b, [x0, starts[0]], max_iters=100,
            callback=lambda run, k, x: seen.append((run, k)),
        )
        assert reports[0].converged and reports[0].iterations < reports[1].iterations
        return reports
    (op, _), x0 = _paired(8, 96, seed=33)
    stages, x_init = _resampled_start(op, x0, 0.1, "onebit")
    report = alt_min_resampled(stages, x_init, callback=lambda t, x: seen.append((0, t)))
    assert report.iterations == len(stages) > 1
    return [report]


class TestReportRecord:
    @pytest.mark.parametrize(
        "producer", [*INIT_KINDS, "alt_min_many", "alt_min_resampled"]
    )
    def test_every_producer_keeps_one_record(self, producer):
        seen = []
        reports = _reports_of(producer, seen)
        refines = producer in ("alt_min_many", "alt_min_resampled")
        for run, report in enumerate(reports):
            assert report.iterations == len(report.trace)
            assert all(type(value) is float for value in report.trace)
            assert isinstance(report.converged, bool)
            if producer not in SPECTRAL_KINDS:
                assert report.lambda_hat == 0.0
            # a refinement calls back once per step of each run, never for its start
            if refines:
                assert [k for r, k in seen if r == run] == list(range(1, report.iterations + 1))
        assert len(seen) == (sum(report.iterations for report in reports) if refines else 0)

    def test_converged_must_be_stated_and_iterations_are_derived(self):
        with pytest.raises(TypeError, match="converged"):
            RecoveryReport(np.ones(2), [])
        report = RecoveryReport(np.ones(2), [0.5, 0.25], False)
        assert (report.iterations, report.lambda_hat) == (2, 0.0)
        with pytest.raises(AttributeError):
            report.iterations = 3
