import threading
import tracemalloc

import numpy as np
import pytest
from scipy import stats
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.blas import zherk, ztrsv

from onebitphase import numkit, sensing
from onebitphase.blas import rank_k_update
from onebitphase.sensing import (
    CdpOperator,
    MatrixOperator,
    build_cdp_operator,
    build_paired_cdp,
    build_paired_ensemble,
    build_plain_ensemble,
    intensities,
    sample_complex_gaussian,
    sample_exponential,
    substream,
)

MIB = 2**20


def _unit(rng, n):
    v = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * np.sqrt(0.5)
    return v / np.linalg.norm(v)


def _families(seed, n, m):
    """The two pair families of a paired ensemble, as views of its rows."""
    op, pairs = build_paired_ensemble(n, m, seed)
    return op[pairs[0]], op[pairs[1]]


def _reference_gaussian(shape, rng):
    """The draw order of every seeded ensemble: all real parts, then all
    imaginary parts, each one full ``standard_normal`` call."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * np.sqrt(0.5)


class TestSubstream:
    def test_deterministic(self):
        a = substream(7, "rows", 1).standard_normal(4)
        b = substream(7, "rows", 1).standard_normal(4)
        np.testing.assert_array_equal(a, b)

    def test_distinct_keys_decorrelate(self):
        a = substream(7, "rows", 1).standard_normal(4)
        b = substream(7, "rows", 2).standard_normal(4)
        c = substream(8, "rows", 1).standard_normal(4)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_rejects_odd_key_types(self):
        with pytest.raises(TypeError):
            substream(0, 1.5)


class TestComplexGaussian:
    def test_unit_coordinate_power(self):
        rng = np.random.default_rng(0)
        draws = np.concatenate(
            [sample_complex_gaussian(8, rng) for _ in range(12500)]
        )
        assert np.mean(np.abs(draws) ** 2) == pytest.approx(1.0, abs=0.02)

    def test_real_and_imaginary_parts_balanced(self):
        rng = np.random.default_rng(1)
        draws = sample_complex_gaussian(100000, rng)
        assert np.var(draws.real) == pytest.approx(0.5, abs=0.01)
        assert np.var(draws.imag) == pytest.approx(0.5, abs=0.01)

    def test_draw_order_and_out_view(self):
        # real parts first, then imaginary parts: seeded ensembles depend on
        # it, and drawing in chunks must not change the order
        chunk = numkit.GAUSS_CHUNK
        shapes = [(6, 3), (3 * chunk + 123,), (4 * (chunk // 300) + 57, 300), (3, chunk + 5)]
        for shape in shapes:
            want = _reference_gaussian(shape, np.random.default_rng(2))
            got = sample_complex_gaussian(shape, np.random.default_rng(2))
            np.testing.assert_array_equal(got, want, err_msg=str(shape))
            slots = np.zeros((2 * shape[0],) + shape[1:], dtype=complex)
            got = sample_complex_gaussian(shape, np.random.default_rng(2), out=slots[1::2])
            assert np.shares_memory(got, slots)
            np.testing.assert_array_equal(slots[1::2], want, err_msg=str(shape))
            assert not np.any(slots[0::2])

    def test_out_shape_must_match(self):
        with pytest.raises(ValueError, match="shape"):
            sample_complex_gaussian((4, 3), np.random.default_rng(0), out=np.empty((3,), dtype=complex))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            sample_complex_gaussian(0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            sample_complex_gaussian((3, 0), np.random.default_rng(0))


class TestEnsembles:
    def test_paired_regenerates_identically(self):
        (first, pairs), (again, same_pairs) = (build_paired_ensemble(6, 40, seed=3) for _ in "ab")
        np.testing.assert_array_equal(first.rows, again.rows)
        assert pairs == same_pairs

    def test_build_leaves_no_thread_running(self):
        # one family of 256 x 128 entries holds GAUSS_CHUNK doubles: a worker draws it
        before = threading.enumerate()
        build_paired_ensemble(128, 256, seed=3)
        assert threading.enumerate() == before

    def test_only_a_build_that_repays_a_thread_starts_one(self, monkeypatch):
        starts = []
        start = threading.Thread.start

        def counting(thread):
            starts.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting)
        build_paired_ensemble(6, 40, seed=3)
        assert starts == []
        build_paired_ensemble(128, 255, seed=3)
        assert starts == []
        build_paired_ensemble(128, 256, seed=3)
        assert len(starts) == 1

    def test_pair_families_differ(self):
        op1, op2 = _families(3, 6, 40)
        assert not np.array_equal(op1.rows, op2.rows)

    def test_families_fill_alternate_rows(self):
        # (300, 700) spans several draw chunks and ends in a ragged one
        for n, m, seed in [(5, 12, 4), (300, 700, 5)]:
            op_all, pairs = build_paired_ensemble(n, m, seed)
            assert op_all.rows.shape == (2 * m, n)
            assert pairs == (slice(0, None, 2), slice(1, None, 2))
            for k, family in enumerate(pairs, start=1):
                want = _reference_gaussian((m, n), substream(seed, "paired-rows", k))
                np.testing.assert_array_equal(op_all.rows[family], want)

    def test_plain_regenerates_identically(self):
        e1 = build_plain_ensemble(5, 30, seed=9)
        e2 = build_plain_ensemble(5, 30, seed=9)
        np.testing.assert_array_equal(e1.rows, e2.rows)

    def test_seeds_produce_different_rows(self):
        e1 = build_plain_ensemble(5, 30, seed=9)
        e2 = build_plain_ensemble(5, 30, seed=10)
        assert not np.array_equal(e1.rows, e2.rows)

    def test_row_covariance_is_identity(self):
        ens = build_plain_ensemble(4, 25000, seed=11)
        cov = ens.rows.conj().T @ ens.rows / ens.out_dim
        assert np.max(np.abs(cov - np.eye(4))) < 0.05

    def test_intensity_matches_vectorized_path(self):
        op1, op2 = _families(5, 6, 20)
        rng = np.random.default_rng(2)
        x = _unit(rng, 6)
        b1, b2 = intensities(op1, x), intensities(op2, x)
        assert b1[3] == pytest.approx(abs(np.vdot(op1.rows[3], x)) ** 2)
        assert b2[7] == pytest.approx(abs(np.vdot(op2.rows[7], x)) ** 2)

    def test_row_intensities_match_conjugated_rows_bit_for_bit(self):
        op_all, pairs = build_paired_ensemble(12, 64, seed=6)
        rows = op_all.rows
        x = _unit(np.random.default_rng(3), 12)
        for view in (rows, rows[0::2], rows[1::2]):
            np.testing.assert_array_equal(
                intensities(MatrixOperator(view), x), np.abs(view.conj() @ x) ** 2
            )
        for op in (op_all, op_all[pairs[0]], op_all[pairs[1]]):
            np.testing.assert_array_equal(intensities(op, x), np.abs(op.rows.conj() @ x) ** 2)


class TestMeasurementLaws:
    """Distributional checks against the exact laws of unit-signal sensing."""

    def test_intensity_is_exponential(self):
        ens = build_plain_ensemble(8, 100000, seed=13)
        rng = np.random.default_rng(3)
        x = _unit(rng, 8)
        b = np.abs(ens.rows.conj() @ x) ** 2
        stat = stats.kstest(b, "expon").statistic
        assert stat <= 0.01

    def test_rotation_invariance(self):
        ens = build_plain_ensemble(8, 100000, seed=14)
        rng = np.random.default_rng(4)
        x1 = _unit(rng, 8)
        x2 = _unit(rng, 8)
        b1 = np.abs(ens.rows.conj() @ x1) ** 2
        b2 = np.abs(ens.rows.conj() @ x2) ** 2
        stat = stats.ks_2samp(b1, b2).statistic
        assert stat <= 0.015

    def test_pair_gap_is_exponential(self):
        op1, op2 = _families(15, 8, 100000)
        rng = np.random.default_rng(5)
        x = _unit(rng, 8)
        b1, b2 = intensities(op1, x), intensities(op2, x)
        stat = stats.kstest(np.abs(b1 - b2), "expon").statistic
        assert stat <= 0.01

    def test_pair_ratio_is_uniform(self):
        op1, op2 = _families(16, 8, 100000)
        rng = np.random.default_rng(6)
        x = _unit(rng, 8)
        b1, b2 = intensities(op1, x), intensities(op2, x)
        stat = stats.kstest(b1 / (b1 + b2), "uniform").statistic
        assert stat <= 0.01


class TestScalarSamplers:
    def test_exponential_mean(self):
        rng = np.random.default_rng(7)
        draws = sample_exponential(2.0, rng, size=1000000)
        assert np.mean(draws) == pytest.approx(2.0, rel=0.01)
        assert np.min(draws) >= 0.0

    def test_exponential_distribution(self):
        rng = np.random.default_rng(8)
        draws = sample_exponential(1.0, rng, size=100000)
        assert stats.kstest(draws, "expon").statistic <= 0.01

    def test_exponential_zero_mean_degenerates(self):
        rng = np.random.default_rng(9)
        assert sample_exponential(0.0, rng) == 0.0
        np.testing.assert_array_equal(sample_exponential(0.0, rng, size=5), np.zeros(5))

    def test_exponential_rejects_negative_mean(self):
        with pytest.raises(ValueError):
            sample_exponential(-1.0, np.random.default_rng(0))


class TestCdp:
    def test_impulse_through_flat_masks(self):
        op = CdpOperator(np.ones((1, 4), dtype=complex))
        e1 = np.zeros(4, dtype=complex)
        e1[0] = 1.0
        np.testing.assert_allclose(intensities(op, e1), np.full(4, 0.25), atol=1e-12)

    def test_matches_explicit_masked_dft(self):
        op = build_cdp_operator(6, 3, seed=21)
        rng = np.random.default_rng(12)
        x = sample_complex_gaussian(6, rng)
        expected = np.concatenate(
            [np.fft.fft(op.masks[i] * x, norm="ortho") for i in range(3)]
        )
        assert (op.r, op.n, op.out_dim) == (3, 6, 18)
        np.testing.assert_allclose(op.apply(x), expected, atol=1e-12)
        np.testing.assert_array_equal(intensities(op, x), np.abs(expected) ** 2)

    def test_adjoint_identity(self):
        op = build_cdp_operator(8, 4, seed=22)
        rng = np.random.default_rng(13)
        x = sample_complex_gaussian(8, rng)
        y = sample_complex_gaussian(32, rng)
        lhs = np.vdot(y, op.apply(x))
        rhs = np.vdot(op.adjoint(y), x)
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_flat_single_mask_is_unitary(self):
        op = CdpOperator(np.ones((1, 8), dtype=complex))
        rng = np.random.default_rng(14)
        x = sample_complex_gaussian(8, rng)
        np.testing.assert_allclose(op.adjoint(op.apply(x)), x, atol=1e-12)

    def test_repeated_mask_composition(self):
        rng = np.random.default_rng(15)
        w = sample_complex_gaussian(4, rng)
        op = CdpOperator(np.stack([w, w]))
        x = sample_complex_gaussian(4, rng)
        np.testing.assert_allclose(
            op.adjoint(op.apply(x)), 2.0 * np.abs(w) ** 2 * x, atol=1e-12
        )

    def test_unimodular_masks_preserve_energy(self):
        rng = np.random.default_rng(16)
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, (3, 8)))
        op = CdpOperator(phases)
        x = sample_complex_gaussian(8, rng)
        total = np.sum(intensities(op, x))
        assert total == pytest.approx(3.0 * np.linalg.norm(x) ** 2, rel=1e-12)

    def test_regenerates_identically(self):
        a = build_cdp_operator(8, 2, seed=30)
        b = build_cdp_operator(8, 2, seed=30)
        np.testing.assert_array_equal(a.masks, b.masks)

    def test_paired_families_are_the_single_family_masks(self):
        seeds = [int(substream(31, key).integers(0, 2**63)) for key in ("m1", "m2")]
        op, pairs = build_paired_cdp(8, 3, seeds)
        stacked = np.vstack([build_cdp_operator(8, 3, seed).masks for seed in seeds])
        assert op.masks.tobytes() == stacked.tobytes()
        assert pairs == (slice(None, 24), slice(24, None))
        x = sample_complex_gaussian(8, np.random.default_rng(17))
        b = intensities(op, x)
        for k, seed in enumerate(seeds):
            family = intensities(build_cdp_operator(8, 3, seed), x)
            assert b[pairs[k]].tobytes() == family.tobytes()

    def test_paired_needs_one_seed_per_family(self):
        with pytest.raises(ValueError, match="one seed per mask family"):
            build_paired_cdp(8, 3, [1, 2, 3])



def _operators():
    return [build_paired_ensemble(6, 10, seed=40)[0], build_cdp_operator(6, 3, seed=40)]


class TestOperatorBoundary:
    """Operators check their array once, at construction, and only the
    length of each apply/adjoint input afterwards."""

    @pytest.mark.parametrize("cls", [MatrixOperator, CdpOperator])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.inf)])
    def test_non_finite_array_rejected(self, cls, bad):
        array = np.ones((3, 4), dtype=complex)
        array[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            cls(array)

    @pytest.mark.parametrize("cls", [MatrixOperator, CdpOperator])
    def test_non_matrix_rejected(self, cls):
        with pytest.raises(ValueError, match="2-D"):
            cls(np.ones(4, dtype=complex))

    def test_view_is_not_scanned_again(self, monkeypatch):
        op = build_plain_ensemble(4, 10, seed=42)
        scans = []
        monkeypatch.setattr(sensing, "_checked_matrix", lambda *args: scans.append(args))
        view = op[1::3]
        assert scans == []
        np.testing.assert_array_equal(view.rows, op.rows[1::3])
        x = _unit(np.random.default_rng(7), 4)
        np.testing.assert_array_equal(view.apply(x), op.apply(x)[1::3])

    @pytest.mark.parametrize("key", [0, (slice(None), 1), None], ids=["row", "column", "newaxis"])
    def test_view_must_stay_a_matrix(self, key):
        op = build_plain_ensemble(4, 10, seed=43)
        with pytest.raises(ValueError, match="2-D"):
            op[key]

    def test_empty_masks_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            CdpOperator(np.ones((0, 4), dtype=complex))

    @pytest.mark.parametrize("op", _operators(), ids=["matrix", "cdp"])
    @pytest.mark.parametrize("size", [1, 5, 7])
    def test_wrong_length_apply_rejected(self, op, size):
        with pytest.raises(ValueError, match="operator expects"):
            op.apply(np.ones(size, dtype=complex))

    @pytest.mark.parametrize("op", _operators(), ids=["matrix", "cdp"])
    def test_wrong_length_adjoint_rejected(self, op):
        for size in (1, op.out_dim - 1, op.out_dim + 1):
            with pytest.raises(ValueError, match="operator expects"):
                op.adjoint(np.ones(size, dtype=complex))

    @pytest.mark.parametrize(
        "op",
        _operators() + [
            # a strided family: rows.T is not Fortran-ordered, so the Gram
            # update works on a copy
            _families(44, 6, 10)[0],
            # real rows, which the constructor accepts
            MatrixOperator(np.random.default_rng(45).standard_normal((14, 6))),
        ],
        ids=["matrix", "cdp", "strided-family", "real-rows"],
    )
    def test_lsq_solve_matches_dense_lstsq(self, op):
        dense = np.stack([op.apply(e) for e in np.eye(op.n, dtype=complex)], axis=1)
        y = sample_complex_gaussian(op.out_dim, np.random.default_rng(41))
        expected = np.linalg.lstsq(dense, y, rcond=None)[0]
        np.testing.assert_allclose(op.lsq_solve(y), expected, atol=1e-12)
        # the cached factor serves a second right-hand side
        np.testing.assert_allclose(op.lsq_solve(2 * y), 2 * expected, atol=1e-12)

    @pytest.mark.parametrize(
        "op",
        [
            _operators()[0],
            _families(44, 6, 10)[0],
            MatrixOperator(np.random.default_rng(45).standard_normal((14, 6))),
        ],
        ids=["matrix", "strided-family", "real-rows"],
    )
    def test_triangular_solves_match_cho_solve(self, op):
        # the Gram and its factor are the bits of scipy's zherk and cho_factor
        gram = zherk(1.0, op.rows.T)
        assert rank_k_update(1.0, op.rows.T).tobytes() == gram.tobytes()
        u, lower = cho_factor(gram, lower=False)
        factor = op._normal_factor
        assert factor.u.tobytes() == u.tobytes()
        for y in (sample_complex_gaussian(op.out_dim, np.random.default_rng(50)),
                  np.random.default_rng(51).standard_normal(op.out_dim)):
            x = op.lsq_solve(y)
            # each solve is scipy's two ztrsv on A* y, bit for bit
            rhs = op.adjoint(y).astype(complex)
            w = ztrsv(u, rhs, lower=0, trans=2)
            assert x.tobytes() == ztrsv(u, w, lower=0, trans=0).tobytes()
            expected = cho_solve((u, lower), rhs)
            assert np.linalg.norm(x - expected) <= 1e-13 * np.linalg.norm(expected)
        # the solves run in place on A* y, never on the cached factor
        assert factor.u.tobytes() == u.tobytes()

    @pytest.mark.parametrize(
        "op",
        _operators() + [_families(46, 6, 10)[1]],
        ids=["matrix", "cdp", "strided-family"],
    )
    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(-np.inf, 1.0)])
    def test_lsq_solve_rejects_non_finite_y(self, op, bad):
        y = sample_complex_gaussian(op.out_dim, np.random.default_rng(47))
        y[op.out_dim // 2] = bad
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValueError, match="y entries must be finite"):
                op.lsq_solve(y)

    @pytest.mark.parametrize(
        "op",
        _operators() + [_families(48, 6, 10)[0]],
        ids=["matrix", "cdp", "strided-family"],
    )
    def test_arguments_are_not_written(self, op):
        rng = np.random.default_rng(49)
        x = sample_complex_gaussian(op.n, rng)
        y = sample_complex_gaussian(op.out_dim, rng)
        x_bytes, y_bytes = x.tobytes(), y.tobytes()
        op.apply(x)
        op.adjoint(y)
        op.lsq_solve(y)
        assert x.tobytes() == x_bytes
        assert y.tobytes() == y_bytes


def _stack(rng, k, size):
    return np.stack([sample_complex_gaussian(size, rng) for _ in range(k)])


class TestStackedOperators:
    """``apply``, ``adjoint`` and ``lsq_solve`` take a (k, len) stack, one
    vector per row, and give each row what it gets alone: the same bits on
    the masked-DFT operator and on every one-row stack, and the same bits
    from the dense row-by-row triangular solves; a stacked dense product is
    one GEMM, which agrees with the row-by-row GEMVs to rounding."""

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_cdp_stack_is_row_by_row_bit_for_bit(self, k):
        op = build_cdp_operator(16, 3, seed=60)
        rng = np.random.default_rng(61)
        xs, ys = _stack(rng, k, op.n), _stack(rng, k, op.out_dim)
        for method, stack in ((op.apply, xs), (op.adjoint, ys), (op.lsq_solve, ys)):
            got = method(stack)
            assert got.shape[0] == k
            for row, v in zip(got, stack):
                assert row.tobytes() == method(v).tobytes()

    @pytest.mark.parametrize(
        "op",
        [
            _operators()[0],
            _families(62, 6, 10)[1],
            MatrixOperator(np.random.default_rng(63).standard_normal((14, 6))),
        ],
        ids=["matrix", "strided-family", "real-rows"],
    )
    def test_matrix_one_row_stack_is_bit_for_bit(self, op):
        rng = np.random.default_rng(64)
        x, y = sample_complex_gaussian(op.n, rng), sample_complex_gaussian(op.out_dim, rng)
        assert op.apply(x[None])[0].tobytes() == op.apply(x).tobytes()
        assert op.adjoint(y[None])[0].tobytes() == op.adjoint(y).tobytes()
        assert op.lsq_solve(y[None])[0].tobytes() == op.lsq_solve(y).tobytes()

    @pytest.mark.parametrize("m, n", [(1024, 128), (2730, 256), (4096, 512)])
    def test_matrix_vector_products_keep_their_bits(self, m, n):
        # a single vector and a one-row stack are the GEMV of rows @ conj(x)
        # and rows.T @ y, on the full rows and on each strided family
        op, pairs = build_paired_ensemble(n, m // 2, seed=65)
        rng = np.random.default_rng(66)
        for view in (op, op[pairs[0]], op[pairs[1]]):
            x, y = sample_complex_gaussian(n, rng), sample_complex_gaussian(view.out_dim, rng)
            applied = np.conj(view.rows @ np.conj(x)).tobytes()
            adjoined = (view.rows.T @ y).tobytes()
            assert view.apply(x).tobytes() == view.apply(x[None])[0].tobytes() == applied
            assert view.adjoint(y).tobytes() == view.adjoint(y[None])[0].tobytes() == adjoined

    @pytest.mark.parametrize("k", [2, 4])
    @pytest.mark.parametrize(
        "op",
        [build_plain_ensemble(32, 256, seed=67), _families(68, 32, 256)[0]],
        ids=["matrix", "strided-family"],
    )
    def test_matrix_stack_matches_rows(self, op, k):
        rng = np.random.default_rng(69)
        xs, ys = _stack(rng, k, op.n), _stack(rng, k, op.out_dim)
        for method, stack in ((op.apply, xs), (op.adjoint, ys), (op.lsq_solve, ys)):
            got = method(stack)
            for row, v in zip(got, stack):
                alone = method(v)
                assert np.linalg.norm(row - alone) <= 1e-13 * np.linalg.norm(alone)
        # the solves themselves run row by row: each row is the two
        # triangular solves of its own row of A* y
        u = op._normal_factor.u
        for row, rhs in zip(op.lsq_solve(ys), op.adjoint(ys)):
            w = ztrsv(u, rhs, lower=0, trans=2)
            assert row.tobytes() == ztrsv(u, w, lower=0, trans=0).tobytes()

    @pytest.mark.parametrize("op", _operators(), ids=["matrix", "cdp"])
    def test_wrong_trailing_length_rejected(self, op):
        ones = lambda *shape: np.ones(shape, dtype=complex)  # noqa: E731
        for method, length in ((op.apply, op.n), (op.adjoint, op.out_dim), (op.lsq_solve, op.out_dim)):
            for bad in (ones(3, length + 1), ones(3, length - 1), ones(2, 3, length), ones(length, 3)):
                with pytest.raises(ValueError, match=r"has shape .*, operator expects"):
                    method(bad)

    @pytest.mark.parametrize(
        "op", _operators() + [_families(70, 6, 10)[0]], ids=["matrix", "cdp", "strided-family"]
    )
    def test_stacks_are_not_written(self, op):
        rng = np.random.default_rng(71)
        xs, ys = _stack(rng, 3, op.n), _stack(rng, 3, op.out_dim)
        x_bytes, y_bytes = xs.tobytes(), ys.tobytes()
        op.apply(xs)
        op.adjoint(ys)
        op.lsq_solve(ys)
        assert xs.tobytes() == x_bytes
        assert ys.tobytes() == y_bytes


class TestPeakMemory:
    """Traced allocation peaks of the ensemble build, the first solve and
    the dense surrogate."""

    def test_paired_build_allocates_little_beyond_its_rows(self):
        tracemalloc.start()
        try:
            op_all, _ = build_paired_ensemble(256, 4096, 12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= op_all.rows.nbytes + 2 * MIB

    def test_first_lsq_solve_makes_no_copy_of_the_rows(self):
        op_all, _ = build_paired_ensemble(256, 2048, 13)
        stage = op_all[:2730]
        y = np.ones(stage.out_dim, dtype=complex)
        tracemalloc.start()
        try:
            stage.lsq_solve(y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stage.rows.nbytes > 10 * MIB
        assert peak <= 4 * MIB

    def test_second_lsq_solve_does_not_copy_the_factor(self):
        n = 512
        op = build_plain_ensemble(n, 2 * n, 14)
        y = np.ones(op.out_dim, dtype=complex)
        op.lsq_solve(y)
        tracemalloc.start()
        try:
            op.lsq_solve(y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * np.dtype(np.complex128).itemsize

    def test_surrogate_allocates_its_matrix_and_one_chunk(self):
        # rows of both signs and zeros, so both passes run over several chunks
        n = 512
        op, _ = build_paired_ensemble(n, 2048, 15)
        c = np.random.default_rng(16).standard_normal(op.out_dim)
        c[::7] = 0.0
        tracemalloc.start()
        try:
            op.surrogate(c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        itemsize = np.dtype(np.complex128).itemsize
        assert peak <= (n * n + sensing.SURROGATE_CHUNK * n) * itemsize + MIB / 4
