import numpy as np
import pytest
from scipy import stats

from onebitphase.sensing import (
    CdpOperator,
    MatrixOperator,
    build_cdp_operator,
    build_paired_ensemble,
    build_plain_ensemble,
    intensities,
    paired_intensities,
    sample_complex_gaussian,
    sample_exponential,
    sample_poisson,
    substream,
)


def _unit(rng, n):
    v = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * np.sqrt(0.5)
    return v / np.linalg.norm(v)


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

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            sample_complex_gaussian(0, np.random.default_rng(0))


class TestEnsembles:
    def test_paired_regenerates_identically(self):
        e1 = build_paired_ensemble(6, 40, seed=3)
        e2 = build_paired_ensemble(6, 40, seed=3)
        np.testing.assert_array_equal(e1.rows1, e2.rows1)
        np.testing.assert_array_equal(e1.rows2, e2.rows2)

    def test_pair_families_differ(self):
        ens = build_paired_ensemble(6, 40, seed=3)
        assert not np.array_equal(ens.rows1, ens.rows2)

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
        cov = ens.rows.conj().T @ ens.rows / ens.m
        assert np.max(np.abs(cov - np.eye(4))) < 0.05

    def test_interleaved_rows_alternate_families(self):
        ens = build_paired_ensemble(3, 5, seed=0)
        inter = ens.interleaved_rows()
        np.testing.assert_array_equal(inter[0::2], ens.rows1)
        np.testing.assert_array_equal(inter[1::2], ens.rows2)

    def test_intensity_matches_vectorized_path(self):
        ens = build_paired_ensemble(6, 20, seed=5)
        rng = np.random.default_rng(2)
        x = _unit(rng, 6)
        b1, b2 = paired_intensities(ens, x)
        assert b1[3] == pytest.approx(abs(np.vdot(ens.rows1[3], x)) ** 2)
        assert b2[7] == pytest.approx(abs(np.vdot(ens.rows2[7], x)) ** 2)

    def test_row_intensities_match_conjugated_rows_bit_for_bit(self):
        ens = build_paired_ensemble(12, 64, seed=6)
        rows = ens.interleaved_rows()
        x = _unit(np.random.default_rng(3), 12)
        for view in (rows, rows[0::2], rows[1::2], ens.stacked_rows()):
            np.testing.assert_array_equal(
                intensities(MatrixOperator(view), x), np.abs(view.conj() @ x) ** 2
            )
        b1, b2 = paired_intensities(ens, x)
        np.testing.assert_array_equal(b1, np.abs(ens.rows1.conj() @ x) ** 2)
        np.testing.assert_array_equal(b2, np.abs(ens.rows2.conj() @ x) ** 2)


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
        ens = build_paired_ensemble(8, 100000, seed=15)
        rng = np.random.default_rng(5)
        x = _unit(rng, 8)
        b1, b2 = paired_intensities(ens, x)
        stat = stats.kstest(np.abs(b1 - b2), "expon").statistic
        assert stat <= 0.01

    def test_pair_ratio_is_uniform(self):
        ens = build_paired_ensemble(8, 100000, seed=16)
        rng = np.random.default_rng(6)
        x = _unit(rng, 8)
        b1, b2 = paired_intensities(ens, x)
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

    def test_poisson_zero_rate(self):
        rng = np.random.default_rng(10)
        assert sample_poisson(0.0, rng) == 0
        np.testing.assert_array_equal(
            sample_poisson(np.zeros(100), rng), np.zeros(100, dtype=int)
        )

    def test_poisson_moments(self):
        rng = np.random.default_rng(11)
        draws = sample_poisson(np.full(1000000, 5.0), rng)
        assert np.mean(draws) == pytest.approx(5.0, abs=0.02)
        assert np.var(draws) == pytest.approx(5.0, rel=0.02)

    def test_poisson_rejects_negative_rate(self):
        with pytest.raises(ValueError):
            sample_poisson(-0.5, np.random.default_rng(0))


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

    def test_frobenius_sq_matches_explicit_matrix(self):
        op = build_cdp_operator(8, 3, seed=23)
        mat = np.stack([op.apply(col) for col in np.eye(8, dtype=complex)], axis=1)
        assert op.frobenius_sq == pytest.approx(np.sum(np.abs(mat) ** 2), rel=1e-12)

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



def _operators():
    rows = build_paired_ensemble(6, 10, seed=40).rows1
    return [MatrixOperator(rows), build_cdp_operator(6, 3, seed=40)]


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
