import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.linalg import eigh_tridiagonal

from _oracles import with_lapack_info
from onebitphase import blas, numkit
from onebitphase.numkit import (
    PHASE_FLOOR,
    ahead,
    dist_sq,
    distance_to,
    lanczos,
    phase_op,
)


def _random_complex(rng, n):
    return (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * np.sqrt(0.5)


class TestAhead:
    def test_serial_calls_run_on_the_caller_when_waited(self):
        calls = []
        with ahead(False) as submit:
            wait = submit(lambda k: calls.append((k, threading.get_ident())) or k, 3)
            assert calls == []
            assert wait() == 3
        assert calls == [(3, threading.get_ident())]

    def test_threaded_calls_run_on_one_worker_and_fail_in_the_caller(self):
        before = threading.enumerate()
        with ahead(True) as submit:
            ident = submit(threading.get_ident)
            failed = submit(np.linalg.cholesky, -np.eye(2))
            assert ident() != threading.get_ident()
            with pytest.raises(np.linalg.LinAlgError):
                failed()
        assert threading.enumerate() == before

    def test_exit_cancels_calls_not_begun(self):
        started, ran = threading.Event(), []

        def busy():
            started.set()
            time.sleep(0.2)

        before = threading.enumerate()
        with pytest.raises(KeyError):
            with ahead(True) as submit:
                submit(busy)
                submit(ran.append, 1)
                assert started.wait(10)  # the worker is busy, the second call queued
                raise KeyError("body")
        assert ran == []
        assert threading.enumerate() == before


class TestPhaseOp:
    def test_worked_example(self):
        out = phase_op(np.array([3 + 4j]))
        assert out[0] == pytest.approx(0.6 + 0.8j)

    def test_zero_maps_to_one(self):
        out = phase_op(np.array([0.0, 1e-320, 2.0]))
        assert out[0] == 1.0 + 0.0j
        assert out[1] == 1.0 + 0.0j
        assert out[2] == 1.0 + 0.0j

    @given(
        st.complex_numbers(
            min_magnitude=1e-200, max_magnitude=1e200, allow_nan=False
        )
    )
    def test_unit_modulus(self, z):
        assert abs(phase_op(np.array([z]))[0]) == pytest.approx(1.0)

    def test_recomposition(self):
        rng = np.random.default_rng(2)
        z = _random_complex(rng, 20)
        np.testing.assert_allclose(phase_op(z) * np.abs(z), z, atol=1e-12)

    def test_matches_two_pass_formula_bit_for_bit(self):
        below = np.nextafter(PHASE_FLOOR, 0.0)
        above = np.nextafter(PHASE_FLOOR, 1.0)
        z = np.concatenate([
            [0.0, -0.0j, 1e-320, -1e-320j, PHASE_FLOOR, -1j * PHASE_FLOOR, below, above],
            [PHASE_FLOOR * (0.6 + 0.8j), 1e-300 * (1 + 1j), 3 + 4j, -2.5, 1e300j],
            _random_complex(np.random.default_rng(11), 64),
        ])
        before = z.copy()
        mag = np.abs(z)
        tiny = mag < PHASE_FLOOR
        expected = np.where(tiny, 1.0 + 0.0j, z / np.where(tiny, 1.0, mag))
        assert tiny[:8].tolist() == [True] * 4 + [False, False, True, False]
        assert phase_op(z).tobytes() == expected.tobytes()
        assert z.tobytes() == before.tobytes()


class TestPowerIteration:
    """The spectral eigensolver, ``numkit.lanczos``, which replaced power
    iteration; the class keeps its old name so the test ids stay stable."""

    def test_diagonal_example(self):
        mat = np.diag([3.0, 1.0]).astype(complex)
        eigval, vec, residuals, converged = lanczos(lambda r: mat @ r, 2, tol=1e-10, seed=0)
        assert eigval == pytest.approx(3.0, abs=1e-6)
        assert abs(vec[0]) == pytest.approx(1.0, abs=1e-6)
        assert len(residuals) >= 1
        assert converged

    def test_rank_one(self):
        rng = np.random.default_rng(3)
        a = _random_complex(rng, 7)

        def matvec(r):
            return a * np.vdot(a, r)

        eigval, vec, _, _ = lanczos(matvec, 7, tol=1e-12, seed=1)
        assert eigval == pytest.approx(np.linalg.norm(a) ** 2, rel=1e-8)
        assert dist_sq(vec, a) < 1e-12

    def test_negative_dominant_eigenvalue_still_converges(self):
        mat = np.diag([-3.0, 1.0]).astype(complex)
        eigval, vec, _, converged = lanczos(lambda r: mat @ r, 2, tol=1e-10, seed=0)
        # algebraically largest, not largest in magnitude
        assert eigval == pytest.approx(1.0, abs=1e-6)
        assert abs(vec[1]) == pytest.approx(1.0, abs=1e-6)
        assert converged

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_dense_oracle(self, seed):
        rng = np.random.default_rng(seed)
        basis, _ = np.linalg.qr(_random_complex(rng, 64).reshape(8, 8))
        eigs = np.array([1.0, 0.7, 0.5, 0.4, 0.3, 0.2, 0.1, 0.05])
        mat = (basis * eigs) @ basis.conj().T
        eigval, vec, _, _ = lanczos(lambda r: mat @ r, 8, tol=1e-12, seed=seed)
        w, v = np.linalg.eigh(mat)
        assert eigval == pytest.approx(w[-1], rel=1e-8)
        assert dist_sq(vec, v[:, -1]) < 1e-10

    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_residual_bound_on_gapped_psd(self, seed):
        rng = np.random.default_rng(seed)
        n = 12
        basis, _ = np.linalg.qr(_random_complex(rng, n * n).reshape(n, n))
        eigs = np.concatenate([[1.0], rng.uniform(0.0, 0.9, n - 1)])
        mat = (basis * eigs) @ basis.conj().T
        tol = 1e-8
        eigval, vec, _, _ = lanczos(lambda r: mat @ r, n, tol=tol, seed=seed)
        residual = np.linalg.norm(mat @ vec - eigval * vec)
        assert residual <= 10 * tol * max(eigval, 1.0)

    def test_non_finite_matvec_raises(self):
        def matvec(r):
            return r * np.nan

        with pytest.raises(RuntimeError):
            lanczos(matvec, 3, seed=0)

    @pytest.mark.parametrize(
        "kw, phrase",
        [
            (dict(n=0), "dimension must be positive"),
            (dict(tol=-1e-9), "tol must be non-negative"),
            (dict(max_iters=0), "max_iters must be at least 1"),
            (dict(matvec=lambda r: r[:-1]), r"matvec returned shape \(2,\), expected \(3,\)"),
        ],
        ids=["n", "tol", "max_iters", "matvec-shape"],
    )
    def test_bad_arguments_rejected(self, kw, phrase):
        args = dict(matvec=lambda r: r, n=3, seed=0) | kw
        with pytest.raises(ValueError, match=phrase):
            lanczos(**args)

    def test_zero_matvec_converges_at_zero(self):
        eigval, vec, residuals, converged = lanczos(lambda r: np.zeros_like(r), 3, seed=0)
        assert eigval == 0.0
        assert converged
        assert len(residuals) == 1
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)

    def test_one_dimensional_operator(self):
        eigval, vec, residuals, converged = lanczos(lambda r: -2.5 * r, 1, tol=0.0, seed=4)
        assert eigval == pytest.approx(-2.5, abs=1e-12)
        assert abs(vec[0]) == pytest.approx(1.0, abs=1e-12)
        assert converged
        assert len(residuals) == 1

    def test_krylov_dimension_n_is_exact(self):
        rng = np.random.default_rng(8)
        basis, _ = np.linalg.qr(_random_complex(rng, 36).reshape(6, 6))
        mat = (basis * np.linspace(0.0, 1.0, 6)) @ basis.conj().T
        eigval, vec, residuals, converged = lanczos(lambda r: mat @ r, 6, tol=0.0, seed=8)
        assert converged
        assert len(residuals) <= 6
        assert eigval == pytest.approx(1.0, abs=1e-12)
        assert dist_sq(vec, basis[:, -1]) < 1e-12

    def test_max_iters_bounds_work(self):
        rng = np.random.default_rng(9)
        n = 64
        basis, _ = np.linalg.qr(_random_complex(rng, n * n).reshape(n, n))
        mat = (basis * np.linspace(0.0, 1.0, n)) @ basis.conj().T
        _, _, residuals, _ = lanczos(lambda r: mat @ r, n, tol=0.0, max_iters=17, seed=0)
        assert len(residuals) == 17

    def test_budget_too_small_reports_unconverged(self):
        rng = np.random.default_rng(10)
        n = 64
        basis, _ = np.linalg.qr(_random_complex(rng, n * n).reshape(n, n))
        mat = (basis * np.linspace(0.0, 1.0, n)) @ basis.conj().T
        _, vec, residuals, converged = lanczos(
            lambda r: mat @ r, n, tol=1e-12, max_iters=3, seed=0
        )
        assert converged is False
        assert len(residuals) == 3
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)


def _tridiagonal(rng, j, zeros=()):
    d = rng.standard_normal(j)
    e = np.abs(rng.standard_normal(j - 1))
    e[[k for k in zeros if k < j - 1]] = 0.0
    return d, e


class TestTopRitzPair:
    """The Ritz step of Lanczos, :class:`~onebitphase.blas.TridiagonalTopPair`,
    calls the LAPACK routines behind ``eigh_tridiagonal(select="i")`` on
    numpy's own LAPACK, and Lanczos maps their failures the way scipy does."""

    @pytest.mark.parametrize("zeros", [(), (0, 5, 6, 30)], ids=["unreduced", "split"])
    def test_matches_eigh_tridiagonal_bit_for_bit(self, zeros):
        rng = np.random.default_rng(12)
        # one stepper over buffers longer than each step, as Lanczos runs it
        d_buf, e_buf = np.zeros(60), np.zeros(60)
        top_pair = blas.TridiagonalTopPair(d_buf, e_buf)
        for j in range(1, 61):
            d, e = _tridiagonal(rng, j, zeros)
            d_buf[:j], e_buf[: j - 1] = d, e
            w, v = eigh_tridiagonal(d, e, select="i", select_range=(j - 1, j - 1))
            theta, s = top_pair(j)
            assert theta == float(w[0]), j
            assert s.tobytes() == v[:, 0].tobytes(), j

    def test_lanczos_takes_the_same_steps_as_eigh_tridiagonal(self, monkeypatch):
        rng = np.random.default_rng(13)
        basis, _ = np.linalg.qr(_random_complex(rng, 40 * 40).reshape(40, 40))
        mat = (basis * np.linspace(-1.0, 1.0, 40)) @ basis.conj().T
        direct = lanczos(lambda r: mat @ r, 40, tol=1e-10, seed=3)
        steps = []

        def via_scipy(d, e):
            def step(j):
                steps.append(j)
                w, v = eigh_tridiagonal(d[:j], e[: j - 1], select="i", select_range=(j - 1, j - 1))
                return float(w[0]), v[:, 0]

            return step

        monkeypatch.setattr(numkit, "TridiagonalTopPair", via_scipy)
        wrapped = lanczos(lambda r: mat @ r, 40, tol=1e-10, seed=3)
        assert steps == list(range(1, len(direct[2]) + 1))
        assert direct[0] == wrapped[0]
        assert direct[1].tobytes() == wrapped[1].tobytes()
        assert direct[2:] == wrapped[2:]

    @staticmethod
    def _lanczos_on_diagonal():
        mat = np.diag(np.arange(1.0, 6.0)).astype(complex)
        return lanczos(lambda r: mat @ r, 5, tol=0.0, seed=0)

    @pytest.mark.parametrize("routine", ["dstebz", "dstein"])
    @pytest.mark.parametrize("info, error", [(2, np.linalg.LinAlgError), (-3, ValueError)])
    def test_lapack_info_raises(self, monkeypatch, routine, info, error):
        monkeypatch.setattr(blas, routine, with_lapack_info(getattr(blas, routine), info))
        with pytest.raises(ValueError, match=routine[1:]) as raised:
            self._lanczos_on_diagonal()
        # LinAlgError subclasses ValueError, and the CLI tells them apart
        assert raised.type is error

    def test_non_finite_tridiagonal_entry_rejected(self):
        big = np.diag([1e308, 1e308, 1.0]).astype(complex)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="finite"):
                lanczos(lambda r: big @ r, 3, seed=0)


class TestDistSq:
    def test_self_and_phase(self):
        rng = np.random.default_rng(6)
        x = _random_complex(rng, 5)
        assert dist_sq(x, x) == 0.0
        assert dist_sq(np.exp(1j * 0.8) * x, x) == pytest.approx(0.0, abs=1e-14)

    def test_orthogonal(self):
        assert dist_sq([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0)

    def test_scale_invariance(self):
        rng = np.random.default_rng(7)
        x = _random_complex(rng, 5)
        x0 = _random_complex(rng, 5)
        assert dist_sq(3.7 * x, x0) == pytest.approx(dist_sq(x, x0), abs=1e-14)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            dist_sq([0.0, 0.0], [1.0, 0.0])
        with pytest.raises(ValueError, match="positive dimension"):
            distance_to([])

    def test_distance_to_is_the_formula_bit_for_bit(self):
        # the formula written out: 1 - |<x, x0>|^2 / (||x||^2 ||x0||^2),
        # clipped to [0, 1]
        rng = np.random.default_rng(8)
        for n in (1, 5, 128, 512):
            x0 = _random_complex(rng, n)
            dist = distance_to(x0)
            for x in (_random_complex(rng, n), 1e-150 * x0, x0):
                c = np.vdot(x, x0) / (np.linalg.norm(x) * np.linalg.norm(x0))
                expected = min(max(1.0 - float(np.abs(c)) ** 2, 0.0), 1.0)
                assert dist(x) == dist_sq(x, x0) == expected

    def test_distance_to_checks_x0_once_and_x_per_call(self):
        with pytest.raises(ValueError, match="zero vector"):
            distance_to([0.0, 0.0])
        with pytest.raises(ValueError, match="finite"):
            distance_to([np.nan, 1.0])
        dist = distance_to([1.0, 0.0])
        with pytest.raises(ValueError, match="zero vector"):
            dist([0.0, 0.0])
        with pytest.raises(ValueError, match="finite"):
            dist([np.inf, 0.0])
        with pytest.raises(ValueError, match="1-D"):
            dist([[1.0, 0.0]])

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_range(self, seed):
        rng = np.random.default_rng(seed)
        x = _random_complex(rng, 4)
        x0 = _random_complex(rng, 4)
        val = dist_sq(x, x0)
        assert 0.0 <= val <= 1.0

