"""Complex linear-algebra kernels shared by the samplers and recovery solvers.

Vectors are plain 1-D complex128 ndarrays.  The inner product conjugates its
first argument, <a, x> = ``a.conj() @ x``, so a rank-one matrix ``a a*`` acts
on ``r`` as ``a * <a, r>``.  Dense operators evaluate it for all rows at once
as ``conj(conj(x) @ rows.T)``, which conjugates two vectors instead of making
a conjugate copy of the rows.  :func:`ahead` runs work on one short-lived
worker thread where that pays, and on the caller's thread otherwise.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from functools import partial
from math import isfinite
from typing import Callable

import numpy as np

from .blas import TridiagonalTopPair

# Magnitudes below this are treated as zero by the phase operator.
PHASE_FLOOR = 1e-300

# Doubles per chunk of a Gaussian draw: 512 KiB, small next to any dense
# ensemble and large enough that the per-chunk call overhead does not show.
GAUSS_CHUNK = 1 << 16


def sample_complex_gaussian(shape, rng: np.random.Generator, out=None) -> np.ndarray:
    """Standard complex Gaussian array: each entry has E|a_k|^2 = 1.

    All real parts are drawn first, then all imaginary parts, each scaled
    straight into ``out`` when given: a complex128 array of ``shape``, which
    may be a strided view such as one pair family of a paired ensemble.
    The normals are drawn in chunks of about ``GAUSS_CHUNK`` doubles along
    the leading axis into one reused buffer, so no full-size float temporary
    is made; the stream is consumed in the same order, so the values are the
    same bits as one ``rng.standard_normal(shape)`` per part.
    """
    if np.prod(shape) <= 0:
        raise ValueError("dimensions must be positive")
    if out is None:
        out = np.empty(shape, dtype=np.complex128)
    elif out.shape != tuple(np.atleast_1d(shape)):
        raise ValueError(f"out has shape {out.shape}, expected {shape}")
    lead, trail = out.shape[0], out.shape[1:]
    step = max(1, GAUSS_CHUNK // int(np.prod(trail)))
    buf = np.empty((min(step, lead),) + trail)
    for part in (out.real, out.imag):
        for start in range(0, lead, step):
            chunk = buf[: min(step, lead - start)]
            rng.standard_normal(out=chunk)
            np.multiply(chunk, np.sqrt(0.5), out=part[start : start + len(chunk)])
    return out


@contextmanager
def ahead(threaded: bool):
    """A ``submit(fn, *args)`` for work that may run ahead of the caller; it
    returns a wait, a zero-argument call that gives ``fn(*args)``.

    When ``threaded``, one short-lived worker thread starts the submitted
    calls at once, in order, and a wait blocks until its call is done, then
    returns its result or raises its error in the caller's thread.
    Otherwise no thread is started and the wait is the call itself, made on
    the caller's thread when it waits, so one code path serves both
    schedules; call each wait once.  On exit, calls not yet begun are
    cancelled and the thread is joined, also when the body raises.
    """
    if not threaded:
        yield partial
        return
    worker = ThreadPoolExecutor(1)
    try:
        yield lambda fn, *args: worker.submit(fn, *args).result
    finally:
        worker.shutdown(cancel_futures=True)


def phase_op(z) -> np.ndarray:
    """Entrywise phase z / |z|, mapping (near-)zero entries to 1 + 0j.

    One divide: the magnitudes below ``PHASE_FLOOR`` become 1 in place before
    it and their quotients 1 + 0j after it, so ``z`` itself is never written.
    """
    z = np.asarray(z, dtype=np.complex128)
    mag = np.abs(z)
    tiny = mag < PHASE_FLOOR
    mag[tiny] = 1.0
    out = z / mag
    out[tiny] = 1.0
    return out


def lanczos(
    matvec: Callable[[np.ndarray], np.ndarray],
    n: int,
    tol: float = 1e-8,
    max_iters: int = 1000,
    seed: int = 0,
) -> tuple[float, np.ndarray, list, bool]:
    """Algebraically largest eigenpair of a Hermitian operator given only as
    a matvec, by Lanczos with full reorthogonalization.

    The Krylov basis starts from a seeded random complex vector, and each new
    vector is orthogonalized twice against every stored one, so the basis
    grows by one vector per matvec.  After each matvec the top Ritz pair
    (theta, s) of the tridiagonal projection comes from LAPACK bisection and
    inverse iteration (``dstebz``/``dstein`` on numpy's own LAPACK, through
    one :class:`~onebitphase.blas.TridiagonalTopPair` stepper over the
    ``alpha``/``beta`` buffers of the run); a non-finite tridiagonal entry
    raises ValueError and a LAPACK failure LinAlgError.  The run stops,
    converged, once the Ritz residual beta_j |s_j| is at most ``tol *
    |theta|`` or the Krylov space has dimension n, where the Ritz pair is
    exact.  ``max_iters`` caps the matvecs; a run that spends them all first
    returns the current Ritz vector unconverged.

    Returns:
        (theta, unit Ritz vector, Ritz residual after each matvec, converged)
    """
    if n <= 0:
        raise ValueError("dimension must be positive")
    if tol < 0:
        raise ValueError("tol must be non-negative")
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    q = sample_complex_gaussian(n, np.random.default_rng(seed))
    size = min(n, max_iters)
    basis = np.empty((min(size, 32), n), dtype=np.complex128)
    basis[0] = q / np.linalg.norm(q)
    alpha = np.empty(size)
    beta = np.empty(size)
    top_pair = TridiagonalTopPair(alpha, beta)
    residuals: list = []
    for j in range(1, size + 1):
        w = np.asarray(matvec(basis[j - 1]), dtype=np.complex128)
        if w.shape != (n,):
            raise ValueError(f"matvec returned shape {w.shape}, expected ({n},)")
        if not np.all(np.isfinite(w)):
            raise RuntimeError("lanczos: matvec produced non-finite values")
        q_j = basis[:j]
        a = 0.0
        for _ in range(2):
            h = np.conj(q_j @ np.conj(w))
            w = w - q_j.T @ h
            a += h[-1].real
        b = float(np.linalg.norm(w))
        if not (isfinite(a) and isfinite(b)):
            raise ValueError("lanczos: tridiagonal entries must be finite")
        alpha[j - 1], beta[j - 1] = a, b
        theta, s = top_pair(j)
        residuals.append(b * float(abs(s[-1])))
        converged = bool(residuals[-1] <= tol * abs(theta) or j == n)
        if converged or j == size:
            break
        if j == basis.shape[0]:
            grown = np.empty((min(size, 2 * j), n), dtype=np.complex128)
            grown[:j] = basis
            basis = grown
        basis[j] = w / b
    vec = basis[:j].T @ s
    return theta, vec / np.linalg.norm(vec), residuals, converged


def distance_to(x0) -> Callable[[np.ndarray], float]:
    """``x -> dist_sq(x, x0)``, with ``x0`` checked and normed once.  Each
    vector must be a non-empty, finite and nonzero 1-D array."""

    def checked(v) -> tuple[np.ndarray, float]:
        v = np.asarray(v, dtype=np.complex128)
        if v.ndim != 1:
            raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
        if v.size == 0:
            raise ValueError("vector must have positive dimension")
        if not np.isfinite(v).all():
            raise ValueError("vector entries must be finite")
        norm = np.linalg.norm(v)
        if norm == 0.0:
            raise ValueError("dist_sq is undefined for the zero vector")
        return v, norm

    x0, n0 = checked(x0)

    def dist(x) -> float:
        x, nx = checked(x)
        c = np.vdot(x, x0) / (nx * n0)
        val = 1.0 - float(np.abs(c)) ** 2
        return min(max(val, 0.0), 1.0)

    return dist


def dist_sq(x, x0) -> float:
    """Squared phase-invariant distance 1 - |<x/||x||, x0/||x0||>|^2."""
    return distance_to(x0)(x)
