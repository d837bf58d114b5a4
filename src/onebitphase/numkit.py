"""Complex linear-algebra kernels shared by the samplers and recovery solvers.

Vectors are plain 1-D complex128 ndarrays.  The inner product conjugates its
first argument, <a, x> = ``a.conj() @ x``, so a rank-one matrix ``a a*`` acts
on ``r`` as ``a * <a, r>``.  Dense operators evaluate it for all rows at once
as ``conj(rows @ conj(x))``, which conjugates two vectors instead of making a
conjugate copy of the rows.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

ComplexVec = np.ndarray

# Magnitudes below this are treated as zero by the phase operator.
PHASE_FLOOR = 1e-300


def as_complex_vector(x) -> np.ndarray:
    """Validate and convert ``x`` to a 1-D complex128 array."""
    v = np.asarray(x, dtype=np.complex128)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    if v.size == 0:
        raise ValueError("vector must have positive dimension")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite")
    return v


def phase_op(z) -> np.ndarray:
    """Entrywise phase z / |z|, mapping (near-)zero entries to 1 + 0j."""
    z = np.asarray(z, dtype=np.complex128)
    mag = np.abs(z)
    tiny = mag < PHASE_FLOOR
    out = np.where(tiny, 1.0 + 0.0j, z / np.where(tiny, 1.0, mag))
    return out


def power_iteration(
    matvec: Callable[[np.ndarray], np.ndarray],
    n: int,
    tol: float = 1e-8,
    max_iters: int = 1000,
    seed: int = 0,
    callback: Optional[Callable[[int, np.ndarray, float], None]] = None,
) -> tuple[float, np.ndarray, int]:
    """Power iteration on a Hermitian operator given only as a matvec.

    Runs r <- matvec(r) / ||matvec(r)|| from a random complex start and stops
    once min(||r_j - r_{j-1}||, ||r_j + r_{j-1}||) <= tol, which also detects
    the sign-alternating convergence produced by a dominant negative
    eigenvalue.  The magnitude estimate is the norm of the last operator
    application before normalization.

    Returns:
        (eigval_estimate, unit eigvec, iterations run)
    """
    if n <= 0:
        raise ValueError("dimension must be positive")
    if tol < 0:
        raise ValueError("tol must be non-negative")
    rng = np.random.default_rng(seed)
    restarts = 3
    for attempt in range(restarts + 1):
        r = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * np.sqrt(0.5)
        nrm = np.linalg.norm(r)
        if nrm == 0.0:
            continue
        r /= nrm
        eigval = 0.0
        for j in range(1, max_iters + 1):
            w = np.asarray(matvec(r), dtype=np.complex128)
            if w.shape != (n,):
                raise ValueError(f"matvec returned shape {w.shape}, expected ({n},)")
            if not np.all(np.isfinite(w)):
                raise RuntimeError("power iteration: matvec produced non-finite values")
            wnrm = float(np.linalg.norm(w))
            if wnrm == 0.0:
                break  # restart from a fresh random vector
            eigval = wnrm
            r_new = w / wnrm
            delta = min(
                float(np.linalg.norm(r_new - r)), float(np.linalg.norm(r_new + r))
            )
            if callback is not None:
                callback(j, r_new, delta)
            r = r_new
            if delta <= tol:
                return eigval, r, j
        else:
            return eigval, r, max_iters
    raise RuntimeError(
        "power iteration: matvec returned the zero vector on "
        f"{restarts + 1} random starts"
    )


def cgls(
    apply_A: Callable[[np.ndarray], np.ndarray],
    apply_A_adjoint: Callable[[np.ndarray], np.ndarray],
    rhs: np.ndarray,
    tol: float = 1e-10,
    max_iters: Optional[int] = None,
    x0: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, int]:
    """Conjugate gradient on the normal equations for min_x ||A x - rhs||_2.

    Stops when the normal-equation residual ||A*(rhs - A x)|| falls below
    ``tol`` times its starting value measured from the zero vector.  The
    least-squares objective is non-increasing across iterations, so warm
    starts via ``x0`` never lose ground.

    Returns:
        (x, info) with info == 0 on convergence, 1 if max_iters was reached
        (x is then the best iterate found).
    """
    rhs = as_complex_vector(rhs)
    s_ref = np.asarray(apply_A_adjoint(rhs), dtype=np.complex128)
    n = s_ref.size
    target = tol * float(np.linalg.norm(s_ref))
    if max_iters is None:
        max_iters = 4 * n

    if x0 is None:
        x = np.zeros(n, dtype=np.complex128)
        resid = rhs.copy()
        s = s_ref.copy()
    else:
        x = np.array(x0, dtype=np.complex128)
        if x.shape != (n,):
            raise ValueError(f"x0 has shape {x.shape}, expected ({n},)")
        resid = rhs - np.asarray(apply_A(x), dtype=np.complex128)
        s = np.asarray(apply_A_adjoint(resid), dtype=np.complex128)

    gamma = float(np.vdot(s, s).real)
    if np.sqrt(gamma) <= target:
        return x, 0
    p = s.copy()
    for _ in range(max_iters):
        q = np.asarray(apply_A(p), dtype=np.complex128)
        qq = float(np.vdot(q, q).real)
        if qq == 0.0:
            break
        alpha = gamma / qq
        x = x + alpha * p
        resid = resid - alpha * q
        s = np.asarray(apply_A_adjoint(resid), dtype=np.complex128)
        gamma_new = float(np.vdot(s, s).real)
        if np.sqrt(gamma_new) <= target:
            return x, 0
        p = s + (gamma_new / gamma) * p
        gamma = gamma_new
    return x, 1


def dist_sq(x, x0) -> float:
    """Squared phase-invariant distance 1 - |<x/||x||, x0/||x0||>|^2."""
    x = as_complex_vector(x)
    x0 = as_complex_vector(x0)
    nx = np.linalg.norm(x)
    n0 = np.linalg.norm(x0)
    if nx == 0.0 or n0 == 0.0:
        raise ValueError("dist_sq is undefined for the zero vector")
    c = np.vdot(x, x0) / (nx * n0)
    val = 1.0 - float(np.abs(c)) ** 2
    return min(max(val, 0.0), 1.0)
