"""Signal recovery from one-bit intensity comparisons.

Spectral estimators extract the top eigenvector of a measurement-weighted
covariance surrogate without ever materializing it; alternating minimization
refines an estimate against un-quantized intensities.  All estimators report
through :class:`RecoveryReport`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from math import ceil, log
from typing import Callable, Optional, Sequence, Union

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .channels import QuantizedData, quantize, ratio_weights
from .numkit import as_complex_vector, cgls, phase_op, power_iteration
from .sensing import CdpOperator, PairedEnsemble, PlainEnsemble, substream


@dataclass
class RecoveryReport:
    """Outcome of one recovery run.

    ``trace`` holds (iteration, residual-or-objective) pairs; spectral
    estimates are unit norm, alternating-minimization estimates keep their
    least-squares scale.
    """

    estimate: np.ndarray
    lambda_hat: float
    iterations: int
    trace: list = field(default_factory=list)
    converged: bool = False


class InitKind(str, Enum):
    RANDOM = "random"
    SUBEXP = "subexp"
    ONEBIT = "onebit"
    WEIGHTED_ONEBIT = "weighted1bit"


def parse_init(name: str) -> InitKind:
    try:
        return InitKind(name.strip().lower())
    except ValueError:
        valid = ", ".join(k.value for k in InitKind)
        raise ValueError(f"unknown init kind {name!r}; expected one of {valid}")


@dataclass(frozen=True)
class MatrixOperator:
    """Measurement operator from explicit sensing rows.

    apply(x)[k] = <row_k, x> = conj(row_k) . x, matching the inner-product
    convention everywhere else.  It is evaluated as conj(rows @ conj(x)), so
    no conjugate copy of the rows is made.
    """

    rows: np.ndarray

    def __post_init__(self):
        if self.rows.ndim != 2:
            raise ValueError(f"rows must be 2-D, got shape {self.rows.shape}")

    @property
    def n(self) -> int:
        return self.rows.shape[1]

    @property
    def out_dim(self) -> int:
        return self.rows.shape[0]

    @property
    def frobenius_sq(self) -> float:
        return float(np.sum(np.abs(self.rows) ** 2))

    def apply(self, x) -> np.ndarray:
        return np.conj(self.rows @ np.conj(x))

    def adjoint(self, y) -> np.ndarray:
        return self.rows.T @ y


MeasurementOperator = Union[MatrixOperator, CdpOperator]


def _checked_intensities(b) -> np.ndarray:
    """``b`` as a float array, rejecting negative or non-finite entries."""
    b = np.asarray(b, dtype=float)
    if not np.all(np.isfinite(b)) or np.any(b < 0):
        raise ValueError("intensities must be finite and non-negative")
    return b


def random_init(n: int, seed) -> np.ndarray:
    """Uniformly random unit vector on the complex sphere."""
    rng = np.random.default_rng(seed)
    v = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * np.sqrt(0.5)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# spectral estimators


def one_bit_terms(op1, op2, y, weights=None) -> list:
    """Surrogate terms of the sign data: (A1, y w1) and (A2, -y w2).

    ``weights`` is the pair (w1, w2) of ratio weights; without it both are 1.
    """
    y = np.asarray(y, dtype=float)
    if weights is None:
        return [(op1, y), (op2, -y)]
    w1, w2 = weights
    return [(op1, y * w1), (op2, -(y * w2))]


def surrogate_matvec(terms) -> Callable[[np.ndarray], np.ndarray]:
    """Action of S = (1/m) sum_k A_k* Diag(c_k) A_k on r, in O(cost of A_k).

    ``terms`` holds (operator, coefficients) pairs; any operator with
    ``apply``/``adjoint`` serves, and m is the common coefficient length.
    """
    terms = [(op, np.asarray(c, dtype=float)) for op, c in terms]
    if not terms:
        raise ValueError("the surrogate needs at least one term")
    (op0, c0), rest = terms[0], terms[1:]
    m = c0.size
    for op, c in terms:
        if op.n != op0.n:
            raise ValueError(f"operators act on dimensions {op.n} and {op0.n}")
        if c.shape != (op.out_dim,):
            raise ValueError(f"coefficients have shape {c.shape}, expected ({op.out_dim},)")
        if c.size != m:
            raise ValueError(f"coefficient lengths {c.size} and {m} differ")

    def matvec(r):
        out = op0.adjoint(c0 * op0.apply(r))
        for op, c in rest:
            out = out + op.adjoint(c * op.apply(r))
        return out / m

    return matvec


def spectral_estimate(
    terms,
    tol: float = 1e-8,
    max_iters: int = 1000,
    seed: int = 0,
    shift: bool = False,
) -> RecoveryReport:
    """Top eigenvector of the surrogate of :func:`surrogate_matvec` by power
    iteration.

    ``shift=True`` adds the operator-norm bound sum_k ||A_k||_F^2 / m times
    identity, so the iteration finds the algebraically largest eigenvector
    even when a negative eigenvalue dominates in magnitude.  The reported
    eigenvalue subtracts the shift again.
    """
    terms = list(terms)
    matvec = surrogate_matvec(terms)
    op0, c0 = terms[0]
    mu = sum(op.frobenius_sq for op, _ in terms) / len(c0) if shift else 0.0
    if mu > 0.0:
        base = matvec

        def matvec(r):
            return base(r) + mu * r

    trace: list = []
    eigval, vec, iters = power_iteration(
        matvec,
        op0.n,
        tol=tol,
        max_iters=max_iters,
        seed=seed,
        callback=lambda j, r, delta: trace.append((j, delta)),
    )
    converged = bool(trace) and trace[-1][1] <= tol
    return RecoveryReport(
        estimate=vec,
        lambda_hat=max(eigval - mu, 0.0),
        iterations=iters,
        trace=trace,
        converged=converged,
    )


def one_bit_phase(
    data: QuantizedData,
    tol: float = 1e-8,
    max_iters: int = 1000,
    seed: int = 0,
    shift: bool = False,
) -> RecoveryReport:
    """Top eigenvector of the signed pair surrogate
    (1/m) sum_i y_i (a1_i a1_i* - a2_i a2_i*); see :func:`spectral_estimate`
    for ``shift``."""
    if data.weights is not None:
        raise ValueError("data carries ratio weights; use weighted_one_bit_phase")
    ens = data.ensemble
    terms = one_bit_terms(MatrixOperator(ens.rows1), MatrixOperator(ens.rows2), data.y)
    return spectral_estimate(terms, tol, max_iters, seed, shift)


def weighted_one_bit_phase(
    data: QuantizedData,
    tol: float = 1e-8,
    max_iters: int = 1000,
    seed: int = 0,
    shift: bool = False,
) -> RecoveryReport:
    """Like :func:`one_bit_phase` but with pair ratio weights inside the sum."""
    if data.weights is None:
        raise ValueError("data carries no ratio weights; use one_bit_phase")
    ens = data.ensemble
    ops = MatrixOperator(ens.rows1), MatrixOperator(ens.rows2)
    terms = one_bit_terms(*ops, data.y, data.weights.T)
    return spectral_estimate(terms, tol, max_iters, seed, shift)


def subexp_phase(
    ensemble: Union[PlainEnsemble, PairedEnsemble],
    b,
    tol: float = 1e-8,
    max_iters: int = 1000,
    seed: int = 0,
) -> RecoveryReport:
    """Top eigenvector of the intensity-weighted covariance (1/m) sum b_i a_i a_i*.

    The surrogate is positive semidefinite, so no spectral shift is needed.
    Accepts a plain ensemble, or a paired one whose 2m stacked rows are
    weighted by 2m intensities.
    """
    if isinstance(ensemble, PairedEnsemble):
        rows = ensemble.stacked_rows()
    else:
        rows = ensemble.rows
    b = _checked_intensities(b)
    return spectral_estimate([(MatrixOperator(rows), b)], tol, max_iters, seed)


def initial_estimate(
    kind: InitKind,
    op1,
    op2,
    b1,
    b2,
    y,
    stacked,
    seed,
    tol: float = 1e-8,
    max_iters: int = 1000,
    shift: bool = False,
) -> RecoveryReport:
    """Initial estimate of the given kind from paired observations.

    ``op1`` and ``op2`` measure the two members of each pair, ``b1``/``b2``
    are the observed pair intensities and ``y`` their signs.  ``stacked`` is
    the (operator, intensities) term of all measurements at once: the subexp
    surrogate, and the dimension of the random start.  ``seed`` drives the
    random vector or the power iteration; ``shift`` applies to the one-bit
    kinds only, since the subexp surrogate is positive semidefinite.
    """
    kind = InitKind(kind)
    if kind is InitKind.RANDOM:
        return RecoveryReport(
            estimate=random_init(stacked[0].n, seed),
            lambda_hat=0.0,
            iterations=0,
            trace=[],
            converged=True,
        )
    if kind is InitKind.SUBEXP:
        return spectral_estimate([stacked], tol, max_iters, seed)
    weights = ratio_weights(b1, b2) if kind is InitKind.WEIGHTED_ONEBIT else None
    terms = one_bit_terms(op1, op2, y, weights)
    return spectral_estimate(terms, tol, max_iters, seed, shift)


# ---------------------------------------------------------------------------
# alternating minimization


def dense_lsq_solver(rows: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Exact least-squares step for explicit rows, via a cached Cholesky
    factorization of the normal matrix."""
    gram = rows.T @ rows.conj()
    factor = cho_factor(gram, lower=False)

    def solve(rhs: np.ndarray) -> np.ndarray:
        return cho_solve(factor, rows.T @ rhs)

    return solve


def cdp_lsq_solver(op: CdpOperator) -> Callable[[np.ndarray], np.ndarray]:
    """Exact least-squares step for masked-DFT stacks.

    Unitary DFT blocks make the normal matrix Diag(sum_i |w_i|^2), so the
    minimizer is one adjoint plus a pointwise division.
    """
    diag = np.sum(np.abs(op.masks) ** 2, axis=0)
    if np.any(diag <= 0):
        raise ValueError("masks leave some coordinate unobserved")

    def solve(rhs: np.ndarray) -> np.ndarray:
        return op.adjoint(rhs) / diag

    return solve


# RAAR relaxation parameter of :func:`alt_min`; 1/2 gives plain alternating
# minimization.  0.8 lets random starts converge within 100 iterations while
# halving the noisy masked-DFT error of 1/2; at 0.9 the iterates still move
# at iteration 100, so the fixed-point stop does not fire.
RAAR_BETA = 0.8


def alt_min(
    op: MeasurementOperator,
    b,
    x_init,
    max_iters: int = 200,
    tol: float = 1e-12,
    cg_tol: float = 1e-10,
    cg_max_iters: Optional[int] = None,
    lsq_solver: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    callback: Optional[Callable[[int, np.ndarray], None]] = None,
) -> RecoveryReport:
    """Minimize ||A x - Diag(sqrt(b)) u||, |u_k| = 1, by relaxed averaged
    alternating reflections (RAAR; Luke, Inverse Problems 21, 2005).

    The iterate z lives in measurement space.  Each iteration projects it onto
    the measured magnitudes, p = sqrt(b) Ph(z), solves the least-squares
    problem x = A^+ p (warm-started CGLS by default, or an injected exact
    solver), and relaxes

        z <- beta z + (1 - 2 beta) p + beta (2 A x - A w),  w = A^+ z,

    where exact least squares makes A w the A x of the previous iteration, so
    an iteration still costs one solve and one apply.  beta is
    :data:`RAAR_BETA`; beta = 1/2 is plain alternating minimization.

    RAAR is not monotone, so the report keeps the best iterate: the trace and
    ``callback`` carry, per iteration, the smallest objective
    ||A x - sqrt(b) Ph(A x)||^2 seen so far and the x that attains it, and
    ``estimate`` is that x.  The run stops, converged, once the fixed-point
    step is small, ||z_new - z||^2 <= tol ||z_new||^2.
    """
    b = _checked_intensities(b)
    x = as_complex_vector(x_init).copy()
    if np.linalg.norm(x) == 0.0:
        raise ValueError("x_init must be nonzero")
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    sqrt_b = np.sqrt(b)
    beta = RAAR_BETA
    ls_ok = True
    converged = False
    trace: list = []
    z = np.asarray(op.apply(x), dtype=np.complex128)
    if z.shape != b.shape:
        raise ValueError(f"operator output {z.shape} does not match b {b.shape}")
    a_w = z
    best_obj, best_x = np.inf, x
    iters = 0
    for k in range(1, max_iters + 1):
        p = sqrt_b * phase_op(z)
        if lsq_solver is not None:
            x = lsq_solver(p)
        else:
            x, info = cgls(
                op.apply, op.adjoint, p, tol=cg_tol, max_iters=cg_max_iters, x0=x
            )
            if info != 0:
                ls_ok = False
        a_x = np.asarray(op.apply(x), dtype=np.complex128)
        obj = float(np.sum((np.abs(a_x) - sqrt_b) ** 2))
        if obj < best_obj:
            best_obj, best_x = obj, x
        iters = k
        trace.append((k, best_obj))
        if callback is not None:
            callback(k, best_x)
        z_new = beta * z + (1.0 - 2.0 * beta) * p + beta * (2.0 * a_x - a_w)
        step = float(np.linalg.norm(z_new - z) ** 2)
        z, a_w = z_new, a_x
        if step <= tol * float(np.linalg.norm(z) ** 2):
            converged = True
            break
    return RecoveryReport(
        estimate=best_x,
        lambda_hat=0.0,
        iterations=iters,
        trace=trace,
        converged=converged and ls_ok,
    )


def _block_bounds(total: int, blocks: int) -> list[tuple[int, int]]:
    """Contiguous equal blocks; leftover measurements join block 0."""
    size = total // blocks
    first = size + (total - size * blocks)
    bounds = [(0, first)]
    for i in range(1, blocks):
        start = first + (i - 1) * size
        bounds.append((start, start + size))
    return bounds


def _paired_view(rows, b):
    pairs = rows.shape[0] // 2
    even = slice(0, 2 * pairs, 2)
    odd = slice(1, 2 * pairs, 2)
    return rows[even], rows[odd], b[even], b[odd]


def _init_from_block(rows, b, init: InitKind, seed, tol, max_iters, shift):
    a1, a2, b1, b2 = _paired_view(rows, b)
    y = None
    if init in (InitKind.ONEBIT, InitKind.WEIGHTED_ONEBIT):
        if a1.shape[0] == 0:
            raise ValueError("initialization block has no measurement pairs")
        y = quantize(b1, b2)
    stream = "resample-random" if init is InitKind.RANDOM else "resample-power"
    return initial_estimate(
        init,
        MatrixOperator(a1),
        MatrixOperator(a2),
        b1,
        b2,
        y,
        (MatrixOperator(rows), b),
        substream(seed, stream),
        tol,
        max_iters,
        shift,
    )


def alt_min_resampled(
    ensemble: Union[PlainEnsemble, PairedEnsemble],
    b,
    epsilon: float,
    init: InitKind = InitKind.ONEBIT,
    c_stages: float = 1.0,
    tol: float = 1e-10,
    seed: int = 0,
    power_tol: float = 1e-8,
    power_max_iters: int = 1000,
    shift: bool = False,
    callback: Optional[Callable[[int, np.ndarray], None]] = None,
) -> RecoveryReport:
    """Staged alternating minimization on disjoint measurement blocks.

    Runs ceil(c_stages * log(1/epsilon)) refinement stages, each one exact
    phase update plus one least-squares solve on a fresh block; block 0
    (including any leftover rows) feeds the initializer.  Paired ensembles
    contribute their rows interleaved so block pairing matches the original
    pairs; ``b`` must follow the same order.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    if c_stages <= 0:
        raise ValueError("c_stages must be positive")
    if isinstance(ensemble, PairedEnsemble):
        rows = ensemble.interleaved_rows()
    else:
        rows = ensemble.rows
    b = _checked_intensities(b)
    if b.shape != (rows.shape[0],):
        raise ValueError(f"b has shape {b.shape}, expected ({rows.shape[0]},)")
    init = InitKind(init)
    n = rows.shape[1]
    total = rows.shape[0]
    stages = ceil(c_stages * log(1.0 / epsilon))
    blocks = stages + 1
    if total // blocks < n:
        raise ValueError(
            f"resampled schedule needs at least {blocks * n} measurements "
            f"({blocks} blocks of >= {n}); got {total}"
        )
    bounds = _block_bounds(total, blocks)
    lo, hi = bounds[0]
    report0 = _init_from_block(
        rows[lo:hi], b[lo:hi], init, seed, power_tol, power_max_iters, shift
    )
    x = report0.estimate
    if callback is not None:
        callback(0, x)
    trace: list = []
    converged = True
    for t, (lo, hi) in enumerate(bounds[1:], start=1):
        op = MatrixOperator(rows[lo:hi])
        sqrt_b = np.sqrt(b[lo:hi])
        rhs = sqrt_b * phase_op(op.apply(x))
        x, info = cgls(op.apply, op.adjoint, rhs, tol=tol, x0=x)
        if info != 0:
            converged = False
        obj = float(np.linalg.norm(op.apply(x) - rhs) ** 2)
        trace.append((t, obj))
        if callback is not None:
            callback(t, x)
    return RecoveryReport(
        estimate=x,
        lambda_hat=report0.lambda_hat,
        iterations=stages,
        trace=trace,
        converged=converged,
    )


def multi_init_select(
    candidates: Sequence[tuple],
    op: MeasurementOperator,
    b,
) -> tuple:
    """Pick the candidate with the smallest phase-consistency residual.

    The score is ||A x - Diag(sqrt(b)) Ph(A x)||^2; ties keep the earliest
    candidate.  Raises RuntimeError when no candidate has a finite score.
    """
    if len(candidates) == 0:
        raise ValueError("no candidates to select from")
    b = _checked_intensities(b)
    sqrt_b = np.sqrt(b)
    best = None
    best_score = np.inf
    for kind, vec in candidates:
        z = np.asarray(op.apply(vec), dtype=np.complex128)
        score = float(np.linalg.norm(z - sqrt_b * phase_op(z)) ** 2)
        if score < best_score:
            best = (kind, vec)
            best_score = score
    if best is None:
        raise RuntimeError("no candidate has a finite selection score")
    return best
