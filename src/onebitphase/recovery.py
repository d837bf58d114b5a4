"""Signal recovery from one-bit intensity comparisons.

The spectral inits of :func:`initial_estimate` extract the top eigenvector
of a measurement-weighted covariance surrogate through the operator's own
matvec, ``op.surrogate(c)``; alternating minimization refines an estimate
against un-quantized intensities.  All estimators report through :class:`RecoveryReport`, and
every entry point checks its intensities by ``channels.checked_intensities``.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from math import ceil, isfinite, log
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .blas import thread_count
from .channels import checked_intensities, ratio_weights
from .numkit import ahead, lanczos, phase_op, sample_complex_gaussian
from .sensing import MeasurementOperator


@dataclass
class RecoveryReport:
    """Outcome of one recovery run.

    ``trace`` holds one float per step: the Ritz residual per Lanczos
    matvec, the best objective per RAAR iteration, the objective per
    resampled stage; :attr:`iterations` is ``len(trace)``.  Every producer
    states ``converged``, which is True for a random init and the resampled
    stages.  Only spectral reports set ``lambda_hat``; it is 0.0 elsewhere.
    Spectral estimates are unit norm, alternating-minimization estimates
    keep their least-squares scale.
    """

    estimate: np.ndarray
    trace: list
    converged: bool
    lambda_hat: float = 0.0

    @property
    def iterations(self) -> int:
        return len(self.trace)


# the init kinds of :func:`initial_estimate`, by name
INIT_KINDS = ("random", "subexp", "onebit", "weighted1bit")


class DegenerateDataError(ValueError):
    """Observed data that holds nothing to recover from: every intensity
    zero, or every pair of a one-bit init tied."""


def random_init(n: int, seed) -> np.ndarray:
    """Uniformly random unit vector on the complex sphere."""
    v = sample_complex_gaussian(n, np.random.default_rng(seed))
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# initial estimates


def initial_estimate(
    kind: str,
    op,
    b,
    y,
    pairs,
    seed,
    tol: float = 1e-8,
    max_iters: int = 1000,
) -> RecoveryReport:
    """Initial estimate of the named kind, one of :data:`INIT_KINDS`, from
    paired observations.

    ``op`` measures all M measurements, ``b`` holds their observed
    intensities in ``op``'s output order, ``y`` one sign per pair, and
    ``pairs`` the two slices of ``b`` that hold the members of each pair.
    The random kind draws a unit vector.  Each spectral kind picks
    coefficients c and takes the algebraically top eigenvector of the
    surrogate (1/M) A* Diag(c) A by Lanczos
    (:func:`~onebitphase.numkit.lanczos`) on the operator's own matvec,
    ``op.surrogate(c)``: c = b for subexp (the intensity-weighted init of
    AltMinPhase, Netrapalli, Jain and Sanghavi 2013), and c = 2 y w1 on
    family 1 and -2 y w2 on family 2 for the one-bit kinds (w = 1 for
    onebit; for weighted1bit, the pair ratio weights of
    :func:`~onebitphase.channels.ratio_weights`, which give a pair with
    b1 + b2 = 0 weight 0).  With M = 2m the factor 2 makes that the paper's
    (1/m) sum_i y_i (w1_i a1_i a1_i* - w2_i a2_i a2_i*).

    ``seed`` drives the random vector or the Lanczos start vector.  ``tol``
    bounds the relative Ritz residual and ``max_iters`` the matvecs; the
    trace holds the Ritz residual after each matvec.  A negative eigenvalue
    of larger magnitude does not capture the estimate, and ``lambda_hat`` is
    the top eigenvalue clipped at 0.  An unknown kind and negative or
    non-finite intensities raise ValueError before the first matvec, and an
    all-zero c (every pair tied, or every intensity zero), whose surrogate
    has no top eigenvector, raises :class:`DegenerateDataError` there too.
    """
    if kind not in INIT_KINDS:
        raise ValueError(f"unknown init kind {kind!r}; expected one of {', '.join(INIT_KINDS)}")
    b = checked_intensities(b)
    if kind == "random":
        return RecoveryReport(random_init(op.n, seed), [], True)
    c = b
    if kind != "subexp":
        w1, w2 = 1.0, 1.0
        if kind == "weighted1bit":
            w1, w2 = ratio_weights(b[pairs[0]], b[pairs[1]])
        two_y = 2.0 * np.asarray(y, dtype=float)
        c = np.zeros(b.shape)
        c[pairs[0]] = two_y * w1
        c[pairs[1]] = -two_y * w2
    if not c.any():
        raise DegenerateDataError(
            f"every {kind} surrogate coefficient is zero: "
            "every pair ties or every intensity is zero"
        )
    theta, vec, residuals, converged = lanczos(op.surrogate(c), op.n, tol, max_iters, seed)
    return RecoveryReport(vec, residuals, converged, max(theta, 0.0))


# ---------------------------------------------------------------------------
# alternating minimization


# RAAR relaxation parameter of :func:`alt_min_many`; 1/2 gives plain alternating
# minimization.  0.8 lets random starts converge within 100 iterations while
# halving the noisy masked-DFT error of 1/2; at 0.9 the iterates still move
# at iteration 100, so the fixed-point stop does not fire.
RAAR_BETA = 0.8


def _phase_misfit(a_x: np.ndarray, sqrt_b: np.ndarray) -> np.ndarray:
    """sum((|A x| - sqrt(b))^2) of each row of the stack ``a_x``: the squared
    distance ||A x - sqrt(b) Ph(A x)||^2 from A x to the measured magnitudes."""
    mag = np.abs(a_x)
    np.subtract(mag, sqrt_b, out=mag)
    return np.sum(np.square(mag, out=mag), axis=-1)


def _stack(starts) -> np.ndarray:
    """``starts`` as a complex (k, n) array, k >= 1; raises ValueError otherwise."""
    x = np.array(starts, dtype=np.complex128)
    if x.ndim != 2 or x.size == 0:
        raise ValueError(f"starts must be a non-empty (k, n) stack, got shape {x.shape}")
    return x


def alt_min_many(
    op: MeasurementOperator,
    b,
    starts,
    max_iters: int = 200,
    tol: float = 1e-12,
    callback: Optional[Callable[[int, int, np.ndarray], None]] = None,
) -> list[RecoveryReport]:
    """Minimize ||A x - Diag(sqrt(b)) u||, |u_k| = 1, by relaxed averaged
    alternating reflections (RAAR; Luke, Inverse Problems 21, 2005), from
    each row of the (k, n) stack ``starts`` at once.

    The iterate z lives in measurement space.  Each iteration projects it onto
    the measured magnitudes, p = sqrt(b) Ph(z), solves the least-squares
    problem x = A^+ p exactly with the operator's ``lsq_solve``, and relaxes

        z <- beta z + (1 - 2 beta) p + beta (2 A x - A w),  w = A^+ z,

    where exact least squares makes A w the A x of the previous iteration, so
    an iteration still costs one solve and one apply.  beta is
    :data:`RAAR_BETA`; beta = 1/2 is plain alternating minimization.

    The runs share those calls: each iteration makes one stacked solve and
    one stacked apply over the live runs, one row each.  A run is otherwise
    on its own.  RAAR is not monotone, so its report keeps its best iterate:
    its trace and ``callback(run, k, x)``, with ``run`` the start's row,
    carry, per iteration, the smallest objective ||A x - sqrt(b) Ph(A x)||^2
    seen so far and the x that attains it, and ``estimate`` is that x.  A run
    stops, converged, once its fixed-point step is small, ||z_new - z||^2 <=
    tol ||z_new||^2, and leaves the stack, so later iterations step only the
    live runs.  Returns one report per start, in row order.
    """
    b = checked_intensities(b)
    x = _stack(starts)
    if not np.all(np.isfinite(x)):
        raise ValueError("starts must be finite")
    if np.any(np.linalg.norm(x, axis=1) == 0.0):
        raise ValueError("every start must be nonzero")
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    sqrt_b = np.sqrt(b)
    # the complex copy serves the complex multiply below, which would
    # otherwise cast sqrt_b every iteration; the products are the same bits
    sqrt_b_complex = sqrt_b.astype(np.complex128)
    beta = RAAR_BETA
    # a copy, so that z is this loop's own buffer (see below)
    z = np.array(op.apply(x), dtype=np.complex128)
    if z.shape[1:] != b.shape:
        raise ValueError(f"operator output {z.shape[1:]} does not match b {b.shape}")
    a_w = z
    live = list(range(len(x)))  # the start row of each stack row
    reports = [RecoveryReport(start, [], False) for start in x]
    # The relaxation z_new = beta z + (1 - 2 beta) p + beta (2 a_x - a_w) is
    # written in place: z and ``spare`` swap roles each iteration, and ``tmp``
    # holds each intermediate.  Every product keeps its operand order, so each
    # run's iterates are the same bits as the expression on its own row.
    spare, tmp = np.empty_like(z), np.empty_like(z)
    for k in range(1, max_iters + 1):
        p = phase_op(z)
        np.multiply(sqrt_b_complex, p, out=p)
        x = op.lsq_solve(p)
        a_x = np.asarray(op.apply(x), dtype=np.complex128)
        obj = _phase_misfit(a_x, sqrt_b)
        for row, run in enumerate(live):
            report = reports[run]
            best = report.trace[-1] if report.trace else np.inf
            if obj[row] < best:
                best, report.estimate = float(obj[row]), x[row]
            report.trace.append(best)
            if callback is not None:
                callback(run, k, report.estimate)
        z_new = np.multiply(beta, z, out=spare)
        z_new += np.multiply(1.0 - 2.0 * beta, p, out=tmp)
        np.multiply(2.0, a_x, out=tmp)
        np.subtract(tmp, a_w, out=tmp)
        z_new += np.multiply(beta, tmp, out=tmp)
        np.subtract(z_new, z, out=tmp)
        spare, z, a_w = z, z_new, a_x
        stay = []
        for row, run in enumerate(live):
            step = float(np.linalg.norm(tmp[row]) ** 2)
            if step <= tol * float(np.linalg.norm(z[row]) ** 2):
                reports[run].converged = True
            else:
                stay.append(row)
        if not stay:
            break
        if len(stay) < len(live):
            live = [live[row] for row in stay]
            z, a_w = z[stay], a_w[stay]
            spare, tmp = np.empty_like(z), np.empty_like(z)
    return reports


def resampled_schedule(total: int, n: int, epsilon: float) -> tuple[int, int]:
    """Sizes of block 0 and of each stage when :func:`resample_blocks` cuts
    ``total`` measurements of dimension ``n``; raises ValueError unless every
    stage has at least ``n`` measurements and block 0 at least one pair."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    if not isfinite(1.0 / epsilon):
        raise ValueError(f"epsilon is too small: 1/epsilon overflows; got {epsilon!r}")
    blocks = ceil(log(1.0 / epsilon)) + 1
    size = total // blocks
    if size < n:
        raise ValueError(
            f"resampled schedule needs at least {blocks * n} measurements "
            f"({blocks} blocks of >= {n}); got {total}"
        )
    first = total - size * (blocks - 1)
    if first < 2:
        raise ValueError("initialization block has no measurement pairs")
    return first, size


def resample_blocks(op, b, y, epsilon: float) -> tuple:
    """Split paired measurements into an init block and ceil(log(1/epsilon))
    disjoint refinement blocks, every one a view of ``op``.

    ``op`` is the :class:`MatrixOperator` of all 2m rows in the pair order
    a1_1, a2_1, a1_2, ... of ``sensing.build_paired_ensemble``, ``b`` their
    intensities in that order and ``y`` one sign per pair.  The blocks are
    contiguous and equal in that sequence, with any leftover rows in block
    0, and sized by :func:`resampled_schedule`.  Returns ``(init_data,
    stages)``: ``init_data`` is block 0 as the ``(op, b, y, pairs)``
    arguments of :func:`initial_estimate`, and ``stages`` holds the
    ``(operator, b)`` of each later block, for :func:`alt_min_resampled`
    (through :func:`factor_ahead`, to factor them while the init runs).
    An odd leftover measurement of block 0 has no partner, so the one-bit
    surrogates give it coefficient 0.
    """
    total, n = op.rows.shape
    if total % 2:
        raise ValueError(f"op has shape {op.rows.shape}; pairs need an even row count")
    b = checked_intensities(b)
    y = np.asarray(y, dtype=float)
    for name, v, length in (("b", b, total), ("y", y, total // 2)):
        if v.shape != (length,):
            raise ValueError(f"{name} has shape {v.shape}, expected ({length},)")
    first, size = resampled_schedule(total, n, epsilon)
    m0 = first // 2  # pairs in block 0
    pairs = (slice(0, 2 * m0, 2), slice(1, 2 * m0, 2))
    init_data = (op[:first], b[:first], y[:m0], pairs)
    stages = [(op[lo : lo + size], b[lo : lo + size]) for lo in range(first, total, size)]
    return init_data, stages


def _spare_core() -> bool:
    """Whether BLAS leaves a core of this process idle: its thread count,
    read now, is known and below the cores the process may run on."""
    threads = thread_count()
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without affinity masks
        cores = os.cpu_count() or 1
    return threads is not None and threads < cores


def _factored(op, b) -> tuple:
    op.prepare_lsq()
    return op, b


@contextmanager
def factor_ahead(stages: Sequence[tuple]):
    """The ``(operator, b)`` stages of :func:`resample_blocks`, to pass to
    :func:`alt_min_resampled` inside the with-block, each factored for its
    least-squares step (``MatrixOperator.prepare_lsq``) before it is used.

    When BLAS leaves a core idle, that is, when its thread count is below
    the cores this process may run on, one short-lived worker thread
    factors the stages in order from entry, so each dense Gram (``zherk``)
    and Cholesky factor (``zpotrf``) overlaps what the body runs first,
    such as the block-0 init; ``ctypes`` releases the GIL in both calls.
    The stages yielded wait each for their own factor as they are reached,
    and a failed factor raises there, in the caller's thread.  Otherwise no
    thread is started, and each stage is factored on the caller's thread
    when it is reached, as its first solve would.  The factors, and so the
    estimates, are the same bits under both schedules.  The stages are
    read once; on exit a factor not yet begun is cancelled and the worker
    is joined, also when the body raises.
    """
    with ahead(bool(stages) and _spare_core()) as submit:
        waits = [submit(_factored, op, b) for op, b in stages]
        yield (wait() for wait in waits)


def alt_min_resampled(
    stages: Iterable[tuple],
    starts,
    callback: Optional[Callable[[int, int, np.ndarray], None]] = None,
) -> list[RecoveryReport]:
    """Staged alternating minimization on disjoint blocks, from each row of
    the (k, n) stack ``starts`` at once.

    Each ``(operator, b)`` stage of :func:`resample_blocks` is one stacked
    iteration of :func:`alt_min_many` on fresh measurements.  Its relaxation
    never reaches the estimate, so a stage is exactly one phase update and
    one least-squares solve per row, x <- A^+ (sqrt(b) Ph(A x)); a solve
    that fails raises instead of returning, so every report is converged.
    With :func:`alt_min_many`'s run protocol, a start's trace holds each
    stage's objective, ``callback(run, t, x)`` sees stage t's estimate of
    row ``run``, t = 1, 2, ..., never the start, and one report per start
    is returned, in row order: with no stages, each start as it is.
    """
    reports = [RecoveryReport(start, [], True) for start in _stack(starts)]
    for t, (op, b) in enumerate(stages, start=1):
        steps = alt_min_many(op, b, [report.estimate for report in reports], max_iters=1)
        for run, (report, step) in enumerate(zip(reports, steps)):
            report.estimate = step.estimate
            report.trace += step.trace
            if callback is not None:
                callback(run, t, step.estimate)
    return reports


def multi_init_select(op: MeasurementOperator, b, starts) -> int:
    """Row of the (k, n) stack ``starts`` to refine: the one with the
    smallest objective of :func:`alt_min_many`, ||A x - Diag(sqrt(b))
    Ph(A x)||^2, from one stacked apply.  Ties keep the earliest row and a
    non-finite score is skipped; raises RuntimeError when no score is finite.
    """
    x = _stack(starts)
    b = checked_intensities(b)
    scores = _phase_misfit(op.apply(x), np.sqrt(b))
    finite = np.flatnonzero(np.isfinite(scores))
    if finite.size == 0:
        raise RuntimeError("no start has a finite selection score")
    return int(finite[np.argmin(scores[finite])])
