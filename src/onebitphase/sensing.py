"""Seeded measurement operators: complex Gaussian rows and masked DFTs.

All randomness flows through :func:`substream`, which derives an independent
generator from a master seed plus purpose keys, so every builder returns the
same operator, bit for bit, from the same ``(n, m, seed)``.

A measurement operator is anything with ``n``, ``out_dim``, ``apply``,
``adjoint``, ``lsq_solve`` and ``surrogate``: :class:`MatrixOperator` for
explicit rows and :class:`CdpOperator` for masked-DFT stacks.  Each checks
its array once, at construction, and a view ``op[key]`` over some of its
rows is not checked again; ``apply``/``adjoint`` check only the length of
their input.  ``lsq_solve(y)`` is the exact least-squares step
argmin_x ||A x - y||, whose normal-matrix work each operator caches on first
use (a :class:`MatrixOperator` also on ``prepare_lsq()``, ahead of the first
solve); it rejects a non-finite ``y``.  These three take one vector or a
(k, len) stack of them, one per row, and act along the last axis.
``surrogate(c)`` returns the matvec r -> (1/M) A* Diag(c) A r of the
spectral inits, M = ``out_dim``, which takes an n-vector or a (k, n)
stack like ``apply``; it rejects coefficients that are not one finite real
number per output.  Each operator evaluates it its own way: the dense one
forms the n x n matrix once, the masked-DFT one makes one apply and one
adjoint per matvec.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Union

import numpy as np

from .blas import UpperCholesky, rank_k_update
from .numkit import GAUSS_CHUNK, ahead, sample_complex_gaussian


# Rows gathered, scaled and added per Hermitian rank-k update when
# :meth:`MatrixOperator.surrogate` forms its matrix: 2 MiB at n = 512, so the
# gathered copy stays small next to the rows and the n x n result.
SURROGATE_CHUNK = 256


def _key_word(key) -> int:
    if isinstance(key, (int, np.integer)):
        return int(key) & 0xFFFFFFFFFFFFFFFF
    if isinstance(key, str):
        digest = hashlib.sha256(key.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "little")
    raise TypeError(f"stream key must be int or str, got {type(key).__name__}")


def substream(seed: int, *keys) -> np.random.Generator:
    """Generator derived from (seed, *keys); distinct keys never collide."""
    entropy = [int(seed) & 0xFFFFFFFFFFFFFFFF] + [_key_word(k) for k in keys]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def sample_exponential(mean: float, rng: np.random.Generator, size=None):
    """Exponential draws via the inverse CDF; mean 0 degenerates to zero."""
    if mean < 0:
        raise ValueError("mean must be non-negative")
    if mean == 0.0:
        return np.zeros(size) if size is not None else 0.0
    u = rng.random(size)
    return -mean * np.log1p(-u)


def _checked_matrix(a: np.ndarray, name: str) -> None:
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {a.shape}")
    # A NaN or inf entry makes the sum NaN or inf; one pass, no boolean copy.
    if not np.isfinite(a.sum()):
        raise ValueError(f"{name} entries must be finite")


def _finite_normal_rhs(op, y) -> np.ndarray:
    """A* y for a least-squares step, rejecting a non-finite ``y``.

    The operator's entries were checked finite at construction, so a NaN or
    inf in ``y`` always makes A* y non-finite: the n-vector is checked in
    place of the longer ``y``.
    """
    rhs = op.adjoint(y)
    if not np.all(np.isfinite(rhs)):
        raise ValueError("y entries must be finite")
    return rhs


def _surrogate_coefficients(c, out_dim: int) -> np.ndarray:
    """``c`` as one finite real coefficient per output."""
    c = np.asarray(c, dtype=float)
    if c.shape != (out_dim,):
        raise ValueError(f"coefficients have shape {c.shape}, expected ({out_dim},)")
    if not np.all(np.isfinite(c)):
        raise ValueError("coefficients must be finite")
    return c


def _sized(v, size: int, name: str) -> np.ndarray:
    """``v`` as an array of shape (size,) or a (k, size) stack; its entries
    are not inspected."""
    v = np.asarray(v)
    if v.ndim not in (1, 2) or v.shape[-1] != size:
        raise ValueError(f"{name} has shape {v.shape}, operator expects ({size},)")
    return v


@dataclass(frozen=True)
class MatrixOperator:
    """Measurement operator from explicit sensing rows.

    apply(x)[k] = <row_k, x> = conj(row_k) . x, matching the inner-product
    convention everywhere else.  It is evaluated as conj(conj(x) @ rows.T),
    so no conjugate copy of the rows is made.  A (k, n) stack of inputs is
    one matrix product (BLAS GEMM) over the rows, where each row of the
    stack alone is a GEMV: the two agree to rounding, and a single vector or
    a one-row stack gives the same bits as ``rows @ conj(x)``.
    """

    rows: np.ndarray

    def __post_init__(self):
        _checked_matrix(self.rows, "rows")

    @property
    def n(self) -> int:
        return self.rows.shape[1]

    @property
    def out_dim(self) -> int:
        return self.rows.shape[0]

    def apply(self, x) -> np.ndarray:
        x = _sized(x, self.n, "x")
        return np.conj(np.conj(x) @ self.rows.T)

    def adjoint(self, y) -> np.ndarray:
        y = _sized(y, self.out_dim, "y")
        return y @ self.rows

    def __getitem__(self, key) -> "MatrixOperator":
        """The operator over ``rows[key]``.  Those rows were checked when this
        operator was built, so the view is not scanned again."""
        rows = self.rows[key]
        if rows.ndim != 2:
            raise ValueError(f"rows[{key!r}] has shape {rows.shape}; an operator needs 2-D rows")
        view = object.__new__(MatrixOperator)
        object.__setattr__(view, "rows", rows)
        return view

    @cached_property
    def _normal_factor(self) -> UpperCholesky:
        """Cholesky factor U of the normal matrix A*A = rows^T conj(rows),
        with its solve pointers prepared.

        The Gram is one Hermitian rank-k update, ``zherk`` on ``rows.T``: half
        the flops of the full product and no conjugate copy, and ``rows.T`` of
        C-ordered complex rows is Fortran-ordered, so it is passed without a
        copy (strided or real rows are copied to that layout first).
        ``zherk`` fills only the upper triangle, which is the one ``zpotrf``
        factors in place and :meth:`lsq_solve` reads.
        """
        return UpperCholesky(rank_k_update(1.0, self.rows.T))

    def prepare_lsq(self) -> None:
        """Make and cache the factor :meth:`lsq_solve` reads, now rather than
        at the first solve.  Not Hermitian positive definite rows raise
        LinAlgError here."""
        self._normal_factor

    def lsq_solve(self, y) -> np.ndarray:
        """argmin_x ||A x - y||: the cached Cholesky factor U (A*A = U* U),
        then two triangular solves, U* w = A* y and U x = w.

        Each solve is one BLAS ``ztrsv`` in place on a fresh n-vector of
        A* y, which for one right-hand side is faster than LAPACK ``zpotrs``;
        both read only the upper triangle.  A stack is solved row by row, so
        each row gets the bits of its own solve from the same A* y; one
        level-3 triangular solve over the whole stack was slower at the
        default thread count.  The factor comes from checked rows and A* y
        is checked here, so neither is scanned again."""
        factor = self._normal_factor
        # a fresh C-ordered product (real only from real rows and y), so
        # each row is solved where it is
        x = _finite_normal_rhs(self, y).astype(np.complex128, copy=False)
        factor.solve_rows(x)
        return x

    def surrogate(self, c) -> Callable[[np.ndarray], np.ndarray]:
        """The matvec r -> S r of S = (1/M) A* Diag(c) A = (1/M) sum_k c_k
        row_k row_k*, with S formed once.

        The upper triangle of S is formed in a Fortran-ordered n x n buffer
        by Hermitian rank-k updates (``zherk``): the rows with c > 0, then
        those with c < 0, are gathered ``SURROGATE_CHUNK`` at a time, scaled
        in place by sqrt(|c|) and added with weight +1/M or -1/M.  Rows with
        c = 0 are skipped.  That is M n^2 / 2 complex multiply-adds at
        level-3 speed, once; the lower triangle is then mirrored in, so
        that each matvec is one numpy product with S in place of an apply
        and an adjoint that each stream all M rows.  The matvec stays on
        numpy's matmul, which at one thread was faster than a BLAS ``zhemv``
        on the stored triangle.  The result agrees with the apply/adjoint
        formula to rounding.
        """
        c = _surrogate_coefficients(c, self.out_dim)
        n = self.n
        s = np.zeros((n, n), dtype=np.complex128, order="F")
        for sign in (1.0, -1.0):
            picked = np.flatnonzero(sign * c > 0)
            for lo in range(0, picked.size, SURROGATE_CHUNK):
                take = picked[lo : lo + SURROGATE_CHUNK]
                # a fresh C-ordered gather, so its transpose goes to BLAS
                # uncopied; it is dropped before the next one is made
                chunk = self.rows[take]
                chunk *= np.sqrt(np.abs(c[take]))[:, None]
                rank_k_update(sign / c.size, chunk.T, beta=1.0, c=s)
                del chunk
        # column by column, so no n x n temporary is made
        for j in range(1, n):
            s[j, :j] = s[:j, j].conj()

        def matvec(r) -> np.ndarray:
            return _sized(r, n, "r") @ s.T

        return matvec


@dataclass(frozen=True)
class CdpOperator:
    """Masked-DFT sensing with r masks of length n: block i maps x to
    DFT(w_i * x), and the blocks stack to length r*n.

    The adjoint uses the unitary inverse DFT, so apply/adjoint form an exact
    adjoint pair and the normal matrix is Diag(sum_i |w_i|^2).
    """

    masks: np.ndarray

    def __post_init__(self):
        _checked_matrix(self.masks, "masks")
        if self.masks.size == 0:
            raise ValueError(f"masks have shape {self.masks.shape}; n and r must be positive")

    @property
    def r(self) -> int:
        return self.masks.shape[0]

    @property
    def n(self) -> int:
        return self.masks.shape[1]

    @property
    def out_dim(self) -> int:
        return self.masks.size

    def apply(self, x) -> np.ndarray:
        """The masks broadcast over a stack, so each row of a (k, n) stack
        is transformed exactly as it is alone."""
        x = _sized(x, self.n, "x")
        blocks = np.fft.fft(self.masks * x[..., None, :], axis=-1, norm="ortho")
        return blocks.reshape(x.shape[:-1] + (-1,))

    def adjoint(self, y) -> np.ndarray:
        """sum_i conj(w_i) * idft(block_i), summed over the mask axis."""
        y = _sized(y, self.out_dim, "y")
        blocks = np.fft.ifft(y.reshape(y.shape[:-1] + (self.r, self.n)), axis=-1, norm="ortho")
        return np.sum(self.masks.conj() * blocks, axis=-2)

    @cached_property
    def _normal_diag(self) -> np.ndarray:
        diag = np.sum(np.abs(self.masks) ** 2, axis=0)
        if np.any(diag <= 0):
            raise ValueError("masks leave some coordinate unobserved")
        return diag

    def lsq_solve(self, y) -> np.ndarray:
        """argmin_x ||A x - y||: the normal matrix is diagonal, so one adjoint
        and a pointwise division.  A non-finite ``y`` is rejected."""
        return _finite_normal_rhs(self, y) / self._normal_diag

    def surrogate(self, c) -> Callable[[np.ndarray], np.ndarray]:
        """The matvec r -> (1/M) A* Diag(c) A r as one apply and one adjoint.
        Weighted by c the matrix is dense, and one product with it would
        cost more than these FFTs, so it is never formed."""
        c = _surrogate_coefficients(c, self.out_dim)
        # numpy casts a real operand to complex inside each complex multiply;
        # casting once here gives the same products without the per-call cast.
        c_complex = c.astype(np.complex128)

        def matvec(r) -> np.ndarray:
            return self.adjoint(c_complex * self.apply(r)) / c.size

        return matvec


MeasurementOperator = Union[MatrixOperator, CdpOperator]


def build_paired_ensemble(n: int, m: int, seed: int) -> tuple[MatrixOperator, tuple[slice, slice]]:
    """m pairs of complex Gaussian sensing rows in C^n, drawn into one
    (2m, n) array in pair order a1_1, a2_1, a1_2, ...: family 1 fills rows
    ``[0::2]`` and family 2 rows ``[1::2]``.

    Returns ``(op, pairs)``: the operator over all 2m rows and the two
    slices that place the families in its rows and outputs; ``op[pairs[k]]``
    is a view of one family.

    Once one family holds at least ``GAUSS_CHUNK`` doubles, family 2 is
    drawn on one short-lived worker thread (:func:`~onebitphase.numkit.ahead`)
    while the caller draws family 1; a smaller build would not repay the
    thread's start, and draws both on the caller's thread.  Each family has
    its own generator, so the rows are the same bits either way.
    """
    pairs = (slice(0, None, 2), slice(1, None, 2))
    rows = np.empty((2 * m, n), dtype=np.complex128)

    def draw(k: int) -> None:
        sample_complex_gaussian((m, n), substream(seed, "paired-rows", k), out=rows[pairs[k - 1]])

    with ahead(2 * m * n >= GAUSS_CHUNK) as submit:
        second = submit(draw, 2)
        draw(1)
        second()
    return MatrixOperator(rows), pairs


def build_plain_ensemble(n: int, m: int, seed: int) -> MatrixOperator:
    """m independent complex Gaussian sensing rows in C^n."""
    return MatrixOperator(sample_complex_gaussian((m, n), substream(seed, "plain-rows")))


def build_cdp_operator(n: int, r: int, seed: int) -> CdpOperator:
    return CdpOperator(sample_complex_gaussian((r, n), substream(seed, "cdp-masks")))


def build_paired_cdp(n: int, r: int, seeds) -> tuple[CdpOperator, tuple[slice, slice]]:
    """Two families of r masks of length n in one (2r, n) array: family k
    fills masks ``[k r, (k + 1) r)`` with the masks of
    ``build_cdp_operator(n, r, seeds[k])``.

    Returns ``(op, pairs)``: the operator over both families and the two
    slices that place them in its outputs, so pair i compares output i of
    family 1 with output i of family 2.
    """
    if len(seeds) != 2:
        raise ValueError(f"need one seed per mask family, got {len(seeds)}")
    masks = np.empty((2 * r, n), dtype=np.complex128)
    for k, seed in enumerate(seeds):
        family = masks[k * r : (k + 1) * r]
        sample_complex_gaussian((r, n), substream(seed, "cdp-masks"), out=family)
    return CdpOperator(masks), (slice(None, r * n), slice(r * n, None))


def intensities(op: MeasurementOperator, x) -> np.ndarray:
    """|A x|^2 entrywise: the noiseless intensities of ``x`` through ``op``."""
    return np.abs(op.apply(x)) ** 2
