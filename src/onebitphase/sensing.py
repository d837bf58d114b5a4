"""Seeded measurement ensembles and the measurement operators over them.

All randomness flows through :func:`substream`, which derives an independent
generator from a master seed plus purpose keys, so every ensemble can be
regenerated bit-for-bit from its ``(n, m, seed)`` header.

A measurement operator is anything with ``n``, ``out_dim``, ``apply``,
``adjoint`` and ``lsq_solve``: :class:`MatrixOperator` for explicit rows and
:class:`CdpOperator` for masked-DFT stacks.  Each checks its array once, at
construction; ``apply``/``adjoint`` check only the length of their input.
``lsq_solve(y)`` is the exact least-squares step argmin_x ||A x - y||, whose
normal-matrix work each operator caches on first use.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .numkit import as_complex_vector


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


def sample_complex_gaussian(n: int, rng: np.random.Generator) -> np.ndarray:
    """Standard complex Gaussian vector: each coordinate has E|a_k|^2 = 1."""
    if n <= 0:
        raise ValueError("dimension must be positive")
    return (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * np.sqrt(0.5)


def _gaussian_rows(m: int, n: int, rng: np.random.Generator) -> np.ndarray:
    re = rng.standard_normal((m, n))
    im = rng.standard_normal((m, n))
    return (re + 1j * im) * np.sqrt(0.5)


def sample_exponential(mean: float, rng: np.random.Generator, size=None):
    """Exponential draws via the inverse CDF; mean 0 degenerates to zero."""
    if mean < 0:
        raise ValueError("mean must be non-negative")
    if mean == 0.0:
        return np.zeros(size) if size is not None else 0.0
    u = rng.random(size)
    return -mean * np.log1p(-u)


def sample_poisson(rate, rng: np.random.Generator, size=None):
    """Poisson draws, exact for every rate; rate 0 always yields 0."""
    rate = np.asarray(rate, dtype=float)
    if np.any(rate < 0):
        raise ValueError("rate must be non-negative")
    return rng.poisson(rate, size)


def _checked_rows(rows: np.ndarray, shape=None) -> None:
    if rows.ndim != 2 or rows.shape[0] <= 0 or rows.shape[1] <= 0:
        raise ValueError(f"rows have shape {rows.shape}; n and m must be positive")
    if shape is not None and rows.shape != shape:
        raise ValueError(f"rows have shape {rows.shape}, expected {shape}")


@dataclass(frozen=True)
class PairedEnsemble:
    """m pairs of independent n-dimensional complex Gaussian sensing rows."""

    rows1: np.ndarray
    rows2: np.ndarray

    def __post_init__(self):
        _checked_rows(self.rows1)
        _checked_rows(self.rows2, self.rows1.shape)

    @property
    def m(self) -> int:
        return self.rows1.shape[0]

    @property
    def n(self) -> int:
        return self.rows1.shape[1]

    def interleaved_rows(self) -> np.ndarray:
        """All 2m rows with pair members adjacent: a1_1, a2_1, a1_2, ..."""
        out = np.empty((2 * self.m, self.n), dtype=np.complex128)
        out[0::2] = self.rows1
        out[1::2] = self.rows2
        return out

    def stacked_rows(self) -> np.ndarray:
        """All 2m rows, first family then second."""
        return np.vstack([self.rows1, self.rows2])


@dataclass(frozen=True)
class PlainEnsemble:
    """m independent n-dimensional complex Gaussian sensing rows."""

    rows: np.ndarray

    def __post_init__(self):
        _checked_rows(self.rows)

    @property
    def m(self) -> int:
        return self.rows.shape[0]

    @property
    def n(self) -> int:
        return self.rows.shape[1]


def build_paired_ensemble(n: int, m: int, seed: int) -> PairedEnsemble:
    rows1 = _gaussian_rows(m, n, substream(seed, "paired-rows", 1))
    rows2 = _gaussian_rows(m, n, substream(seed, "paired-rows", 2))
    return PairedEnsemble(rows1, rows2)


def build_plain_ensemble(n: int, m: int, seed: int) -> PlainEnsemble:
    return PlainEnsemble(_gaussian_rows(m, n, substream(seed, "plain-rows")))


def _checked_matrix(a: np.ndarray, name: str) -> None:
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {a.shape}")
    # A NaN or inf entry makes the sum NaN or inf; one pass, no boolean copy.
    if not np.isfinite(a.sum()):
        raise ValueError(f"{name} entries must be finite")


def _sized(v, size: int, name: str) -> np.ndarray:
    """``v`` as an array of shape (size,); its entries are not inspected."""
    v = np.asarray(v)
    if v.shape != (size,):
        raise ValueError(f"{name} has shape {v.shape}, operator expects ({size},)")
    return v


@dataclass(frozen=True)
class MatrixOperator:
    """Measurement operator from explicit sensing rows.

    apply(x)[k] = <row_k, x> = conj(row_k) . x, matching the inner-product
    convention everywhere else.  It is evaluated as conj(rows @ conj(x)), so
    no conjugate copy of the rows is made.
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
        return np.conj(self.rows @ np.conj(x))

    def adjoint(self, y) -> np.ndarray:
        y = _sized(y, self.out_dim, "y")
        return self.rows.T @ y

    @cached_property
    def _normal_factor(self):
        """Cholesky factor of the normal matrix A*A = rows^T conj(rows)."""
        return cho_factor(self.rows.T @ self.rows.conj())

    def lsq_solve(self, y) -> np.ndarray:
        """argmin_x ||A x - y||, from the cached Cholesky factor."""
        return cho_solve(self._normal_factor, self.adjoint(y))


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
        x = _sized(x, self.n, "x")
        blocks = np.fft.fft(self.masks * x[None, :], axis=1, norm="ortho")
        return blocks.reshape(-1)

    def adjoint(self, y) -> np.ndarray:
        """sum_i conj(w_i) * idft(block_i)."""
        y = _sized(y, self.out_dim, "y")
        blocks = np.fft.ifft(y.reshape(self.r, self.n), axis=1, norm="ortho")
        return np.sum(self.masks.conj() * blocks, axis=0)

    @cached_property
    def _normal_diag(self) -> np.ndarray:
        diag = np.sum(np.abs(self.masks) ** 2, axis=0)
        if np.any(diag <= 0):
            raise ValueError("masks leave some coordinate unobserved")
        return diag

    def lsq_solve(self, y) -> np.ndarray:
        """argmin_x ||A x - y||: the normal matrix is diagonal, so one adjoint
        and a pointwise division."""
        return self.adjoint(y) / self._normal_diag


MeasurementOperator = Union[MatrixOperator, CdpOperator]


def build_cdp_operator(n: int, r: int, seed: int) -> CdpOperator:
    return CdpOperator(_gaussian_rows(r, n, substream(seed, "cdp-masks")))


def intensities(op: MeasurementOperator, x) -> np.ndarray:
    """|A x|^2 entrywise: the noiseless intensities of ``x`` through ``op``."""
    return np.abs(op.apply(x)) ** 2


def paired_intensities(ens: PairedEnsemble, x) -> tuple[np.ndarray, np.ndarray]:
    x = as_complex_vector(x)
    return intensities(MatrixOperator(ens.rows1), x), intensities(MatrixOperator(ens.rows2), x)
