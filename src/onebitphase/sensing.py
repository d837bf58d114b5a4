"""Seeded measurement ensembles: complex Gaussian rows and masked-DFT stacks.

All randomness flows through :func:`substream`, which derives an independent
generator from a master seed plus purpose keys, so every ensemble can be
regenerated bit-for-bit from its ``(n, m, seed)`` header.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

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


@dataclass(frozen=True)
class PairedEnsemble:
    """m pairs of independent n-dimensional complex Gaussian sensing rows."""

    n: int
    m: int
    seed: int
    rows1: np.ndarray
    rows2: np.ndarray

    def __post_init__(self):
        if self.n <= 0 or self.m <= 0:
            raise ValueError("n and m must be positive")
        for rows in (self.rows1, self.rows2):
            if rows.shape != (self.m, self.n):
                raise ValueError(
                    f"rows have shape {rows.shape}, expected {(self.m, self.n)}"
                )

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

    n: int
    m: int
    seed: int
    rows: np.ndarray

    def __post_init__(self):
        if self.n <= 0 or self.m <= 0:
            raise ValueError("n and m must be positive")
        if self.rows.shape != (self.m, self.n):
            raise ValueError(
                f"rows have shape {self.rows.shape}, expected {(self.m, self.n)}"
            )


def build_paired_ensemble(n: int, m: int, seed: int) -> PairedEnsemble:
    rows1 = _gaussian_rows(m, n, substream(seed, "paired-rows", 1))
    rows2 = _gaussian_rows(m, n, substream(seed, "paired-rows", 2))
    return PairedEnsemble(n=n, m=m, seed=seed, rows1=rows1, rows2=rows2)


def build_plain_ensemble(n: int, m: int, seed: int) -> PlainEnsemble:
    rows = _gaussian_rows(m, n, substream(seed, "plain-rows"))
    return PlainEnsemble(n=n, m=m, seed=seed, rows=rows)


def row_intensities(rows: np.ndarray, x: np.ndarray) -> np.ndarray:
    """|<row_k, x>|^2 for every row of a sensing matrix.

    |<row_k, x>| = |row_k . conj(x)|, so no conjugate copy of the rows is made.
    """
    return np.abs(rows @ np.conj(x)) ** 2


def paired_intensities(ens: PairedEnsemble, x) -> tuple[np.ndarray, np.ndarray]:
    x = as_complex_vector(x)
    if x.size != ens.n:
        raise ValueError(f"x has dimension {x.size}, ensemble expects {ens.n}")
    return row_intensities(ens.rows1, x), row_intensities(ens.rows2, x)


@dataclass(frozen=True)
class CdpOperator:
    """Masked-DFT sensing: r blocks, block i maps x to DFT(w_i * x).

    The adjoint uses the unitary inverse DFT, so apply/adjoint form an exact
    adjoint pair and the normal matrix is Diag(sum_i |w_i|^2).
    """

    n: int
    r: int
    masks: np.ndarray
    seed: int

    def __post_init__(self):
        if self.n <= 0 or self.r <= 0:
            raise ValueError("n and r must be positive")
        if self.masks.shape != (self.r, self.n):
            raise ValueError(
                f"masks have shape {self.masks.shape}, expected {(self.r, self.n)}"
            )

    @property
    def out_dim(self) -> int:
        return self.r * self.n

    @property
    def frobenius_sq(self) -> float:
        # unitary DFT blocks: ||F Diag(w_i)||_F^2 = ||w_i||^2
        return float(np.sum(np.abs(self.masks) ** 2))

    def apply(self, x) -> np.ndarray:
        return cdp_apply(self, x)

    def adjoint(self, y) -> np.ndarray:
        return cdp_adjoint(self, y)


def build_cdp_operator(n: int, r: int, seed: int) -> CdpOperator:
    masks = _gaussian_rows(r, n, substream(seed, "cdp-masks"))
    return CdpOperator(n=n, r=r, masks=masks, seed=seed)


def cdp_apply(op: CdpOperator, x) -> np.ndarray:
    """Stacked masked DFTs of x, block i = dft(masks[i] * x), length r*n."""
    x = as_complex_vector(x)
    if x.size != op.n:
        raise ValueError(f"x has dimension {x.size}, operator expects {op.n}")
    blocks = np.fft.fft(op.masks * x[None, :], axis=1, norm="ortho")
    return blocks.reshape(-1)

def cdp_adjoint(op: CdpOperator, y) -> np.ndarray:
    """Adjoint of :func:`cdp_apply`: sum_i conj(w_i) * idft(block_i)."""
    y = as_complex_vector(y)
    if y.size != op.r * op.n:
        raise ValueError(f"y has dimension {y.size}, expected {op.r * op.n}")
    blocks = np.fft.ifft(y.reshape(op.r, op.n), axis=1, norm="ortho")
    return np.sum(op.masks.conj() * blocks, axis=0)


def cdp_intensities(op: CdpOperator, x) -> np.ndarray:
    return np.abs(cdp_apply(op, x)) ** 2

