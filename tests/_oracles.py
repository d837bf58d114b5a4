"""Independent dense oracles used by the tests, and a LAPACK failure fake.

The oracles assemble the covariance surrogates explicitly, one outer product
per measurement, so agreement is a genuine cross-check of the library's
paths: the rank-k updates of the dense operator and the FFTs of the
masked-DFT one.
"""

import ctypes

import numpy as np

from onebitphase import blas


def with_lapack_info(routine, info: int):
    """A raw LAPACK entry point of :mod:`onebitphase.blas` that runs
    ``routine`` and then reports ``info``, LAPACK's last argument."""
    slot = ctypes.POINTER(np.ctypeslib.as_ctypes_type(blas.INT))

    def call(*args):
        routine(*args)
        ctypes.cast(args[-1], slot)[0] = info

    return call


def dense_one_bit_matrix(rows1, rows2, y, weights=None) -> np.ndarray:
    """(1/m) sum_i y_i (w1_i a1 a1* - w2_i a2 a2*) as an explicit matrix."""
    m, n = rows1.shape
    out = np.zeros((n, n), dtype=np.complex128)
    for i in range(m):
        w1 = 1.0 if weights is None else weights[i, 0]
        w2 = 1.0 if weights is None else weights[i, 1]
        out += y[i] * (
            w1 * np.outer(rows1[i], rows1[i].conj())
            - w2 * np.outer(rows2[i], rows2[i].conj())
        )
    return out / m


def dense_subexp_matrix(rows, b) -> np.ndarray:
    """(1/m) sum_i b_i a_i a_i* as an explicit matrix."""
    m, n = rows.shape
    out = np.zeros((n, n), dtype=np.complex128)
    for i in range(m):
        out += b[i] * np.outer(rows[i], rows[i].conj())
    return out / m


def hermitian_top_eig(mat) -> tuple[float, np.ndarray]:
    """Reference eigenpair straight from numpy."""
    w, v = np.linalg.eigh(mat)
    return float(w[-1]), v[:, -1]
