"""The five BLAS and LAPACK routines of the package, called through ``ctypes``
on the library numpy itself links: ``zherk``, ``zpotrf``, ``ztrsv``,
``dstebz`` and ``dstein``, and that library's thread count
(:func:`thread_count`).

numpy's linalg extension links its BLAS/LAPACK, and ``dlsym`` on that
extension's handle also searches the libraries it links, so the symbols are
found without a file-system search, in one process-wide library with one
thread pool.  A symbol's spelling fixes the width of its integer arguments
(:data:`_SPELLINGS`); a library that exports none of them raises ImportError
when this module is imported.

The routines take Fortran arguments, every one by address, and no hidden
string lengths, as f2py wrappers pass them.  The module-level names
``zherk`` ... ``dstein`` are those raw entry points; LAPACK's ``info`` is
always the last argument.  The wrappers below cast and copy their arrays to
the layout the routine reads, as f2py does, and map ``info`` to errors as
``scipy.linalg`` does: an illegal argument is a ValueError, a failure a
``numpy.linalg.LinAlgError``.  The two that step a routine many times over
the same buffers, :class:`UpperCholesky` (its triangular solves) and
:class:`TridiagonalTopPair` (the Ritz step of Lanczos), prepare every
pointer once and pass only what changes.
"""

from __future__ import annotations

import ctypes
from typing import Optional

import numpy as np
import numpy.linalg._umath_linalg as _linalg_ext

# symbol template and integer type: numpy 2 wheels (scipy-openblas64),
# numpy 1.x ILP64 wheels (openblas64_), then LP64 builds
_SPELLINGS = (("scipy_{}_64_", np.int64), ("{}_64_", np.int64), ("{}_", np.int32))
_ROUTINES = ("zherk", "zpotrf", "ztrsv", "dstebz", "dstein")
# the number of (pointer) arguments of each routine
_ARITY = {"zherk": 10, "zpotrf": 5, "ztrsv": 8, "dstebz": 18, "dstein": 13}
# OpenBLAS's thread-count getter, in the same three builds
_THREAD_COUNT_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)

_LIB = ctypes.CDLL(_linalg_ext.__file__)


def _resolve():
    tried = []
    for template, int_type in _SPELLINGS:
        names = [template.format(r) for r in _ROUTINES]
        found = [getattr(_LIB, name, None) for name in names]
        if all(found):
            for routine, fn in zip(_ROUTINES, found):
                fn.argtypes = [ctypes.c_void_p] * _ARITY[routine]
                fn.restype = None
            return np.dtype(int_type), found
        tried += names
    raise ImportError(
        f"numpy's BLAS/LAPACK ({_linalg_ext.__file__}) exports none of {', '.join(tried)}"
    )


INT, (zherk, zpotrf, ztrsv, dstebz, dstein) = _resolve()
_INT = np.ctypeslib.as_ctypes_type(INT)


def thread_count() -> Optional[int]:
    """The number of threads the library runs each BLAS call on, read now
    (``OPENBLAS_NUM_THREADS`` sets it at start-up), or None when it is not
    known: the library exports none of :data:`_THREAD_COUNT_SYMBOLS`, as
    a BLAS that is not OpenBLAS does not."""
    for name in _THREAD_COUNT_SYMBOLS:
        get = getattr(_LIB, name, None)
        if get is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            return get()
    return None


# the character arguments, as pointers into one buffer that lives as long as
# the module: prepared pointers pass faster than bytes objects
_CHARS = ctypes.create_string_buffer(b"UNCIB")
_U, _N, _C, _I, _B = (ctypes.c_void_p(ctypes.addressof(_CHARS) + k) for k in range(5))


def _at(a: np.ndarray, k: int = 0) -> ctypes.c_void_p:
    """The address of element ``k`` of the flat contiguous array ``a``."""
    return ctypes.c_void_p(a.ctypes.data + k * a.itemsize)


def _check(info, routine: str, failure: str = "did not converge") -> None:
    info = int(info)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of {routine}")
    if info > 0:
        raise np.linalg.LinAlgError(f"{routine} {failure} (LAPACK info={info})")


def rank_k_update(alpha: float, a, beta: float = 0.0, c=None) -> np.ndarray:
    """Upper triangle of alpha a a* + beta c for an (n, k) ``a``: BLAS zherk
    ('U', 'N').

    ``a`` is read as a Fortran-ordered complex128 array, copied to one if it
    is not.  ``c``, a Fortran-ordered complex128 (n, n) array, is updated in
    place and returned; when omitted, a zero one is made.  Only the upper
    triangle is written, and with beta = 0 ``c`` is not read.
    """
    a = np.asfortranarray(a, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError(f"a must be 2-D, got shape {a.shape}")
    n, k = a.shape
    if c is None:
        c = np.zeros((n, n), dtype=np.complex128, order="F")
    elif c.shape != (n, n) or c.dtype != np.complex128 or not c.flags.f_contiguous:
        raise ValueError(f"c must be a Fortran-ordered complex128 ({n}, {n}) array")
    n_, k_, lda = (ctypes.byref(_INT(v)) for v in (n, k, max(n, 1)))
    alpha_, beta_ = (ctypes.byref(ctypes.c_double(v)) for v in (alpha, beta))
    zherk(_U, _N, n_, k_, alpha_, _at(a), lda, beta_, _at(c), n_)
    return c


class UpperCholesky:
    """The upper Cholesky factor U (U* U = G) of a Hermitian positive
    definite G, by LAPACK zpotrf ('U') in place on G's upper triangle; the
    lower triangle is neither read nor written.

    ``g`` must be a Fortran-ordered complex128 (n, n) array, such as
    :func:`rank_k_update` returns; it becomes :attr:`u`.  A non-finite entry
    raises ValueError before the factorization, and a leading minor that is
    not positive definite LinAlgError.
    """

    def __init__(self, g: np.ndarray):
        n = g.shape[0]
        if g.shape != (n, n) or g.dtype != np.complex128 or not g.flags.f_contiguous:
            raise ValueError("the matrix must be a Fortran-ordered complex128 square array")
        if not np.isfinite(g.sum()):
            raise ValueError("the matrix to factor must have finite entries")
        self.u = g
        self.n = n
        # n, lda, incx and info
        self._ints = np.array([n, max(n, 1), 1, 0], dtype=INT)
        zpotrf(_U, _at(self._ints, 0), _at(g), _at(self._ints, 1), _at(self._ints, 3))
        _check(self._ints[3], "potrf", "found a leading minor not positive definite")
        # the ztrsv arguments n, U and lda, between the flags and x; incx
        self._head = (_at(self._ints, 0), _at(g), _at(self._ints, 1))
        self._incx = _at(self._ints, 2)

    def solve_rows(self, x: np.ndarray) -> None:
        """Solve U* U v = row for each row of ``x``, a C-ordered complex128
        (k, n) or (n,) array, in place: two BLAS ztrsv per row, U* w = row
        ('C') then U v = w ('N')."""
        if x.dtype != np.complex128 or not x.flags.c_contiguous or x.shape[-1:] != (self.n,):
            raise ValueError(f"x must be a C-ordered complex128 array of rows of length {self.n}")
        if not x.size:
            return
        head, incx = self._head, self._incx
        # a ctypes view of x's buffer, so each row is a byref offset into it
        # (cheaper than x.ctypes); it also keeps x alive during the calls
        base = ctypes.c_char.from_buffer(x)
        for offset in range(0, x.nbytes, self.n * x.itemsize):
            row = ctypes.byref(base, offset)
            ztrsv(_U, _C, _N, *head, row, incx)
            ztrsv(_U, _N, _N, *head, row, incx)


class TridiagonalTopPair:
    """Stepper over the diagonal ``d`` and off-diagonal ``e`` of a symmetric
    tridiagonal matrix that the caller fills in place: calling it with j
    returns the largest eigenpair (theta, s) of its leading j x j block.

    Bisection (LAPACK ``dstebz``, range 'I', order 'B', abstol 0) finds the
    eigenvalue and inverse iteration (``dstein``) its unit eigenvector, the
    routines and arguments of ``scipy.linalg.eigh_tridiagonal(select="i")``,
    so the pair is the same bits.  Only the first eigenvector is computed:
    ``dstein`` draws each vector's random start in order, so it does not
    depend on later ones.  ``d`` and ``e`` must be contiguous float64 arrays
    of length at least j and j - 1; their entries are not inspected.  ``s``
    is a view of a buffer that the next step overwrites.
    """

    def __init__(self, d: np.ndarray, e: np.ndarray):
        size = d.size
        for name, v, least in (("d", d, 1), ("e", e, size - 1)):
            if v.dtype != np.float64 or not v.flags.c_contiguous or v.size < least:
                raise ValueError(f"{name} must be a contiguous float64 array of length >= {least}")
        self._size = size
        self._keep = (d, e)
        # n (= j), il, iu, m, nsplit, info, ldz and the stein count 1, then
        # iblock, isplit, ifail and 3 size of integer workspace
        ints = self._ints = np.zeros(8 + 6 * size, dtype=INT)
        ints[7] = 1
        # vl, vu, abstol, then w, the eigenvector and 5 size of workspace
        reals = self._reals = np.zeros(3 + 7 * size)
        reals[1] = 1.0
        self._vector = reals[3 + size : 3 + 2 * size]
        iblock, isplit, ifail, iwork = (_at(ints, 8 + k * size) for k in range(4))
        n, il, iu, m, nsplit, info, ldz, one = (_at(ints, k) for k in range(8))
        w, z, work = (_at(reals, 3 + k * size) for k in range(3))
        self._stebz = (_I, _B, n, _at(reals, 0), _at(reals, 1), il, iu, _at(reals, 2),
                       _at(d), _at(e), m, nsplit, w, iblock, isplit, work, iwork, info)
        self._stein = (n, _at(d), _at(e), one, w, iblock, isplit, z, ldz, work, iwork,
                       ifail, info)

    def __call__(self, j: int) -> tuple[float, np.ndarray]:
        if not 1 <= j <= self._size:
            raise ValueError(f"step {j} is outside 1..{self._size}")
        if j == 1:
            return float(self._keep[0][0]), np.ones(1)
        ints = self._ints
        ints[0] = ints[1] = ints[2] = ints[6] = j
        dstebz(*self._stebz)
        _check(ints[5], "stebz")
        dstein(*self._stein)
        _check(ints[5], "stein")
        return float(self._reals[3]), self._vector[:j]
