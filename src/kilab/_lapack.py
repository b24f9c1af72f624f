"""The five LAPACK/BLAS routines kilab calls, bound on numpy's own OpenBLAS.

Importing scipy.linalg for them costs over 200 ms and maps a second OpenBLAS
library beside numpy's, so when the OpenBLAS that numpy links exports its
ILP64 LAPACKE/CBLAS symbols (numpy >= 2 wheels) they are called through
ctypes on the library already loaded. When any symbol is missing (an older
wheel, an MKL or Accelerate build) they are adapters over scipy.linalg.

Each has one call shape on Fortran-order matrices such as the view K.T:
potrf and potri write its lower triangle in place and leave the strict
upper one, from which symv reads K, as it was; gemm accumulates c += a @ b,
which the Monte Carlo check runs on column blocks of K^-1. The LAPACKE
`_work` variants skip the plain ones' O(n^2) NaN scan, which scipy's
wrappers do not make either. Every array's dtype, layout, shape and
writeability is checked before its pointer reaches the library, which would
otherwise read or write out of bounds silently.
"""

from __future__ import annotations

import ctypes

import numpy as np
import numpy.linalg._umath_linalg

_COL_MAJOR = 102                  # LAPACK_COL_MAJOR, CblasColMajor
_CBLAS_UPPER = 121
_CBLAS_NO_TRANS = 111
_SYMBOLS = ("scipy_LAPACKE_dpotrf_work64_", "scipy_LAPACKE_dpotri_work64_",
            "scipy_LAPACKE_dpotrs_work64_", "scipy_cblas_dsymv64_",
            "scipy_cblas_dgemm64_")


def _matrix(a: np.ndarray, written: bool, square: bool = True) -> int:
    """Leading dimension of a square (or, with square=False, any 2-D),
    Fortran-contiguous float64 array, writeable when the routine writes
    to it."""
    if not isinstance(a, np.ndarray) or a.dtype != np.float64:
        raise ValueError(f"need a float64 ndarray, got {getattr(a, 'dtype', type(a))}")
    if a.ndim != 2 or (square and a.shape[0] != a.shape[1]):
        raise ValueError(f"need a {'square ' if square else ''}matrix, got shape {a.shape}")
    if not a.flags.f_contiguous:
        raise ValueError("need a Fortran-contiguous matrix")
    if written and not a.flags.writeable:
        raise ValueError("the matrix is read-only")
    return a.shape[0]


def _gemm_dims(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> tuple[int, int, int]:
    """(m, n, k) of c (m x n) += a (m x k) @ b (k x n), all three checked
    as _matrix checks them, c writeable."""
    m, k = _matrix(a, written=False, square=False), a.shape[1]
    _matrix(b, written=False, square=False)
    _matrix(c, written=True, square=False)
    if b.shape[0] != k or c.shape != (m, b.shape[1]):
        raise ValueError(f"incompatible dimensions ({a.shape} @ {b.shape} into {c.shape})")
    return m, b.shape[1], k


def _scipy_adapters() -> tuple:
    """potrf, potri, potrs, symv and gemm over scipy.linalg, with kilab's
    flags."""
    from scipy.linalg import cho_solve
    from scipy.linalg.blas import dgemm, dsymv
    from scipy.linalg.lapack import dpotrf, dpotri

    # f2py writes a matrix _matrix accepts in place, so the array it returns
    # is the argument itself
    def potrf(a: np.ndarray) -> int:
        _matrix(a, written=True)
        return dpotrf(a, lower=1, clean=0, overwrite_a=1)[1]

    def potri(c: np.ndarray) -> int:
        _matrix(c, written=True)
        return dpotri(c, lower=1, overwrite_c=1)[1]

    def gemm(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> None:
        _gemm_dims(a, b, c)
        dgemm(1.0, a, b, beta=1.0, c=c, overwrite_c=1)

    return (potrf, potri, lambda c, b: cho_solve((c, True), b, check_finite=False),
            lambda a, x: dsymv(1.0, a, x), gemm)


def bind(lib) -> tuple:
    """(potrf, potri, potrs, symv, gemm) on lib's ILP64 LAPACKE/CBLAS
    symbols, or adapters over scipy.linalg when lib lacks any of them."""
    try:
        lib_potrf, lib_potri, lib_potrs, lib_symv, lib_gemm = (
            getattr(lib, name) for name in _SYMBOLS)
    except AttributeError:
        return _scipy_adapters()

    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    for f in (lib_potrf, lib_potri):
        f.argtypes = [ctypes.c_int, ctypes.c_char, i64, ptr, i64]
        f.restype = i64
    lib_potrs.argtypes = [ctypes.c_int, ctypes.c_char, i64, i64, ptr, i64, ptr, i64]
    lib_potrs.restype = i64
    lib_symv.argtypes = [ctypes.c_int, ctypes.c_int, i64, ctypes.c_double, ptr, i64,
                         ptr, i64, ctypes.c_double, ptr, i64]
    lib_symv.restype = None
    lib_gemm.argtypes = [ctypes.c_int, ctypes.c_int, ctypes.c_int, i64, i64, i64,
                         ctypes.c_double, ptr, i64, ptr, i64, ctypes.c_double, ptr, i64]
    lib_gemm.restype = None

    def potrf(a: np.ndarray) -> int:
        """Cholesky factor of a's lower triangle, in place; the strict upper
        triangle is left as it was. Returns LAPACK's info."""
        n = _matrix(a, written=True)
        return int(lib_potrf(_COL_MAJOR, b"L", n, a.ctypes.data, max(n, 1)))

    def potri(c: np.ndarray) -> int:
        """Lower triangle of K^-1 over K's lower factor c, in place. Returns
        LAPACK's info."""
        n = _matrix(c, written=True)
        return int(lib_potri(_COL_MAJOR, b"L", n, c.ctypes.data, max(n, 1)))

    def potrs(c: np.ndarray, b: np.ndarray) -> np.ndarray:
        """x with K x = b, from K's lower factor c (a new array)."""
        n = _matrix(c, written=False)
        x = np.array(b, dtype=np.float64, order="F")
        if x.ndim not in (1, 2) or x.shape[0] != n:
            raise ValueError(f"incompatible dimensions ({c.shape} and {x.shape})")
        nrhs = 1 if x.ndim == 1 else x.shape[1]
        info = lib_potrs(_COL_MAJOR, b"L", n, nrhs, c.ctypes.data, max(n, 1),
                         x.ctypes.data, max(n, 1))
        if info != 0:
            raise ValueError(f"illegal value in {-info}th argument of internal potrs")
        return x

    def symv(a: np.ndarray, x: np.ndarray) -> np.ndarray:
        """A x for the symmetric A stored in a's upper triangle."""
        n = _matrix(a, written=False)
        x = np.ascontiguousarray(x, dtype=np.float64)
        if x.shape != (n,):
            raise ValueError(f"need a vector of length {n}, got shape {x.shape}")
        y = np.zeros(n)
        lib_symv(_COL_MAJOR, _CBLAS_UPPER, n, 1.0, a.ctypes.data, max(n, 1),
                 x.ctypes.data, 1, 0.0, y.ctypes.data, 1)
        return y

    def gemm(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> None:
        """c += a @ b in place."""
        m, n, k = _gemm_dims(a, b, c)
        lib_gemm(_COL_MAJOR, _CBLAS_NO_TRANS, _CBLAS_NO_TRANS, m, n, k, 1.0,
                 a.ctypes.data, max(m, 1), b.ctypes.data, max(k, 1), 1.0,
                 c.ctypes.data, max(m, 1))

    return potrf, potri, potrs, symv, gemm


# dlsym on the linalg extension resolves through its dependencies, which
# hold the OpenBLAS numpy itself calls
potrf, potri, potrs, symv, gemm = bind(ctypes.CDLL(numpy.linalg._umath_linalg.__file__))
