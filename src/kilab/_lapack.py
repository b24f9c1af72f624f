"""The four LAPACK/BLAS routines a fit calls, bound on numpy's own OpenBLAS.

fit needs only dpotrf, dpotri, cho_solve (dpotrs) and dsymv, under
scipy.linalg's names and call shapes. Importing scipy.linalg for them costs
over 200 ms and maps a second OpenBLAS library beside numpy's, so when the
OpenBLAS that numpy links exports its ILP64 LAPACKE/CBLAS symbols (numpy >= 2
wheels) they are called through ctypes on the library already loaded. When
any symbol is missing (an older wheel, an MKL or Accelerate build) the same
four names come from scipy.linalg instead.

The LAPACKE `_work` variants are used: the plain ones scan the whole matrix
for NaN first, an O(n^2) pass scipy's wrappers do not make. Every matrix is
passed column-major, so a routine works on a Fortran-order view such as K.T
in place. Only the in-place forms fit uses are bound, and every array's
dtype, layout, shape and writeability is checked before its pointer reaches
the library, which would otherwise read or write out of bounds silently.
"""

from __future__ import annotations

import ctypes

import numpy as np
import numpy.linalg._umath_linalg

_COL_MAJOR = 102                  # LAPACK_COL_MAJOR, CblasColMajor
_CBLAS_UPPER, _CBLAS_LOWER = 121, 122
_SYMBOLS = ("scipy_LAPACKE_dpotrf_work64_", "scipy_LAPACKE_dpotri_work64_",
            "scipy_LAPACKE_dpotrs_work64_", "scipy_cblas_dsymv64_")


def _address(a: np.ndarray) -> int:
    """Address of the first element of a contiguous array. ctypes reads it
    from a writeable C-contiguous buffer (a.T for a Fortran-order a) in under
    half the time a.ctypes.data takes; a fit takes about 20 addresses."""
    if a.flags.writeable and a.size:
        return ctypes.addressof(ctypes.c_char.from_buffer(a.T))
    return a.ctypes.data


def _matrix(a: np.ndarray, written: bool) -> int:
    """Order of a square, Fortran-contiguous float64 array, writeable when
    the routine writes to it."""
    if not isinstance(a, np.ndarray) or a.dtype != np.float64:
        raise ValueError(f"need a float64 ndarray, got {getattr(a, 'dtype', type(a))}")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"need a square matrix, got shape {a.shape}")
    if not a.flags.f_contiguous:
        raise ValueError("need a Fortran-contiguous matrix")
    if written and not a.flags.writeable:
        raise ValueError("the matrix is read-only")
    return a.shape[0]


def bind(lib) -> tuple:
    """(dpotrf, dpotri, cho_solve, dsymv) on lib's ILP64 LAPACKE/CBLAS
    symbols, or scipy.linalg's four when lib lacks any of them."""
    try:
        potrf, potri, potrs, symv = (getattr(lib, name) for name in _SYMBOLS)
    except AttributeError:
        from scipy.linalg import cho_solve
        from scipy.linalg.blas import dsymv
        from scipy.linalg.lapack import dpotrf, dpotri
        return dpotrf, dpotri, cho_solve, dsymv

    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    for f in (potrf, potri):
        f.argtypes = [ctypes.c_int, ctypes.c_char, i64, ptr, i64]
        f.restype = i64
    potrs.argtypes = [ctypes.c_int, ctypes.c_char, i64, i64, ptr, i64, ptr, i64]
    potrs.restype = i64
    symv.argtypes = [ctypes.c_int, ctypes.c_int, i64, ctypes.c_double, ptr, i64,
                     ptr, i64, ctypes.c_double, ptr, i64]
    symv.restype = None

    def uplo(lower) -> bytes:
        return b"L" if lower else b"U"

    def dpotrf(a, lower, clean, overwrite_a):
        """Cholesky factor of a's `lower` triangle, in place; the other
        triangle is left as it was (clean=0). Returns (a, info)."""
        if clean or not overwrite_a:
            raise ValueError("only the in-place form (clean=0, overwrite_a=1) is bound")
        n = _matrix(a, written=True)
        return a, int(potrf(_COL_MAJOR, uplo(lower), n, _address(a), max(n, 1)))

    def dpotri(c, lower, overwrite_c):
        """Triangle `lower` of K^-1 over the factor c, in place. Returns (c, info)."""
        if not overwrite_c:
            raise ValueError("only the in-place form (overwrite_c=1) is bound")
        n = _matrix(c, written=True)
        return c, int(potri(_COL_MAJOR, uplo(lower), n, _address(c), max(n, 1)))

    def cho_solve(c_and_lower, b, check_finite=True):
        """x with K x = b, from the factor c of K (a new array)."""
        c, lower = c_and_lower
        n = _matrix(c, written=False)
        if check_finite:
            for array in (c, b):
                np.asarray_chkfinite(array)
        x = np.array(b, dtype=np.float64, order="F")
        if x.ndim not in (1, 2) or x.shape[0] != n:
            raise ValueError(f"incompatible dimensions ({c.shape} and {x.shape})")
        nrhs = 1 if x.ndim == 1 else x.shape[1]
        info = potrs(_COL_MAJOR, uplo(lower), n, nrhs, _address(c), max(n, 1),
                     _address(x), max(n, 1))
        if info != 0:
            raise ValueError(f"illegal value in {-info}th argument of internal potrs")
        return x

    def dsymv(alpha, a, x, lower=0):
        """alpha A x for the symmetric A stored in a's `lower` triangle (the
        upper one by default, as in scipy)."""
        n = _matrix(a, written=False)
        x = np.ascontiguousarray(x, dtype=np.float64)
        if x.shape != (n,):
            raise ValueError(f"need a vector of length {n}, got shape {x.shape}")
        y = np.zeros(n)
        symv(_COL_MAJOR, _CBLAS_LOWER if lower else _CBLAS_UPPER, n, alpha,
             _address(a), max(n, 1), _address(x), 1, 0.0, _address(y), 1)
        return y

    return dpotrf, dpotri, cho_solve, dsymv


# dlsym on the linalg extension resolves through its dependencies, which
# hold the OpenBLAS numpy itself calls
dpotrf, dpotri, cho_solve, dsymv = bind(ctypes.CDLL(numpy.linalg._umath_linalg.__file__))
