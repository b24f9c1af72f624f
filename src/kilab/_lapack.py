"""The eight LAPACK/BLAS routines kilab calls, bound on numpy's own OpenBLAS.

Importing scipy.linalg for them costs over 200 ms and maps a second OpenBLAS
library beside numpy's, so when the OpenBLAS that numpy links exports its
ILP64 LAPACKE/CBLAS symbols (numpy >= 2 wheels) they are called through
ctypes on the library already loaded. When any symbol is missing (an older
wheel, an MKL or Accelerate build) they are adapters over scipy.linalg,
which copy any operand that is not a contiguous array.

Each has one call shape, on 2-D views (kilab.estimator passes tiles of its
packed storage of K): every operand is a column-major matrix whose leading
dimension is its column stride, or the transpose of one, and each routine
picks the flags that make the transpose mean what the view means. symm and
gemm accumulate c += a @ b, symm with c column-major and gemm with a
transposed c as c^T += b^T a^T; syrk adds a^T a to c's upper triangle; gemm
and syrk take a scale of the product, so -1 subtracts it. potrf, trtri and
lauum overwrite the lower triangle of a square view with, in turn, its
Cholesky factor L, the inverse of a lower-triangular L and L^T L; symm reads
only a's lower triangle, and trsm (b := scale L^-1 b, or scale L^-T b with
transpose) and trmm (b := b L) read a lower-triangular L from it. The lower
triangle of a transposed view is its base's upper one, so a transposed view
is passed with UPLO = 'U'. The LAPACKE `_work` variants skip the plain ones'
O(n^2) NaN scan, which scipy's wrappers do not make either. Every array's
dtype, layout, shape and writeability is checked before its pointer reaches
the library, which would otherwise read or write out of bounds silently.
"""

from __future__ import annotations

import ctypes

import numpy as np
import numpy.linalg._umath_linalg

_COL_MAJOR = 102                  # LAPACK_COL_MAJOR, CblasColMajor
_NO_TRANS, _TRANS = 111, 112
_UPPER, _LOWER = 121, 122
_LEFT, _RIGHT = 141, 142
_NON_UNIT = 131
_SYMBOLS = ("scipy_cblas_dsymm64_", "scipy_cblas_dgemm64_", "scipy_cblas_dsyrk64_",
            "scipy_LAPACKE_dpotrf_work64_", "scipy_LAPACKE_dtrtri_work64_",
            "scipy_LAPACKE_dlauum_work64_", "scipy_cblas_dtrsm64_",
            "scipy_cblas_dtrmm64_")
_F64 = np.dtype(np.float64)


def _array(a: np.ndarray, ndim: int, written: bool) -> None:
    if not isinstance(a, np.ndarray) or a.dtype is not _F64 and a.dtype != _F64:
        raise ValueError(f"need a float64 ndarray, got {getattr(a, 'dtype', type(a))}")
    if a.ndim != ndim:
        raise ValueError(f"need a {ndim}-D array, got shape {a.shape}")
    if written and not a.flags.writeable:
        raise ValueError("the array is read-only")


def _operand(a: np.ndarray, written: bool = False) -> tuple[bool, int]:
    """(transposed, ld) of a 2-D float64 view: a column-major matrix with
    leading dimension ld, or (transposed) the transpose of one. A single row
    or column counts as column-major."""
    _array(a, 2, written)
    (rows, cols), (s0, s1) = a.shape, a.strides
    if s0 == 8 and cols > 1 and s1 >= 8 * rows and not s1 % 8:    # the common case
        return False, s1 >> 3
    if (s0 == 8 or rows <= 1) and (cols <= 1 or (s1 >= 8 * rows and not s1 % 8)):
        return False, max(s1 >> 3 if cols > 1 else rows, 1)
    if s1 == 8 and rows > 1 and s0 >= 8 * cols and not s0 % 8:
        return True, s0 >> 3
    raise ValueError(f"need a column-major matrix or its transpose, got strides {a.strides}")


def _gemm_dims(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> tuple:
    """(a transposed, lda, b transposed, ldb, ldc, m, n, k) of
    c (m x n) += a (m x k) @ b (k x n), with c column-major and writeable."""
    trans_a, lda = _operand(a)
    trans_b, ldb = _operand(b)
    trans_c, ldc = _operand(c, written=True)
    (m, k), n = a.shape, c.shape[1]
    if trans_c:
        raise ValueError("need c column-major")
    if b.shape != (k, n) or c.shape[0] != m:
        raise ValueError(f"incompatible dimensions ({a.shape} @ {b.shape} into {c.shape})")
    return trans_a, lda, trans_b, ldb, ldc, m, n, k


def _symm_dims(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> tuple:
    """(a transposed, lda, ldb, ldc, m, n) of c (m x n) += a (m x m) @ b, with
    b and c column-major and c writeable."""
    trans_a, lda, trans_b, ldb, ldc, m, n, k = _gemm_dims(a, b, c)
    if trans_b or k != m:
        raise ValueError(f"symm needs a square a and a column-major b, got {a.shape}")
    return trans_a, lda, ldb, ldc, m, n


def _syrk_dims(a: np.ndarray, c: np.ndarray) -> tuple:
    """(a transposed, lda, c transposed, ldc, n, k) of c (n x n) += a^T a
    with a k x n and c writeable."""
    trans_c, _ = _operand(c, written=True)
    _, _, trans_a, lda, ldc, n, _, k = _gemm_dims(a.T, a, c.T if trans_c else c)
    return trans_a, lda, trans_c, ldc, n, k


def _square(a: np.ndarray, written: bool) -> tuple[bool, int, int]:
    """(transposed, lda, n) of a square n x n view."""
    trans, lda = _operand(a, written)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"need a square matrix, got {a.shape}")
    return trans, lda, a.shape[0]


def _triangular_dims(a: np.ndarray, b: np.ndarray, axis: int) -> tuple:
    """(a transposed, lda, b transposed, ldb, m, n) of a square a read and a
    writeable b whose dimension `axis` matches a's order, with (m, n) b's
    shape as the library sees it: its transpose's when b is transposed."""
    trans_a, lda, order = _square(a, written=False)
    trans_b, ldb = _operand(b, written=True)
    if b.shape[axis] != order:
        raise ValueError(f"incompatible dimensions ({a.shape} and {b.shape})")
    m, n = b.shape[::-1] if trans_b else b.shape
    return trans_a, lda, trans_b, ldb, m, n


def _pointer_reader():
    """A function from an ndarray to its data address, as a ctypes pointer.
    numpy's C struct PyArrayObject_fields starts with PyObject_HEAD and then
    the data pointer, so on CPython the pointer is read from the array
    object itself in a fraction of the time of `a.ctypes.data`, which builds
    a helper object per call. A probe array confirms the layout, else
    `a.ctypes.data` is used."""
    at = ctypes.c_void_p.from_address
    offset = object.__basicsize__

    def read(a: np.ndarray) -> ctypes.c_void_p:
        return at(id(a) + offset)

    probe = np.zeros((4, 3))[1:, 1:]
    return read if read(probe).value == probe.ctypes.data else (lambda a: a.ctypes.data)


_data = _pointer_reader()


def _scipy_adapters() -> tuple:
    """The routines of bind over scipy.linalg, with kilab's flags and checks."""
    from scipy.linalg.blas import dgemm, dsymm, dsyrk, dtrmm, dtrsm
    from scipy.linalg.lapack import dlauum, dpotrf, dtrtri

    # f2py copies strided views, with the values the view shows, so each
    # routine works on the view's own lower triangle and the result is
    # written back into the view; the triangle a routine leaves alone comes
    # back unchanged (dpotrf's clean=0 keeps it)
    def symm(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> None:
        _symm_dims(a, b, c)
        c[...] = dsymm(1.0, a, b, beta=1.0, c=c, lower=1)

    def gemm(a: np.ndarray, b: np.ndarray, c: np.ndarray, scale: float = 1.0) -> None:
        if c.strides[0] > c.strides[1]:    # a transposed c: c^T += b^T a^T
            a, b, c = b.T, a.T, c.T
        _gemm_dims(a, b, c)
        c[...] = dgemm(scale, a, b, beta=1.0, c=c)

    def syrk(a: np.ndarray, c: np.ndarray, scale: float = 1.0) -> None:
        _syrk_dims(a, c)
        c[...] = dsyrk(scale, a, beta=1.0, c=c, trans=1, lower=0)

    def potrf(a: np.ndarray) -> int:
        _square(a, written=True)
        a[...], info = dpotrf(a, lower=1, clean=0)
        return int(info)

    def trtri(a: np.ndarray) -> int:
        _square(a, written=True)
        a[...], info = dtrtri(a, lower=1)
        return int(info)

    def lauum(a: np.ndarray) -> int:
        _square(a, written=True)
        a[...], info = dlauum(a, lower=1)
        return int(info)

    def trsm(a: np.ndarray, b: np.ndarray, scale: float = 1.0, transpose: bool = False) -> None:
        _triangular_dims(a, b, 0)
        b[...] = dtrsm(scale, a, b, trans_a=int(transpose), lower=1)

    def trmm(a: np.ndarray, b: np.ndarray) -> None:
        _triangular_dims(a, b, 1)
        b[...] = dtrmm(1.0, a, b, side=1, lower=1)

    return symm, gemm, syrk, potrf, trtri, lauum, trsm, trmm


def bind(lib) -> tuple:
    """(symm, gemm, syrk, potrf, trtri, lauum, trsm, trmm) on lib's ILP64
    LAPACKE/CBLAS symbols, or adapters over scipy.linalg when lib lacks any
    of them."""
    try:
        (lib_symm, lib_gemm, lib_syrk, lib_potrf, lib_trtri, lib_lauum, lib_trsm,
         lib_trmm) = (getattr(lib, name) for name in _SYMBOLS)
    except AttributeError:
        return _scipy_adapters()

    i64, ptr, char, dbl, enum = (ctypes.c_int64, ctypes.c_void_p, ctypes.c_char,
                                 ctypes.c_double, ctypes.c_int)
    for f in (lib_potrf, lib_lauum):
        f.argtypes = [enum, char, i64, ptr, i64]
        f.restype = i64
    lib_trtri.argtypes = [enum, char, char, i64, ptr, i64]
    lib_trtri.restype = i64
    lib_symm.argtypes = [enum, enum, enum, i64, i64, dbl, ptr, i64, ptr, i64, dbl, ptr, i64]
    lib_symm.restype = None
    lib_gemm.argtypes = [enum, enum, enum, i64, i64, i64, dbl, ptr, i64, ptr, i64,
                         dbl, ptr, i64]
    lib_gemm.restype = None
    lib_syrk.argtypes = [enum, enum, enum, i64, i64, dbl, ptr, i64, dbl, ptr, i64]
    lib_syrk.restype = None
    for f in (lib_trsm, lib_trmm):
        f.argtypes = [enum, enum, enum, enum, enum, i64, i64, dbl, ptr, i64, ptr, i64]
        f.restype = None

    def symm(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> None:
        """c += A @ b in place, for the symmetric A held in a's lower
        triangle."""
        trans_a, lda, ldb, ldc, m, n = _symm_dims(a, b, c)
        # the lower triangle of a transposed view is its base's upper one
        lib_symm(_COL_MAJOR, _LEFT, _UPPER if trans_a else _LOWER, m, n, 1.0,
                 _data(a), lda, _data(b), ldb, 1.0, _data(c), ldc)

    def gemm(a: np.ndarray, b: np.ndarray, c: np.ndarray, scale: float = 1.0) -> None:
        """c += scale a @ b in place; a transposed c gets c^T += scale b^T a^T,
        so the library writes column-major."""
        if c.strides[0] > c.strides[1]:
            a, b, c = b.T, a.T, c.T
        trans_a, lda, trans_b, ldb, ldc, m, n, k = _gemm_dims(a, b, c)
        lib_gemm(_COL_MAJOR, _TRANS if trans_a else _NO_TRANS,
                 _TRANS if trans_b else _NO_TRANS, m, n, k, scale,
                 _data(a), lda, _data(b), ldb, 1.0, _data(c), ldc)

    def syrk(a: np.ndarray, c: np.ndarray, scale: float = 1.0) -> None:
        """c += scale a^T a in place, on c's upper triangle only."""
        trans_a, lda, trans_c, ldc, n, k = _syrk_dims(a, c)
        # a transposed view is the transpose of a column-major n x k matrix,
        # and the upper triangle of a transposed c its base's lower one
        lib_syrk(_COL_MAJOR, _LOWER if trans_c else _UPPER, _NO_TRANS if trans_a else _TRANS,
                 n, k, scale, _data(a), lda, 1.0, _data(c), ldc)

    # the lower triangle of a transposed view is its base's upper one
    def potrf(a: np.ndarray) -> int:
        """Cholesky factor L of the symmetric matrix in a's lower triangle,
        written there. Returns LAPACK's info."""
        trans, lda, n = _square(a, written=True)
        return int(lib_potrf(_COL_MAJOR, b"U" if trans else b"L", n, _data(a), lda))

    def trtri(a: np.ndarray) -> int:
        """L^-1 of the lower-triangular L in a's lower triangle, written
        there. Returns LAPACK's info."""
        trans, lda, n = _square(a, written=True)
        return int(lib_trtri(_COL_MAJOR, b"U" if trans else b"L", b"N", n, _data(a), lda))

    def lauum(a: np.ndarray) -> int:
        """L^T L of the lower-triangular L in a's lower triangle, written
        there. Returns LAPACK's info."""
        trans, lda, n = _square(a, written=True)
        return int(lib_lauum(_COL_MAJOR, b"U" if trans else b"L", n, _data(a), lda))

    def trsm(a: np.ndarray, b: np.ndarray, scale: float = 1.0, transpose: bool = False) -> None:
        """b := scale L^-1 b in place, or scale L^-T b with transpose, for
        the lower-triangular L in a's lower triangle."""
        trans_a, lda, trans_b, ldb, m, n = _triangular_dims(a, b, 0)
        # a transposed b is solved from the right, b^T := scale b^T L^-T; a
        # transposed a holds L^T in its base's upper triangle; each flips
        # the transpose the library applies
        lib_trsm(_COL_MAJOR, _RIGHT if trans_b else _LEFT, _UPPER if trans_a else _LOWER,
                 _TRANS if trans_a ^ trans_b ^ transpose else _NO_TRANS, _NON_UNIT, m, n, scale,
                 _data(a), lda, _data(b), ldb)

    def trmm(a: np.ndarray, b: np.ndarray) -> None:
        """b := b L in place, for the lower-triangular L in a's lower
        triangle."""
        trans_a, lda, trans_b, ldb, m, n = _triangular_dims(a, b, 1)
        # a transposed b is multiplied from the left, b^T := L^T b^T
        lib_trmm(_COL_MAJOR, _LEFT if trans_b else _RIGHT, _UPPER if trans_a else _LOWER,
                 _TRANS if trans_a != trans_b else _NO_TRANS, _NON_UNIT, m, n, 1.0,
                 _data(a), lda, _data(b), ldb)

    return symm, gemm, syrk, potrf, trtri, lauum, trsm, trmm


# dlsym on the linalg extension resolves through its dependencies, which
# hold the OpenBLAS numpy itself calls
symm, gemm, syrk, potrf, trtri, lauum, trsm, trmm = bind(
    ctypes.CDLL(numpy.linalg._umath_linalg.__file__))
