"""Minimum-norm interpolation fits and exact error oracles.

The estimator is the minimum-norm interpolant f_hat(x) = k(x, X) K^-1 Y.
Because both the kernel and the target are zonal, the bias and variance
of the fitted function are exact finite-dimensional
expressions in the n x n Gram matrix G. With M = sum_k mu_k^2 N_k P_k(G)
the variance is sigma^2 * tr(K^-1 M K^-1) = sigma^2 * <K^-2, M>, which
splits into one nonnegative term per degree,

  var_k = sigma^2 mu_k^2 N_k <K^-2, P_k(G)>,

and the degree-k component of the bias

  ||E f_hat - f*||^2 restricted to degree k
      = mu_k^2 N_k a^T P_k(G) a - 2 mu_k beta_k sqrt(N_k) a^T p_k(w)
        + beta_k^2,

where a = K^-1 f*(X) and p_k(w)_i = P_kd(<x_i, w>). Monte Carlo versions
of both quantities serve as independent cross-checks, never as truth.

fit holds one array of n (n + 1) / 2 doubles: K in LAPACK's rectangular
full packed (RFP) storage (TRANSR = 'N', UPLO = 'L'), then K's Cholesky
factor over it, then K^-1 over the factor when sigma^2 > 0; with
sigma^2 = 0 it is freed on return. With n1 = n - n // 2 the array is an
lda x n1 column-major matrix (lda = n + 1 for even n, n for odd) that holds
three blocks of K: K[:n1, :n1] by its lower triangle, K[n1:, :n1] in full
and K[n1:, n1:] by its lower triangle transposed (_rfp_blocks). K is packed
from Phi of the G blocks the degree pass walks (_gram_blocks by the row
panels of _tiles), so the K that is factored is Phi of the G the degree
pass reads, bit for bit. fit makes one solve for the columns [Y, f*(X)],
or for Y alone when the dataset's y is its clean array, as make_dataset
gives at sigma^2 = 0: then alpha is alpha_clean. The residual takes
k(X, X) x through _cross_products, the loop predict runs, so a column's
residual is its labels minus predict on the training points, bit for bit;
a column whose residual misses RESIDUAL_TOL gets one refinement sweep. All
of it runs on numpy's own OpenBLAS through kilab._lapack: pftrs solves
over the whole array, and the other routines work on views of the three
blocks where they lie. The factor and the
inverse are tiled over _tiles(n) (_cholesky, _invert: potrf, trsm, syrk
and gemm, then trmm, trsm, trtri, lauum, gemm and syrk on tiles), so no
call writes more than one tile of columns and OpenBLAS's workspace stays
one tile wide instead of growing with n; with one tile per half this is
the order of LAPACK's own RFP Cholesky (pftrf).
scipy.linalg is imported only by the lambda_min and concentration
diagnostics. One O(k_max n^2) recurrence pass over G's lower
triangle (FittedInterpolant.degree_sums) yields <S, P_k(G)> for the
variance and a^T P_k(G) a for the bias.

One rule cuts [0, n) into tiles of at most PANEL_ROWS indices (_tiles):
the row panels of the blocks fit packs and the degree pass walks, the
tiles of the factor and the inverse, the column blocks of the cross-kernel
and the inner index of S's products.
Beside the RFP array and the points a cell holds one panel of at most
PANEL_ROWS x n doubles: S = K^-1 K^-T by row panels in the degree pass, or
K^-1 k(X, x) for a panel of test points in the Monte Carlo check, which
accumulates over the tiles of K^-1's columns. The degree pass also holds
one tile square of K^-1, at most PANEL_ROWS^2 doubles, unpacked to
multiply by; the Monte Carlo check draws its test points one panel at a
time (seeding.sphere_panels). stage_doubles counts what each stage holds,
and cell_bytes, the points, the RFP array and the largest stage, is the
count kilab.harness.run_sweep checks before a sweep starts. G is rebuilt
from the points in cache-sized blocks (_gram_blocks), which fit packs and
the degree pass reads, and the cross-kernel k(x, X) by the tiles of X in
one loop (_cross_products) that fit's residual, predict and the Monte Carlo
check share; each is built in one reused buffer, clipped into [-1, 1] as
it is built, so Phi and the recurrence take it with no second range scan
(eval_phi_clipped, ZonalBasis.iter_clipped_values).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

from ._lapack import gemm, lauum, pftrs, potrf, symm, syrk, trmm, trsm, trtri
from .errors import NumericalError, UsageError
from .seeding import SeedPath, SpherePoints, sphere_panels
from .spectrum import Spectrum, assemble_kernel_matrix, eval_phi_clipped, tail_sums
from .target import Dataset, Target, eval_target_along_axis
from .zonal import BLOCK_DOUBLES, ZonalBasis, multiplicities, zonal_series

RESIDUAL_TOL = 1e-10
# the widest tile (_tiles) and the most test points per panel in the Monte
# Carlo check, so a panel of S = K^-1 K^-T or of K^-1 k(X, x) holds at most
# PANEL_ROWS x n doubles and a cross-kernel block PANEL_ROWS^2 (648 KiB,
# inside a 1 MiB L2 cache); a multiple of 24 keeps full test-point panels on
# OpenBLAS's AVX-512 dgemm packing boundaries
PANEL_ROWS = 288
# _LOWER[:h, :h] masks the lower triangle, diagonal included, of a diagonal
# square of a G block or an S panel, which is at most PANEL_ROWS wide
_LOWER = np.tri(PANEL_ROWS, dtype=bool)


def _tiles(n: int) -> list[tuple[int, int]]:
    """Consecutive [t0, t1) covering [0, n), each at most PANEL_ROWS wide:
    each half of K's RFP storage, [0, n - n // 2) and [n - n // 2, n), cut
    into the fewest tiles, whose widths differ by at most one. No tile
    straddles the halves, so every tile block of K is one view of its RFP
    blocks (_block); and none is thin (at n = 2025, 2 BLAS threads, a
    149-wide last tile per half made the Monte Carlo check 3-5 % slower
    than tiles of 253 in most runs)."""
    n1, cuts = n - n // 2, []
    for h0, h1 in ((0, n1), (n1, n)):
        count = -(-(h1 - h0) // PANEL_ROWS)
        cuts += [h0 + (h1 - h0) * i // count for i in range(count)]
    return list(zip(cuts, cuts[1:] + [n]))


def _widest(tiles: list[tuple[int, int]]) -> int:
    return max((t1 - t0 for t0, t1 in tiles), default=0)


def stage_doubles(n: int, d: int, m: int, sigma2: float) -> dict[str, int]:
    """The doubles each stage of a cell of n points on S^d holds at its peak
    beyond the points and the RFP array, with m Monte Carlo test points (0
    for none), each stage with the n-long columns the cell keeps (y, f*(X),
    the dual weights): upper bounds, which tests/test_harness.py holds to
    tracemalloc peaks of whole cells. "fit": its residual's cross-kernel
    block of up to PANEL_ROWS x the widest tile (_cross_products), two
    cache blocks (K's block while it is packed, and Horner's copy of one
    row block for a kernel without a closed form) and the solve's columns.
    "degree_pass": the S panel, the K^-1 tile and S's block (sigma^2 > 0
    only), and six blocks (G's, a a^T's, the recurrence's three, the
    masks). "mc": the panel of up to PANEL_ROWS test points, the
    K^-1 k(X, x) panel, the cross-kernel block, five m-long arrays
    (k(x, X) a, <x, w>, the norms, then f* and a difference of two) and
    five blocks (the sampler's, then f*'s recurrence)."""
    w, b, h = _widest(_tiles(n)), min(BLOCK_DOUBLES, n * n), min(PANEL_ROWS, m)
    return {"fit": min(PANEL_ROWS, n) * w + 2 * b + 12 * n,
            "degree_pass": (w * (n + w) + b if sigma2 > 0 else 0) + 6 * b + 8 * n,
            "mc": h * (d + 1 + n + w) + 5 * (m + max(BLOCK_DOUBLES, d + 1)) + 4 * n}


def cell_bytes(n: int, d: int, m: int, sigma2: float) -> int:
    """The bytes a cell holds at its peak: its n x (d + 1) points, its RFP
    array of n (n + 1) / 2 doubles and its largest stage (stage_doubles)."""
    return 8 * (n * (d + 1) + n * (n + 1) // 2 + max(stage_doubles(n, d, m, sigma2).values()))


@dataclass(frozen=True)
class FittedInterpolant:
    """Dual weights for Y and f*(X) (one array when y is clean), K^-1 if sigma^2 > 0."""

    dataset: Dataset
    spectrum: Spectrum
    alpha: np.ndarray          # K^-1 Y
    alpha_clean: np.ndarray    # K^-1 f*(X)
    # K^-1 in RFP storage, n (n + 1) / 2 doubles (see the module docstring);
    # None when sigma^2 = 0
    K_inv: np.ndarray | None

    @property
    def n(self) -> int:
        return self.dataset.n

    @cached_property
    def degree_sums(self) -> tuple[np.ndarray, np.ndarray]:
        """(<S, P_k(G)>, a^T P_k(G) a) for k = 0..k_max from one recurrence
        pass over the lower triangle of G, with S = K^-1 K^-T and
        a = alpha_clean.

        Block [r0, r1) x [0, r1) of G is rebuilt from the points
        (_gram_blocks): its columns [0, r0) stand for both triangles and get
        weight 2 (an exact doubling), its diagonal square weight 1. Each
        P_k block is reduced against the probes, the weighted blocks of a a^T
        and of S, with one dot product each. S exists one panel
        S[p0:p1, :p1] at a time (_s_panel), and only when sigma^2 > 0;
        otherwise a a^T is the one probe and the first array stays zero.
        """
        K_inv, a = self.K_inv, self.alpha_clean
        n, k_max = self.n, self.spectrum.k_max
        X = self.dataset.points.coordinates
        inner, quad = np.zeros((2, k_max + 1))
        basis = self.spectrum.basis()
        g_buf = np.empty(min(BLOCK_DOUBLES, n * n))
        aa_buf = np.empty_like(g_buf)
        tiles = _tiles(n)
        if K_inv is not None:
            blocks = _rfp_blocks(K_inv, n)
            w = _widest(tiles)
            s_buf = np.empty(w * n)
            tile_buf = np.empty(w * w)
            sb_buf = np.empty_like(g_buf)
        for p0, p1 in tiles:
            if K_inv is not None:
                S_p = _s_panel(blocks, tiles, p0, p1, s_buf, tile_buf)
            for r0, r1, G_b in _gram_blocks(X, p0, p1, g_buf):
                aa = aa_buf[: G_b.size].reshape(G_b.shape)
                np.multiply.outer(a[r0:r1], a[:r1], out=aa)
                aa[:, :r0] *= 2.0
                if K_inv is not None:
                    S_b = sb_buf[: G_b.size].reshape(G_b.shape)
                    np.copyto(S_b, S_p[r0 - p0: r1 - p0, :r1])
                    S_b[:, :r0] *= 2.0
                    square = S_b[:, r0:]    # S_p holds its lower triangle
                    np.copyto(square, square.T, where=~_LOWER[: r1 - r0, : r1 - r0])
                for k, p_k in enumerate(basis.iter_clipped_values(G_b)):
                    quad[k] += np.vdot(aa, p_k)
                    if K_inv is not None:
                        inner[k] += np.vdot(S_b, p_k)
        return inner, quad


def _gram_blocks(X: np.ndarray, p0: int, p1: int, buf: np.ndarray
                 ) -> Iterator[tuple[int, int, np.ndarray]]:
    """Yield (r0, r1, G[r0:r1, :r1]) over row blocks covering [p0, p1) of
    G = X X^T's lower triangle, each at most BLOCK_DOUBLES values (but at
    least one row), rebuilt in the flat buffer buf; a yielded block is valid
    only until the next is requested."""
    r0 = p0
    while r0 < p1:
        # the most rows h with h (r0 + h) <= BLOCK_DOUBLES
        h = max(1, (math.isqrt(r0 * r0 + 4 * BLOCK_DOUBLES) - r0) // 2)
        r1 = min(r0 + h, p1)
        yield r0, r1, _gram_block(X[r0:r1], X[:r1], buf)
        r0 = r1


def _gram_block(rows: np.ndarray, cols: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """rows @ cols^T as a C-contiguous view of the flat buffer buf, clipped
    as SpherePoints.gram clips."""
    block = buf[: len(rows) * len(cols)].reshape(len(rows), len(cols))
    np.matmul(rows, cols.T, out=block)
    return np.clip(block, -1.0, 1.0, out=block)


def _rfp_blocks(a: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(L, L2): views of the RFP array a of a symmetric n x n K, with n1 =
    n - n // 2. L is n x n1 and holds K[:, :n1] on and below its diagonal:
    K[:n1, :n1] by its lower triangle, then K[n1:, :n1] in full. L2 holds
    K[n1:, n1:] in its lower triangle; it is a transposed view, as RFP keeps
    that block's upper triangle."""
    n1, odd = n - n // 2, n % 2
    R = a.reshape(n1, n + 1 - odd).T     # the lda x n1 column-major matrix
    return R[1 - odd: 1 - odd + n], R[: n - n1, odd:].T


def _block(blocks: tuple, r0: int, r1: int, c0: int, c1: int) -> np.ndarray:
    """K[r0:r1, c0:c1] as a view of K's RFP blocks, for columns within one
    half of the RFP split and rows from c0 on: a view of L in the first
    half, column-major, and of L2 in the second, transposed. A diagonal
    square holds K in its lower triangle only."""
    L, L2 = blocks
    n1 = L.shape[1]
    return L[r0:r1, c0:c1] if c0 < n1 else L2[r0 - n1:r1 - n1, c0 - n1:c1 - n1]


def _pieces(blocks: tuple, r0: int, r1: int, c0: int, c1: int
            ) -> Iterator[tuple[int, int, np.ndarray, bool]]:
    """Yield (i0, i1, view, sym) over pieces that tile K[r0:r1, c0:c1] for a
    tile [c0, c1) of _tiles and rows that hold its diagonal square whole or
    miss it: the rows above the tile, as K[i0:i1, c0:c1] = K[c0:c1, i0:i1]^T
    one transposed view per RFP half; the diagonal square, whose view holds
    it in its lower triangle only (sym True); and the rows below."""
    n1 = blocks[0].shape[1]
    for i0, i1 in ((r0, min(r1, c0, n1)), (max(r0, n1), min(r1, c0))):
        if i0 < i1:
            yield i0, i1, _block(blocks, c0, c1, i0, i1).T, False
    if r0 <= c0 < r1:
        yield c0, c1, _block(blocks, c0, c1, c0, c1), True
    i0 = max(r0, c1)
    if i0 < r1:
        yield i0, r1, _block(blocks, i0, r1, c0, c1), False


def _sym_product(blocks: tuple, r0: int, r1: int, c0: int, c1: int,
                 B: np.ndarray, C: np.ndarray) -> None:
    """C += K[r0:r1, c0:c1] @ B in place for a tile [c0, c1) (_pieces),
    reading K where its RFP blocks hold it; B and C are column-major."""
    for i0, i1, view, sym in _pieces(blocks, r0, r1, c0, c1):
        (symm if sym else gemm)(view, B, C[i0 - r0:i1 - r0])


def _unpack(blocks: tuple, r0: int, r1: int, c0: int, c1: int, out: np.ndarray) -> None:
    """out = K[r0:r1, c0:c1] for tiles [r0, r1) and [c0, c1), from K's RFP
    blocks."""
    for i0, i1, view, sym in _pieces(blocks, r0, r1, c0, c1):
        dst = out[i0 - r0:i1 - r0]
        if sym:
            lower = _LOWER[: i1 - i0, : i1 - i0]
            np.copyto(dst, view, where=lower)
            np.copyto(dst, view.T, where=~lower)
        else:
            dst[...] = view


def _pack(blocks: tuple, r0: int, r1: int, K_b: np.ndarray) -> None:
    """Write the lower triangle of K[r0:r1, :r1] = K_b, for rows within one
    half of the RFP split, into K's RFP blocks: the columns left of the
    diagonal square in full, one view per half, and the square through the
    _LOWER mask, as its view's strict upper triangle holds the other
    half."""
    n1 = blocks[0].shape[1]
    for c0, c1 in ((0, min(r0, n1)), (n1, r0)):
        if c0 < c1:
            _block(blocks, r0, r1, c0, c1)[...] = K_b[:, c0:c1]
    np.copyto(_block(blocks, r0, r1, r0, r1), K_b[:, r0:], where=_LOWER[: r1 - r0, : r1 - r0])


def _strips(tiles: list[tuple[int, int]], k: int, c0: int, n1: int) -> list[tuple[int, int]]:
    """Row ranges covering tiles[k:], each within one half of the RFP split,
    for blocks of the columns from c0: one range per half when c0 lies in
    the first half, whose blocks are column-major, else one per tile, as a
    transposed block's rows are its base's columns. So a block over a range
    is at most one tile of columns wide as the library sees it, and its
    rows, as the columns of another block, lie in one half."""
    rest = tiles[k:]
    if c0 >= n1:
        return rest
    halves = ([t for t in rest if t[1] <= n1], [t for t in rest if t[0] >= n1])
    return [(h[0][0], h[-1][1]) for h in halves if h]


def _gemm_into(a: np.ndarray, b: np.ndarray, c: np.ndarray, scale: float = 1.0) -> None:
    """c += scale a @ b for a block c of K's RFP storage; a transposed c (the
    second half) gets c^T += scale b^T a^T, so gemm writes column-major."""
    if c.strides[0] > c.strides[1]:
        gemm(b.T, a.T, c.T, scale)
    else:
        gemm(a, b, c, scale)


# The tiled factor and inverse update by one tile of the inner dimension at
# a time (right-looking): with one BLAS thread OpenBLAS ran a 256 x 256
# gemm with k = 2048 at 40-45 GFLOP/s and a 2048 x 256 one with k = 256 at
# 70, and the right-looking inverse took 12 % less time at n = 4096 and 6 %
# less at n = 2025 than one whose gemms summed whole rows of tiles.
def _cholesky(K: np.ndarray, n: int) -> int:
    """K's Cholesky factor L over K's RFP array, in place. Returns LAPACK's
    info: 0, or the order of the first leading minor that is not positive
    definite. A right-looking tiled Cholesky over _tiles(n): potrf on
    diagonal tile j, trsm on the rows below it, then for each later tile i
    a syrk on its diagonal tile and a gemm on the rows below that, so no
    call writes more than one tile of columns and OpenBLAS's workspace
    stays one tile wide."""
    blocks, tiles, n1 = _rfp_blocks(K, n), _tiles(n), n - n // 2
    for j, (j0, j1) in enumerate(tiles):
        diag = _block(blocks, j0, j1, j0, j1)
        info = potrf(diag)
        if info:
            return j0 + info
        for r0, r1 in _strips(tiles, j + 1, j0, n1):    # L[r, j] = K[r, j] L_jj^-T
            trsm(diag, _block(blocks, r0, r1, j0, j1).T)
        for i, (i0, i1) in enumerate(tiles[j + 1:], j + 1):
            l_i = _block(blocks, i0, i1, j0, j1)
            syrk(l_i.T, _block(blocks, i0, i1, i0, i1).T, -1.0)
            for r0, r1 in _strips(tiles, i + 1, i0, n1):
                _gemm_into(_block(blocks, r0, r1, j0, j1), l_i.T,
                           _block(blocks, r0, r1, i0, i1), -1.0)
    return 0


def _invert(K: np.ndarray, n: int) -> int:
    """K^-1 over K's RFP Cholesky factor L, in place. Returns LAPACK's info.
    Two right-looking sweeps over _tiles(n), every call cut at tile
    boundaries. The first makes L^-1: at tile j the tiles left of the
    diagonal hold L[j:, :j] L^-1[:j, :j], so row tile j becomes -L_jj^-1
    times its tiles (trsm), each then updates the rows below (gemm), L_jj
    its inverse (trtri) and the column below it L[j+1:, j] L_jj^-1 (trmm).
    The second makes K^-1 = L^-T L^-1 by adding row tile k's outer products
    L^-1[k, :k]^T L^-1[k, :k] to the tiles above it (syrk, gemm) before row
    tile k becomes L^-1_kk^T L^-1[k, :k+1] (trmm, lauum)."""
    blocks, tiles, n1 = _rfp_blocks(K, n), _tiles(n), n - n // 2
    for j, (j0, j1) in enumerate(tiles):
        diag = _block(blocks, j0, j1, j0, j1)
        for l0, l1 in tiles[:j]:
            row = _block(blocks, j0, j1, l0, l1)
            trsm(diag, row, -1.0)
            for r0, r1 in _strips(tiles, j + 1, l0, n1):
                _gemm_into(_block(blocks, r0, r1, j0, j1), row, _block(blocks, r0, r1, l0, l1))
        info = trtri(diag)
        if info:
            return j0 + info
        for r0, r1 in _strips(tiles, j + 1, j0, n1):
            trmm(diag, _block(blocks, r0, r1, j0, j1))
    for k, (k0, k1) in enumerate(tiles):
        diag = _block(blocks, k0, k1, k0, k1)
        for i, (i0, i1) in enumerate(tiles[:k]):
            row = _block(blocks, k0, k1, i0, i1)
            syrk(row, _block(blocks, i0, i1, i0, i1).T)
            for r0, r1 in _strips(tiles[:k], i + 1, i0, n1):
                _gemm_into(_block(blocks, k0, k1, r0, r1).T, row, _block(blocks, r0, r1, i0, i1))
            trmm(diag, row.T)
        lauum(diag)
    return 0


def _s_panel(blocks: tuple, tiles: list[tuple[int, int]], p0: int, p1: int,
             out: np.ndarray, tile_buf: np.ndarray) -> np.ndarray:
    """S[p0:p1, :p1] of S = K^-1 K^-T for K^-1 in RFP blocks, as a C-order
    view of the flat buffer out. Its transpose is summed over the tiles
    [q0, q1) of the inner index, with K^-1[q0:q1, p0:p1] unpacked into the
    flat buffer tile_buf in turn: K^-1[:p0, q0:q1] times it gives rows
    [0, p0), and its Gram matrix the symmetric square [p0, p1), of which
    only the panel's lower triangle is formed."""
    h = p1 - p0
    S_t = out[: p1 * h].reshape(h, p1).T    # column-major, S_t.T is the panel
    S_t.fill(0.0)
    for q0, q1 in tiles:
        tile = tile_buf[: (q1 - q0) * h].reshape(h, q1 - q0).T
        _unpack(blocks, q0, q1, p0, p1, tile)
        _sym_product(blocks, 0, p0, q0, q1, tile, S_t[:p0])
        syrk(tile, S_t[p0:])
    return S_t.T


def _lambda_min(spectrum: Spectrum, points: SpherePoints) -> float:
    """Smallest eigenvalue of K = Phi(G), assembled afresh from the points in
    one n x n array (K.T is a Fortran-order view LAPACK overwrites)."""
    from scipy.linalg import eigvalsh    # error and diagnostic paths only

    K = points.gram()
    assemble_kernel_matrix(spectrum.spec, K, out=K)
    return float(eigvalsh(K.T, subset_by_index=(0, 0), overwrite_a=True)[0])


def _norms(a: np.ndarray) -> np.ndarray:
    """The 2-norm of each column of a."""
    return np.sqrt(np.square(a).sum(axis=0))


def fit(dataset: Dataset, spectrum: Spectrum) -> FittedInterpolant:
    """Factorize K by Cholesky and solve for the dual weights, in one RFP
    array of n (n + 1) / 2 doubles that ends as K^-1 when sigma^2 > 0 (see
    the module docstring). The residual B - k(X, X) x of each column is
    taken with predict's product (_kernel_times). Raises NumericalError when
    K is not positive definite or a column misses RESIDUAL_TOL after one
    refinement sweep."""
    if dataset.points.d != spectrum.d:
        raise UsageError("dataset and spectrum dimensions differ")

    X, n = dataset.points.coordinates, dataset.n
    K = np.empty(n * (n + 1) // 2)
    blocks = _rfp_blocks(K, n)
    buf = np.empty(min(BLOCK_DOUBLES, n * n))
    for p0, p1 in _tiles(n):    # the blocks the degree pass walks
        for r0, r1, G_b in _gram_blocks(X, p0, p1, buf):
            _pack(blocks, r0, r1, eval_phi_clipped(spectrum.spec, G_b, G_b))
    buf = blocks = G_b = None    # the last block's view would keep buf alive
    if _cholesky(K, n) != 0:
        del K    # half-factored: lambda_min comes from a fresh K
        lam_min = _lambda_min(spectrum, dataset.points)
        raise NumericalError(
            f"kernel matrix not positive definite (lambda_min = {lam_min!r})")

    # Cholesky solves are backward stable, so the first residual is nearly
    # always far inside the 1e-10 contract (at most 1.3e-13 relative on the
    # benchmark sweeps' cells); one refinement sweep serves a column that
    # misses it. B holds Y, then f*(X) unless it is Y itself, and its columns
    # share one solve and each pass over k(X, X). A NaN residual fails the
    # test, so pftrs never scans the factor for NaN
    y, clean = dataset.y, dataset.clean
    B = y[:, None] if y is clean else np.stack((y, clean), axis=1)
    x = pftrs(K, B)
    r = B - _kernel_times(X, spectrum, X, x)
    done = _norms(r) <= RESIDUAL_TOL * _norms(B)
    if not done.all():
        redo = ~done
        x[:, redo] += pftrs(K, r[:, redo])
        r = B[:, redo] - _kernel_times(X, spectrum, X, x[:, redo])
        rel = np.max(_norms(r) / np.maximum(_norms(B[:, redo]), 1e-300))
        if not rel <= RESIDUAL_TOL:
            raise NumericalError(f"linear solve residual {rel:.3e} exceeds {RESIDUAL_TOL}")

    if dataset.sigma2 > 0:    # K^-1 over the factor
        info = _invert(K, n)
        if info != 0:
            raise NumericalError(f"inverting K failed (LAPACK info={info})")
    alpha = x[:, 0]
    return FittedInterpolant(dataset=dataset, spectrum=spectrum, alpha=alpha,
                             alpha_clean=alpha if y is clean else x[:, 1],
                             K_inv=K if dataset.sigma2 > 0 else None)


def _cross_products(X: np.ndarray, spectrum: Spectrum, panels: Iterable[np.ndarray],
                    alpha: np.ndarray, out: np.ndarray, K_inv: np.ndarray | None = None,
                    norms: np.ndarray | None = None) -> Iterator[tuple[slice, np.ndarray]]:
    """For each panel x of at most PANEL_ROWS query points (one per row),
    the next rows of out and norms: add k(x, X) alpha to out[rows] for the
    n x c weights alpha and m x c out, one matrix-vector product per
    column, and, when K^-1 (RFP storage) is given, set norms[rows] to
    ||K^-1 k(X, x_i)||^2; then yield (rows, x). k(x, X) is built from the
    training points X and the spectrum's Phi by the tiles of X (_tiles),
    Phi applied in place, in one reused buffer, so no m x n or panel-sized
    kernel array exists; K^-1 k(X, x) for the panel (one Fortran-order
    column per point) is summed over the tiles by products with K^-1's RFP
    blocks. This is the only loop that multiplies by k(., X): fit's
    residual, predict and the Monte Carlo check all run it, so a column's
    product does not depend on which of them asks or on the other columns."""
    n, spec = len(X), spectrum.spec
    tiles = _tiles(n)
    h = min(PANEL_ROWS, len(out))
    buf = np.empty(h * _widest(tiles))
    if K_inv is not None:
        blocks = _rfp_blocks(K_inv, n)
        s_buf = np.empty(h * n)
    p0 = 0
    for x in panels:
        rows = slice(p0, p0 + len(x))
        p0 = rows.stop
        if K_inv is not None:
            s_t = s_buf[: len(x) * n].reshape(-1, n)
            s_t.fill(0.0)
        for c0, c1 in tiles:
            kb = _gram_block(x, X[c0:c1], buf)
            eval_phi_clipped(spec, kb, kb)
            for j in range(alpha.shape[1]):    # a gemv per column: gemm rounds otherwise
                out[rows, j] += kb @ alpha[c0:c1, j]
            if K_inv is not None:
                _sym_product(blocks, 0, n, c0, c1, kb.T, s_t.T)
        if K_inv is not None:
            norms[rows] = np.einsum("ij,ij->i", s_t, s_t)
        yield rows, x


def _kernel_times(X: np.ndarray, spectrum: Spectrum, x: np.ndarray, alpha: np.ndarray
                  ) -> np.ndarray:
    """k(x, X) alpha for query points x (one per row), by panels of
    PANEL_ROWS points (_cross_products)."""
    out = np.zeros((len(x), alpha.shape[1]))
    panels = (x[p0:p0 + PANEL_ROWS] for p0 in range(0, len(x), PANEL_ROWS))
    for _ in _cross_products(X, spectrum, panels, alpha, out):
        pass
    return out


def _check_dimension(model: FittedInterpolant, d: int) -> None:
    if d != model.dataset.points.d:
        raise UsageError("query dimension does not match training dimension")


def predict(model: FittedInterpolant, points: SpherePoints) -> np.ndarray:
    """k(x, X) alpha for each query point x, by panels of PANEL_ROWS points
    (_kernel_times); on the training points this is the product fit's
    residual subtracts, bit for bit."""
    _check_dimension(model, points.d)
    return _kernel_times(model.dataset.points.coordinates, model.spectrum,
                         points.coordinates, model.alpha[:, None])[:, 0]


def variance_split(model: FittedInterpolant, l: int) -> tuple[float, float]:
    """Exact variance split into degree <= l and degree > l contributions.

    var_k = sigma^2 mu_k^2 N_k <S, P_k(G)> with S = K^-1 K^-T = K^-2, read
    from model.degree_sums; every var_k is nonnegative, so the split has no
    cancellation. l = -1 puts everything in 'high'; at sigma^2 = 0 both are 0.
    """
    sp = model.spectrum
    var_k = model.dataset.sigma2 * sp.mu**2 * sp.multiplicities * model.degree_sums[0]
    return float(var_k[: l + 1].sum()), float(var_k[l + 1:].sum())


@dataclass(frozen=True)
class BiasReport:
    """Per-degree exact bias decomposition."""

    by_degree: np.ndarray      # squared L2 norms, degrees 0..k_max
    residual_bound: float      # bound on the dropped degrees > k_max
    l: int

    @property
    def B1(self) -> float:
        return float(self.by_degree[: self.l + 1].sum())

    @property
    def B2(self) -> float:
        return float(self.by_degree[self.l + 1:].sum())

    @property
    def total(self) -> float:
        return float(self.by_degree.sum())


def exact_bias_by_degree(model: FittedInterpolant, target: Target) -> BiasReport:
    """Exact squared bias, one nonnegative contribution per harmonic degree."""
    sp = model.spectrum
    if target.spectrum is not sp and (
            target.spectrum.d != sp.d or target.spectrum.k_max != sp.k_max
            or not np.array_equal(target.spectrum.mu, sp.mu)):
        raise UsageError("target was built on a different spectrum")
    t_w = model.dataset.points.coordinates @ target.axis
    a = model.alpha_clean
    mu, n_k = sp.mu, sp.multiplicities

    beta = np.zeros(sp.k_max + 1)
    beta[: target.l + 2] = target.beta
    cross = np.zeros(sp.k_max + 1)       # a^T p_k(w), needed where beta_k != 0
    for k, p_w in enumerate(ZonalBasis(sp.d, target.l + 1).iter_values(t_w)):
        cross[k] = a @ p_w

    by_degree = (mu * mu * n_k * model.degree_sums[1]
                 - 2.0 * mu * beta * np.sqrt(n_k) * cross + beta * beta)
    bad = by_degree < -1e-10
    if np.any(bad):
        k = int(np.argmax(bad))
        raise NumericalError(f"negative degree-{k} bias contribution {by_degree[k]:.3e}")
    by_degree = np.maximum(by_degree, 0.0)

    # dropped degrees only overshoot: mu_k^2 N_k a^T P_k(G) a <= n ||a||^2 tail
    mu_edge = float(sp.mu[sp.k_max])
    residual = mu_edge * sp.trace_residual * model.n * float(a @ a)
    return BiasReport(by_degree=by_degree, residual_bound=residual, l=target.l)


@dataclass(frozen=True)
class McErrors:
    bias_sq: float
    bias_sq_se: float
    var: float
    var_se: float


def mc_errors(model: FittedInterpolant, target: Target, m_test: int,
              seed: SeedPath) -> McErrors:
    """Monte Carlo bias^2 and variance over fresh uniform test points,
    sample_sphere(target.d, m_test, seed) bit for bit."""
    if m_test < 100:
        raise UsageError(f"mc test points must be >= 100, got {m_test}")
    _check_dimension(model, target.d)
    # the test points are drawn by panels inside the cross-kernel loop, which
    # also takes each panel's <x, w>, so no m x (d + 1) array exists; f* is
    # then evaluated once on the m values
    panels = sphere_panels(target.d, m_test, seed, PANEL_ROWS)
    fitted, t_w = np.zeros((2, m_test))
    norms = np.zeros(m_test)   # ||K^-1 k(X, x)||^2; stays 0 when sigma^2 = 0
    for rows, x in _cross_products(model.dataset.points.coordinates, model.spectrum, panels,
                                   model.alpha_clean[:, None], fitted[:, None], model.K_inv, norms):
        np.matmul(x, target.axis, out=t_w[rows])
    del x    # a view of the last panel would keep sphere_panels' buffer alive

    def mean_se(samples: np.ndarray) -> tuple[float, float]:
        return float(samples.mean()), float(samples.std(ddof=1) / math.sqrt(m_test))

    return McErrors(*mean_se((fitted - eval_target_along_axis(target, t_w)) ** 2),
                    *mean_se(model.dataset.sigma2 * norms))


@dataclass(frozen=True)
class ConcentrationReport:
    """Empirical concentration diagnostics for the random kernel matrix."""

    lambda_min_K: float
    delta1_opnorm: float       # ||K_{>l}/kappa1 - I||_op
    psi_gram_deviation: float  # max |lambda - 1| over top-B_l eigs of sum_k Gram_k / n
    B_l: int
    meaningful: bool           # n >= B_l, else the Psi-gram comparison is rank-deficient


def concentration_report(model: FittedInterpolant, l: int) -> ConcentrationReport:
    """On-demand diagnostics, never run by evaluate_cell: rebuilds G from the
    points once and makes three dense O(n^3) eigensolves (the low-degree
    harmonic Gram matrix / n, lambda_min(K), and the degree > l part of K),
    holding at most two n x n arrays of its own at once."""
    from scipy.linalg import eigvalsh

    sp = model.spectrum
    if l >= sp.k_max:
        raise UsageError(f"l={l} must be below k_max={sp.k_max}")
    n = model.n
    kappa1 = tail_sums(sp, l).kappa1
    B_l = sum(multiplicities(sp.d, l))

    # every matrix here is exactly symmetric and owned, so its transpose is
    # a Fortran-order view that LAPACK overwrites without a copy
    G = model.dataset.points.gram()
    A = zonal_series(sp.d, sp.multiplicities[: l + 1], G)
    A /= n
    ev_a = eigvalsh(A.T, overwrite_a=True)
    del A
    psi_dev = float(np.max(np.abs(ev_a[-min(B_l, n):] - 1.0)))

    K_high = zonal_series(sp.d, (sp.mu * sp.multiplicities)[: l + 1], G)
    K = assemble_kernel_matrix(sp.spec, G, out=G)    # over G's buffer
    np.subtract(K, K_high, out=K_high)
    lam_min_K = float(eigvalsh(K.T, subset_by_index=(0, 0), overwrite_a=True)[0])
    del G, K
    ev = eigvalsh(K_high.T, overwrite_a=True)
    delta1 = float(max(abs(ev[0] / kappa1 - 1.0), abs(ev[-1] / kappa1 - 1.0)))
    return ConcentrationReport(lambda_min_K=lam_min_K, delta1_opnorm=delta1,
                               psi_gram_deviation=psi_dev, B_l=B_l,
                               meaningful=n >= B_l)


@dataclass(frozen=True)
class ErrorReport:
    """Everything one experiment cell reports; maps 1:1 onto CSV columns."""

    bias_sq_exact: float
    var_exact: float
    var_low_degree: float
    var_high_degree: float
    B1: float
    B2: float
    bias_residual_bound: float
    bias_sq_mc: float | None
    bias_sq_mc_se: float | None
    var_mc: float | None
    var_mc_se: float | None
    mc_consistent: bool | None   # exact within 4 SE of MC (None if MC skipped)
    kappa1: float
    kappa2: float


def evaluate_cell(model: FittedInterpolant, target: Target,
                  mc_test_points: int = 0,
                  mc_seed: SeedPath | None = None) -> ErrorReport:
    """Run all exact oracles and (optionally) the MC cross-check on one fit."""
    l = target.l
    ts = tail_sums(model.spectrum, l)
    var_low, var_high = variance_split(model, l)
    var_exact = var_low + var_high
    bias = exact_bias_by_degree(model, target)

    bias_mc = bias_se = var_mc = var_se = None
    mc_ok = None
    if mc_test_points > 0:
        if mc_seed is None:
            raise UsageError("mc_seed is required when mc_test_points > 0")
        mc = mc_errors(model, target, mc_test_points, mc_seed)
        bias_mc, bias_se, var_mc, var_se = mc.bias_sq, mc.bias_sq_se, mc.var, mc.var_se
        bias_ok = abs(bias.total - bias_mc) <= 4.0 * bias_se + 1e-12
        var_ok = abs(var_exact - var_mc) <= 4.0 * var_se + 1e-12
        mc_ok = bool(bias_ok and var_ok)

    return ErrorReport(
        bias_sq_exact=bias.total,
        var_exact=var_exact,
        var_low_degree=var_low,
        var_high_degree=var_high,
        B1=bias.B1,
        B2=bias.B2,
        bias_residual_bound=bias.residual_bound,
        bias_sq_mc=bias_mc,
        bias_sq_mc_se=bias_se,
        var_mc=var_mc,
        var_mc_se=var_se,
        mc_consistent=mc_ok,
        kappa1=ts.kappa1,
        kappa2=ts.kappa2,
    )
