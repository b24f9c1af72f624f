"""Deterministic random generation: uniform points on S^d and Gaussian noise.

Every random draw in the package flows through a SeedPath, a (master seed,
label path) pair that derives an independent substream. Substreams are pure
functions of the path, so experiment cells can run in any order, on any
number of workers, and still reproduce bit-identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np
# numpy >= 2 imports numpy.random on first use; every cell draws from it, so
# load it with kilab rather than inside the first cell
from numpy.random import Generator, SeedSequence, default_rng

from .errors import UsageError
from .zonal import BLOCK_DOUBLES, row_blocks

# Well-known purpose tags used as the last path label.
TAG_POINTS = 1
TAG_NOISE = 2
TAG_AXIS = 3
TAG_MC = 4


@dataclass(frozen=True)
class SeedPath:
    """A derived random stream identified by (master_seed, path of labels)."""

    master_seed: int
    path: tuple[int, ...] = ()

    def child(self, *labels: int) -> "SeedPath":
        return SeedPath(self.master_seed, self.path + tuple(int(x) for x in labels))

    def rng(self) -> Generator:
        ss = SeedSequence(self.master_seed, spawn_key=self.path)
        return default_rng(ss)


@dataclass(frozen=True)
class SpherePoints:
    """n points on the unit sphere S^d embedded in R^(d+1), one per row."""

    d: int
    coordinates: np.ndarray  # shape (n, d+1), unit rows

    def __post_init__(self):
        if self.coordinates.ndim != 2 or self.coordinates.shape[1] != self.d + 1:
            raise UsageError(
                f"coordinates shape {self.coordinates.shape} does not match d={self.d}"
            )

    @property
    def n(self) -> int:
        return self.coordinates.shape[0]

    def gram(self, other: "SpherePoints | None" = None) -> np.ndarray:
        """Pairwise inner products, clipped into [-1, 1]."""
        other = self if other is None else other
        if other.d != self.d:
            raise UsageError(f"dimension mismatch: {self.d} vs {other.d}")
        g = self.coordinates @ other.coordinates.T
        return np.clip(g, -1.0, 1.0, out=g)


def sphere_panels(d: int, n: int, seed: SeedPath, rows: int) -> Iterator[np.ndarray]:
    """Yield n i.i.d. uniform points on S^d (Gaussian direction method), one
    per row, as consecutive panels of at most rows points. The points are
    drawn from seed's one stream into one reused buffer, as many whole
    panels at a time as fit in BLOCK_DOUBLES values (at least one), and
    divided by their rows' norms in place, a row block (row_blocks) at a
    time, so the panels concatenate to the same bytes for every rows, and
    to the draw divided by np.linalg.norm. A yielded panel is valid only
    until the next is requested."""
    if d < 1:
        raise UsageError(f"sphere dimension must be >= 1, got {d}")
    if n < 1:
        raise UsageError(f"point count must be >= 1, got {n}")
    rng = seed.rng()
    # small panels share one draw and one norm pass: at m = 2000 test
    # points on S^8, 2 draws in place of 7 take 70-85 us off a 1.4 ms
    # Monte Carlo check
    step = rows * max(1, BLOCK_DOUBLES // ((d + 1) * rows))
    buf = rng.standard_normal((min(step, n), d + 1))    # later chunks reuse it
    for c0 in range(0, n, step):
        g = buf[: min(step, n - c0)]
        if c0:
            rng.standard_normal(out=g)
        for block in row_blocks(g):
            b = g[block]    # np.linalg.norm's own sqrt(sum(b * b))
            b /= np.sqrt(np.add.reduce(b * b, axis=1, keepdims=True))
        for p0 in range(0, len(g), rows):
            yield g[p0:p0 + rows]


def sample_sphere(d: int, n: int, seed: SeedPath) -> SpherePoints:
    """Draw n i.i.d. uniform points on S^d: sphere_panels' one-panel case,
    held in one n x (d + 1) array."""
    return SpherePoints(d=d, coordinates=next(sphere_panels(d, n, seed, n)))


def sample_noise(n: int, sigma2: float, seed: SeedPath) -> np.ndarray:
    """n i.i.d. N(0, sigma2) draws; exact zeros when sigma2 == 0."""
    if n < 1:
        raise UsageError(f"noise length must be >= 1, got {n}")
    if sigma2 < 0:
        raise UsageError(f"noise variance must be >= 0, got {sigma2}")
    if sigma2 == 0:
        return np.zeros(n)
    return seed.rng().normal(0.0, math.sqrt(sigma2), n)
