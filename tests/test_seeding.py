import tracemalloc

import numpy as np
import pytest

from kilab import SeedPath, UsageError, quadrature, sample_noise, sample_sphere
from kilab.seeding import sphere_panels
from kilab.zonal import BLOCK_DOUBLES

SEED = SeedPath(1234)


def test_rows_are_unit_norm():
    pts = sample_sphere(2, 3, SEED.child(1))
    norms = np.linalg.norm(pts.coordinates, axis=1)
    assert pts.coordinates.shape == (3, 3)
    assert np.max(np.abs(norms - 1.0)) < 1e-12


@pytest.mark.parametrize("d,n", [(5, 10_000), (64, 2_000), (1, 500)])
def test_unit_norm_across_dimensions(d, n):
    pts = sample_sphere(d, n, SEED.child(d, n))
    assert np.max(np.abs(np.linalg.norm(pts.coordinates, axis=1) - 1.0)) < 1e-12


def test_coordinate_means_vanish():
    pts = sample_sphere(5, 10_000, SEED.child(2))
    assert np.max(np.abs(pts.coordinates.mean(axis=0))) < 4 / np.sqrt(10_000)


def test_pairwise_inner_product_second_moment():
    # E<x, x'>^2 = 1/(d+1); the quadrature rule provides the exact value
    d = 3
    rule = quadrature(d, 50)
    exact = rule.integrate(rule.nodes**2)
    assert abs(exact - 0.25) < 1e-12

    pts = sample_sphere(d, 10_000, SEED.child(3))
    half = pts.n // 2
    sq = np.sum(pts.coordinates[:half] * pts.coordinates[half:], axis=1) ** 2
    se = sq.std(ddof=1) / np.sqrt(half)
    assert abs(sq.mean() - exact) < 3 * se


def test_rejects_degenerate_sizes():
    with pytest.raises(UsageError):
        sample_sphere(0, 5, SEED)
    with pytest.raises(UsageError):
        sample_sphere(3, 0, SEED)


@pytest.mark.parametrize("d, n", [(2, 5), (8, 23), (45, 2025), (BLOCK_DOUBLES, 3)])
def test_sphere_points_are_the_gaussian_draw_over_its_norms(d, n):
    # normalized in place by row blocks, one row each when d + 1 exceeds
    # BLOCK_DOUBLES, yet bit for bit the draw divided by np.linalg.norm
    seed = SEED.child(d, n)
    g = seed.rng().standard_normal((n, d + 1))
    expected = g / np.linalg.norm(g, axis=1, keepdims=True)
    assert sample_sphere(d, n, seed).coordinates.tobytes() == expected.tobytes()


@pytest.mark.parametrize("rows", [1, 7, 288, 2000])
def test_sphere_panels_concatenate_to_one_draw(rows):
    seed = SEED.child(6)
    whole = sample_sphere(45, 2000, seed).coordinates
    panels = [p.copy() for p in sphere_panels(45, 2000, seed, rows)]
    assert all(len(p) == rows for p in panels[:-1])
    assert np.concatenate(panels).tobytes() == whole.tobytes()


@pytest.mark.parametrize("d, n", [(3, 10_000), (45, 2025), (20_000, 30)])
def test_sample_sphere_holds_its_points_once(d, n):
    # one n x (d + 1) array, plus one row block's squares (at least one
    # row) and its rows' norms; a full-size draw, squares and quotient held
    # 3.7 to 37 blocks more
    tracemalloc.start()
    try:
        sample_sphere(d, n, SEED.child(7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (n * (d + 1) + 2 * max(BLOCK_DOUBLES, d + 1))


def test_noise_zero_variance_is_exact_zero():
    assert np.array_equal(sample_noise(5, 0.0, SEED), np.zeros(5))


def test_noise_moments():
    z = sample_noise(100_000, 1.0, SEED.child(4))
    assert abs(z.var(ddof=1) - 1.0) < 0.05
    z = sample_noise(100_000, 0.25, SEED.child(5))
    assert abs(z.mean()) < 4 * 0.5 / np.sqrt(100_000)


def test_noise_rejects_negative_variance():
    with pytest.raises(UsageError):
        sample_noise(10, -0.1, SEED)


def test_determinism_bit_identical():
    a = sample_sphere(7, 100, SEED.child(1, 2, 3)).coordinates
    b = sample_sphere(7, 100, SEED.child(1, 2, 3)).coordinates
    assert a.tobytes() == b.tobytes()
    x = sample_noise(100, 2.0, SEED.child(9))
    y = sample_noise(100, 2.0, SEED.child(9))
    assert x.tobytes() == y.tobytes()


def test_distinct_paths_are_decorrelated():
    a = sample_noise(20_000, 1.0, SEED.child(1))
    b = sample_noise(20_000, 1.0, SEED.child(2))
    assert not np.array_equal(a, b)
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 4 / np.sqrt(20_000)


def test_path_order_matters():
    a = sample_noise(100, 1.0, SEED.child(1, 2))
    b = sample_noise(100, 1.0, SEED.child(2, 1))
    assert not np.array_equal(a, b)
