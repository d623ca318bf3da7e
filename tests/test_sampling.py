import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import qmc

import speccert
from speccert import PreconditionError
from speccert.conical import RESTART_SEED
from speccert.sampling import (
    _box_sequences,
    _gaussian_stack,
    _halton_unit,
    _unit_norm,
    box_sequence,
    random_hermitian,
    random_symmetric,
    sphere_directions,
)
from speccert.tolerance import HALTON_CLIP


def _fresh_halton(count: int, m: int, seed: int) -> np.ndarray:
    return qmc.Halton(d=m, scramble=True, seed=seed).random(count)


@pytest.mark.parametrize("m", [1, 2, 3, 8])
@pytest.mark.parametrize("seed", [0, 1, 1007, RESTART_SEED])
def test_halton_table_matches_scipy(m, seed):
    for count in (1, 2, 3, 17, 100, 1000):
        assert np.array_equal(_halton_unit(count, m, seed), _fresh_halton(count, m, seed))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_stacked_box_sequences_match_one_table_per_seed(m):
    box = np.array([[-3.0, 3.0], [-1.0, 2.5], [0.0, 5.0]])[:m]
    seeds = range(1011, 1020)
    for count in (1, 6, 17):
        stacked = _box_sequences(box, count, seeds)
        assert stacked.shape == (len(seeds), count, m)
        for points, seed in zip(stacked, seeds, strict=True):
            assert np.array_equal(points, box_sequence(box, count, seed))


def test_stacked_tables_stay_out_of_the_cache():
    _halton_unit.cache_clear()
    _box_sequences(np.array([[0.0, 1.0], [0.0, 1.0]]), 6, range(40))
    assert _halton_unit.cache_info().currsize == 0


def test_import_leaves_scipy_stats_out():
    # and every other scipy module: the package imports numpy alone
    src = Path(speccert.__file__).resolve().parents[1]
    code = (
        "import sys, speccert; "
        "print(sorted(k for k in sys.modules if k.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        check=True,
    )
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("count, m, seed", [(1, 2, 0), (6, 2, 1007), (24, 3, 0x5EED), (50, 5, 3)])
def test_box_sequence_matches_a_fresh_halton_draw(count, m, seed):
    box = np.column_stack([-np.arange(1.0, m + 1), np.linspace(0.5, 3.0, m)])
    expected = box[:, 0] + _fresh_halton(count, m, seed) * (box[:, 1] - box[:, 0])
    for _ in range(2):  # the second call reads the cached table
        assert np.array_equal(box_sequence(box, count, seed), expected)


@pytest.mark.parametrize(
    "m, count, seed", [(1, 9, 3), (1, 0, 0), (2, 32, 0), (3, 32, 7), (4, 5, 11), (5, 17, 2)]
)
def test_sphere_directions_match_a_fresh_halton_draw(m, count, seed):
    # the Box-Muller map of a table with an even number of axes: axis 2i a radius
    # (clipped from below), axis 2i + 1 an angle
    pairs = math.ceil(m / 2)
    h = _fresh_halton(count, 2 * pairs, seed)
    r = np.sqrt(-2.0 * np.log(np.clip(h[:, 0::2], HALTON_CLIP, None)))
    a = 2.0 * math.pi * h[:, 1::2]
    g = np.stack([r * np.cos(a), r * np.sin(a)], axis=2).reshape(count, 2 * pairs)[:, :m]
    expected = g / np.linalg.norm(g, axis=1)[:, None]
    for _ in range(2):
        directions = sphere_directions(m, count, seed)
        assert directions.shape == (count, m)
        assert np.array_equal(directions, expected)


def test_planar_directions_are_the_halton_angles():
    # for m = 2 the radius cancels in the normalisation
    a = 2.0 * math.pi * _fresh_halton(64, 2, 5)[:, 1]
    expected = np.column_stack([np.cos(a), np.sin(a)])
    assert np.allclose(sphere_directions(2, 64, 5), expected, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize(
    "count, seed, name",
    [(2.5, 0, "count"), (True, 0, "count"), (-1, 0, "count"), (4, -1, "seed"), (4, 0.5, "seed"),
     (4, "0", "seed")],
)
def test_box_sequence_rejects_a_bad_count_or_seed(count, seed, name):
    # seed -1 raised numpy's ValueError, and count 2.5 a bare TypeError
    with pytest.raises(PreconditionError, match=f"{name} must be an integer >= 0"):
        box_sequence(np.array([[-1.0, 1.0], [-1.0, 1.0]]), count, seed)


@pytest.mark.parametrize(
    "m, count, seed, name",
    [(0, 2, 0, "m"), (2.0, 2, 0, "m"), (2, 2.5, 0, "count"), (2, -1, 0, "count"),
     (2, 2, -1, "seed"), (2, 2, [0], "seed"), (2, [2], 0, "count")],
)
def test_sphere_directions_rejects_a_bad_argument(m, count, seed, name):
    # an unhashable argument raised in the cache, before any check
    with pytest.raises(PreconditionError, match=f"{name} must be an integer"):
        sphere_directions(m, count, seed)


def test_cached_tables_are_read_only():
    directions = sphere_directions(2, 32, 0)
    assert directions is sphere_directions(2, 32, 0)
    with pytest.raises(ValueError):
        directions[0, 0] = 1.0
    # a scaled box sequence is the caller's own array
    box = np.array([[-1.0, 1.0], [-1.0, 1.0]])
    points = box_sequence(box, 4, 0)
    points[0, 0] = 5.0
    assert box_sequence(box, 4, 0)[0, 0] != 5.0


@pytest.mark.parametrize("n", [2, 3, 5])
def test_stacked_draws_match_successive_single_draws(n):
    # the per-matrix draws as written before they were stacked
    def symmetric(rng):
        a = rng.standard_normal((n, n))
        s = (a + a.T) / 2
        return s / float(np.max(np.abs(np.linalg.eigvalsh(s))))

    def hermitian(rng):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = (a + a.conj().T) / 2
        return h / float(np.max(np.abs(np.linalg.eigvalsh(h))))

    kinds = ((True, symmetric, random_symmetric), (False, hermitian, random_hermitian))
    for real, single, public in kinds:
        rng = np.random.default_rng(n)
        stack = _unit_norm(np.stack([_gaussian_stack(rng, (3, n, n), real) for _ in range(4)]))
        rng = np.random.default_rng(n)
        assert np.array_equal(stack, [[single(rng) for _ in range(3)] for _ in range(4)])
        rng = np.random.default_rng(n)
        assert np.array_equal(stack[0], [public(rng, n) for _ in range(3)])


def test_unit_norm_leaves_a_zero_matrix():
    h = np.stack([np.zeros((2, 2)), np.diag([2.0, -4.0])])
    assert np.array_equal(_unit_norm(h), [np.zeros((2, 2)), np.diag([0.5, -1.0])])
