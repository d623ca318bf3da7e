"""Seeded low-discrepancy and random-matrix sampling helpers."""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from .tolerance import HALTON_CLIP, _check_integer

# tables kept per (count, dimension, seed) and per (count, base); the genericity
# ensemble's one-off per-trial tables bypass the cache (``_halton_units``)
_TABLES = 256


@lru_cache(maxsize=_TABLES)
def _halton_digits(count: int, base: int) -> tuple:
    """The seed-free parts of one scrambled Halton axis in ``base``, read-only.

    The (depth, base) table of unpermuted digit rows, one per digit of a
    54-bit fraction; the (count, depth) flat indices into that table of the
    digits of 0 .. count - 1, least significant first; and the digit scales
    1/b, 1/b/b, ..., as divided out left to right. Built once per (count, base).
    """
    depth = math.ceil(54 / math.log2(base)) - 1
    rows = np.tile(np.arange(base), (depth, 1))
    at = np.arange(count)[:, None] // base ** np.arange(depth) % base + base * np.arange(depth)
    scales = np.divide.accumulate(np.r_[1.0, np.full(depth, float(base))])[1:]
    for a in (rows, at, scales):
        a.setflags(write=False)
    return rows, at, scales


@lru_cache(maxsize=_TABLES)
def _halton_unit(count: int, m: int, seed: int) -> np.ndarray:
    """First ``count`` points of the scrambled Halton sequence in [0, 1)^m, read-only.

    Bitwise those of ``scipy.stats.qmc.Halton(d=m, scramble=True, seed=seed)``:
    axis k is the van der Corput sequence in the k-th prime base b, each of its
    54-bit digits permuted at random (Owen's randomised Halton). Built once per
    (count, m, seed), from digits and scales built once per (count, b).
    Prefix-stable: the first k points are the same for every count >= k.
    """
    pts = _halton_units(count, m, (seed,))[0]
    pts.setflags(write=False)
    return pts


def _halton_units(count: int, m: int, seeds) -> np.ndarray:
    """``_halton_unit(count, m, seed)`` for every seed, stacked (len(seeds), count, m).

    Not cached: each call builds its tables. Every seed's digit permutations
    come from its own generator, axis by axis, and the digit sums of all
    seeds are one stacked gather and accumulation per axis.
    """
    rngs = [np.random.default_rng(seed) for seed in seeds]
    primes = (k for k in itertools.count(2) if all(k % p for p in range(2, math.isqrt(k) + 1)))
    pts = np.empty((len(rngs), count, m))
    for axis, base in zip(range(m), primes):
        rows, at, scales = _halton_digits(count, base)
        # row j permutes digit j; rows are shuffled in order, as one shuffle per row would
        perms = np.stack([rng.permuted(rows, axis=1) for rng in rngs]).reshape(len(rngs), -1)
        # the digit sum, left to right as the reference adds it
        pts[..., axis] = np.add.accumulate(perms[:, at] * scales, axis=2)[..., -1]
    return pts


def box_sequence(box: np.ndarray, count: int, seed: int) -> np.ndarray:
    """First ``count`` points of a seeded Halton sequence scaled into the box.

    Prefix-stable: the first k points are the same for every count >= k,
    which keeps larger search budgets strict supersets of smaller ones.
    ``count`` and ``seed`` must be integers >= 0 (``PreconditionError``).
    """
    _check_integer("count", count, 0)
    _check_integer("seed", seed, 0)
    box = np.asarray(box, dtype=float)
    pts = _halton_unit(count, box.shape[0], seed)
    return box[:, 0] + pts * (box[:, 1] - box[:, 0])


def _box_sequences(box: np.ndarray, count: int, seeds) -> np.ndarray:
    """``box_sequence(box, count, seed)`` for every seed, stacked (len(seeds), count, m),
    from tables built for this call alone and left out of the cache."""
    return box[:, 0] + _halton_units(count, box.shape[0], seeds) * (box[:, 1] - box[:, 0])


def sphere_directions(m: int, count: int, seed: int) -> np.ndarray:
    """Unit directions in R^m from a seeded Halton sequence via the Box-Muller map, read-only.

    Halton axes 2i, 2i + 1 (h, h') give the Gaussian pair sqrt(-2 ln h) (cos 2 pi h',
    sin 2 pi h'); the first m are normalised. Built once per (m, count, seed). ``m`` must
    be an integer >= 1 and ``count`` and ``seed`` integers >= 0 (``PreconditionError``).
    """
    # checked before the cache, which would raise on an unhashable argument
    _check_integer("m", m, 1)
    _check_integer("count", count, 0)
    _check_integer("seed", seed, 0)
    return _sphere_directions(m, count, seed)


@lru_cache(maxsize=_TABLES)
def _sphere_directions(m: int, count: int, seed: int) -> np.ndarray:
    """``sphere_directions`` for checked arguments, built once per (m, count, seed)."""
    h = _halton_unit(count, 2 * ((m + 1) // 2), seed)
    # even axes give radii, odd axes angles; the clip keeps the log finite at 0
    r = np.sqrt(-2.0 * np.log(np.maximum(h[:, 0::2], HALTON_CLIP)))
    a = 2.0 * math.pi * h[:, 1::2]
    g = np.stack([r * np.cos(a), r * np.sin(a)], axis=2).reshape(h.shape)[:, :m]
    norms = np.linalg.norm(g, axis=1)
    norms[norms == 0] = 1.0
    directions = g / norms[:, None]
    directions.setflags(write=False)
    return directions


def axis_directions(m: int) -> np.ndarray:
    """The 2m signed coordinate axis directions."""
    eye = np.eye(m)
    return np.vstack([eye, -eye])


def _gaussian_stack(rng: np.random.Generator, shape: tuple, real: bool) -> np.ndarray:
    """Gaussian Hermitian matrices of ``shape`` (..., n, n), real symmetric if ``real``.

    The generator's stream is read as successive unscaled ``random_symmetric``
    (real) or ``random_hermitian`` draws of one matrix each would read it, in
    C order, so a stack is bitwise those draws.
    """
    if real:
        a = rng.standard_normal(shape)
    else:
        g = rng.standard_normal((*shape[:-2], 2, *shape[-2:]))
        a = g[..., 0, :, :] + 1j * g[..., 1, :, :]
    return (a + np.swapaxes(a.conj(), -1, -2)) / 2


def _unit_norm(h: np.ndarray) -> np.ndarray:
    """Every matrix of the Hermitian stack ``h`` scaled to unit spectral norm, from one
    stacked eigensolve; a matrix of norm 0 stays as it is."""
    nrm = np.max(np.abs(np.linalg.eigvalsh(h)), axis=-1)
    return h / np.where(nrm > 0, nrm, 1.0)[..., None, None]


def random_symmetric(rng: np.random.Generator, n: int, unit_norm: bool = True) -> np.ndarray:
    """Gaussian real symmetric matrix, optionally scaled to unit spectral norm."""
    s = _gaussian_stack(rng, (n, n), real=True)
    return _unit_norm(s) if unit_norm else s


def random_hermitian(rng: np.random.Generator, n: int, unit_norm: bool = True) -> np.ndarray:
    """Gaussian complex Hermitian matrix, optionally scaled to unit spectral norm."""
    h = _gaussian_stack(rng, (n, n), real=False)
    return _unit_norm(h) if unit_norm else h
