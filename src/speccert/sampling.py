"""Seeded low-discrepancy and random-matrix sampling helpers."""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np
from scipy.special import ndtri

# tables kept per (count, dimension, seed); a call of the genericity ensemble
# touches one box-sequence table per trial, so the bound keeps a few calls' worth
_TABLES = 256


@lru_cache(maxsize=_TABLES)
def _halton_unit(count: int, m: int, seed: int) -> np.ndarray:
    """First ``count`` points of the scrambled Halton sequence in [0, 1)^m, read-only.

    Bitwise those of ``scipy.stats.qmc.Halton(d=m, scramble=True, seed=seed)``:
    axis k is the van der Corput sequence in the k-th prime base b, each of its
    54-bit digits permuted at random (Owen's randomised Halton). Built once per
    (count, m, seed). Prefix-stable: the first k points are the same for every
    count >= k.
    """
    rng = np.random.default_rng(seed)
    primes = (k for k in itertools.count(2) if all(k % p for p in range(2, math.isqrt(k) + 1)))
    pts = np.empty((count, m))
    for axis, base in zip(range(m), primes):
        depth = math.ceil(54 / math.log2(base)) - 1
        # row j permutes digit j; rows are shuffled in order, as one shuffle per row would
        perms = rng.permuted(np.tile(np.arange(base), (depth, 1)), axis=1)
        digits = np.arange(count)[:, None] // base ** np.arange(depth) % base
        # 1/b, 1/b/b, ... and the digit sum, left to right as the reference adds them
        scales = np.divide.accumulate(np.r_[1.0, np.full(depth, float(base))])[1:]
        pts[:, axis] = np.add.accumulate(perms[np.arange(depth), digits] * scales, axis=1)[:, -1]
    pts.setflags(write=False)
    return pts


def box_sequence(box: np.ndarray, count: int, seed: int) -> np.ndarray:
    """First ``count`` points of a seeded Halton sequence scaled into the box.

    Prefix-stable: the first k points are the same for every count >= k,
    which keeps larger search budgets strict supersets of smaller ones.
    """
    box = np.asarray(box, dtype=float)
    pts = _halton_unit(count, box.shape[0], seed)
    return box[:, 0] + pts * (box[:, 1] - box[:, 0])


@lru_cache(maxsize=_TABLES)
def sphere_directions(m: int, count: int, seed: int) -> np.ndarray:
    """Unit directions in R^m from a seeded Halton sequence via the Gaussian map, read-only.

    Built once per (m, count, seed).
    """
    # keep strictly inside (0,1) so the inverse CDF stays finite
    pts = np.clip(_halton_unit(count, m, seed), 1e-12, 1 - 1e-12)
    g = ndtri(pts)
    norms = np.linalg.norm(g, axis=1)
    norms[norms == 0] = 1.0
    directions = g / norms[:, None]
    directions.setflags(write=False)
    return directions


def axis_directions(m: int) -> np.ndarray:
    """The 2m signed coordinate axis directions."""
    eye = np.eye(m)
    return np.vstack([eye, -eye])


def random_symmetric(rng: np.random.Generator, n: int, unit_norm: bool = True) -> np.ndarray:
    """Gaussian real symmetric matrix, optionally scaled to unit spectral norm."""
    a = rng.standard_normal((n, n))
    s = (a + a.T) / 2
    if unit_norm:
        nrm = float(np.max(np.abs(np.linalg.eigvalsh(s))))
        if nrm > 0:
            s = s / nrm
    return s


def random_hermitian(rng: np.random.Generator, n: int, unit_norm: bool = True) -> np.ndarray:
    """Gaussian complex Hermitian matrix, optionally scaled to unit spectral norm."""
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = (a + a.conj().T) / 2
    if unit_norm:
        nrm = float(np.max(np.abs(np.linalg.eigvalsh(h))))
        if nrm > 0:
            h = h / nrm
    return h
