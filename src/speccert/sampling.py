"""Seeded low-discrepancy and random-matrix sampling helpers."""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.stats import norm, qmc

# tables kept per (count, dimension, seed); a call of the genericity ensemble
# touches one box-sequence table per trial, so the bound keeps a few calls' worth
_TABLES = 256


@lru_cache(maxsize=_TABLES)
def _halton_unit(count: int, m: int, seed: int) -> np.ndarray:
    """First ``count`` points of the scrambled Halton sequence in [0, 1)^m, read-only.

    Built once per (count, m, seed). Prefix-stable: the first k points are the
    same for every count >= k.
    """
    pts = qmc.Halton(d=m, scramble=True, seed=seed).random(count)
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
    g = norm.ppf(pts)
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
