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


# Cephes ndtri: the rational approximations of the standard normal quantile,
# highest-order coefficient first; the Q tables omit their leading 1
_SQRT_2PI = 2.50662827463100050242e0
_EXP_M2 = 0.13533528323661269189
_P0 = (
    -5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
    1.39312609387279679503e1, -1.23916583867381258016e0,
)
_Q0 = (
    1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
    -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
    1.59056225126211695515e1, -1.18331621121330003142e0,
)
_P1 = (
    4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
    4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
    -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4,
)
_Q1 = (
    1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
    1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
    -3.80806407691578277194e-2, -9.33259480895457427372e-4,
)
_P2 = (
    3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
    1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
    3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9,
)
_Q2 = (
    6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
    2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
    2.89247864745380683936e-6, 6.79019408009981274425e-9,
)


def _polevl(x: float, coef: tuple, monic: bool = False) -> float:
    """Horner's rule; ``monic`` prepends a leading coefficient of 1."""
    ans = x + coef[0] if monic else coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _ndtri(y: float) -> float:
    """Standard normal quantile of y in [0, 1], bitwise ``scipy.special.ndtri`` (Cephes)."""
    if y == 0.0:
        return -math.inf
    if y == 1.0:
        return math.inf
    if not 0.0 < y < 1.0:
        return math.nan
    upper = y > 1.0 - _EXP_M2
    if upper:
        y = 1.0 - y
    if y > _EXP_M2:
        y = y - 0.5
        y2 = y * y
        return (y + y * (y2 * _polevl(y2, _P0) / _polevl(y2, _Q0, monic=True))) * _SQRT_2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    # x < 8 is y > exp(-32)
    p, q = (_P1, _Q1) if x < 8.0 else (_P2, _Q2)
    x = x0 - z * _polevl(z, p) / _polevl(z, q, monic=True)
    return x if upper else -x


def sphere_directions(m: int, count: int, seed: int) -> np.ndarray:
    """Unit directions in R^m from a seeded Halton sequence via the Gaussian map, read-only.

    Built once per (m, count, seed). ``m`` must be an integer >= 1 and
    ``count`` and ``seed`` integers >= 0 (``PreconditionError``).
    """
    # checked before the cache, which would raise on an unhashable argument
    _check_integer("m", m, 1)
    _check_integer("count", count, 0)
    _check_integer("seed", seed, 0)
    return _sphere_directions(m, count, seed)


@lru_cache(maxsize=_TABLES)
def _sphere_directions(m: int, count: int, seed: int) -> np.ndarray:
    """``sphere_directions`` for checked arguments, built once per (m, count, seed)."""
    # keep strictly inside (0,1) so the inverse CDF stays finite
    pts = np.clip(_halton_unit(count, m, seed), HALTON_CLIP, 1 - HALTON_CLIP)
    g = np.array([_ndtri(y) for y in pts.ravel().tolist()]).reshape(pts.shape)
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
