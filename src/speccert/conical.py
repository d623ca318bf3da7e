"""Locating eigenvalue intersections and certifying their conical character.

An intersection between adjacent levels j, j+1 at an interior control point
u* is conical when the gap grows at least linearly in every direction:
gap(u* + t v) > c t for some c > 0, every unit v and small t > 0. The tests
here sample directions and radii, fit per-direction slopes through the
origin, and certify from the worst sampled direction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .operators import ControlHamiltonian, _affine_stack
from .sampling import _halton_unit, axis_directions, box_sequence, sphere_directions
from .spectrum import decompose, degeneracy_tol

DEFAULT_DIRECTIONS = 32
RESIDUAL_MAX = 0.1
INTERIOR_REL_MARGIN = 1e-6
# Gauss-Newton locator, per seed: the iteration cap; the largest step, as a
# fraction of the box diagonal; the factor the step cap shrinks by after a
# rejected step; and the full-step length, in box diagonals, beyond which the
# linearised nearest degeneracy is too far out for the seed to reach one
MAX_ITERATIONS = 64
STEP_FRACTION = 0.25
SHRINK = 0.25
FAR_STEP = 10.0
# runs that end without a hit restart from fresh low-discrepancy points, up to
# RESTARTS times per seed, drawn from a sequence scrambled with RESTART_SEED
RESTARTS = 2
RESTART_SEED = 0x5EED


def spectral_diameter_estimate(H: ControlHamiltonian) -> float:
    """Spectral diameter max(lambda_n - lambda_1) over probe points: ``H.energy_scale``."""
    return H.energy_scale


def locate_intersection(
    H: ControlHamiltonian,
    level: int,
    seeds,
    tau_deg: float | None = None,
) -> np.ndarray | None:
    """Search the box for a point where levels (level, level+1) become degenerate.

    From every seed, a damped Gauss-Newton solve drives the traceless part of
    H(u), restricted to the crossing pair's eigenframe P, to zero. With
    B_l = P^dagger H_l P, the residual is r = (gap/2, 0, 0) and the Jacobian
    rows are ((B_l)_11 - (B_l)_00)/2, Re (B_l)_01 and Im (B_l)_01 (first-order
    eigenvalue perturbation, so a cone is reached quadratically). Each step is
    the minimum-norm least-squares solution of J step = -r, capped in length
    and clipped to the box; it is kept only if the gap falls, and the cap
    widens after a kept step and shrinks after a rejected one. A seed ends at
    gap <= tau_deg, when its cap falls to roundoff, when its full step is more
    than ``FAR_STEP`` box diagonals long (the gap has a positive minimum
    nearby, an avoided crossing), or after ``MAX_ITERATIONS``. A run that ends
    anywhere but at an interior hit restarts from the seed's next point of a
    fixed low-discrepancy sequence, up to ``RESTARTS`` times per seed. All
    seeds run in lockstep, one stacked eigensolve per iteration, and no seed's
    path depends on which other seeds share the batch.

    Returns the point reached by the first seed, in seed order, whose runs end
    at an interior point with gap <= tau_deg, or None when no seed does. Since
    each seed's outcome depends on that seed and its position alone, the
    result is prefix-stable: appending seeds never changes a point already
    found.

    Parameters
    ----------
    level : int
        1-based index j of the lower level of the pair (1 <= j <= n-1).
    seeds : iterable of control points
        Start points for the multistart search; must lie inside the box.
    """
    _check_level(H, level)
    if tau_deg is None:
        tau_deg = degeneracy_tol(H)
    U = _seed_array(H, seeds)
    if U.size == 0:
        return None
    return _locate_groups([(H, level, U, tau_deg)])[0]


def _check_level(H: ControlHamiltonian, level: int) -> None:
    if not 1 <= level <= H.dim - 1:
        raise PreconditionError(f"level must be in 1..{H.dim - 1}, got {level}")


def _seed_array(H: ControlHamiltonian, seeds) -> np.ndarray:
    """Seeds as a (k, m) float array, each checked to lie in the box."""
    message = f"seeds must be control points of length {H.m}"
    try:
        U = np.array(list(seeds), dtype=float)
    except (TypeError, ValueError) as exc:
        # ragged or non-numeric seeds
        raise PreconditionError(message) from exc
    if U.size == 0:
        return U
    if U.ndim != 2 or U.shape[1] != H.m:
        raise PreconditionError(message)
    for s in U:
        if not H.contains(s):
            raise PreconditionError(f"seed {s.tolist()} lies outside the control box")
    return U


def _locate_groups(groups) -> list:
    """``locate_intersection`` for many groups in one lockstep solve.

    A group is (H, level, seeds, tau): a family, the lower level of the pair,
    a non-empty (k, m) array of checked seeds and the degeneracy threshold.
    All groups share n and m. Every slot (one seed of one group) carries its
    group's index, and the group's operators, box, step caps, threshold and
    first hit are gathered per slot, so one stacked eigensolve per iteration
    serves every family, level and seed. A slot's path depends on its own
    group, seed and position only (``_affine_stack``, stacked ``eigh`` and
    ``pinv`` work row by row), so each group's answer is bitwise the one a
    solve of that group alone returns. Returns one point or None per group.
    """
    if not groups:
        return []
    Hs, levels, seed_sets, taus = zip(*groups)
    counts = np.array([len(U) for U in seed_sets])
    start = np.cumsum(counts) - counts
    grp = np.repeat(np.arange(len(groups)), counts)
    pos = np.arange(len(grp)) - start[grp]  # a slot's position in its group's seed order
    U = np.concatenate(seed_sets, dtype=float)
    n, m = Hs[0].dim, Hs[0].m
    ops = np.stack([H._stack for H in Hs])
    box = np.stack([H.box for H in Hs])
    lo, hi = box[grp, :, 0], box[grp, :, 1]
    margin = INTERIOR_REL_MARGIN * (hi - lo)
    inner_lo, inner_hi = lo + margin, hi - margin
    diameter = np.array([H.box_diameter() for H in Hs])
    cap_max = STEP_FRACTION * diameter[grp]
    cap_min = (np.finfo(float).eps * (diameter + np.max(np.abs(box), axis=(1, 2))))[grp]
    far_step = FAR_STEP * diameter[grp]
    level = np.array(levels)[grp]
    tau = np.array(taus, dtype=float)[grp]
    # slot i of a group restarts from points i*RESTARTS ... of one prefix-stable
    # sequence, scaled to the group's box as box_sequence scales it
    unit = _halton_unit(int(counts.max()) * RESTARTS, m, RESTART_SEED)

    def pair_at(idx, points):
        lam, vecs = np.linalg.eigh(_affine_stack(ops[grp[idx]], points))
        j, rows = level[idx], np.arange(len(idx))
        gap = lam[rows, j] - lam[rows, j - 1]
        return gap, np.take_along_axis(vecs, (j - 1)[:, None, None] + np.arange(2), axis=2)

    k = len(grp)
    gap = np.empty(k)
    pair = np.empty((k, n, 2), dtype=complex)
    cap = np.empty(k)
    iterations = np.zeros(k, dtype=int)
    runs = np.zeros(k, dtype=int)
    far = np.zeros(k, dtype=bool)
    live = np.zeros(k, dtype=bool)
    fresh = np.ones(k, dtype=bool)  # slots whose run starts at U
    first = counts.copy()  # per group, the position of the first slot that ended at an interior hit
    while True:
        if fresh.any():
            f = np.nonzero(fresh)[0]
            gap[f], pair[f] = pair_at(f, U[f])
            cap[f], iterations[f], far[f] = cap_max[f], 0, False
            live |= fresh
        ended = live & (gap <= tau)
        hits = ended & np.all((U > inner_lo) & (U < inner_hi), axis=1)
        np.minimum.at(first, grp[hits], pos[hits])
        # slots after their group's first hit cannot change its answer
        useful = pos < first[grp]
        over = live & (ended | far | (cap <= cap_min) | (iterations >= MAX_ITERATIONS))
        live &= ~over & useful
        # a run that ends without a hit restarts its slot from the slot's next point
        fresh = over & ~hits & (runs < RESTARTS) & useful
        f = np.nonzero(fresh)[0]
        U[f] = lo[f] + unit[pos[f] * RESTARTS + runs[f]] * (hi[f] - lo[f])
        runs[f] += 1
        if not live.any():
            if fresh.any():
                continue
            break
        a = np.nonzero(live)[0]
        B = np.einsum("kia,klij,kjb->klab", pair[a].conj(), ops[grp[a], 1:], pair[a])
        J = np.stack(
            [(B[..., 1, 1].real - B[..., 0, 0].real) / 2, B[..., 0, 1].real, B[..., 0, 1].imag],
            axis=1,
        )
        step = -(gap[a] / 2)[:, None] * np.linalg.pinv(J)[:, :, 0]
        length = np.linalg.norm(step, axis=1)
        # a longer step puts the nearest zero of the linear model far outside
        # the box, as at an avoided crossing, where the gap has a positive minimum
        near = length <= far_step[a]
        far[a[~near]] = True
        a, step, length = a[near], step[near], length[near]
        step *= np.minimum(1.0, cap[a] / np.maximum(length, np.finfo(float).tiny))[:, None]
        trial = np.clip(U[a] + step, lo[a], hi[a])
        trial_gap, trial_pair = pair_at(a, trial)
        better = trial_gap < gap[a]
        keep = a[better]
        U[keep], gap[keep], pair[keep] = trial[better], trial_gap[better], trial_pair[better]
        cap[a] = np.where(
            better, np.minimum(2.0 * cap[a], cap_max[a]), SHRINK * np.minimum(cap[a], length)
        )
        iterations[a] += 1
    return [None if first[g] == counts[g] else U[start[g] + first[g]] for g in range(len(groups))]


@dataclass(frozen=True)
class ConicalCertificate:
    """Evidence that an adjacent-level intersection is conical.

    ``c_hat`` is the smallest fitted gap slope over all sampled directions,
    a lower-bound estimate of the conicality constant. ``others_simple``
    records whether every other adjacent gap at u_star clears 10x the
    degeneracy threshold.
    """

    level: int
    u_star: np.ndarray
    c_hat: float
    residual_gap: float
    direction_slopes: np.ndarray
    others_simple: bool
    t0: float
    n_directions: int

    def to_json_dict(self) -> dict:
        return {
            "level": self.level,
            "u_star": [float(x) for x in self.u_star],
            "c_hat": self.c_hat,
            "slopes": [float(s) for s in self.direction_slopes],
            "others_simple": bool(self.others_simple),
            "t0": self.t0,
            "K": self.n_directions,
        }


@dataclass(frozen=True)
class ConicalityResult:
    """Outcome of the conicality test: a certificate or a reasoned rejection."""

    conical: bool
    certificate: ConicalCertificate | None
    reason: str
    slopes: np.ndarray
    fit_residuals: np.ndarray
    directions: np.ndarray


def test_conicality(
    H: ControlHamiltonian,
    u_star,
    level: int,
    t0: float | None = None,
    n_directions: int = DEFAULT_DIRECTIONS,
    c_min: float | None = None,
    residual_max: float = RESIDUAL_MAX,
    tau_deg: float | None = None,
    rng_seed: int = 0,
) -> ConicalityResult:
    """Test whether a located degeneracy opens linearly in every sampled direction.

    Samples the 2m coordinate axis directions plus ``n_directions`` seeded
    low-discrepancy unit directions, probes radii {t0, t0/2, t0/4} (all
    probes in one stacked eigensolve), and fits gap ~ s_v * t through the
    origin per direction. Certifies iff the smallest slope clears ``c_min``
    and every per-direction relative fit residual is at most
    ``residual_max``; a large residual indicates tangential or higher-order
    contact.

    Raises
    ------
    PreconditionError
        If ``t0`` is not finite and positive, the point is not degenerate at
        ``tau_deg``, or the ball of radius t0 around it leaves the box.
    """
    u_star = np.asarray(u_star, dtype=float)
    n = H.dim
    _check_level(H, level)
    if tau_deg is None:
        tau_deg = degeneracy_tol(H)
    if t0 is None:
        t0 = 1e-3 * H.box_diameter()
    if not (np.isfinite(t0) and t0 > 0):
        raise PreconditionError(f"probe radius t0 must be finite and positive, got {t0}")
    if c_min is None:
        c_min = 1e-6 * H.energy_scale / H.box_diameter()
    sp = decompose(H, u_star)
    residual_gap = sp.gap(level)
    if residual_gap > tau_deg:
        raise PreconditionError(
            f"point is not degenerate at level {level}: gap {residual_gap:.3e} > tau {tau_deg:.3e}"
        )
    if not H.contains(u_star, margin=t0):
        raise PreconditionError(
            f"u_star must be interior to the box with margin {t0:.3g} for radial probing"
        )
    # multiplicity must be exactly two: both flanking adjacent gaps clear 10*tau
    flank_ok = True
    for adj in (level - 1, level + 1):
        if 1 <= adj <= n - 1 and sp.gap(adj) < 10.0 * tau_deg:
            flank_ok = False
    others_simple = flank_ok and all(
        sp.gap(l) >= 10.0 * tau_deg for l in range(1, n) if l != level
    )
    directions = np.vstack([axis_directions(H.m), sphere_directions(H.m, n_directions, rng_seed)])
    radii = np.array([t0, t0 / 2, t0 / 4])
    probes = u_star + radii[None, :, None] * directions[:, None, :]
    lam = np.linalg.eigvalsh(H.matrices_at(probes.reshape(-1, H.m))).reshape(*probes.shape[:2], n)
    g = lam[:, :, level] - lam[:, :, level - 1]
    slopes = g @ radii / (radii @ radii)
    misfit = g - slopes[:, None] * radii
    residuals = np.linalg.norm(misfit, axis=1) / np.maximum(np.linalg.norm(g, axis=1), 1e-300)
    worst = int(np.argmin(slopes))
    bad = int(np.argmax(residuals))
    reason = ""
    if not flank_ok:
        reason = "degeneracy multiplicity is not exactly two at this point"
    elif not slopes[worst] > c_min:  # a nan slope never certifies
        reason = (
            f"gap slope {slopes[worst]:.3e} along direction {directions[worst].tolist()} "
            f"does not exceed c_min {c_min:.3e}"
        )
    elif residuals[bad] > residual_max:
        reason = (
            f"linear fit residual {residuals[bad]:.3f} along direction "
            f"{directions[bad].tolist()} exceeds {residual_max}; contact is not linear"
        )
    cert = None if reason else ConicalCertificate(
        level=level,
        u_star=u_star,
        c_hat=float(slopes[worst]),
        residual_gap=residual_gap,
        direction_slopes=slopes,
        others_simple=others_simple,
        t0=float(t0),
        n_directions=n_directions,
    )
    return ConicalityResult(
        conical=not reason,
        certificate=cert,
        reason=reason,
        slopes=slopes,
        fit_residuals=residuals,
        directions=directions,
    )


# not a unit test, despite the domain name
test_conicality.__test__ = False


@dataclass(frozen=True)
class ConnectednessReport:
    """Per-level conical certificates and the overall certified/incomplete status.

    The report is evidence, not proof: conicality is checked only at the
    located intersection points, over the stated box.
    """

    certificates: dict
    failures: dict
    status: str
    metadata: dict

    @property
    def certified(self) -> bool:
        return self.status == "certified"

    def to_json_dict(self) -> dict:
        return {
            "status": self.status,
            "certificates": {
                str(j): cert.to_json_dict() for j, cert in sorted(self.certificates.items())
            },
            "failures": {str(j): msg for j, msg in sorted(self.failures.items())},
            "metadata": self.metadata,
        }

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, sort_keys=True, indent=2)


def certify_connectedness(
    H: ControlHamiltonian,
    seed_budget: int,
    rng_seed: int = 0,
    hints=None,
    tau_deg: float | None = None,
    t0: float | None = None,
) -> ConnectednessReport:
    """Search every adjacent level pair for a certified conical intersection.

    For every level j locates an intersection from the user hints, if any,
    followed by ``seed_budget`` low-discrepancy seeds (all levels in one
    lockstep solve, each level's point the one ``locate_intersection``
    returns), and submits the located point to the conicality test. Status is
    "certified" iff every level has a conical certificate with all other
    levels simple there; otherwise "incomplete". Incompleteness is a status, not an error.
    """
    if seed_budget < 1:
        raise PreconditionError("seed_budget must be at least 1")
    if tau_deg is None:
        tau_deg = degeneracy_tol(H)
    seeds = list(box_sequence(H.box, seed_budget, rng_seed))
    if hints is not None:
        seeds = [np.asarray(h, dtype=float) for h in hints] + seeds
    U = _seed_array(H, seeds)
    located = _locate_groups([(H, j, U, tau_deg) for j in range(1, H.dim)])
    certificates: dict = {}
    failures: dict = {}
    for j, u_star in enumerate(located, start=1):
        if u_star is None:
            failures[j] = "no interior intersection located"
            continue
        try:
            result = test_conicality(H, u_star, j, t0=t0, tau_deg=tau_deg, rng_seed=rng_seed)
        except PreconditionError as exc:
            failures[j] = f"located point failed conicality preconditions: {exc}"
            continue
        if not result.conical:
            failures[j] = result.reason
        else:
            certificates[j] = result.certificate
            if not result.certificate.others_simple:
                failures[j] = "other levels are not simple at the located intersection"
    status = "certified" if not failures else "incomplete"
    metadata = {
        "box": H.box.tolist(),
        "seed_budget": seed_budget,
        "rng_seed": rng_seed,
        "tau_deg": tau_deg,
        "n_hints": 0 if hints is None else len(hints),
        "caveat": "conicality verified only at located points inside the stated box",
    }
    return ConnectednessReport(
        certificates=certificates, failures=failures, status=status, metadata=metadata
    )
