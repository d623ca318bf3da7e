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
from scipy.optimize import minimize

from .errors import PreconditionError
from .operators import ControlHamiltonian
from .sampling import axis_directions, box_sequence, sphere_directions
from .spectrum import decompose, degeneracy_tol

DEFAULT_DIRECTIONS = 32
RESIDUAL_MAX = 0.1
INTERIOR_REL_MARGIN = 1e-6


def spectral_diameter_estimate(H: ControlHamiltonian) -> float:
    """Spectral diameter max(lambda_n - lambda_1) over probe points: ``H.energy_scale``."""
    return H.energy_scale


def _gap_value(H: ControlHamiltonian, u: np.ndarray, j: int) -> float:
    lam = np.linalg.eigvalsh(H.matrix_at(u))
    return float(lam[j] - lam[j - 1])


def _gap_sq_and_grad(H: ControlHamiltonian, u: np.ndarray, j: int):
    """Squared gap and its gradient from first-order eigenvalue perturbation.

    d lambda_j / d u_l = <phi_j, H_l phi_j> for a simple eigenvalue; near the
    degeneracy the squared gap stays smooth even though the gap itself is not.
    """
    lam, vecs = np.linalg.eigh(H.matrix_at(u))
    g = float(lam[j] - lam[j - 1])
    lo = vecs[:, j - 1]
    hi = vecs[:, j]
    grad = np.empty(H.m)
    for l, hop in enumerate(H.controlled):
        hm = hop.matrix
        grad[l] = 2.0 * g * float((hi.conj() @ hm @ hi).real - (lo.conj() @ hm @ lo).real)
    return g * g, grad


def locate_intersection(
    H: ControlHamiltonian,
    level: int,
    seeds,
    tau_deg: float | None = None,
    simplex_maxfev: int = 400,
) -> np.ndarray | None:
    """Search the box for a point where levels (level, level+1) become degenerate.

    Minimizes the squared gap from each seed with bounded Nelder-Mead, then
    polishes with a gradient step (first-order eigenvalue derivatives) while
    the gap is still above the acceptance threshold. Returns the best interior
    minimizer with gap <= tau_deg, or None when every run stalls above it or
    only box-boundary minimizers remain.

    Parameters
    ----------
    level : int
        1-based index j of the lower level of the pair (1 <= j <= n-1).
    seeds : iterable of control points
        Start points for the multistart search; must lie inside the box.
    """
    n = H.dim
    if not 1 <= level <= n - 1:
        raise PreconditionError(f"level must be in 1..{n - 1}, got {level}")
    if tau_deg is None:
        tau_deg = degeneracy_tol(H)
    bounds = [(float(lo), float(hi)) for lo, hi in H.box]
    margin = INTERIOR_REL_MARGIN * (H.box[:, 1] - H.box[:, 0])
    best_gap = np.inf
    best_u = None
    for s in seeds:
        s = np.asarray(s, dtype=float)
        if not H.contains(s):
            raise PreconditionError(f"seed {s.tolist()} lies outside the control box")
        res = minimize(
            lambda u: _gap_value(H, u, level) ** 2,
            s,
            method="Nelder-Mead",
            bounds=bounds,
            options={"xatol": 1e-10, "fatol": 1e-24, "maxfev": simplex_maxfev},
        )
        u = np.asarray(res.x, dtype=float)
        g = _gap_value(H, u, level)
        if g > tau_deg:
            polished = minimize(
                lambda v: _gap_sq_and_grad(H, v, level),
                u,
                jac=True,
                method="L-BFGS-B",
                bounds=bounds,
                options={"ftol": 1e-20, "gtol": 1e-18, "maxiter": 200},
            )
            gp = _gap_value(H, np.asarray(polished.x), level)
            if gp < g:
                u, g = np.asarray(polished.x, dtype=float), gp
        # boundary minimizers are dropped first, so one cannot hide an interior one
        interior = np.all(u > H.box[:, 0] + margin) and np.all(u < H.box[:, 1] - margin)
        if interior and g < best_gap:
            best_gap, best_u = g, u
    if best_u is None or best_gap > tau_deg:
        return None
    return best_u


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
    low-discrepancy unit directions, probes radii {t0, t0/2, t0/4}, and fits
    gap ~ s_v * t through the origin per direction. Certifies iff the smallest
    slope clears ``c_min`` and every per-direction relative fit residual is at
    most ``residual_max``; a large residual indicates tangential or
    higher-order contact.

    Raises
    ------
    PreconditionError
        If the point is not degenerate at ``tau_deg``, or the ball of radius
        t0 around it leaves the box.
    """
    u_star = np.asarray(u_star, dtype=float)
    n = H.dim
    if not 1 <= level <= n - 1:
        raise PreconditionError(f"level must be in 1..{n - 1}, got {level}")
    if tau_deg is None:
        tau_deg = degeneracy_tol(H)
    if t0 is None:
        t0 = 1e-3 * H.box_diameter()
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
    slopes = np.empty(directions.shape[0])
    residuals = np.empty(directions.shape[0])
    for i, v in enumerate(directions):
        g = np.array([_gap_value(H, u_star + t * v, level) for t in radii])
        s = float(radii @ g / (radii @ radii))
        misfit = g - s * radii
        denom = max(float(np.linalg.norm(g)), 1e-300)
        slopes[i] = s
        residuals[i] = float(np.linalg.norm(misfit)) / denom

    def _reject(reason: str) -> ConicalityResult:
        return ConicalityResult(
            conical=False,
            certificate=None,
            reason=reason,
            slopes=slopes,
            fit_residuals=residuals,
            directions=directions,
        )

    if not flank_ok:
        return _reject("degeneracy multiplicity is not exactly two at this point")
    worst = int(np.argmin(slopes))
    if slopes[worst] <= c_min:
        return _reject(
            f"gap slope {slopes[worst]:.3e} along direction {directions[worst].tolist()} "
            f"does not exceed c_min {c_min:.3e}"
        )
    bad = int(np.argmax(residuals))
    if residuals[bad] > residual_max:
        return _reject(
            f"linear fit residual {residuals[bad]:.3f} along direction "
            f"{directions[bad].tolist()} exceeds {residual_max}; contact is not linear"
        )
    cert = ConicalCertificate(
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
        conical=True,
        certificate=cert,
        reason="",
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

    For each level j runs a multistart gap minimization from ``seed_budget``
    low-discrepancy seeds (plus optional user hints) and submits any located
    point to the conicality test. Status is "certified" iff every level has a
    conical certificate with all other levels simple there; otherwise
    "incomplete". Incompleteness is a status, not an error.
    """
    if seed_budget < 1:
        raise PreconditionError("seed_budget must be at least 1")
    if tau_deg is None:
        tau_deg = degeneracy_tol(H)
    seeds = list(box_sequence(H.box, seed_budget, rng_seed))
    if hints is not None:
        seeds = [np.asarray(h, dtype=float) for h in hints] + seeds
    certificates: dict = {}
    failures: dict = {}
    for j in range(1, H.dim):
        u_star = locate_intersection(H, j, seeds, tau_deg=tau_deg)
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
        elif not result.certificate.others_simple:
            failures[j] = "other levels are not simple at the located intersection"
            certificates[j] = result.certificate
        else:
            certificates[j] = result.certificate
    status = "certified" if all(
        j in certificates and certificates[j].others_simple and j not in failures
        for j in range(1, H.dim)
    ) else "incomplete"
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
