"""Reference conicality test: the one-point body that ``conical.test_conicality``
ran before its work moved into a kernel shared by many points, kept as the
oracle whose slopes, residuals, reasons and certificates the kernel must
reproduce bitwise, point by point, in a kernel call of one field: that of
the family's operator stack as it is stored."""

import numpy as np

from speccert import ControlHamiltonian, PreconditionError, degeneracy_tol
from speccert.conical import (
    DEFAULT_DIRECTIONS,
    RESIDUAL_MAX,
    ConicalCertificate,
    ConicalityResult,
)
from speccert.operators import _affine_stack
from speccert.sampling import axis_directions, sphere_directions
from speccert.spectrum import _decompose_stack


def reference_conicality(
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
    """``test_conicality`` at one point, its probes in one stacked eigensolve."""
    u_star = np.asarray(u_star, dtype=float)
    n = H.dim
    if not 1 <= level <= n - 1:
        raise PreconditionError(f"level must be in 1..{n - 1}, got {level}")
    if tau_deg is None:
        tau_deg = degeneracy_tol(H)
    if t0 is None:
        t0 = 1e-3 * H.box_diameter()
    if not (np.isfinite(t0) and t0 > 0):
        raise PreconditionError(f"probe radius t0 must be finite and positive, got {t0}")
    if c_min is None:
        c_min = 1e-6 * H.energy_scale / H.box_diameter()
    # the family's checked spectrum at u_star, in the field of its stored operators
    lam0 = _decompose_stack(_affine_stack(H._stack, u_star[None]), u_star[None])[0][0]

    def gap(j):
        return float(lam0[j] - lam0[j - 1])

    residual_gap = gap(level)
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
        if 1 <= adj <= n - 1 and gap(adj) < 10.0 * tau_deg:
            flank_ok = False
    others_simple = flank_ok and all(
        gap(l) >= 10.0 * tau_deg for l in range(1, n) if l != level
    )
    directions = np.vstack([axis_directions(H.m), sphere_directions(H.m, n_directions, rng_seed)])
    radii = np.array([t0, t0 / 2, t0 / 4])
    probes = u_star + radii[None, :, None] * directions[:, None, :]
    lam = np.linalg.eigvalsh(_affine_stack(H._stack, probes.reshape(-1, H.m)))
    lam = lam.reshape(*probes.shape[:2], n)
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
