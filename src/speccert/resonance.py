"""Non-resonance checks: simple spectrum with pairwise-distinct spectral gaps.

Only gap distinctness is certified here. Full rational independence of the
eigenvalues is not decidable from floating-point spectra, and distinct gaps
are exactly what the coupling-graph criterion consumes; the report metadata
records this weakening.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .operators import ControlHamiltonian
from .spectrum import SpectralPoint, _eigvals_stack, _simple_spectra, decompose, degeneracy_tol
from .tolerance import RES_TOL_SCALE, _check_integer, _check_tolerance

CERTIFIED_PROPERTY = "all pairwise spectral gaps distinct (rational independence not tested)"


@dataclass(frozen=True, eq=False)
class ResonanceReport:
    """Gap-distinctness evidence at one control point."""

    u_bar: np.ndarray
    min_gap_separation: float
    simple: bool
    tau_res: float

    @property
    def passed(self) -> bool:
        return self.simple and self.min_gap_separation >= self.tau_res

    def to_json_dict(self) -> dict:
        # inf at n = 2, where no two gaps are there to separate; strict JSON has no inf
        separation = self.min_gap_separation
        return {
            "u_bar": [float(x) for x in self.u_bar],
            "min_gap_separation": separation if np.isfinite(separation) else None,
            "simple": self.simple,
            "tau_res": self.tau_res,
            "passed": self.passed,
            "certified_property": CERTIFIED_PROPERTY,
        }


def _gap_stats(H: ControlHamiltonian, lam: np.ndarray, tau_res: float | None):
    """(min gap separation, simple, tau_res) per row of ascending spectra lam (N, n) of H."""
    n = lam.shape[1]
    diameter = lam[:, -1] - lam[:, 0]
    tau = RES_TOL_SCALE * diameter if tau_res is None else np.full(lam.shape[0], float(tau_res))
    simple = _simple_spectra(lam, degeneracy_tol(H))
    lower, upper = np.triu_indices(n, k=1)
    gaps = np.sort(lam[:, upper] - lam[:, lower], axis=1)
    # for sorted gaps the closest pair is adjacent, so this is the minimum
    # over all pairs, bit for bit: fl(b - a) >= fl(c - a) for a <= c <= b
    min_sep = np.min(np.diff(gaps, axis=1), axis=1) if n > 2 else np.full(lam.shape[0], np.inf)
    return min_sep, simple, tau


def check_nonresonant(
    H: ControlHamiltonian, u, tau_res: float | None = None
) -> ResonanceReport:
    """Enumerate all unordered spectral gaps at u and measure their separation.

    The point passes when the spectrum is simple and the smallest difference
    between two distinct unordered gaps is at least tau_res (default
    1e-6 times the local spectral diameter). Frame-independent and
    deterministic. A given ``tau_res`` must be finite and positive
    (``PreconditionError``).
    """
    _check_tolerance("tau_res", tau_res)
    return _point_report(H, decompose(H, u), tau_res)


def _point_report(
    H: ControlHamiltonian, sp: SpectralPoint, tau_res: float | None = None
) -> ResonanceReport:
    """The ``check_nonresonant`` report of H at the decomposed point sp."""
    min_sep, simple, tau = _gap_stats(H, sp.eigenvalues[None, :], tau_res)
    return ResonanceReport(
        u_bar=sp.u,
        min_gap_separation=float(min_sep[0]),
        simple=bool(simple[0]),
        tau_res=float(tau[0]),
    )


@dataclass(frozen=True, eq=False)
class NonresonantSample:
    """Result of a randomized search for a non-resonant control point."""

    report: ResonanceReport | None
    tried: int
    acceptance_rate: float
    # the chosen point as ``decompose`` returns it, None when none was found
    _point: SpectralPoint | None = field(default=None, repr=False)

    @property
    def found(self) -> bool:
        return self.report is not None

    def to_json_dict(self) -> dict:
        return {
            "found": self.found,
            "report": None if self.report is None else self.report.to_json_dict(),
            "tried": self.tried,
            "acceptance_rate": self.acceptance_rate,
        }


def sample_nonresonant(
    H: ControlHamiltonian,
    budget: int,
    rng_seed: int,
    tau_res: float | None = None,
) -> NonresonantSample:
    """Draw up to ``budget`` uniform points from the box; return the first pass.

    Non-resonant points are generically dense, so random search succeeds on
    well-behaved families; exhausting the budget signals a resonant family
    (e.g. a spectrum frozen by zero-acting controls). The acceptance rate over
    all evaluated candidates is recorded either way. ``budget`` must be an
    integer >= 1, ``rng_seed`` one >= 0 and a given ``tau_res`` finite and
    positive (``PreconditionError``).

    Every candidate is screened on its eigenvalues alone, computed without
    frames, and only their sum is checked, against the trace
    (``NumericalError``, as for a solve that does not converge); the
    acceptance rate counts the screen's passes. Only the chosen point is
    decomposed, with ``decompose``'s checks of residual, orthonormality and
    trace, and its report is ``check_nonresonant``'s at that point. A
    screened pass whose report fails there, which only a last-bit difference
    between the two eigensolvers can cause, is passed over for the next. The
    chosen point's ``SpectralPoint`` rides along, outside the document and the
    repr, so that ``certify`` builds its coupling graph without a second solve.
    """
    _check_integer("budget", budget, 1)
    _check_integer("rng_seed", rng_seed, 0)
    _check_tolerance("tau_res", tau_res)
    rng = np.random.default_rng(rng_seed)
    lo, hi = H.box[:, 0], H.box[:, 1]
    # all candidates are drawn up front so the result is the first pass by
    # index even if the evaluation order ever changes
    candidates = lo + rng.random((budget, H.m)) * (hi - lo)
    lam = _eigvals_stack(H.matrices_at(candidates), candidates)
    min_sep, simple, tau = _gap_stats(H, lam, tau_res)
    passed = np.flatnonzero(simple & (min_sep >= tau))
    rate = len(passed) / budget
    for k in passed.tolist():
        sp = decompose(H, candidates[k])
        report = _point_report(H, sp, tau_res)
        if report.passed:
            return NonresonantSample(report=report, tried=budget, acceptance_rate=rate, _point=sp)
    return NonresonantSample(report=None, tried=budget, acceptance_rate=rate)
