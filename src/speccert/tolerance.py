"""The package's tolerance policy: every threshold and numerical guard, and the argument contract.

Each decision the package draws from floating-point spectra (levels that
cross, a simple spectrum, distinct gaps, the rank of a bracket span) is a
threshold, and each threshold is defined here once, with its derivation or a
note that it is a modelling choice or a guard. The rounding bounds cited are
those of a backward-stable Hermitian eigensolver such as ``eigh`` (LAPACK
Users' Guide, 3rd ed., section 4.7): for a matrix A and unit roundoff eps,
each computed eigenvalue lies within p(n) eps ||A|| of an exact one, each
computed eigenpair has a residual of at most p(n) eps ||A||, the computed
frame is orthonormal to p(n) eps, and an eigenvector's angle error is at most
about p(n) eps ||A|| / gap (Davis and Kahan, SIAM J. Numer. Anal. 7, 1970),
where p(n) is a modest function of n. A "modelling choice" is a value the
method picks, not one that rounding dictates. Lengths in control units are
marked absolute where they are.

The module imports numpy and the error classes only, so every other module
can read it.
"""

from __future__ import annotations

import numpy as np

from .errors import PreconditionError

# -- Eigensolve checks (``spectrum._failed_rows``) ----------------------------

# Each bounds one eigh's backward error. The eigenpair residual and the
# eigenvalue sum against the trace are at most p(n) eps ||A||; the check reads
# ||A|| as max |lambda| (|trace| for the sum) plus 1, so the bound is absolute
# below unit norm. 1e-9 allows p(n) up to about 4.5e6: it flags a failed
# solve, not rounding.
RESIDUAL_TOL = 1e-9
# the largest entry of |V^dagger V - I| for eigh's frame V, p(n) eps; 1e-10
# allows p(n) up to about 4.5e5
ORTHONORMALITY_TOL = 1e-10

# -- Degeneracy -----------------------------------------------------------------

# Two adjacent levels are degenerate when their gap is at most DEGENERACY_REL
# times the family's spectral scale (``spectrum.degeneracy_tol``): the one
# degeneracy threshold of the package, also the resolution at which a locator
# step's gain counts as a stall. A modelling choice: relative to the scale,
# eigh's eigenvalue rounding is p(n) eps, about seven orders of magnitude
# below it, so it judges near-crossings, not rounding.
DEGENERACY_REL = 1e-8
# A located point's two flanking gaps, and for ``others_simple`` every other
# adjacent gap, must clear SIMPLE_GAP_FACTOR times the degeneracy threshold;
# a modelling choice.
SIMPLE_GAP_FACTOR = 10.0
# Slack of the branch tracker's Lipschitz sanity check (``spectrum.track``),
# per unit of the family's Lipschitz bound sum_l ||H_l||, on top of the
# degeneracy threshold; a modelling choice.
TRACK_LIPSCHITZ_SLACK = 1e-7

# -- Input contract -------------------------------------------------------------

# Largest Hermiticity defect |A - A^dagger| per entry, relative to the largest
# entry, at which a matrix is accepted (``operators._within_hermiticity_tol``).
# A matrix that is Hermitian up to the rounding of a few operations on its
# entries has a defect of a few eps times that entry; a modelling choice
# that refuses a genuinely non-Hermitian input.
HERMITICITY_TOL = 1e-12

# -- Locator and conicality test (``conical``) ----------------------------------

# A located point closer to a box face than this fraction of the box side is
# an edge hit, not an interior one; a modelling choice.
INTERIOR_REL_MARGIN = 1e-6
# A square Gauss-Newton Jacobian is solved in closed form (adjugate over
# determinant) when its Hadamard ratio |det J| / prod ||row_i|| exceeds this,
# and by the SVD-based pinv otherwise, as at a decoupled (block-diagonal)
# pair. The ratio is 1 for orthogonal rows and 0 for dependent ones, and the
# closed form's rounding grows as its inverse; a modelling choice.
STEP_HADAMARD_MIN = 1e-8
# Default probe radius ``t0``, in box diagonals; a modelling choice.
PROBE_RADIUS_REL = 1e-3
# Default conicality floor ``c_min``, in ``energy_scale`` per box diagonal; a
# modelling choice.
C_MIN_REL = 1e-6
# Largest relative misfit of a direction's linear gap fit; above it the
# contact reads as tangential or of higher order. A modelling choice.
RESIDUAL_MAX = 0.1

# -- Non-resonance and the coupling graph -----------------------------------------

# Default gap-separation threshold of the non-resonance check, times the
# point's spectral diameter; a modelling choice.
RES_TOL_SCALE = 1e-6
# Default coupling-edge threshold, times the largest control norm. A matrix
# element that is zero by structure reads as rounding in eigh's frame: p(n) eps
# ||H_l||, plus eps ||H|| ||H_l|| / gap from the frame's angle error
# (Davis-Kahan). A modelling choice above that rounding at gaps of order the
# scale.
EDGE_TOL_SCALE = 1e-9

# -- Lie closure (``lie_closure``) --------------------------------------------------

# Default relative rank tolerance: a row adds a direction only when its
# residual against the span exceeds RANK_TOL times its norm and twice its
# rounding estimate (the closure's per-element bound, n eps for a generator).
# A modelling choice.
RANK_TOL = 1e-9
# A bracket of unit generators with norm at or below this is zero, whatever
# its rounding estimate; the one zero that a class depends on. A modelling
# choice, about 4500 eps.
BRACKET_ZERO_TOL = 1e-12
# The distance from orthonormal within which the closure keeps its basis.
CLOSURE_ORTHONORMALITY = 1e-12
# Share of its norm below which a leaf projects a row's residual off the whole
# span once more: two passes off the recent rows leave it orthogonal to older
# ones to about c eps / share, c measured, not bounded (below 5 in 4000 random
# closures at n <= 8, about 10 once in 1,800 reducible ones at n = 16). A
# modelling choice for c up to 8: 8 eps / CLOSURE_ORTHONORMALITY, 1.8e-3.
REPROJECT_BELOW = 8 * np.finfo(float).eps / CLOSURE_ORTHONORMALITY
# Quaternionic-structure witness (``lie_closure._sp_witness``): J solves the
# intertwining equations when the stacked system's smallest singular value is
# at most SP_WITNESS_NULL_REL times its largest, and J passes when J J^dagger - I
# and J conj(J) + I are at most SP_WITNESS_TOL per entry. Modelling choices.
SP_WITNESS_NULL_REL = 1e-8
SP_WITNESS_TOL = 1e-6

# -- Propagation and climbs (``adiabatic``) -----------------------------------------

# Largest | ||psi0|| - 1 | of an initial state; a modelling choice that admits a
# state normalised to about nine digits (float64 normalisation leaves
# sqrt(n) eps).
UNIT_NORM_TOL = 1e-9
# Relative slack of ``propagate``'s step count, ceil(dur * spread / limit *
# (1 - STEP_COUNT_SLACK)): above the rounding that an energy offset c I leaves
# in the spread (eps |c| / spread, relative, for offsets up to about 10^6
# spreads), so that rounding adds no step where the quotient is an integer,
# and below 1 / steps for every count within the step budget (10^8).
STEP_COUNT_SLACK = 1e-9
# Final-state error a climb aims for, in the Richardson estimate; a modelling
# choice.
CLIMB_TOLERANCE = 1e-6
# A connector's closest approach to an obstacle within this fraction of either
# end of its segment is left to that end (a segment parameter, no unit); a
# modelling choice.
ROUTE_END_MARGIN = 1e-9
# An absolute length in control units at or below which two control points
# coincide: a passage direction that short falls back to the first axis, a
# detour whose obstacle lies on the segment steps aside perpendicularly, and
# ``climb`` drops a waypoint that close to the previous one (times the box
# diagonal, when the diagonal is longer than 1).
CONTROL_LENGTH_ZERO = 1e-12

# -- Sampling -----------------------------------------------------------------------

# The radius axes of a probe direction's Halton point are clipped from below
# at HALTON_CLIP before the Box-Muller log, a guard that keeps it finite at 0.
HALTON_CLIP = 1e-12


# -- The argument contract ----------------------------------------------------------


def _check_tolerance(name: str, value, optional: bool = True) -> None:
    """Reject a tolerance, radius or speed that is not a finite real number > 0.

    None stands for a default the caller computes, and passes when
    ``optional``; a parameter whose default is a number, or that has no
    default, is checked with ``optional=False``, so None is refused there too.
    A nan threshold fails every comparison and an infinite or non-positive
    one makes every or no gap count, so each would turn a verdict silently;
    a nan or negative detour radius would likewise never detour a climb.
    A bool, a string or a sequence is refused too, not left to raise a TypeError.
    """
    if value is None and optional:
        return
    real = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    if not (real and 0 < value < np.inf):
        raise PreconditionError(f"{name} must be finite and positive, got {value}")


def _check_integer(name: str, value, low: int, high: int | None = None) -> None:
    """Reject a count or index that is not an integer in low..high (no upper end when None).

    A bool or a float, integral or not, is refused: a level of 1.5 would
    index between levels, a nan budget would compare false with every bound,
    and True would pass for 1 silently.
    """
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not (integer and low <= value and (high is None or value <= high)):
        span = f">= {low}" if high is None else f"in {low}..{high}"
        raise PreconditionError(f"{name} must be an integer {span}, got {value}")
