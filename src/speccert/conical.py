"""Locating eigenvalue intersections and certifying their conical character.

An intersection between adjacent levels j, j+1 at an interior control point
u* is conical when the gap grows at least linearly in every direction:
gap(u* + t v) > c t for some c > 0, every unit v and small t > 0. The tests
here sample directions and radii, fit per-direction slopes through the
origin, and certify from the worst sampled direction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, SpeccertError, StructuralError
from .operators import (
    ControlHamiltonian,
    _affine_stack,
    _box_diameters,
    _numeric_array,
    _write_json,
)
from .sampling import _halton_unit, _sphere_directions, axis_directions, box_sequence
from .spectrum import _block_rows, _decompose_stack, _failed_rows, degeneracy_tol
from .tolerance import (
    C_MIN_REL,
    DEGENERACY_REL,
    FIT_NORM_FLOOR,
    INTERIOR_REL_MARGIN,
    PROBE_RADIUS_REL,
    RESIDUAL_MAX,
    SIMPLE_GAP_FACTOR,
    STEP_HADAMARD_MIN,
    _check_integer,
    _check_tolerance,
)

DEFAULT_DIRECTIONS = 32
# Gauss-Newton locator, per seed: the iteration cap; the largest step, as a
# fraction of the box diagonal; the factor the step cap shrinks by after a
# rejected step; the full-step length, in box diagonals, beyond which the
# linearised nearest degeneracy is too far out for the seed to reach one; and
# the full-step length, in box diagonals, beyond which that degeneracy lies
# outside the box (no box point is farther than one diagonal from another),
# which ends a run when it holds at two consecutive points of the run
MAX_ITERATIONS = 64
STEP_FRACTION = 0.25
SHRINK = 0.25
FAR_STEP = 10.0
OUTSIDE_STEP = 1.0
# runs that end without a hit restart from fresh low-discrepancy points, up to
# RESTARTS times per seed, drawn from a sequence scrambled with RESTART_SEED
RESTARTS = 2
RESTART_SEED = 0x5EED
# how a locator run ends, as ``_locate_groups`` counts them (see there)
END_REASONS = ("hit", "edge", "far", "cap", "iterations", "stall", "face", "outside")
# the smallest n at which a group starts with its first seed's first run alone
# and releases each next seed's first run as its predecessor's restart is
# released: from n = 6 on, the eigensolve rows of seeds keyed after a group's
# answer cost more than the extra lockstep iterations (about 200 us each) of
# the later starts; below it every seed starts at once (measured on one BLAS
# thread)
LAZY_SEED_MIN_DIM = 6


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
    eigenvalue perturbation, so a cone is reached quadratically); a real
    family runs in real arithmetic, where the last row is identically zero
    and dropped. Each step is the minimum-norm least-squares solution of
    J step = -r, in closed form for a square J that is far from singular
    (``STEP_HADAMARD_MIN``) and by ``pinv`` otherwise, capped in length
    and clipped to the box; it is kept only if the gap falls, and the cap
    widens after a kept step and shrinks after a rejected one. A seed ends at
    gap <= tau_deg, when its cap falls to roundoff, when its full step is more
    than ``FAR_STEP`` box diagonals long (the gap has a positive minimum
    nearby, an avoided crossing), or after ``MAX_ITERATIONS``. It also ends
    when a kept step lowers the gap by no more than ``DEGENERACY_REL`` times
    the spectral spread lambda_n - lambda_1 at its new point (a stall: the
    run crawls towards a positive minimum of the gap), when a rejected
    step starts on a box face, its full step points beyond that face, and
    the step projected onto the face lowers the gap, to first order, by no
    more than that same resolution (the run is pinned there: its clipped
    trials are projections, not descent steps), and when its full step is
    longer than ``OUTSIDE_STEP`` box
    diagonals at two consecutive points of the run, its start and the points
    it moves to (the linear model has put the nearest degeneracy outside the
    box twice, as on a crawl into an avoided crossing, where the gap has a
    positive minimum and Gauss-Newton converges slowly if at all). A run that
    ends anywhere but at an interior hit restarts from the
    seed's next point of a fixed low-discrepancy sequence, up to ``RESTARTS``
    times per seed.

    Every run of every seed advances in lockstep, one stacked eigensolve per
    iteration, one trial per run. A seed's next run starts as soon as its
    current run first rejects a step or ends without an interior hit,
    alongside it, so the schedule is shorter than the runs one after
    another. Below n = ``LAZY_SEED_MIN_DIM`` every seed's first run starts
    at once; from it on only the first seed's does, and each seed's first
    run starts the next seed's first run as it starts its own restart, so
    seeds after the answer are rarely solved. Each run still takes exactly
    the steps it would take alone, and no run's path depends on which other
    seeds share the batch or when it starts.

    Returns the point reached by the first seed, in seed order, whose runs end
    at an interior point with gap <= tau_deg (its first such run), or None
    when no seed does. Since each seed's outcome depends on that seed and its
    position alone, the result is prefix-stable: appending seeds never
    changes a point already found.

    Parameters
    ----------
    level : int
        1-based index j of the lower level of the pair (1 <= j <= n-1).
    seeds : iterable of control points
        Start points for the multistart search; must lie inside the box.
    tau_deg : float, optional
        Degeneracy threshold, finite and > 0; ``degeneracy_tol(H)`` when None.

    Raises
    ------
    PreconditionError
        For a level that is not an integer in 1..n-1, a seed outside the box
        or of the wrong length, or a ``tau_deg`` that is not finite and
        positive.
    """
    _check_integer("level", level, 1, H.dim - 1)
    _check_tolerance("tau_deg", tau_deg)
    U = _seed_array(H, seeds)
    if U.size == 0:
        return None
    if tau_deg is None:
        tau_deg = degeneracy_tol(H)
    return _locate_groups([(H._stack, H.box, level, U, tau_deg)])[0]


def _seed_array(H: ControlHamiltonian, seeds) -> np.ndarray:
    """Seeds as a new (k, m) float array of points in the box, (0, m) for no seeds.

    Each seed is read as ``contains`` reads a point: a ragged seed, a string,
    a dict, bools or a seed of another length is malformed, and one with an
    inf or nan entry lies in no box. One array comparison tests the box and
    names the first seed outside it. Every refusal is a PreconditionError.
    """
    message = f"seeds must be control points of length {H.m}"
    try:
        points = list(seeds)
    except TypeError as exc:
        raise PreconditionError(f"{message}: {exc}") from exc
    if not points:
        return np.empty((0, H.m))
    try:
        U = _numeric_array(points, "seeds").astype(float)
    except StructuralError as exc:
        raise PreconditionError(f"{message}: {exc}") from exc
    if U.ndim != 2 or U.shape[1] != H.m:
        raise PreconditionError(f"{message}, got shape {U.shape}")
    outside = ~np.all((U >= H.box[:, 0]) & (U <= H.box[:, 1]), axis=1)
    if outside.any():
        s = U[int(np.argmax(outside))]
        raise PreconditionError(f"seed {s.tolist()} lies outside the control box")
    return U


def _gauss_newton_steps(pair: np.ndarray, controls: np.ndarray, gap: np.ndarray) -> np.ndarray:
    """Minimum-norm Gauss-Newton steps (k, m) that close the crossing pairs' gaps.

    ``pair`` (k, n, 2) holds each pair's eigenframe P, ``controls``
    (k, m, n, n) the control operators H_l and ``gap`` (k,) the pair's gap.
    With B_l = P^dagger (H_l P), the Jacobian rows are
    ((B_l)_11 - (B_l)_00)/2, Re (B_l)_01 and, for a complex frame only,
    Im (B_l)_01 (identically zero in a real one). Returns
    -(gap/2) times the first column of J's (pseudo-)inverse, row by row.
    """
    B = _pair_blocks(pair, controls)
    rows = [(B[..., 1, 1].real - B[..., 0, 0].real) / 2, B[..., 0, 1].real]
    if np.iscomplexobj(B):
        rows.append(B[..., 0, 1].imag)
    return -(gap / 2)[:, None] * _inverse_first_column(np.stack(rows, axis=1))


def _pair_blocks(pair: np.ndarray, controls: np.ndarray) -> np.ndarray:
    """The 2x2 blocks B_l = P^dagger (H_l P) (k, m, 2, 2) of the control operators
    ``controls`` (k, m, n, n) in the pair frames P ``pair`` (k, n, 2); the gap's
    derivative along u_l is (B_l)_11 - (B_l)_00."""
    return pair.conj().swapaxes(1, 2)[:, None] @ (controls @ pair[:, None])


def _inverse_first_column(J: np.ndarray) -> np.ndarray:
    """First column (k, m) of the pseudo-inverse of each (d, m) Jacobian in J (k, d, m).

    A square J (real m = 2, complex m = 3) whose Hadamard ratio
    |det J| / prod ||row_i|| exceeds ``STEP_HADAMARD_MIN`` takes the first
    column of its adjugate over its determinant; every other row, and every
    non-square J, takes ``np.linalg.pinv(J)[:, :, 0]``.
    """
    k, d, m = J.shape
    if d != m:
        return np.linalg.pinv(J)[:, :, 0]
    # the cofactors of J's first row: the adjugate's first column
    if d == 2:
        adj = J[:, 1, ::-1] * (1.0, -1.0)
    else:
        r, s = J[:, 1], J[:, 2]
        adj = r[:, [1, 2, 0]] * s[:, [2, 0, 1]] - r[:, [2, 0, 1]] * s[:, [1, 2, 0]]
    # the determinant and the product of the row norms, as np.sum, np.prod and
    # np.linalg.norm reduce them
    det = np.add.reduce(J[:, 0] * adj, axis=1)
    scale = np.multiply.reduce(np.sqrt(np.add.reduce(J * J, axis=2)), axis=1)
    # a nan determinant fails the test too, and pinv then raises as it always did
    closed = np.abs(det) > STEP_HADAMARD_MIN * scale
    col = np.divide(adj, det[:, None], out=np.empty((k, m)), where=closed[:, None])
    if not closed.all():
        col[~closed] = np.linalg.pinv(J[~closed])[:, :, 0]
    return col


def _locate_groups(groups, reasons=None) -> list:
    """``locate_intersection`` for many groups in one lockstep solve.

    A group is (stack, box, level, seeds, tau): a family's (m + 1, n, n)
    operator stack and (m, 2) box, the lower level of the pair, a non-empty
    (k, m) array of checked seeds and the degeneracy threshold. All groups
    share n and m.

    Every run of every seed is a slot of its own, keyed
    position * (RESTARTS + 1) + run within its group: run 0 starts at the
    seed, run r >= 1 at the seed's restart point r. A restart resets the step
    cap, the iteration count and the far test, so a run's path depends on its
    start point alone, and a group's answer is the point of its lowest-keyed
    slot that ends at an interior hit: the run a seed-by-seed, run-by-run
    search reaches first. Slots keyed at or above it are dropped. Run r + 1
    is released at run r's first rejected step or when run r ends without a
    hit, since runs that hit rarely reject a step. Below
    n = ``LAZY_SEED_MIN_DIM`` every seed's run 0 is released at the start;
    from it on only the first seed's is, and the same event of a seed's run 0
    also releases the next seed's run 0. Either way every slot keyed below a
    group's first hit is released and run to its end (a run that releases
    nothing ends at an interior hit or is dropped behind a lower-keyed one,
    and the slots it would release are keyed above that hit), so when a slot
    starts changes the work, never an answer.

    A run ends without a hit by ``far``, ``cap`` or ``iterations`` (see
    ``locate_intersection``), by ``stall`` when a kept step lowers the gap by
    no more than ``DEGENERACY_REL`` times lambda_n - lambda_1 at its new
    point, by ``face`` when a rejected trial starts from a point on a box
    face, the full step's target u + step lies beyond that same face, and
    the projected step p (the step with the clipped coordinates zeroed)
    lowers the gap, to first order sum_l ((B_l)_11 - (B_l)_00) p_l with B_l
    the control operators' blocks in the pair frame (``_pair_blocks``), by
    no more than the stall resolution of that trial's spectrum, or by
    ``outside`` when the full step solved at its point is longer than
    ``OUTSIDE_STEP`` box diagonals and so was the one solved at its previous
    point. The stall test is the package's one degeneracy resolution, so it
    depends on neither the energy unit nor ``tau``. In the interior the step
    is a descent direction (the gap falls as (1 - t) gap for small t), so
    shorter trials there are kept; on a face the clipped trials are u + t p,
    which descend for small t only when p does, and the run waits for a
    rejection there, since runs that touch a face and move on do hit. A
    step is solved at a run's start and at every point it moves to, so the
    outside end counts points, not iterations, and is unit-free; it asks for
    two points because runs that cross a flat patch once and then hit are
    common. A step longer than ``FAR_STEP`` diagonals ends the run by
    ``far`` at once. Every end releases the run's successors alike. Unlike
    ``stall`` and ``face``, the outside end can end a run that would have
    hit, so it moves answers: a seed's later run, or a later seed, then
    supplies the group's point.

    A rejected step leaves the point, gap and pair frame as they were, so the
    next trial depends on the shrunken cap alone. Each iteration evaluates
    one trial per live slot, and every released start point, in one stacked
    eigensolve, each row with its group's operators; the stall and face
    tests judge each trial on its own spectrum. Every live slot is evaluated
    in every iteration, and an iteration judges only the slots it
    evaluated, so its work grows with its rows, not with the call's slots.

    The matrices, eigensolves and pair frames are in the field of the
    stacks as ``np.stack`` joins them: float64 when every stack is, else
    complex for every group. Each step comes from ``_gauss_newton_steps``:
    stacked products for the Jacobian, then a closed-form solve for a
    square one or ``pinv``. A
    slot's path depends on its own group, seed and run and on the call's
    field only (``_affine_stack``, stacked ``eigh`` and ``matmul`` and the
    step solve work row by row), so in a call of one field each group's
    answer is bitwise the one a solve of that group alone returns; a real
    group in a call with complex ones is solved in complex arithmetic, to
    rounding the same. Returns one point or None per group.

    ``reasons``, when given, is a dict to which the counts of how the runs
    ended are added under the names of ``END_REASONS``: "hit" and "edge" (a
    degeneracy inside or outside the interior margin) and the six ends
    above. A run dropped behind its group's first hit is not counted.
    """
    if not groups:
        return []
    stacks, boxes, levels, seed_sets, taus = zip(*groups)
    ops = np.stack(stacks)
    controls = ops[:, 1:]
    restarts = RESTARTS
    runs = restarts + 1
    counts = np.array([len(U) for U in seed_sets])
    # slots lie group by group in key order, so a run's successor is the next slot
    grp = np.repeat(np.arange(len(groups)), counts * runs)
    start = (np.cumsum(counts) - counts) * runs
    key = np.arange(len(grp)) - start[grp]
    pos, run = np.divmod(key, runs)
    box = np.stack(boxes)
    n, m = ops.shape[-1], box.shape[1]
    lo, hi = box[grp, :, 0], box[grp, :, 1]
    margin = INTERIOR_REL_MARGIN * (hi - lo)
    inner_lo, inner_hi = lo + margin, hi - margin
    diameter = _box_diameters(box)
    cap_max = STEP_FRACTION * diameter[grp]
    cap_min = (np.finfo(float).eps * (diameter + np.max(np.abs(box), axis=(1, 2))))[grp]
    far_step = FAR_STEP * diameter[grp]
    outside_step = OUTSIDE_STEP * diameter[grp]
    level = np.array(levels)[grp]
    tau = np.array(taus, dtype=float)[grp]
    # run r >= 1 of seed i starts from point i*RESTARTS + r - 1 of one
    # prefix-stable sequence, scaled to the group's box as box_sequence scales it
    unit = _halton_unit(int(counts.max()) * restarts, m, RESTART_SEED)
    U = np.empty((len(grp), m))
    U[run == 0] = np.concatenate(seed_sets, dtype=float)
    r = np.nonzero(run)[0]
    U[r] = lo[r] + unit[pos[r] * restarts + run[r] - 1] * (hi[r] - lo[r])

    k = len(grp)
    gap = np.empty(k)
    pair = np.empty((k, n, 2), dtype=ops.dtype)
    cap = np.empty(k)
    iterations = np.zeros(k, dtype=int)
    step = np.empty((k, m))
    length = np.empty(k)
    # whether the full step solved at the run's last point left the box
    beyond = np.zeros(k, dtype=bool)
    # from LAZY_SEED_MIN_DIM on, a seed's run 0 is a successor of the previous
    # seed's run 0, keyed RESTARTS + 1 slots on; below it every run 0 starts now
    lazy = n >= LAZY_SEED_MIN_DIM
    released = (run == 0) & (pos == 0) if lazy else run == 0
    # per group, the key of its lowest-keyed slot that ended at an interior hit
    first = counts * runs
    tiny = np.finfo(float).tiny
    new = np.nonzero(released)[0]  # slots whose runs start at this iteration's eigensolve
    # per slot, 1 + the index in END_REASONS of how its run ended; 0 while it
    # runs, or when it is dropped behind its group's first hit
    why = None if reasons is None else np.zeros(k, dtype=np.int8)
    # the live slots and their trial points, one per slot and row
    a = np.empty(0, dtype=int)
    trial = np.empty((0, m))
    while True:
        idx, points = a, trial
        if len(new):
            idx, points = np.concatenate([a, new]), np.concatenate([trial, U.take(new, 0)])
        lam, vecs = np.linalg.eigh(_affine_stack(ops.take(grp[idx], 0), points))
        rows, j = np.arange(len(idx)), level[idx]
        row_gap = lam[rows, j] - lam[rows, j - 1]
        # columns j - 1 and j of each row's eigenvectors, as (rows, n, 2)
        row_pair = vecs[rows[:, None], :, j[:, None] + (-1, 0)].transpose(0, 2, 1)
        t = len(a)
        # the evaluated slots, released starts first
        ev = a
        if len(new):
            gap[new], pair[new] = row_gap[t:], row_pair[t:]
            cap[new], iterations[new] = cap_max[new], 0
            ev = np.concatenate([new, a])
        # which slots stayed at their point
        unmoved = np.zeros(len(ev), dtype=bool)
        # which slots stalled at a positive gap or are pinned to a box face
        stuck = np.zeros(len(ev), dtype=bool)
        if t:
            trial_gap = row_gap[:t]
            kept = trial_gap < gap[a]
            # how far each trial lowered the gap, against the degeneracy
            # resolution of its spectrum
            drop = gap[a] - trial_gap
            resolution = DEGENERACY_REL * (lam[:t, -1] - lam[:t, 0])
            s = a[kept]
            U[s], gap[s], pair[s] = trial[kept], trial_gap[kept], row_pair[:t][kept]
            # a rejected trial from a box face, toward a full step's target
            # beyond that same face, is pinned there: its clipped trials are
            # projections, which need not lower the gap however short. The
            # box clips such a target back onto u in that coordinate, and no
            # other target that differs from u there
            u = U.take(a, 0)
            target = u + step.take(a, 0)
            onto = np.minimum(np.maximum(target, lo.take(a, 0)), hi.take(a, 0)) == u
            pinned = np.logical_or.reduce(onto & (target != u), axis=1)
            # unless the projected step (the step with those coordinates zeroed)
            # lowers the gap, to first order, by more than the stall resolution:
            # then shorter trials along it are kept, and the run may still hit
            c = np.nonzero(pinned & ~kept)[0]
            if len(c):
                f = a[c]
                B = _pair_blocks(pair.take(f, 0), controls.take(grp[f], 0))
                projected = np.where(onto[c], 0.0, step.take(f, 0))
                slope = np.add.reduce((B[..., 1, 1].real - B[..., 0, 0].real) * projected, axis=1)
                pinned[c] = -slope <= resolution[c]
            stuck[len(new) :] = np.where(kept, drop <= resolution, pinned)
            # a kept trial doubles the cap, a rejected one shrinks it
            grown = np.minimum(2.0 * cap[a], cap_max[a])
            cap[a] = np.where(kept, grown, SHRINK * np.minimum(cap[a], length[a]))
            iterations[a] += 1
            unmoved[len(new) :] = ~kept
        ended = gap[ev] <= tau[ev]
        capped = cap[ev] <= cap_min[ev]
        limited = iterations[ev] >= MAX_ITERATIONS
        over = ended | capped | limited | stuck
        # every evaluated slot is keyed below its group's first hit until a hit
        # lowers that key; slots keyed after it cannot change the group's answer
        hits, useful = ended, True
        if ended.any():
            u = U.take(ev, 0)
            inside = (u > inner_lo.take(ev, 0)) & (u < inner_hi.take(ev, 0))
            hits = ended & np.logical_and.reduce(inside, axis=1)
            np.minimum.at(first, grp[ev[hits]], key[ev[hits]])
            useful = key[ev] < first[grp[ev]]
        solve = ~(unmoved | over) & useful
        d = ev[solve]
        step[d] = sd = _gauss_newton_steps(pair.take(d, 0), controls.take(grp[d], 0), gap[d])
        length[d] = np.sqrt(np.add.reduce(sd * sd, axis=1))
        # a longer step puts the nearest zero of the linear model far outside
        # the box, as at an avoided crossing, where the gap has a positive
        # minimum; a step longer than the box at two consecutive points of a
        # run has put it outside the box twice, as on a crawl into such a minimum
        far = ~(length[d] <= far_step[d])
        out = length[d] > outside_step[d]
        over[solve] = far | (out & beyond[d])
        beyond[d] = out
        if why is not None:
            # hit, edge, cap, iterations, stall and face, then outside among
            # the runs that ended at their step solve; the other ends are far
            left = np.zeros(len(ev), dtype=bool)
            left[solve] = ~far
            ends = [hits, ended, capped, limited, stuck & ~unmoved, stuck, left]
            why[ev[over]] = np.select(ends, [1, 2, 4, 5, 6, 7, 8], 3)[over]
        a = ev[~over & useful]
        # a run's successors are released when the run ends without a hit or
        # first rejects a step (later rejections find them released): its
        # restart, and under the lazy schedule a first run's next seed too. A
        # useful run's successors are keyed at most at its group's first hit,
        # and that slot was released when it started
        succeed = ((over & ~hits) | unmoved) & useful
        new = ev[succeed & (run[ev] < restarts)] + 1
        if lazy:
            seeded = succeed & (run[ev] == 0) & (pos[ev] + 1 < counts[grp[ev]])
            new = np.concatenate([new, ev[seeded] + runs])
        new = new[~released[new]]
        released[new] = True
        if not (len(a) or len(new)):
            break
        clipped = np.minimum(1.0, cap[a] / np.maximum(length[a], tiny))
        trial = U.take(a, 0) + step.take(a, 0) * clipped[:, None]
        trial = np.minimum(np.maximum(trial, lo.take(a, 0)), hi.take(a, 0))
    if why is not None:
        tally = np.bincount(why, minlength=len(END_REASONS) + 1)[1:]
        for name, count in zip(END_REASONS, tally):
            reasons[name] = reasons.get(name, 0) + int(count)
    return [None if f == c * runs else U[s + f] for f, c, s in zip(first, counts, start)]


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
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
    origin per direction. Certifies iff the smallest slope clears ``c_min`` and every
    per-direction relative fit residual is at most ``residual_max``; a large
    residual indicates tangential or higher-order contact. ``t0`` defaults to
    1e-3 box diagonals, ``c_min`` to 1e-6 ``H.energy_scale`` per box diagonal.

    Raises
    ------
    PreconditionError
        If ``level`` is not an integer in 1..n-1, ``n_directions`` or
        ``rng_seed`` is not an integer >= 0, ``residual_max`` or a given
        ``t0``, ``c_min`` or ``tau_deg`` is not finite and positive, the point
        is not degenerate at ``tau_deg``, or the ball of radius t0 around it
        leaves the box.
    StructuralError
        If ``u_star`` is not m finite numbers.
    NumericalError
        If the eigendecomposition at ``u_star`` fails ``decompose``'s checks.
    """
    _check_integer("level", level, 1, H.dim - 1)
    _check_integer("n_directions", n_directions, 0)
    _check_integer("rng_seed", rng_seed, 0)
    u_star = H._checked_point(u_star, "u_star")
    for name, value in (("t0", t0), ("c_min", c_min), ("tau_deg", tau_deg)):
        _check_tolerance(name, value)
    _check_tolerance("residual_max", residual_max, optional=False)
    if tau_deg is None:
        tau_deg = degeneracy_tol(H)
    (outcome,) = _conicality_rows(
        [(H._stack, H.box, level, u_star, tau_deg, H.energy_scale)],
        t0=t0,
        n_directions=n_directions,
        c_min=c_min,
        residual_max=residual_max,
        rng_seed=rng_seed,
    )
    if isinstance(outcome, SpeccertError):
        raise outcome
    return outcome


def _conicality_rows(
    rows,
    t0: float | None = None,
    n_directions: int = DEFAULT_DIRECTIONS,
    c_min: float | None = None,
    residual_max: float = RESIDUAL_MAX,
    rng_seed: int = 0,
) -> list:
    """``test_conicality`` for many points in three stacked steps.

    A row is (stack, box, level, u_star, tau, energy_scale): a family's
    (m + 1, n, n) operator stack and (m, 2) box, a valid lower level of the
    pair, a control point of length m, the degeneracy threshold and the
    family's ``energy_scale``. All rows share n and m; ``t0`` and ``c_min``
    are checked by the caller and, when None, default per row as
    ``test_conicality`` sets them. One checked eigensolve at the points,
    judged row by row, decides each row's preconditions; one eigensolve over
    the probes of every row that meets them, taken in blocks of at most
    ``BLOCK_ENTRIES`` matrix entries (``_block_rows``), and array fits give
    the slopes. As in
    ``_locate_groups``, the matrices and eigensolves are float64 when every
    stack is, complex otherwise. Every step works row by row
    (``_affine_stack``, stacked ``eigh``/``eigvalsh`` and batched products),
    so in a call of one field each row's outcome is bitwise what
    ``test_conicality`` returns for it alone: per row, a ConicalityResult or
    the SpeccertError the test raises. The results of one call share one
    read-only array of directions.
    """
    if not rows:
        return []
    stacks, boxes, levels, points, taus, scales = zip(*rows)
    ops = np.stack(stacks)
    box = np.stack(boxes)
    level = np.array(levels)
    U = np.array(points, dtype=float)
    tau = np.array(taus, dtype=float)
    N, n, m = len(rows), ops.shape[-1], box.shape[1]
    diameter = _box_diameters(box)
    t0s = PROBE_RADIUS_REL * diameter if t0 is None else np.full(N, t0, dtype=float)
    if c_min is None:
        # a diagonal that underflows to 0 leaves a row that ``fits`` refuses
        with np.errstate(divide="ignore", invalid="ignore"):
            c_mins = C_MIN_REL * np.array(scales, dtype=float) / diameter
    else:
        c_mins = np.full(N, c_min, dtype=float)
    mats = _affine_stack(ops, U)
    lam, vecs = _decompose_stack(mats, U, check=False)
    failed = _failed_rows(mats, U, lam, vecs)
    gaps = np.diff(lam, axis=1)  # gaps[:, l - 1] is the gap above level l
    residual_gap = gaps[np.arange(N), level - 1]
    # a default radius is 0 only where the box diagonal underflows
    margin = t0s[:, None]
    fits = (t0s > 0) & np.all((U >= box[..., 0] + margin) & (U <= box[..., 1] - margin), axis=1)
    outcomes = [None] * N
    for k in range(N):
        if k in failed:
            outcomes[k] = failed[k]
        elif residual_gap[k] > tau[k]:
            outcomes[k] = PreconditionError(
                f"point is not degenerate at level {levels[k]}: "
                f"gap {residual_gap[k]:.3e} > tau {tau[k]:.3e}"
            )
        elif not fits[k]:
            outcomes[k] = PreconditionError(
                f"u_star must be interior to the box with margin {t0s[k]:.3g} for radial probing"
            )
    # multiplicity must be exactly two: both flanking adjacent gaps clear the
    # simple-gap bound
    pair = np.arange(1, n) - level[:, None]
    simple_gap = SIMPLE_GAP_FACTOR * tau[:, None]
    flank_ok = ~np.any((gaps < simple_gap) & (np.abs(pair) == 1), axis=1)
    others_simple = flank_ok & np.all((gaps >= simple_gap) | (pair == 0), axis=1)
    directions = np.vstack([axis_directions(m), _sphere_directions(m, n_directions, rng_seed)])
    directions.setflags(write=False)
    radii = np.stack([t0s, t0s / 2, t0s / 4], axis=1)
    probed = [k for k in range(N) if outcomes[k] is None]
    per_block = _block_rows(3 * len(directions) * n * n)
    for first in range(0, len(probed), per_block):
        b = np.array(probed[first : first + per_block])
        r = radii[b]
        # (B, directions, radii, m) probes and their (B, directions, radii, n) spectra
        probes = U[b, None, None, :] + r[:, None, :, None] * directions[None, :, None, :]
        lam_p = np.linalg.eigvalsh(_affine_stack(ops[b, None, None], probes))
        upper = np.take_along_axis(lam_p, level[b, None, None, None], axis=3)
        g = (upper - np.take_along_axis(lam_p, level[b, None, None, None] - 1, axis=3))[..., 0]
        slopes = (g @ r[:, :, None])[..., 0] / (r[:, None, :] @ r[:, :, None])[:, 0]
        misfit = g - slopes[..., None] * r[:, None, :]
        g_norm = np.maximum(np.linalg.norm(g, axis=2), FIT_NORM_FLOOR)
        residuals = np.linalg.norm(misfit, axis=2) / g_norm
        for k, s, res in zip(b.tolist(), slopes, residuals):
            worst = int(np.argmin(s))
            bad = int(np.argmax(res))
            reason = ""
            if not flank_ok[k]:
                reason = "degeneracy multiplicity is not exactly two at this point"
            elif not s[worst] > c_mins[k]:  # a nan slope never certifies
                reason = (
                    f"gap slope {s[worst]:.3e} along direction {directions[worst].tolist()} "
                    f"does not exceed c_min {c_mins[k]:.3e}"
                )
            elif res[bad] > residual_max:
                reason = (
                    f"linear fit residual {res[bad]:.3f} along direction "
                    f"{directions[bad].tolist()} exceeds {residual_max}; contact is not linear"
                )
            cert = None if reason else ConicalCertificate(
                level=levels[k],
                u_star=points[k],
                c_hat=float(s[worst]),
                residual_gap=float(residual_gap[k]),
                direction_slopes=s,
                others_simple=bool(others_simple[k]),
                t0=float(t0s[k]),
                n_directions=n_directions,
            )
            outcomes[k] = ConicalityResult(
                conical=not reason,
                certificate=cert,
                reason=reason,
                slopes=s,
                fit_residuals=res,
                directions=directions,
            )
    return outcomes


# not a unit test, despite the domain name
test_conicality.__test__ = False


@dataclass(frozen=True, eq=False)
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
        _write_json(self.to_json_dict(), path)


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
    returns; from n = ``LAZY_SEED_MIN_DIM`` on a level's seeds start one
    after another, as there), and submits every located point to the
    conicality test in one call, each level's outcome the one
    ``test_conicality`` gives. Status is
    "certified" iff every level has a conical certificate with all other
    levels simple there; otherwise "incomplete". Incompleteness is a status, not an error.
    ``seed_budget`` must be an integer >= 1, ``rng_seed`` one >= 0, ``hints``
    an iterable of control points inside the box, as ``locate_intersection``
    takes its seeds, and a given ``tau_deg`` or ``t0`` finite and positive
    (``PreconditionError``, raised before any eigensolve). ``n_hints`` in the
    metadata counts the checked hints.
    """
    _check_integer("seed_budget", seed_budget, 1)
    _check_integer("rng_seed", rng_seed, 0)
    _check_tolerance("tau_deg", tau_deg)
    _check_tolerance("t0", t0)
    U = box_sequence(H.box, seed_budget, rng_seed)
    if hints is not None:
        # checked on their own: beside the float seeds, bools would read as numbers
        U = np.concatenate([_seed_array(H, hints), U])
    if tau_deg is None:
        tau_deg = degeneracy_tol(H)
    located = _locate_groups([(H._stack, H.box, j, U, tau_deg) for j in range(1, H.dim)])
    found = [(j, u) for j, u in enumerate(located, start=1) if u is not None]
    outcomes = _conicality_rows(
        [(H._stack, H.box, j, u, tau_deg, H.energy_scale) for j, u in found],
        t0=t0,
        rng_seed=rng_seed,
    )
    tested = {j: outcome for (j, _), outcome in zip(found, outcomes)}
    certificates: dict = {}
    failures: dict = {}
    for j in range(1, H.dim):
        result = tested.get(j)
        if result is None:
            failures[j] = "no interior intersection located"
            continue
        if isinstance(result, PreconditionError):
            failures[j] = f"located point failed conicality preconditions: {result}"
            continue
        if isinstance(result, SpeccertError):
            raise result  # a failed eigendecomposition, as test_conicality raises it
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
        "n_hints": len(U) - seed_budget,
        "caveat": "conicality verified only at located points inside the stated box",
    }
    return ConnectednessReport(
        certificates=certificates, failures=failures, status=status, metadata=metadata
    )
