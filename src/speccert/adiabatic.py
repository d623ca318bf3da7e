"""Slow control paths through conical intersections and Schrodinger propagation.

A passage is a straight, constant-speed traversal of a certified intersection:
the path runs through the degeneracy point collinearly, entering and leaving
at radius rho. Passing the cone exchanges the two crossing sorted levels, so
chaining passages through the intersections of levels (1,2), (2,3), ...
climbs an initial ground state toward the top level. Populations are measured
against instantaneous eigenframes; relative phases are not controlled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .conical import ConicalCertificate, ConnectednessReport
from .errors import (
    BudgetError,
    GeometryError,
    PreconditionError,
    StructuralError,
)
from .operators import (
    ControlHamiltonian,
    _affine_stack,
    _columns,
    _finite_array,
    _numeric_array,
    _write_csv,
    _write_json,
    read_json,
)
from .resonance import _point_report
from .spectrum import _block_rows, _decompose_stack, continue_branches, decompose, degeneracy_tol
from .tolerance import (
    CLIMB_TOLERANCE,
    CONTROL_LENGTH_ZERO,
    ROUTE_END_MARGIN,
    STEP_COUNT_SLACK,
    UNIT_NORM_TOL,
    _check_integer,
    _check_tolerance,
)

DEFAULT_STEP_LIMIT = 0.1
# climb: the largest step limit it tries (8 x the default, so halving lands
# on the default exactly)
CLIMB_START_LIMIT = 0.8
MAX_TOTAL_STEPS = 10**8
DEFAULT_MAX_RECORDS = 1200
# the largest n at which propagate advances its state a block of steps at a
# time: up to n = 12 a stacked n x n step product costs less than a Python
# iteration of the per-step loop (measured on one BLAS thread); above it the
# blocked advance is slower, so the blocks hold one step
BLOCK_MAX_DIM = 12


@dataclass(frozen=True, eq=False)
class ControlPath:
    """Piecewise-linear control schedule with a slowness parameter.

    ``durations[i]`` is the time spent on the segment from waypoint i to
    waypoint i+1. A single waypoint with one duration holds the control
    constant for that time. Total time scales as 1/epsilon when built by the
    planners here.
    """

    waypoints: tuple
    durations: np.ndarray
    epsilon: float

    def __post_init__(self):
        wps = _finite_array(self.waypoints, "waypoints").astype(float)
        if wps.ndim != 2 or not len(wps):
            raise StructuralError("a path needs one or more waypoints of one common length")
        dur = _finite_array(self.durations, "durations").astype(float)
        expected = 1 if len(wps) == 1 else len(wps) - 1
        if dur.shape != (expected,):
            raise StructuralError(
                f"expected {expected} durations for {len(wps)} waypoints, got {dur.shape}"
            )
        if not np.all(dur > 0):
            raise StructuralError("all segment durations must be positive")
        epsilon = _finite_array(self.epsilon, "epsilon")
        if epsilon.shape != () or not epsilon > 0:
            raise StructuralError("epsilon must be a positive number")
        wps.setflags(write=False)
        dur.setflags(write=False)
        object.__setattr__(self, "waypoints", tuple(wps))
        object.__setattr__(self, "durations", dur)
        object.__setattr__(self, "epsilon", float(epsilon))

    @property
    def total_time(self) -> float:
        return float(np.sum(self.durations))

    def segments(self):
        """Yield (start, end, duration) triples; a held point yields one."""
        if len(self.waypoints) == 1:
            yield self.waypoints[0], self.waypoints[0], float(self.durations[0])
            return
        for i in range(len(self.waypoints) - 1):
            yield self.waypoints[i], self.waypoints[i + 1], float(self.durations[i])

    def to_json_dict(self) -> dict:
        return {
            "waypoints": [[float(x) for x in w] for w in self.waypoints],
            "durations": [float(d) for d in self.durations],
            "epsilon": self.epsilon,
        }

    def save(self, path) -> None:
        _write_json(self.to_json_dict(), path)


def load_path(path) -> ControlPath:
    """Read a ControlPath from its JSON document.

    Raises
    ------
    StructuralError
        If the file is not JSON or the document is not a valid path.
    """
    d = read_json(path)
    try:
        fields = d["waypoints"], d["durations"], d["epsilon"]
    except (KeyError, TypeError) as exc:
        raise StructuralError(f"malformed path document {path}: {exc!r}") from exc
    return ControlPath(*fields)


@dataclass(frozen=True, eq=False, init=False)
class StateTrajectory:
    """Simulated states on a recorded time grid with branch populations.

    ``populations[k, b-1]`` is |<phi_b(u(t_k)), psi(t_k)>|^2 for the branch
    carrying label b; labels start as the sorted levels at t=0 and follow the
    eigenframes by maximal overlap, exchanging sorted positions at crossings.

    A trajectory from ``propagate`` computes ``populations`` and ``labels``
    on their first read, in one checked pass that decomposes every record,
    and caches both; a ``NumericalError`` from that decomposition surfaces at
    the read. Its ``controls`` and ``states``, which that pass reads, are
    read-only. Built from all six fields, it returns the arrays it was given.

    At a record on an intersection, where the crossing pair's levels are not
    resolved, its frame is any basis of their eigenspace, so rounding sets
    how the pair's population splits between its two labels; the pair's
    summed population depends only on the state.
    """

    times: np.ndarray
    controls: np.ndarray
    states: np.ndarray
    norm_defect: np.ndarray

    def __init__(self, times, controls, states, populations, labels, norm_defect):
        vars(self).update(
            times=times,
            controls=controls,
            states=states,
            norm_defect=norm_defect,
            _records=(populations, labels),
        )

    @classmethod
    def _of(cls, H: ControlHamiltonian, times, controls, states, norm_defect) -> "StateTrajectory":
        """The records of a run of H, with populations and labels left to the first read."""
        traj = cls.__new__(cls)
        controls.setflags(write=False)
        states.setflags(write=False)
        vars(traj).update(
            times=times, controls=controls, states=states, norm_defect=norm_defect, _family=H
        )
        return traj

    @cached_property
    def _records(self) -> tuple:
        H = self._family
        n = H.dim
        chunk = _block_rows(n**2)
        count = self.times.shape[0]
        populations = np.empty((count, n))
        labels = np.empty((count, n), dtype=int)
        ref = None
        # decomposed in blocks of the step chunk, so no frame outlives its block
        for start in range(0, count, chunk):
            block = slice(start, start + chunk)
            controls = self.controls[block]
            lam, frames = _decompose_stack(H.matrices_at(controls), controls)
            labels[block], ref = continue_branches(lam, frames, degeneracy_tol(H), ref)
            # branch_populations returns values by sorted position; store them by label
            pops = branch_populations(frames, self.states[block])
            populations[block] = np.take_along_axis(pops, np.argsort(labels[block], axis=1), axis=1)
        return populations, labels

    @property
    def populations(self) -> np.ndarray:
        return self._records[0]

    @property
    def labels(self) -> np.ndarray:
        return self._records[1]

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def final_population_sorted(self, level: int) -> float:
        """Population of the sorted level (1-based, in 1..n) at the final control point."""
        _check_integer("level", level, 1, self.states.shape[1])
        branch = int(self.labels[-1, level - 1])
        return float(self.populations[-1, branch - 1])

    def save_csv(self, path) -> None:
        m, n = self.controls.shape[1], self.populations.shape[1]
        header = ["t", *_columns("u", m), *_columns("pop", n), "norm_defect"]
        table = np.column_stack((self.times, self.controls, self.populations, self.norm_defect))
        _write_csv(path, header, table.tolist())


def branch_populations(frame: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """|<phi_j, psi>|^2 per frame column, over stacks too; invariant under column phases."""
    amps = np.swapaxes(frame.conj(), -1, -2) @ np.asarray(psi)[..., None]
    return np.abs(amps[..., 0]) ** 2


def _block_products(lam: np.ndarray, vecs: np.ndarray, h: float, b: int) -> np.ndarray:
    """A chunk's step unitaries as prefix products within blocks of b steps.

    The step unitaries U_k = V diag(exp(-i h lam)) V^dagger of eigenpairs
    (lam, vecs) fill an array of shape (ceil(count / b), b, n, n). Row i of
    every block then becomes the product U_i ... U_0 of its block, formed in
    place in b - 1 stacked products, so a block's states are one product with
    the state it starts from. With b = 1 the rows are the unitaries
    themselves. The last block is filled up with copies of the last unitary,
    which enter only the products of rows past the chunk, whose states are
    dropped. The array is allocated after the temporaries it is built from,
    as ``@`` allocates its result: freed below it, they leave no free space at
    the top of the heap for glibc to trim and fault in again at the next
    chunk, which made ``propagate`` 5-10% slower at n = 32 and 64.
    """
    count, n = lam.shape
    phases = vecs * np.exp(-1j * h * lam)[:, None, :]
    back = np.swapaxes(vecs.conj(), 1, 2)
    prods = np.empty((-(-count // b), b, n, n), dtype=complex)
    flat = prods.reshape(-1, n, n)
    np.matmul(phases, back, out=flat[:count])
    flat[count:] = flat[count - 1]
    for i in range(1, b):
        np.matmul(prods[:, i], prods[:, i - 1], out=prods[:, i])
    return prods


def propagate(
    H: ControlHamiltonian,
    path: ControlPath,
    psi0,
    step_limit: float = DEFAULT_STEP_LIMIT,
    max_records: int = DEFAULT_MAX_RECORDS,
) -> StateTrajectory:
    """Integrate i d/dt psi = H(u(t)) psi along a piecewise-linear control path.

    Each step is the fourth-order Magnus step for a Hamiltonian linear in time:
    exp(-i h K) with K = H(u_mid) - i (h^2/12) [D, H(u_mid)], where u_mid is
    the step's midpoint and D = dH/dt is the segment's constant rate. It is
    fourth-order accurate, exactly unitary per step, and costs one eigensolve
    per step. Each segment takes the fewest equal steps that keep
    h * (lambda_max - lambda_min) / 2 <= step_limit at both its ends (to
    within a relative ``STEP_COUNT_SLACK``), with the spreads from one
    stacked eigensolve at the waypoints. Half the spread is min_c ||H - c I||, convex in u, so the
    bound holds on every step of the segment. An offset c I only adds a
    global phase, and the step's error comes from commutators of H alone, so
    the spread, unlike ||H||, sizes the steps independently of the offset.
    Since H is affine in u, K is too: each segment's corrected
    operators are built once, complex for a real family too through their
    Magnus term, and the step exponentials are evaluated in stacked chunks
    of ``_block_rows(n**2)`` steps (1820 at n = 3),
    V diag(exp(-i h lambda)) V^dagger from one stacked eigensolve of the
    chunk's K, so memory does not grow with the number of steps. For
    n <= ``BLOCK_MAX_DIM`` a chunk of L steps is advanced in blocks of
    b = isqrt(L) steps: every block's running products U_i ... U_0 come from
    b - 1 stacked products, and each block's states from one product with the
    state it starts from, so the Python loop runs once per block. Above that
    n a step product costs more than a loop iteration and b = 1, which is the
    plain per-step product, bitwise. The trajectory decomposes its recorded
    points in stacked blocks of the same size, on the first read of its
    ``populations`` or ``labels``; a ``NumericalError`` from those
    decompositions is raised at that read, not here.

    Records are the initial point, every ceil(steps / max_records)-th step and
    each segment's last step: at most ``max_records`` plus one per segment.

    Raises
    ------
    StructuralError
        If the path's waypoints do not have length ``H.m``, or ``psi0`` is
        not ``H.dim`` numbers (ragged, holding strings, bools or other
        non-numbers, or of another shape).
    PreconditionError
        If ``psi0`` is not a finite unit vector, ``step_limit`` is not finite and
        positive, or ``max_records`` is not an integer >= 1.
    GeometryError
        If a waypoint lies outside the control box (the first one is named).
    BudgetError
        If the required number of steps exceeds 1e8; slower paths should use
        a larger epsilon.
    """
    _check_tolerance("step_limit", step_limit, optional=False)
    _check_integer("max_records", max_records, 1)
    psi = _numeric_array(psi0, "initial state", kinds="iufc").astype(complex)
    if psi.shape != (H.dim,):
        raise StructuralError(f"initial state has shape {psi.shape}, the family has n = {H.dim}")
    # written so that a nan norm fails it
    if not abs(float(np.linalg.norm(psi)) - 1.0) <= UNIT_NORM_TOL:
        raise PreconditionError("initial state must be finite with unit norm")
    plan = _segment_steps(H, path, step_limit)
    offsets = np.cumsum([0] + [nsteps for *_, nsteps in plan])
    stride = -(-int(offsets[-1]) // max_records)
    times = np.zeros(1)
    records = [(times, plan[0][0][None], psi[None])]
    for k, h, steps, states in _advance(H, plan, psi):
        a, b, _, nsteps = plan[k]
        # a sequential cumsum from the running time adds h exactly as t += h would
        times = np.cumsum(np.concatenate((times[-1:], np.full(len(steps), h))))[1:]
        keep = ((offsets[k] + steps + 1) % stride == 0) | (steps == nsteps - 1)
        controls = a + ((steps[keep] + 1) / nsteps)[:, None] * (b - a)
        records.append((times[keep], controls, states[keep]))
    times, controls, states = (np.concatenate(parts) for parts in zip(*records))
    norm_defect = np.abs(np.linalg.norm(states, axis=1) - 1.0)
    return StateTrajectory._of(H, times, controls, states, norm_defect)


def _segment_steps(H: ControlHamiltonian, path: ControlPath, step_limit: float) -> list:
    """(start, end, duration, steps) per segment of ``path``, by ``propagate``'s step rule.

    Raises ``propagate``'s StructuralError for waypoints of the wrong length,
    its GeometryError for the first waypoint outside the box and its
    BudgetError for too many steps.
    """
    waypoints = np.array(path.waypoints)
    if waypoints.shape[1] != H.m:
        raise StructuralError(
            f"path waypoints have length {waypoints.shape[1]}, the family has m = {H.m}"
        )
    outside = np.any((waypoints < H.box[:, 0]) | (waypoints > H.box[:, 1]), axis=1)
    if outside.any():
        w = waypoints[int(np.argmax(outside))]
        raise GeometryError(f"waypoint {w.tolist()} lies outside the control box")
    segs = list(path.segments())
    lam = np.linalg.eigvalsh(H.matrices_at(waypoints))
    half_spread = (lam[:, -1] - lam[:, 0]) / 2
    # half the spread is convex in u, so it peaks on a segment at one of its
    # ends; a held point's one segment has that point at both ends
    if len(half_spread) > 1:
        half_spread = np.maximum(half_spread[:-1], half_spread[1:])
    # a relative slack, so that the rounding an offset c * I leaves in the
    # spread adds no step where dur * spread / step_limit is an integer (as on
    # a path through round waypoints)
    plan = [
        (a, b, dur, max(1, math.ceil(dur * spread / step_limit * (1 - STEP_COUNT_SLACK))))
        for (a, b, dur), spread in zip(segs, half_spread)
    ]
    total_steps = sum(nsteps for *_, nsteps in plan)
    if total_steps > MAX_TOTAL_STEPS:
        raise BudgetError(
            f"path requires {total_steps} steps (> {MAX_TOTAL_STEPS}); increase epsilon"
        )
    return plan


def _advance(H: ControlHamiltonian, plan: list, psi: np.ndarray):
    """Advance psi along the segments of ``plan`` (``_segment_steps``), a chunk at a time.

    Yields (k, h, steps, states) per chunk of segment k, whose steps of size h
    have the indices ``steps`` within the segment and end in ``states``, one
    row per step; the last chunk's last row is the final state. The step
    products are ``propagate``'s; the states are left to the caller.
    """
    n = H.dim
    chunk = _block_rows(n**2)
    for k, (a, b, dur, nsteps) in enumerate(plan):
        h = dur / nsteps
        delta = b - a
        # K(u) = H(u) - i (h^2/12) [D, H(u)] is affine in u, with operator stack ks
        rate = np.tensordot(delta / dur, H._stack[1:], axes=1)
        ks = H._stack - 1j * h**2 / 12 * (rate @ H._stack - H._stack @ rate)
        for start in range(0, nsteps, chunk):
            steps = np.arange(start, min(start + chunk, nsteps))
            mids = a + ((steps + 0.5) / nsteps)[:, None] * delta
            lam, vecs = np.linalg.eigh(_affine_stack(ks, mids))
            # one Python iteration per block of steps, not per step
            block_len = math.isqrt(len(steps)) if n <= BLOCK_MAX_DIM else 1
            prods = _block_products(lam, vecs, h, block_len)
            states = np.empty(prods.shape[:3], dtype=complex)
            for block, out in zip(prods, states):
                psi = np.matmul(block, psi, out=out)[-1]
            states = states.reshape(-1, n)[: len(steps)]
            psi = states[-1]
            yield k, h, steps, states


def _final_state(H: ControlHamiltonian, path: ControlPath, psi0, step_limit: float) -> np.ndarray:
    """``propagate(H, path, psi0, step_limit).final_state``, bitwise, from the same
    steps, keeping no records: no times, controls, norm defects or trajectory."""
    plan = _segment_steps(H, path, step_limit)
    for *_, states in _advance(H, plan, np.asarray(psi0, dtype=complex)):
        pass
    return states[-1]


def plan_passage(
    H: ControlHamiltonian,
    cert: ConicalCertificate,
    rho: float,
    epsilon: float,
    direction=None,
) -> ControlPath:
    """Plan a straight constant-speed passage through a certified intersection.

    The path enters at u* + rho*d, crosses u*, and exits at u* - rho*d along
    the same line; collinear crossing keeps the traversal on the analytic
    eigenvalue branches, which is what exchanges the two sorted levels. Each
    leg takes rho/epsilon time units.

    Raises
    ------
    PreconditionError
        If rho or epsilon is not a finite number > 0.
    StructuralError
        If ``direction`` is not m finite numbers.
    GeometryError
        If ``direction`` is zero or the ball of radius rho around the
        intersection leaves the box.
    """
    _check_tolerance("rho", rho, optional=False)
    _check_tolerance("epsilon", epsilon, optional=False)
    u_star = np.asarray(cert.u_star, dtype=float)
    if not H.contains(u_star, margin=rho):
        raise GeometryError(
            f"ball of radius {rho:.3g} around {u_star.tolist()} does not fit in the box"
        )
    if direction is None:
        d = np.zeros(H.m)
        d[0] = 1.0
    else:
        d = _finite_array(direction, "passage direction").astype(float)
        if d.shape != (H.m,):
            raise StructuralError(f"passage direction must have length {H.m}, got shape {d.shape}")
        scale = float(np.max(np.abs(d)))
        if scale == 0:
            raise GeometryError("passage direction must be nonzero")
        d = d / scale  # so that d @ d neither overflows nor underflows
        d = d / float(np.linalg.norm(d))
    waypoints = (u_star + rho * d, u_star, u_star - rho * d)
    durations = np.array([rho / epsilon, rho / epsilon])
    return ControlPath(waypoints=waypoints, durations=durations, epsilon=epsilon)


def _segment_clearance(a: np.ndarray, b: np.ndarray, p: np.ndarray):
    """Distance from p to segment [a, b] and the closest-approach parameter."""
    d = b - a
    dd = float(d @ d)
    if dd == 0.0:
        return float(np.linalg.norm(p - a)), 0.0
    s = float(np.clip((p - a) @ d / dd, 0.0, 1.0))
    q = a + s * d
    return float(np.linalg.norm(p - q)), s


def _perpendicular(d: np.ndarray) -> np.ndarray:
    """A unit vector orthogonal to d (m >= 2)."""
    m = d.shape[0]
    base = np.zeros(m)
    base[int(np.argmin(np.abs(d)))] = 1.0
    nd = float(d @ d)
    perp = base - (base @ d / nd) * d if nd > 0 else base
    return perp / float(np.linalg.norm(perp))


def _route(a, b, obstacles, delta, box, depth: int = 8) -> list:
    """Intermediate waypoints steering segment [a, b] at least delta away from obstacles."""
    if depth <= 0:
        return []
    worst = None
    for p in obstacles:
        dist, s = _segment_clearance(a, b, p)
        if dist < delta and ROUTE_END_MARGIN < s < 1 - ROUTE_END_MARGIN:
            if worst is None or dist < worst[0]:
                worst = (dist, s, p)
    if worst is None:
        return []
    dist, s, p = worst
    q = a + s * (b - a)
    away = q - p
    if float(np.linalg.norm(away)) > CONTROL_LENGTH_ZERO:
        away = away / float(np.linalg.norm(away))
    else:
        away = _perpendicular(b - a)
    detour = np.clip(q + delta * away, box[:, 0], box[:, 1])
    return (
        _route(a, detour, obstacles, delta, box, depth - 1)
        + [detour]
        + _route(detour, b, obstacles, delta, box, depth - 1)
    )


@dataclass(frozen=True, eq=False)
class ClimbResult:
    """A chained-passage plan, its simulated trajectory, and the achieved transfer.

    ``step_limit`` is the ``propagate`` step limit the trajectory used, and
    ``error_estimate`` the Richardson estimate of its final state's error,
    ||psi_h - psi_2h|| / 15, against a run at twice that limit.
    """

    path: ControlPath
    trajectory: StateTrajectory
    p_target: float
    target_level: int
    step_limit: float
    error_estimate: float


def climb(
    H: ControlHamiltonian,
    report: ConnectednessReport,
    u_anchor,
    epsilon: float,
    rho: float | None = None,
    delta: float | None = None,
) -> ClimbResult:
    """Steer the ground state toward the top level through chained passages.

    Starting from the first eigenstate at a non-resonant anchor point, the
    path traverses the certified intersections of levels (1,2), ..., (n-1,n)
    in order. Each passage is straight through its intersection, aimed at the
    next one; connectors between passages detour by a perpendicular offset
    whenever they would come within ``delta`` of any located intersection,
    the one they lead to included.
    By default ``rho`` is 0.8 times the smallest of the intersections' box
    clearances and half their pairwise distances (at most a quarter of the box
    diagonal), so the passage balls lie in the box and do not overlap, and
    ``delta`` is rho/2.

    The anchor is decomposed once: its spectrum is judged for non-resonance
    as ``check_nonresonant`` judges it, and its frame gives the ground state.
    The step limit comes from a measured error. The path is propagated at
    ``CLIMB_START_LIMIT`` (8 x the default) and once more at twice that
    limit. The second run takes ``propagate``'s steps but keeps only its
    final state, bitwise ``propagate``'s, and no trajectory; neither run
    decomposes its records. The propagator is fourth order, so
    ||psi_h - psi_2h|| / 15 estimates the final state's error. A limit
    bounds h times the spectral half-spread (lambda_max - lambda_min) / 2
    (``propagate``), which an energy offset c I does not change, so a climb
    of H + c I takes the same steps and ends at the same limit as a climb of
    H. While the estimate exceeds ``CLIMB_TOLERANCE`` the limit is halved,
    and the last run serves as the coarse one, down to ``DEFAULT_STEP_LIMIT``
    at the least, so no climb takes more steps than ``propagate``'s default
    rule.
    Returns the plan, the trajectory, the final population of the top sorted
    level at the end point, the step limit used and the error estimate.

    Raises
    ------
    PreconditionError
        If ``epsilon``, or a given ``rho`` or ``delta``, is not finite and
        positive, the report is not certified or lacks a certificate of
        some level 1..n-1 (raised before any eigensolve), or the anchor is
        resonant.
    StructuralError
        If ``u_anchor`` is not m finite numbers.
    GeometryError
        If the anchor lies outside the box (raised before any eigensolve),
        or no passage fits in it.
    """
    _check_tolerance("epsilon", epsilon, optional=False)
    for name, value in (("rho", rho), ("delta", delta)):
        _check_tolerance(name, value)
    if not report.certified:
        raise PreconditionError("climb requires a certified connectedness report")
    u_anchor = H._checked_point(u_anchor, "anchor")
    if not H.contains(u_anchor):
        raise GeometryError(f"anchor {u_anchor.tolist()} lies outside the control box")
    missing = [j for j in range(1, H.dim) if j not in report.certificates]
    if missing:
        raise PreconditionError(f"certified report lacks the certificates of levels {missing}")
    anchor = decompose(H, u_anchor)
    if not _point_report(H, anchor).passed:
        raise PreconditionError("anchor point must be non-resonant")
    n = H.dim
    points = [np.asarray(report.certificates[j].u_star, dtype=float) for j in range(1, n)]
    box = H.box
    if rho is None:
        clearances = [
            min(float(np.min(p - box[:, 0])), float(np.min(box[:, 1] - p))) for p in points
        ]
        # half the spacing of two intersections keeps their passages apart:
        # a longer passage would run past the next one's entry, or through the
        # next intersection, and the path would double back between them
        clearances += [
            0.5 * float(np.linalg.norm(p - q))
            for i, p in enumerate(points)
            for q in points[i + 1 :]
        ]
        rho = 0.8 * min(clearances)
        rho = min(rho, 0.25 * H.box_diameter())
    if rho <= 0:
        raise GeometryError("no positive passage radius fits inside the box")
    if delta is None:
        delta = 0.5 * rho
    directions = []
    for i, p in enumerate(points):
        if i + 1 < len(points):
            w = points[i + 1] - p
        elif i > 0:
            w = p - points[i - 1]
        else:
            w = p - u_anchor
        nw = float(np.linalg.norm(w))
        if nw <= CONTROL_LENGTH_ZERO:
            w = np.zeros(H.m)
            w[0] = 1.0
            nw = 1.0
        directions.append(w / nw)
    waypoints = [u_anchor]
    for i, (p, w) in enumerate(zip(points, directions)):
        entry = p - rho * w
        exitp = p + rho * w
        if not (H.contains(entry) and H.contains(exitp) and H.contains(p)):
            raise GeometryError(
                f"passage of radius {rho:.3g} at {p.tolist()} leaves the control box"
            )
        # the connector must also stay clear of p itself: an anchor or previous
        # exit beyond p would otherwise take it through p before the passage
        waypoints += _route(waypoints[-1], entry, points, delta, box)
        waypoints += [entry, p, exitp]
    deduped = [waypoints[0]]
    scale = max(H.box_diameter(), 1.0)
    for w in waypoints[1:]:
        if float(np.linalg.norm(w - deduped[-1])) > CONTROL_LENGTH_ZERO * scale:
            deduped.append(w)
    if len(deduped) < 2:
        raise GeometryError("climb path degenerated to a single point")
    durations = np.array(
        [
            float(np.linalg.norm(deduped[i + 1] - deduped[i])) / epsilon
            for i in range(len(deduped) - 1)
        ]
    )
    path = ControlPath(waypoints=tuple(deduped), durations=durations, epsilon=epsilon)
    psi0 = anchor.frame[:, 0]
    step_limit = CLIMB_START_LIMIT
    coarse = _final_state(H, path, psi0, 2 * step_limit)
    while True:
        trajectory = propagate(H, path, psi0, step_limit)
        # Richardson estimate for a fourth-order method: 2**4 - 1 = 15
        error = float(np.linalg.norm(trajectory.final_state - coarse)) / 15
        if error <= CLIMB_TOLERANCE or step_limit <= DEFAULT_STEP_LIMIT:
            break
        step_limit /= 2
        coarse = trajectory.final_state
    end_frame = decompose(H, deduped[-1]).frame
    p_target = float(np.abs(end_frame[:, n - 1].conj() @ trajectory.final_state) ** 2)
    return ClimbResult(
        path=path,
        trajectory=trajectory,
        p_target=p_target,
        target_level=n,
        step_limit=step_limit,
        error_estimate=error,
    )
