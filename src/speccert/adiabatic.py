"""Slow control paths through conical intersections and Schrodinger propagation.

A passage is a straight, constant-speed traversal of a certified intersection:
the path runs through the degeneracy point collinearly, entering and leaving
at radius rho. Passing the cone exchanges the two crossing sorted levels, so
chaining passages through the intersections of levels (1,2), (2,3), ...
climbs an initial ground state toward the top level. Populations are measured
against instantaneous eigenframes; relative phases are not controlled.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .conical import ConicalCertificate, ConnectednessReport
from .errors import (
    BudgetError,
    GeometryError,
    PreconditionError,
    StructuralError,
)
from .operators import ControlHamiltonian, _affine_stack, _finite_array, read_json
from .resonance import check_nonresonant
from .spectrum import _decompose_stack, continue_branches, decompose, degeneracy_tol

UNIT_NORM_TOL = 1e-9
DEFAULT_STEP_LIMIT = 0.1
# climb: the largest step limit it tries (16 x the default, so halving lands
# on the default exactly) and the final-state error it aims for
CLIMB_START_LIMIT = 1.6
CLIMB_TOLERANCE = 1e-6
MAX_TOTAL_STEPS = 10**8
DEFAULT_MAX_RECORDS = 1200
# matrix entries per stacked eigensolve of step Hamiltonians, so a chunk holds
# STEP_CHUNK_ELEMS // n**2 steps (1820 at n=3) and its memory does not grow with n
STEP_CHUNK_ELEMS = 2**14


@dataclass(frozen=True)
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
        Path(path).write_text(json.dumps(self.to_json_dict(), sort_keys=True, indent=2))


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


@dataclass(frozen=True)
class StateTrajectory:
    """Simulated states on a recorded time grid with branch populations.

    ``populations[k, b-1]`` is |<phi_b(u(t_k)), psi(t_k)>|^2 for the branch
    carrying label b; labels start as the sorted levels at t=0 and follow the
    eigenframes by maximal overlap, exchanging sorted positions at crossings.
    """

    times: np.ndarray
    controls: np.ndarray
    states: np.ndarray
    populations: np.ndarray
    labels: np.ndarray
    norm_defect: np.ndarray

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def final_population_sorted(self, level: int) -> float:
        """Population of the sorted level (1-based) at the final control point."""
        branch = int(self.labels[-1, level - 1])
        return float(self.populations[-1, branch - 1])

    def save_csv(self, path) -> None:
        m = self.controls.shape[1]
        n = self.populations.shape[1]
        header = (
            ["t"]
            + [f"u_{l + 1}" for l in range(m)]
            + [f"pop_{b + 1}" for b in range(n)]
            + ["norm_defect"]
        )
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            table = np.column_stack((self.times, self.controls, self.populations, self.norm_defect))
            writer.writerows([repr(float(x)) for x in row] for row in table)


def branch_populations(frame: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """|<phi_j, psi>|^2 per frame column, over stacks too; invariant under column phases."""
    amps = np.swapaxes(frame.conj(), -1, -2) @ np.asarray(psi)[..., None]
    return np.abs(amps[..., 0]) ** 2


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
    per step. Step sizes are chosen so that ||H|| * h <= step_limit on every
    segment. Since H is affine in u, K is too: each segment's corrected
    operators are built once, and the step exponentials are evaluated in
    stacked chunks of up to ``STEP_CHUNK_ELEMS // n**2`` steps,
    V diag(exp(-i h lambda)) V^dagger from one stacked eigensolve of the
    chunk's K, then applied to the state one step at a time. The recorded
    points are decomposed in stacked blocks of the same size, so memory does
    not grow with the number of steps or records.

    Records are the initial point, every ceil(steps / max_records)-th step and
    each segment's last step: at most ``max_records`` plus one per segment.

    Raises
    ------
    StructuralError
        If the path's waypoints do not have length ``H.m``, or ``psi0`` does
        not have length ``H.dim``.
    PreconditionError
        If ``psi0`` is not a unit vector, ``step_limit`` is not finite and
        positive, or ``max_records`` is not a positive integer.
    GeometryError
        If a waypoint lies outside the control box.
    BudgetError
        If the required number of steps exceeds 1e8; slower paths should use
        a larger epsilon.
    """
    if not (math.isfinite(step_limit) and step_limit > 0):
        raise PreconditionError(f"step_limit must be finite and positive, got {step_limit}")
    if not (isinstance(max_records, (int, np.integer)) and max_records >= 1):
        raise PreconditionError(f"max_records must be a positive integer, got {max_records}")
    psi = np.asarray(psi0, dtype=complex).copy()
    if psi.shape != (H.dim,):
        raise StructuralError(f"initial state has shape {psi.shape}, the family has n = {H.dim}")
    if abs(float(np.linalg.norm(psi)) - 1.0) > UNIT_NORM_TOL:
        raise PreconditionError("initial state must have unit norm")
    if path.waypoints[0].shape != (H.m,):
        raise StructuralError(
            f"path waypoints have length {path.waypoints[0].shape[0]}, the family has m = {H.m}"
        )
    for w in path.waypoints:
        if not H.contains(w):
            raise GeometryError(f"waypoint {w.tolist()} lies outside the control box")
    segs = list(path.segments())
    steps_per_seg = [
        max(1, math.ceil(dur * max(H.norm_bound(a), H.norm_bound(b)) / step_limit))
        for a, b, dur in segs
    ]
    total_steps = sum(steps_per_seg)
    if total_steps > MAX_TOTAL_STEPS:
        raise BudgetError(
            f"path requires {total_steps} steps (> {MAX_TOTAL_STEPS}); increase epsilon"
        )
    stride = -(-total_steps // max_records)
    n = H.dim
    chunk = max(1, STEP_CHUNK_ELEMS // n**2)
    times = np.zeros(1)
    records = [(times, segs[0][0][None], psi[None])]
    offsets = np.cumsum([0] + steps_per_seg)
    for (a, b, dur), nsteps, offset in zip(segs, steps_per_seg, offsets):
        h = dur / nsteps
        delta = b - a
        # K(u) = H(u) - i (h^2/12) [D, H(u)] is affine in u, with operator stack ks
        rate = np.tensordot(delta / dur, H._stack[1:], axes=1)
        ks = H._stack - 1j * h**2 / 12 * (rate @ H._stack - H._stack @ rate)
        for start in range(0, nsteps, chunk):
            steps = np.arange(start, min(start + chunk, nsteps))
            mids = a + ((steps + 0.5) / nsteps)[:, None] * delta
            lam, vecs = np.linalg.eigh(_affine_stack(ks, mids))
            unitaries = (vecs * np.exp(-1j * h * lam)[:, None, :]) @ np.swapaxes(vecs.conj(), 1, 2)
            states = np.empty((len(steps), n), dtype=complex)
            for k, step in enumerate(unitaries):
                psi = states[k] = step @ psi
            # a sequential cumsum from the running time adds h exactly as t += h would
            times = np.cumsum(np.concatenate((times[-1:], np.full(len(steps), h))))[1:]
            keep = ((offset + steps + 1) % stride == 0) | (steps == nsteps - 1)
            controls = a + ((steps[keep] + 1) / nsteps)[:, None] * delta
            records.append((times[keep], controls, states[keep]))
    times, controls, states = (np.concatenate(parts) for parts in zip(*records))
    norm_defect = np.abs(np.linalg.norm(states, axis=1) - 1.0)
    populations = np.empty((times.shape[0], n))
    labels = np.empty((times.shape[0], n), dtype=int)
    ref = None
    # decomposed in blocks of the step chunk, so no frame outlives its block
    for start in range(0, times.shape[0], chunk):
        block = slice(start, start + chunk)
        lam, frames = _decompose_stack(H.matrices_at(controls[block]), controls[block])
        labels[block], ref = continue_branches(lam, frames, degeneracy_tol(H), ref)
        # branch_populations returns values by sorted position; store them by label
        pops = branch_populations(frames, states[block])
        populations[block] = np.take_along_axis(pops, np.argsort(labels[block], axis=1), axis=1)
    return StateTrajectory(
        times=times,
        controls=controls,
        states=states,
        populations=populations,
        labels=labels,
        norm_defect=norm_defect,
    )


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
    GeometryError
        If the ball of radius rho around the intersection leaves the box.
    """
    if rho <= 0:
        raise GeometryError("rho must be positive")
    if epsilon <= 0:
        raise PreconditionError("epsilon must be positive")
    u_star = np.asarray(cert.u_star, dtype=float)
    if not H.contains(u_star, margin=rho):
        raise GeometryError(
            f"ball of radius {rho:.3g} around {u_star.tolist()} does not fit in the box"
        )
    if direction is None:
        d = np.zeros(H.m)
        d[0] = 1.0
    else:
        d = np.asarray(direction, dtype=float)
        nd = float(np.linalg.norm(d))
        if nd == 0:
            raise GeometryError("passage direction must be nonzero")
        d = d / nd
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
        if dist < delta and 1e-9 < s < 1 - 1e-9:
            if worst is None or dist < worst[0]:
                worst = (dist, s, p)
    if worst is None:
        return []
    dist, s, p = worst
    q = a + s * (b - a)
    away = q - p
    if float(np.linalg.norm(away)) > 1e-12:
        away = away / float(np.linalg.norm(away))
    else:
        away = _perpendicular(b - a)
    detour = np.clip(q + delta * away, box[:, 0], box[:, 1])
    return (
        _route(a, detour, obstacles, delta, box, depth - 1)
        + [detour]
        + _route(detour, b, obstacles, delta, box, depth - 1)
    )


@dataclass(frozen=True)
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
    whenever they would come within ``delta`` of another located intersection.
    By default ``rho`` is 0.8 times the smallest of the intersections' box
    clearances and half their pairwise distances (at most a quarter of the box
    diagonal), so the passage balls lie in the box and do not overlap, and
    ``delta`` is rho/2.

    The step limit comes from a measured error. The path is propagated at
    ``CLIMB_START_LIMIT`` and once more, recording only segment ends, at twice
    that limit; the propagator is fourth order, so ||psi_h - psi_2h|| / 15
    estimates the final state's error. While the estimate exceeds
    ``CLIMB_TOLERANCE`` the limit is halved, and the last run serves as the
    coarse one, down to ``DEFAULT_STEP_LIMIT`` at the least, so no climb takes
    more steps than ``propagate``'s default rule.
    Returns the plan, the trajectory, the final population of the top sorted
    level at the end point, the step limit used and the error estimate.

    Raises
    ------
    PreconditionError
        If the report is not certified or the anchor is resonant.
    """
    if not report.certified:
        raise PreconditionError("climb requires a certified connectedness report")
    u_anchor = np.asarray(u_anchor, dtype=float)
    if not check_nonresonant(H, u_anchor).passed:
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
        if nw <= 1e-12:
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
        obstacles = [q for q in points if q is not p]
        waypoints += _route(waypoints[-1], entry, obstacles, delta, box)
        waypoints += [entry, p, exitp]
    deduped = [waypoints[0]]
    scale = max(H.box_diameter(), 1.0)
    for w in waypoints[1:]:
        if float(np.linalg.norm(w - deduped[-1])) > 1e-12 * scale:
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
    psi0 = decompose(H, u_anchor).frame[:, 0]
    step_limit = CLIMB_START_LIMIT
    coarse = propagate(H, path, psi0, 2 * step_limit, max_records=1).final_state
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
