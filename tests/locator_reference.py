"""Reference locator: the lockstep solve that ``conical._locate_groups`` ran
before its restarts became concurrent slots, kept as the oracle whose points
the scheduled solve must reproduce bitwise, group by group.

Each seed runs its restarts one after another, and every iteration takes one
trial step per live seed. It deliberately keeps the ends a run had before
the scheduled solve learned to end a run that stalls at a positive gap or is
pinned to a box face ("stall" and "face"): here such a run goes on to its
cap, iteration limit, far step or outside end, so matching it point for
point shows that the two early ends move no answer. The outside end (the
full step longer than ``OUTSIDE_STEP`` box diagonals at two consecutive
points of a run, its start and the points it moves to) can end a run that
would have hit, so it moves answers and the reference applies it too;
``outside=False`` runs the solve as it was before that end, so that a test
can bound what the end moves. ``reasons``, when given, is a dict that counts how
the runs ended: "hit" (an interior degeneracy), "edge" (a degeneracy outside
the interior margin), "far" (the full step left the box by ``FAR_STEP``
diagonals), "outside", "cap" (the step cap fell to roundoff) or
"iterations" (the run reached ``MAX_ITERATIONS``). Here the step is solved
again after a rejected trial, from the same point, so it is the same step:
the outside end counts a point once, at the solve after the run moved
there. ``eigh_rows``, when given, is a list that gets
the row count of every stacked eigensolve. The operator stacks are stacked
as given, so the call runs in their field, as the scheduled solve does; the
step, end and restart constants and the Gauss-Newton step solve
(``_gauss_newton_steps``) are read from ``conical`` at call time, as the
scheduled solve reads them, so the two share their arithmetic and the
comparison checks the schedule alone.
"""

import numpy as np

from speccert import conical
from speccert.conical import INTERIOR_REL_MARGIN, RESTART_SEED
from speccert.operators import _affine_stack, _box_diameters
from speccert.sampling import _halton_unit


def reference_locate(groups, reasons=None, eigh_rows=None, outside=True) -> list:
    """Per group, the first interior hit in seed order, or None; with
    ``outside=False``, as the solve ran before it learned the outside end."""
    if not groups:
        return []
    restarts = conical.RESTARTS
    max_iterations, shrink = conical.MAX_ITERATIONS, conical.SHRINK
    stacks, boxes, levels, seed_sets, taus = zip(*groups)
    ops = np.stack(stacks)
    counts = np.array([len(U) for U in seed_sets])
    start = np.cumsum(counts) - counts
    grp = np.repeat(np.arange(len(groups)), counts)
    pos = np.arange(len(grp)) - start[grp]
    U = np.concatenate(seed_sets, dtype=float)
    box = np.stack(boxes)
    n, m = ops.shape[-1], box.shape[1]
    lo, hi = box[grp, :, 0], box[grp, :, 1]
    margin = INTERIOR_REL_MARGIN * (hi - lo)
    inner_lo, inner_hi = lo + margin, hi - margin
    diameter = _box_diameters(box)
    cap_max = conical.STEP_FRACTION * diameter[grp]
    cap_min = (np.finfo(float).eps * (diameter + np.max(np.abs(box), axis=(1, 2))))[grp]
    far_step = conical.FAR_STEP * diameter[grp]
    outside_step = conical.OUTSIDE_STEP * diameter[grp]
    level = np.array(levels)[grp]
    tau = np.array(taus, dtype=float)[grp]
    unit = _halton_unit(int(counts.max()) * restarts, m, RESTART_SEED)

    def pair_at(idx, points):
        if eigh_rows is not None:
            eigh_rows.append(len(idx))
        lam, vecs = np.linalg.eigh(_affine_stack(ops[grp[idx]], points))
        j, rows = level[idx], np.arange(len(idx))
        gap = lam[rows, j] - lam[rows, j - 1]
        return gap, np.take_along_axis(vecs, (j - 1)[:, None, None] + np.arange(2), axis=2)

    def tally(name, mask):
        if reasons is not None:
            reasons[name] = reasons.get(name, 0) + int(np.count_nonzero(mask))

    k = len(grp)
    gap = np.empty(k)
    pair = np.empty((k, n, 2), dtype=ops.dtype)
    cap = np.empty(k)
    iterations = np.zeros(k, dtype=int)
    runs = np.zeros(k, dtype=int)
    far = np.zeros(k, dtype=bool)
    left = np.zeros(k, dtype=bool)
    # whether the seed's point moved since its last step solve, and whether
    # the full step solved at its last point was longer than OUTSIDE_STEP
    moved = np.zeros(k, dtype=bool)
    beyond = np.zeros(k, dtype=bool)
    live = np.zeros(k, dtype=bool)
    fresh = np.ones(k, dtype=bool)
    first = counts.copy()
    while True:
        if fresh.any():
            f = np.nonzero(fresh)[0]
            gap[f], pair[f] = pair_at(f, U[f])
            cap[f], iterations[f], far[f], left[f] = cap_max[f], 0, False, False
            moved[f], beyond[f] = True, False
            live |= fresh
        ended = live & (gap <= tau)
        hits = ended & np.all((U > inner_lo) & (U < inner_hi), axis=1)
        np.minimum.at(first, grp[hits], pos[hits])
        useful = pos < first[grp]
        gone = far | left
        over = live & (ended | gone | (cap <= cap_min) | (iterations >= max_iterations))
        tally("hit", hits)
        tally("edge", ended & ~hits)
        tally("far", over & ~ended & far)
        tally("outside", over & ~ended & left)
        tally("cap", over & ~ended & ~gone & (cap <= cap_min))
        tally("iterations", over & ~ended & ~gone & (cap > cap_min))
        live &= ~over & useful
        fresh = over & ~hits & (runs < restarts) & useful
        f = np.nonzero(fresh)[0]
        U[f] = lo[f] + unit[pos[f] * restarts + runs[f]] * (hi[f] - lo[f])
        runs[f] += 1
        if not live.any():
            if fresh.any():
                continue
            break
        a = np.nonzero(live)[0]
        step = conical._gauss_newton_steps(pair[a], ops[grp[a], 1:], gap[a])
        length = np.linalg.norm(step, axis=1)
        near = length <= far_step[a]
        far[a[~near]] = True
        if outside:
            # a second point in a row whose full step is longer than the box
            out = length > outside_step[a]
            new = moved[a]
            left[a] = near & new & out & beyond[a]
            beyond[a] = np.where(new, out, beyond[a])
            moved[a] = False
            near &= ~left[a]
        a, step, length = a[near], step[near], length[near]
        step *= np.minimum(1.0, cap[a] / np.maximum(length, np.finfo(float).tiny))[:, None]
        trial = np.clip(U[a] + step, lo[a], hi[a])
        trial_gap, trial_pair = pair_at(a, trial)
        better = trial_gap < gap[a]
        keep = a[better]
        U[keep], gap[keep], pair[keep] = trial[better], trial_gap[better], trial_pair[better]
        moved[keep] = True
        cap[a] = np.where(
            better, np.minimum(2.0 * cap[a], cap_max[a]), shrink * np.minimum(cap[a], length)
        )
        iterations[a] += 1
    return [None if first[g] == counts[g] else U[start[g] + first[g]] for g in range(len(groups))]
