"""Reference branch continuation: the per-point greedy matcher that
``spectrum.continue_branches`` replaced, kept as the oracle whose labels the
array kernel must reproduce exactly; and the eager record pass that
``propagate`` ran before trajectories decomposed their records on first read,
kept as the oracle for those lazy records."""

import numpy as np

from speccert import branch_populations
from speccert.spectrum import BLOCK_ENTRIES, _decompose_stack, continue_branches, degeneracy_tol


def _greedy_match(frame_old: np.ndarray, frame_new: np.ndarray) -> np.ndarray:
    """Assign new columns to old columns by descending overlap.

    Returns ``match`` with match[new_col] = old_col. Greedy over descending
    |<phi_old, phi_new>|; ties broken by (old, new) index order.
    """
    n = frame_old.shape[1]
    overlap = np.abs(frame_old.conj().T @ frame_new)
    match = np.full(n, -1)
    used_old = np.zeros(n, dtype=bool)
    used_new = np.zeros(n, dtype=bool)
    flat = [(-overlap[i, j], i, j) for i in range(n) for j in range(n)]
    flat.sort()
    assigned = 0
    for _, i, j in flat:
        if used_old[i] or used_new[j]:
            continue
        match[j] = i
        used_old[i] = True
        used_new[j] = True
        assigned += 1
        if assigned == n:
            break
    return match


class _BranchContinuer:
    """Carries branch labels along a frame sequence by maximal overlap.

    Labels are matched against the last frame seen at a point whose adjacent
    gaps all exceed ``tol``; frames at (numerically) degenerate points are
    ambiguous within the crossing pair and are skipped as references, which
    is what makes the two crossing labels exchange sorted positions across
    an exact crossing.
    """

    def __init__(self, first, tol: float):
        self.labels = np.arange(1, first.dim + 1)
        self.ref_frame = first.frame
        self.ref_labels = self.labels.copy()
        self.tol = tol

    def step(self, sp) -> np.ndarray:
        match = _greedy_match(self.ref_frame, sp.frame)
        self.labels = self.ref_labels[match]
        if all(sp.gap(j) > self.tol for j in range(1, sp.dim)):
            self.ref_frame = sp.frame
            self.ref_labels = self.labels.copy()
        return self.labels.copy()


def reference_labels(points, tol: float) -> np.ndarray:
    """Labels (K, n) of SpectralPoints ``points``, one continuer step per point."""
    continuer = _BranchContinuer(points[0], tol)
    return np.array([continuer.step(sp) for sp in points])


def reference_records(H, traj) -> tuple:
    """(populations, labels) of a trajectory of H, decomposed eagerly in blocks
    of the step chunk with ``continue_branches``'s reference carried across."""
    n = H.dim
    chunk = max(1, BLOCK_ENTRIES // n**2)
    times, controls, states = traj.times, traj.controls, traj.states
    populations = np.empty((times.shape[0], n))
    labels = np.empty((times.shape[0], n), dtype=int)
    ref = None
    for start in range(0, times.shape[0], chunk):
        block = slice(start, start + chunk)
        lam, frames = _decompose_stack(H.matrices_at(controls[block]), controls[block])
        labels[block], ref = continue_branches(lam, frames, degeneracy_tol(H), ref)
        pops = branch_populations(frames, states[block])
        populations[block] = np.take_along_axis(pops, np.argsort(labels[block], axis=1), axis=1)
    return populations, labels
