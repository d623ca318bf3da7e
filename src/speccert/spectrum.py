"""Ordered spectra with eigenvector frames, and branch tracking along paths."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NumericalError, RefinementNeededError, StructuralError
from .operators import ControlHamiltonian, _columns, _write_csv
from .tolerance import (
    DEGENERACY_REL,
    ORTHONORMALITY_TOL,
    RESIDUAL_TOL,
    TRACK_LIPSCHITZ_SLACK,
    _check_integer,
    _check_tolerance,
)

# matrix entries per block of a stacked eigensolve taken a block of rows at a
# time (``_block_rows``), so its memory does not grow with the rows that share
# a call (256 KB of complex entries)
BLOCK_ENTRIES = 2**14

TRACE_MISMATCH = "eigenvalue sum does not match trace"


@dataclass(frozen=True, eq=False)
class SpectralPoint:
    """Eigenvalues (ascending, repeated by multiplicity) and an orthonormal frame.

    ``frame[:, j]`` is the eigenvector of ``eigenvalues[j]``; levels are 1-based
    in the public API, so level j corresponds to column j-1.
    """

    u: np.ndarray
    eigenvalues: np.ndarray
    frame: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    def gap(self, j: int) -> float:
        """Adjacent gap lambda_{j+1} - lambda_j for 1 <= j <= n-1."""
        _check_integer("j", j, 1, self.dim - 1)
        return float(self.eigenvalues[j] - self.eigenvalues[j - 1])

    def diameter(self) -> float:
        return float(self.eigenvalues[-1] - self.eigenvalues[0])


@dataclass(frozen=True, eq=False)
class GapTable:
    """All ordered-pair spectral gaps gaps[j-1, k-1] = lambda_j - lambda_k."""

    gaps: np.ndarray

    @classmethod
    def from_point(cls, sp: SpectralPoint) -> "GapTable":
        lam = sp.eigenvalues
        return cls(gaps=lam[:, None] - lam[None, :])

    def __call__(self, j: int, k: int) -> float:
        """lambda_j - lambda_k for 1-based levels j and k in 1..n."""
        for name, value in (("j", j), ("k", k)):
            _check_integer(name, value, 1, len(self.gaps))
        return float(self.gaps[j - 1, k - 1])


def _fix_phases(vecs: np.ndarray) -> np.ndarray:
    """Rotate every column of a (..., n, n) frame stack so its largest entry is real positive."""
    idx = np.argmax(np.abs(vecs), axis=-2)
    # the largest entry of a unit column has magnitude >= 1/sqrt(n) > 0
    z = np.take_along_axis(vecs, idx[..., None, :], axis=-2)
    return vecs * (np.conj(z) / np.abs(z))


def _block_rows(row_entries: int) -> int:
    """Rows per block, at least one, of a blocked eigensolve whose rows hold
    ``row_entries`` matrix entries each."""
    return max(1, BLOCK_ENTRIES // row_entries)


def _not_converged(U: np.ndarray) -> NumericalError:
    """The error of a stacked eigensolve over the points U that did not converge."""
    return NumericalError(
        f"eigensolver did not converge on {len(U)} point(s) from u={U[0].tolist()}"
    )


def _decompose_stack(mats: np.ndarray, U: np.ndarray, check: bool = True):
    """Checked eigenvalues (N, n) and phase-fixed frames of mats = H(U[k]); freezes U too.

    With ``check``, raises the error of the first row that fails ``_failed_rows``.
    """
    try:
        lam, vecs = np.linalg.eigh(mats)
    except np.linalg.LinAlgError as exc:
        raise _not_converged(U) from exc
    vecs = _fix_phases(vecs)
    if check:
        failed = _failed_rows(mats, U, lam, vecs)
        if failed:
            raise failed[min(failed)]
    for a in (U, lam, vecs):
        a.setflags(write=False)
    return lam, vecs


def _eigvals_stack(mats: np.ndarray, U: np.ndarray) -> np.ndarray:
    """Eigenvalues (N, n) of mats = H(U[k]), ascending, without frames.

    Of ``_failed_rows``' checks, only the one that reads eigenvalues alone is
    run: the first row whose eigenvalue sum misses its trace raises that
    check's ``NumericalError``, as does a solve that does not converge.
    LAPACK's eigenvalue-only driver may differ from ``_decompose_stack``'s in
    the last bits, so a caller that must match ``decompose`` decomposes the
    rows it keeps.
    """
    try:
        lam = np.linalg.eigvalsh(mats)
    except np.linalg.LinAlgError as exc:
        raise _not_converged(U) from exc
    defect, limit = _trace_defects(mats, lam)
    over = defect > limit
    if over.any():
        k = int(np.argmax(over))
        raise NumericalError(f"{TRACE_MISMATCH} at u={U[k].tolist()}", residual=float(defect[k]))
    return lam


def _trace_defects(mats: np.ndarray, lam: np.ndarray) -> tuple:
    """Per row, |sum of eigenvalues - trace| and its bound ``RESIDUAL_TOL`` (1 + |trace|)."""
    tr = np.trace(mats, axis1=1, axis2=2).real
    return np.abs(np.sum(lam, axis=1) - tr), RESIDUAL_TOL * (1.0 + np.abs(tr))


def _failed_rows(mats: np.ndarray, U: np.ndarray, lam: np.ndarray, vecs: np.ndarray) -> dict:
    """{row: NumericalError} for each row of a ``_decompose_stack`` whose eigenpairs fail a check.

    A row fails when its eigenpair residual, its frame's orthonormality or its
    eigenvalue sum against the trace is out of tolerance; the error names the
    first check the row fails and carries that check's value. Each row is
    judged on its own, so a row's error is the one ``decompose`` raises for it.
    """
    hnorm = np.max(np.abs(lam), axis=1)
    resid = np.max(np.linalg.norm(mats @ vecs - vecs * lam[:, None, :], axis=1), axis=1)
    gram = np.swapaxes(vecs.conj(), 1, 2) @ vecs
    ortho = np.max(np.abs(gram - np.eye(mats.shape[1])), axis=(1, 2))
    checks = (
        ("eigenpair residual above tolerance", resid, RESIDUAL_TOL * (1.0 + hnorm)),
        ("frame not orthonormal to tolerance", ortho, ORTHONORMALITY_TOL),
        (TRACE_MISMATCH, *_trace_defects(mats, lam)),
    )
    over = np.stack([value > limit for _, value, limit in checks])
    failed = {}
    for k in np.nonzero(over.any(axis=0))[0].tolist():
        message, value, _ = checks[int(np.argmax(over[:, k]))]
        failed[k] = NumericalError(f"{message} at u={U[k].tolist()}", residual=float(value[k]))
    return failed


def _points(U: np.ndarray, lam: np.ndarray, frames: np.ndarray) -> list:
    """One SpectralPoint per row of U and its ``_decompose_stack`` output."""
    return [SpectralPoint(u=U[k], eigenvalues=lam[k], frame=frames[k]) for k in range(len(U))]


def decompose_many(H: ControlHamiltonian, U) -> list:
    """Eigendecompose H(U[k]) for every row of U (shape (N, m)) with one stacked eigensolve.

    Returns one SpectralPoint per row, each as ``decompose`` would return it.

    Raises
    ------
    StructuralError
        If U is not of shape (N, m), holds non-numbers or has a non-finite entry.
    NumericalError
        If the eigensolver fails to converge or, at some row, the residual /
        orthonormality / trace invariants exceed their tolerances (carries the
        first failing row's residual).
    """
    U = H._checked_points(U)
    return _points(U, *_decompose_stack(H.matrices_at(U), U))


def decompose(H: ControlHamiltonian, u, check: bool = True) -> SpectralPoint:
    """Eigendecompose H(u) with ascending eigenvalues and a phase-fixed frame.

    Deterministic for a fixed input: eigenvalue order is ascending and each
    eigenvector's largest-magnitude component is made real positive.

    Raises
    ------
    StructuralError
        If u is not m finite numbers.
    NumericalError
        If the eigensolver fails to converge or the residual / orthonormality /
        trace invariants exceed their tolerances (carries the residual).
    """
    U = H._checked_point(u)[None]
    return _points(U, *_decompose_stack(H.matrix_at(U[0])[None], U, check))[0]


def degeneracy_tol(H: ControlHamiltonian) -> float:
    """Gap at or below which two levels of H count as degenerate.

    ``DEGENERACY_REL`` times ``H.energy_scale``, the family's spectral diameter
    estimate, so the threshold scales with H: degeneracy_tol(sH) = |s|
    degeneracy_tol(H), and no degeneracy decision depends on the energy unit.
    """
    return DEGENERACY_REL * H.energy_scale


def _simple_spectra(lam: np.ndarray, tol: float) -> np.ndarray:
    """Whether each ascending spectrum in lam (..., n) is simple: every adjacent
    gap, as ``SpectralPoint.gap`` computes it, exceeds ``tol``."""
    return np.all(np.diff(lam, axis=-1) > tol, axis=-1)


def gap(sp: SpectralPoint, j: int) -> float:
    """Adjacent spectral gap at a decomposed point (1-based level index)."""
    return sp.gap(j)


def continue_branches(lam: np.ndarray, frames: np.ndarray, tol: float, ref=None):
    """Branch labels (K, n) of sorted spectra ``lam`` (K, n) with frames (K, n, n).

    Each point's columns are matched greedily by descending overlap, ties in
    (i, j) order, to its reference: the last earlier point whose adjacent gaps
    all exceed ``tol``, else ``ref`` = (frame, labels), by default the first
    point with labels 1..n. Skipping degenerate frames, which are ambiguous
    within the crossing pair, is what exchanges the two crossing labels.
    Also returns the reference for a stack that continues this one.
    """
    K, n = lam.shape
    if ref is None:
        ref = (frames[0], np.arange(1, n + 1))
    old = np.concatenate((ref[0][None], frames))
    # old[up[e]] is the reference of old[e]; ref (e = 0) is its own
    nondegenerate = _simple_spectra(lam, tol)
    last = np.maximum.accumulate(np.where(nondegenerate, np.arange(1, K + 1), 0))
    up = np.concatenate(([0, 0], last[:-1]))
    overlap = np.abs(np.swapaxes(old[up[1:]].conj(), 1, 2) @ frames)
    # perm[e] maps old[e]'s columns to its reference's; argmax's first maximum is the tie-break
    perm = np.tile(np.arange(n), (K + 1, 1))
    rows = np.arange(K)
    for _ in range(n):
        i, j = np.divmod(np.argmax(overlap.reshape(K, n * n), axis=1), n)
        perm[rows + 1, j] = i
        overlap[rows, i, :] = -1.0
        overlap[rows, :, j] = -1.0
    # pointer jumping: each round composes every map with its reference's
    while np.any(up):
        perm, up = np.take_along_axis(perm[up], perm, axis=1), up[up]
    labels = np.asarray(ref[1])[perm]
    return labels[1:], (old[last[-1]], labels[last[-1]])


@dataclass(frozen=True, eq=False)
class TrackedSpectrum:
    """Spectra along a path with branch labels continued by frame overlap.

    ``labels[k, p]`` is the branch label occupying sorted position p (0-based
    here) at step k; labels start as 1..n at the first point and two labels
    exchange sorted positions when their branches cross.
    """

    _controls: np.ndarray
    _eigenvalues: np.ndarray
    _frames: np.ndarray
    labels: np.ndarray
    lipschitz_bound: float

    @cached_property
    def points(self) -> tuple:
        return tuple(_points(self._controls, self._eigenvalues, self._frames))

    def branch_values(self, label: int) -> np.ndarray:
        """Eigenvalue series of one labeled branch (label in 1..n)."""
        _check_integer("label", label, 1, self.labels.shape[1])
        return self._eigenvalues[self.labels == label]


def track(
    H: ControlHamiltonian,
    path,
    step_bound: float | None = None,
) -> TrackedSpectrum:
    """Track eigenvalue branches continuously along a control-space path.

    Parameters
    ----------
    H : ControlHamiltonian
    path : sequence of control points
    step_bound : float, optional
        Maximum allowed Euclidean distance between consecutive points, finite
        and > 0; defaults to 5% of the box diameter.

    Raises
    ------
    PreconditionError
        If a given ``step_bound`` is not finite and positive.
    StructuralError
        If the path is empty or a point is not m finite numbers.
    RefinementNeededError
        If two consecutive path points are farther apart than ``step_bound``.
    """
    _check_tolerance("step_bound", step_bound)
    points = list(path)
    if not points:
        raise StructuralError("path must contain at least one point")
    U = H._checked_points(points, "path points")
    mats = H.matrices_at(U)
    if step_bound is None:
        step_bound = 0.05 * H.box_diameter()
    steps = np.linalg.norm(np.diff(U, axis=0), axis=1)
    if np.any(steps > step_bound):
        k = int(np.argmax(steps > step_bound))
        raise RefinementNeededError(
            f"path step {k}->{k + 1} has length {steps[k]:.3g} > step bound {step_bound:.3g}; refine the path"
        )
    lip = float(np.sum(H.control_norms()))
    tol = degeneracy_tol(H)
    # relative to H, like lip, so the check bites in every energy unit
    margin = tol + TRACK_LIPSCHITZ_SLACK * lip
    lam, frames = _decompose_stack(mats, U)
    labels, _ = continue_branches(lam, frames, tol)
    # Lipschitz sanity per labeled branch; a gross violation means the
    # matching lost a branch, which refinement would have prevented.
    jumps = np.abs(np.diff(np.take_along_axis(lam, np.argsort(labels, axis=1), axis=1), axis=0))
    over = jumps > 2.0 * (lip * steps + margin)[:, None]
    if np.any(over):
        k, b = np.unravel_index(np.argmax(over), over.shape)
        raise NumericalError(
            f"branch continuation jumped by {jumps[k, b]:.3g} over a step of {steps[k]:.3g}",
            residual=float(jumps[k, b]),
        )
    return TrackedSpectrum(U, lam, frames, labels=labels, lipschitz_bound=lip + margin)


def save_track_csv(tracked: TrackedSpectrum, path) -> None:
    """Write tracked spectra as CSV: step, u_1..u_m, lambda_1..lambda_n, branch labels."""
    U, lam = tracked._controls, tracked._eigenvalues
    n = lam.shape[1]
    header = ["step", *_columns("u", U.shape[1]), *_columns("lambda", n), *_columns("branch", n)]
    rows = zip(np.hstack((U, lam)).tolist(), tracked.labels.tolist())
    _write_csv(path, header, ([k, *row, *labels] for k, (row, labels) in enumerate(rows)))
