"""Real Lie algebra generated by skew-Hermitian matrices under iterated brackets.

The closure is grown breadth-first on an orthonormal basis of the span (real
inner product Re tr(A^dagger B), in n^2 real coordinates), bracketing new
directions with the generators only (see ``closure``). Classification is by
dimension: u(n) has n^2, su(n) n^2 - 1, and for even n the quaternionic
candidate n(n+1)/2, resolved by an explicit antiunitary-structure witness
search; an algebra is abelian when no bracket of the first sweep is nonzero.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import PreconditionError, StructuralError
from .operators import ControlHamiltonian

RANK_TOL = 1e-9
BRACKET_ZERO_TOL = 1e-12
SKEW_TOL = 1e-12
# rows a leaf of the blocked basis extension takes one at a time
LEAF_ROWS = 8
# fewest rows the extension projects in one piece; fewer make its products memory-bound
_PIECE_ROWS = 64
# share of its norm below which a leaf projects a row's residual off the whole span once
# more: two passes off the recent rows leave it orthogonal to older ones to eps / share
_REPROJECT_BELOW = 1e-4

CLASS_FULL = "u(n)"
CLASS_TRACELESS = "su(n)"
CLASS_SP_CANDIDATE = "sp-candidate"
CLASS_ABELIAN = "abelian-or-small"
CLASS_OTHER = "other"


@functools.lru_cache(maxsize=None)
def _coordinates(n: int) -> tuple:
    """Where the n^2 real coordinates of an n x n skew-Hermitian matrix are stored.

    The coordinates are ``[Im diag, sqrt2 Re upper, sqrt2 Im upper]``, upper
    meaning the strict upper triangle: an isometry from the skew-Hermitian
    matrices under Re tr(A^dagger B) onto R^(n^2). On the float view of a flat
    complex matrix (entry k at 2k and 2k + 1), coordinate c is stored at
    ``upper[c]`` divided by ``scale[c]`` and mirrored at ``lower[c]``, the
    same part of the transposed entry, times ``sign[c]``: a skew-Hermitian
    matrix negates the real part of its mirror.
    """
    i, j = np.triu_indices(n, 1)
    diag, up, low = np.arange(n) * (n + 1), i * n + j, j * n + i
    k = len(up)
    out = (
        np.concatenate([2 * diag + 1, 2 * up, 2 * up + 1]),
        np.concatenate([2 * diag + 1, 2 * low, 2 * low + 1]),
        np.concatenate([np.ones(n), -np.ones(k), np.ones(k)]),
        np.concatenate([np.ones(n), np.full(2 * k, np.sqrt(2.0))]),
    )
    for arr in out:
        arr.setflags(write=False)
    return out


def _vec(a: np.ndarray) -> np.ndarray:
    """Coordinates (..., n^2) of the skew-Hermitian part (a - a^dagger)/2 of each matrix."""
    n = a.shape[-1]
    upper, lower, sign, scale = _coordinates(n)
    flat = np.ascontiguousarray(a, dtype=complex).reshape(-1, n * n).view(np.float64)
    v = (flat.take(upper, axis=1) + sign * flat.take(lower, axis=1)) * (scale / 2)
    return v.reshape(*a.shape[:-2], n * n)


def _unvec(v: np.ndarray, n: int) -> np.ndarray:
    """The exactly skew-Hermitian matrices with coordinates ``v`` (..., n^2)."""
    upper, lower, sign, scale = _coordinates(n)
    w = v.reshape(-1, n * n) / scale
    out = np.zeros((len(w), 2 * n * n))
    out[:, upper] = w
    out[:, lower] = sign * w
    return out.view(complex).reshape(*v.shape[:-1], n, n)


class _SpanBasis:
    """Orthonormal basis (rows ``vectors[:dim]``) of a growing space of skew-Hermitian matrices."""

    def __init__(self, n: int):
        self.n = n
        self.dim = 0
        self.vectors = np.zeros((n * n, n * n))

    def extend(
        self, candidates: np.ndarray, rel_tol: float = RANK_TOL, floor: float = 0.0
    ) -> bool:
        """Add each candidate row's component orthogonal to the span, in order, if independent.

        The decisions are those of taking the rows one at a time: a row of
        norm above ``floor`` is added when its residual against the span,
        including the rows added before it, exceeds ``rel_tol`` times its
        norm. Stops once the span is all of u(n). Returns whether any row clears ``floor``.
        """
        norms = np.sqrt((candidates * candidates).sum(axis=1))
        keep = norms > floor
        rows, norms = candidates[keep], norms[keep]
        # pieces of about as many rows as there is room left, so that a block
        # that fills the space is not projected far beyond the row that fills it
        while len(rows) and self.dim < len(self.vectors):
            take = max(len(self.vectors) - self.dim, _PIECE_ROWS)
            self._accept(rows[:take], norms[:take], rel_tol, 0)
            rows, norms = rows[take:], norms[take:]
        return bool(keep.any())

    def _accept(self, rows: np.ndarray, norms: np.ndarray, rel_tol: float, start: int) -> None:
        """``extend`` for rows already orthogonal to ``vectors[:start]``.

        A block of more than ``LEAF_ROWS`` rows is projected off
        ``vectors[start:dim]`` in two matrix-product passes, which keep
        classical Gram-Schmidt orthogonal to machine precision. Rows that then
        fail the test are dropped, since projecting them further only shrinks
        them. The first half of the rest is accepted first; the second half
        is then projected off what the first half added. A leaf runs the same
        test row by row.
        """
        if self.dim == len(self.vectors):
            return
        if len(rows) > LEAF_ROWS and self.dim > start:
            q = self.vectors[start: self.dim]
            for _ in range(2):
                rows = rows - (rows @ q.T) @ q
                keep = np.sqrt((rows * rows).sum(axis=1)) > rel_tol * norms
                rows, norms = rows[keep], norms[keep]
            start = self.dim
        if len(rows) > LEAF_ROWS:
            half = len(rows) // 2
            self._accept(rows[:half], norms[:half], rel_tol, start)
            self._accept(rows[half:], norms[half:], rel_tol, start)
            return
        for v, norm0 in zip(rows, norms.tolist()):
            if self.dim == len(self.vectors):
                return
            if self.dim > start:
                q = self.vectors[start: self.dim]
                v = v - (q @ v) @ q
                v = v - (q @ v) @ q
            resid = math.sqrt(v @ v)
            if rel_tol * norm0 < resid < _REPROJECT_BELOW * norm0:
                # v kept its rounding error off vectors[:start] while it shrank: remove it
                v = v - (self.vectors[: self.dim] @ v) @ self.vectors[: self.dim]
                resid = math.sqrt(v @ v)
            if resid > rel_tol * norm0:
                self.vectors[self.dim] = v / resid
                self.dim += 1

    def matrices(self, start: int = 0) -> np.ndarray:
        """Basis elements from ``start`` on as a stack of skew-Hermitian matrices."""
        return _unvec(self.vectors[start: self.dim], self.n)


@dataclass(frozen=True, eq=False)
class LieClosureResult:
    """Bracket-generated algebra: orthonormal basis, dimension, classification."""

    dimension: int
    basis: tuple
    classification: str
    traceless_generators: bool
    n: int

    def to_json_dict(self, include_basis: bool = False) -> dict:
        out = {
            "dimension": self.dimension,
            "classification": self.classification,
            "traceless_generators": self.traceless_generators,
            "n": self.n,
        }
        if include_basis:
            out["basis"] = [
                {"re": b.real.tolist(), "im": b.imag.tolist()} for b in self.basis
            ]
        return out


def _check_skew(mats) -> list:
    out = []
    for a in mats:
        a = np.asarray(a, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise StructuralError(f"generator must be square, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise StructuralError("generator has non-finite entries")
        scale = max(1.0, float(np.max(np.abs(a))))
        if float(np.max(np.abs(a + a.conj().T))) > SKEW_TOL * scale:
            raise StructuralError("generator is not skew-Hermitian")
        out.append(a)
    return out


def _classify(dim: int, n: int, abelian: bool) -> str:
    """Class of a closed subalgebra of u(n) from its dimension and commutativity.

    Its only subalgebra of codimension 1 is su(n): one of the compact simple
    su(n) would have a central orthogonal complement.
    """
    if dim == n * n:
        return CLASS_FULL
    if dim == n * n - 1:
        return CLASS_TRACELESS
    if n % 2 == 0 and dim == n * (n + 1) // 2:
        return CLASS_SP_CANDIDATE
    if abelian:
        return CLASS_ABELIAN
    return CLASS_OTHER


def closure(generators, rank_tol: float = RANK_TOL) -> LieClosureResult:
    """Close a generating set of skew-Hermitian matrices under commutators.

    Breadth-first: every sweep brackets the elements the last sweep added with
    the orthonormalised generator span, keeps genuinely new directions
    (relative rank tolerance ``rank_tol``), and stops when none remain or the
    span is all of u(n). That is the whole closure: the Lie algebra generated
    by X is spanned by the right-normed brackets [x1, [x2, ..., [x_{k-1}, x_k]]]
    with every x_i in X, and each is ad_x of a shorter one for some x in X.
    Brackets of these unit-norm elements with norm at most 1e-12 count as
    zero; the algebra is abelian when no sweep has a nonzero bracket (only the
    first, over all pairs of generator directions, can lack one). Only the
    skew-Hermitian part of each generator enters, so a Hermitian part small
    enough to pass the skew check adds no direction. ``traceless_generators``
    is reported only; the class follows from the dimension.

    Raises
    ------
    StructuralError
        On an empty generator list, mismatched dimensions, or a generator
        that is not skew-Hermitian.
    """
    gens = _check_skew(generators)
    if not gens:
        raise StructuralError("at least one generator is required")
    n = gens[0].shape[0]
    if any(g.shape[0] != n for g in gens):
        raise StructuralError("generators must share a common dimension")
    coords = _vec(np.array(gens))
    trace = np.abs(coords[:, :n].sum(axis=1))
    traceless = bool(np.all(trace <= rank_tol * np.linalg.norm(coords, axis=1)))
    basis = _SpanBasis(n)
    basis.extend(coords, rel_tol=rank_tol)
    span = basis.matrices()
    start = 0
    nonzero = []
    while start < basis.dim < n * n:
        frontier = basis.matrices(start)[:, None]
        start = basis.dim
        # for skew-Hermitian a, b: b a = (a b)^dagger, so [a, b] is twice the skew part of a b
        brackets = 2.0 * _vec(frontier @ span).reshape(-1, n * n)
        nonzero.append(basis.extend(brackets, rel_tol=rank_tol, floor=BRACKET_ZERO_TOL))
    return LieClosureResult(
        dimension=basis.dim,
        basis=tuple(basis.matrices()),
        classification=_classify(basis.dim, n, abelian=not any(nonzero)),
        traceless_generators=traceless,
        n=n,
    )


def generators_from(H: ControlHamiltonian) -> list:
    """Skew-Hermitian generators {i H0, i H1, ..., i Hm} of the affine family.

    Because the control set is open, two distinct values per axis separate the
    drift from each controlled part, so the closure of this set equals the
    closure of {i H(u)} over the whole box.
    """
    return list(1j * H._stack)


def _sp_witness(basis, n: int, tol: float = 1e-6) -> bool:
    """Search for an antiunitary structure J with J conj(J) = -I intertwining the basis.

    Solves the least-squares problem J X = conj(X) J over all basis elements
    by a smallest-singular-vector computation, then verifies that the
    candidate is (approximately) unitary and squares, as an antiunitary, to -1.
    """
    if not basis:
        return False
    eye = np.eye(n)
    rows = []
    for x in basis:
        # vec(J X - conj(X) J) = (X^T kron I - I kron conj(X)) vec(J)
        rows.append(np.kron(np.asarray(x).T, eye) - np.kron(eye, np.conj(x)))
    stacked = np.vstack(rows)
    _, svals, vh = np.linalg.svd(stacked, full_matrices=False)
    scale = float(svals[0]) if svals.size else 0.0
    if scale == 0.0:
        return False
    if float(svals[-1]) > 1e-8 * scale:
        return False
    j_mat = vh[-1].conj().reshape(n, n)
    sv = np.linalg.svd(j_mat, compute_uv=False)
    mean_sv = float(np.mean(sv))
    if mean_sv == 0.0:
        return False
    j_mat = j_mat / mean_sv
    if float(np.max(np.abs(j_mat @ j_mat.conj().T - eye))) > tol:
        return False
    if float(np.max(np.abs(j_mat @ np.conj(j_mat) + eye))) > tol:
        return False
    return True


@dataclass(frozen=True)
class TransitivityVerdict:
    """Whether the closed algebra acts transitively on the sphere / the group.

    ``controllable_on_sphere`` is None when the dimension matches the
    quaternionic candidate but no structure witness was found (indeterminate).
    """

    controllable_on_sphere: bool | None
    controllable_on_group: bool

    def to_json_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def classify_transitive(result: LieClosureResult, n: int) -> TransitivityVerdict:
    """Decide controllability of the lifted system and of the state sphere.

    Reads the closure's class: u(n) and su(n) are controllable on the group
    and the sphere. A quaternionic candidate is controllable on the sphere
    when an antiunitary structure witness confirms it, and indeterminate
    without one.

    Raises
    ------
    PreconditionError
        If ``n`` is not the dimension of the closure's generators, ``result.n``.
    """
    if n != result.n:
        raise PreconditionError(
            f"closure of {result.n} x {result.n} generators classified at n = {n}"
        )
    if result.classification in (CLASS_FULL, CLASS_TRACELESS):
        return TransitivityVerdict(controllable_on_sphere=True, controllable_on_group=True)
    if result.classification == CLASS_SP_CANDIDATE:
        if _sp_witness(list(result.basis), n):
            return TransitivityVerdict(controllable_on_sphere=True, controllable_on_group=False)
        return TransitivityVerdict(controllable_on_sphere=None, controllable_on_group=False)
    return TransitivityVerdict(controllable_on_sphere=False, controllable_on_group=False)
