"""Real Lie algebra generated by skew-Hermitian matrices under iterated brackets.

The closure is grown breadth-first on an orthonormal basis of the span (real
inner product Re tr(A^dagger B), in n^2 real coordinates), bracketing the
new part of each bracket it added with the generators only (see ``closure``). A set of real and
imaginary generators, such as i H for real H, closes in its so(n) and
i sym(n) parts separately, in real arithmetic. Classification is by
dimension: u(n) has n^2, su(n) n^2 - 1, and for even n the quaternionic
candidate n(n+1)/2, or n(n+1)/2 + 1 when the algebra less its centre has
n(n+1)/2, resolved by an explicit antiunitary-structure witness search;
an algebra is abelian when no bracket of the first sweep is nonzero.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import PreconditionError, StructuralError
from .operators import ControlHamiltonian, _finite_array, _within_hermiticity_tol
from .spectrum import _block_rows
from .tolerance import (
    BRACKET_ZERO_TOL,
    RANK_TOL,
    REPROJECT_BELOW,
    SP_WITNESS_NULL_REL,
    SP_WITNESS_TOL,
    _check_integer,
    _check_tolerance,
)

# rows a leaf of the blocked basis extension takes one at a time
LEAF_ROWS = 8
# fewest rows the extension projects in one piece; fewer make its products memory-bound
_PIECE_ROWS = 64

CLASS_FULL = "u(n)"
CLASS_TRACELESS = "su(n)"
CLASS_SP_CANDIDATE = "sp-candidate"
CLASS_ABELIAN = "abelian-or-small"
CLASS_OTHER = "other"


@functools.lru_cache(maxsize=None)
def _coordinates(n: int, grade: int | None) -> tuple:
    """Where the real coordinates of an n x n matrix's part in ``grade`` are stored.

    Grade 0 is so(n), the antisymmetric part X of a real matrix, with
    coordinates ``sqrt2 X`` over the strict upper triangle: n(n-1)/2 of them.
    Grade 1 is i sym(n), held by the symmetric part Y of a real matrix, with
    ``[diag Y, sqrt2 Y upper]``: n(n+1)/2. Grade None is u(n), the
    skew-Hermitian part X + iY of a complex matrix, with both: ``[X | Y]``.
    Each is an isometry for Re tr(A^dagger B). On a flat matrix (for grade
    None its float view, entry k at 2k and 2k + 1), coordinate c is stored at
    ``upper[c]`` divided by ``scale[c]`` and mirrored at ``lower[c]`` times
    ``sign[c]``.
    """
    if grade is None:
        # X is read from the real parts of the entries, Y from their imaginary parts
        x, y = _coordinates(n, 0), _coordinates(n, 1)
        out = (
            np.concatenate([2 * x[0], 2 * y[0] + 1]),
            np.concatenate([2 * x[1], 2 * y[1] + 1]),
            np.concatenate([x[2], y[2]]),
            np.concatenate([x[3], y[3]]),
        )
    else:
        i, j = np.triu_indices(n, 1)
        diag = np.arange(n) * (n + 1) if grade else np.arange(0)
        out = (
            np.concatenate([diag, i * n + j]),
            np.concatenate([diag, j * n + i]),
            np.concatenate([np.ones(len(diag)), np.full(len(i), np.sqrt(2.0))]),
            np.full(len(diag) + len(i), 2.0 * grade - 1.0),
        )
    for arr in out:
        arr.setflags(write=False)
    return out


def _vec(a: np.ndarray, grade: int | None = None) -> np.ndarray:
    """Coordinates (..., size) of each matrix's part in ``grade`` (see ``_coordinates``)."""
    n = a.shape[-1]
    upper, lower, scale, sign = _coordinates(n, grade)
    flat = a.reshape(-1, n * n)
    if grade is None:
        flat = np.ascontiguousarray(flat, dtype=complex).view(np.float64)
    # in place, so that a bracket block's coordinates take one array, not four
    v = flat.take(lower, axis=1)
    v *= sign
    v += flat.take(upper, axis=1)
    v *= scale / 2
    return v.reshape(*a.shape[:-2], len(upper))


def _unvec(v: np.ndarray, n: int, grade: int | None = None) -> np.ndarray:
    """The exactly skew-Hermitian (grade None), antisymmetric (0) or symmetric (1) matrices with coordinates ``v``."""
    upper, lower, scale, sign = _coordinates(n, grade)
    w = v.reshape(math.prod(v.shape[:-1]), len(upper)) / scale
    out = np.zeros((len(w), n * n if grade is not None else 2 * n * n))
    out[:, upper] = w
    out[:, lower] = sign * w
    return (out if grade is not None else out.view(complex)).reshape(*v.shape[:-1], n, n)


class _SpanBasis:
    """Orthonormal basis (rows ``vectors[:dim]``) of a growing subspace of u(n), or of one ``grade`` of it."""

    def __init__(self, n: int, grade: int | None = None):
        self.n, self.grade = n, grade
        self.dim = 0
        size = len(_coordinates(n, grade)[0])
        self.vectors = np.zeros((size, size))

    def extend(self, candidates: np.ndarray, rel_tol: float = RANK_TOL, floor=0.0) -> tuple:
        """Add each candidate row's component orthogonal to the span, in order, if independent.

        The decisions are those of taking the rows one at a time: a row is
        added when its residual against the span, including the rows added
        before it, exceeds both ``rel_tol`` times its norm and its ``floor``
        (a scalar or one value per row). Stops once the space is full.
        Returns the indices of the rows added, in order, and their residuals.
        """
        norms = np.sqrt((candidates * candidates).sum(axis=1))
        bounds = np.maximum(rel_tol * norms, floor)
        index = np.flatnonzero(norms > bounds)
        rows = candidates if len(index) == len(candidates) else candidates[index]
        norms, bounds = norms[index], bounds[index]
        added = []
        # pieces of about as many rows as there is room left, so that a block
        # that fills the space is not projected far beyond the row that fills it
        while len(rows) and self.dim < len(self.vectors):
            take = max(len(self.vectors) - self.dim, _PIECE_ROWS)
            self._accept(rows[:take], norms[:take], bounds[:take], index[:take], 0, added)
            rows, norms, bounds, index = rows[take:], norms[take:], bounds[take:], index[take:]
        added = np.array(added).reshape(-1, 2)
        return added[:, 0].astype(int), added[:, 1]

    def _accept(self, rows, norms, bounds, index, start: int, added: list) -> None:
        """``extend`` for rows already orthogonal to ``vectors[:start]``; appends (index, residual) to ``added``.

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
                keep = np.sqrt((rows * rows).sum(axis=1)) > bounds
                rows, norms, bounds, index = rows[keep], norms[keep], bounds[keep], index[keep]
            start = self.dim
        if len(rows) > LEAF_ROWS:
            half = len(rows) // 2
            self._accept(rows[:half], norms[:half], bounds[:half], index[:half], start, added)
            self._accept(rows[half:], norms[half:], bounds[half:], index[half:], start, added)
            return
        for v, norm0, bound, i in zip(rows, norms.tolist(), bounds.tolist(), index.tolist()):
            if self.dim == len(self.vectors):
                return
            if self.dim > start:
                q = self.vectors[start: self.dim]
                v = v - (q @ v) @ q
                v = v - (q @ v) @ q
            resid = math.sqrt(v @ v)
            if bound < resid < REPROJECT_BELOW * norm0:
                # v kept its rounding error off vectors[:start] while it shrank: remove it
                v = v - (self.vectors[: self.dim] @ v) @ self.vectors[: self.dim]
                resid = math.sqrt(v @ v)
            if resid > bound:
                self.vectors[self.dim] = v / resid
                self.dim += 1
                added.append((i, resid))

    def matrices(self) -> np.ndarray:
        """The basis as a stack of skew-Hermitian matrices: X, iY or X + iY by grade."""
        mats = _unvec(self.vectors[: self.dim], self.n, self.grade)
        return mats if self.grade is None else mats * 1j**self.grade


@dataclass(frozen=True, eq=False, init=False)
class LieClosureResult:
    """Bracket-generated algebra: orthonormal basis, dimension, classification.

    A result from ``closure`` builds ``basis`` on its first read, from the
    rows its span bases accepted, in the order they were accepted, and caches
    it: a caller that reads only the class never holds the n^2 matrices.
    Built from all its fields, it returns the basis it was given.
    """

    dimension: int
    classification: str
    traceless_generators: bool
    n: int

    def __init__(self, dimension, basis, classification, traceless_generators, n, _witness_basis=None):
        vars(self).update(
            dimension=dimension,
            basis=basis,
            classification=classification,
            traceless_generators=traceless_generators,
            n=n,
            # a basis of pi(L), L less its centre, when the class was decided on
            # pi(L) (see ``closure``): the structure witness is then sought on it
            _witness_basis=_witness_basis,
        )

    @classmethod
    def _of(cls, dimension, span, classification, traceless_generators, n, witness_span=None):
        """A result whose bases are read from ``_closed_span``'s spans on first use."""
        result = cls.__new__(cls)
        vars(result).update(
            dimension=dimension,
            classification=classification,
            traceless_generators=traceless_generators,
            n=n,
            _span=span,
            _witness_span=witness_span,
        )
        return result

    @functools.cached_property
    def basis(self) -> tuple:
        return _span_matrices(*self._span)

    @functools.cached_property
    def _witness_basis(self) -> tuple | None:
        return None if self._witness_span is None else _span_matrices(*self._witness_span)

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


def _span_matrices(bases: list, segments: list) -> tuple:
    """The rows of ``bases`` as matrices, in the order ``segments`` (part, rows) lists them."""
    mats = [iter(b.matrices()) for b in bases]
    return tuple(next(mats[t]) for t, count in segments for _ in range(count))


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

    Breadth-first: every sweep brackets the generators, scaled to unit norm,
    with the new part of each bracket the last sweep added (the first sweep
    with that of each generator), keeps genuinely new directions (relative
    rank tolerance ``rank_tol``), and stops when none remain or the span is
    all of u(n), or all of su(n) when every generator is traceless to
    ``rank_tol``. That is the whole closure: the Lie algebra generated by X is
    spanned by the right-normed brackets [x1, [x2, ..., [x_{k-1}, x_k]]] with
    every x_i in X, and each is ad_x of a shorter one for some x in X.

    A bracket's new part is the bracket scaled to unit norm less its
    projection on the span before it, kept at that size: a direction found
    only by cancellation, such as c I from x + c I against x, is small, and
    so are its brackets, which are zero in exact arithmetic (normalised, its
    rounding error would read as new directions; unit brackets never
    orthogonalised would instead lose the weak directions of a chain). Each
    element carries an estimate of its rounding error: n eps for a
    generator, twice F's plus 2 n eps |F| for [F, G], and for an added new
    part its bracket's over the bracket's norm, plus n eps. A bracket counts
    as nonzero, and a direction as new, only beyond twice that estimate, and
    a bracket of norm 1e-12 or less is zero. The algebra is abelian when no
    sweep has a nonzero bracket (only the first, over all pairs of
    generators, can lack one). Only the skew-Hermitian part X + iY of each generator enters, so a
    Hermitian part small enough to pass the skew check adds no direction.
    ``traceless_generators`` is reported only; the class follows from the
    dimension. At even n >= 4 an algebra L of dimension n(n+1)/2 + 1 that is
    not otherwise classed is closed once more from the generators projected
    off the centre, pi(g) = g - (tr g / n) I; L is the quaternionic candidate
    when pi(L) has dimension n(n+1)/2 (sp(n/2) + u(1), a quaternionic family
    with an energy offset), and its witness is sought on pi(L)'s basis.

    When every generator is homogeneous, X = 0 or Y = 0 exactly (i H for real
    symmetric H is), the grading u(n) = so(n) + i sym(n) is preserved:
    [so, so] and [i sym, i sym] lie in so(n), [so, i sym] in i sym(n). Each
    part then has its own basis, of n(n-1)/2 and n(n+1)/2 coordinates, and
    every element is one real matrix. Any other set closes on one basis of u(n).
    The result's basis lists the generators' and then each sweep's additions,
    so(n) part first.

    Raises
    ------
    PreconditionError
        If ``rank_tol`` is not finite and positive.
    StructuralError
        Unless the generators are a non-empty stack of finite, skew-Hermitian
        square matrices of one size (a ragged or mixed-size set is not).
    """
    _check_tolerance("rank_tol", rank_tol, optional=False)
    gens = _finite_array(generators, "generators", kinds="iufc")
    if gens.ndim != 3 or not gens.size or gens.shape[1] != gens.shape[2]:
        raise StructuralError(
            f"generators must be a non-empty stack of square matrices, got shape {gens.shape}"
        )
    # each generator scaled by the power of two that puts its largest real or
    # imaginary part in [1/2, 1): exact, so every later step reads the same in
    # any energy unit, and no sum or square of entries overflows or underflows
    parts = np.ascontiguousarray(gens, dtype=complex).view(np.float64)
    peak = np.abs(parts).max(axis=(1, 2))
    gens = np.ldexp(parts, -np.frexp(peak)[1][:, None, None]).view(complex)
    defects = np.max(np.abs(gens + np.swapaxes(gens, 1, 2).conj()), axis=(1, 2))
    if not np.all(_within_hermiticity_tol(gens, defects)):
        raise StructuralError("generator is not skew-Hermitian")
    n = gens.shape[1]
    k = n * (n - 1) // 2
    coords = _vec(gens)
    trace = np.abs(coords[:, k: k + n].sum(axis=1))
    traceless = bool(np.all(trace <= rank_tol * np.linalg.norm(coords, axis=1)))
    # a traceless set generates a subalgebra of su(n): its closure ends there
    limit = n * n - traceless
    dim, span, abelian = _closed_span(coords, n, rank_tol, limit)
    classification, witness_span = _classify(dim, n, abelian), None
    # at n = 2 that dimension is u(2)'s, and sp(1) is su(2)
    if classification == CLASS_OTHER and n % 2 == 0 and dim == n * (n + 1) // 2 + 1:
        # pi(g) = g - (tr g / n) I, subtracting the mean of the diagonal
        # coordinates, is a Lie homomorphism, so closing pi of the generators
        # gives pi(L); its own basis, not L's projected, holds no element that
        # cancellation against the centre left at rounding-error size
        centreless = coords.copy()
        centreless[:, k: k + n] -= centreless[:, k: k + n].mean(axis=1, keepdims=True)
        pi_dim, pi_span, _ = _closed_span(centreless, n, rank_tol, n * n - 1)
        if pi_dim == n * (n + 1) // 2:
            classification, witness_span = CLASS_SP_CANDIDATE, pi_span
    return LieClosureResult._of(dim, span, classification, traceless, n, witness_span)


def _closed_span(coords: np.ndarray, n: int, rank_tol: float, limit: int) -> tuple:
    """(dimension, span, abelian) of the algebra generated by the u(n) coordinates ``coords``.

    The closure of ``closure``'s docstring, for generators already checked,
    stopped once its dimension reaches ``limit``. ``span`` is (bases,
    segments): the span bases, and (part, rows added) in the order the rows
    were added, from which ``_span_matrices`` builds the basis.
    """
    k = n * (n - 1) // 2
    x, y = coords[:, :k], coords[:, k:]
    if np.any(x.any(axis=1) & y.any(axis=1)):
        grades, rows = (None,), [coords]
    else:
        grades, rows = (0, 1), [x, y]
    eps = np.finfo(float).eps
    bases = [_SpanBasis(n, g) for g in grades]
    segments = []  # (part, rows added), in the order the rows were added
    # per part, the size and rounding error of each row the sweep added, as
    # grow returns them: the next sweep's frontier is those rows of its basis
    sizes, errors = [[] for _ in grades], [[] for _ in grades]

    def grow(t: int, block: np.ndarray, norms: np.ndarray, error: np.ndarray) -> None:
        # the new part of each row added is the row, scaled to unit norm, less
        # its projection on the span before it: the basis row times its size
        added, resid = bases[t].extend(block, rel_tol=rank_tol, floor=2.0 * error)
        segments.append((t, len(added)))
        sizes[t].append(resid / norms[added])
        errors[t].append(error[added] / norms[added] + n * eps)

    norms = [np.sqrt((r * r).sum(axis=1)) for r in rows]
    units = [r[m > 0] / m[m > 0, None] for r, m in zip(rows, norms)]
    gens = [_unvec(u, n, g) for u, g in zip(units, grades)]
    for t, u in enumerate(units):
        if len(u):
            grow(t, u, np.ones(len(u)), np.full(len(u), n * eps))
    abelian, before = True, 0
    # until a sweep adds nothing or the span reaches the limit
    while before < sum(b.dim for b in bases) < limit:
        before = sum(b.dim for b in bases)
        # where each part's frontier starts in its basis, with the rows' sizes and errors
        frontier = [
            (b.dim - sum(map(len, size)), np.concatenate([[], *size]), np.concatenate([[], *error]))
            for b, size, error in zip(bases, sizes, errors)
        ]
        sizes, errors = [[] for _ in grades], [[] for _ in grades]
        for (p, (start, size, error)), (q, g) in itertools.product(enumerate(frontier), enumerate(gens)):
            if not len(size) or not len(g):
                continue
            # [i^p F, i^q G] = i^(p+q) [F, G]. G F is (F G)^T when F and G share
            # a grade and -(F G)^T when not, (F G)^dagger in u(n): so [F, G] is
            # twice the part of F G in grade (p + q) mod 2, or its skew-Hermitian part
            t = (p + q) % len(grades)
            # formed and offered to the basis a piece of frontier rows at a
            # time: as many rows as keep a piece's products within
            # BLOCK_ENTRIES entries, but enough to give the basis about
            # _PIECE_ROWS brackets to project in one product
            piece = max(_block_rows(len(g) * n * n), _PIECE_ROWS // len(g))
            for lo in range(0, len(size), piece):
                s, e = size[lo: lo + piece], error[lo: lo + piece]
                f = _unvec(s[:, None] * bases[p].vectors[start + lo: start + lo + len(s)], n, grades[p])
                c = _vec(f[:, None] @ g, grades[t]).reshape(len(f) * len(g), -1)
                c *= -2.0 if p + q == 2 else 2.0
                # the rounding error of [F, G] for a unit G that carries n eps: twice
                # F's own, and n eps of F for G's and for the product
                err = np.repeat(2.0 * (e + 2 * n * eps * s), len(g))
                norm = np.sqrt((c * c).sum(axis=1))
                keep = norm > np.maximum(BRACKET_ZERO_TOL, 2.0 * err)
                if keep.any():
                    abelian = False
                    if not keep.all():
                        c, norm, err = c[keep], norm[keep], err[keep]
                    grow(t, c, norm, err)
    return sum(b.dim for b in bases), (bases, segments), abelian


def generators_from(H: ControlHamiltonian) -> list:
    """Skew-Hermitian generators {i H0, i H1, ..., i Hm} of the affine family.

    Because the control set is open, two distinct values per axis separate the
    drift from each controlled part, so the closure of this set equals the
    closure of {i H(u)} over the whole box.
    """
    return list(1j * H._stack)


def _sp_witness(basis, n: int) -> bool:
    """Search for an antiunitary structure J with J conj(J) = -I intertwining the basis.

    Solves the least-squares problem J X = conj(X) J over all basis elements
    by a smallest-singular-vector computation, then verifies that the
    candidate is (approximately) unitary and squares, as an antiunitary, to -1
    (``SP_WITNESS_NULL_REL`` and ``SP_WITNESS_TOL``).
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
    if float(svals[-1]) > SP_WITNESS_NULL_REL * scale:
        return False
    j_mat = vh[-1].conj().reshape(n, n)
    # J is a unit right-singular vector, so its singular values never all vanish
    j_mat = j_mat / float(np.mean(np.linalg.svd(j_mat, compute_uv=False)))
    if float(np.max(np.abs(j_mat @ j_mat.conj().T - eye))) > SP_WITNESS_TOL:
        return False
    if float(np.max(np.abs(j_mat @ np.conj(j_mat) + eye))) > SP_WITNESS_TOL:
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
        If ``n`` is not an integer equal to the dimension of the closure's
        generators, ``result.n``.
    """
    _check_integer("n", n, 1)
    if n != result.n:
        raise PreconditionError(
            f"closure of {result.n} x {result.n} generators classified at n = {n}"
        )
    if result.classification in (CLASS_FULL, CLASS_TRACELESS):
        return TransitivityVerdict(controllable_on_sphere=True, controllable_on_group=True)
    if result.classification == CLASS_SP_CANDIDATE:
        basis = result.basis if result._witness_basis is None else result._witness_basis
        if _sp_witness(list(basis), n):
            return TransitivityVerdict(controllable_on_sphere=True, controllable_on_group=False)
        return TransitivityVerdict(controllable_on_sphere=None, controllable_on_group=False)
    return TransitivityVerdict(controllable_on_sphere=False, controllable_on_group=False)
