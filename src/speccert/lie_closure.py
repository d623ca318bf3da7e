"""Real Lie algebra generated by skew-Hermitian matrices under iterated brackets.

The closure is grown breadth-first on an orthonormal basis of the span (real
inner product Re tr(A^dagger B)), bracketing new directions with the
generators only (see ``closure``). Classification is by dimension: the full
algebra has dimension n^2, its traceless part n^2 - 1, and for even n the
quaternionic candidate has dimension n(n+1)/2, resolved by an explicit
antiunitary-structure witness search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StructuralError
from .operators import ControlHamiltonian

RANK_TOL = 1e-9
BRACKET_ZERO_TOL = 1e-12
SKEW_TOL = 1e-12
TRACE_TOL = 1e-10

CLASS_FULL = "u(n)"
CLASS_TRACELESS = "su(n)"
CLASS_SP_CANDIDATE = "sp-candidate"
CLASS_ABELIAN = "abelian-or-small"
CLASS_OTHER = "other"


def _vec(a: np.ndarray) -> np.ndarray:
    """Real coordinates of each matrix in a stack (..., n, n), one row per matrix."""
    lead = a.shape[:-2]
    return np.concatenate([a.real.reshape(*lead, -1), a.imag.reshape(*lead, -1)], axis=-1)


def _unvec(v: np.ndarray, n: int) -> np.ndarray:
    m = (v[..., : n * n] + 1j * v[..., n * n:]).reshape(*v.shape[:-1], n, n)
    # the skew-Hermitian subspace is closed under projection; fold roundoff back
    return (m - np.swapaxes(m.conj(), -1, -2)) / 2


class _SpanBasis:
    """Orthonormal basis (rows ``vectors[:dim]``) of a growing space of skew-Hermitian matrices."""

    def __init__(self, n: int):
        self.n = n
        self.dim = 0
        self.vectors = np.zeros((n * n, 2 * n * n))

    def try_add(self, v: np.ndarray, rel_tol: float = RANK_TOL) -> bool:
        """Add the component of ``v`` orthogonal to the span; False if dependent."""
        norm0 = float(np.linalg.norm(v))
        if norm0 == 0.0:
            return False
        q = self.vectors[: self.dim]
        # two projection passes keep orthogonality near machine precision
        for _ in range(2):
            v = v - q.T @ (q @ v)
        resid = float(np.linalg.norm(v))
        if resid <= rel_tol * norm0:
            return False
        self.vectors[self.dim] = v / resid
        self.dim += 1
        return True

    def extend(self, candidates: np.ndarray, rel_tol: float) -> None:
        """``try_add`` each candidate row in order, stopping once the span is all of u(n)."""
        for v in candidates:
            if self.dim == len(self.vectors):
                return
            self.try_add(v, rel_tol=rel_tol)

    def matrices(self, start: int = 0) -> np.ndarray:
        """Basis elements from ``start`` on as a stack of skew-Hermitian matrices."""
        return _unvec(self.vectors[start: self.dim], self.n)


@dataclass(frozen=True)
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
        scale = max(1.0, float(np.max(np.abs(a))))
        if float(np.max(np.abs(a + a.conj().T))) > SKEW_TOL * scale:
            raise StructuralError("generator is not skew-Hermitian")
        out.append(a)
    return out


def _is_abelian(basis: list) -> bool:
    for i, a in enumerate(basis):
        for b in basis[i + 1:]:
            c = a @ b - b @ a
            if float(np.linalg.norm(c)) > 1e-10:
                return False
    return True


def _classify(dim: int, n: int, traceless: bool, basis: list) -> str:
    if dim == n * n:
        return CLASS_FULL
    if dim == n * n - 1 and traceless:
        return CLASS_TRACELESS
    if n % 2 == 0 and dim == n * (n + 1) // 2:
        return CLASS_SP_CANDIDATE
    if _is_abelian(basis):
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
    Brackets of these unit-norm elements with norm below 1e-12 count as zero.

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
    traceless = all(
        abs(complex(np.trace(g))) <= TRACE_TOL * float(np.linalg.norm(g)) for g in gens
    )
    basis = _SpanBasis(n)
    basis.extend(_vec(np.array(gens)), rel_tol=rank_tol)
    span = basis.matrices()
    start = 0
    while start < basis.dim < n * n:
        frontier = basis.matrices(start)[:, None]
        start = basis.dim
        brackets = _vec(frontier @ span - span @ frontier).reshape(-1, 2 * n * n)
        nonzero = np.linalg.norm(brackets, axis=1) > BRACKET_ZERO_TOL
        basis.extend(brackets[nonzero], rel_tol=rank_tol)
    mats = tuple(basis.matrices())
    return LieClosureResult(
        dimension=basis.dim,
        basis=mats,
        classification=_classify(basis.dim, n, traceless, list(mats)),
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
        return {
            "controllable_on_sphere": self.controllable_on_sphere,
            "controllable_on_group": self.controllable_on_group,
        }


def classify_transitive(result: LieClosureResult, n: int) -> TransitivityVerdict:
    """Decide controllability of the lifted system and of the state sphere.

    Group controllability requires the full algebra (dimension n^2) or its
    traceless part (n^2 - 1 with traceless generators). Sphere
    controllability additionally holds when n is even, the dimension equals
    n(n+1)/2 and an antiunitary structure witness confirms the quaternionic
    algebra; candidate dimension without a witness is reported indeterminate.
    """
    on_group = result.dimension == n * n or (
        result.dimension == n * n - 1 and result.traceless_generators
    )
    if on_group:
        return TransitivityVerdict(controllable_on_sphere=True, controllable_on_group=True)
    if n % 2 == 0 and result.dimension == n * (n + 1) // 2:
        if _sp_witness(list(result.basis), n):
            return TransitivityVerdict(controllable_on_sphere=True, controllable_on_group=False)
        return TransitivityVerdict(controllable_on_sphere=None, controllable_on_group=False)
    return TransitivityVerdict(controllable_on_sphere=False, controllable_on_group=False)
