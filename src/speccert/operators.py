"""Control-affine Hermitian operator families H(u) = H0 + sum_l u_l H_l.

Control points are plain real ndarrays of length m; the control domain is an
axis-aligned box given per axis as a closed interval [lo_l, hi_l].
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import StructuralError

# Absolute per-entry tolerance for accepting a matrix as Hermitian.
HERMITICITY_TOL = 1e-12


def hermiticity_defect(matrix) -> float:
    """Largest entrywise |A - A^dagger|."""
    a = np.asarray(matrix, dtype=complex)
    return float(np.max(np.abs(a - a.conj().T)))


@dataclass(frozen=True)
class ValidityReport:
    dim: int
    defect: float
    accepted: bool


def validate(matrix) -> ValidityReport:
    """Check a square matrix for Hermiticity.

    Accepts a raw array or a HermitianOperator. The report accepts the
    matrix iff its Hermiticity defect is at most ``HERMITICITY_TOL``.

    Raises
    ------
    StructuralError
        If the input is not a square matrix.
    """
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise StructuralError(f"expected a square matrix, got shape {a.shape}")
    defect = hermiticity_defect(a)
    return ValidityReport(dim=a.shape[0], defect=defect, accepted=defect <= HERMITICITY_TOL)


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _finite_array(values, what: str, kinds: str = "iuf") -> np.ndarray:
    """``values`` as an ndarray of one of the numpy dtype ``kinds``, all finite.

    Raises
    ------
    StructuralError
        If ``values`` is ragged, holds non-numbers, or holds inf/nan.
    """
    try:
        a = np.asarray(values)
    except ValueError as exc:
        raise StructuralError(f"{what} is not a rectangular array: {exc}") from exc
    if a.dtype.kind not in kinds:
        raise StructuralError(f"{what} must hold numbers, got dtype {a.dtype}")
    if not np.all(np.isfinite(a)):
        raise StructuralError(f"{what} has non-finite entries")
    return a


@dataclass(frozen=True)
class HermitianOperator:
    """An n x n Hermitian matrix, n >= 2, immutable after construction."""

    matrix: np.ndarray

    def __post_init__(self):
        a = _finite_array(self.matrix, "operator matrix", kinds="iufc").astype(complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise StructuralError(f"expected a square matrix, got shape {a.shape}")
        if a.shape[0] < 2:
            raise StructuralError("operator dimension must be at least 2")
        defect = hermiticity_defect(a)
        if defect > HERMITICITY_TOL:
            raise StructuralError(
                f"matrix is not Hermitian (defect {defect:.3e} > {HERMITICITY_TOL:.0e}); "
                "use HermitianOperator.from_array(..., symmetrize=True) to fold it explicitly"
            )
        object.__setattr__(self, "matrix", _freeze(a))

    @classmethod
    def from_array(cls, matrix, symmetrize: bool = False) -> "HermitianOperator":
        """Build from an array; with symmetrize=True replace A by (A + A^dagger)/2."""
        a = np.asarray(matrix, dtype=complex)
        if symmetrize:
            if a.ndim != 2 or a.shape[0] != a.shape[1]:
                raise StructuralError(f"expected a square matrix, got shape {a.shape}")
            a = (a + a.conj().T) / 2
        return cls(a)

    @classmethod
    def from_real_imag(cls, re, im) -> "HermitianOperator":
        re = _finite_array(re, "real part")
        im = _finite_array(im, "imaginary part")
        if re.shape != im.shape:
            raise StructuralError(
                f"real part {re.shape} and imaginary part {im.shape} differ in shape"
            )
        return cls(re + 1j * im)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __array__(self, dtype=None, copy=None):
        m = self.matrix
        return m.astype(dtype) if dtype is not None else np.array(m, copy=True)

    def operator_norm(self) -> float:
        """Spectral norm (largest absolute eigenvalue)."""
        return float(np.max(np.abs(np.linalg.eigvalsh(self.matrix))))

    def to_json_dict(self) -> dict:
        return {"re": self.matrix.real.tolist(), "im": self.matrix.imag.tolist()}

    @classmethod
    def from_json_dict(cls, d: dict) -> "HermitianOperator":
        return cls.from_real_imag(d["re"], d["im"])


def _affine_stack(ops: np.ndarray, U: np.ndarray) -> np.ndarray:
    """Matrices ops[0] + sum_l U[k, l] ops[l + 1] stacked as (N, n, n), for U of shape (N, m).

    ``ops`` is one (m + 1, n, n) operator stack, constant term first, or one
    such stack per row, (N, m + 1, n, n). Every entry is summed term by term
    in a fixed order, so row k is bitwise the same whichever other rows, with
    whichever operators, share the call; a BLAS product would not promise
    that, since its kernel, and so its rounding, depends on N.
    """
    out = ops[..., 0, :, :] + U[:, 0, None, None] * ops[..., 1, :, :]
    for l in range(1, U.shape[1]):
        out += U[:, l, None, None] * ops[..., l + 1, :, :]
    return out


@dataclass(frozen=True)
class ControlHamiltonian:
    """Affine family H(u) = drift + sum_l u_l * controlled[l] over a box.

    The rest of the package reads a family only through its read-only
    (m + 1, n, n) operator stack ``_stack``, drift in row 0, and the stack's
    spectral norms ``_norms``, each computed once.

    Parameters
    ----------
    drift : HermitianOperator
        The control-independent part.
    controlled : tuple of HermitianOperator
        The m >= 2 controlled operators.
    box : (m, 2) array
        Closed control intervals [lo_l, hi_l] per axis, lo_l < hi_l.
    """

    drift: HermitianOperator
    controlled: tuple
    box: np.ndarray

    def __post_init__(self):
        controlled = tuple(self.controlled)
        if len(controlled) < 2:
            raise StructuralError("at least two controlled operators are required (m >= 2)")
        dims = {self.drift.dim} | {h.dim for h in controlled}
        if len(dims) != 1:
            raise StructuralError(f"all operators must share one dimension, got {sorted(dims)}")
        box = _finite_array(self.box, "box").astype(float)
        if box.shape != (len(controlled), 2):
            raise StructuralError(
                f"box must have shape ({len(controlled)}, 2), got {box.shape}"
            )
        if not np.all(box[:, 0] < box[:, 1]):
            raise StructuralError("each control interval needs lo < hi")
        object.__setattr__(self, "controlled", controlled)
        object.__setattr__(self, "box", _freeze(box))

    @property
    def dim(self) -> int:
        return self.drift.dim

    @property
    def m(self) -> int:
        return len(self.controlled)

    def box_diameter(self) -> float:
        """Euclidean length of the box diagonal."""
        return float(np.linalg.norm(self.box[:, 1] - self.box[:, 0]))

    def box_center(self) -> np.ndarray:
        return (self.box[:, 0] + self.box[:, 1]) / 2

    def contains(self, u, margin: float = 0.0) -> bool:
        """True if u is inside the box, shrunk on every side by ``margin``."""
        u = np.asarray(u, dtype=float)
        return bool(
            np.all(u >= self.box[:, 0] + margin) and np.all(u <= self.box[:, 1] - margin)
        )

    @cached_property
    def _stack(self) -> np.ndarray:
        """(m + 1, n, n) stack of the drift and the controlled matrices, built on first use."""
        return _freeze(np.stack([self.drift.matrix, *(h.matrix for h in self.controlled)]))

    @cached_property
    def _norms(self) -> np.ndarray:
        """(m + 1,) spectral norms of the stack's rows, from one stacked eigensolve."""
        return _freeze(np.max(np.abs(np.linalg.eigvalsh(self._stack)), axis=1))

    def control_norms(self) -> np.ndarray:
        """Spectral norms of the controlled operators."""
        return self._norms[1:].copy()

    @cached_property
    def energy_scale(self) -> float:
        """Spectral diameter max(lambda_n - lambda_1) over probe points, computed once.

        The probes are the box center and corners, or for m > 6 the center's
        per-axis extreme points, which keeps the probe count linear in m. The
        value scales with the family, (sH).energy_scale = |s| H.energy_scale,
        and sets every degeneracy threshold (``spectrum.degeneracy_tol``).
        """
        center = self.box_center()
        if self.m <= 6:
            others = np.array(list(itertools.product(*self.box)))
        else:
            others = np.tile(center, (2 * self.m, 1))
            others[np.arange(2 * self.m), np.repeat(np.arange(self.m), 2)] = self.box.ravel()
        lam = np.linalg.eigvalsh(self.matrices_at(np.vstack([center, others])))
        return float(np.max(lam[:, -1] - lam[:, 0]))

    def matrix_at(self, u) -> np.ndarray:
        """Raw matrix of H(u), bitwise equal to the matching row of ``matrices_at``."""
        u = np.asarray(u, dtype=float)
        if u.shape != (self.m,):
            raise StructuralError(f"control point must have length {self.m}, got shape {u.shape}")
        return self.matrices_at(u[None])[0]

    def matrices_at(self, U) -> np.ndarray:
        """Raw matrices H(U[k]) stacked as (N, n, n) for control points U of shape (N, m).

        Row k is bitwise the same whichever other rows share the call
        (``_affine_stack``).
        """
        U = np.asarray(U, dtype=float)
        if U.ndim != 2 or U.shape[1] != self.m:
            raise StructuralError(f"control points must have shape (N, {self.m}), got {U.shape}")
        return _affine_stack(self._stack, U)

    def norm_bound(self, u) -> float:
        """Upper bound on the spectral norm of H(u) via the triangle inequality."""
        u = np.asarray(u, dtype=float)
        return float(self._norms[0] + np.abs(u) @ self._norms[1:])

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "drift": self.drift.to_json_dict(),
            "controlled": [h.to_json_dict() for h in self.controlled],
            "box": self.box.tolist(),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "ControlHamiltonian":
        try:
            dim = int(d["dim"])
            drift = HermitianOperator.from_json_dict(d["drift"])
            controlled = tuple(HermitianOperator.from_json_dict(c) for c in d["controlled"])
            box = d["box"]
        except (KeyError, TypeError, ValueError) as exc:
            raise StructuralError(f"malformed Hamiltonian document: {exc}") from exc
        if drift.dim != dim:
            raise StructuralError(f"declared dim {dim} does not match drift dim {drift.dim}")
        return cls(drift=drift, controlled=controlled, box=box)

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict(), sort_keys=True))


def read_json(path):
    """The parsed JSON document at ``path``.

    Raises
    ------
    StructuralError
        If the file is not UTF-8 text or not JSON.
    """
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise StructuralError(
            f"malformed JSON in {path}: {exc.msg} at line {exc.lineno}, column {exc.colno}"
        ) from exc
    except UnicodeDecodeError as exc:
        raise StructuralError(f"malformed JSON in {path}: {exc.reason}") from exc


def load_hamiltonian(path) -> ControlHamiltonian:
    """Load a ControlHamiltonian from its JSON file representation.

    Raises
    ------
    StructuralError
        If the file is not JSON or the document is not a valid Hamiltonian.
    """
    return ControlHamiltonian.from_json_dict(read_json(path))


def evaluate(H: ControlHamiltonian, u) -> HermitianOperator:
    """Evaluate the affine family at a control point.

    The result is the exact affine combination drift + sum_l u_l * controlled[l];
    no tolerance is involved and the output is Hermitian entry-exactly.
    """
    return HermitianOperator(H.matrix_at(u))
