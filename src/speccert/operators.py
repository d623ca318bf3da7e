"""Control-affine Hermitian operator families H(u) = H0 + sum_l u_l H_l.

Control points are plain real ndarrays of length m; the control domain is an
axis-aligned box given per axis as a closed interval [lo_l, hi_l].
"""

from __future__ import annotations

import csv
import itertools
import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import NumericalError, PreconditionError, StructuralError
from .tolerance import HERMITICITY_TOL, _check_integer


def hermiticity_defect(matrix) -> float:
    """Largest entrywise |A - A^dagger|.

    Raises
    ------
    StructuralError
        If the input is ragged or holds non-numbers (bools and strings included).
    """
    a = _numeric_array(matrix, "matrix", kinds="iufc").astype(complex, copy=False)
    return float(np.max(np.abs(a - a.conj().T)))


@dataclass(frozen=True)
class ValidityReport:
    dim: int
    defect: float
    accepted: bool


def _within_hermiticity_tol(a: np.ndarray, defect):
    """Per matrix of the stack ``a`` (..., n, n), whether its Hermiticity defect
    ``defect`` (...) is at most ``HERMITICITY_TOL * max|a|``.

    The rule does not depend on the energy unit; it also judges
    skew-Hermiticity, whose defect |a + a^dagger| is that of i a. The largest
    entries are read only when some defect is nonzero, so accepting an
    exactly Hermitian matrix costs nothing more.
    """
    ok = np.asarray(defect) == 0
    if ok.all():
        return ok
    return ok | (defect <= HERMITICITY_TOL * np.max(np.abs(a), axis=(-2, -1)))


def validate(matrix) -> ValidityReport:
    """Check a square matrix for Hermiticity.

    Accepts a raw array or a HermitianOperator. The report accepts the
    matrix iff its Hermiticity defect is within ``_within_hermiticity_tol``.

    Raises
    ------
    StructuralError
        If the input is not a square matrix of numbers (ragged, holding
        bools, strings or other non-numbers, or of another shape). A matrix
        with an inf or nan entry is not refused: its report does not accept it.
    """
    a = _numeric_array(matrix, "matrix", kinds="iufc").astype(complex, copy=False)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise StructuralError(f"expected a square matrix, got shape {a.shape}")
    defect = hermiticity_defect(a)
    accepted = bool(_within_hermiticity_tol(a, defect))
    return ValidityReport(dim=a.shape[0], defect=defect, accepted=accepted)


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _checked_hermitian(a: np.ndarray) -> np.ndarray:
    """The stack ``a`` (..., n, n), read-only, once each of its matrices is Hermitian.

    Raises
    ------
    StructuralError
        If some matrix fails ``_within_hermiticity_tol``.
    """
    diff = np.abs(a - np.swapaxes(a.conj(), -1, -2))
    if diff.any():
        defect = np.max(diff, axis=(-2, -1))
        bad = ~_within_hermiticity_tol(a, defect)
        if bad.any():
            raise StructuralError(
                f"matrix is not Hermitian (defect {float(np.max(defect[bad])):.3e} > "
                f"{HERMITICITY_TOL:.0e} x largest entry); "
                "use HermitianOperator.from_array(..., symmetrize=True) to fold it explicitly"
            )
    return _freeze(a)


def _checked_box(box, m: int) -> np.ndarray:
    """``box`` as a read-only (m, 2) float array of closed intervals lo < hi.

    Raises
    ------
    StructuralError
        If it has another shape, a non-finite entry, or an interval with lo >= hi.
    """
    box = _finite_array(box, "box").astype(float)
    if box.shape != (m, 2):
        raise StructuralError(f"box must have shape ({m}, 2), got {box.shape}")
    if not np.all(box[:, 0] < box[:, 1]):
        raise StructuralError("each control interval needs lo < hi")
    return _freeze(box)


def _box_diameters(box: np.ndarray) -> np.ndarray:
    """Diagonal lengths (N,) of boxes (N, m, 2).

    Each is the square root of one dot product of the box's side lengths with
    themselves, as ``np.linalg.norm`` computes it, whichever boxes share the call.
    """
    sides = box[..., 1] - box[..., 0]
    return np.sqrt(sides[:, None, :] @ sides[:, :, None])[:, 0, 0]


def _energy_scales(stacks: np.ndarray, box: np.ndarray) -> np.ndarray:
    """``energy_scale`` (N,) of the families with operator stacks (N, m + 1, n, n) over one
    box, from one stacked eigensolve; each is bitwise its family's alone."""
    m = box.shape[0]
    center = (box[:, 0] + box[:, 1]) / 2
    if m <= 6:
        others = np.array(list(itertools.product(*box)))
    else:
        others = np.tile(center, (2 * m, 1))
        others[np.arange(2 * m), np.repeat(np.arange(m), 2)] = box.ravel()
    mats = _affine_stack(stacks[:, None], np.vstack([center, others]))
    lam = np.linalg.eigvalsh(mats.reshape(-1, *mats.shape[-2:])).reshape(mats.shape[:-1])
    return np.max(lam[..., -1] - lam[..., 0], axis=1)


def _numeric_array(values, what: str, kinds: str = "iuf") -> np.ndarray:
    """``values`` as an ndarray of one of the numpy dtype ``kinds``.

    Raises
    ------
    StructuralError
        If ``values`` is ragged or holds non-numbers (bools and strings included).
    """
    if isinstance(values, (list, tuple)):
        # numpy reads a bool among numbers as 0 or 1; an array leaf is judged by its dtype
        stack = list(values)
        while stack:
            v = stack.pop()
            if isinstance(v, (list, tuple)):
                stack.extend(v)
            elif isinstance(v, bool) or getattr(v, "dtype", None) == bool:
                raise StructuralError(f"{what} must hold numbers, got a bool")
    try:
        a = np.asarray(values)
    except ValueError as exc:
        raise StructuralError(f"{what} is not a rectangular array: {exc}") from exc
    if a.dtype.kind not in kinds:
        raise StructuralError(f"{what} must hold numbers, got dtype {a.dtype}")
    return a


def _finite_array(values, what: str, kinds: str = "iuf") -> np.ndarray:
    """``values`` as an ndarray of one of the numpy dtype ``kinds``, all finite.

    Raises
    ------
    StructuralError
        If ``values`` is ragged, holds non-numbers, or holds inf/nan.
    """
    a = _numeric_array(values, what, kinds)
    if not np.all(np.isfinite(a)):
        raise StructuralError(f"{what} has non-finite entries")
    return a


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """An n x n Hermitian matrix, n >= 2, immutable after construction.

    The matrix is stored as float64 when no entry has a nonzero imaginary part
    and as complex128 otherwise; this is the one place a family's field is
    decided, and every stage that reads its operators runs in that field.
    """

    matrix: np.ndarray

    def __post_init__(self):
        a = _finite_array(self.matrix, "operator matrix", kinds="iufc")
        a = a.astype(complex) if np.iscomplexobj(a) and a.imag.any() else a.real.astype(float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise StructuralError(f"expected a square matrix, got shape {a.shape}")
        if a.shape[0] < 2:
            raise StructuralError("operator dimension must be at least 2")
        object.__setattr__(self, "matrix", _checked_hermitian(a))

    @classmethod
    def from_array(cls, matrix, symmetrize: bool = False) -> "HermitianOperator":
        """Build from an array; with symmetrize=True replace A by (A + A^dagger)/2.

        The entries take the constructor's contract: a ragged matrix, bools,
        strings or other non-numbers raise ``StructuralError``.
        """
        a = _numeric_array(matrix, "operator matrix", kinds="iufc").astype(complex, copy=False)
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


def _row_operator(row: np.ndarray) -> HermitianOperator:
    """A HermitianOperator over a validated read-only stack row, sharing its memory."""
    op = object.__new__(HermitianOperator)
    object.__setattr__(op, "matrix", row)
    return op


def _affine_stack(ops: np.ndarray, U: np.ndarray) -> np.ndarray:
    """Matrices ops[0] + sum_l U[..., l] ops[l + 1] stacked as (..., n, n), for U of shape (..., m).

    ``ops`` is one (m + 1, n, n) operator stack, constant term first, or
    stacks that broadcast against U's leading axes, (..., m + 1, n, n): one
    per row of U, say, or one per leading index of a (N, K, m) array of
    points. Every entry is summed term by term in a fixed order, so each
    matrix is bitwise the same whichever other matrices, with whichever
    operators, share the call; a BLAS product would not promise that, since
    its kernel, and so its rounding, depends on N.
    """
    out = ops[..., 0, :, :] + U[..., 0, None, None] * ops[..., 1, :, :]
    for l in range(1, U.shape[-1]):
        out += U[..., l, None, None] * ops[..., l + 1, :, :]
    return out


@dataclass(frozen=True, eq=False)
class ControlHamiltonian:
    """Affine family H(u) = drift + sum_l u_l * controlled[l] over a box.

    The family stores its operators once, as the read-only (m + 1, n, n)
    operator stack ``_stack`` built at construction, drift in row 0: float64
    when every operator is, else complex128, so every stage that reads it runs
    a real family in real arithmetic. ``drift`` and ``controlled`` are
    operators over views of its rows. The rest of the package reads a family
    only through that stack and its spectral norms ``_norms``, computed once.

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
        box = _checked_box(self.box, len(controlled))
        stack = _freeze(np.stack([self.drift.matrix, *(h.matrix for h in controlled)]))
        object.__setattr__(self, "_stack", stack)
        object.__setattr__(self, "drift", _row_operator(stack[0]))
        object.__setattr__(self, "controlled", tuple(_row_operator(row) for row in stack[1:]))
        object.__setattr__(self, "box", box)

    @property
    def dim(self) -> int:
        return self.drift.dim

    @property
    def m(self) -> int:
        return len(self.controlled)

    def box_diameter(self) -> float:
        """Euclidean length of the box diagonal."""
        return float(_box_diameters(self.box[None])[0])

    def box_center(self) -> np.ndarray:
        return (self.box[:, 0] + self.box[:, 1]) / 2

    def contains(self, u, margin: float = 0.0) -> bool:
        """True if u is inside the box, shrunk on every side by ``margin``.

        A point with an inf or nan entry lies in no box.

        Raises
        ------
        StructuralError
            If u is not m numbers.
        """
        u = _numeric_array(u, "control point").astype(float)
        if u.shape != (self.m,):
            raise StructuralError(f"control point must have length {self.m}, got shape {u.shape}")
        return bool(
            np.all(u >= self.box[:, 0] + margin) and np.all(u <= self.box[:, 1] - margin)
        )

    def _checked_point(self, u, what: str = "control point") -> np.ndarray:
        """u as a new float array of shape (m,): the family's check of a control point.

        Raises
        ------
        StructuralError
            If u is not m finite numbers: ragged, holding non-numbers (bools
            and strings included), of another shape, or holding inf/nan.
        """
        u = _finite_array(u, what).astype(float)
        if u.shape != (self.m,):
            raise StructuralError(f"{what} must have length {self.m}, got shape {u.shape}")
        return u

    def _checked_points(self, U, what: str = "control points") -> np.ndarray:
        """U as a new float array of shape (N, m), checked as ``_checked_point`` checks one."""
        U = _finite_array(U, what).astype(float)
        if U.ndim != 2 or U.shape[1] != self.m:
            raise StructuralError(f"{what} must have shape (N, {self.m}), got {U.shape}")
        return U

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
        return float(_energy_scales(self._stack[None], self.box)[0])

    def matrix_at(self, u) -> np.ndarray:
        """Raw matrix of H(u), bitwise equal to the matching row of ``matrices_at``."""
        return _affine_stack(self._stack, self._checked_point(u)[None])[0]

    def matrices_at(self, U) -> np.ndarray:
        """Raw matrices H(U[k]) stacked as (N, n, n) for control points U of shape (N, m).

        Row k is bitwise the same whichever other rows share the call
        (``_affine_stack``).

        Raises
        ------
        StructuralError
            If U is not of shape (N, m), holds non-numbers or has a non-finite entry.
        """
        return _affine_stack(self._stack, self._checked_points(U))

    def norm_bound(self, u) -> float:
        """Upper bound on the spectral norm of H(u) via the triangle inequality.

        ``propagate`` does not use it: it sizes its steps by the spectral
        half-spread of H, which an energy offset does not change.
        """
        u = self._checked_point(u)
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
            dim = d["dim"]
            # read as a count is read: a bool, a float or a string is no dim
            _check_integer("dim", dim, 1)
            drift = HermitianOperator.from_json_dict(d["drift"])
            controlled = tuple(HermitianOperator.from_json_dict(c) for c in d["controlled"])
            box = d["box"]
        except (KeyError, TypeError, ValueError, PreconditionError) as exc:
            raise StructuralError(f"malformed Hamiltonian document: {exc}") from exc
        if drift.dim != dim:
            raise StructuralError(f"declared dim {dim} does not match drift dim {drift.dim}")
        return cls(drift=drift, controlled=controlled, box=box)

    def save(self, path) -> None:
        _write_json(self.to_json_dict(), path)


def _json_text(doc, indent=None) -> str:
    """``doc`` as strict JSON with sorted keys, compact or indented by ``indent``; a nan
    or inf, which RFC 8259 JSON cannot carry, raises ``NumericalError``. Every output
    document is encoded here. Compact text keeps json's C encoder, which an indent gives up."""
    try:
        return json.dumps(doc, sort_keys=True, indent=indent, allow_nan=False)
    except ValueError as exc:
        raise NumericalError(f"document is not strict JSON: {exc}") from exc


def _write_json(doc, path) -> None:
    """Write ``doc`` as strict JSON indented by 2, encoded in full before the file opens."""
    Path(path).write_text(_json_text(doc, indent=2))


def _columns(prefix: str, count: int) -> list:
    """CSV column names prefix_1 .. prefix_count."""
    return [f"{prefix}_{i}" for i in range(1, count + 1)]


def _write_csv(path, header, rows) -> None:
    """Write ``header`` and the iterable ``rows`` of Python numbers as CSV; csv writes
    a float as its repr, so it reads back bitwise."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


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
