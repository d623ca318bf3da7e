import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speccert import (
    ControlHamiltonian,
    HermitianOperator,
    NumericalError,
    StructuralError,
    closure,
    evaluate,
    generators_from,
    load_hamiltonian,
    validate,
)
from speccert.certify import _perturbed_stacks
from speccert.operators import _affine_stack, _checked_hermitian, _write_json
from speccert.sampling import random_symmetric
from conftest import SIGMA_X, SIGMA_Y, SIGMA_Z, make_family, random_family


class TestValidate:
    def test_identity_accepted_with_zero_defect(self):
        report = validate(np.eye(2))
        assert report.accepted
        assert report.defect == 0.0

    def test_diagonal_accepted(self):
        report = validate(np.diag([0.0, 1.0, 2.0]))
        assert report.accepted

    def test_antihermitian_offdiagonal_rejected(self):
        m = np.zeros((3, 3), dtype=complex)
        m[0, 1] = 1j
        m[1, 0] = 1j
        report = validate(m)
        assert not report.accepted
        assert report.defect == pytest.approx(2.0)

    def test_nonsquare_raises(self):
        with pytest.raises(StructuralError):
            validate(np.zeros((2, 3)))

    def test_accepts_operator_instances(self):
        op = HermitianOperator(SIGMA_X)
        assert validate(op).accepted


class TestHermitianOperator:
    def test_rejects_small_dimension(self):
        with pytest.raises(StructuralError):
            HermitianOperator(np.array([[1.0]]))

    def test_rejects_nonhermitian(self):
        with pytest.raises(StructuralError):
            HermitianOperator(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_symmetrize_is_explicit(self):
        raw = np.array([[0, 1], [0, 0]], dtype=complex)
        op = HermitianOperator.from_array(raw, symmetrize=True)
        assert np.allclose(op.matrix, np.array([[0, 0.5], [0.5, 0]]))

    @pytest.mark.parametrize(
        "build",
        [HermitianOperator, lambda a: HermitianOperator.from_array(a, symmetrize=True)],
        ids=["constructor", "symmetrize"],
    )
    def test_rejects_a_non_square_matrix(self, build):
        with pytest.raises(StructuralError, match=r"expected a square matrix, got shape \(2, 3\)"):
            build(np.zeros((2, 3)))

    def test_matrix_is_immutable(self):
        op = HermitianOperator(SIGMA_Z)
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 5.0


class TestHermiticityRule:
    """One acceptance rule for Hermitian inputs and skew-Hermitian closure generators:
    1e-12 per entry, times the largest entry."""

    SCALES = [1e-6, 1e-3, 1.0, 1e3, 1e6]

    @staticmethod
    def _rounded(s: float) -> np.ndarray:
        """V diag(s d) V^T with V orthogonal: Hermitian up to the rounding of its products."""
        rng = np.random.default_rng(4)
        V = np.linalg.qr(rng.standard_normal((6, 6)))[0]
        return V @ np.diag(s * rng.uniform(-1, 1, 6)) @ V.T

    @pytest.mark.parametrize("s", SCALES)
    def test_rounding_is_accepted_in_every_energy_unit(self, s):
        a = self._rounded(s)
        assert validate(a).accepted
        HermitianOperator(a)
        closure([1j * a])

    def test_largest_unit_exceeds_the_absolute_tolerance(self):
        # the rule is relative there, not only at the unit scale
        assert validate(self._rounded(1e6)).defect > 1e-12

    @pytest.mark.parametrize("s", SCALES)
    def test_relative_defect_is_rejected_in_every_energy_unit(self, s):
        # below unit entries the rule was absolute and accepted s = 1e-6 and 1e-3
        a = s * np.array([[1.0, 1.0 + 1e-9], [1.0, -1.0]])
        assert not validate(a).accepted
        with pytest.raises(StructuralError, match="not Hermitian"):
            HermitianOperator(a)
        with pytest.raises(StructuralError, match="skew-Hermitian"):
            closure([1j * a])

    def test_stacks_are_judged_matrix_by_matrix(self):
        # a defect of 1e-11 passes beside entries of 100, but not beside entries of 1,
        # whatever the other matrices of the stack hold
        _checked_hermitian(np.stack([1e6 * SIGMA_Z, [[0.0, 100.0 + 1e-11], [100.0, 0.0]]]))
        with pytest.raises(StructuralError, match="not Hermitian"):
            _checked_hermitian(np.stack([1e6 * SIGMA_Z, [[0.0, 1.0 + 1e-11], [1.0, 0.0]]]))


class TestStoredField:
    """A HermitianOperator is float64 when no entry has a nonzero imaginary part,
    else complex128; a family's operator stack follows its operators."""

    @pytest.mark.parametrize(
        "matrix",
        [
            [[1, 2], [2, -1]],
            np.array([[1.0, 2.0], [2.0, -1.0]], dtype=np.float32),
            np.array([[1.0, 2.0], [2.0, -1.0]], dtype=complex),
            np.array([[1.0, complex(2.0, -0.0)], [complex(2.0, -0.0), -1.0]]),
        ],
        ids=["int", "float32", "complex", "negative-zero-imaginary"],
    )
    def test_real_entries_are_stored_as_float64(self, matrix):
        op = HermitianOperator(matrix)
        assert op.matrix.dtype == np.float64
        assert np.array_equal(op.matrix, [[1.0, 2.0], [2.0, -1.0]])

    @pytest.mark.parametrize("imaginary", [1.0, 1e-300])
    def test_a_nonzero_imaginary_part_is_stored_as_complex128(self, imaginary):
        op = HermitianOperator([[1.0, 2.0 + imaginary * 1j], [2.0 - imaginary * 1j, -1.0]])
        assert op.matrix.dtype == np.complex128
        assert op.matrix[0, 1].imag == imaginary

    def test_stack_is_float64_exactly_when_every_operator_is(self):
        real = make_family(SIGMA_Z, [SIGMA_X, SIGMA_Z], [[-1, 1], [-1, 1]])
        assert real._stack.dtype == np.float64
        mixed = make_family(SIGMA_Z, [SIGMA_X, SIGMA_Y], [[-1, 1], [-1, 1]])
        assert mixed._stack.dtype == np.complex128
        assert mixed.drift.matrix.dtype == np.complex128
        assert np.array_equal(mixed._stack[:2], real._stack[:2])

    def test_save_does_not_depend_on_the_input_dtype(self, tmp_path):
        rng = np.random.default_rng(5)
        mats = [random_symmetric(rng, 4) for _ in range(3)]
        box = np.array([[-1.0, 1.0], [-2.0, 0.5]])
        texts = []
        for dtype in (float, complex):
            H = ControlHamiltonian(
                drift=HermitianOperator(mats[0].astype(dtype)),
                controlled=tuple(HermitianOperator(a.astype(dtype)) for a in mats[1:]),
                box=box,
            )
            H.save(tmp_path / "model.json")
            texts.append((tmp_path / "model.json").read_bytes())
        assert texts[0] == texts[1]


class TestEvaluate:
    def test_zero_controls_return_drift(self, two_level_cone):
        H = make_family(SIGMA_Z, [SIGMA_X, SIGMA_X], [[-1, 1], [-1, 1]])
        assert np.array_equal(evaluate(H, [0.0, 0.0]).matrix, SIGMA_Z)

    def test_diagonal_example(self, diag_family):
        out = evaluate(diag_family, [1.0, 0.0])
        assert np.array_equal(out.matrix, np.diag([1.0, 2.0, 2.0]).astype(complex))

    def test_linear_combination(self, two_level_cone):
        out = evaluate(two_level_cone, [0.3, 0.4])
        assert np.allclose(out.matrix, 0.3 * SIGMA_X + 0.4 * SIGMA_Z)

    def test_wrong_length_control_raises(self, two_level_cone):
        with pytest.raises(StructuralError):
            evaluate(two_level_cone, [0.1, 0.2, 0.3])

    def test_affine_property(self, rng_cases=100):
        rng = np.random.default_rng(11)
        for _ in range(rng_cases):
            n = int(rng.integers(2, 5))
            mats = [rng.standard_normal((n, n)) for _ in range(3)]
            mats = [(m + m.T) / 2 for m in mats]
            H = make_family(mats[0], mats[1:], [[-2, 2], [-2, 2]])
            u, v = rng.uniform(-2, 2, 2), rng.uniform(-2, 2, 2)
            alpha = float(rng.random())
            lhs = evaluate(H, alpha * u + (1 - alpha) * v).matrix
            rhs = alpha * evaluate(H, u).matrix + (1 - alpha) * evaluate(H, v).matrix
            assert np.max(np.abs(lhs - rhs)) < 1e-13

    def test_trace_is_affine(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            n = int(rng.integers(2, 5))
            mats = [rng.standard_normal((n, n)) for _ in range(3)]
            mats = [(m + m.T) / 2 for m in mats]
            H = make_family(mats[0], mats[1:], [[-2, 2], [-2, 2]])
            u = rng.uniform(-2, 2, 2)
            expected = np.trace(mats[0]) + u[0] * np.trace(mats[1]) + u[1] * np.trace(mats[2])
            assert np.trace(evaluate(H, u).matrix) == pytest.approx(expected, abs=1e-12)


class TestControlHamiltonian:
    def test_requires_two_controls(self):
        with pytest.raises(StructuralError):
            ControlHamiltonian(
                drift=HermitianOperator(SIGMA_Z),
                controlled=(HermitianOperator(SIGMA_X),),
                box=np.array([[-1.0, 1.0]]),
            )

    def test_requires_consistent_dims(self):
        with pytest.raises(StructuralError):
            make_family(SIGMA_Z, [SIGMA_X, np.eye(3)], [[-1, 1], [-1, 1]])

    def test_requires_nonempty_intervals(self):
        with pytest.raises(StructuralError):
            make_family(SIGMA_Z, [SIGMA_X, SIGMA_X], [[-1, 1], [1, 1]])

    def test_requires_one_interval_per_control(self):
        with pytest.raises(StructuralError, match=r"box must have shape \(2, 2\), got \(1, 2\)"):
            make_family(SIGMA_Z, [SIGMA_X, SIGMA_Z], [[-1, 1]])

    @pytest.mark.parametrize("point", [[0.1], [[0.1, 0.2]], [0.1, 0.2, 0.3], "ab", [True, False]])
    def test_contains_takes_only_m_numbers(self, two_level_cone, point):
        # [0.1] and [[0.1, 0.2]] broadcast against the box and were inside it
        with pytest.raises(StructuralError, match="control point"):
            two_level_cone.contains(point)

    @pytest.mark.parametrize(
        "point, inside",
        [([0.5, -1.0], True), ([0, 1], True), ([1.5, 0.0], False), ([np.nan, 0.0], False),
         ([0.0, np.inf], False), ([-np.inf, 0.0], False)],
    )
    def test_contains_answers_for_every_point_of_length_m(self, two_level_cone, point, inside):
        assert two_level_cone.contains(point) is inside

    def test_json_roundtrip(self, tmp_path, two_level_cone):
        path = tmp_path / "model.json"
        two_level_cone.save(path)
        loaded = load_hamiltonian(path)
        assert loaded.dim == 2 and loaded.m == 2
        assert np.array_equal(loaded.box, two_level_cone.box)
        for a, b in zip(loaded.controlled, two_level_cone.controlled):
            assert np.array_equal(a.matrix, b.matrix)

    def test_json_schema_fields(self, tmp_path, two_level_cone):
        path = tmp_path / "model.json"
        two_level_cone.save(path)
        doc = json.loads(path.read_text())
        assert set(doc) == {"dim", "drift", "controlled", "box"}
        assert set(doc["drift"]) == {"re", "im"}
        assert len(doc["drift"]["re"]) == 2


class TestDocumentWriter:
    def test_keys_sorted_and_indented(self, tmp_path):
        doc = {"b": [0.1, 1e-300], "a": {"d": None, "c": True}}
        target = tmp_path / "doc.json"
        _write_json(doc, target)
        assert target.read_text() == json.dumps(doc, sort_keys=True, indent=2)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_number_raises_and_writes_nothing(self, tmp_path, value):
        target = tmp_path / "doc.json"
        with pytest.raises(NumericalError):
            _write_json({"ok": 1.0, "rows": [{"bad": value}]}, target)
        assert not target.exists()

    def test_failed_write_leaves_the_old_file(self, tmp_path):
        target = tmp_path / "doc.json"
        target.write_text("old")
        with pytest.raises(NumericalError):
            _write_json({"bad": np.nan}, target)
        assert target.read_text() == "old"


def _equal_pair(kind):
    """Two separately built objects of one kind with equal contents."""
    H = random_family(3, 3, 2)
    G = ControlHamiltonian.from_json_dict(H.to_json_dict())
    if kind == "operator":
        return H.drift, G.drift
    if kind == "closure":
        return closure(generators_from(H)), closure(generators_from(G))
    return H, G


class TestIdentity:
    @pytest.mark.parametrize("kind", ["operator", "family", "closure"])
    def test_equality_and_hashing_are_by_identity(self, kind):
        a, b = _equal_pair(kind)
        assert a == a
        assert not (a == b)
        assert a != b
        assert len({a, b, a}) == 2


class TestInputContract:
    def test_ragged_matrix_rejected(self):
        with pytest.raises(StructuralError, match="rectangular"):
            HermitianOperator([[1.0, 0.0], [0.0]])

    def test_non_numeric_entries_rejected(self):
        with pytest.raises(StructuralError, match="numbers"):
            HermitianOperator.from_real_imag([["a", 0], [0, 1]], [[0, 0], [0, 0]])

    @pytest.mark.parametrize(
        "build",
        [
            lambda H: H.matrix_at([True, 0.5]),
            lambda H: H.matrix_at([np.bool_(False), 0.5]),
            lambda H: H.matrix_at([np.array(True), 0.5]),
            lambda H: HermitianOperator([[True, 0.0], [0.0, 1.0]]),
            lambda H: HermitianOperator.from_real_imag(
                [[1.0, 0.0], (0.0, False)], np.zeros((2, 2))
            ),
        ],
    )
    def test_a_bool_among_numbers_rejected(self, two_level_cone, build):
        # numpy read the bool as 1.0 or 0.0: matrix_at([True, 0.5]) evaluated at (1, 0.5)
        with pytest.raises(StructuralError, match="must hold numbers, got a bool"):
            build(two_level_cone)

    def test_nan_matrix_rejected(self):
        with pytest.raises(StructuralError, match="non-finite"):
            HermitianOperator(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_real_imag_shape_mismatch_rejected(self):
        with pytest.raises(StructuralError, match="shape"):
            HermitianOperator.from_real_imag(np.eye(2), np.zeros((3, 3)))

    @pytest.mark.parametrize("bound", [np.inf, -np.inf, np.nan])
    def test_non_finite_box_rejected(self, bound):
        with pytest.raises(StructuralError, match="non-finite"):
            make_family(SIGMA_Z, [SIGMA_X, SIGMA_Z], [[-1, bound], [-1, 1]])

    @pytest.mark.parametrize("dim", ["two", 2.9, 2.0, "2", " 2 ", True])
    def test_non_integer_dim_in_document_rejected(self, two_level_cone, dim):
        doc = two_level_cone.to_json_dict()
        doc["dim"] = dim
        with pytest.raises(StructuralError, match="malformed"):
            ControlHamiltonian.from_json_dict(doc)


class TestMatricesAt:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 8),
        m=st.integers(2, 3),
        count=st.integers(1, 50),
    )
    def test_rows_match_matrix_at(self, seed, n, m, count):
        H = random_family(seed, n, m)
        U = np.random.default_rng(seed + 1).uniform(-2, 2, (count, m))
        stacked = H.matrices_at(U)
        assert stacked.shape == (count, n, n)
        for k in range(count):
            single = H.matrix_at(U[k])
            assert np.max(np.abs(stacked[k] - single)) <= 1e-15 * max(1.0, np.max(np.abs(single)))

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 8),
        m=st.integers(2, 4),
        count=st.integers(1, 20),
    )
    def test_rows_do_not_depend_on_the_batch(self, seed, n, m, count):
        # the locator runs seeds in lockstep batches that shrink as seeds end
        H = random_family(seed, n, m)
        U = np.random.default_rng(seed + 1).uniform(-2, 2, (count, m))
        stacked = H.matrices_at(U)
        for k in range(count):
            assert np.array_equal(stacked[k], H.matrix_at(U[k]))
            assert np.array_equal(stacked[k], H.matrices_at(U[k:])[0])

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 8),
        m=st.integers(2, 4),
        count=st.integers(1, 20),
    )
    def test_rows_with_their_own_operators_match_their_family(self, seed, n, m, count):
        # the batched locator gathers each row's operator stack from its own family
        families = [random_family(seed + g, n, m) for g in range(3)]
        ops = np.stack([H._stack for H in families])
        rng = np.random.default_rng(seed + 1)
        U = rng.uniform(-2, 2, (count, m))
        g = rng.integers(0, 3, count)
        stacked = _affine_stack(ops[g], U)
        for k in range(count):
            assert np.array_equal(stacked[k], families[g[k]].matrix_at(U[k]))

    def test_wrong_shape_raises(self, two_level_cone):
        with pytest.raises(StructuralError):
            two_level_cone.matrices_at(np.zeros((4, 3)))
        with pytest.raises(StructuralError):
            two_level_cone.matrices_at(np.zeros(2))

    def test_operators_are_views_of_the_stack(self):
        # the family stores each operator once: the public operators are read-only rows of the stack
        matrices = [SIGMA_Z, SIGMA_X, 2 * SIGMA_Z]
        H = make_family(matrices[0], matrices[1:], [[-1, 1], [-1, 1]])
        assert "_stack" in vars(H)
        for k, op in enumerate([H.drift, *H.controlled]):
            assert isinstance(op, HermitianOperator)
            assert np.shares_memory(op.matrix, H._stack)
            assert np.array_equal(op.matrix, H._stack[k])
            assert np.array_equal(op.matrix, matrices[k])
            assert not op.matrix.flags.writeable


class TestNorms:
    def test_norms_match_each_operator(self):
        H = random_family(5, 4, 3)
        ops = [H.drift, *H.controlled]
        assert np.array_equal(H._stack, np.stack([op.matrix for op in ops]))
        assert np.array_equal(H.control_norms(), [h.operator_norm() for h in H.controlled])
        u = np.array([0.3, -1.2, 2.0])
        bound = H.drift.operator_norm() + np.abs(u) @ [h.operator_norm() for h in H.controlled]
        assert H.norm_bound(u) == float(bound)

    def test_norms_take_one_eigensolve_per_family(self, monkeypatch):
        H = random_family(6, 3, 2)
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counting(a, *args, **kwargs):
            calls.append((np.shape(a), np.asarray(a).dtype.kind))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        H.norm_bound([0.5, 0.5])
        assert calls == [((3, 3, 3), "c")]
        H.norm_bound([0.1, -0.2])
        H.control_norms()
        assert calls == [((3, 3, 3), "c")]
        # the ensemble perturbs many stacks with one eigensolve scaling all their
        # real noise draws and one for all their norms
        rngs = np.random.default_rng(0).spawn(2)
        _perturbed_stacks(np.stack([H._stack, H._stack]), rngs, 1e-3)
        assert calls[1:] == [((2, 3, 3, 3), "f"), ((2, 3, 3, 3), "c")]
