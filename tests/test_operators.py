import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speccert import (
    ControlHamiltonian,
    HermitianOperator,
    StructuralError,
    evaluate,
    load_hamiltonian,
    validate,
)
from speccert.certify import _perturbed
from speccert.operators import _affine_stack
from conftest import SIGMA_X, SIGMA_Z, make_family, random_family


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

    def test_matrix_is_immutable(self):
        op = HermitianOperator(SIGMA_Z)
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 5.0


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


class TestInputContract:
    def test_ragged_matrix_rejected(self):
        with pytest.raises(StructuralError, match="rectangular"):
            HermitianOperator([[1.0, 0.0], [0.0]])

    def test_non_numeric_entries_rejected(self):
        with pytest.raises(StructuralError, match="numbers"):
            HermitianOperator.from_real_imag([["a", 0], [0, 1]], [[0, 0], [0, 0]])

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

    def test_non_integer_dim_in_document_rejected(self, two_level_cone):
        doc = two_level_cone.to_json_dict()
        doc["dim"] = "two"
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

    def test_operator_stack_built_on_first_evaluation(self):
        H = make_family(SIGMA_Z, [SIGMA_X, SIGMA_Z], [[-1, 1], [-1, 1]])
        assert "_stack" not in vars(H)
        H.matrix_at([0.0, 0.0])
        assert "_stack" in vars(H)


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
        # the only eigensolves left in a perturbation scale its real noise draws
        _perturbed(H, np.random.default_rng(0), 1e-3)
        _perturbed(H, np.random.default_rng(1), 1e-3)
        assert calls[1:] == [((3, 3), "f")] * 6
