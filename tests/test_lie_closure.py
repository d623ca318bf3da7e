import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from speccert import (
    StructuralError,
    classify_transitive,
    closure,
    generators_from,
)
from speccert.lie_closure import (
    CLASS_ABELIAN,
    CLASS_FULL,
    CLASS_SP_CANDIDATE,
    CLASS_TRACELESS,
    LieClosureResult,
    _classify,
    _sp_witness,
)
from conftest import SIGMA_X, SIGMA_Y, SIGMA_Z, make_family


def random_skew(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a - a.conj().T) / 2


class TestClosure:
    def test_diagonal_pair_stays_two_dimensional(self):
        gens = [1j * np.diag([0.0, 1.0, 2.0]), 1j * np.diag([1.0, 1.0, 0.0])]
        result = closure(gens)
        assert result.dimension == 2
        assert result.classification == CLASS_ABELIAN

    def test_pauli_pair_closes_to_su2(self):
        # [i sx, i sz] = 2 i sy opens the third direction, then closes
        result = closure([1j * SIGMA_X, 1j * SIGMA_Z])
        assert result.dimension == 3
        assert result.classification == CLASS_TRACELESS
        assert result.traceless_generators

    def test_pauli_with_identity_closes_to_u2(self):
        result = closure([1j * SIGMA_X, 1j * SIGMA_Z, 1j * np.eye(2)])
        assert result.dimension == 4
        assert result.classification == CLASS_FULL

    def test_all_zero_generators(self):
        result = closure([np.zeros((3, 3), dtype=complex)] * 3)
        assert result.dimension == 0

    def test_non_skew_rejected(self):
        with pytest.raises(StructuralError):
            closure([SIGMA_X])

    def test_mismatched_dims_rejected(self):
        with pytest.raises(StructuralError):
            closure([1j * SIGMA_X, 1j * np.eye(3)])

    def test_generators_lie_in_basis_span(self):
        rng = np.random.default_rng(5)
        gens = [random_skew(rng, 3) for _ in range(3)]
        result = closure(gens)
        vecs = np.array(
            [np.concatenate([b.real.ravel(), b.imag.ravel()]) for b in result.basis]
        )
        for g in gens:
            v = np.concatenate([g.real.ravel(), g.imag.ravel()])
            resid = v - vecs.T @ (vecs @ v)
            assert np.linalg.norm(resid) <= 1e-9 * max(1.0, np.linalg.norm(v))

    def test_basis_orthonormal(self):
        rng = np.random.default_rng(6)
        result = closure([random_skew(rng, 3) for _ in range(2)])
        vecs = np.array(
            [np.concatenate([b.real.ravel(), b.imag.ravel()]) for b in result.basis]
        )
        gram = vecs @ vecs.T
        assert np.max(np.abs(gram - np.eye(result.dimension))) < 1e-12

    def test_monotone_under_extra_generator(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            gens = [random_skew(rng, 3) for _ in range(2)]
            extra = random_skew(rng, 3)
            assert closure(gens + [extra]).dimension >= closure(gens).dimension

    def test_dimension_bounded_by_n_squared(self):
        rng = np.random.default_rng(8)
        result = closure([random_skew(rng, 4) for _ in range(3)])
        assert result.dimension <= 16

    def test_rank_tolerance_parameter(self):
        result = closure([1j * SIGMA_X, 1j * SIGMA_Z], rank_tol=1e-10)
        assert result.dimension == 3


class TestGeneratorsFrom:
    def test_two_level_cone(self, two_level_cone):
        gens = generators_from(two_level_cone)
        assert len(gens) == 3
        assert np.array_equal(gens[0], np.zeros((2, 2)))
        assert np.array_equal(gens[1], 1j * SIGMA_X)
        assert np.array_equal(gens[2], 1j * SIGMA_Z)

    def test_diag_family(self, diag_family):
        gens = generators_from(diag_family)
        assert np.array_equal(gens[0], 1j * np.diag([0.0, 1.0, 2.0]))
        assert np.array_equal(gens[1], 1j * np.diag([1.0, 1.0, 0.0]))
        assert np.array_equal(gens[2], np.zeros((3, 3)))

    def test_closure_of_family(self, two_level_cone):
        result = closure(generators_from(two_level_cone))
        assert result.dimension == 3
        assert result.classification == CLASS_TRACELESS


def sp_element(rng, k):
    """Random element of compact sp(k) in u(2k): [[A, B], [-conj(B), conj(A)]]."""
    A = random_skew(rng, k)
    b = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    B = (b + b.T) / 2
    top = np.hstack([A, B])
    bot = np.hstack([-np.conj(B), np.conj(A)])
    return np.vstack([top, bot])


class TestClassifyTransitive:
    def test_su2_controls_sphere_and_group(self):
        result = closure([1j * SIGMA_X, 1j * SIGMA_Z])
        verdict = classify_transitive(result, 2)
        assert verdict.controllable_on_group
        assert verdict.controllable_on_sphere

    def test_small_abelian_controls_nothing(self):
        gens = [1j * np.diag([0.0, 1.0, 2.0]), 1j * np.diag([1.0, 1.0, 0.0])]
        verdict = classify_transitive(closure(gens), 3)
        assert not verdict.controllable_on_group
        assert verdict.controllable_on_sphere is False

    def test_full_u3_controls_both(self):
        rng = np.random.default_rng(9)
        gens = [random_skew(rng, 3) for _ in range(3)]
        result = closure(gens)
        assert result.dimension == 9  # generic triples fill u(3)
        verdict = classify_transitive(result, 3)
        assert verdict.controllable_on_group
        assert verdict.controllable_on_sphere

    @pytest.mark.parametrize("k", [2, 4])
    def test_sp2_subalgebra_controls_sphere_only(self, k):
        rng = np.random.default_rng(10)
        result = closure([sp_element(rng, k) for _ in range(3)])
        assert result.dimension == k * (2 * k + 1)
        assert result.classification == CLASS_SP_CANDIDATE
        verdict = classify_transitive(result, 2 * k)
        assert verdict.controllable_on_sphere is True
        assert not verdict.controllable_on_group

    def test_sp_candidate_without_witness_is_indeterminate(self):
        # u(3) (+) u(1) embedded block-diagonally in u(4) is 10-dimensional
        # like sp(2) but carries no antiunitary structure (the i*I block
        # forces any intertwiner to vanish), so the verdict must stay open
        rng = np.random.default_rng(11)
        gens = []
        for _ in range(3):
            g = np.zeros((4, 4), dtype=complex)
            g[:3, :3] = random_skew(rng, 3)
            gens.append(g)
        phase = np.zeros((4, 4), dtype=complex)
        phase[3, 3] = 1j
        gens.append(phase)
        result = closure(gens)
        assert result.dimension == 10
        assert result.classification == CLASS_SP_CANDIDATE
        verdict = classify_transitive(result, 4)
        assert verdict.controllable_on_sphere is None
        assert not verdict.controllable_on_group


class TestJacobi:
    def test_bracket_jacobi_identity(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            a, b, c = (random_skew(rng, 3) for _ in range(3))
            jac = (
                comm(comm(a, b), c) + comm(comm(b, c), a) + comm(comm(c, a), b)
            )
            bound = 1e-10 * np.linalg.norm(a) * np.linalg.norm(b) * np.linalg.norm(c)
            assert np.linalg.norm(jac) <= bound


def comm(a, b):
    return a @ b - b @ a


class TestConjugationInvariance:
    def test_dimension_stable_under_unitary_conjugation(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            gens = [random_skew(rng, 3) for _ in range(2)]
            z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            q, _ = np.linalg.qr(z)
            rotated = [q @ g @ q.conj().T for g in gens]
            rotated = [(g - g.conj().T) / 2 for g in rotated]  # fold roundoff
            assert closure(rotated).dimension == closure(gens).dimension


def reference_closure(generators, rank_tol=1e-9):
    """All-pairs breadth-first closure: every sweep brackets its new elements with the whole basis.

    A slower route to the same span, kept as the reference for ``closure``.
    """
    n = generators[0].shape[0]
    vectors = np.zeros((0, 2 * n * n))
    matrices = []

    def try_add(mat):
        nonlocal vectors
        v = np.concatenate([mat.real.ravel(), mat.imag.ravel()])
        norm0 = np.linalg.norm(v)
        if norm0 == 0.0:
            return
        for _ in range(2):
            v = v - vectors.T @ (vectors @ v)
        resid = np.linalg.norm(v)
        if resid <= rank_tol * norm0:
            return
        v = v / resid
        vectors = np.vstack([vectors, v])
        m = (v[: n * n] + 1j * v[n * n:]).reshape(n, n)
        matrices.append((m - m.conj().T) / 2)

    for g in generators:
        try_add(g)
    start = 0
    while start < len(matrices) < n * n:
        stop = len(matrices)
        for a in matrices[start:stop]:
            for b in matrices[:stop]:
                c = comm(a, b)
                if np.linalg.norm(c) > 1e-12 and len(matrices) < n * n:
                    try_add(c)
        start = stop
    traceless = all(abs(np.trace(g)) <= 1e-10 * np.linalg.norm(g) for g in generators)
    return len(matrices), _classify(len(matrices), n, traceless, matrices)


STRUCTURED_KINDS = ["block", "sp", "real", "chain"]


def structured_generators(kind, n, seed):
    """Generators of a reducible, quaternionic, real or sparse-chain algebra in u(n) (sp: u(2k))."""
    rng = np.random.default_rng(seed)
    if kind == "block":
        k = n // 2
        gens = []
        for _ in range(3):
            g = np.zeros((n, n), dtype=complex)
            g[:k, :k] = random_skew(rng, k)
            g[k:, k:] = random_skew(rng, n - k)
            gens.append(g)
        return gens
    if kind == "sp":
        return [sp_element(rng, max(1, n // 2)) for _ in range(3)]
    if kind == "real":
        return [1j * (s + s.T) / 2 for s in rng.standard_normal((3, n, n))]
    # a chain: diagonal drift, one control coupling nearest neighbours only
    coupling = np.diag(rng.standard_normal(n - 1), 1)
    return [1j * np.diag(rng.standard_normal(n)), 1j * (coupling + coupling.T)]


def assert_closed_under_brackets(result):
    """Every bracket of two basis elements lies in the basis span."""
    basis = np.array(result.basis)
    q = np.concatenate([basis.real, basis.imag], axis=-1).reshape(len(basis), -1)
    c = basis[:, None] @ basis - basis @ basis[:, None]
    c = np.concatenate([c.real, c.imag], axis=-1).reshape(len(basis) ** 2, -1)
    assert np.max(np.linalg.norm(c - (c @ q.T) @ q, axis=1)) <= 1e-9


class TestAgainstReference:
    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(STRUCTURED_KINDS),
        n=st.integers(2, 8),
        seed=st.integers(0, 2**16),
        log_scale=st.floats(-3, 3),
    )
    def test_matches_all_pairs_closure(self, kind, n, seed, log_scale):
        gens = [10.0**log_scale * g for g in structured_generators(kind, n, seed)]
        result = closure(gens)
        assert (result.dimension, result.classification) == reference_closure(gens)
        assert_closed_under_brackets(result)


class TestGeneratorScale:
    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(["pauli"] + STRUCTURED_KINDS),
        n=st.integers(2, 6),
        seed=st.integers(0, 2**16),
        k=st.integers(-21, 8),
    )
    @example(kind="pauli", n=2, seed=0, k=-21)
    @example(kind="sp", n=4, seed=0, k=8)
    def test_invariant_under_generator_scale(self, kind, n, seed, k):
        if kind == "pauli":
            gens = [1j * np.eye(2), 1j * SIGMA_X, 1j * SIGMA_Z]
        else:
            gens = structured_generators(kind, n, seed)
        # dimension, classification, traceless_generators and n
        assert closure([10.0**k * g for g in gens]).to_json_dict() == closure(gens).to_json_dict()
