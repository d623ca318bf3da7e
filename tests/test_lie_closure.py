import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from speccert import (
    PreconditionError,
    StructuralError,
    certify,
    classify_transitive,
    closure,
    generators_from,
)
from speccert import lie_closure
from speccert.lie_closure import (
    CLASS_ABELIAN,
    CLASS_FULL,
    CLASS_OTHER,
    CLASS_SP_CANDIDATE,
    CLASS_TRACELESS,
    RANK_TOL,
    LieClosureResult,
    _classify,
    _sp_witness,
    _SpanBasis,
    _unvec,
    _vec,
)
from speccert.sampling import random_symmetric
from conftest import HOSTILE_TOLERANCES, SIGMA_X, SIGMA_Y, SIGMA_Z, make_family, random_family, scaled


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

    def test_basis_document_round_trips_bitwise(self):
        result = closure(generators_from(make_family(SIGMA_Z, [SIGMA_X, SIGMA_Y], [[-1, 1]] * 2)))
        doc = json.loads(json.dumps(result.to_json_dict(include_basis=True)))
        assert len(doc["basis"]) == result.dimension
        for entry, b in zip(doc["basis"], result.basis, strict=True):
            assert np.array_equal(np.array(entry["re"]), b.real)
            assert np.array_equal(np.array(entry["im"]), b.imag)

    def test_pauli_with_identity_closes_to_u2(self):
        result = closure([1j * SIGMA_X, 1j * SIGMA_Z, 1j * np.eye(2)])
        assert result.dimension == 4
        assert result.classification == CLASS_FULL

    @pytest.mark.parametrize("phase", [1j, 0.0])
    def test_one_by_one_generators(self, phase):
        # so(1) has no coordinates at all
        result = closure([phase * np.eye(1)])
        assert result.dimension == int(phase != 0)

    def test_all_zero_generators(self):
        result = closure([np.zeros((3, 3), dtype=complex)] * 3)
        assert result.dimension == 0

    @pytest.mark.parametrize("n", [2, 3, 5])
    @pytest.mark.parametrize("kind", ["diagonal", "rotated", "single", "zero"])
    def test_commuting_generators_are_abelian(self, kind, n):
        rng = np.random.default_rng(n)
        diagonals = [1j * np.diag(rng.standard_normal(n)) for _ in range(3)]
        if kind == "rotated":
            # diagonal in one random eigenbasis
            q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            gens = [q @ d @ q.conj().T for d in diagonals]
        elif kind == "single":
            gens = [random_skew(rng, n)]
        elif kind == "zero":
            gens = [np.zeros((n, n), dtype=complex)] * 2
        else:
            gens = diagonals
        result = closure(gens)
        assert result.classification == CLASS_ABELIAN
        assert not classify_transitive(result, n).controllable_on_group

    def test_non_skew_rejected(self):
        with pytest.raises(StructuralError):
            closure([SIGMA_X])

    @pytest.mark.parametrize("entry", ["nan", "inf"])
    def test_non_finite_rejected(self, entry):
        # NaN fails every comparison, so the skew test alone would let it through
        with np.errstate(invalid="ignore"):
            generator = np.full((2, 2), np.nan) if entry == "nan" else 1j * np.diag([1.0, np.inf])
        with pytest.raises(StructuralError, match="non-finite"):
            closure([generator])

    def test_mismatched_dims_rejected(self):
        with pytest.raises(StructuralError):
            closure([1j * SIGMA_X, 1j * np.eye(3)])

    # a stack of 0 x 0 matrices reached numpy's reductions and raised ValueError
    @pytest.mark.parametrize("stack", [[], [np.zeros((0, 0))], np.zeros((2, 0, 0))])
    def test_empty_stack_rejected(self, stack):
        with pytest.raises(StructuralError, match="non-empty stack"):
            closure(stack)

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

    @pytest.mark.parametrize("hermitian", [SIGMA_Z, SIGMA_X, np.eye(2)])
    def test_only_the_skew_hermitian_part_counts(self, hermitian):
        # a Hermitian part within the relative input tolerance passes the skew
        # check, but it is no direction of the algebra at any generator scale
        for scale in (1e-20, 1.0, 1e6):
            gens = [scale * 1j * SIGMA_X, scale * (1j * SIGMA_Z + 1e-13 * hermitian)]
            result = closure(gens)
            assert (result.dimension, result.classification) == (3, CLASS_TRACELESS)

    def test_rank_tolerance_parameter(self):
        result = closure([1j * SIGMA_X, 1j * SIGMA_Z], rank_tol=1e-10)
        assert result.dimension == 3

    @pytest.mark.parametrize("tol", HOSTILE_TOLERANCES)
    def test_hostile_rank_tolerance_rejected(self, tol):
        # nan kept no direction: dimension 0, abelian-or-small
        with pytest.raises(PreconditionError, match="rank_tol must be finite and positive"):
            closure([1j * SIGMA_X, 1j * SIGMA_Z], rank_tol=tol)


class TestGeneratorsFrom:
    def test_real_stack_gives_its_complex_copys_generators_bitwise(self, three_level_chain):
        H = three_level_chain
        assert H._stack.dtype == np.float64
        for got, want in zip(generators_from(H), 1j * H._stack.astype(complex), strict=True):
            assert got.dtype == np.complex128
            assert got.tobytes() == want.tobytes()

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


class TestSpWitness:
    """``_sp_witness`` on each of its refusals, and on sp(2) as the positive control."""

    @staticmethod
    def closed(gens, dimension):
        result = closure(gens)
        assert result.dimension == dimension
        return list(result.basis)

    def test_empty_basis_has_no_witness(self):
        assert _sp_witness([], 4) is False

    def test_zero_basis_has_no_witness(self):
        # the stacked system is all zeros, so it has no scale to judge a null vector by
        assert _sp_witness([np.zeros((2, 2))], 2) is False

    def test_su4_has_no_null_vector(self):
        # C^4 is not conjugate to itself under su(4): nothing intertwines
        rng = np.random.default_rng(12)
        gens = [g - np.trace(g) / 4 * np.eye(4) for g in (random_skew(rng, 4) for _ in range(2))]
        assert _sp_witness(self.closed(gens, 15), 4) is False

    def test_rank_deficient_intertwiner_is_not_unitary(self):
        # J diag(1, -1, 2) = -diag(1, -1, 2) J leaves J only its (0, 1) and (1, 0) entries
        assert _sp_witness([1j * np.diag([1.0, -1.0, 2.0])], 3) is False

    def test_so4_witness_squares_to_plus_one(self):
        # a real algebra commutes with J = I, and I conj(I) = +I, not -I
        rng = np.random.default_rng(13)
        gens = [a - a.T for a in (rng.standard_normal((4, 4)) for _ in range(2))]
        assert _sp_witness(self.closed(gens, 6), 4) is False

    def test_sp2_has_a_witness(self):
        rng = np.random.default_rng(10)
        assert _sp_witness(self.closed([sp_element(rng, 2) for _ in range(3)], 10), 4) is True


class TestClassifyTransitive:
    def test_su2_controls_sphere_and_group(self):
        result = closure([1j * SIGMA_X, 1j * SIGMA_Z])
        verdict = classify_transitive(result, 2)
        assert verdict.controllable_on_group
        assert verdict.controllable_on_sphere

    @pytest.mark.parametrize("n", [1, 3])
    def test_n_other_than_the_generators_rejected(self, n):
        # su(2) read as an algebra on C^3 would claim control of U(3)
        with pytest.raises(PreconditionError, match="2 x 2"):
            classify_transitive(closure([1j * SIGMA_X, 1j * SIGMA_Z]), n)

    @pytest.mark.parametrize("n", [2.0, True, "2"])
    def test_n_must_be_an_integer(self, n):
        # 2.0 was accepted as the dimension 2
        with pytest.raises(PreconditionError, match="n must be an integer >= 1"):
            classify_transitive(closure([1j * SIGMA_X, 1j * SIGMA_Z]), n)

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


class TestEnergyOffset:
    """sp(k) + u(1): a quaternionic family whose drift carries an energy offset c I."""

    @settings(max_examples=40, deadline=None)
    @given(k=st.integers(1, 3), seed=st.integers(0, 2**16), log_c=st.floats(-12, 0))
    @example(k=2, seed=0, log_c=-6)
    def test_dimension_never_exceeds_sp_plus_centre(self, k, seed, log_c):
        # a basis element that cancels x0 + c I against x0 carries roundoff of
        # relative size eps / c; its brackets are that roundoff alone and must
        # not count as new directions
        rng = np.random.default_rng(seed)
        gens = [sp_element(rng, k) for _ in range(3)]
        gens[0] = gens[0] + 1j * 10.0**log_c * np.eye(2 * k)
        assert closure(gens).dimension <= k * (2 * k + 1) + 1

    @settings(max_examples=30, deadline=None)
    @given(
        k=st.integers(2, 3),
        seed=st.integers(0, 2**16),
        c=st.one_of(st.just(0.0), st.floats(-6, 0).map(lambda e: 10.0**e)),
    )
    @example(k=2, seed=0, c=1e-6)
    @example(k=2, seed=0, c=0.3)
    def test_sp_plus_centre_acts_transitively_on_the_sphere(self, k, seed, c):
        # Sp(k) acts transitively on the sphere, and phases keep it so; the
        # class is decided on pi(L) = {g - (tr g / n) I} and so is the witness
        rng = np.random.default_rng(seed)
        gens = [sp_element(rng, k) for _ in range(2)]
        gens[0] = gens[0] + 1j * c * np.eye(2 * k)
        result = closure(gens)
        verdict = classify_transitive(result, 2 * k)
        assert result.classification == CLASS_SP_CANDIDATE
        assert verdict.controllable_on_sphere is True
        assert not verdict.controllable_on_group

    @pytest.mark.parametrize("c", [1e-9, 1e-6])
    def test_offset_family_is_not_certified_for_the_group(self, c):
        rng = np.random.default_rng(0)
        xs = [sp_element(rng, 2) for _ in range(3)]
        H = make_family(-1j * xs[0] + c * np.eye(4), [-1j * x for x in xs[1:]], [[-2, 2], [-2, 2]])
        cert = certify(H)
        assert cert.verdict == "not-certified"
        assert not cert.transitivity.controllable_on_group


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


def real_generators(kind, n, m, seed):
    """i H_l for a real-symmetric family of m controls: generic, block-diagonal, commuting, traceless or offset."""
    rng = np.random.default_rng(seed)
    ops = [random_symmetric(rng, n) for _ in range(m + 1)]
    if kind == "block":
        k = n // 2
        for h in ops:
            h[:k, k:] = h[k:, :k] = 0.0
    elif kind == "commuting":
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        ops = [q @ np.diag(rng.standard_normal(n)) @ q.T for _ in range(m + 1)]
        ops = [(h + h.T) / 2 for h in ops]
    elif kind in ("traceless", "offset"):
        ops = [h - np.trace(h) / n * np.eye(n) for h in ops]
        if kind == "offset":
            ops[0] = ops[0] + 0.5 * np.eye(n)
    return [1j * h for h in ops]


def is_graded(result):
    """Every basis element is purely real (in so(n)) or purely imaginary (in i sym(n))."""
    return all(not b.real.any() or not b.imag.any() for b in result.basis)


class TestConjugationInvariance:
    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["complex", "generic", "block", "commuting", "traceless", "offset"]),
        n=st.integers(2, 8),
        m=st.integers(1, 3),
        seed=st.integers(0, 2**16),
    )
    @example(kind="complex", n=3, m=1, seed=13)
    @example(kind="block", n=8, m=2, seed=0)
    # a row kept 1.5e-4 of its norm off the recent rows and was not projected off
    # the older ones; the basis ended 2.4e-12 from orthonormal
    @example(kind="block", n=7, m=3, seed=16972)
    def test_dimension_stable_under_unitary_conjugation(self, kind, n, m, seed):
        # a real family closes in its so(n) and i sym(n) parts; conjugated by a
        # complex unitary, its generators are no longer homogeneous and close in
        # all of u(n) at once: the two routes must agree
        rng = np.random.default_rng(seed)
        if kind == "complex":
            gens = [random_skew(rng, n) for _ in range(m + 1)]
        else:
            gens = real_generators(kind, n, m, seed)
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        q, _ = np.linalg.qr(z)
        rotated = [q @ g @ q.conj().T for g in gens]
        rotated = [(g - g.conj().T) / 2 for g in rotated]  # fold roundoff
        result, reference = closure(gens), closure(rotated)
        assert (result.dimension, result.classification) == (
            reference.dimension,
            reference.classification,
        )
        assert not is_graded(reference)
        if kind != "complex":
            assert is_graded(result)
            assert_closed_under_brackets(result)
            basis = np.array(result.basis)
            q = np.concatenate([basis.real, basis.imag], axis=-1).reshape(len(basis), -1)
            assert np.max(np.abs(q @ q.T - np.eye(len(q))), initial=0.0) <= 1e-12


    @pytest.mark.parametrize(
        "gens, grades",
        [
            (real_generators("generic", 4, 2, 0), [0, 1]),
            ([np.array([[0.0, 1.0], [-1.0, 0.0]]), 1j * SIGMA_Z], [0, 1]),
            ([1j * SIGMA_X, 1j * SIGMA_Z + 1e-3 * np.array([[0.0, 1.0], [-1.0, 0.0]])], [None]),
            ([random_skew(np.random.default_rng(0), 3)], [None]),
        ],
    )
    def test_homogeneous_generators_close_in_two_parts(self, monkeypatch, gens, grades):
        made = []

        class Spy(_SpanBasis):
            def __init__(self, n, grade=None):
                made.append(grade)
                super().__init__(n, grade)

        monkeypatch.setattr(lie_closure, "_SpanBasis", Spy)
        closure(gens)
        assert made == grades


class TestCoordinateMaps:
    """``_vec`` and ``_unvec`` on so(n) (grade 0), i sym(n) (grade 1) and all of u(n) (None)."""

    @staticmethod
    def draw(rng, n, grade, count=20):
        """Exactly antisymmetric (0), symmetric (1) or skew-Hermitian (None) matrices at random scales."""
        a, b = rng.standard_normal((2, count, n, n)) * 10.0 ** rng.uniform(-3, 3, (count, 1, 1))
        x, y = a - a.transpose(0, 2, 1), b + b.transpose(0, 2, 1)
        return {0: x, 1: y, None: x + 1j * y}[grade]

    @pytest.mark.parametrize("grade", [0, 1, None])
    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_isometry_for_the_frobenius_inner_product(self, n, grade):
        rng = np.random.default_rng(n)
        a = self.draw(rng, n, grade)
        a = a / np.linalg.norm(a, axis=(1, 2), keepdims=True).clip(min=1e-300)
        v = _vec(a, grade)
        assert v.shape[-1] == {0: n * (n - 1) // 2, 1: n * (n + 1) // 2, None: n * n}[grade]
        inner = np.einsum("aij,bij->ab", a.conj(), a).real
        assert np.max(np.abs(v @ v.T - inner)) <= 1e-15

    @pytest.mark.parametrize("grade", [0, 1, None])
    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_round_trip(self, n, grade):
        # sqrt2 X rounds: no map could invert it on every double, so a matrix
        # returns to within one rounding, and exactly once it has been mapped
        rng = np.random.default_rng(n)
        a = self.draw(rng, n, grade)
        back = _unvec(_vec(a, grade), n, grade)
        assert np.all(np.abs(back - a) <= 2.0**-52 * np.abs(a))
        assert np.array_equal(np.diagonal(back, axis1=1, axis2=2), np.diagonal(a, axis1=1, axis2=2))
        assert np.array_equal(_unvec(_vec(back, grade), n, grade), back)

    @pytest.mark.parametrize("grade", [0, 1, None])
    def test_output_is_exactly_of_its_grade(self, grade):
        n = 6
        size = {0: 15, 1: 21, None: 36}[grade]
        mats = _unvec(np.random.default_rng(1).standard_normal((10, size)), n, grade)
        expected = {0: -mats, 1: mats, None: -mats.conj()}[grade]
        assert np.array_equal(mats.transpose(0, 2, 1), expected)

    def test_closure_basis_is_exactly_skew_hermitian(self):
        for gens in (real_generators("generic", 5, 2, 3), [random_skew(np.random.default_rng(3), 5)] * 2):
            for b in closure(gens).basis:
                assert np.array_equal(b.conj().T, -b)

    @pytest.mark.parametrize("kind", ["complex", "generic", "traceless", "offset", "commuting"])
    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_traceless_generators_read_the_skew_hermitian_trace(self, kind, n):
        if kind == "complex":
            rng = np.random.default_rng(n)
            gens = [random_skew(rng, n), random_skew(rng, n)]
            gens[1] = gens[1] - np.trace(gens[1]) / n * np.eye(n)
            sets = [gens, gens[1:]]
        else:
            sets = [real_generators(kind, n, 2, n)]
        for gens in sets:
            skew = [(g - g.conj().T) / 2 for g in gens]
            expected = all(
                abs(np.trace(g).imag) <= RANK_TOL * np.linalg.norm(g) for g in skew
            )
            assert closure(gens).traceless_generators == expected


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
    abelian = True
    while start < len(matrices) < n * n:
        stop = len(matrices)
        for a in matrices[start:stop]:
            for b in matrices[:stop]:
                c = comm(a, b)
                if np.linalg.norm(c) > 1e-12:
                    abelian = False
                    if len(matrices) < n * n:
                        try_add(c)
        start = stop
    return len(matrices), _classify(len(matrices), n, abelian)


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
    # a chain with one coupling of 4e-5: bracketing unit brackets, never
    # orthogonalised, lost a direction and read u(5) as su(5)
    @example(kind="chain", n=5, seed=117, log_scale=0.0)
    def test_matches_all_pairs_closure(self, kind, n, seed, log_scale):
        gens = [10.0**log_scale * g for g in structured_generators(kind, n, seed)]
        result = closure(gens)
        assert (result.dimension, result.classification) == reference_closure(gens)
        assert_closed_under_brackets(result)

    @pytest.mark.parametrize("seed", [3412, 26460])
    def test_basis_stays_orthonormal_when_brackets_nearly_lie_in_the_span(self, seed):
        # these n = 8 chains bracket to rows whose residual off the span is
        # 1e-6 of their norm or less; a leaf that projected them off only the
        # rows added since its block left them visibly oblique to the older
        # ones, and the basis drifted from orthonormal by up to 0.85
        result = closure(structured_generators("chain", 8, seed))
        basis = np.array(result.basis)
        q = np.concatenate([basis.real, basis.imag], axis=-1).reshape(len(basis), -1)
        assert np.max(np.abs(q @ q.T - np.eye(len(q)))) < 1e-10
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


def reference_extend(vectors, rows, rel_tol=RANK_TOL, accepted=None):
    """Row-by-row two-pass Gram-Schmidt that stops at a full basis: what ``extend`` must decide.

    Each row it accepts is appended, as given, to ``accepted`` when that list is passed.
    """
    for v in rows:
        norm0 = np.linalg.norm(v)
        if len(vectors) == vectors.shape[1] or norm0 == 0.0:
            continue
        row = v
        for _ in range(2):
            v = v - vectors.T @ (vectors @ v)
        resid = np.linalg.norm(v)
        if resid > rel_tol * norm0:
            vectors = np.vstack([vectors, v / resid])
            if accepted is not None:
                accepted.append(row)
    return vectors


def projector_gap_bound(accepted):
    """Widest entrywise gap between the projectors of two stable orthonormalisations of ``accepted``.

    Either basis spans the rows of A + E exactly, where row i of E is at most
    d eps ||a_i|| for vectors of length d (one rounding per term of an inner
    product). The span ignores row scales, so with rows scaled to unit norm,
    ||E|| <= d eps sqrt(k) for k rows, and the projector onto the span moves
    by at most ||E|| / sigma_min (Wedin's sin-theta bound), sigma_min being
    the scaled rows' smallest singular value. Two bases differ by twice that.
    A new row only just off the span makes sigma_min small and the bound wide:
    its direction is known only to about eps over its relative residual.
    """
    rows = np.array(accepted)
    k, d = rows.shape
    sigma_min = np.linalg.svd(rows / np.linalg.norm(rows, axis=1)[:, None], compute_uv=False)[-1]
    return 2 * d * np.finfo(float).eps * np.sqrt(k) / sigma_min


ROW_KINDS = ["new", "zero", "in-span", "near-span", "repeat", "combination"]


def build_blocks(n, seed, kinds):
    """Blocks of rows in R^(n^2), one block per list of row kinds, each row at a random scale.

    A row is new, zero, in the span of earlier blocks, 1e-6 (relative) off
    that span, a repeat of an earlier row of its block, or a combination of
    earlier rows of its block.
    """
    rng = np.random.default_rng(seed)
    blocks, seen = [], []
    for block_kinds in kinds:
        block = []
        for kind in block_kinds:
            if kind in ("in-span", "near-span") and seen:
                row = rng.standard_normal(len(seen)) @ np.array(seen)
                if kind == "near-span":
                    row = row + 1e-6 * np.linalg.norm(row) * rng.standard_normal(n * n)
            elif kind == "repeat" and block:
                row = block[rng.integers(len(block))]
            elif kind == "combination" and len(block) > 1:
                row = rng.standard_normal(len(block)) @ np.array(block)
            elif kind == "zero":
                row = np.zeros(n * n)
            else:
                row = rng.standard_normal(n * n)
            block.append(row * 10.0 ** rng.uniform(-3, 3))
        seen += block
        blocks.append(np.array(block))
    return n, blocks


@st.composite
def candidate_blocks(draw):
    """n and ``build_blocks`` of up to four blocks of up to 100 rows."""
    n = draw(st.integers(2, 6))
    seed = draw(st.integers(0, 2**16))
    block_kinds = st.lists(st.sampled_from(ROW_KINDS), min_size=1, max_size=100)
    return build_blocks(n, seed, draw(st.lists(block_kinds, min_size=1, max_size=4)))


class TestSpanBasisExtend:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(case=candidate_blocks())
    # near-span rows leave the two projectors 5.7e-10 apart, more than a fixed
    # 1e-10 allowed; against the projector at 50 digits, extend's is 3.1e-10
    # off and the row-by-row one 5.2e-10, both well inside the derived bound
    @example(
        case=build_blocks(
            6,
            6,
            [
                ["new"],
                ["in-span", "repeat", "repeat", "near-span", "in-span", "new", "near-span"]
                + ["combination", "near-span"],
                ["new", "in-span", "in-span", "new", "zero", "new", "in-span", "near-span", "new"],
                ["in-span", "zero", "combination", "new", "in-span"],
            ],
        )
    )
    def test_matches_row_by_row_gram_schmidt(self, case):
        n, blocks = case
        basis = _SpanBasis(n)
        reference = np.zeros((0, n * n))
        accepted = []
        for block in blocks:
            added, _ = basis.extend(block)
            before = len(accepted)
            reference = reference_extend(reference, block, accepted=accepted)
            vectors = basis.vectors[: basis.dim]
            assert basis.dim == len(reference)
            assert np.array_equal(block[added], np.reshape(accepted[before:], (-1, n * n)))
            if accepted:
                projector_gap = np.abs(vectors.T @ vectors - reference.T @ reference)
                assert np.max(projector_gap) <= projector_gap_bound(accepted)
            gram_gap = np.abs(vectors @ vectors.T - np.eye(basis.dim))
            assert np.max(gram_gap, initial=0.0) <= 1e-12

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_stops_at_a_full_basis(self, n):
        # with no rank tolerance every rounding residual counts as new, so only
        # the stop at n^2 keeps a long block from writing past the basis
        basis = _SpanBasis(n)
        basis.extend(np.random.default_rng(n).standard_normal((5 * n * n, n * n)), rel_tol=0.0)
        assert basis.dim == n * n
        vectors = basis.vectors
        assert np.max(np.abs(vectors @ vectors.T - np.eye(n * n))) <= 1e-12


def block_diagonal_generators(seed):
    """i H0, i H1, i H2 of an n = 16 family built from two 8 x 8 real-symmetric blocks."""
    rng = np.random.default_rng(seed)
    gens = []
    for _ in range(3):
        mat = np.zeros((16, 16))
        mat[:8, :8] = random_symmetric(rng, 8)
        mat[8:, 8:] = random_symmetric(rng, 8)
        gens.append(1j * mat)
    return gens


class TestLargeClosures:
    @pytest.mark.parametrize("seed", range(10))
    def test_two_block_family_closes_to_u8_plus_u8(self, seed):
        result = closure(block_diagonal_generators(seed))
        assert (result.dimension, result.classification) == (128, CLASS_OTHER)
        assert not classify_transitive(result, 16).controllable_on_group

    def test_random_n24_family_is_full_and_its_traceless_part_is_su(self):
        rng = np.random.default_rng(24)
        gens = [random_skew(rng, 24) for _ in range(3)]
        result = closure(gens)
        assert (result.dimension, result.classification) == (576, CLASS_FULL)
        traceless = [g - np.trace(g) / 24 * np.eye(24) for g in gens]
        result = closure(traceless)
        assert (result.dimension, result.classification) == (575, CLASS_TRACELESS)


class TestEnergyUnit:
    """Each generator is rescaled by a power of two before any sum of squares."""

    # sqrt(sum x^2) overflowed above about 1e154 and underflowed below about
    # 1e-162: these scales read dimension 0 and class abelian-or-small
    @pytest.mark.parametrize("scale", [1e150, 1e155, 1e160, 1e200, 1e-160, 1e-170, 1e-200])
    def test_family_closes_as_at_unit_scale(self, scale):
        H = random_family(0, 4, 2)
        expected = closure(generators_from(H)).to_json_dict()
        assert expected["classification"] == CLASS_FULL
        # dimension, classification, traceless_generators and n
        assert closure(generators_from(scaled(H, scale))).to_json_dict() == expected

    @pytest.mark.parametrize("scale", [1e150, 1e155, 1e160, 1e200, 1e300, 1e-160, 1e-170, 1e-200])
    def test_family_certifies_as_at_unit_scale(self, scale):
        H = random_family(0, 4, 2)
        assert certify(scaled(H, scale)).verdict == certify(H).verdict == "exactly-controllable-U(4)"

    @pytest.mark.parametrize("largest", [1e308, -1e308, 1e-300])
    def test_extreme_entries_close_as_at_unit_scale(self, largest):
        gens = [1j * SIGMA_X, 1j * SIGMA_Z]
        expected = closure([np.sign(largest) * g for g in gens])
        result = closure([largest * g for g in gens])
        assert result.to_json_dict() == expected.to_json_dict()
        for b, b0 in zip(result.basis, expected.basis, strict=True):
            assert np.array_equal(b, b0)


class TestTracelessStop:
    def test_a_traceless_closure_stops_at_su_n_one_sweep_earlier(self, monkeypatch):
        rng = np.random.default_rng(0)
        gens = [1j * random_symmetric(rng, 8) for _ in range(3)]
        gens = [g - np.trace(g) / 8 * np.eye(8) for g in gens]
        added = []
        extend = _SpanBasis.extend

        def recording(self, *args, **kwargs):
            rows, resid = extend(self, *args, **kwargs)
            added.append(len(rows))
            return rows, resid

        monkeypatch.setattr(_SpanBasis, "extend", recording)
        result = closure(gens)
        stopped, added[:] = list(added), []
        closed_span = lie_closure._closed_span
        # the closure as it ran before it knew the limit: until a sweep adds nothing
        monkeypatch.setattr(
            lie_closure, "_closed_span", lambda coords, n, tol, limit: closed_span(coords, n, tol, n * n)
        )
        unlimited = closure(gens)
        assert (result.dimension, result.classification) == (63, CLASS_TRACELESS)
        assert unlimited.to_json_dict() == result.to_json_dict()
        for b, b0 in zip(result.basis, unlimited.basis, strict=True):
            assert np.array_equal(b, b0)
        # the unlimited closure ran a last sweep in which every bracket was rejected
        assert len(added) > len(stopped) and added[: len(stopped)] == stopped
        assert not any(added[len(stopped):])


class TestLazyBasis:
    def test_basis_left_unread_is_never_built(self):
        rng = np.random.default_rng(0)
        n = 24
        gens = [1j * random_symmetric(rng, n) for _ in range(3)]
        closure(gens)  # coordinate tables are cached on first use
        tracemalloc.start()
        try:
            result = closure(gens)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the bytes of the so(n) and i sym(n) bases' rows
        vectors = 8 * ((n * (n - 1) // 2) ** 2 + (n * (n + 1) // 2) ** 2)
        # the two span bases and the pieces of one sweep; the whole basis as
        # n^2 complex matrices, or a sweep's brackets in one block, took 9 times this
        assert peak < 2 * vectors
        assert result.dimension == n * n
        assert "basis" not in vars(result)

    def test_basis_is_built_once_and_matches_its_document(self):
        result = closure(generators_from(make_family(SIGMA_Z, [SIGMA_X, SIGMA_Y], [[-1, 1]] * 2)))
        basis = result.basis
        assert result.basis is basis
        assert isinstance(basis, tuple) and len(basis) == result.dimension
        doc = result.to_json_dict(include_basis=True)["basis"]
        for entry, b in zip(doc, basis, strict=True):
            assert np.array_equal(np.array(entry["re"]), b.real)
            assert np.array_equal(np.array(entry["im"]), b.imag)

    def test_a_result_built_from_its_fields_returns_them(self):
        basis = (1j * SIGMA_Z,)
        result = LieClosureResult(1, basis, CLASS_ABELIAN, True, 2)
        assert result.basis is basis and result._witness_basis is None
        assert classify_transitive(result, 2).controllable_on_sphere is False


def mutated_stack(draw):
    """A valid generator stack (nested lists) after one hostile mutation."""
    n = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    stack = [random_skew(rng, n) for _ in range(draw(st.integers(1, 3)))]
    kind = draw(st.sampled_from([
        "none", "bool", "string", "None", "ragged", "ndim", "empty",
        "nonfinite", "entry", "generator-scale", "hermitian",
    ]))
    g, i, j = draw(st.integers(0, len(stack) - 1)), draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    magnitude = draw(st.sampled_from([1e308, -1e308, 1e200, 1e-200, 1e-300]))
    if kind == "entry":
        # kept skew-Hermitian, so only the magnitude is hostile
        stack[g][i, j] = magnitude * (1j if i == j else 1)
        stack[g][j, i] = -np.conj(stack[g][i, j])
    elif kind == "generator-scale":
        stack[g] = stack[g] / np.max(np.abs(stack[g])) * magnitude
    elif kind == "hermitian":
        h = rng.standard_normal((n, n))
        stack[g] = stack[g] + draw(st.sampled_from([1e-20, 1e-14, 1e-8, 1.0])) * (h + h.T)
    nested = [m.tolist() for m in stack]
    if kind in ("bool", "string", "None", "nonfinite"):
        nested[g][i][j] = {
            "bool": draw(st.booleans()),
            "string": "1.0",
            "None": None,
            "nonfinite": draw(st.sampled_from([np.nan, np.inf, -np.inf])),
        }[kind]
    elif kind == "ragged":
        del nested[g][i][j]
    elif kind == "ndim":
        nested = draw(st.sampled_from([nested[0], [nested], nested[0][0]]))
    elif kind == "empty":
        nested = draw(st.sampled_from([[], [[]], [[[]]], [np.zeros((0, 0))]]))
    return nested


def normal_range_shifts(values) -> list:
    """The extreme powers of two that keep every nonzero real and imaginary part normal and finite."""
    parts = np.abs(np.asarray(values, dtype=complex).view(np.float64))
    nonzero = parts[parts > 0]
    if not nonzero.size:
        return [-1000, 1000]
    low, high = np.frexp(nonzero.min())[1], np.frexp(nonzero.max())[1]
    # 2^(e-1) <= x < 2^e: the smallest must stay at 2^-1022 or above, the largest below 2^1024
    shifts = [-1021 - low, 1024 - high]
    return shifts if shifts[0] <= shifts[1] else []


class TestInputFuzz:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_a_mutated_stack_is_refused_or_closes_alike_in_any_unit(self, data):
        stack = mutated_stack(data.draw)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                result = closure(stack)
            except (StructuralError, PreconditionError):
                return
            for k in normal_range_shifts(stack):
                shifted = np.ldexp(np.asarray(stack, dtype=complex).view(np.float64), k).view(complex)
                assert closure(shifted).dimension == result.dimension
