import functools
import importlib
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

from speccert import (
    PreconditionError,
    certify_connectedness,
    decompose,
    degeneracy_tol,
    ensemble_genericity,
    locate_intersection,
    test_conicality,
)
from speccert import ControlHamiltonian, HermitianOperator, SpeccertError, conical, spectrum
from speccert.conical import (
    INTERIOR_REL_MARGIN,
    ConicalityResult,
    _conicality_rows,
    _locate_groups,
)
from speccert.sampling import box_sequence, random_hermitian, random_symmetric
from conftest import HOSTILE_TOLERANCES, SIGMA_X, SIGMA_Y, SIGMA_Z, make_family, scaled
from conicality_reference import reference_conicality
from ensemble_reference import _perturbed, _random_family
from locator_reference import reference_locate


@pytest.fixture
def flat_gap_family():
    """gap = 2|u1|, independent of u2: linear but with a zero-slope direction."""
    return make_family(np.zeros((2, 2)), [SIGMA_Z, np.zeros((2, 2))], [[-1, 1], [-1, 1]])


@pytest.fixture
def scalar_family():
    """H(u) = (u1 + 2 u2) I: degenerate everywhere, with no cone anywhere."""
    return make_family(np.zeros((2, 2)), [np.eye(2), 2 * np.eye(2)], [[-1, 1], [-1, 1]])


@pytest.fixture
def boundary_pair_family():
    """Two cones side by side: levels 2, 3 meet inside at (0, 0) and on the box edge at (1, 0)."""
    z = np.zeros((2, 2))
    return make_family(
        block_diag(z, -SIGMA_X),
        [block_diag(SIGMA_X, SIGMA_X), block_diag(SIGMA_Z, SIGMA_Z)],
        [[-1, 1], [-1, 1]],
    )


@pytest.fixture
def double_cone_family():
    """Levels 2, 3 meet in two interior cones, at (0, 0) and at (1, 0)."""
    z = np.zeros((2, 2))
    return make_family(
        block_diag(z, -SIGMA_X),
        [block_diag(SIGMA_X, SIGMA_X), block_diag(SIGMA_Z, SIGMA_Z)],
        [[-1, 2], [-1, 1]],
    )


def planted_cone(a, coupling: float = 0.0):
    """u1 sigma_x + u2 sigma_y + u3 sigma_z shifted to a, embedded at n = 3.

    Levels 1, 2 meet where the 2x2 block vanishes; ``coupling`` links the
    block to the third level through a complex entry, which moves the point
    away from a.
    """
    drift = np.zeros((3, 3), dtype=complex)
    drift[:2, :2] = -(a[0] * SIGMA_X + a[1] * SIGMA_Y + a[2] * SIGMA_Z)
    drift[2, 2] = 3.0
    drift[0, 2] = coupling * (1 + 1j)
    drift[2, 0] = np.conj(drift[0, 2])
    controls = [block_diag(sigma, np.zeros((1, 1))) for sigma in (SIGMA_X, SIGMA_Y, SIGMA_Z)]
    return make_family(drift, controls, [[-1, 1]] * 3)


def _drawn_family(seed: int, n: int, m: int):
    """The ensemble's draw: real symmetric for m = 2, complex Hermitian for m = 3, box [-2, 2]^m."""
    return _random_family(np.random.default_rng(seed), n, m, 2.0)


def _in_company(H, level, seeds):
    """The answer for (H, level, seeds) from one solve shared with another family's levels."""
    other = _drawn_family(0, H.dim, H.m)
    company = [
        (other._stack, other.box, j, box_sequence(other.box, 5, j), degeneracy_tol(other))
        for j in range(1, H.dim)
    ]
    group = (H._stack, H.box, level, np.array(seeds, dtype=float), degeneracy_tol(H))
    return _locate_groups(company[:1] + [group] + company[1:])[1]


def _is_interior(H, u) -> bool:
    margin = INTERIOR_REL_MARGIN * (H.box[:, 1] - H.box[:, 0])
    return bool(np.all(u > H.box[:, 0] + margin) and np.all(u < H.box[:, 1] - margin))


class TestLocateIntersection:
    def test_cone_at_origin(self, two_level_cone):
        u = locate_intersection(two_level_cone, 1, [[0.5, 0.5]])
        assert u is not None
        assert np.linalg.norm(u) < 1e-6

    def test_shifted_cone(self, shifted_cone):
        seeds = box_sequence(shifted_cone.box, 4, seed=1)
        u = locate_intersection(shifted_cone, 1, seeds)
        assert u is not None
        assert abs(u[0]) < 1e-6
        assert abs(u[1] - (-1.0)) < 1e-6

    def test_constant_gap_not_found(self, diag_family):
        seeds = box_sequence(diag_family.box, 6, seed=2)
        assert locate_intersection(diag_family, 1, seeds) is None

    def test_boundary_minimum_not_found(self, diag_family):
        # gap(2) = 1 - u1 is minimized on the box boundary and stays >> tau
        seeds = box_sequence(diag_family.box, 6, seed=2)
        assert locate_intersection(diag_family, 2, seeds) is None

    def test_boundary_intersection_does_not_hide_interior_one(self, boundary_pair_family):
        H = boundary_pair_family
        for budget in (1, 2, 4, 8, 16, 32):
            u = locate_intersection(H, 2, box_sequence(H.box, budget, seed=0))
            assert u is not None, budget
            assert np.linalg.norm(u) < 1e-6

    @settings(
        max_examples=10, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(seed=st.integers(0, 2**16), k=st.integers(1, 8), extra=st.integers(1, 16))
    def test_larger_budget_keeps_a_found_intersection(self, boundary_pair_family, seed, k, extra):
        # box_sequence is prefix-stable, so the larger budget retries every smaller-budget
        # seed, and the first seed that hits is the same seed, reaching the same point
        H = boundary_pair_family
        small = locate_intersection(H, 2, box_sequence(H.box, k, seed))
        for locate in (locate_intersection, _in_company):
            large = locate(H, 2, box_sequence(H.box, k + extra, seed))
            assert small is None or (large is not None and np.array_equal(small, large))

    @settings(
        max_examples=10, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(seed=st.integers(0, 2**16), k=st.integers(1, 8), extra=st.integers(1, 16))
    def test_larger_budget_reports_the_same_of_two_cones(self, double_cone_family, seed, k, extra):
        H = double_cone_family
        small = locate_intersection(H, 2, box_sequence(H.box, k, seed))
        for locate in (locate_intersection, _in_company):
            large = locate(H, 2, box_sequence(H.box, k + extra, seed))
            assert small is None or (large is not None and np.array_equal(small, large))

    def test_seed_ending_on_the_box_edge_restarts(self, boundary_pair_family):
        # the run from (0.9, 0.05) reaches the edge cone at (1, 0); a restart finds (0, 0)
        u = locate_intersection(boundary_pair_family, 2, [[0.9, 0.05]])
        assert u is not None
        assert np.linalg.norm(u) < 1e-6

    def test_stalled_seed_restarts(self, monkeypatch):
        # without restarts this seed's only run ends short of a degeneracy
        H = _drawn_family(0, 4, 2)
        seed = box_sequence(H.box, 4, 0)[1]
        monkeypatch.setattr(conical, "RESTARTS", 0)
        assert locate_intersection(H, 1, [seed]) is None
        monkeypatch.undo()
        u = locate_intersection(H, 1, [seed])
        assert u is not None
        assert _is_interior(H, u)
        assert decompose(H, u).gap(1) <= degeneracy_tol(H)

    def test_first_hit_in_seed_order_is_returned(self, double_cone_family):
        H = double_cone_family
        near_second, near_first = [0.9, 0.1], [0.1, -0.1]
        u = locate_intersection(H, 2, [near_second, near_first])
        assert np.linalg.norm(u - [1.0, 0.0]) < 1e-6
        u = locate_intersection(H, 2, [near_first, near_second])
        assert np.linalg.norm(u) < 1e-6

    def test_quadratic_convergence_on_the_two_level_cone(self, two_level_cone):
        # seed at distance 0.5; the pair block is exactly affine, so the solve is exact
        u = locate_intersection(two_level_cone, 1, [[0.3, 0.4]])
        assert np.linalg.norm(u) <= 1e-12

    def test_quadratic_convergence_on_the_shifted_cone(self, shifted_cone):
        u = locate_intersection(shifted_cone, 1, [[0.3, -0.6]])
        assert np.linalg.norm(u - [0.0, -1.0]) <= 1e-12

    def test_planted_complex_cone_located(self):
        a = np.array([0.3, -0.2, 0.1])
        H = planted_cone(a)
        u = locate_intersection(H, 1, box_sequence(H.box, 3, seed=0))
        assert np.linalg.norm(u - a) <= 1e-12

    def test_coupled_complex_cone_located_and_conical(self):
        # the complex coupling to level 3 moves the cone off a; the Im row is needed to find it
        H = planted_cone(np.array([0.3, -0.2, 0.1]), coupling=0.3)
        u = locate_intersection(H, 1, box_sequence(H.box, 3, seed=0))
        assert u is not None
        assert decompose(H, u).gap(1) <= degeneracy_tol(H)
        assert test_conicality(H, u, 1).conical

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**16), n=st.integers(2, 5), m=st.integers(2, 3))
    def test_returned_points_are_interior_degeneracies(self, seed, n, m):
        H = _drawn_family(seed, n, m)
        tau = degeneracy_tol(H)
        seeds = box_sequence(H.box, 4, seed)
        for j in range(1, n):
            u = locate_intersection(H, j, seeds)
            if u is not None:
                assert _is_interior(H, u)
                assert decompose(H, u).gap(j) <= tau

    def test_random_families_have_located_intersections(self):
        # keeps the property above from passing vacuously
        found = 0
        for seed in range(5):
            H = _drawn_family(seed, 4, 2)
            seeds = box_sequence(H.box, 4, seed)
            found += sum(locate_intersection(H, j, seeds) is not None for j in range(1, 4))
        assert found >= 5

    def test_warm_start_relocates_perturbed_family(self, three_level_chain):
        # the ensemble's persistence path: re-locate from u_star after a 1e-3 perturbation
        H = three_level_chain
        rng = np.random.default_rng(4)
        for j in (1, 2):
            u_star = locate_intersection(H, j, box_sequence(H.box, 12, seed=5))
            Hp = _perturbed(H, rng, 1e-3)
            u_new = locate_intersection(Hp, j, [u_star])
            assert u_new is not None
            assert np.linalg.norm(u_new - u_star) <= 10 * 1e-3

    def test_empty_seeds_find_nothing(self, two_level_cone):
        assert locate_intersection(two_level_cone, 1, []) is None

    def test_seed_of_wrong_length_rejected(self, two_level_cone):
        for seeds in ([[0.1, 0.1, 0.1]], [[0.1, 0.2], [0.1, 0.2, 0.3]]):
            with pytest.raises(PreconditionError):
                locate_intersection(two_level_cone, 1, seeds)

    def test_seed_outside_box_rejected(self, two_level_cone):
        with pytest.raises(PreconditionError):
            locate_intersection(two_level_cone, 1, [[2.0, 0.0]])

    def test_seed_with_a_bool_rejected(self, two_level_cone):
        # read as the seed (1, 0.5), which the search ran from
        with pytest.raises(PreconditionError, match="got a bool"):
            locate_intersection(two_level_cone, 1, [[True, 0.5]])

    def test_bad_level_rejected(self, two_level_cone):
        with pytest.raises(PreconditionError):
            locate_intersection(two_level_cone, 2, [[0.1, 0.1]])

    @pytest.mark.parametrize("level", [1.5, 1.0, True, np.nan, "1"])
    def test_level_must_be_an_integer(self, two_level_cone, level):
        # 1.5 raised a bare IndexError
        with pytest.raises(PreconditionError, match="level must be an integer in 1..1"):
            locate_intersection(two_level_cone, level, [[0.1, 0.1]])

    def test_numpy_integer_level_accepted(self, two_level_cone):
        u = locate_intersection(two_level_cone, np.int64(1), [[0.5, 0.5]])
        assert u is not None

    @pytest.mark.parametrize("tau", HOSTILE_TOLERANCES)
    def test_hostile_threshold_rejected(self, two_level_cone, tau):
        # nan and negative thresholds found nothing, and inf returned the seed itself
        with pytest.raises(PreconditionError, match="tau_deg must be finite and positive"):
            locate_intersection(two_level_cone, 1, [[0.5, 0.5]], tau_deg=tau)


class TestBatchedLocator:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(2, 5),
        m=st.integers(2, 3),
        shape=st.lists(
            st.tuples(st.integers(0, 2), st.integers(1, 4), st.integers(1, 8)),
            min_size=1,
            max_size=6,
        ),
    )
    # a run that meets a box face with its full step beyond it, is rejected
    # there once, and then hits along the face
    @example(seed=10871, n=5, m=3, shape=[(1, 1, 1)])
    def test_each_group_matches_its_standalone_solve(self, seed, n, m, shape):
        # shape lists (family, level, seed count) per group; real families for m = 2,
        # complex ones for m = 3
        families = [_drawn_family(seed + f, n, m) for f in range(3)]
        groups = []
        for f, level, count in shape:
            H = families[f]
            seeds = box_sequence(H.box, count, seed + len(groups))
            groups.append((H, 1 + (level - 1) % (n - 1), seeds, degeneracy_tol(H)))
        solved = _locate_groups([(H._stack, H.box, *rest) for H, *rest in groups])
        for (H, level, seeds, tau), u in zip(groups, solved):
            alone = locate_intersection(H, level, seeds, tau_deg=tau)
            assert (u is None and alone is None) or np.array_equal(u, alone)
            # and the run-by-run reference solve of the group alone agrees
            assert _same_answers([alone], reference_locate([(H._stack, H.box, level, seeds, tau)]))

    def test_no_groups_no_answers(self):
        assert _locate_groups([]) == []

    def test_complex_families_with_two_controls_have_no_intersections(self):
        # a complex Hermitian crossing has codimension 3, so two controls generically
        # miss it; real families drawn the same way show the solve does find crossings
        located = {}
        for draw in (random_symmetric, random_hermitian):
            groups = []
            for child in np.random.SeedSequence(0).spawn(40):
                rng = np.random.default_rng(child)
                ops = [HermitianOperator(draw(rng, 3)) for _ in range(3)]
                H = ControlHamiltonian(
                    drift=ops[0], controlled=tuple(ops[1:]), box=np.array([[-3.0, 3.0]] * 2)
                )
                seeds = box_sequence(H.box, 8, 0)
                groups += [(H._stack, H.box, j, seeds, degeneracy_tol(H)) for j in (1, 2)]
            located[draw] = sum(u is not None for u in _locate_groups(groups))
        assert located[random_hermitian] == 0
        assert located[random_symmetric] >= 60


def _same_answers(got, want) -> bool:
    """Per group, both None or bitwise the same point."""
    return len(got) == len(want) and all(
        (a is None and b is None) or (a is not None and b is not None and np.array_equal(a, b))
        for a, b in zip(got, want)
    )


def _ensemble_solves(rng_seed: int) -> list:
    """The group lists of the two locator solves of ``ensemble_genericity(3, 2, 50, rng_seed)``:
    every (trial, level) pair from box seeds, then every relocation from u_star."""
    module = importlib.import_module("speccert.certify")
    solves = []

    def recorded(groups):
        solves.append(groups)
        return _locate_groups(groups)

    module._locate_groups = recorded
    try:
        module.ensemble_genericity(3, 2, 50, rng_seed)
    finally:
        module._locate_groups = _locate_groups
    assert len(solves) == 2
    return solves


def _chain_solves() -> list:
    """``certify_connectedness``'s solve of the criterion-5 chain at report seeds 0-11."""
    H = make_family(
        np.diag([0.0, 0.0, 1.5]),
        [np.diag([1.0, 0.0, -1.0]), [[0.0, 1.0, 0.5], [1.0, 0.0, 1.0], [0.5, 1.0, 0.0]]],
        [[-0.6, 1.35], [-0.75, 0.75]],
    )
    tau = degeneracy_tol(H)
    return [
        [(H._stack, H.box, j, box_sequence(H.box, 12, s), tau) for j in (1, 2)] for s in range(12)
    ]


@functools.lru_cache(maxsize=None)
def _oracle(source: str) -> tuple:
    """(solves, the reference's answers per solve, its end-reason counts, its
    eigensolve count) for one part of the equivalence set, each solve a group
    list as one call receives it."""
    if source in ("certify", "large"):
        # certify's default 8 seeds per level; "large" is where the lazy seed
        # schedule saves the most
        if source == "certify":
            families = _certify_random_families(60)
        else:
            families = _bench_families(6, (12, 16), 12)
        solves = []
        for H in families:
            U = box_sequence(H.box, 8, 0)
            solves.append([(H._stack, H.box, j, U, degeneracy_tol(H)) for j in range(1, H.dim)])
    elif source == "thresholds":
        # a coarse threshold ends each run at the first point of its path below it,
        # so these answers sample the runs' paths, not only their ends
        solves = []
        for H in _certify_random_families(15):
            U = box_sequence(H.box, 8, 0)
            for scale in (1e7, 1e5, 1e3):
                tau = scale * degeneracy_tol(H)
                solves.append([(H._stack, H.box, j, U, tau) for j in range(1, H.dim)])
    elif source == "chain":
        solves = _chain_solves()
    else:
        solves = _ensemble_solves(int(source))
    reasons, eigh_rows = {}, []
    answers = [reference_locate(groups, reasons, eigh_rows) for groups in solves]
    return solves, answers, reasons, len(eigh_rows)


def _planted_solves(*families) -> list:
    """One solve per planted family and level, from box seeds and from hand-picked ones."""
    solves = []
    for H in families:
        seed_sets = [box_sequence(H.box, k, s) for k, s in ((1, 0), (4, 1), (9, 2))]
        seed_sets += [np.array([H.box.mean(axis=1)])]
        for j in range(1, H.dim):
            solves += [[(H._stack, H.box, j, U, degeneracy_tol(H))] for U in seed_sets]
    return solves


@pytest.fixture
def planted_set(
    two_level_cone,
    shifted_cone,
    diag_family,
    boundary_pair_family,
    double_cone_family,
    quadratic_contact_family,
    flat_gap_family,
    scalar_family,
) -> list:
    """The planted part of the locator's equivalence set, as solves."""
    families = [
        two_level_cone,
        shifted_cone,
        diag_family,
        boundary_pair_family,
        double_cone_family,
        quadratic_contact_family,
        flat_gap_family,
        scalar_family,
        planted_cone(np.array([0.3, -0.2, 0.1])),
        planted_cone(np.array([0.3, -0.2, 0.1]), coupling=0.3),
    ]
    solves = _planted_solves(*families)
    # the run from (0.9, 0.05) ends at the edge cone (1, 0) and restarts
    H = boundary_pair_family
    solves.append([(H._stack, H.box, 2, np.array([[0.9, 0.05]]), degeneracy_tol(H))])
    # all planted solves in one batch, too
    solves.append([g for groups in solves for g in groups if g[0].shape == (3, 3, 3)])
    return solves


SOURCES = ["certify", "thresholds", "chain", "11", "22", "33", "large"]
# the reference solve keeps the ends a run had before "stall" and "face"
REFERENCE_ENDS = set(conical.END_REASONS) - {"stall", "face"}


class TestLocatorOracle:
    """The scheduled solve against the run-by-run reference, point for point."""

    @pytest.mark.parametrize("source", SOURCES)
    def test_matches_the_reference(self, source):
        solves, answers, _, _ = _oracle(source)
        for groups, want in zip(solves, answers):
            assert _same_answers(_locate_groups(groups), want)

    def test_planted_families_match_the_reference(self, planted_set):
        reasons = {}
        for groups in planted_set:
            assert _same_answers(_locate_groups(groups), reference_locate(groups, reasons))
        for source in SOURCES:
            for reason, count in _oracle(source)[2].items():
                reasons[reason] = reasons.get(reason, 0) + count
        # the equivalence set is not vacuous: its runs end in every way a run can end
        assert {r for r, count in reasons.items() if count} == REFERENCE_ENDS

    @pytest.mark.parametrize("limit", [3, 12])
    def test_matches_the_reference_under_short_iteration_limits(self, monkeypatch, limit):
        # a short limit ends many runs by their iteration count
        monkeypatch.setattr(conical, "MAX_ITERATIONS", limit)
        for groups in _oracle("thresholds")[0]:
            assert _same_answers(_locate_groups(groups), reference_locate(groups))

    def test_restarts_are_read_at_call_time(self, monkeypatch, boundary_pair_family):
        H = boundary_pair_family
        groups = [(H._stack, H.box, 2, np.array([[0.9, 0.05]]), degeneracy_tol(H))]
        for restarts in (0, 1, 3):
            monkeypatch.setattr(conical, "RESTARTS", restarts)
            assert _same_answers(_locate_groups(groups), reference_locate(groups))
        assert _locate_groups(groups)[0] is not None  # a restart finds the interior cone


def _eigh_rows(monkeypatch, solves) -> list:
    """The row count of every stacked eigensolve the locator runs on ``solves``."""
    rows = []
    eigh = np.linalg.eigh
    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "eigh", lambda a: rows.append(len(a)) or eigh(a))
        for groups in solves:
            _locate_groups(groups)
    return rows


EAGER, LAZY = 10**9, 2  # LAZY_SEED_MIN_DIM values that make every solve eager or lazy


class TestLocatorSchedule:
    @pytest.mark.parametrize("source", SOURCES)
    def test_lazy_and_eager_seeds_give_the_same_points(self, monkeypatch, source):
        solves, answers, _, _ = _oracle(source)
        for limit in (EAGER, LAZY):
            monkeypatch.setattr(conical, "LAZY_SEED_MIN_DIM", limit)
            for groups, want in zip(solves, answers):
                assert _same_answers(_locate_groups(groups), want)

    def test_lazy_seeds_evaluate_fewer_rows_at_n8(self, monkeypatch):
        solves = [groups for groups in _oracle("certify")[0] if groups[0][0].shape[-1] == 8]
        assert len(solves) == 20
        assert conical.LAZY_SEED_MIN_DIM <= 8
        lazy = sum(_eigh_rows(monkeypatch, solves))
        monkeypatch.setattr(conical, "LAZY_SEED_MIN_DIM", EAGER)
        eager = sum(_eigh_rows(monkeypatch, solves))
        # seeds keyed after a level's answer are mostly never solved
        assert lazy <= 0.6 * eager

    def test_below_the_threshold_the_schedule_is_eager(self, monkeypatch):
        solves = [
            groups
            for source in ("certify", "chain", "11")
            for groups in _oracle(source)[0]
            if groups[0][0].shape[-1] < conical.LAZY_SEED_MIN_DIM
        ]
        assert len(solves) >= 50
        default = _eigh_rows(monkeypatch, solves)
        monkeypatch.setattr(conical, "LAZY_SEED_MIN_DIM", EAGER)
        assert default == _eigh_rows(monkeypatch, solves)
        # and the lazy schedule would have run them differently
        monkeypatch.setattr(conical, "LAZY_SEED_MIN_DIM", LAZY)
        assert default != _eigh_rows(monkeypatch, solves)

    def test_at_most_half_the_reference_eigensolves(self, monkeypatch):
        solves, _, _, reference_calls = _oracle("certify")
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(len(a)) or eigh(a))
        for groups in solves:
            _locate_groups(groups)
        assert len(calls) <= reference_calls / 2

    def test_one_eigensolve_per_lockstep_iteration(self, monkeypatch):
        # each iteration solves its slots' Gauss-Newton steps (one stacked step
        # solve) and then evaluates every live slot's trial and every released
        # start in one eigh; the solve opens with one eigh of the first runs'
        # starts and closes on the pass that ends them
        events = []
        eigh, steps = np.linalg.eigh, conical._gauss_newton_steps
        monkeypatch.setattr(np.linalg, "eigh", lambda a: events.append("eigh") or eigh(a))
        monkeypatch.setattr(
            conical, "_gauss_newton_steps", lambda *a: events.append("step") or steps(*a)
        )
        for groups in _oracle("chain")[0][:4] + _oracle("certify")[0][:12]:
            events.clear()
            _locate_groups(groups)
            assert len(events) >= 4
            assert events == ["eigh", "step"] * (len(events) // 2)

    def test_one_row_per_run_and_iteration(self, monkeypatch):
        # a group of one seed without restarts is one run, and each iteration
        # evaluates its one trial: no stacked eigensolve carries a second row
        monkeypatch.setattr(conical, "RESTARTS", 0)
        solves = [
            [(stack, box, level, U[i : i + 1], tau)]
            for groups in _oracle("certify")[0][:30]
            for stack, box, level, U, tau in groups
            for i in range(len(U))
        ]
        rows = _eigh_rows(monkeypatch, solves)
        assert len(rows) >= 5 * len(solves)
        assert set(rows) == {1}

    def test_less_work_than_the_reference_on_a_second_seed_set(self, monkeypatch):
        # bench seed 60's first 90 families, each solved as certify_connectedness
        # solves it, against the reference's rows and iterations (stacked
        # eigensolves) per n; the bounds hold on a seed set the schedule was
        # not tuned on. Measured: rows 0.73, 0.91 and 0.41 of the reference's,
        # iterations 0.35, 0.38 and 0.42
        bounds = {3: (0.95, 0.45), 4: (0.95, 0.45), 8: (0.45, 0.5)}
        got, want = {n: [] for n in bounds}, {n: [] for n in bounds}
        for H in _bench_families(90, (3, 4, 8), seed=60):
            U = box_sequence(H.box, 8, 60)
            groups = [(H._stack, H.box, j, U, degeneracy_tol(H)) for j in range(1, H.dim)]
            reference = reference_locate(groups, eigh_rows=want[H.dim])
            got[H.dim] += _eigh_rows(monkeypatch, [groups])
            assert _same_answers(_locate_groups(groups), reference)
        for n, (rows, iterations) in bounds.items():
            assert sum(got[n]) <= rows * sum(want[n])
            assert len(got[n]) <= iterations * len(want[n])


class TestLocatorEnds:
    """Runs pinned to a box face, stalled at a positive gap minimum or sent
    outside the box twice end early.

    The reference solve runs face and stall runs on to their old ends, so
    ``TestLocatorOracle`` shows that ending them moves no point. The outside
    end moves points, so the reference has it too, and
    ``test_the_outside_end_only_moves_points`` bounds what it moves. The
    counts of the old ends were measured on the solve before the new ones
    existed.
    """

    @pytest.mark.parametrize("restarts, rows", [(0, 5), (2, 14)])
    def test_runs_pinned_to_a_box_face_end_there(self, monkeypatch, restarts, rows):
        # H(u) = (u1 - 1.5) sigma_x + u2 sigma_z on [-1, 1]^2 crosses only at
        # (1.5, 0), past the face u1 = 1. Every run slides to (1, 0), where each
        # clipped trial stays put; runs used to shrink their cap, one rejected
        # trial after another, down to roundoff, in 29 rows for one run and 86
        # for a seed's three
        H = make_family(-1.5 * SIGMA_X, [SIGMA_X, SIGMA_Z], [[-1, 1], [-1, 1]])
        groups = [(H._stack, H.box, 1, np.array([[0.0, 0.5]]), degeneracy_tol(H))]
        monkeypatch.setattr(conical, "RESTARTS", restarts)
        reasons, old = {}, {}
        assert _locate_groups(groups, reasons) == [None]
        assert reasons["face"] == restarts + 1 == sum(reasons.values())
        reference_locate(groups, old)
        assert old["cap"] == restarts + 1 == sum(old.values())
        assert _eigh_rows(monkeypatch, [groups]) == [1] * rows

    def test_a_crawl_ends_by_stall(self, monkeypatch):
        # a run of ensemble_genericity(3, 2, 50, 11) whose kept steps lower a
        # positive gap by less and less; it used to crawl on to MAX_ITERATIONS
        # in 55 lockstep iterations and 65 rows
        stack, box, level, U, tau = _oracle("11")[0][0][86]
        groups = [(stack, box, level, U[1:2], tau)]
        monkeypatch.setattr(conical, "RESTARTS", 0)
        reasons, old = {}, {}
        assert _locate_groups(groups, reasons) == [None]
        assert reasons["stall"] == 1 and sum(reasons.values()) == 1
        reference_locate(groups, old)
        assert old["iterations"] == 1 and sum(old.values()) == 1
        assert _eigh_rows(monkeypatch, [groups]) == [1] * 24

    def test_a_crawl_into_an_avoided_crossing_ends_outside(self, monkeypatch):
        # a run of ensemble_genericity(3, 2, 50, 33) whose full steps are 1.85
        # and 3.21 box diagonals long at its start and at the point it moves
        # to. Without the outside end it crawls on, its full steps 0.4 and
        # 3.2-4.2 diagonals by turns, until one is over FAR_STEP, in 52 rows
        stack, box, level, U, tau = _oracle("33")[0][0][60]
        groups = [(stack, box, level, U[4:5], tau)]
        monkeypatch.setattr(conical, "RESTARTS", 0)
        reasons, old, old_rows = {}, {}, []
        assert _locate_groups(groups, reasons) == [None]
        assert reasons["outside"] == 1 and sum(reasons.values()) == 1
        assert reference_locate(groups, old, old_rows, outside=False) == [None]
        assert old["far"] == 1 and sum(old.values()) == 1
        assert _eigh_rows(monkeypatch, [groups]) == [1, 1]
        assert sum(old_rows) == 52

    def test_one_step_out_of_the_box_does_not_end_a_run(self, monkeypatch):
        # a run of ensemble_genericity(3, 2, 50, 11) whose full step is 1.49
        # box diagonals long at its start and 0.34 at the point it moves to,
        # and which hits in 6 rows. Ending a run at one such step, as a far
        # end at one diagonal would, loses the hit
        stack, box, level, U, tau = _oracle("11")[0][0][12]
        groups = [(stack, box, level, U[:1], tau)]
        monkeypatch.setattr(conical, "RESTARTS", 0)
        reasons = {}
        (u,) = _locate_groups(groups, reasons)
        assert u is not None and reasons["hit"] == 1 and sum(reasons.values()) == 1
        assert _eigh_rows(monkeypatch, [groups]) == [1] * 6
        monkeypatch.setattr(conical, "FAR_STEP", conical.OUTSIDE_STEP)
        assert _locate_groups(groups) == [None]

    def test_the_outside_end_only_moves_points(self, planted_set):
        # against the reference without the end, over the whole equivalence
        # set: no group loses or gains a point, and each moved point is an
        # interior degeneracy of its level, as good an answer as the old one
        solves = [groups for source in SOURCES for groups in _oracle(source)[0]] + planted_set
        answers = [want for source in SOURCES for want in _oracle(source)[1]]
        answers += [reference_locate(groups) for groups in planted_set]
        located = moved = 0
        for groups, new in zip(solves, answers, strict=True):
            old = reference_locate(groups, outside=False)
            for (stack, box, level, _, tau), a, b in zip(groups, old, new, strict=True):
                assert (a is None) == (b is None)
                if a is None:
                    continue
                located += 1
                if not np.array_equal(a, b):
                    moved += 1
                    lam = np.linalg.eigvalsh(stack[0] + np.tensordot(b, stack[1:], 1))
                    assert lam[level] - lam[level - 1] <= tau
                    margin = INTERIOR_REL_MARGIN * (box[:, 1] - box[:, 0])
                    assert np.all((b > box[:, 0] + margin) & (b < box[:, 1] - margin))
        assert located >= 1000
        assert moved == 11

    @pytest.mark.parametrize(
        "source, rows, iterations", [("certify", 17550, 1262), ("11", 10558, 123)]
    )
    def test_less_work_than_before(self, monkeypatch, source, rows, iterations):
        # rows and iterations (stacked eigensolves) the solve took before the two ends
        got = _eigh_rows(monkeypatch, _oracle(source)[0])
        assert sum(got) <= 0.85 * rows
        assert len(got) <= 0.9 * iterations

    def test_every_early_end_fires_on_the_equivalence_set(self):
        reasons = {}
        for source in SOURCES:
            for groups in _oracle(source)[0]:
                _locate_groups(groups, reasons)
        assert set(reasons) == set(conical.END_REASONS)
        assert reasons["stall"] > 0 and reasons["face"] > 0 and reasons["outside"] > 0

    def test_counting_reasons_changes_no_work(self, monkeypatch):
        solves = _oracle("chain")[0]
        rows = _eigh_rows(monkeypatch, solves)
        counted = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: counted.append(len(a)) or eigh(a))
        for groups, want in zip(solves, _oracle("chain")[1]):
            assert _same_answers(_locate_groups(groups, {}), want)
        assert counted == rows


def _einsum_jacobian(pair, controls) -> np.ndarray:
    """J as the locator formed it before: B from one 3-operand einsum, and the Im
    row for a complex frame."""
    B = np.einsum("kia,klij,kjb->klab", pair.conj(), controls, pair)
    rows = [(B[..., 1, 1].real - B[..., 0, 0].real) / 2, B[..., 0, 1].real]
    if np.iscomplexobj(B):
        rows.append(B[..., 0, 1].imag)
    return np.stack(rows, axis=1)


def _pinv_steps(pair, controls, gap):
    """The step solve before the closed form: every J, with its Im row, by pinv."""
    return -(gap / 2)[:, None] * np.linalg.pinv(_einsum_jacobian(pair, controls))[:, :, 0]


def _in_old_arithmetic(monkeypatch, solve, items):
    """``solve(items)`` for groups or rows with their operator stacks cast to complex,
    and with pinv steps, as the locator and the conicality kernel ran every family before."""
    with monkeypatch.context() as patch:
        patch.setattr(conical, "_gauss_newton_steps", _pinv_steps)
        return solve([(stack.astype(complex), *rest) for stack, *rest in items])


def _jacobians(rng, k: int, n: int, real: bool, m: int) -> np.ndarray:
    """k Gauss-Newton Jacobians (k, 2 or 3, m) as the locator forms them: a random
    orthonormal pair frame, real or complex, and m random control operators of its
    field, in a random energy unit."""
    draw = random_symmetric if real else random_hermitian
    controls = np.stack([[draw(rng, n) for _ in range(m)] for _ in range(k)])
    frames = rng.standard_normal((k, n, 2))
    if not real:
        frames = frames + 1j * rng.standard_normal((k, n, 2))
    pair = np.linalg.qr(frames)[0]
    return _einsum_jacobian(pair, controls) * 10.0 ** rng.uniform(-6, 6)


def _hadamard_ratio_above(J: np.ndarray, limit: float) -> np.ndarray:
    """Per square J, whether |det J| > limit * prod ||row_i||."""
    return np.abs(np.linalg.det(J)) > limit * np.prod(np.linalg.norm(J, axis=2), axis=1)


def _exact_inverse_first_column(J: np.ndarray) -> np.ndarray:
    """First column of each square J's inverse, by Gauss-Jordan elimination in exact
    rational arithmetic on J's float entries, rounded once to float64."""
    cols = []
    for A in J.tolist():
        d = len(A)
        M = [[Fraction(x) for x in row] + [Fraction(int(i == 0))] for i, row in enumerate(A)]
        for c in range(d):
            p = next(r for r in range(c, d) if M[r][c])
            M[c], M[p] = M[p], M[c]
            for r in range(d):
                if r != c:
                    f = M[r][c] / M[c][c]
                    M[r] = [a - f * b for a, b in zip(M[r], M[c], strict=True)]
        cols.append([float(M[i][d] / M[i][i]) for i in range(d)])
    return np.array(cols)


def _gauged(H, seed: int):
    """H conjugated by a random diagonal unitary: the same spectra, on complex operators."""
    d = np.exp(1j * np.random.default_rng(seed).uniform(0, 2 * np.pi, H.dim))
    gauge = d[:, None] * d.conj()[None, :]
    return make_family(gauge * H.drift.matrix, [gauge * h.matrix for h in H.controlled], H.box)


class TestRealArithmetic:
    """Real families in real arithmetic with closed-form steps, against the arithmetic
    they replaced: complex stacks, and pinv for every step."""

    @pytest.mark.parametrize("source", ["certify", "chain", "planted"])
    def test_points_match_the_old_arithmetic(self, monkeypatch, request, source):
        if source == "planted":
            solves = request.getfixturevalue("planted_set")
        else:
            solves = _oracle(source)[0]
        located = 0
        for groups in solves:
            old = _in_old_arithmetic(monkeypatch, reference_locate, groups)
            for (_, box, *_), a, b in zip(groups, old, _locate_groups(groups), strict=True):
                assert (a is None) == (b is None)
                if a is not None:
                    located += 1
                    diagonal = np.linalg.norm(box[:, 1] - box[:, 0])
                    assert np.max(np.abs(a - b)) <= 1e-12 * diagonal
        assert located >= {"certify": 100, "chain": 24, "planted": 40}[source]

    def test_certificates_match_the_old_arithmetic(self, monkeypatch):
        certified = 0
        for n in (3, 4, 8):
            families = [H for H in _certify_random_families(30) if H.dim == n]
            points = [p for H in families for p in _located_points(H)]
            rows = [
                (H._stack, H.box, j, u, degeneracy_tol(H), H.energy_scale) for H, j, u in points
            ]
            old = _in_old_arithmetic(monkeypatch, _conicality_rows, rows)
            for a, b in zip(old, _conicality_rows(rows), strict=True):
                assert type(a) is type(b)
                assert a.conical == b.conical
                if a.conical:
                    certified += 1
                    assert a.certificate.others_simple == b.certificate.others_simple
                    assert b.certificate.c_hat == pytest.approx(a.certificate.c_hat, rel=1e-10)
        assert certified >= 80

    def test_real_frames_drop_the_imaginary_row(self):
        # the real step is the complex-typed step of the same frame and operators
        rng = np.random.default_rng(3)
        controls = np.stack([[random_symmetric(rng, 4) for _ in range(2)] for _ in range(20)])
        pair = np.linalg.qr(rng.standard_normal((20, 4, 2)))[0]
        gap = rng.uniform(0.1, 1.0, 20)
        real = conical._gauss_newton_steps(pair, controls, gap)
        old = _pinv_steps(pair.astype(complex), controls.astype(complex), gap)
        assert real.dtype == np.float64
        assert np.all(np.linalg.norm(real - old, axis=1) <= 1e-12 * np.linalg.norm(old, axis=1))


class TestStepSolve:
    """``conical._inverse_first_column``: the closed form where J is square and far
    from singular, ``pinv`` everywhere else."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), real=st.booleans(), n=st.integers(2, 6))
    @example(seed=42444376, real=True, n=3)  # pinv off by 5.7e-12 here, at cond(J) 1.7e4
    def test_closed_form_matches_pinv(self, seed, real, n):
        # real m = 2 gives a 2 x 2 J, complex m = 3 a 3 x 3 one
        J = _jacobians(np.random.default_rng(seed), 16, n, real, 2 if real else 3)
        J = J[_hadamard_ratio_above(J, 1e-3)]
        assume(len(J))
        got = conical._inverse_first_column(J)
        # the column pinv approximates, exactly: pinv's own rounding grows as
        # cond(J), which rows of unequal length raise far past 1 / (Hadamard ratio),
        # while the closed form's grows only as 1 / (Hadamard ratio)
        want = _exact_inverse_first_column(J)
        assert np.all(np.linalg.norm(got - want, axis=1) <= 1e-12 * np.linalg.norm(want, axis=1))

    @pytest.mark.parametrize("real", [True, False])
    def test_rows_near_singular_take_pinv_bitwise(self, real):
        J = _jacobians(np.random.default_rng(5), 12, 4, real, 2 if real else 3)
        J[1::3, 1] = 0.0  # a pair no control couples: rank deficient
        J[2::3, -1] = J[2::3, 0] * (1 + 1e-10)  # two rows all but parallel
        bad = ~_hadamard_ratio_above(J, conical.STEP_HADAMARD_MIN)
        assert bad.tolist() == [i % 3 != 0 for i in range(12)]
        got = conical._inverse_first_column(J)
        want = np.linalg.pinv(J)[:, :, 0]
        assert np.array_equal(got[bad], want[bad])
        assert np.allclose(got[~bad], want[~bad], rtol=1e-12, atol=0)

    @pytest.mark.parametrize("real, m", [(False, 2), (True, 3)])
    def test_non_square_jacobians_take_pinv_bitwise(self, real, m):
        J = _jacobians(np.random.default_rng(7), 9, 4, real, m)
        assert J.shape[1] != J.shape[2]
        assert np.array_equal(conical._inverse_first_column(J), np.linalg.pinv(J)[:, :, 0])


class TestMixedFieldCalls:
    """A call whose families mix real and complex operators runs every family in
    complex arithmetic, so a real family's answers there are its own to rounding."""

    @staticmethod
    def _families(three_level_chain):
        real = [H for H in _certify_random_families(12) if H.dim == 3] + [three_level_chain]
        rng = np.random.default_rng(0)
        complex_ = [_gauged(H, k) for k, H in enumerate(real)]
        drift, *controls = (random_hermitian(rng, 3) for _ in range(3))
        complex_.append(make_family(drift, controls, [[-3, 3]] * 2))
        return real, complex_

    @staticmethod
    def _assert_close(got, want, diameter):
        """Both None, or within 1e-12 box diagonals of each other."""
        assert (got is None) == (want is None)
        if got is not None:
            assert np.max(np.abs(got - want)) <= 1e-12 * diameter

    def test_each_group_matches_its_standalone_solve(self, three_level_chain):
        real, complex_ = self._families(three_level_chain)
        groups = []
        for k, H in enumerate([f for pair in zip(real, complex_) for f in pair] + complex_[-1:]):
            # a real family's stack as the package stores it, or cast to complex
            stack = H._stack.astype(complex) if k % 4 == 2 else H._stack
            U = box_sequence(H.box, 8, 0)
            groups += [(stack, H.box, j, U, degeneracy_tol(H)) for j in (1, 2)]
        solved = _locate_groups(groups)
        assert _same_answers(solved, reference_locate(groups))
        for g, u in zip(groups, solved, strict=True):
            (alone,) = _locate_groups([g])
            self._assert_close(u, alone, np.linalg.norm(g[1][:, 1] - g[1][:, 0]))
        assert sum(u is not None for u in solved[0::4]) >= 3

    def test_gauged_family_gives_its_real_familys_points(self, three_level_chain):
        # a gauged family is the real one in complex arithmetic: the same points
        real, complex_ = self._families(three_level_chain)
        located = 0
        for H, G in zip(real, complex_):
            U = box_sequence(H.box, 8, 0)
            a, b = (
                _locate_groups([(F._stack, F.box, j, U, degeneracy_tol(H)) for j in (1, 2)])
                for F in (H, G)
            )
            for u, v in zip(a, b, strict=True):
                self._assert_close(v, u, H.box_diameter())
                located += u is not None
        assert located >= 3

    def test_each_row_matches_its_standalone_test(self, three_level_chain):
        real, complex_ = self._families(three_level_chain)
        points = [p for H in real + complex_ for p in _located_points(H)]
        assert {H._stack.imag.any() for H, _, _ in points} == {False, True}
        rows = [(H._stack, H.box, j, u, degeneracy_tol(H), H.energy_scale) for H, j, u in points]
        certified = 0
        for row, got in zip(rows, _conicality_rows(rows), strict=True):
            (alone,) = _conicality_rows([row])
            assert type(got) is type(alone)
            if isinstance(alone, ConicalityResult):
                assert got.conical == alone.conical
                spread = np.max(np.abs(got.slopes - alone.slopes))
                assert spread <= 1e-10 * np.max(np.abs(alone.slopes))
                certified += alone.conical
        assert certified >= 10

    def test_complex_rows_match_the_reference(self, three_level_chain):
        _, complex_ = self._families(three_level_chain)
        points = [p for H in complex_ for p in _located_points(H)]
        assert points and all(H._stack.imag.any() for H, _, _ in points)
        _assert_rows_match_reference(points)


class TestFieldGuard:
    """The dtypes that reach ``eigh``/``eigvalsh`` inside the locator and the
    conicality kernel: float64 for real families, complex128 for complex ones."""

    KERNELS = ("_locate_groups", "_conicality_rows")

    @classmethod
    def _dtypes(cls, monkeypatch, run) -> dict:
        codes = {getattr(conical, name).__code__: name for name in cls.KERNELS}
        seen = {}
        for name in ("eigh", "eigvalsh"):
            solve = getattr(np.linalg, name)

            def recorded(a, *args, solve=solve, **kwargs):
                frame = sys._getframe(1)
                while frame is not None and frame.f_code not in codes:
                    frame = frame.f_back
                if frame is not None:
                    seen.setdefault(codes[frame.f_code], set()).add(np.asarray(a).dtype)
                return solve(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, recorded)
        run()
        return seen

    def test_real_family_sends_float64(self, monkeypatch):
        H = _certify_random_families(1)[0]
        report = None

        def run():
            nonlocal report
            report = certify_connectedness(H, 8)

        seen = self._dtypes(monkeypatch, run)
        assert report.certificates
        assert seen == {name: {np.dtype(np.float64)} for name in self.KERNELS}

    def test_real_ensemble_sends_float64(self, monkeypatch):
        seen = self._dtypes(monkeypatch, lambda: ensemble_genericity(3, 2, 5, 11))
        assert seen == {name: {np.dtype(np.float64)} for name in self.KERNELS}

    def test_mixed_call_sends_complex128(self, monkeypatch, three_level_chain):
        families = (three_level_chain, _gauged(three_level_chain, 0))
        outcomes = []

        def run():
            groups = [
                (F._stack, F.box, 1, box_sequence(F.box, 12, 0), degeneracy_tol(F))
                for F in families
            ]
            rows = [
                (F._stack, F.box, 1, u, degeneracy_tol(F), F.energy_scale)
                for F, u in zip(families, _locate_groups(groups), strict=True)
            ]
            outcomes.extend(_conicality_rows(rows))

        seen = self._dtypes(monkeypatch, run)
        assert [o.conical for o in outcomes] == [True, True]
        assert seen == {name: {np.dtype(np.complex128)} for name in self.KERNELS}

    def test_complex_family_sends_complex128(self, monkeypatch):
        H = planted_cone(np.array([0.3, -0.2, 0.1]), coupling=0.3)
        report = None

        def run():
            nonlocal report
            report = certify_connectedness(H, 8)

        seen = self._dtypes(monkeypatch, run)
        assert report.certificates
        assert seen == {name: {np.dtype(np.complex128)} for name in self.KERNELS}


class TestConicality:
    def test_symmetric_cone_certified(self, two_level_cone):
        result = test_conicality(two_level_cone, [0.0, 0.0], 1)
        assert result.conical
        cert = result.certificate
        assert cert.c_hat == pytest.approx(2.0, rel=0.05)
        assert cert.others_simple  # vacuous for n=2 but must not be False
        assert cert.residual_gap <= degeneracy_tol(two_level_cone)

    def test_flat_direction_rejected(self, flat_gap_family):
        result = test_conicality(flat_gap_family, [0.0, 0.0], 1)
        assert not result.conical
        assert "slope" in result.reason
        # the zero-slope direction (0, +-1) is among the sampled axis directions
        axis_mask = np.abs(result.directions[:, 0]) < 1e-12
        assert np.all(result.slopes[axis_mask] < 1e-8)

    def test_zero_slope_rejected(self, scalar_family):
        # c_min is 0 for a family whose spectral diameter is 0; a slope of 0 must not clear it
        result = test_conicality(scalar_family, [0.0, 0.0], 1)
        assert not result.conical
        assert "slope" in result.reason

    def test_quadratic_contact_rejected_by_residual(self, quadratic_contact_family):
        result = test_conicality(quadratic_contact_family, [0.0, 0.0], 1)
        assert not result.conical
        assert "residual" in result.reason or "not linear" in result.reason
        assert np.max(result.fit_residuals) > 0.1

    # the fit's norms squared the gaps: below about 1e-160 they underflowed
    # to a residual of 0, and above about 1e154 they overflowed to nan, and
    # either way the contact read as conical
    @pytest.mark.parametrize("scale", [1e-160, 1e-200, 1e-300, 1e160, 1e200])
    def test_quadratic_contact_rejected_in_any_energy_unit(self, quadratic_contact_family, scale):
        base = test_conicality(quadratic_contact_family, [0.0, 0.0], 1)
        result = test_conicality(scaled(quadratic_contact_family, scale), [0.0, 0.0], 1)
        assert not result.conical
        assert result.reason.endswith("contact is not linear")
        assert np.max(result.fit_residuals) == pytest.approx(0.265, abs=1e-3)
        assert np.max(result.fit_residuals) == pytest.approx(np.max(base.fit_residuals), rel=1e-8)

    def test_nondegenerate_point_rejected(self, two_level_cone):
        with pytest.raises(PreconditionError):
            test_conicality(two_level_cone, [0.3, 0.0], 1)

    def test_margin_precondition(self, two_level_cone):
        # a probe ball of radius t0 must fit inside the box around u_star
        with pytest.raises(PreconditionError):
            test_conicality(two_level_cone, [0.0, 0.0], 1, t0=1.5)

    @pytest.mark.parametrize("t0", [0.0, -0.1, np.nan, np.inf, -np.inf, "1e-8", [1e-8], True])
    def test_probe_radius_must_be_finite_and_positive(self, flat_gap_family, t0):
        # at t0 = 0 every probe sits at u_star, and each slope is 0/0; "1e-8" and
        # [1e-8] were read as numbers, and True probed at radius 1.0
        with pytest.raises(PreconditionError, match="t0 must be finite and positive"):
            test_conicality(flat_gap_family, [0.0, 0.0], 1, t0=t0)

    def test_underflowing_default_radius_rejected(self):
        # the box diagonal, and so the default radius, underflows to 0
        H = make_family(np.zeros((2, 2)), [SIGMA_X, SIGMA_Z], [[-1e-300, 1e-300]] * 2)
        assert H.box_diameter() == 0.0
        with pytest.raises(PreconditionError, match="interior to the box with margin 0 "):
            test_conicality(H, [0.0, 0.0], 1)

    @pytest.mark.parametrize("tau", HOSTILE_TOLERANCES)
    def test_hostile_threshold_rejected(self, two_level_cone, tau):
        with pytest.raises(PreconditionError, match="tau_deg must be finite and positive"):
            test_conicality(two_level_cone, [0.0, 0.0], 1, tau_deg=tau)

    @pytest.mark.parametrize("value", HOSTILE_TOLERANCES)
    @pytest.mark.parametrize("name", ["c_min", "residual_max"])
    def test_hostile_verdict_threshold_rejected(
        self, flat_gap_family, quadratic_contact_family, name, value
    ):
        # a nan residual_max passed every fit and a negative c_min every slope, so
        # each certified the family here that its own test rejects
        H = {"c_min": flat_gap_family, "residual_max": quadratic_contact_family}[name]
        assert not test_conicality(H, [0.0, 0.0], 1).conical
        with pytest.raises(PreconditionError, match=f"{name} must be finite and positive"):
            test_conicality(H, [0.0, 0.0], 1, **{name: value})

    def test_none_residual_max_rejected(self, two_level_cone):
        # its default is a number, and None raised a bare TypeError at the fit
        with pytest.raises(PreconditionError, match="residual_max must be finite and positive"):
            test_conicality(two_level_cone, [0.0, 0.0], 1, residual_max=None)

    @pytest.mark.parametrize(
        "name, value",
        [("n_directions", -3), ("n_directions", 2.5), ("n_directions", True), ("rng_seed", -1),
         ("rng_seed", 0.5), ("level", 1.5)],
    )
    def test_integer_arguments_must_be_integers(self, two_level_cone, name, value):
        # n_directions -3 raised a bare ValueError and 2.5 a TypeError
        options = {"level": 1, "n_directions": 4, "rng_seed": 0, name: value}
        with pytest.raises(PreconditionError, match=f"{name} must be an integer"):
            test_conicality(two_level_cone, [0.0, 0.0], **options)

    def test_no_sampled_directions_leaves_the_axes(self, two_level_cone):
        result = test_conicality(two_level_cone, [0.0, 0.0], 1, n_directions=0)
        assert result.conical
        assert len(result.directions) == 4

    def test_certificate_json_schema(self, two_level_cone):
        result = test_conicality(two_level_cone, [0.0, 0.0], 1)
        doc = result.certificate.to_json_dict()
        assert set(doc) == {"level", "u_star", "c_hat", "slopes", "others_simple", "t0", "K"}

    def test_c_hat_invariants(self, two_level_cone):
        result = test_conicality(two_level_cone, [0.0, 0.0], 1)
        cert = result.certificate
        assert cert.c_hat > 0
        assert cert.c_hat <= np.min(cert.direction_slopes) + 1e-15

    @pytest.mark.parametrize("family", ["chain", "random"])
    def test_probes_match_a_per_probe_loop(self, three_level_chain, family):
        if family == "chain":
            H, level = three_level_chain, 1
        else:
            H, level = _drawn_family(1, 4, 2), 2
        u_star = locate_intersection(H, level, box_sequence(H.box, 8, seed=0))
        result = test_conicality(H, u_star, level)
        radii = 1e-3 * H.box_diameter() * np.array([1.0, 0.5, 0.25])
        for v, slope, residual in zip(result.directions, result.slopes, result.fit_residuals):
            lam = [np.linalg.eigvalsh(H.matrix_at(u_star + t * v)) for t in radii]
            g = np.array([x[level] - x[level - 1] for x in lam])
            s = float(radii @ g / (radii @ radii))
            fit = np.linalg.norm(g - s * radii) / np.linalg.norm(g)
            assert slope == pytest.approx(s, abs=1e-12)
            assert residual == pytest.approx(fit, abs=1e-12)

    def test_c_hat_converges_with_radius(self, two_level_cone):
        errs = []
        for t0 in (1e-2, 1e-3, 1e-4):
            result = test_conicality(two_level_cone, [0.0, 0.0], 1, t0=t0)
            assert result.conical
            errs.append(abs(result.certificate.c_hat - 2.0))
        assert all(e <= 0.05 * 2.0 for e in errs)
        assert errs[1] <= errs[0] + 1e-9
        assert errs[2] <= errs[1] + 1e-9


def _bench_families(count: int, sizes, seed: int = 0) -> list:
    """Families drawn as the benchmark draws them: unit-norm real symmetric
    operators, m = 2, box [-3, 3]^2, n cycling through ``sizes``, one child of
    ``SeedSequence(seed)`` per family."""
    families = []
    for k, child in enumerate(np.random.SeedSequence(seed).spawn(count)):
        rng = np.random.default_rng(child)
        ops = [HermitianOperator(random_symmetric(rng, sizes[k % len(sizes)])) for _ in range(3)]
        families.append(
            ControlHamiltonian(drift=ops[0], controlled=tuple(ops[1:]), box=[[-3.0, 3.0]] * 2)
        )
    return families


def _certify_random_families(count: int) -> list:
    """The certify_random benchmark's first families of seed 0 (n cycling 3, 4, 8)."""
    return _bench_families(count, (3, 4, 8))


def _located_points(H, seeds: int = 8) -> list:
    """(H, level, point) for every level the locator finds from ``certify``'s default seeds."""
    tau = degeneracy_tol(H)
    U = box_sequence(H.box, seeds, 0)
    located = _locate_groups([(H._stack, H.box, j, U, tau) for j in range(1, H.dim)])
    return [(H, j, u) for j, u in enumerate(located, start=1) if u is not None]


def _assert_matches_reference(got, H, u, level, **kwargs):
    """``got`` is bitwise the reference test's result at (H, u, level), or its error."""
    try:
        want = reference_conicality(H, u, level, **kwargs)
    except SpeccertError as exc:
        assert type(got) is type(exc)
        assert str(got) == str(exc)
        return
    assert isinstance(got, ConicalityResult)
    assert (got.conical, got.reason) == (want.conical, want.reason)
    for field in ("slopes", "fit_residuals", "directions"):
        assert np.array_equal(getattr(got, field), getattr(want, field))
    if want.certificate is None:
        assert got.certificate is None
        return
    a, b = got.certificate, want.certificate
    assert np.array_equal(a.u_star, b.u_star)
    assert np.array_equal(a.direction_slopes, b.direction_slopes)
    for field in ("level", "c_hat", "residual_gap", "others_simple", "t0", "n_directions"):
        assert getattr(a, field) == getattr(b, field)
    assert a.to_json_dict() == b.to_json_dict()


def _assert_rows_match_reference(points, **kwargs):
    """One kernel call over ``points`` (H, level, u), and ``test_conicality`` per point,
    both bitwise the reference test per point."""
    rows = [(H._stack, H.box, j, u, degeneracy_tol(H), H.energy_scale) for H, j, u in points]
    for (H, j, u), got in zip(points, _conicality_rows(rows, **kwargs)):
        _assert_matches_reference(got, H, u, j, **kwargs)
        try:
            alone = test_conicality(H, u, j, **kwargs)
        except SpeccertError as exc:
            alone = exc
        _assert_matches_reference(alone, H, u, j, **kwargs)


class TestConicalityKernel:
    @pytest.mark.parametrize("n", [3, 4, 8])
    def test_certify_random_points_match_the_reference(self, n, three_level_chain):
        families = [H for H in _certify_random_families(60) if H.dim == n]
        if n == 3:
            families.append(three_level_chain)
        points = [p for H in families for p in _located_points(H)]
        assert len(points) >= 20
        _assert_rows_match_reference(points)

    def test_chain_points_match_the_reference(self, three_level_chain):
        points = _located_points(three_level_chain, seeds=12)
        assert [j for _, j, _ in points] == [1, 2]
        _assert_rows_match_reference(points)
        _assert_rows_match_reference(points, t0=1e-2, c_min=0.5, rng_seed=3, n_directions=5)

    def test_mixed_batch_keeps_each_rows_outcome(self, three_level_chain):
        # rows that each fail differently, between rows that certify
        edge = make_family(
            np.diag([0.0, 0.0, 3.0]),
            [np.diag([1.0, -1.0, 0.0]), [[0, 1, 0], [1, 0, 0], [0, 0, 0]]],
            [[-1, 1], [0, 1]],
        )
        triple = make_family(np.zeros((3, 3)), [np.eye(3), np.diag([0.0, 0.0, 1.0])], [[-1, 1]] * 2)
        # a cone whose smallest slope, 2e-3, clears the default c_min only by a factor 3e3
        shallow = make_family(
            np.diag([0.0, 0.0, 3.0]),
            [np.diag([1.0, -1.0, 0.0]), [[0, 1e-3, 0], [1e-3, 0, 0], [0, 0, 0]]],
            [[-1, 1]] * 2,
        )
        chain = _located_points(three_level_chain, seeds=12)
        random = _located_points(_certify_random_families(1)[0])
        near = chain[0][2] + [3e-7, 0.0]  # a few degeneracy thresholds off the cone
        points = [
            chain[0],
            (three_level_chain, 1, np.array([0.3, 0.3])),  # not degenerate
            random[0],
            (edge, 1, np.array([0.0, 0.0])),  # degenerate on the box edge
            chain[1],
            (triple, 1, np.array([0.5, 0.0])),  # all three levels meet
            (shallow, 1, np.array([0.0, 0.0])),
            (three_level_chain, 1, near),  # just not degenerate
            *random[1:],
        ]
        rows = [(H._stack, H.box, j, u, degeneracy_tol(H), H.energy_scale) for H, j, u in points]
        outcomes = _conicality_rows(rows)
        assert "not degenerate" in str(outcomes[1])
        assert "interior to the box" in str(outcomes[3])
        assert "multiplicity" in outcomes[5].reason
        assert outcomes[6].certificate.c_hat == pytest.approx(2e-3, rel=1e-3)
        assert "not degenerate" in str(outcomes[7])
        gap = decompose(three_level_chain, near).gap(1)
        assert degeneracy_tol(three_level_chain) < gap < 100 * degeneracy_tol(three_level_chain)
        assert [o.conical for o in outcomes[:1] + outcomes[2:3] + outcomes[4:5]] == [True] * 3
        _assert_rows_match_reference(points)

    def test_probe_blocks_do_not_change_the_outcome(self, monkeypatch, three_level_chain):
        points = [p for H in _certify_random_families(9) for p in _located_points(H) if H.dim == 3]
        points += _located_points(three_level_chain, seeds=12)
        rows = [(H._stack, H.box, j, u, degeneracy_tol(H), H.energy_scale) for H, j, u in points]
        whole = _conicality_rows(rows)
        # one point per block, then three (36 directions, 3 radii, n = 3)
        for entries in (1, 3 * (3 * 36 * 9)):
            monkeypatch.setattr(spectrum, "BLOCK_ENTRIES", entries)
            for a, b in zip(whole, _conicality_rows(rows), strict=True):
                assert np.array_equal(a.slopes, b.slopes)
                assert np.array_equal(a.fit_residuals, b.fit_residuals)
                assert a.reason == b.reason

    def test_no_rows_no_outcomes(self):
        assert _conicality_rows([]) == []


class TestCertifyConnectedness:
    def test_two_level_certified_at_origin(self, two_level_cone):
        report = certify_connectedness(two_level_cone, 6, rng_seed=3)
        assert report.certified
        assert set(report.certificates) == {1}
        assert np.linalg.norm(report.certificates[1].u_star) < 1e-6

    def test_hint_of_wrong_length_rejected(self, two_level_cone):
        # the hint and the box seeds together are ragged
        with pytest.raises(PreconditionError):
            certify_connectedness(two_level_cone, 4, hints=[[0.1, 0.2, 0.3]])

    @pytest.mark.parametrize("budget", [2.5, np.nan, True, 0, -1, "4"])
    def test_seed_budget_must_be_a_positive_integer(self, two_level_cone, budget):
        # 2.5, nan and True raised a bare TypeError
        with pytest.raises(PreconditionError, match="seed_budget must be an integer >= 1"):
            certify_connectedness(two_level_cone, budget)

    @pytest.mark.parametrize("seed", [-1, 2.5, False])
    def test_rng_seed_must_be_a_non_negative_integer(self, two_level_cone, seed):
        with pytest.raises(PreconditionError, match="rng_seed must be an integer >= 0"):
            certify_connectedness(two_level_cone, 4, rng_seed=seed)

    def test_numpy_integer_arguments_accepted(self, two_level_cone):
        report = certify_connectedness(two_level_cone, np.int32(6), rng_seed=np.uint8(3))
        assert report.to_json_dict() == certify_connectedness(two_level_cone, 6, 3).to_json_dict()

    @pytest.mark.parametrize("tau", HOSTILE_TOLERANCES)
    def test_hostile_threshold_rejected(self, three_level_chain, tau):
        # nan or -1 reported "no interior intersection located" for every level
        with pytest.raises(PreconditionError, match="tau_deg must be finite and positive"):
            certify_connectedness(three_level_chain, 8, tau_deg=tau)

    def test_diag_family_incomplete(self, diag_family):
        report = certify_connectedness(diag_family, 6, rng_seed=3)
        assert report.status == "incomplete"
        assert not report.certificates
        assert set(report.failures) == {1, 2}

    def test_gapped_two_level_incomplete(self):
        # spectrum of sigma_z + small controls never closes its gap in the box
        H = make_family(SIGMA_Z, [0.1 * SIGMA_X, 0.1 * SIGMA_X], [[-1, 1], [-1, 1]])
        report = certify_connectedness(H, 6, rng_seed=3)
        assert report.status == "incomplete"

    def test_zero_probe_radius_rejected(self):
        # a zero radius returned an incomplete report, while tau_deg = 0 raised
        H = make_family(np.zeros((2, 2)), [SIGMA_Z, SIGMA_X], [[-1, 1], [-1, 1]])
        with pytest.raises(PreconditionError, match="t0 must be finite and positive, got 0.0"):
            certify_connectedness(H, 4, t0=0.0)

    @pytest.mark.parametrize("t0", [*HOSTILE_TOLERANCES, True])
    def test_hostile_probe_radius_rejected_before_any_search(self, monkeypatch, two_level_cone, t0):
        # it was judged per located point, after the whole search: True left the
        # cone incomplete, and "1e-8" and [1e-8] were read as numbers
        solves = []
        locate = conical._locate_groups
        monkeypatch.setattr(
            conical, "_locate_groups", lambda groups: solves.append(1) or locate(groups)
        )
        with pytest.raises(PreconditionError, match="t0 must be finite and positive"):
            certify_connectedness(two_level_cone, 4, t0=t0)
        assert solves == []
        assert certify_connectedness(two_level_cone, 4, t0=1e-2).certified
        assert solves == [1]

    def test_other_levels_not_simple_leave_the_report_incomplete(self):
        # two identical cones at the origin, one per 2x2 block: levels 1 and 3
        # cross there together, so each certificate has another level degenerate
        # beside it, and levels 2 and 3 (one per block) never meet inside the box
        sz, sx = (np.kron(np.eye(2), s.real) for s in (SIGMA_Z, SIGMA_X))
        H = make_family(np.diag([0.0, 0.0, 5.0, 5.0]), [sz, sx], [[-1, 1], [-1, 1]])
        report = certify_connectedness(H, 8)
        assert report.status == "incomplete"
        assert set(report.certificates) == {1, 3}
        assert not any(cert.others_simple for cert in report.certificates.values())
        not_simple = "other levels are not simple at the located intersection"
        assert report.failures == {
            1: not_simple,
            2: "no interior intersection located",
            3: not_simple,
        }

    def test_located_point_failing_the_probe_margin_is_a_failure(self, two_level_cone):
        # the cone at the origin is found, but a probe radius of 1.5 leaves the box
        report = certify_connectedness(two_level_cone, 8, t0=1.5)
        assert report.status == "incomplete" and not report.certificates
        assert report.failures[1].startswith(
            "located point failed conicality preconditions: u_star must be interior"
        )

    def test_three_level_chain_certified(self, three_level_chain):
        report = certify_connectedness(three_level_chain, 12, rng_seed=5)
        assert report.certified
        assert set(report.certificates) == {1, 2}
        for cert in report.certificates.values():
            assert cert.others_simple

    @pytest.mark.parametrize("hints", [5, [[0.1, "x"]], [0.1, 0.2], [[0.1, 0.2], None], "ab"])
    def test_malformed_hints_rejected_before_any_search(self, monkeypatch, two_level_cone, hints):
        # 5 raised a bare TypeError and [[0.1, "x"]] a bare ValueError
        solves = []
        locate = conical._locate_groups
        monkeypatch.setattr(
            conical, "_locate_groups", lambda groups: solves.append(1) or locate(groups)
        )
        with pytest.raises(PreconditionError, match="seeds must be control points of length 2"):
            certify_connectedness(two_level_cone, 4, hints=hints)
        assert solves == []

    def test_hint_outside_the_box_rejected(self, two_level_cone):
        with pytest.raises(PreconditionError, match="lies outside the control box"):
            certify_connectedness(two_level_cone, 4, hints=[[2.0, 0.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_hint_lies_outside_the_box(self, two_level_cone, bad):
        with pytest.raises(PreconditionError, match="lies outside the control box"):
            certify_connectedness(two_level_cone, 4, hints=[[bad, 0.0]])

    def test_hints_from_a_generator(self, double_cone_family):
        # a generator ran the whole search, then raised a TypeError from len(hints)
        H = double_cone_family
        hints = [[0.9, 0.1], [0.1, 0.1]]
        listed = certify_connectedness(H, 8, rng_seed=0, hints=hints)
        generated = certify_connectedness(H, 8, rng_seed=0, hints=(h for h in hints))
        assert generated.to_json_dict() == listed.to_json_dict()
        assert generated.metadata["n_hints"] == 2

    @pytest.mark.parametrize("hints, count", [(None, 0), ([], 0), (np.array([[0.9, 0.1]]), 1)])
    def test_n_hints_counts_the_checked_hints(self, double_cone_family, hints, count):
        report = certify_connectedness(double_cone_family, 8, rng_seed=0, hints=hints)
        assert report.metadata["n_hints"] == count

    def test_hint_that_hits_comes_before_box_seeds(self, double_cone_family):
        H = double_cone_family
        plain = certify_connectedness(H, 8, rng_seed=0)
        hinted = certify_connectedness(H, 8, rng_seed=0, hints=[[0.9, 0.1]])
        assert np.linalg.norm(plain.certificates[2].u_star) < 1e-6
        assert np.linalg.norm(hinted.certificates[2].u_star - [1.0, 0.0]) < 1e-6

    def test_scalar_family_incomplete(self, scalar_family):
        report = certify_connectedness(scalar_family, 4, rng_seed=0)
        assert report.status == "incomplete"
        assert not report.certificates
        assert "slope" in report.failures[1]

    def test_budget_monotonicity(self, two_level_cone):
        small = certify_connectedness(two_level_cone, 4, rng_seed=9)
        large = certify_connectedness(two_level_cone, 12, rng_seed=9)
        assert small.certified
        assert large.certified

    def test_certificates_recheckable_from_decompose(self, three_level_chain):
        report = certify_connectedness(three_level_chain, 12, rng_seed=5)
        tau = degeneracy_tol(three_level_chain)
        for j, cert in report.certificates.items():
            sp = decompose(three_level_chain, cert.u_star)
            assert sp.gap(j) <= tau
            other_gaps = [sp.gap(l) for l in range(1, 3) if l != j]
            assert min(other_gaps) >= 10 * tau

    def test_metadata_records_limitation(self, two_level_cone):
        report = certify_connectedness(two_level_cone, 4, rng_seed=0)
        assert "located points" in report.metadata["caveat"]
        assert report.metadata["seed_budget"] == 4
