import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

from speccert import (
    PreconditionError,
    certify_connectedness,
    decompose,
    degeneracy_tol,
    locate_intersection,
    test_conicality,
)
from speccert.certify import _perturbed, _random_family
from speccert import ControlHamiltonian, HermitianOperator, conical
from speccert.conical import INTERIOR_REL_MARGIN, _locate_groups
from speccert.sampling import box_sequence, random_hermitian, random_symmetric
from conftest import SIGMA_X, SIGMA_Y, SIGMA_Z, make_family


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
        (other, j, box_sequence(other.box, 5, j), degeneracy_tol(other)) for j in range(1, H.dim)
    ]
    group = (H, level, np.array(seeds, dtype=float), degeneracy_tol(H))
    return _locate_groups(company[:1] + [group] + company[1:])[1]


def _is_interior(H, u) -> bool:
    margin = INTERIOR_REL_MARGIN * (H.box[:, 1] - H.box[:, 0])
    return bool(np.all(u > H.box[:, 0] + margin) and np.all(u < H.box[:, 1] - margin))


@pytest.fixture
def quadratic_contact_family():
    """Levels 1,2 degenerate at the origin, split only at second order.

    Both controls couple the degenerate pair exclusively through the third
    level (2 energy units away), so the gap opens as t^2/2 along every
    direction: second-order perturbation theory gives the effective pair
    Hamiltonian -(t^2/2)[[v1^2, v1 v2], [v1 v2, v2^2]] whose eigenvalue
    spread is (t^2/2)(v1^2+v2^2).
    """
    h1 = np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]], dtype=float)
    h2 = np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=float)
    return make_family(np.diag([0.0, 0.0, 2.0]), [h1, h2], [[-1, 1], [-1, 1]])


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

    def test_bad_level_rejected(self, two_level_cone):
        with pytest.raises(PreconditionError):
            locate_intersection(two_level_cone, 2, [[0.1, 0.1]])


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
    def test_each_group_matches_its_standalone_solve(self, seed, n, m, shape):
        # shape lists (family, level, seed count) per group; real families for m = 2,
        # complex ones for m = 3
        families = [_drawn_family(seed + f, n, m) for f in range(3)]
        groups = []
        for f, level, count in shape:
            H = families[f]
            seeds = box_sequence(H.box, count, seed + len(groups))
            groups.append((H, 1 + (level - 1) % (n - 1), seeds, degeneracy_tol(H)))
        for (H, level, seeds, tau), u in zip(groups, _locate_groups(groups)):
            alone = locate_intersection(H, level, seeds, tau_deg=tau)
            assert (u is None and alone is None) or np.array_equal(u, alone)

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
                groups += [(H, j, seeds, degeneracy_tol(H)) for j in (1, 2)]
            located[draw] = sum(u is not None for u in _locate_groups(groups))
        assert located[random_hermitian] == 0
        assert located[random_symmetric] >= 60


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

    def test_nondegenerate_point_rejected(self, two_level_cone):
        with pytest.raises(PreconditionError):
            test_conicality(two_level_cone, [0.3, 0.0], 1)

    def test_margin_precondition(self, two_level_cone):
        # a probe ball of radius t0 must fit inside the box around u_star
        with pytest.raises(PreconditionError):
            test_conicality(two_level_cone, [0.0, 0.0], 1, t0=1.5)

    @pytest.mark.parametrize("t0", [0.0, -0.1, np.nan, np.inf])
    def test_probe_radius_must_be_finite_and_positive(self, flat_gap_family, t0):
        # at t0 = 0 every probe sits at u_star, and each slope is 0/0
        with pytest.raises(PreconditionError, match="finite and positive"):
            test_conicality(flat_gap_family, [0.0, 0.0], 1, t0=t0)

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

    def test_zero_probe_radius_incomplete(self):
        H = make_family(np.zeros((2, 2)), [SIGMA_Z, SIGMA_X], [[-1, 1], [-1, 1]])
        report = certify_connectedness(H, 4, t0=0.0)
        assert report.status == "incomplete"
        assert not report.certificates
        assert "finite and positive" in report.failures[1]

    def test_three_level_chain_certified(self, three_level_chain):
        report = certify_connectedness(three_level_chain, 12, rng_seed=5)
        assert report.certified
        assert set(report.certificates) == {1, 2}
        for cert in report.certificates.values():
            assert cert.others_simple

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
