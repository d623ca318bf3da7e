import numpy as np
import pytest
from scipy.linalg import expm

from speccert import (
    BudgetError,
    ConnectednessReport,
    ControlPath,
    GeometryError,
    PreconditionError,
    StructuralError,
    branch_populations,
    certify_connectedness,
    climb,
    decompose,
    decompose_many,
    load_path,
    plan_passage,
    propagate,
    test_conicality,
)
from speccert.adiabatic import DEFAULT_STEP_LIMIT, STEP_CHUNK_ELEMS, _route, _segment_clearance
from speccert.spectrum import degeneracy_tol
from branch_reference import reference_labels
from conftest import SIGMA_X, SIGMA_Z, make_family, random_family


def hold(u, T, epsilon=1.0):
    return ControlPath(waypoints=(np.asarray(u, dtype=float),), durations=np.array([T]), epsilon=epsilon)


def line(a, b, T, epsilon=1.0):
    return ControlPath(
        waypoints=(np.asarray(a, dtype=float), np.asarray(b, dtype=float)),
        durations=np.array([T]),
        epsilon=epsilon,
    )


class TestControlPath:
    def test_positive_durations_required(self):
        with pytest.raises(StructuralError):
            line([0, 0], [1, 0], -1.0)

    def test_duration_count_must_match(self):
        with pytest.raises(StructuralError):
            ControlPath(
                waypoints=(np.zeros(2), np.ones(2)),
                durations=np.array([1.0, 1.0]),
                epsilon=1.0,
            )

    def test_json_roundtrip(self, tmp_path):
        path = line([0.1, 0.2], [0.3, -0.4], 2.5, epsilon=0.01)
        target = tmp_path / "path.json"
        path.save(target)
        loaded = load_path(target)
        assert np.array_equal(loaded.waypoints[1], path.waypoints[1])
        assert loaded.epsilon == path.epsilon
        assert loaded.total_time == pytest.approx(path.total_time)


class TestPropagate:
    def test_constant_sigma_z_closed_form(self):
        H = make_family(SIGMA_Z, [np.zeros((2, 2)), np.zeros((2, 2))], [[-1, 1], [-1, 1]])
        T = 1.7
        traj = propagate(H, hold([0.0, 0.0], T), np.array([1.0, 0.0]))
        # i psi' = sigma_z psi with psi0 = e1 gives psi(t) = (exp(-it), 0)
        assert abs(traj.final_state[0] - np.exp(-1j * T)) < 1e-9
        assert abs(traj.final_state[1]) < 1e-12

    def test_unitarity(self, two_level_cone):
        path = line([0.9, 0.1], [-0.2, 0.8], 50.0)
        traj = propagate(two_level_cone, path, np.array([1.0, 0.0]))
        assert np.max(traj.norm_defect) <= 1e-9

    def test_populations_sum_to_one(self, three_level_chain):
        path = line([-0.3, 0.4], [1.0, -0.4], 30.0)
        psi0 = decompose(three_level_chain, [-0.3, 0.4]).frame[:, 0]
        traj = propagate(three_level_chain, path, psi0)
        assert np.max(np.abs(np.sum(traj.populations, axis=1) - 1.0)) <= 1e-8

    def test_constant_control_matches_dense_exponential(self, two_level_cone):
        u = [0.4, -0.3]
        T = 8.0
        psi0 = np.array([0.6, 0.8], dtype=complex)
        traj = propagate(two_level_cone, hold(u, T), psi0)
        oracle = expm(-1j * T * two_level_cone.matrix_at(u)) @ psi0
        assert np.linalg.norm(traj.final_state - oracle) < 1e-8

    @staticmethod
    def observed_order(H):
        # time-dependent H with noncommuting endpoints exposes the step error
        path = line([1.0, 0.0], [0.0, 1.0], 20.0)
        psi0 = np.array([1.0, 0.0], dtype=complex)
        finals = [propagate(H, path, psi0, step_limit=s).final_state for s in (0.2, 0.1, 0.05)]
        e1 = np.linalg.norm(finals[0] - finals[1])
        e2 = np.linalg.norm(finals[1] - finals[2])
        return np.log2(e1 / e2)

    def test_second_order_convergence(self, two_level_cone):
        assert self.observed_order(two_level_cone) >= 1.9

    def test_fourth_order_convergence(self, two_level_cone):
        # the Magnus step's commutator term makes the error O(h^4)
        assert self.observed_order(two_level_cone) >= 3.8

    def test_non_unit_state_rejected(self, two_level_cone):
        with pytest.raises(PreconditionError):
            propagate(two_level_cone, hold([0.1, 0.1], 1.0), np.array([1.0, 1.0]))

    def test_waypoint_outside_box_rejected(self, two_level_cone):
        with pytest.raises(GeometryError):
            propagate(two_level_cone, hold([3.0, 0.0], 1.0), np.array([1.0, 0.0]))

    @pytest.mark.parametrize("waypoint", [[0.1, 0.2, 0.3], [0.1]])
    def test_waypoint_length_must_match_family(self, two_level_cone, waypoint):
        with pytest.raises(StructuralError, match="m = 2"):
            propagate(two_level_cone, hold(waypoint, 1.0), np.array([1.0, 0.0]))

    def test_state_length_must_match_family(self, two_level_cone):
        with pytest.raises(StructuralError, match="n = 2"):
            propagate(two_level_cone, hold([0.1, 0.2], 1.0), np.array([1.0, 0, 0]))

    @pytest.mark.parametrize(
        "options",
        [
            {"step_limit": 0.0},
            {"step_limit": -1.0},
            {"step_limit": float("nan")},
            {"step_limit": float("inf")},
            {"max_records": 0},
            {"max_records": -3},
            {"max_records": 2.5},
        ],
    )
    def test_step_and_record_options_rejected(self, two_level_cone, options):
        with pytest.raises(PreconditionError):
            propagate(two_level_cone, hold([0.1, 0.1], 1.0), np.array([1.0, 0.0]), **options)

    def test_step_budget_error(self, two_level_cone):
        with pytest.raises(BudgetError):
            propagate(two_level_cone, hold([1.0, 0.0], 2e8), np.array([1.0, 0.0]))

    def test_csv_export(self, tmp_path, two_level_cone):
        traj = propagate(two_level_cone, hold([0.5, 0.0], 2.0), np.array([1.0, 0.0]))
        target = tmp_path / "traj.csv"
        traj.save_csv(target)
        lines = target.read_text().strip().splitlines()
        assert lines[0] == "t,u_1,u_2,pop_1,pop_2,norm_defect"
        defects = [float(row.split(",")[-1]) for row in lines[1:]]
        assert max(defects) <= 1e-9


def reference_states(H, path, psi0, step_limit=0.1):
    """Every step's state from one expm of the fourth-order Magnus exponent per
    step, K = H(u_mid) - i (h^2/12) [D, H(u_mid)] with D = dH/dt, one step at a time."""
    psi = np.asarray(psi0, dtype=complex)
    states = []
    for a, b, dur in path.segments():
        nsteps = max(1, int(np.ceil(dur * max(H.norm_bound(a), H.norm_bound(b)) / step_limit)))
        h = dur / nsteps
        rate = (H.matrix_at(b) - H.matrix_at(a)) / dur
        for i in range(nsteps):
            mid = H.matrix_at(a + ((i + 0.5) / nsteps) * (b - a))
            K = mid - 1j * (h**2 / 12) * (rate @ mid - mid @ rate)
            psi = expm(-1j * h * K) @ psi
            states.append(psi)
    return np.array(states)


class TestChunkedPropagation:
    def test_matches_per_step_reference_across_chunks(self):
        H = random_family(5, 4, 2)
        waypoints = (np.array([-1.5, 0.5]), np.array([1.0, -1.2]), np.array([0.3, 1.4]))
        path = ControlPath(waypoints=waypoints, durations=np.array([90.0, 7.0]), epsilon=1.0)
        psi0 = decompose(H, waypoints[0]).frame[:, 0]
        reference = reference_states(H, path, psi0)
        bound = max(H.norm_bound(waypoints[0]), H.norm_bound(waypoints[1]))
        assert 90.0 * bound / 0.1 > STEP_CHUNK_ELEMS // 4**2
        traj = propagate(H, path, psi0, max_records=len(reference))
        assert traj.states.shape[0] == len(reference) + 1
        assert np.max(np.abs(traj.states[1:] - reference)) <= 1e-12
        assert np.max(traj.norm_defect) <= 1e-12

    def test_record_rule_across_chunks(self):
        H = random_family(6, 4, 2)
        path = line([-1.5, -1.5], [1.5, 1.2], 150.0)
        psi0 = decompose(H, [-1.5, -1.5]).frame[:, 0]
        reference = reference_states(H, path, psi0)
        total = len(reference)
        assert total > 2 * (STEP_CHUNK_ELEMS // 4**2)
        traj = propagate(H, path, psi0, max_records=50)
        stride = total // 50
        recorded = [k for k in range(1, total + 1) if k % stride == 0 or k == total]
        assert traj.states.shape[0] == len(recorded) + 1
        assert np.max(np.abs(traj.states[1:] - reference[np.array(recorded) - 1])) <= 1e-12
        h = 150.0 / total
        assert np.allclose(traj.times[1:], h * np.array(recorded), rtol=1e-12)


    @pytest.mark.parametrize("max_records", [1, 7, 50, 100, 199, 1000])
    def test_record_cap(self, max_records):
        # H(0) = sigma_z has norm 1, so at step limit 1 the three held segments
        # take 66, 66 and 67 steps: 199 = 2 * 100 - 1 in all
        H = make_family(SIGMA_Z, [SIGMA_X, SIGMA_Z], [[-1, 1], [-1, 1]])
        path = ControlPath(
            waypoints=(np.zeros(2),) * 4, durations=np.array([66.0, 66.0, 67.0]), epsilon=1.0
        )
        psi0 = np.array([0.6, 0.8j])
        full = propagate(H, path, psi0, step_limit=1.0, max_records=10**6)
        assert full.times.shape[0] == 200
        traj = propagate(H, path, psi0, step_limit=1.0, max_records=max_records)
        stride = -(-199 // max_records)
        recorded = [0] + [k for k in range(1, 200) if k % stride == 0 or k in (66, 132, 199)]
        assert traj.times.shape[0] == len(recorded) <= max_records + 3
        for field in ("times", "controls", "states", "labels", "populations", "norm_defect"):
            assert np.array_equal(getattr(traj, field), getattr(full, field)[recorded])

    def test_labels_continue_across_record_blocks(self):
        # H = u1 sigma_z crosses exactly at u1 = 0, where the labels exchange sorted positions
        H = make_family(np.zeros((2, 2)), [SIGMA_Z, SIGMA_X], [[-2, 2], [-2, 2]])
        path = line([-1.5, 0.0], [0.7, 0.0], 300.0)
        traj = propagate(H, path, np.array([1.0, 0.0]), max_records=10**6)
        block = STEP_CHUNK_ELEMS // 2**2
        crossing = int(np.argmax(traj.controls[:, 0] > 0.0))
        assert 0 < crossing < block < traj.times.shape[0]
        assert np.array_equal(traj.labels[0], [1, 2])
        assert np.array_equal(traj.labels[-1], [2, 1])
        assert np.allclose(traj.populations[:, 0], 1.0, atol=1e-12)

    def test_crossing_after_a_block_boundary_inside_a_degenerate_hold(self):
        # H = I + u1 sigma_z + u2 sigma_x is degenerate only at the origin; the
        # path along u2 holds there across the first record-block boundary,
        # then leaves on the far side, so the labels exchange in the second
        # block against the reference carried over from the first. The apex
        # frame overlaps both sigma_x eigenvectors equally, so matching against
        # it instead would not exchange them.
        H = make_family(np.eye(2), [SIGMA_Z, SIGMA_X], [[-1, 1], [-1, 1]])
        a, apex, b = np.array([0.0, -0.6]), np.zeros(2), np.array([0.0, 0.6])
        path = ControlPath(
            waypoints=(a, apex, apex, b), durations=np.array([150.0, 200.0, 150.0]), epsilon=1.0
        )
        psi0 = decompose(H, a).frame[:, 0]
        traj = propagate(H, path, psi0, max_records=10**6)
        block = STEP_CHUNK_ELEMS // 2**2
        held = np.flatnonzero(np.all(traj.controls == apex, axis=1))
        assert held[0] < block - 1 and block < held[-1] < traj.times.shape[0] - 1
        points = decompose_many(H, traj.controls)
        assert np.array_equal(traj.labels, reference_labels(points, degeneracy_tol(H)))
        assert np.array_equal(traj.labels[0], [1, 2])
        assert np.array_equal(traj.labels[-1], [2, 1])
        for k in (0, block - 1, block, traj.times.shape[0] - 1):
            pops = branch_populations(points[k].frame, traj.states[k])
            assert np.allclose(traj.populations[k, traj.labels[k] - 1], pops, rtol=0, atol=1e-14)


class TestGaugeRobustness:
    def test_populations_invariant_under_frame_phases(self, three_level_chain):
        rng = np.random.default_rng(41)
        sp = decompose(three_level_chain, [0.2, 0.3])
        psi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        psi /= np.linalg.norm(psi)
        base = branch_populations(sp.frame, psi)
        for _ in range(100):
            phases = np.exp(1j * rng.uniform(0, 2 * np.pi, 3))
            assert np.allclose(branch_populations(sp.frame * phases[None, :], psi), base)


class TestPlanPassage:
    def _certificate(self, H):
        return test_conicality(H, [0.0, 0.0], 1).certificate

    def test_straight_through_geometry(self, two_level_cone):
        cert = self._certificate(two_level_cone)
        path = plan_passage(two_level_cone, cert, rho=0.5, epsilon=0.01)
        assert len(path.waypoints) == 3
        assert np.allclose(path.waypoints[1], [0.0, 0.0], atol=1e-9)
        # entry and exit are antipodal at radius rho: collinear crossing
        assert np.allclose(path.waypoints[0], -path.waypoints[2], atol=1e-9)
        assert np.linalg.norm(path.waypoints[0] - path.waypoints[1]) == pytest.approx(0.5)
        assert np.allclose(path.durations, [50.0, 50.0])

    def test_durations_scale_inversely_with_epsilon(self, two_level_cone):
        cert = self._certificate(two_level_cone)
        fast = plan_passage(two_level_cone, cert, rho=0.5, epsilon=0.02)
        slow = plan_passage(two_level_cone, cert, rho=0.5, epsilon=0.01)
        assert np.allclose(slow.durations, 2 * fast.durations)

    def test_rho_exceeding_box_margin(self, two_level_cone):
        cert = self._certificate(two_level_cone)
        with pytest.raises(GeometryError):
            plan_passage(two_level_cone, cert, rho=1.5, epsilon=0.01)

    def test_passage_transfers_population(self, two_level_cone):
        cert = self._certificate(two_level_cone)
        path = plan_passage(two_level_cone, cert, rho=0.5, epsilon=1e-2)
        psi0 = decompose(two_level_cone, path.waypoints[0]).frame[:, 0]
        traj = propagate(two_level_cone, path, psi0)
        assert traj.final_population_sorted(2) >= 0.9


class TestClimb:
    def test_two_level_climb(self, two_level_cone):
        report = certify_connectedness(two_level_cone, 6, rng_seed=3)
        result = climb(two_level_cone, report, [0.3, 0.4], epsilon=1e-2)
        assert result.target_level == 2
        assert result.p_target >= 0.9

    def test_three_level_chain_climb(self, three_level_chain):
        report = certify_connectedness(three_level_chain, 12, rng_seed=5)
        result = climb(three_level_chain, report, [-0.3, 0.55], epsilon=1e-2)
        assert result.p_target >= 0.9
        assert np.max(result.trajectory.norm_defect) <= 1e-9

    def test_passages_do_not_overlap(self, three_level_chain):
        # (0, 0) and (0.75, 0) are 0.75 apart but 0.6 from the box edge, so a
        # radius from the box clearance alone would overlap the two passages
        certs = {
            j: test_conicality(three_level_chain, u, j).certificate
            for j, u in ((1, [0.0, 0.0]), (2, [0.75, 0.0]))
        }
        report = ConnectednessReport(
            certificates=certs, failures={}, status="certified", metadata={}
        )
        result = climb(three_level_chain, report, [-0.3, 0.55], epsilon=1e-2)
        waypoints = np.array(result.path.waypoints)
        start = int(np.argmin(np.linalg.norm(waypoints - [0.0, 0.0], axis=1)))
        # from the first intersection on, the path only moves toward the second
        assert np.all(np.diff(waypoints[start:, 0]) > 0)
        assert result.p_target >= 0.9

    @pytest.mark.parametrize("epsilon", [1e-1, 1e-2, 1e-3])
    @pytest.mark.parametrize(
        "family, budget, seed, anchor",
        [("two_level_cone", 6, 3, [0.3, 0.4]), ("three_level_chain", 12, 5, [-0.3, 0.55])],
    )
    def test_error_estimate_tracks_true_error(self, request, family, budget, seed, anchor, epsilon):
        H = request.getfixturevalue(family)
        report = certify_connectedness(H, budget, rng_seed=seed)
        result = climb(H, report, anchor, epsilon=epsilon)
        assert result.step_limit >= DEFAULT_STEP_LIMIT
        psi0 = decompose(H, anchor).frame[:, 0]
        fine = propagate(H, result.path, psi0, result.step_limit / 8, max_records=1)
        true_error = float(np.linalg.norm(result.trajectory.final_state - fine.final_state))
        assert true_error <= 1e-6
        # the cone's climb runs on one line through the apex, where H(t) is a
        # multiple of one matrix: every step is exact and both errors are rounding
        if true_error > 1e-10:
            assert true_error / 4 <= result.error_estimate <= 4 * true_error
        else:
            assert result.error_estimate <= 1e-10

    def test_uncertified_report_rejected(self, diag_family):
        report = certify_connectedness(diag_family, 4, rng_seed=3)
        with pytest.raises(PreconditionError):
            climb(diag_family, report, [0.1, 0.1], epsilon=0.1)

    def test_resonant_anchor_rejected(self, two_level_cone):
        report = certify_connectedness(two_level_cone, 6, rng_seed=3)
        with pytest.raises(PreconditionError):
            climb(two_level_cone, report, [0.0, 0.0], epsilon=0.1)


class TestRoute:
    """``_route``: the detours a climb takes around the intersections it does not pass."""

    BOX = np.array([[-2.0, 2.0], [-2.0, 2.0]])

    @staticmethod
    def clearance(a, waypoints, b, obstacles) -> float:
        points = [a, *waypoints, b]
        return min(
            _segment_clearance(p, q, o)[0]
            for p, q in zip(points, points[1:])
            for o in obstacles
        )

    @pytest.mark.parametrize(
        "a, b, obstacles, delta",
        [
            ([-1.0, 0.0], [1.0, 0.0], [[0.0, 0.0]], 0.2),
            ([-1.0, 0.0], [1.0, 0.0], [[0.0, 0.0], [0.5, 0.1]], 0.2),
            ([-1.0, 0.1], [1.0, -0.05], [[0.0, 0.0]], 0.3),
        ],
    )
    def test_detour_keeps_delta_from_the_obstacles(self, a, b, obstacles, delta):
        a, b, obstacles = np.array(a), np.array(b), [np.array(o) for o in obstacles]
        assert self.clearance(a, [], b, obstacles) < delta
        waypoints = _route(a, b, obstacles, delta, self.BOX)
        assert waypoints
        assert self.clearance(a, waypoints, b, obstacles) >= delta * (1 - 1e-9)

    def test_clear_segment_needs_no_detour(self):
        a, b = np.array([-1.0, 0.5]), np.array([1.0, 0.5])
        assert _route(a, b, [np.zeros(2)], 0.2, self.BOX) == []

    def test_detour_stays_inside_the_box(self):
        # the way around an obstacle near the top edge points out of the box
        box = np.array([[-1.0, 1.0], [-1.0, 1.0]])
        a, b = np.array([-0.5, 0.95]), np.array([0.5, 0.95])
        waypoints = _route(a, b, [np.array([0.0, 0.9])], 0.2, box)
        assert waypoints
        for w in waypoints:
            assert np.all(w >= box[:, 0]) and np.all(w <= box[:, 1])


class TestAdiabaticTrend:
    def test_populations_freeze_away_from_degeneracies(self, two_level_cone):
        # path stays at radius >= 0.5 from the only degeneracy at the origin
        a, b = np.array([0.8, 0.3]), np.array([0.3, 0.8])
        psi0 = decompose(two_level_cone, a).frame[:, 0]
        deviations = []
        for eps in (3e-1, 1e-1, 3e-2):
            path = line(a, b, float(np.linalg.norm(b - a)) / eps, epsilon=eps)
            traj = propagate(two_level_cone, path, psi0)
            deviations.append(float(np.max(np.abs(traj.populations[:, 0] - 1.0))))
        assert deviations[1] <= deviations[0] + 1e-3
        assert deviations[2] <= deviations[1] + 1e-3
        assert deviations[-1] <= 0.05
