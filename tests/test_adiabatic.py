import csv
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from speccert import (
    BudgetError,
    ConnectednessReport,
    ControlHamiltonian,
    ControlPath,
    GeometryError,
    HermitianOperator,
    PreconditionError,
    StructuralError,
    branch_populations,
    certify,
    certify_connectedness,
    climb,
    decompose,
    decompose_many,
    load_path,
    plan_passage,
    propagate,
    sample_nonresonant,
    test_conicality,
)
from speccert import adiabatic
from speccert.adiabatic import (
    BLOCK_MAX_DIM,
    CLIMB_START_LIMIT,
    DEFAULT_STEP_LIMIT,
    StateTrajectory,
    _route,
    _segment_clearance,
)
from speccert.sampling import random_hermitian, random_symmetric
from speccert.spectrum import BLOCK_ENTRIES, degeneracy_tol
from branch_reference import reference_labels, reference_records
from conftest import SIGMA_X, SIGMA_Z, half_spread, make_family, random_family, step_counts


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

    @pytest.mark.parametrize("epsilon", [-1, 0, [1, 2]])
    def test_epsilon_must_be_a_positive_number(self, epsilon):
        with pytest.raises(StructuralError, match="epsilon must be a positive number"):
            line([0, 0], [1, 0], 1.0, epsilon=epsilon)

    def test_waypoints_required(self):
        with pytest.raises(StructuralError, match="one or more waypoints"):
            ControlPath(waypoints=(), durations=np.array([1.0]), epsilon=1.0)

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

    @pytest.mark.parametrize("psi0", [[np.nan, 0.0], [np.inf, 0.0], [1.0, np.nan]])
    def test_non_finite_state_rejected(self, two_level_cone, psi0):
        # a nan norm passed the unit-norm test, and every state came out nan
        with pytest.raises(PreconditionError, match="initial state must be finite"):
            propagate(two_level_cone, hold([0.1, 0.1], 1.0), np.array(psi0))

    def test_waypoint_outside_box_rejected(self, two_level_cone):
        with pytest.raises(GeometryError):
            propagate(two_level_cone, hold([3.0, 0.0], 1.0), np.array([1.0, 0.0]))

    def test_first_waypoint_outside_box_is_named(self, two_level_cone):
        waypoints = tuple(np.array(w) for w in ([0.1, 0.1], [0.2, 1.5], [0.3, 0.3], [-2.0, 0.0]))
        path = ControlPath(waypoints=waypoints, durations=np.ones(3), epsilon=1.0)
        with pytest.raises(GeometryError, match=r"waypoint \[0\.2, 1\.5\] lies outside"):
            propagate(two_level_cone, path, np.array([1.0, 0.0]))

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
            {"step_limit": None},
            {"max_records": True},
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

    def test_csv_floats_read_back_bitwise(self, tmp_path, three_level_chain):
        psi0 = decompose(three_level_chain, [0.4, 0.3]).frame[:, 0]
        traj = propagate(three_level_chain, line([0.4, 0.3], [-0.3, 0.1], 3.0), psi0)
        target = tmp_path / "traj.csv"
        traj.save_csv(target)
        with open(target, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        table = np.column_stack((traj.times, traj.controls, traj.populations, traj.norm_defect))
        assert [[float(cell) for cell in row] for row in rows] == table.tolist()


def reference_states(H, path, psi0, step_limit=0.1):
    """Every step's state from one expm of the fourth-order Magnus exponent per
    step, K = H(u_mid) - i (h^2/12) [D, H(u_mid)] with D = dH/dt, one step at a time."""
    psi = np.asarray(psi0, dtype=complex)
    states = []
    for (a, b, dur), nsteps in zip(path.segments(), step_counts(H, path, step_limit)):
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
        assert step_counts(H, path)[0] > BLOCK_ENTRIES // 4**2
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
        assert total > 2 * (BLOCK_ENTRIES // 4**2)
        traj = propagate(H, path, psi0, max_records=50)
        # stride = ceil(steps / max_records), as propagate documents
        stride = -(-total // 50)
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
        block = BLOCK_ENTRIES // 2**2
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
        block = BLOCK_ENTRIES // 2**2
        # H(apex) = I has no spread, so a held segment takes one step whatever
        # its duration: the approach ends 3 steps short of the block boundary
        # and four held segments carry the hold across it
        approach = (block - 3.5) * DEFAULT_STEP_LIMIT / half_spread(H, a)
        path = ControlPath(
            waypoints=(a, *[apex] * 5, b),
            durations=np.array([approach, 50.0, 50.0, 50.0, 50.0, 150.0]),
            epsilon=1.0,
        )
        assert step_counts(H, path)[:5] == [block - 3, 1, 1, 1, 1]
        psi0 = decompose(H, a).frame[:, 0]
        traj = propagate(H, path, psi0, max_records=10**6)
        held = np.flatnonzero(np.all(traj.controls == apex, axis=1))
        assert held[0] < block - 1 and block < held[-1] < traj.times.shape[0] - 1
        points = decompose_many(H, traj.controls)
        assert np.array_equal(traj.labels, reference_labels(points, degeneracy_tol(H)))
        assert np.array_equal(traj.labels[0], [1, 2])
        assert np.array_equal(traj.labels[-1], [2, 1])
        for k in (0, block - 1, block, traj.times.shape[0] - 1):
            pops = branch_populations(points[k].frame, traj.states[k])
            assert np.allclose(traj.populations[k, traj.labels[k] - 1], pops, rtol=0, atol=1e-14)


def record_chunks(mp):
    """Patch propagate's block products to record each chunk's (lam, vecs, h, b)."""
    chunks = []
    block_products = adiabatic._block_products

    def recording(lam, vecs, h, b):
        chunks.append((lam, vecs, h, b))
        return block_products(lam, vecs, h, b)

    mp.setattr(adiabatic, "_block_products", recording)
    return chunks


def sequential_states(chunks, psi0):
    """The state after every step, one step at a time, from the recorded chunks' step unitaries."""
    psi = np.asarray(psi0, dtype=complex)
    states = []
    for lam, vecs, h, _ in chunks:
        unitaries = (vecs * np.exp(-1j * h * lam)[:, None, :]) @ np.swapaxes(vecs.conj(), 1, 2)
        for step in unitaries:
            psi = step @ psi
            states.append(psi)
    return np.array(states)


def path_of_lengths(H, waypoints, lengths, step_limit=DEFAULT_STEP_LIMIT):
    """A path through the waypoints whose segments take the given numbers of propagate steps."""
    durations = [
        (count - 0.5) * step_limit / max(half_spread(H, a), half_spread(H, b))
        for a, b, count in zip(waypoints, waypoints[1:], lengths)
    ]
    path = ControlPath(waypoints=tuple(waypoints), durations=np.array(durations), epsilon=1.0)
    assert step_counts(H, path, step_limit) == list(lengths)
    return path


def blocked_run(n, real, seed, lengths, mp):
    """Run ``propagate`` on a random family along segments of the given step counts.

    Returns the trajectory, every chunk's recorded (lam, vecs, h, b) and the initial state.
    """
    rng = np.random.default_rng(seed)
    draw = random_symmetric if real else random_hermitian
    H = make_family(draw(rng, n), [draw(rng, n), draw(rng, n)], [[-2, 2], [-2, 2]])
    waypoints = list(rng.uniform(-1.5, 1.5, size=(len(lengths) + 1, 2)))
    psi0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    psi0 /= np.linalg.norm(psi0)
    chunks = record_chunks(mp)
    traj = propagate(H, path_of_lengths(H, waypoints, lengths), psi0, max_records=10**6)
    assert traj.states.shape[0] == sum(lengths) + 1
    return traj, chunks, psi0


class TestBlockedAdvance:
    """``propagate`` advances its state a block of steps per Python iteration."""

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 8),
        real=st.booleans(),
        seed=st.integers(0, 2**16),
        lengths=st.lists(st.integers(1, 300), min_size=1, max_size=3),
    )
    # n = 3: 300 steps make blocks of 17 and a last block of 11, between single
    # steps; n = 8 (256-step chunks): 300 and 257 steps carry the state across
    # chunks, into a 44-step chunk (blocks of 6, the last of 2) and a 1-step one
    @example(n=2, real=True, seed=0, lengths=[1])
    @example(n=3, real=False, seed=1, lengths=[1, 300, 1])
    @example(n=8, real=False, seed=2, lengths=[300, 257, 2])
    def test_matches_the_sequential_product(self, n, real, seed, lengths):
        with pytest.MonkeyPatch.context() as mp:
            traj, chunks, psi0 = blocked_run(n, real, seed, lengths, mp)
        for lam, _, _, b in chunks:
            assert b == (math.isqrt(len(lam)) if n <= BLOCK_MAX_DIM else 1)
        reference = sequential_states(chunks, psi0)
        assert np.max(np.abs(traj.states[1:] - reference)) <= 1e-13
        assert np.max(traj.norm_defect) <= 1e-12

    @pytest.mark.parametrize(
        "n, max_dim", [(3, 0), (BLOCK_MAX_DIM + 1, BLOCK_MAX_DIM), (32, BLOCK_MAX_DIM)]
    )
    def test_blocks_of_one_are_the_per_step_loop_bitwise(self, n, max_dim):
        # the 150-step segment spans two chunks at n = 13 (96 steps each), the
        # 40-step one three at n = 32 (16 each)
        lengths = [1, 70, 150] if n < 32 else [1, 40, 3]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(adiabatic, "BLOCK_MAX_DIM", max_dim)
            traj, chunks, psi0 = blocked_run(n, False, n, lengths, mp)
        assert {b for *_, b in chunks} == {1}
        assert np.array_equal(traj.states[1:], sequential_states(chunks, psi0))

    def test_block_products_are_in_block_prefix_order(self):
        rng = np.random.default_rng(7)
        lam, vecs = np.linalg.eigh(np.stack([random_hermitian(rng, 3) for _ in range(11)]))
        unitaries = (vecs * np.exp(-0.3j * lam)[:, None, :]) @ np.swapaxes(vecs.conj(), 1, 2)
        assert np.array_equal(adiabatic._block_products(lam, vecs, 0.3, 1)[:, 0], unitaries)
        prods = adiabatic._block_products(lam, vecs, 0.3, 4)
        assert prods.shape == (3, 4, 3, 3)
        for k in range(11):
            block, row = divmod(k, 4)
            expected = np.eye(3)
            for step in unitaries[4 * block : k + 1]:
                expected = step @ expected
            assert np.allclose(prods[block, row], expected, rtol=0, atol=1e-14)


class TestLazyRecords:
    """Populations and labels are decomposed on first read, bitwise as the eager pass did."""

    @pytest.mark.parametrize(
        "family, waypoints, durations, max_records",
        [
            ("two_level_cone", [[0.4, 0.3], [0.0, 0.0], [-0.4, -0.3]], [50.0, 50.0], 1200),
            ("three_level_chain", [[-0.3, 0.55], [0.0, 0.0], [0.75, 0.0]], [40.0, 40.0], 1200),
            # more records than one block of 1820 at n = 3, so the reference carries across
            ("three_level_chain", [[-0.3, 0.55], [0.2, -0.3], [0.9, 0.1]], [150.0, 150.0], 10**6),
        ],
    )
    def test_records_match_the_eager_pass(self, request, family, waypoints, durations, max_records):
        H = request.getfixturevalue(family)
        path = ControlPath(
            waypoints=tuple(np.array(w, dtype=float) for w in waypoints),
            durations=np.array(durations),
            epsilon=1.0,
        )
        psi0 = decompose(H, path.waypoints[0]).frame[:, 0]
        traj = propagate(H, path, psi0, max_records=max_records)
        if max_records > 1200:
            assert traj.times.shape[0] > BLOCK_ENTRIES // H.dim**2
        populations, labels = reference_records(H, traj)
        assert np.array_equal(traj.populations, populations)
        assert np.array_equal(traj.labels, labels)
        # a second read returns the cached arrays, derived from records that cannot change
        assert traj.populations is traj.populations
        assert traj.labels is traj.labels
        assert not traj.controls.flags.writeable and not traj.states.flags.writeable

    def test_climb_does_no_record_pass(self, monkeypatch, three_level_chain):
        report = certify_connectedness(three_level_chain, 12, rng_seed=5)
        rows = []
        decompose_stack = adiabatic._decompose_stack

        def counting(mats, U, *args, **kwargs):
            rows.append(len(U))
            return decompose_stack(mats, U, *args, **kwargs)

        monkeypatch.setattr(adiabatic, "_decompose_stack", counting)
        result = climb(three_level_chain, report, [-0.3, 0.55], epsilon=1e-3)
        assert rows == []
        traj = result.trajectory
        assert traj.populations.shape == (traj.times.shape[0], 3)
        # one pass over every record serves both arrays and every later read
        assert sum(rows) == traj.times.shape[0]
        assert traj.labels.shape == traj.populations.shape
        assert sum(rows) == traj.times.shape[0]

    def test_constructor_returns_the_given_arrays(self):
        fields = dict(
            times=np.array([0.0, 1.0]),
            controls=np.zeros((2, 2)),
            states=np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex),
            populations=np.array([[1.0, 0.0], [0.5, 0.5]]),
            labels=np.array([[1, 2], [2, 1]]),
            norm_defect=np.zeros(2),
        )
        traj = StateTrajectory(**fields)
        for name, value in fields.items():
            assert getattr(traj, name) is value
        assert traj.final_population_sorted(1) == 0.5


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

    @pytest.mark.parametrize("name", ["rho", "epsilon"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 0.0, -0.5])
    def test_rho_and_epsilon_must_be_finite_and_positive(self, two_level_cone, name, value):
        cert = self._certificate(two_level_cone)
        args = {"rho": 0.5, "epsilon": 0.01, name: value}
        with pytest.raises(PreconditionError, match=name):
            plan_passage(two_level_cone, cert, **args)

    @pytest.mark.parametrize(
        "direction", [[1.0, 0.0, 0.0], [1.0], [[1.0, 0.0]], [np.inf, 1.0], [np.nan, 1.0], ["a", "b"]]
    )
    def test_malformed_direction_raises_structural_error(self, two_level_cone, direction):
        cert = self._certificate(two_level_cone)
        with pytest.raises(StructuralError, match="passage direction"):
            plan_passage(two_level_cone, cert, rho=0.5, epsilon=0.01, direction=direction)

    def test_zero_direction_raises_geometry_error(self, two_level_cone):
        cert = self._certificate(two_level_cone)
        with pytest.raises(GeometryError):
            plan_passage(two_level_cone, cert, rho=0.5, epsilon=0.01, direction=[0.0, 0.0])

    def test_direction_is_normalised(self, two_level_cone):
        cert = self._certificate(two_level_cone)
        path = plan_passage(two_level_cone, cert, rho=0.5, epsilon=0.01, direction=[3.0, 4.0])
        assert np.allclose(path.waypoints[0] - path.waypoints[1], [0.3, 0.4])

    @pytest.mark.parametrize(
        "direction, unit",
        [
            ([1e308, 1e308], [2**-0.5, 2**-0.5]),  # d @ d overflows
            ([-1e200, 0.0], [-1.0, 0.0]),
            ([1e-320, 0.0], [1.0, 0.0]),  # subnormal, and d @ d underflows to 0
            ([3e-170, -4e-170], [0.6, -0.8]),
        ],
    )
    def test_extreme_directions_are_normalised(self, two_level_cone, direction, unit):
        cert = self._certificate(two_level_cone)
        path = plan_passage(two_level_cone, cert, rho=0.5, epsilon=0.01, direction=direction)
        assert np.allclose(path.waypoints[0] - path.waypoints[1], 0.5 * np.array(unit), atol=1e-15)
        assert np.allclose(path.waypoints[2] - path.waypoints[1], -0.5 * np.array(unit), atol=1e-15)

    @pytest.mark.parametrize("direction", [[3.0, 4.0], [0.3, -0.7], [1e-150, 2e-150], [-5e149, 1.0]])
    def test_ordinary_direction_waypoints_unchanged(self, two_level_cone, direction):
        # scaling by max|d| before the norm moves an ordinary direction by rounding only
        cert = self._certificate(two_level_cone)
        path = plan_passage(two_level_cone, cert, rho=0.5, epsilon=0.01, direction=direction)
        d = np.array(direction) / np.linalg.norm(direction)
        u = np.asarray(cert.u_star, dtype=float)
        for got, want in zip(path.waypoints, (u + 0.5 * d, u, u - 0.5 * d), strict=True):
            np.testing.assert_allclose(got, want, rtol=1e-15, atol=1e-15)

    def test_passage_transfers_population(self, two_level_cone):
        cert = self._certificate(two_level_cone)
        path = plan_passage(two_level_cone, cert, rho=0.5, epsilon=1e-2)
        psi0 = decompose(two_level_cone, path.waypoints[0]).frame[:, 0]
        traj = propagate(two_level_cone, path, psi0)
        assert traj.final_population_sorted(2) >= 0.9


def chain_report(H):
    """A certified report of the chain's intersections at (0, 0) and (0.75, 0)."""
    certs = {
        j: test_conicality(H, u, j).certificate for j, u in ((1, [0.0, 0.0]), (2, [0.75, 0.0]))
    }
    return ConnectednessReport(certificates=certs, failures={}, status="certified", metadata={})


class TestClimb:
    def test_two_level_climb(self, two_level_cone):
        report = certify_connectedness(two_level_cone, 6, rng_seed=3)
        result = climb(two_level_cone, report, [0.3, 0.4], epsilon=1e-2)
        assert result.target_level == 2
        assert result.p_target >= 0.9

    def test_final_population_level_outside_1_to_n_rejected(self, two_level_cone):
        # the README's climb: level 0 read the top level's population, wrapped from index -1
        report = certify_connectedness(two_level_cone, seed_budget=8, rng_seed=1)
        traj = climb(two_level_cone, report, [0.3, 0.4], epsilon=1e-2).trajectory
        for level in (0, 3, True, 2.0):
            with pytest.raises(PreconditionError, match="level must be an integer in 1..2"):
                traj.final_population_sorted(level)

    def test_three_level_chain_climb(self, three_level_chain):
        report = certify_connectedness(three_level_chain, 12, rng_seed=5)
        result = climb(three_level_chain, report, [-0.3, 0.55], epsilon=1e-2)
        assert result.p_target >= 0.9
        assert np.max(result.trajectory.norm_defect) <= 1e-9

    def test_a_passage_leaving_the_box_is_refused(self, three_level_chain):
        # the intersection at (0, 0) is 0.6 from the face u1 = -0.6
        report = chain_report(three_level_chain)
        message = r"passage of radius 0.7 at \[0.0, 0.0\] leaves the control box"
        with pytest.raises(GeometryError, match=message):
            climb(three_level_chain, report, [-0.3, 0.55], epsilon=1e-2, rho=0.7)

    def test_an_intersection_on_a_box_face_leaves_no_passage_radius(
        self, monkeypatch, two_level_cone
    ):
        # a hand-made certified report whose u* lies on the face u1 = 1: its clearance is 0
        cert = dataclasses.replace(
            test_conicality(two_level_cone, [0.0, 0.0], 1).certificate, u_star=np.array([1.0, 0.0])
        )
        report = ConnectednessReport(
            certificates={1: cert}, failures={}, status="certified", metadata={}
        )

        def no_propagation(*args, **kwargs):
            raise AssertionError("a propagation ran without a passage radius")

        monkeypatch.setattr(adiabatic, "propagate", no_propagation)
        monkeypatch.setattr(adiabatic, "_final_state", no_propagation)
        with pytest.raises(GeometryError, match="no positive passage radius fits inside the box"):
            climb(two_level_cone, report, [0.3, 0.4], epsilon=1e-2)

    def test_passages_do_not_overlap(self, three_level_chain):
        # (0, 0) and (0.75, 0) are 0.75 apart but 0.6 from the box edge, so a
        # radius from the box clearance alone would overlap the two passages
        result = climb(three_level_chain, chain_report(three_level_chain), [-0.3, 0.55], epsilon=1e-2)
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

    def test_connector_stays_clear_of_the_intersection_it_leads_to(self):
        # the anchor lies beyond u*_1 as seen from the first passage's entry, so
        # a connector that avoided only the other intersections ran through u*_1
        # and the population split there before the planned passage (0.918)
        rng = np.random.default_rng(123)
        ops = [HermitianOperator(random_symmetric(rng, 3)) for _ in range(3)]
        H = ControlHamiltonian(drift=ops[0], controlled=tuple(ops[1:]), box=np.array([[-3.0, 3.0]] * 2))
        cert = certify(H)
        result = climb(H, cert.connectedness, cert.resonance.report.u_bar, epsilon=1e-4)
        assert result.p_target >= 0.99

    @pytest.mark.parametrize("value", [np.nan, np.inf, 0.0, -1.0])
    @pytest.mark.parametrize("name", ["epsilon", "rho", "delta"])
    def test_hostile_radius_or_speed_rejected_before_any_eigensolve(
        self, monkeypatch, three_level_chain, name, value
    ):
        report = chain_report(three_level_chain)

        def no_eigensolve(*args, **kwargs):
            raise AssertionError("an eigensolve ran before the arguments were checked")

        monkeypatch.setattr(np.linalg, "eigh", no_eigensolve)
        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigensolve)
        arguments = {"epsilon": 1e-2, name: value}
        with pytest.raises(PreconditionError, match=name):
            climb(three_level_chain, report, [-0.3, 0.55], **arguments)

    def test_uncertified_report_rejected(self, diag_family):
        report = certify_connectedness(diag_family, 4, rng_seed=3)
        with pytest.raises(PreconditionError):
            climb(diag_family, report, [0.1, 0.1], epsilon=0.1)

    @pytest.mark.parametrize("levels", [(), (1,), (2,)])
    def test_certified_report_without_a_level_rejected_before_any_eigensolve(
        self, monkeypatch, three_level_chain, levels
    ):
        # an empty report raised a bare KeyError: 1, after the anchor was decomposed
        certs = chain_report(three_level_chain).certificates
        report = ConnectednessReport(
            certificates={j: certs[j] for j in levels}, failures={}, status="certified", metadata={}
        )
        calls = []
        for name in ("eigh", "eigvalsh"):
            kernel = getattr(np.linalg, name)
            monkeypatch.setattr(
                np.linalg, name, lambda *a, kernel=kernel, **k: calls.append(1) or kernel(*a, **k)
            )
        missing = [j for j in (1, 2) if j not in levels]
        with pytest.raises(PreconditionError, match=rf"lacks the certificates of levels \{missing}"):
            climb(three_level_chain, report, [0.3, 0.4], 1e-2)
        assert calls == []

    def test_resonant_anchor_rejected(self, two_level_cone):
        report = certify_connectedness(two_level_cone, 6, rng_seed=3)
        with pytest.raises(PreconditionError):
            climb(two_level_cone, report, [0.0, 0.0], epsilon=0.1)

    @pytest.mark.parametrize("anchor", [[5.0, 0.5], [-0.3, -0.8], [np.nan, 0.5]])
    def test_anchor_outside_box_rejected_before_any_eigensolve(
        self, monkeypatch, three_level_chain, anchor
    ):
        # the chain was decomposed at [5.0, 0.5] and its path planned before
        # propagate named the anchor as a waypoint outside the box
        report = chain_report(three_level_chain)

        def no_eigensolve(*args, **kwargs):
            raise AssertionError("an eigensolve ran at an anchor outside the box")

        monkeypatch.setattr(np.linalg, "eigh", no_eigensolve)
        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigensolve)
        error = GeometryError if np.isfinite(anchor).all() else StructuralError
        with pytest.raises(error, match="anchor"):
            climb(three_level_chain, report, anchor, epsilon=1e-2)


def offset_family(H, c, where):
    """H with c * I added to its drift, or to its first control (then H + c u_1 I)."""
    ops = [H.drift.matrix, *(h.matrix for h in H.controlled)]
    k = 0 if where == "drift" else 1
    ops[k] = ops[k] + c * np.eye(H.dim)
    return make_family(ops[0], ops[1:], H.box)


def segment_steps(chunks, path):
    """Each segment's step count, read from the chunks ``propagate`` advanced it in."""
    counts, k = [], 0
    for _, _, dur in path.segments():
        # every chunk of a segment has its step size h = dur / steps
        nsteps, taken = round(dur / chunks[k][2]), 0
        while taken < nsteps:
            taken += len(chunks[k][0])
            k += 1
        assert taken == nsteps
        counts.append(nsteps)
    assert k == len(chunks)
    return counts


def climb_setting(request, name):
    """(family, report, anchor, epsilon) of a climb of the chain, or of a certified
    random real n = 4 family."""
    if name == "chain":
        H = request.getfixturevalue("three_level_chain")
        return H, chain_report(H), [-0.3, 0.55], 1e-3
    rng = np.random.default_rng(2)
    H = make_family(
        random_symmetric(rng, 4),
        [random_symmetric(rng, 4), random_symmetric(rng, 4)],
        [[-3, 3], [-3, 3]],
    )
    report = certify_connectedness(H, 8, rng_seed=0)
    assert report.certified
    return H, report, sample_nonresonant(H, 50, 0).report.u_bar, 1e-2


class TestReferenceRun:
    """The climb's run at twice the step limit takes ``propagate``'s steps and keeps only
    the final state; the anchor is decomposed once."""

    @pytest.fixture(params=["chain", "random n = 4"])
    def setting(self, request):
        return climb_setting(request, request.param)

    def test_final_state_is_propagates_bitwise(self, setting):
        H, report, anchor, epsilon = setting
        result = climb(H, report, anchor, epsilon)
        psi0 = decompose(H, anchor).frame[:, 0]
        finals = {}
        for limit in {CLIMB_START_LIMIT, result.step_limit, DEFAULT_STEP_LIMIT}:
            finals[limit] = propagate(H, result.path, psi0, 2 * limit).final_state
            reference = adiabatic._final_state(H, result.path, psi0, 2 * limit)
            assert np.array_equal(reference, finals[limit])
        # the climb's estimate is measured against that run
        coarse = finals[result.step_limit]
        error = float(np.linalg.norm(result.trajectory.final_state - coarse)) / 15
        assert result.error_estimate == error

    def test_chain_climb_builds_one_trajectory(self, monkeypatch, three_level_chain):
        report = chain_report(three_level_chain)
        chunks = record_chunks(monkeypatch)
        built, rows = [], []
        of = StateTrajectory._of

        def counting_of(cls, *args):
            built.append(args[1].shape[0])
            return of(*args)

        eigh = np.linalg.eigh

        def counting_eigh(a, *args, **kwargs):
            rows.append(math.prod(np.shape(a)[:-2]))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(StateTrajectory, "_of", classmethod(counting_of))
        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        result = climb(three_level_chain, report, [-0.3, 0.55], epsilon=1e-3)
        assert result.step_limit == CLIMB_START_LIMIT
        assert built == [result.trajectory.times.shape[0]]
        # every propagator step of both runs, the anchor and the end point
        assert sum(rows) == sum(len(lam) for lam, *_ in chunks) + 2


class TestEnergyOffset:
    """An offset c * I changes only a global phase, so it changes no step, record or population."""

    @pytest.fixture(params=["chain", "random n = 4"])
    def setting(self, request):
        return climb_setting(request, request.param)

    @staticmethod
    def run(H, report, anchor, epsilon):
        """The climb, its chunks' (steps, h), and the per-segment steps of one
        default-limit ``propagate`` along the climb's path."""
        with pytest.MonkeyPatch.context() as mp:
            chunks = record_chunks(mp)
            result = climb(H, report, anchor, epsilon)
            grid = [(len(lam), h) for lam, _, h, _ in chunks]
            chunks.clear()
            propagate(H, result.path, decompose(H, anchor).frame[:, 0], max_records=1)
            return result, grid, segment_steps(chunks, result.path)

    @pytest.mark.parametrize("where", ["drift", "control"])
    @pytest.mark.parametrize("c", [-100.0, 10.0, 100.0])
    def test_offset_changes_no_step(self, setting, where, c):
        H, report, anchor, epsilon = setting
        base, base_grid, base_steps = self.run(H, report, anchor, epsilon)
        shifted, grid, steps = self.run(offset_family(H, c, where), report, anchor, epsilon)
        assert np.array_equal(shifted.path.waypoints, base.path.waypoints)
        assert steps == base_steps
        assert grid == base_grid
        assert shifted.step_limit == base.step_limit
        assert shifted.trajectory.times.shape == base.trajectory.times.shape
        # every state is the same up to a global phase
        overlap = np.sum(shifted.trajectory.states.conj() * base.trajectory.states, axis=1)
        assert np.max(1 - np.abs(overlap)) <= 1e-9
        # populations are compared where the levels are resolved: at a record on
        # an intersection the crossing pair's frame is any basis of its eigenspace
        lam = np.linalg.eigvalsh(H.matrices_at(base.trajectory.controls))
        resolved = np.min(np.diff(lam, axis=1), axis=1) > 1e-3 * H.energy_scale
        assert np.count_nonzero(resolved) >= 0.95 * len(resolved)
        moved = np.abs(shifted.trajectory.populations - base.trajectory.populations)
        assert np.max(moved[resolved]) <= 1e-9
        # elsewhere rounding splits the closest pair's population, but not its sum
        pair = np.argmin(np.diff(lam, axis=1), axis=1)[~resolved]
        sums = []
        for traj in (base.trajectory, shifted.trajectory):
            by_level = np.take_along_axis(traj.populations, traj.labels - 1, axis=1)[~resolved]
            rows = np.arange(len(pair))
            sums.append(by_level[rows, pair] + by_level[rows, pair + 1])
        assert np.all(np.abs(sums[1] - sums[0]) <= 1e-9)
        assert abs(shifted.p_target - base.p_target) <= 1e-9


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
