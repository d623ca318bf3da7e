import csv
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speccert import (
    ConnectednessReport,
    ControlHamiltonian,
    ControlPath,
    GapTable,
    HermitianOperator,
    NumericalError,
    PreconditionError,
    RefinementNeededError,
    StructuralError,
    certify_connectedness,
    check_nonresonant,
    climb,
    decompose,
    decompose_many,
    degeneracy_tol,
    evaluate,
    gap,
    locate_intersection,
    propagate,
    save_track_csv,
    spectral_diameter_estimate,
    test_conicality,
    track,
    validate,
)
from speccert.operators import hermiticity_defect
from speccert.sampling import random_hermitian, random_symmetric
from speccert.spectrum import DEGENERACY_REL, _simple_spectra, continue_branches
from branch_reference import _greedy_match, reference_labels
from conftest import HOSTILE_TOLERANCES, SIGMA_X, SIGMA_Z, make_family, random_family, scaled


class TestDecompose:
    def test_sigma_z_spectrum(self):
        H = make_family(SIGMA_Z, [SIGMA_X, SIGMA_X], [[-1, 1], [-1, 1]])
        sp = decompose(H, [0.0, 0.0])
        assert np.allclose(sp.eigenvalues, [-1.0, 1.0])

    def test_diag_example(self, diag_family):
        sp = decompose(diag_family, [0.5, 0.0])
        assert np.allclose(sp.eigenvalues, [0.5, 1.5, 2.0], atol=1e-12)

    def test_two_level_analytic(self, two_level_cone):
        # analytic spectrum of u1*sx + u2*sz is plus/minus sqrt(u1^2 + u2^2)
        sp = decompose(two_level_cone, [0.3, 0.4])
        assert np.allclose(sp.eigenvalues, [-0.5, 0.5], atol=1e-12)

    def test_residual_and_orthonormality(self, three_level_chain):
        rng = np.random.default_rng(4)
        for _ in range(20):
            u = rng.uniform(-0.5, 0.5, 2)
            sp = decompose(three_level_chain, u)
            mat = three_level_chain.matrix_at(u)
            resid = np.max(
                np.linalg.norm(mat @ sp.frame - sp.frame * sp.eigenvalues[None, :], axis=0)
            )
            assert resid <= 1e-9 * (1 + np.max(np.abs(sp.eigenvalues)))
            assert np.max(np.abs(sp.frame.conj().T @ sp.frame - np.eye(3))) <= 1e-10
            assert np.sum(sp.eigenvalues) == pytest.approx(
                np.trace(mat).real, rel=1e-9, abs=1e-12
            )

    def test_deterministic(self, three_level_chain):
        a = decompose(three_level_chain, [0.21, -0.37])
        b = decompose(three_level_chain, [0.21, -0.37])
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.frame, b.frame)

    def test_phase_convention(self, two_level_cone):
        sp = decompose(two_level_cone, [0.7, 0.1])
        for j in range(2):
            col = sp.frame[:, j]
            i = np.argmax(np.abs(col))
            assert col[i].imag == pytest.approx(0.0, abs=1e-14)
            assert col[i].real > 0


class TestDecomposeMany:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 8),
        m=st.integers(2, 3),
        count=st.integers(1, 50),
    )
    def test_rows_match_decompose(self, seed, n, m, count):
        H = random_family(seed, n, m)
        U = np.random.default_rng(seed + 1).uniform(-2, 2, (count, m))
        points = decompose_many(H, U)
        assert len(points) == count
        for u, sp in zip(U, points):
            ref = decompose(H, u)
            assert np.array_equal(sp.u, u)
            assert np.max(np.abs(sp.eigenvalues - ref.eigenvalues)) <= 1e-12
            assert np.max(np.abs(sp.frame - ref.frame)) <= 1e-10

    def test_outputs_read_only(self, three_level_chain):
        sp = decompose_many(three_level_chain, [[0.1, 0.2], [0.3, 0.4]])[1]
        for a in (sp.u, sp.eigenvalues, sp.frame):
            with pytest.raises(ValueError):
                a[0] = 0

    def test_failing_row_in_batch_raises(self, three_level_chain, monkeypatch):
        exact = ControlHamiltonian.matrices_at

        def corrupted(self, U):
            # eigh reads one triangle, so breaking Hermiticity in the other
            # leaves a frame that does not diagonalise the matrix
            mats = exact(self, U).copy()
            mats[3, 0, 2] += 0.5
            return mats

        monkeypatch.setattr(ControlHamiltonian, "matrices_at", corrupted)
        U = np.random.default_rng(3).uniform(-0.5, 0.5, (8, 2))
        with pytest.raises(NumericalError, match="residual") as excinfo:
            decompose_many(three_level_chain, U)
        assert excinfo.value.residual > 1e-9
        assert str(U[3].tolist()) in str(excinfo.value)

    def test_wrong_control_length_raises(self, three_level_chain):
        with pytest.raises(StructuralError):
            decompose(three_level_chain, [0.1, 0.2, 0.3])
        with pytest.raises(StructuralError):
            decompose_many(three_level_chain, [[0.1, 0.2, 0.3]])


class TestDegeneracyTol:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 6),
        m=st.integers(2, 8),
        k=st.integers(-8, 8),
    )
    def test_scales_with_the_family(self, seed, n, m, k):
        H = random_family(seed, n, m)
        s = 10.0**k
        assert degeneracy_tol(scaled(H, s)) == pytest.approx(s * degeneracy_tol(H), rel=1e-12)

    @pytest.mark.parametrize("m", [2, 3, 7])
    def test_energy_scale_matches_per_probe_loop(self, m):
        H = random_family(m, 4, m)
        center = H.box_center()
        if m <= 6:
            probes = [center, *itertools.product(*H.box)]
        else:
            probes = [center]
            for l, side in itertools.product(range(m), (0, 1)):
                p = center.copy()
                p[l] = H.box[l, side]
                probes.append(p)
        ref = max(np.ptp(np.linalg.eigvalsh(H.matrix_at(np.asarray(p)))) for p in probes)
        assert H.energy_scale == pytest.approx(ref, rel=1e-12)

    def test_probed_once_per_family(self, monkeypatch, three_level_chain):
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
        tol = degeneracy_tol(three_level_chain)
        assert degeneracy_tol(three_level_chain) == tol
        assert tol == DEGENERACY_REL * spectral_diameter_estimate(three_level_chain)
        assert calls == [(5, 3, 3)]


class TestSimpleSpectra:
    """One simple-spectrum decision, every adjacent gap > the threshold, for the
    non-resonance check, the coupling graph and branch continuation."""

    def test_a_gap_at_the_threshold_is_degenerate(self):
        lam = np.array([[0.0, 1.0, 2.0], [0.0, 0.5, 2.0], [-1.0, 0.0, 0.5]])
        assert _simple_spectra(lam, 0.5).tolist() == [True, False, False]
        assert _simple_spectra(lam[0], 0.5) and not _simple_spectra(lam[2], 0.5)

    def test_reads_the_gaps_of_a_spectral_point(self, three_level_chain):
        sp = decompose(three_level_chain, [0.3, 0.4])
        for tol in (sp.gap(1), sp.gap(2), np.nextafter(min(sp.gap(1), sp.gap(2)), 0)):
            want = all(sp.gap(j) > tol for j in (1, 2))
            assert bool(_simple_spectra(sp.eigenvalues, tol)) == want


class TestGap:
    def test_sigma_z_gap(self):
        H = make_family(SIGMA_Z, [SIGMA_X, SIGMA_X], [[-1, 1], [-1, 1]])
        assert gap(decompose(H, [0.0, 0.0]), 1) == pytest.approx(2.0)

    def test_radial_gap_is_twice_radius(self, two_level_cone):
        rng = np.random.default_rng(8)
        for _ in range(10):
            v = rng.standard_normal(2)
            v /= np.linalg.norm(v)
            t = float(rng.uniform(0.05, 0.9))
            sp = decompose(two_level_cone, t * v)
            assert gap(sp, 1) == pytest.approx(2 * t, rel=1e-12)

    def test_diag_gap(self, diag_family):
        sp = decompose(diag_family, [0.5, 0.0])
        assert gap(sp, 2) == pytest.approx(0.5)

    def test_out_of_range_index(self, two_level_cone):
        sp = decompose(two_level_cone, [0.3, 0.0])
        with pytest.raises(Exception):
            gap(sp, 2)

    @pytest.mark.parametrize("j", [0, 2, True, 1.0])
    def test_level_outside_1_to_n_minus_1_rejected(self, two_level_cone, j):
        # True passed the range test and then raised a bare TypeError
        sp = decompose(two_level_cone, [0.3, 0.0])
        with pytest.raises(PreconditionError, match="j must be an integer in 1..1"):
            sp.gap(j)

    @pytest.mark.parametrize("j, k", [(0, 1), (1, 0), (4, 1), (1, 2.0)])
    def test_gap_table_level_outside_1_to_n_rejected(self, three_level_chain, j, k):
        # (0, 1) wrapped round to the (n, 1) gap
        table = GapTable.from_point(decompose(three_level_chain, [0.2, 0.3]))
        with pytest.raises(PreconditionError, match="must be an integer in 1..3"):
            table(j, k)

    def test_gap_table_antisymmetric(self, three_level_chain):
        sp = decompose(three_level_chain, [0.2, 0.3])
        table = GapTable.from_point(sp)
        assert np.array_equal(table.gaps, -table.gaps.T)
        assert table(2, 1) == pytest.approx(sp.eigenvalues[1] - sp.eigenvalues[0])


class TestTrack:
    def test_no_crossing_keeps_sorted_labels(self, two_level_cone):
        path = [np.array([0.5, 0.3 + 0.02 * k]) for k in range(10)]
        tracked = track(two_level_cone, path)
        assert np.array_equal(tracked.labels, np.tile([1, 2], (10, 1)))

    def test_empty_path_raises(self, two_level_cone):
        with pytest.raises(StructuralError, match="path must contain at least one point"):
            track(two_level_cone, [])

    def test_straight_path_through_origin_swaps_labels(self, two_level_cone):
        path = [np.array([x, 0.0]) for x in np.linspace(-0.5, 0.5, 21)]
        tracked = track(two_level_cone, path)
        assert np.array_equal(tracked.labels[0], [1, 2])
        assert np.array_equal(tracked.labels[-1], [2, 1])
        # each labeled branch is analytic through the cone: value = -x and +x
        b1 = tracked.branch_values(1)
        xs = np.linspace(-0.5, 0.5, 21)
        assert np.allclose(b1, xs, atol=1e-10)

    def test_constant_path(self, three_level_chain):
        path = [np.array([0.1, 0.2])] * 5
        tracked = track(three_level_chain, path)
        for sp in tracked.points:
            assert np.array_equal(sp.eigenvalues, tracked.points[0].eigenvalues)

    def test_step_bound_violation(self, two_level_cone):
        with pytest.raises(RefinementNeededError):
            track(two_level_cone, [np.array([-0.9, 0.0]), np.array([0.9, 0.0])])

    @pytest.mark.parametrize("bound", HOSTILE_TOLERANCES)
    def test_hostile_step_bound_rejected(self, three_level_chain, bound):
        # nan and inf turned the refinement guard off, labelling across a step of 2.16
        path = [np.array([-0.5, -0.5]), np.array([1.3, 0.7])]
        with pytest.raises(RefinementNeededError):
            track(three_level_chain, path)
        with pytest.raises(PreconditionError, match="step_bound"):
            track(three_level_chain, path, step_bound=bound)

    def test_branch_lipschitz_bound(self, three_level_chain):
        rng = np.random.default_rng(3)
        start = np.array([-0.3, 0.4])
        stop = np.array([1.1, -0.4])
        path = [start + s * (stop - start) for s in np.linspace(0, 1, 40)]
        tracked = track(three_level_chain, path)
        L = sum(h.operator_norm() for h in three_level_chain.controlled)
        for b in range(1, 4):
            vals = tracked.branch_values(b)
            for k in range(len(path) - 1):
                step = np.linalg.norm(path[k + 1] - path[k])
                assert abs(vals[k + 1] - vals[k]) <= L * step + 1e-9

    @pytest.mark.parametrize("s", [1e-8, 1.0, 1e8])
    def test_lipschitz_bound_scales_with_the_family(self, three_level_chain, s):
        # the branch-jump margin is relative to H, so no unit-bearing floor remains
        path = [np.array([-0.3 + 0.01 * k, 0.4 - 0.005 * k]) for k in range(60)]
        bound = track(three_level_chain, path).lipschitz_bound
        scaled_bound = track(scaled(three_level_chain, s), path).lipschitz_bound
        assert scaled_bound == pytest.approx(s * bound, rel=1e-12)

    def test_branch_jump_raises(self, three_level_chain, monkeypatch):
        start = np.array([-0.3, 0.4])
        stop = np.array([1.1, -0.4])
        path = [start + s * (stop - start) for s in np.linspace(0, 1, 40)]
        vals = np.array([track(three_level_chain, path).branch_values(b) for b in (1, 2, 3)]).T
        # with the Lipschitz bound near zero, any branch move beyond the
        # degeneracy margin is a jump; the first one in (step, branch) order is reported
        jumps = np.abs(np.diff(vals, axis=0))
        k, b = np.argwhere(jumps > 2 * degeneracy_tol(three_level_chain))[0]
        monkeypatch.setattr(
            ControlHamiltonian, "control_norms", lambda self: np.full(self.m, 1e-30)
        )
        with pytest.raises(NumericalError, match="branch continuation jumped") as excinfo:
            track(three_level_chain, path)
        assert excinfo.value.residual == jumps[k, b]

    def test_branch_label_out_of_range(self, two_level_cone):
        tracked = track(two_level_cone, [np.array([0.5, 0.3])])
        with pytest.raises(PreconditionError):
            tracked.branch_values(3)

    @pytest.mark.parametrize("label", [0, True, 1.5])
    def test_branch_label_must_be_an_integer_label(self, two_level_cone, label):
        tracked = track(two_level_cone, [np.array([0.5, 0.3])])
        with pytest.raises(PreconditionError, match="label must be an integer in 1..2"):
            tracked.branch_values(label)

    def test_csv_export(self, tmp_path, two_level_cone):
        path = [np.array([x, 0.0]) for x in np.linspace(-0.2, 0.2, 5)]
        tracked = track(two_level_cone, path)
        target = tmp_path / "track.csv"
        save_track_csv(tracked, target)
        lines = target.read_text().strip().splitlines()
        assert lines[0] == "step,u_1,u_2,lambda_1,lambda_2,branch_1,branch_2"
        assert len(lines) == 6

    def test_csv_floats_read_back_bitwise(self, tmp_path, three_level_chain):
        path = [np.array([x, 0.3 * x - 0.1]) for x in np.linspace(-0.3, 1.1, 40)]
        tracked = track(three_level_chain, path)
        target = tmp_path / "track.csv"
        save_track_csv(tracked, target)
        with open(target, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [int(row[0]) for row in rows] == list(range(len(path)))
        assert [[float(cell) for cell in row[1:6]] for row in rows] == [
            [*sp.u.tolist(), *sp.eigenvalues.tolist()] for sp in tracked.points
        ]
        assert [[int(cell) for cell in row[6:]] for row in rows] == tracked.labels.tolist()


class TestNonFinitePoints:
    """A control point with a nan or an infinity is malformed input, rejected before any eigensolve."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_every_point_entry_rejects_it(self, monkeypatch, three_level_chain, bad):
        H = three_level_chain
        point = [bad, 0.5]

        def no_eigensolve(*args, **kwargs):
            raise AssertionError("an eigensolve ran on a non-finite point")

        monkeypatch.setattr(np.linalg, "eigh", no_eigensolve)
        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigensolve)
        calls = [
            lambda: H.matrix_at(point),
            lambda: H.matrices_at([[0.1, 0.2], point]),
            lambda: decompose(H, point),
            lambda: decompose_many(H, [[0.1, 0.2], point]),
            lambda: check_nonresonant(H, point),
            lambda: test_conicality(H, point, 1),
            lambda: track(H, [[0.1, 0.5], point]),
            lambda: track(H, [point, [0.1, 0.5]]),
        ]
        for call in calls:
            with pytest.raises(StructuralError, match="non-finite"):
                call()


# a malformed control point of each kind, with the message that names its fault;
# bools were read as 1.0 and 0.0, the rest raised a bare ValueError or TypeError
MALFORMED_POINTS = {
    "string": ("ab", "numbers"),
    "ragged": ([[0.1, 0.2], [0.3]], "rectangular"),
    "dict": ({"a": 1}, "numbers"),
    "bools": ([True, False], "numbers"),
}


# passes ``climb``'s certification check; its certificates are never read
CERTIFIED = ConnectednessReport(certificates={}, failures={}, status="certified", metadata={})


# every entry that takes a control point (u) or a stack of them (U), and converts it
POINT_ENTRIES = {
    "matrix_at": lambda H, u, U: H.matrix_at(u),
    "matrices_at": lambda H, u, U: H.matrices_at(U),
    "norm_bound": lambda H, u, U: H.norm_bound(u),
    "contains": lambda H, u, U: H.contains(u),
    "evaluate": lambda H, u, U: evaluate(H, u),
    "decompose": lambda H, u, U: decompose(H, u),
    "decompose_many": lambda H, u, U: decompose_many(H, U),
    "check_nonresonant": lambda H, u, U: check_nonresonant(H, u),
    "track": lambda H, u, U: track(H, U),
    "test_conicality": lambda H, u, U: test_conicality(H, u, 1),
    "climb": lambda H, u, U: climb(H, CERTIFIED, u, 1e-2),
}


class TestMalformedPoints:
    """A control point that is not m numbers raises StructuralError, before any eigensolve."""

    @pytest.mark.parametrize("kind", sorted(MALFORMED_POINTS))
    @pytest.mark.parametrize("entry", sorted(POINT_ENTRIES))
    def test_every_point_entry_rejects_it(self, monkeypatch, three_level_chain, entry, kind):
        point, message = MALFORMED_POINTS[kind]
        # a stack holding the point, or the malformed object itself where it is no list
        stack = [point] if kind == "bools" else point

        def no_eigensolve(*args, **kwargs):
            raise AssertionError("an eigensolve ran on a malformed point")

        monkeypatch.setattr(np.linalg, "eigh", no_eigensolve)
        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigensolve)
        with pytest.raises(StructuralError, match=message):
            POINT_ENTRIES[entry](three_level_chain, point, stack)


# per kind of malformed input: (a list of control points, a state of the chain, a
# 2 x 2 matrix) holding it, and what the refusal says
MALFORMED_INPUTS = {
    "string": ([["0.1", "0.2"]], ["1", "0", "0"], [["1", "0"], ["0", "1"]], "must hold numbers"),
    "ragged": ([[0.1, 0.2], [0.3]], [1.0, [0.0, 0.0]], [[1.0, 0.0], [0.0]], "not a rectangular"),
    "dict": ([{"u": 0.1}], {"psi": 1.0}, {"a": 1.0}, "must hold numbers"),
    "bools": (
        [[True, False]], [True, False, False], [[True, False], [False, True]], "must hold numbers"
    ),
}

HELD = ControlPath(waypoints=(np.array([0.1, 0.1]),), durations=np.array([1.0]), epsilon=1.0)

# every entry that reads a list of control points, a state or a matrix: (the
# error it raises, the call given the family and the three malformed inputs)
INPUT_ENTRIES = {
    "locate_intersection:seeds": (
        PreconditionError, lambda H, U, psi, a: locate_intersection(H, 1, U)
    ),
    "certify_connectedness:hints": (
        PreconditionError, lambda H, U, psi, a: certify_connectedness(H, 2, hints=U)
    ),
    "propagate:psi0": (StructuralError, lambda H, U, psi, a: propagate(H, HELD, psi)),
    "from_array": (StructuralError, lambda H, U, psi, a: HermitianOperator.from_array(a)),
    "validate": (StructuralError, lambda H, U, psi, a: validate(a)),
    "hermiticity_defect": (StructuralError, lambda H, U, psi, a: hermiticity_defect(a)),
}


class TestMalformedInputs:
    """Seeds, hints, states and matrix entries take the contract control points take,
    and are refused before any eigensolve."""

    @pytest.mark.parametrize("kind", sorted(MALFORMED_INPUTS))
    @pytest.mark.parametrize("entry", sorted(INPUT_ENTRIES))
    def test_every_entry_rejects_it(self, monkeypatch, three_level_chain, entry, kind):
        # string seeds and bools ran as numbers, and the other kinds raised a bare
        # ValueError or TypeError, or a PreconditionError that did not say why
        *inputs, reason = MALFORMED_INPUTS[kind]
        error, call = INPUT_ENTRIES[entry]

        def no_eigensolve(*args, **kwargs):
            raise AssertionError("an eigensolve ran on a malformed input")

        monkeypatch.setattr(np.linalg, "eigh", no_eigensolve)
        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigensolve)
        with pytest.raises(error, match=reason):
            call(three_level_chain, *inputs)

    def test_first_seed_outside_the_box_is_named(self, three_level_chain):
        seeds = [[0.1, 0.2], [2.0, 0.0], [np.nan, 0.0], [0.2, 0.1]]
        with pytest.raises(PreconditionError, match=r"seed \[2.0, 0.0\] lies outside"):
            locate_intersection(three_level_chain, 1, seeds)
        with pytest.raises(PreconditionError, match=r"seed \[nan, 0.0\] lies outside"):
            locate_intersection(three_level_chain, 1, seeds[2:])

    def test_a_nan_matrix_is_validated_not_refused(self):
        report = validate(np.array([[np.nan, 0.0], [0.0, 1.0]]))
        assert report.dim == 2 and not report.accepted


def planted_cone_family(seed: int, n: int, real: bool, level: int, apex) -> ControlHamiltonian:
    """Random m=2 family over [-2, 2]^2 whose levels ``level``, ``level`` + 1 meet at ``apex``."""
    rng = np.random.default_rng(seed)
    draw = random_symmetric if real else random_hermitian
    drift, h1, h2 = (draw(rng, n) for _ in range(3))
    at_apex = drift + apex[0] * h1 + apex[1] * h2
    lam, vecs = np.linalg.eigh(at_apex)
    lam[level] = lam[level - 1]
    drift = drift + (vecs * lam) @ vecs.conj().T - at_apex
    return make_family((drift + drift.conj().T) / 2, [h1, h2], [[-2, 2], [-2, 2]])


class TestContinueBranches:
    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 8),
        real=st.booleans(),
        kind=st.sampled_from(["walk", "cone", "apex"]),
        cut=st.integers(1, 60),
    )
    def test_labels_match_greedy_reference(self, seed, n, real, kind, cut):
        rng = np.random.default_rng(seed)
        apex = rng.uniform(-1, 1, 2)
        level = int(rng.integers(1, n))
        H = planted_cone_family(seed, n, real, level, apex)
        tol = degeneracy_tol(H)
        if kind == "walk":
            path = np.cumsum(rng.normal(0, 0.05, (40, 2)), axis=0) + apex
        else:
            # s = 0 is the apex exactly; "apex" stays there for five points
            s = np.arange(-20, 21) / 20
            if kind == "apex":
                s = np.concatenate([s[:20], np.zeros(4), s[20:]])
            direction = rng.normal(size=2)
            path = apex + 0.5 * s[:, None] * direction / np.linalg.norm(direction)
        points = decompose_many(H, path)
        lam = np.array([sp.eigenvalues for sp in points])
        frames = np.array([sp.frame for sp in points])
        if kind != "walk":
            assert np.any(np.diff(lam, axis=1) <= tol)
        labels, _ = continue_branches(lam, frames, tol)
        assert np.array_equal(labels, reference_labels(points, tol))
        # split in two, carrying the reference, the stack labels the same
        cut = min(cut, len(path) - 1)
        head, ref = continue_branches(lam[:cut], frames[:cut], tol)
        tail, _ = continue_branches(lam[cut:], frames[cut:], tol, ref)
        assert np.array_equal(np.vstack([head, tail]), labels)


    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 8), count=st.integers(1, 6))
    def test_ties_broken_in_index_order(self, seed, n, count):
        # overlaps from small integers tie often; gaps equal to tol do not exceed
        # it, so every point is matched against the first, the identity
        rng = np.random.default_rng(seed)
        frames = np.concatenate([np.eye(n)[None], rng.integers(0, 3, (count, n, n))])
        lam = np.tile(np.arange(n, dtype=float), (count + 1, 1))
        labels, _ = continue_branches(lam, frames, tol=1.0)
        expected = [_greedy_match(np.eye(n), frame) + 1 for frame in frames]
        assert np.array_equal(labels, expected)


class TestWeylBound:
    def test_sampled_pairs(self, three_level_chain):
        rng = np.random.default_rng(21)
        norms = three_level_chain.control_norms()
        for _ in range(100):
            u = rng.uniform(-0.5, 0.5, 2)
            v = rng.uniform(-0.5, 0.5, 2)
            lu = decompose(three_level_chain, u).eigenvalues
            lv = decompose(three_level_chain, v).eigenvalues
            bound = float(np.abs(u - v) @ norms)
            assert np.max(np.abs(lu - lv)) <= bound + 1e-10
