import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speccert import (
    HermitianOperator,
    NumericalError,
    PreconditionError,
    check_nonresonant,
    decompose,
    sample_nonresonant,
)
from speccert.operators import ControlHamiltonian
from conftest import HOSTILE_TOLERANCES, make_family
from ensemble_reference import _random_family


def family_with_fixed_spectrum(diag_entries):
    """Controls act as zero matrices, freezing the spectrum at the drift's."""
    n = len(diag_entries)
    return make_family(
        np.diag(np.asarray(diag_entries, dtype=float)),
        [np.zeros((n, n)), np.zeros((n, n))],
        [[-1, 1], [-1, 1]],
    )


class TestCheckNonresonant:
    def test_distinct_gaps_pass(self):
        # gaps of {0,1,3} are {1,2,3}; closest pair differs by 1
        H = family_with_fixed_spectrum([0.0, 1.0, 3.0])
        report = check_nonresonant(H, [0.0, 0.0])
        assert report.passed
        assert report.simple
        assert report.min_gap_separation == pytest.approx(1.0)

    def test_equally_spaced_fails(self):
        H = family_with_fixed_spectrum([0.0, 1.0, 2.0])
        report = check_nonresonant(H, [0.0, 0.0])
        assert not report.passed
        assert report.min_gap_separation == pytest.approx(0.0, abs=1e-12)

    def test_two_levels_vacuous(self, two_level_cone):
        report = check_nonresonant(two_level_cone, [0.3, 0.4])
        assert report.passed
        assert report.min_gap_separation == np.inf

    def test_degenerate_point_fails_simplicity(self, two_level_cone):
        report = check_nonresonant(two_level_cone, [0.0, 0.0])
        assert not report.simple
        assert not report.passed

    def test_small_perturbation_keeps_distinct_gaps(self):
        rng = np.random.default_rng(17)
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3))
        H = make_family(
            np.diag([0.0, 1.0, 3.0]),
            [0.01 * (a + a.T), 0.01 * (b + b.T)],
            [[-1, 1], [-1, 1]],
        )
        assert check_nonresonant(H, [0.0, 0.0]).passed

    @pytest.mark.parametrize("tau", HOSTILE_TOLERANCES)
    def test_hostile_threshold_rejected(self, tau):
        # nan and inf called every point resonant, 0 and -1 every point non-resonant
        H = _random_family(np.random.default_rng(0), 4, 2, 3.0)
        with pytest.raises(PreconditionError, match="tau_res must be finite and positive"):
            check_nonresonant(H, [0.5, -1.0], tau_res=tau)

    def test_frame_independent(self, three_level_chain):
        # the decision uses eigenvalues only; recomputing must agree exactly
        r1 = check_nonresonant(three_level_chain, [0.2, 0.1])
        r2 = check_nonresonant(three_level_chain, [0.2, 0.1])
        assert r1.min_gap_separation == r2.min_gap_separation
        assert r1.passed == r2.passed

    def test_scaling_covariance(self, three_level_chain):
        s = 3.7
        scaled = ControlHamiltonian(
            drift=HermitianOperator(s * three_level_chain.drift.matrix),
            controlled=tuple(
                HermitianOperator(s * h.matrix) for h in three_level_chain.controlled
            ),
            box=three_level_chain.box,
        )
        rng = np.random.default_rng(23)
        for _ in range(25):
            u = rng.uniform(-0.5, 0.5, 2)
            base = check_nonresonant(three_level_chain, u)
            big = check_nonresonant(scaled, u)
            assert big.min_gap_separation == pytest.approx(
                s * base.min_gap_separation, rel=1e-9
            )
            assert big.passed == base.passed


def brute_force_min_separation(lam) -> float:
    """Smallest |g_a - g_b| over all pairs of unordered gaps g = lam_k - lam_j, j < k."""
    n = len(lam)
    gaps = [lam[k] - lam[j] for j in range(n) for k in range(j + 1, n)]
    pairs = [abs(a - b) for i, a in enumerate(gaps) for b in gaps[i + 1 :]]
    return min(pairs) if pairs else np.inf


class TestGapSeparation:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.one_of(st.integers(-4, 4).map(float), st.floats(-10, 10, allow_nan=False)),
            min_size=2,
            max_size=8,
        )
    )
    def test_matches_brute_force(self, entries):
        H = family_with_fixed_spectrum(entries)
        lam = decompose(H, [0.0, 0.0]).eigenvalues
        report = check_nonresonant(H, [0.0, 0.0])
        assert report.min_gap_separation == brute_force_min_separation(lam)


class TestSampleNonresonant:
    def test_two_level_found_immediately(self, two_level_cone):
        out = sample_nonresonant(two_level_cone, budget=20, rng_seed=1)
        assert out.found
        assert out.acceptance_rate > 0.9  # only u = 0 is degenerate

    def test_generic_family_found(self, three_level_chain):
        out = sample_nonresonant(three_level_chain, budget=50, rng_seed=1)
        assert out.found
        assert out.report.passed

    def test_frozen_equally_spaced_not_found(self):
        H = family_with_fixed_spectrum([0.0, 1.0, 2.0])
        out = sample_nonresonant(H, budget=30, rng_seed=1)
        assert not out.found
        assert out.acceptance_rate == 0.0
        assert out.tried == 30

    @pytest.mark.parametrize("tau", HOSTILE_TOLERANCES)
    def test_hostile_threshold_rejected(self, tau):
        # nan and inf gave an acceptance rate of 0.0, 0 and -1 one of 1.0 on any family
        H = _random_family(np.random.default_rng(0), 4, 2, 3.0)
        with pytest.raises(PreconditionError, match="tau_res must be finite and positive"):
            sample_nonresonant(H, budget=50, rng_seed=1, tau_res=tau)

    @pytest.mark.parametrize("budget", [0, 2.5, True])
    def test_budget_must_be_a_positive_integer(self, three_level_chain, budget):
        # 2.5 raised a bare TypeError from the draw
        with pytest.raises(PreconditionError, match="budget must be an integer >= 1"):
            sample_nonresonant(three_level_chain, budget=budget, rng_seed=7)

    @pytest.mark.parametrize("rng_seed", [-1, 7.0, True])
    def test_seed_must_be_a_non_negative_integer(self, three_level_chain, rng_seed):
        # -1 raised numpy's ValueError from the generator
        with pytest.raises(PreconditionError, match="rng_seed must be an integer >= 0"):
            sample_nonresonant(three_level_chain, budget=5, rng_seed=rng_seed)

    def test_deterministic_for_fixed_seed(self, three_level_chain):
        a = sample_nonresonant(three_level_chain, budget=25, rng_seed=7)
        b = sample_nonresonant(three_level_chain, budget=25, rng_seed=7)
        assert np.array_equal(a.report.u_bar, b.report.u_bar)

    def test_report_json(self, three_level_chain):
        out = sample_nonresonant(three_level_chain, budget=25, rng_seed=7)
        doc = out.to_json_dict()
        assert doc["found"]
        assert "acceptance_rate" in doc
        assert "min_gap_separation" in doc["report"]
        assert "rational independence" in doc["report"]["certified_property"]

    @pytest.mark.parametrize("seed", [0, 7, 11])
    def test_matches_per_candidate_checks(self, three_level_chain, seed):
        _assert_matches_per_candidate_checks(three_level_chain, 60, seed)

    @pytest.mark.parametrize("n, m", [(3, 2), (4, 2), (8, 2), (3, 3)])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_matches_per_candidate_checks_on_random_families(self, n, m, seed):
        # the families certify_random draws (real, m = 2, box [-3, 3]^2), and complex m = 3 ones
        H = _random_family(np.random.default_rng(100 + seed), n, m, 3.0)
        _assert_matches_per_candidate_checks(H, 200, seed)

    def test_trace_defect_raises(self, three_level_chain, monkeypatch):
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: eigvalsh(a) + 1.0)
        with pytest.raises(NumericalError, match="eigenvalue sum does not match trace"):
            sample_nonresonant(three_level_chain, budget=20, rng_seed=1)

    def test_screened_passes_whose_check_fails_are_passed_over(self, monkeypatch):
        # a screen that reads the frozen spectrum {0, 1, 2} as {0, 0.9, 2.1}, with the
        # same trace and distinct gaps, passes every candidate; each checked report fails
        H = family_with_fixed_spectrum([0.0, 1.0, 2.0])
        H.energy_scale  # the family's cached scale, from the true eigenvalues
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: np.tile([0.0, 0.9, 2.1], (len(a), 1)))
        sample = sample_nonresonant(H, 10, 1)
        assert (sample.found, sample._point, sample.acceptance_rate) == (False, None, 1.0)

    def test_non_convergence_raises_a_numerical_error(self, three_level_chain, monkeypatch):
        def failing(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", failing)
        with pytest.raises(NumericalError, match="eigensolver did not converge on 20 point"):
            sample_nonresonant(three_level_chain, budget=20, rng_seed=1)


def _assert_matches_per_candidate_checks(H, budget: int, seed: int) -> None:
    """``sample_nonresonant`` reads as ``check_nonresonant`` at every candidate would."""
    out = sample_nonresonant(H, budget=budget, rng_seed=seed)
    # the candidates as sample_nonresonant draws them, checked one at a time
    rng = np.random.default_rng(seed)
    lo, hi = H.box[:, 0], H.box[:, 1]
    reports = [check_nonresonant(H, u) for u in lo + rng.random((budget, H.m)) * (hi - lo)]
    passed = [r for r in reports if r.passed]
    assert out.acceptance_rate == len(passed) / budget
    assert np.array_equal(out.report.u_bar, passed[0].u_bar)
    assert out.report.to_json_dict() == passed[0].to_json_dict()
    # the chosen point rides along as decompose returns it, in no document or repr
    sp = decompose(H, passed[0].u_bar)
    assert np.array_equal(out._point.eigenvalues, sp.eigenvalues)
    assert np.array_equal(out._point.frame, sp.frame)
    assert "_point" not in repr(out) and "_point" not in out.to_json_dict()
