import functools
import importlib
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from speccert import (
    CertifyConfig,
    ControlHamiltonian,
    GapTable,
    HermitianOperator,
    NumericalError,
    PreconditionError,
    build_graph,
    certify,
    certify_connectedness,
    check_nonresonant,
    climb,
    closure,
    decompose,
    ensemble_genericity,
    generators_from,
    sample_nonresonant,
    test_conicality,
    track,
)
from speccert.certify import _perturbed_stacks
from speccert.sampling import _halton_unit, box_sequence, random_hermitian, random_symmetric
from conftest import HOSTILE_TOLERANCES, SIGMA_X, SIGMA_Z, make_family, random_family, scaled
from ensemble_reference import _random_family, reference_trials


def _evidence(H):
    """The parts of a certificate that must not depend on the energy unit."""
    cert = certify(H)
    report = cert.connectedness
    return {
        "status": report.status,
        "certified": set(report.certificates),
        "failed": set(report.failures),
        "verdict": cert.verdict,
        "resonance_found": cert.resonance.found,
        "graph_connected": cert.graph_connected,
    }


class TestCertify:
    def test_two_level_cone_certified_su2(self, two_level_cone):
        cert = certify(two_level_cone, CertifyConfig(rng_seed=1))
        assert cert.verdict == "exactly-controllable-SU(2)"
        assert cert.controllable
        assert cert.closure_result.dimension == 3
        assert cert.connectedness.certified
        assert cert.graph_connected
        assert cert.agreement["spectral_pipeline_predicts_controllable"]
        assert cert.agreement["consistent"]

    def test_diag_counterexample_not_certified(self, diag_family):
        cert = certify(diag_family, CertifyConfig(rng_seed=1, seed_budget=4))
        assert cert.verdict == "not-certified"
        assert not cert.controllable
        assert cert.closure_result.dimension == 2
        assert cert.connectedness.status == "incomplete"
        assert cert.graph_connected is False
        assert cert.agreement["consistent"]

    def test_random_symmetric_triple_controllable(self):
        rng = np.random.default_rng(101)
        mats = [random_symmetric(rng, 3) for _ in range(3)]
        H = make_family(mats[0], mats[1:], [[-3, 3], [-3, 3]])
        cert = certify(H, CertifyConfig(rng_seed=2, seed_budget=6))
        assert cert.closure_result.dimension in (8, 9)
        assert cert.controllable
        # cross-check the bracket engine against an independent generator order
        reordered = closure(list(reversed(generators_from(H))))
        assert reordered.dimension == cert.closure_result.dimension

    def test_certificate_reproducible_byte_for_byte(self, two_level_cone):
        cfg = CertifyConfig(rng_seed=5, seed_budget=4, resonance_budget=40)
        a = certify(two_level_cone, cfg).to_json()
        b = certify(two_level_cone, cfg).to_json()
        assert a == b

    def test_soundness_under_tightened_tolerance(self, two_level_cone):
        cert = certify(two_level_cone, CertifyConfig(rng_seed=1))
        assert cert.controllable
        tightened = closure(generators_from(two_level_cone), rank_tol=1e-10)
        assert tightened.dimension == cert.closure_result.dimension

    def test_provenance_records_inputs(self, two_level_cone):
        cfg = CertifyConfig(rng_seed=9, seed_budget=5, resonance_budget=33)
        cert = certify(two_level_cone, cfg)
        assert cert.provenance["rng_seed"] == 9
        assert cert.provenance["seed_budget"] == 5
        assert cert.provenance["resonance_budget"] == 33
        assert cert.provenance["tau_deg"] > 0

    def test_json_schema_versioned(self, two_level_cone):
        doc = certify(two_level_cone, CertifyConfig(rng_seed=1)).to_json_dict()
        assert doc["schema_version"] == "speccert-certificate/1"
        assert set(doc) >= {
            "connectedness",
            "resonance",
            "graph",
            "closure",
            "verdict",
            "agreement",
            "provenance",
        }


    def test_linalg_error_is_a_stage_error(self, two_level_cone, monkeypatch):
        def failing_closure(generators):
            raise np.linalg.LinAlgError("SVD did not converge")

        # the package re-exports the function certify, which shadows the module
        monkeypatch.setattr(importlib.import_module("speccert.certify"), "closure", failing_closure)
        cert = certify(two_level_cone, CertifyConfig(rng_seed=1))
        assert cert.errors == ("closure: SVD did not converge",)
        assert cert.closure_result is None
        assert cert.verdict == "not-certified"
        assert cert.connectedness.certified
        assert cert.resonance.found
        assert cert.graph_connected

    @pytest.mark.parametrize("field", ["tol_deg", "tol_res"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0, 0.0])
    def test_hostile_tolerance_rejected(self, field, value):
        # tol_res = nan made the spectral pipeline predict False without a word
        with pytest.raises(PreconditionError, match=f"{field} must be finite and positive"):
            CertifyConfig(**{field: value})

    def test_tolerance_overrides_accepted(self):
        cfg = CertifyConfig(tol_deg=1e-9, tol_res=1e-6)
        assert (cfg.tol_deg, cfg.tol_res) == (1e-9, 1e-6)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("rng_seed", -1), ("rng_seed", 1.0), ("seed_budget", 0), ("seed_budget", True),
            ("resonance_budget", 0), ("resonance_budget", 2.5),
        ],
    )
    def test_malformed_seed_or_budget_rejected(self, field, value):
        # seed_budget = 0 certified the two-level cone, its refusal kept only as a stage
        # error, and rng_seed = -1 escaped certify as numpy's ValueError
        with pytest.raises(PreconditionError, match=f"{field} must be an integer"):
            CertifyConfig(**{field: value})


def _fail_first_row(monkeypatch):
    """Make the conicality test's stacked eigendecomposition fail its checks at its first point."""

    def failed_rows(mats, U, lam, vecs):
        return {0: NumericalError(f"planted failure at u={U[0].tolist()}", residual=1.0)}

    monkeypatch.setattr(importlib.import_module("speccert.conical"), "_failed_rows", failed_rows)


class TestFailedDecompositionAtALocatedPoint:
    def test_conicality_raises(self, two_level_cone, monkeypatch):
        _fail_first_row(monkeypatch)
        with pytest.raises(NumericalError, match="planted failure at u=\\[0.0, 0.0\\]"):
            test_conicality(two_level_cone, [0.0, 0.0], 1)

    def test_connectedness_reraises(self, two_level_cone, monkeypatch):
        _fail_first_row(monkeypatch)
        with pytest.raises(NumericalError, match="planted failure"):
            certify_connectedness(two_level_cone, 4)

    def test_certify_records_it_and_still_judges_the_closure(self, two_level_cone, monkeypatch):
        _fail_first_row(monkeypatch)
        cert = certify(two_level_cone, CertifyConfig(rng_seed=1))
        assert len(cert.errors) == 1
        assert cert.errors[0].startswith("connectedness: planted failure at u=")
        assert cert.connectedness is None
        assert cert.closure_result.dimension == 3
        assert cert.verdict == "exactly-controllable-SU(2)"

    def test_ensemble_counts_it_located_not_conical(self, monkeypatch):
        want = ensemble_genericity(3, 2, 2, 0)
        _fail_first_row(monkeypatch)
        got = ensemble_genericity(3, 2, 2, 0)
        # the first located point is the first trial's lowest located level
        assert want.per_trial[0].conical >= 1
        assert got.located_total == want.located_total
        assert got.conical_total == want.conical_total - 1
        assert got.per_trial[0].located == want.per_trial[0].located
        assert got.per_trial[0].conical == want.per_trial[0].conical - 1
        assert got.per_trial[1:] == want.per_trial[1:]


class TestResonanceStageSolves:
    def test_candidates_are_screened_and_one_point_decomposed(self, monkeypatch):
        # one eigenvalue-only solve over the candidates and one checked eigh row for
        # the chosen point, which the graph reuses (was budget + 1 eigh rows)
        H = _random_family(np.random.default_rng(3), 4, 2, 3.0)
        H.energy_scale, H.control_norms()  # the family's cached scales, solved once per family
        solves = []
        for name in ("eigh", "eigvalsh"):
            solve = getattr(np.linalg, name)
            counted = lambda a, name=name, solve=solve: solves.append((name, len(a))) or solve(a)
            monkeypatch.setattr(np.linalg, name, counted)

        def skipped(*args, **kwargs):
            raise NumericalError("not run here")

        module = importlib.import_module("speccert.certify")
        monkeypatch.setattr(module, "certify_connectedness", skipped)
        cert = certify(H, CertifyConfig(resonance_budget=50))
        assert cert.resonance.found and cert.graph is not None
        assert cert.errors == ("connectedness: not run here",)
        assert solves == [("eigvalsh", 50), ("eigh", 1)]


class TestArithmeticField:
    """The dtypes ``certify`` sends to ``eigh`` and ``eigvalsh`` in every stage: float64
    for a real family, complex128 for a complex one."""

    @staticmethod
    def _certify_recording_dtypes(monkeypatch, H):
        seen = set()
        for name in ("eigh", "eigvalsh"):
            solve = getattr(np.linalg, name)

            def recorded(a, *args, solve=solve, **kwargs):
                seen.add(np.asarray(a).dtype)
                return solve(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, recorded)
        return certify(H), seen

    def test_real_family_sends_float64(self, monkeypatch):
        # the family the benchmark's certify_random draws from this generator at n = 4
        H = _random_family(np.random.default_rng(3), 4, 2, 3.0)
        cert, seen = self._certify_recording_dtypes(monkeypatch, H)
        assert cert.connectedness.certificates and cert.graph is not None
        assert seen == {np.dtype(np.float64)}

    def test_complex_family_sends_complex128(self, monkeypatch):
        # three controls, since a complex family's crossings have codimension 3
        H = random_family(3, 4, 3)
        cert, seen = self._certify_recording_dtypes(monkeypatch, H)
        assert cert.connectedness.certificates and cert.graph is not None
        assert seen == {np.dtype(np.complex128)}


class TestEnergyUnit:
    @settings(
        max_examples=4, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(k=st.integers(-8, 8))
    @example(k=-8)
    @example(k=8)
    def test_evidence_invariant_under_scaling(self, three_level_chain, k):
        assert _evidence(scaled(three_level_chain, 10.0**k)) == _evidence(three_level_chain)

    def test_random_families_keep_their_certified_levels(self):
        # certify_random's first 36 families of bench seed 0 (n cycling 3, 4, 8)
        # in energy units a million times larger and ten million times smaller;
        # 29 of them are certified, with 137 certified levels in all
        statuses, levels = set(), 0
        for k, child in enumerate(np.random.SeedSequence(0).spawn(36)):
            H = _random_family(np.random.default_rng(child), (3, 4, 8)[k % 3], 2, 3.0)
            base = certify_connectedness(H, 8)
            statuses.add(base.status)
            levels += len(base.certificates)
            for s in (1e6, 1e-7):
                report = certify_connectedness(scaled(H, s), 8)
                assert report.status == base.status
                assert set(report.certificates) == set(base.certificates)
                for j, cert in report.certificates.items():
                    moved = np.abs(cert.u_star - base.certificates[j].u_star)
                    assert np.max(moved) <= 1e-6
        assert statuses == {"certified", "incomplete"} and levels == 137


def _traceless_family(seed, n, offset):
    """Random traceless complex family over [-2, 2]^2, its drift shifted by offset * I."""
    rng = np.random.default_rng(seed)
    ops = [random_hermitian(rng, n) for _ in range(3)]
    ops = [a - np.trace(a).real / n * np.eye(n) for a in ops]
    ops[0] = ops[0] + offset * np.eye(n)
    return make_family(ops[0], ops[1:], [[-2.0, 2.0], [-2.0, 2.0]])


class TestEnergyOffset:
    """Shifting the energy zero moves no verdict: su(n) is decided by dimension."""

    @settings(max_examples=12, deadline=None)
    @given(
        n=st.integers(2, 6),
        seed=st.integers(0, 2**16),
        offset=st.one_of(st.just(0.0), st.floats(-12, -6).map(lambda k: 10.0**k)),
    )
    @example(n=4, seed=0, offset=1e-10)
    def test_verdict_invariant_under_energy_offset(self, n, seed, offset):
        # the verdict comes from the closure alone, so small budgets suffice
        cfg = CertifyConfig(seed_budget=1, resonance_budget=1)
        base = certify(_traceless_family(seed, n, 0.0), cfg)
        shifted = certify(_traceless_family(seed, n, offset), cfg)
        assert shifted.controllable == base.controllable
        assert (
            shifted.transitivity.controllable_on_sphere
            == base.transitivity.controllable_on_sphere
        )


class TestEnsemble:
    def test_small_real_symmetric_ensemble(self):
        summary = ensemble_genericity(n=3, m=2, trials=4, rng_seed=7)
        assert summary.trials == 4
        assert summary.located_total >= 1
        assert summary.conical_fraction is not None
        assert summary.conical_fraction >= 0.5
        assert len(summary.per_trial) == 4

    @pytest.mark.parametrize("n, m, rng_seed", [(3, 2, 7), (4, 3, 3)])
    def test_per_trial_counts_match_the_per_level_loop(self, n, m, rng_seed):
        summary = ensemble_genericity(n=n, m=m, trials=12, rng_seed=rng_seed)
        assert summary.per_trial == reference_trials(n, m, 12, rng_seed)

    @pytest.mark.parametrize("n, m", [(2, 2), (4, 2), (6, 2), (3, 3), (5, 3)])
    def test_per_trial_counts_match_the_per_level_loop_across_sizes(self, n, m):
        for rng_seed in range(3):
            summary = ensemble_genericity(n=n, m=m, trials=6, rng_seed=rng_seed)
            assert summary.per_trial == reference_trials(n, m, 6, rng_seed)

    @pytest.mark.parametrize("perturbation", HOSTILE_TOLERANCES)
    def test_hostile_perturbation_rejected(self, perturbation):
        # -1e-3 reported no intersection as persisting, 0 every one, and nan let
        # a LinAlgError escape
        with pytest.raises(PreconditionError, match="perturbation must be finite and positive"):
            ensemble_genericity(3, 2, 5, 11, perturbation=perturbation)

    @pytest.mark.parametrize("halfwidth", [*HOSTILE_TOLERANCES, "3", True])
    def test_hostile_box_halfwidth_rejected(self, halfwidth):
        # "3" raised a bare TypeError, and True ran on [-1, 1]^2
        with pytest.raises(PreconditionError, match="box_halfwidth must be finite and positive"):
            ensemble_genericity(3, 2, 5, 11, box_halfwidth=halfwidth)

    @pytest.mark.parametrize("count", [0, -2])
    def test_seeds_per_level_must_be_positive(self, count):
        # 0 located nothing, and -2 raised a bare ValueError
        with pytest.raises(PreconditionError, match="seeds_per_level must be an integer >= 1"):
            ensemble_genericity(3, 2, 5, 11, seeds_per_level=count)

    def test_trial_seeds_are_each_trials_box_sequence(self, monkeypatch):
        module = importlib.import_module("speccert.certify")
        calls = []
        locate = module._locate_groups
        monkeypatch.setattr(module, "_locate_groups", lambda g: calls.append(g) or locate(g))
        ensemble_genericity(n=4, m=2, trials=7, rng_seed=41, seeds_per_level=5)
        box = np.array([[-3.0, 3.0]] * 2)
        groups = calls[0]  # the cold solve: three levels per trial, trial by trial
        assert len(groups) == 21
        for i, (_, _, level, seeds, _) in enumerate(groups):
            assert level == i % 3 + 1
            assert np.array_equal(seeds, box_sequence(box, 5, 41 + 1000 + i // 3))

    def test_trial_tables_stay_out_of_the_halton_cache(self):
        # each trial's seed table was built once and cached, and never hit again
        _halton_unit.cache_clear()
        ensemble_genericity(n=3, m=2, trials=30, rng_seed=8)
        assert _halton_unit.cache_info().currsize < 30

    def test_trials_do_not_depend_on_the_trial_count(self):
        few = ensemble_genericity(n=3, m=2, trials=3, rng_seed=5)
        many = ensemble_genericity(n=3, m=2, trials=9, rng_seed=5)
        assert few.per_trial == many.per_trial[:3]

    @pytest.mark.parametrize("m, draw", [(2, random_symmetric), (3, random_hermitian)])
    def test_perturbation_matches_a_per_operator_reference(self, m, draw):
        H = _random_family(np.random.default_rng(3), 4, m, 3.0)
        # a zero operator keeps its noise at the 1e-300 floor
        H = ControlHamiltonian(
            drift=H.drift, controlled=(*H.controlled[:-1], HermitianOperator(np.zeros((4, 4)))),
            box=H.box,
        )
        got = _perturbed_stacks(H._stack[None], [np.random.default_rng(7)], 1e-3)[0]
        rng = np.random.default_rng(7)
        for op, bumped in zip([H.drift, *H.controlled], got):
            scale = 1e-3 * max(float(np.max(np.abs(np.linalg.eigvalsh(op.matrix)))), 1e-300)
            assert np.array_equal(bumped, op.matrix + scale * draw(rng, 4))

    @pytest.mark.parametrize(
        "args, kwargs, name",
        [
            ((3, 2, 2.5, 1), {}, "trials"),
            ((3, 2, True, 1), {}, "trials"),
            ((3, 2, 2, -1), {}, "rng_seed"),
            ((3.0, 2, 2, 1), {}, "n"),
            ((3, 4, 2, 1), {}, "m"),
            ((3, 2, 2, 1), {"seeds_per_level": 2.5}, "seeds_per_level"),
        ],
    )
    def test_malformed_count_or_seed_rejected(self, args, kwargs, name):
        # trials = 2.5 raised a bare TypeError and rng_seed = -1 numpy's ValueError
        with pytest.raises(PreconditionError, match=f"{name} must be an integer"):
            ensemble_genericity(*args, **kwargs)

    def test_invalid_n_rejected(self):
        with pytest.raises(PreconditionError, match="n must be an integer >= 2"):
            ensemble_genericity(n=1, m=2, trials=1, rng_seed=0)

    def test_hermitian_ensemble_runs(self):
        summary = ensemble_genericity(n=3, m=3, trials=2, rng_seed=7)
        assert summary.trials == 2

    def test_vacuous_statistics_reported_as_none(self):
        # a box too small for any gap to close: nothing located, fractions n/a
        summary = ensemble_genericity(n=3, m=2, trials=1, rng_seed=7, box_halfwidth=1e-4)
        assert summary.located_total == 0
        assert summary.conical_fraction is None
        assert summary.persistence_fraction is None

    def test_reproducible(self):
        a = ensemble_genericity(n=3, m=2, trials=2, rng_seed=3)
        b = ensemble_genericity(n=3, m=2, trials=2, rng_seed=3)
        assert a.to_json_dict() == b.to_json_dict()

    def test_invalid_m_rejected(self):
        with pytest.raises(Exception):
            ensemble_genericity(n=3, m=4, trials=1, rng_seed=0)

    def test_csv_export(self, tmp_path):
        summary = ensemble_genericity(n=3, m=2, trials=2, rng_seed=3)
        target = tmp_path / "trials.csv"
        summary.save_trials_csv(target)
        lines = target.read_text().strip().splitlines()
        assert lines[0].startswith("trial,located,conical")
        assert len(lines) == 3


def _records():
    """One record of each result kind, built from the two-level cone."""
    H = make_family(np.zeros((2, 2)), [SIGMA_X, SIGMA_Z], [[-1, 1], [-1, 1]])
    u = np.array([0.3, 0.4])
    report = certify_connectedness(H, 6, rng_seed=3)
    climbed = climb(H, report, u, epsilon=1e-2)
    sp = decompose(H, u)
    return {
        "ConicalCertificate": report.certificates[1],
        "ConicalityResult": test_conicality(H, np.zeros(2), 1),
        "ConnectednessReport": report,
        "ControlPath": climbed.path,
        "StateTrajectory": climbed.trajectory,
        "ClimbResult": climbed,
        "ControllabilityCertificate": certify(H, CertifyConfig(seed_budget=2, resonance_budget=5)),
        "SpectralPoint": sp,
        "GapTable": GapTable.from_point(sp),
        "TrackedSpectrum": track(H, [u, 1.1 * u]),
        "ResonanceReport": check_nonresonant(H, u),
        "NonresonantSample": sample_nonresonant(H, 5, rng_seed=0),
        "CouplingGraph": build_graph(H, sp),
    }


@functools.lru_cache(maxsize=None)
def _record_pairs():
    """Two separately built records of each kind, with equal contents."""
    first, second = _records(), _records()
    return {kind: (first[kind], second[kind]) for kind in first}


class TestRecordIdentity:
    @pytest.mark.parametrize("kind", [
        "ClimbResult", "ConicalCertificate", "ConicalityResult", "ConnectednessReport",
        "ControlPath", "ControllabilityCertificate", "CouplingGraph", "GapTable",
        "NonresonantSample", "ResonanceReport", "SpectralPoint", "StateTrajectory",
        "TrackedSpectrum",
    ])
    def test_equality_and_hashing_are_by_identity(self, kind):
        a, b = _record_pairs()[kind]
        assert type(a).__name__ == kind
        assert a == a
        assert not (a == b)
        assert a != b
        assert len({a, b, a}) == 2


def strict_json(text: str):
    """The JSON document ``text``, read by a parser that rejects NaN and Infinity."""

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


class TestStrictDocuments:
    def test_two_level_certificate_is_strict_json(self, two_level_cone):
        # n = 2 has one gap and so no two gaps to separate: the separation is
        # inf in memory and null in the document
        cert = certify(two_level_cone)
        assert cert.resonance.report.min_gap_separation == np.inf
        assert cert.resonance.report.passed
        doc = strict_json(cert.to_json())
        assert doc["resonance"]["report"]["min_gap_separation"] is None
        assert doc["resonance"]["report"]["passed"] is True

    @pytest.mark.parametrize(
        "kind", ["ConnectednessReport", "ControlPath", "ControllabilityCertificate",
                 "ControlHamiltonian", "EnsembleSummary"],
    )
    def test_saved_document_is_its_json_dict(self, kind, tmp_path, two_level_cone):
        if kind == "ControlHamiltonian":
            record = two_level_cone
        elif kind == "EnsembleSummary":
            record = ensemble_genericity(n=3, m=2, trials=2, rng_seed=3)
        else:
            record = _record_pairs()[kind][0]
        target = tmp_path / "record.json"
        record.save(target)
        assert strict_json(target.read_text()) == record.to_json_dict()

    def test_certificate_text_is_compact_and_sorted(self, two_level_cone):
        cert = certify(two_level_cone, CertifyConfig(seed_budget=2, resonance_budget=5))
        text = cert.to_json()
        assert "\n" not in text
        assert text == json.dumps(strict_json(text), sort_keys=True)
