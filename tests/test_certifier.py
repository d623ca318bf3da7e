import importlib

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from speccert import (
    CertifyConfig,
    ControlHamiltonian,
    HermitianOperator,
    SpeccertError,
    certify,
    closure,
    ensemble_genericity,
    generators_from,
)
from speccert.certify import _perturbed, _random_family
from speccert.sampling import random_hermitian, random_symmetric
from conftest import make_family, scaled
from ensemble_reference import reference_trials


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


class TestEnergyUnit:
    @settings(
        max_examples=4, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(k=st.integers(-8, 8))
    @example(k=-8)
    @example(k=8)
    def test_evidence_invariant_under_scaling(self, three_level_chain, k):
        assert _evidence(scaled(three_level_chain, 10.0**k)) == _evidence(three_level_chain)


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
        got = _perturbed(H, np.random.default_rng(7), 1e-3)
        rng = np.random.default_rng(7)
        for op, bumped in zip([H.drift, *H.controlled], [got.drift, *got.controlled]):
            scale = 1e-3 * max(float(np.max(np.abs(np.linalg.eigvalsh(op.matrix)))), 1e-300)
            assert np.array_equal(bumped.matrix, op.matrix + scale * draw(rng, 4))
        assert np.array_equal(got.box, H.box)

    def test_invalid_n_rejected(self):
        with pytest.raises(SpeccertError, match="n must be at least 2"):
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
