"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is asserted exactly as stated.
"""

import json
import time

import numpy as np
import pytest
from scipy.linalg import expm

from speccert import (
    CertifyConfig,
    ControlPath,
    certify,
    certify_connectedness,
    climb,
    closure,
    decompose,
    ensemble_genericity,
    generators_from,
    locate_intersection,
    plan_passage,
    propagate,
    test_conicality,
)
from speccert.operators import ControlHamiltonian, HermitianOperator
from speccert.sampling import box_sequence, random_symmetric
from conftest import SIGMA_X, SIGMA_Z, make_family, step_counts

import test_invariants as inv


def _diag_family():
    return make_family(
        np.diag([0.0, 1.0, 2.0]),
        [np.diag([1.0, 1.0, 0.0]), np.zeros((3, 3))],
        [[-0.5, 0.5], [-0.5, 0.5]],
    )


def _two_level():
    return make_family(np.zeros((2, 2)), [SIGMA_X, SIGMA_Z], [[-1, 1], [-1, 1]])


def _three_level_chain():
    drift = np.diag([0.0, 0.0, 1.5])
    slope = np.diag([1.0, 0.0, -1.0])
    coupling = np.array([[0.0, 1.0, 0.5], [1.0, 0.0, 1.0], [0.5, 1.0, 0.0]])
    return make_family(drift, [slope, coupling], [[-0.6, 1.35], [-0.75, 0.75]])


def test_criterion_1_paper_counterexample():
    start = time.perf_counter()
    H = _diag_family()
    # eigenvalues along the first control axis are {u, u+1, 2}
    max_dev = 0.0
    for u1 in np.linspace(-0.5, 0.5, 21):
        lam = decompose(H, [u1, 0.0]).eigenvalues
        expected = np.sort([u1, u1 + 1.0, 2.0])
        max_dev = max(max_dev, float(np.max(np.abs(lam - expected))))
    assert max_dev <= 1e-10
    cert = certify(H, CertifyConfig(rng_seed=1, seed_budget=4, resonance_budget=40))
    assert cert.closure_result.dimension == 2
    assert cert.verdict == "not-certified"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(
        f"\nACCEPTANCE 1: PASS - counterexample spectrum dev {max_dev:.2e}, "
        f"closure dim 2, not-certified, {elapsed:.2f}s"
    )


def test_criterion_2_two_level_conical_model():
    start = time.perf_counter()
    H = _two_level()
    u_star = locate_intersection(H, 1, box_sequence(H.box, 6, seed=2))
    assert u_star is not None
    assert np.linalg.norm(u_star) <= 1e-6
    result = test_conicality(H, u_star, 1, t0=1e-3)
    assert result.conical
    c_hat = result.certificate.c_hat
    assert abs(c_hat - 2.0) <= 0.05 * 2.0
    cert = certify(H, CertifyConfig(rng_seed=1))
    assert cert.verdict == "exactly-controllable-SU(2)"
    assert cert.closure_result.dimension == 3
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(
        f"\nACCEPTANCE 2: PASS - intersection at |u|={np.linalg.norm(u_star):.1e}, "
        f"c_hat={c_hat:.4f}, SU(2) verdict, {elapsed:.2f}s"
    )


def test_criterion_3_agreement_suite(tmp_path):
    filtered = 0
    checked = []
    for n in (3, 4):
        for k in range(18):
            rng = np.random.default_rng(20000 + 100 * n + k)
            mats = [random_symmetric(rng, n) for _ in range(3)]
            H = ControlHamiltonian(
                drift=HermitianOperator(mats[0]),
                controlled=(HermitianOperator(mats[1]), HermitianOperator(mats[2])),
                box=np.array([[-3.0, 3.0], [-3.0, 3.0]]),
            )
            cert = certify(H, CertifyConfig(rng_seed=11, seed_budget=6, resonance_budget=60))
            eligible = (
                cert.connectedness is not None
                and cert.connectedness.certified
                and cert.resonance is not None
                and cert.resonance.found
                and bool(cert.graph_connected)
            )
            if not eligible:
                continue
            filtered += 1
            dim = cert.closure_result.dimension
            traceless = cert.closure_result.traceless_generators
            full = dim == n * n or (dim == n * n - 1 and traceless)
            checked.append(full)
            if not full:
                dump = tmp_path / f"disagreement_n{n}_k{k}.json"
                dump.write_text(json.dumps(H.to_json_dict()))
                pytest.fail(
                    f"spectrally certified instance (n={n}, seed {20000 + 100 * n + k}) "
                    f"has closure dimension {dim}; instance dumped to {dump}"
                )
    assert filtered >= 20
    assert all(checked)
    print(
        f"\nACCEPTANCE 3: PASS - {filtered} certified instances, "
        f"closure full in {filtered}/{filtered}"
    )


def test_criterion_4_propagator():
    H = _two_level()
    # >= 1e4 steps: a half-spread of 1 over 1000 time units at h * spread / 2 <= 0.1
    path = ControlPath(
        waypoints=(np.array([1.0, 0.0]), np.array([0.0, 1.0])),
        durations=np.array([1000.0]),
        epsilon=1.0,
    )
    assert sum(step_counts(H, path)) >= 10**4
    psi0 = np.array([1.0, 0.0], dtype=complex)
    traj = propagate(H, path, psi0)
    defect = float(np.max(traj.norm_defect))
    assert defect <= 1e-9

    u = [0.4, -0.3]
    hold = ControlPath(waypoints=(np.asarray(u),), durations=np.array([8.0]), epsilon=1.0)
    oracle = expm(-1j * 8.0 * H.matrix_at(u)) @ psi0
    const_err = float(np.linalg.norm(propagate(H, hold, psi0).final_state - oracle))
    assert const_err <= 1e-8

    short = ControlPath(
        waypoints=(np.array([1.0, 0.0]), np.array([0.0, 1.0])),
        durations=np.array([20.0]),
        epsilon=1.0,
    )
    finals = [
        propagate(H, short, psi0, step_limit=s).final_state for s in (0.2, 0.1, 0.05)
    ]
    e1 = np.linalg.norm(finals[0] - finals[1])
    e2 = np.linalg.norm(finals[1] - finals[2])
    order = float(np.log2(e1 / e2))
    assert order >= 1.9
    print(
        f"\nACCEPTANCE 4: PASS - norm defect {defect:.1e} over 1e4 steps, "
        f"constant-control error {const_err:.1e}, observed order {order:.2f}"
    )


def test_criterion_5_adiabatic_transfer():
    start = time.perf_counter()
    # two-level planned passage at epsilon = 1e-2
    H2 = _two_level()
    result2 = test_conicality(H2, [0.0, 0.0], 1)
    passage = plan_passage(H2, result2.certificate, rho=0.5, epsilon=1e-2)
    psi0 = decompose(H2, passage.waypoints[0]).frame[:, 0]
    traj = propagate(H2, passage, psi0)
    p2 = traj.final_population_sorted(2)
    assert p2 >= 0.9

    # three-level chained climb, epsilon sweep
    H3 = _three_level_chain()
    report = certify_connectedness(H3, 12, rng_seed=5)
    assert report.certified
    sweep = [1e-1, 1e-2, 1e-3]
    losses = []
    for eps in sweep:
        res = climb(H3, report, [-0.3, 0.55], epsilon=eps)
        losses.append(1.0 - res.p_target)
    assert losses[-1] <= 0.1  # p_3 >= 0.9 at the smallest epsilon
    assert losses[1] <= losses[0]
    assert losses[2] <= losses[1]
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(
        f"\nACCEPTANCE 5: PASS - two-level p2={p2:.4f}; "
        f"chain losses {['%.2e' % l for l in losses]}, {elapsed:.1f}s"
    )


def test_criterion_6_genericity_ensemble():
    start = time.perf_counter()
    summary = ensemble_genericity(n=3, m=2, trials=50, rng_seed=7)
    assert summary.located_total > 0
    assert summary.conical_fraction is not None
    assert summary.conical_fraction >= 0.9
    assert summary.persistence_fraction is not None
    assert summary.persistence_fraction >= 0.9
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(
        f"\nACCEPTANCE 6: PASS - {summary.located_total} located, "
        f"conical {summary.conical_fraction:.1%}, "
        f"persistence {summary.persistence_fraction:.1%}, {elapsed:.1f}s"
    )


def test_criterion_7_invariant_suite():
    failures = {
        "hermiticity": inv.check_hermiticity(100),
        "unitarity": inv.check_unitarity(100),
        "gauge": inv.check_gauge(100),
        "conjugation": inv.check_conjugation_invariance(100),
        "jacobi": inv.check_jacobi(100),
    }
    assert all(v == 0 for v in failures.values()), failures
    print(
        "\nACCEPTANCE 7: PASS - "
        + ", ".join(f"{k}: 0/100 failures" for k in failures)
    )
