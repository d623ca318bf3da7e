"""Reference genericity ensemble: the per-trial, per-level loop that
``certify.ensemble_genericity`` replaced with two batched locator solves, kept
as the oracle whose per-trial counts the batched version must reproduce.
Trial t draws from child t of ``SeedSequence(rng_seed)``, as there."""

import numpy as np

from speccert import SpeccertError, degeneracy_tol, locate_intersection, test_conicality
from speccert.certify import EnsembleTrial, _perturbed, _random_family
from speccert.sampling import box_sequence


def reference_trials(
    n: int,
    m: int,
    trials: int,
    rng_seed: int,
    box_halfwidth: float = 3.0,
    seeds_per_level: int = 6,
    perturbation: float = 1e-3,
) -> tuple:
    """Per-trial rows of the ensemble, one ``locate_intersection`` call per level and probe."""
    per_trial = []
    for t, child in enumerate(np.random.SeedSequence(rng_seed).spawn(trials)):
        rng = np.random.default_rng(child)
        H = _random_family(rng, n, m, box_halfwidth)
        tau = degeneracy_tol(H)
        seeds = box_sequence(H.box, seeds_per_level, rng_seed + 1000 + t)
        located = conical = p_attempts = p_success = 0
        for j in range(1, n):
            u_star = locate_intersection(H, j, seeds, tau_deg=tau)
            if u_star is None:
                continue
            located += 1
            try:
                result = test_conicality(H, u_star, j, tau_deg=tau, rng_seed=rng_seed)
            except SpeccertError:
                continue
            if not result.conical:
                continue
            conical += 1
            Hp = _perturbed(H, rng, perturbation)
            p_attempts += 1
            u_new = locate_intersection(Hp, j, [u_star], tau_deg=degeneracy_tol(Hp))
            if u_new is not None and float(np.linalg.norm(u_new - u_star)) <= 10 * perturbation:
                p_success += 1
        per_trial.append(
            EnsembleTrial(
                trial=t,
                located=located,
                conical=conical,
                persistence_attempts=p_attempts,
                persistence_successes=p_success,
            )
        )
    return tuple(per_trial)
