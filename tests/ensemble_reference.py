"""Reference genericity ensemble: the per-trial, per-level loop that
``certify.ensemble_genericity`` replaced with stacked draws, two batched
locator solves and one conicality call, kept as the oracle whose per-trial
counts the batched version must reproduce. It draws one family and one
perturbation at a time, as objects, and tests each point with the reference
conicality test. Trial t draws from child t of ``SeedSequence(rng_seed)``, as
there."""

import numpy as np

from speccert import (
    ControlHamiltonian,
    HermitianOperator,
    SpeccertError,
    degeneracy_tol,
    locate_intersection,
)
from speccert.certify import EnsembleTrial
from speccert.sampling import box_sequence, random_hermitian, random_symmetric

from conicality_reference import reference_conicality


def _random_family(rng, n: int, m: int, box_halfwidth: float) -> ControlHamiltonian:
    """Unit-norm operators, real symmetric for m = 2 and complex Hermitian for m = 3."""
    draw = random_symmetric if m == 2 else random_hermitian
    ops = [HermitianOperator(draw(rng, n)) for _ in range(m + 1)]
    box = np.array([[-box_halfwidth, box_halfwidth]] * m)
    return ControlHamiltonian(drift=ops[0], controlled=tuple(ops[1:]), box=box)


def _perturbed(H: ControlHamiltonian, rng, rel_size: float) -> ControlHamiltonian:
    """H with each operator bumped by noise of ``_random_family``'s kind for H.m."""
    draw = random_symmetric if H.m == 2 else random_hermitian
    scales = rel_size * np.maximum(H._norms, 1e-300)
    ops = [HermitianOperator(op + s * draw(rng, H.dim)) for op, s in zip(H._stack, scales)]
    return ControlHamiltonian(drift=ops[0], controlled=tuple(ops[1:]), box=H.box)


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
                result = reference_conicality(H, u_star, j, tau_deg=tau, rng_seed=rng_seed)
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
