"""End-to-end controllability certification and genericity ensemble experiments.

The verdict's ground truth is the computed Lie closure; the spectral pipeline
(conical connectedness, non-resonance, coupling graph) is recorded as
evidence and cross-checked against the closure: certified connectedness plus
a connected graph at a non-resonant point predicts a full closure.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .conical import (
    ConnectednessReport,
    _locate_groups,
    certify_connectedness,
    degeneracy_tol,
    test_conicality,
)
from .coupling import CouplingGraph, build_graph, is_connected
from .errors import SpeccertError
from .lie_closure import (
    CLASS_FULL,
    CLASS_TRACELESS,
    LieClosureResult,
    TransitivityVerdict,
    classify_transitive,
    closure,
    generators_from,
)
from .operators import ControlHamiltonian, HermitianOperator
from .resonance import NonresonantSample, sample_nonresonant
from .sampling import box_sequence, random_hermitian, random_symmetric
from .spectrum import decompose

SCHEMA_VERSION = "speccert-certificate/1"

VERDICT_NOT_CERTIFIED = "not-certified"


@dataclass(frozen=True)
class CertifyConfig:
    """Tunable budgets, seeds, and tolerance overrides for the full pipeline."""

    rng_seed: int = 0
    seed_budget: int = 8
    resonance_budget: int = 200
    tol_deg: float | None = None
    tol_res: float | None = None


@dataclass(frozen=True, eq=False)
class ControllabilityCertificate:
    """Machine-readable record of one certification run."""

    n: int
    m: int
    connectedness: ConnectednessReport | None
    resonance: NonresonantSample | None
    graph: CouplingGraph | None
    graph_connected: bool | None
    closure_result: LieClosureResult | None
    transitivity: TransitivityVerdict | None
    verdict: str
    agreement: dict
    provenance: dict
    errors: tuple

    @property
    def controllable(self) -> bool:
        return self.verdict != VERDICT_NOT_CERTIFIED

    def to_json_dict(self, include_basis: bool = False) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "n": self.n,
            "m": self.m,
            "connectedness": None
            if self.connectedness is None
            else self.connectedness.to_json_dict(),
            "resonance": None if self.resonance is None else self.resonance.to_json_dict(),
            "graph": None if self.graph is None else self.graph.to_json_dict(),
            "graph_connected": self.graph_connected,
            "closure": None
            if self.closure_result is None
            else self.closure_result.to_json_dict(include_basis=include_basis),
            "transitivity": None
            if self.transitivity is None
            else self.transitivity.to_json_dict(),
            "verdict": self.verdict,
            "agreement": self.agreement,
            "provenance": self.provenance,
            "errors": list(self.errors),
        }

    def to_json(self, include_basis: bool = False) -> str:
        return json.dumps(self.to_json_dict(include_basis=include_basis), sort_keys=True)

    def save(self, path, include_basis: bool = False) -> None:
        with open(path, "w") as fh:
            json.dump(
                self.to_json_dict(include_basis=include_basis), fh, sort_keys=True, indent=2
            )


def certify(H: ControlHamiltonian, config: CertifyConfig | None = None) -> ControllabilityCertificate:
    """Run the full certification pipeline on one control-affine family.

    Stages: conical-connectedness search, non-resonant point sampling,
    coupling graph at that point, Lie closure with transitivity
    classification. Failed stages (a toolkit error or a numpy ``LinAlgError``)
    are recorded and the remaining stages still run; the verdict comes from
    the closure alone.
    """
    cfg = config or CertifyConfig()
    errors: list = []
    connectedness = None
    resonance = None
    graph = None
    graph_connected = None
    closure_result = None
    transitivity = None
    try:
        connectedness = certify_connectedness(
            H, cfg.seed_budget, rng_seed=cfg.rng_seed, tau_deg=cfg.tol_deg
        )
    except (SpeccertError, np.linalg.LinAlgError) as exc:
        errors.append(f"connectedness: {exc}")
    try:
        resonance = sample_nonresonant(
            H, cfg.resonance_budget, rng_seed=cfg.rng_seed, tau_res=cfg.tol_res
        )
        if resonance.found:
            sp = decompose(H, resonance.report.u_bar)
            graph = build_graph(H, sp)
            graph_connected, _ = is_connected(graph)
    except (SpeccertError, np.linalg.LinAlgError) as exc:
        errors.append(f"resonance/graph: {exc}")
    try:
        closure_result = closure(generators_from(H))
        transitivity = classify_transitive(closure_result, H.dim)
    except (SpeccertError, np.linalg.LinAlgError) as exc:
        errors.append(f"closure: {exc}")
    # the closure's class alone decides: u(n) and su(n) are the controllable ones
    groups = {CLASS_FULL: "U", CLASS_TRACELESS: "SU"}
    group = None if closure_result is None else groups.get(closure_result.classification)
    verdict = VERDICT_NOT_CERTIFIED if group is None else f"exactly-controllable-{group}({H.dim})"
    spectral_predicts = bool(
        connectedness is not None
        and connectedness.certified
        and resonance is not None
        and resonance.found
        and graph_connected
    )
    closure_controllable = verdict != VERDICT_NOT_CERTIFIED
    agreement = {
        "spectral_pipeline_predicts_controllable": spectral_predicts,
        "closure_controllable": closure_controllable,
        # sufficiency runs one way: a certified spectral pipeline must imply a
        # full closure, while a full closure needs no spectral certificate
        "consistent": (not spectral_predicts) or closure_controllable,
    }
    provenance = {
        "rng_seed": cfg.rng_seed,
        "seed_budget": cfg.seed_budget,
        "resonance_budget": cfg.resonance_budget,
        "tau_deg": cfg.tol_deg if cfg.tol_deg is not None else degeneracy_tol(H),
        "tau_res_override": cfg.tol_res,
        "box": H.box.tolist(),
    }
    return ControllabilityCertificate(
        n=H.dim,
        m=H.m,
        connectedness=connectedness,
        resonance=resonance,
        graph=graph,
        graph_connected=graph_connected,
        closure_result=closure_result,
        transitivity=transitivity,
        verdict=verdict,
        agreement=agreement,
        provenance=provenance,
        errors=tuple(errors),
    )


@dataclass(frozen=True)
class EnsembleTrial:
    """One random instance: located intersections, conicality, persistence."""

    trial: int
    located: int
    conical: int
    persistence_attempts: int
    persistence_successes: int


@dataclass(frozen=True)
class EnsembleSummary:
    """Aggregate genericity statistics over random Hamiltonian ensembles."""

    n: int
    m: int
    trials: int
    rng_seed: int
    located_total: int
    conical_total: int
    conical_fraction: float | None
    persistence_attempts: int
    persistence_successes: int
    persistence_fraction: float | None
    per_trial: tuple

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "trials": self.trials,
            "rng_seed": self.rng_seed,
            "located_total": self.located_total,
            "conical_total": self.conical_total,
            "conical_fraction": self.conical_fraction,
            "persistence_attempts": self.persistence_attempts,
            "persistence_successes": self.persistence_successes,
            "persistence_fraction": self.persistence_fraction,
        }

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, sort_keys=True, indent=2)

    def save_trials_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["trial", "located", "conical", "persistence_attempts", "persistence_successes"]
            )
            for row in self.per_trial:
                writer.writerow(
                    [
                        row.trial,
                        row.located,
                        row.conical,
                        row.persistence_attempts,
                        row.persistence_successes,
                    ]
                )


def _random_family(rng, n: int, m: int, box_halfwidth: float) -> ControlHamiltonian:
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


def ensemble_genericity(
    n: int,
    m: int,
    trials: int,
    rng_seed: int,
    box_halfwidth: float = 3.0,
    seeds_per_level: int = 6,
    perturbation: float = 1e-3,
) -> EnsembleSummary:
    """Measure how often located eigenvalue intersections are conical and stable.

    Per trial, draws a random family (real symmetric operators for m=2,
    complex Hermitian for m=3, unit spectral norm), locates adjacent-level
    intersections inside a fixed box, runs the conicality test on each located
    point, and probes structural stability: after a relative perturbation of
    the operators, a certified intersection must be re-locatable nearby
    (within 10x the perturbation size).

    Trial t draws from its own generator, spawned from ``rng_seed`` as child
    t of ``np.random.SeedSequence(rng_seed)``: first its family, then one
    perturbation per conical level in level order. So no trial depends on
    another's outcome, and all families are drawn up front: one lockstep
    locator solve serves every (trial, level) pair, and one more every
    persistence relocation.

    Fractions are None when no intersection was located (vacuous statistics).
    """
    if m not in (2, 3):
        raise SpeccertError("ensemble experiments are defined for m in {2, 3}")
    if trials < 1:
        raise SpeccertError("trials must be at least 1")
    if n < 2:
        raise SpeccertError(f"n must be at least 2, got {n}")
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(rng_seed).spawn(trials)]
    families = [_random_family(rng, n, m, box_halfwidth) for rng in rngs]
    pairs = [(t, j) for t in range(trials) for j in range(1, n)]
    located = _locate_groups(
        [
            (
                families[t],
                j,
                box_sequence(families[t].box, seeds_per_level, rng_seed + 1000 + t),
                degeneracy_tol(families[t]),
            )
            for t, j in pairs
        ]
    )
    tally = np.zeros((trials, 3), dtype=int)  # located, conical, persisted
    probes = []  # (trial, u_star, relocation group) per conical intersection
    for (t, j), u_star in zip(pairs, located):
        if u_star is None:
            continue
        tally[t, 0] += 1
        H = families[t]
        try:
            result = test_conicality(H, u_star, j, rng_seed=rng_seed)
        except SpeccertError:
            continue
        if result.conical:
            tally[t, 1] += 1
            Hp = _perturbed(H, rngs[t], perturbation)
            probes.append((t, u_star, (Hp, j, u_star[None], degeneracy_tol(Hp))))
    relocated = _locate_groups([group for _, _, group in probes])
    for (t, u_star, _), u_new in zip(probes, relocated):
        if u_new is not None and float(np.linalg.norm(u_new - u_star)) <= 10 * perturbation:
            tally[t, 2] += 1
    per_trial = tuple(
        EnsembleTrial(
            trial=t,
            located=int(found),
            conical=int(conical),
            persistence_attempts=int(conical),
            persistence_successes=int(persisted),
        )
        for t, (found, conical, persisted) in enumerate(tally)
    )
    located_total, conical_total, persisted_total = (int(x) for x in tally.sum(axis=0))
    return EnsembleSummary(
        n=n,
        m=m,
        trials=trials,
        rng_seed=rng_seed,
        located_total=located_total,
        conical_total=conical_total,
        conical_fraction=None if located_total == 0 else conical_total / located_total,
        persistence_attempts=conical_total,
        persistence_successes=persisted_total,
        persistence_fraction=None if conical_total == 0 else persisted_total / conical_total,
        per_trial=per_trial,
    )
