"""End-to-end controllability certification and genericity ensemble experiments.

The verdict's ground truth is the computed Lie closure; the spectral pipeline
(conical connectedness, non-resonance, coupling graph) is recorded as
evidence and cross-checked against the closure: certified connectedness plus
a connected graph at a non-resonant point predicts a full closure.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields

import numpy as np

from .conical import (
    ConicalityResult,
    ConnectednessReport,
    _conicality_rows,
    _locate_groups,
    certify_connectedness,
    degeneracy_tol,
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
from .operators import (
    ControlHamiltonian,
    _checked_box,
    _checked_hermitian,
    _energy_scales,
    _json_text,
    _write_csv,
    _write_json,
)
from .resonance import NonresonantSample, sample_nonresonant
from .sampling import _box_sequences, _gaussian_stack, _unit_norm
from .tolerance import DEGENERACY_REL, _check_integer, _check_tolerance

SCHEMA_VERSION = "speccert-certificate/1"

VERDICT_NOT_CERTIFIED = "not-certified"


@dataclass(frozen=True)
class CertifyConfig:
    """Tunable budgets, seeds, and tolerance overrides for the full pipeline.

    ``rng_seed`` must be an integer >= 0, each budget one >= 1 and a tolerance
    override None or a finite number > 0 (``PreconditionError`` otherwise).
    """

    rng_seed: int = 0
    seed_budget: int = 8
    resonance_budget: int = 200
    tol_deg: float | None = None
    tol_res: float | None = None

    def __post_init__(self):
        _check_integer("rng_seed", self.rng_seed, 0)
        _check_integer("seed_budget", self.seed_budget, 1)
        _check_integer("resonance_budget", self.resonance_budget, 1)
        _check_tolerance("tol_deg", self.tol_deg)
        _check_tolerance("tol_res", self.tol_res)


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
            "connectedness": _stage_json(self.connectedness),
            "resonance": _stage_json(self.resonance),
            "graph": _stage_json(self.graph),
            "graph_connected": self.graph_connected,
            "closure": _stage_json(self.closure_result, include_basis=include_basis),
            "transitivity": _stage_json(self.transitivity),
            "verdict": self.verdict,
            "agreement": self.agreement,
            "provenance": self.provenance,
            "errors": list(self.errors),
        }

    def to_json(self, include_basis: bool = False) -> str:
        return _json_text(self.to_json_dict(include_basis=include_basis))

    def save(self, path, include_basis: bool = False) -> None:
        _write_json(self.to_json_dict(include_basis=include_basis), path)


def _stage_json(record, **options):
    """The JSON document of a pipeline stage's record, or None for a stage that did not run."""
    return None if record is None else record.to_json_dict(**options)


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
        resonance = sample_nonresonant(H, cfg.resonance_budget, cfg.rng_seed, cfg.tol_res)
        if resonance.found:
            graph = build_graph(H, resonance._point)
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
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "per_trial"}

    def save(self, path) -> None:
        _write_json(self.to_json_dict(), path)

    def save_trials_csv(self, path) -> None:
        header = [f.name for f in fields(EnsembleTrial)]
        _write_csv(path, header, map(astuple, self.per_trial))


def _draw_operators(rngs, n: int, m: int) -> np.ndarray:
    """m + 1 unit-norm operators per generator, stacked (len(rngs), m + 1, n, n).

    Real symmetric for m = 2, complex Hermitian for m = 3: each generator's
    stream is read as m + 1 calls of ``random_symmetric`` or
    ``random_hermitian`` would read it, and one stacked eigensolve scales
    every matrix, so the stack is bitwise those calls' matrices.
    """
    return _unit_norm(np.stack([_gaussian_stack(rng, (m + 1, n, n), m == 2) for rng in rngs]))


def _perturbed_stacks(stacks: np.ndarray, rngs, rel_size: float) -> np.ndarray:
    """Operator stacks (k, m + 1, n, n), each bumped by noise from its own generator.

    The noise is a ``_draw_operators`` draw, so of the family's kind for m,
    and each operator moves by ``rel_size`` times its spectral norm times a
    unit-norm noise matrix (an operator of norm 0 stays 0).
    """
    noise = _draw_operators(rngs, stacks.shape[-1], stacks.shape[1] - 1)
    norms = np.max(np.abs(np.linalg.eigvalsh(stacks)), axis=-1)
    bumps = (rel_size * norms)[..., None, None] * noise
    return _checked_hermitian(stacks + bumps)


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
    another's outcome, and the work is stacked across trials: the families
    are one (trials, m + 1, n, n) operator stack (float64 for m = 2, so the
    locator and the conicality test run in real arithmetic), drawn, scaled
    and given their energy scales by one stacked eigensolve each; one
    lockstep locator solve serves every (trial, level) pair, one conicality
    call every located point, and one more locator solve every persistence
    relocation.
    In each locator solve, every seed's restarts run alongside its first
    run (one stacked eigensolve per iteration for all of them), so a solve
    lasts about as long as its slowest run, not its slowest seed's runs in
    turn; from n = ``LAZY_SEED_MIN_DIM`` on, a level's seeds also start one
    after another, as in ``locate_intersection``.

    Fractions are None when no intersection was located (vacuous statistics).
    ``n`` must be an integer >= 2, ``m`` 2 or 3, ``trials`` and
    ``seeds_per_level`` integers >= 1, ``rng_seed`` one >= 0 and
    ``box_halfwidth`` and ``perturbation`` finite and positive
    (``PreconditionError``).
    """
    _check_integer("n", n, 2)
    _check_integer("m", m, 2, 3)
    _check_integer("trials", trials, 1)
    _check_integer("rng_seed", rng_seed, 0)
    _check_integer("seeds_per_level", seeds_per_level, 1)
    _check_tolerance("perturbation", perturbation, optional=False)
    _check_tolerance("box_halfwidth", box_halfwidth, optional=False)
    box = _checked_box([[-box_halfwidth, box_halfwidth]] * m, m)
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(rng_seed).spawn(trials)]
    stacks = _checked_hermitian(_draw_operators(rngs, n, m))
    scales = _energy_scales(stacks, box)
    taus = DEGENERACY_REL * scales
    # trial t's seeds are box_sequence(box, seeds_per_level, rng_seed + 1000 + t)
    seeds = _box_sequences(box, seeds_per_level, range(rng_seed + 1000, rng_seed + 1000 + trials))
    pairs = [(t, j) for t in range(trials) for j in range(1, n)]
    located = _locate_groups([(stacks[t], box, j, seeds[t], taus[t]) for t, j in pairs])
    found = [(t, j, u) for (t, j), u in zip(pairs, located) if u is not None]
    outcomes = _conicality_rows(
        [(stacks[t], box, j, u, taus[t], scales[t]) for t, j, u in found], rng_seed=rng_seed
    )
    tally = np.zeros((trials, 3), dtype=int)  # located, conical, persisted
    conical = []
    for (t, j, u), result in zip(found, outcomes):
        tally[t, 0] += 1
        # a point whose test raised (a failed precondition or check) counts as located only
        if isinstance(result, ConicalityResult) and result.conical:
            tally[t, 1] += 1
            conical.append((t, j, u))
    if conical:
        # drawn after every trial's family, in level order within each trial
        probed = [t for t, _, _ in conical]
        bumped = _perturbed_stacks(stacks[probed], [rngs[t] for t in probed], perturbation)
        bumped_taus = DEGENERACY_REL * _energy_scales(bumped, box)
        relocated = _locate_groups(
            [(bumped[i], box, j, u[None], bumped_taus[i]) for i, (_, j, u) in enumerate(conical)]
        )
        for (t, _, u_star), u_new in zip(conical, relocated):
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
