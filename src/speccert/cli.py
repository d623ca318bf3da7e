"""Command-line front end.

Subcommands: spectrum, find-intersections, certify, synthesize, simulate,
ensemble. Exit codes: 0 success or certified, 1 clean negative verdict
(not certified / not found), 2 usage or input error. Every randomized
command requires --seed so that all outputs are deterministic functions of
(input, flags, seed).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from .adiabatic import STEP_CHUNK_ELEMS, load_path, plan_passage, propagate
from .certify import CertifyConfig, certify, ensemble_genericity
from .conical import certify_connectedness, degeneracy_tol, locate_intersection, test_conicality
from .errors import SpeccertError
from .operators import ControlHamiltonian, load_hamiltonian
from .sampling import box_sequence
from .spectrum import _decompose_stack, decompose

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2


def _load_input(path_str: str) -> ControlHamiltonian:
    if not Path(path_str).exists():
        raise FileNotFoundError(path_str)
    return load_hamiltonian(path_str)


def _positive_float(text: str) -> float:
    """argparse type of a flag whose value must be a finite number > 0."""
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    if not (np.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"expected a finite number > 0, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    """argparse type of a flag whose value must be an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_spectrum(args) -> int:
    H = _load_input(args.input)
    out = _outdir(args)
    res = args.grid
    axes = [
        np.linspace(H.box[l, 0], H.box[l, 1], res) if res > 1 else np.array([H.box[l, 0]])
        for l in range(H.m)
    ]
    grids = np.meshgrid(*axes, indexing="ij")
    points = np.stack([g.ravel() for g in grids], axis=1)
    target = out / "spectrum.csv"
    with open(target, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["step"]
            + [f"u_{l + 1}" for l in range(H.m)]
            + [f"lambda_{j + 1}" for j in range(H.dim)]
        )
        # decomposed in blocks of bounded size, never as one stack over the grid
        block = max(1, STEP_CHUNK_ELEMS // H.dim**2)
        for start in range(0, len(points), block):
            U = points[start : start + block]
            lam, _ = _decompose_stack(H.matrices_at(U), U)
            for k, row in enumerate(np.hstack((U, lam)), start):
                writer.writerow([k] + [repr(float(x)) for x in row])
    print(f"wrote {points.shape[0]} rows to {target}")
    return EXIT_OK


def _cmd_find_intersections(args) -> int:
    H = _load_input(args.input)
    out = _outdir(args)
    report = certify_connectedness(
        H, args.budget, rng_seed=args.seed, tau_deg=args.tol_deg
    )
    target = out / "connectedness.json"
    report.save(target)
    print(f"status: {report.status}; report at {target}")
    return EXIT_OK if report.certified else EXIT_NEGATIVE


def _cmd_certify(args) -> int:
    H = _load_input(args.input)
    out = _outdir(args)
    cfg = CertifyConfig(
        rng_seed=args.seed,
        seed_budget=args.budget,
        resonance_budget=args.resonance_budget,
        tol_deg=args.tol_deg,
        tol_res=args.tol_res,
    )
    cert = certify(H, cfg)
    target = out / "certificate.json"
    cert.save(target)
    print(f"verdict: {cert.verdict}; certificate at {target}")
    return EXIT_OK if cert.controllable else EXIT_NEGATIVE


def _cmd_synthesize(args) -> int:
    H = _load_input(args.input)
    out = _outdir(args)
    seeds = box_sequence(H.box, args.budget, args.seed)
    tau = args.tol_deg if args.tol_deg is not None else degeneracy_tol(H)
    u_star = locate_intersection(H, args.level, seeds, tau_deg=tau)
    if u_star is None:
        print(f"no interior intersection found for level {args.level}")
        return EXIT_NEGATIVE
    result = test_conicality(H, u_star, args.level, tau_deg=tau, rng_seed=args.seed)
    if not result.conical:
        print(f"intersection at {u_star.tolist()} is not conical: {result.reason}")
        return EXIT_NEGATIVE
    path = plan_passage(H, result.certificate, args.rho, args.epsilon)
    path_file = out / "path.json"
    path.save(path_file)
    cert_file = out / "conical_certificate.json"
    with open(cert_file, "w") as fh:
        json.dump(result.certificate.to_json_dict(), fh, sort_keys=True, indent=2)
    print(f"passage planned through {u_star.tolist()}; path at {path_file}")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    H = _load_input(args.input)
    out = _outdir(args)
    path_file = Path(args.path)
    if not path_file.exists():
        raise FileNotFoundError(args.path)
    path = load_path(path_file)
    sp = decompose(H, path.waypoints[0])
    if not 1 <= args.init_level <= H.dim:
        raise SpeccertError(f"--init-level must be in 1..{H.dim}")
    psi0 = sp.frame[:, args.init_level - 1]
    trajectory = propagate(H, path, psi0)
    target = out / "trajectory.csv"
    trajectory.save_csv(target)
    final_sorted = [trajectory.final_population_sorted(j) for j in range(1, H.dim + 1)]
    print(
        f"simulated {trajectory.times[-1]:.6g} time units, "
        f"max norm defect {float(np.max(trajectory.norm_defect)):.3e}; trajectory at {target}"
    )
    print(
        "final populations by sorted level: "
        + " ".join(f"{p:.6f}" for p in final_sorted)
    )
    return EXIT_OK


def _cmd_ensemble(args) -> int:
    out = _outdir(args)
    summary = ensemble_genericity(args.n, args.m, args.trials, rng_seed=args.seed)
    summary.save(out / "ensemble_summary.json")
    summary.save_trials_csv(out / "ensemble_trials.csv")
    frac = "n/a" if summary.conical_fraction is None else f"{summary.conical_fraction:.3f}"
    print(
        f"located {summary.located_total} intersections, conical fraction {frac}; "
        f"summary at {out / 'ensemble_summary.json'}"
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="speccert",
        description="Certify controllability of control-affine quantum systems from spectral data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, seed_required):
        p.add_argument("--input", required=True, help="Hamiltonian JSON file")
        p.add_argument("--out", default=".", help="output directory")
        if seed_required:
            p.add_argument("--seed", type=int, required=True, help="RNG seed (mandatory)")
        p.add_argument(
            "--tol-deg", type=_positive_float, default=None, help="degeneracy gap threshold"
        )

    p = sub.add_parser("spectrum", help="eigenvalue sweep over the control box")
    add_common(p, seed_required=False)
    p.add_argument("--grid", type=_positive_int, default=51, help="grid resolution per axis")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("find-intersections", help="search for conical intersections")
    add_common(p, seed_required=True)
    p.add_argument("--budget", type=_positive_int, default=8, help="search seeds per level")
    p.set_defaults(func=_cmd_find_intersections)

    p = sub.add_parser("certify", help="run the full controllability pipeline")
    add_common(p, seed_required=True)
    p.add_argument("--budget", type=_positive_int, default=8, help="search seeds per level")
    p.add_argument(
        "--resonance-budget", type=_positive_int, default=200, help="non-resonance samples"
    )
    p.add_argument("--tol-res", type=_positive_float, default=None, help="gap-separation threshold")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("synthesize", help="plan a passage through one intersection")
    add_common(p, seed_required=True)
    p.add_argument("--level", type=int, required=True, help="lower level of the pair")
    p.add_argument("--rho", type=_positive_float, required=True, help="entry/exit radius")
    p.add_argument("--epsilon", type=_positive_float, required=True, help="slowness parameter")
    p.add_argument("--budget", type=_positive_int, default=8, help="search seeds")
    p.set_defaults(func=_cmd_synthesize)

    p = sub.add_parser("simulate", help="propagate a state along a control path")
    add_common(p, seed_required=False)
    p.add_argument("--path", required=True, help="control path JSON file")
    p.add_argument("--init-level", type=int, default=1, help="initial eigenstate (1-based)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("ensemble", help="random-ensemble genericity experiment")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--seed", type=int, required=True, help="RNG seed (mandatory)")
    p.add_argument("--n", type=int, required=True, help="Hilbert space dimension")
    p.add_argument("--m", type=int, required=True, help="number of controls (2 or 3)")
    p.add_argument("--trials", type=int, required=True, help="number of random instances")
    p.set_defaults(func=_cmd_ensemble)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: input file not found: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SpeccertError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
