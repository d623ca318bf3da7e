"""Command-line front end.

Subcommands: spectrum, find-intersections, certify, synthesize, simulate,
ensemble. Exit codes: 0 success or certified, 1 clean negative verdict
(not certified / not found), 2 usage or input error. Every randomized
command requires --seed so that all outputs are deterministic functions of
(input, flags, seed).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .adiabatic import load_path, plan_passage, propagate
from .certify import CertifyConfig, certify, ensemble_genericity
from .conical import certify_connectedness, locate_intersection, test_conicality
from .errors import PreconditionError, SpeccertError
from .operators import _columns, _write_csv, _write_json, load_hamiltonian
from .sampling import box_sequence
from .spectrum import _block_rows, _decompose_stack, decompose
from .tolerance import _check_integer, _check_tolerance

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2


def _checked(convert, check, *bounds):
    """argparse type: the flag's text read by ``convert`` and judged by the library's
    ``check``, which also refuses, in its own words, text that does not convert."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = text
        try:
            check("value", value, *bounds)
        except PreconditionError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
        return value

    return parse


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_spectrum(args) -> int:
    H = load_hamiltonian(args.input)
    out = _outdir(args)
    res = args.grid
    axes = [
        np.linspace(H.box[l, 0], H.box[l, 1], res) if res > 1 else np.array([H.box[l, 0]])
        for l in range(H.m)
    ]
    grids = np.meshgrid(*axes, indexing="ij")
    points = np.stack([g.ravel() for g in grids], axis=1)
    header = ["step", *_columns("u", H.m), *_columns("lambda", H.dim)]

    def rows():
        # decomposed in blocks of bounded size, never as one stack over the grid;
        # with the checked eigh, since eigvalsh would move the CSV's values by ulps
        block = _block_rows(H.dim**2)
        for start in range(0, len(points), block):
            U = points[start : start + block]
            lam, _ = _decompose_stack(H.matrices_at(U), U)
            for k, row in enumerate(np.hstack((U, lam)).tolist(), start):
                yield [k, *row]

    target = out / "spectrum.csv"
    _write_csv(target, header, rows())
    print(f"wrote {points.shape[0]} rows to {target}")
    return EXIT_OK


def _cmd_find_intersections(args) -> int:
    H = load_hamiltonian(args.input)
    out = _outdir(args)
    report = certify_connectedness(
        H, args.budget, rng_seed=args.seed, tau_deg=args.tol_deg
    )
    target = out / "connectedness.json"
    report.save(target)
    print(f"status: {report.status}; report at {target}")
    return EXIT_OK if report.certified else EXIT_NEGATIVE


def _cmd_certify(args) -> int:
    H = load_hamiltonian(args.input)
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
    H = load_hamiltonian(args.input)
    out = _outdir(args)
    seeds = box_sequence(H.box, args.budget, args.seed)
    u_star = locate_intersection(H, args.level, seeds, tau_deg=args.tol_deg)
    if u_star is None:
        print(f"no interior intersection found for level {args.level}")
        return EXIT_NEGATIVE
    result = test_conicality(H, u_star, args.level, tau_deg=args.tol_deg, rng_seed=args.seed)
    if not result.conical:
        print(f"intersection at {u_star.tolist()} is not conical: {result.reason}")
        return EXIT_NEGATIVE
    path = plan_passage(H, result.certificate, args.rho, args.epsilon)
    path_file = out / "path.json"
    path.save(path_file)
    _write_json(result.certificate.to_json_dict(), out / "conical_certificate.json")
    print(f"passage planned through {u_star.tolist()}; path at {path_file}")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    H = load_hamiltonian(args.input)
    out = _outdir(args)
    path = load_path(args.path)
    sp = decompose(H, path.waypoints[0])
    _check_integer("--init-level", args.init_level, 1, H.dim)
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
    count, seed = _checked(int, _check_integer, 1), _checked(int, _check_integer, 0)
    positive = _checked(float, _check_tolerance)

    def add_common(p, searches):
        p.add_argument("--input", required=True, help="Hamiltonian JSON file")
        p.add_argument("--out", default=".", help="output directory")
        if searches:
            # a command that searches for intersections is seeded and reads the threshold
            p.add_argument("--seed", type=seed, required=True, help="RNG seed (mandatory)")
            p.add_argument(
                "--tol-deg", type=positive, default=None, help="degeneracy gap threshold"
            )

    p = sub.add_parser("spectrum", help="eigenvalue sweep over the control box")
    add_common(p, searches=False)
    p.add_argument("--grid", type=count, default=51, help="grid resolution per axis")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("find-intersections", help="search for conical intersections")
    add_common(p, searches=True)
    p.add_argument("--budget", type=count, default=8, help="search seeds per level")
    p.set_defaults(func=_cmd_find_intersections)

    p = sub.add_parser("certify", help="run the full controllability pipeline")
    add_common(p, searches=True)
    p.add_argument("--budget", type=count, default=8, help="search seeds per level")
    p.add_argument("--resonance-budget", type=count, default=200, help="non-resonance samples")
    p.add_argument("--tol-res", type=positive, default=None, help="gap-separation threshold")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("synthesize", help="plan a passage through one intersection")
    add_common(p, searches=True)
    p.add_argument("--level", type=count, required=True, help="lower level of the pair")
    p.add_argument("--rho", type=positive, required=True, help="entry/exit radius")
    p.add_argument("--epsilon", type=positive, required=True, help="slowness parameter")
    p.add_argument("--budget", type=count, default=8, help="search seeds")
    p.set_defaults(func=_cmd_synthesize)

    p = sub.add_parser("simulate", help="propagate a state along a control path")
    add_common(p, searches=False)
    p.add_argument("--path", required=True, help="control path JSON file")
    p.add_argument("--init-level", type=count, default=1, help="initial eigenstate (1-based)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("ensemble", help="random-ensemble genericity experiment")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--seed", type=seed, required=True, help="RNG seed (mandatory)")
    dimension, controls = _checked(int, _check_integer, 2), _checked(int, _check_integer, 2, 3)
    p.add_argument("--n", type=dimension, required=True, help="Hilbert space dimension")
    p.add_argument("--m", type=controls, required=True, help="number of controls (2 or 3)")
    p.add_argument("--trials", type=count, required=True, help="number of random instances")
    p.set_defaults(func=_cmd_ensemble)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        # a missing input, a directory given as a file or a file given as --out
        print(f"error: {exc.strerror}: {exc.filename}", file=sys.stderr)
        return EXIT_INPUT
    except SpeccertError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
