"""Run one speccert benchmark workload and print its metrics.

    python3 bench/run.py --workload certify_random --seed 0 --seconds 20 --trace 0

Run from a checkout's root; the package is imported from that checkout's
``src/`` and from nowhere else. With ``--trace 0`` the run times a closed loop
of ops for ``--seconds`` and reports the end-to-end metrics. With ``--trace 1``
it times the loop untraced for half the time, then replays the same ops with
the tracer installed and reports the per-layer metrics per op. Every op's
output is checked. Human-readable lines come first; the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``. The exit code is 0 only when every output check passed.
Full results, with the environment record, go to ``bench/out/``; a traced run
also writes its spans there.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

# one BLAS thread in every run; must be set before numpy is first imported
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

# glibc raises its mmap threshold each time a mapped block is freed, so the
# process's allocation history decides whether the closure's 512 KB arrays
# come from fresh mappings or from the heap, and closure ops ran at two speeds
# 1.3-1.5x apart from one run to the next. Pinning the threshold at its
# initial 128 KiB (which also stops the adjustment) gives every run the
# allocation behaviour of a fresh process. None where there is no glibc.
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD = 128 * 1024
try:
    _pinned = ctypes.CDLL(None).mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1
except AttributeError:
    _pinned = False
MALLOC_MMAP_THRESHOLD = MMAP_THRESHOLD if _pinned else None

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
WORKLOAD_NAMES = ("certify_random", "climb_chain", "closure_reducible", "ensemble_n3")
# set-ups per run, each in a fresh interpreter so that imports count
SETUP_SAMPLES = 3
# a tail percentile needs this many samples beyond it, and is never below p75
TAIL_BEYOND = 10
TAIL_FLOOR = 0.75


class SetupError(Exception):
    pass


def load_workloads():
    """Import speccert from this checkout's ``src/`` and return the workload table."""
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(ROOT)]
    try:
        import speccert
    except ImportError as exc:
        raise SetupError(f"cannot import speccert from {src}: {exc}") from exc
    if src.resolve() not in Path(speccert.__file__).resolve().parents:
        raise SetupError(f"speccert was imported from {speccert.__file__}, not from {src}")
    from bench.workloads import WORKLOADS

    return WORKLOADS


def timed_setup(name: str, seed: int):
    """Import, then build the workload's inputs; returns (workload, inputs, seconds)."""
    t0 = time.perf_counter()
    workload = load_workloads()[name]
    inputs = workload.setup(seed)
    return workload, inputs, time.perf_counter() - t0


def setup_probe(name: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter started by this process."""
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", name, "--seed", str(seed), "--setup-probe"],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        raise SetupError(f"set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


class ReferenceJob:
    """A fixed numpy job whose duration is the unit of the gated op latencies.

    On a shared 2-core Xeon VM the speed drifts: the same ops ran 1.8x slower
    in one run than in another a minute earlier, and an identical 5 s op
    varied by 8% within one run, in process CPU time as much as in wall time.
    The drift slows this job with the ops, so latency divided by the job's
    duration measured around and during the op repeats where seconds do not
    (an identical op: 2.3% instead of 8%). The drift slows cache-resident and
    memory-bound work by different factors, so each workload names the job
    that does what its op does: ``eigen`` is small symmetric eigensolves;
    ``projection`` brackets two 16 x 16 skew-Hermitian matrices and projects
    the result out of a 128 x 512 orthonormal basis, as one step of a Lie
    closure does. Neither runs speccert code.
    """

    # repetitions per job: about 5 ms (eigen) and 35 ms (projection) on that VM
    REPS = 100
    # during an op: a job of a fifth the length every SAMPLE_INTERVAL s of wall
    # time, run from a SIGALRM handler between bytecodes of the op
    SAMPLE_INTERVAL = 0.2

    def __init__(self, kind: str):
        import numpy as np

        rng = np.random.default_rng(20131970)
        self._small = [a + a.T for a in (rng.standard_normal((n, n)) for n in (3, 4, 8))]
        self._basis = np.linalg.qr(rng.standard_normal((512, 128)))[0].T
        self._gen_a, self._gen_b = (
            1j * (g + g.T) for g in (rng.standard_normal((16, 16)) for _ in range(2))
        )
        # bound here so that a traced run never traces the reference job
        self._eigh, self._eigvalsh, self._norm = np.linalg.eigh, np.linalg.eigvalsh, np.linalg.norm
        self._vstack, self._concatenate = np.vstack, np.concatenate
        self._step = getattr(self, f"_{kind}")
        self.samples: list = []
        self.spent = 0.0

    def _eigen(self) -> None:
        for a in self._small:
            self._eigvalsh(a + 0.5 * a)
            self._eigh(a)

    def _projection(self) -> None:
        c = self._gen_a @ self._gen_b - self._gen_b @ self._gen_a
        v = self._concatenate([c.real.ravel(), c.imag.ravel()])
        for _ in range(2):
            v = v - self._basis.T @ (self._basis @ v)
        self._vstack([self._basis, v / self._norm(v)])

    def __call__(self, share: int = 1) -> float:
        """Duration of one job, measured on 1/share of its repetitions."""
        reps = self.REPS // share
        t0 = time.perf_counter()
        for _ in range(reps):
            self._step()
        return (time.perf_counter() - t0) * share

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(self(share=5))
        self.spent += time.perf_counter() - t0

    @contextmanager
    def sampling(self):
        """Sample the job while the block runs; ``samples`` holds the
        durations and ``spent`` the wall time they took."""
        self.samples, self.spent = [], 0.0
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.SAMPLE_INTERVAL, self.SAMPLE_INTERVAL)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


@dataclass
class Loop:
    latencies: list = field(default_factory=list)
    # mean reference-job duration before, during and after each op
    reference: list = field(default_factory=list)
    raised: int = 0
    wrong: int = 0
    counts: dict = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return self.raised + self.wrong

    @property
    def normalised(self) -> list:
        """Op latencies in multiples of the reference job."""
        return [lat / ref for lat, ref in zip(self.latencies, self.reference)]


def run_op(workload, inp, loop: Loop, tracer=None, reference=None) -> None:
    """Time one op, then check its output and add its counts to ``loop``.

    With ``reference``, the job is sampled during the op and the time the
    samples took is not counted in the op's latency.
    """
    from bench.tracing import ROOT_SPAN

    sampling = reference.sampling() if reference is not None else nullcontext()
    root = tracer.span(ROOT_SPAN) if tracer is not None else nullcontext()
    raised = False
    t0 = time.perf_counter()
    try:
        with sampling, root:
            out = workload.op(inp)
    except Exception:  # an op that raises is counted, reported and not retried
        raised = True
        traceback.print_exc()
    loop.latencies.append(time.perf_counter() - t0 - (reference.spent if reference else 0.0))
    if raised:
        loop.raised += 1
        return
    bad = workload.check(inp, out)
    if bad:
        loop.wrong += 1
        print(f"wrong output: {'; '.join(bad)}", file=sys.stderr)
    for key, value in workload.counts(inp, out).items():
        loop.counts[key] = loop.counts.get(key, 0) + value


def timed_loop(
    workload, inputs, reference: ReferenceJob, seconds=None, ops=None, tracer=None
) -> Loop:
    """Closed loop over the inputs in order, with the reference job between ops.

    Runs ``ops`` ops, or for ``seconds`` and then on to a whole cycle of
    inputs. The job is also sampled during untraced ops only, so that no
    sample lands inside a span.
    """
    loop = Loop()
    begin = time.perf_counter()
    before = reference()
    k = 0
    while True:
        if ops is not None and k >= ops:
            break
        if ops is None and time.perf_counter() - begin >= seconds and k % workload.cycle == 0:
            break
        sampled = reference if tracer is None else None
        run_op(workload, inputs.ops[k % len(inputs.ops)], loop, tracer, sampled)
        after = reference()
        during = reference.samples if sampled is not None else []
        loop.reference.append(statistics.fmean([before, *during, after]))
        before = after
        k += 1
    return loop


def tail(latencies: list):
    """(value, percentile, samples beyond) of the highest percentile with
    TAIL_BEYOND samples beyond it, or of TAIL_FLOOR where that would be lower
    (fewer than 40 samples), so that a short run's tail stays in the upper
    quarter instead of sliding to the median."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = max(n - TAIL_BEYOND, math.ceil(TAIL_FLOOR * n))
    return ordered[k - 1], 100.0 * k / n, n - k


def _openblas() -> dict:
    """Version string and thread count in effect of every OpenBLAS numpy and scipy load."""
    import numpy
    import scipy

    out = {}
    for pkg in (numpy, scipy):
        libdir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(libdir.glob("lib*openblas*.so*")):
            lib = ctypes.CDLL(str(path))
            info = {}
            for key, restype, symbols in (
                ("config", ctypes.c_char_p, ("openblas_get_config", "scipy_openblas_get_config")),
                ("threads", ctypes.c_int, ("openblas_get_num_threads", "scipy_openblas_get_num_threads")),
            ):
                for sym in symbols:
                    fn = getattr(lib, sym, None) or getattr(lib, sym + "64_", None)
                    if fn is not None:
                        fn.restype = restype
                        value = fn()
                        info[key] = value.decode() if isinstance(value, bytes) else value
                        break
            out[f"{pkg.__name__}:{path.name}"] = info
    return out


def _git_commit():
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(args) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas(),
        "thread_env": {var: os.environ[var] for var in THREAD_VARS},
        "malloc_mmap_threshold": MALLOC_MMAP_THRESHOLD,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _as_json(metrics: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def end_to_end(loop: Loop, setup_s: float, fractions: dict) -> tuple[dict, dict]:
    """(gated metrics, reported-only extras) of an untraced loop."""
    norm = loop.normalised
    tail_ref, pct, beyond = tail(norm)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_kref": (1000.0 * loop.attempted / sum(norm), "1/kref"),
        "latency_p50_ref": (statistics.median(norm), "ref"),
        "latency_tail_ref": (tail_ref, "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "quality_fraction": (fractions.get("quality_fraction", 0.0), "fraction"),
    }
    extras = {
        "ops_per_s": (loop.attempted / sum(loop.latencies), "1/s"),
        "latency_p50_s": (statistics.median(loop.latencies), "s"),
        "latency_tail_s": (tail(loop.latencies)[0], "s"),
        "reference_job_s": (statistics.median(loop.reference), "s"),
        "latency_tail_percentile": (pct, "%"),
        "latency_tail_samples_beyond": (beyond, "count"),
        "latency_samples": (loop.attempted, "count"),
        "error_rate": (loop.raised / loop.attempted, "fraction"),
        "wrong_output_rate": (loop.wrong / loop.attempted, "fraction"),
    }
    extras.update(
        {k: (v, "fraction") for k, v in fractions.items() if k != "quality_fraction"}
    )
    return _as_json(metrics), _as_json(extras)


def traced_run(workload, inputs, reference: ReferenceJob, seconds: float, spans_path: Path):
    """Untraced loop for half the time, then the same ops traced; returns
    (untraced loop, traced loop, per-layer metrics)."""
    import numpy as np

    from bench.tracing import Tracer, per_layer_metrics

    plain = timed_loop(workload, inputs, reference, seconds=seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        traced = timed_loop(workload, inputs, reference, ops=plain.attempted, tracer=tracer)
    finally:
        tracer.restore()
    metrics = per_layer_metrics(
        tracer,
        traced.attempted,
        sum(traced.latencies),
        overhead=sum(traced.normalised) / sum(plain.normalised),
    )
    np.savez_compressed(spans_path, **tracer.arrays())
    return plain, traced, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        workload, inputs, setup_main = timed_setup(args.workload, args.seed)
        if args.setup_probe:
            print(repr(setup_main))
            return 0
        setup_s = statistics.median(
            [setup_main] + [setup_probe(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
        )
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    reference = ReferenceJob(workload.reference)
    warm = Loop()
    run_op(workload, inputs.warmup, warm)
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        plain, traced, metrics = traced_run(
            workload,
            inputs,
            reference,
            args.seconds,
            OUT / f"spans-{args.workload}-seed{args.seed}.npz",
        )
        loops = (warm, plain, traced)
        extras = {}
    else:
        loop = timed_loop(workload, inputs, reference, seconds=args.seconds)
        loops = (warm, loop)
        fractions = workload.fractions(loop.counts) if loop.counts else {}
        metrics, extras = end_to_end(loop, setup_s, fractions)

    attempted = sum(lp.attempted for lp in loops)
    failed = sum(lp.failed for lp in loops)
    env = environment(args)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {
        **result,
        "extras": extras,
        "environment": env,
        "latencies_s": [lp.latencies for lp in loops],
        "reference_s": [lp.reference for lp in loops],
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("# environment " + json.dumps(env, sort_keys=True))
    for name, m in {**metrics, **extras}.items():
        print(f"{name:42s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
