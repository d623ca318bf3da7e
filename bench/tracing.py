"""Outside-in span tracing of speccert, installed from the benchmark's own files.

Nothing under ``src/`` is instrumented. ``Tracer.install`` replaces every public
function of the speccert layer modules, wherever a ``speccert.*`` module binds
it (callers use ``from .x import f``, so the defining module alone is not
enough), plus ``ControlHamiltonian.matrix_at`` at the class and the numpy/scipy
kernels speccert calls: ``numpy.linalg.eigh``, ``numpy.linalg.eigvalsh`` and
``scipy.optimize.minimize``. Each call appends one span (name, parent, start,
end) to in-memory arrays; ``Tracer.restore`` puts the originals back.

Spans nest strictly because the benchmark is single-threaded, so a span's self
time is its duration minus the summed durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

LAYERS = (
    "operators",
    "spectrum",
    "sampling",
    "conical",
    "resonance",
    "coupling",
    "lie_closure",
    "adiabatic",
    "certify",
)

# Per-span observations taken from a wrapped call's return value; the per-layer
# ratios are computed from these after the run.
OBSERVERS = {
    "kernel.minimize": lambda res: (int(res.nfev), bool(res.success)),
    "conical.locate_intersection": lambda res: res is not None,
    "conical.test_conicality": lambda res: bool(res.conical),
    "resonance.check_nonresonant": lambda res: bool(res.passed),
    "adiabatic.propagate": lambda res: int(res.times.shape[0]),
    "lie_closure.closure": lambda res: int(res.dimension),
}

ROOT_SPAN = "op"


class Tracer:
    """In-memory span recorder; ``clock`` is replaceable so tests can fix time."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.notes: dict[int, object] = {}
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped so that every call records a span called ``name``."""
        nid = self._id(name)
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if observe is not None:
                self.notes[idx] = observe(result)
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap speccert's public functions and the kernels it calls."""
        import scipy.optimize

        from speccert.operators import ControlHamiltonian

        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"speccert.{layer}"]
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[obj] = self.wrap(f"{layer}.{attr}", obj)
        wrappers[scipy.optimize.minimize] = self.wrap("kernel.minimize", scipy.optimize.minimize)
        for modname, module in list(sys.modules.items()):
            if modname != "speccert" and not modname.startswith("speccert."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(module, attr, wrappers[obj])
        self._patch(
            ControlHamiltonian, "matrix_at", self.wrap("operators.matrix_at", ControlHamiltonian.matrix_at)
        )
        for kernel in ("eigh", "eigvalsh"):
            self._patch(np.linalg, kernel, self.wrap(f"kernel.{kernel}", getattr(np.linalg, kernel)))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def arrays(self) -> dict:
        """Spans as numpy arrays, the form in which they are written out."""
        return {
            "names": np.array(self.names, dtype=str),
            "name_id": np.array(self.name_id, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
        }

    def self_times(self) -> np.ndarray:
        """Per-span duration minus the time covered by its direct children."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = a["parent"] >= 0
        covered = np.bincount(a["parent"][child], weights=dur[child], minlength=dur.shape[0])
        return dur - covered

    def by_name(self) -> dict:
        """{span name: (calls, summed self time)} over every recorded span."""
        self_s = self.self_times()
        ids = np.array(self.name_id, dtype=np.int32)
        calls = np.bincount(ids, minlength=len(self.names))
        total = np.bincount(ids, weights=self_s, minlength=len(self.names))
        return {name: (int(calls[i]), float(total[i])) for i, name in enumerate(self.names)}

    def indices(self, name: str) -> np.ndarray:
        if name not in self._name_ids:
            return np.zeros(0, dtype=np.int64)
        ids = np.array(self.name_id, dtype=np.int32)
        return np.nonzero(ids == self._name_ids[name])[0]

    def descendants_of(self, outer: str, inner: str) -> int:
        """Number of ``inner`` spans that lie inside some ``outer`` span."""
        outer_idx = self.indices(outer)
        inner_idx = self.indices(inner)
        if outer_idx.size == 0 or inner_idx.size == 0:
            return 0
        starts = np.array(self.start, dtype=np.float64)
        ends = np.array(self.end, dtype=np.float64)
        # outer spans never nest in one another, so each inner span can only
        # lie in the last outer span that started before it
        pos = np.searchsorted(starts[outer_idx], starts[inner_idx], side="right") - 1
        ok = pos >= 0
        inside = starts[inner_idx][ok] < ends[outer_idx][pos[ok]]
        return int(np.count_nonzero(inside))


def _ratio(num: float, den: float) -> float:
    """num/den, or 0.0 when the denominator is empty (the call never happened)."""
    return float(num) / float(den) if den else 0.0


# (metric name, unit) in report order; every value is a per-op mean over the
# traced ops except the ratios, the mean closure dimension per call and the
# two trace.* self-checks.
PER_LAYER = (
    ("conical.locate_intersection.calls", "count"),
    ("conical.locate_intersection.self_s", "s"),
    ("conical.locate_intersection.hit_ratio", "ratio"),
    ("kernel.minimize.calls", "count"),
    ("kernel.minimize.self_s", "s"),
    ("kernel.minimize.nfev", "count"),
    ("kernel.minimize.success_ratio", "ratio"),
    ("kernel.eigvalsh.calls", "count"),
    ("kernel.eigvalsh.self_s", "s"),
    ("conical.test_conicality.calls", "count"),
    ("conical.test_conicality.self_s", "s"),
    ("conical.test_conicality.conical_ratio", "ratio"),
    ("conical.spectral_diameter_estimate.calls", "count"),
    ("conical.certify_connectedness.self_s", "s"),
    ("sampling.calls", "count"),
    ("sampling.self_s", "s"),
    ("resonance.sample_nonresonant.self_s", "s"),
    ("resonance.check_nonresonant.calls", "count"),
    ("resonance.check_nonresonant.self_s", "s"),
    ("resonance.first_pass_ratio", "ratio"),
    ("adiabatic.propagate.self_s", "s"),
    ("adiabatic.propagate.records", "count"),
    ("adiabatic.propagate.eigh_calls", "count"),
    ("adiabatic.climb.self_s", "s"),
    ("kernel.eigh.calls", "count"),
    ("kernel.eigh.self_s", "s"),
    ("spectrum.decompose.calls", "count"),
    ("spectrum.decompose.self_s", "s"),
    ("operators.matrix_at.calls", "count"),
    ("operators.matrix_at.self_s", "s"),
    ("lie_closure.closure.calls", "count"),
    ("lie_closure.closure.self_s", "s"),
    ("lie_closure.closure.dimension", "count"),
    ("lie_closure.classify_transitive.self_s", "s"),
    ("coupling.build_graph.self_s", "s"),
    ("certify.certify.self_s", "s"),
    ("certify.ensemble_genericity.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.self_sum_ratio", "ratio"),
)


def per_layer_metrics(tracer: Tracer, ops: int, traced_s: float, overhead: float) -> dict:
    """Per-op layer metrics from a traced run of ``ops`` ops.

    ``traced_s`` is the summed wall time of those ops as the benchmark loop
    measured it, and ``overhead`` how many times longer they took traced than
    untraced.
    """
    stats = tracer.by_name()

    def calls(name):
        return stats.get(name, (0, 0.0))[0]

    def notes(name):
        return [tracer.notes[i] for i in tracer.indices(name) if i in tracer.notes]

    minimize = notes("kernel.minimize")
    first_pass = evaluated = 0
    checks = tracer.indices("resonance.check_nonresonant")
    check_parents = np.array(tracer.parent, dtype=np.int32)[checks]
    for idx in tracer.indices("resonance.sample_nonresonant"):
        passed = [tracer.notes[int(c)] for c in checks[check_parents == idx]]
        evaluated += len(passed)
        first_pass += passed.index(True) + 1 if True in passed else len(passed)
    closure_dims = notes("lie_closure.closure")

    out = {}
    for name, _ in PER_LAYER:
        # "<span>.calls" / "<span>.self_s", or summed over a whole layer ("sampling.calls")
        prefix, _, field = name.rpartition(".")
        rows = [v for k, v in stats.items() if k == prefix or k.startswith(prefix + ".")]
        if field == "calls":
            out[name] = sum(c for c, _ in rows) / ops
        elif field == "self_s":
            out[name] = sum(t for _, t in rows) / ops
    out["kernel.minimize.nfev"] = sum(n for n, _ in minimize) / ops
    out["adiabatic.propagate.records"] = sum(notes("adiabatic.propagate")) / ops
    out["adiabatic.propagate.eigh_calls"] = (
        tracer.descendants_of("adiabatic.propagate", "kernel.eigh") / ops
    )
    out["conical.locate_intersection.hit_ratio"] = _ratio(
        sum(notes("conical.locate_intersection")), calls("conical.locate_intersection")
    )
    out["kernel.minimize.success_ratio"] = _ratio(sum(s for _, s in minimize), len(minimize))
    out["conical.test_conicality.conical_ratio"] = _ratio(
        sum(notes("conical.test_conicality")), len(notes("conical.test_conicality"))
    )
    out["resonance.first_pass_ratio"] = _ratio(first_pass, evaluated)
    out["lie_closure.closure.dimension"] = _ratio(sum(closure_dims), len(closure_dims))
    out["trace.overhead_ratio"] = overhead
    out["trace.self_sum_ratio"] = _ratio(float(np.sum(tracer.self_times())), traced_s)
    return {name: {"value": float(out[name]), "unit": unit} for name, unit in PER_LAYER}
