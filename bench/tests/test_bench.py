"""Tests of the benchmark harness itself: python3 -m pytest -q bench/tests"""

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import speccert as sc  # noqa: E402
from bench import run, tracing  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _flatten(inputs):
    """Every array and scalar reachable from a workload's inputs, in order."""
    out = []

    def walk(x):
        if isinstance(x, sc.ControlHamiltonian):
            out.extend([x.drift.matrix, *(h.matrix for h in x.controlled), x.box])
        elif isinstance(x, (tuple, list)):
            for item in x:
                walk(item)
        elif isinstance(x, np.ndarray | int | float):
            out.append(np.asarray(x))
        elif isinstance(x, sc.ConnectednessReport):
            out.append(np.asarray(json.dumps(x.to_json_dict(), sort_keys=True)))
        else:
            out.append(np.asarray(repr(x)))

    walk([inputs.warmup, inputs.ops[:12]])
    return out


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_a_function_of_the_seed(name):
    setup = WORKLOADS[name].setup
    first, again, other = _flatten(setup(3)), _flatten(setup(3)), _flatten(setup(4))
    assert len(first) == len(again)
    assert all(np.array_equal(a, b) for a, b in zip(first, again))
    assert not all(np.array_equal(a, b) for a, b in zip(first, other))


def test_certify_inputs_cycle_sizes_in_equal_shares():
    inputs = WORKLOADS["certify_random"].setup(0)
    sizes = [H.dim for H, _ in inputs.ops[:9]]
    assert sizes == [3, 4, 8] * 3
    assert WORKLOADS["certify_random"].cycle == 3


def test_metric_names_and_units_follow_the_contract():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    loop = run.Loop(latencies=[0.1 * (k + 1) for k in range(25)], reference=[0.005] * 25)
    metrics, extras = run.end_to_end(loop, 1.0, {"quality_fraction": 1.0})
    declared = {m["name"]: m for m in bench["end_to_end"]}
    assert set(declared) == set(metrics)
    for name, m in metrics.items():
        assert declared[name]["unit"] == m["unit"]
    assert [m["name"] for m in bench["per_layer"]] == [n for n, _ in tracing.PER_LAYER]
    assert [m["unit"] for m in bench["per_layer"]] == [u for _, u in tracing.PER_LAYER]
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(WORKLOADS)
    for name in [*metrics, *extras, *declared, *(n for n, _ in tracing.PER_LAYER)]:
        assert NAME.fullmatch(name), name


def test_tail_is_the_highest_percentile_with_ten_beyond_but_at_least_p75():
    lat = [float(k) for k in range(1, 41)]
    value, pct, beyond = run.tail(lat)
    assert (value, pct, beyond) == (30.0, 75.0, 10)
    assert sum(x > value for x in lat) == 10
    assert run.tail([float(k) for k in range(20, 0, -1)]) == (15.0, 75.0, 5)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    assert run.tail([7.0]) == (7.0, 100.0, 0)


class _Clock:
    """Advances one unit per reading, so every span length is a known integer."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_self_time_subtracts_direct_children_only():
    tracer = tracing.Tracer(clock=_Clock())

    def leaf():
        return None

    leaf_t = tracer.wrap("layer.leaf", leaf)

    def middle():
        leaf_t()
        leaf_t()

    middle_t = tracer.wrap("layer.middle", middle)

    def outer():
        middle_t()
        leaf_t()

    outer_t = tracer.wrap("layer.outer", outer)
    with tracer.span(tracing.ROOT_SPAN):
        outer_t()

    a = tracer.arrays()
    names = [str(a["names"][i]) for i in a["name_id"]]
    assert names == ["op", "layer.outer", "layer.middle", "layer.leaf", "layer.leaf", "layer.leaf"]
    assert list(a["parent"]) == [-1, 0, 1, 2, 2, 1]
    # clock readings: op 1..12, outer 2..11, middle 3..8, leaves 4..5, 6..7, 9..10
    assert list(a["end"] - a["start"]) == [11.0, 9.0, 5.0, 1.0, 1.0, 1.0]
    assert list(tracer.self_times()) == [2.0, 3.0, 3.0, 1.0, 1.0, 1.0]
    stats = tracer.by_name()
    assert stats["layer.leaf"] == (3, 3.0)
    assert sum(s for _, s in stats.values()) == 11.0
    assert tracer.descendants_of("layer.middle", "layer.leaf") == 2
    assert tracer.descendants_of("layer.outer", "layer.leaf") == 3


def test_install_wraps_every_binding_and_restore_undoes_it():
    from speccert import conical, spectrum

    original = (sc.decompose, conical.decompose, spectrum.decompose, np.linalg.eigh)
    H = sc.ControlHamiltonian(
        drift=sc.HermitianOperator(np.diag([0.0, 1.0])),
        controlled=(
            sc.HermitianOperator(np.array([[0.0, 1.0], [1.0, 0.0]])),
            sc.HermitianOperator(np.diag([1.0, -1.0])),
        ),
        box=np.array([[-1.0, 1.0], [-1.0, 1.0]]),
    )
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert sc.decompose is conical.decompose is spectrum.decompose
        assert sc.decompose is not original[0]
        sc.decompose(H, [0.2, 0.1])
    finally:
        tracer.restore()
    assert (sc.decompose, conical.decompose, spectrum.decompose, np.linalg.eigh) == original
    a = tracer.arrays()
    names = [str(a["names"][i]) for i in a["name_id"]]
    assert names == ["spectrum.decompose", "operators.matrix_at", "kernel.eigh"]
    assert list(a["parent"]) == [-1, 0, 0]
