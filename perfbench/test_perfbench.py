"""Tests of the benchmark's own arithmetic: errors, checks, spans and self time.

    python3 -m pytest perfbench -q
"""

import json
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import layers
import run
from tracing import Span, Tracer, self_times
from workloads import (WORKLOADS, Workload, centre_problems, check, exact_solution,
                       relative_errors)


def test_relative_errors_hand_computed():
    l2, linf = relative_errors([1.0, 2.0, 2.0], [1.0, 2.0, 3.0])
    assert l2 == pytest.approx(1.0 / math.sqrt(14.0), rel=1e-15)
    assert linf == pytest.approx(1.0 / 3.0, rel=1e-15)


def test_relative_errors_of_zero_prediction_is_one():
    l2, linf = relative_errors(np.zeros(3), [0.5, -1.0, 2.0])
    assert (l2, linf) == (1.0, 1.0)


def test_exact_solution_closed_form():
    peaks = ((0.5, 0.5), (-0.5, -0.5))
    pts = np.array([[0.5, 0.5], [0.5, 0.45], [0.0, 0.0]])
    got = exact_solution(pts, peaks)
    assert got[0] == pytest.approx(1.0 + math.exp(-2000.0))
    assert got[1] == pytest.approx(math.exp(-1000.0 * 0.05 ** 2))
    assert got[2] == pytest.approx(2.0 * math.exp(-500.0))


def test_centres_must_match_distinct_peaks():
    peaks = ((0.5, 0.5), (-0.5, -0.5))
    assert centre_problems([(-0.49, -0.5), (0.5, 0.52)], peaks, 0.05) == []
    assert centre_problems([(0.5, 0.5), (0.51, 0.5)], peaks, 0.05)
    assert centre_problems([(0.5, 0.5)], peaks, 0.05)


def _grid(n):
    axis = np.linspace(-1.0, 1.0, n)
    return np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)


def test_check_gates_and_known_fault():
    pts = _grid(9)
    exact = exact_solution(pts, ((0.5, 0.5),))
    gated = Workload(name="w", problem="p", config={}, peaks=((0.5, 0.5),),
                     test_resolution=9, centre_tol=0.05, err_l2_max=1e-3)
    v = check(gated, pts, exact, [(0.5, 0.5)])
    assert (v.err_l2, v.problems, v.fault) == (0.0, [], None)
    v = check(gated, pts, exact * 1.01, [(0.5, 0.5)])
    assert v.err_l2 == pytest.approx(0.01) and v.problems and v.fault is None

    faulty = Workload(name="w", problem="p", config={}, peaks=((0.5, 0.5),),
                      test_resolution=9, centre_tol=0.05, err_l2_max=None,
                      fault_err_l2_below=1.0, fault="known")
    v = check(faulty, pts, np.zeros(len(pts)), [(0.5, 0.5)])
    assert v.problems == [] and v.fault.endswith("known")
    v = check(faulty, pts[:-1], exact[:-1], [(0.5, 0.5)])
    assert v.problems and v.fault is None


def test_self_time_of_nested_spans():
    spans = [Span(0, "root", 0.0, 10.0, None),
             Span(1, "a", 1.0, 4.0, 0),
             Span(2, "a.child", 2.0, 3.0, 1),
             Span(3, "b", 5.0, 7.0, 0),
             Span(4, "c", 6.5, 12.0, 0)]   # overlaps b and ends after its parent
    own = self_times(spans)
    # root: a covers 3, b and c together cover [5, 10] within it
    assert own[0] == pytest.approx(10.0 - 3.0 - 5.0)
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(1.0)
    assert own[3] == pytest.approx(2.0)
    assert own[4] == pytest.approx(5.5)


def test_tracer_wraps_nested_calls_and_restores():
    mod = SimpleNamespace()
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    originals = (mod.inner, mod.outer)
    tracer = Tracer()
    calls = []
    with tracer.patched([(mod, "inner", "m.inner", None),
                         (mod, "outer", "m.outer",
                          lambda t, args, result: calls.append((args, result)))]):
        assert mod.outer(1) == 4
        assert mod.inner(0) == 1
    assert (mod.inner, mod.outer) == originals
    assert calls == [((1,), 4)]
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    outer, = by_name["m.outer"]
    assert [s.parent for s in by_name["m.inner"]] == [outer.id, None]
    totals = tracer.totals()
    assert totals["m.inner"]["calls"] == 2 and totals["m.outer"]["calls"] == 1
    assert tracer.overhead_s > 0.0


def test_svd_flop_count():
    assert layers.svd_lstsq_flops(3, 2) == 4 * 3 * 4 + 8 * 8
    assert layers.svd_lstsq_flops(2, 3) == layers.svd_lstsq_flops(3, 2)


def test_benchmark_json_names_what_the_run_prints():
    spec = json.loads((Path(__file__).resolve().parent.parent
                       / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END

    tracer = Tracer()
    with tracer.span(run.SOLVE_SPAN):
        pass
    printed = {name: unit for name, (_, unit) in
               layers.layer_metrics(tracer, run.SOLVE_SPAN).items()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == printed
