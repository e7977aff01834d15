"""The benchmark's traced run wraps solver functions by module attribute.

A renamed or removed attribute, or a result its counters cannot read (a
system without a dense ``matrix``, say), would break only the traced run, so
every attribute the benchmark patches is checked here, and every counter runs
on the results of a small traced solve with one refinement.
"""

import importlib.util
import math
import sys
from pathlib import Path

import rfpde

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module    # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_every_patched_attribute_exists():
    patches = load("layers").patches(rfpde)
    assert patches
    for owner, attribute, span, _ in patches:
        assert callable(getattr(owner, attribute, None)), span


def test_every_counter_reads_a_traced_solve():
    layers, tracing = load("layers"), load("tracing")
    tracer = tracing.Tracer()
    config = rfpde.AdaptiveConfig(interior_resolution=20, boundary_count=120,
                                  ball_resolution=16, interface_count=60,
                                  scale_max=2, m0=60, m_star=120, epsilon=1e-3,
                                  max_refinements=1, seed=3)
    problem = rfpde.benchmark("peak2d-case1")
    try:
        with tracer.patched(layers.patches(rfpde)), tracer.span("solve"):
            rfpde.adaptive_solve(problem, config)
    except rfpde.MaxRefinementsError:
        pass     # the one refinement allowed has been traced
    totals = tracer.totals()
    for _, _, span, _ in layers.patches(rfpde):
        assert totals[span]["calls"] > 0, span
    metrics = layers.layer_metrics(tracer, "solve")
    assert all(math.isfinite(value) for value, _ in metrics.values())
    assert metrics["adaptive.refinements"][0] == 1
    assert metrics["lsq.matrix_mb_max"][0] > 0
    assert 0 <= metrics["lsq.assemble.zero_share"][0] < 1
    assert metrics["lsq.solve_min_norm.gflop"][0] > 0
