"""Every committed ``BENCH_*.json`` covers the benchmark it quotes.

A BENCH file records, for the parent commit and the change, the final JSON
line of every ``perfbench/run.py`` run and the median and quartiles of each
metric. It must name every workload and every end-to-end metric that
``BENCHMARK.json`` declares, on both sides.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_a_bench_file_is_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_names_every_workload_and_metric(path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    data = json.loads(path.read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for side in ("parent", "change"):
            entry = data["workloads"][workload][side]
            assert entry["runs"], (workload, side)
            for metric in (m["name"] for m in spec["end_to_end"]):
                assert all(metric in run["metrics"] for run in entry["runs"])
                q1, q3 = entry["quartiles"][metric]
                assert q1 <= entry["median"][metric] <= q3, (workload, side, metric)
