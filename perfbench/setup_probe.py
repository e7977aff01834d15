"""Set-up probe: import numpy and rfpde, build one workload's problem and
config, print ``ready`` and exit.

    python3 perfbench/setup_probe.py <workload>

run.py starts it several times and times each start up to ``ready``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy  # noqa: E402,F401
import rfpde  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

workload = WORKLOADS[sys.argv[1]]
rfpde.benchmark(workload.problem)
rfpde.AdaptiveConfig(**workload.config)
print("ready", flush=True)
