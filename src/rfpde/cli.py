"""Command-line driver for benchmark runs.

Configuration comes from an optional flat JSON file plus flag overrides; each
run owns its output directory. A sweep over m_star runs one benchmark run per
value in ``mstar<m>`` under the output directory and collects errors.csv.
Exit codes: 0 converged, 2 solver failure (of any sweep point), 3
configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .adaptive import AdaptiveConfig
from .bench import SOLVER_ERRORS, run
from .geometry import GeometryError, generate_boundary_points
from .pde import BENCHMARKS, benchmark


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="rfpde",
                                description="Adaptive random-feature solver for "
                                            "second-order boundary-value problems")
    p.add_argument("--problem", choices=BENCHMARKS, help="benchmark name")
    p.add_argument("--config", help="JSON file with configuration fields")
    p.add_argument("--out", required=True, help="output directory for artifacts")
    p.add_argument("--m0", type=int, help="basis size on subdomain 0")
    p.add_argument("--mstar", type=int, help="basis size on each ball subdomain")
    p.add_argument("--epsilon", type=float, help="mean-residual threshold")
    p.add_argument("--radius", type=float, help="ball radius")
    p.add_argument("--seed", type=int, help="random seed")
    p.add_argument("--gamma", type=float, help="shared shape parameter")
    p.add_argument("--strategy", choices=("uniform", "transferable"),
                   help="hidden-parameter construction")
    p.add_argument("--R", type=float, dest="uniform_range",
                   help="range bound for the uniform strategy")
    p.add_argument("--sweep", help="comma-separated m_star values to sweep")
    return p


_FLAG_FIELDS = {
    "m0": "m0", "mstar": "m_star", "epsilon": "epsilon", "radius": "radius",
    "seed": "seed", "gamma": "gamma", "strategy": "strategy",
    "uniform_range": "uniform_range",
}


def _load_config(args) -> tuple[str, AdaptiveConfig, list]:
    """(benchmark, config, sweep): the sweep's (m_star, config) points, empty
    for a single run."""
    data = {}
    if args.config:
        with open(args.config) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("the config file must hold a JSON object")
    own = {key: data.pop(key, None) for key in ("benchmark", "sweep")}
    problem = args.problem or own["benchmark"]
    if not problem:
        raise ValueError("no benchmark given (--problem or config 'benchmark')")
    if problem not in BENCHMARKS:
        raise ValueError(f"unknown benchmark {problem!r}")
    for flag, field_name in _FLAG_FIELDS.items():
        value = getattr(args, flag)
        if value is not None:
            data[field_name] = value
    sweep = [] if own["sweep"] is None else own["sweep"]
    if not (isinstance(sweep, list)
            and all(isinstance(m, int) and not isinstance(m, bool) for m in sweep)):
        raise ValueError(f"config 'sweep' must be a list of integers, not {sweep!r}")
    if args.sweep:
        sweep = [int(tok) for tok in args.sweep.split(",") if tok.strip()]
    config = AdaptiveConfig.from_dict(data)
    # a count the region's edges or faces cannot split is the config's fault
    region = benchmark(problem).region
    try:
        generate_boundary_points(region, config.resolved(region.dim).boundary_count)
    except GeometryError as exc:
        raise ValueError(f"boundary_count: {exc}") from exc
    return problem, config, [(m, replace(config, m_star=m)) for m in sweep]


def _run(label: str, problem: str, config: AdaptiveConfig, out) -> dict | None:
    """One benchmark run; prints its summary, or its failure to stderr and
    returns None."""
    try:
        manifest = run(problem, config, out)
    except SOLVER_ERRORS as exc:
        print(f"{label}: solver failed: {exc}", file=sys.stderr)
        return None
    err = manifest.get("err_l2")
    n_balls = manifest.get("n_balls")
    summary = f"{label}: status={manifest['status']}"
    if n_balls is not None:
        summary += f" subdomains={n_balls + 1}"
    if err is not None:
        summary += f" err_l2={err:.3e}"
    print(summary)
    return manifest


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        problem, config, sweep = _load_config(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 3
    out = Path(args.out)
    if not sweep:
        return 0 if _run(problem, problem, config, out) else 2
    rows = [(m, _run(f"{problem} m_star={m}", problem, point, out / f"mstar{m}"))
            for m, point in sweep]
    with open(out / "errors.csv", "w") as fh:
        fh.write("m_star,err_l2\n")
        for m, manifest in rows:
            err = None if manifest is None else manifest.get("err_l2")
            fh.write(f"{m},{'' if err is None else format(err, '.17g')}\n")
    return 0 if all(manifest for _, manifest in rows) else 2


if __name__ == "__main__":
    sys.exit(main())
