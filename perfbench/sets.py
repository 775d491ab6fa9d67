"""Run sets of benchmark invocations and report their spread.

    python3 perfbench/sets.py --seeds 1 2 3 4 5 6 7 8 9 10 [--workloads NAME ...]
                              [--seconds S] [--trace 0|1] [--output FILE]

For each workload, runs ``perfbench/run.py`` once per seed, one after the
other, and reports per metric the median and the distance between the
first and third quartile (``statistics.quantiles(values, n=4)``) as a share
of the median -- the spread ``BENCHMARK.json``'s bounds are held to.  The
summary also records the machine: processor count and model, Python and
NumPy versions, and the load average at the start and end of each set.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

import numpy

ROOT = Path(__file__).resolve().parent.parent


def fingerprint() -> Dict:
    """The machine and toolchain the figures were measured on."""
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def spread(values: List[float]) -> Dict:
    """Median, quartiles and the interquartile distance as a share of the median."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def run_set(workload: str, seeds: List[int], seconds: int, trace: int) -> Dict:
    load_start = os.getloadavg()
    results = []
    for seed in seeds:
        completed = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        lines = completed.stdout.strip().splitlines()
        if completed.returncode != 0 or not lines:
            raise RuntimeError(f"{workload} seed {seed} failed:\n{completed.stderr}")
        results.append(json.loads(lines[-1]))
        print(f"{workload} seed {seed}: " + ", ".join(
            f"{name}={metric['value']:.4g}" for name, metric in results[-1]["metrics"].items()
            if name in ("wall_s", "setup_s", "cpu_s", "peak_rss_mb", "traced.wall_s")
        ), file=sys.stderr)
    metrics = {
        name: spread([result["metrics"][name]["value"] for result in results])
        for name in results[0]["metrics"]
    }
    return {
        "seeds": seeds,
        "load_average_start": load_start,
        "load_average_end": os.getloadavg(),
        "attempted": sum(result["attempted"] for result in results),
        "failed": sum(result["failed"] for result in results),
        "metrics": metrics,
    }


def main() -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(prog="perfbench/sets.py", description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workloads", nargs="+",
                        default=[workload["name"] for workload in benchmark["workloads"]])
    parser.add_argument("--seconds", type=int, default=benchmark["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--output", type=Path, default=None)
    args = parser.parse_args()
    summary = {
        "machine": fingerprint(),
        "run_seconds": args.seconds,
        "trace": args.trace,
        "sets": {name: run_set(name, args.seeds, args.seconds, args.trace)
                 for name in args.workloads},
    }
    for name, result in summary["sets"].items():
        for metric, figures in result["metrics"].items():
            print(f"{name:18s} {metric:40s} median {figures['median']:.6g}  "
                  f"IQR/median {figures['iqr_share']:.4f}")
    if args.output is not None:
        args.output.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
