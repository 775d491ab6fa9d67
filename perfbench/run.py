"""Run one benchmark workload in cold processes and print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the program is ``src/repro`` of that
checkout.  Every workload run is a fresh interpreter writing its artifact
into an empty directory under ``.perfbench_work/``, which is removed at
the end.

``--trace 0`` measures the end-to-end metrics with tracing off, in rounds
while another round still fits in ``--seconds`` (at least one round).  A
round times ``SETUP_SAMPLES_PER_RUN`` processes that only import ``repro``
and look the experiment up (``setup_s``), one calibration process (a fixed
amount of work outside the program, ``perfbench/calibrate.py``), then runs
the workload once.  The speed of a shared machine drifts by tens of
percent from one minute to the next, so the median timings are scaled by
``CALIBRATION_REFERENCE_S`` over the median calibration time: the figures
read as seconds on a machine where the calibration takes
``CALIBRATION_REFERENCE_S``.  The unscaled medians are printed beside them.

``--trace 1`` reports the per-layer metrics: one untraced run, then
``TRACED_RUNS`` runs with spans around each layer's entry points (see
``perfbench/hooks.py``).  Counts that differ between the traced runs are
printed as nondeterminism.

Every run's artifact is checked (see ``perfbench/workloads.py``): a run
that exits non-zero, times out or fails the check counts as failed.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.hooks import ENGINE_LAYERS, LAYER_TIME_METRICS  # noqa: E402
from perfbench.spans import self_times  # noqa: E402
from perfbench.workloads import WORKLOADS, Workload, canonical_rows, check_rows  # noqa: E402

SETUP_SAMPLES_PER_RUN = 2
#: The calibration's wall time that the scaled timings are expressed
#: against: about its median on the machine the figures were recorded on.
CALIBRATION_REFERENCE_S = 0.55
TRACED_RUNS = 2
#: Every process is killed when the whole invocation reaches this age.
HARD_LIMIT_S = 170.0

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "ok_run_ratio": "ratio",
}

#: Counts that must repeat exactly between two traced runs of one seed.
EXACT_COUNTS = (
    "engine.compiled.compile.calls",
    "engine.compiled.compile.distinct",
    "engine.compiled.states",
    "engine.compiled.pairs_probed",
    "core.state_clone.calls",
    "core.seed.agents",
    "engine.simulation.interactions",
    "engine.batch_simulation.interactions",
    "engine.trial_batch.interactions",
    "engine.trial_batch.trials",
    "engine.scheduler.draw.calls",
    "engine.scheduler.draw.pairs",
    "core.stop_check.calls",
    "adversary.fault.calls",
    "experiments.harness.trials",
    "experiments.harness.capped_trials",
)

PER_LAYER = {
    "import.s": "s",
    **{metric: "s" for metric in LAYER_TIME_METRICS.values()},
    **{name: "count" for name in EXACT_COUNTS},
    "experiments.result.bytes": "bytes",
    "experiments.harness.useful_ratio": "ratio",
    **{f"{prefix}.interactions_per_s": "1/s" for prefix in ENGINE_LAYERS.values()},
    "unattributed.s": "s",
    "traced.wall_s": "s",
    "trace_overhead.s": "s",
    "trace.nondeterministic_counts": "count",
    "trace.missing_hooks": "count",
}


@dataclass
class Run:
    """One workload process: its resource use and what its check found."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    problems: List[str] = field(default_factory=list)
    trace: Optional[Dict] = None


class Invocation:
    """The state of one invocation: its work directory, clock and runs."""

    def __init__(self, workload: Workload, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.started = time.perf_counter()
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
        self.first_rows: Optional[List[Dict]] = None
        self.runs: List[Run] = []

    def remaining(self) -> float:
        return HARD_LIMIT_S - (time.perf_counter() - self.started)

    def spawn(self, argv: List[str], log: Path):
        """Run ``argv`` to completion: (wall seconds, rusage, exit code)."""
        timeout = self.remaining()
        if timeout <= 0:
            return 0.0, None, -1
        with open(log, "wb") as sink:
            began = time.perf_counter()
            process = subprocess.Popen(
                argv, cwd=ROOT, env=self.env, stdout=sink, stderr=subprocess.STDOUT
            )
            timer = threading.Timer(timeout, process.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(process.pid, 0)
            except BaseException:
                process.kill()
                process.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - began
        process.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage, process.returncode

    def calibration_sample(self) -> float:
        wall, _, exit_code = self.spawn(
            [sys.executable, "-m", "perfbench.calibrate"], self.work / "calibration.log"
        )
        if exit_code != 0:
            raise RuntimeError(f"calibration process failed: {exit_code}")
        return wall

    def setup_sample(self) -> float:
        code = (
            "import repro\n"
            "from repro.experiments.registry import get_experiment\n"
            f"get_experiment({self.workload.experiment!r})\n"
        )
        wall, _, exit_code = self.spawn([sys.executable, "-c", code], self.work / "setup.log")
        if exit_code != 0:
            raise RuntimeError(f"setup process failed: {exit_code}")
        return wall

    def run_workload(self, traced: bool) -> Run:
        index = len(self.runs)
        output = self.work / f"run-{index}"
        output.mkdir()
        trace_path = self.work / f"trace-{index}.json"
        if traced:
            argv = ["perfbench.child", self.workload.name, "--seed", str(self.seed),
                    "--output", str(output), "--trace", str(trace_path)]
        else:
            argv = self.workload.command(self.seed, output)
        log = self.work / f"run-{index}.log"
        wall, usage, exit_code = self.spawn([sys.executable, "-m", *argv], log)
        run = Run(
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime if usage else 0.0,
            peak_rss_mb=usage.ru_maxrss / 1024.0 if usage else 0.0,
            exit_code=exit_code,
        )
        if exit_code != 0:
            tail = log.read_text(errors="replace")[-2000:] if log.exists() else ""
            run.problems.append(f"exit code {exit_code}: {tail}")
        else:
            try:
                artifact = json.loads(self.workload.artifact(output).read_text(encoding="utf-8"))
                rows = canonical_rows(artifact)
            except (OSError, ValueError, KeyError, TypeError) as error:
                run.problems.append(f"unreadable artifact: {error}")
            else:
                run.problems.extend(check_rows(self.workload, self.seed, rows, self.first_rows))
                if self.first_rows is None:
                    self.first_rows = rows
            if traced:
                run.trace = json.loads(trace_path.read_text(encoding="utf-8"))
                capped = run.trace["counts"].get("experiments.harness.capped_trials", 0)
                if capped:
                    run.problems.append(f"{capped} trials stopped by the cap")
        shutil.rmtree(output, ignore_errors=True)
        self.runs.append(run)
        for problem in run.problems:
            print(f"run {index} failed: {problem}", file=sys.stderr)
        return run


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(invocation: Invocation, seconds: float) -> Dict[str, float]:
    """Rounds of setup samples, a calibration and one workload run while another round fits.

    Interleaving the samples spreads them over the whole window, so a slow
    stretch of a shared machine weighs on all of them alike, and the
    calibration's median says how fast the machine ran over the window.
    """
    began = time.perf_counter()
    setup: List[float] = []
    calibration: List[float] = []
    longest_round = 0.0
    while True:
        round_began = time.perf_counter()
        setup.extend(invocation.setup_sample() for _ in range(SETUP_SAMPLES_PER_RUN))
        calibration.append(invocation.calibration_sample())
        invocation.run_workload(traced=False)
        now = time.perf_counter()
        longest_round = max(longest_round, now - round_began)
        if now - began + longest_round > seconds or longest_round > invocation.remaining():
            break
    completed = [r for r in invocation.runs if r.exit_code == 0] or invocation.runs
    failed = sum(bool(r.problems) for r in invocation.runs)
    scale = CALIBRATION_REFERENCE_S / _median(calibration)
    _report_samples("calibration", calibration)
    _report_samples("setup_s (unscaled)", setup)
    _report_samples("wall_s (unscaled)", [r.wall_s for r in completed])
    _report_samples("cpu_s (unscaled)", [r.cpu_s for r in completed])
    return {
        "wall_s": _median([r.wall_s for r in completed]) * scale,
        "setup_s": _median(setup) * scale,
        "cpu_s": _median([r.cpu_s for r in completed]) * scale,
        "peak_rss_mb": _median([r.peak_rss_mb for r in completed]),
        "ok_run_ratio": (len(invocation.runs) - failed) / len(invocation.runs),
    }


def layer_metrics(trace: Dict, wall_s: float) -> Dict[str, float]:
    """Per-layer metrics of one traced run."""
    selves = self_times(trace["layers"], trace["spans"])
    counts = trace["counts"]
    metrics: Dict[str, float] = {"import.s": trace["import_s"]}
    for layer, metric in LAYER_TIME_METRICS.items():
        metrics[metric] = selves.get(layer, 0.0)
    for name in EXACT_COUNTS:
        metrics[name] = counts.get(name, 0)
    metrics["experiments.result.bytes"] = counts.get("experiments.result.bytes", 0)
    trials = counts.get("experiments.harness.trials", 0)
    capped = counts.get("experiments.harness.capped_trials", 0)
    metrics["experiments.harness.useful_ratio"] = 1.0 - capped / trials if trials else 1.0
    for layer, prefix in ENGINE_LAYERS.items():
        busy = selves.get(layer, 0.0)
        interactions = counts.get(prefix + ".interactions", 0)
        metrics[prefix + ".interactions_per_s"] = interactions / busy if busy > 0 else 0.0
    metrics["unattributed.s"] = wall_s - trace["import_s"] - sum(selves.values())
    metrics["traced.wall_s"] = wall_s
    metrics["trace.missing_hooks"] = len(trace["missing_hooks"])
    return metrics


def per_layer(invocation: Invocation) -> Dict[str, float]:
    """One untraced run, then ``TRACED_RUNS`` traced ones."""
    baseline = invocation.run_workload(traced=False)
    traced = []
    for _ in range(TRACED_RUNS):
        run = invocation.run_workload(traced=True)
        if run.trace is None:
            break
        traced.append(run)
    if not traced:
        return {name: 0 for name in PER_LAYER}
    samples = [layer_metrics(run.trace, run.wall_s) for run in traced]
    metrics = {}
    for name, value in samples[0].items():
        counted = PER_LAYER[name] in ("count", "bytes")
        metrics[name] = value if counted else _median([sample[name] for sample in samples])
    differing = sorted(
        name for name in EXACT_COUNTS if len({sample[name] for sample in samples}) > 1
    )
    for name in differing:
        print(f"nondeterminism: {name} = {[s[name] for s in samples]}", file=sys.stderr)
    metrics["trace.nondeterministic_counts"] = len(differing)
    metrics["trace_overhead.s"] = metrics["traced.wall_s"] - baseline.wall_s
    for hook in traced[0].trace["missing_hooks"]:
        print(f"missing hook: {hook}", file=sys.stderr)
    _report_shares(metrics)
    return metrics


def _report_samples(name: str, values: List[float]) -> None:
    ordered = sorted(values)
    print(f"{name}: median {_median(ordered):.4f} over {len(ordered)} samples "
          f"(min {ordered[0]:.4f}, max {ordered[-1]:.4f})")


def _report_shares(metrics: Dict[str, float]) -> None:
    """Each layer's share of the traced wall time, largest first."""
    wall = metrics["traced.wall_s"]
    layers = {metric: metrics[metric] for metric in LAYER_TIME_METRICS.values()}
    layers["import.s"] = metrics["import.s"]
    layers["unattributed.s"] = metrics["unattributed.s"]
    ranked = sorted(layers.items(), key=lambda item: -item[1])
    print(f"largest self-time layer: {ranked[0][0]} ({ranked[0][1] / wall:.1%} of traced wall)")
    for metric, value in ranked:
        if value > 0:
            print(f"  {metric:36s} {value:9.4f} s  {value / wall:6.1%}")


def _fresh_work_dir() -> Path:
    work = ROOT / ".perfbench_work" / uuid.uuid4().hex
    work.mkdir(parents=True)
    return work


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2

    work = _fresh_work_dir()
    try:
        subprocess.run(
            [sys.executable, "-m", "compileall", "-q", str(ROOT / "src" / "repro")],
            check=True, stdout=subprocess.DEVNULL, timeout=120,
        )
        invocation = Invocation(WORKLOADS[args.workload], args.seed, work)
        print(f"load average at start: {os.getloadavg()}")
        if args.trace:
            metrics, units = per_layer(invocation), PER_LAYER
        else:
            metrics, units = end_to_end(invocation, args.seconds), END_TO_END
        print(f"load average at end: {os.getloadavg()}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another invocation still uses it

    failed = sum(bool(run.problems) for run in invocation.runs)
    for name, unit in units.items():
        print(f"{name:40s} {metrics[name]!r} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(invocation.runs),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
