"""The benchmark's workloads and the correctness check of their artifacts.

Each workload is one whole ``repro`` command.  Where the CLI reaches the
parameters the workload is that command; otherwise it calls
``run_experiment`` and ``ExperimentResult.save``, the path ``repro run``
takes (``repro run`` has no flag for experiment parameters).  No workload
uses ``--jobs``: on a shared two-core machine a worker pool measures the
neighbours, not the pool.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

#: The seed whose artifact rows are committed under ``perfbench/reference``.
DEFAULT_SEED = 0

#: Artifact columns that read the wall clock; they differ on every run.
WALL_CLOCK_COLUMNS = ("wall (s)", "interactions/s")

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def _recovered_everywhere(rows: List[Dict]) -> List[str]:
    return [
        f"row {index}: recovered fraction {row['recovered fraction']} != 1.0"
        for index, row in enumerate(rows)
        if row["recovered fraction"] != 1.0
    ]


def _linear_time(rows: List[Dict]) -> List[str]:
    """Stabilization in O(n) time (Theorem 4.3), and no trial stopped by the cap.

    The loop engine's cap is ``40 n^2`` parallel time; a mean within
    ``[1, 10] n`` leaves no room for a capped trial among them.
    """
    problems = []
    for index, row in enumerate(rows):
        if not 1.0 <= row["mean / n"] <= 10.0:
            problems.append(f"row {index}: mean time {row['mean time']} outside [1, 10] n")
        if not 0.75 <= row["fitted exponent"] <= 1.25:
            problems.append(f"row {index}: fitted exponent {row['fitted exponent']} not ~1")
    return problems


def _uncapped_epidemic(rows: List[Dict]) -> List[str]:
    """No trial stopped by the cap, and each row converged in ~ln n time.

    The cap is ``40 n^3`` interactions, ``40 n^2`` parallel time; the
    two-way epidemic completes in about ``ln n``.  A row whose slowest (or
    mean) time is within ``[0.5, 4] ln n`` therefore holds no capped trial,
    and a broken engine that converges too early or late fails too.
    """
    problems = []
    for index, row in enumerate(rows):
        slowest = row.get("max parallel time", row["mean parallel time"])
        log_n = math.log(row["n"])
        if not 0.5 * log_n <= row["mean parallel time"] <= slowest <= 4.0 * log_n:
            problems.append(
                f"row {index}: parallel times {row['mean parallel time']}..{slowest} "
                f"outside [0.5, 4] ln n at n={row['n']}"
            )
    return problems


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``cli`` is the ``repro`` command line when the CLI reaches the
    parameters; otherwise ``run`` (the execution options) and ``params``
    (the experiment's parameters) go to ``run_experiment`` at the full
    scale.  ``invariant(rows)`` returns the problems it finds.
    """

    name: str
    experiment: str
    why: str
    invariant: Callable[[List[Dict]], List[str]]
    cli: Tuple[str, ...] = ()
    run: Dict = field(default_factory=dict)
    params: Dict = field(default_factory=dict)

    def command(self, seed: int, output: Path) -> List[str]:
        """Arguments after ``python -m`` for an untraced run."""
        if self.cli:
            return ["repro", *self.cli, "--seed", str(seed), "--output", str(output)]
        return ["perfbench.child", self.name, "--seed", str(seed), "--output", str(output)]

    def artifact(self, output: Path) -> Path:
        return output / f"{self.experiment}.json"


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="optimal-silent-loop",
            experiment="optimal_silent",
            params={"ns": (16, 32, 64), "trials": 24},
            why=(
                "Theorem 4.3 on the loop engine from adversarial starts: per-interaction "
                "Python transitions and stop checks are the whole run, with no compile."
            ),
            invariant=_linear_time,
        ),
        Workload(
            name="stress-compile",
            experiment="recovery_burst",
            cli=("stress", "recovery_burst", "--engine", "compiled", "--n", "5"),
            why=(
                "Fault bursts on Optimal-Silent-SSR at n=5 (97 states): compiling the "
                "same protocol once per run_trials call is nearly the whole run."
            ),
            invariant=_recovered_everywhere,
        ),
        Workload(
            name="epidemic-batched",
            experiment="epidemic_convergence",
            run={"engine": "compiled", "trial_batch": 8},
            params={"ns": (32768,), "trials": 32},
            why=(
                "Trial-batched compiled sweep from count vectors: scheduler draws, "
                "batched table apply and stop checks are the run."
            ),
            invariant=_uncapped_epidemic,
        ),
        Workload(
            name="epidemic-seeded",
            experiment="counts_scaling",
            run={"engine": "compiled"},
            params={"ns": (62_500,), "trials": 4},
            why=(
                "Per-trial compiled epidemic seeded from 250 000 state objects: the one "
                "workload where seeding dominates."
            ),
            invariant=_uncapped_epidemic,
        ),
    )
}


def canonical_rows(artifact: Dict) -> List[Dict]:
    """The artifact's rows without the wall-clock columns."""
    return [
        {key: value for key, value in row.items() if key not in WALL_CLOCK_COLUMNS}
        for row in artifact["rows"]
    ]


def reference_path(workload: Workload) -> Path:
    return REFERENCE_DIR / f"{workload.name}.json"


def check_rows(
    workload: Workload, seed: int, rows: List[Dict], first: Optional[List[Dict]]
) -> List[str]:
    """Problems with one run's canonical rows (an empty list means correct).

    ``first`` holds the rows of the set's first run; every later run of the
    set must match it.  On the default seed the rows must also match the
    committed reference.
    """
    problems = list(workload.invariant(rows))
    if first is not None and rows != first:
        problems.append("rows differ from the first run of this set")
    if seed == DEFAULT_SEED:
        reference = json.loads(reference_path(workload).read_text(encoding="utf-8"))
        if rows != reference:
            problems.append(f"rows differ from {reference_path(workload).name}")
    return problems
