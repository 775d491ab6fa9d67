"""Stress experiments: recovery-time measurements under fault campaigns.

These experiments exercise the adversary subsystem end to end on the
self-stabilizing catalogue entries: a :class:`~repro.adversary.plan.FaultPlan`
rides on the :class:`~repro.engine.run_config.RunConfig` into either engine,
and :mod:`repro.analysis.stabilization` turns the per-trial results into
recovery times measured from the *last* burst.

* ``recovery_burst``: recovery time as a function of burst size -- how much
  of the population a transient fault may corrupt before re-stabilization
  slows down (or fails within the cap).
* ``recovery_scheduler``: recovery time under adversarial schedulers --
  uniform vs. weight-biased vs. epoch-partitioned scheduling of the same
  fault campaign (self-stabilization must hold under any fair scheduler).

Both run through the multi-trial harness, so ``--engine``, ``--jobs``, and
``--seed`` apply; the ``repro stress`` CLI subcommand is a front end over
exactly these registry entries.
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Mapping, Optional

from repro.adversary.plan import FaultPlan
from repro.adversary.schedulers import SchedulerSpec
from repro.analysis.stabilization import recovered_fraction, recovery_statistics
from repro.core.optimal_silent import OptimalSilentSSR
from repro.core.propagate_reset import ResetWaveProtocol
from repro.core.silent_n_state import SilentNStateSSR
from repro.engine.protocol import PopulationProtocol
from repro.engine.run_config import RunConfig
from repro.experiments.api import experiment_runner, read_params
from repro.experiments.harness import run_trials

#: Reduced Optimal-Silent-SSR constants.  ``D_max``/``E_max`` scale linearly
#: in ``n`` and enter the compiled state count multiplicatively, so the
#: stress experiments use the same compile-friendly constants as the
#: cross-engine equivalence matrix -- a run at quick scale must compile in
#: seconds on either engine, not minutes.
STRESS_CONSTANTS = {"rmax_multiplier": 1.0, "dmax_factor": 2.0, "emax_factor": 3.0}


def make_stress_protocol(name: str, n: int) -> PopulationProtocol:
    """Catalogue protocols the stress experiments run against.

    All three support both engines, so ``--engine compiled`` works for every
    stress scenario.
    """
    if name == "optimal-silent":
        return OptimalSilentSSR(n, **STRESS_CONSTANTS)
    if name == "silent-n-state":
        return SilentNStateSSR(n)
    if name == "reset-wave":
        return ResetWaveProtocol(n)
    raise ValueError(
        f"unknown stress protocol {name!r}; "
        "known: optimal-silent, silent-n-state, reset-wave"
    )


def _base_seed(run: RunConfig) -> int:
    """Integer root for the per-row seed tuples below."""
    return run.seed if isinstance(run.seed, int) else 0


def _burst_plan(n: int, burst_times, burst_size: int, kind: str = "corrupt") -> FaultPlan:
    """Timed bursts at the given parallel times (converted to interactions)."""
    return FaultPlan.bursts(
        [(int(round(time * n)), burst_size) for time in burst_times], kind=kind
    )


def _clamped_burst_sizes(burst_sizes, n: int) -> List[int]:
    """Burst sizes capped at the population size, de-duplicated, in order.

    The defaults scale with the default ``n``; a CLI ``--n`` override below
    them must degrade to "corrupt everything", not crash.
    """
    sizes: List[int] = []
    for burst_size in burst_sizes:
        if burst_size < 0:
            raise ValueError(f"burst size must be non-negative, got {burst_size}")
        clamped = min(int(burst_size), n)
        if clamped not in sizes:
            sizes.append(clamped)
    return sizes


def _recovery_row(
    label: str, results, extra: Optional[Dict] = None
) -> Dict:
    """One report row from per-trial results (recovery measured post-burst)."""
    statistics = recovery_statistics(label, results)
    row = dict(extra or {})
    row.update(
        {
            "trials": len(results),
            "recovered fraction": recovered_fraction(results),
            "mean recovery time": statistics.mean,
            "p90 recovery time": statistics.quantile(0.9),
            "max recovery time": statistics.maximum,
        }
    )
    return row


@experiment_runner("recovery_burst")
def run_recovery_burst(params: Mapping, run: RunConfig) -> List[Dict]:
    """Recovery time vs. transient-fault burst size.

    Each setting runs a campaign of ``len(burst_times)`` corrupt bursts of
    ``burst_size`` agents (victims and replacement states drawn from the
    protocol's adversarial sampler) and measures parallel time from the last
    burst to the run's stop condition.  ``burst_sizes`` may include ``n``
    (the full-population burst, equivalent to an adversarial restart);
    larger sizes are clamped to ``n`` and de-duplicated, so an ``--n``
    override below the default sizes keeps working (rows report the actual
    size run).
    """
    opts = read_params(
        params,
        protocol="optimal-silent",
        n=12,
        burst_sizes=(2, 6, 12),
        burst_times=(1.0, 3.0),
        trials=5,
    )
    n, trials = opts["n"], opts["trials"]
    seed = _base_seed(run)
    # One protocol object for every setting, so the table engines compile once.
    protocol = make_stress_protocol(opts["protocol"], n)
    rows: List[Dict] = []
    for burst_size in _clamped_burst_sizes(opts["burst_sizes"], n):
        plan = _burst_plan(n, opts["burst_times"], burst_size)
        results = run_trials(
            protocol_factory=lambda: protocol,
            trials=trials,
            run=run.replace(seed=(seed, n, burst_size), faults=plan),
        )
        rows.append(
            _recovery_row(
                f"{opts['protocol']} burst={burst_size}",
                results,
                extra={
                    "n": n,
                    "burst size": burst_size,
                    "bursts": len(opts["burst_times"]),
                },
            )
        )
    return rows


@experiment_runner("recovery_scheduler")
def run_recovery_scheduler(params: Mapping, run: RunConfig) -> List[Dict]:
    """Recovery time under uniform vs. adversarial schedulers.

    The same fault campaign (corrupt bursts of ``burst_size`` agents) runs
    under the paper's uniform scheduler, a weight-biased scheduler (a hot
    set of over-scheduled agents), and an epoch-partition scheduler whose
    blocks stay split until after the last burst -- so part of the recovery
    happens while the population is partitioned.
    """
    opts = read_params(
        params,
        protocol="optimal-silent",
        n=12,
        burst_size=6,
        burst_times=(1.0, 3.0),
        trials=5,
        hot_fraction=0.25,
        hot_weight=4.0,
        blocks=2,
        split_time=4.0,
    )
    n, trials = opts["n"], opts["trials"]
    (burst_size,) = _clamped_burst_sizes((opts["burst_size"],), n)
    plan = _burst_plan(n, opts["burst_times"], burst_size)
    schedulers = (
        ("uniform", None),
        (
            "biased",
            SchedulerSpec(
                kind="biased",
                hot_fraction=opts["hot_fraction"],
                hot_weight=opts["hot_weight"],
            ),
        ),
        (
            "epoch",
            SchedulerSpec(
                kind="epoch", blocks=opts["blocks"], split_time=opts["split_time"]
            ),
        ),
    )
    seed = _base_seed(run)
    # Every config is built (and validated) before the first trial runs, so
    # a combination RunConfig refuses fails before any compile.
    configs = [
        run.replace(
            # crc32, not hash(): str hashing is salted per process, which
            # would break same-seed reproducibility across runs.
            seed=(seed, n, zlib.crc32(name.encode()) % (2**16)),
            faults=plan,
            scheduler=spec,
        )
        for name, spec in schedulers
    ]
    # One protocol object for every scheduler, so the table engines compile once.
    protocol = make_stress_protocol(opts["protocol"], n)
    rows: List[Dict] = []
    for (name, spec), config in zip(schedulers, configs):
        results = run_trials(
            protocol_factory=lambda: protocol,
            trials=trials,
            run=config,
        )
        rows.append(
            _recovery_row(
                f"{opts['protocol']} {name}",
                results,
                extra={
                    "n": n,
                    "scheduler": spec.describe() if spec is not None else "uniform",
                    "burst size": burst_size,
                },
            )
        )
    return rows


__all__ = [
    "STRESS_CONSTANTS",
    "make_stress_protocol",
    "run_recovery_burst",
    "run_recovery_scheduler",
]
