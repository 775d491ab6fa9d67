"""Adversary-subsystem benchmarks: scheduler overhead and fault application.

Both gates compare against the committed baselines
(``BENCH_adversary_scheduler.json`` / ``BENCH_adversary_faults.json``; see
``baseline_ceiling``, re-record with ``BENCH_WRITE=1``), with the documented
caps as the fallback when no baseline is recorded.

Two claims are gated:

* **Biased scheduling stays cheap.**  The weight-class sampler of
  :class:`~repro.adversary.schedulers.BiasedPairScheduler` (single uniform
  draw per agent slot, contiguous-class arithmetic, chunked buffering) must
  keep compiled-engine throughput within 25% of the uniform scheduler on the
  stress-campaign workload at n = 10^5 -- an actively recovering population,
  where per-pair table work dominates.  The bias itself also shapes the
  *process* (a hot set shortens the batch engine's exact agent-disjoint
  segments), which is physics rather than overhead, so the gate uses the
  moderate hot set the stress experiments default to (10% of agents at 4x
  weight); the sweep also reports a heavier bias for context, ungated.

* **Counts-based fault application is O(burst), not O(n).**  Applying a
  10^4-agent burst to a 10^5-agent compiled population must take
  milliseconds: replacement states are sampled per victim, encoded, and
  scattered into the index array with an incremental count update -- the
  configuration is never decoded into agent objects.
"""

import time
from typing import Dict, List

import numpy as np

from bench_utils import (
    baseline_ceiling,
    maybe_emit_bench_artifact,
    run_experiment_benchmark,
)

from repro.adversary.plan import FaultPlan
from repro.adversary.schedulers import SchedulerSpec
from repro.core.propagate_reset import ResetWaveProtocol
from repro.engine.batch_simulation import BatchSimulation
from repro.engine.compiled import ProtocolCompiler
from repro.engine.run_config import RunConfig

N = 100_000
INTERACTIONS = 1_000_000
REPEATS = 3

SCHEDULERS = (
    ("uniform", None),
    ("biased 10% x4 (gated)", SchedulerSpec(kind="biased", hot_fraction=0.1, hot_weight=4.0)),
    ("biased 10% x8", SchedulerSpec(kind="biased", hot_fraction=0.1, hot_weight=8.0)),
    ("epoch 4 blocks", SchedulerSpec(kind="epoch", blocks=4, split_time=5.0)),
)


def _recovering_simulation(compiled, spec) -> BatchSimulation:
    """A population mid-recovery: every agent in an adversarial state."""
    protocol = compiled.protocol
    configuration = protocol.random_configuration(np.random.default_rng(1))
    simulation = BatchSimulation(
        protocol,
        configuration=configuration,
        rng=np.random.default_rng(2),
        compiled=compiled,
    )
    if spec is not None:
        simulation.scheduler = spec.build(protocol.n, rng=simulation.rng)
    return simulation


def run_scheduler_overhead() -> List[Dict]:
    """Throughput of each scheduler on the recovering reset wave at n=10^5."""
    compiled = ProtocolCompiler().compile(ResetWaveProtocol(N))
    best = {name: float("inf") for name, _ in SCHEDULERS}
    # Every repeat times each scheduler once, so a load change on a shared
    # machine lands on all of them rather than on one scheduler's block.
    for _ in range(REPEATS):
        for name, spec in SCHEDULERS:
            simulation = _recovering_simulation(compiled, spec)
            started = time.perf_counter()
            simulation.run(INTERACTIONS)
            best[name] = min(best[name], time.perf_counter() - started)
    baseline = best[SCHEDULERS[0][0]]
    rows: List[Dict] = []
    for name, _ in SCHEDULERS:
        seconds = best[name]
        rows.append(
            {
                "scheduler": name,
                "n": N,
                "interactions/s": INTERACTIONS / seconds,
                "seconds": seconds,
                "overhead vs uniform": seconds / baseline - 1.0,
            }
        )
    return rows


def run_fault_application() -> List[Dict]:
    """Wall time of counts-based burst application across burst sizes."""
    compiled = ProtocolCompiler().compile(ResetWaveProtocol(N))
    rows: List[Dict] = []
    for burst in (100, 1_000, 10_000):
        plan = FaultPlan.bursts([(0, burst)])
        simulation = _recovering_simulation(compiled, None)
        started = time.perf_counter()
        simulation.run(
            RunConfig(
                engine="compiled",
                stop="silent",
                faults=plan,
                max_interactions=0,  # measure the event alone, not recovery
            )
        )
        seconds = time.perf_counter() - started
        rows.append(
            {
                "burst size": burst,
                "n": N,
                "apply (ms)": seconds * 1e3,
                "us/victim": seconds * 1e6 / burst,
            }
        )
    return rows


def test_biased_scheduler_overhead_gate(benchmark):
    """Biased-scheduling overhead stays within the recorded baseline (cap 25%)."""
    claim = "weight-class sampling keeps biased scheduling within 25% of uniform"
    reference = "adversary subsystem (fair schedulers)"
    rows = run_experiment_benchmark(
        benchmark,
        run_scheduler_overhead,
        paper_reference=reference,
        claim=claim,
        key_columns=("scheduler", "n", "interactions/s", "overhead vs uniform"),
    )
    maybe_emit_bench_artifact(
        "adversary_scheduler", rows, claim=claim, paper_reference=reference
    )
    gate = next(row for row in rows if "gated" in row["scheduler"])
    ceiling = baseline_ceiling(
        "adversary_scheduler",
        "overhead vs uniform",
        cap=0.25,
        where={"scheduler": gate["scheduler"]},
    )
    assert gate["overhead vs uniform"] <= ceiling, (
        f"biased scheduler costs {gate['overhead vs uniform']:.0%} over uniform "
        f"at n={N} (gate: {ceiling:.0%} from the recorded baseline)"
    )


def test_fault_application_is_counts_based(benchmark):
    """A 10^4-agent burst at n=10^5 applies within the recorded baseline (cap 500 ms)."""
    claim = "compiled-engine bursts scatter encoded states; no O(n) decode"
    reference = "adversary subsystem (transient faults)"
    rows = run_experiment_benchmark(
        benchmark,
        run_fault_application,
        paper_reference=reference,
        claim=claim,
        key_columns=("burst size", "n", "apply (ms)", "us/victim"),
    )
    maybe_emit_bench_artifact(
        "adversary_faults", rows, claim=claim, paper_reference=reference
    )
    ceiling = baseline_ceiling("adversary_faults", "apply (ms)", cap=500.0)
    worst = max(row["apply (ms)"] for row in rows)
    assert worst < ceiling, (
        f"burst application took {worst:.0f} ms at n={N} "
        f"(gate: {ceiling:.0f} ms from the recorded baseline)"
    )
