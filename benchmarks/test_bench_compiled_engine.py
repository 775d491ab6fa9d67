"""Engine benchmark: compiled table-driven batches vs. the per-interaction loop.

Compares the two engines on the same protocol, same starting configuration,
and the same interaction process at n in {10^3, 10^4, 10^5, 10^6}:

* ``reset-wave`` (Protocol 2 standalone) -- the paper-faithful workload whose
  loop-engine transition (``PropagateReset.interact``) costs microseconds per
  interaction; this is where the repo's experiments actually spend time.
* ``two-way epidemic`` (Lemma 2.7) -- the cheapest possible loop transition,
  i.e. the *hardest* baseline to beat.

Methodology: both engines execute a fixed interaction budget from the same
start (all agents triggered / one agent infected).  The loop engine's budget
is capped so the whole sweep stays in benchmark-suite time; throughput is
compared per interaction.  Compile time is reported separately -- the tables
depend only on (protocol parameters, n) and are shared across trials by the
experiment harness.

The acceptance gate asserts the compiled engine is >= 20x faster on the
reset wave at n = 10^5.  Statistical equivalence of the two engines is
covered by ``tests/engine/test_engine_equivalence.py``.

Compilation is timed as its own layer too: the ``optimal-silent`` row is one
compile of Optimal-Silent-SSR with the stress experiments' constants at
n = 5 (97 states), gated against a ceiling.
"""

import time
from typing import Dict, List

import numpy as np

from bench_utils import (
    baseline_ceiling,
    baseline_threshold,
    load_bench_baseline,
    maybe_emit_bench_artifact,
    run_experiment_benchmark,
)

from repro.core.optimal_silent import OptimalSilentSSR
from repro.core.propagate_reset import ResetWaveProtocol
from repro.engine.batch_simulation import BatchSimulation
from repro.engine.compiled import ProtocolCompiler
from repro.engine.simulation import Simulation
from repro.experiments.stress_experiments import STRESS_CONSTANTS
from repro.processes.epidemic import EpidemicState, TwoWayEpidemicProtocol

NS = (1_000, 10_000, 100_000, 1_000_000)
LOOP_BUDGET_CAP = 60_000


def _time(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _bench_case(protocol_factory, start_indices, start_configuration, n: int) -> Dict:
    protocol = protocol_factory(n)
    compile_seconds = [0.0]

    def compile_protocol():
        compiler = ProtocolCompiler()
        start = time.perf_counter()
        compiled = compiler.compile(protocol)
        compile_seconds[0] = time.perf_counter() - start
        return compiled

    compiled = compile_protocol()
    batch = BatchSimulation(
        protocol, indices=start_indices(protocol, compiled), rng=0, compiled=compiled
    )
    compiled_budget = 2 * n
    compiled_seconds = _time(lambda: batch.run(compiled_budget))

    loop_protocol = protocol_factory(n)
    loop = Simulation(
        loop_protocol, configuration=start_configuration(loop_protocol), rng=0
    )
    loop_budget = min(2 * n, LOOP_BUDGET_CAP)
    loop_seconds = _time(lambda: loop.run(loop_budget))

    loop_ns = loop_seconds / loop_budget * 1e9
    compiled_ns = compiled_seconds / compiled_budget * 1e9
    return {
        "protocol": protocol.name,
        "n": n,
        "states": compiled.num_states,
        "compile (s)": compile_seconds[0],
        "loop (ns/interaction)": loop_ns,
        "compiled (ns/interaction)": compiled_ns,
        "speedup": loop_ns / compiled_ns,
    }


def run_engine_comparison(ns=NS) -> List[Dict]:
    """Benchmark rows for both workloads across the population sweep."""
    rows: List[Dict] = []
    for n in ns:
        rows.append(
            _bench_case(
                protocol_factory=lambda n=n: ResetWaveProtocol(n),
                start_indices=lambda protocol, compiled: np.full(
                    protocol.n,
                    compiled.encode_state(protocol.triggered_state()),
                    dtype=np.int32,
                ),
                start_configuration=lambda protocol: protocol.triggered_configuration(),
                n=n,
            )
        )
    for n in ns:
        rows.append(
            _bench_case(
                protocol_factory=lambda n=n: TwoWayEpidemicProtocol(n),
                start_indices=lambda protocol, compiled: _one_infected(
                    protocol.n, compiled
                ),
                start_configuration=lambda protocol: None,
                n=n,
            )
        )
    return rows


def _one_infected(n: int, compiled) -> np.ndarray:
    indices = np.full(n, compiled.encode_state(EpidemicState(False)), dtype=np.int32)
    indices[0] = compiled.encode_state(EpidemicState(True))
    return indices


def run_compile_timing(n: int = 5) -> List[Dict]:
    """One compile of Optimal-Silent-SSR with the stress constants."""
    protocol = OptimalSilentSSR(n, **STRESS_CONSTANTS)
    start = time.perf_counter()
    compiled = ProtocolCompiler().compile(protocol)
    seconds = time.perf_counter() - start
    return [
        {
            "protocol": "optimal-silent",
            "n": n,
            "states": compiled.num_states,
            "compile (s)": seconds,
        }
    ]


AREA = "compiled_engine"
CLAIM = "table-driven batches reach million-agent populations; >= 20x at n=10^5"
PAPER_REFERENCE = "engine (Protocol 2 / Lemma 2.7 workloads)"


def _emit(rows: List[Dict]) -> None:
    """Re-record ``rows`` (with ``BENCH_WRITE=1``), keeping the committed rows
    of the protocols they do not cover: the other test's rows."""
    measured = {row["protocol"] for row in rows}
    baseline = load_bench_baseline(AREA) or {}
    kept = [row for row in baseline.get("rows", []) if row["protocol"] not in measured]
    maybe_emit_bench_artifact(
        AREA, kept + rows, claim=CLAIM, paper_reference=PAPER_REFERENCE
    )


def test_compiled_engine_speedup(benchmark):
    """Compiled engine >= the recorded baseline (floor 20x) at n = 10^5."""
    rows = run_experiment_benchmark(
        benchmark,
        run_engine_comparison,
        paper_reference=PAPER_REFERENCE,
        claim=CLAIM,
        key_columns=(
            "protocol",
            "n",
            "states",
            "loop (ns/interaction)",
            "compiled (ns/interaction)",
            "speedup",
        ),
    )
    _emit(rows)
    gate = next(
        row for row in rows if row["protocol"] == "reset-wave" and row["n"] == 100_000
    )
    threshold = baseline_threshold(
        AREA, "speedup", floor=20.0, where={"protocol": "reset-wave", "n": 100_000}
    )
    assert gate["speedup"] >= threshold, (
        f"compiled engine only {gate['speedup']:.1f}x faster than the loop "
        f"at n=10^5 on the reset wave (gate: {threshold:.1f}x from the "
        f"recorded baseline)"
    )
    # The engines must scale to a million agents outright.
    million = [row for row in rows if row["n"] == 1_000_000]
    assert all(row["compiled (ns/interaction)"] < 1_000 for row in million)


def test_optimal_silent_compile_time(benchmark):
    """One Optimal-Silent-SSR compile at n = 5 stays under the recorded ceiling."""
    rows = run_experiment_benchmark(
        benchmark,
        run_compile_timing,
        paper_reference=PAPER_REFERENCE,
        claim="compiling Optimal-Silent-SSR (n=5, 97 states) takes <= 1.2 s",
    )
    _emit(rows)
    (row,) = rows
    assert row["states"] == 97
    ceiling = baseline_ceiling(
        AREA, "compile (s)", cap=1.2, where={"protocol": "optimal-silent", "n": 5}
    )
    assert row["compile (s)"] <= ceiling, (
        f"compiling Optimal-Silent-SSR at n=5 took {row['compile (s)']:.2f} s "
        f"(ceiling {ceiling:.2f} s from the recorded baseline)"
    )
