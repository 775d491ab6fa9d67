"""The run contract every engine honours through :mod:`repro.engine.driver`.

One parametrized suite over the three sequential engines (loop, compiled,
counts) and, where a case applies, the two trial-batched engines: the stop
check comes before the first interaction, a zero cap stops at once, the
``on_check`` hook fires exactly at the boundaries where a run continues,
fault events past the cap never fire, and a non-positive check interval is
refused.
"""

import numpy as np
import pytest

from repro.adversary.campaign import FAULT_EVENTS_KEY, LAST_FAULT_AT_KEY
from repro.adversary.plan import FaultEvent, FaultPlan
from repro.core.fratricide import FratricideLeaderElection, FratricideState
from repro.engine.compiled import ProtocolCompiler
from repro.engine.configuration import Configuration
from repro.engine.run_config import ENGINES, RunConfig, make_simulation
from repro.engine.trial_batch import CountsTrialBatchSimulation, TrialBatchSimulation

N = 6
#: Every sequential engine, plus the trial-batched form of each table engine.
ALL_ENGINES = list(ENGINES) + ["compiled-batch", "counts-batch"]


def configuration(leaders: int) -> Configuration:
    """``leaders`` leaders, the rest followers: 1 is correct, 0 never will be."""
    return Configuration([FratricideState(leader=agent < leaders) for agent in range(N)])


def run(engine: str, start: Configuration, **plan):
    """Run two trials of ``plan`` from ``start``; one result per trial."""
    protocol = FratricideLeaderElection(N)
    if engine.endswith("-batch"):
        compiled = ProtocolCompiler().compile(protocol)
        config = RunConfig(engine=engine[: -len("-batch")], stop="correct", **plan)
        if config.engine == "compiled":
            rngs = [np.random.default_rng(seed) for seed in (0, 1)]
            batch = TrialBatchSimulation(
                protocol, rngs, configurations=[start, start], compiled=compiled
            )
        else:
            counts = compiled.state_counts(compiled.encode_configuration(start))
            batch = CountsTrialBatchSimulation(
                protocol, np.stack([counts, counts]), rng=0, compiled=compiled
            )
        return batch.run(config)
    config = RunConfig(engine=engine, stop="correct", **plan)
    return [
        make_simulation(protocol, config, configuration=start, rng=seed).run(config)
        for seed in (0, 1)
    ]


@pytest.mark.parametrize("engine", ALL_ENGINES)
def test_stop_holding_at_start_returns_without_interacting(engine):
    for result in run(engine, configuration(leaders=1)):
        assert result.stopped and result.reason == "correct"
        assert result.interactions == 0


@pytest.mark.parametrize("engine", ALL_ENGINES)
def test_zero_cap_stops_at_once(engine):
    for result in run(engine, configuration(leaders=0), max_interactions=0):
        assert not result.stopped and result.reason == "cap"
        assert result.interactions == 0


@pytest.mark.parametrize("engine", ALL_ENGINES)
def test_checks_fall_on_interval_boundaries_and_the_cap(engine):
    # Leaderless: never correct, so every trial runs to the cap, which is not
    # a multiple of the check interval.
    for result in run(engine, configuration(leaders=0), max_interactions=33, check_interval=6):
        assert not result.stopped and result.reason == "cap"
        assert result.interactions == 33
    for result in run(engine, configuration(leaders=N), check_interval=6):
        assert result.stopped and result.interactions % 6 == 0


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("leaders, cap", [(0, 33), (N, None)])
def test_on_check_fires_exactly_where_the_run_continues(engine, leaders, cap):
    protocol = FratricideLeaderElection(N)
    config = RunConfig(engine=engine, stop="correct", max_interactions=cap, check_interval=6)
    simulation = make_simulation(protocol, config, configuration=configuration(leaders), rng=3)
    seen = []
    simulation.on_check = lambda engine: seen.append(engine.interactions)
    result = simulation.run(config)
    # One call per boundary before the final check, none at or after it.
    assert seen == list(range(0, result.interactions, 6))
    assert result.interactions > 0
    if cap is not None:
        assert result.reason == "cap" and result.interactions == cap


@pytest.mark.parametrize("engine", ENGINES)
def test_fault_events_past_the_cap_never_fire(engine):
    plan = FaultPlan(
        events=(
            FaultEvent(at=12, kind="reset", count=2),
            FaultEvent(at=41, kind="reset", count=2),
        )
    )
    protocol = FratricideLeaderElection(N)
    config = RunConfig(engine=engine, stop="correct", max_interactions=40, faults=plan)
    simulation = make_simulation(protocol, config, configuration=configuration(0), rng=5)
    result = simulation.run(config)
    assert [checkpoint.at for checkpoint in simulation.campaign.checkpoints] == [12]
    assert result.extra[FAULT_EVENTS_KEY] == 1.0
    assert result.extra[LAST_FAULT_AT_KEY] == 12.0
    assert result.interactions <= 40


@pytest.mark.parametrize("engine", ENGINES)
def test_non_positive_check_interval_is_refused(engine):
    protocol = FratricideLeaderElection(N)
    simulation = make_simulation(protocol, RunConfig(engine=engine), rng=0)
    with pytest.raises(ValueError, match="check_interval must be positive"):
        simulation.run_until_correct(check_interval=0)
    # The plan path (and with it both trial-batched engines, which take only
    # plans) refuses it when the RunConfig is built.
    with pytest.raises(ValueError, match="check_interval must be positive"):
        RunConfig(engine=engine, check_interval=0)
