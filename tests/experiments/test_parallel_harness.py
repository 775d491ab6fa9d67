"""Tests for the process-parallel trial runner.

The contract under test: ``RunConfig.jobs`` redistributes work, never
randomness.  The same seed must yield **bit-identical**
:class:`SimulationResult` records for ``jobs=1`` and ``jobs=4``, on all
three engines -- per-trial streams are derived from ``SeedSequence``
children indexed by trial number, independent of the process layout.
"""

import numpy as np
import pytest

from repro.core.propagate_reset import ResetWaveProtocol
from repro.core.silent_n_state import SilentNStateSSR
from repro.engine.run_config import RunConfig
from repro.processes.epidemic import TwoWayEpidemicProtocol
from repro.experiments.harness import (
    ExperimentSpec,
    measure_parallel_times,
    run_trials,
    sweep_parallel_time,
)
from repro.experiments.registry import EXPERIMENTS, run_experiment


def loop_workload(jobs):
    return run_trials(
        lambda: SilentNStateSSR(12),
        trials=6,
        run=RunConfig(seed=21, stop="stabilized", engine="loop", jobs=jobs),
        configuration_factory=lambda protocol, rng: protocol.worst_case_configuration(),
    )


def compiled_workload(jobs):
    return run_trials(
        lambda: ResetWaveProtocol(48, rmax=5, dmax=5),
        trials=5,
        run=RunConfig(seed=34, stop="stabilized", engine="compiled", jobs=jobs),
        configuration_factory=lambda protocol, rng: protocol.triggered_configuration(),
    )


def _one_infected_counts(protocol, compiled, rng):
    counts = np.zeros(compiled.num_states, dtype=np.int64)
    counts[compiled.encode_state(protocol.initial_state(0, rng))] += 1
    counts[compiled.encode_state(protocol.initial_state(1, rng))] += protocol.n - 1
    return counts


def counts_workload(jobs):
    return run_trials(
        lambda: TwoWayEpidemicProtocol(50_000),
        trials=5,
        run=RunConfig(seed=55, stop="correct", engine="counts", jobs=jobs),
        counts_factory=_one_infected_counts,
    )


class TestJobsDeterminism:
    """Same seed => bit-identical results regardless of the worker count."""

    def test_loop_engine_results_identical_across_jobs(self):
        sequential = loop_workload(jobs=1)
        parallel = loop_workload(jobs=4)
        assert sequential == parallel
        assert all(result.engine == "loop" for result in parallel)

    def test_compiled_engine_results_identical_across_jobs(self):
        sequential = compiled_workload(jobs=1)
        parallel = compiled_workload(jobs=4)
        assert sequential == parallel
        assert all(result.engine == "compiled" for result in parallel)

    def test_counts_engine_results_identical_across_jobs(self):
        sequential = counts_workload(jobs=1)
        parallel = counts_workload(jobs=4)
        assert sequential == parallel
        assert all(result.engine == "counts" for result in parallel)
        assert all(result.stopped for result in parallel)

    def test_statistics_identical_across_jobs(self):
        def measure(jobs):
            return measure_parallel_times(
                lambda: SilentNStateSSR(10),
                trials=5,
                run=RunConfig(seed=3, stop="stabilized", jobs=jobs),
                configuration_factory=lambda protocol, rng: (
                    protocol.worst_case_configuration()
                ),
            )

        assert measure(1).values == measure(3).values

    def test_sweep_identical_across_jobs(self):
        def sweep(jobs):
            return sweep_parallel_time(
                [6, 10],
                lambda n: SilentNStateSSR(n),
                trials=2,
                run=RunConfig(seed=0, stop="stabilized", jobs=jobs),
                configuration_factory=lambda protocol, rng: (
                    protocol.worst_case_configuration()
                ),
            )

        assert [s.values for s in sweep(1)] == [s.values for s in sweep(2)]


class TestRunTrials:
    def test_returns_results_in_trial_order(self):
        results = loop_workload(jobs=2)
        assert len(results) == 6
        assert all(result.stopped for result in results)

    def test_invalid_jobs(self):
        with pytest.raises(ValueError, match="jobs"):
            RunConfig(jobs=0)

    def test_single_trial_runs_inline(self):
        results = run_trials(
            lambda: SilentNStateSSR(6),
            trials=1,
            run=RunConfig(seed=0, jobs=8),
            configuration_factory=lambda protocol, rng: protocol.worst_case_configuration(),
        )
        assert len(results) == 1


class TestTrialObserver:
    """on_trial_done fires in trial order on both execution paths."""

    def _observe(self, jobs):
        seen = []
        results = run_trials(
            lambda: SilentNStateSSR(10),
            trials=5,
            run=RunConfig(seed=7, jobs=jobs),
            configuration_factory=lambda protocol, rng: protocol.worst_case_configuration(),
            on_trial_done=lambda index, result: seen.append((index, result)),
        )
        return seen, results

    def test_sequential_observer_order_and_payload(self):
        seen, results = self._observe(jobs=1)
        assert [index for index, _ in seen] == [0, 1, 2, 3, 4]
        assert [result for _, result in seen] == results

    def test_parallel_observer_order_and_payload(self):
        seen, results = self._observe(jobs=4)
        assert [index for index, _ in seen] == [0, 1, 2, 3, 4]
        assert [result for _, result in seen] == results


class TestJobsThreading:
    """A RunConfig built from --jobs reaches runners through the registry."""

    def _spec(self):
        def runner(params, run):
            return [{"trials": params.get("trials", 1), "jobs": run.jobs}]

        return ExperimentSpec(
            identifier="jobs-demo",
            title="Jobs demo",
            paper_reference="none",
            runner=runner,
            quick_params={"trials": 2},
        )

    def test_jobs_reaches_runner_via_run_config(self):
        assert self._spec().run("quick", jobs=4).rows[0]["jobs"] == 4

    def test_run_experiment_forwards_jobs(self):
        spec = self._spec()
        EXPERIMENTS[spec.identifier] = spec
        try:
            result = run_experiment(spec.identifier, scale="quick", jobs=3)
            assert result.rows[0]["jobs"] == 3
            assert result.jobs == 3
        finally:
            del EXPERIMENTS[spec.identifier]

    def test_every_registered_runner_follows_the_uniform_contract(self):
        """The explicit contract replaced supports_jobs() introspection."""
        for identifier, spec in EXPERIMENTS.items():
            assert getattr(spec.runner, "experiment_identifier", None) == identifier
        assert not hasattr(next(iter(EXPERIMENTS.values())), "supports_jobs")


class TestCompileReuse:
    """``run_trials`` compiles each protocol object once, keyed by identity."""

    @pytest.fixture
    def compiles(self, monkeypatch):
        from repro.engine.compiled import ProtocolCompiler

        compiled_for = []
        original = ProtocolCompiler.compile

        def counting(self, protocol):
            compiled_for.append(protocol)
            return original(self, protocol)

        monkeypatch.setattr(ProtocolCompiler, "compile", counting)
        return compiled_for

    @staticmethod
    def _two_calls(factory, jobs=1):
        return [
            run_trials(
                factory,
                trials=3,
                run=RunConfig(seed=seed, stop="stabilized", engine="compiled", jobs=jobs),
                configuration_factory=lambda protocol, rng: protocol.triggered_configuration(),
            )
            for seed in (7, 8)
        ]

    def test_same_instance_compiles_once(self, compiles):
        protocol = ResetWaveProtocol(24, rmax=4, dmax=4)
        self._two_calls(lambda: protocol)
        assert compiles == [protocol]

    def test_same_instance_compiles_once_across_jobs(self, compiles):
        protocol = ResetWaveProtocol(24, rmax=4, dmax=4)
        self._two_calls(lambda: protocol, jobs=2)
        assert compiles == [protocol]

    def test_fresh_instances_compile_once_per_call(self, compiles):
        self._two_calls(lambda: ResetWaveProtocol(24, rmax=4, dmax=4))
        assert len(compiles) == 2 and compiles[0] is not compiles[1]

    def test_reuse_gives_equal_results(self):
        protocol = ResetWaveProtocol(24, rmax=4, dmax=4)
        reused = self._two_calls(lambda: protocol)
        fresh = self._two_calls(lambda: ResetWaveProtocol(24, rmax=4, dmax=4))
        assert reused == fresh
