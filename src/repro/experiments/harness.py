"""Shared experiment machinery: repeated trials and population-size sweeps.

One :class:`~repro.engine.run_config.RunConfig` describes *how* to execute --
engine, stop condition, seed, caps, worker count -- and flows unchanged from
the CLI through :class:`ExperimentSpec` down to :func:`run_trials`, which
builds each trial's engine via
:func:`~repro.engine.run_config.make_simulation` and executes the plan with
the polymorphic ``simulation.run(config)`` entry point.

Multi-trial measurements embarrassingly parallelize: every trial derives its
random stream from its own ``numpy.random.SeedSequence`` child, so trials are
independent no matter which process executes them.  :func:`run_trials`
exploits this with a ``concurrent.futures.ProcessPoolExecutor`` when
``config.jobs > 1``: results are bit-identical across any ``jobs`` value (the
stream of trial ``i`` depends only on ``(seed, i)``), which
``tests/experiments/test_parallel_harness.py`` enforces.  Worker processes
are forked, so closures (the lambdas experiments pass as factories) and a
pre-compiled transition table are inherited rather than pickled; on platforms
without ``fork`` the harness silently runs sequentially.

The pre-redesign keyword style (``stop=``/``engine=``/``jobs=``/``seed=``
threaded as parallel keywords) keeps working for one release through
deprecation shims; see ``docs/ARCHITECTURE.md`` for the migration note.
"""

from __future__ import annotations

import multiprocessing
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.engine.compiled import CompiledProtocol, ProtocolCompiler
from repro.engine.configuration import Configuration
from repro.engine.driver import unbatchable_reason
from repro.engine.protocol import PopulationProtocol
from repro.engine.results import SimulationResult, TrialStatistics
from repro.engine.rng import RngLike, batch_seed_sequence, spawn_seed_sequences
from repro.engine.run_config import ENGINES, STOPS, RunConfig, make_simulation
from repro.engine.trial_batch import (
    CountsTrialBatchSimulation,
    TrialBatchSimulation,
)
from repro.experiments.api import (
    DEFAULT_EXPERIMENT_SEED,
    RUN_OPTION_KEYS,
    warn_deprecated_once,
)
from repro.experiments.result import ExperimentResult
from repro.telemetry import metrics as _metrics
from repro.telemetry import tracing as _tracing

ProtocolFactory = Callable[[int], PopulationProtocol]
ConfigurationFactory = Callable[[PopulationProtocol, np.random.Generator], Configuration]

#: Counts-engine seed factory: ``(protocol, compiled, rng) -> state-count
#: vector`` -- the O(S) way to seed huge populations without building ``n``
#: state objects (forwarded to ``make_simulation(counts=...)``).
CountsFactory = Callable[
    [PopulationProtocol, CompiledProtocol, np.random.Generator], np.ndarray
]

#: Per-trial observer: ``on_trial_done(index, result)``, called in trial
#: order on the coordinating process (also when ``jobs > 1``).
TrialObserver = Callable[[int, SimulationResult], None]

#: Trial context inherited by forked pool workers (see :func:`run_trials`).
#: Holding it in a module global instead of pickling it lets experiments keep
#: passing plain lambdas as factories.
_POOL_STATE: Optional[Dict] = None

#: The active trial memo (installed via :func:`trial_memo`); ``None`` runs
#: every trial live.  A memo makes :func:`run_trials` durable: finished
#: trials replay from it, the in-flight one checkpoints through it.
_TRIAL_MEMO = None


@contextmanager
def trial_memo(memo):
    """Install a durable trial memo for every :func:`run_trials` call inside.

    ``memo`` implements the duck protocol of
    :class:`repro.serve.worker.TrialMemo`: ``begin_call(trials, config)``
    names each harness call positionally (experiments are deterministic
    call sequences, and inner configs may carry unserializable seeds, so
    *position* is the stable identity); ``lookup``/``record`` replay and
    persist per-trial :class:`~repro.engine.results.SimulationResult`
    records; ``inflight_checkpoint``/``checkpoint_hook`` resume and persist
    the one trial that was interrupted mid-run.  Because trial streams are
    bit-identical for every ``jobs``/``trial_batch`` layout, a memo written
    under one layout replays correctly under any other.
    """
    global _TRIAL_MEMO
    previous = _TRIAL_MEMO
    _TRIAL_MEMO = memo
    try:
        yield memo
    finally:
        _TRIAL_MEMO = previous


def _coerce_run_config(run, legacy: Dict, caller: str) -> RunConfig:
    """Resolve the new ``run=RunConfig`` form or the deprecated keyword form.

    ``run`` is either a :class:`RunConfig` (new style), ``None``, or -- for
    backward compatibility -- a seed passed in the old third positional slot.
    """
    if isinstance(run, RunConfig):
        if legacy:
            raise TypeError(
                f"{caller}: pass execution options on the RunConfig, "
                f"not as keywords {sorted(legacy)}"
            )
        return run
    unknown = set(legacy) - set(RUN_OPTION_KEYS)
    if unknown:
        raise TypeError(f"{caller}() got unexpected keyword arguments {sorted(unknown)}")
    if run is not None:
        if "seed" in legacy:
            raise TypeError(f"{caller}: seed passed both positionally and as a keyword")
        legacy = dict(legacy, seed=run)
    if legacy:
        warn_deprecated_once(
            f"harness.{caller}",
            f"{caller}({', '.join(sorted(legacy))}=...) keywords are deprecated; "
            f"pass run=RunConfig(...) instead (removed next release)",
            stacklevel=4,
        )
    return RunConfig(
        seed=legacy.get("seed"),
        stop=legacy.get("stop", "stabilized"),
        engine=legacy.get("engine", "loop"),
        jobs=legacy.get("jobs", 1),
        max_interactions=legacy.get("max_interactions"),
        check_interval=legacy.get("check_interval"),
    )


@dataclass
class ExperimentSpec:
    """Declarative description of one experiment (used by the registry and CLI).

    ``runner`` follows the uniform contract ``runner(params, run: RunConfig)
    -> ExperimentResult`` (see :mod:`repro.experiments.api`); ``quick_params``
    and ``full_params`` hold only experiment-specific parameters -- execution
    options live on the :class:`RunConfig` that :meth:`run` builds, so
    ``--seed/--engine/--jobs`` apply uniformly to every experiment.
    """

    identifier: str
    title: str
    paper_reference: str
    runner: Callable[[Mapping, RunConfig], ExperimentResult]
    description: str = ""
    quick_params: Dict = field(default_factory=dict)
    full_params: Dict = field(default_factory=dict)

    @property
    def quick_kwargs(self) -> Dict:
        """Deprecated alias of :attr:`quick_params`."""
        warn_deprecated_once(
            "ExperimentSpec.quick_kwargs",
            "ExperimentSpec.quick_kwargs is deprecated; use quick_params",
        )
        return self.quick_params

    @property
    def full_kwargs(self) -> Dict:
        """Deprecated alias of :attr:`full_params`."""
        warn_deprecated_once(
            "ExperimentSpec.full_kwargs",
            "ExperimentSpec.full_kwargs is deprecated; use full_params",
        )
        return self.full_params

    def run(
        self,
        scale: str = "quick",
        run: Optional[RunConfig] = None,
        *,
        seed: Optional[int] = None,
        engine: Optional[str] = None,
        jobs: Optional[int] = None,
        trial_batch: Optional[int] = None,
        **overrides,
    ) -> ExperimentResult:
        """Run the experiment at the requested scale and return the result.

        Either pass a complete ``run=RunConfig(...)`` or let this method
        build one from ``seed``/``engine``/``jobs``/``trial_batch``
        (defaults: seed 0, loop engine, one worker, per-trial execution).
        ``overrides`` update the scale's experiment parameters.
        """
        if scale not in ("quick", "full"):
            raise ValueError(f"scale must be 'quick' or 'full', got {scale!r}")
        params = dict(self.quick_params if scale == "quick" else self.full_params)
        params.update(overrides)
        if run is not None:
            if seed is not None or engine is not None or jobs is not None or trial_batch is not None:
                raise TypeError(
                    "pass seed/engine/jobs/trial_batch on the RunConfig, not alongside it"
                )
            config = run
        else:
            config = RunConfig(
                seed=DEFAULT_EXPERIMENT_SEED if seed is None else seed,
                engine=engine if engine is not None else "loop",
                jobs=jobs if jobs is not None else 1,
                trial_batch=trial_batch if trial_batch is not None else 1,
            )
        started = time.perf_counter()
        outcome = self.runner(params, config)
        if not isinstance(outcome, ExperimentResult):
            # Undecorated runner returning bare rows: wrap it here so every
            # spec yields the typed record.
            outcome = ExperimentResult(
                identifier=self.identifier,
                rows=list(outcome),
                seed=config.seed if isinstance(config.seed, int) else None,
                engine=config.engine,
                stop=config.stop,
                jobs=config.jobs,
                trial_batch=config.trial_batch,
                faults=config.faults.to_dict() if config.faults is not None else None,
                scheduler=(
                    config.scheduler.to_dict() if config.scheduler is not None else None
                ),
                byzantine=(
                    config.byzantine.to_dict() if config.byzantine is not None else None
                ),
                wall_time=time.perf_counter() - started,
            )
        outcome.identifier = outcome.identifier or self.identifier
        outcome.title = self.title
        outcome.paper_reference = self.paper_reference
        outcome.scale = scale
        return outcome


def _execute_trial(
    protocol_factory: Callable[[], PopulationProtocol],
    configuration_factory: Optional[ConfigurationFactory],
    config: RunConfig,
    compiled: Optional[CompiledProtocol],
    seed_seq: np.random.SeedSequence,
    counts_factory: Optional[CountsFactory] = None,
    memo_slot=None,
) -> SimulationResult:
    """Run one trial from its own seed sequence (process-agnostic).

    ``memo_slot`` is ``(memo, call_key, index)`` when a :func:`trial_memo`
    is active: the trial resumes from its persisted in-flight checkpoint
    (if one matches this config) and keeps checkpointing at every
    ``check_interval`` boundary.  Seeding happens first either way -- the
    generator consumption up to ``run()`` must match the uninterrupted
    path exactly; a restore then *overwrites* the generator state.
    """
    rng = np.random.default_rng(seed_seq)
    protocol = protocol_factory()
    configuration = (
        configuration_factory(protocol, rng) if configuration_factory is not None else None
    )
    counts = (
        counts_factory(protocol, compiled, rng) if counts_factory is not None else None
    )
    simulation = make_simulation(
        protocol,
        config,
        configuration=configuration,
        rng=rng,
        compiled=compiled,
        counts=counts,
    )
    if memo_slot is not None:
        memo, call_key, index = memo_slot
        if hasattr(simulation, "restore_checkpoint_state"):
            checkpoint = memo.inflight_checkpoint(call_key, index, config)
            if checkpoint is not None:
                try:
                    simulation.restore_checkpoint_state(checkpoint.state)
                except (ValueError, RuntimeError, KeyError):
                    pass  # stale or corrupt checkpoint: run from the start
        if hasattr(simulation, "checkpoint_state"):
            hook = memo.checkpoint_hook(call_key, index, config)
            if hook is not None:
                simulation.on_check = hook
    return simulation.run(config)


def _pool_trial(index: int) -> SimulationResult:
    """Pool worker entry point: run trial ``index`` of the inherited context."""
    state = _POOL_STATE
    if state is None:
        raise RuntimeError(
            "worker has no inherited trial context; the parallel harness "
            "requires fork-started workers"
        )
    memo = state["memo"]
    return _execute_trial(
        protocol_factory=state["protocol_factory"],
        configuration_factory=state["configuration_factory"],
        config=state["config"],
        compiled=state["compiled"],
        seed_seq=state["seeds"][index],
        counts_factory=state["counts_factory"],
        memo_slot=(memo, state["call_key"], index) if memo is not None else None,
    )


def _unbatchable_reason(config: RunConfig) -> Optional[str]:
    """Why the trial-batched engines cannot honour this config (None if they can).

    Fault plans with events, non-uniform schedulers, and byzantine overlays
    are per-trial constructs; the harness falls back to per-trial execution
    for them (the batched path is an optimization, not a semantic switch) and
    :func:`run_trials` warns once per run so an ignored ``--trial-batch`` is
    never silent.
    """
    reason = unbatchable_reason(config)
    if reason is None and config.engine not in ("compiled", "counts"):
        return f"engine {config.engine!r} has no trial-batched form"
    return reason


def _execute_trial_batch(
    protocol_factory: Callable[[], PopulationProtocol],
    configuration_factory: Optional[ConfigurationFactory],
    config: RunConfig,
    compiled: CompiledProtocol,
    seeds: Sequence[np.random.SeedSequence],
    counts_factory: Optional[CountsFactory] = None,
) -> List[SimulationResult]:
    """Run one batch of trials through a trial-batched engine.

    Seeding consumes each trial's generator exactly as the per-trial path
    does (fresh protocol, then configuration/counts factory), so for the
    compiled engine the whole per-trial stream -- seeding plus execution --
    is bit-identical for every batch composition.
    """
    rngs = [np.random.default_rng(seed_seq) for seed_seq in seeds]
    shared = protocol_factory()
    if config.engine == "compiled":
        if counts_factory is not None:
            rows = [counts_factory(protocol_factory(), compiled, rng) for rng in rngs]
            indices = np.stack(
                [
                    np.repeat(
                        np.arange(compiled.num_states, dtype=np.int32),
                        np.asarray(row, dtype=np.int64),
                    )
                    for row in rows
                ]
            )
            simulation = TrialBatchSimulation(
                shared, rngs, indices=indices, compiled=compiled
            )
        else:
            configurations = []
            for rng in rngs:
                protocol = protocol_factory()
                configurations.append(
                    configuration_factory(protocol, rng)
                    if configuration_factory is not None
                    else protocol.initial_configuration(rng)
                )
            simulation = TrialBatchSimulation(
                shared, rngs, configurations=configurations, compiled=compiled
            )
        return simulation.run(config)
    # counts engine: per-trial generators seed the start rows, one derived
    # batch-level generator (independent of all of them) drives the sampling.
    rows = []
    for rng in rngs:
        protocol = protocol_factory()
        if counts_factory is not None:
            rows.append(np.asarray(counts_factory(protocol, compiled, rng), dtype=np.int64))
        else:
            configuration = (
                configuration_factory(protocol, rng)
                if configuration_factory is not None
                else protocol.initial_configuration(rng)
            )
            rows.append(
                np.bincount(
                    compiled.encode_configuration(configuration),
                    minlength=compiled.num_states,
                )
            )
    batch_rng = np.random.default_rng(batch_seed_sequence(seeds[0]))
    simulation = CountsTrialBatchSimulation(
        shared, np.stack(rows), rng=batch_rng, compiled=compiled
    )
    return simulation.run(config)


def _pool_trial_batch(start: int) -> List[SimulationResult]:
    """Pool worker entry point: run the batch starting at trial ``start``."""
    state = _POOL_STATE
    if state is None:
        raise RuntimeError(
            "worker has no inherited trial context; the parallel harness "
            "requires fork-started workers"
        )
    config: RunConfig = state["config"]
    seeds = state["seeds"][start : start + config.trial_batch]
    return _execute_trial_batch(
        protocol_factory=state["protocol_factory"],
        configuration_factory=state["configuration_factory"],
        config=config,
        compiled=state["compiled"],
        seeds=seeds,
        counts_factory=state["counts_factory"],
    )


def run_trials(
    protocol_factory: Callable[[], PopulationProtocol],
    trials: int,
    run: Optional[RunConfig] = None,
    *,
    configuration_factory: Optional[ConfigurationFactory] = None,
    counts_factory: Optional[CountsFactory] = None,
    on_trial_done: Optional[TrialObserver] = None,
    **legacy,
) -> List[SimulationResult]:
    """Run ``trials`` independent simulations, optionally across processes.

    Returns the per-trial :class:`SimulationResult` records in trial order.
    Trial ``i`` always consumes the generator spawned from the ``i``-th child
    ``SeedSequence`` of ``run.seed``, so the results are **bit-identical for
    every value of ``run.jobs``** -- parallelism redistributes work, never
    randomness.

    ``on_trial_done(index, result)`` is invoked in trial order on the
    coordinating process as results become available -- including the
    ``jobs > 1`` path, where the pool's ordered result stream drives the
    callbacks (so observers need no locking).

    ``run.jobs > 1`` executes trials on a ``ProcessPoolExecutor`` with forked
    workers; factories may be arbitrary closures (they are inherited through
    the fork, not pickled).  With the table-driven engines
    (``engine="compiled"`` / ``engine="counts"``) the protocol is compiled
    once up front and the table shared -- by reference across sequential
    trials, via fork copy-on-write across workers.  On platforms without the
    ``fork`` start method the harness degrades to sequential execution (same
    results, no speedup).

    ``counts_factory`` seeds table-engine trials with a state-count vector
    (O(S) instead of O(n)); it requires a table engine (``"counts"`` or
    ``"compiled"``, where the vector expands to a sorted index array --
    exchangeable under the uniform scheduler) and is mutually exclusive with
    ``configuration_factory``.

    ``run.trial_batch > 1`` slices the trial list into batches of that size
    and advances each batch as one trial-batched engine instance
    (:mod:`repro.engine.trial_batch`); with ``jobs > 1`` each worker process
    runs whole batches.  Compiled-engine per-trial results are bit-identical
    for every ``trial_batch`` x ``jobs`` composition; fault plans with
    events and non-uniform schedulers fall back to per-trial execution.
    """
    config = _coerce_run_config(run, legacy, caller="run_trials")
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    if counts_factory is not None:
        if config.engine not in ("counts", "compiled"):
            raise ValueError(
                f"counts_factory requires a table engine, got {config.engine!r}"
            )
        if configuration_factory is not None:
            raise ValueError(
                "pass either configuration_factory or counts_factory, not both"
            )
    seeds = spawn_seed_sequences(config.seed, trials)
    compiled = (
        ProtocolCompiler().compile(protocol_factory())
        if config.engine in ("compiled", "counts")
        else None
    )
    fallback_reason = _unbatchable_reason(config)
    batched = config.trial_batch > 1 and fallback_reason is None
    if config.trial_batch > 1 and fallback_reason is not None:
        warnings.warn(
            f"--trial-batch ignored: {fallback_reason}; "
            "running trials one at a time",
            RuntimeWarning,
            stacklevel=2,
        )
    units = (
        list(range(0, trials, config.trial_batch)) if batched else list(range(trials))
    )

    # The memo, when installed, names this call positionally and replays any
    # trials it already holds; replay hits never reach the pool.
    memo = _TRIAL_MEMO
    call_key = memo.begin_call(trials, config) if memo is not None else None
    tracer = _tracing.current_tracer()
    call_started = time.perf_counter()

    def unit_replay(start: int) -> Optional[List[SimulationResult]]:
        """The full unit (batch or single trial) from the memo, or ``None``."""
        if memo is None:
            return None
        size = len(seeds[start : start + config.trial_batch]) if batched else 1
        cached = [memo.lookup(call_key, start + offset) for offset in range(size)]
        return cached if all(item is not None for item in cached) else None

    def unit_record(start: int, batch: List[SimulationResult]) -> None:
        if memo is not None:
            for offset, result in enumerate(batch):
                memo.record(call_key, start + offset, result)

    replayed = {start: unit_replay(start) for start in units} if memo is not None else {}
    pending = [start for start in units if replayed.get(start) is None]

    context = None
    if config.jobs > 1 and len(pending) > 1:
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:
            context = None

    def emit(results: List[SimulationResult], start: int, batch: List[SimulationResult]):
        for offset, result in enumerate(batch):
            results.append(result)
            _metrics.record_trial(result.engine, result.interactions)
            if tracer is not None:
                tracer.emit(
                    "trial",
                    call=call_key,
                    trial=start + offset,
                    engine=result.engine,
                    n=result.n,
                    interactions=result.interactions,
                    stopped=result.stopped,
                    reason=result.reason,
                )
            if on_trial_done is not None:
                on_trial_done(start + offset, result)

    def finish(results: List[SimulationResult]) -> List[SimulationResult]:
        if tracer is not None:
            tracer.emit(
                "harness_call",
                call=call_key,
                trials=trials,
                engine=config.engine,
                jobs=config.jobs,
                dur=round(time.perf_counter() - call_started, 6),
            )
        return results

    if context is None:
        results: List[SimulationResult] = []
        for start in units:
            batch = replayed.get(start)
            if batch is None:
                if batched:
                    batch = _execute_trial_batch(
                        protocol_factory=protocol_factory,
                        configuration_factory=configuration_factory,
                        config=config,
                        compiled=compiled,
                        seeds=seeds[start : start + config.trial_batch],
                        counts_factory=counts_factory,
                    )
                else:
                    batch = [
                        _execute_trial(
                            protocol_factory=protocol_factory,
                            configuration_factory=configuration_factory,
                            config=config,
                            compiled=compiled,
                            seed_seq=seeds[start],
                            counts_factory=counts_factory,
                            memo_slot=(
                                (memo, call_key, start) if memo is not None else None
                            ),
                        )
                    ]
                unit_record(start, batch)
            emit(results, start, batch)
        return finish(results)

    global _POOL_STATE
    _POOL_STATE = {
        "protocol_factory": protocol_factory,
        "configuration_factory": configuration_factory,
        "config": config,
        "compiled": compiled,
        "seeds": seeds,
        "counts_factory": counts_factory,
        "memo": memo,
        "call_key": call_key,
    }
    try:
        workers = min(config.jobs, len(pending))
        with ProcessPoolExecutor(max_workers=workers, mp_context=context) as executor:
            results = []
            if batched:
                # One batch per map item: batches are the work unit, so the
                # pool schedules them whole (batch-per-worker composition).
                pool_iter = executor.map(_pool_trial_batch, pending, chunksize=1)
            else:
                chunksize = max(1, len(pending) // (4 * workers))
                pool_iter = (
                    [result]
                    for result in executor.map(_pool_trial, pending, chunksize=chunksize)
                )
            # ``pending`` is increasing and the pool yields in input order,
            # so interleaving replayed units keeps trial order intact.
            for start in units:
                batch = replayed.get(start)
                if batch is None:
                    batch = next(pool_iter)
                    unit_record(start, batch)
                emit(results, start, batch)
            return finish(results)
    finally:
        _POOL_STATE = None


def measure_parallel_times(
    protocol_factory: Callable[[], PopulationProtocol],
    trials: int,
    run: Optional[RunConfig] = None,
    *,
    configuration_factory: Optional[ConfigurationFactory] = None,
    label: str = "",
    on_trial_done: Optional[TrialObserver] = None,
    **legacy,
) -> TrialStatistics:
    """Run ``trials`` independent simulations and collect stabilization times.

    A thin wrapper around :func:`run_trials` that accepts a configuration
    factory for adversarial starts and returns :class:`TrialStatistics` of
    the measured parallel times.  Trials that hit the interaction cap
    contribute their (censored) cap time, so results stay conservative rather
    than silently optimistic.

    ``run`` selects engine, stop condition, seed, caps, and worker count; see
    :class:`~repro.engine.run_config.RunConfig` and ``docs/ARCHITECTURE.md``
    for the engine tradeoffs.  With ``engine="compiled"`` the protocol is
    compiled once and the tables are shared across trials, so the factory
    must build identically parameterized protocols every call.
    """
    config = _coerce_run_config(run, legacy, caller="measure_parallel_times")
    results = run_trials(
        protocol_factory=protocol_factory,
        trials=trials,
        run=config,
        configuration_factory=configuration_factory,
        on_trial_done=on_trial_done,
    )
    times = [result.parallel_time for result in results]
    n = results[0].n if results else 0
    return TrialStatistics.from_values(label or protocol_factory().name, n, times)


def sweep_parallel_time(
    ns: Sequence[int],
    protocol_factory: ProtocolFactory,
    trials: int,
    run: Optional[RunConfig] = None,
    *,
    configuration_factory: Optional[ConfigurationFactory] = None,
    max_interactions_factory: Optional[Callable[[int], int]] = None,
    label: str = "",
    on_trial_done: Optional[TrialObserver] = None,
    **legacy,
) -> List[TrialStatistics]:
    """Measure stabilization time across a sweep of population sizes.

    ``protocol_factory`` receives the population size; the per-``n`` seeds are
    derived from ``run.seed`` so runs are reproducible yet independent.  The
    engine and worker count on ``run`` are forwarded to
    :func:`measure_parallel_times`, so a multi-trial/multi-``n`` sweep
    saturates ``jobs`` cores with either engine.
    """
    config = _coerce_run_config(run, legacy, caller="sweep_parallel_time")
    results: List[TrialStatistics] = []
    seeds = spawn_seed_sequences(config.seed, len(ns))
    for n, n_seed in zip(ns, seeds):
        cap = (
            max_interactions_factory(n)
            if max_interactions_factory is not None
            else config.max_interactions
        )
        statistics = measure_parallel_times(
            protocol_factory=lambda n=n: protocol_factory(n),
            trials=trials,
            run=config.replace(
                seed=np.random.default_rng(n_seed), max_interactions=cap
            ),
            configuration_factory=configuration_factory,
            label=f"{label or 'sweep'} (n={n})",
            on_trial_done=on_trial_done,
        )
        results.append(statistics)
    return results


__all__ = [
    "ENGINES",
    "STOPS",
    "ExperimentSpec",
    "RunConfig",
    "measure_parallel_times",
    "run_trials",
    "sweep_parallel_time",
    "trial_memo",
]
