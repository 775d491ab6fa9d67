"""The run driver: the one place that decides when a run stops.

Every figure the reproduction reports is a stop time -- the interactions
until ``correct``, ``stabilized`` or ``silent`` holds, checked every
``check_interval`` interactions and divided by ``n``.  All five engines go
through this module for it:

* :func:`default_cap` -- the interaction cap when the caller gives none;
* :func:`resolve_stop` -- a stop kind to the predicate that decides it;
* :func:`check_loop` -- the sequential engines' cycle of stop check, cap,
  ``on_check`` and advance, and the :class:`SimulationResult` it returns;
* :func:`run_plan` -- a :class:`RunConfig` plan on a sequential engine;
* :func:`run_trial_batch` -- the trial-batched engines' pre-run check,
  per-trial freezing and check boundaries.

The engines keep only their kernels (see :class:`Engine` and
:class:`TrialBatchEngine`).  The driver runs at check-interval cadence, never
per interaction, so the engines' hot loops are untouched by it.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.results import SimulationResult
from repro.engine.run_config import RunConfig
from repro.telemetry import metrics as _metrics

#: Default cap on interactions, expressed as a multiple of ``n ** 3``: the
#: quadratic-*parallel-time* baseline protocol (``Silent-n-state-SSR``,
#: Theorem 2.4) needs Theta(n^2) parallel time = Theta(n^3) interactions from
#: its worst case, so the default cap must scale cubically for it to finish.
DEFAULT_CAP_CUBIC_FACTOR = 40.0

#: Stop kind -> the configuration predicate of a protocol that decides it.
_CONFIGURATION_PREDICATES = {
    "correct": "is_correct",
    "stabilized": "has_stabilized",
    "silent": "is_silent",
}

def default_cap(n: int) -> int:
    """The interaction cap of a run that sets none: ``40 * n**3``."""
    return int(DEFAULT_CAP_CUBIC_FACTOR * n * n * n)


def resolve_stop(
    protocol, compiled, kind: str, byzantine=None
) -> Tuple[Optional[Callable], Optional[Callable[[np.ndarray], bool]]]:
    """Resolve a stop kind to ``(predicate, counts_predicate)``; one is None.

    Without a compiled table (the loop engine) the protocol's configuration
    predicate decides.  On a table engine the preference order is: an
    installed byzantine overlay's honest-scope resolution; the protocol's
    ``compiled_predicates()`` fast path on the state-count vector; for
    silence, the table-exact :meth:`CompiledProtocol.counts_silent`; and
    otherwise the configuration predicate on the decoded configuration.
    Predicates are looked up on ``protocol`` at every call, never cached.
    """
    if compiled is not None:
        if byzantine is not None:
            return None, byzantine.resolve_stop(kind)
        fast = protocol.compiled_predicates().get(kind)
        if fast is not None:
            return None, (lambda counts: fast(counts, compiled))
        if kind == "silent":
            return None, compiled.counts_silent
    return getattr(protocol, _CONFIGURATION_PREDICATES[kind]), None


class Engine:
    """Base of the sequential engines: loop, compiled and counts.

    A subclass provides the kernels the driver calls:

    * ``ENGINE`` -- the engine label results and telemetry carry;
    * ``protocol``, ``rng`` and the ``interactions`` counter;
    * ``run(k)`` -- advance exactly ``k`` interactions;
    * ``configuration`` and, on table engines, ``compiled`` and
      ``state_counts`` -- what stop predicates read;
    * ``_install_scheduler(spec)`` and ``_install_byzantine(spec)`` (returns
      the overlay) -- the plan's scheduler and persistent adversary;
    * ``apply_fault`` (table engines) or an override of
      :meth:`_apply_fault_event` -- the plan's transient faults.
    """

    ENGINE = ""
    #: The compiled table of a table engine; ``None`` on the loop engine.
    compiled = None
    #: Interaction hooks told about the end of each run (loop engine only).
    hooks: Sequence = ()
    #: Checkpoint hook: called as ``on_check(engine)`` at every check
    #: boundary where the run is about to continue (stop predicate false,
    #: cap not reached).  It must not consume ``engine.rng``, or resumed runs
    #: lose bit-identity with uninterrupted ones.
    on_check: Optional[Callable] = None
    #: The fault campaign of the last ``run(config)`` with a FaultPlan
    #: (checkpoints and digests; see :mod:`repro.adversary.campaign`).
    campaign = None
    #: The installed ByzantineOverlay of a ``run(config)`` with a
    #: ByzantineSpec (see :mod:`repro.adversary.byzantine`).
    _byzantine = None

    @property
    def n(self) -> int:
        """Population size."""
        return self.protocol.n

    @property
    def parallel_time(self) -> float:
        """Interactions executed so far divided by the population size."""
        return self.interactions / self.protocol.n

    def run_until_correct(self, **kwargs) -> SimulationResult:
        """Run until the protocol's correctness predicate holds (convergence)."""
        return self._run_until_stop("correct", kwargs)

    def run_until_stabilized(self, **kwargs) -> SimulationResult:
        """Run until the protocol's stabilization predicate holds."""
        return self._run_until_stop("stabilized", kwargs)

    def run_until_silent(self, **kwargs) -> SimulationResult:
        """Run until no transition can change the configuration."""
        return self._run_until_stop("silent", kwargs)

    def _run_until_stop(self, kind: str, kwargs: Dict) -> SimulationResult:
        predicate, counts_predicate = resolve_stop(
            self.protocol, self.compiled, kind, self._byzantine
        )
        kwargs.setdefault("reason", kind)
        if counts_predicate is not None:
            kwargs["counts_predicate"] = counts_predicate
        return self.run_until(predicate, **kwargs)

    def _apply_fault_event(self, campaign, index: int) -> None:
        """Apply fault event ``index`` of ``campaign`` (encoded, via ``apply_fault``)."""
        campaign.apply_to_batch(index, self)


def check_loop(
    engine: Engine,
    predicate: Optional[Callable] = None,
    counts_predicate: Optional[Callable[[np.ndarray], bool]] = None,
    max_interactions: Optional[int] = None,
    check_interval: Optional[int] = None,
    reason: str = "predicate",
) -> SimulationResult:
    """Run ``engine`` until a stop predicate holds or the cap is reached.

    Exactly one of ``predicate`` (on the decoded configuration) or
    ``counts_predicate`` (on the state-count vector, table engines only) is
    given.  The check happens before the first interaction and then every
    ``check_interval`` interactions (default ``n``), so the reported stop is
    accurate to within one check interval.  Each cycle is: stop check, then
    the cap, then ``engine.on_check``, then advance.
    """
    if (predicate is None) == (counts_predicate is None):
        raise ValueError("pass exactly one of predicate or counts_predicate")
    n = engine.protocol.n
    cap = default_cap(n) if max_interactions is None else max_interactions
    if check_interval is None:
        check_interval = n
    if check_interval < 1:
        raise ValueError(f"check_interval must be positive, got {check_interval}")
    label = engine.ENGINE
    if counts_predicate is not None:
        def stopped():
            return counts_predicate(engine.state_counts)
    else:
        def stopped():
            return predicate(engine.configuration)

    while True:
        if _metrics._PROFILING:
            marker = time.perf_counter()
            hit = stopped()
            _metrics.record_stage_seconds(label, "stop_check", time.perf_counter() - marker)
        else:
            hit = stopped()
        if _metrics._ENABLED:
            _metrics.record_stop_check(label)
        if hit or engine.interactions >= cap:
            for hook in engine.hooks:
                hook.on_run_end(engine.interactions, engine.configuration)
            return SimulationResult(
                n=n,
                interactions=engine.interactions,
                stopped=bool(hit),
                reason=reason if hit else "cap",
                engine=label,
            )
        if engine.on_check is not None:
            engine.on_check(engine)
        engine.run(min(check_interval, cap - engine.interactions))


def run_plan(engine: Engine, config: RunConfig) -> SimulationResult:
    """Execute a :class:`RunConfig` plan on a sequential engine.

    The order is fixed: install the scheduler (built with the engine's
    generator), install the byzantine overlay, run the fault timeline, run
    until ``config.stop`` holds, then annotate the result.  The fault
    timeline advances to each event's interaction count and applies it; the
    stop condition is evaluated only after the last event, so the result
    measures recovery from the final burst.  ``max_interactions`` is one
    absolute cap shared by the timeline and the recovery phase: events
    scheduled beyond it never fire.
    """
    if config.scheduler is not None:
        engine._install_scheduler(config.scheduler)
    overlay = None
    if config.byzantine is not None:
        if engine._byzantine is not None:
            raise RuntimeError("a byzantine overlay is already installed")
        if engine.interactions:
            raise RuntimeError("the byzantine overlay must be installed before any interaction")
        overlay = engine._byzantine = engine._install_byzantine(config.byzantine)
    campaign = None
    if config.faults is not None and config.faults.events:
        from repro.adversary.campaign import FaultCampaign

        cap = config.max_interactions
        if cap is None:
            cap = default_cap(engine.protocol.n)
        campaign = engine.campaign = FaultCampaign(config.faults, engine.rng)
        for index, event in enumerate(config.faults.events):
            if event.at > cap:
                break  # the cap truncates the fault timeline
            if engine.interactions < event.at:
                engine.run(event.at - engine.interactions)
            engine._apply_fault_event(campaign, index)
    result = getattr(engine, f"run_until_{config.stop}")(
        max_interactions=config.max_interactions,
        check_interval=config.check_interval,
    )
    for annotator in (overlay, campaign):
        if annotator is not None:
            annotator.annotate(result)
    return result


def unbatchable_reason(config: RunConfig) -> Optional[str]:
    """Why the trial-batched engines cannot run this plan, or ``None``.

    Fault plans with events, non-uniform schedulers and byzantine overlays
    are per-trial constructs.
    """
    if config.faults is not None and config.faults.events:
        return "fault campaigns run per trial"
    if config.scheduler is not None and getattr(config.scheduler, "kind", None) != "uniform":
        return "adversarial schedulers run per trial"
    if config.byzantine is not None:
        return "byzantine overlays run per trial"
    return None


class TrialBatchEngine:
    """Base of the trial-batched engines: compiled and counts.

    A subclass provides the kernels :func:`run_trial_batch` calls:

    * ``ENGINE``, ``protocol``, ``compiled`` and ``_trials``;
    * ``_applied`` -- the per-trial interaction counters, advanced in place;
    * ``trial_state_counts(trial)`` and ``trial_configuration(trial)`` --
      what stop predicates read;
    * ``_advance(live, next_check)`` -- one round over the ``live`` trials
      that never carries a trial past its ``next_check`` boundary.
    """

    ENGINE = ""
    _ran = False

    @property
    def n(self) -> int:
        """Population size (per trial)."""
        return self.protocol.n

    @property
    def trials(self) -> int:
        """Number of trials in the batch."""
        return self._trials

    def _on_freeze(self, trial: int) -> None:
        """Called once when ``trial`` stops or hits the cap."""


def run_trial_batch(batch: TrialBatchEngine, config: RunConfig) -> List[SimulationResult]:
    """Run every trial of ``batch`` until ``config.stop`` (or the cap).

    Returns the per-trial results in trial order.  Each trial is checked
    before its first interaction and then at its own ``check_interval``
    boundaries, exactly like :func:`check_loop`; a trial that stops or hits
    the cap is *frozen* -- it leaves the live set and is never advanced
    again.  One-shot per instance; plans the batched regimes cannot honour
    raise ``NotImplementedError``.
    """
    if not isinstance(config, RunConfig):
        raise TypeError(f"run() takes a RunConfig, got {type(config).__name__}")
    if batch._ran:
        raise RuntimeError(f"{type(batch).__name__}.run() is one-shot per instance")
    batch._ran = True
    reason = unbatchable_reason(config)
    if reason is not None:
        raise NotImplementedError(
            f"trial-batched execution does not support this plan ({reason}); "
            "the harness runs such trials one at a time"
        )

    n = batch.protocol.n
    predicate, counts_predicate = resolve_stop(batch.protocol, batch.compiled, config.stop)
    if counts_predicate is not None:
        def stopped(trial: int):
            return counts_predicate(batch.trial_state_counts(trial))
    else:
        def stopped(trial: int):
            return predicate(batch.trial_configuration(trial))
    cap = default_cap(n) if config.max_interactions is None else config.max_interactions
    check = n if config.check_interval is None else config.check_interval
    label = batch.ENGINE
    trials = batch.trials
    applied = batch._applied
    results: List[Optional[SimulationResult]] = [None] * trials
    live_mask = np.ones(trials, dtype=bool)

    def freeze(trial: int, hit: bool) -> None:
        results[trial] = SimulationResult(
            n=n,
            interactions=int(applied[trial]),
            stopped=hit,
            reason=config.stop if hit else "cap",
            engine=label,
        )
        live_mask[trial] = False
        batch._on_freeze(trial)

    # Pre-run check, like check_loop: stop first, then the cap.
    for trial in range(trials):
        if stopped(trial):
            freeze(trial, True)
        elif cap <= 0:
            freeze(trial, False)

    next_check = np.full(trials, min(check, cap), dtype=np.int64)
    while live_mask.any():
        live = np.nonzero(live_mask)[0]
        batch._advance(live, next_check)
        for index in np.nonzero(applied[live] >= next_check[live])[0]:
            trial = int(live[index])
            if _metrics._ENABLED:
                _metrics.record_stop_check(label)
            if stopped(trial):
                freeze(trial, True)
            elif applied[trial] >= cap:
                freeze(trial, False)
            else:
                next_check[trial] = min(int(applied[trial]) + check, cap)
    return results  # type: ignore[return-value]


__all__ = [
    "DEFAULT_CAP_CUBIC_FACTOR",
    "Engine",
    "TrialBatchEngine",
    "check_loop",
    "default_cap",
    "resolve_stop",
    "run_plan",
    "run_trial_batch",
    "unbatchable_reason",
]
