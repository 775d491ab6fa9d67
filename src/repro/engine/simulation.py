"""The per-interaction loop engine.

:class:`Simulation` repeatedly asks the scheduler for an ordered pair of
agents and applies the protocol transition, tracking the number of
interactions (and hence parallel time).  Stopping conditions -- correctness,
stabilization, silence, or an arbitrary predicate -- are evaluated every
``check_interval`` interactions since they can be expensive.

This engine is fully general (any protocol, instrumentation hooks) but pays
Python-call overhead per interaction; for compilable protocols at large ``n``
use :class:`~repro.engine.batch_simulation.BatchSimulation` instead -- see
``docs/ARCHITECTURE.md`` for the tradeoffs.
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional, Sequence

from repro.engine.configuration import Configuration
from repro.engine.driver import Engine, check_loop, run_plan
from repro.engine.hooks import InteractionHook
from repro.engine.protocol import PopulationProtocol
from repro.engine.results import SimulationResult
from repro.engine.rng import RngLike, make_rng
from repro.engine.run_config import RunConfig
from repro.engine.scheduler import PairScheduler, UniformPairScheduler
from repro.telemetry import metrics as _metrics


class Simulation(Engine):
    """Runs one execution of a population protocol."""

    ENGINE = "loop"

    def __init__(
        self,
        protocol: PopulationProtocol,
        configuration: Optional[Configuration] = None,
        rng: RngLike = None,
        hooks: Optional[Sequence[InteractionHook]] = None,
        scheduler_batch_size: int = 4096,
        scheduler: Optional[PairScheduler] = None,
    ):
        self.protocol = protocol
        self.rng = make_rng(rng)
        self.configuration = (
            configuration if configuration is not None else protocol.initial_configuration(self.rng)
        )
        if len(self.configuration) != protocol.n:
            raise ValueError(
                f"configuration has {len(self.configuration)} agents but protocol expects {protocol.n}"
            )
        if scheduler is not None and scheduler.n != protocol.n:
            raise ValueError(
                f"scheduler is for population size {scheduler.n}, protocol has {protocol.n}"
            )
        self.scheduler: PairScheduler = (
            scheduler
            if scheduler is not None
            else UniformPairScheduler(protocol.n, rng=self.rng, batch_size=scheduler_batch_size)
        )
        self.hooks: List[InteractionHook] = list(hooks) if hooks else []
        self.interactions = 0

    # -- basic stepping -----------------------------------------------------------

    def step(self) -> None:
        """Execute a single interaction."""
        initiator_id, responder_id = self.scheduler.next_pair()
        states = self.configuration.states
        self.protocol.transition(states[initiator_id], states[responder_id], self.rng)
        self.interactions += 1
        for hook in self.hooks:
            hook.on_interaction(self.interactions, initiator_id, responder_id, self.configuration)

    def run(self, num_interactions) -> Optional[SimulationResult]:
        """Execute a :class:`RunConfig` plan, or exactly ``n`` interactions.

        Passing a :class:`~repro.engine.run_config.RunConfig` runs until the
        configured stop condition (or cap) and returns the
        :class:`SimulationResult` -- the polymorphic entry point shared with
        :class:`~repro.engine.batch_simulation.BatchSimulation`, so harness
        code never dispatches on the stop condition by hand.  Passing an
        integer keeps the historical exact-step behaviour (returns ``None``).
        """
        if isinstance(num_interactions, RunConfig):
            return run_plan(self, num_interactions)
        if num_interactions < 0:
            raise ValueError(f"num_interactions must be non-negative, got {num_interactions}")
        marker = time.perf_counter() if _metrics._PROFILING else 0.0
        # Local-variable binding keeps the hot loop as tight as pure Python allows.
        transition = self.protocol.transition
        next_pair = self.scheduler.next_pair
        states = self.configuration.states
        rng = self.rng
        hooks = self.hooks
        if hooks:
            for _ in range(num_interactions):
                i, j = next_pair()
                transition(states[i], states[j], rng)
                self.interactions += 1
                for hook in hooks:
                    hook.on_interaction(self.interactions, i, j, self.configuration)
        else:
            for _ in range(num_interactions):
                i, j = next_pair()
                transition(states[i], states[j], rng)
            self.interactions += num_interactions
        if _metrics._PROFILING:
            _metrics.record_stage_seconds("loop", "table_apply", time.perf_counter() - marker)
        # The loop engine has no windows; count each call as one instead.
        if _metrics._ENABLED and num_interactions:
            _metrics.record_window("loop", num_interactions)
        return None

    # -- plan kernels (see repro.engine.driver.run_plan) -------------------------------

    def _install_scheduler(self, spec) -> None:
        self.scheduler = spec.build(self.protocol.n, rng=self.rng)

    def _apply_fault_event(self, campaign, index: int) -> None:
        campaign.apply_to_configuration(index, self.protocol, self.configuration)

    def _install_byzantine(self, spec):
        """Re-seat the run on the byzantine overlay (see its module docs).

        The loop engine is the general one, but a persistent adversary is
        defined *by* the compiled table (the hostile strategies are table
        transforms), so installing compiles the protocol -- non-compilable
        protocols raise the compiler's usual error.  Agent states become
        tagged states, the protocol becomes the overlay's view (honest pairs
        still run the base ``transition``; pairs involving adversaries go
        through the extended table), and the stop predicates switch to
        honest-scope semantics via the view.
        """
        from repro.adversary.byzantine import (
            build_byzantine_overlay,
            byzantine_selection_rng,
        )
        from repro.engine.compiled import ProtocolCompiler

        compiled = ProtocolCompiler().compile(self.protocol)
        overlay = build_byzantine_overlay(self.protocol, compiled, spec)
        indices = compiled.encode_configuration(self.configuration)
        marked = overlay.draw_marking(
            byzantine_selection_rng(self.rng), compiled.state_counts(indices)
        )
        extended = overlay.mark_indices(indices, marked)
        for agent, state_index in enumerate(extended):
            self.configuration[agent] = overlay.compiled.states[int(state_index)].clone()
        self.protocol = overlay.view
        return overlay

    # -- running until a condition --------------------------------------------------

    def run_until(
        self,
        predicate: Callable[[Configuration], bool],
        max_interactions: Optional[int] = None,
        check_interval: Optional[int] = None,
        reason: str = "predicate",
    ) -> SimulationResult:
        """Run until ``predicate(configuration)`` holds or the cap is reached
        (see :func:`~repro.engine.driver.check_loop` for the check cadence)."""
        return check_loop(self, predicate, None, max_interactions, check_interval, reason)


__all__ = ["Simulation"]
