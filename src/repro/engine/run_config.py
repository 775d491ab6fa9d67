"""The typed run contract shared by the engines, the harness, and the CLI.

:class:`RunConfig` is a frozen record of *how* to execute a run -- which
engine, which stop condition, which seed, which caps, how many worker
processes -- replacing the thicket of parallel ``engine=``/``stop=``/
``seed=``/``max_interactions=``/``check_interval=``/``jobs=`` keywords that
used to be threaded through every layer.  One ``RunConfig`` flows unchanged
from the CLI (``--engine/--jobs/--seed``) through
:func:`repro.experiments.harness.run_trials` down to the engine, and its
fields are stamped into every persisted
:class:`~repro.experiments.result.ExperimentResult` as provenance.

:func:`make_simulation` is the single factory that turns ``(protocol,
config)`` into the right engine instance, and both
:class:`~repro.engine.simulation.Simulation` and
:class:`~repro.engine.batch_simulation.BatchSimulation` accept a
``RunConfig`` in their polymorphic ``run()`` entry point, so callers never
dispatch on the stop condition by hand.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Optional

from repro.engine.rng import RngLike

#: Execution engines selectable by experiments and the CLI
#: (see ``docs/ARCHITECTURE.md`` for the tradeoffs).
ENGINES = ("loop", "compiled", "counts")

#: Stop conditions understood by the trial runners and ``run(config)``.
STOPS = ("stabilized", "correct", "silent")

#: The one message for the counts/epoch mismatch, raised both at
#: ``RunConfig`` validation time (fail fast, before any seeding work) and by
#: ``CountsSimulation`` itself when the spec is attached directly.
COUNTS_EPOCH_MESSAGE = (
    "engine='counts' does not support the epoch-partition scheduler: its "
    "block phases are defined over agent identities, which a count vector "
    "does not carry.  Use engine='compiled' or engine='loop' for epoch "
    "campaigns."
)


@dataclass(frozen=True)
class RunConfig:
    """How to execute one run (or one batch of trials).

    Attributes
    ----------
    engine:
        ``"loop"`` (per-interaction :class:`~repro.engine.simulation.Simulation`),
        ``"compiled"`` (table-driven
        :class:`~repro.engine.batch_simulation.BatchSimulation`), or
        ``"counts"`` (agent-free
        :class:`~repro.engine.counts_simulation.CountsSimulation`, whose
        window cost is independent of ``n``).
    stop:
        Stop condition: ``"stabilized"``, ``"correct"``, or ``"silent"``.
    seed:
        Root seed for the run.  ``None`` draws fresh entropy; experiment
        entry points default it to ``0`` so CLI runs are reproducible.
    max_interactions:
        Interaction cap, or ``None`` for the engine default
        (:func:`repro.engine.driver.default_cap`, ``40 * n**3``).
        Experiments with tighter internal caps apply their own default when
        this is ``None``.
    check_interval:
        Interactions between stop-condition checks (``None`` = ``n``).
    jobs:
        Worker processes for multi-trial runs.  Results are bit-identical
        for every value -- parallelism redistributes work, never randomness.
    trial_batch:
        Trials advanced together by one trial-batched engine instance
        (:mod:`repro.engine.trial_batch`).  ``1`` (the default) is the
        per-trial path; larger values make :func:`~repro.experiments.harness.
        run_trials` slice the trial list into batches of this size (each
        worker process runs whole batches, so ``trial_batch`` composes with
        ``jobs``).  Compiled-engine results stay bit-identical for every
        value; counts-engine results are deterministic per
        ``(seed, trial_batch)`` but follow the same law (see the module
        docstring of :mod:`repro.engine.trial_batch`).  Ignored by the loop
        engine path only in the sense that requesting it there is an error.
    faults:
        Optional :class:`~repro.adversary.plan.FaultPlan` both engines
        execute mid-run (timed corrupt / reset / reseed bursts).  The stop
        condition is evaluated only after the final event, so the result
        measures recovery from the last burst; campaign provenance lands in
        ``SimulationResult.extra`` (see :mod:`repro.adversary.campaign`).
    scheduler:
        Optional :class:`~repro.adversary.schedulers.SchedulerSpec`
        selecting the pair scheduler (``None`` = the paper's uniform one).
        ``run(config)`` builds it with the engine's generator, replacing the
        engine's default scheduler for the plan execution.
    byzantine:
        Optional :class:`~repro.adversary.byzantine.ByzantineSpec` marking a
        fraction of agents as *permanently* adversarial via the compiled-table
        overlay (all three engines honour it; see
        :mod:`repro.adversary.byzantine`).  Mutually exclusive with ``faults``
        (persistent vs. transient adversaries) and requires the uniform
        scheduler.
    """

    engine: str = "loop"
    stop: str = "stabilized"
    seed: RngLike = None
    max_interactions: Optional[int] = None
    check_interval: Optional[int] = None
    jobs: int = 1
    trial_batch: int = 1
    faults: Optional[object] = None
    scheduler: Optional[object] = None
    byzantine: Optional[object] = None

    def __post_init__(self) -> None:
        # Imported lazily: the adversary package sits above the engine in the
        # layering, so the types cannot be imported at module scope.
        if self.faults is not None:
            from repro.adversary.plan import FaultPlan

            if not isinstance(self.faults, FaultPlan):
                raise TypeError(
                    f"faults must be a FaultPlan, got {type(self.faults).__name__}"
                )
        if self.scheduler is not None:
            from repro.adversary.schedulers import SchedulerSpec

            if not isinstance(self.scheduler, SchedulerSpec):
                raise TypeError(
                    f"scheduler must be a SchedulerSpec, got {type(self.scheduler).__name__}"
                )
        if self.byzantine is not None:
            from repro.adversary.byzantine import ByzantineSpec

            if not isinstance(self.byzantine, ByzantineSpec):
                raise TypeError(
                    f"byzantine must be a ByzantineSpec, got {type(self.byzantine).__name__}"
                )
            if self.faults is not None:
                raise ValueError(
                    "byzantine adversaries are persistent and replace fault "
                    "campaigns; pass either byzantine= or faults=, not both"
                )
            if self.scheduler is not None and getattr(self.scheduler, "kind", None) != "uniform":
                raise ValueError(
                    "the byzantine overlay assumes the uniform scheduler "
                    "(its agent selection is exchangeable); drop scheduler= "
                    "or use kind='uniform'"
                )
        if self.engine not in ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r}, expected one of {ENGINES}"
            )
        if (
            self.engine == "counts"
            and self.scheduler is not None
            and getattr(self.scheduler, "kind", None) == "epoch"
        ):
            raise ValueError(COUNTS_EPOCH_MESSAGE)
        if self.stop not in STOPS:
            raise ValueError(f"unknown stop condition {self.stop!r}, expected one of {STOPS}")
        if self.jobs < 1:
            raise ValueError(f"jobs must be positive, got {self.jobs}")
        if self.trial_batch < 1:
            raise ValueError(f"trial_batch must be positive, got {self.trial_batch}")
        if self.trial_batch > 1 and self.engine == "loop":
            raise ValueError(
                "trial_batch > 1 requires a table engine ('compiled' or "
                "'counts'); the loop engine advances one trial at a time"
            )
        if self.max_interactions is not None and self.max_interactions < 0:
            raise ValueError(
                f"max_interactions must be non-negative, got {self.max_interactions}"
            )
        if self.check_interval is not None and self.check_interval < 1:
            raise ValueError(
                f"check_interval must be positive, got {self.check_interval}"
            )

    def replace(self, **changes) -> "RunConfig":
        """A copy with the given fields replaced (fields re-validate)."""
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> Dict:
        """JSON-able provenance view.

        Non-serializable seeds (generators, tuples of entropy) are recorded
        as ``None`` -- runs seeded that way are not reproducible from the
        artifact alone, and the field says so honestly.
        """
        return {
            "engine": self.engine,
            "stop": self.stop,
            "seed": self.seed if isinstance(self.seed, int) else None,
            "max_interactions": self.max_interactions,
            "check_interval": self.check_interval,
            "jobs": self.jobs,
            "trial_batch": self.trial_batch,
            "faults": self.faults.to_dict() if self.faults is not None else None,
            "scheduler": self.scheduler.to_dict() if self.scheduler is not None else None,
            "byzantine": self.byzantine.to_dict() if self.byzantine is not None else None,
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "RunConfig":
        """Inverse of :meth:`to_dict` (unknown keys are rejected)."""
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown RunConfig fields: {sorted(unknown)}")
        payload = dict(payload)
        if isinstance(payload.get("faults"), dict):
            from repro.adversary.plan import FaultPlan

            payload["faults"] = FaultPlan.from_dict(payload["faults"])
        if isinstance(payload.get("scheduler"), dict):
            from repro.adversary.schedulers import SchedulerSpec

            payload["scheduler"] = SchedulerSpec.from_dict(payload["scheduler"])
        if isinstance(payload.get("byzantine"), dict):
            from repro.adversary.byzantine import ByzantineSpec

            payload["byzantine"] = ByzantineSpec.from_dict(payload["byzantine"])
        return cls(**payload)


def make_simulation(
    protocol,
    config: Optional[RunConfig] = None,
    *,
    configuration=None,
    rng: RngLike = None,
    compiled=None,
    hooks=None,
    counts=None,
):
    """Build the engine instance selected by ``config.engine``.

    ``rng`` overrides ``config.seed`` when given (the harness passes the
    per-trial generator); ``compiled`` lets callers share one compiled table
    across trials.  Hooks are a loop-engine feature -- requesting them with
    a batched engine is an error rather than a silent no-op.  ``counts`` is
    a table-engine feature (the O(S) seed path for huge populations): the
    counts engine takes the vector directly; the compiled engine expands it
    to the sorted per-agent index array ``repeat(arange(S), counts)``, which
    is exchangeable with any other agent layout under the uniform scheduler
    (agent identity never enters the pair law) -- so the expansion is
    rejected when ``config.scheduler`` is identity-sensitive.  The loop
    engine holds rich per-agent state objects and cannot be counts-seeded.
    """
    import numpy as np

    from repro.engine.batch_simulation import BatchSimulation
    from repro.engine.counts_simulation import CountsSimulation
    from repro.engine.simulation import Simulation

    if config is None:
        config = RunConfig()
    if rng is None:
        rng = config.seed
    if counts is not None and config.engine == "loop":
        raise ValueError(
            "counts= seeds the table engines only; "
            f"engine={config.engine!r} holds per-agent state objects"
        )
    if hooks and config.byzantine is not None:
        raise ValueError(
            "interaction hooks observe raw protocol states; the byzantine "
            "overlay rewrites them into tagged states, so the two cannot "
            "be combined"
        )
    if config.engine == "counts":
        if hooks:
            raise ValueError(
                "interaction hooks require the loop engine; "
                "CountsSimulation samples whole windows and cannot call them"
            )
        return CountsSimulation(
            protocol,
            configuration=configuration,
            counts=counts,
            rng=rng,
            compiled=compiled,
        )
    if config.engine == "compiled":
        if hooks:
            raise ValueError(
                "interaction hooks require the loop engine; "
                "BatchSimulation applies whole batches and cannot call them"
            )
        if counts is not None:
            if configuration is not None:
                raise ValueError("pass at most one of configuration/counts")
            if config.scheduler is not None and getattr(config.scheduler, "kind", None) != "uniform":
                raise ValueError(
                    "counts-seeding the compiled engine assumes exchangeable "
                    "agents; an identity-sensitive scheduler needs an explicit "
                    "configuration"
                )
            counts = np.asarray(counts, dtype=np.int64)
            indices = np.repeat(
                np.arange(len(counts), dtype=np.int32), counts
            )
            return BatchSimulation(protocol, indices=indices, rng=rng, compiled=compiled)
        return BatchSimulation(
            protocol, configuration=configuration, rng=rng, compiled=compiled
        )
    return Simulation(protocol, configuration=configuration, rng=rng, hooks=hooks)


__all__ = ["COUNTS_EPOCH_MESSAGE", "ENGINES", "RunConfig", "STOPS", "make_simulation"]
