"""Spans around the public calls into each layer of ``repro``, installed from outside.

:func:`install` wraps functions and methods of an imported ``repro`` so that
every call records a span in a :class:`~perfbench.spans.Tracer`.  Nothing
under ``src/`` changes: module functions are rebound in every ``repro``
module that imported them by name, and methods are replaced on the class
that defines them and on each subclass that overrides them.

A hook whose target no longer exists is skipped and reported by name, so a
refactor that moves a function shows up as a missing hook and an empty
layer instead of a crash.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from typing import Callable, Dict, List, Optional

#: Layer name -> the per-layer metric that reports its self time.
LAYER_TIME_METRICS = {
    "experiments.runner": "experiments.runner.self.s",
    "experiments.harness": "experiments.harness.self.s",
    "engine.construct": "engine.construct.s",
    "engine.compiled.compile": "engine.compiled.compile.s",
    "core.seed": "core.seed.s",
    "adversary.start_config": "adversary.start_config.s",
    "engine.simulation.run": "engine.simulation.run.s",
    "engine.batch_simulation.run": "engine.batch_simulation.run.s",
    "engine.trial_batch.run": "engine.trial_batch.run.s",
    "engine.scheduler.draw": "engine.scheduler.draw.s",
    "core.stop_check": "core.stop_check.s",
    "adversary.fault": "adversary.fault.s",
    "analysis": "analysis.s",
    "experiments.result.save": "experiments.result.save.s",
}

#: Engine layer -> the prefix of its interaction counters.
ENGINE_LAYERS = {
    "engine.simulation.run": "engine.simulation",
    "engine.batch_simulation.run": "engine.batch_simulation",
    "engine.trial_batch.run": "engine.trial_batch",
}


def _resolve(target: str):
    """``"pkg.module"`` or ``"pkg.module:Class"`` -> the object, or None."""
    module_name, _, qualname = target.partition(":")
    try:
        obj = importlib.import_module(module_name)
    except ImportError:
        return None
    for part in filter(None, qualname.split(".")):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


def _class_tree(cls: type) -> List[type]:
    seen, pending = [], [cls]
    while pending:
        current = pending.pop()
        if current not in seen:
            seen.append(current)
            pending.extend(current.__subclasses__())
    return seen


def _patch_methods(cls: type, name: str, make: Callable) -> int:
    """Wrap ``name`` on ``cls`` and on every subclass that defines its own."""
    patched = 0
    for owner in _class_tree(cls):
        attribute = owner.__dict__.get(name)
        if isinstance(attribute, classmethod):
            setattr(owner, name, classmethod(make(attribute.__func__)))
        elif inspect.isfunction(attribute):
            setattr(owner, name, make(attribute))
        else:
            continue
        patched += 1
    return patched


def _patch_function(module, name: str, make: Callable) -> int:
    """Wrap ``module.name`` and rebind every ``repro`` module's copy of it."""
    original = module.__dict__.get(name)
    if not inspect.isfunction(original):
        return 0
    wrapped = make(original)
    for loaded in list(sys.modules.values()):
        namespace = getattr(loaded, "__dict__", {})
        if str(namespace.get("__name__", "")).startswith("repro") and namespace.get(name) is original:
            setattr(loaded, name, wrapped)
    return 1


def _public_functions(module) -> List[str]:
    return [
        name
        for name, value in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(value)
        and value.__module__ == module.__name__
    ]


def _spanned(tracer, layer: str, observe=None) -> Callable:
    """Wrapper factory: a span of ``layer`` around each call.

    ``observe(args, kwargs)`` runs for outermost calls of the layer only and
    returns ``finish(result)``, which records counts from the call's result.
    """
    open_span, close_span = tracer.open, tracer.close

    def make(function):
        @functools.wraps(function)
        def traced(*args, **kwargs):
            finish = None
            if open_span(layer) and observe is not None:
                finish = observe(args, kwargs)
            try:
                result = function(*args, **kwargs)
            finally:
                close_span(layer)
            if finish is not None:
                finish(result)
            return result

        return traced

    return make


def _counted(counts, key: str) -> Callable:
    """Wrapper factory: count outermost calls under ``key``, no span.

    The depth is shared by every function wrapped through this factory, so an
    override that calls ``super()`` counts once.
    """
    depth = [0]

    def make(function):
        @functools.wraps(function)
        def counted(*args, **kwargs):
            if depth[0] == 0:
                counts[key] += 1
            depth[0] += 1
            try:
                return function(*args, **kwargs)
            finally:
                depth[0] -= 1

        return counted

    return make


def _protocol_signature(protocol) -> tuple:
    """What distinguishes two protocol instances for compilation purposes."""
    simple = (int, float, str, bool, tuple, type(None))
    fields = sorted(
        (name, repr(value)) for name, value in vars(protocol).items() if isinstance(value, simple)
    )
    return (type(protocol).__qualname__, tuple(fields))


class Installed:
    """What :func:`install` did: the hooks it could not place, and compile signatures."""

    def __init__(self) -> None:
        self.missing: List[str] = []
        self.compile_signatures: set = set()


def install(tracer) -> Installed:
    """Wrap every layer entry point of the loaded ``repro`` package."""
    counts = tracer.counts
    installed = Installed()

    def hook(target: str, names, layer: Optional[str] = None, observe=None, make=None):
        make = make or _spanned(tracer, layer, observe)
        obj = _resolve(target)
        for name in names:
            if obj is None:
                patched = 0
            elif inspect.isclass(obj):
                patched = _patch_methods(obj, name, make)
            else:
                patched = _patch_function(obj, name, make)
            if not patched:
                installed.missing.append(f"{target}.{name}")

    def hook_module(target: str, layer: str):
        """Spans around every public function ``target`` defines."""
        module = _resolve(target)
        if module is None:
            installed.missing.append(target)
        else:
            hook(target, _public_functions(module), layer)

    def engine_run(prefix):
        def observe(args, kwargs):
            simulation, before = args[0], args[0].interactions

            def finish(result):
                counts[prefix + ".interactions"] += int(simulation.interactions) - int(before)

            return finish

        return observe

    def trial_batch_run(args, kwargs):
        def finish(results):
            counts["engine.trial_batch.interactions"] += sum(int(r.interactions) for r in results)
            counts["engine.trial_batch.trials"] += len(results)

        return finish

    def harness_trials(args, kwargs):
        def finish(results):
            counts["experiments.harness.trials"] += len(results)
            counts["experiments.harness.capped_trials"] += sum(not r.stopped for r in results)

        return finish

    def compile_observe(args, kwargs):
        installed.compile_signatures.add(_protocol_signature(args[1]))

        def finish(compiled):
            counts["engine.compiled.states"] += int(compiled.num_states)

        return finish

    def seeded_agents(args, kwargs):
        def finish(seeded):
            total = len(seeded) if hasattr(seeded, "states") else int(sum(seeded))
            counts["core.seed.agents"] += total

        return finish

    def drawn_pairs(args, kwargs):
        def finish(pairs):
            counts["engine.scheduler.draw.pairs"] += int(pairs[0].size)

        return finish

    def saved_bytes(args, kwargs):
        def finish(path):
            counts["experiments.result.bytes"] += path.stat().st_size

        return finish

    stop_span = _spanned(tracer, "core.stop_check")

    def wrap_predicates(function):
        @functools.wraps(function)
        def compiled_predicates(*args, **kwargs):
            predicates = function(*args, **kwargs)
            if not isinstance(predicates, dict):
                return predicates
            return {
                kind: stop_span(check) if callable(check) else check
                for kind, check in predicates.items()
            }

        return compiled_predicates

    hook("repro.experiments.harness:ExperimentSpec", ["run"], "experiments.runner")
    hook("repro.experiments.harness", ["run_trials"], "experiments.harness", harness_trials)
    hook("repro.engine.run_config", ["make_simulation"], "engine.construct")
    hook("repro.engine.compiled:ProtocolCompiler", ["compile"], "engine.compiled.compile",
         compile_observe)
    hook("repro.engine.compiled:ProtocolCompiler", ["_branches"],
         make=_counted(counts, "engine.compiled.pairs_probed"))
    hook("repro.engine.state:AgentState", ["clone"], make=_counted(counts, "core.state_clone.calls"))
    hook("repro.engine.protocol:PopulationProtocol",
         ["initial_configuration", "random_configuration"], "core.seed", seeded_agents)
    hook("repro.experiments.counts_experiments", ["_one_infected_counts"], "core.seed",
         seeded_agents)
    hook("repro.engine.compiled:CompiledProtocol", ["encode_configuration"], "core.seed")
    hook_module("repro.adversary.initial_configs", "adversary.start_config")
    hook("repro.engine.simulation:Simulation", ["run_until", "run"], "engine.simulation.run",
         engine_run("engine.simulation"))
    hook("repro.engine.batch_simulation:BatchSimulation", ["run_until", "run"],
         "engine.batch_simulation.run", engine_run("engine.batch_simulation"))
    hook("repro.engine.trial_batch:TrialBatchSimulation", ["run"], "engine.trial_batch.run",
         trial_batch_run)
    hook("repro.engine.scheduler", ["draw_uniform_pairs", "draw_uniform_pair_matrix"],
         "engine.scheduler.draw", drawn_pairs)
    hook("repro.engine.scheduler:PairScheduler", ["pair_batch"], "engine.scheduler.draw",
         drawn_pairs)
    hook("repro.engine.protocol:PopulationProtocol", ["has_stabilized", "is_correct", "is_silent"],
         "core.stop_check")
    hook("repro.engine.protocol:PopulationProtocol", ["compiled_predicates"], make=wrap_predicates)
    hook("repro.engine.compiled:CompiledProtocol", ["counts_silent"], "core.stop_check")
    hook("repro.adversary.campaign:FaultCampaign", ["apply_to_configuration", "apply_to_batch"],
         "adversary.fault")
    hook("repro.engine.batch_simulation:BatchSimulation", ["apply_fault"], "adversary.fault")
    for module_name in sorted(name for name in sys.modules if name.startswith("repro.analysis.")):
        hook_module(module_name, "analysis")
    hook("repro.engine.results:TrialStatistics", ["from_values"], "analysis")
    hook("repro.experiments.result:ExperimentResult", ["save"], "experiments.result.save",
         saved_bytes)
    return installed


def summarize(tracer, installed: Installed) -> Dict:
    """The tracer's spans and counts plus what :func:`install` recorded."""
    payload = tracer.to_dict()
    payload["counts"]["engine.compiled.compile.distinct"] = len(installed.compile_signatures)
    payload["missing_hooks"] = list(installed.missing)
    return payload
