"""Command-line interface.

Examples
--------
List the available experiments::

    python -m repro list

Run one experiment at the quick scale and print its table::

    python -m repro run epidemic --scale quick

Run every experiment with a pinned seed, persisting one artifact per
experiment (used to regenerate ``EXPERIMENTS.md`` material)::

    python -m repro run all --scale quick --seed 1 --output artifacts/

Re-render the saved tables later -- no simulation re-runs::

    python -m repro report artifacts/
    python -m repro report artifacts/epidemic.json --markdown

Simulate one protocol from an adversarial configuration and watch it
stabilize::

    python -m repro simulate optimal-silent --n 32 --seed 7

Run a compilable protocol on the table-driven batch engine (large
populations; see docs/ARCHITECTURE.md)::

    python -m repro simulate reset-wave --n 100000 --engine compiled

Fan a multi-trial sweep over 4 worker processes (same results as --jobs 1,
just faster)::

    python -m repro run optimal_silent --scale full --jobs 4

Run the stress campaigns (timed fault bursts + adversarial schedulers) on
either engine, persisting artifacts like any other experiment::

    python -m repro stress --scale quick --seed 1
    python -m repro stress recovery_burst --engine compiled --output artifacts/

Run only the persistent-Byzantine families (tolerance curves and
approximate consensus vs the theory phase count)::

    python -m repro stress --byzantine --scale quick --seed 1
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.engine.compiled import CompilationError
from repro.engine.run_config import ENGINES, RunConfig
from repro.experiments.registry import (
    BYZANTINE_EXPERIMENTS,
    STRESS_EXPERIMENTS,
    get_experiment,
    list_experiments,
)
from repro.experiments.report import format_table, rows_to_markdown
from repro.experiments.result import ExperimentResult, load_artifacts

#: Protocols available to the ``simulate`` subcommand.
SIMULATABLE_PROTOCOLS = (
    "silent-n-state",
    "optimal-silent",
    "sublinear",
    "fratricide",
    "reset-wave",
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Time-Optimal Self-Stabilizing Leader Election in "
            "Population Protocols' (PODC 2021)"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list available experiments")

    run_parser = subparsers.add_parser("run", help="run an experiment and print its table")
    run_parser.add_argument(
        "experiment",
        help="experiment identifier (see 'repro list'), or 'all'",
    )
    run_parser.add_argument(
        "--scale",
        choices=("quick", "full"),
        default="quick",
        help="parameterization to use (default: quick)",
    )
    run_parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help=(
            "root seed for the run (default: 0); the same seed reproduces "
            "the same tables for every experiment"
        ),
    )
    run_parser.add_argument(
        "--markdown", action="store_true", help="emit Markdown tables instead of text"
    )
    run_parser.add_argument(
        "--engine",
        choices=ENGINES,
        default="loop",
        help=(
            "execution engine for harness-backed experiments: 'loop' steps one "
            "interaction at a time; 'compiled' lowers the protocol to "
            "transition tables (requires an enumerable state space); 'counts' "
            "runs agent-free on a state-count vector (n-independent window "
            "cost; epoch-partition scheduling unsupported)"
        ),
    )
    run_parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help=(
            "worker processes for multi-trial sweeps (default: 1); results are "
            "bit-identical for any value -- per-trial random streams are derived "
            "from SeedSequence children independently of the process layout"
        ),
    )
    run_parser.add_argument(
        "--trial-batch",
        type=int,
        default=1,
        dest="trial_batch",
        help=(
            "trials advanced together by one trial-batched engine instance "
            "(default: 1 = per-trial); requires --engine compiled or counts, "
            "composes with --jobs (each worker runs whole batches), and "
            "compiled-engine results stay bit-identical for any value"
        ),
    )
    run_parser.add_argument(
        "--output",
        metavar="DIR",
        default=None,
        help=(
            "persist one artifact per experiment to DIR "
            "(<identifier>.json; render later with 'repro report DIR')"
        ),
    )
    run_parser.add_argument(
        "--checkpoint",
        metavar="DIR",
        default=None,
        help=(
            "persist finished trials and in-flight engine checkpoints to DIR "
            "while running (single experiment only); a killed run restarted "
            "with --resume DIR completes with byte-identical artifacts "
            "(wall_time is zeroed so repeat runs compare equal)"
        ),
    )
    run_parser.add_argument(
        "--resume",
        metavar="DIR",
        default=None,
        help=(
            "resume a --checkpoint run from DIR: finished trials replay from "
            "disk, the interrupted one restarts from its engine checkpoint; "
            "refuses DIRs recorded for a different experiment/seed/engine "
            "(payload digest mismatch)"
        ),
    )
    run_parser.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help=(
            "write a structured JSONL trace of the run to FILE (spans for "
            "experiments, harness calls, and trials plus a final metrics "
            "snapshot); summarize later with 'repro trace FILE'.  Tracing "
            "never touches engine RNG -- artifacts are byte-identical with "
            "and without it"
        ),
    )
    run_parser.add_argument(
        "--profile",
        action="store_true",
        help=(
            "collect per-stage wall time (scheduler draw / table apply / "
            "stop check) at the engines' check-interval cadence and print a "
            "stage breakdown after the run; implies telemetry collection "
            "but, like --trace, leaves results bit-identical"
        ),
    )

    stress_parser = subparsers.add_parser(
        "stress",
        help="run fault-campaign stress experiments (adversary subsystem)",
        description=(
            "Run the registered stress experiments: timed fault bursts "
            "(corrupt/reset/reseed) executed mid-run by either engine, with "
            "recovery measured from the last burst; see "
            "docs/ARCHITECTURE.md (adversary subsystem)."
        ),
    )
    stress_parser.add_argument(
        "experiment",
        nargs="?",
        choices=STRESS_EXPERIMENTS + ("all",),
        default="all",
        help="which stress experiment to run (default: all)",
    )
    stress_parser.add_argument(
        "--byzantine",
        action="store_true",
        help=(
            "run only the persistent-Byzantine experiments "
            f"({', '.join(BYZANTINE_EXPERIMENTS)}): tolerance curves per "
            "protocol and approximate consensus vs the theory phase count"
        ),
    )
    stress_parser.add_argument(
        "--scale",
        choices=("quick", "full"),
        default="quick",
        help="parameterization to use (default: quick)",
    )
    stress_parser.add_argument(
        "--n", type=int, default=None, help="override the population size"
    )
    stress_parser.add_argument(
        "--trials", type=int, default=None, help="override the trial count"
    )
    stress_parser.add_argument(
        "--seed", type=int, default=None, help="root seed for the run (default: 0)"
    )
    stress_parser.add_argument(
        "--markdown", action="store_true", help="emit Markdown tables instead of text"
    )
    stress_parser.add_argument(
        "--engine",
        choices=ENGINES,
        default="loop",
        help="execution engine; fault campaigns run on both (default: loop)",
    )
    stress_parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the trial sweeps (default: 1)",
    )
    stress_parser.add_argument(
        "--trial-batch",
        type=int,
        default=1,
        dest="trial_batch",
        help=(
            "trials per batched engine instance (default: 1); campaigns with "
            "fault events fall back to per-trial execution"
        ),
    )
    stress_parser.add_argument(
        "--output",
        metavar="DIR",
        default=None,
        help=(
            "persist one artifact per experiment to DIR "
            "(<identifier>.json; render later with 'repro report DIR')"
        ),
    )

    report_parser = subparsers.add_parser(
        "report", help="re-render tables from saved artifacts without re-running"
    )
    report_parser.add_argument(
        "artifacts",
        nargs="+",
        help="artifact files (.json/.jsonl) or directories containing them",
    )
    report_parser.add_argument(
        "--markdown", action="store_true", help="emit Markdown tables instead of text"
    )

    simulate_parser = subparsers.add_parser(
        "simulate", help="run one protocol from an adversarial configuration"
    )
    simulate_parser.add_argument(
        "protocol",
        choices=SIMULATABLE_PROTOCOLS,
        help="which protocol to simulate",
    )
    simulate_parser.add_argument("--n", type=int, default=32, help="population size")
    simulate_parser.add_argument("--seed", type=int, default=0, help="random seed")
    simulate_parser.add_argument(
        "--depth",
        type=int,
        default=1,
        help="history-tree depth H for the sublinear protocol (0 = direct detection)",
    )
    simulate_parser.add_argument(
        "--clean",
        action="store_true",
        help="start from the protocol's clean initial configuration instead of an adversarial one",
    )
    simulate_parser.add_argument(
        "--engine",
        choices=ENGINES,
        default="loop",
        help=(
            "execution engine: 'loop' steps one interaction at a time; "
            "'compiled' lowers the protocol to transition tables and applies "
            "whole scheduler batches (requires an enumerable state space); "
            "'counts' advances a state-count vector in O(S^2) per window "
            "(fixed-state-space protocols scale to n=1e8+)"
        ),
    )

    serve_parser = subparsers.add_parser(
        "serve",
        help="run the simulation service (job queue + workers + HTTP API)",
        description=(
            "Serve simulations over HTTP: POST /jobs enqueues a run, workers "
            "execute it with resumable checkpoints, and the artifact lands in "
            "a content-addressed cache -- identical resubmissions never "
            "simulate again.  See docs/ARCHITECTURE.md (serve subsystem)."
        ),
    )
    serve_parser.add_argument(
        "--queue",
        metavar="DIR",
        default=".repro-queue",
        help="queue root directory; jobs, checkpoints and the artifact cache "
        "live here and survive restarts (default: .repro-queue)",
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    serve_parser.add_argument(
        "--port", type=int, default=8765, help="bind port; 0 picks a free one "
        "(default: 8765)",
    )
    serve_parser.add_argument(
        "--workers", type=int, default=1, help="worker threads (default: 1)"
    )
    serve_parser.add_argument(
        "--max-retries",
        type=int,
        default=3,
        dest="max_retries",
        help="attempts before a job is marked failed for good (default: 3); "
        "a worker death mid-run costs one retry",
    )

    submit_parser = subparsers.add_parser(
        "submit", help="submit an experiment run to a repro server"
    )
    submit_parser.add_argument(
        "experiment", help="experiment identifier (see 'repro list')"
    )
    submit_parser.add_argument(
        "--url",
        default="http://127.0.0.1:8765",
        help="server base URL (default: http://127.0.0.1:8765)",
    )
    submit_parser.add_argument(
        "--scale", choices=("quick", "full"), default="quick",
        help="parameterization to use (default: quick)",
    )
    submit_parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="root seed (default: 0); required to be an integer so the "
        "content-addressed cache key is well-defined",
    )
    submit_parser.add_argument(
        "--engine", choices=ENGINES, default="loop",
        help="execution engine for the run (default: loop)",
    )
    submit_parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes inside the run (default: 1)",
    )
    submit_parser.add_argument(
        "--trial-batch", type=int, default=1, dest="trial_batch",
        help="trials per batched engine instance (default: 1)",
    )
    submit_parser.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="experiment parameter override (repeatable); VALUE is parsed as "
        "JSON when possible, else kept as a string -- e.g. "
        "--param 'ns=[256,1024]' --param trials=5",
    )

    jobs_parser = subparsers.add_parser(
        "jobs", help="list a repro server's jobs, or show one job's status"
    )
    jobs_parser.add_argument(
        "job_id", nargs="?", default=None,
        help="job id to inspect (default: list all jobs)",
    )
    jobs_parser.add_argument(
        "--url", default="http://127.0.0.1:8765",
        help="server base URL (default: http://127.0.0.1:8765)",
    )

    fetch_parser = subparsers.add_parser(
        "fetch", help="download a finished job's artifact from a repro server"
    )
    fetch_parser.add_argument("job_id", help="job id whose artifact to fetch")
    fetch_parser.add_argument(
        "--url", default="http://127.0.0.1:8765",
        help="server base URL (default: http://127.0.0.1:8765)",
    )
    fetch_parser.add_argument(
        "--output",
        metavar="PATH",
        default=None,
        help="write the artifact bytes to PATH (byte-identical to the "
        "server's cache entry) instead of rendering the table",
    )
    fetch_parser.add_argument(
        "--markdown", action="store_true", help="emit a Markdown table"
    )

    bench_parser = subparsers.add_parser(
        "bench", help="benchmark baseline utilities"
    )
    bench_subparsers = bench_parser.add_subparsers(dest="bench_command", required=True)
    bench_report_parser = bench_subparsers.add_parser(
        "report",
        help="render the cross-PR speed trend from committed BENCH_*.json",
        description=(
            "Each BENCH_<area>.json baseline appends a {head, rows} history "
            "entry on every re-record; this renders those entries as one "
            "trend table per area, oldest first."
        ),
    )
    bench_report_parser.add_argument(
        "--area",
        action="append",
        default=None,
        metavar="AREA",
        help="restrict to one area (repeatable; default: every committed "
        "baseline)",
    )
    bench_report_parser.add_argument(
        "--root",
        default=None,
        help="directory holding the BENCH_*.json files (default: repo root)",
    )
    bench_report_parser.add_argument(
        "--markdown", action="store_true", help="emit Markdown tables"
    )

    trace_parser = subparsers.add_parser(
        "trace",
        help="summarize a JSONL trace written by 'repro run --trace' or serve",
        description=(
            "Reads a repro.trace/v1 JSONL file and reports per-phase wall "
            "time, trial throughput (interactions per second), and the "
            "window-size histogram captured in the trace's metrics snapshot."
        ),
    )
    trace_parser.add_argument("file", help="trace file (JSONL) to summarize")
    trace_parser.add_argument(
        "--area",
        default=None,
        metavar="AREA",
        help=(
            "restrict the summary to one area: "
            "run, phases, trials, or windows (default: all)"
        ),
    )
    return parser


def _build_simulation(args):
    """Create (protocol, configuration) for the ``simulate`` subcommand."""
    from repro.core.fratricide import FratricideLeaderElection
    from repro.core.optimal_silent import OptimalSilentSSR
    from repro.core.propagate_reset import ResetWaveProtocol
    from repro.core.silent_n_state import SilentNStateSSR
    from repro.core.sublinear import SublinearTimeSSR
    from repro.engine.rng import make_rng

    rng = make_rng(args.seed)
    if args.protocol == "silent-n-state":
        protocol = SilentNStateSSR(args.n)
    elif args.protocol == "optimal-silent":
        protocol = OptimalSilentSSR(args.n, rmax_multiplier=4.0, dmax_factor=6.0, emax_factor=16.0)
    elif args.protocol == "sublinear":
        protocol = SublinearTimeSSR(args.n, depth=args.depth, rmax_multiplier=3.0)
    elif args.protocol == "reset-wave":
        protocol = ResetWaveProtocol(args.n)
    else:
        protocol = FratricideLeaderElection(args.n)
    if args.clean:
        configuration = protocol.initial_configuration(rng)
        start_mode = "clean"
    else:
        try:
            configuration = protocol.random_configuration(rng)
            start_mode = "adversarial"
        except NotImplementedError:
            # The protocol defines no adversarial sampler; report the clean
            # fallback honestly instead of labelling it adversarial.
            configuration = protocol.initial_configuration(rng)
            start_mode = "clean (protocol defines no adversarial states)"
    return protocol, configuration, rng, start_mode


#: Printed under a CompilationError from a table engine.
_COMPILE_HINT = (
    "hint: only protocols with an enumerable state space compile; try --engine loop"
)


def _simulate(args) -> int:
    from repro.core.problems import leaders_from_ranks
    from repro.engine.run_config import make_simulation

    protocol, configuration, rng, start_mode = _build_simulation(args)
    config = RunConfig(engine=args.engine, stop="stabilized")
    print(f"protocol:      {protocol.name}")
    print(f"population:    {protocol.n}")
    print(f"engine:        {config.engine}")
    print(f"start:         {start_mode}")
    print(f"correct at t=0: {protocol.is_correct(configuration)}")
    try:
        simulation = make_simulation(
            protocol, config, configuration=configuration, rng=rng
        )
    except CompilationError as error:
        print(f"error: {error}")
        print(_COMPILE_HINT)
        return 2
    result = simulation.run(config)
    print(f"stabilized:    {result.stopped}  ({result.reason})")
    print(f"parallel time: {result.parallel_time:.1f}   interactions: {result.interactions}")
    ranks = [getattr(state, "rank", None) for state in simulation.configuration]
    if all(rank is not None for rank in ranks):
        print(f"ranks:         {sorted(ranks)}")
        leaders = leaders_from_ranks(simulation.configuration)
        if leaders:
            print(f"leader:        agent #{leaders[0]} (rank 1)")
    return 0 if result.stopped else 1


def _print_result(result: ExperimentResult, markdown: bool) -> None:
    """Render one experiment result (same path for live runs and artifacts)."""
    title = result.title or result.identifier
    reference = f" ({result.paper_reference})" if result.paper_reference else ""
    print(f"== {result.identifier}: {title}{reference} ==")
    if markdown:
        print(rows_to_markdown(result.rows, columns=result.columns))
    else:
        print(format_table(result.rows, columns=result.columns))
    print(f"-- {len(result.rows)} rows in {result.wall_time:.1f}s --\n")


def _run_one(identifier: str, args, **overrides) -> None:
    import time as _time

    from repro.telemetry import tracing as _tracing

    spec = get_experiment(identifier)
    config = RunConfig(
        seed=args.seed if args.seed is not None else 0,
        engine=args.engine,
        jobs=args.jobs,
        trial_batch=getattr(args, "trial_batch", 1),
    )
    tracer = _tracing.current_tracer()
    experiment_started = _time.perf_counter()
    memo_dir = getattr(args, "resume", None) or getattr(args, "checkpoint", None)
    if memo_dir is None:
        result = spec.run(scale=args.scale, run=config, **overrides)
    else:
        # Checkpointed execution runs through the same resumable path the
        # serve workers use: finished trials are memoized under DIR, the
        # in-flight one is checkpointed, and the directory is pinned to the
        # payload digest so --resume refuses a mismatched run.  The artifact
        # is canonicalized (wall_time zeroed) so interrupted-and-resumed
        # runs produce byte-identical output.
        from repro.serve.cache import job_payload
        from repro.serve.worker import execute_payload

        directory = Path(memo_dir)
        if getattr(args, "resume", None) is not None and not (
            directory / "job.json"
        ).exists():
            raise ValueError(
                f"nothing to resume: no job checkpoint at {directory / 'job.json'} "
                "(record one first with 'repro run ... --checkpoint DIR')"
            )
        result = execute_payload(
            job_payload(identifier, args.scale, overrides, config), directory
        )
    if tracer is not None:
        tracer.emit(
            "experiment",
            experiment=identifier,
            scale=args.scale,
            engine=config.engine,
            rows=len(result.rows),
            dur=round(_time.perf_counter() - experiment_started, 6),
        )
    _print_result(result, args.markdown)
    if args.output is not None:
        path = result.save(Path(args.output) / f"{result.identifier}.json")
        print(f"-- artifact: {path}\n")


def _run_all(identifiers, args, **overrides) -> int:
    """Run each experiment, turning RunConfig rejections into clean errors.

    Unsupported combinations (e.g. ``--engine counts`` with an experiment
    that builds an epoch-partition scheduler) fail RunConfig validation
    before any seeding work; surface the message, not the traceback.  The
    same contract covers unknown identifiers, checkpoint-directory
    mismatches from ``--resume``, and protocols a table engine cannot
    compile.
    """
    if getattr(args, "checkpoint", None) or getattr(args, "resume", None):
        if getattr(args, "checkpoint", None) and getattr(args, "resume", None):
            print("error: --checkpoint and --resume are mutually exclusive")
            return 2
        if len(identifiers) != 1:
            print("error: --checkpoint/--resume require a single experiment, not 'all'")
            return 2
    for identifier in identifiers:
        try:
            _run_one(identifier, args, **overrides)
        except KeyError as error:
            message = error.args[0] if error.args else error
            print(f"error: {message}")
            return 2
        except ValueError as error:
            print(f"error: {identifier}: {error}")
            return 2
        except CompilationError as error:
            print(f"error: {identifier}: {error}")
            print(_COMPILE_HINT)
            return 2
    return 0


def _run_with_telemetry(identifiers, args, **overrides) -> int:
    """Run experiments, instrumenting when ``--trace``/``--profile`` ask.

    A plain run takes the uninstrumented `_run_all` path untouched.  An
    instrumented one enables the metrics registry (plus per-stage timing
    for ``--profile``) and installs a trace writer for the duration; the
    trace ends with a ``run`` span and a full metrics snapshot so ``repro
    trace`` can reconstruct throughput and window histograms offline.
    Neither mode touches engine RNG -- artifacts are byte-identical with
    telemetry on or off (test-gated).
    """
    import time as _time

    from repro.telemetry import metrics as _metrics
    from repro.telemetry import tracing as _tracing

    trace_path = getattr(args, "trace", None)
    profile = bool(getattr(args, "profile", False))
    if trace_path is None and not profile:
        return _run_all(identifiers, args, **overrides)
    _metrics.reset_registry()
    with _metrics.telemetry_session(profile=profile):
        tracer = previous = None
        if trace_path is not None:
            tracer = _tracing.TraceWriter(trace_path)
            previous = _tracing.set_tracer(tracer)
        started = _time.perf_counter()
        try:
            exit_code = _run_all(identifiers, args, **overrides)
            snapshot = _metrics.registry().snapshot()
            if tracer is not None:
                tracer.emit(
                    "run",
                    experiments=list(identifiers),
                    exit_code=exit_code,
                    dur=round(_time.perf_counter() - started, 6),
                )
                tracer.emit("metrics", snapshot=snapshot)
        finally:
            if tracer is not None:
                _tracing.set_tracer(previous)
                tracer.close()
        if profile:
            from repro.experiments.report import format_table as _format_table

            print(
                _format_table(
                    _metrics.stage_breakdown(snapshot),
                    columns=["engine", "stage", "seconds"],
                    title="stage breakdown (wall seconds at check cadence)",
                )
            )
        if tracer is not None:
            print(f"-- trace: {trace_path} ({tracer.records_written} records)\n")
    return exit_code


def _trace(args) -> int:
    """``repro trace FILE``: summarize a JSONL trace offline."""
    from repro.analysis.trace_summary import render_trace_summary, summarize_trace
    from repro.telemetry.tracing import TraceError, read_trace

    try:
        records = read_trace(args.file)
        summary = summarize_trace(records)
        report = render_trace_summary(summary, area=args.area)
    except (TraceError, OSError) as error:
        print(f"error: {error}")
        return 2
    try:
        print(report)
    except BrokenPipeError:
        # Downstream consumer (e.g. ``| grep -q``) closed the pipe early;
        # the summary was computed fine, so don't turn that into a failure.
        # Point stdout at devnull so the interpreter's shutdown flush
        # doesn't re-raise and print a spurious traceback.
        import os as _os

        _os.dup2(_os.open(_os.devnull, _os.O_WRONLY), sys.stdout.fileno())
    return 0


def _stress(args) -> int:
    if args.experiment == "all":
        identifiers = list(BYZANTINE_EXPERIMENTS if args.byzantine else STRESS_EXPERIMENTS)
    else:
        if args.byzantine and args.experiment not in BYZANTINE_EXPERIMENTS:
            print(
                f"error: {args.experiment!r} is not a Byzantine experiment; "
                f"--byzantine selects {', '.join(BYZANTINE_EXPERIMENTS)}"
            )
            return 2
        identifiers = [args.experiment]
    overrides = {}
    if args.n is not None:
        overrides["n"] = args.n
    if args.trials is not None:
        overrides["trials"] = args.trials
    return _run_all(identifiers, args, **overrides)


def _report(args) -> int:
    results: List[ExperimentResult] = []
    for entry in args.artifacts:
        results.extend(load_artifacts(entry))
    for result in results:
        _print_result(result, args.markdown)
    return 0


# -- serve subsystem commands (see docs/ARCHITECTURE.md, "serve subsystem") ----------


def _serve(args) -> int:
    from repro.serve.server import ReproServer

    server = ReproServer(
        args.queue,
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_retries=args.max_retries,
    )
    server.start()
    print(f"serving at {server.url}  (queue: {args.queue}, workers: {args.workers})")
    print("submit with: repro submit <experiment> --url " + server.url)
    try:
        server.serve_forever(already_started=True)
    finally:
        server.stop()
    return 0


def _client_call(method: str, url: str, base_url: str, payload=None):
    """One HTTP exchange, with unreachable-server turned into a clean error."""
    from urllib.error import URLError

    from repro.serve.server import http_json

    try:
        return http_json(method, url, payload)
    except URLError as error:
        reason = getattr(error, "reason", error)
        raise ValueError(
            f"cannot reach server at {base_url}: {reason} "
            "(is 'repro serve' running?)"
        ) from None


def _parse_param_overrides(pairs: List[str]) -> dict:
    """``KEY=VALUE`` pairs to experiment params; VALUE is JSON when possible."""
    import json as _json

    params = {}
    for pair in pairs:
        key, separator, value = pair.partition("=")
        if not separator or not key:
            raise ValueError(f"malformed --param {pair!r}; expected KEY=VALUE")
        try:
            params[key] = _json.loads(value)
        except _json.JSONDecodeError:
            params[key] = value
    return params


def _submit(args) -> int:
    from repro.serve.cache import job_payload

    config = RunConfig(
        seed=args.seed,
        engine=args.engine,
        jobs=args.jobs,
        trial_batch=args.trial_batch,
    )
    try:
        payload = job_payload(
            args.experiment, args.scale, _parse_param_overrides(args.param), config
        )
        status, body = _client_call("POST", f"{args.url}/jobs", args.url, payload)
    except ValueError as error:
        print(f"error: {error}")
        return 2
    if status != 200:
        message = body.get("error", body) if isinstance(body, dict) else body
        print(f"error: {message}")
        return 2
    cached = "  (artifact already cached)" if body.get("cached") else ""
    print(f"job:    {body['job_id']}{cached}")
    print(f"digest: {body['digest']}")
    print(f"state:  {body['state']}")
    print(f"fetch with: repro fetch {body['job_id']} --url {args.url}")
    return 0


def _jobs(args) -> int:
    if args.job_id is not None:
        try:
            status, body = _client_call(
                "GET", f"{args.url}/jobs/{args.job_id}", args.url
            )
        except ValueError as error:
            print(f"error: {error}")
            return 2
        if status != 200:
            message = body.get("error", body) if isinstance(body, dict) else body
            print(f"error: {message}")
            return 2
        progress = body.get("progress", {})
        print(f"job:     {body['job_id']}")
        print(f"state:   {body['state']}  (retries: {body['retries']})")
        print(f"digest:  {body['digest']}")
        print(f"cached:  {body['cached']}")
        print(
            f"trials:  {progress.get('trials_done', 0)} done, "
            f"{progress.get('inflight', 0)} in flight"
        )
        if body.get("error"):
            print(f"error:   {body['error']}")
        return 0
    try:
        status, body = _client_call("GET", f"{args.url}/jobs", args.url)
    except ValueError as error:
        print(f"error: {error}")
        return 2
    jobs = body.get("jobs", [])
    depths = body.get("depths")
    stale = set(body.get("stale") or [])
    if depths:
        print(
            "queue:  "
            + "  ".join(f"{state}={depths.get(state, 0)}" for state in depths)
        )
    if not jobs:
        print("no jobs")
        return 0
    rows = [
        {
            "job": record["job_id"],
            "experiment": record["payload"]["experiment"],
            "state": record["state"]
            + (" (stale)" if record["job_id"] in stale else ""),
            "retries": record["retries"],
            "cached": record["cached"],
            "error": record.get("error") or "",
        }
        for record in jobs
    ]
    print(format_table(rows, columns=list(rows[0])))
    if stale:
        print(
            f"warning: {len(stale)} running job(s) have a dead worker pid "
            f"({', '.join(sorted(stale))}); the next worker claim requeues them"
        )
    return 0


def _fetch(args) -> int:
    from repro.serve.server import http_get_bytes

    from urllib.error import URLError

    try:
        status, payload = http_get_bytes(f"{args.url}/jobs/{args.job_id}/artifact")
    except URLError as error:
        reason = getattr(error, "reason", error)
        print(
            f"error: cannot reach server at {args.url}: {reason} "
            "(is 'repro serve' running?)"
        )
        return 2
    if status != 200:
        import json as _json

        try:
            message = _json.loads(payload).get("error", payload.decode("utf-8"))
        except (ValueError, AttributeError):
            message = payload.decode("utf-8", "replace")
        print(f"error: {message}")
        return 2
    if args.output is not None:
        path = Path(args.output)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(payload)
        print(f"-- artifact: {path} ({len(payload)} bytes)")
        return 0
    _print_result(ExperimentResult.from_json(payload.decode("utf-8")), args.markdown)
    return 0


def _bench_report(args) -> int:
    from repro.experiments.bench_report import REPO_ROOT, render_bench_report

    try:
        report = render_bench_report(
            areas=args.area,
            root=args.root if args.root is not None else REPO_ROOT,
            markdown=args.markdown,
        )
    except ValueError as error:
        print(f"error: {error}")
        return 2
    print(report, end="")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``python -m repro`` and the ``repro`` console script."""
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.command == "list":
        for identifier in list_experiments():
            spec = get_experiment(identifier)
            print(f"{identifier:28s} {spec.title}  [{spec.paper_reference}]")
        return 0

    if args.command == "run":
        identifiers = list_experiments() if args.experiment == "all" else [args.experiment]
        return _run_with_telemetry(identifiers, args)

    if args.command == "stress":
        return _stress(args)

    if args.command == "report":
        return _report(args)

    if args.command == "simulate":
        return _simulate(args)

    if args.command == "serve":
        return _serve(args)

    if args.command == "submit":
        return _submit(args)

    if args.command == "jobs":
        return _jobs(args)

    if args.command == "fetch":
        return _fetch(args)

    if args.command == "bench":
        return _bench_report(args)

    if args.command == "trace":
        return _trace(args)

    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
