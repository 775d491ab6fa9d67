"""One workload in its own process.

``python -m perfbench.child <workload> --seed <n> --output <dir> [--trace <file>]``

Without ``--trace`` this is the untraced run of the workloads that have no
CLI form.  With ``--trace`` it runs any workload with spans around each
layer (see :mod:`perfbench.hooks`) and writes the spans, counts and the
time ``import repro`` took to ``<file>`` when the workload ends.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import List, Optional

from perfbench.workloads import WORKLOADS


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.child")
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--output", type=Path, required=True)
    parser.add_argument("--trace", type=Path, default=None)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    # Every workload imports what `python -m repro` imports, so import.s
    # times the same modules whichever way the workload runs.
    began = time.perf_counter()
    from repro.cli import main as repro_main
    from repro.experiments.registry import run_experiment

    import_s = time.perf_counter() - began
    tracer = installed = None
    if args.trace is not None:
        from perfbench.hooks import install
        from perfbench.spans import Tracer

        tracer = Tracer()
        installed = install(tracer)

    if workload.cli:
        code = repro_main([*workload.cli, "--seed", str(args.seed), "--output", str(args.output)])
    else:
        result = run_experiment(
            workload.experiment, "full", seed=args.seed, **workload.run, **workload.params
        )
        result.save(workload.artifact(args.output))
        code = 0

    if tracer is not None:
        from perfbench.hooks import summarize

        payload = summarize(tracer, installed)
        payload["import_s"] = import_s
        args.trace.write_text(json.dumps(payload), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
