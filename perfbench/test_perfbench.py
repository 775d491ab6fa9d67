"""Fast tests of the benchmark's own code (no workload is run here)."""

from __future__ import annotations

import copy
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.run import END_TO_END, PER_LAYER
from perfbench.spans import Tracer, self_times
from perfbench.workloads import DEFAULT_SEED, WORKLOADS, check_rows, reference_path

ROOT = Path(__file__).resolve().parent.parent
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


class FakeClock:
    def __init__(self, readings):
        self.readings = iter(readings)

    def __call__(self):
        return next(self.readings)


def test_self_time_subtracts_direct_children_only():
    # harness [0, 10] > compile [1, 4], engine [4, 9] > draw [5, 7] > draw [5.5, 6]
    tracer = Tracer(clock=FakeClock([0, 1, 4, 4, 5, 5.5, 6, 7, 9, 10]))
    tracer.open("harness")
    tracer.open("compile")
    tracer.close("compile")
    tracer.open("engine")
    tracer.open("draw")
    tracer.open("draw")
    tracer.close("draw")
    tracer.close("draw")
    tracer.close("engine")
    tracer.close("harness")
    trace = tracer.to_dict()
    selves = self_times(trace["layers"], trace["spans"])
    assert selves == pytest.approx({"harness": 2.0, "compile": 3.0, "engine": 3.0, "draw": 2.0})
    assert sum(selves.values()) == pytest.approx(10.0)
    # The nested draw is one outermost call.
    assert trace["counts"] == {"harness.calls": 1, "compile.calls": 1, "engine.calls": 1,
                               "draw.calls": 1}


def test_open_spans_cannot_be_written_out():
    tracer = Tracer()
    tracer.open("engine")
    with pytest.raises(RuntimeError):
        tracer.to_dict()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_reference_rows_pass_and_a_tampered_row_fails(name):
    workload = WORKLOADS[name]
    rows = json.loads(reference_path(workload).read_text(encoding="utf-8"))
    assert check_rows(workload, DEFAULT_SEED, rows, first=rows) == []

    tampered = copy.deepcopy(rows)
    numeric = [key for key, value in tampered[-1].items()
               if isinstance(value, (int, float)) and not isinstance(value, bool)]
    tampered[-1][numeric[-1]] += 1
    assert check_rows(workload, DEFAULT_SEED, tampered, first=None)
    assert check_rows(workload, DEFAULT_SEED + 1, tampered, first=rows)


def test_invariants_reject_unrecovered_and_capped_rows():
    stress = json.loads(reference_path(WORKLOADS["stress-compile"]).read_text(encoding="utf-8"))
    stress[0]["recovered fraction"] = 0.75
    assert WORKLOADS["stress-compile"].invariant(stress)

    epidemic = json.loads(reference_path(WORKLOADS["epidemic-batched"]).read_text(encoding="utf-8"))
    epidemic[0]["max parallel time"] = 40.0 * epidemic[0]["n"] ** 2
    assert WORKLOADS["epidemic-batched"].invariant(epidemic)


def test_metric_names_are_well_formed_and_match_the_benchmark_file():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {
        section: {metric["name"]: metric["unit"] for metric in benchmark[section]}
        for section in ("end_to_end", "per_layer")
    }
    assert declared == {"end_to_end": END_TO_END, "per_layer": PER_LAYER}
    for name in [*END_TO_END, *PER_LAYER, *(w["name"] for w in benchmark["workloads"])]:
        assert METRIC_NAME.fullmatch(name) and len(name) <= 64, name
    assert [w["name"] for w in benchmark["workloads"]] == list(WORKLOADS)


def test_hooks_cover_every_layer_and_count_what_the_artifact_reports(tmp_path):
    """A small traced experiment in a child process (hooks patch ``repro`` globally)."""
    script = f"""
import json
from repro.experiments.registry import run_experiment
from perfbench.hooks import install, summarize
from perfbench.spans import Tracer
tracer = Tracer()
installed = install(tracer)
result = run_experiment("epidemic_convergence", "quick", seed=3, engine="compiled",
                        trial_batch=4, ns=(256,), trials=4)
result.save({str(tmp_path / "artifact.json")!r})
print(json.dumps({{"trace": summarize(tracer, installed), "rows": result.rows}}))
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    completed = subprocess.run([sys.executable, "-c", script], env=env, cwd=ROOT,
                               capture_output=True, text=True, check=True, timeout=120)
    payload = json.loads(completed.stdout.strip().splitlines()[-1])
    trace, rows = payload["trace"], payload["rows"]
    assert trace["missing_hooks"] == []
    counts = trace["counts"]
    assert counts["engine.trial_batch.interactions"] == rows[0]["total interactions"]
    assert counts["engine.trial_batch.trials"] == counts["experiments.harness.trials"] == 4
    assert counts["engine.compiled.compile.calls"] == counts["engine.compiled.compile.distinct"] == 1
    assert counts["experiments.result.bytes"] == (tmp_path / "artifact.json").stat().st_size
    layers = set(trace["layers"])
    assert {"engine.trial_batch.run", "engine.scheduler.draw", "core.stop_check",
            "experiments.harness", "experiments.result.save"} <= layers
