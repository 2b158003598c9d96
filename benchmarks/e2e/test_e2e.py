"""Smoke test of the end-to-end benchmark at tiny sizes.

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e.py -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import tracing
import workloads

#: Each workload shrunk to a few small formulas (same code paths).
TINY = {
    "table1": dict(suite=(("adder", 1.0, 1), ("c432", 1.0, 1))),
    "wide": dict(suite=(("pec_xor", 2.0, 1), ("bitcell", 2.0, 1))),
    "serve-repeat": dict(suite=(("bitcell", 1.0, 2), ("pec_xor", 1.0, 1)), requests=12),
    "serve-unique": dict(suite=(("adder", 0.8, 1), ("bitcell", 0.8, 1), ("comp", 0.8, 1))),
}


def declared():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


def test_benchmark_json_declares_what_the_code_reports():
    spec = declared()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(workloads.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(workloads.PER_LAYER)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_reports_every_metric_and_right_verdicts(name, tmp_path):
    spec = declared()
    workload = dataclasses.replace(workloads.WORKLOADS[name], **TINY[name])
    plain = workloads.run_workload(workload, 7, 0.0, False, str(tmp_path), min_passes=1)
    traced = workloads.run_workload(workload, 7, 0.0, True, str(tmp_path), min_passes=1)

    for result, metrics in ((plain, spec["end_to_end"]), (traced, spec["per_layer"])):
        assert result.correct and result.wrong == []
        assert result.attempted > 0 and result.failed == 0
        lines = run.metric_lines(result)
        assert [line.split()[1] for line in lines] == [m["name"] for m in metrics]
        assert [line.split()[3] for line in lines] == [m["unit"] for m in metrics]
        for line in lines:
            float(line.split()[2])
        last = json.loads(run.summary_line([result]))
        assert {k: v["unit"] for k, v in last["metrics"].items()} == {
            m["name"]: m["unit"] for m in metrics}

    payload = json.loads(json.dumps(run.spans_payload([traced])))
    assert set(payload[name]["metrics"]) == {m["name"] for m in spec["per_layer"]}
    layers = payload[name]["passes"][0]["layers"]
    assert ("hqs" if workload.kind == "batch" else "cache.lookup") in layers
    assert payload[name]["passes"][0]["spans"]


def test_layer_table_self_time_excludes_children():
    records = [
        ["hqs", 0.0, 10.0, -1, "a"],
        ["qbf", 1.0, 9.0, 0, "a"],
        ["aig.cofactor2", 2.0, 5.0, 1, "a"],
        ["gc", 6.0, 7.0, 1, "a"],
        ["qbf", 7.5, 8.0, 1, "a"],  # re-entered: inclusive time counted once
    ]
    table = tracing.layer_table([records])
    assert table["hqs"]["self_s"] == pytest.approx(2.0)
    assert table["qbf"]["self_s"] == pytest.approx(3.5 + 0.5)
    assert table["qbf"]["total_s"] == pytest.approx(8.0)
    assert table["aig.cofactor2"]["self_s"] == pytest.approx(3.0)
    assert sum(row["self_s"] for row in table.values()) == pytest.approx(10.0)


def test_tracer_restores_wrapped_names():
    from repro.aig.graph import Aig
    from repro.core import hqs

    before = (hqs.preprocess, Aig.cofactor2)
    tracer = tracing.Tracer()
    tracer.install(tracing.SOLVER_LAYERS)
    assert hqs.preprocess is not before[0]
    tracer.uninstall()
    assert (hqs.preprocess, Aig.cofactor2) == before


def test_fails_without_the_solver_sources(tmp_path):
    """A checkout holding only BENCHMARK.json and the benchmark exits non-zero."""
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.dirname(os.path.abspath(run.__file__)),
                    tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "table1", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
