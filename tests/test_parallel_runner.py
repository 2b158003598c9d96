"""Fault-injection and regression tests for the parallel experiment runner.

Covers the hard-timeout kill path (a solver that sleeps past its
budget), crash containment (a solver that raises, a worker that dies
without reporting), JSONL persistence with resume, portfolio racing,
and the resource-limit bugfixes (``Limits.child`` double-budget,
``MISMATCH`` recording, ``REPRO_BENCH_SEED``).

The injected solvers are module-level functions: workers are forked, so
entries added to ``runner.SOLVERS`` at test time are inherited.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import pytest

from repro.core.result import (
    ERROR,
    MISMATCH,
    SAT,
    TIMEOUT,
    UNKNOWN,
    UNSAT,
    Limits,
    SolveResult,
)
from repro.durable import ResultLog
from repro.experiments import parallel, runner
from repro.experiments.parallel import (
    portfolio_label,
    record_to_entry,
    run_portfolio,
    run_records,
    run_suite_parallel,
)
from repro.experiments.runner import BenchConfig, run_solver, run_suite
from repro.pec.families import generate_family, make_adder


def _sleepy_solver(formula, limits):
    """Ignores every cooperative check — only a hard kill stops it."""
    time.sleep(60.0)
    return SolveResult(UNKNOWN)


def _crashy_solver(formula, limits):
    raise RuntimeError("injected solver crash")


def _dying_solver(formula, limits):
    os._exit(7)  # worker vanishes without reporting back


def _wrong_solver(formula, limits):
    return SolveResult(SAT, 0.001)  # definitive and wrong on buggy instances


INJECTED = {
    "SLEEPY": _sleepy_solver,
    "CRASHY": _crashy_solver,
    "DYING": _dying_solver,
    "WRONG": _wrong_solver,
}


@pytest.fixture(autouse=True)
def injected_solvers():
    runner.SOLVERS.update(INJECTED)
    yield
    for name in INJECTED:
        runner.SOLVERS.pop(name, None)


def tiny_config(**overrides) -> BenchConfig:
    defaults = dict(scale=1.0, count=2, timeout=10.0, node_limit=200000, seed=7)
    defaults.update(overrides)
    return BenchConfig(**defaults)


@pytest.fixture
def unsat_instance():
    return make_adder(3, 1, buggy=True, seed=1)


def keyset(records):
    return {(r.instance.name, r.solver, r.result.status) for r in records}


class TestLimitsChild:
    def test_remaining_counts_down(self):
        limits = Limits(time_limit=10.0)
        assert 9.0 < limits.remaining() <= 10.0
        assert Limits(time_limit=None).remaining() is None

    def test_remaining_never_negative(self):
        limits = Limits(time_limit=0.001)
        time.sleep(0.01)
        assert limits.remaining() == 0.0

    def test_child_inherits_remaining_budget(self):
        limits = Limits(time_limit=10.0, node_limit=500)
        time.sleep(0.02)
        child = limits.child()
        assert child.time_limit < 10.0
        assert child.node_limit == 500
        # the child's clock is fresh: restart_clock on it cannot extend
        # the budget past the parent's remaining time
        assert child.time_limit <= limits.time_limit - 0.02 + 0.005

    def test_child_caps_explicit_request(self):
        limits = Limits(time_limit=0.05)
        time.sleep(0.06)
        child = limits.child(time_limit=60.0)
        assert child.time_limit == 0.0  # exhausted parent grants nothing

    def test_child_unlimited_parent(self):
        child = Limits().child(time_limit=3.0, node_limit=9)
        assert child.time_limit == 3.0 and child.node_limit == 9

    def test_certificate_gets_child_budget(self, tmp_path, monkeypatch):
        """Regression: `--certificate` used to re-run on the consumed Limits,
        doubling the wall-clock budget via the second solve's restart_clock."""
        from repro import cli
        from repro.core import skolem
        from repro.formula.dqdimacs import save_dqdimacs

        instance = make_adder(3, 1, buggy=False, seed=2)
        path = tmp_path / "sat.dqdimacs"
        save_dqdimacs(instance.formula, str(path))

        captured = {}
        real_extract = skolem.extract_certificate

        def spying_extract(formula, limits=None):
            captured["limits"] = limits
            return real_extract(formula, limits)

        monkeypatch.setattr(skolem, "extract_certificate", spying_extract)
        code = cli.main(["--timeout", "60", "--certificate", str(path)])
        assert code == cli.EXIT_SAT
        handed = captured["limits"]
        # the main solve consumed part of the 60 s, so the extraction
        # budget must be strictly smaller — not a fresh 60 s
        assert handed.time_limit is not None
        assert 0.0 < handed.time_limit < 60.0


class TestMismatchRecording:
    def test_serial_records_mismatch(self, unsat_instance):
        unsat_instance.expected = True  # sabotage: the adder bug is UNSAT
        record = run_solver("HQS", unsat_instance, tiny_config())
        assert record.result.status == MISMATCH
        assert not record.solved
        assert record.result.stats["claimed_sat"] == 0.0

    def test_wrong_definitive_answer_is_mismatch(self, unsat_instance):
        record = run_solver("WRONG", unsat_instance, tiny_config())
        assert record.result.status == MISMATCH
        assert record.result.stats["claimed_sat"] == 1.0

    def test_sweep_survives_mismatch(self, unsat_instance):
        config = tiny_config(count=1)
        records = run_records([unsat_instance], ("WRONG", "HQS"), config, jobs=2)
        statuses = {r.solver: r.result.status for r in records}
        assert statuses == {"WRONG": MISMATCH, "HQS": UNSAT}


class TestPoolFaultTolerance:
    def test_parallel_matches_serial(self):
        config = tiny_config()
        serial = run_suite(config, solvers=("HQS", "IDQ"), families=("adder", "pec_xor"))
        parallel = run_suite(
            config, solvers=("HQS", "IDQ"), families=("adder", "pec_xor"), jobs=3
        )
        assert keyset(serial) == keyset(parallel)
        # deterministic output order: family, instance, solver
        assert [(r.instance.name, r.solver) for r in serial] == [
            (r.instance.name, r.solver) for r in parallel
        ]

    def test_hanging_solver_is_hard_killed(self, unsat_instance):
        config = tiny_config(count=1, timeout=0.5)
        start = time.monotonic()
        records = run_records(
            [unsat_instance], ("SLEEPY", "HQS"), config, jobs=2, grace=0.5
        )
        elapsed = time.monotonic() - start
        by_solver = {r.solver: r for r in records}
        assert by_solver["SLEEPY"].result.status == TIMEOUT
        assert by_solver["SLEEPY"].result.stats["hard_timeout"] == 1.0
        assert by_solver["HQS"].result.status == UNSAT
        assert elapsed < 30.0  # nowhere near the injected 60 s sleep

    def test_crashing_solver_is_contained(self, unsat_instance):
        config = tiny_config(count=1)
        records = run_records([unsat_instance], ("CRASHY", "HQS"), config, jobs=2)
        by_solver = {r.solver: r for r in records}
        assert by_solver["CRASHY"].result.status == ERROR
        assert "injected solver crash" in by_solver["CRASHY"].error
        assert by_solver["HQS"].result.status == UNSAT

    def test_dying_worker_is_contained(self, unsat_instance):
        config = tiny_config(count=1)
        records = run_records([unsat_instance], ("DYING", "HQS"), config, jobs=2)
        by_solver = {r.solver: r for r in records}
        assert by_solver["DYING"].result.status == ERROR
        assert by_solver["DYING"].result.stats["exitcode"] == 7.0
        assert by_solver["HQS"].result.status == UNSAT

    def test_jobs_must_be_positive(self, unsat_instance):
        with pytest.raises(ValueError):
            run_records([unsat_instance], ("HQS",), tiny_config(), jobs=0)


class TestResultLogResume:
    def test_runner_reexports_the_durable_class(self):
        # One class object: patching ``parallel.ResultLog.append`` must
        # reach the service's log too.
        assert parallel.ResultLog is ResultLog

    def test_roundtrip(self, tmp_path, unsat_instance):
        path = str(tmp_path / "results.jsonl")
        config = tiny_config(count=1)
        with ResultLog(path) as log:
            run_records([unsat_instance], ("HQS",), config, jobs=1, log=log)
        entries = ResultLog(path).load()
        assert (unsat_instance.name, "HQS") in entries
        assert entries[(unsat_instance.name, "HQS")]["status"] == UNSAT

    def test_truncated_line_is_skipped(self, tmp_path, unsat_instance):
        path = tmp_path / "results.jsonl"
        record = run_solver("HQS", unsat_instance, tiny_config())
        good = json.dumps(record_to_entry(record))
        path.write_text(good + "\n" + good[: len(good) // 2])  # killed mid-write
        entries = ResultLog(str(path)).load()
        assert list(entries) == [(unsat_instance.name, "HQS")]

    def test_append_survives_sigkill(self, tmp_path):
        """Every acknowledged append is on disk even if the process is
        SIGKILLed right after: append flushes *and* fsyncs each line."""
        path = tmp_path / "killed.jsonl"
        script = (
            "import os, sys\n"
            "from repro.durable import ResultLog\n"
            "log = ResultLog(sys.argv[1])\n"
            "for i in range(5):\n"
            "    log.append({'instance': f'i{i}', 'solver': 'HQS',\n"
            "                'status': 'UNSAT', 'runtime': 0.0})\n"
            "print('APPENDED', flush=True)\n"
            "import time; time.sleep(30)\n"  # killed here, handle never closed
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            os.path.join(os.path.dirname(__file__), "..", "src")
            + os.pathsep + env.get("PYTHONPATH", "")
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", script, str(path)],
            stdout=subprocess.PIPE, text=True, env=env,
        )
        try:
            assert proc.stdout.readline().strip() == "APPENDED"
            proc.kill()  # SIGKILL: no atexit, no flush, no close
        finally:
            proc.wait(timeout=10)
            proc.stdout.close()
        entries = ResultLog(str(path)).load()
        assert sorted(entries) == [(f"i{i}", "HQS") for i in range(5)]

    def test_resume_skips_recorded_pairs(self, tmp_path):
        """A pair in the log is *not* re-run: its (fabricated) logged status
        is returned verbatim, and only the missing pairs are solved."""
        config = tiny_config(count=2, seed=7)
        instances = generate_family("adder", 2, scale=1.0, seed=7)
        path = tmp_path / "results.jsonl"
        fake = {
            "instance": instances[0].name,
            "family": "adder",
            "solver": "HQS",
            "status": "MEMOUT",  # deliberately wrong: detects a re-run
            "runtime": 123.0,
            "stats": {},
        }
        path.write_text(json.dumps(fake) + "\n")
        records = run_suite_parallel(
            config,
            solvers=("HQS",),
            families=("adder",),
            jobs=2,
            log_path=str(path),
            resume=True,
        )
        by_name = {r.instance.name: r for r in records}
        assert by_name[instances[0].name].result.status == "MEMOUT"
        assert by_name[instances[0].name].result.runtime == 123.0
        assert by_name[instances[1].name].result.status in (SAT, UNSAT)
        # the log now holds exactly one line per pair — no duplicates
        lines = [l for l in path.read_text().splitlines() if l.strip()]
        assert len(lines) == 2

    def test_fresh_run_then_resume_runs_nothing(self, tmp_path):
        config = tiny_config(count=2, seed=7)
        path = str(tmp_path / "results.jsonl")
        first = run_suite_parallel(
            config, solvers=("HQS",), families=("adder",), jobs=2,
            log_path=path, resume=False,
        )
        size_after_first = os.path.getsize(path)
        second = run_suite_parallel(
            config, solvers=("HQS",), families=("adder",), jobs=2,
            log_path=path, resume=True,
        )
        assert keyset(first) == keyset(second)
        assert os.path.getsize(path) == size_after_first  # nothing re-appended


class TestPortfolio:
    def test_fast_leg_wins_and_losers_cancelled(self, unsat_instance):
        config = tiny_config(count=1, timeout=20.0)
        start = time.monotonic()
        record = run_portfolio(unsat_instance, ("SLEEPY", "HQS"), config)
        elapsed = time.monotonic() - start
        assert record.result.status == UNSAT
        assert record.winner == "HQS"
        assert record.solver == portfolio_label(("SLEEPY", "HQS"))
        assert record.result.stats["portfolio_winner"] == 1.0
        assert elapsed < 15.0  # the sleeper was cancelled, not awaited

    def test_all_losers_report_most_informative_status(self, unsat_instance):
        config = tiny_config(count=1, timeout=0.3)
        record = run_portfolio(
            unsat_instance, ("SLEEPY", "CRASHY"), config, grace=0.3
        )
        # TIMEOUT ranks above ERROR in the loss order
        assert record.result.status == TIMEOUT

    def test_suite_portfolio_records(self):
        config = tiny_config(count=1)
        records = run_suite_parallel(
            config, solvers=("HQS", "IDQ"), families=("adder",),
            jobs=2, portfolio=True,
        )
        assert len(records) == 1
        assert records[0].solver == portfolio_label(("HQS", "IDQ"))
        assert records[0].result.status in (SAT, UNSAT)


class TestSeedKnobs:
    def test_bench_seed_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SEED", "4242")
        monkeypatch.setenv("REPRO_BENCH_JOBS", "3")
        config = BenchConfig()
        assert config.seed == 4242
        assert config.jobs == 3

    def test_seed_kwarg_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SEED", "4242")
        assert BenchConfig(seed=1).seed == 1

    def test_family_hash_is_process_stable(self):
        """Sharded workers must regenerate identical suites: the family
        stream may not depend on the per-process str hash randomization."""
        script = (
            "from repro.pec.families import generate_family;"
            "print([i.name for i in generate_family('adder', 3, seed=11)])"
        )
        names = set()
        for hashseed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hashseed)
            env["PYTHONPATH"] = (
                os.path.join(os.path.dirname(__file__), "..", "src")
                + os.pathsep + env.get("PYTHONPATH", "")
            )
            out = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, env=env, check=True,
            )
            names.add(out.stdout.strip())
        assert len(names) == 1, f"suite depends on PYTHONHASHSEED: {names}"


class TestBenchCli:
    def test_bench_main_parallel_smoke(self, tmp_path, capsys):
        from repro.cli import bench_main

        path = str(tmp_path / "log.jsonl")
        code = bench_main([
            "--jobs", "2", "--families", "adder", "--count", "1",
            "--timeout", "10", "--solvers", "HQS,IDQ", "--log", path, "--table",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "records 2" in out
        assert "family" in out  # Table I header printed
        assert len(ResultLog(path).load()) == 2

    def test_bench_main_resume_requires_log(self, capsys):
        from repro.cli import bench_main

        assert bench_main(["--resume"]) == 2
