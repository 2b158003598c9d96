"""Tests for the ``hqs-lint`` static invariant analyzer (repro.analysis).

Each rule is exercised on small synthetic snippets — a positive case,
a suppressed case and (where the rule has one) an allowlisted case —
plus a whole-tree test asserting ``hqs-lint src`` matches the committed
baseline exactly, so both new violations and stale baseline entries
fail the suite.
"""

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import LintConfig, analyze_sources
from repro.analysis.baseline import load_baseline, split_by_baseline, write_baseline
from repro.analysis.cli import main as lint_main
from repro.analysis.config import load_config
from repro.analysis.framework import Finding, SourceFile

REPO_ROOT = Path(__file__).resolve().parents[1]


def make_source(tmp_path, text, module="repro.core.synthetic", name="synthetic.py"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text), encoding="utf-8")
    return SourceFile(path, module=module)


def run_rules(sources, config=None, codes=None):
    findings = analyze_sources(
        sources if isinstance(sources, list) else [sources], config
    )
    if codes is not None:
        findings = [f for f in findings if f.code in codes]
    return findings


# ----------------------------------------------------------------------
# RPR001 guard threading
# ----------------------------------------------------------------------

class TestGuardThreading:
    def test_unbounded_while_true_flagged(self, tmp_path):
        src = make_source(tmp_path, """
            def fixpoint(work):
                while True:
                    if not work.step():
                        return work
        """)
        findings = run_rules(src, codes={"RPR001"})
        assert len(findings) == 1
        assert "unbounded" in findings[0].message
        assert findings[0].symbol == "fixpoint"

    def test_guard_check_satisfies(self, tmp_path):
        src = make_source(tmp_path, """
            def fixpoint(work, guard):
                while True:
                    guard.check()
                    if not work.step():
                        return work
        """)
        assert run_rules(src, codes={"RPR001"}) == []

    def test_deadline_comparison_satisfies(self, tmp_path):
        src = make_source(tmp_path, """
            import time
            def sweep(work, deadline):
                while True:
                    if deadline is not None and time.monotonic() > deadline:
                        break
                    work.step()
        """)
        assert run_rules(src, codes={"RPR001"}) == []

    def test_worklist_consumer_exempt(self, tmp_path):
        src = make_source(tmp_path, """
            def traverse(stack):
                seen = set()
                while stack:
                    node = stack.pop()
                    seen.add(node)
                return seen
        """)
        assert run_rules(src, codes={"RPR001"}) == []

    def test_effectively_constant_flag_flagged(self, tmp_path):
        src = make_source(tmp_path, """
            def spin(work, enabled):
                while enabled:
                    work.step()
        """)
        assert len(run_rules(src, codes={"RPR001"})) == 1

    def test_reassigned_flag_not_flagged(self, tmp_path):
        src = make_source(tmp_path, """
            def converge(work):
                changed = True
                while changed:
                    changed = work.step()
        """)
        assert run_rules(src, codes={"RPR001"}) == []

    def test_suppression_comment(self, tmp_path):
        src = make_source(tmp_path, """
            def fixpoint(work):
                while True:  # hqs-lint: disable=RPR001
                    if not work.step():
                        return work
        """)
        assert run_rules(src, codes={"RPR001"}) == []

    def test_allowlist_by_qualname(self, tmp_path):
        src = make_source(tmp_path, """
            def bounded_by_construction(trail):
                while True:
                    if trail.back():
                        return
        """)
        config = LintConfig(
            {"rpr001": {"allow": ["repro.core.synthetic::bounded_by_construction"]}}
        )
        assert run_rules(src, config, codes={"RPR001"}) == []

    def test_outside_packages_not_flagged(self, tmp_path):
        src = make_source(tmp_path, """
            def fixpoint(work):
                while True:
                    if not work.step():
                        return work
        """, module="repro.experiments.synthetic")
        assert run_rules(src, codes={"RPR001"}) == []


# ----------------------------------------------------------------------
# RPR002 clock hygiene
# ----------------------------------------------------------------------

class TestClockHygiene:
    def test_time_time_flagged(self, tmp_path):
        src = make_source(tmp_path, """
            import time
            def measure(fn):
                start = time.time()
                fn()
                return time.time() - start
        """)
        assert len(run_rules(src, codes={"RPR002"})) == 2

    def test_monotonic_clean(self, tmp_path):
        src = make_source(tmp_path, """
            import time
            def measure(fn):
                start = time.monotonic()
                fn()
                return time.monotonic() - start
        """)
        assert run_rules(src, codes={"RPR002"}) == []

    def test_suppressed_wall_clock(self, tmp_path):
        src = make_source(tmp_path, """
            import time
            def stamp(record):
                record["at"] = time.time()  # hqs-lint: disable=RPR002
        """)
        assert run_rules(src, codes={"RPR002"}) == []

    def test_allow_modules(self, tmp_path):
        src = make_source(tmp_path, """
            import time
            def stamp():
                return time.time()
        """)
        config = LintConfig({"rpr002": {"allow-modules": ["repro.core.synthetic"]}})
        assert run_rules(src, config, codes={"RPR002"}) == []


# ----------------------------------------------------------------------
# RPR003 determinism
# ----------------------------------------------------------------------

class TestDeterminism:
    def test_unseeded_random_flagged(self, tmp_path):
        src = make_source(tmp_path, """
            import random
            def jitter():
                return random.Random()
        """)
        findings = run_rules(src, codes={"RPR003"})
        assert len(findings) == 1
        assert "without a seed" in findings[0].message

    def test_seeded_random_clean(self, tmp_path):
        src = make_source(tmp_path, """
            import random
            def jitter(seed):
                return random.Random(seed)
        """)
        assert run_rules(src, codes={"RPR003"}) == []

    def test_module_level_random_flagged(self, tmp_path):
        src = make_source(tmp_path, """
            import random
            def pick(items):
                random.shuffle(items)
                return random.choice(items)
        """)
        assert len(run_rules(src, codes={"RPR003"})) == 2

    def test_suppression_and_allowlist(self, tmp_path):
        suppressed = make_source(tmp_path, """
            import random
            def jitter():
                return random.Random()  # hqs-lint: disable=RPR003
        """)
        assert run_rules(suppressed, codes={"RPR003"}) == []
        allowed = make_source(tmp_path, """
            import random
            def jitter():
                return random.Random()
        """, name="allowed.py")
        config = LintConfig({"rpr003": {"allow-modules": ["repro.core.synthetic"]}})
        assert run_rules(allowed, config, codes={"RPR003"}) == []


# ----------------------------------------------------------------------
# RPR004 durability
# ----------------------------------------------------------------------

class TestDurability:
    def test_raw_write_flagged(self, tmp_path):
        src = make_source(tmp_path, """
            def save(path, text):
                with open(path, "w") as handle:
                    handle.write(text)
        """, module="repro.service.synthetic")
        findings = run_rules(src, codes={"RPR004"})
        assert len(findings) == 1
        assert "bypasses repro.durable" in findings[0].message

    def test_os_replace_flagged(self, tmp_path):
        src = make_source(tmp_path, """
            import os
            def swap(a, b):
                os.replace(a, b)
        """, module="repro.experiments.synthetic")
        assert len(run_rules(src, codes={"RPR004"})) == 1

    def test_read_mode_clean(self, tmp_path):
        src = make_source(tmp_path, """
            def load(path):
                with open(path) as handle:
                    return handle.read()
        """, module="repro.service.synthetic")
        assert run_rules(src, codes={"RPR004"}) == []

    def test_outside_packages_clean(self, tmp_path):
        src = make_source(tmp_path, """
            def save(path, text):
                with open(path, "w") as handle:
                    handle.write(text)
        """, module="repro.formula.synthetic")
        assert run_rules(src, codes={"RPR004"}) == []

    def test_allow_modules_and_suppression(self, tmp_path):
        src = make_source(tmp_path, """
            def save(path, text):
                with open(path, "w") as handle:
                    handle.write(text)
        """, module="repro.experiments.report")
        config = LintConfig(
            {"rpr004": {"allow-modules": ["repro.experiments.report"]}}
        )
        assert run_rules(src, config, codes={"RPR004"}) == []
        suppressed = make_source(tmp_path, """
            def save(path, text):
                with open(path, "a") as handle:  # hqs-lint: disable=RPR004
                    handle.write(text)
        """, module="repro.service.synthetic", name="suppressed.py")
        assert run_rules(suppressed, codes={"RPR004"}) == []


# ----------------------------------------------------------------------
# RPR005 fork/async safety
# ----------------------------------------------------------------------

ASYNC_CONFIG = LintConfig(
    {
        "rpr005": {
            "async-modules": ["repro.service.synthetic"],
            "known-blocking": ["cache.store"],
            "fork-modules": ["repro.service.forky"],
        }
    }
)


class TestForkAsyncSafety:
    def test_blocking_sleep_in_async_flagged(self, tmp_path):
        src = make_source(tmp_path, """
            import time
            async def handler():
                time.sleep(1.0)
        """, module="repro.service.synthetic")
        findings = run_rules(src, ASYNC_CONFIG, codes={"RPR005"})
        assert len(findings) == 1
        assert "time.sleep" in findings[0].message

    def test_known_blocking_suffix_flagged(self, tmp_path):
        src = make_source(tmp_path, """
            async def handler(self, key, value):
                self.cache.store(key, value)
        """, module="repro.service.synthetic")
        assert len(run_rules(src, ASYNC_CONFIG, codes={"RPR005"})) == 1

    def test_nested_def_in_executor_clean(self, tmp_path):
        src = make_source(tmp_path, """
            async def handler(self, loop, key, value):
                def _persist():
                    self.cache.store(key, value)
                await loop.run_in_executor(None, _persist)
                await loop.run_in_executor(None, lambda: self.cache.store(key, value))
        """, module="repro.service.synthetic")
        assert run_rules(src, ASYNC_CONFIG, codes={"RPR005"}) == []

    def test_async_sleep_clean(self, tmp_path):
        src = make_source(tmp_path, """
            import asyncio
            async def handler():
                await asyncio.sleep(1.0)
        """, module="repro.service.synthetic")
        assert run_rules(src, ASYNC_CONFIG, codes={"RPR005"}) == []

    def test_thread_before_fork_flagged(self, tmp_path):
        src = make_source(tmp_path, """
            import multiprocessing
            import threading
            def start(ctx):
                watchdog = threading.Thread(target=print)
                watchdog.start()
                worker = ctx.Process(target=print)
                worker.start()
        """, module="repro.service.forky")
        findings = run_rules(src, ASYNC_CONFIG, codes={"RPR005"})
        assert len(findings) == 1
        assert "fork" in findings[0].message.lower()

    def test_fork_then_thread_clean(self, tmp_path):
        src = make_source(tmp_path, """
            import threading
            def start(ctx):
                worker = ctx.Process(target=print)
                worker.start()
                watchdog = threading.Thread(target=print)
                watchdog.start()
        """, module="repro.service.forky")
        assert run_rules(src, ASYNC_CONFIG, codes={"RPR005"}) == []

    def test_fork_target_without_socket_hygiene_flagged(self, tmp_path):
        src = make_source(tmp_path, """
            def _worker_main(conn):
                conn.recv()

            def spawn(ctx, conn):
                return ctx.Process(target=_worker_main, args=(conn,))
        """, module="repro.service.forky")
        findings = run_rules(src, ASYNC_CONFIG, codes={"RPR005"})
        assert len(findings) == 1
        assert "close_foreign_sockets" in findings[0].message

    def test_fork_target_with_socket_hygiene_clean(self, tmp_path):
        src = make_source(tmp_path, """
            from repro.proc import close_foreign_sockets

            def _worker_main(conn):
                close_foreign_sockets(keep=(conn.fileno(),))
                conn.recv()

            def spawn(ctx, conn):
                return ctx.Process(target=_worker_main, args=(conn,))
        """, module="repro.service.forky")
        assert run_rules(src, ASYNC_CONFIG, codes={"RPR005"}) == []


# ----------------------------------------------------------------------
# RPR006 exception hygiene
# ----------------------------------------------------------------------

class TestExceptionHygiene:
    def test_swallowing_broad_except_flagged(self, tmp_path):
        src = make_source(tmp_path, """
            def risky(fn):
                try:
                    fn()
                except Exception:
                    pass
        """)
        findings = run_rules(src, codes={"RPR006"})
        assert len(findings) == 1

    def test_bare_except_flagged(self, tmp_path):
        src = make_source(tmp_path, """
            def risky(fn):
                try:
                    fn()
                except:
                    return None
        """)
        assert len(run_rules(src, codes={"RPR006"})) == 1

    def test_reraise_clean(self, tmp_path):
        src = make_source(tmp_path, """
            def risky(fn):
                try:
                    fn()
                except Exception:
                    raise
        """)
        assert run_rules(src, codes={"RPR006"}) == []

    def test_traceback_capture_clean(self, tmp_path):
        src = make_source(tmp_path, """
            import traceback
            def risky(fn, log):
                try:
                    fn()
                except Exception:
                    log.append(traceback.format_exc())
        """)
        assert run_rules(src, codes={"RPR006"}) == []

    def test_failure_diagnosis_clean(self, tmp_path):
        src = make_source(tmp_path, """
            from repro.errors import FailureDiagnosis
            def risky(fn):
                try:
                    fn()
                except Exception:
                    return FailureDiagnosis(stage="risky", resource="unknown")
        """)
        assert run_rules(src, codes={"RPR006"}) == []

    def test_narrow_except_clean(self, tmp_path):
        src = make_source(tmp_path, """
            def risky(fn):
                try:
                    fn()
                except ValueError:
                    return None
        """)
        assert run_rules(src, codes={"RPR006"}) == []

    def test_suppression(self, tmp_path):
        src = make_source(tmp_path, """
            def risky(fn):
                try:
                    fn()
                except Exception:  # hqs-lint: disable=RPR006
                    pass
        """)
        assert run_rules(src, codes={"RPR006"}) == []


# ----------------------------------------------------------------------
# RPR007 fault-site coverage
# ----------------------------------------------------------------------

SITES_TEXT = """
    SITES = {
        "pool.solve": ("crash",),
        "cache.write": ("torn",),
    }
"""

RPR007_CONFIG = LintConfig({"rpr007": {"sites-module": "repro.synthfaults"}})


class TestFaultSiteCoverage:
    def test_full_coverage_clean(self, tmp_path):
        sites = make_source(
            tmp_path, SITES_TEXT, module="repro.synthfaults", name="faults.py"
        )
        user = make_source(tmp_path, """
            from repro import faults
            def solve():
                faults.fire("pool.solve")
            def store(write_framed, path, payload):
                write_framed(path, payload, fault_site="cache.write")
        """, module="repro.service.synthetic")
        assert run_rules([sites, user], RPR007_CONFIG, codes={"RPR007"}) == []

    def test_declared_but_never_fired_flagged(self, tmp_path):
        sites = make_source(
            tmp_path, SITES_TEXT, module="repro.synthfaults", name="faults.py"
        )
        user = make_source(tmp_path, """
            from repro import faults
            def solve():
                faults.fire("pool.solve")
        """, module="repro.service.synthetic")
        findings = run_rules([sites, user], RPR007_CONFIG, codes={"RPR007"})
        assert len(findings) == 1
        assert "cache.write" in findings[0].message
        assert findings[0].path == sites.rel

    def test_fired_but_undeclared_flagged(self, tmp_path):
        sites = make_source(
            tmp_path, SITES_TEXT, module="repro.synthfaults", name="faults.py"
        )
        user = make_source(tmp_path, """
            from repro import faults
            def solve():
                faults.fire("pool.solve")
                faults.fire("cache.write")
                faults.fire("server.send")
        """, module="repro.service.synthetic")
        findings = run_rules([sites, user], RPR007_CONFIG, codes={"RPR007"})
        assert len(findings) == 1
        assert "server.send" in findings[0].message
        assert findings[0].path == user.rel

    def test_non_literal_fire_ignored(self, tmp_path):
        sites = make_source(
            tmp_path, SITES_TEXT, module="repro.synthfaults", name="faults.py"
        )
        user = make_source(tmp_path, """
            from repro import faults
            def solve(site):
                faults.fire(site)
                faults.fire("pool.solve")
                faults.fire("cache.write")
        """, module="repro.service.synthetic")
        assert run_rules([sites, user], RPR007_CONFIG, codes={"RPR007"}) == []


# ----------------------------------------------------------------------
# baseline machinery
# ----------------------------------------------------------------------

class TestBaseline:
    def _finding(self, message="m1"):
        return Finding("RPR001", "src/x.py", 3, message)

    def test_round_trip_and_split(self, tmp_path):
        path = tmp_path / "baseline.json"
        write_baseline(path, [self._finding()])
        keys = load_baseline(path)
        assert keys == {("RPR001", "src/x.py", "m1")}
        new, grandfathered, stale = split_by_baseline(
            [self._finding(), self._finding("m2")], keys
        )
        assert [f.message for f in new] == ["m2"]
        assert [f.message for f in grandfathered] == ["m1"]
        assert stale == []

    def test_stale_entries_detected(self, tmp_path):
        path = tmp_path / "baseline.json"
        write_baseline(path, [self._finding()])
        new, grandfathered, stale = split_by_baseline([], load_baseline(path))
        assert new == [] and grandfathered == []
        assert stale == [("RPR001", "src/x.py", "m1")]

    def test_missing_baseline_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "nope.json") == set()

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"version": 99, "entries": []}))
        with pytest.raises(ValueError):
            load_baseline(path)


# ----------------------------------------------------------------------
# config loading (tomllib: hqs-lint runs on Python 3.11+ only)
# ----------------------------------------------------------------------

class TestConfig:
    def test_repo_config_loads(self):
        pytest.importorskip("tomllib")
        config = load_config(REPO_ROOT / "pyproject.toml")
        assert "src" in config.paths
        assert config.baseline == "lint-baseline.json"
        assert "repro.core" in config.rule_options("RPR001")["packages"]
        allow = config.rule_options("RPR001")["allow"]
        assert "repro.sat.solver::CdclSolver._analyze" in allow
        assert config.rule_options("RPR007")["sites-module"] == "repro.faults"

    def test_defaults_survive_without_pyproject(self, tmp_path):
        # Regression: the defaults copy once split the baseline string
        # into a character list when no pyproject.toml was present.
        pytest.importorskip("tomllib")
        config = load_config(tmp_path / "pyproject.toml")
        assert config.baseline == "lint-baseline.json"
        assert config.paths == ["src"]
        assert config.rule_options("RPR007")["sites-module"] == "repro.faults"

    def test_instances_do_not_alias_defaults(self):
        from repro.analysis.config import DEFAULTS

        config = LintConfig({})
        config.raw["rpr001"]["allow"].append("x::y")
        config.raw["paths"].append("extra")
        assert DEFAULTS["rpr001"]["allow"] == []
        assert DEFAULTS["paths"] == ["src"]

    def test_select_ignore(self, tmp_path):
        config = LintConfig({"select": ["RPR001"]})
        assert config.enabled("RPR001") and not config.enabled("RPR002")
        config = LintConfig({"ignore": ["rpr003"]})
        assert config.enabled("RPR001") and not config.enabled("RPR003")


# ----------------------------------------------------------------------
# whole tree: hqs-lint src must match the committed baseline exactly
# ----------------------------------------------------------------------

class TestWholeTree:
    def test_src_matches_committed_baseline(self, capsys, monkeypatch):
        pytest.importorskip("tomllib")
        monkeypatch.chdir(REPO_ROOT)
        exit_code = lint_main(["src", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"] == [], payload["findings"]
        assert payload["stale_baseline"] == [], payload["stale_baseline"]
        assert payload["ok"] is True
        assert exit_code == 0
        # The committed baseline matches what the tree produces, entry
        # for entry: every grandfathered finding is a baseline entry and
        # (via stale_baseline == []) every entry matched a finding.
        baseline = load_baseline(REPO_ROOT / "lint-baseline.json")
        produced = {
            (f["code"], f["path"], f["message"]) for f in payload["grandfathered"]
        }
        assert produced == baseline

    def test_core_and_service_have_no_baseline_entries(self):
        baseline = load_baseline(REPO_ROOT / "lint-baseline.json")
        dirty = [
            key for key in baseline
            if key[1].startswith(("src/repro/core/", "src/repro/service/"))
        ]
        assert dirty == []

    def test_list_rules_covers_catalog(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("RPR001", "RPR002", "RPR003", "RPR004",
                     "RPR005", "RPR006", "RPR007"):
            assert code in out
