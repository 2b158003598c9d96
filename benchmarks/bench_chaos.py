"""Chaos soak: the service under a deterministic fault schedule.

The robustness claim of the serving stack is not "it has retry code"
but an end-to-end invariant: **under injected faults, every request
still gets exactly one correct answer** — the same verdict a direct,
fault-free solve of the formula produces — and the durable artifacts
(result log, disk cache) lose nothing silently.

This benchmark replays a repeat-heavy workload (the same shape as
``bench_service.py``) through a real :class:`ServiceServer` three ways:

1. **truth** — every unique formula solved directly in-process, no
   service, no faults: the ground-truth verdict map.
2. **clean** — the service with fault injection disabled: the baseline
   for latency and for the hook-overhead check.
3. **chaos** — the same schedule with a committed :class:`FaultPlan`
   covering worker crashes, wedges (hard-kill path), slowdowns,
   cooperative clock collapse, dropped response frames, torn and
   failing disk writes, and torn log appends — at least five distinct
   fault kinds.  Clients run with transparent transport retries plus
   bounded resubmission of transient statuses (``ERROR`` from a dead
   worker, ``TIMEOUT`` from a hard kill, budget-starved ``UNKNOWN``);
   resubmission is idempotent because solves are fingerprint-keyed
   server-side.

Checked invariants (see :func:`_check`):

* every chaos-mode reply is definitive and matches the truth map;
* zero log records silently lost (every missing record is accounted
  for by a *detected* corrupt line) and zero duplicated records;
* the worker pool shows the faults were real (deaths, hard kills) and
  healed (pool alive at the end, every answer still correct);
* a fresh cache over the same disk tier quarantines the torn entries
  on its startup recovery scan;
* with no plan installed, the fault hooks cost **< 2%** of a clean
  request (measured: per-call no-op cost x a generous hooks-per-request
  bound vs the clean run's p50 latency).

Recovery latency — wall-clock from first submission to the final
correct answer of requests that needed retries/resubmits — is recorded
in the report.

Run under pytest (`pytest benchmarks/bench_chaos.py`) or standalone:

    PYTHONPATH=src python benchmarks/bench_chaos.py

``REPRO_BENCH_CHAOS_QUICK=1`` shrinks the workload for CI smoke runs.
"""

from __future__ import annotations

import json
import os
import random
import threading
import time
from pathlib import Path
from typing import Dict, List

from repro import faults
from repro.core.checkpoint import formula_fingerprint
from repro.core.hqs import HqsOptions, HqsSolver
from repro.core.result import Limits, SAT, UNSAT
from repro.durable import ResultLog
from repro.faults import FaultPlan
from repro.formula.dqdimacs import parse_dqdimacs, write_dqdimacs
from repro.pec.families import make_comp
from repro.service import ServiceClient, ServiceConfig, ServiceServer, WorkerPool
from repro.service.cache import ResultCache

from bench_service import start_server

QUICK = os.environ.get("REPRO_BENCH_CHAOS_QUICK", "") not in ("", "0")
NUM_REQUESTS = 60 if QUICK else 220
NUM_CLIENTS = 4
NUM_WORKERS = 2
SOLVE_BUDGET = 2.0     # per-request budget sent to the server
IO_TIMEOUT = 30.0      # client socket timeout (covers a wedge hard-kill)
RESUBMIT = 8           # transient-status resubmission budget per request
TRANSIENT = ("ERROR", "TIMEOUT", "UNKNOWN")
OVERHEAD_LIMIT_PCT = 2.0
#: Generous bound on fault-hook call sites one request can cross
#: (pool dispatch, per-universal checkpoint saves, cache store, log
#: append, response send).
HOOKS_PER_REQUEST = 32
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_chaos.json"

#: The committed chaos schedule.  Event indices are per process (the
#: parent counts sends/writes, each worker slot counts its own solves,
#: with counters carried across respawns), chosen so every kind fires
#: even at the quick-mode request count: a slot that takes a crash at
#: its 2nd solve sees the resubmissions as events 3, 4, 5 — the clock,
#: wedge and slow faults — on the same slot.
PLAN_SPEC = ";".join([
    "pool.solve:crash@2",
    "pool.solve:clock@3,seconds=0.001",
    "pool.solve:wedge@4",
    "pool.solve:slow@5,seconds=0.2",
    "pool.solve:crash@9",
    "server.send:drop@4",
    "server.send:slow@8,seconds=0.1",
    "server.send:drop@23",
    "cache.write:torn@2",
    "cache.write:ioerror@4",
    "log.append:torn@3",
    "checkpoint.save:torn@1",
])


def unique_instances():
    """K unique formulas, alternating buggy (SAT) and correct (UNSAT)
    comparator miters so both verdicts are represented in the truth
    map.  Buggy instances vary by seed, correct ones by shape (a
    correct comparator of fixed shape is the same formula whatever the
    seed), so the fingerprints stay mostly distinct."""
    count = max(4, NUM_REQUESTS // 10)
    uniques = []
    for index in range(count):
        if index % 2 == 0:
            inst = make_comp(4, 2, True, seed=31 + index)
        else:
            shape = index // 2
            inst = make_comp(3 + shape % 3, 1 + shape % 2, False, seed=7)
        uniques.append((f"comp-{index}", write_dqdimacs(inst.formula)))
    return uniques


def request_schedule(uniques, seed: int = 20151):
    rng = random.Random(seed)
    schedule = list(range(len(uniques)))
    while len(schedule) < NUM_REQUESTS:
        schedule.append(rng.randrange(len(uniques)))
    return schedule


def ground_truth(uniques) -> List[Dict[str, object]]:
    """Direct, fault-free solve of every unique: the verdict map."""
    truths = []
    for _family, text in uniques:
        formula = parse_dqdimacs(text)
        solver = HqsSolver(HqsOptions())
        result = solver.solve(formula, Limits(time_limit=60.0))
        assert result.status in (SAT, UNSAT), result.status
        truths.append({
            "status": result.status,
            "fingerprint": formula_fingerprint(formula),
        })
    return truths


# ----------------------------------------------------------------------
# one service run (clean or chaos)
# ----------------------------------------------------------------------

def run_service_mode(uniques, truths, schedule, tmp_dir: str,
                     label: str, plan) -> Dict[str, object]:
    """Replay the schedule against a live server; verify every reply."""
    faults.install(plan)
    try:
        return _run_service_mode(uniques, truths, schedule, tmp_dir,
                                 label, plan)
    finally:
        faults.install(None)


def _run_service_mode(uniques, truths, schedule, tmp_dir, label, plan):
    cache_dir = os.path.join(tmp_dir, f"{label}-cache")
    log_path = os.path.join(tmp_dir, f"{label}.jsonl")
    # Fork the warm workers before the server thread starts its loop.
    pool = WorkerPool(size=NUM_WORKERS, grace=0.75, fault_plan=plan,
                      heartbeat_interval=0.25)
    config = ServiceConfig(port=0, workers=NUM_WORKERS, cache_dir=cache_dir,
                           log_path=log_path, default_timeout=SOLVE_BUDGET,
                           drain_timeout=10.0)
    server, box, thread = start_server(config, pool)

    cursor_lock = threading.Lock()
    cursor = [0]
    records: List[Dict[str, object]] = []

    def client_loop():
        client = ServiceClient(port=server.port, timeout=IO_TIMEOUT,
                               retries=6, backoff=0.05)
        with client:
            while True:
                with cursor_lock:
                    if cursor[0] >= len(schedule):
                        return
                    position = cursor[0]
                    cursor[0] += 1
                unique = schedule[position]
                family, text = uniques[unique]
                retried_before = client.retried
                transients: List[str] = []
                started = time.perf_counter()
                reply = client.solve(text, family=family,
                                     timeout=SOLVE_BUDGET)
                while (str(reply.get("status")) in TRANSIENT
                       and len(transients) < RESUBMIT):
                    transients.append(str(reply.get("status")))
                    time.sleep(0.05 * len(transients))  # let the slot respawn
                    reply = client.solve(text, family=family,
                                         timeout=SOLVE_BUDGET)
                elapsed = time.perf_counter() - started
                with cursor_lock:
                    records.append({
                        "unique": unique,
                        "status": str(reply.get("status")),
                        "fingerprint": str(reply.get("fingerprint")),
                        "cache": str(reply.get("cache")),
                        "elapsed": elapsed,
                        "retries": client.retried - retried_before,
                        "transients": transients,
                    })

    started = time.perf_counter()
    clients = [threading.Thread(target=client_loop) for _ in range(NUM_CLIENTS)]
    for c in clients:
        c.start()
    for c in clients:
        c.join()
    total = time.perf_counter() - started

    with ServiceClient(port=server.port, timeout=IO_TIMEOUT) as client:
        stats = client.stats()
        client.shutdown()
    thread.join(timeout=30.0)

    mismatched = sum(
        1 for r in records
        if r["status"] != truths[r["unique"]]["status"]
        or r["fingerprint"] != truths[r["unique"]]["fingerprint"]
    )
    impacted = [r for r in records if r["retries"] or r["transients"]]
    latencies = sorted(r["elapsed"] for r in records)
    transient_counts: Dict[str, int] = {}
    for r in records:
        for status in r["transients"]:
            transient_counts[status] = transient_counts.get(status, 0) + 1

    definitive = {r["fingerprint"] for r in records
                  if r["status"] in (SAT, UNSAT)}
    result_log = ResultLog(log_path)
    loaded = result_log.load()
    logged = [instance for instance, _solver in loaded]
    raw_keys = _raw_log_keys(log_path)
    lost = len(definitive - set(logged))

    # A crashed-and-restarted cache over the same disk tier must
    # quarantine whatever the fault schedule tore, not trip over it.
    recovery_cache = ResultCache(capacity=16, disk_dir=cache_dir,
                                 recover=False)
    recovery_scan = recovery_cache.recover()

    return {
        "total_s": total,
        "rps": len(records) / total,
        "p50_ms": 1000 * latencies[len(latencies) // 2],
        "p95_ms": 1000 * latencies[int(0.95 * (len(latencies) - 1))],
        "requests": len(records),
        "mismatched": mismatched,
        "statuses": _count(r["status"] for r in records),
        "cache_tags": _count(r["cache"] for r in records),
        "client_retries": sum(r["retries"] for r in records),
        "resubmits": sum(len(r["transients"]) for r in records),
        "transient_statuses": transient_counts,
        "recovery": _recovery_summary(impacted),
        "pool": stats["pool"],
        "cache": stats["cache"],
        "pending": stats.get("pending", 0),
        "busy_rejections": stats.get("busy_rejections", 0),
        "log": {
            "entries": len(logged),
            "corrupt_lines": result_log.corrupt_lines,
            "duplicates": len(raw_keys) - len(set(raw_keys)),
            "lost": lost,
            # every lost record must be a *detected* corrupt line
            "lost_undetected": max(0, lost - result_log.corrupt_lines),
        },
        "recovery_scan": recovery_scan,
        "parent_fired": [list(f) for f in plan.fired] if plan else [],
        "parent_fired_kinds": plan.fired_kinds() if plan else {},
    }


def _raw_log_keys(log_path: str) -> List[str]:
    from repro import durable

    keys = []
    with open(log_path, "r", encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            payload, verdict = durable.unframe_line(line)
            if verdict == "corrupt":
                continue
            try:
                keys.append(str(json.loads(payload)["instance"]))
            except ValueError:
                continue  # torn tail without its checksum suffix
    return keys


def _count(values) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for value in values:
        counts[value] = counts.get(value, 0) + 1
    return dict(sorted(counts.items()))


def _recovery_summary(impacted) -> Dict[str, object]:
    """Latency of requests that needed any retry/resubmission: the
    client-observed time from first submission to the correct answer."""
    if not impacted:
        return {"impacted_requests": 0}
    ordered = sorted(r["elapsed"] for r in impacted)
    return {
        "impacted_requests": len(impacted),
        "p50_ms": 1000 * ordered[len(ordered) // 2],
        "p95_ms": 1000 * ordered[int(0.95 * (len(ordered) - 1))],
        "max_ms": 1000 * ordered[-1],
    }


# ----------------------------------------------------------------------
# hook overhead (faults disabled)
# ----------------------------------------------------------------------

def measure_hook_overhead(clean_p50_ms: float) -> Dict[str, float]:
    """Per-call cost of :func:`faults.fire` with no plan installed,
    scaled by a generous hooks-per-request bound against the clean p50."""
    faults.install(None)
    calls = 200_000
    started = time.perf_counter()
    for _ in range(calls):
        faults.fire("pool.solve")
    per_call_s = (time.perf_counter() - started) / calls
    per_request_ms = 1000 * per_call_s * HOOKS_PER_REQUEST
    return {
        "hook_ns": 1e9 * per_call_s,
        "hooks_per_request": HOOKS_PER_REQUEST,
        "per_request_ms": per_request_ms,
        "clean_p50_ms": clean_p50_ms,
        "overhead_pct": 100 * per_request_ms / clean_p50_ms,
    }


# ----------------------------------------------------------------------
# report
# ----------------------------------------------------------------------

def run_report(tmp_dir: str) -> Dict[str, object]:
    plan = FaultPlan.parse(PLAN_SPEC)
    uniques = unique_instances()
    schedule = request_schedule(uniques)
    truths = ground_truth(uniques)
    clean = run_service_mode(uniques, truths, schedule, tmp_dir,
                             "clean", None)
    chaos = run_service_mode(uniques, truths, schedule, tmp_dir,
                             "chaos", plan)
    overhead = measure_hook_overhead(clean["p50_ms"])
    return {
        "quick": QUICK,
        "requests": len(schedule),
        "unique_formulas": len(uniques),
        "clients": NUM_CLIENTS,
        "workers": NUM_WORKERS,
        "truth": _count(t["status"] for t in truths),
        "plan": {
            "spec": plan.spec(),
            "kinds_scheduled": sorted({f.kind for f in plan.faults}),
        },
        "clean": clean,
        "chaos": chaos,
        "overhead": overhead,
        "slowdown_under_faults": chaos["total_s"] / clean["total_s"],
    }


def write_json(report) -> None:
    OUTPUT.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


def print_report(report) -> None:
    chaos = report["chaos"]
    clean = report["clean"]
    print(f"\nchaos soak ({report['requests']} requests, "
          f"{report['unique_formulas']} unique, "
          f"{len(report['plan']['kinds_scheduled'])} fault kinds: "
          f"{','.join(report['plan']['kinds_scheduled'])})")
    print(f"  clean:  {clean['rps']:8.1f} req/s  p50 {clean['p50_ms']:7.1f} ms  "
          f"p95 {clean['p95_ms']:7.1f} ms")
    print(f"  chaos:  {chaos['rps']:8.1f} req/s  p50 {chaos['p50_ms']:7.1f} ms  "
          f"p95 {chaos['p95_ms']:7.1f} ms  "
          f"({report['slowdown_under_faults']:.1f}x slower)")
    pool = chaos["pool"]
    print(f"  faults: deaths {pool['worker_deaths']}  "
          f"hard kills {pool['hard_kills']}  "
          f"restarts {pool['supervised_restarts']}  "
          f"parent-side {chaos['parent_fired_kinds']}  "
          f"transients {chaos['transient_statuses']}")
    recovery = chaos["recovery"]
    if recovery["impacted_requests"]:
        print(f"  recovery: {recovery['impacted_requests']} impacted  "
              f"p50 {recovery['p50_ms']:.0f} ms  "
              f"p95 {recovery['p95_ms']:.0f} ms  "
              f"max {recovery['max_ms']:.0f} ms")
    log = chaos["log"]
    print(f"  answers: {chaos['requests'] - chaos['mismatched']}"
          f"/{chaos['requests']} correct  "
          f"log entries {log['entries']} "
          f"(torn {log['corrupt_lines']}, undetected lost "
          f"{log['lost_undetected']}, dup {log['duplicates']})  "
          f"recovery scan {chaos['recovery_scan']}")
    print(f"  hook overhead: {report['overhead']['hook_ns']:.0f} ns/call "
          f"-> {report['overhead']['overhead_pct']:.3f}% of a clean request")


def _check(report) -> None:
    chaos = report["chaos"]
    clean = report["clean"]
    # the workload is real
    if not QUICK:
        assert report["requests"] >= 200, report["requests"]
    assert len(report["plan"]["kinds_scheduled"]) >= 5
    # exactly one correct answer per request, clean and under chaos
    assert clean["mismatched"] == 0, clean
    assert chaos["mismatched"] == 0, (
        f"{chaos['mismatched']} of {chaos['requests']} chaos replies were "
        f"wrong or non-definitive; statuses: {chaos['statuses']}")
    # the faults actually happened and the pool healed
    pool = chaos["pool"]
    assert clean["pool"]["worker_deaths"] == 0, clean["pool"]
    assert pool["worker_deaths"] >= 1, pool
    assert pool["hard_kills"] >= 1, pool
    assert pool["alive"] == NUM_WORKERS, pool
    assert chaos["parent_fired_kinds"].get("drop", 0) >= 1, chaos["parent_fired_kinds"]
    assert chaos["parent_fired_kinds"].get("torn", 0) >= 1, chaos["parent_fired_kinds"]
    assert chaos["transient_statuses"].get("ERROR", 0) >= 1, chaos["transient_statuses"]
    assert chaos["transient_statuses"].get("TIMEOUT", 0) >= 1, chaos["transient_statuses"]
    assert chaos["transient_statuses"].get("UNKNOWN", 0) >= 1, chaos["transient_statuses"]
    assert chaos["recovery"]["impacted_requests"] >= 1
    # durability: nothing silently lost, nothing duplicated
    for mode in (clean, chaos):
        assert mode["log"]["lost_undetected"] == 0, mode["log"]
        assert mode["log"]["duplicates"] == 0, mode["log"]
    assert clean["log"]["corrupt_lines"] == 0, clean["log"]
    # the torn cache write is quarantined by the startup recovery scan
    assert chaos["recovery_scan"]["quarantined"] >= 1, chaos["recovery_scan"]
    assert chaos["cache"]["disk_write_errors"] >= 1, chaos["cache"]
    # hooks are free when disabled
    assert report["overhead"]["overhead_pct"] < OVERHEAD_LIMIT_PCT, (
        report["overhead"])


def test_chaos_soak(tmp_path):
    """Acceptance: >= 5 fault kinds over the workload (>= 200 requests
    in full mode), every request answered exactly once with the direct-
    solve verdict, zero undetected-lost and zero duplicated log records,
    recovery latency recorded, < 2% hook overhead with faults off."""
    report = run_report(str(tmp_path))
    print_report(report)
    write_json(report)
    _check(report)


def main() -> None:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp_dir:
        report = run_report(tmp_dir)
    print_report(report)
    write_json(report)
    _check(report)
    print(f"\nwritten {OUTPUT.name}")


if __name__ == "__main__":
    main()
