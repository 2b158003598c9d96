"""Chaos tests: the serving stack under deterministic fault injection.

Every test schedules specific faults through :mod:`repro.faults` and
asserts the self-healing behaviour the service promises: crashed and
wedged workers are recycled (and the request answered with a diagnosed
``ERROR``/``TIMEOUT``, never a wrong verdict), torn disk writes are
caught by the CRC framing and quarantined, dropped response frames are
absorbed by the client's idempotent retry, and overload degrades into
explicit BUSY rejections instead of unbounded queues.

The larger randomized soak — hundreds of requests against a seeded
fault schedule, with every answer checked against a direct solve —
lives in ``benchmarks/bench_chaos.py``; these tests pin down each
mechanism in isolation so a soak failure has somewhere to point.
"""

from __future__ import annotations

import asyncio
import http.client
import os
import signal
import socket
import threading
import time

import pytest

from repro import faults
from repro.core.result import ERROR, TIMEOUT, UNKNOWN, UNSAT
from repro.durable import ResultLog
from repro.faults import FaultPlan
from repro.formula.dqdimacs import write_dqdimacs
from repro.pec.families import make_adder
from repro.service import (
    ResultCache,
    ServiceBusyError,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    ServiceProtocolError,
    ServiceServer,
    WorkerPool,
)


def family_text(size=4, boxes=2, buggy=True, seed=5):
    return write_dqdimacs(make_adder(size, boxes, buggy, seed=seed).formula)


@pytest.fixture(autouse=True)
def _clean_plan():
    faults.clear()
    yield
    faults.clear()


def start_server(config, pool):
    """ServiceServer in a daemon thread (same shape as test_service)."""
    server = ServiceServer(config, pool)
    ready = threading.Event()
    box = {}

    def runner():
        async def go():
            await server.start()
            ready.set()
            return await server.serve(install_signals=False)

        box["summary"] = asyncio.run(go())

    thread = threading.Thread(target=runner, daemon=True)
    thread.start()
    assert ready.wait(10.0), "server failed to start"
    return server, box, thread


def stop_server(server, thread, pool):
    try:
        with ServiceClient(port=server.port, timeout=5.0, retries=0) as client:
            client.shutdown()
    except ServiceError:
        pass
    thread.join(timeout=15.0)
    if any(w.process.is_alive() for w in pool._workers):
        pool.kill()


# ----------------------------------------------------------------------
# pool self-healing
# ----------------------------------------------------------------------

class TestPoolFaults:
    def test_worker_crash_is_diagnosed_then_healed(self):
        plan = FaultPlan.parse("pool.solve:crash@1")
        pool = WorkerPool(size=1, fault_plan=plan)
        try:
            text = family_text()
            first = pool.solve(text, family="adder", time_limit=30.0)
            assert first["status"] == ERROR
            assert first["stats"].get("worker_died") == 1.0
            # The slot respawned and the schedule advanced past the
            # crash, so the retry gets the correct verdict.
            second = pool.solve(text, family="adder", time_limit=30.0)
            assert second["status"] == UNSAT
            assert pool.stats()["worker_deaths"] == 1
        finally:
            pool.kill()

    def test_wedged_worker_is_hard_killed(self):
        plan = FaultPlan.parse("pool.solve:wedge@1")
        pool = WorkerPool(size=1, fault_plan=plan, grace=0.3)
        try:
            text = family_text()
            first = pool.solve(text, family="adder", time_limit=0.3)
            assert first["status"] == TIMEOUT
            assert first["stats"].get("hard_timeout") == 1.0
            second = pool.solve(text, family="adder", time_limit=30.0)
            assert second["status"] == UNSAT
            assert pool.stats()["hard_kills"] == 1
        finally:
            pool.kill()

    def test_clock_fault_degrades_to_unknown_never_wrong(self):
        # Budget exhaustion: the collapsed clock trips the resource
        # guard, which must yield a *diagnosed* UNKNOWN — the answer a
        # retry can upgrade — not SAT/UNSAT by other means.
        plan = FaultPlan.parse("pool.solve:clock@1,seconds=0.001")
        pool = WorkerPool(size=1, fault_plan=plan)
        try:
            text = family_text()
            first = pool.solve(text, family="adder", time_limit=30.0)
            assert first["status"] == UNKNOWN
            second = pool.solve(text, family="adder", time_limit=30.0)
            assert second["status"] == UNSAT
        finally:
            pool.kill()

    def test_heartbeat_supervisor_restarts_dead_worker(self):
        pool = WorkerPool(size=1, heartbeat_interval=0.05)
        try:
            os.kill(pool._workers[0].process.pid, signal.SIGKILL)
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                stats = pool.stats()
                if stats["supervised_restarts"] >= 1 and stats["alive"] == 1:
                    break
                time.sleep(0.05)
            stats = pool.stats()
            assert stats["supervised_restarts"] >= 1, stats
            assert stats["alive"] == 1, stats
            # The healed worker answers without any request having paid
            # for the corpse.
            assert pool.solve(family_text(), time_limit=30.0)["status"] == UNSAT
        finally:
            pool.kill()

    def test_circuit_breaker_opens_and_recovers(self):
        plan = FaultPlan.parse("pool.solve:crash@1x2")
        pool = WorkerPool(size=1, fault_plan=plan,
                          breaker_threshold=2, breaker_cooldown=0.2)
        try:
            text = family_text()
            for _ in range(2):  # consecutive worker deaths open the circuit
                assert pool.solve(text, family="adder",
                                  time_limit=30.0)["status"] == ERROR
            rejected = pool.solve(text, family="adder", time_limit=30.0)
            assert rejected["stats"].get("circuit_open") == 1.0
            assert "circuit breaker open" in rejected["error"]
            assert pool.stats()["breaker_opens"] == 1
            assert pool.stats()["breaker_rejections"] == 1
            assert pool.breaker_state()["adder"]["open"] == 1.0
            # After the cooldown the half-open probe (schedule is past
            # its crashes) succeeds and closes the circuit.
            time.sleep(0.25)
            probe = pool.solve(text, family="adder", time_limit=30.0)
            assert probe["status"] == UNSAT
            assert pool.breaker_state() == {}
        finally:
            pool.kill()

    def test_breaker_ignores_formula_level_failures(self):
        pool = WorkerPool(size=1, breaker_threshold=1)
        try:
            # A malformed formula fails *in* the worker (contained
            # ERROR) — the worker is healthy, the breaker must not trip.
            bad = pool.solve("p cnf 1 1\nnot a clause\n", family="adder")
            assert bad["status"] == ERROR
            assert pool.breaker_state() == {}
            assert pool.solve(family_text(), family="adder",
                              time_limit=30.0)["status"] == UNSAT
        finally:
            pool.kill()


# ----------------------------------------------------------------------
# client resilience
# ----------------------------------------------------------------------

class TestClientResilience:
    def test_mid_frame_eof_is_a_typed_error(self):
        # Regression: a reply cut off mid-frame used to surface as a
        # raw json.JSONDecodeError from deep inside the client.
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]

        def serve_half_a_frame():
            conn, _ = listener.accept()
            conn.recv(65536)
            conn.sendall(b'{"id": 1, "ok": true, "status": "UNS')  # no \n
            conn.close()

        thread = threading.Thread(target=serve_half_a_frame, daemon=True)
        thread.start()
        try:
            with ServiceClient(port=port, timeout=5.0, retries=0) as client:
                with pytest.raises(ServiceProtocolError,
                                   match="mid-frame") as excinfo:
                    client.request({"op": "ping", "id": 1})
            assert excinfo.value.partial.startswith(b'{"id": 1')
            assert isinstance(excinfo.value, ServiceError)
        finally:
            listener.close()
            thread.join(timeout=5.0)

    def test_dropped_response_frame_is_retried_idempotently(self, tmp_path):
        # The server solves, then the connection dies mid-reply.  The
        # client's resubmission must land on the cached result — one
        # solve, one answer, no duplicate work.
        pool = WorkerPool(size=1)
        config = ServiceConfig(port=0, workers=1,
                               cache_dir=str(tmp_path / "cache"),
                               drain_timeout=5.0)
        server, _box, thread = start_server(config, pool)
        faults.install(FaultPlan.parse("server.send:drop@1"))
        try:
            with ServiceClient(port=server.port, timeout=30.0,
                               retries=3) as client:
                reply = client.solve(family_text(), family="adder",
                                     timeout=30.0)
                assert reply["status"] == UNSAT
                assert reply["cache"] in ("hit", "disk", "coalesced")
                assert client.retried >= 1
                stats = client.stats()
                assert stats["pool"]["completed"] == 1  # solved exactly once
        finally:
            faults.clear()
            stop_server(server, thread, pool)

    def test_slow_send_fault_is_survived(self, tmp_path):
        pool = WorkerPool(size=1)
        config = ServiceConfig(port=0, workers=1, drain_timeout=5.0)
        server, _box, thread = start_server(config, pool)
        faults.install(FaultPlan.parse("server.send:slow@1,seconds=0.2"))
        try:
            with ServiceClient(port=server.port, timeout=30.0) as client:
                started = time.monotonic()
                reply = client.solve(family_text(), family="adder",
                                     timeout=30.0)
                assert reply["status"] == UNSAT
                assert time.monotonic() - started >= 0.2
        finally:
            faults.clear()
            stop_server(server, thread, pool)

    def test_deadline_bounds_total_retry_time(self):
        # Nothing listens on the port: every attempt fails fast, and
        # the deadline must cut the backoff schedule short.
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        port = listener.getsockname()[1]
        listener.close()  # nothing will accept
        client = ServiceClient(port=port, timeout=0.2, retries=50,
                               backoff=0.05, deadline=0.5)
        started = time.monotonic()
        with pytest.raises(ServiceError):
            client.request({"op": "ping"})
        assert time.monotonic() - started < 5.0


# ----------------------------------------------------------------------
# backpressure + health probes
# ----------------------------------------------------------------------

class TestBackpressureAndHealth:
    @pytest.fixture
    def saturated_server(self, tmp_path):
        # max_pending=0: every genuinely new solve is an immediate BUSY.
        pool = WorkerPool(size=1)
        config = ServiceConfig(port=0, http_port=0, workers=1,
                               max_pending=0, drain_timeout=5.0)
        server, box, thread = start_server(config, pool)
        yield server
        stop_server(server, thread, pool)

    def test_busy_rejection_is_typed_and_counted(self, saturated_server):
        server = saturated_server
        with ServiceClient(port=server.port, retries=1,
                           backoff=0.01) as client:
            with pytest.raises(ServiceBusyError, match="busy"):
                client.solve(family_text(), family="adder", timeout=10.0)
            assert client.ping()["pong"] is True  # non-solve ops unaffected
            stats = client.stats()
            assert stats["busy_rejections"] >= 2  # initial try + retry
            assert stats["max_pending"] == 0

    def test_health_op_reports_not_ready(self, saturated_server):
        server = saturated_server
        with ServiceClient(port=server.port, retries=0) as client:
            health = client.health()
            assert health["live"] is True
            assert health["ready"] is False  # no queue headroom
            assert health["workers_alive"] == 1

    def test_http_healthz_and_readyz(self, saturated_server):
        server = saturated_server
        conn = http.client.HTTPConnection("127.0.0.1", server.http_port,
                                          timeout=10.0)
        try:
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            assert response.status == 200  # alive even while saturated
            response.read()
            conn.request("GET", "/readyz")
            response = conn.getresponse()
            assert response.status == 503  # not ready: zero headroom
            response.read()
        finally:
            conn.close()

    def test_ready_server_reports_ready(self, tmp_path):
        pool = WorkerPool(size=1)
        config = ServiceConfig(port=0, http_port=0, workers=1,
                               drain_timeout=5.0)
        server, _box, thread = start_server(config, pool)
        try:
            conn = http.client.HTTPConnection("127.0.0.1", server.http_port,
                                              timeout=10.0)
            try:
                conn.request("GET", "/readyz")
                assert conn.getresponse().status == 200
            finally:
                conn.close()
            with ServiceClient(port=server.port) as client:
                assert client.health()["ready"] is True
        finally:
            stop_server(server, thread, pool)


# ----------------------------------------------------------------------
# durability under disk faults
# ----------------------------------------------------------------------

class TestDiskFaults:
    def test_torn_cache_write_is_caught_and_counted(self, tmp_path):
        faults.install(FaultPlan.parse("cache.write:torn@1"))
        cache = ResultCache(capacity=1, disk_dir=str(tmp_path))
        cache.store("aa", {"status": "SAT"})     # disk write torn
        cache.store("bb", {"status": "UNSAT"})   # evicts aa from memory
        assert cache.lookup("aa") is None        # torn entry must not serve
        stats = cache.stats.as_dict()
        assert stats["disk_corrupt"] == 1
        assert stats["disk_quarantined"] == 1
        assert (tmp_path / "aa.json.corrupt").exists()
        # The rerun writes a good entry over the quarantined slot.
        cache.store("aa", {"status": "SAT"})
        cache.store("bb", {"status": "UNSAT"})
        assert cache.lookup("aa")["cache"] == "disk"

    def test_cache_write_ioerror_is_counted_not_fatal(self, tmp_path):
        faults.install(FaultPlan.parse("cache.write:ioerror@1"))
        cache = ResultCache(capacity=4, disk_dir=str(tmp_path))
        cache.store("aa", {"status": "SAT"})  # disk write fails, memory ok
        assert cache.stats.disk_write_errors == 1
        assert cache.lookup("aa")["cache"] == "hit"

    def test_startup_recovery_scan(self, tmp_path):
        from repro import durable

        good = ResultCache(capacity=4, disk_dir=str(tmp_path), recover=False)
        good.store("good", {"status": "SAT"})
        # A torn result, a garbage checkpoint and a leftover tmp file.
        blob = (tmp_path / "good.json").read_bytes()
        (tmp_path / "torn.json").write_bytes(blob[: len(blob) // 2])
        (tmp_path / "junk.ckpt").write_text("not json at all")
        (tmp_path / "dead.json.tmp.123").write_text("half a write")

        cache = ResultCache(capacity=4, disk_dir=str(tmp_path), recover=False)
        report = cache.recover()
        assert report == {"results_ok": 1, "checkpoints_ok": 0,
                          "quarantined": 2, "tmp_removed": 1}
        assert (tmp_path / ("torn.json" + durable.QUARANTINE_SUFFIX)).exists()
        assert (tmp_path / ("junk.ckpt" + durable.QUARANTINE_SUFFIX)).exists()
        assert not (tmp_path / "dead.json.tmp.123").exists()
        assert cache.stats.disk_corrupt == 2
        assert cache.lookup("good")["status"] == "SAT"

    def test_torn_log_append_is_detected_on_load(self, tmp_path):
        # The torn record must cost exactly itself: the appends around
        # it still load, and the loss is counted, not silent.
        faults.install(FaultPlan.parse("log.append:torn@2"))
        path = str(tmp_path / "results.jsonl")
        with ResultLog(path) as log:
            for index in range(3):
                log.append({"instance": f"i{index}", "solver": "HQS",
                            "status": "SAT"})
        loaded = ResultLog(path)
        done = loaded.load()
        assert set(done) == {("i0", "HQS"), ("i2", "HQS")}
        assert loaded.corrupt_lines == 1  # the torn record is counted

    def test_torn_tail_is_fenced_across_reopen(self, tmp_path):
        # A crash right after a torn append: the next session's writer
        # must not glue its first record onto the torn tail.
        faults.install(FaultPlan.parse("log.append:torn@1"))
        path = str(tmp_path / "results.jsonl")
        with ResultLog(path) as log:
            log.append({"instance": "torn", "solver": "HQS", "status": "SAT"})
        faults.clear()
        with ResultLog(path) as log:
            log.append({"instance": "after", "solver": "HQS", "status": "SAT"})
        loaded = ResultLog(path)
        assert set(loaded.load()) == {("after", "HQS")}
        assert loaded.corrupt_lines == 1

    def test_log_ioerror_fault_raises(self, tmp_path):
        faults.install(FaultPlan.parse("log.append:ioerror@1"))
        with ResultLog(str(tmp_path / "x.jsonl")) as log:
            with pytest.raises(OSError, match="injected"):
                log.append({"instance": "i", "solver": "S", "status": "SAT"})


# ----------------------------------------------------------------------
# stats surface
# ----------------------------------------------------------------------

class TestStatsSurface:
    def test_stats_op_exposes_durability_and_supervision_counters(
        self, tmp_path
    ):
        pool = WorkerPool(size=1, heartbeat_interval=0.5)
        config = ServiceConfig(port=0, workers=1,
                               cache_dir=str(tmp_path / "cache"),
                               drain_timeout=5.0)
        server, _box, thread = start_server(config, pool)
        try:
            with ServiceClient(port=server.port) as client:
                stats = client.stats()
            for key in ("disk_corrupt", "disk_quarantined",
                        "disk_write_errors"):
                assert key in stats["cache"], stats["cache"]
            for key in ("heartbeats", "heartbeat_failures",
                        "supervised_restarts", "breaker_opens",
                        "breaker_rejections", "backoff_slept_s"):
                assert key in stats["pool"], stats["pool"]
            for key in ("pending", "max_pending", "busy_rejections"):
                assert key in stats, stats
        finally:
            stop_server(server, thread, pool)
