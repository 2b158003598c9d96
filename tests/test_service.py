"""Tests for the solver service: protocol, cache, warm pool, front door.

The end-to-end tests start a real :class:`~repro.service.server.ServiceServer`
on an ephemeral port inside a background thread (its own asyncio loop) and
talk to it with the blocking :class:`~repro.service.client.ServiceClient` —
the same path ``hqs-serve`` / ``hqs-client`` take, minus argparse.  Worker
pools are forked in the test's main thread *before* the loop starts,
matching the fork-before-threads discipline of :func:`repro.service.server.main`.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
import time

import pytest

from repro import durable
from repro.core.hqs import HqsSolver
from repro.formula.dqdimacs import parse_dqdimacs, write_dqdimacs
from repro.pec.families import make_adder, make_comp
from repro.core.checkpoint import formula_fingerprint
from repro.service import (
    DEFAULT_PORT,
    ProtocolError,
    ResultCache,
    ServiceClient,
    ServiceConfig,
    ServiceServer,
    SolverService,
    WorkerPool,
    decode_message,
    encode_message,
)
from repro.service import server as server_module
from repro.service.client import ServiceError
from repro.service.protocol import solve_request, validate_request


def family_text(size=4, boxes=2, buggy=True, seed=5):
    return write_dqdimacs(make_adder(size, boxes, buggy, seed=seed).formula)


# ----------------------------------------------------------------------
# protocol
# ----------------------------------------------------------------------

class TestProtocol:
    def test_round_trip(self):
        message = solve_request("p cnf 0 0\n", family="adder", timeout=1.5)
        line = encode_message(message)
        assert line.endswith(b"\n")
        assert b"\n" not in line[:-1]
        assert decode_message(line) == message

    def test_decode_rejects_garbage(self):
        for bad in (b"not json\n", b"[1, 2]\n", b"\xff\xfe\n"):
            with pytest.raises(ProtocolError):
                decode_message(bad)

    def test_validate_checks_op(self):
        with pytest.raises(ProtocolError):
            validate_request({"op": "frobnicate"})
        with pytest.raises(ProtocolError):
            validate_request({})

    def test_validate_solve_needs_formula(self):
        with pytest.raises(ProtocolError):
            validate_request({"op": "solve"})
        with pytest.raises(ProtocolError):
            validate_request({"op": "solve", "formula": ""})
        with pytest.raises(ProtocolError):
            validate_request({"op": "solve", "formula": "p", "timeout": -1})
        assert validate_request({"op": "solve", "formula": "p cnf 0 0"}) == "solve"

    def test_default_port_is_paper_year(self):
        assert DEFAULT_PORT == 20150  # DATE 2015


# ----------------------------------------------------------------------
# result cache
# ----------------------------------------------------------------------

class TestResultCache:
    def test_miss_then_hit(self):
        cache = ResultCache(capacity=4)
        assert cache.lookup("fp") is None
        assert cache.store("fp", {"status": "UNSAT", "runtime": 0.1})
        hit = cache.lookup("fp")
        assert hit["status"] == "UNSAT" and hit["cache"] == "hit"
        assert cache.stats.memory_hits == 1 and cache.stats.misses == 1

    def test_only_definitive_results_cached(self):
        cache = ResultCache(capacity=4)
        for status in ("UNKNOWN", "TIMEOUT", "ERROR"):
            assert not cache.store("fp-" + status, {"status": status})
            assert cache.lookup("fp-" + status) is None
        assert cache.stats.uncacheable == 3

    def test_lru_eviction(self):
        cache = ResultCache(capacity=2)
        cache.store("a", {"status": "SAT"})
        cache.store("b", {"status": "SAT"})
        cache.lookup("a")  # refresh a -> b is now least recent
        cache.store("c", {"status": "SAT"})
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.stats.evictions == 1

    def test_disk_tier_survives_eviction(self, tmp_path):
        cache = ResultCache(capacity=1, disk_dir=str(tmp_path))
        cache.store("a", {"status": "SAT", "runtime": 0.5})
        cache.store("b", {"status": "UNSAT"})  # evicts a from memory
        assert "a" not in cache
        hit = cache.lookup("a")
        assert hit is not None and hit["status"] == "SAT"
        assert hit["cache"] == "disk"
        assert cache.stats.disk_hits == 1
        # the disk hit promoted it back into memory
        assert cache.lookup("a")["cache"] == "hit"

    def test_checkpoint_paths(self, tmp_path):
        memory_only = ResultCache(capacity=2)
        assert memory_only.checkpoint_path("fp") is None
        cache = ResultCache(capacity=2, disk_dir=str(tmp_path))
        path = cache.checkpoint_path("fp")
        assert path is not None and not cache.has_checkpoint("fp")
        with open(path, "w") as handle:
            handle.write("snapshot")
        assert cache.has_checkpoint("fp")


# ----------------------------------------------------------------------
# warm worker pool
# ----------------------------------------------------------------------

class TestWorkerPool:
    def test_solves_and_answers(self):
        with WorkerPool(size=1) as pool:
            payload = pool.solve(family_text(buggy=True), family="adder")
            assert payload["status"] == "UNSAT"
            payload = pool.solve(family_text(buggy=False), family="adder")
            assert payload["status"] == "SAT"

    def test_worker_solves_like_batch(self):
        """A worker solve is a batch solve: same configuration, and no
        solver state carries over to the next same-family request."""
        text = family_text()
        batch = HqsSolver().solve(parse_dqdimacs(text))
        with WorkerPool(size=1) as pool:
            first = pool.solve(text, family="adder")
            second = pool.solve(text, family="adder")
        assert first["worker_pid"] == second["worker_pid"]
        for reply in (first, second):
            assert reply["status"] == batch.status
            assert "warm" not in reply
            assert reply["stats"]["sat_fraig_sweeps"] == 0
            for key in ("kernel_nodes_visited", "sat_queries", "sat_conflicts",
                        "universal_eliminations", "qbf_cegar_rounds"):
                assert reply["stats"][key] == batch.stats[key], key

    def test_family_routing_is_stable(self):
        with WorkerPool(size=3) as pool:
            assert pool.route("adder") == pool.route("adder")
            indices = {pool.route(None) for _ in range(6)}
            assert indices == {0, 1, 2}  # round-robin covers the pool

    def test_stalled_worker_is_hard_killed_and_recycled(self):
        with WorkerPool(size=1, grace=0.2) as pool:
            worker_before = pool._workers[0].process.pid
            payload = pool._request(
                0, {"op": "stall", "seconds": 30.0},
                time.monotonic() + 0.3,
            )
            assert payload["status"] == "TIMEOUT"
            assert payload["stats"]["hard_timeout"] == 1.0
            assert pool.hard_kills == 1
            # the slot was respawned and serves again
            after = pool.solve(family_text(), family="adder")
            assert after["status"] == "UNSAT"
            assert after["worker_pid"] != worker_before

    def test_dead_worker_is_recycled(self):
        with WorkerPool(size=1) as pool:
            pool._workers[0].process.kill()
            payload = pool.solve(family_text(), family="adder")
            assert payload["status"] == "ERROR"
            assert pool.worker_deaths == 1
            assert pool.solve(family_text(), family="adder")["status"] == "UNSAT"

    def test_bad_formula_is_contained(self):
        with WorkerPool(size=1) as pool:
            payload = pool.solve("this is not dqdimacs", family="x")
            assert payload["status"] == "ERROR"
            assert "Traceback" in payload["error"]
            # worker survived the exception
            assert pool.solve(family_text(), family="x")["status"] == "UNSAT"

    def test_shutdown_drains_idle_workers(self):
        pool = WorkerPool(size=2)
        pool.solve(family_text(), family="adder")
        summary = pool.shutdown(drain_timeout=5.0)
        assert summary == {"drained": 2, "killed": 0}
        assert all(not w.process.is_alive() for w in pool._workers)

    def test_checkpoint_resume_across_requests(self, tmp_path):
        """A budget-limited solve leaves a checkpoint; the retry resumes."""
        formula = write_dqdimacs(
            make_comp(6, 2, buggy=True, seed=11).formula
        )
        ckpt = str(tmp_path / "resume.ckpt")
        with WorkerPool(size=1) as pool:
            first = pool.solve(formula, family="comp",
                               node_limit=500, checkpoint=ckpt)
            assert first["status"] == "UNKNOWN"
            assert first["stats"].get("checkpoint_writes", 0) >= 1
            second = pool.solve(formula, family="comp", checkpoint=ckpt)
            assert second["status"] in ("SAT", "UNSAT")
            assert second["stats"].get("checkpoint_resumed") == 1.0


# ----------------------------------------------------------------------
# in-flight deduplication (transport-independent layer)
# ----------------------------------------------------------------------

class _BlockingPool:
    """Pool stand-in whose solve() blocks until released (deterministic
    overlap for the coalescing test)."""

    size = 2

    def __init__(self):
        self.calls = 0
        self.release = threading.Event()

    def solve(self, formula, family=None, time_limit=None,
              node_limit=None, checkpoint=None):
        self.calls += 1
        assert self.release.wait(10.0)
        return {"status": "UNSAT", "runtime": 0.01, "stats": {}}

    def stats(self):
        return {"workers": self.size}

    def shutdown(self, drain_timeout=10.0):
        return {"drained": self.size, "killed": 0}


class TestInflightDedup:
    def test_concurrent_duplicates_coalesce(self):
        pool = _BlockingPool()
        service = SolverService(pool, ResultCache(), ServiceConfig())
        text = family_text()

        async def go():
            first = asyncio.create_task(service.handle(solve_request(text)))
            await asyncio.sleep(0.05)  # first registers as in-flight
            second = asyncio.create_task(service.handle(solve_request(text)))
            await asyncio.sleep(0.05)
            pool.release.set()
            return await asyncio.gather(first, second)

        try:
            first, second = asyncio.run(go())
        finally:
            service.close()
        assert pool.calls == 1  # one solve answered both requests
        assert first["cache"] == "miss" and second["cache"] == "coalesced"
        assert first["status"] == second["status"] == "UNSAT"
        assert service.coalesced == 1

    def test_no_cache_bypasses_dedup_and_cache(self):
        pool = _BlockingPool()
        pool.release.set()
        service = SolverService(pool, ResultCache(), ServiceConfig())
        text = family_text()

        async def go():
            await service.handle(solve_request(text))
            return await service.handle(solve_request(text, no_cache=True))

        try:
            response = asyncio.run(go())
        finally:
            service.close()
        assert pool.calls == 2
        assert response["cache"] == "miss"
        # The repeat skipped the parse but not the solve.
        assert service.snapshot_stats()["admission"] == {
            "parses": 1, "memo_hits": 1, "memo_entries": 1}


# ----------------------------------------------------------------------
# admission memo (exact formula text -> fingerprint)
# ----------------------------------------------------------------------

def reorder_clauses(text):
    """The same formula with its clause lines in reverse order."""
    lines = text.splitlines()
    prefix = [line for line in lines if line[:1] in "cpaed"]
    clauses = [line for line in lines if line[:1] not in "cpaed"]
    return "\n".join(prefix + clauses[::-1]) + "\n"


class TestAdmissionMemo:
    @pytest.fixture
    def parsed(self, monkeypatch):
        """Texts the service handed to the parser, in order."""
        texts = []

        def spy(text):
            texts.append(text)
            return parse_dqdimacs(text)

        monkeypatch.setattr(server_module, "parse_dqdimacs", spy)
        return texts

    @staticmethod
    def run(messages, **config):
        """Send ``messages`` one after another to a fresh service."""
        pool = _BlockingPool()
        pool.release.set()
        service = SolverService(pool, ResultCache(), ServiceConfig(**config))

        async def go():
            return [await service.handle(message) for message in messages]

        try:
            replies = asyncio.run(go())
        finally:
            service.close()
        return replies, service, pool

    def test_identical_requests_parse_once(self, parsed):
        text = family_text()
        replies, service, pool = self.run([solve_request(text)] * 5)
        assert parsed == [text]
        fingerprint = formula_fingerprint(parse_dqdimacs(text))
        assert all(reply["fingerprint"] == fingerprint for reply in replies)
        assert [reply["cache"] for reply in replies] == ["miss"] + ["hit"] * 4
        assert pool.calls == 1
        assert service.snapshot_stats()["admission"] == {
            "parses": 1, "memo_hits": 4, "memo_entries": 1}

    def test_reordered_text_is_canonicalized_again(self, parsed):
        text = family_text()
        reordered = reorder_clauses(text)
        assert reordered != text
        replies, _service, pool = self.run(
            [solve_request(text), solve_request(reordered)])
        assert parsed == [text, reordered]
        assert replies[0]["fingerprint"] == replies[1]["fingerprint"]
        assert replies[1]["cache"] == "hit"
        assert pool.calls == 1

    def test_bad_formula_is_never_memoized(self, parsed):
        bad = solve_request("p cnf nope")
        replies, service, pool = self.run([bad, bad])
        assert replies[0] == replies[1]
        assert replies[0]["error"].startswith("bad formula: ")
        assert len(parsed) == 2 and pool.calls == 0
        stats = service.snapshot_stats()
        assert stats["request_errors"] == 2
        assert stats["admission"]["memo_entries"] == 0

    def test_lone_surrogate_is_a_bad_formula(self):
        # JSON admits a lone surrogate escape; it must reach the parser
        # (and its "bad formula" reply), not fail while being hashed.
        message = decode_message(
            b'{"op":"solve","formula":"p cnf 1 1\\n\\ud800 0\\n"}')
        replies, service, _pool = self.run([message])
        assert replies[0]["error"].startswith("bad formula: ")
        assert service.errors == 1

    def test_memo_is_bounded_by_cache_capacity(self, parsed):
        texts = [f"p cnf {n} 1\ne {n} 0\n{n} 0\n" for n in (1, 2, 3)]
        order = texts + [texts[0], texts[2]]
        replies, service, _pool = self.run(
            [solve_request(text) for text in order], cache_capacity=2)
        assert all(reply["ok"] for reply in replies)
        # The oldest text fell out when the third arrived; the newest
        # one is still remembered.
        assert parsed == texts + [texts[0]]
        assert service.snapshot_stats()["admission"] == {
            "parses": 4, "memo_hits": 1, "memo_entries": 2}


# ----------------------------------------------------------------------
# end-to-end server
# ----------------------------------------------------------------------

def start_server(config, pool):
    """Run a ServiceServer in a daemon thread; returns (server, box, thread).

    ``box["summary"]`` holds the shutdown summary once the thread exits.
    """
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


@pytest.fixture
def live_server(tmp_path):
    # Fork the pool in the main thread, before the server thread's loop.
    pool = WorkerPool(size=2)
    config = ServiceConfig(
        port=0, http_port=0, workers=2,
        cache_dir=str(tmp_path / "cache"),
        log_path=str(tmp_path / "results.jsonl"),
        drain_timeout=5.0,
    )
    server, box, thread = start_server(config, pool)
    yield server, box, config
    if thread.is_alive():
        server_loop_stop(server)
        thread.join(timeout=15.0)
    if any(w.process.is_alive() for w in pool._workers):
        pool.kill()


def server_loop_stop(server):
    try:
        with ServiceClient(port=server.port, timeout=5.0) as client:
            client.shutdown()
    except ServiceError:
        pass


class TestRetryJitter:
    """Regression tests for the seeded retry-backoff RNG (RPR003 fix)."""

    def _delays(self, client, payload, attempts=5):
        rng = client.jitter_rng(payload)
        return [client._backoff_delay(attempt, None, rng)
                for attempt in range(1, attempts + 1)]

    def test_same_seed_same_formula_replays_schedule(self):
        a = ServiceClient(seed=7)
        b = ServiceClient(seed=7)
        payload = "p cnf 1 1\n1 0\n"
        assert self._delays(a, payload) == self._delays(b, payload)

    def test_schedule_is_per_formula(self):
        client = ServiceClient(seed=7)
        first = self._delays(client, "p cnf 1 1\n1 0\n")
        second = self._delays(client, "p cnf 1 1\n-1 0\n")
        assert first != second
        # ...but re-deriving for the same formula replays it exactly,
        # regardless of how many other requests ran in between.
        assert self._delays(client, "p cnf 1 1\n1 0\n") == first

    def test_different_seeds_decorrelate(self):
        payload = "p cnf 1 1\n1 0\n"
        assert (self._delays(ServiceClient(seed=1), payload)
                != self._delays(ServiceClient(seed=2), payload))

    def test_unseeded_client_keeps_entropy_jitter(self):
        client = ServiceClient()  # seed=None: old behavior
        assert client.jitter_rng("x") is client._rng
        for attempt in range(1, 6):
            delay = client._backoff_delay(attempt, None)
            cap = min(client.backoff_cap,
                      client.backoff * (2 ** (attempt - 1)))
            assert 0.5 * cap <= delay <= 1.5 * cap

    def test_deadline_exhaustion_returns_none(self):
        client = ServiceClient(seed=3)
        assert client._backoff_delay(1, time.monotonic() - 1.0) is None


class TestServerEndToEnd:
    def test_solve_miss_then_hit_then_shutdown(self, live_server):
        server, box, config = live_server
        text = family_text()
        fingerprint = formula_fingerprint(parse_dqdimacs(text))
        with ServiceClient(port=server.port) as client:
            assert client.ping()["pong"] is True
            first = client.solve(text, family="adder", timeout=30.0)
            assert first["status"] == "UNSAT"
            assert first["cache"] == "miss"
            assert first["fingerprint"] == fingerprint
            second = client.solve(text, family="adder")
            assert second["cache"] == "hit"
            assert second["status"] == "UNSAT"
            stats = client.stats()
            assert stats["cache"]["memory_hits"] == 1
            assert stats["pool"]["completed"] == 1
            client.shutdown()
        # server drains and exits; exactly one fsynced log line
        deadline = time.monotonic() + 15.0
        while "summary" not in box and time.monotonic() < deadline:
            time.sleep(0.05)
        summary = box["summary"]
        assert summary["undrained"] == 0
        assert summary["pool"]["killed"] == 0
        with open(config.log_path) as handle:
            entries = [json.loads(durable.unframe_line(line)[0])
                       for line in handle if line.strip()]
        assert len(entries) == 1
        assert entries[0]["instance"] == fingerprint
        assert entries[0]["status"] == "UNSAT"

    def test_bad_requests_keep_connection_alive(self, live_server):
        server, _box, _config = live_server
        with ServiceClient(port=server.port) as client:
            with pytest.raises(ServiceError, match="bad formula"):
                client.solve("p cnf nope", family="x")
            with pytest.raises(ServiceError, match="unknown op"):
                client.request({"op": "launch-missiles"})
            # same connection still serves good requests
            assert client.solve(family_text())["status"] == "UNSAT"

    def test_http_front_end(self, live_server):
        import http.client

        server, _box, _config = live_server
        conn = http.client.HTTPConnection("127.0.0.1", server.http_port,
                                          timeout=30.0)
        try:
            body = json.dumps({"formula": family_text(), "family": "adder"})
            conn.request("POST", "/solve", body=body,
                         headers={"Content-Type": "application/json"})
            reply = json.loads(conn.getresponse().read())
            assert reply["ok"] is True and reply["status"] == "UNSAT"
        finally:
            conn.close()
        conn = http.client.HTTPConnection("127.0.0.1", server.http_port,
                                          timeout=10.0)
        try:
            conn.request("GET", "/stats")
            stats = json.loads(conn.getresponse().read())
            assert stats["requests"] >= 1
        finally:
            conn.close()

    def test_concurrent_duplicate_clients_coalesce_or_hit(self, live_server):
        server, _box, _config = live_server
        text = family_text(seed=9)
        results = []

        def hammer():
            with ServiceClient(port=server.port) as client:
                results.append(client.solve(text, family="adder",
                                            timeout=30.0))

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
        assert len(results) == 4
        statuses = {r["status"] for r in results}
        assert statuses == {"UNSAT"}
        tags = sorted(r["cache"] for r in results)
        assert tags.count("miss") == 1  # exactly one real solve
        assert all(tag in ("miss", "hit", "coalesced") for tag in tags)


class _RaisingPool(_BlockingPool):
    """Pool stand-in whose solve() fails the way a pool bug would."""

    def solve(self, formula, family=None, time_limit=None,
              node_limit=None, checkpoint=None):
        self.calls += 1
        raise RuntimeError("pool exploded")


@pytest.fixture
def stub_http_server():
    """A ServiceServer with HTTP over a pool that raises on solve."""
    config = ServiceConfig(port=0, http_port=0, drain_timeout=1.0)
    server, _box, thread = start_server(config, _RaisingPool())
    yield server
    server_loop_stop(server)
    thread.join(timeout=15.0)
    assert not thread.is_alive()


def http_exchange(port, raw):
    """Send raw request bytes; return (status code, JSON body)."""
    with socket.create_connection(("127.0.0.1", port), timeout=10.0) as sock:
        sock.sendall(raw)
        reply = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            reply += chunk
    head, _, body = reply.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body)


class TestHttpErrors:
    def test_negative_content_length_is_rejected(self, stub_http_server):
        code, body = http_exchange(
            stub_http_server.http_port,
            b"POST /solve HTTP/1.1\r\nContent-Length: -5\r\n\r\n")
        assert code == 400 and body == {"error": "bad content-length"}

    def test_solve_path_exception_is_a_counted_500(self, stub_http_server,
                                                   capsys):
        payload = json.dumps({"formula": family_text()}).encode("utf-8")
        code, body = http_exchange(
            stub_http_server.http_port,
            b"POST /solve HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
            % (len(payload), payload))
        assert code == 500
        assert body["ok"] is False
        assert body["error"].startswith("internal error: RuntimeError(")
        assert "Traceback" in capsys.readouterr().err
        code, stats = http_exchange(stub_http_server.http_port,
                                    b"GET /stats HTTP/1.1\r\n\r\n")
        assert code == 200 and stats["request_errors"] == 1
