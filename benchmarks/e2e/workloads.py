"""The four workloads of the end-to-end benchmark and their metrics.

Every workload solves PEC instances from :mod:`repro.pec.families`.  The
circuits are fixed (generator seed :data:`CIRCUIT_SEED`); the run's
``--seed`` draws what the program receives: the clause order and the
literal order of each serialized DQDIMACS text, the order in which a
batch pass solves its instances, and the request stream of
``serve-repeat``.  Fixing the circuits is deliberate: the generator seed
also draws sizes, black-box positions and the SAT/UNSAT mix, and moved a
pass of the Table I suite between 3.1 s and 12.8 s over four seeds,
which would hide any regression smaller than that.

A run repeats passes over the workload until it has made at least
``min_passes`` and measured for ``seconds``.  Times are medians over
passes, scaled to full machine speed (:mod:`speed_probe`).
"""

from __future__ import annotations

import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.hqs import HqsSolver
from repro.core.result import SAT, UNSAT, Limits
from repro.formula.dqdimacs import parse_dqdimacs, write_dqdimacs
from repro.pec.families import FAMILIES, generate_family
from repro.service.client import ServiceClient, ServiceError

import tracing
from speed_probe import calibration_ms, speed_scale

#: Generator seed of every circuit (the repository's default suite seed).
CIRCUIT_SEED = 2015
#: Per-instance budget, as in the scaled Table I runs.
TIME_LIMIT = 30.0
NODE_LIMIT = 200_000
#: ``hqs-serve --workers`` and client connections (the machine has 2 cores).
WORKERS = 2
CONNECTIONS = 2
#: Batch set-up is repeated this often per run; ``setup_s`` is the median.
SETUP_REPEATS = 3
MIN_PASSES = 3
#: A pass's client connections must finish within this (run cap: 180 s).
PASS_TIMEOUT = 150.0

HERE = os.path.dirname(os.path.abspath(__file__))
SERVE_HOST = os.path.join(HERE, "serve_host.py")
SPEED_PROBE = os.path.join(HERE, "speed_probe.py")


@dataclass(frozen=True)
class Workload:
    """One set of inputs: ``suite`` lists ``(family, scale, count)``."""

    name: str
    kind: str  # "batch": in-process solves; "serve": through hqs-serve
    suite: Tuple[Tuple[str, float, int], ...]
    #: serve: requests per pass drawn from the suite (0 = each once).
    requests: int = 0
    #: serve: send the family name as the routing hint.
    hint: bool = False


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # The paper's Table I families: QBF back-end and AIG kernel bound.
        Workload("table1", "batch", tuple((f, 1.5, 3) for f in FAMILIES)),
        # Large inputs from easy families: front-end stages weigh more.
        Workload("wide", "batch", (("pec_xor", 8.0, 3), ("bitcell", 20.0, 3),
                                   ("lookahead", 3.0, 3), ("adder", 4.0, 3))),
        # Read path: every request is a cache hit, the workers idle.
        Workload("serve-repeat", "serve",
                 tuple((f, 1.0, 8) for f in ("adder", "bitcell", "lookahead", "pec_xor", "z4")),
                 requests=2000),
        # Miss and write path: FRAIG on warm workers, stores, log appends.
        Workload("serve-unique", "serve",
                 tuple((f, 0.8, 3 if f == "comp" else 4) for f in FAMILIES), hint=True),
    )
}

#: (name, unit) of the end-to-end metrics, reported on every workload.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("latency_ms.p50", "ms"),
    ("latency_ms.p90", "ms"),
    ("solved", "count"),
)

#: (name, unit) of the per-layer metrics of a traced run (per pass).
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("trace.pass_s", "s"),
    ("formula.parse_s", "s"),
    ("preprocess.s", "s"),
    ("aig.build_s", "s"),
    ("selection.s", "s"),
    ("maxsat.conflicts", "count"),
    ("depgraph.s", "s"),
    ("elimination.s", "s"),
    ("elimination.universal", "count"),
    ("unitpure.s", "s"),
    ("qbf.self_s", "s"),
    ("qbf.quantifier_eliminations", "count"),
    ("aig.cofactor2_s", "s"),
    ("aig.extract_s", "s"),
    ("aig.restrict_s", "s"),
    ("aig.cone_s", "s"),
    ("aig.nodes_visited", "count"),
    ("aig.nodes_per_s", "1/s"),
    ("aig.strash_hit_rate", "ratio"),
    ("sat.s", "s"),
    ("sat.conflicts", "count"),
    ("sat.propagations", "count"),
    ("sat.props_per_s", "1/s"),
    ("sat.warm_learnts", "count"),
    ("fraig.s", "s"),
    ("fraig.sweeps", "count"),
    ("gc.s", "s"),
    ("gc.collections", "count"),
    ("hqs.self_s", "s"),
    ("server.admit_s", "s"),
    ("cache.lookup_s", "s"),
    ("cache.hit_rate", "ratio"),
    ("cache.store_s", "s"),
    ("log.append_s", "s"),
    ("pool.wait_s", "s"),
    ("pool.busy_ratio", "ratio"),
    ("worker.request_s", "s"),
    ("worker.solve_s", "s"),
    ("worker.qbf_s", "s"),
)

#: ``SolveResult.stats`` keys summed per pass (batch results and serve
#: miss replies alike).
STAT_KEYS = (
    "kernel_nodes_visited", "kernel_strash_hits", "kernel_strash_lookups",
    "sat_conflicts", "sat_propagations", "sat_warm_learnts", "sat_fraig_sweeps",
    "maxsat_conflicts", "universal_eliminations", "qbf_quantifier_eliminations",
    "time_fraig", "time_qbf",
)


class Item:
    """One formula as the program receives it, with its known answer."""

    __slots__ = ("name", "family", "text", "expected")

    def __init__(self, name: str, family: str, text: str, expected: bool):
        self.name = name
        self.family = family
        self.text = text
        self.expected = expected


def present(text: str, rng: random.Random) -> str:
    """The same DQDIMACS formula with clause and literal order from ``rng``."""
    lines = text.splitlines()
    header = [line for line in lines if line[:1] in ("p", "a", "e", "d")]
    clauses = [line.split()[:-1] for line in lines if line[:1] not in ("p", "a", "e", "d")]
    for clause in clauses:
        rng.shuffle(clause)
    rng.shuffle(clauses)
    return "\n".join(header + [" ".join(c + ["0"]) for c in clauses]) + "\n"


def build_items(suite: Sequence[Tuple[str, float, int]], seed: int) -> List[Item]:
    rng = random.Random(seed)
    items = []
    for family, scale, count in suite:
        for instance in generate_family(family, count, scale=scale, seed=CIRCUIT_SEED):
            text = present(write_dqdimacs(instance.formula), rng)
            items.append(Item(instance.name, family, text, bool(instance.expected)))
    return items


class Tally:
    """Verdict checks over a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong: List[str] = []

    def record(self, item: Item, status: Optional[str], seconds: float, scale: float,
               into: "Pass") -> bool:
        """Count one answer and its latency; returns whether it was a verdict."""
        self.attempted += 1
        into.samples.append((item.name, seconds, scale))
        if status not in (SAT, UNSAT):
            self.failed += 1
            return False
        if (status == SAT) != item.expected:
            self.wrong.append(f"{item.name}: {status}")
        return True


def check_setup(item: Item, status: Optional[str], wrong: List[str]) -> None:
    """Verdicts outside the measured passes must be right too."""
    if status not in (SAT, UNSAT) or (status == SAT) != item.expected:
        wrong.append(f"{item.name}: {status} during set-up")


def _add_stats(sums: Dict[str, float], stats: Dict[str, object]) -> None:
    for key in STAT_KEYS:
        sums[key] = sums.get(key, 0.0) + float(stats.get(key, 0.0) or 0.0)


@dataclass
class Pass:
    """What one pass measured.

    ``wall_s`` is raw wall-clock; ``wall_s * scale`` is the reported time
    (see :func:`speed_scale`).
    """

    wall_s: float
    scale: float = 1.0
    serve: bool = False
    setup_s: float = 0.0
    solved: int = 0
    stats: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, Dict[str, float]] = field(default_factory=dict)
    worker_busy: Dict[int, float] = field(default_factory=dict)
    hits: int = 0
    requests: int = 0
    spans: List[List[list]] = field(default_factory=list)
    #: (item name, raw latency seconds, scale) per answer
    samples: List[Tuple[str, float, float]] = field(default_factory=list)


@dataclass
class RunResult:
    workload: str
    seed: int
    trace: bool
    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, Tuple[float, str]]
    wrong: List[str]
    passes: List[Pass]
    #: (raw seconds, scale) per set-up
    setups: List[Tuple[float, float]]


# ----------------------------------------------------------------------
# batch workloads: parse + HqsSolver().solve in this process
# ----------------------------------------------------------------------

def solve_item(item: Item, tracer: Optional[tracing.Tracer]):
    """Parse and solve one formula: the timed path of a batch pass."""
    if tracer is None:
        return HqsSolver().solve(parse_dqdimacs(item.text), Limits(TIME_LIMIT, NODE_LIMIT))
    tracer.tag = item.name
    record = tracer.open("formula.parse")
    try:
        formula = parse_dqdimacs(item.text)
    finally:
        tracer.close(record)
    return HqsSolver().solve(formula, Limits(TIME_LIMIT, NODE_LIMIT))


def run_batch(workload: Workload, seed: int, seconds: float, trace: bool,
              min_passes: int) -> RunResult:
    setups: List[Tuple[float, float]] = []
    wrong: List[str] = []
    for _ in range(SETUP_REPEATS):
        before = calibration_ms()
        started = time.monotonic()
        items = build_items(workload.suite, seed)
        # First solve in the process: lazy imports and first-call costs.
        warm = min(items, key=lambda item: len(item.text))
        check_setup(warm, solve_item(warm, None).status, wrong)
        setups.append((time.monotonic() - started, speed_scale(before, calibration_ms())))

    tracer = tracing.Tracer() if trace else None
    if tracer is not None:
        tracer.install(tracing.SOLVER_LAYERS)
    tally = Tally()
    passes: List[Pass] = []
    order_rng = random.Random(seed)
    started = time.monotonic()
    calibration = calibration_ms()
    try:
        while len(passes) < min_passes or time.monotonic() - started < seconds:
            order = list(range(len(items)))
            order_rng.shuffle(order)
            done = Pass(0.0)
            scaled = 0.0
            for index in order:
                item = items[index]
                tick = time.monotonic()
                result = solve_item(item, tracer)
                elapsed = time.monotonic() - tick
                after = calibration_ms()
                scale = speed_scale(calibration, after)
                calibration = after
                done.solved += tally.record(item, result.status, elapsed, scale, done)
                done.wall_s += elapsed
                scaled += elapsed * scale
                _add_stats(done.stats, result.stats)
            done.scale = scaled / done.wall_s
            if tracer is not None:
                done.spans = tracer.take()
                done.layers = tracing.layer_table(done.spans)
            passes.append(done)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return _finish(workload, seed, trace, tally, wrong, passes, setups)


# ----------------------------------------------------------------------
# serve workloads: hqs-serve in a child process, load from this one
# ----------------------------------------------------------------------

class ServerProcess:
    """``serve_host.py`` running ``hqs-serve`` on an ephemeral port."""

    def __init__(self, workdir: str, spans_path: Optional[str]):
        self.workdir = workdir
        self.spans_path = spans_path
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self, timeout: float = 60.0) -> None:
        command = [sys.executable, SERVE_HOST]
        if self.spans_path is not None:
            command += ["--spans", self.spans_path]
        command += [
            "--", "--host", "127.0.0.1", "--port", "0", "--workers", str(WORKERS),
            "--cache-dir", os.path.join(self.workdir, "cache"),
            "--log", os.path.join(self.workdir, "results.jsonl"),
        ]
        self.proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
        deadline = time.monotonic() + timeout
        line = ""
        while "listening on" not in line:
            line = self.proc.stdout.readline()
            if not line or time.monotonic() > deadline:
                raise RuntimeError("hqs-serve did not come up")
        self.port = int(line.rsplit(":", 1)[1].split()[0])

    def stop(self, timeout: float = 60.0) -> None:
        """Drain through the ``shutdown`` op; kill if that fails."""
        if self.proc is None:
            return
        try:
            if self.proc.poll() is None and self.port:
                with ServiceClient(port=self.port, timeout=timeout, retries=0) as client:
                    client.shutdown()
            self.proc.communicate(timeout=timeout)
        except Exception:
            self.proc.kill()
            self.proc.communicate()
            raise
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.communicate()


def _send(port: int, requests: List[Item], hint: bool, replies: List[tuple]) -> None:
    """Closed loop over one connection: each request waits for its reply."""
    with ServiceClient(port=port, timeout=TIME_LIMIT * 4, retries=0) as client:
        for item in requests:
            tick = time.monotonic()
            try:
                reply = client.solve(
                    item.text, family=item.family if hint else None,
                    timeout=TIME_LIMIT, node_limit=NODE_LIMIT,
                )
            except ServiceError as exc:  # a lost request is a failed one
                reply = {"status": None, "error": str(exc)}
            replies.append((item, reply, time.monotonic() - tick))


def _drive(port: int, streams: List[List[Item]], hint: bool) -> Tuple[float, List[tuple]]:
    """Run one connection per stream concurrently; returns (wall, replies)."""
    replies: List[List[tuple]] = [[] for _ in streams]
    threads = [
        threading.Thread(target=_send, args=(port, stream, hint, out), daemon=True)
        for stream, out in zip(streams, replies)
    ]
    started = time.monotonic()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(max(0.0, started + PASS_TIMEOUT - time.monotonic()))
        if thread.is_alive():
            raise RuntimeError("a client connection stalled")
    wall = time.monotonic() - started
    if sum(map(len, replies)) != sum(map(len, streams)):
        raise RuntimeError("a client connection died (traceback above)")
    return wall, [r for out in replies for r in out]


def _streams(workload: Workload, items: List[Item], seed: int, index: int) -> List[List[Item]]:
    if workload.requests:
        rng = random.Random((seed << 8) ^ index)
        drawn = [rng.choice(items) for _ in range(workload.requests)]
        return [drawn[k::CONNECTIONS] for k in range(CONNECTIONS)]
    # One connection per worker, each carrying the families that
    # WorkerPool.route sends to that worker (CRC-32 of the hint modulo
    # the pool size), so every worker sees the same order in every run:
    # warm per-family sessions make a request's work depend on it.
    return [
        [item for item in items
         if zlib.crc32(item.family.encode("utf-8")) % WORKERS == k]
        for k in range(CONNECTIONS)
    ]


def _window(threads: List[List[list]], start: float, end: float) -> List[List[list]]:
    """Spans lying inside ``[start, end]``, parents re-indexed."""
    kept_threads = []
    for records in threads:
        remap: Dict[int, int] = {}
        kept: List[list] = []
        for index, record in enumerate(records):
            if record[tracing.START] >= start and record[tracing.END] <= end:
                remap[index] = len(kept)
                kept.append(record[:tracing.PARENT]
                            + [remap.get(record[tracing.PARENT], -1)]
                            + record[tracing.PARENT + 1:])
        kept_threads.append(kept)
    return kept_threads


class SpeedProbes:
    """``speed_probe.py`` on every core this process may run on."""

    def __init__(self) -> None:
        self.samples: List[List[Tuple[float, float]]] = []
        self.procs = [
            subprocess.Popen([sys.executable, SPEED_PROBE, str(cpu)],
                             stdout=subprocess.PIPE, text=True)
            for cpu in sorted(os.sched_getaffinity(0))
        ]

    def stop(self) -> None:
        for proc in self.procs:
            proc.terminate()
        for proc in self.procs:
            out, _ = proc.communicate()
            self.samples.append([
                (float(fields[0]), float(fields[1]))
                for fields in (line.split() for line in out.splitlines())
                if len(fields) == 2
            ])

    def scale(self, start: float, end: float) -> float:
        """:func:`speed_scale` of the cores' mean calibrations in a window."""
        means = []
        for samples in self.samples:
            inside = [ms for stamp, ms in samples if start <= stamp <= end]
            if inside:
                means.append(statistics.mean(inside))
        return speed_scale(*means) if means else 1.0


def run_serve(workload: Workload, seed: int, seconds: float, trace: bool,
              min_passes: int, workroot: str) -> RunResult:
    items = build_items(workload.suite, seed)
    tally = Tally()
    wrong: List[str] = []
    passes: List[Pass] = []
    windows: List[Tuple[float, float, float]] = []
    probes = SpeedProbes()
    started = time.monotonic()
    try:
        while len(passes) < min_passes or time.monotonic() - started < seconds:
            workdir = tempfile.mkdtemp(dir=workroot)
            spans_path = os.path.join(workdir, "spans.json") if trace else None
            server = ServerProcess(workdir, spans_path)
            try:
                setup_start = time.monotonic()
                server.start()
                if workload.requests:
                    # Set-up solves every formula once; the pass repeats them.
                    _, primed = _drive(server.port, [items[k::CONNECTIONS]
                                                     for k in range(CONNECTIONS)], False)
                    for item, reply, _ in primed:
                        check_setup(item, reply.get("status"), wrong)
                streams = _streams(workload, items, seed, len(passes))
                pass_start = time.monotonic()
                wall, replies = _drive(server.port, streams, workload.hint)
                pass_end = time.monotonic()
            finally:
                server.stop()
            windows.append((setup_start, pass_start, pass_end))
            done = Pass(wall, serve=True, setup_s=pass_start - setup_start,
                        requests=len(replies))
            for item, reply, latency in replies:
                done.solved += tally.record(item, reply.get("status"), latency, 1.0, done)
                if reply.get("cache") in ("hit", "disk"):
                    done.hits += 1
                elif reply.get("cache") == "miss":
                    _add_stats(done.stats, reply.get("stats") or {})
                    pid = int(reply.get("worker_pid", 0))
                    runtime = float(reply.get("runtime", 0.0))
                    done.worker_busy[pid] = done.worker_busy.get(pid, 0.0) + runtime
                    done.stats["worker_runtime"] = done.stats.get("worker_runtime", 0.0) + runtime
            if spans_path is not None:
                done.spans = _window(tracing.load_dump(spans_path), pass_start, pass_end)
                done.layers = tracing.layer_table(done.spans)
            shutil.rmtree(workdir, ignore_errors=True)
            passes.append(done)
    finally:
        probes.stop()
    setups = []
    for done, (setup_start, pass_start, pass_end) in zip(passes, windows):
        setups.append((done.setup_s, probes.scale(setup_start, pass_start)))
        done.scale = probes.scale(pass_start, pass_end)
        done.samples = [(name, latency, done.scale) for name, latency, _ in done.samples]
    return _finish(workload, seed, trace, tally, wrong, passes, setups)


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------

def layer_metrics(p: Pass) -> Dict[str, float]:
    """Per-layer values of one traced pass (see :data:`PER_LAYER`).

    Times are self times, scaled like the pass.  Solver counters and the
    ``time_*`` stage timers come from ``SolveResult.stats``: the batch
    results, or the replies to cache misses on a serve workload.
    """
    layers, stats, scale = p.layers, p.stats, p.scale

    def busy(*names: str) -> float:
        return scale * sum(layers.get(name, {}).get("self_s", 0.0) for name in names)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    kernel_s = busy("aig.cofactor2", "aig.restrict", "aig.extract", "aig.build", "elimination")
    lookups = stats.get("kernel_strash_lookups", 0.0)
    workers = list(p.worker_busy.values())
    serve = float(p.serve)
    return {
        "trace.pass_s": p.wall_s * scale,
        "formula.parse_s": busy("formula.parse"),
        "preprocess.s": busy("preprocess"),
        "aig.build_s": busy("aig.build"),
        "selection.s": busy("selection"),
        "maxsat.conflicts": stats.get("maxsat_conflicts", 0.0),
        "depgraph.s": busy("depgraph"),
        "elimination.s": busy("elimination"),
        "elimination.universal": stats.get("universal_eliminations", 0.0),
        "unitpure.s": busy("unitpure"),
        "qbf.self_s": busy("qbf"),
        "qbf.quantifier_eliminations": stats.get("qbf_quantifier_eliminations", 0.0),
        "aig.cofactor2_s": busy("aig.cofactor2"),
        "aig.extract_s": busy("aig.extract"),
        "aig.restrict_s": busy("aig.restrict"),
        "aig.cone_s": busy("aig.cone"),
        "aig.nodes_visited": stats.get("kernel_nodes_visited", 0.0),
        "aig.nodes_per_s": ratio(stats.get("kernel_nodes_visited", 0.0), kernel_s),
        "aig.strash_hit_rate": ratio(stats.get("kernel_strash_hits", 0.0), lookups),
        "sat.s": busy("sat"),
        "sat.conflicts": stats.get("sat_conflicts", 0.0),
        "sat.propagations": stats.get("sat_propagations", 0.0),
        "sat.props_per_s": ratio(stats.get("sat_propagations", 0.0), busy("sat")),
        "sat.warm_learnts": stats.get("sat_warm_learnts", 0.0),
        "fraig.s": stats.get("time_fraig", 0.0) * scale,
        "fraig.sweeps": stats.get("sat_fraig_sweeps", 0.0),
        "gc.s": busy("gc"),
        "gc.collections": float(layers.get("gc", {}).get("count", 0)),
        "hqs.self_s": busy("hqs"),
        "server.admit_s": serve * busy("formula.parse", "formula.fingerprint"),
        "cache.lookup_s": busy("cache.lookup"),
        "cache.hit_rate": ratio(p.hits, p.requests),
        "cache.store_s": busy("cache.store"),
        "log.append_s": busy("log.append"),
        "pool.wait_s": busy("pool.solve"),
        "pool.busy_ratio": max(workers) / statistics.mean(workers) if workers else 0.0,
        "worker.request_s": scale * layers.get("worker.request", {}).get("total_s", 0.0),
        "worker.solve_s": scale * stats.get("worker_runtime", 0.0),
        "worker.qbf_s": scale * serve * stats.get("time_qbf", 0.0),
    }


def _finish(workload: Workload, seed: int, trace: bool, tally: Tally, wrong: List[str],
            passes: List[Pass], setups: List[Tuple[float, float]]) -> RunResult:
    wrong = wrong + tally.wrong
    if trace:
        per_pass = [layer_metrics(p) for p in passes]
        metrics = {
            name: (statistics.median(values[name] for values in per_pass), unit)
            for name, unit in PER_LAYER
        }
    else:
        # A formula's latency is its median over the run; the percentiles
        # are over formulas, so the rank they land on does not depend on
        # how many passes fitted into the run.
        samples: Dict[str, List[float]] = {}
        for p in passes:
            for name, seconds, scale in p.samples:
                samples.setdefault(name, []).append(seconds * scale * 1000.0)
        latencies_ms = [statistics.median(runs) for runs in samples.values()]
        values = {
            "setup_s": statistics.median(seconds * scale for seconds, scale in setups),
            "pass_s": statistics.median(p.wall_s * p.scale for p in passes),
            "latency_ms.p50": statistics.median(latencies_ms),
            "latency_ms.p90": statistics.quantiles(latencies_ms, n=10, method="inclusive")[-1],
            "solved": statistics.median(p.solved for p in passes),
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    return RunResult(workload.name, seed, trace, not wrong, tally.attempted, tally.failed,
                     metrics, wrong, passes, setups)


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 workroot: str, min_passes: int = MIN_PASSES) -> RunResult:
    if workload.kind == "batch":
        return run_batch(workload, seed, seconds, trace, min_passes)
    return run_serve(workload, seed, seconds, trace, min_passes, workroot)
