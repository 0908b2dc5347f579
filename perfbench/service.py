"""The ``dashboard_service`` workload: the real ``repro serve`` process over
a prepared store, driven by two closed-loop dashboard clients.

Preparation builds a durable store of the flights table (cold build,
index persisted for all three attributes).  Each set-up spawns ``python -m
repro serve --store DIR --port 0``, waits for ``/readyz`` and times the
first correct answer; every server is stopped with SIGTERM and must drain
to exit code 0.  A traced run spawns the server through
``serve_traced.py``, which installs the span wrappers inside the server
process and writes its spans out when the server exits.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import queue
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import oracle
from harness import ROOT, SRC, Record, ensure_workdir, remove_workdir, vm_hwm_mb
from inproc import ATTRIBUTES, DELTA, flights_columns, flights_sql, flights_truth
from tracing import OP_HEADER, Span, per_op_layers

CLIENTS = 2
REPEATED_KEYS = 4  # per client; half of a client's requests repeat one
SETUP_REPEATS = 3
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 60.0
HERE = Path(__file__).resolve().parent


class Server:
    """One ``repro serve`` child process."""

    def __init__(self, store: Path, spans: Path | None = None) -> None:
        serve_args = ["serve", "--store", str(store), "--port", "0", "--sessions", "2"]
        if spans is None:
            cmd = [sys.executable, "-m", "repro", *serve_args]
        else:
            cmd = [sys.executable, str(HERE / "serve_traced.py"), str(spans), *serve_args]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        env["PYTHONUNBUFFERED"] = "1"
        self.log = open(store.parent / f"server-{time.monotonic_ns()}.log", "w")
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=self.log, text=True
        )
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        self.port = None

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def wait_ready(self) -> None:
        """Block until the server announced its port and /readyz is 200."""
        deadline = time.monotonic() + START_TIMEOUT_S
        while self.port is None:
            try:
                line = self._lines.get(timeout=max(deadline - time.monotonic(), 0.01))
            except queue.Empty:
                raise RuntimeError("server did not announce its port in time") from None
            if line is None:
                raise RuntimeError(f"server exited with {self.proc.wait()} before listening")
            if "listening on http://" in line:
                self.port = int(line.rsplit(":", 1)[1].strip().rstrip("/"))
        while True:
            try:
                status, _ = Client(self.port).get("/readyz")
                if status == 200:
                    return
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("server never became ready")
            time.sleep(0.01)

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(self.proc.pid)

    def stop(self) -> int:
        """SIGTERM (drain) and wait; returns the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            code = -signal.SIGKILL
        self._reader.join(timeout=10)
        self.log.close()
        return code


class Client:
    """A keep-alive HTTP/1.1 connection to the server."""

    def __init__(self, port: int) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)

    def get(self, path: str):
        try:
            self.conn.request("GET", path)
            response = self.conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            self.conn.close()

    def query(self, body: dict, op: int | None = None):
        headers = {"Content-Type": "application/json"}
        if op is not None:
            headers[OP_HEADER] = str(op)
        self.conn.request("POST", "/query", body=json.dumps(body), headers=headers)
        response = self.conn.getresponse()
        return response.status, json.loads(response.read())

    def close(self) -> None:
        self.conn.close()


def _estimates(result: dict) -> dict[str, float]:
    agg = next(iter(result["aggregates"].values()))
    return {g["label"]: float(g["estimate"]) for g in agg["groups"]}


def _check(rec: Record, status: int, body: dict, truth: dict, rows: int) -> bool:
    """Shape checks on one /query response; a miss also counts toward the
    guarantee.  Returns whether the response was usable."""
    if status != 200:
        rec.fail(f"/query returned {status}: {body.get('error')}")
        return False
    result = body["result"]
    estimates = _estimates(result)
    error = oracle.check_shape(estimates, truth)
    if error is not None:
        rec.fail(error)
        return False
    if body["cache"] != "hit":
        agg = next(iter(result["aggregates"].values()))
        rec.answer(
            oracle.misordered({"kind": "ordering"}, estimates, truth, agg["labels"]),
            int(result["total_samples"]),
            rows,
        )
    return True


class Dashboard(threading.Thread):
    """One closed-loop client: half its requests repeat one of its own
    keys (cache hits once seen), half use fresh seeds (executed)."""

    def __init__(self, index: int, port: int, seed: int, stop_at: float, truth, rows: int,
                 ops=None) -> None:
        super().__init__(name=f"dashboard-{index}")
        self.index = index
        self.port = port
        self.rng = np.random.default_rng([seed, index])
        # Seeds are congruent to the client index mod CLIENTS, so the two
        # clients never share a key and single-flight sharing stays out.
        self.keys = [
            (ATTRIBUTES[j % len(ATTRIBUTES)], self._seed()) for j in range(REPEATED_KEYS)
        ]
        self.stop_at = stop_at
        self.truth = truth
        self.rows = rows
        self.ops = ops  # (op id counter, lock, root spans) in traced runs
        self.rec = Record(delta=DELTA)
        self.seen: dict[tuple, dict] = {}
        self.finished = 0.0

    def _seed(self) -> int:
        return int(self.rng.integers(0, 2**30)) * CLIENTS + self.index

    def run(self) -> None:
        client = Client(self.port)
        try:
            i = 0
            while time.perf_counter() < self.stop_at:
                if i % 2 == 0:
                    attribute, seed = self.keys[(i // 2) % REPEATED_KEYS]
                else:
                    attribute, seed = ATTRIBUTES[(i // 2) % len(ATTRIBUTES)], self._seed()
                self._one(client, attribute, seed)
                i += 1
        finally:
            client.close()
            self.finished = time.perf_counter()

    def _one(self, client: Client, attribute: str, seed: int) -> None:
        rec = self.rec
        rec.attempted += 1
        op = None
        if self.ops is not None:
            counter, lock, roots = self.ops
            with lock:
                op = next(counter)
        body = {"sql": flights_sql(attribute), "seed": seed}
        start = time.perf_counter_ns()
        try:
            status, reply = client.query(body, op)
        except (OSError, http.client.HTTPException, ValueError) as exc:
            rec.fail(f"/query transport error: {type(exc).__name__}: {exc}")
            return
        end = time.perf_counter_ns()
        rec.completed += 1
        if self.ops is not None:
            with self.ops[1]:
                self.ops[2].append(Span(id=-op, name="op", start=start, end=end, op=op))
        cache = reply.get("cache") if status == 200 else None
        rec.latency("hit" if cache == "hit" else "query", (end - start) / 1e9)
        if not _check(rec, status, reply, self.truth[attribute], self.rows):
            return
        key = (attribute, seed)
        if cache == "hit":
            if self.seen.get(key) != reply["result"]:
                rec.fail(f"cache hit for {key} differs from its miss payload")
        else:
            self.seen.setdefault(key, reply["result"])


def _stats_counters(port: int) -> dict:
    status, stats = Client(port).get("/stats")
    if status != 200:
        raise RuntimeError(f"/stats returned {status}")
    totals: dict[str, int] = {}
    for tenant in stats["tenants"].values():
        for name, value in tenant["counters"].items():
            totals[name] = totals.get(name, 0) + int(value)
    return totals


def _drive(server: Server, seed: int, seconds: float, truth, rows: int, rec: Record,
           ops=None) -> tuple[float, dict]:
    """Run the dashboards for ``seconds``; returns (ops/s, /stats delta)."""
    before = _stats_counters(server.port)
    start = time.perf_counter()
    clients = [
        Dashboard(c, server.port, seed, start + seconds, truth, rows, ops) for c in range(CLIENTS)
    ]
    for client in clients:
        client.start()
    for client in clients:
        client.join()
    wall = max(c.finished for c in clients) - start
    after = _stats_counters(server.port)
    delta = {k: after.get(k, 0) - before.get(k, 0) for k in after}
    completed = 0
    for client in clients:
        rec.merge(client.rec)
        completed += client.rec.completed
    if delta.get("errors", 0):
        rec.fail(f"/stats counted {delta['errors']} server errors")
    return completed / wall, delta


def _stop(server: Server, rec: Record) -> None:
    rec.attempted += 1
    code = server.stop()
    if code != 0:
        rec.fail(f"server exited {code} after SIGTERM drain, expected 0")


def _setup(store: Path, truth, rows: int, rec: Record, seed: int) -> tuple[Server, float]:
    """Spawn to first correct answer."""
    t0 = time.perf_counter()
    server = Server(store)
    try:
        server.wait_ready()
        rec.attempted += 1
        client = Client(server.port)
        try:
            status, reply = client.query({"sql": flights_sql(ATTRIBUTES[0]), "seed": seed})
        finally:
            client.close()
        elapsed = time.perf_counter() - t0
    except BaseException:
        server.stop()
        raise
    failed = rec.failed
    if not _check(rec, status, reply, truth[ATTRIBUTES[0]], rows) or rec.failed != failed:
        server.stop()
        raise RuntimeError("service set-up answer failed its checks")
    return server, elapsed


def build_store(store: Path, columns: dict) -> float:
    """Cold build: attach the table durably and persist every index."""
    import repro

    t0 = time.perf_counter()
    session = repro.connect(store=store)
    session.attach("flights", columns)
    for attribute in ATTRIBUTES:
        session.catalog.prime("flights", "carrier", attribute)
    session.close()
    session.catalog.close()
    return time.perf_counter() - t0


def run(seed: int, seconds: float, trace: bool, scale: float, rec: Record):
    """Returns (ops/s, the server's peak RSS in MiB, traced), where traced
    is None or, with ``trace``, (per-op layers, run-level layer metrics)."""
    rng = np.random.default_rng(seed)
    rows = max(int(100_000 * scale), 2_000)
    columns = flights_columns(rows, int(rng.integers(0, 2**31 - 1)))
    truth = flights_truth(columns)
    load_seed = int(rng.integers(0, 2**31 - 1))
    setup_seeds = [int(s) for s in rng.integers(0, 2**31 - 1, SETUP_REPEATS)]
    work = ensure_workdir()
    try:
        store = work / "store"
        cold_build_s = build_store(store, columns)
        server = None
        for r in range(1 if trace else SETUP_REPEATS):
            if server is not None:
                _stop(server, rec)
            server, elapsed = _setup(store, truth, rows, rec, seed=setup_seeds[r])
            rec.setup.append(elapsed)
        try:
            ops_per_s, stats = _drive(
                server, load_seed, seconds / 2 if trace else seconds, truth, rows, rec
            )
            peak = server.peak_rss_mb()
        finally:
            _stop(server, rec)
        if not trace:
            return ops_per_s, peak, None
        return (ops_per_s, peak, _traced(store, work, load_seed + 1, seconds / 2, truth, rows,
                                        rec, ops_per_s, cold_build_s))
    finally:
        remove_workdir(work)


def _traced(store: Path, work: Path, seed: int, seconds: float, truth, rows: int,
            rec: Record, untraced_ops_per_s: float, cold_build_s: float) -> tuple[dict, dict]:
    """Second half of a traced run, against a server with span wrappers."""
    span_file = work / "server-spans.json"
    server = Server(store, spans=span_file)
    roots: list[Span] = []
    try:
        server.wait_ready()
        ops_per_s, stats = _drive(
            server, seed, seconds, truth, rows, rec,
            ops=(itertools.count(1), threading.Lock(), roots),
        )
    finally:
        _stop(server, rec)
    spans = [Span.from_list(row) for row in json.loads(span_file.read_text())]
    handle_ms: dict[int, float] = {}
    for s in spans:
        if s.name == "serve.handle" and s.op is not None:
            handle_ms[s.op] = handle_ms.get(s.op, 0.0) + (s.end - s.start) / 1e6
    ops = per_op_layers(spans + roots)
    for op, layers in ops.items():
        if layers.wall_ms > 0 and op in handle_ms:
            layers.ms["serve.http"] = layers.wall_ms - handle_ms[op]
            layers.calls["serve.http"] = 1
    executed = stats.get("executed", 0)
    hits = stats.get("cache_hits", 0)
    opens = [(s.end - s.start) / 1e6 for s in spans if s.name == "storage.open"]
    extra = {
        "storage.cold_build_ms": cold_build_s * 1e3,
        "storage.open_ms": statistics.median(opens) if opens else 0.0,
        "storage.mapped_loads": float(sum(s.name == "storage.mapped_engine" for s in spans)),
        "serve.cache_hit_ratio": hits / (hits + executed) if hits + executed else 0.0,
        "serve.shed": float(stats.get("shed", 0)),
        "serve.errors": float(stats.get("errors", 0)),
        "trace.overhead_fraction": untraced_ops_per_s / ops_per_s - 1.0,
    }
    return ops, extra
