"""What every workload shares: the run record, the metric tables, and the
turning of a record (plus, in traced runs, spans) into named metrics."""

from __future__ import annotations

import os
import shutil
import statistics
from dataclasses import dataclass, field
from pathlib import Path

from stats import latency_summary, misorder_limit
from tracing import OpLayers

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: End-to-end metrics, printed with ``--trace 0`` on every workload.
END_TO_END = {
    "setup_s": "s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Latencies of op types that only some workloads issue.  They are printed
#: in the report lines and the detail line, not in the result object, whose
#: metrics must be the same on every workload.
OP_LATENCIES = ("first_bar", "stream", "window", "hit")

#: Per-layer metrics, printed with ``--trace 1``.
PER_LAYER = {
    "session.lower_ms": "ms",
    "session.execute_self_ms": "ms",
    "catalog.table_ms": "ms",
    "catalog.population_ms": "ms",
    "catalog.build_hit_ratio": "ratio",
    "needletail.index_build_ms": "ms",
    "needletail.index_builds": "count",
    "storage.cold_build_ms": "ms",
    "storage.open_ms": "ms",
    "storage.engine_load_ms": "ms",
    "storage.mapped_loads": "count",
    "engines.open_run_ms": "ms",
    "engines.draw_ms": "ms",
    "engines.draw_calls": "count",
    "engines.rows_drawn": "count",
    "core.loop_ms": "ms",
    "core.samples": "count",
    "core.sampled_fraction": "ratio",
    "core.misordered_fraction": "ratio",
    "core.reference_ms": "ms",
    "extensions.variant_ms": "ms",
    "streaming.window_ms": "ms",
    "streaming.warm_start_ratio": "ratio",
    "serve.handle_ms": "ms",
    "serve.admission_wait_ms": "ms",
    "serve.encode_ms": "ms",
    "serve.http_ms": "ms",
    "serve.cache_hit_ratio": "ratio",
    "serve.shed": "count",
    "serve.errors": "count",
    "trace.overhead_fraction": "ratio",
    "trace.coverage_fraction": "ratio",
}

#: Per-layer metric -> (span name, what to take per op).
_SPAN_LAYERS = {
    "session.lower_ms": ("session.lower", "ms"),
    "session.execute_self_ms": ("session.execute", "ms"),
    "catalog.table_ms": ("catalog.table", "ms"),
    "catalog.population_ms": (("catalog.population", "catalog.scan"), "ms"),
    "needletail.index_build_ms": ("needletail.index_build", "ms"),
    # One span per NeedletailEngine construction, which is exactly what
    # BUILD_COUNTS["needletail"] counts.
    "needletail.index_builds": ("needletail.index_build", "calls"),
    "storage.engine_load_ms": ("storage.engine_load", "ms"),
    "engines.open_run_ms": ("engines.open_run", "ms"),
    "engines.draw_ms": ("engines.draw", "ms"),
    "engines.draw_calls": ("engines.draw", "calls"),
    "engines.rows_drawn": ("engines.draw", "work"),
    "core.loop_ms": ("core.loop", "ms"),
    "core.reference_ms": ("core.reference", "ms"),
    "extensions.variant_ms": ("extensions.variant", "ms"),
    "streaming.window_ms": ("streaming.window", "ms"),
    "serve.handle_ms": ("serve.handle", "ms"),
    "serve.admission_wait_ms": ("serve.admission_wait", "ms"),
    "serve.encode_ms": ("serve.encode", "ms"),
    # client latency minus the server's QueryService.handle, added per op
    # by the service workload
    "serve.http_ms": ("serve.http", "ms"),
}

#: Spans whose calls are build requests to a catalog cache; a request is a
#: hit when no index build or source scan ran under it.
_BUILD_REQUESTS = ("catalog.indexed_engine", "storage.engine_load", "catalog.population")


@dataclass
class Record:
    """Everything one run measures and checks."""

    delta: float = 0.05
    latencies: dict[str, list[float]] = field(default_factory=dict)
    setup: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    guaranteed: int = 0  # answers checked against their guarantee
    misordered: int = 0
    samples: list[int] = field(default_factory=list)
    sampled_fraction: list[float] = field(default_factory=list)
    warm: list[bool] = field(default_factory=list)
    completed: int = 0
    busy_s: float = 0.0

    def merge(self, other: "Record") -> None:
        """Fold in another caller's record (one per client thread)."""
        for kind, values in other.latencies.items():
            self.latencies.setdefault(kind, []).extend(values)
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors.extend(other.errors[: max(20 - len(self.errors), 0)])
        self.guaranteed += other.guaranteed
        self.misordered += other.misordered
        self.samples.extend(other.samples)
        self.sampled_fraction.extend(other.sampled_fraction)
        self.completed += other.completed

    def latency(self, kind: str, seconds: float) -> None:
        self.latencies.setdefault(kind, []).append(seconds * 1e3)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def answer(self, is_misordered: bool, samples: int, population: int) -> None:
        """One executed answer that passed its shape checks."""
        self.guaranteed += 1
        self.misordered += bool(is_misordered)
        self.samples.append(int(samples))
        self.sampled_fraction.append(samples / population)

    @property
    def misorder_ok(self) -> bool:
        return self.misordered <= misorder_limit(self.guaranteed, self.delta)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.misorder_ok


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set (VmHWM) of a process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def end_to_end_metrics(rec: Record, peak_rss_mb: float, ops_per_s: float):
    """(result-object metrics, op-specific detail, samples per op type,
    percentiles with fewer than ten samples beyond them)."""
    query = latency_summary(rec.latencies.get("query", []))
    out = {
        "setup_s": statistics.median(rec.setup),
        "query_p50_ms": query["p50"],
        "query_p90_ms": query["p90"],
        "ops_per_s": ops_per_s,
        "peak_rss_mb": peak_rss_mb,
    }
    detail = {}
    short = [f"query_{p}" for p in query["short"]]
    for kind in OP_LATENCIES:
        values = rec.latencies.get(kind)
        if not values:
            continue
        summary = latency_summary(values)
        detail[f"{kind}_p50_ms"] = summary["p50"]
        detail[f"{kind}_p90_ms"] = summary["p90"]
        short += [f"{kind}_{p}" for p in summary["short"]]
    detail["failed_fraction"] = rec.failed / max(rec.attempted, 1)
    counts = {kind: len(v) for kind, v in rec.latencies.items()}
    return out, detail, counts, short


def _median_touching(ops: dict[int, OpLayers], spans, what: str) -> float:
    """Median over the ops that reached any of ``spans`` (0 when none did)."""
    spans = (spans,) if isinstance(spans, str) else spans
    values = []
    for layers in ops.values():
        table = getattr(layers, what)
        reached = [s for s in spans if s in layers.calls]
        if reached:
            values.append(sum(table[s] for s in reached))
    return statistics.median(values) if values else 0.0


def per_layer_metrics(ops: dict[int, OpLayers], rec: Record, extra: dict) -> dict:
    """Per-op medians of layer self times and counts, plus run-level ratios.

    ``extra`` carries what only the workload knows (store build and open
    times, /stats counters, the untraced-vs-traced throughput).
    """
    out = {name: 0.0 for name in PER_LAYER}
    for name, (spans, what) in _SPAN_LAYERS.items():
        out[name] = _median_touching(ops, spans, what)
    requests = hits = 0
    coverage = []
    for layers in ops.values():
        built = layers.calls.get("needletail.index_build", 0) + layers.calls.get(
            "catalog.scan", 0
        )
        n = sum(layers.calls.get(s, 0) for s in _BUILD_REQUESTS)
        requests += n
        hits += max(n - built, 0)
        if layers.wall_ms > 0:
            coverage.append(sum(layers.ms.values()) / layers.wall_ms)
    out["catalog.build_hit_ratio"] = hits / requests if requests else 0.0
    out["trace.coverage_fraction"] = statistics.median(coverage) if coverage else 0.0
    if rec.samples:
        out["core.samples"] = float(statistics.median(rec.samples))
        out["core.sampled_fraction"] = statistics.median(rec.sampled_fraction)
    out["core.misordered_fraction"] = rec.misordered / rec.guaranteed if rec.guaranteed else 0.0
    if rec.warm:
        out["streaming.warm_start_ratio"] = sum(rec.warm) / len(rec.warm)
    out.update(extra)
    return out


def result_object(rec: Record, metrics: dict, units: dict) -> dict:
    return {
        "correct": rec.correct,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }


def ensure_workdir() -> Path:
    """A scratch directory inside the checkout, private to this process."""
    path = WORK / str(os.getpid())
    path.mkdir(parents=True, exist_ok=True)
    return path


def remove_workdir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        WORK.rmdir()  # only when no other run is using it
    except OSError:
        pass
