"""Run one workload: set up, drive the closed loop, check, report.

The runner times each op and nothing else: warm-up, answer checks, model
updates and (on traced ops) the separate layer timings all happen outside
the op timer.  With ``--trace 1`` every other op is traced, so the same run
yields both the per-layer figures and the tracing overhead (traced vs
untraced read p50).
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro import PlannerOptions
from repro.sparql import parse_sparql, parse_update

from .stats import median, percentile
from .tracing import NULL, SpanRecorder
from .workloads import WORKLOADS, Workload, dir_bytes

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
BENCHMARK = ROOT / "BENCHMARK.json"
CATALOG = Path(__file__).with_name("metrics.json")

FINGERPRINT_OPS = 200
"""The first ops of the timed phase whose deterministic counts are fingerprinted."""
PAGES_SAMPLE_OPS = 60
"""Mix ops replayed on an unbounded pool to count the pages the mix touches."""
MIN_SETUP_COVERAGE = 0.95
"""Setup's layer spans must cover at least this share of ``setup_s``."""
_PROBED = ("plan_cache_hits_total", "plan_cache_misses_total", "wal_bytes_written_total",
           "wal_fsyncs_total", "buffer_pool_evictions_total", "delta_inserts",
           "delta_tombstones")


@dataclass
class RunData:
    """Everything one run measured, before it is turned into metrics."""

    workload: Workload
    trace: bool
    recorder: object
    setup_seconds: List[float] = field(default_factory=list)
    setup_coverage: List[float] = field(default_factory=list)
    latencies: Dict[str, List[float]] = field(default_factory=dict)
    traced_reads: List[float] = field(default_factory=list)
    op_records: List[Dict[str, object]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    timed_ops: int = 0
    elapsed: float = 0.0
    completed: int = 0
    busy: float = 0.0
    nt_bytes: int = 0
    fingerprint: Dict[str, object] = field(default_factory=dict)
    finish: Dict[str, object] = field(default_factory=dict)
    mix_pages_touched: Optional[int] = None

    @property
    def failed_op_frac(self) -> float:
        return self.failed / self.attempted

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)


def _probe(store) -> Dict[str, float]:
    metrics = store.metrics()
    return {name: float(metrics.get(name, 0.0)) for name in _PROBED}


def _counts(outcome) -> Dict[str, int]:
    """Deterministic counters of one op's outcome."""
    if isinstance(outcome, tuple):
        result, rows = outcome
        counters = result.cost.counters
        return {"page_reads": counters.get("page_reads", 0),
                "page_hits": counters.get("page_hits", 0),
                "tuples_scanned": counters.get("tuples_scanned", 0), "rows": len(rows)}
    if hasattr(outcome, "inserted"):
        return {"inserted": outcome.inserted, "deleted": outcome.deleted}
    return {"checkpoints": 1}


def run_workload(workload: Workload, seconds: float, trace: bool,
                 tamper: Optional[Callable] = None) -> RunData:
    """Set ``workload`` up and drive its closed loop for ``seconds``.

    ``tamper`` (self-tests only) may rewrite an op's outcome before it is
    checked, to prove that wrong answers are caught.
    """
    recorder = SpanRecorder() if trace else NULL
    data = RunData(workload=workload, trace=trace, recorder=recorder)
    text = workload.generate()
    data.nt_bytes = len(text.encode("utf-8"))

    # half the set-ups run before the timed loop and half after it, so that
    # setup_s samples the host at both ends of the run
    before = (workload.setup_repeats + 1) // 2
    for index in range(before):
        store = _setup(data, text, index)
        if index < before - 1:
            del store
            workload.discard(index)
    workload.adopt(store, before - 1)
    del store
    data.fingerprint["setup"] = dict(workload.layout[0], triples=workload.store.triple_count())
    if workload.durable:
        data.fingerprint["setup"]["db_bytes"] = dir_bytes(workload.db_path)

    for op in workload.warmup_ops():
        _run_op(data, op, NULL, timed=False, tamper=tamper)

    _timed_loop(data, seconds, tamper)

    data.finish = workload.finish()
    if data.finish.get("durability_error"):
        data.attempted += 1
        data.fail(data.finish["durability_error"])
    if trace and workload.pool_constrained:
        data.mix_pages_touched = _mix_pages_touched(workload, text)
    workload.release()
    for index in range(before, workload.setup_repeats):
        _setup(data, text, index)
        workload.discard(index)
    return data


def _setup(data: RunData, text: str, index: int):
    """One timed set-up (after a full collection); returns the ready store."""
    workload, recorder = data.workload, data.recorder
    gc.collect()
    recorder.op = f"setup-{index}"
    started = time.perf_counter()
    with recorder.span("setup") as root:
        store = workload.setup(text, recorder, index)
    data.setup_seconds.append(time.perf_counter() - started)
    if data.trace:
        covered = sum(s["end"] - s["start"] for s in recorder.children(root["id"]))
        data.setup_coverage.append(covered / (root["end"] - root["start"]))
    return store


def _timed_loop(data: RunData, seconds: float, tamper) -> None:
    """The closed loop: one op at a time until ``seconds`` and the minimum counts."""
    workload, recorder = data.workload, data.recorder
    reads = writes = 0
    prefix: Dict[str, float] = {}
    wal_mark = _probe(workload.store)
    started = time.perf_counter()
    deadline, hard_stop = started + seconds, started + 3 * seconds
    while True:
        now = time.perf_counter()
        if (now >= deadline and workload.enough(reads, writes)) or now >= hard_stop:
            break
        if data.timed_ops == FINGERPRINT_OPS:
            wal = _probe(workload.store)
            for name in ("wal_bytes_written_total", "wal_fsyncs_total"):
                prefix[name] = wal[name] - wal_mark[name]
            data.fingerprint["first_ops"] = dict(prefix)
        op = workload.next_op()
        traced = data.trace and data.timed_ops % 2 == 0
        recorder.op = str(data.timed_ops)
        counts = _run_op(data, op, recorder if traced else NULL, timed=True, tamper=tamper)
        data.timed_ops += 1
        reads += op.kind == "read"
        writes += op.kind == "write"
        if data.timed_ops <= FINGERPRINT_OPS:
            for name, value in counts.items():
                prefix[name] = prefix.get(name, 0) + value
    data.elapsed = time.perf_counter() - started


def _run_op(data: RunData, op, tr, timed: bool, tamper) -> Dict[str, int]:
    """Time one op, then (outside the timer) check it and record its layers."""
    workload = data.workload
    data.attempted += 1
    before = _probe(workload.store) if tr.enabled else None
    started = time.perf_counter()
    try:
        with tr.span("op"):
            outcome = workload.execute(op, tr)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        data.fail(f"{op.label}: {type(exc).__name__}: {exc}")
        return {}
    latency = time.perf_counter() - started
    if tamper is not None:
        outcome = tamper(op, outcome)
    try:
        error = workload.check(op, outcome)
    except Exception:
        error = f"{op.label}: checking raised\n{traceback.format_exc()}"
    if error:
        data.fail(error)
        return {}
    if timed:
        data.completed += 1
        data.busy += latency
        if tr.enabled and op.kind == "read":
            data.traced_reads.append(latency)
        else:
            data.latencies.setdefault(op.kind, []).append(latency)
    if tr.enabled:
        data.op_records.append(_layer_record(workload, op, outcome, before, tr))
    return _counts(outcome)


def _layer_record(workload: Workload, op, outcome, before: Dict[str, float],
                  tr) -> Dict[str, object]:
    """Per-op layer counters, plus parse and plan timed on their own."""
    after = _probe(workload.store)
    delta = {name: after[name] - before[name] for name in _PROBED}
    record = {"op": tr.op, "kind": op.kind, "label": op.label, "frontend": op.frontend,
              "plan_hits": delta["plan_cache_hits_total"],
              "plan_misses": delta["plan_cache_misses_total"],
              "wal_bytes": delta["wal_bytes_written_total"],
              "wal_fsyncs": delta["wal_fsyncs_total"],
              "evictions": delta["buffer_pool_evictions_total"],
              "pending": before["delta_inserts"] + before["delta_tombstones"]}
    if op.kind == "read":
        record.update(_counts(outcome), exec_s=outcome[0].cost.wall_seconds)
    with tr.span("aux"):
        if op.frontend == "sparql":
            with tr.span("sparql.parse"):
                parsed = parse_sparql(op.text)
            with tr.span("sparql.plan"):
                workload.store.sparql_engine().planner.plan(parsed, op.options or PlannerOptions())
        elif op.frontend == "update":
            with tr.span("sparql.parse_update"):
                parse_update(op.text)
    return record


def _mix_pages_touched(workload: Workload, text: str) -> int:
    """Distinct pages a sample of the mix touches, on an unbounded pool."""
    config = dataclasses.replace(workload.store_config(), buffer_pool_pages=1 << 20)
    store = workload.setup(text, NULL, -1, config=config)
    store.reset_cold()
    for op in workload.sample_reads(random.Random(f"{workload.name}/{workload.seed}/pages"),
                                    PAGES_SAMPLE_OPS):
        if op.frontend == "sql":
            store.sql(op.text)
        else:
            store.sparql(op.text, op.options)
    return int(store.buffer_pool_stats()["cached_pages"])


# -- metrics -------------------------------------------------------------------

_SETUP_SPANS = ("rio.parse", "storage.load", "cs.discover", "storage.cluster",
                "storage.warm", "persist.save")


def end_to_end(data: RunData) -> Dict[str, float]:
    """The user-visible figures of an untraced run."""
    latencies = data.latencies
    metrics = {
        "setup_s": median(data.setup_seconds),
        "read_p50_ms": percentile(latencies["read"], 0.5) * 1e3,
        "read_p99_ms": percentile(latencies["read"], 0.99) * 1e3,
        "ops_per_s": data.completed / data.busy,
        "failed_op_frac": data.failed_op_frac,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if "write" in latencies:
        metrics["write_p50_ms"] = percentile(latencies["write"], 0.5) * 1e3
        metrics["write_p95_ms"] = percentile(latencies["write"], 0.95) * 1e3
    if "checkpoint" in latencies:
        # a run holds only a handful of checkpoints: a plain median, reported
        # with its sample count rather than as a percentile
        metrics["checkpoint_p50_ms"] = median(latencies["checkpoint"]) * 1e3
    if "db_bytes" in data.finish:
        metrics["db_bytes_per_nt_byte"] = data.finish["db_bytes"] / data.finish["live_nt_bytes"]
    return metrics


def per_layer(data: RunData) -> Dict[str, float]:
    """Layer figures of a traced run (medians per op unless a ratio or count)."""
    recorder, records = data.recorder, data.op_records
    metrics: Dict[str, float] = {}
    for name in _SETUP_SPANS:
        durations = recorder.durations(name)
        if durations:
            metrics[name + "_s"] = median(durations)
    metrics["setup.span_coverage"] = min(data.setup_coverage)
    final = data.workload.layout[-1]
    metrics["storage.regular_fraction"] = final["regular_fraction"]
    metrics["storage.irregular_triples"] = final["irregular_triples"]
    spans = {name: recorder.by_op(name) for name in (
        "core.query", "engine.decode", "sparql.parse", "sparql.plan", "server.snapshot_pin",
        "sparql.parse_update", "updates.update", "updates.compact",
        "persist.checkpoint_write")}

    def span_median(name: str, rows: List[Dict[str, object]]) -> float:
        return median([spans[name][r["op"]] for r in rows])

    reads = [r for r in records if r["kind"] == "read"]
    sparql_reads = [r for r in reads if r["frontend"] == "sparql"]
    metrics["core.query_s"] = span_median("core.query", reads)
    metrics["engine.execute_s"] = median([r["exec_s"] for r in reads])
    metrics["sparql.parse_s"] = span_median("sparql.parse", sparql_reads)
    metrics["sparql.plan_s"] = span_median("sparql.plan", sparql_reads)
    hits = sum(r["plan_hits"] for r in sparql_reads)
    misses = sum(r["plan_misses"] for r in sparql_reads)
    metrics["sparql.plan_cache_hit_ratio"] = hits / (hits + misses)
    metrics["core.lifecycle_s"] = median([
        spans["core.query"][r["op"]] - r["exec_s"]
        - (spans["sparql.parse"][r["op"]] + spans["sparql.plan"][r["op"]]
           if r["plan_misses"] else 0.0)
        for r in sparql_reads])
    metrics["engine.decode_s"] = span_median("engine.decode", reads)
    metrics["engine.rows_examined_per_row"] = (sum(r["tuples_scanned"] for r in reads)
                                               / max(1, sum(r["rows"] for r in reads)))
    page_reads = sum(r["page_reads"] for r in reads)
    page_hits = sum(r["page_hits"] for r in reads)
    metrics["columnar.page_reads_per_read"] = page_reads / len(reads)
    metrics["columnar.page_hit_ratio"] = page_hits / (page_hits + page_reads)
    metrics["columnar.evictions_per_read"] = sum(r["evictions"] for r in reads) / len(reads)
    metrics["updates.pending_rows_at_read"] = median([r["pending"] for r in reads])
    metrics["trace.read_p50_ratio"] = (percentile(data.traced_reads, 0.5)
                                       / percentile(data.latencies["read"], 0.5))
    sql_reads = [r for r in reads if r["frontend"] == "sql"]
    if sql_reads:
        metrics["sql.query_s"] = span_median("core.query", sql_reads)
    if spans["server.snapshot_pin"]:
        metrics["server.snapshot_pin_s"] = span_median("server.snapshot_pin", reads)
    writes = [r for r in records if r["kind"] == "write"]
    if writes:
        metrics["sparql.parse_update_s"] = span_median("sparql.parse_update", writes)
        metrics["updates.update_s"] = span_median("updates.update", writes)
        metrics["persist.wal_bytes_per_write"] = sum(r["wal_bytes"] for r in writes) / len(writes)
        metrics["persist.wal_fsyncs_per_write"] = (sum(r["wal_fsyncs"] for r in writes)
                                                   / len(writes))
    checkpoints = [r for r in records if r["kind"] == "checkpoint"]
    if checkpoints:
        metrics["updates.compact_s"] = span_median("updates.compact", checkpoints)
        metrics["persist.checkpoint_write_s"] = span_median("persist.checkpoint_write",
                                                            checkpoints)
    if "db_bytes" in data.finish:
        metrics["persist.db_bytes"] = data.finish["db_bytes"]
    if data.mix_pages_touched is not None:
        metrics["columnar.mix_pages_touched"] = data.mix_pages_touched
    return metrics


# -- determinism ---------------------------------------------------------------

def check_determinism(data: RunData, seed: int) -> str:
    """Compare this run's deterministic counts with an earlier run of the seed.

    Fingerprints are keyed by the benchmark's own source, so editing the
    benchmark starts a fresh series instead of reporting a false mismatch.
    """
    version = hashlib.sha256(b"".join(
        path.read_bytes() for path in sorted(Path(__file__).parent.glob("*.py")))).hexdigest()[:12]
    path = OUT / (f"fingerprint-{data.workload.name}-seed{seed}-trace{int(data.trace)}"
                  f"-{version}.json")
    current = json.loads(json.dumps(data.fingerprint))
    if not path.exists():
        path.write_text(json.dumps(current, sort_keys=True) + "\n", encoding="utf-8")
        return "first run of this seed; deterministic counts recorded"
    previous = json.loads(path.read_text(encoding="utf-8"))
    flat = lambda doc: {f"{group}.{name}": value for group, values in doc.items()
                        for name, value in values.items()}
    before, now = flat(previous), flat(current)
    differ = sorted(name for name in before.keys() | now.keys()
                    if before.get(name) != now.get(name))
    if differ:
        return "MISMATCH vs earlier run: " + ", ".join(
            f"{name} {before.get(name)} -> {now.get(name)}" for name in differ)
    return f"{len(now)} deterministic counts repeat exactly"


# -- entry point ---------------------------------------------------------------

def _format(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bench = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    catalog = json.loads(CATALOG.read_text(encoding="utf-8"))
    trace = bool(args.trace)

    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        data = run_workload(workload, args.seconds, trace)
        metrics = per_layer(data) if trace else end_to_end(data)
        determinism = check_determinism(data, args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    section = "per_layer" if trace else "end_to_end"
    # result metrics take their unit from BENCHMARK.json, report-only ones from the catalog
    units = {m["name"]: m["unit"] for doc in (bench, catalog)
             for group in ("end_to_end", "per_layer") for m in doc[group] if "unit" in m}
    settings = dict(workload.settings(), seed=args.seed, nproc=os.cpu_count(),
                    python=platform.python_version(), clients=1, loop="closed")
    kinds = {kind: len(values) for kind, values in data.latencies.items()}
    kinds["traced_read"] = len(data.traced_reads)
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g}")
    print("settings: " + " ".join(f"{k}={v}" for k, v in settings.items()))
    print(f"data: {data.fingerprint['setup']['triples']} triples, {data.nt_bytes} N-Triples bytes")
    print("layout: " + "; ".join(
        f"{entry['when']}: regular_fraction={entry['regular_fraction']:.4f} "
        f"irregular_triples={entry['irregular_triples']}" for entry in workload.layout[:1]
        + workload.layout[-1:]) + f" ({len(workload.layout)} observations)")
    print(f"ops: attempted={data.attempted} failed={data.failed} timed={data.timed_ops} "
          f"elapsed={data.elapsed:.3f}s by_kind={kinds}")
    for name, value in metrics.items():
        note = ""
        if name == "checkpoint_p50_ms":
            note = f" (median of n={len(data.latencies['checkpoint'])})"
        print(f"{section} {name} = {_format(value)} {units[name]}{note}")
    if trace:
        print(f"trace overhead: traced read_p50 "
              f"{percentile(data.traced_reads, 0.5) * 1e3:.4f} ms vs untraced "
              f"{percentile(data.latencies['read'], 0.5) * 1e3:.4f} ms")
        coverage_ok = min(data.setup_coverage) >= MIN_SETUP_COVERAGE
        print(f"setup span coverage: {min(data.setup_coverage):.4f} "
              f"({'ok' if coverage_ok else 'CHECK FAILED'}, minimum {MIN_SETUP_COVERAGE})")
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        data.recorder.write(spans_path)
        print(f"spans: {len(data.recorder.spans)} written to {spans_path.relative_to(ROOT)}")
    else:
        coverage_ok = True
    print(f"determinism: {determinism}")
    for error in data.errors:
        print(f"error: {error}")

    wanted = [m["name"] for m in bench[section]]
    result = {
        "correct": data.failed == 0 and coverage_ok,
        "attempted": data.attempted,
        "failed": data.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in wanted},
    }
    print(json.dumps(result))
    return 0
