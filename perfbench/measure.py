"""Run one workload in this process and print its result line.

``run.py`` starts this script in a fresh interpreter per workload, with
every ``REPRO_*`` variable scrubbed, so pair memos and kernel forms start
cold.  Without ``--trace`` it sets up the workload several times (the
median is ``setup_s``), then runs the traffic of ``--seconds`` (a fixed
number of steps per second; see ``Workload.steps``).  With
``--trace 1`` it runs half that traffic untraced, installs the span
wrappers, and replays exactly the same steps traced from a fresh
set-up; per-layer times come from the traced pass only.  Every time is
divided by the machine's slowdown measured around it (see
:mod:`speed`); the report keeps the raw values too.  Every answer of
every pass is then checked (see :mod:`workloads`).

Usage::

    python3 perfbench/measure.py --workload NAME --seed S --seconds T \\
        --trace 0|1 --report PATH [--smoke] [--expected-dir DIR]
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from repro.bench.meta import bench_metadata  # noqa: E402
from repro.core.traversal import _PAIR_MEMO_CAP  # noqa: E402
from repro.obs import latency_percentiles  # noqa: E402
from repro.perf import kernels  # noqa: E402

import workloads as wls  # noqa: E402
from speed import SpeedGauge  # noqa: E402
from tracer import CLIENT_SPAN, Tracer, install, install_chunk_flush  # noqa: E402

#: A pass stops early once it has run this many times ``--seconds``, so
#: a pathologically slow build still ends within the 180 s limit.
MAX_STRETCH = 4.0

#: Seconds of traffic per speed sample (a sample takes ~2% of that).
SAMPLE_EVERY = 0.1

#: Seconds of traffic scaled by one slowdown, the median of the samples
#: taken during it.
BLOCK = 1.0

#: Speed samples taken on each side of a timed set-up.
SETUP_SAMPLES = 3

#: Operations whose nested spans count as query work.
QUERY_OPS = ("query", "batch")

#: ``name -> unit`` of the end-to-end metrics, in report order.
END_TO_END = {
    "setup_s": "s",
    "qps": "queries/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MiB",
}

MIB = 1024.0 * 1024.0


def percentile(samples: Sequence[float], point: int) -> Optional[float]:
    """Nearest-rank percentile, or ``None`` unless ten samples lie beyond it."""
    if len(samples) * (100 - point) < 10 * 100:
        return None
    return latency_percentiles(samples, points=(point,))[f"p{point}"]


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0  # ru_maxrss is KiB on Linux


def drive(wl, state, log, steps: int, seconds: float, gauge: SpeedGauge) -> None:
    """Closed loop over ``steps`` steps, cut short past MAX_STRETCH × seconds.

    The gauge is sampled once per SAMPLE_EVERY seconds of traffic, between
    steps.  After every BLOCK seconds of traffic, and at the end, the
    block's latencies and busy time are divided by the median slowdown of
    the samples taken during it and of the one just before it.
    """
    limit = seconds * MAX_STRETCH
    started = perf_counter()
    gauge.sample(every_cpu=wl.spans_cpus)
    first, marks = len(gauge.samples) - 1, log.marks()
    block = owed = 0.0
    i = 0
    while i < steps and perf_counter() - started <= limit:
        t0 = perf_counter()
        wl.step(state, i, log)
        took = perf_counter() - t0
        i += 1
        block += took
        owed += took / SAMPLE_EVERY
        if owed >= 1.0:
            gauge.sample(int(owed), every_cpu=wl.spans_cpus)
            owed -= int(owed)
        if block >= BLOCK:
            log.scale(marks, gauge.slowdown(first), block)
            first, marks = len(gauge.samples) - 1, log.marks()
            block = 0.0
    log.scale(marks, gauge.slowdown(first), block)
    log.wall = perf_counter() - started
    log.steps = i


def setup_once(wl, seed: int, gauge: SpeedGauge):
    """Fresh corpus (untimed), timed set-up, then the traffic inputs.

    Returns the state, the set-up's seconds and the slowdown around it.
    """
    gc.collect()
    dataset = wl.dataset()
    first = len(gauge.samples)
    gauge.sample(SETUP_SAMPLES)
    started = perf_counter()
    state = wl.setup(dataset)
    seconds = perf_counter() - started
    gauge.sample(SETUP_SAMPLES)
    wl.start(state, seed)
    gc.collect()
    return state, seconds, gauge.slowdown(first)


def plain_run(wl, seed: int, seconds: float, gauge: SpeedGauge):
    """Untraced run: repeated set-ups, then timed traffic."""
    setups: List[Tuple[float, float]] = []
    state = None
    for _ in range(wl.setup_repeats):
        if state is not None:
            wl.close(state)
        state, took, slowdown = setup_once(wl, seed, gauge)
        setups.append((took, slowdown))
    log = wls.Log()
    drive(wl, state, log, wl.steps(seconds), seconds, gauge)
    rss = peak_rss_mb()
    counts = wl.counts(state)
    wl.close(state)
    return setups, log, rss, counts


def traced_run(
    wl, seed: int, seconds: float, tracer: Tracer, worker_dir: Path, gauge: SpeedGauge
):
    """Untraced pass, then the same steps traced from a fresh set-up."""
    state, _, _ = setup_once(wl, seed, gauge)
    plain = wls.Log()
    drive(wl, state, plain, wl.steps(seconds / 2), seconds, gauge)
    wl.close(state)
    install(tracer)
    install_chunk_flush(tracer, worker_dir)
    gc.collect()
    dataset = wl.dataset()
    tracer.active = True
    with tracer.operation("setup"):
        state = wl.setup(dataset)
    tracer.active = False
    wl.start(state, seed)
    gc.collect()
    log = wls.Log(tracer)
    tracer.active = True
    drive(wl, state, log, plain.steps, seconds, gauge)
    tracer.active = False
    counts = wl.counts(state)
    wl.close(state)
    return plain, log, counts


def check(wl, seed: int, logs: Sequence, expected: Optional[List[str]]):
    """Compare every answer with the oracle and the committed digests.

    Returns ``(checked answers, mismatch descriptions)``.
    """
    answers = [a for log in logs for a in log.answers]
    keys = sorted({key for key, _ in answers})
    if isinstance(wl, wls.LiveChurn):
        keys = wl.checkpoints(keys[-1] + 1) if keys else []
    reference = wl.oracle(seed, keys)
    checked = 0
    mismatches: List[str] = []
    for key, got in answers:
        wants = [reference.get(key)]
        if expected is not None and key < len(expected):
            wants.append(expected[key])
        wants = [w for w in wants if w is not None]
        if not wants:
            continue
        checked += 1
        if any(w != got for w in wants):
            mismatches.append(f"answer {key}: {got[:12]} != {wants[0][:12]}")
    return checked, mismatches


def end_to_end(setup_seconds, samples, busy, rss) -> Dict[str, float]:
    """The end-to-end metrics of an untraced run (absent when unmeasurable)."""
    values = {
        "setup_s": statistics.median(setup_seconds),
        "qps": len(samples) / busy,
        "latency_p50_ms": percentile(samples, 50),
        "latency_p90_ms": percentile(samples, 90),
        "peak_rss_mb": rss,
    }
    for name in ("latency_p50_ms", "latency_p90_ms"):
        if values[name] is not None:
            values[name] *= 1000.0
    return {k: v for k, v in values.items() if v is not None}


def merge_spans(payloads) -> Dict[Tuple[str, str], List[float]]:
    """``(op, span) -> [calls, inclusive_s, self_s]`` over all processes."""
    merged: Dict[Tuple[str, str], List[float]] = {}
    for payload in payloads:
        for op, span, calls, incl, self_s in payload["spans"]:
            agg = merged.setdefault((op, span), [0, 0.0, 0.0])
            agg[0] += calls
            agg[1] += incl
            agg[2] += self_s
    return merged


def coverage(payload) -> float:
    """Σ layer self time ÷ root-span time of one process (1.0 when untraced).

    The benchmark loop's own ``client`` span is left out of the sum, so
    the ratio is the share of every operation that some wrapped layer
    accounts for; time spent in unwrapped code between layers lowers it.
    """
    root = payload["root_seconds"]
    if not root:
        return 1.0
    return sum(s[4] for s in payload["spans"] if s[1] != CLIENT_SPAN) / root


def per_layer(log, spans, counts, workers, overhead, cover) -> Dict[str, Tuple[float, str]]:
    """The per-layer metrics of a traced pass: ``name -> (value, unit)``."""
    sums = log.sums

    def s(key: str) -> float:
        return sums.get(key, 0.0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    queries = s("snapshot.queries") + s("approx.queries") + s("seed.queries")

    def per_query(field: int, *names: str) -> float:
        total = sum(
            agg[field] for (op, span), agg in spans.items()
            if op in QUERY_OPS and span in names
        )
        return ratio(total, queries)

    def q_self(*names: str) -> float:
        return per_query(2, *names)

    def q_calls(*names: str) -> float:
        return per_query(0, *names)

    def per_call(name: str) -> float:
        calls = sum(a[0] for (_, span), a in spans.items() if span == name)
        incl = sum(a[1] for (_, span), a in spans.items() if span == name)
        return ratio(incl, calls)

    def both(field: str) -> float:
        return s("snapshot." + field) + s("approx." + field)

    group = s("snapshot.pruned_objects") + s("snapshot.accepted_objects")
    hits, misses = both("cache_hits"), both("cache_misses")
    seed_hits, seed_misses = s("seed.cache_hits"), s("seed.cache_misses")
    io_reads, io_hits = s("io.reads"), s("io.buffer_hits")

    calls: Dict[int, List[float]] = {}
    for w in workers:
        calls.setdefault(w["op_index"], []).append(w["busy_seconds"])
    max_busy = [max(b) for b in calls.values()]
    imbalance = [max(b) / (sum(b) / len(b)) for b in calls.values() if sum(b)]
    batch_walls = log.raw_latencies["batch"]
    batch_stats = log.batch_stats
    writes = len(log.latencies["write"])
    memo = counts.get("memo_entries", 0)

    m = {
        "index.build_s": (per_call("index.build"), "s"),
        "perf.snapshot.freeze_s": (per_call("perf.snapshot.freeze"), "s"),
        "perf.snapshot.bytes": (counts.get("snapshot_bytes", 0), "bytes"),
        "approx.sketch.build_s": (per_call("approx.sketch.build"), "s"),
        "approx.sketch.bytes": (counts.get("sketch_bytes", 0), "bytes"),
        "core.traversal.walk_self_s": (q_self("core.traversal.walk"), "s"),
        "core.traversal.pair_bounds_s": (q_self("core.traversal.pair_bounds"), "s"),
        "core.traversal.pair_bounds_calls": (q_calls("core.traversal.pair_bounds"), "count"),
        "core.traversal.text_bounds_s": (q_self("core.traversal.text_bounds"), "s"),
        "core.traversal.text_bounds_calls": (q_calls("core.traversal.text_bounds"), "count"),
        "core.traversal.exact_sim_s": (q_self("core.traversal.exact_sim"), "s"),
        "core.traversal.exact_sim_calls": (q_calls("core.traversal.exact_sim"), "count"),
        "core.traversal.expansions": (ratio(s("snapshot.expansions"), queries), "count"),
        "core.traversal.group_decided_ratio": (
            ratio(group, group + s("snapshot.verified_objects")), "fraction"),
        "core.traversal.memo_hit_ratio": (ratio(hits, hits + misses), "fraction"),
        "core.traversal.memo_entries": (memo, "count"),
        "core.traversal.memo_at_cap": (float(memo >= _PAIR_MEMO_CAP), "count"),
        "core.traversal.tighten_s": (q_self("core.traversal.tighten"), "s"),
        "core.traversal.tighten_calls": (q_calls("core.traversal.tighten"), "count"),
        "core.traversal.decide_s": (q_self("core.traversal.decide"), "s"),
        "core.traversal.decide_calls": (q_calls("core.traversal.decide"), "count"),
        "core.traversal.verify_s": (q_self("core.traversal.verify"), "s"),
        "core.traversal.verify_calls": (q_calls("core.traversal.verify"), "count"),
        "core.traversal.verify_node_reads": (ratio(both("verify_node_reads"), queries), "count"),
        "core.traversal.verify_yield": (
            ratio(both("result_count") - both("accepted_objects"), both("verified_objects")),
            "fraction"),
        "perf.kernels.frontier_s": (q_self("perf.kernels.frontier"), "s"),
        "perf.kernels.frontier_calls": (q_calls("perf.kernels.frontier"), "count"),
        "storage.node_reads": (ratio(io_reads, queries), "count"),
        "storage.verify_reads": (ratio(s("io.reads.verify"), queries), "count"),
        "storage.buffer_hit_ratio": (ratio(io_hits, io_hits + io_reads), "fraction"),
        "perf.shm.export_s": (per_call("perf.shm.export"), "s"),
        "perf.shm.segment_bytes": (counts.get("segment_bytes", 0), "bytes"),
        "perf.shm.attach_s": (per_call("perf.shm.attach"), "s"),
        "perf.batch.worker_busy_s": (ratio(sum(max_busy), len(max_busy)), "s"),
        "perf.batch.imbalance": (ratio(sum(imbalance), len(imbalance)), "ratio"),
        "perf.batch.wait_s": (
            ratio(sum(batch_walls) - sum(max_busy), len(batch_walls)) if max_busy else 0.0,
            "s"),
        "perf.batch.worker_rss_mb": (
            max((b.worker_rss_bytes or 0 for b in batch_stats), default=0) / MIB, "MiB"),
        "perf.batch.retries": (sum(b.retries for b in batch_stats), "count"),
        "perf.batch.fallback": (
            sum(b.fallback_reason is not None for b in batch_stats), "count"),
        "approx.engine.filter_s": (q_self("approx.engine.filter"), "s"),
        "approx.engine.candidates": (ratio(s("approx.candidates"), queries), "count"),
        "approx.engine.candidate_precision": (
            ratio(s("approx.answers"), s("approx.candidates")), "fraction"),
        "approx.engine.lsh_prune_ratio": (
            ratio(s("approx.lsh_pruned"), s("approx.candidates")), "fraction"),
        "approx.engine.nodes_pruned": (ratio(s("approx.nodes_pruned"), queries), "count"),
        "core.rstknn.walk_self_s": (q_self("core.rstknn.walk"), "s"),
        "core.rstknn.verify_s": (q_self("core.rstknn.verify"), "s"),
        "core.rstknn.tighten_s": (q_self("core.rstknn.tighten"), "s"),
        "core.rstknn.decide_s": (q_self("core.rstknn.decide"), "s"),
        "core.rstknn.expansions": (ratio(s("seed.expansions"), queries), "count"),
        "core.bounds.st_bounds_s": (
            q_self("core.bounds.st_bounds", "core.bounds.self_bounds"), "s"),
        "core.bounds.calls": (
            q_calls("core.bounds.st_bounds", "core.bounds.self_bounds"), "count"),
        "core.bounds.memo_hit_ratio": (
            ratio(seed_hits, seed_hits + seed_misses), "fraction"),
        "lsm.insert_s": (per_call("lsm.insert"), "s"),
        "lsm.delete_s": (per_call("lsm.delete"), "s"),
        "lsm.fold_s": (per_call("lsm.fold"), "s"),
        "lsm.folds": (ratio(1000.0 * len(log.latencies["fold"]), writes), "per_1000_writes"),
        "lsm.overlay_objects": (ratio(s("lsm.overlay_objects"), s("lsm.reads")), "count"),
        "lsm.tombstones": (ratio(s("lsm.tombstones"), s("lsm.reads")), "count"),
        "lsm.dirty_read_ratio": (ratio(s("lsm.dirty_reads"), s("lsm.reads")), "fraction"),
        "trace.overhead": (overhead, "fraction"),
        "trace.coverage": (cover, "fraction"),
    }
    return {name: (float(value), unit) for name, (value, unit) in m.items()}


def traced_report(wl, args, report: Dict[str, object]):
    """Run traced; per-layer metrics, with spans written as JSON lines."""
    out_dir = args.report.parent
    worker_dir = out_dir / f"{args.report.stem}-workers"
    worker_dir.mkdir(exist_ok=True)
    for stale in worker_dir.glob("worker-*.json"):
        stale.unlink()
    tracer = Tracer()
    plain, log, counts = traced_run(
        wl, args.seed, args.seconds, tracer, worker_dir, SpeedGauge()
    )
    workers = [json.loads(p.read_text()) for p in sorted(worker_dir.glob("worker-*.json"))]
    for w in workers:
        for key, value in w["io"].items():
            log.add("io." + key, value)
        counts["memo_entries"] = max(counts["memo_entries"], w["memo_entries"])
    processes = [tracer.snapshot()] + workers
    covers = [coverage(p) for p in processes]
    layers = per_layer(
        log, merge_spans(processes), counts, workers,
        overhead=log.busy / plain.busy - 1.0,
        cover=max(covers, key=lambda c: abs(c - 1.0)),
    )
    # Span times are raw: scale them by the traced pass's mean slowdown.
    slowdown = log.raw_busy / log.busy
    layers = {
        name: (value / slowdown if unit == "s" else value, unit)
        for name, (value, unit) in layers.items()
    }
    with open(out_dir / f"trace-{wl.name}.jsonl", "w") as fh:
        for p in processes:
            for op, span, calls, incl, self_s in p["spans"]:
                fh.write(json.dumps({
                    "pid": p["pid"], "op": op, "span": span, "calls": calls,
                    "inclusive_s": incl, "self_s": self_s,
                }) + "\n")
    report["coverage_per_process"] = covers
    report["passes"] = {
        "untraced_busy_s": plain.raw_busy, "traced_busy_s": log.raw_busy, "steps": log.steps,
        "untraced_slowdown": plain.raw_busy / plain.busy, "traced_slowdown": slowdown,
    }
    return [plain, log], counts, layers


def plain_report(wl, args, report: Dict[str, object]):
    """Run untraced; end-to-end metrics."""
    setups, log, rss, counts = plain_run(wl, args.seed, args.seconds, SpeedGauge())
    values = end_to_end(
        [took / slowdown for took, slowdown in setups], log.latencies["query"], log.busy, rss
    )
    report["raw"] = end_to_end(
        [took for took, _ in setups], log.raw_latencies["query"], log.raw_busy, rss
    )
    report["setups"] = [{"seconds": took, "slowdown": slowdown} for took, slowdown in setups]
    report["passes"] = {
        "wall_s": log.wall, "busy_s": log.raw_busy, "steps": log.steps,
        "slowdown": log.raw_busy / log.busy,
    }
    return [log], counts, {name: (v, END_TO_END[name]) for name, v in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wls.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", type=Path, required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--expected-dir", type=Path, default=wls.EXPECTED_DIR)
    args = parser.parse_args(argv)

    started = perf_counter()
    kernels.set_backend("auto")
    wl = wls.WORKLOADS[args.workload](smoke=args.smoke)
    args.report.parent.mkdir(parents=True, exist_ok=True)
    report: Dict[str, object] = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "params": wl.params(),
    }
    run = traced_report if args.trace else plain_report
    logs, counts, metrics = run(wl, args, report)
    log = logs[-1]
    report["samples"] = {kind: len(v) for kind, v in log.latencies.items()}
    report["counts"] = dict(counts, **log.sums)
    report["meta"] = dict(
        bench_metadata(),
        cpu_count=os.cpu_count(),
        kernel_backend=kernels.backend_name(),
        numpy_available=kernels.numpy_available(),
        seed=args.seed,
    )

    report["measured_s"] = perf_counter() - started
    expected = wl.expected(args.seed, args.expected_dir)
    checked, mismatches = check(wl, args.seed, logs, expected)
    errors = [e for log_ in logs for e in log_.errors]
    attempted = sum(log_.ops for log_ in logs)
    failed = len(errors) + len(mismatches)
    missing = [] if args.trace else [m for m in END_TO_END if m not in metrics]
    report["check"] = {
        "answers": sum(len(log_.answers) for log_ in logs),
        "checked": checked,
        "mismatches": mismatches[:20],
        "errors": errors[:20],
        "error_rate": failed / max(attempted, 1),
        "missing_metrics": missing,
    }
    result = {
        "correct": failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    report["result"] = result
    report["elapsed_s"] = perf_counter() - started
    args.report.write_text(json.dumps(report, indent=2))
    for line in (mismatches + errors)[:5]:
        print(f"{wl.name}: {line}", file=sys.stderr)
    if missing:
        print(f"{wl.name}: too few samples for {missing}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if failed == 0 and not missing else 1


if __name__ == "__main__":
    sys.exit(main())
