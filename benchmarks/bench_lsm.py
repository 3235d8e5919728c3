"""LSM live-update benchmark: mixed read/write workload over a LiveIndex.

Runs an interleaved insert/delete/query workload through
:class:`repro.lsm.LiveIndex` — writes land in the delta overlay (deletes
as tombstones), reads walk the union snapshot while dirty (derived from
the frozen tree's snapshot once per write generation, at the cost of
the pending writes plus a column copy) and the frozen snapshot when
clean, and the overlay folds into a fresh frozen generation whenever it
reaches the freeze threshold (the deterministic stand-in for the
background freezer: ``freeze_step()`` is exactly what the thread
calls).  Each dirty read's union build is timed apart from its walk
(``reads.union_freeze_ms``; ``reads.union_builds`` lists every build
with its pending count); the dirty latency stays build plus walk.  The
frozen snapshot of each generation is frozen once, outside every
read's timing, right after the initial build and after each fold, so no
union build includes it.  Writes ``BENCH_lsm.json``.

**Hard gates** (the run exits non-zero on any failure):

1. **Parity — always armed, ``--quick`` included.**  At a mid-churn
   dirty checkpoint AND after the final fold, the live index's answers
   must be byte-identical to a tree *freshly built* from the mutated
   dataset.  This is the subsystem's anchor: a fold literally is a
   fresh build, so the union snapshot of overlay and tombstones has an
   exact reference at every point in the workload.
2. **No per-write re-freeze — always armed.**  The fold count must be
   bounded by ``writes / freeze_threshold`` (+1 for the final explicit
   fold), i.e. maintenance is amortized across the threshold, never
   paid per write.
3. **Write cost << re-freeze cost — armed at ``n >= 50_000``.**  The
   mean per-write latency must be at least 10x cheaper than one fold
   (a full rebuild); below that the overlay would be pointless.
4. **Dirty reads at least half as fast as clean ones — armed at
   ``n >= 20_000``.**  Dirty QPS (union build plus walk) must reach
   half of clean QPS; below ``n = 20_000`` a handful of reads is too
   noisy to gate.

Usage::

    PYTHONPATH=src python benchmarks/bench_lsm.py [--quick] [--n N]
        [--writes W] [--threshold T] [--k K] [--out F]
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from typing import Dict, List

from repro.bench.gates import ids_gate, latency_ms_of, report_header
from repro.core.rstknn import RSTkNNSearcher
from repro.index.iurtree import IURTree
from repro.lsm import LiveIndex
from repro.obs import MetricsRegistry, PhaseTimer
from repro.workloads import gn_like, sample_queries

#: Below this the rebuild is so fast that "write is 10x cheaper than a
#: fold" stops being a meaningful claim, so the cost gate stays off.
GATE_N = 50_000
WRITE_VS_FOLD_GATE = 10.0

#: Dirty QPS must reach this share of clean QPS from ``DIRTY_GATE_N`` up.
DIRTY_VS_CLEAN_GATE = 0.5
DIRTY_GATE_N = 20_000


def parity_checkpoint(
    live: LiveIndex, dataset, probes, k: int, label: str
) -> float:
    """Gate: live answers == a tree freshly built from the dataset.

    Returns the fresh build's wall time (the re-freeze cost reference).
    """
    started = time.perf_counter()
    fresh_tree = IURTree.build(dataset)
    build_seconds = time.perf_counter() - started
    fresh = RSTkNNSearcher(fresh_tree, engine="seed")
    searcher = RSTkNNSearcher(live)
    ids_gate(
        [fresh.search(q, k).ids for q in probes],
        [searcher.search(q, k).ids for q in probes],
        f"live vs fresh build, {label}",
    )
    return build_seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI-sized run")
    parser.add_argument("--n", type=int, default=None, help="dataset size")
    parser.add_argument("--k", type=int, default=5)
    parser.add_argument(
        "--writes", type=int, default=None, help="mixed writes to apply"
    )
    parser.add_argument(
        "--threshold",
        type=int,
        default=None,
        help="freeze threshold (overlay size that triggers a fold)",
    )
    parser.add_argument(
        "--reads", type=int, default=None, help="reads interleaved with writes"
    )
    parser.add_argument("--out", default="BENCH_lsm.json")
    args = parser.parse_args(argv)

    n = args.n if args.n is not None else (400 if args.quick else 100_000)
    writes = args.writes if args.writes is not None else (
        40 if args.quick else 1000
    )
    threshold = args.threshold if args.threshold is not None else (
        16 if args.quick else 250
    )
    reads = args.reads if args.reads is not None else (8 if args.quick else 20)

    timer = PhaseTimer()
    registry = MetricsRegistry()
    dataset = gn_like(n=n)
    with timer.phase("build"):
        tree = IURTree.build(dataset)
        tree.warm_kernels()
    live = LiveIndex(tree, metrics=registry, freeze_threshold=threshold)
    with timer.phase("build"):
        live.snapshot()  # the frozen snapshot every union derives from
    probes = sample_queries(dataset, max(reads, 3), seed=99)
    searcher = RSTkNNSearcher(live)

    rng = random.Random(7)
    write_seconds: List[float] = []
    dirty_read_seconds: List[float] = []
    union_seconds: List[float] = []
    union_pending: List[int] = []
    fold_seconds: List[float] = []
    inserted = deleted = 0
    read_every = max(1, writes // max(reads, 1))
    parity_builds: List[float] = []

    with timer.phase("mixed"):
        for i in range(writes):
            started = time.perf_counter()
            if rng.random() < 0.5 and len(dataset) > 2:
                victims = dataset.objects
                live.delete_object(victims[rng.randrange(len(victims))].oid)
                deleted += 1
            else:
                donor = dataset.objects[rng.randrange(len(dataset.objects))]
                live.insert(donor.point, " ".join(donor.keywords))
                inserted += 1
            write_seconds.append(time.perf_counter() - started)

            if (i + 1) % read_every == 0:
                probe = probes[((i + 1) // read_every - 1) % len(probes)]
                started = time.perf_counter()
                if live.overlay_dirty:
                    live.snapshot()  # the union build, which the read reuses
                    union_seconds.append(time.perf_counter() - started)
                    union_pending.append(live.pending())
                searcher.search(probe, args.k)
                dirty_read_seconds.append(time.perf_counter() - started)

            if i == writes // 2:
                if not live.overlay_dirty:  # make the checkpoint dirty
                    donor = dataset.objects[0]
                    live.insert(donor.point, " ".join(donor.keywords))
                    inserted += 1
                parity_builds.append(
                    parity_checkpoint(
                        live, dataset, probes[:3], args.k,
                        f"dirty mid-churn (pending={live.pending()})",
                    )
                )

            if live.pending() >= threshold:
                started = time.perf_counter()
                live.freeze_step()
                fold_seconds.append(time.perf_counter() - started)
                live.snapshot()  # the new generation's frozen snapshot

    with timer.phase("fold"):
        if live.overlay_dirty:
            started = time.perf_counter()
            live.freeze_step()
            fold_seconds.append(time.perf_counter() - started)

    parity_builds.append(
        parity_checkpoint(live, dataset, probes[:3], args.k, "post-fold")
    )

    clean_read_seconds: List[float] = []
    with timer.phase("clean"):
        for probe in probes:
            started = time.perf_counter()
            searcher.search(probe, args.k)
            clean_read_seconds.append(time.perf_counter() - started)

    live.close()

    folds = len(fold_seconds)
    fold_budget = writes // threshold + 1  # +1: the final explicit fold
    if folds > fold_budget:
        raise SystemExit(
            f"re-freeze gate FAILED: {folds} folds for {writes} writes at "
            f"threshold {threshold} (budget {fold_budget}) — maintenance "
            "is not amortized"
        )
    write_mean = sum(write_seconds) / len(write_seconds)
    fold_mean = sum(fold_seconds) / folds if folds else 0.0
    cost_gate_armed = n >= GATE_N and folds > 0
    if cost_gate_armed and fold_mean < write_mean * WRITE_VS_FOLD_GATE:
        raise SystemExit(
            f"write-cost gate FAILED: mean write {write_mean * 1e3:.3f}ms "
            f"is not {WRITE_VS_FOLD_GATE}x cheaper than a fold "
            f"({fold_mean * 1e3:.1f}ms) at n={n}"
        )

    dirty_qps = (
        len(dirty_read_seconds) / sum(dirty_read_seconds)
        if dirty_read_seconds
        else 0.0
    )
    clean_qps = (
        len(clean_read_seconds) / sum(clean_read_seconds)
        if clean_read_seconds
        else 0.0
    )
    dirty_ratio = dirty_qps / clean_qps if clean_qps else 0.0
    dirty_gate_armed = n >= DIRTY_GATE_N
    if dirty_gate_armed and dirty_ratio < DIRTY_VS_CLEAN_GATE:
        raise SystemExit(
            f"dirty-read gate FAILED: dirty {dirty_qps:.3f} QPS is "
            f"{dirty_ratio:.2f} of clean {clean_qps:.3f} QPS at n={n} "
            f"(gate {DIRTY_VS_CLEAN_GATE})"
        )

    report = report_header(n, args.quick, timer=timer)
    report["workload"] = {
        "writes": writes,
        "inserts": inserted,
        "deletes": deleted,
        "dirty_reads": len(dirty_read_seconds),
        "clean_reads": len(clean_read_seconds),
        "k": args.k,
        "freeze_threshold": threshold,
    }
    report["gates"] = {
        "parity": "ok",
        "fold_budget": fold_budget,
        "folds": folds,
        "write_vs_fold_gate": WRITE_VS_FOLD_GATE,
        "write_vs_fold_gate_armed": cost_gate_armed,
        "write_vs_fold_gate_n": GATE_N,
        "dirty_vs_clean_gate": DIRTY_VS_CLEAN_GATE,
        "dirty_vs_clean_gate_armed": dirty_gate_armed,
        "dirty_vs_clean_gate_n": DIRTY_GATE_N,
    }
    report["writes"] = {
        "mean_ms": write_mean * 1000.0,
        "latency_ms": latency_ms_of(write_seconds),
        "throughput_per_second": (
            len(write_seconds) / sum(write_seconds) if write_seconds else 0.0
        ),
    }
    report["folds"] = {
        "count": folds,
        "total_seconds": sum(fold_seconds),
        "mean_seconds": fold_mean,
        "amortized_per_write_ms": (
            sum(fold_seconds) / writes * 1000.0 if writes else 0.0
        ),
        "fresh_build_seconds": parity_builds,
        "write_vs_fold_ratio": (
            fold_mean / write_mean if write_mean else 0.0
        ),
    }
    report["reads"] = {
        "dirty_latency_ms": latency_ms_of(dirty_read_seconds),
        "clean_latency_ms": latency_ms_of(clean_read_seconds),
        "dirty_qps": dirty_qps,
        "clean_qps": clean_qps,
        "dirty_vs_clean_qps": dirty_ratio,
        "union_freeze_ms": latency_ms_of(union_seconds),
        "union_builds": [
            {"pending": pending, "ms": seconds * 1000.0}
            for pending, seconds in zip(union_pending, union_seconds)
        ],
    }
    report["lsm_metrics"] = registry.snapshot()

    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
    print(json.dumps(report, indent=2))
    print(f"\nwrote {args.out}")
    freeze = report["reads"]["union_freeze_ms"]
    print(
        f"headline: {writes} writes absorbed in {folds} folds "
        f"(budget {fold_budget}); mean write {write_mean * 1e3:.3f}ms vs "
        f"fold {fold_mean * 1e3:.1f}ms "
        f"({report['folds']['write_vs_fold_ratio']:.0f}x); dirty "
        f"{dirty_qps:.3f} vs clean {clean_qps:.3f} QPS "
        f"(ratio {dirty_ratio:.2f}); union build "
        f"p50 {freeze.get('p50', 0.0):.1f}ms p95 {freeze.get('p95', 0.0):.1f}ms "
        f"over {len(union_seconds)} builds; parity ok"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
