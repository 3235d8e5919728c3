"""Traversal-engine benchmark: seed walk vs the columnar snapshot engine.

Runs an E3-style single-query workload (gn-like dataset, sampled
queries) through both traversal engines of
:class:`repro.core.rstknn.RSTkNNSearcher` and writes
``BENCH_traversal.json`` with queries/sec, speedups, and the snapshot's
memory footprint.  **Result parity is asserted per query** — the run
exits non-zero if the snapshot engine ever returns a different result
set than the seed walk.

Usage::

    PYTHONPATH=src python benchmarks/bench_traversal.py [--quick] [--n N] [--out F]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict

from repro.bench.gates import ids_gate, median_qps, report_header
from repro.core.rstknn import RSTkNNSearcher
from repro.index.iurtree import IURTree
from repro.workloads import gn_like, sample_queries


def bench_engines(tree, queries, k: int, rounds: int) -> Dict[str, object]:
    """Median QPS per engine over interleavable rounds, parity-checked."""
    seed = RSTkNNSearcher(tree, engine="seed")
    snap = RSTkNNSearcher(tree, engine="snapshot")

    # Parity gate first (also warms the snapshot + both searchers).
    ids_gate(
        [seed.search(q, k).ids for q in queries],
        [snap.search(q, k).ids for q in queries],
        "snapshot vs seed",
    )

    def seed_round() -> float:
        started = time.perf_counter()
        for q in queries:
            seed.search(q, k)
        return time.perf_counter() - started

    def snap_round() -> float:
        started = time.perf_counter()
        for q in queries:
            snap.search(q, k)
        return time.perf_counter() - started

    def snap_fresh_round() -> float:
        # A fresh searcher per query — the snapshot (and its pair memo)
        # lives on the tree, so even this seed-style usage pattern keeps
        # the columnar speedup.
        started = time.perf_counter()
        for q in queries:
            RSTkNNSearcher(tree, engine="snapshot").search(q, k)
        return time.perf_counter() - started

    def latency_ms(searcher) -> dict:
        # One instrumented pass: per-query wall clock -> nearest-rank
        # percentiles, the tail-latency companion to the QPS medians.
        from repro.obs import latency_percentiles

        samples = []
        for q in queries:
            started = time.perf_counter()
            searcher.search(q, k)
            samples.append(time.perf_counter() - started)
        return {
            point: seconds * 1000.0
            for point, seconds in latency_percentiles(samples).items()
        }

    n = len(queries)
    seed_qps = median_qps(seed_round, n, rounds)
    snap_qps = median_qps(snap_round, n, rounds)
    fresh_qps = median_qps(snap_fresh_round, n, rounds)
    return {
        "queries": n,
        "k": k,
        "parity": "ok",
        "seed_qps": seed_qps,
        "snapshot_qps": snap_qps,
        "snapshot_fresh_searcher_qps": fresh_qps,
        "speedup_snapshot_vs_seed": snap_qps / seed_qps,
        "speedup_fresh_vs_seed": fresh_qps / seed_qps,
        "seed_latency_ms": latency_ms(seed),
        "snapshot_latency_ms": latency_ms(snap),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI-sized run")
    parser.add_argument("--n", type=int, default=None, help="dataset size")
    parser.add_argument("--k", type=int, default=5)
    parser.add_argument("--out", default="BENCH_traversal.json")
    args = parser.parse_args(argv)

    n = args.n if args.n is not None else (150 if args.quick else 400)
    n_queries = 4 if args.quick else 12
    rounds = 1 if args.quick else 5

    from repro.obs import PhaseTimer

    timer = PhaseTimer()
    dataset = gn_like(n=n)
    with timer.phase("build"):
        tree = IURTree.build(dataset)
    with timer.phase("freeze"):
        tree.warm_kernels()
        snapshot = tree.snapshot()
    queries = sample_queries(dataset, n_queries, seed=99)
    with timer.phase("walk"):
        engines = bench_engines(tree, queries, args.k, rounds)

    report = report_header(n, args.quick, timer=timer, snapshot=snapshot)
    report["engines"] = engines

    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
    print(json.dumps(report, indent=2))
    print(f"\nwrote {args.out}")
    speedup = report["engines"]["speedup_snapshot_vs_seed"]
    print(f"snapshot engine speedup vs seed walk: {speedup:.2f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
