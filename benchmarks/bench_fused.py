"""Fused batch-traversal benchmark: per-query engines vs the fused walk.

Runs the E3-style batch workload (gn-like dataset, sampled queries)
through three execution strategies of
:class:`repro.perf.BatchSearcher` —

* ``per_query_seed`` — the seed object-graph walk, one query at a time;
* ``snapshot`` — the columnar per-query snapshot engine (the default);
* ``fused`` — the fused group engine (``mode="fused"``): one snapshot
  walk per spatial-locality group, columnar text-bound matrices, and
  group-shared node work —

and writes ``BENCH_fused.json`` with the queries/sec of each and the
fused speedups.  **Per-query parity is a hard gate**: the run exits
non-zero unless every fused query returns identical result ids *and*
identical decision counters to the per-query snapshot engine.

Usage::

    PYTHONPATH=src python benchmarks/bench_fused.py [--quick] [--n N] [--out F]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict

from repro.bench.gates import median_qps, report_header, results_gate
from repro.index.iurtree import IURTree
from repro.perf import kernels
from repro.perf.batch import BatchSearcher
from repro.workloads import gn_like, sample_queries


def parity_gate(snapshot_bs, fused_bs, queries, k: int) -> None:
    """Exit non-zero on any per-query divergence from the snapshot engine."""
    per = snapshot_bs.run(queries, k).results
    fused = fused_bs.run(queries, k).results
    results_gate(per, fused, "fused vs snapshot")


def bench_modes(
    tree, queries, k: int, rounds: int, group_size: int
) -> Dict[str, object]:
    """Median QPS of each batch strategy; fused parity-gated first."""
    per_seed = BatchSearcher(tree, engine="seed")
    snapshot_bs = BatchSearcher(tree, engine="snapshot")
    fused_bs = BatchSearcher(
        tree, engine="snapshot", mode="fused", group_size=group_size
    )

    # Hard gate (also warms the snapshot, its engines, and every cache).
    parity_gate(snapshot_bs, fused_bs, queries, k)

    def round_for(bs, latency_sink):
        def run_round() -> float:
            started = time.perf_counter()
            run = bs.run(queries, k)
            latency_sink.clear()
            latency_sink.update(run.stats.latency_ms)
            return time.perf_counter() - started

        return run_round

    n = len(queries)
    seed_lat: Dict[str, float] = {}
    snapshot_lat: Dict[str, float] = {}
    fused_lat: Dict[str, float] = {}
    seed_qps = median_qps(round_for(per_seed, seed_lat), n, rounds)
    snapshot_qps = median_qps(round_for(snapshot_bs, snapshot_lat), n, rounds)
    fused_qps = median_qps(round_for(fused_bs, fused_lat), n, rounds)
    return {
        "queries": n,
        "k": k,
        "group_size": group_size,
        "parity": "ok",
        "per_query_seed_qps": seed_qps,
        "snapshot_qps": snapshot_qps,
        "fused_qps": fused_qps,
        "per_query_seed_latency_ms": dict(seed_lat),
        "snapshot_latency_ms": dict(snapshot_lat),
        "fused_latency_ms": dict(fused_lat),
        "speedup_fused_vs_snapshot": fused_qps / snapshot_qps,
        "speedup_fused_vs_seed": fused_qps / seed_qps,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI-sized run")
    parser.add_argument("--n", type=int, default=None, help="dataset size")
    parser.add_argument("--k", type=int, default=5)
    parser.add_argument("--group-size", type=int, default=None)
    parser.add_argument("--out", default="BENCH_fused.json")
    parser.add_argument(
        "--backend",
        choices=kernels.KERNEL_BACKENDS,
        default="auto",
        help="kernel backend to bench (default: auto dispatch, the "
        "production path — numpy kernels above the size cutover)",
    )
    args = parser.parse_args(argv)
    kernels.set_backend(args.backend)

    n = args.n if args.n is not None else (150 if args.quick else 400)
    n_queries = 4 if args.quick else 12
    rounds = 1 if args.quick else 5
    group_size = (
        args.group_size
        if args.group_size is not None
        else (4 if args.quick else 8)
    )

    from repro.core.fused import make_groups
    from repro.obs import PhaseTimer

    timer = PhaseTimer()
    dataset = gn_like(n=n)
    with timer.phase("build"):
        tree = IURTree.build(dataset)
    with timer.phase("freeze"):
        tree.warm_kernels()
        snapshot = tree.snapshot()
    queries = sample_queries(dataset, n_queries, seed=99)
    with timer.phase("group"):
        make_groups(queries, group_size)
    with timer.phase("walk"):
        modes = bench_modes(tree, queries, args.k, rounds, group_size)

    report = report_header(n, args.quick, timer=timer, snapshot=snapshot)
    report["text_matrix"] = snapshot.text_matrix().describe()
    report["modes"] = modes

    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
    print(json.dumps(report, indent=2))
    print(f"\nwrote {args.out}")
    speedup = report["modes"]["speedup_fused_vs_snapshot"]
    print(f"fused batch speedup vs per-query snapshot engine: {speedup:.2f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
