"""Shard benchmark: scatter–gather scaling and shard-prune rates.

Builds the clustered gn-like workload at ``n = 10^5`` objects, freezes
one unsharded snapshot engine as the parity reference, then sweeps the
Morton shard count over ``{1, 2, 4, 8}``: per shard count the dataset
is re-partitioned (:func:`repro.shard.build_sharded_index`), admission
summaries are precomputed, and every query runs through
:class:`repro.shard.ScatterGatherSearcher` — in-process for the
intra-query work curve, plus an optional worker-pool leg (``--workers``)
where the shards are attached zero-copy via PR 6 segments.

Two similarity settings are measured (``--alphas``, default 0.5 and
0.9): prune rates rise with the spatial weight, because shard admission
compares the query's best-possible score against each shard's
within-shard competitor floor and spatially tight Morton shards have
high floors.

**Parity is a hard gate**: for every query, shard count, alpha, and
execution leg, the merged ids must be bit-identical to the unsharded
snapshot engine's answer or the run exits non-zero.  The acceptance
row additionally requires a nonzero measured shard-prune rate on this
clustered workload.

Usage::

    PYTHONPATH=src python benchmarks/bench_shard.py [--quick]
        [--n N] [--k K] [--shards S [S ...]] [--alphas A [A ...]]
        [--workers W] [--queries Q] [--out F]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, List

from repro.bench.gates import ids_gate, report_header
from repro.config import SimilarityConfig
from repro.index.iurtree import IURTree
from repro.obs import latency_percentiles
from repro.shard import ScatterGatherSearcher, build_sharded_index
from repro.text.similarity import make_measure
from repro.workloads import gn_like, sample_queries


def _run_leg(searcher, queries, k: int) -> Dict[str, object]:
    """One measured pass: ids for the gate plus timing/prune counters."""
    ids: List[List[int]] = []
    samples: List[float] = []
    searched = pruned = candidates = probes = 0
    started = time.perf_counter()
    for query in queries:
        result = searcher.search(query, k)
        ids.append(list(result.ids))
        samples.append(result.stats.elapsed_seconds)
        searched += result.stats.shards_searched
        pruned += result.stats.shards_pruned
        candidates += result.stats.candidates
        probes += result.stats.merge_probes
    elapsed = time.perf_counter() - started
    n = len(queries)
    considered = searched + pruned
    return {
        "ids": ids,
        "qps": n / elapsed if elapsed > 0 else 0.0,
        "mean_query_seconds": elapsed / n if n else 0.0,
        "latency_ms": {
            point: seconds * 1000.0
            for point, seconds in latency_percentiles(samples).items()
        },
        "prune_rate": pruned / considered if considered else 0.0,
        "shards_searched_mean": searched / n if n else 0.0,
        "candidates_mean": candidates / n if n else 0.0,
        "merge_probes_mean": probes / n if n else 0.0,
    }


def bench_alpha(
    dataset,
    tree,
    alpha: float,
    queries,
    k: int,
    shard_counts: List[int],
    shard_indexes: Dict[int, object],
    workers: int,
) -> Dict[str, object]:
    """The shard-count sweep for one similarity setting."""
    measure = make_measure(dataset.config.text_measure)
    engine = tree.snapshot().engine_for(tree, measure, alpha, 0.0)

    reference: List[List[int]] = []
    started = time.perf_counter()
    for query in queries:
        reference.append(list(engine.search(query, k).ids))
    unsharded_seconds = (time.perf_counter() - started) / len(queries)

    config = SimilarityConfig(
        alpha=alpha, text_measure=dataset.config.text_measure
    )
    rows: List[Dict[str, object]] = []
    for s in shard_counts:
        index = shard_indexes[s]
        started = time.perf_counter()
        searcher = ScatterGatherSearcher(index, config)
        summary_seconds = time.perf_counter() - started

        leg = _run_leg(searcher, queries, k)
        ids_gate(reference, leg.pop("ids"), f"alpha={alpha} shards={s}")
        row: Dict[str, object] = {
            "shards": s,
            "summary_seconds": summary_seconds,
            "inprocess": leg,
            "speedup_vs_unsharded": (
                unsharded_seconds / leg["mean_query_seconds"]
                if leg["mean_query_seconds"]
                else 0.0
            ),
        }
        if workers > 1 and s > 1:
            with ScatterGatherSearcher(
                index, config, workers=workers
            ) as parallel:
                pleg = _run_leg(parallel, queries, k)
                ids_gate(
                    reference,
                    pleg.pop("ids"),
                    f"alpha={alpha} shards={s} workers={workers}",
                )
                pleg["share"] = (
                    "pickle" if parallel.fallback_reason else "shm"
                )
                pleg["fallback_reason"] = parallel.fallback_reason
                row["parallel"] = pleg
                row["speedup_parallel_vs_unsharded"] = (
                    unsharded_seconds / pleg["mean_query_seconds"]
                    if pleg["mean_query_seconds"]
                    else 0.0
                )
        rows.append(row)
    return {
        "alpha": alpha,
        "k": k,
        "queries": len(queries),
        "unsharded_mean_query_seconds": unsharded_seconds,
        "unsharded_qps": 1.0 / unsharded_seconds if unsharded_seconds else 0.0,
        "rows": rows,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI-sized run")
    parser.add_argument("--n", type=int, default=None, help="dataset size")
    parser.add_argument("--k", type=int, default=5)
    parser.add_argument(
        "--shards", type=int, nargs="+", default=None, help="shard counts"
    )
    parser.add_argument(
        "--alphas", type=float, nargs="+", default=[0.5, 0.9],
        help="similarity blends to sweep",
    )
    parser.add_argument(
        "--workers", type=int, default=4,
        help="worker-pool fan-out for the parallel leg (0/1 disables)",
    )
    parser.add_argument("--queries", type=int, default=None)
    parser.add_argument("--out", default="BENCH_shard.json")
    args = parser.parse_args(argv)

    n = args.n if args.n is not None else (1_500 if args.quick else 100_000)
    shard_counts = (
        args.shards
        if args.shards is not None
        else ([1, 2, 4] if args.quick else [1, 2, 4, 8])
    )
    n_queries = (
        args.queries if args.queries is not None else (6 if args.quick else 12)
    )

    from repro.obs import PhaseTimer

    timer = PhaseTimer()
    with timer.phase("generate"):
        dataset = gn_like(n=n)
    with timer.phase("build"):
        tree = IURTree.build(dataset)
    with timer.phase("freeze"):
        tree.warm_kernels()
        tree.snapshot()
    queries = sample_queries(dataset, n_queries, seed=99)

    shard_indexes: Dict[int, object] = {}
    shard_build_seconds: Dict[str, float] = {}
    with timer.phase("shard_build"):
        for s in shard_counts:
            started = time.perf_counter()
            shard_indexes[s] = build_sharded_index(dataset, s)
            shard_build_seconds[str(s)] = time.perf_counter() - started

    settings = [
        bench_alpha(
            dataset, tree, alpha, queries, args.k,
            shard_counts, shard_indexes, args.workers,
        )
        for alpha in args.alphas
    ]

    max_prune = max(
        row["inprocess"]["prune_rate"]
        for setting in settings
        for row in setting["rows"]
    )
    if max_prune <= 0.0:
        raise SystemExit(
            "shard-prune acceptance FAILED: no setting measured a nonzero "
            "prune rate on the clustered workload"
        )

    report = report_header(n, args.quick, timer=timer)
    report.update(
        {
            "parity": "ok",
            "k": args.k,
            "shard_counts": shard_counts,
            "shard_build_seconds": shard_build_seconds,
            "max_prune_rate": max_prune,
            "settings": settings,
        }
    )

    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
    print(json.dumps(report, indent=2))
    print(f"\nwrote {args.out}")
    for setting in settings:
        curve = ", ".join(
            f"S={row['shards']}: {row['speedup_vs_unsharded']:.2f}x "
            f"(prune {row['inprocess']['prune_rate']:.0%})"
            for row in setting["rows"]
        )
        print(f"alpha={setting['alpha']}: {curve}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
