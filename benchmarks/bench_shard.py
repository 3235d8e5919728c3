"""Shard benchmark: scatter–gather scaling and shard-prune rates.

Builds the clustered gn-like workload at ``n = 10^5`` objects and, per
similarity setting (``--alphas``, default 0.5 and 0.9), times three
kinds of leg over the same queries.  Every leg runs in its own freshly
spawned process, which rebuilds the (deterministic) corpus and queries
and its own structures, so every pair memo starts cold and no leg
inherits another's allocation history; legs timed one after another in
one process measured that history (±25% between identical walks at
``n = 10^5``), not the variant:

* the unsharded snapshot engine, whose ids are the parity reference;
* one :class:`repro.shard.ScatterGatherSearcher` leg per Morton shard
  count (default ``{1, 2, 4, 8}``), with its admission summaries
  precomputed (``summary_seconds``);
* the unsharded engine again, after the shard sweep, on a freshly
  built tree, so a drift in the host's speed over the run shows up as
  two different unsharded figures.

Prune rates rise with the spatial weight, because shard admission
compares the query's best-possible score against each shard's
within-shard competitor floor and spatially tight Morton shards have
high floors.

Every leg records how many pair bounds its engines computed during
the timed queries (the sum of ``SnapshotEngine.misses``, without the
summary build's), the memo entries each engine holds, and
whether any memo reached ``repro.core.traversal._PAIR_MEMO_CAP``; a
memo at its cap recomputes every further pair, which is what separates
one big walk from several small ones at large ``n``.

**Parity is a hard gate**: for every query, shard count and alpha the
merged ids must be bit-identical to the unsharded snapshot engine's
answer, and the second unsharded leg must reproduce the first, or the
run exits non-zero.  The acceptance row additionally requires a
nonzero measured shard-prune rate on this clustered workload.  The
legs return their ids to the parent, which runs both checks; the
report's ``phases`` sum every leg's ``generate`` and build time.

Usage::

    PYTHONPATH=src python benchmarks/bench_shard.py [--quick]
        [--n N] [--k K] [--shards S [S ...]] [--alphas A [A ...]]
        [--queries Q] [--out F]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from typing import Dict, List, Optional, Sequence

from repro.bench.gates import ids_gate, report_header
from repro.config import SimilarityConfig
from repro.core.traversal import _PAIR_MEMO_CAP
from repro.index.iurtree import IURTree
from repro.obs import PhaseTimer, latency_percentiles
from repro.shard import ScatterGatherSearcher, build_sharded_index
from repro.text.similarity import make_measure
from repro.workloads import gn_like, sample_queries


def _memo_facts(engines: Sequence, before: int = 0) -> Dict[str, object]:
    """Pair bounds computed since ``before`` and memo occupancy over one
    leg's engines."""
    entries = [len(engine._memo) for engine in engines]
    return {
        "pair_bounds": sum(engine.misses for engine in engines) - before,
        "memo_entries": entries,
        "memo_at_cap": any(n >= _PAIR_MEMO_CAP for n in entries),
    }


def _leg(search, queries, k: int) -> Dict[str, object]:
    """One timed pass of ``search(query, k)`` over every query."""
    ids: List[List[int]] = []
    samples: List[float] = []
    started = time.perf_counter()
    for query in queries:
        t0 = time.perf_counter()
        ids.append(list(search(query, k)))
        samples.append(time.perf_counter() - t0)
    elapsed = time.perf_counter() - started
    n = len(queries)
    return {
        "ids": ids,
        "qps": n / elapsed if elapsed > 0 else 0.0,
        "mean_query_seconds": elapsed / n if n else 0.0,
        "latency_p50_ms": latency_percentiles(samples, (50,))["p50"] * 1000.0,
    }


def _unsharded_leg(dataset, alpha: float, queries, k: int, timer, phase: str):
    """Build and freeze a fresh tree, then time its snapshot engine."""
    with timer.phase(phase):
        tree = IURTree.build(dataset)
        tree.warm_kernels()
        tree.snapshot()
    measure = make_measure(dataset.config.text_measure)
    engine = tree.snapshot().engine_for(tree, measure, alpha, 0.0)
    leg = _leg(lambda q, kk: engine.search(q, kk).ids, queries, k)
    leg.update(_memo_facts([engine]))
    return leg


def _sharded_leg(
    dataset, alpha: float, queries, k: int, s: int, timer, phase: str
):
    """Build ``s`` shards and their summaries, then time the searcher."""
    with timer.phase(phase):
        index = build_sharded_index(dataset, s)
    config = SimilarityConfig(
        alpha=alpha, text_measure=dataset.config.text_measure
    )
    started = time.perf_counter()
    searcher = ScatterGatherSearcher(index, config)
    summary_seconds = time.perf_counter() - started
    engines = index.engines(searcher.measure, alpha, searcher.te_weight)
    summary_pair_bounds = sum(engine.misses for engine in engines)
    searched = pruned = candidates = probes = 0

    def search(query, kk):
        nonlocal searched, pruned, candidates, probes
        result = searcher.search(query, kk)
        searched += result.stats.shards_searched
        pruned += result.stats.shards_pruned
        candidates += result.stats.candidates
        probes += result.stats.merge_probes
        return result.ids

    leg = _leg(search, queries, k)
    n = len(queries)
    considered = searched + pruned
    leg["prune_rate"] = pruned / considered if considered else 0.0
    leg["shards_searched_mean"] = searched / n if n else 0.0
    leg["candidates_mean"] = candidates / n if n else 0.0
    leg["merge_probes_mean"] = probes / n if n else 0.0
    leg.update(_memo_facts(engines, summary_pair_bounds))
    return {
        "shards": s,
        "shard_build_seconds": timer.seconds(phase),
        "summary_seconds": summary_seconds,
        "inprocess": leg,
    }


def _child_leg(
    n: int, n_queries: int, alpha: float, k: int, shards: Optional[int],
    phase: str,
) -> Dict[str, object]:
    """One leg, run in a fresh process: rebuild the corpus and queries
    (both deterministic), then build under ``phase`` and time the
    unsharded engine (``shards`` is ``None``) or ``shards`` shards.
    Returns the leg with its ids and the phase times it spent."""
    timer = PhaseTimer()
    with timer.phase("generate"):
        dataset = gn_like(n=n)
    queries = sample_queries(dataset, n_queries, seed=99)
    if shards is None:
        leg = _unsharded_leg(dataset, alpha, queries, k, timer, phase)
    else:
        leg = _sharded_leg(dataset, alpha, queries, k, shards, timer, phase)
    leg["phases"] = timer.as_dict()
    return leg


def _in_fresh_process(timer, *args) -> Dict[str, object]:
    """Run :func:`_child_leg` in a newly spawned process; fold its phase
    times into ``timer``."""
    with ProcessPoolExecutor(
        max_workers=1, mp_context=get_context("spawn")
    ) as pool:
        leg = pool.submit(_child_leg, *args).result()
    for name, seconds in leg.pop("phases").items():
        timer.add(name, seconds)
    return leg


def bench_alpha(
    n: int, n_queries: int, alpha: float, k: int, shard_counts: List[int],
    timer,
) -> Dict[str, object]:
    """The unsharded reference, the shard-count sweep, the reference
    again, each leg in its own process."""
    first = _in_fresh_process(timer, n, n_queries, alpha, k, None, "build")
    reference = first.pop("ids")
    rows: List[Dict[str, object]] = []
    for s in shard_counts:
        row = _in_fresh_process(
            timer, n, n_queries, alpha, k, s, "shard_build"
        )
        leg = row["inprocess"]
        ids_gate(reference, leg.pop("ids"), f"alpha={alpha} shards={s}")
        row["speedup_vs_unsharded"] = (
            first["mean_query_seconds"] / leg["mean_query_seconds"]
            if leg["mean_query_seconds"]
            else 0.0
        )
        rows.append(row)
    last = _in_fresh_process(timer, n, n_queries, alpha, k, None, "rebuild")
    ids_gate(reference, last.pop("ids"), f"alpha={alpha} unsharded rerun")
    return {
        "alpha": alpha,
        "k": k,
        "queries": n_queries,
        "unsharded_first": first,
        "unsharded_last": last,
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

    timer = PhaseTimer()
    settings = [
        bench_alpha(n, n_queries, alpha, args.k, shard_counts, timer)
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
            "pair_memo_cap": _PAIR_MEMO_CAP,
            "max_prune_rate": max_prune,
            "settings": settings,
        }
    )

    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
    print(json.dumps(report, indent=2))
    print(f"\nwrote {args.out}")
    for setting in settings:
        first, last = setting["unsharded_first"], setting["unsharded_last"]
        curve = ", ".join(
            f"S={row['shards']}: {row['inprocess']['qps']:.3f} QPS, "
            f"{row['inprocess']['pair_bounds']} pair bounds, "
            f"prune {row['inprocess']['prune_rate']:.0%}"
            for row in setting["rows"]
        )
        print(
            f"alpha={setting['alpha']}: unsharded {first['qps']:.3f} QPS "
            f"then {last['qps']:.3f} QPS, {first['pair_bounds']} pair "
            f"bounds (memo at cap: {first['memo_at_cap']}); {curve}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
