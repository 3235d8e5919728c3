"""Micro/throughput benchmark for the :mod:`repro.perf` subsystem.

Writes ``BENCH_kernels.json`` with ops/sec for:

* ``exact_similarity`` — extended-Jaccard similarity over sampled object
  vector pairs: the seed's sorted-tuple merge-join (reimplemented here
  verbatim as the reference) vs the frozen pure-Python kernel vs the
  numpy kernel (skipped when numpy is unavailable).
* ``interval_bounds`` — MinSimT/MaxSimT interval-vector bounds through
  the production measure.
* ``end_to_end_query`` — single RSTkNN queries per second.
* ``batch_throughput`` — an E3-style query workload through a fresh
  seed-walk searcher per query (the seed pattern) vs a sequential
  ``BatchSearcher`` on the snapshot engine (the default it resolves
  to), whose pair memo stays warm across queries.

Usage::

    PYTHONPATH=src python benchmarks/bench_perf_kernels.py [--quick] [--out F]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, List, Tuple

from repro.core.rstknn import RSTkNNSearcher
from repro.index.iurtree import IURTree
from repro.perf import BatchSearcher, kernels
from repro.text.similarity import make_measure
from repro.workloads import gn_like, sample_queries


# ----------------------------------------------------------------------
# Seed reference: the sorted-tuple merge-join SparseVector.dot/sum_min/
# sum_max used before the frozen kernels existed (copied from the seed).
# ----------------------------------------------------------------------

def _seed_dot(a_ids, a_w, b_ids, b_w) -> float:
    i = j = 0
    total = 0.0
    na, nb = len(a_ids), len(b_ids)
    while i < na and j < nb:
        ai, bj = a_ids[i], b_ids[j]
        if ai == bj:
            total += a_w[i] * b_w[j]
            i += 1
            j += 1
        elif ai < bj:
            i += 1
        else:
            j += 1
    return total


def _seed_exact_jaccard(a_ids, a_w, a_nsq, b_ids, b_w, b_nsq) -> float:
    dot = _seed_dot(a_ids, a_w, b_ids, b_w)
    denom = a_nsq + b_nsq - dot
    return dot / denom if denom > 0.0 else 0.0


def _frozen_exact_jaccard(fa, fb) -> float:
    return fa.ext_jaccard(fb)


def _time_ops(fn, pairs, min_seconds: float) -> float:
    """Run ``fn`` over every pair repeatedly; return ops/sec."""
    # Warm-up (freezing, cache effects) happens outside the timed window.
    for a, b in pairs[: len(pairs) // 4 + 1]:
        fn(a, b)
    ops = 0
    started = time.perf_counter()
    while True:
        for a, b in pairs:
            fn(a, b)
        ops += len(pairs)
        elapsed = time.perf_counter() - started
        if elapsed >= min_seconds:
            return ops / elapsed


def bench_exact_similarity(
    dataset, min_seconds: float
) -> Dict[str, float]:
    vectors = [obj.vector for obj in dataset]
    # Every (i, i+stride) pair — mixes near-duplicates and disjoint text.
    pairs_v: List[Tuple] = []
    n = len(vectors)
    for stride in (1, 7, 31):
        pairs_v.extend((vectors[i], vectors[(i + stride) % n]) for i in range(n))

    seed_pairs = [
        (
            (a.term_ids(), tuple(w for _, w in a.items()), a.norm_squared),
            (b.term_ids(), tuple(w for _, w in b.items()), b.norm_squared),
        )
        for a, b in pairs_v
    ]
    out: Dict[str, float] = {}
    out["seed_ops_per_sec"] = _time_ops(
        lambda a, b: _seed_exact_jaccard(*a, *b), seed_pairs, min_seconds
    )

    with kernels.use_backend("python"):
        frozen_pairs = [(a.frozen(), b.frozen()) for a, b in pairs_v]
        out["frozen_python_ops_per_sec"] = _time_ops(
            _frozen_exact_jaccard, frozen_pairs, min_seconds
        )
    out["speedup_frozen_python_vs_seed"] = (
        out["frozen_python_ops_per_sec"] / out["seed_ops_per_sec"]
    )

    if kernels.numpy_available():
        with kernels.use_backend("numpy"):
            frozen_np = [(a.frozen(), b.frozen()) for a, b in pairs_v]
            out["frozen_numpy_ops_per_sec"] = _time_ops(
                _frozen_exact_jaccard, frozen_np, min_seconds
            )
        out["speedup_frozen_numpy_vs_seed"] = (
            out["frozen_numpy_ops_per_sec"] / out["seed_ops_per_sec"]
        )
    else:
        out["frozen_numpy_ops_per_sec"] = None

    # ``auto`` picks a concrete form per vector length (python below the
    # measured crossover) — this row is what production sees by default.
    # Freeze directly: under ``auto`` the vectors' cached forms from the
    # sections above are still "current", so ``.frozen()`` would measure
    # whichever backend ran last instead of auto's own choice.
    with kernels.use_backend("auto"):
        frozen_auto = [
            (
                kernels.freeze(
                    a.term_ids(),
                    tuple(w for _, w in a.items()),
                    a.norm_squared,
                ),
                kernels.freeze(
                    b.term_ids(),
                    tuple(w for _, w in b.items()),
                    b.norm_squared,
                ),
            )
            for a, b in pairs_v
        ]
        out["frozen_auto_ops_per_sec"] = _time_ops(
            _frozen_exact_jaccard, frozen_auto, min_seconds
        )
    out["speedup_frozen_auto_vs_seed"] = (
        out["frozen_auto_ops_per_sec"] / out["seed_ops_per_sec"]
    )
    out["auto_numpy_min_terms"] = kernels.AUTO_NUMPY_MIN_TERMS
    # Leave the vectors frozen under the default backend again.
    for a, b in pairs_v:
        a.frozen(), b.frozen()
    return out


def bench_interval_bounds(tree, min_seconds: float) -> Dict[str, float]:
    measure = make_measure(tree.dataset.config.text_measure)
    ivs = [
        iv
        for node in tree.rtree.nodes.values()
        for entry in node.entries
        for iv in entry.clusters.values()
    ]
    n = len(ivs)
    pairs = [(ivs[i], ivs[(i + 3) % n]) for i in range(n)]

    def both_bounds(a, b):
        measure.min_similarity(a, b)
        measure.max_similarity(a, b)

    return {
        "pairs": len(pairs),
        "bound_pairs_per_sec": _time_ops(both_bounds, pairs, min_seconds),
    }


def bench_end_to_end(tree, queries, k: int, min_seconds: float) -> Dict[str, float]:
    searcher = RSTkNNSearcher(tree)
    qp = [(q, k) for q in queries]
    return {
        "queries_per_sec": _time_ops(
            lambda q, kk: searcher.search(q, kk), qp, min_seconds
        )
    }


def bench_batch(tree, queries, k: int, repeats: int) -> Dict[str, float]:
    n = len(queries)

    def per_query_round() -> float:
        # Seed pattern: a fresh seed-walk searcher per query, nothing
        # shared (pinned explicitly — under ``auto`` a fresh searcher
        # would silently pick the snapshot engine and stop being the
        # baseline this row claims to be).
        started = time.perf_counter()
        for q in queries:
            RSTkNNSearcher(tree, engine="seed").search(q, k)
        return n / (time.perf_counter() - started)

    snap_engine = BatchSearcher(tree, workers=1, engine="snapshot")
    snap_engine.run(queries, k)  # freeze the snapshot once, untimed

    def batch_snapshot_round() -> float:
        started = time.perf_counter()
        snap_engine.run(queries, k)
        return n / (time.perf_counter() - started)

    # Median of several interleaved rounds — queries are milliseconds
    # each, so single rounds are noisy.
    rounds = max(3, repeats)
    seed_rates = sorted(per_query_round() for _ in range(rounds))
    snap_rates = sorted(batch_snapshot_round() for _ in range(rounds))
    seed_qps = seed_rates[rounds // 2]
    snap_qps = snap_rates[rounds // 2]
    return {
        "queries": n,
        "k": k,
        "per_query_qps": seed_qps,
        "batch_snapshot_engine_qps": snap_qps,
        "speedup_batch_snapshot_vs_per_query": snap_qps / seed_qps,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI-sized run")
    parser.add_argument("--out", default="BENCH_kernels.json")
    parser.add_argument("--n", type=int, default=None, help="dataset size")
    args = parser.parse_args(argv)

    n = args.n if args.n is not None else (200 if args.quick else 400)
    min_seconds = 0.2 if args.quick else 1.0
    repeats = 1 if args.quick else 3
    n_queries = 6 if args.quick else 12

    dataset = gn_like(n=n)
    tree = IURTree.build(dataset)
    tree.warm_kernels()
    queries = sample_queries(dataset, n_queries, seed=99)

    from repro.bench.meta import bench_metadata

    report = {
        "meta": bench_metadata(),
        "n": n,
        "quick": args.quick,
        "backend_default": kernels.backend_name(),
        "numpy_available": kernels.numpy_available(),
        "exact_similarity": bench_exact_similarity(dataset, min_seconds),
        "interval_bounds": bench_interval_bounds(tree, min_seconds),
        "end_to_end_query": bench_end_to_end(tree, queries, 5, min_seconds),
        "batch_throughput": bench_batch(tree, queries, 5, repeats),
    }

    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
    print(json.dumps(report, indent=2))
    print(f"\nwrote {args.out}")

    kernel_x = report["exact_similarity"]["speedup_frozen_python_vs_seed"]
    batch_x = report["batch_throughput"]["speedup_batch_snapshot_vs_per_query"]
    print(f"kernel speedup (frozen python vs seed): {kernel_x:.2f}x")
    print(f"batch speedup (snapshot batch vs per-query): {batch_x:.2f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
