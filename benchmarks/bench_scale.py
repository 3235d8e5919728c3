"""Scale benchmark: zero-copy shm worker fan-out against sequential.

Builds the Zipf/clustered gn-like workload at ``n = 10^5`` objects
(``10^6`` behind ``--huge``), freezes the snapshot once, and sweeps
``n x k x workers`` over two execution strategies of
:class:`repro.perf.BatchSearcher`:

* ``sequential`` — one process, per-query snapshot engine (the parity
  reference);
* ``parallel`` — worker processes attach the parent's shared-memory
  snapshot segment (:mod:`repro.perf.shm`); the pool payload is a
  segment *name*, attach is O(1), and touched vectors materialize
  lazily.  Where shared memory is unavailable the cell runs in the
  parent and its ``fallback_reason`` says why.

Per ``n`` the report records snapshot freeze time, segment export and
attach times, the segment size, per-worker peak RSS, and the QPS of
every cell.  **Parity is a hard gate** in every mode, ``--quick``
included: the run exits non-zero unless both strategies return
identical result ids *and* identical decision counters for every
query.

Usage::

    PYTHONPATH=src python benchmarks/bench_scale.py [--quick] [--huge]
        [--n N [N ...]] [--k K [K ...]] [--workers W] [--queries Q]
        [--out F]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, List, Optional

from repro.bench.gates import report_header, results_gate
from repro.index.iurtree import IURTree
from repro.perf.batch import BatchSearcher
from repro.workloads import gn_like, sample_queries


def parity_gate(reference, candidate, label: str) -> None:
    """Exit non-zero on any per-query divergence from the reference."""
    results_gate(
        reference.results, candidate.results, f"scale {label}"
    )


def _parent_rss_bytes() -> Optional[int]:
    try:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    except Exception:  # pragma: no cover - platform without getrusage
        return None


def bench_transports(tree, n: int) -> Dict[str, object]:
    """One-time per-``n`` transport costs: freeze, export and attach."""
    from repro.perf.shm import SharedSnapshotSegment, attach, shm_available

    out: Dict[str, object] = {}

    started = time.perf_counter()
    snap = tree.snapshot()
    out["freeze_seconds"] = time.perf_counter() - started  # memoized: ~0
    out["snapshot_nbytes"] = snap.nbytes()

    ok, why = shm_available()
    out["shm_available"] = ok
    if not ok:
        out["shm_unavailable_reason"] = why
        return out
    started = time.perf_counter()
    seg = SharedSnapshotSegment.create(tree)
    out["shm_export_seconds"] = time.perf_counter() - started
    out["segment_bytes"] = seg.nbytes
    started = time.perf_counter()
    attached = attach(seg.name)
    out["shm_attach_seconds"] = time.perf_counter() - started
    attached.close()
    seg.release()
    return out


def bench_cell(
    tree, queries, k: int, workers: int, reference
) -> Dict[str, object]:
    """QPS/RSS of one parallel ``(k, workers)`` cell."""
    bs = BatchSearcher(tree, workers=workers, engine="snapshot", warm=False)
    run = bs.run(queries, k)
    parity_gate(reference, run, f"k={k} workers={workers}")
    stats = run.stats
    sequential_qps = reference.stats.queries_per_second
    return {
        "k": k,
        "workers": workers,
        "qps": stats.queries_per_second,
        "speedup_vs_sequential": (
            stats.queries_per_second / sequential_qps
            if sequential_qps
            else 0.0
        ),
        "latency_ms": stats.latency_ms,
        "elapsed_seconds": stats.elapsed_seconds,
        "worker_rss_bytes": stats.worker_rss_bytes,
        "fallback_reason": stats.fallback_reason,
        "phases": stats.phases,
    }


def bench_scale(
    n: int, ks: List[int], workers_list: List[int], n_queries: int
) -> Dict[str, object]:
    """All cells for one dataset size, parity-gated against sequential."""
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

    transports = bench_transports(tree, n)
    row: Dict[str, object] = {
        "n": n,
        "queries": n_queries,
        "phases": timer.as_dict(),
        "parent_rss_bytes": _parent_rss_bytes(),
        "transports": transports,
        "cells": [],
    }

    sequential = BatchSearcher(tree, workers=1, engine="snapshot", warm=False)
    for k in ks:
        reference = sequential.run(queries, k)
        row["cells"].append(
            {
                "k": k,
                "workers": 1,
                "sequential_qps": reference.stats.queries_per_second,
                "sequential_latency_ms": reference.stats.latency_ms,
            }
        )
        for workers in workers_list:
            if workers < 2:
                continue
            row["cells"].append(
                bench_cell(tree, queries, k, workers, reference)
            )
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="CI-sized run (n~5000)"
    )
    parser.add_argument(
        "--huge", action="store_true", help="also run the 10^6-object row"
    )
    parser.add_argument(
        "--n", type=int, nargs="+", default=None, help="dataset sizes"
    )
    parser.add_argument("--k", type=int, nargs="+", default=None)
    parser.add_argument(
        "--workers", type=int, default=4, help="parallel fan-out per cell"
    )
    parser.add_argument("--queries", type=int, default=None)
    parser.add_argument("--out", default="BENCH_scale.json")
    args = parser.parse_args(argv)

    if args.n is not None:
        ns = list(args.n)
    elif args.quick:
        ns = [5_000]
    else:
        ns = [100_000]
        if args.huge:
            ns.append(1_000_000)
    ks = args.k if args.k is not None else ([5] if args.quick else [5, 10])
    n_queries = (
        args.queries
        if args.queries is not None
        else (6 if args.quick else 8)
    )
    workers_list = [1, args.workers]

    rows = [bench_scale(n, ks, workers_list, n_queries) for n in ns]

    # Headline acceptance cell: largest n, first k, full fan-out.
    headline = None
    for cell in rows[-1]["cells"]:
        if cell.get("workers") == args.workers and cell["k"] == ks[0]:
            headline = cell
            break

    report = report_header(ns[-1], args.quick)
    report.update({"parity": "ok", "rows": rows, "headline": headline})

    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
    print(json.dumps(report, indent=2))
    print(f"\nwrote {args.out}")
    if headline is not None:
        print(
            f"n={rows[-1]['n']} k={headline['k']} "
            f"workers={headline['workers']}: "
            f"{headline['qps']:.3f} q/s, "
            f"{headline['speedup_vs_sequential']:.2f}x sequential"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
