"""Approx-tier benchmark: the kNNL sketch-filter engine vs the exact walk.

Runs the E3-style single-query workload (gn-like dataset, sampled
queries) through two tiers of
:class:`repro.core.rstknn.RSTkNNSearcher` over a ``k x alpha`` sweep —

* ``snapshot`` — the exact columnar engine (the parity reference);
* ``approx`` — ``engine="approx"``: the sketch filter's survivors are
  the answer for ``k <= kmax`` (exact profiles, no verification probe),
  and larger ``k`` runs the snapshot walk —

and writes ``BENCH_approx.json`` with QPS, speedups, the sketch build
cost per alpha (``build_seconds`` and bytes under
``report["sketches"]``, their sum under ``report["phases"]``), and the
filter counters.

**Two hard gates** (the run exits non-zero on any failure):

1. approx must return ids identical to the exact snapshot engine in
   every cell — always armed, ``--quick`` included.  Identical ids
   mean recall = precision = 1.0, so this one gate is stricter than
   separate recall and precision floors;
2. approx QPS must be strictly above the layout-window baseline in
   every baselined cell — armed at ``n >= 50_000``.

Usage::

    PYTHONPATH=src python benchmarks/bench_approx.py [--quick] [--n N]
        [--k K [K ...]] [--alpha A [A ...]] [--out F]
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict

from repro.bench.gates import ids_gate, median_qps, report_header, timed
from repro.config import SimilarityConfig
from repro.core.rstknn import RSTkNNSearcher
from repro.index.iurtree import IURTree
from repro.obs import MetricsRegistry
from repro.perf import kernels
from repro.workloads import gn_like, sample_queries

#: The approx-QPS gate only arms at scale: its baselines were measured
#: at n=100_000.
GATE_N = 50_000

#: Verified-mode QPS of the layout-window-only sketch (the build before
#: per-object k-distance profiles) at n=100_000; the approx engine
#: must strictly improve every baselined cell.
_BASELINE_APPROX_QPS = {
    (4, 0.3): 1.01185,
    (4, 0.6): 5.64065,
    (8, 0.3): 0.26303,
    (8, 0.6): 1.21472,
}

#: Per-query filter counters reported per cell.
_FLOW_KEYS = ("candidates", "answers", "nodes_pruned", "exact_fallbacks")


def bench_cell(
    tree,
    queries,
    k: int,
    alpha: float,
    rounds: int,
    metrics,
) -> Dict[str, object]:
    """Gates + QPS for one ``(k, alpha)`` cell of the sweep."""
    config = SimilarityConfig(alpha=alpha)
    base = RSTkNNSearcher(tree, config=config, engine="snapshot")
    approx = RSTkNNSearcher(
        tree, config=config, engine="approx", metrics=metrics
    )
    label = f"k={k} alpha={alpha}"

    # Hard gates first (also warms every engine, sketch, and memo).
    # Per-cell filter counters: delta around the gate pass (the
    # engine's own counters are cumulative across cells).
    snap = tree.snapshot()
    engine = snap.approx_engine_for(
        tree, approx.measure, approx.alpha, approx.te_weight
    )
    before = dict(engine.counters)
    reference = [base.search(q, k).ids for q in queries]
    ids_gate(
        reference,
        [approx.search(q, k).ids for q in queries],
        f"approx vs snapshot, {label}",
    )
    flow = {key: engine.counters[key] - before[key] for key in _FLOW_KEYS}

    n = len(queries)

    def sweep(searcher):
        def run() -> None:
            for q in queries:
                searcher.search(q, k)

        return median_qps(timed(run), n, rounds)

    snapshot_qps = sweep(base)
    approx_qps = sweep(approx)

    return {
        "k": k,
        "alpha": alpha,
        "queries": n,
        "parity": "ok",
        "results": sum(len(ids) for ids in reference),
        **{f"{key}_per_query": flow[key] / n for key in _FLOW_KEYS},
        "snapshot_qps": snapshot_qps,
        "approx_qps": approx_qps,
        "speedup_approx_vs_snapshot": approx_qps / snapshot_qps,
        # The memoized filter engine exposes its cumulative counters.
        "filter_counters": dict(engine.counters),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI-sized run")
    parser.add_argument("--n", type=int, default=None, help="dataset size")
    parser.add_argument(
        "--k", type=int, nargs="+", default=None, help="k sweep values"
    )
    parser.add_argument(
        "--alpha",
        type=float,
        nargs="+",
        default=None,
        help="alpha sweep values",
    )
    parser.add_argument("--queries", type=int, default=None)
    parser.add_argument("--out", default="BENCH_approx.json")
    parser.add_argument(
        "--backend",
        choices=kernels.KERNEL_BACKENDS,
        default="auto",
        help="kernel backend to bench (default: auto dispatch, the "
        "production path)",
    )
    args = parser.parse_args(argv)
    kernels.set_backend(args.backend)

    n = args.n if args.n is not None else (400 if args.quick else 100_000)
    ks = args.k if args.k is not None else ([4] if args.quick else [4, 8])
    alphas = (
        args.alpha
        if args.alpha is not None
        else ([0.5] if args.quick else [0.3, 0.6])
    )
    n_queries = (
        args.queries if args.queries is not None else (4 if args.quick else 8)
    )
    rounds = 1 if args.quick else 3

    from repro.obs import PhaseTimer

    timer = PhaseTimer()
    dataset = gn_like(n=n)
    with timer.phase("build"):
        tree = IURTree.build(dataset)
    with timer.phase("freeze"):
        tree.warm_kernels()
        snapshot = tree.snapshot()
    queries = sample_queries(dataset, n_queries, seed=99)

    # Build the sketch for every sweep setting inside one timed phase so
    # the report separates freeze-time cost from per-query wins.
    sketches = []
    with timer.phase("sketch"):
        for alpha in alphas:
            config = SimilarityConfig(alpha=alpha)
            s = RSTkNNSearcher(tree, config=config, engine="snapshot")
            sketch = snapshot.sketch_for(
                snapshot.engine_for(tree, s.measure, s.alpha, s.te_weight)
            )
            sketches.append(dict(sketch.describe(), alpha=alpha))
            print(
                f"sketch alpha={alpha}: build_seconds="
                f"{sketch.build_seconds:.3f}, {sketch.nbytes()} bytes",
                flush=True,
            )

    metrics = MetricsRegistry()
    with timer.phase("walk"):
        cells = [
            bench_cell(tree, queries, k, alpha, rounds, metrics)
            for k in ks
            for alpha in alphas
        ]

    headline = cells[0]
    gate_armed = n >= GATE_N

    # Approx-QPS gate: against the layout-window baseline at scale.
    for cell in cells:
        key = (cell["k"], cell["alpha"])
        qps_floor = _BASELINE_APPROX_QPS.get(key)
        if gate_armed and qps_floor is not None and (
            cell["approx_qps"] <= qps_floor
        ):
            raise SystemExit(
                f"approx-QPS gate FAILED (k={key[0]} alpha={key[1]}): "
                f"{cell['approx_qps']:.3f} <= baseline {qps_floor:.3f}"
            )

    report = report_header(n, args.quick, timer=timer, snapshot=snapshot)
    report["gates"] = {
        "parity": "ok",
        "approx_qps_gate_armed": gate_armed,
        "approx_qps_gate_n": GATE_N,
        "approx_qps_baseline": {
            f"{k},{a}": v for (k, a), v in _BASELINE_APPROX_QPS.items()
        },
    }
    report["sketches"] = sketches
    report["cells"] = cells
    report["approx_metrics"] = metrics.snapshot()

    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
    print(json.dumps(report, indent=2))
    print(f"\nwrote {args.out}")
    print(
        f"headline (k={headline['k']} alpha={headline['alpha']}): "
        f"approx {headline['speedup_approx_vs_snapshot']:.2f}x vs "
        "snapshot; ids identical in every cell"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
