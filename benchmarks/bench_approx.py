"""Approx-tier benchmark: frozen kNNL floors + the sketch-filter engine.

Runs the E3-style single-query workload (gn-like dataset, sampled
queries) through four tiers of
:class:`repro.core.rstknn.RSTkNNSearcher` over a ``k x alpha`` sweep —

* ``snapshot`` — the exact columnar engine (the parity reference);
* ``warm`` — the same engine seeded with frozen kNNL warm-start floors
  (``warm_floors=True``): **bit-identical ids by construction**, only
  pruning gets earlier;
* ``approx verified`` — ``engine="approx", verify=True``: the sketch
  filter generates a conservative candidate superset, every survivor is
  verified exactly (**byte-identical ids**);
* ``approx raw`` — ``engine="approx", verify=False``: the raw filter
  output, with recall/precision measured against the exact reference —

and writes ``BENCH_approx.json`` with QPS, speedups, recall/precision,
the sketch build cost per alpha (``build_seconds`` and bytes under
``report["sketches"]``, their sum under ``report["phases"]``), and the
filter counters.

**Five hard gates** (the run exits non-zero on any failure):

1. warm floors and verified approx must return ids identical to the
   exact snapshot engine in every cell — always armed, ``--quick``
   included;
2. raw-filter recall must be exactly 1.0 in every cell — always armed
   (the conservative sketch guarantees it by construction, so any dip
   is a soundness bug, not a tuning miss);
3. warm-floor single-query QPS must be >= 1.2x the snapshot engine in
   the headline cell — armed at ``n >= 50_000`` (floors only matter
   once contribution lists dominate);
4. raw-filter precision must be >= 10x the layout-window baseline in
   every baselined cell — armed at ``n >= 50_000``; smaller runs
   (``--quick`` included) instead gate on an absolute small-n floor,
   so the smoke tier still catches precision regressions;
5. verified-mode QPS must be strictly above the layout-window baseline
   in every baselined cell — armed at ``n >= 50_000``.

Usage::

    PYTHONPATH=src python benchmarks/bench_approx.py [--quick] [--n N]
        [--k K [K ...]] [--alpha A [A ...]] [--out F] [--no-lsh]
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List

from repro.bench.gates import ids_gate, median_qps, report_header, timed
from repro.config import SimilarityConfig
from repro.core.rstknn import RSTkNNSearcher
from repro.index.iurtree import IURTree
from repro.obs import MetricsRegistry
from repro.perf import kernels
from repro.workloads import gn_like, sample_queries

#: The warm-floor QPS gate only arms at scale — below this, walks are
#: too short for freeze-time floors to beat their own bookkeeping.
GATE_N = 50_000
WARM_SPEEDUP_GATE = 1.2

#: The conservative sketch guarantees recall 1.0 by construction, so
#: the gate is exact: anything below is a soundness bug.
RECALL_GATE = 1.0

#: Raw-filter precision of the layout-window-only sketch (the build
#: before per-object k-distance profiles) at n=100_000 — the baseline
#: the exact profiles must beat by PRECISION_MULTIPLE_GATE.
_BASELINE_PRECISION = {
    (4, 0.3): 0.011241,
    (4, 0.6): 0.025641,
    (8, 0.3): 0.009395,
    (8, 0.6): 0.022358,
}

#: Verified-mode QPS of the same baseline build at n=100_000; the
#: tighter floors must strictly improve every baselined cell.
_BASELINE_VERIFIED_QPS = {
    (4, 0.3): 1.01185,
    (4, 0.6): 5.64065,
    (8, 0.3): 0.26303,
    (8, 0.6): 1.21472,
}

PRECISION_MULTIPLE_GATE = 10.0

#: Absolute raw-precision floor for sub-GATE_N runs (the CI smoke
#: tier): small corpora run far above this, so a trip means the
#: profiles or the LSH stage regressed, not that the workload drifted.
QUICK_PRECISION_GATE = 0.05


def recall_precision(
    reference: List[List[int]], got: List[List[int]]
) -> Dict[str, float]:
    """Micro-averaged recall/precision of ``got`` against ``reference``."""
    hits = ref_total = got_total = 0
    for ref_ids, got_ids in zip(reference, got):
        ref_set = set(ref_ids)
        hits += sum(1 for i in got_ids if i in ref_set)
        ref_total += len(ref_ids)
        got_total += len(got_ids)
    return {
        "recall": hits / ref_total if ref_total else 1.0,
        "precision": hits / got_total if got_total else 1.0,
        "reference_results": ref_total,
        "returned_results": got_total,
    }


def bench_cell(
    tree,
    queries,
    k: int,
    alpha: float,
    rounds: int,
    metrics,
    lsh: bool = True,
) -> Dict[str, object]:
    """Gates + QPS for one ``(k, alpha)`` cell of the sweep."""
    config = SimilarityConfig(alpha=alpha)
    knobs = dict(approx_lsh=lsh)
    base = RSTkNNSearcher(tree, config=config, engine="snapshot")
    warm = RSTkNNSearcher(
        tree, config=config, engine="snapshot", warm_floors=True, **knobs
    )
    verified = RSTkNNSearcher(
        tree, config=config, engine="approx", approx_verify=True, **knobs
    )
    raw = RSTkNNSearcher(
        tree,
        config=config,
        engine="approx",
        approx_verify=False,
        metrics=metrics,
        **knobs,
    )
    label = f"k={k} alpha={alpha}"

    # Hard gates first (also warms every engine, sketch, and memo).
    reference = [base.search(q, k).ids for q in queries]
    ids_gate(
        reference,
        [warm.search(q, k).ids for q in queries],
        f"warm floors vs snapshot, {label}",
    )
    ids_gate(
        reference,
        [verified.search(q, k).ids for q in queries],
        f"approx verify=True vs snapshot, {label}",
    )

    # Per-cell candidate-flow counters: delta around the quality pass
    # (the engine's own counters are cumulative across cells).
    snap = tree.snapshot()
    raw_engine = snap.approx_engine_for(
        tree, raw.measure, raw.alpha, raw.te_weight, verify=False, lsh=lsh,
    )
    before = dict(raw_engine.counters)
    quality = recall_precision(
        reference, [raw.search(q, k).ids for q in queries]
    )
    flow = {
        key: raw_engine.counters[key] - before.get(key, 0)
        for key in ("candidates", "lsh_pruned", "answers")
    }
    if quality["recall"] < RECALL_GATE:
        raise SystemExit(
            f"recall gate FAILED ({label}): "
            f"{quality['recall']:.4f} < {RECALL_GATE}"
        )
    metrics.gauge("approx.recall").set(quality["recall"])

    n = len(queries)

    def sweep(searcher):
        def run() -> None:
            for q in queries:
                searcher.search(q, k)

        return median_qps(timed(run), n, rounds)

    snapshot_qps = sweep(base)
    warm_qps = sweep(warm)
    verified_qps = sweep(verified)
    raw_qps = sweep(raw)

    # The memoized filter engine exposes its cumulative counters.
    filter_counters = dict(raw_engine.counters)

    return {
        "k": k,
        "alpha": alpha,
        "queries": n,
        "parity": "ok",
        "recall": quality["recall"],
        "precision": quality["precision"],
        "reference_results": quality["reference_results"],
        "returned_results": quality["returned_results"],
        "candidates_per_query": flow["candidates"] / n,
        "lsh_pruned_per_query": flow["lsh_pruned"] / n,
        "answers_per_query": flow["answers"] / n,
        "candidate_precision": (
            flow["answers"] / flow["candidates"]
            if flow["candidates"]
            else 1.0
        ),
        "snapshot_qps": snapshot_qps,
        "warm_floors_qps": warm_qps,
        "approx_verified_qps": verified_qps,
        "approx_raw_qps": raw_qps,
        "speedup_warm_vs_snapshot": warm_qps / snapshot_qps,
        "speedup_verified_vs_snapshot": verified_qps / snapshot_qps,
        "speedup_raw_vs_snapshot": raw_qps / snapshot_qps,
        "filter_counters": filter_counters,
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
        "--no-lsh",
        action="store_true",
        help="disable the approx engine's LSH pre-filter stage",
    )
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
    lsh = not args.no_lsh
    with timer.phase("walk"):
        cells = [
            bench_cell(tree, queries, k, alpha, rounds, metrics, lsh=lsh)
            for k in ks
            for alpha in alphas
        ]

    headline = cells[0]
    gate_armed = n >= GATE_N
    if gate_armed and (
        headline["speedup_warm_vs_snapshot"] < WARM_SPEEDUP_GATE
    ):
        raise SystemExit(
            f"warm-floor QPS gate FAILED (k={headline['k']} "
            f"alpha={headline['alpha']}): "
            f"{headline['speedup_warm_vs_snapshot']:.3f}x < "
            f"{WARM_SPEEDUP_GATE}x at n={n}"
        )

    # Precision and verified-QPS gates: against the layout-window
    # baseline at scale, against the absolute smoke floor below it.
    for cell in cells:
        key = (cell["k"], cell["alpha"])
        label = f"k={key[0]} alpha={key[1]}"
        if gate_armed:
            baseline = _BASELINE_PRECISION.get(key)
            if baseline is not None and (
                cell["precision"] < PRECISION_MULTIPLE_GATE * baseline
            ):
                raise SystemExit(
                    f"precision gate FAILED ({label}): "
                    f"{cell['precision']:.4f} < "
                    f"{PRECISION_MULTIPLE_GATE}x baseline {baseline:.4f}"
                )
            qps_floor = _BASELINE_VERIFIED_QPS.get(key)
            if qps_floor is not None and (
                cell["approx_verified_qps"] <= qps_floor
            ):
                raise SystemExit(
                    f"verified-QPS gate FAILED ({label}): "
                    f"{cell['approx_verified_qps']:.3f} <= baseline "
                    f"{qps_floor:.3f}"
                )
        elif cell["precision"] < QUICK_PRECISION_GATE:
            raise SystemExit(
                f"small-n precision gate FAILED ({label}): "
                f"{cell['precision']:.4f} < {QUICK_PRECISION_GATE}"
            )

    report = report_header(n, args.quick, timer=timer, snapshot=snapshot)
    report["gates"] = {
        "parity": "ok",
        "recall_gate": RECALL_GATE,
        "warm_speedup_gate": WARM_SPEEDUP_GATE,
        "warm_speedup_gate_armed": gate_armed,
        "warm_speedup_gate_n": GATE_N,
        "precision_multiple_gate": PRECISION_MULTIPLE_GATE,
        "precision_baseline": {
            f"{k},{a}": v for (k, a), v in _BASELINE_PRECISION.items()
        },
        "verified_qps_baseline": {
            f"{k},{a}": v
            for (k, a), v in _BASELINE_VERIFIED_QPS.items()
        },
        "quick_precision_gate": QUICK_PRECISION_GATE,
        "lsh": lsh,
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
        f"warm floors {headline['speedup_warm_vs_snapshot']:.2f}x, "
        f"approx raw {headline['speedup_raw_vs_snapshot']:.2f}x vs "
        f"snapshot; recall {headline['recall']:.4f}, "
        f"precision {headline['precision']:.4f}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
