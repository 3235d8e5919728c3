"""Command-line interface: run experiments and quick demos.

Examples::

    repro-rstknn list
    repro-rstknn run E1
    repro-rstknn run E3 --scale 2000
    repro-rstknn demo --n 1000 --k 5
    repro-rstknn obs --queries 20 --format prom
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .bench.experiments import EXPERIMENTS, run_experiment, scale_kwargs
from .bench.report import format_table
from .core.rstknn import ENGINE_CHOICES, RSTkNNSearcher
from .index.iurtree import IURTree
from .workloads import gn_like, sample_queries


def _cmd_list(_args: argparse.Namespace) -> int:
    rows = [[name, desc] for name, (_, desc) in sorted(EXPERIMENTS.items())]
    print(format_table(["experiment", "description"], rows))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    kwargs = (
        {} if args.scale is None else scale_kwargs(args.experiment, args.scale)
    )
    headers, rows = run_experiment(args.experiment, **kwargs)
    _, desc = EXPERIMENTS[args.experiment.upper()]
    print(format_table(headers, rows, title=f"{args.experiment.upper()} — {desc}"))
    if args.out:
        from datetime import datetime, timezone

        from .bench.results import ResultLog

        ResultLog(args.out).append(
            args.experiment.upper(),
            headers,
            rows,
            params=kwargs,
            stamp=datetime.now(timezone.utc).isoformat(),
        )
        print(f"(appended to {args.out})")
    return 0


def _cmd_show(args: argparse.Namespace) -> int:
    from .bench.results import ResultLog

    log = ResultLog(args.log)
    if args.experiment:
        print(log.render(args.experiment.upper()))
    else:
        stored = log.experiments()
        if not stored:
            print(f"no runs stored in {args.log}")
        else:
            print("stored experiments:", ", ".join(stored))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .bench.quick import environment_summary, run_quick_suite

    for line in environment_summary():
        print(line)
    headers, rows = run_quick_suite(
        n=args.n, k=args.k, include_base=not args.no_base
    )
    print(
        format_table(
            headers,
            rows,
            title=f"quick suite — |D|={args.n}, k={args.k} (parity checked)",
        )
    )
    return 0


def _apply_live_writes(live, dataset, writes: int, seed: int = 7):
    """Apply a mixed insert/delete churn through a live index.

    Deletes pick random existing oids; inserts clone a random existing
    object's location and keywords (guaranteed in-region/in-vocab).
    Returns ``(inserted, deleted)``.
    """
    import random

    rng = random.Random(seed)
    inserted = deleted = 0
    for _ in range(writes):
        oids = [o.oid for o in dataset.objects]
        if rng.random() < 0.5 and len(oids) > 2:
            if live.delete_object(rng.choice(oids)):
                deleted += 1
                continue
        donor = dataset.get(rng.choice(oids))
        live.insert(donor.point, " ".join(donor.keywords))
        inserted += 1
    return inserted, deleted


def _add_live_args(parser) -> None:
    """``--live-updates``/``--writes`` for batch, serve-batch, serve-http."""
    parser.add_argument(
        "--live-updates",
        action="store_true",
        help="wrap the index in the LSM live-update path "
        "(repro.lsm.LiveIndex)",
    )
    parser.add_argument(
        "--writes",
        type=int,
        default=0,
        help="mixed insert/delete writes to absorb through the live "
        "overlay before serving (implies --live-updates)",
    )


def _cmd_batch(args: argparse.Namespace) -> int:
    from .bench.harness import build_tree
    from .perf import BatchSearcher

    dataset = gn_like(n=args.n)
    tree = build_tree(dataset, args.method)
    live = None
    if args.live_updates or args.writes:
        from .lsm import LiveIndex

        live = LiveIndex(tree)
        tree = live
    queries = sample_queries(dataset, args.queries)
    engine = BatchSearcher(
        tree,
        workers=args.workers,
        engine=args.engine,
    )
    live_rows = []
    if live is not None and args.writes:
        inserted, deleted = _apply_live_writes(live, dataset, args.writes)
        dirty = engine.run(queries, args.k).stats
        import time as _time

        fold_started = _time.perf_counter()
        live.freeze_step()
        fold_seconds = _time.perf_counter() - fold_started
        live_rows = [
            ["live writes", f"{inserted} inserts, {deleted} deletes"],
            ["dirty throughput (q/s)", f"{dirty.queries_per_second:.1f}"],
            ["dirty run", f"{dirty.workers} worker(s), "
             f"fallback {dirty.fallback_reason or '-'}"],
            ["fold (s)", f"{fold_seconds:.3f}"],
        ]
    batch = engine.run(queries, args.k)
    stats = batch.stats
    rows = [
        ["queries", stats.queries],
        ["workers", stats.workers],
        ["elapsed (s)", f"{stats.elapsed_seconds:.3f}"],
        ["throughput (q/s)", f"{stats.queries_per_second:.1f}"],
        ["mean latency (ms)", f"{stats.mean_ms:.2f}"],
        ["result ids (total)", stats.total_result_ids],
    ]
    if stats.worker_rss_bytes is not None:
        rows.append(
            ["worker peak RSS (MiB)", f"{stats.worker_rss_bytes / 2**20:.1f}"]
        )
    if stats.fallback_reason:
        rows.append(["fallback", stats.fallback_reason])
    rows.extend(live_rows)
    print(
        format_table(
            ["metric", "value"],
            rows,
            title=(
                f"batch — {args.method} |D|={args.n}, "
                f"{stats.queries} queries, k={args.k}"
            ),
        )
    )
    return 0


def _service_chain(engine: str):
    """Map a ``--engine`` choice to a degradation chain.

    ``auto`` keeps the full chain; ``snapshot`` and ``seed`` start the
    chain at that engine (later hops remain available — every chain
    engine is parity-identical, so this only pins the first attempt,
    never the answer).  ``approx`` prepends the sketch-guided filter to
    the full chain: it reads the answer off the sketch's exact kNN
    profiles (``k > kmax`` runs the snapshot walk), so its ids match
    the others bit for bit.
    """
    from .service import DEGRADATION_CHAIN

    if engine == "auto":
        return DEGRADATION_CHAIN
    if engine == "approx":
        return ("approx",) + DEGRADATION_CHAIN
    return DEGRADATION_CHAIN[DEGRADATION_CHAIN.index(engine):]


def _cmd_serve_batch(args: argparse.Namespace) -> int:
    from .bench.harness import build_tree
    from .config import SimilarityConfig
    from .obs import MetricsRegistry
    from .service import QueryService, QueueFull
    from .service.faults import current_plan

    registry = MetricsRegistry()
    config = (
        SimilarityConfig(alpha=args.alpha) if args.alpha is not None else None
    )
    dataset = gn_like(n=args.n, config=config)
    tree = build_tree(dataset, args.method)
    live = None
    if args.live_updates or args.writes:
        from .lsm import LiveIndex

        live = LiveIndex(tree, metrics=registry)
        tree = live
        if args.writes:
            inserted, deleted = _apply_live_writes(live, dataset, args.writes)
            print(
                f"live writes applied: {inserted} inserts, {deleted} deletes "
                f"({live.pending()} pending; reads walk the union snapshot "
                "of the frozen tree and the overlay until it folds)"
            )
    queries = sample_queries(dataset, args.queries)
    service = QueryService(
        tree,
        chain=_service_chain(args.engine),
        deadline_seconds=args.deadline,
        max_pending=args.max_pending,
        metrics=registry,
    )
    plan = current_plan()
    if plan is not None:
        print(f"fault plan armed: {plan.describe()}")
    shed = 0
    for query in queries:
        try:
            service.submit(query, args.k)
        except QueueFull:
            shed += 1
    batch = service.drain()
    counters = registry.snapshot()["counters"]
    latency = registry.histogram("service.latency_seconds")
    percentiles = batch.latency_percentiles
    rows = [
        ["queries", len(queries)],
        ["served", len(batch.results)],
        ["degraded", batch.degraded_count],
        ["shed", shed],
        ["deadline expiries", counters.get("service.deadline_exceeded", 0)],
        ["chain failures", counters.get("service.failed", 0)],
        ["mean latency (ms)", f"{latency.mean() * 1000.0:.2f}"],
    ]
    for point in ("p50", "p95", "p99"):
        if point in percentiles:
            rows.append(
                [f"latency {point} (ms)", f"{percentiles[point] * 1000.0:.2f}"]
            )
    if args.deadline is not None:
        rows.insert(1, ["deadline (s)", args.deadline])
    for result in batch.results:
        if result.degraded:
            rows.append(
                [
                    "degraded path",
                    " -> ".join(result.degraded_path + (result.engine,)),
                ]
            )
            break
    if live is not None:
        import time as _time

        pending = live.pending()
        fold_started = _time.perf_counter()
        folded = live.freeze_step()
        fold_seconds = _time.perf_counter() - fold_started
        rows.append(["live pending (pre-fold)", pending])
        rows.append(["fold (s)", f"{fold_seconds:.3f}" if folded else "clean"])
    print(
        format_table(
            ["metric", "value"],
            rows,
            title=(
                f"serve-batch — {args.method} |D|={args.n}, "
                f"{len(queries)} queries, k={args.k}"
            ),
        )
    )
    if args.format == "prom":
        sys.stdout.write(registry.to_prometheus())
    return 0


def _cmd_serve_http(args: argparse.Namespace) -> int:
    import asyncio

    from .config import SimilarityConfig
    from .index.ciurtree import CIURTree
    from .obs import MetricsRegistry
    from .shard import ScatterGatherSearcher, build_sharded_index
    from .shard.http import ShardHttpServer

    config = (
        SimilarityConfig(alpha=args.alpha) if args.alpha is not None else None
    )
    dataset = gn_like(n=args.n, config=config)
    tree_cls = CIURTree if args.method == "ciur" else IURTree
    registry = MetricsRegistry()
    if args.live_updates or args.writes:
        # Pre-serve churn leg: absorb writes through a live index
        # (union snapshot while dirty), fold, then serve the post-fold
        # dataset through the regular sharded stack below.
        _serve_http_live_churn(args, dataset, tree_cls, registry)
    index = build_sharded_index(dataset, args.shards, tree_cls=tree_cls)
    searcher = ScatterGatherSearcher(index, metrics=registry)
    server = ShardHttpServer(
        searcher,
        host=args.host,
        port=args.port,
        default_k=args.k,
        max_pending=args.max_pending,
        deadline_seconds=args.deadline,
    )
    if args.self_test:
        return _serve_http_self_test(args, dataset, tree_cls, searcher, server)

    async def run() -> None:
        await server.start()
        print(
            f"serving {args.shards} shard(s) over |D|={args.n} "
            f"on http://{server.host}:{server.port} (Ctrl-C to stop)"
        )
        await server._server.serve_forever()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    return 0


def _serve_http_live_churn(args, dataset, tree_cls, registry) -> None:
    """``serve-http --live-updates``: write churn before serving.

    The HTTP stack serves a frozen sharded index, so live writes run
    through a :class:`repro.lsm.LiveIndex` *before* the server binds:
    absorb ``--writes`` mixed writes, answer up to four probe queries
    with an :class:`~repro.core.rstknn.RSTkNNSearcher` over the live
    index (its union snapshot while writes are pending), check each
    against a tree freshly built from the mutated dataset, then fold.
    The sharded index built afterwards serves the post-fold dataset.
    """
    import time as _time

    from .lsm import LiveIndex

    live = LiveIndex(tree_cls.build(dataset), metrics=registry)
    try:
        inserted, deleted = _apply_live_writes(live, dataset, args.writes)
        probes = sample_queries(dataset, min(4, max(args.queries, 1)))
        searcher = RSTkNNSearcher(live)
        fresh = RSTkNNSearcher(tree_cls.build(dataset), engine="seed")
        for i, probe in enumerate(probes):
            merged = searcher.search(probe, args.k)
            reference = fresh.search(probe, args.k)
            if list(merged.ids) != list(reference.ids):
                raise SystemExit(
                    f"live churn parity failure on probe {i}: merged "
                    f"{merged.ids} != fresh build {reference.ids}"
                )
        fold_started = _time.perf_counter()
        folded = live.freeze_step()
        fold_seconds = _time.perf_counter() - fold_started
        print(
            f"live churn: {inserted} inserts, {deleted} deletes; "
            f"{len(probes)} merged probes matched a fresh build; "
            + (f"fold took {fold_seconds:.3f}s" if folded else "overlay clean")
        )
    finally:
        live.close()


def _serve_http_self_test(args, dataset, tree_cls, searcher, server) -> int:
    """Boot the server in-process, query it over real HTTP, and gate
    the answers against both a direct ``searcher.search`` and the
    unsharded snapshot engine (bit-identical ids or a non-zero exit)."""
    import asyncio

    from .shard.http import fetch_json
    from .spatial import Point
    from .text.similarity import make_measure

    tree = tree_cls.build(dataset)
    measure = make_measure(dataset.config.text_measure)
    engine = tree.snapshot().engine_for(
        tree, measure, dataset.config.alpha, 0.0
    )
    queries = sample_queries(dataset, max(args.queries, 1))
    failures: List[str] = []

    server.port = 0  # ephemeral bind: self-tests must not collide

    async def main() -> None:
        await server.start()
        host, port = server.host, server.port
        status, body = await fetch_json(host, port, "/healthz")
        if status != 200 or body.get("shards") != args.shards:
            failures.append(f"healthz: {status} {body}")
        for i, q in enumerate(queries):
            m = q.mbr()
            x, y, text = m.xlo, m.ylo, " ".join(q.keywords)
            query = dataset.make_query(Point(x, y), text)
            direct = searcher.search(query, args.k)
            reference = engine.search(query, args.k).ids
            status, body = await fetch_json(
                host, port, "/search",
                {"x": x, "y": y, "text": text, "k": args.k},
            )
            if status != 200:
                failures.append(f"query {i}: HTTP {status} {body}")
            elif body.get("ids") != list(direct.ids):
                failures.append(
                    f"query {i}: http {body.get('ids')} != direct {direct.ids}"
                )
            elif list(direct.ids) != list(reference):
                failures.append(
                    f"query {i}: sharded {direct.ids} != unsharded {reference}"
                )
        await server.stop()

    asyncio.run(main())
    if failures:
        for line in failures:
            print(f"FAIL {line}", file=sys.stderr)
        return 1
    print(
        f"serve-http self-test PASSED: {len(queries)} queries over HTTP, "
        f"{args.shards} shard(s), parity with direct search and the "
        "unsharded snapshot engine"
    )
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    import json

    from .core.rstknn import RSTkNNSearcher as _Searcher
    from .obs import MetricsRegistry, MetricsSink, PhaseTimer

    registry = MetricsRegistry()
    timer = PhaseTimer()
    dataset = gn_like(n=args.n)
    with timer.phase("build"):
        tree = IURTree.build(dataset)
    with timer.phase("freeze"):
        tree.warm_kernels()
        if args.engine != "seed":
            tree.snapshot()
    searcher = _Searcher(tree, engine=args.engine, metrics=registry)
    sink = MetricsSink(registry)
    queries = sample_queries(dataset, args.queries)
    with timer.phase("walk"):
        for query in queries:
            searcher.search(query, args.k, trace=sink)
    timer.publish(registry)
    if args.format == "prom":
        sys.stdout.write(registry.to_prometheus())
    else:
        print(json.dumps(registry.snapshot(), indent=2, sort_keys=True))
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    dataset = gn_like(n=args.n)
    tree = IURTree.build(dataset)
    searcher = RSTkNNSearcher(tree, engine=args.engine)
    queries = sample_queries(dataset, args.queries)
    print(f"dataset: {dataset.stats()}")
    print(f"index:   {tree.stats().as_dict()}")
    for i, query in enumerate(queries):
        tree.reset_io()
        result = searcher.search(query, args.k)
        print(
            f"query {i}: |RSTkNN|={len(result.ids)} "
            f"io={tree.io.reads} stats={result.stats.as_dict()}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse CLI (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-rstknn",
        description="Reverse spatial-textual kNN reproduction harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list available experiments")
    p_list.set_defaults(fn=_cmd_list)

    p_run = sub.add_parser("run", help="run one experiment and print its table")
    p_run.add_argument("experiment", help="experiment id, e.g. E1")
    p_run.add_argument(
        "--scale", type=int, default=None, help="override the dataset size"
    )
    p_run.add_argument(
        "--out", default=None, help="append the table to a JSONL result log"
    )
    p_run.set_defaults(fn=_cmd_run)

    p_show = sub.add_parser("show", help="re-render stored experiment results")
    p_show.add_argument("log", help="JSONL result log written by `run --out`")
    p_show.add_argument(
        "experiment", nargs="?", default=None, help="experiment id to render"
    )
    p_show.set_defaults(fn=_cmd_show)

    p_bench = sub.add_parser("bench", help="run the quick one-page suite")
    p_bench.add_argument("--n", type=int, default=400)
    p_bench.add_argument("--k", type=int, default=5)
    p_bench.add_argument(
        "--no-base", action="store_true", help="skip the slow baseline row"
    )
    p_bench.set_defaults(fn=_cmd_bench)

    p_batch = sub.add_parser(
        "batch", help="run a query workload through the batch engine"
    )
    p_batch.add_argument("--n", type=int, default=800)
    p_batch.add_argument("--k", type=int, default=5)
    p_batch.add_argument("--queries", type=int, default=20)
    p_batch.add_argument(
        "--workers",
        type=int,
        default=1,
        help="process fan-out; 1 = sequential",
    )
    p_batch.add_argument(
        "--method", choices=("iur", "ciur"), default="iur", help="index variant"
    )
    p_batch.add_argument(
        "--engine",
        choices=ENGINE_CHOICES,
        default=None,
        help="traversal engine (default: REPRO_ENGINE, then auto); "
        "approx runs the sketch-guided filter of repro.approx",
    )
    _add_live_args(p_batch)
    p_batch.set_defaults(fn=_cmd_batch)

    p_serve = sub.add_parser(
        "serve-batch",
        help="run a workload through the fault-tolerant query service "
        "(deadlines, degradation chain, admission queue; honors "
        "REPRO_FAULTS)",
    )
    p_serve.add_argument("--n", type=int, default=800)
    p_serve.add_argument("--k", type=int, default=5)
    p_serve.add_argument("--queries", type=int, default=20)
    p_serve.add_argument(
        "--method", choices=("iur", "ciur"), default="iur", help="index variant"
    )
    p_serve.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="per-query deadline in seconds (default: none)",
    )
    p_serve.add_argument(
        "--max-pending",
        type=int,
        default=1024,
        help="admission-queue capacity; excess requests are shed",
    )
    p_serve.add_argument(
        "--format",
        choices=("table", "prom"),
        default="table",
        help="append Prometheus metrics text after the summary table",
    )
    p_serve.add_argument(
        "--engine",
        choices=ENGINE_CHOICES,
        default="auto",
        help="first engine of the degradation chain (auto = full "
        "snapshot -> seed chain; approx prepends the kNNL sketch "
        "filter, which answers from exact kNN profiles)",
    )
    p_serve.add_argument(
        "--alpha",
        type=float,
        default=None,
        help="spatial/textual blend of the workload's similarity config",
    )
    _add_live_args(p_serve)
    p_serve.set_defaults(fn=_cmd_serve_batch)

    p_http = sub.add_parser(
        "serve-http",
        help="serve sharded scatter-gather RSTkNN over HTTP (asyncio "
        "front door; POST /search, GET /healthz, GET /metrics)",
    )
    p_http.add_argument("--n", type=int, default=2000)
    p_http.add_argument("--k", type=int, default=5, help="default k")
    p_http.add_argument(
        "--shards", type=int, default=4, help="Morton shard count"
    )
    p_http.add_argument("--host", default="127.0.0.1")
    p_http.add_argument("--port", type=int, default=8764)
    p_http.add_argument(
        "--method", choices=("iur", "ciur"), default="iur", help="index variant"
    )
    p_http.add_argument(
        "--alpha",
        type=float,
        default=None,
        help="spatial/textual blend of the served similarity config",
    )
    p_http.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="per-query deadline in seconds, shared by every admitted "
        "shard's search (default: none)",
    )
    p_http.add_argument(
        "--max-pending",
        type=int,
        default=64,
        help="concurrent in-flight request cap; excess sheds with 503",
    )
    p_http.add_argument(
        "--queries",
        type=int,
        default=3,
        help="self-test query count (ignored when serving)",
    )
    p_http.add_argument(
        "--self-test",
        action="store_true",
        help="boot on an ephemeral port, run queries over HTTP, gate "
        "parity against direct search and the unsharded engine, exit",
    )
    _add_live_args(p_http)
    p_http.set_defaults(fn=_cmd_serve_http)

    p_obs = sub.add_parser(
        "obs",
        help="run a small traced workload and export its metrics "
        "(JSON snapshot or Prometheus text)",
    )
    p_obs.add_argument("--n", type=int, default=400)
    p_obs.add_argument("--k", type=int, default=5)
    p_obs.add_argument("--queries", type=int, default=10)
    p_obs.add_argument(
        "--engine",
        choices=ENGINE_CHOICES,
        default="auto",
        help="traversal engine the workload runs on",
    )
    p_obs.add_argument(
        "--format",
        choices=("json", "prom"),
        default="json",
        help="export format: JSON registry snapshot or Prometheus text",
    )
    p_obs.set_defaults(fn=_cmd_obs)

    p_demo = sub.add_parser("demo", help="build an index and run a few queries")
    p_demo.add_argument("--n", type=int, default=800)
    p_demo.add_argument("--k", type=int, default=5)
    p_demo.add_argument("--queries", type=int, default=3)
    p_demo.add_argument(
        "--engine",
        choices=ENGINE_CHOICES,
        default=None,
        help="traversal engine (default: REPRO_ENGINE, then auto)",
    )
    p_demo.set_defaults(fn=_cmd_demo)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
