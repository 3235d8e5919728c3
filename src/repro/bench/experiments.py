"""Experiment drivers: one function per experiment of DESIGN.md §5.

Each ``run_eN`` function executes the corresponding sweep at a laptop
scale, returns ``(headers, rows)`` ready for :func:`format_table`, and is
shared between the CLI (`repro-rstknn run E1`) and the pytest benchmark
suite (which times the individual cells).  Every driver asserts result
parity between methods before reporting — these are exact algorithms, so
any disagreement is a bug, not a data point.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..config import IndexConfig, SimilarityConfig
from ..core.bichromatic import BichromaticRSTkNN
from ..core.topk import TopKSearcher
from ..errors import ConfigError
from ..index.iurtree import IURTree
from ..model.dataset import STDataset
from ..workloads import (
    WorkloadSpec,
    cd_like,
    generate_corpus,
    generate_user_corpus,
    gn_like,
    sample_queries,
    shop_like,
)
from .harness import (
    METHODS,
    QueryRun,
    build_tree,
    run_baseline_queries,
    run_queries,
)

Table = Tuple[List[str], List[List[str]]]

#: Default experiment scale; kept modest so the full suite runs in
#: minutes.  The CLI exposes ``--scale`` to grow it.
DEFAULT_N = 800
DEFAULT_QUERIES = 5
DEFAULT_K = 5


def _dataset(n: int = DEFAULT_N, config: Optional[SimilarityConfig] = None) -> STDataset:
    return gn_like(n=n, config=config)


def _assert_parity(results: Dict[str, List[int]]) -> None:
    """All exact methods must return identical result sets."""
    baseline = None
    for method, ids in results.items():
        if baseline is None:
            baseline = (method, ids)
            continue
        if ids != baseline[1]:
            raise AssertionError(
                f"result mismatch: {method} returned {len(ids)} ids, "
                f"{baseline[0]} returned {len(baseline[1])}"
            )


def _method_rows(
    dataset: STDataset,
    queries: Sequence,
    k: int,
    methods: Sequence[str] = METHODS,
    include_base: bool = True,
) -> List[QueryRun]:
    """Run every method over the same workload, with parity checking."""
    runs: List[QueryRun] = []
    parity: Dict[str, List[int]] = {}
    for method in methods:
        tree = build_tree(dataset, method)
        if method == "base":
            if not include_base:
                continue
            run = run_baseline_queries(tree, queries, k)
            from ..core.baseline import ThresholdBaseline

            parity[method] = ThresholdBaseline(tree).search(queries[0], k)
        else:
            run = run_queries(tree, queries, k, method=method)
            from ..core.rstknn import RSTkNNSearcher

            parity[method] = RSTkNNSearcher(tree).search(queries[0], k).ids
        runs.append(run)
    _assert_parity(parity)
    return runs


# ----------------------------------------------------------------------
# E1 — query cost vs k
# ----------------------------------------------------------------------


def run_e1(
    n: int = DEFAULT_N,
    ks: Sequence[int] = (1, 5, 10, 20),
    num_queries: int = DEFAULT_QUERIES,
) -> Table:
    """E1: query cost vs k, all methods (see DESIGN.md §5)."""
    dataset = _dataset(n)
    queries = sample_queries(dataset, num_queries)
    headers = ["k"] + QueryRun.HEADERS
    rows: List[List[str]] = []
    for k in ks:
        for run in _method_rows(dataset, queries, k):
            rows.append([str(k)] + run.as_row())
    return headers, rows


# ----------------------------------------------------------------------
# E2 — query cost vs alpha
# ----------------------------------------------------------------------


def run_e2(
    n: int = DEFAULT_N,
    alphas: Sequence[float] = (0.1, 0.3, 0.5, 0.7, 0.9),
    num_queries: int = DEFAULT_QUERIES,
    k: int = DEFAULT_K,
) -> Table:
    """E2: query cost vs the spatial/textual blend alpha."""
    headers = ["alpha"] + QueryRun.HEADERS
    rows: List[List[str]] = []
    for alpha in alphas:
        dataset = _dataset(n, SimilarityConfig(alpha=alpha))
        queries = sample_queries(dataset, num_queries)
        for run in _method_rows(
            dataset,
            queries,
            k,
            methods=("iur", "ciur", "ciur-oe", "ciur-te", "ciur-oe-te"),
        ):
            rows.append([f"{alpha:.1f}"] + run.as_row())
    return headers, rows


# ----------------------------------------------------------------------
# E3 — scalability vs |D|
# ----------------------------------------------------------------------


def run_e3(
    sizes: Sequence[int] = (250, 500, 1000, 2000),
    num_queries: int = 5,
    k: int = DEFAULT_K,
    include_base: bool = True,
) -> Table:
    """E3: scalability vs dataset size, group methods vs baseline."""
    headers = ["|D|"] + QueryRun.HEADERS
    rows: List[List[str]] = []
    for n in sizes:
        dataset = _dataset(n)
        queries = sample_queries(dataset, num_queries)
        methods: Sequence[str] = ("base", "iur", "ciur") if include_base else ("iur", "ciur")
        for run in _method_rows(dataset, queries, k, methods=methods):
            rows.append([str(n)] + run.as_row())
    return headers, rows


# ----------------------------------------------------------------------
# E4 — pruning power
# ----------------------------------------------------------------------


def run_e4(
    n: int = DEFAULT_N, num_queries: int = DEFAULT_QUERIES, k: int = DEFAULT_K
) -> Table:
    """E4: pruning power — fraction of objects decided in bulk."""
    dataset = _dataset(n)
    queries = sample_queries(dataset, num_queries)
    headers = ["method", "group-decided %", "verified %", "expansions"]
    rows: List[List[str]] = []
    for method in ("iur", "ciur", "ciur-oe", "ciur-te", "ciur-oe-te"):
        tree = build_tree(dataset, method)
        run = run_queries(tree, queries, k, method=method)
        verified_pct = 100.0 * run.mean_verified / max(len(dataset), 1)
        rows.append(
            [
                method,
                f"{100 * run.group_decided_fraction:.2f}%",
                f"{verified_pct:.2f}%",
                f"{run.mean_expansions:.1f}",
            ]
        )
    return headers, rows


# ----------------------------------------------------------------------
# E5 — number of text clusters NC
# ----------------------------------------------------------------------


def run_e5(
    n: int = DEFAULT_N,
    cluster_counts: Sequence[int] = (1, 4, 8, 16),
    num_queries: int = DEFAULT_QUERIES,
    k: int = DEFAULT_K,
) -> Table:
    """E5: effect of the CIUR-tree's cluster count NC."""
    dataset = _dataset(n)
    queries = sample_queries(dataset, num_queries)
    headers = ["NC"] + QueryRun.HEADERS + ["index pages"]
    rows: List[List[str]] = []
    for nc in cluster_counts:
        cfg = IndexConfig(num_clusters=nc)
        tree = build_tree(dataset, "ciur" if nc > 1 else "iur", cfg)
        run = run_queries(tree, queries, k, method=f"ciur(nc={nc})")
        rows.append([str(nc)] + run.as_row() + [str(tree.stats().pages)])
    return headers, rows


# ----------------------------------------------------------------------
# E6 — index construction cost
# ----------------------------------------------------------------------


def run_e6(n: int = DEFAULT_N) -> Table:
    """E6: index construction cost across datasets and variants."""
    headers = [
        "dataset",
        "method",
        "build s",
        "nodes",
        "height",
        "pages",
        "bytes",
        "outliers",
    ]
    rows: List[List[str]] = []
    for name, builder in (
        ("gn", lambda: gn_like(n=n)),
        ("cd", lambda: cd_like(n=max(2, int(n * 0.75)))),
        ("shop", lambda: shop_like(n=max(2, n // 2))),
    ):
        dataset = builder()
        for method in ("iur", "ciur", "ciur-oe"):
            tree = build_tree(dataset, method)
            st = tree.stats()
            rows.append(
                [
                    name,
                    method,
                    f"{st.build_seconds:.3f}",
                    str(st.nodes),
                    str(st.height),
                    str(st.pages),
                    str(st.bytes),
                    str(st.outliers),
                ]
            )
    return headers, rows


# ----------------------------------------------------------------------
# E7 — query keyword count
# ----------------------------------------------------------------------


def run_e7(
    n: int = DEFAULT_N,
    term_counts: Sequence[int] = (1, 2, 4, 8, 16, 32),
    num_queries: int = DEFAULT_QUERIES,
    k: int = DEFAULT_K,
) -> Table:
    """E7: query cost vs number of query keywords."""
    dataset = _dataset(n)
    headers = ["query terms"] + QueryRun.HEADERS
    rows: List[List[str]] = []
    for terms in term_counts:
        queries = sample_queries(dataset, num_queries, query_terms=terms)
        for method in ("iur", "ciur"):
            tree = build_tree(dataset, method)
            run = run_queries(tree, queries, k, method=method)
            rows.append([str(terms)] + run.as_row())
    return headers, rows


# ----------------------------------------------------------------------
# E8 — dataset character
# ----------------------------------------------------------------------


def run_e8(
    n: int = DEFAULT_N, num_queries: int = DEFAULT_QUERIES, k: int = DEFAULT_K
) -> Table:
    """E8: dataset character (gazetteer / documents / categories)."""
    headers = ["dataset"] + QueryRun.HEADERS
    rows: List[List[str]] = []
    for name, builder in (
        ("gn", lambda: gn_like(n=n)),
        ("cd", lambda: cd_like(n=max(2, int(n * 0.75)))),
        ("shop", lambda: shop_like(n=max(2, n // 2))),
    ):
        dataset = builder()
        queries = sample_queries(dataset, num_queries)
        for run in _method_rows(
            dataset, queries, k, methods=("iur", "ciur", "ciur-oe-te"),
        ):
            rows.append([name] + run.as_row())
    return headers, rows


# ----------------------------------------------------------------------
# E9 — text measure ablation
# ----------------------------------------------------------------------


def run_e9(
    n: int = DEFAULT_N, num_queries: int = DEFAULT_QUERIES, k: int = DEFAULT_K
) -> Table:
    """E9: text measure ablation across all five measures."""
    headers = ["measure"] + QueryRun.HEADERS
    rows: List[List[str]] = []
    for measure in (
        "extended_jaccard",
        "cosine",
        "overlap",
        "dice",
        "weighted_jaccard",
    ):
        dataset = _dataset(n, SimilarityConfig(text_measure=measure))
        queries = sample_queries(dataset, num_queries)
        for run in _method_rows(dataset, queries, k, methods=("iur", "ciur")):
            rows.append([measure] + run.as_row())
    return headers, rows


# ----------------------------------------------------------------------
# E10 — ablations: OE threshold, buffer size
# ----------------------------------------------------------------------


def run_e10(
    n: int = DEFAULT_N, num_queries: int = DEFAULT_QUERIES, k: int = DEFAULT_K
) -> Table:
    """E10: OE threshold and buffer-pool size ablations."""
    dataset = _dataset(n)
    queries = sample_queries(dataset, num_queries)
    headers = ["variant"] + QueryRun.HEADERS
    rows: List[List[str]] = []
    for label, cfg, method in (
        ("oe=off", IndexConfig(num_clusters=8), "ciur"),
        ("oe=0.05", IndexConfig(num_clusters=8, outlier_threshold=0.05), "ciur-oe"),
        ("oe=0.1", IndexConfig(num_clusters=8, outlier_threshold=0.1), "ciur-oe"),
        ("oe=0.2", IndexConfig(num_clusters=8, outlier_threshold=0.2), "ciur-oe"),
        ("buffer=8", IndexConfig(num_clusters=8, buffer_pages=8), "ciur"),
        ("buffer=512", IndexConfig(num_clusters=8, buffer_pages=512), "ciur"),
    ):
        tree = build_tree(dataset, method, cfg)
        run = run_queries(tree, queries, k, method=label)
        rows.append([label] + run.as_row())
    return headers, rows


# ----------------------------------------------------------------------
# E11 — bichromatic BRSTkNN
# ----------------------------------------------------------------------


def run_e11(
    n_objects: int = 800,
    n_users: int = 300,
    ks: Sequence[int] = (1, 5, 10),
    num_queries: int = 4,
) -> Table:
    """E11: bichromatic BRSTkNN, group vs per-user."""
    spec = WorkloadSpec(n_objects=n_objects, seed=11)
    objects = STDataset.from_corpus(generate_corpus(spec))
    users = objects.derive(generate_user_corpus(spec, n_users))
    object_tree = IURTree.build(objects)
    user_tree = IURTree.build(users)
    bi = BichromaticRSTkNN(user_tree, object_tree)
    queries = sample_queries(objects, num_queries)
    headers = ["k", "method", "ms/query", "|result|", "obj expansions"]
    rows: List[List[str]] = []
    for k in ks:
        group_ms = per_user_ms = 0.0
        group_res = obj_exp = 0
        for query in queries:
            object_tree.reset_io()
            user_tree.reset_io()
            res = bi.search(query, k)
            group_ms += res.elapsed_seconds * 1000.0
            group_res += len(res)
            obj_exp += res.object_expansions
            started = time.perf_counter()
            per = bi.search_per_user(query, k)
            per_user_ms += (time.perf_counter() - started) * 1000.0
            if per != res.user_ids:
                raise AssertionError("bichromatic parity failure")
        nq = len(queries)
        rows.append(
            [
                str(k),
                "group",
                f"{group_ms / nq:.2f}",
                f"{group_res / nq:.1f}",
                f"{obj_exp / nq:.1f}",
            ]
        )
        rows.append(
            [str(k), "per-user", f"{per_user_ms / nq:.2f}", f"{group_res / nq:.1f}", "-"]
        )
    return headers, rows


# ----------------------------------------------------------------------
# E12 — batched top-k (shared buffer pool)
# ----------------------------------------------------------------------


def run_e12(
    n: int = DEFAULT_N,
    batch_sizes: Sequence[int] = (1, 10, 50, 100),
    k: int = 10,
) -> Table:
    """E12: batched top-k — the shared-buffer I/O saving."""
    dataset = _dataset(n)
    tree = build_tree(dataset, "iur")
    searcher = TopKSearcher(tree)
    headers = ["batch", "cold I/O / query", "shared I/O / query", "I/O saving"]
    rows: List[List[str]] = []
    for batch in batch_sizes:
        queries = sample_queries(dataset, batch, seed=100 + batch)
        cold_reads = 0
        for query in queries:
            tree.reset_io(cold=True)
            searcher.top_k(query, k)
            cold_reads += tree.io.reads
        tree.reset_io(cold=True)
        searcher.batch_topk(queries, k)
        shared_reads = tree.io.reads
        cold_per = cold_reads / batch
        shared_per = shared_reads / batch
        saving = 100.0 * (1.0 - shared_per / cold_per) if cold_per else 0.0
        rows.append(
            [str(batch), f"{cold_per:.1f}", f"{shared_per:.1f}", f"{saving:.1f}%"]
        )
    return headers, rows


# ----------------------------------------------------------------------
# E13 — construction strategy ablation (extension)
# ----------------------------------------------------------------------


def run_e13(
    n: int = DEFAULT_N, num_queries: int = DEFAULT_QUERIES, k: int = DEFAULT_K
) -> Table:
    """E13: construction strategies (STR / text-STR / insertion)."""
    from ..index.ciurtree import CIURTree

    dataset = shop_like(n=max(2, n // 2))
    queries = sample_queries(dataset, num_queries)
    headers = ["construction", "build s", "pages", "ms/query", "I/O reads"]
    rows: List[List[str]] = []
    parity: Dict[str, List[int]] = {}
    for method in ("str", "text-str", "insert"):
        tree = CIURTree.build(dataset, IndexConfig(num_clusters=8), method=method)
        run = run_queries(tree, queries, k, method=method)
        from ..core.rstknn import RSTkNNSearcher

        parity[method] = RSTkNNSearcher(tree).search(queries[0], k).ids
        st = tree.stats()
        rows.append(
            [
                method,
                f"{st.build_seconds:.3f}",
                str(st.pages),
                f"{run.mean_ms:.2f}",
                f"{run.mean_reads:.1f}",
            ]
        )
    _assert_parity(parity)
    return headers, rows


# ----------------------------------------------------------------------
# E14 — update throughput and cost-model accuracy (extension)
# ----------------------------------------------------------------------


def run_e14(n: int = DEFAULT_N, updates: int = 100, k: int = DEFAULT_K) -> Table:
    """E14: update throughput and cost-model accuracy."""
    import random

    from ..core.rstknn import RSTkNNSearcher
    from ..index.costmodel import estimate_rstknn_io
    from ..spatial import Point

    dataset = gn_like(n=n)
    tree = build_tree(dataset, "iur")
    rng = random.Random(71)
    terms = dataset.vocabulary.terms()[: max(10, len(dataset.vocabulary) // 4)]

    started = time.perf_counter()
    tree.io.reset()
    inserted = []
    for _ in range(updates):
        obj = dataset.append_record(
            Point(rng.uniform(0, 100), rng.uniform(0, 100)),
            " ".join(rng.sample(terms, min(3, len(terms)))),
        )
        tree.insert_object(obj)
        inserted.append(obj.oid)
    insert_s = time.perf_counter() - started
    insert_writes = tree.io.writes

    started = time.perf_counter()
    tree.io.reset()
    for oid in inserted:
        tree.delete_object(oid)
    delete_s = time.perf_counter() - started
    delete_writes = tree.io.writes

    searcher = RSTkNNSearcher(tree)
    queries = sample_queries(dataset, 4, seed=72)
    measured = predicted = 0
    for query in queries:
        tree.reset_io(cold=True)
        searcher.search(query, k)
        measured += tree.io.reads
        predicted += estimate_rstknn_io(tree, query, k).page_ios

    headers = ["metric", "value"]
    rows = [
        ["inserts/s", f"{updates / max(insert_s, 1e-9):.0f}"],
        ["page writes per insert", f"{insert_writes / updates:.1f}"],
        ["deletes/s", f"{updates / max(delete_s, 1e-9):.0f}"],
        ["page writes per delete", f"{delete_writes / updates:.1f}"],
        ["measured query I/O (4 queries)", str(measured)],
        ["cost-model predicted I/O", str(predicted)],
        ["prediction ratio", f"{predicted / max(measured, 1):.2f}"],
    ]
    return headers, rows


# ----------------------------------------------------------------------
# E15 — intersection-vector ablation: IUR-tree vs plain IR-tree
# ----------------------------------------------------------------------


def run_e15(n: int = 400, num_queries: int = 4) -> Table:
    """What the "I" in IUR buys, in two regimes.

    Default regime (blended similarity, keyword-sparse docs): subtree
    intersections are almost always empty, so stripping them changes
    nothing — an honest negative.  Text-dominant regime (alpha=0, overlap
    measure, per-category marker terms): intersections give non-zero
    textual lower bounds and visibly cut node reads and expansions.
    """
    from ..core.rstknn import RSTkNNSearcher
    from ..index.ciurtree import CIURTree

    headers = ["regime", "index", "I/O reads", "expansions", "verified"]
    rows: List[List[str]] = []

    regimes = [
        (
            "blended/sparse",
            STDataset.from_corpus(
                generate_corpus(WorkloadSpec(n_objects=n, seed=7)),
                SimilarityConfig(alpha=0.5),
            ),
        ),
        (
            "text-dominant/markers",
            STDataset.from_corpus(
                generate_corpus(
                    WorkloadSpec(
                        n_objects=n,
                        n_topics=4,
                        topic_marker=True,
                        topic_affinity=0.95,
                        doc_len_mean=2.0,
                        vocab_size=60,
                        seed=7,
                    )
                ),
                SimilarityConfig(alpha=0.0, weighting="tf", text_measure="overlap"),
            ),
        ),
    ]
    for regime, dataset in regimes:
        queries = sample_queries(dataset, num_queries, seed=2)
        parity: Dict[str, List[int]] = {}
        for label, store in (("iur", True), ("ir (no int)", False)):
            tree = CIURTree.build(
                dataset,
                IndexConfig(num_clusters=4, store_intersections=store),
                method="text-str",
            )
            searcher = RSTkNNSearcher(tree)
            reads = expansions = verified = 0
            for query in queries:
                tree.reset_io(cold=True)
                result = searcher.search(query, 3)
                reads += tree.io.reads
                expansions += result.stats.expansions
                verified += result.stats.verified_objects
            parity[label] = searcher.search(queries[0], 3).ids
            rows.append(
                [regime, label, str(reads), str(expansions), str(verified)]
            )
        _assert_parity(parity)
    return headers, rows


# ----------------------------------------------------------------------
# E16 — location selection: shared thresholds vs per-candidate RSTkNN
# ----------------------------------------------------------------------


def run_e16(
    n: int = 600, num_candidates: int = 20, k: int = DEFAULT_K
) -> Table:
    """E16: location selection vs naive per-candidate search."""
    import random as _random

    from ..core.location_selection import LocationSelector
    from ..core.rstknn import RSTkNNSearcher
    from ..spatial import Point

    dataset = gn_like(n=n)
    tree = build_tree(dataset, "iur")
    rng = _random.Random(41)
    region = dataset.region
    candidates = [
        Point(
            rng.uniform(region.xlo, region.xhi),
            rng.uniform(region.ylo, region.yhi),
        )
        for _ in range(num_candidates)
    ]
    text = " ".join(dataset.objects[0].keywords[:4])

    selector = LocationSelector(tree, k)
    tree.reset_io(cold=True)
    started = time.perf_counter()
    report = selector.select_best(candidates, text)
    shared_s = time.perf_counter() - started
    shared_reads = tree.io.reads

    searcher = RSTkNNSearcher(tree)
    tree.reset_io(cold=True)
    started = time.perf_counter()
    naive_best = -1
    for point in candidates:
        query = dataset.make_query(point, text)
        count = len(searcher.search(query, k).ids)
        naive_best = max(naive_best, count)
    naive_s = time.perf_counter() - started
    naive_reads = tree.io.reads
    if naive_best != report.best.count:
        raise AssertionError("location selection parity failure")

    headers = ["method", "total s", "I/O reads", "best influence"]
    rows = [
        [
            "shared-thresholds",
            f"{shared_s + report.preprocess_seconds:.2f}",
            str(shared_reads),
            str(report.best.count),
        ],
        [
            "  (preprocess)",
            f"{report.preprocess_seconds:.2f}",
            "-",
            "-",
        ],
        [
            "  (per-candidate)",
            f"{shared_s:.2f}",
            "-",
            "-",
        ],
        ["naive per-candidate RSTkNN", f"{naive_s:.2f}", str(naive_reads), str(naive_best)],
    ]
    return headers, rows


EXPERIMENTS = {
    "E1": (run_e1, "query cost vs k"),
    "E2": (run_e2, "query cost vs alpha"),
    "E3": (run_e3, "scalability vs |D|"),
    "E4": (run_e4, "pruning power"),
    "E5": (run_e5, "number of text clusters"),
    "E6": (run_e6, "index construction"),
    "E7": (run_e7, "query keyword count"),
    "E8": (run_e8, "dataset character"),
    "E9": (run_e9, "text measure ablation"),
    "E10": (run_e10, "OE / buffer ablations"),
    "E11": (run_e11, "bichromatic BRSTkNN"),
    "E12": (run_e12, "batched top-k"),
    "E13": (run_e13, "construction strategy ablation"),
    "E14": (run_e14, "updates + cost-model accuracy"),
    "E15": (run_e15, "intersection-vector (IUR vs IR) ablation"),
    "E16": (run_e16, "location selection vs per-candidate search"),
}


def scale_kwargs(name: str, scale: int) -> Dict[str, object]:
    """The keyword arguments that size experiment ``name`` to ``scale``.

    E3 sweeps three sizes up to ``scale`` (``[scale // 4, scale // 2,
    scale]``), E11 sizes its object set (``n_objects``), and every other
    driver takes ``n``.  ``repro-rstknn run --scale`` and
    ``tools/run_all_experiments.py --scale`` both size runs with it.
    """
    key = name.upper()
    if key == "E3":
        return {"sizes": [scale // 4, scale // 2, scale]}
    if key == "E11":
        return {"n_objects": scale}
    return {"n": scale}


def run_experiment(name: str, **kwargs) -> Table:
    """Dispatch by experiment id (``E1`` … ``E12``)."""
    key = name.upper()
    if key not in EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment {name!r}; expected one of {sorted(EXPERIMENTS)}"
        )
    fn, _ = EXPERIMENTS[key]
    return fn(**kwargs)
