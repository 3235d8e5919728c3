"""E3 — scalability vs |D|.

Shape: group-level query cost grows sublinearly in |D| (pruning decides
whole subtrees), while the per-object baseline grows linearly — the
paper's headline separation.  The batch rows measure workload throughput
through :class:`repro.perf.BatchSearcher` (one long-lived snapshot
engine whose pair memo warms across queries), vs the
fresh-searcher-per-query harness path.
"""

import pytest

from repro.core.baseline import ThresholdBaseline
from repro.core.rstknn import RSTkNNSearcher
from repro.perf import BatchSearcher

from conftest import get_queries, get_tree

SIZES = (200, 400, 800)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("method", ["iur", "ciur"])
def test_e3_query_vs_size(bench_one, method, n):
    tree = get_tree(method, n=n)
    searcher = RSTkNNSearcher(tree)
    query = get_queries(n=n, count=1)[0]

    def run():
        tree.reset_io(cold=True)
        return searcher.search(query, 5)

    bench_one(run)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("method", ["iur", "ciur"])
def test_e3_batch_vs_size(bench_one, method, n):
    """Workload throughput through the shared-cache batch engine."""
    tree = get_tree(method, n=n)
    queries = get_queries(n=n, count=8)
    engine = BatchSearcher(tree)

    def run():
        tree.reset_io(cold=True)
        return engine.run(queries, 5)

    bench_one(run)


@pytest.mark.parametrize("n", (100, 200, 400))
def test_e3_baseline_vs_size(bench_one, n):
    tree = get_tree("base", n=n)
    baseline = ThresholdBaseline(tree)
    query = get_queries(n=n, count=1)[0]

    def run():
        tree.reset_io(cold=True)
        return baseline.search(query, 5)

    bench_one(run, rounds=1)
