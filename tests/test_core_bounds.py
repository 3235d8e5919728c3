"""Entry-level SimST bounds: validity against brute-forced object pairs."""

import pytest

from repro import SimilarityConfig, STScorer, make_measure
from repro.core.bounds import BoundComputer
from repro.index import Entry, IURTree


def all_node_entries(tree):
    """Every directory entry in the tree, as synthesized entries."""
    out = []
    for nid, node in tree.rtree.nodes.items():
        out.append(Entry.for_subtree(nid, node.mbr(), node.entries))
    return out


def objects_under(tree, entry):
    if entry.is_object:
        return [entry.ref]
    out, stack = [], [entry]
    while stack:
        e = stack.pop()
        if e.is_object:
            out.append(e.ref)
        else:
            stack.extend(tree.rtree.node(e.ref).entries)
    return out


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("measure", ["extended_jaccard", "cosine", "overlap"])
def test_entry_bounds_contain_all_pairs(medium_dataset, alpha, measure):
    cfg = SimilarityConfig(alpha=alpha, text_measure=measure)
    tree = IURTree.build(medium_dataset)
    scorer = STScorer.for_dataset(medium_dataset, cfg)
    bc = BoundComputer(medium_dataset.proximity, make_measure(measure), alpha)
    nodes = all_node_entries(tree)[:6]
    for a in nodes:
        for b in nodes:
            lo, hi = bc.st_bounds(a, b)
            ids_a = objects_under(tree, a)[:8]
            ids_b = objects_under(tree, b)[:8]
            for ia in ids_a:
                for ib in ids_b:
                    sim = scorer.score(
                        medium_dataset.get(ia), medium_dataset.get(ib)
                    )
                    assert lo - 1e-9 <= sim <= hi + 1e-9


def test_object_pair_bounds_are_exact(small_dataset):
    cfg = small_dataset.config
    scorer = STScorer.for_dataset(small_dataset)
    bc = BoundComputer(
        small_dataset.proximity, make_measure(cfg.text_measure), cfg.alpha
    )
    objs = small_dataset.objects[:12]
    for a in objs:
        for b in objs:
            ea = Entry.for_object(a.oid, a.mbr(), a.vector)
            eb = Entry.for_object(b.oid, b.mbr(), b.vector)
            lo, hi = bc.st_bounds(ea, eb)
            assert lo == hi == pytest.approx(scorer.score(a, b))


def test_self_bounds_contain_internal_pairs(medium_dataset):
    cfg = medium_dataset.config
    scorer = STScorer.for_dataset(medium_dataset)
    tree = IURTree.build(medium_dataset)
    bc = BoundComputer(
        medium_dataset.proximity, make_measure(cfg.text_measure), cfg.alpha
    )
    for entry in all_node_entries(tree)[:8]:
        lo, hi = bc.self_bounds(entry)
        ids = objects_under(tree, entry)[:10]
        for i in ids:
            for j in ids:
                if i == j:
                    continue
                sim = scorer.score(medium_dataset.get(i), medium_dataset.get(j))
                assert lo - 1e-9 <= sim <= hi + 1e-9


def test_cache_consistency(small_dataset):
    cfg = small_dataset.config
    bc = BoundComputer(
        small_dataset.proximity, make_measure(cfg.text_measure), cfg.alpha
    )
    a = small_dataset.get(0)
    b = small_dataset.get(1)
    ea = Entry.for_object(a.oid, a.mbr(), a.vector)
    eb = Entry.for_object(b.oid, b.mbr(), b.vector)
    first = bc.st_bounds(ea, eb)
    assert bc.st_bounds(ea, eb) == first
    assert bc.st_bounds(eb, ea) == first  # symmetric cache entry
    bc.clear_cache()
    assert bc.st_bounds(ea, eb) == first


def test_disabled_cache_still_correct(small_dataset):
    cfg = small_dataset.config
    cached = BoundComputer(
        small_dataset.proximity, make_measure(cfg.text_measure), cfg.alpha
    )
    uncached = BoundComputer(
        small_dataset.proximity,
        make_measure(cfg.text_measure),
        cfg.alpha,
        enable_cache=False,
    )
    a = small_dataset.get(2)
    b = small_dataset.get(7)
    ea = Entry.for_object(a.oid, a.mbr(), a.vector)
    eb = Entry.for_object(b.oid, b.mbr(), b.vector)
    assert cached.st_bounds(ea, eb) == uncached.st_bounds(ea, eb)


def test_bound_computer_cache_stats_and_clear(tiny_dataset):
    tree = IURTree.build(tiny_dataset)
    entries = tree.rtree.nodes[tree.rtree.root_id].entries
    comp = BoundComputer(
        tiny_dataset.proximity,
        make_measure(SimilarityConfig().text_measure),
        alpha=0.5,
    )
    comp.text_bounds(entries[0], entries[0])
    comp.text_bounds(entries[0], entries[0])
    stats = comp.cache_stats()
    assert stats["hits"] == 1 and stats["misses"] == 1
    assert stats["text_entries"] == 1
    comp.clear()
    assert comp.cache_stats()["text_entries"] == 0
    # Lifetime counters survive the clear.
    assert comp.cache_stats()["hits"] == 1
    comp.clear_cache()  # the seed API alias still works


def test_symmetric_pair_key_canonical(tiny_dataset):
    tree = IURTree.build(tiny_dataset)
    entries = tree.rtree.nodes[tree.rtree.root_id].entries
    if len(entries) < 2:
        pytest.skip("need two sibling entries")
    a, b = entries[0], entries[1]
    assert BoundComputer._pair_key(a, b) == BoundComputer._pair_key(b, a)
