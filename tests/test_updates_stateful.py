"""Stateful property test: the live index tracks a model under any
interleaving of inserts, deletes, and queries.

Hypothesis drives a random sequence of operations against an IUR-tree
while a plain list-of-objects model records ground truth; after every
step the tree's structure invariants hold, and queries answered by the
branch-and-bound searcher must match brute force over the model.
"""

import hypothesis.strategies as st
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro import (
    BruteForceRSTkNN,
    IndexConfig,
    IURTree,
    RSTkNNSearcher,
    SimilarityConfig,
    STDataset,
)
from repro.errors import FaultInjected
from repro.spatial import Point

TERMS = ["alpha", "beta", "gamma", "delta"]

coords = st.floats(min_value=0, max_value=10, allow_nan=False)
texts = st.lists(st.sampled_from(TERMS), min_size=1, max_size=3).map(" ".join)


class IndexMachine(RuleBasedStateMachine):
    @initialize(
        seeds=st.lists(st.tuples(coords, coords, texts), min_size=2, max_size=6)
    )
    def build(self, seeds):
        records = [(Point(x, y), text) for x, y, text in seeds]
        self.dataset = STDataset.from_corpus(
            records, SimilarityConfig(alpha=0.5, weighting="tf")
        )
        self.tree = IURTree.build(
            self.dataset, IndexConfig(max_entries=4, min_entries=2)
        )
        self.searcher = RSTkNNSearcher(self.tree)

    @rule(x=coords, y=coords, text=texts)
    def insert(self, x, y, text):
        obj = self.dataset.append_record(Point(x, y), text)
        self.tree.insert_object(obj)

    @rule(pick=st.integers(min_value=0, max_value=10**6))
    def delete(self, pick):
        if len(self.dataset) <= 2:
            return
        victim = self.dataset.objects[pick % len(self.dataset)].oid
        assert self.tree.delete_object(victim)

    @rule(x=coords, y=coords, text=texts, k=st.integers(min_value=1, max_value=3))
    def query(self, x, y, text, k):
        query = self.dataset.make_query(Point(x, y), text)
        expected = BruteForceRSTkNN(self.dataset).search(query, k)
        assert self.searcher.search(query, k).ids == expected

    @invariant()
    def structure_holds(self):
        if hasattr(self, "tree"):
            self.tree.check_invariants()
            found = sorted(
                oid
                for oid in (o.oid for o in self.dataset.objects)
                if self._in_tree(oid)
            )
            assert found == sorted(o.oid for o in self.dataset.objects)

    def _in_tree(self, oid):
        root = self.tree.root_entry()
        stack = ([root] if root is not None else []) + self.tree.outlier_entries()
        while stack:
            entry = stack.pop()
            if entry.is_object:
                if entry.ref == oid:
                    return True
            else:
                stack.extend(self.tree.rtree.node(entry.ref).entries)
        return False


IndexMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=12, deadline=None
)
TestIndexMachine = IndexMachine.TestCase


class LiveIndexMachine(RuleBasedStateMachine):
    """The LSM live path under any interleaving of writes, queries, and
    folds.

    The searcher runs over a :class:`repro.lsm.LiveIndex` (overlay +
    tombstone-masked frozen tree) on ``engine="approx"`` — while the
    overlay is dirty the engine resolver must send it to the snapshot
    walk over the union snapshot, so a stale frozen-side sketch (the
    tombstone-masked sketch hazard) never touches a live answer.  At
    every query the live ids are byte-compared against a tree freshly
    built from the mutated dataset AND brute force over it.
    """

    @initialize(
        seeds=st.lists(st.tuples(coords, coords, texts), min_size=2, max_size=6)
    )
    def build(self, seeds):
        from repro.lsm import LiveIndex

        records = [(Point(x, y), text) for x, y, text in seeds]
        self.dataset = STDataset.from_corpus(
            records, SimilarityConfig(alpha=0.5, weighting="tf")
        )
        self.config = IndexConfig(max_entries=4, min_entries=2)
        self.live = LiveIndex(
            IURTree.build(self.dataset, self.config), freeze_threshold=10**9
        )
        self.searcher = RSTkNNSearcher(self.live, engine="approx")

    @rule(x=coords, y=coords, text=texts)
    def insert(self, x, y, text):
        self.live.insert(Point(x, y), text)

    @rule(pick=st.integers(min_value=0, max_value=10**6))
    def delete(self, pick):
        if len(self.dataset) <= 2:
            return
        victim = self.dataset.objects[pick % len(self.dataset)].oid
        assert self.live.delete_object(victim)

    @rule()
    def freeze(self):
        was_dirty = self.live.overlay_dirty
        pending = self.live.pending()
        try:
            folded = self.live.freeze_step()
        except FaultInjected:
            # An armed REPRO_FAULTS freeze_fail landed mid-fold: the
            # old generation must keep serving, overlay untouched (the
            # query rule keeps asserting byte-identity afterwards).
            assert self.live.overlay_dirty == was_dirty
            assert self.live.pending() == pending
            return
        assert folded == was_dirty
        assert self.live.pending() == 0
        assert not self.live.overlay_dirty

    @rule(x=coords, y=coords, text=texts, k=st.integers(min_value=1, max_value=3))
    def query(self, x, y, text, k):
        query = self.dataset.make_query(Point(x, y), text)
        expected = BruteForceRSTkNN(self.dataset).search(query, k)
        fresh = RSTkNNSearcher(
            IURTree.build(self.dataset, self.config), engine="seed"
        )
        live_ids = self.searcher.search(query, k).ids
        assert live_ids == fresh.search(query, k).ids
        assert live_ids == expected

    @invariant()
    def pending_matches_overlay_state(self):
        if hasattr(self, "live"):
            assert (self.live.pending() > 0) == self.live.overlay_dirty

    def teardown(self):
        if hasattr(self, "live"):
            self.live.close()


LiveIndexMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=12, deadline=None
)
TestLiveIndexMachine = LiveIndexMachine.TestCase
