"""Bichromatic reverse spatial-textual kNN.

Two sets share a dataspace and vocabulary: *users* ``U`` and *objects*
``O`` (facilities).  ``BRSTkNN(q, k)`` returns every user ``u`` such that
the query object ``q`` ranks among the top-k objects of ``u`` — i.e.
strictly fewer than ``k`` objects of ``O`` are strictly more similar to
``u`` than ``q`` is (tie-inclusive, like the monochromatic searcher).

The group-level algorithm mirrors the monochromatic one, with two
independent partitions:

* the **user partition** (over the user tree) carries the decision state
  — each user entry is pruned, accepted, or expanded;
* the **object partition** (over the object tree) supplies every user
  entry's contribution list.  It is refined on demand: when a single
  user cannot be decided, its loosest object-side contributor is
  expanded, tightening ``kNNL``/``kNNU`` for every queued user at once.

Users never contribute to each other's neighbor lists (their neighbors
are objects), so there is no self-contribution term, and exactness is
guaranteed: once a user's contributors are all concrete objects,
``kNNL == kNNU`` equals the true k-th neighbor score and one of the two
decision rules must fire.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..config import SimilarityConfig
from ..errors import QueryError
from ..index.entry import Entry
from ..index.iurtree import IURTree
from ..model.objects import STObject
from ..model.scorer import STScorer
from ..text import make_measure
from .bounds import BoundComputer
from .contributions import Contribution, ContributionList, SourceKey
from .topk import TopKSearcher


@dataclass
class BichromaticResult:
    """Sorted user ids plus search statistics."""

    user_ids: List[int]
    user_expansions: int = 0
    object_expansions: int = 0
    pruned_user_entries: int = 0
    accepted_user_entries: int = 0
    elapsed_seconds: float = 0.0
    io: Dict[str, int] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.user_ids)


class BichromaticRSTkNN:
    """Group-level BRSTkNN over a user tree and an object tree.

    Both trees must share the spatial normalization and vocabulary —
    build the user dataset with :meth:`STDataset.derive` from the object
    dataset to guarantee it.
    """

    def __init__(
        self,
        user_tree: IURTree,
        object_tree: IURTree,
        config: Optional[SimilarityConfig] = None,
    ) -> None:
        self.user_tree = user_tree
        self.object_tree = object_tree
        cfg = config if config is not None else object_tree.dataset.config
        self.config = cfg
        self.measure = make_measure(cfg.text_measure)
        self.alpha = cfg.alpha

    # ------------------------------------------------------------------
    # Group-level search
    # ------------------------------------------------------------------

    def search(self, query: STObject, k: int) -> BichromaticResult:
        """All users with the query among their top-k objects."""
        if k < 1:
            raise QueryError(f"k must be >= 1, got {k}")
        started = time.perf_counter()
        result = BichromaticResult(user_ids=[])
        # User and object trees have colliding id namespaces, so the
        # bound computer must not memoize by entry id (see BoundComputer).
        bounds = BoundComputer(
            self.object_tree.dataset.proximity,
            self.measure,
            self.alpha,
            enable_cache=False,
        )
        q_entry = Entry.for_object(-1, query.mbr(), query.vector)

        # Object-side partition, shared by every queued user entry.
        obj_live: Dict[SourceKey, Entry] = {
            _key(e): e for e in self._initials(self.object_tree)
        }

        # User-side frontier: entries queued for a decision.
        user_live: Dict[SourceKey, Entry] = {}
        lists: Dict[SourceKey, ContributionList] = {}
        qbounds: Dict[SourceKey, Tuple[float, float]] = {}
        counter = itertools.count()
        heap: List[Tuple[float, int, SourceKey]] = []

        def add_user(entry: Entry) -> None:
            ukey = _key(entry)
            user_live[ukey] = entry
            clist = ContributionList()
            for okey, other in obj_live.items():
                lo, hi = bounds.st_bounds(entry, other)
                clist.set(Contribution(okey, other, lo, hi, other.count), tight=True)
            lists[ukey] = clist
            qb = bounds.st_bounds(q_entry, entry)
            qbounds[ukey] = qb
            heapq.heappush(heap, (-qb[1], next(counter), ukey))

        for entry in self._initials(self.user_tree):
            add_user(entry)

        accepted: List[Entry] = []

        while heap:
            _, _, ukey = heapq.heappop(heap)
            uentry = user_live.get(ukey)
            if uentry is None:
                continue
            clist = lists[ukey]
            q_lo, q_hi = qbounds[ukey]
            while True:
                decision = clist.decide(q_lo, q_hi, k)
                if decision < 0:
                    result.pruned_user_entries += 1
                    self._drop_user(ukey, user_live, lists, qbounds)
                    break
                if decision > 0:
                    result.accepted_user_entries += 1
                    accepted.append(uentry)
                    self._drop_user(ukey, user_live, lists, qbounds)
                    break
                if not uentry.is_object:
                    result.user_expansions += 1
                    children = self.user_tree.children(uentry, tag="user")
                    self._drop_user(ukey, user_live, lists, qbounds)
                    for child in children:
                        add_user(child)
                    break
                # A single undecided user: tighten the object side.  Once
                # every contributor is a concrete object the bounds are
                # exact and one of the rules above must fire.
                okey = self._loosest_node_contribution(clist, obj_live)
                if okey is None:
                    raise QueryError(
                        "internal error: exact contributions failed to decide "
                        f"user {ukey[0]}"
                    )
                self._expand_object(
                    okey, obj_live, user_live, lists, bounds, result
                )

        ids: List[int] = []
        for entry in accepted:
            ids.extend(self._collect_users(entry))
        ids.sort()
        result.user_ids = ids
        result.elapsed_seconds = time.perf_counter() - started
        io = dict(self.object_tree.io.snapshot())
        for key, val in self.user_tree.io.snapshot().items():
            io[f"user.{key}"] = val
        result.io = io
        return result

    # ------------------------------------------------------------------
    # Per-user baseline
    # ------------------------------------------------------------------

    def search_per_user(self, query: STObject, k: int) -> List[int]:
        """Baseline: one object-tree top-k probe per user."""
        if k < 1:
            raise QueryError(f"k must be >= 1, got {k}")
        topk = TopKSearcher(self.object_tree, self.config)
        scorer = STScorer(
            self.object_tree.dataset.proximity, self.measure, self.alpha
        )
        out: List[int] = []
        for user in self.user_tree.dataset.objects:
            q_sim = scorer.score(query, user)
            threshold = topk.kth_score(user, k)
            if q_sim >= threshold:
                out.append(user.oid)
        return sorted(out)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    @staticmethod
    def _initials(tree: IURTree) -> List[Entry]:
        root = tree.root_entry()
        return ([root] if root is not None else []) + tree.outlier_entries()

    @staticmethod
    def _drop_user(
        ukey: SourceKey,
        user_live: Dict[SourceKey, Entry],
        lists: Dict[SourceKey, ContributionList],
        qbounds: Dict[SourceKey, Tuple[float, float]],
    ) -> None:
        del user_live[ukey]
        del lists[ukey]
        del qbounds[ukey]

    @staticmethod
    def _loosest_node_contribution(
        clist: ContributionList, obj_live: Dict[SourceKey, Entry]
    ) -> Optional[SourceKey]:
        """The directory contributor with the widest weighted bound gap."""
        best: Optional[SourceKey] = None
        best_gap = -1.0
        for contribution in clist.contributions():
            entry = obj_live.get(contribution.source)
            if entry is None or entry.is_object:
                continue
            gap = (contribution.max_st - contribution.min_st) * contribution.count
            if gap > best_gap:
                best_gap = gap
                best = contribution.source
        return best

    def _expand_object(
        self,
        okey: SourceKey,
        obj_live: Dict[SourceKey, Entry],
        user_live: Dict[SourceKey, Entry],
        lists: Dict[SourceKey, ContributionList],
        bounds: BoundComputer,
        result: BichromaticResult,
    ) -> None:
        """Replace one object-side entry by its children, in every list."""
        entry = obj_live.pop(okey)
        result.object_expansions += 1
        children = self.object_tree.children(entry, tag="object")
        child_items = [(_key(c), c) for c in children]
        for ckey, child in child_items:
            obj_live[ckey] = child
        for ukey, ulist in lists.items():
            if okey not in ulist:
                continue
            ulist.remove(okey)
            uentry = user_live[ukey]
            for ckey, child in child_items:
                lo, hi = bounds.st_bounds(uentry, child)
                ulist.set(Contribution(ckey, child, lo, hi, child.count), tight=True)

    def _collect_users(self, entry: Entry) -> List[int]:
        if entry.is_object:
            return [entry.ref]
        out: List[int] = []
        stack = [entry]
        while stack:
            e = stack.pop()
            if e.is_object:
                out.append(e.ref)
            else:
                stack.extend(self.user_tree.children(e, tag="user-collect"))
        return out


def _key(entry: Entry) -> SourceKey:
    return (entry.ref, entry.is_object)
