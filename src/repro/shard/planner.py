"""Morton-partitioned shard planning and per-shard index construction.

:class:`ShardPlanner` splits a dataset into ``S`` spatially coherent
shards by sorting objects along a Morton curve (:func:`locality_order`)
and cutting the order into ``S`` balanced contiguous runs.  Spatial
coherence is what makes shard admission pruning
(:mod:`repro.shard.summaries`) bite: a shard whose objects cluster
tightly has a tight frontier MBR and a high within-shard competitor
floor, so queries far from the cluster are rejected at admission.

Each shard is its own :class:`~repro.model.dataset.STDataset` built
**from the parent's objects, vocabulary, region, and config** — never
re-derived.  This is the bit-parity keystone: ``SimST`` depends on the
dataset-wide ``maxD`` (from the region) and on corpus-global term
weights (from the vocabulary), so shard-local similarity values are
bit-identical to the unsharded index's, and the exact merge round
(:mod:`repro.shard.merge`) can compare them against unsharded results
without tolerance.

Shard trees are ordinary (C)IUR-trees; freezing them yields ordinary
:class:`~repro.perf.snapshot.IndexSnapshot` columns, so every
downstream consumer — the snapshot engine, the admission summaries,
the merge probes — works per shard unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..config import IndexConfig
from ..errors import ConfigError
from ..index.iurtree import IURTree
from ..model.dataset import STDataset
from ..model.objects import STObject
from .summaries import ShardSummary, build_summary


def _interleave16(v: int) -> int:
    """Spread the low 16 bits of ``v`` into the even bit positions."""
    v &= 0xFFFF
    v = (v | (v << 8)) & 0x00FF00FF
    v = (v | (v << 4)) & 0x0F0F0F0F
    v = (v | (v << 2)) & 0x33333333
    v = (v | (v << 1)) & 0x55555555
    return v


def locality_order(queries: Sequence[STObject]) -> List[int]:
    """Indices of ``queries`` sorted by Morton code of their centers.

    Runs cut from this order hold spatially close objects, which is
    what gives each shard a tight frontier MBR.  Deterministic (stable
    on code ties) so the same input always yields the same order.
    """
    pts = []
    for q in queries:
        m = q.mbr()
        pts.append(((m.xlo + m.xhi) / 2.0, (m.ylo + m.yhi) / 2.0))
    if not pts:
        return []
    xmin = min(p[0] for p in pts)
    xmax = max(p[0] for p in pts)
    ymin = min(p[1] for p in pts)
    ymax = max(p[1] for p in pts)
    xspan = (xmax - xmin) or 1.0
    yspan = (ymax - ymin) or 1.0
    coded = []
    for i, (x, y) in enumerate(pts):
        xi = int((x - xmin) / xspan * 0xFFFF)
        yi = int((y - ymin) / yspan * 0xFFFF)
        coded.append((_interleave16(xi) | (_interleave16(yi) << 1), i))
    coded.sort()
    return [i for _, i in coded]


@dataclass(frozen=True)
class ShardPlan:
    """A pure partition decision: which oids land in which shard.

    Attributes:
        shard_count: Number of shards (each non-empty).
        method: Partitioning strategy tag (``"morton"``).
        assignments: ``assignments[i]`` is the tuple of object ids owned
            by shard ``i``, in Morton order.
    """

    shard_count: int
    method: str
    assignments: Tuple[Tuple[int, ...], ...]


class Shard:
    """One shard: a sub-dataset plus its built (C)IUR-tree."""

    __slots__ = ("shard_id", "dataset", "tree")

    def __init__(self, shard_id: int, dataset: STDataset, tree) -> None:
        self.shard_id = shard_id
        self.dataset = dataset
        self.tree = tree

    def snapshot(self):
        """The shard tree's frozen columnar snapshot (memoized per
        generation by :meth:`IURTree.snapshot`)."""
        return self.tree.snapshot()

    def __len__(self) -> int:
        return len(self.dataset.objects)


class ShardPlanner:
    """Plans and builds a Morton partition of one dataset.

    Args:
        dataset: The corpus to partition.
        shard_count: Number of shards; must satisfy
            ``1 <= shard_count <= len(dataset)`` so every shard is a
            valid non-empty dataset.
        index_config: Per-shard tree knobs (defaults to a fresh
            :class:`~repro.config.IndexConfig`).
        tree_cls: Tree class to build per shard
            (:class:`~repro.index.iurtree.IURTree` or
            :class:`~repro.index.ciurtree.CIURTree`); each shard tree is
            STR bulk loaded, ``tree_cls.build``'s default.
    """

    def __init__(
        self,
        dataset: STDataset,
        shard_count: int,
        *,
        index_config: Optional[IndexConfig] = None,
        tree_cls=IURTree,
    ) -> None:
        n = len(dataset.objects)
        if shard_count < 1:
            raise ConfigError(f"shard_count must be >= 1, got {shard_count}")
        if shard_count > n:
            raise ConfigError(
                f"shard_count {shard_count} exceeds dataset size {n}"
            )
        self.dataset = dataset
        self.shard_count = shard_count
        self.index_config = index_config
        self.tree_cls = tree_cls

    def plan(self) -> ShardPlan:
        """Morton-sort the objects and cut balanced contiguous runs.

        Shard sizes differ by at most one object (``i*n//S`` split
        points), and the order is deterministic (stable Morton sort),
        so the same dataset and shard count always produce the same
        partition.
        """
        objects = self.dataset.objects
        order = locality_order(objects)
        n = len(order)
        s = self.shard_count
        assignments: List[Tuple[int, ...]] = []
        for i in range(s):
            run = order[i * n // s : (i + 1) * n // s]
            assignments.append(tuple(objects[j].oid for j in run))
        return ShardPlan(
            shard_count=s, method="morton", assignments=tuple(assignments)
        )

    def build(self, plan: Optional[ShardPlan] = None) -> "ShardedIndex":
        """Materialize a plan: one sub-dataset and tree per shard.

        Sub-datasets share the parent's object instances (so memoized
        frozen vector forms are shared too), vocabulary, region, and
        similarity config — see the module docstring for why this is
        load-bearing for parity.
        """
        if plan is None:
            plan = self.plan()
        dataset = self.dataset
        shards: List[Shard] = []
        for shard_id, oids in enumerate(plan.assignments):
            sub = STDataset(
                [dataset.get(oid) for oid in oids],
                dataset.vocabulary,
                dataset.region,
                dataset.config,
            )
            tree = self.tree_cls.build(sub, config=self.index_config)
            shards.append(Shard(shard_id, sub, tree))
        return ShardedIndex(dataset, plan, shards)


class ShardedIndex:
    """A built shard set with memoized per-setting admission summaries."""

    def __init__(
        self, dataset: STDataset, plan: ShardPlan, shards: List[Shard]
    ) -> None:
        self.dataset = dataset
        self.plan = plan
        self.shards = shards
        self._summaries: Dict[Tuple, Tuple[ShardSummary, ...]] = {}

    def __len__(self) -> int:
        return len(self.shards)

    def __iter__(self) -> Iterator[Shard]:
        return iter(self.shards)

    def engines(self, measure, alpha: float, te_weight: float) -> List:
        """One memoized :class:`~repro.core.traversal.SnapshotEngine`
        per shard for the given similarity setting."""
        return [
            shard.snapshot().engine_for(shard.tree, measure, alpha, te_weight)
            for shard in self.shards
        ]

    def summaries(
        self, measure, alpha: float, te_weight: float
    ) -> Tuple[ShardSummary, ...]:
        """Admission-pruning tables for every shard, built once per
        ``(measure, alpha, te_weight)`` setting."""
        key = (measure.name, alpha, te_weight)
        cached = self._summaries.get(key)
        if cached is not None:
            return cached
        built = tuple(
            build_summary(i, engine)
            for i, engine in enumerate(self.engines(measure, alpha, te_weight))
        )
        self._summaries[key] = built
        return built


def build_sharded_index(
    dataset: STDataset,
    shard_count: int,
    *,
    index_config: Optional[IndexConfig] = None,
    tree_cls=IURTree,
) -> ShardedIndex:
    """Plan and build in one call (the common case)."""
    planner = ShardPlanner(
        dataset, shard_count, index_config=index_config, tree_cls=tree_cls
    )
    return planner.build()
