"""Frozen kNNL sketches: exact per-object k-distance profiles and floors.

A :class:`KnnlSketch` is computed once per snapshot and similarity
setting and holds, for every slot of the snapshot, a *provably
conservative* lower bound on the k-th best ``SimST`` of every object
under that slot — the frozen analogue of the competitor floors the
exact branch-and-bound walk tightens lazily per query.  It has two
parts:

* **object profiles** (``obj_profile``): each object's exact top-``kmax``
  competitor similarities, computed by one all-kNN pass in which the
  objects are the queries (below).  Entry ``k - 1`` *is* the object's
  true ``s_k``, bit for bit what :meth:`SnapshotEngine._exact
  <repro.core.traversal.SnapshotEngine._exact>` returns for its k-th
  best competitor; objects with fewer than ``kmax`` competitors are
  zero-padded (zero never prunes).
* **node floors** (``floor_table``): each directory slot owns one row,
  the elementwise minimum of the profiles of the objects beneath it
  (an empty directory reads 0.0); the last row is the global minimum
  over every object.  Object slots point at the global row and read
  their own profile, which is never below it.  A minimum of exact
  ``s_k`` values lower-bounds the ``s_k`` of every object it covers,
  and no sound per-node bound can be higher.

Obermeier et al. (arXiv:2011.01773) store k-distances as fitted curves
and must verify every candidate because those are approximate; these
profiles are exact, which is what lets the ``engine="approx"`` tier
return its filter survivors as the answer (see
:mod:`repro.approx.engine`).

**The all-kNN pass.**  Objects are processed in layout-contiguous
groups (the object children of one directory slot; each root-level
object is its own group).  Candidate columns for a member ``a`` are restricted by this
rule:

    every object sharing a term with ``a`` (the postings of
    :attr:`SnapshotTextMatrix.obj_postings
    <repro.perf.snapshot.SnapshotTextMatrix.obj_postings>`), plus every
    object within ``R`` of the group's bounding box.  A best-first walk
    of the snapshot tree, ordered by box distance, pops objects until
    ``kmax`` of them lie outside the group; ``R`` is ``1 + 2**-30``
    times the largest distance from a member to its ``kmax``-th
    nearest popped competitor.

The rule loses nothing.  Every supported text measure is 0 on disjoint
term sets (weights are strictly positive), so an excluded object ``b``
scores ``alpha * fd(d(a, b))`` exactly.  Member ``a`` has ``kmax``
popped competitors ``c`` with computed ``d(a, c) <= R / (1 + 2**-30)``,
while ``b`` lies in a subtree whose box distance — a lower bound on
``d(a, b)``, since ``a`` is inside the box — exceeds ``R``.  The
relative margin ``2**-30`` is far above the few-ulp error of ``hypot``,
so the computed ``d(a, b)`` is larger, and ``fd`` and the blend are
monotone in floating point.  Hence at least ``kmax`` candidates score
``>= SimST(a, b)``, and the top-``kmax`` values over the candidates
equal the top-``kmax`` values over all objects.  (Snapshot slots map
one to one to objects, so an object's competitors are all the other
object slots.)

Candidates are scored in two stages.  With numpy, array kernels
(:func:`~repro.perf.kernels.group_text_dots` for the dot products and
overlaps, broadcast ``hypot`` for space) give *approximate* scores;
only candidates within ``delta`` of the member's ``kmax``-th
approximate score ``theta`` are rescored with the scalar ``_exact``.
Without numpy, or for a measure with no array form (weighted Jaccard
needs per-term minima, not dot products), every candidate is rescored.

**Why ``delta`` suffices.**  Let ``u = 2**-53`` and ``L`` the largest
object term count.  Array and scalar scores evaluate the same formula
on the same inputs in a different order.  Dot products of ``L``
non-negative products differ by at most ``2 * gamma_L * d`` (``gamma_L
= L*u / (1 - L*u)``); Extended Jaccard has relative sensitivity
``S / (S - d) <= 2`` to ``d`` (Cauchy–Schwarz), cosine and Dice 1,
overlap none (integer counts, one correctly rounded division).  Every
measure lies in ``[0, 1]``, so the text gap is at most ``4 * gamma_L +
4u``; ``hypot``, ``fd`` and the blend add at most ``12u``.  The gap
``eps`` is therefore below ``(4.1 L + 16) u``, and ``delta = (16 L + 64)
u`` exceeds ``2 * eps + u``.  (The python kernels sum shared terms with
``math.fsum``, which is correctly rounded: its error is at most ``u *
d``, below the recursive-sum bound ``gamma_L * d`` assumed here, so the
gap only shrinks.)  Then ``theta - eps <= s_kmax`` (``kmax``
candidates have approximate score ``>= theta``), and any candidate
with exact score ``>= s_kmax`` has approximate score ``>= theta - 2 *
eps``, above the computed ``theta - delta``: all of them are rescored,
so the exact top-``kmax`` is recovered bit for bit.

The floors feed three consumers: warm-start pruning in the exact
engines (:class:`~repro.core.traversal.SnapshotEngine` /
:class:`~repro.core.fused.FusedBatchEngine`, results bit-identical
because a pruned slot provably holds no result), tightened
:class:`~repro.shard.summaries.ShardSummary` admission floors, and the
``engine="approx"`` filter tier (:class:`~repro.approx.engine.ApproxEngine`).

Soundness rule (used by every consumer): a query with upper bound
``q_hi`` on a slot may skip that slot iff ``q_hi < floor`` — then for
every object ``o`` under the slot, ``SimST(q, o) < floor <= s_k(o)``,
so at least ``k`` competitors are strictly more similar to ``o`` than
the query and ``q`` cannot be in ``o``'s reverse k-NN set.  For
``k > kmax`` every floor reads 0.0 and nothing is ever skipped.
"""

from __future__ import annotations

import heapq
import math
import time
from array import array
from typing import Dict, List

from ..perf import kernels

#: Largest ``k`` the sketch covers; beyond it floors read 0.0 (never
#: prune).  Matches the shard admission default.
DEFAULT_SKETCH_KMAX = 16

#: Relative slack on the spatial candidate radius (see module doc).
_RADIUS_SLACK = 1.0 + 2.0 ** -30

#: Unit roundoff of IEEE-754 doubles.
_U = 2.0 ** -53

#: Array forms of the text measures over one object row ``a`` and
#: candidate rows ``b``: ``f(dot, overlap, a, b, |.|^2 column, len
#: column)``, read only where ``overlap > 0``.
_ARRAY_TEXT = {
    "extended_jaccard": lambda d, ov, a, b, nsq, n: d / (nsq[a] + nsq[b] - d),
    "cosine": lambda d, ov, a, b, nsq, n: d / (nsq[a] * nsq[b]) ** 0.5,
    "dice": lambda d, ov, a, b, nsq, n: 2.0 * d / (nsq[a] + nsq[b]),
    "overlap": lambda d, ov, a, b, nsq, n: ov / (n[a] + n[b] - ov),
}


class KnnlSketch:
    """Frozen per-slot kNNL floors plus per-object k-distance profiles.

    Attributes:
        kmax: Largest ``k`` covered; all floors are 0.0 beyond it.
        floor_idx: Per-slot row index into :attr:`floor_table`
            (``array('q')``, length ``n_slots``); directory slots own a
            row, object slots point at the global row.
        floor_table: Row-major ``(directories + 1) x kmax`` floors
            (``array('d')``): the minimum profile beneath each
            directory slot; the last row is the global minimum.
        obj_profile: Row-major ``n_slots x kmax`` exact k-distance
            profile (``array('d')``): entry ``[slot][k-1]`` is object
            ``slot``'s k-th largest competitor similarity (0.0 for
            directory slots and beyond the object's competitors).
        row_objects: Objects under each directory row (``array('q')``,
            one entry per row except the global one).
        build_seconds: Wall-clock cost of the freeze-time build.
    """

    __slots__ = (
        "kmax",
        "floor_idx",
        "floor_table",
        "obj_profile",
        "row_objects",
        "build_seconds",
    )

    def __init__(
        self,
        kmax: int,
        floor_idx,
        floor_table,
        obj_profile,
        row_objects,
        build_seconds: float,
    ) -> None:
        self.kmax = kmax
        self.floor_idx = floor_idx
        self.floor_table = floor_table
        self.obj_profile = obj_profile
        self.row_objects = row_objects
        self.build_seconds = build_seconds

    def node_floor(self, slot: int, k: int) -> float:
        """Conservative lower bound on ``s_k`` of every object under
        ``slot``: the minimum profile beneath a directory slot, the
        object's own exact ``s_k`` for an object slot (0.0 when
        ``k > kmax``, which never prunes)."""
        if k > self.kmax:
            return 0.0
        i = k - 1
        row = self.floor_table[self.floor_idx[slot] * self.kmax + i]
        own = self.obj_profile[slot * self.kmax + i]
        return own if own > row else row

    #: Object slots read their own profile through the same lookup.
    obj_floor = node_floor

    def global_floor(self, k: int) -> float:
        """Lower bound on ``s_k`` valid for *every* object (last row)."""
        if k > self.kmax:
            return 0.0
        return self.floor_table[len(self.floor_table) - self.kmax + (k - 1)]

    def nbytes(self) -> int:
        """Resident bytes of the sketch arrays."""
        return sum(
            arr.itemsize * len(arr)
            for arr in (
                self.floor_idx,
                self.floor_table,
                self.obj_profile,
                self.row_objects,
            )
        )

    def describe(self) -> Dict[str, object]:
        """Summary counters for logs and benchmark reports."""
        rows = list(self.row_objects)
        return {
            "kmax": self.kmax,
            "rows": len(rows),
            "row_objects_max": max(rows) if rows else 0,
            "row_objects_mean": (sum(rows) / len(rows)) if rows else 0.0,
            "nbytes": self.nbytes(),
            "build_seconds": self.build_seconds,
        }


def _array_numpy(snap):
    """numpy for the array scoring stage, or None (pure-python pass).

    A seam so tests can force the pure-python pass with numpy installed.
    """
    np = kernels._numpy()
    if np is None or snap.np_xlo is None:
        return None
    return np


def _groups(snap) -> List[List[int]]:
    """Layout-contiguous object groups: the object children of each
    directory slot.  Root-level objects (CIUR outliers, spread over the
    whole space) are singletons, so no group's box spans the map."""
    is_obj = snap.is_obj
    groups = [[r] for r in snap.root_slots if is_obj[r]]
    for s in range(snap.n_slots):
        if not is_obj[s]:
            groups.append([
                c for c in range(snap.first_child[s], snap.last_child[s])
                if is_obj[c]
            ])
    return [g for g in groups if g]


def _near_objects(snap, members: List[int], kmax: int) -> List[int]:
    """Every object within the spatial candidate radius ``R`` of the
    group's bounding box (see the module docstring).

    One best-first walk of the snapshot ordered by box distance: it
    pops objects until ``kmax`` lie outside the group, sets ``R`` to the
    largest member's distance to its ``kmax``-th nearest popped object,
    then keeps popping everything within ``R``.
    """
    xlo, ylo, xhi, yhi = snap.xlo, snap.ylo, snap.xhi, snap.yhi
    is_obj = snap.is_obj
    gx0 = min(xlo[m] for m in members)
    gy0 = min(ylo[m] for m in members)
    gx1 = max(xhi[m] for m in members)
    gy1 = max(yhi[m] for m in members)

    def box_dist(s: int) -> float:
        return math.hypot(
            max(gx0 - xhi[s], 0.0, xlo[s] - gx1),
            max(gy0 - yhi[s], 0.0, ylo[s] - gy1),
        )

    group = set(members)
    heap = [(box_dist(r), r) for r in snap.root_slots]
    heapq.heapify(heap)
    radius = math.inf
    outside = 0
    near: List[int] = []
    while heap:
        dist, s = heapq.heappop(heap)
        if dist > radius:
            break
        if is_obj[s]:
            near.append(s)
            if s not in group:
                outside += 1
                if outside == kmax:
                    radius = _RADIUS_SLACK * max(
                        sorted([
                            math.hypot(xlo[a] - xlo[c], ylo[a] - ylo[c])
                            for c in near if c != a
                        ])[kmax - 1]
                        for a in members
                    )
            continue
        for c in range(snap.first_child[s], snap.last_child[s]):
            d = box_dist(c)
            if d <= radius:
                heapq.heappush(heap, (d, c))
    return near


def _exact_profiles(engine, kmax: int) -> Dict[int, List[float]]:
    """Every object's exact top-``kmax`` competitor similarities,
    descending and zero-padded (the all-kNN pass of the module doc)."""
    snap = engine.snap
    objs = [s for s in range(snap.n_slots) if snap.is_obj[s]]
    if not objs:
        return {}
    exact = engine._exact
    alpha = engine.alpha
    obj_vec = snap.obj_vec
    tm = snap.text_matrix()
    postings = tm.obj_postings
    row_of = tm.obj_row
    n_obj = len(objs)
    np = _array_numpy(snap)
    text_form = None if np is None else _ARRAY_TEXT.get(engine.measure.name)
    if text_form is not None:
        idx = np.asarray(objs, dtype=np.intp)
        ox, oy = snap.np_xlo[idx], snap.np_ylo[idx]
        nsq = np.asarray(tm.obj_nsq, dtype=np.float64)
        lens = np.asarray([len(obj_vec[s]) for s in objs], dtype=np.int64)
        delta = (16 * int(lens.max()) + 64) * _U
        maxD = snap.maxD

    def all_rows(members, near_rows):
        """Every candidate row of each member (pure-python pass)."""
        out = []
        for a in members:
            rows = set(near_rows)
            for tid in obj_vec[a].term_ids():
                rows.update(postings[tid][0])
            rows.discard(row_of[a])
            out.append(rows)
        return out

    def close_rows(members, near_rows):
        """Candidate rows within ``delta`` of each member's ``kmax``-th
        approximate score, from one :func:`~repro.perf.kernels.group_text_dots`
        row per member and broadcast ``hypot``."""
        near = np.asarray(near_rows, dtype=np.intp)
        out = []
        for a in members:
            vec = obj_vec[a]
            res = kernels.group_text_dots(
                postings, vec.term_ids(), [w for _t, w in vec.items()],
                n_obj, np,
            )
            if res is None:
                rows, dots, overlaps = near, None, None
            else:
                dots, overlaps = res
                # A boolean scan runs ~2x faster than one over int64.
                rows = np.concatenate(
                    (np.flatnonzero(overlaps > 0), near[overlaps[near] == 0])
                )
            ra = row_of[a]
            rows = rows[rows != ra]  # an object is not its own competitor
            if len(rows) > kmax:
                score = np.zeros(len(rows))
                if alpha > 0.0:
                    dist = np.hypot(ox[ra] - ox[rows], oy[ra] - oy[rows])
                    score += alpha * np.maximum(1.0 - dist / maxD, 0.0)
                if alpha < 1.0 and dots is not None:
                    ov = overlaps[rows]
                    # Rows sharing no term have dot 0; the 0/0 of two
                    # empty documents is masked out with them.
                    with np.errstate(divide="ignore", invalid="ignore"):
                        text = text_form(dots[rows], ov, ra, rows, nsq, lens)
                    score += (1.0 - alpha) * np.where(ov > 0, text, 0.0)
                cut = len(rows) - kmax
                theta = np.partition(score, cut)[cut]
                rows = rows[score >= theta - delta]
            out.append(rows.tolist())
        return out

    candidates = all_rows if text_form is None else close_rows
    profiles: Dict[int, List[float]] = {}
    for members in _groups(snap):
        near_rows = [row_of[s] for s in _near_objects(snap, members, kmax)]
        for a, rows in zip(members, candidates(members, near_rows)):
            ys = sorted([exact(a, objs[r]) for r in rows], reverse=True)[:kmax]
            ys.extend([0.0] * (kmax - len(ys)))
            profiles[a] = ys
    return profiles


def _directory_floors(snap, profiles: Dict[int, List[float]], kmax: int):
    """``(floor_idx, floor_table, row_objects)`` of the node floors.

    Each directory slot's row is the elementwise minimum of the profiles
    of the objects beneath it (0.0 when there are none), children before
    parents — the level-order layout puts every child after its parent.
    The last row is the minimum over every object.
    """
    is_obj = snap.is_obj
    below: Dict[int, List[float]] = dict(profiles)
    dirs = [s for s in range(snap.n_slots) if not is_obj[s]]
    for s in reversed(dirs):
        parts = [
            below[c]
            for c in range(snap.first_child[s], snap.last_child[s])
            if c in below
        ]
        if parts:
            below[s] = [min(col) for col in zip(*parts)]
    zeros = [0.0] * kmax
    roots = [below[r] for r in snap.root_slots if r in below]

    floor_idx = array("q", [len(dirs)] * snap.n_slots)
    floor_table = array("d")
    for row, s in enumerate(dirs):
        floor_idx[s] = row
        floor_table.extend(below.get(s, zeros))
    floor_table.extend([min(col) for col in zip(*roots)] if roots else zeros)
    return floor_idx, floor_table, array("q", [snap.cnt[s] for s in dirs])


def build_sketch(engine, kmax: int = DEFAULT_SKETCH_KMAX) -> KnnlSketch:
    """Compute one snapshot's :class:`KnnlSketch` from its exact engine.

    ``engine`` is the :class:`~repro.core.traversal.SnapshotEngine` of
    the similarity setting being served; its ``_exact`` supplies every
    profile value, so the profiles match the exact engines bit for bit.
    """
    started = time.perf_counter()
    snap = engine.snap
    n_slots = snap.n_slots
    profiles = _exact_profiles(engine, kmax)

    obj_profile = array("d", bytes(8 * n_slots * kmax))
    for s, ys in profiles.items():
        obj_profile[s * kmax:(s + 1) * kmax] = array("d", ys)
    floor_idx, floor_table, row_objects = _directory_floors(
        snap, profiles, kmax
    )
    return KnnlSketch(
        kmax=kmax,
        floor_idx=floor_idx,
        floor_table=floor_table,
        obj_profile=obj_profile,
        row_objects=row_objects,
        build_seconds=time.perf_counter() - started,
    )
