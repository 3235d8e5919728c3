"""The approx tier: kNNL sketch soundness, exactness, plumbing.

The sketch (:mod:`repro.approx.sketch`) is only allowed to decide
answers because every floor it stores is a *provably conservative*
lower bound on each object's true k-th competitor similarity ``s_k``.
These tests pin that contract from below and above:

* **floor conservativeness** (hypothesis) — every object's
  ``obj_floor``/``node_floor`` and the global (last) ``floor_table``
  row are bounded by a brute force ``s_k`` computed from pairwise exact
  similarities, across alphas and ``k``; ``k > kmax`` always reads 0.0
  (never prunes);
* **approx exactness** (hypothesis) — ``engine="approx"`` returns the
  ids of the snapshot engine and of :class:`ThresholdBaseline` for every
  measure, alpha, tree kind and frozen kernel form, tie-heavy corpora and
  queries that copy a dataset object included; ``k > kmax`` runs the
  snapshot walk;
* **plumbing** — filter counters, the ``REPRO_ENGINE=approx`` env knob,
  ``kmax`` validation, the baked sketch's path to shm workers, the shm
  segment round-trip of the sketch arrays, and the object-row text
  matrix the sketch build reads (a sketch built after an insert or
  delete never reads a stale matrix).
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import SimilarityConfig
from repro.approx import KnnlSketch, build_sketch
from repro.approx.sketch import DEFAULT_SKETCH_KMAX
from repro.core.rstknn import RSTkNNSearcher
from repro.index.iurtree import IURTree
from repro.model.dataset import STDataset
from repro.perf import kernels
from repro.perf.batch import BatchSearcher
from repro.perf.kernels import numpy_available
from repro.perf.snapshot import SnapshotTextMatrix
from repro.spatial.point import Point
from repro.text.similarity import make_measure
from repro.workloads import gn_like, sample_queries

from tests.conftest import FORMS, frozen_form, random_corpus

_ALPHAS = (0.0, 0.4, 1.0)
_STATE = {}


def _env():
    if not _STATE:
        dataset = gn_like(n=120)
        tree = IURTree.build(dataset)
        tree.snapshot()
        queries = sample_queries(dataset, 6, seed=17)
        _STATE.update(dataset=dataset, tree=tree, queries=queries, cells={})
    return _STATE


def _cell(alpha: float):
    """Engine + sketch + brute-force ``s_k`` table for one alpha."""
    env = _env()
    cell = env["cells"].get(alpha)
    if cell is None:
        tree = env["tree"]
        measure = make_measure(env["dataset"].config.text_measure)
        snap = tree.snapshot()
        engine = snap.engine_for(tree, measure, alpha, 0.0)
        sketch = snap.sketch_for(engine)
        objs = [s for s in range(snap.n_slots) if snap.is_obj[s]]
        ref = snap.ref
        exact = engine._exact
        # Brute-force k-th competitor similarity per object slot: the
        # sorted (descending) exact similarities to every other object.
        brute = {}
        for a in objs:
            sims = sorted(
                (exact(a, b) for b in objs if ref[b] != ref[a]),
                reverse=True,
            )
            brute[a] = sims
        cell = {"snap": snap, "sketch": sketch, "objs": objs, "brute": brute}
        env["cells"][alpha] = cell
    return cell


def _global_row(sketch, k: int) -> float:
    """The last ``floor_table`` row — the minimum profile over every
    object, which object slots read through ``node_floor``."""
    return sketch.floor_table[len(sketch.floor_table) - sketch.kmax + k - 1]


def _searcher(alpha: float, **kwargs) -> RSTkNNSearcher:
    env = _env()
    config = SimilarityConfig(
        alpha=alpha, text_measure=env["dataset"].config.text_measure
    )
    return RSTkNNSearcher(env["tree"], config=config, **kwargs)


# ----------------------------------------------------------------------
# Floor conservativeness vs brute force (hypothesis)
# ----------------------------------------------------------------------


class TestFloorConservativeness:
    @settings(deadline=None, max_examples=25)
    @given(
        alpha=st.sampled_from(_ALPHAS),
        k=st.integers(min_value=1, max_value=DEFAULT_SKETCH_KMAX),
    )
    def test_every_floor_bounded_by_brute_force_sk(self, alpha, k):
        cell = _cell(alpha)
        sketch = cell["sketch"]
        for slot in cell["objs"]:
            sims = cell["brute"][slot]
            s_k = sims[k - 1] if len(sims) >= k else 0.0
            assert sketch.obj_floor(slot, k) <= s_k + 1e-12
            assert sketch.node_floor(slot, k) <= s_k + 1e-12
            assert _global_row(sketch, k) <= s_k + 1e-12

    @settings(deadline=None, max_examples=10)
    @given(alpha=st.sampled_from(_ALPHAS), extra=st.integers(1, 50))
    def test_beyond_kmax_floors_read_zero(self, alpha, extra):
        cell = _cell(alpha)
        sketch = cell["sketch"]
        k = sketch.kmax + extra
        for slot in cell["objs"][:5]:
            assert sketch.obj_floor(slot, k) == 0.0
            assert sketch.node_floor(slot, k) == 0.0

    def test_node_floor_monotone_in_k(self):
        # s_1 >= s_2 >= ... so a sound floor table must be non-increasing.
        sketch = _cell(0.4)["sketch"]
        for slot in _cell(0.4)["objs"][:10]:
            floors = [
                sketch.node_floor(slot, k)
                for k in range(1, sketch.kmax + 1)
            ]
            assert floors == sorted(floors, reverse=True)

    def test_describe_and_nbytes(self):
        sketch = _cell(0.4)["sketch"]
        desc = sketch.describe()
        assert desc["kmax"] == DEFAULT_SKETCH_KMAX
        assert desc["nbytes"] == sketch.nbytes() > 0
        assert desc["rows"] == len(sketch.row_objects)
        assert len(sketch.floor_table) == (desc["rows"] + 1) * sketch.kmax


# ----------------------------------------------------------------------
# The approx engine: byte-identity, counters, fallback
# ----------------------------------------------------------------------


class TestApproxEngine:
    @settings(deadline=None, max_examples=30)
    @given(
        alpha=st.sampled_from(_ALPHAS),
        k=st.integers(min_value=1, max_value=DEFAULT_SKETCH_KMAX + 4),
        qi=st.integers(min_value=0, max_value=5),
    )
    def test_verified_mode_byte_identical(self, alpha, k, qi):
        env = _env()
        query = env["queries"][qi]
        exact = _searcher(alpha, engine="snapshot")
        approx = _searcher(alpha, engine="approx")
        assert approx.search(query, k).ids == exact.search(query, k).ids

    def test_filter_counters_and_last_filter(self):
        env = _env()
        searcher = _searcher(0.4, engine="approx")
        result = searcher.search(env["queries"][0], 4)
        snap = env["tree"].snapshot()
        engine = snap.approx_engine_for(
            env["tree"], searcher.measure, searcher.alpha, searcher.te_weight
        )
        assert engine.counters["searches"] >= 1
        assert set(engine.last_filter) == {
            "nodes_pruned", "objects_pruned", "spatial_shortcuts",
            "candidates", "answers", "exact_fallbacks",
        }
        # Every survivor is an answer: no probe runs, none is refuted.
        assert engine.last_filter["answers"] == len(result.ids)
        assert engine.last_filter["candidates"] == len(result.ids)
        assert engine.last_filter["exact_fallbacks"] == 0
        assert result.stats.verified_objects == 0
        assert result.stats.cache_misses == 0

    def test_k_beyond_sketch_counts_an_exact_fallback(self):
        env = _env()
        searcher = _searcher(0.4, engine="approx")
        snap = env["tree"].snapshot()
        engine = snap.approx_engine_for(
            env["tree"], searcher.measure, searcher.alpha, searcher.te_weight
        )
        before = engine.counters["exact_fallbacks"]
        query = env["queries"][3]
        k = engine.sketch.kmax + 1
        result = searcher.search(query, k)
        assert engine.last_filter["exact_fallbacks"] == 1
        assert engine.last_filter["answers"] == 0
        assert engine.counters["exact_fallbacks"] == before + 1
        assert result.stats.expansions > 0  # the snapshot walk ran
        exact = _searcher(0.4, engine="snapshot").search(query, k)
        assert result.ids == exact.ids

    def test_spatial_shortcuts_counted_at_pure_spatial_alpha(self):
        # At alpha == 1.0 the stage-1 bound IS the full bound (text is
        # skipped by construction), so every node prune there must be
        # counted as a spatial shortcut — the counter used to read 0.
        env = _env()
        tree = env["tree"]
        measure = make_measure(env["dataset"].config.text_measure)
        snap = tree.snapshot()
        engine = snap.approx_engine_for(tree, measure, 1.0, 0.0)
        pruned = shortcuts = 0
        for query in env["queries"]:
            engine.search(query, 2)
            pruned += engine.last_filter["nodes_pruned"]
            shortcuts += engine.last_filter["spatial_shortcuts"]
            assert (
                engine.last_filter["spatial_shortcuts"]
                == engine.last_filter["nodes_pruned"]
            )
        assert pruned > 0 and shortcuts == pruned

    def test_env_knob_selects_approx_engine(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "approx")
        searcher = _searcher(0.4)
        assert searcher.engine == "approx"
        env = _env()
        exact = _searcher(0.4, engine="snapshot")
        q = env["queries"][1]
        assert searcher.search(q, 3).ids == exact.search(q, 3).ids

    def test_approx_batch_matches_exact(self):
        env = _env()
        exact = BatchSearcher(env["tree"], engine="snapshot")
        approx = BatchSearcher(env["tree"], engine="approx")
        ref = [r.ids for r in exact.run(env["queries"], 4).results]
        got = [r.ids for r in approx.run(env["queries"], 4).results]
        assert got == ref


# ----------------------------------------------------------------------
# The object-row text matrix the sketch build reads
# ----------------------------------------------------------------------


class TestTextMatrix:
    def test_structure_and_memoization(self):
        snap = _env()["tree"].snapshot()
        tm = snap.text_matrix()
        assert tm is snap.text_matrix()  # lazy, built once
        assert isinstance(tm, SnapshotTextMatrix)
        assert tm.generation == snap.generation
        assert tm.n_obj_rows == sum(snap.is_obj)
        # Object rows carry the exact norms, in slot order.
        row = 0
        for slot in range(snap.n_slots):
            if snap.is_obj[slot]:
                assert tm.obj_row[slot] == row
                assert tm.obj_nsq[row] == snap.obj_vec[slot].norm_squared
                row += 1
            else:
                assert tm.obj_row[slot] == -1

    def test_backend_tracks_numpy(self):
        tm = _env()["tree"].snapshot().text_matrix()
        expected = "numpy" if kernels._numpy() is not None else "python"
        assert tm.backend == expected

    def test_describe_keys(self):
        desc = _env()["tree"].snapshot().text_matrix().describe()
        for key in ("generation", "object_rows", "object_terms", "backend"):
            assert key in desc


class TestStalenessAfterInsert:
    def _run_then_mutate(self, corpus_seed, query_seed, mutate):
        """Approx-run, mutate the tree, approx-run again; returns the
        matrices before/after and the post-mutation batch result."""
        dataset = STDataset.from_corpus(random_corpus(80, seed=corpus_seed))
        tree = IURTree.build(dataset)
        approx = BatchSearcher(tree, engine="approx")
        queries = sample_queries(dataset, 4, seed=query_seed)
        approx.run(queries, 3)  # sketch built from the pre-write matrix
        before = tree.snapshot()
        matrix_before = before.text_matrix()

        victim = mutate(dataset, tree)

        # The rebuilt snapshot owns a rebuilt matrix — the generation
        # bump invalidates the postings along with everything else.
        result = approx.run(queries, 3)
        after = tree.snapshot()
        assert after is not before
        matrix_after = after.text_matrix()
        assert matrix_after is not matrix_before
        assert matrix_after.generation > matrix_before.generation
        # The approx ids match the exact snapshot walk's (itself pinned
        # against the seed walk elsewhere).
        exact = BatchSearcher(tree, engine="snapshot")
        assert result.id_lists() == exact.run(queries, 3).id_lists()
        return matrix_before, matrix_after, result, victim

    def test_approx_run_never_reads_stale_matrix(self):
        def insert(dataset, tree):
            tree.insert_object(
                dataset.append_record(Point(42.0, 58.0), "coffee bakery")
            )

        before, after, _, _ = self._run_then_mutate(41, 5, insert)
        assert after.n_obj_rows == before.n_obj_rows + 1

    def test_approx_run_never_reads_stale_matrix_after_delete(self):
        def delete(dataset, tree):
            victim = dataset.objects[23]
            assert tree.delete_object(victim.oid)
            return victim

        before, after, result, victim = self._run_then_mutate(43, 7, delete)
        assert after.n_obj_rows == before.n_obj_rows - 1
        assert all(victim.oid not in ids for ids in result.id_lists())


# ----------------------------------------------------------------------
# Shared-memory round-trip of the sketch arrays
# ----------------------------------------------------------------------


class TestShmSketchRoundTrip:
    def test_attached_snapshot_serves_frozen_sketch(self):
        from repro.perf.shm import (
            SharedSnapshotSegment,
            attach,
            shm_available,
        )

        ok, why = shm_available()
        if not ok:
            pytest.skip(f"shm unavailable: {why}")
        env = _env()
        tree = env["tree"]
        measure = make_measure(env["dataset"].config.text_measure)
        snap = tree.snapshot()
        parent = snap.sketch_for(snap.engine_for(tree, measure, 0.5, 0.0))

        seg = SharedSnapshotSegment.create(tree)
        attached = attach(seg.name)
        try:
            asnap = attached.snapshot
            # The attached snapshot reconstructed the sketch from the
            # segment — identical arrays, no rebuild.
            assert len(asnap._sketches) == len(snap._sketches)
            twin = asnap.sketch_for(
                asnap.engine_for(attached.tree, measure, 0.5, 0.0)
            )
            assert isinstance(twin, KnnlSketch)
            assert list(twin.floor_table) == list(parent.floor_table)
            assert list(twin.floor_idx) == list(parent.floor_idx)
            assert list(twin.obj_profile) == list(parent.obj_profile)
            assert list(twin.row_objects) == list(parent.row_objects)
            assert twin.kmax == parent.kmax
            # And the attached searcher answers identically in approx
            # mode against the parent's exact engine.
            remote = attached.searcher(engine="approx")
            local = _searcher(0.5, engine="snapshot")
            q = env["queries"][2]
            assert remote.search(q, 3).ids == local.search(q, 3).ids
        finally:
            attached.close()
            seg.release()

    def test_stale_layout_version_raises_stale_segment_error(self):
        from repro.errors import SnapshotSegmentError, StaleSegmentError
        from repro.perf.shm import (
            SEGMENT_MAGIC,
            SharedSnapshotSegment,
            attach,
            shm_available,
        )

        ok, why = shm_available()
        if not ok:
            pytest.skip(f"shm unavailable: {why}")
        env = _env()
        seg = SharedSnapshotSegment.create(env["tree"])
        try:
            # A segment written by a previous layout version (same
            # RSTSHM family, older version byte pair) is *stale*, not
            # foreign: the remedy is re-exporting with this build.
            for stale in (b"RSTSHM02", b"RSTSHM03", b"RSTSHM04", b"RSTSHM05"):
                seg.shm.buf[: len(SEGMENT_MAGIC)] = stale
                with pytest.raises(StaleSegmentError):
                    attach(seg.name)
            # Arbitrary bytes are a foreign (non-snapshot) segment.
            seg.shm.buf[: len(SEGMENT_MAGIC)] = b"NOTMAGIC"
            with pytest.raises(SnapshotSegmentError):
                attach(seg.name)
        finally:
            seg.shm.buf[: len(SEGMENT_MAGIC)] = SEGMENT_MAGIC
            seg.release()


# ----------------------------------------------------------------------
# Build-path edges
# ----------------------------------------------------------------------


class TestBuildEdges:
    def test_tiny_corpus_sketch_never_overclaims(self):
        # Two objects: s_1 exists, s_2 does not (no second competitor)
        # so every k >= 2 floor must read 0.0.
        dataset = gn_like(n=2)
        tree = IURTree.build(dataset)
        snap = tree.snapshot()
        measure = make_measure(dataset.config.text_measure)
        engine = snap.engine_for(tree, measure, 0.5, 0.0)
        sketch = build_sketch(engine)
        objs = [s for s in range(snap.n_slots) if snap.is_obj[s]]
        for slot in objs:
            for k in range(2, sketch.kmax + 1):
                assert sketch.obj_floor(slot, k) == 0.0


# ----------------------------------------------------------------------
# Adaptive frontier peel (empty-node and budget-overflow regressions)
# ----------------------------------------------------------------------


class _StubSnap:
    """Minimal snapshot shape for the shard admission peel and the
    sketch's directory-floor aggregation.

    Slot 0 is the root directory; slot 1 is a *degenerate empty*
    directory node (no children) given an inflated count so the
    largest-count-first heap pops it while refinable nodes are still
    queued; slot 2 is an object at root level; slot 3 is a directory
    holding objects 4 and 5.
    """

    n_slots = 6
    root_slots = (0,)
    is_obj = [0, 0, 1, 0, 1, 1]
    cnt = [3, 5, 1, 2, 1, 1]
    first_child = [1, 0, 0, 4, 0, 0]
    last_child = [4, 0, 0, 6, 0, 0]


class TestAdaptivePeel:
    def test_shard_peel_continues_past_empty_node(self):
        from repro.shard.summaries import _peel_frontier

        # The empty node pops first (cnt 5).  The regression: appending
        # it must not abort the peel — slot 3 (still in the heap) must
        # go on to be refined into its object children 4 and 5.
        frontier = _peel_frontier(_StubSnap(), 16)
        assert sorted(frontier) == [1, 2, 4, 5]

    def test_overflowing_node_is_kept_while_smaller_nodes_refine(self):
        from repro.shard.summaries import _peel_frontier

        # Budget 4: expanding root yields [2] + heap {1, 3}.  Slot 1
        # (empty) becomes a row; slot 3's expansion fits (2 + 0 + 2 =
        # 4), so the peel still refines it instead of stopping.
        frontier = _peel_frontier(_StubSnap(), 4)
        assert sorted(frontier) == [1, 2, 4, 5]
        # Budget 3 cannot hold slot 3's two children next to the two
        # existing rows, so slot 3 itself is the row — never dropped.
        frontier = _peel_frontier(_StubSnap(), 3)
        assert sorted(frontier) == [1, 2, 3]


# ----------------------------------------------------------------------
# Floors under the other text measures
# ----------------------------------------------------------------------


class TestCurveSampling:
    def test_floors_conservative_under_other_measures(self):
        env = _env()
        tree = env["tree"]
        snap = tree.snapshot()
        for name in ("cosine", "dice"):
            measure = make_measure(name)
            engine = snap.engine_for(tree, measure, 0.4, 0.0)
            sketch = build_sketch(engine)
            exact = engine._exact
            ref = snap.ref
            objs = [s for s in range(snap.n_slots) if snap.is_obj[s]]
            for a in objs:
                sims = sorted(
                    (exact(a, b) for b in objs if ref[b] != ref[a]),
                    reverse=True,
                )
                for k in (1, 2, sketch.kmax):
                    s_k = sims[k - 1] if len(sims) >= k else 0.0
                    assert sketch.obj_floor(a, k) <= s_k


# ----------------------------------------------------------------------
# The all-kNN pass: bit-exact profiles, min-aggregated node floors
# ----------------------------------------------------------------------

_MEASURES = (
    "extended_jaccard", "cosine", "overlap", "dice", "weighted_jaccard"
)
_CORPORA = {}


def _corpus(kind: str, n: int, form: str = "python"):
    """Cached ``(IUR, CIUR)`` trees over one test corpus, every vector
    frozen in ``form`` (see ``tests.conftest.frozen_form``).

    ``dup`` is tie-heavy: eight distinct ``(location, text)`` records,
    each repeated eight times, plus same-place/other-text and
    same-text/other-place variants, a stopword-only (empty) document,
    and nine copies of a seven-term document whose squared norm, summed
    term by term, lands one rounding step below its correctly rounded
    self dot product (so a copy would score above 1.0 against another).
    ``copies`` is nine copies of one document, six of which fill a leaf
    of their own, next to 25 random documents drawn from
    ``random.Random(n)``; at ``n=12`` the copied document has the same
    norm property, and at ``n=68`` a weighted Jaccard ``Σmax`` computed
    as ``Σa + Σb - Σmin`` rounded a pair past its node's bound.
    ``scaled`` is seven records at one point whose texts repeat one term
    list 1 to 7 times — parallel, unequal vectors whose cosine used to
    round above 1.0 — next to 20 random documents from
    ``random.Random(n)``.
    """
    key = (kind, n, form)
    if key not in _CORPORA:
        _CORPORA[key] = _build_corpus(kind, n, form)
    return _CORPORA[key]


def _build_corpus(kind: str, n: int, form: str):
    """The uncached :func:`_corpus` build."""
    from repro.config import IndexConfig
    from repro.index.ciurtree import CIURTree
    from repro.model.dataset import STDataset
    from repro.spatial.point import Point

    with frozen_form(form):
        if kind == "dup":
            base = [
                (Point(0.1 * (i % 4), 0.2 * (i // 4)),
                 f"t{i % 3} u{(i * 7) % 5}")
                for i in range(8)
            ]
            records = [rec for rec in base for _ in range(8)]
            records += [(Point(0.1, 0.0), "v1 v2"), (Point(0.9, 0.9), "t0 u0")]
            records += [(Point(0.5, 0.5), "the")]
            records += [
                (Point(0.7, 0.3), "k6 k0 k4 k7 k6 k4 k7 k5 k3 k2 k4 k2")
            ] * 9
            dataset = STDataset.from_corpus(records)
        elif kind == "copies":
            import random

            rng = random.Random(n)
            vocab = [f"w{i}" for i in range(40)]
            text = " ".join(rng.choice(vocab) for _ in range(rng.randint(3, 9)))
            others = [
                (Point(rng.random(), rng.random()),
                 " ".join(rng.choice(vocab) for _ in range(rng.randint(2, 6))))
                for _ in range(25)
            ]
            here = Point(rng.random(), rng.random())
            dataset = STDataset.from_corpus([(here, text)] * 9 + others)
        elif kind == "scaled":
            import random

            rng = random.Random(n)
            vocab = [f"w{i}" for i in range(30)]
            terms = [rng.choice(vocab) for _ in range(rng.randint(2, 5))]
            here = Point(rng.random(), rng.random())
            scaled = [(here, " ".join(terms * r)) for r in range(1, 8)]
            others = [
                (Point(rng.random(), rng.random()),
                 " ".join(rng.choice(vocab) for _ in range(rng.randint(2, 6))))
                for _ in range(20)
            ]
            dataset = STDataset.from_corpus(scaled + others)
        else:
            dataset = gn_like(n=n, seed=5)
        small = IndexConfig(max_entries=6, min_entries=2)
        trees = (
            IURTree.build(dataset, small),
            CIURTree.build(
                dataset,
                IndexConfig(
                    max_entries=6, min_entries=2, num_clusters=3,
                    outlier_threshold=0.3,
                ),
            ),
        )
        for tree in trees:
            tree.snapshot()  # freeze every vector in ``form``
    return trees


class TestExactProfiles:
    @settings(deadline=None, max_examples=150)
    @given(
        alpha=st.sampled_from((0.0, 0.4, 0.9, 1.0)),
        measure=st.sampled_from(_MEASURES),
        corpus=st.sampled_from((
            ("gn", 70), ("dup", 0), ("gn", 1), ("gn", 2), ("gn", 16),
            ("gn", 17),
        )),
        ciur=st.booleans(),
        form=st.sampled_from(FORMS),
        array_pass=st.booleans(),
    )
    def test_profiles_and_node_floors_are_exact(
        self, alpha, measure, corpus, ciur, form, array_pass
    ):
        from unittest import mock

        from repro.approx import sketch as sketch_mod

        tree = _corpus(*corpus, form)[1 if ciur else 0]
        with frozen_form(form), mock.patch.object(
            sketch_mod,
            "_array_numpy",
            sketch_mod._array_numpy if array_pass else (lambda snap: None),
        ):
            snap = tree.snapshot()
            engine = snap.engine_for(tree, make_measure(measure), alpha, 0.0)
            sketch = build_sketch(engine)
            kmax = sketch.kmax
            objs = [s for s in range(snap.n_slots) if snap.is_obj[s]]
            profile = {}
            for a in objs:
                ys = sorted(
                    (engine._exact(a, b) for b in objs if b != a), reverse=True
                )[:kmax]
                ys += [0.0] * (kmax - len(ys))
                assert list(sketch.obj_profile[a * kmax:(a + 1) * kmax]) == ys
                profile[a] = ys
            for slot in range(snap.n_slots):
                stack, under = [slot], []
                while stack:
                    s = stack.pop()
                    if snap.is_obj[s]:
                        under.append(profile[s])
                    else:
                        stack.extend(
                            range(snap.first_child[s], snap.last_child[s])
                        )
                want = (
                    [min(col) for col in zip(*under)] if under else [0.0] * kmax
                )
                got = [sketch.node_floor(slot, k) for k in range(1, kmax + 1)]
                assert got == want
            every = [min(col) for col in zip(*profile.values())] if objs else []
            assert every == [
                _global_row(sketch, k) for k in range(1, len(every) + 1)
            ]

    def test_directory_floors_skip_empty_nodes(self):
        from repro.approx.sketch import _directory_floors

        # Slot 1 is an empty directory: it reads 0.0 and must not drag
        # the root's minimum down; slot 3 reads the minimum of 4 and 5.
        profiles = {2: [0.9, 0.5], 4: [0.8, 0.6], 5: [0.7, 0.7]}
        floor_idx, floor_table, row_objects = _directory_floors(
            _StubSnap(), profiles, 2
        )

        def row(slot):
            i = floor_idx[slot]
            return list(floor_table[2 * i:2 * i + 2])

        assert row(1) == [0.0, 0.0]
        assert row(3) == [0.7, 0.6]
        assert row(0) == [0.7, 0.5]
        assert list(floor_table[-2:]) == [0.7, 0.5]
        assert list(row_objects) == [3, 5, 2]
        for obj in profiles:
            assert floor_idx[obj] == 3  # the global row


# ----------------------------------------------------------------------
# Approx exactness: survivors are the answer (hypothesis)
# ----------------------------------------------------------------------

_FORMS = FORMS + (("mixed",) if numpy_available() else ())


def _probe_queries(dataset):
    """Sampled queries plus two that copy a dataset object: a copy ties
    exactly with its original against every competitor."""
    from repro.model.objects import STObject
    from repro.text.vector import SparseVector

    copies = [
        STObject(-1, obj.point, SparseVector(obj.vector.to_dict()))
        for obj in (dataset.objects[0], dataset.objects[-3])
    ]
    return sample_queries(dataset, 3, seed=23) + copies


class TestApproxExactness:
    @settings(deadline=None, max_examples=120)
    @example(  # an all-copies leaf: prunable only if a copy scores > 1.0
        alpha=0.0, measure="extended_jaccard", corpus=("copies", 12),
        ciur=False, form="python", k=1, qi=3,
    )
    @example(  # a copy's Σmax rounded below its node's bound
        alpha=0.5, measure="weighted_jaccard", corpus=("copies", 68),
        ciur=False, form="python", k=1, qi=3,
    )
    @example(  # parallel unequal documents scored cosine > 1.0
        alpha=0.0, measure="cosine", corpus=("scaled", 59),
        ciur=False, form="python", k=1, qi=3,
    )
    @given(
        alpha=st.sampled_from((0.0, 0.4, 0.9, 1.0)),
        measure=st.sampled_from(_MEASURES),
        corpus=st.sampled_from((
            ("gn", 70), ("dup", 0), ("copies", 12), ("copies", 68),
            ("scaled", 59),
        )),
        ciur=st.booleans(),
        form=st.sampled_from(_FORMS),
        k=st.sampled_from((1, DEFAULT_SKETCH_KMAX, DEFAULT_SKETCH_KMAX + 1)),
        qi=st.integers(min_value=0, max_value=4),
    )
    def test_approx_ids_equal_snapshot_and_threshold_baseline(
        self, alpha, measure, corpus, ciur, form, k, qi
    ):
        from repro.core.baseline import ThresholdBaseline

        # The CIUR trees hold root-level outliers (singleton sketch
        # groups next to the clustered root).
        tree = _corpus(*corpus, form)[1 if ciur else 0]
        config = SimilarityConfig(alpha=alpha, text_measure=measure)
        with frozen_form(form):
            query = _probe_queries(tree.dataset)[qi]
            approx = RSTkNNSearcher(tree, config=config, engine="approx")
            got = approx.search(query, k)
            exact = RSTkNNSearcher(tree, config=config, engine="snapshot")
            assert got.ids == exact.search(query, k).ids
            assert got.ids == ThresholdBaseline(tree, config).search(query, k)
            engine = tree.snapshot().approx_engine_for(
                tree, approx.measure, approx.alpha, approx.te_weight
            )
        beyond = k > engine.sketch.kmax
        assert engine.last_filter["exact_fallbacks"] == int(beyond)
        if beyond:
            assert got.stats.expansions > 0  # the snapshot walk ran
        else:
            assert got.stats.verified_objects == 0


# ----------------------------------------------------------------------
# Knob validation and plumbing
# ----------------------------------------------------------------------


class TestSketchKnobs:
    def test_build_rejects_kmax_below_one(self):
        from repro.errors import ConfigError

        env = _env()
        tree = env["tree"]
        snap = tree.snapshot()
        engine = snap.engine_for(
            tree, make_measure(env["dataset"].config.text_measure), 0.4, 0.0
        )
        for bad in (0, -3):
            with pytest.raises(ConfigError):
                build_sketch(engine, kmax=bad)
            with pytest.raises(ConfigError):
                snap.sketch_for(engine, kmax=bad)

    def test_shm_workers_read_the_baked_sketch(self, tmp_path, monkeypatch):
        # The parent bakes the default sketch into the segment once;
        # workers must find it there instead of building their own.
        # Forked workers inherit the counting wrapper.
        import os

        from repro.approx import sketch as sketch_mod
        from repro.perf.shm import shm_available

        ok, why = shm_available()
        if not ok:
            pytest.skip(f"shm unavailable: {why}")
        log = tmp_path / "builds"
        real = sketch_mod.build_sketch

        def counted(engine, kmax=DEFAULT_SKETCH_KMAX):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {kmax}\n")
            return real(engine, kmax=kmax)

        monkeypatch.setattr(sketch_mod, "build_sketch", counted)
        dataset = gn_like(n=120)
        tree = IURTree.build(dataset)  # private: no memoized sketch yet
        queries = sample_queries(dataset, 6, seed=17)
        batch = BatchSearcher(tree, engine="approx", workers=2)
        result = batch.run(queries, 3)
        assert result.stats.workers == 2
        assert log.read_text().split() == [
            str(os.getpid()), str(DEFAULT_SKETCH_KMAX)
        ]
        exact = BatchSearcher(tree, engine="snapshot").run(queries, 3)
        assert result.id_lists() == exact.id_lists()

    def test_kmax_memoizes_distinct_sketches(self):
        env = _env()
        tree = env["tree"]
        measure = make_measure(env["dataset"].config.text_measure)
        snap = tree.snapshot()
        engine = snap.engine_for(tree, measure, 0.4, 0.0)
        full = snap.sketch_for(engine)
        small = snap.sketch_for(engine, kmax=4)
        assert full is not small
        assert (full.kmax, small.kmax) == (16, 4)
        assert snap.sketch_for(engine) is full
