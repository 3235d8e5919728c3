"""The approx tier: kNNL sketch soundness, warm-floor parity, recall.

The sketch (:mod:`repro.approx.sketch`) is only allowed to influence
the exact engines because every floor it stores is a *provably
conservative* lower bound on each object's true k-th competitor
similarity ``s_k``.  These tests pin that contract from below and
above:

* **floor conservativeness** (hypothesis) — every object's
  ``obj_floor``/``node_floor``/``global_floor`` is bounded by a brute
  force ``s_k`` computed from pairwise exact similarities, across
  alphas and ``k``; ``k > kmax`` always reads 0.0 (never prunes);
* **warm-floor parity** (hypothesis) — the snapshot engine with
  ``warm_floors=True`` returns ids bit-identical to the plain engine
  for every query/alpha/``k``, including ``k`` beyond the sketch;
* **verified-mode byte-identity** (hypothesis) — ``engine="approx",
  verify=True`` matches the exact engine exactly; ``verify=False``
  returns a sorted superset (recall 1.0 by construction);
* **plumbing** — filter counters, env knobs (``REPRO_ENGINE=approx``,
  ``REPRO_WARM_FLOORS``), fused+approx rejection, and the shm segment
  round-trip of the sketch arrays.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SimilarityConfig
from repro.approx import KnnlSketch, build_sketch
from repro.approx.sketch import DEFAULT_SKETCH_KMAX
from repro.core.rstknn import RSTkNNSearcher
from repro.errors import QueryError
from repro.index.iurtree import IURTree
from repro.perf.batch import BatchSearcher
from repro.perf.kernels import numpy_available
from repro.text.similarity import make_measure
from repro.workloads import gn_like, sample_queries

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
            assert sketch.global_floor(k) <= s_k + 1e-12

    @settings(deadline=None, max_examples=10)
    @given(alpha=st.sampled_from(_ALPHAS), extra=st.integers(1, 50))
    def test_beyond_kmax_floors_read_zero(self, alpha, extra):
        cell = _cell(alpha)
        sketch = cell["sketch"]
        k = sketch.kmax + extra
        assert sketch.global_floor(k) == 0.0
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
# Warm-floor bit-parity on the exact engines (hypothesis)
# ----------------------------------------------------------------------


class TestWarmFloorParity:
    @settings(deadline=None, max_examples=30)
    @given(
        alpha=st.sampled_from(_ALPHAS),
        k=st.integers(min_value=1, max_value=DEFAULT_SKETCH_KMAX + 4),
        qi=st.integers(min_value=0, max_value=5),
    )
    def test_warm_floors_ids_bit_identical(self, alpha, k, qi):
        env = _env()
        query = env["queries"][qi]
        plain = _searcher(alpha, engine="snapshot")
        warm = _searcher(alpha, engine="snapshot", warm_floors=True)
        assert warm.search(query, k).ids == plain.search(query, k).ids

    def test_warm_fused_batch_parity(self):
        env = _env()
        plain = BatchSearcher(env["tree"], engine="snapshot", mode="fused")
        warm = BatchSearcher(
            env["tree"], engine="snapshot", mode="fused", warm_floors=True
        )
        ref = [r.ids for r in plain.run(env["queries"], 4).results]
        got = [r.ids for r in warm.run(env["queries"], 4).results]
        assert got == ref

    def test_env_knob_arms_warm_floors(self, monkeypatch):
        monkeypatch.setenv("REPRO_WARM_FLOORS", "1")
        assert _searcher(0.4, engine="snapshot").warm_floors
        monkeypatch.setenv("REPRO_WARM_FLOORS", "off")
        assert not _searcher(0.4, engine="snapshot").warm_floors
        # An explicit argument beats the environment.
        assert not _searcher(
            0.4, engine="snapshot", warm_floors=False
        ).warm_floors


# ----------------------------------------------------------------------
# The approx engine: byte-identity, recall, counters
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
        approx = _searcher(alpha, engine="approx", approx_verify=True)
        assert approx.search(query, k).ids == exact.search(query, k).ids

    @settings(deadline=None, max_examples=30)
    @given(
        alpha=st.sampled_from(_ALPHAS),
        k=st.integers(min_value=1, max_value=DEFAULT_SKETCH_KMAX + 4),
        qi=st.integers(min_value=0, max_value=5),
    )
    def test_raw_mode_is_sorted_superset(self, alpha, k, qi):
        env = _env()
        query = env["queries"][qi]
        exact_ids = _searcher(alpha, engine="snapshot").search(query, k).ids
        raw_ids = _searcher(
            alpha, engine="approx", approx_verify=False
        ).search(query, k).ids
        assert raw_ids == sorted(raw_ids)
        assert set(exact_ids) <= set(raw_ids)  # recall 1.0 by construction

    def test_filter_counters_and_last_filter(self):
        env = _env()
        searcher = _searcher(0.4, engine="approx", approx_verify=False)
        searcher.search(env["queries"][0], 4)
        snap = env["tree"].snapshot()
        engine = snap.approx_engine_for(
            env["tree"], searcher.measure, searcher.alpha,
            searcher.te_weight, verify=False,
        )
        assert engine.counters["searches"] >= 1
        assert engine.counters["verified"] == 0
        assert set(engine.last_filter) == {
            "nodes_pruned", "objects_pruned", "spatial_shortcuts",
            "lsh_pruned", "candidates", "verified", "answers",
        }
        assert engine.last_filter["candidates"] >= 0
        # Raw mode returns every surviving candidate, so the answer
        # count is the candidate count minus the LSH-refuted ones.
        assert engine.last_filter["answers"] == (
            engine.last_filter["candidates"]
            - engine.last_filter["lsh_pruned"]
        )

    def test_env_knob_selects_approx_engine(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "approx")
        searcher = _searcher(0.4)
        assert searcher.engine == "approx"
        env = _env()
        exact = _searcher(0.4, engine="snapshot")
        q = env["queries"][1]
        assert searcher.search(q, 3).ids == exact.search(q, 3).ids

    def test_fused_batch_rejects_approx(self):
        env = _env()
        with pytest.raises(QueryError):
            BatchSearcher(env["tree"], engine="approx", mode="fused")

    def test_approx_batch_matches_exact(self):
        env = _env()
        exact = BatchSearcher(env["tree"], engine="snapshot")
        approx = BatchSearcher(env["tree"], engine="approx")
        ref = [r.ids for r in exact.run(env["queries"], 4).results]
        got = [r.ids for r in approx.run(env["queries"], 4).results]
        assert got == ref


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
            assert list(twin.curve_c) == list(parent.curve_c)
            assert list(twin.curve_b) == list(parent.curve_b)
            assert list(twin.obj_profile) == list(parent.obj_profile)
            assert list(twin.row_objects) == list(parent.row_objects)
            assert list(twin.lsh_sig) == list(parent.lsh_sig)
            assert twin.kmax == parent.kmax
            # And the attached searcher answers identically in approx
            # mode against the parent's exact engine.
            remote = attached.searcher(
                engine="approx", approx_verify=True
            )
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
            for stale in (b"RSTSHM02", b"RSTSHM03"):
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

    def test_sketch_knob_override_plumbs_through(self):
        env = _env()
        searcher = _searcher(
            0.4,
            engine="approx",
            sketch_kmax=4,
        )
        searcher.search(env["queries"][0], 2)
        snap = env["tree"].snapshot()
        engine = snap.approx_engine_for(
            env["tree"], searcher.measure, searcher.alpha,
            searcher.te_weight, verify=True, kmax=4,
        )
        assert engine.sketch.kmax == 4


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
# Curve fits over the exact profiles
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

    def test_true_pass_fits_curves_over_exact_profiles(self):
        env = _env()
        tree = env["tree"]
        snap = tree.snapshot()
        measure = make_measure(env["dataset"].config.text_measure)
        engine = snap.engine_for(tree, measure, 0.4, 0.0)
        sketch = build_sketch(engine)
        objs = [s for s in range(snap.n_slots) if snap.is_obj[s]]
        assert sketch.describe()["curves_fitted"] == len(objs)
        # The profile is the exact one, so the curve fitted under it is
        # bounded by the brute-force profile pointwise.
        cell = _cell(0.4)
        kmax = sketch.kmax
        for slot in objs:
            sims = cell["brute"][slot]
            for k in range(1, kmax + 1):
                s_k = sims[k - 1] if len(sims) >= k else 0.0
                prof = sketch.obj_profile[slot * kmax + (k - 1)]
                assert prof == s_k
                assert sketch.obj_floor(slot, k) == prof
                c = sketch.curve_c[slot]
                if c > 0.0:
                    assert c * k ** -sketch.curve_b[slot] <= s_k


# ----------------------------------------------------------------------
# The all-kNN pass: bit-exact profiles, min-aggregated node floors
# ----------------------------------------------------------------------

_MEASURES = (
    "extended_jaccard", "cosine", "overlap", "dice", "weighted_jaccard"
)
_CORPORA = {}


def _corpus(kind: str, n: int):
    """Cached ``(IUR, CIUR)`` trees over one test corpus.

    ``dup`` is tie-heavy: eight distinct ``(location, text)`` records,
    each repeated eight times, plus same-place/other-text and
    same-text/other-place variants and a stopword-only (empty) document.
    """
    from repro.config import IndexConfig
    from repro.index.ciurtree import CIURTree
    from repro.model.dataset import STDataset
    from repro.spatial.point import Point

    key = (kind, n)
    if key not in _CORPORA:
        if kind == "dup":
            base = [
                (Point(0.1 * (i % 4), 0.2 * (i // 4)),
                 f"t{i % 3} u{(i * 7) % 5}")
                for i in range(8)
            ]
            records = [rec for rec in base for _ in range(8)]
            records += [(Point(0.1, 0.0), "v1 v2"), (Point(0.9, 0.9), "t0 u0")]
            records += [(Point(0.5, 0.5), "the")]
            dataset = STDataset.from_corpus(records)
        else:
            dataset = gn_like(n=n, seed=5)
        small = IndexConfig(max_entries=6, min_entries=2)
        _CORPORA[key] = (
            IURTree.build(dataset, small),
            CIURTree.build(
                dataset,
                IndexConfig(
                    max_entries=6, min_entries=2, num_clusters=3,
                    outlier_threshold=0.3,
                ),
            ),
        )
    return _CORPORA[key]


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
        backend=st.sampled_from(
            ("python", "numpy") if numpy_available() else ("python",)
        ),
        array_pass=st.booleans(),
    )
    def test_profiles_and_node_floors_are_exact(
        self, alpha, measure, corpus, ciur, backend, array_pass
    ):
        from unittest import mock

        from repro.approx import sketch as sketch_mod
        from repro.perf import kernels

        tree = _corpus(*corpus)[1 if ciur else 0]
        with kernels.use_backend(backend), mock.patch.object(
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
                sketch.global_floor(k) for k in range(1, len(every) + 1)
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
# LSH pre-filter: recall, byte-identity, counters, knobs
# ----------------------------------------------------------------------


class TestLshPreFilter:
    def _engines(self, alpha):
        env = _env()
        tree = env["tree"]
        measure = make_measure(env["dataset"].config.text_measure)
        snap = tree.snapshot()
        on = snap.approx_engine_for(
            tree, measure, alpha, 0.0, verify=False, lsh=True
        )
        off = snap.approx_engine_for(
            tree, measure, alpha, 0.0, verify=False, lsh=False
        )
        return env, on, off

    @settings(deadline=None, max_examples=20)
    @given(
        alpha=st.sampled_from(_ALPHAS),
        k=st.integers(min_value=1, max_value=DEFAULT_SKETCH_KMAX),
        qi=st.integers(min_value=0, max_value=5),
    )
    def test_lsh_raw_set_nested_between_exact_and_unfiltered(
        self, alpha, k, qi
    ):
        env, on, off = self._engines(alpha)
        query = env["queries"][qi]
        exact_ids = _searcher(alpha, engine="snapshot").search(query, k).ids
        on_ids = on.search(query, k).ids
        off_ids = off.search(query, k).ids
        # The pre-filter only ever *removes* refuted candidates, and
        # never a true answer: exact ⊆ lsh-on ⊆ lsh-off (recall 1.0).
        assert set(exact_ids) <= set(on_ids) <= set(off_ids)

    @settings(deadline=None, max_examples=20)
    @given(
        alpha=st.sampled_from(_ALPHAS),
        k=st.integers(min_value=1, max_value=DEFAULT_SKETCH_KMAX),
        qi=st.integers(min_value=0, max_value=5),
    )
    def test_verified_mode_identical_with_and_without_lsh(
        self, alpha, k, qi
    ):
        env = _env()
        query = env["queries"][qi]
        exact_ids = _searcher(alpha, engine="snapshot").search(query, k).ids
        for lsh in (True, False):
            searcher = _searcher(
                alpha, engine="approx", approx_verify=True, approx_lsh=lsh
            )
            assert searcher.search(query, k).ids == exact_ids

    def test_lsh_counter_published(self):
        env, on, _off = self._engines(0.4)
        on.search(env["queries"][0], 4)
        assert "lsh_pruned" in on.counters
        assert on.last_filter["lsh_pruned"] >= 0
        assert (
            on.last_filter["answers"]
            == on.last_filter["candidates"] - on.last_filter["lsh_pruned"]
        )

    def test_env_knob_disarms_lsh(self, monkeypatch):
        monkeypatch.setenv("REPRO_APPROX_LSH", "0")
        assert not _searcher(0.4, engine="approx").approx_lsh
        monkeypatch.delenv("REPRO_APPROX_LSH")
        assert _searcher(0.4, engine="approx").approx_lsh
        monkeypatch.setenv("REPRO_APPROX_LSH", "off")
        # An explicit argument beats the environment.
        assert _searcher(
            0.4, engine="approx", approx_lsh=True
        ).approx_lsh

    def test_spatial_shortcuts_counted_at_pure_spatial_alpha(self):
        # At alpha == 1.0 the stage-1 bound IS the full bound (text is
        # skipped by construction), so every node prune there must be
        # counted as a spatial shortcut — the counter used to read 0.
        env = _env()
        tree = env["tree"]
        measure = make_measure(env["dataset"].config.text_measure)
        snap = tree.snapshot()
        engine = snap.approx_engine_for(
            tree, measure, 1.0, 0.0, verify=False, lsh=False
        )
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


# ----------------------------------------------------------------------
# Knob validation and plumbing
# ----------------------------------------------------------------------


class TestSketchKnobs:
    def test_perf_config_validates_sketch_knobs(self):
        from repro.config import PerfConfig
        from repro.errors import ConfigError

        assert PerfConfig(sketch_kmax=4).sketch_kmax == 4
        with pytest.raises(ConfigError):
            PerfConfig(sketch_kmax=0)
        with pytest.raises(ConfigError):
            PerfConfig(approx_lsh="yes")

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
