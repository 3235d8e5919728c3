"""Kernel-equivalence properties: frozen backends match the merge-join.

The frozen kernels (python dict/frozenset form, numpy array form) must
agree with the seed's sorted-tuple merge-join reference to within 1e-12
on every reduction — they replaced it on the hot path, so any drift is a
correctness bug, not a tolerance question.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.perf import kernels
from repro.text.vector import SparseVector

doc = st.dictionaries(
    st.integers(min_value=0, max_value=200),
    st.floats(min_value=1e-3, max_value=10, allow_nan=False),
    max_size=12,
)


# ----------------------------------------------------------------------
# Reference: the seed's sorted-merge reductions over parallel tuples.
# ----------------------------------------------------------------------

def _merge_reference(a: SparseVector, b: SparseVector):
    a_items = list(a.items())
    b_items = list(b.items())
    i = j = 0
    dot = s_min = s_max = 0.0
    overlap = 0
    while i < len(a_items) and j < len(b_items):
        (ai, aw), (bj, bw) = a_items[i], b_items[j]
        if ai == bj:
            dot += aw * bw
            s_min += min(aw, bw)
            s_max += max(aw, bw)
            overlap += 1
            i += 1
            j += 1
        elif ai < bj:
            s_max += aw
            i += 1
        else:
            s_max += bw
            j += 1
    s_max += sum(w for _, w in a_items[i:])
    s_max += sum(w for _, w in b_items[j:])
    return dot, s_min, s_max, overlap


def _assert_matches_reference(a: SparseVector, b: SparseVector):
    ref_dot, ref_min, ref_max, ref_overlap = _merge_reference(a, b)
    ref_ej = (
        ref_dot / (a.norm_squared + b.norm_squared - ref_dot)
        if ref_dot > 0.0
        else 0.0
    )
    assert math.isclose(a.ext_jaccard(b), ref_ej, rel_tol=0, abs_tol=1e-12)
    assert math.isclose(a.dot(b), ref_dot, rel_tol=0, abs_tol=1e-12)
    assert math.isclose(a.sum_min(b), ref_min, rel_tol=0, abs_tol=1e-12)
    assert math.isclose(a.sum_max(b), ref_max, rel_tol=0, abs_tol=1e-12)
    assert a.overlap_count(b) == ref_overlap
    # Symmetry is part of the contract (canonical cache keys rely on it).
    assert math.isclose(a.dot(b), b.dot(a), rel_tol=0, abs_tol=1e-12)
    assert math.isclose(a.sum_min(b), b.sum_min(a), rel_tol=0, abs_tol=1e-12)


@settings(max_examples=150, deadline=None)
@given(doc, doc)
def test_python_kernel_matches_merge_reference(wa, wb):
    with kernels.use_backend("python"):
        _assert_matches_reference(SparseVector(wa), SparseVector(wb))


@pytest.mark.skipif(
    not kernels.numpy_available(), reason="numpy backend unavailable"
)
@settings(max_examples=150, deadline=None)
@given(doc, doc)
def test_numpy_kernel_matches_merge_reference(wa, wb):
    with kernels.use_backend("numpy"):
        _assert_matches_reference(SparseVector(wa), SparseVector(wb))


@settings(max_examples=60, deadline=None)
@given(doc, doc)
def test_backends_agree_with_each_other(wa, wb):
    if not kernels.numpy_available():
        pytest.skip("numpy backend unavailable")
    a, b = SparseVector(wa), SparseVector(wb)
    with kernels.use_backend("python"):
        py = (a.dot(b), a.sum_min(b), a.sum_max(b), a.overlap_count(b))
    with kernels.use_backend("numpy"):
        np_ = (a.dot(b), a.sum_min(b), a.sum_max(b), a.overlap_count(b))
    # Both backends sum the same terms with math.fsum: bit for bit equal.
    assert py == np_


@settings(max_examples=150, deadline=None)
@given(doc, doc)
@example(  # Σa + Σb - Σmin rounded below this pair's true Σmax
    {2: 0.31710948553920126, 3: 1.48, 4: 0.7268494400673278},
    {0: 1.75, 1: 2.6958356351657704, 2: 2.5},
)
def test_sum_max_is_one_correctly_rounded_sum(wa, wb):
    # Weighted Jaccard bounds need Σmax monotone in the exact value, so
    # every backend must return the correctly rounded sum over the union.
    expected = math.fsum(
        max(wa.get(t, 0.0), wb.get(t, 0.0)) for t in set(wa) | set(wb)
    )
    backends = ["python"] + (["numpy"] if kernels.numpy_available() else [])
    for backend in backends:
        with kernels.use_backend(backend):
            assert SparseVector(wa).sum_max(SparseVector(wb)) == expected


def test_frozen_form_precomputes_norm_and_weight_sum():
    v = SparseVector({1: 0.5, 9: 2.0, 70: 1.5})
    with kernels.use_backend("python"):
        fz = v.frozen()
        assert fz.backend == "python"
        assert math.isclose(fz.norm_sq, v.norm_squared)
        assert math.isclose(fz.wsum, 0.5 + 2.0 + 1.5)
        # Signature covers every term's bit.
        for tid in (1, 9, 70):
            assert fz.mask & (1 << (tid & 63))


def test_disjoint_pairs_short_circuit():
    a = SparseVector({0: 1.0, 1: 2.0})
    b = SparseVector({64: 3.0})  # collides with bit 0 in the 64-bit mask
    c = SparseVector({5: 1.0})
    with kernels.use_backend("python"):
        # Mask collision (0 vs 64) must still give the right answer.
        assert a.dot(b) == 0.0
        assert a.sum_min(b) == 0.0
        assert a.overlap_count(b) == 0
        assert math.isclose(a.sum_max(b), 6.0)
        assert a.dot(c) == 0.0


def test_backend_switch_refreezes_lazily():
    if not kernels.numpy_available():
        pytest.skip("numpy backend unavailable")
    v = SparseVector({1: 1.0, 2: 2.0})
    with kernels.use_backend("python"):
        assert v.frozen().backend == "python"
    with kernels.use_backend("numpy"):
        assert v.frozen().backend == "numpy"
    # Restored backend re-freezes back on next use.
    assert kernels.is_current(v.frozen())


def test_set_backend_returns_previous_and_validates():
    previous = kernels.set_backend("python")
    try:
        assert kernels.backend_name() == "python"
        with pytest.raises(ConfigError):
            kernels.set_backend("cython")
        # A failed switch must not clobber the active backend.
        assert kernels.backend_name() == "python"
    finally:
        kernels.set_backend(previous)


def test_env_var_selects_backend(monkeypatch):
    monkeypatch.setenv(kernels.KERNEL_ENV_VAR, "python")
    monkeypatch.setattr(kernels, "_backend", None)
    assert kernels.backend_name() == "python"


def test_env_var_typo_warns_and_falls_back(monkeypatch):
    monkeypatch.setenv(kernels.KERNEL_ENV_VAR, "cython")
    monkeypatch.setattr(kernels, "_backend", None)
    with pytest.warns(RuntimeWarning, match="not one of"):
        assert kernels.backend_name() == "python"
    # Resolution is cached; no second warning on the next call.
    assert kernels.backend_name() == "python"


def test_numpy_request_degrades_to_python_when_unavailable(monkeypatch):
    # Simulate an environment without numpy regardless of this one.
    monkeypatch.setattr(kernels, "_np", None)
    monkeypatch.setattr(kernels, "_np_checked", True)
    with pytest.warns(RuntimeWarning, match="falling back"):
        assert kernels._resolve("numpy") == "python"
    assert kernels._resolve("auto") == "python"


def test_sparse_vector_pickles_without_frozen_form():
    import pickle

    v = SparseVector({3: 1.5, 8: 0.25})
    v.frozen()  # populate the cached form
    clone = pickle.loads(pickle.dumps(v))
    assert clone == v
    assert clone._frozen is None  # rebuilt lazily under the local backend
    assert math.isclose(clone.dot(v), v.dot(v))


def test_auto_backend_dispatches_by_length():
    if not kernels.numpy_available():
        pytest.skip("numpy backend unavailable")
    cross = kernels.AUTO_NUMPY_MIN_TERMS
    short = SparseVector({t: 1.0 for t in range(4)})
    long = SparseVector({t: 1.0 + (t % 7) * 0.1 for t in range(cross)})
    with kernels.use_backend("auto"):
        assert short.frozen().backend == "python"
        assert long.frozen().backend == "numpy"
        assert kernels.is_current(short.frozen())
        assert kernels.is_current(long.frozen())


@given(
    a=st.dictionaries(
        st.integers(min_value=0, max_value=300),
        st.floats(min_value=0.01, max_value=5.0),
        min_size=1,
        max_size=12,
    ),
    b=st.dictionaries(
        st.integers(min_value=0, max_value=300),
        st.floats(min_value=0.01, max_value=5.0),
        min_size=1,
        max_size=12,
    ),
)
@settings(max_examples=60, deadline=None)
def test_mixed_backend_pairs_match_python(a, b):
    if not kernels.numpy_available():
        pytest.skip("numpy backend unavailable")
    va, vb = SparseVector(a), SparseVector(b)
    with kernels.use_backend("python"):
        pa, pb = va.frozen(), vb.frozen()
        expect = (
            pa.dot(pb),
            pa.sum_min(pb),
            pa.sum_max(pb),
            pa.overlap_count(pb),
            pa.ext_jaccard(pb),
        )
    with kernels.use_backend("numpy"):
        vb._frozen = None
        nb = vb.frozen()
    # One python-form operand, one numpy-form — both orders.
    for x, y, swap in ((pa, nb, False), (nb, pa, True)):
        got = (
            x.dot(y),
            x.sum_min(y),
            x.sum_max(y) if not swap else y.sum_max(x),
            x.overlap_count(y),
            x.ext_jaccard(y),
        )
        for g, e in zip(got, expect):
            assert math.isclose(g, e, rel_tol=1e-12, abs_tol=1e-12)
    vb._frozen = None


# ----------------------------------------------------------------------
# Bitwise symmetry: the snapshot pair memo and the kNNL sketch profiles
# serve a value computed with its operands in either order, so every
# reduction must give the same bits both ways.
# ----------------------------------------------------------------------

_FORMS = (
    ("python", "numpy", "mixed") if kernels.numpy_available() else ("python",)
)
_MEASURES = (
    "extended_jaccard", "cosine", "overlap", "dice", "weighted_jaccard"
)

_term = st.integers(min_value=0, max_value=1000)
_weight = st.floats(min_value=1e-3, max_value=10, allow_nan=False)


@st.composite
def _doc_pairs(draw):
    """Two documents sharing 1–8 terms.  Ids spread over [0, 1000] so
    they collide in small hash tables and set-iteration order depends on
    insertion order; ``equal`` pairs have the same length (the numpy
    form intersects from ``self`` only when neither operand is shorter).
    """
    shared = draw(st.sets(_term, min_size=1, max_size=8))
    a_keys = shared | draw(st.sets(_term, max_size=6))
    if draw(st.booleans()):
        extra = len(a_keys) - len(shared)
        b_keys = shared | draw(st.sets(
            _term.filter(lambda t: t not in a_keys),
            min_size=extra, max_size=extra,
        ))
    else:
        b_keys = shared | draw(st.sets(_term, max_size=6))
    return (
        {t: draw(_weight) for t in sorted(a_keys)},
        {t: draw(_weight) for t in sorted(b_keys)},
    )


def _frozen_as(weights, form):
    vec = SparseVector(weights)
    ids = vec.term_ids()
    ws = tuple(w for _t, w in vec.items())
    if form == "numpy":
        return kernels.NumpyFrozenVector(ids, ws, vec.norm_squared)
    return kernels.PyFrozenVector(ids, ws, vec.norm_squared)


#: Two documents whose shared-term products, summed in set-intersection
#: order (which follows the left operand), read 18.8 one way and
#: 18.799999999999997 the other.
_TIE_A = dict(zip((10, 52, 56, 60, 101, 154), (1.8, 2.7, 2.1, 2.8, 2.6, 3.0)))
_TIE_B = dict(zip((10, 52, 56, 60, 156, 199), (2.0, 0.6, 2.6, 2.9, 2.7, 1.8)))


def test_python_kernel_sum_ignores_operand_order():
    a = _frozen_as(_TIE_A, "python")
    b = _frozen_as(_TIE_B, "python")
    assert a.dot(b) == b.dot(a) == 18.8
    assert a.ext_jaccard(b) == b.ext_jaccard(a)
    assert a.sum_min(b) == b.sum_min(a)


@settings(max_examples=300, deadline=None)
@example(pair=(_TIE_A, _TIE_B), forms=("python", "python"))
@given(
    pair=_doc_pairs(),
    forms=st.sampled_from(
        [(f, g) for f in ("python", "numpy") for g in ("python", "numpy")]
        if kernels.numpy_available()
        else [("python", "python")]
    ),
)
def test_kernels_are_bitwise_symmetric(pair, forms):
    a = _frozen_as(pair[0], forms[0])
    b = _frozen_as(pair[1], forms[1])
    for name in ("dot", "sum_min", "sum_max", "ext_jaccard", "overlap_count"):
        assert getattr(a, name)(b) == getattr(b, name)(a), name


_SYMMETRY_TREES = {}


def _symmetry_tree(form):
    """``(backend, tree)`` whose object vectors are frozen in ``form``;
    ``mixed`` runs ``auto`` with a crossover of 3 terms, so short
    documents take the python form and longer ones the numpy form."""
    from unittest import mock

    from repro.index.iurtree import IURTree
    from repro.workloads import gn_like

    if form not in _SYMMETRY_TREES:
        backend = "auto" if form == "mixed" else form
        with kernels.use_backend(backend), mock.patch.object(
            kernels, "AUTO_NUMPY_MIN_TERMS", 3
        ):
            tree = IURTree.build(gn_like(n=40, seed=11))
            snap = tree.snapshot()
        kinds = {f.backend for f, o in zip(snap.obj_frozen, snap.is_obj) if o}
        assert kinds == ({"python", "numpy"} if form == "mixed" else {form})
        _SYMMETRY_TREES[form] = (backend, tree)
    return _SYMMETRY_TREES[form]


@settings(max_examples=30, deadline=None)
@given(
    form=st.sampled_from(_FORMS),
    measure=st.sampled_from(_MEASURES),
    alpha=st.sampled_from((0.0, 0.5, 1.0)),
)
def test_snapshot_exact_is_bitwise_symmetric(form, measure, alpha):
    from repro.text.similarity import make_measure

    backend, tree = _symmetry_tree(form)
    with kernels.use_backend(backend):
        snap = tree.snapshot()
        engine = snap.engine_for(tree, make_measure(measure), alpha, 0.0)
        objs = [s for s in range(snap.n_slots) if snap.is_obj[s]]
        for i, a in enumerate(objs):
            for b in objs[i + 1:]:
                assert engine._exact(a, b) == engine._exact(b, a), (a, b)


@settings(max_examples=200, deadline=None)
@given(
    weights=st.dictionaries(_term, _weight, min_size=1, max_size=12),
    backend=st.sampled_from(
        ("python", "numpy") if kernels.numpy_available() else ("python",)
    ),
    measure=st.sampled_from(_MEASURES),
)
def test_equal_documents_score_exactly_one(weights, backend, measure):
    # Bounds cap similarities at 1.0, so an equal pair must not round
    # above it: its dot has to equal the squared norm bit for bit.
    from repro.text.similarity import make_measure

    a, b = SparseVector(weights), SparseVector(dict(weights))
    with kernels.use_backend(backend):
        assert a.dot(b) == a.norm_squared
        assert make_measure(measure).similarity(a, b) == 1.0


@settings(max_examples=200, deadline=None)
@given(
    weights=st.dictionaries(_term, _weight, min_size=1, max_size=12),
    ulps=st.lists(st.integers(-3, 3), min_size=12, max_size=12),
    measure=st.sampled_from(_MEASURES),
)
@example(weights={0: 0.36}, ulps=[1] * 12, measure="extended_jaccard")
@example(weights={0: 0.36}, ulps=[1] * 12, measure="dice")
def test_near_equal_documents_never_score_above_one(weights, ulps, measure):
    # A copy nudged a few ulps per weight can make 2<u,v> round above
    # |u|^2 + |v|^2; the upper bounds return exactly 1.0 there, so the
    # score must not exceed it on either backend.
    from repro.text.similarity import make_measure

    nudged = {}
    for (t, w), steps in zip(sorted(weights.items()), ulps):
        for _ in range(abs(steps)):
            w = math.nextafter(w, math.inf if steps > 0 else 0.0)
        nudged[t] = w
    a, b = SparseVector(weights), SparseVector(nudged)
    backends = ("python", "numpy") if kernels.numpy_available() else ("python",)
    for backend in backends:
        with kernels.use_backend(backend):
            assert 0.0 <= make_measure(measure).similarity(a, b) <= 1.0


def test_group_text_dots_backends_agree():
    # The sketch build's call: one object's dots against every object
    # row of the snapshot's text matrix.
    from repro.index.iurtree import IURTree
    from repro.model.dataset import STDataset
    from repro.workloads import sample_queries

    from tests.conftest import random_corpus

    np = kernels._numpy()
    if np is None:
        pytest.skip("numpy unavailable")
    dataset = STDataset.from_corpus(random_corpus(120, seed=19))
    tm = IURTree.build(dataset).snapshot().text_matrix()
    query = sample_queries(dataset, 6, seed=3)[0].vector
    ids, ws = query.term_ids(), tuple(w for _, w in query.items())
    n = tm.n_obj_rows
    got_np = kernels.group_text_dots(tm.obj_postings, ids, ws, n, np)
    # The python path needs list-backed postings.
    py_postings = {
        tid: (list(rows), list(weights))
        for tid, (rows, weights) in tm.obj_postings.items()
    }
    got_py = kernels.group_text_dots(py_postings, ids, ws, n, None)
    assert (got_np is None) == (got_py is None)
    if got_np is not None:
        dots_np, over_np = got_np
        dots_py, over_py = got_py
        assert over_np.tolist() == list(over_py)
        for a, b in zip(dots_np.tolist(), dots_py):
            assert a == pytest.approx(b, abs=1e-12)
