"""Shared parity-gate and report helpers for the ``benchmarks/`` scripts.

Every ``BENCH_*.json`` producer used to carry its own copy of three
pieces of boilerplate: a parity gate that exits non-zero on any
divergence from a reference engine, a median-of-rounds QPS measurer,
and the report header block (provenance metadata plus the kernel
backend facts).  This module is the single home for all three, so a new
benchmark (``bench_approx.py`` being the first consumer) starts from
the same hard-gate discipline instead of re-deriving it.

Gates raise :class:`SystemExit` with a readable mismatch listing —
benchmarks are run as scripts and in CI, where a non-zero exit *is* the
failure signal.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Sequence

from ..perf import kernels
from .meta import bench_metadata

#: Wall time and memo-locality counters legitimately differ per engine,
#: so decision-parity comparisons exclude them.
TIMING_KEYS = frozenset({"elapsed_seconds", "cache_hits", "cache_misses"})


def decisions(result) -> Dict[str, float]:
    """A result's decision counters with the timing keys stripped.

    ``result`` is any object with ``stats.as_dict()`` (a
    :class:`~repro.core.rstknn.SearchResult`); the returned dict is what
    two engines claiming decision parity must agree on.
    """
    return {
        key: value
        for key, value in result.stats.as_dict().items()
        if key not in TIMING_KEYS
    }


def ids_gate(
    reference: Sequence[Sequence[int]],
    got: Sequence[Sequence[int]],
    label: str,
) -> None:
    """Exit non-zero unless every id list matches the reference exactly."""
    mismatches = [
        f"query {i}: {list(a)} != {list(b)}"
        for i, (a, b) in enumerate(zip(reference, got))
        if list(a) != list(b)
    ]
    if mismatches:
        raise SystemExit(
            f"parity FAILED ({label}):\n  " + "\n  ".join(mismatches)
        )


def results_gate(
    reference: Sequence,
    candidate: Sequence,
    label: str,
    check_decisions: bool = True,
) -> None:
    """Exit non-zero on any per-query id (and optionally decision-counter)
    divergence between two sequences of ``SearchResult``-shaped objects."""
    mismatches: List[str] = []
    for i, (a, b) in enumerate(zip(reference, candidate)):
        if a.ids != b.ids:
            mismatches.append(f"query {i}: ids {a.ids} != {b.ids}")
        elif check_decisions and decisions(a) != decisions(b):
            mismatches.append(
                f"query {i}: decisions {decisions(a)} != {decisions(b)}"
            )
    if mismatches:
        raise SystemExit(
            f"parity FAILED ({label}):\n  " + "\n  ".join(mismatches)
        )


def median_qps(
    run_round: Callable[[], float], n_queries: int, rounds: int
) -> float:
    """Median queries/sec over ``rounds`` timed executions of a workload.

    ``run_round`` executes the whole workload once and returns its wall
    time in seconds; the median (not mean) absorbs one-off scheduler
    noise without hiding consistent slowness.
    """
    rates = sorted(n_queries / run_round() for _ in range(rounds))
    return rates[rounds // 2]


def timed(fn: Callable[[], object]) -> Callable[[], float]:
    """Wrap a thunk into the ``run_round`` shape ``median_qps`` wants."""

    def run_round() -> float:
        started = time.perf_counter()
        fn()
        return time.perf_counter() - started

    return run_round


def report_header(
    n: int,
    quick: bool,
    timer=None,
    snapshot=None,
) -> Dict[str, object]:
    """The standard leading block of every ``BENCH_*.json`` report.

    Bundles :func:`~repro.bench.meta.bench_metadata` with the workload
    size, quick flag, and the kernel-backend facts every report
    repeats; pass the build/freeze ``timer``
    (:class:`~repro.obs.PhaseTimer`) and the frozen ``snapshot`` to
    include their standard sections too.  Callers ``update`` their
    specific sections on top.
    """
    header: Dict[str, object] = {
        "meta": bench_metadata(),
        "n": n,
        "quick": quick,
        "kernel_backend": kernels.backend_name(),
        "numpy_available": kernels.numpy_available(),
        "numpy_kernels_active": kernels.numpy_available()
        and kernels.backend_name() != "python",
    }
    if timer is not None:
        header["phases"] = timer.as_dict()
    if snapshot is not None:
        header["snapshot"] = snapshot.describe()
    return header


def latency_ms_of(samples_seconds: Sequence[float]) -> Dict[str, float]:
    """Nearest-rank latency percentiles of raw samples, in milliseconds."""
    from ..obs import latency_percentiles  # noqa: PLC0415 — keep obs lazy

    return {
        point: seconds * 1000.0
        for point, seconds in latency_percentiles(samples_seconds).items()
    }


__all__ = [
    "TIMING_KEYS",
    "decisions",
    "ids_gate",
    "results_gate",
    "median_qps",
    "timed",
    "report_header",
    "latency_ms_of",
]
