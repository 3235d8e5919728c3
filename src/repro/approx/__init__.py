"""Frozen k-distance sketches and the ``engine="approx"`` tier.

See :mod:`repro.approx.sketch` for the freeze-time kNNL floor builder
and :mod:`repro.approx.engine` for the sketch-filtered search engine.
"""

from .engine import ApproxEngine
from .sketch import DEFAULT_SKETCH_KMAX, KnnlSketch, build_sketch

__all__ = [
    "ApproxEngine",
    "KnnlSketch",
    "build_sketch",
    "DEFAULT_SKETCH_KMAX",
]
