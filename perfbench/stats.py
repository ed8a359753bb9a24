"""Order statistics with the benchmark's sample-size rule."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

MIN_BEYOND = 10
"""A percentile is reported only when at least this many samples lie beyond it."""


class InsufficientSamples(ValueError):
    """Raised when a percentile has fewer than :data:`MIN_BEYOND` samples beyond it."""


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (``0 < q < 1``) of ``values``.

    Raises :class:`InsufficientSamples` unless ``MIN_BEYOND`` samples lie
    beyond the rank, so a tail percentile is never read off a handful of
    samples.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must lie in (0, 1), got {q!r}")
    rank = max(1, math.ceil(q * len(values)))
    beyond = len(values) - rank
    if beyond < MIN_BEYOND:
        raise InsufficientSamples(
            f"p{q * 100:g} of {len(values)} samples has {max(beyond, 0)} beyond it; "
            f"at least {MIN_BEYOND} are required")
    return sorted(values)[rank - 1]


def median(values: Sequence[float]) -> float:
    """Plain median (for per-op layer times, which carry no tail claim)."""
    return float(statistics.median(values))
