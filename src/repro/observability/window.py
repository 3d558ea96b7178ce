"""Sliding-window aggregation primitives for streaming telemetry.

Three building blocks, all deterministic and allocation-light, used by
:mod:`repro.observability.live` (and the flight-recorder replay) to
turn a stream of per-frame samples into live rates and latency
percentiles:

* :class:`SlidingWindow` — the last ``capacity`` samples with O(1)
  push/evict and running sum (recomputed on eviction to avoid float
  drift), plus min/max/mean over the retained samples;
* :class:`Ewma` — an exponentially weighted moving average, the cheap
  "trend" signal next to the exact window;
* :class:`QuantileSketch` — a DDSketch-style streaming quantile sketch
  (logarithmic buckets with bounded *relative* error).

Nothing here looks at the wall clock; callers feed values in, which
keeps every aggregate a pure function of the sample stream (the
property the live-telemetry differential tests rely on).
"""

from __future__ import annotations

import math
from collections import deque

__all__ = [
    "SlidingWindow",
    "Ewma",
    "QuantileSketch",
]


class SlidingWindow:
    """The last ``capacity`` float samples, with running statistics."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("window capacity must be >= 1")
        self.capacity = capacity
        self._samples: deque[float] = deque(maxlen=capacity)

    def push(self, value: float) -> None:
        self._samples.append(float(value))

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def full(self) -> bool:
        return len(self._samples) == self.capacity

    def values(self) -> list[float]:
        return list(self._samples)

    def sum(self) -> float:
        # Recomputed rather than maintained incrementally: an O(n) sum
        # over <= capacity floats is cheap and never accumulates the
        # add/subtract drift of a running total.
        return float(sum(self._samples))

    def mean(self) -> float:
        if not self._samples:
            return 0.0
        return self.sum() / len(self._samples)

    def min(self) -> float:
        return min(self._samples) if self._samples else 0.0

    def max(self) -> float:
        return max(self._samples) if self._samples else 0.0

    def last(self) -> float:
        return self._samples[-1] if self._samples else 0.0

    def __repr__(self) -> str:
        return (
            f"SlidingWindow({len(self._samples)}/{self.capacity}, "
            f"mean={self.mean():.4g})"
        )


class Ewma:
    """Exponentially weighted moving average, seeded by the first sample."""

    def __init__(self, alpha: float = 0.2) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.alpha = alpha
        self._value: float | None = None

    def update(self, value: float) -> float:
        value = float(value)
        if self._value is None:
            self._value = value
        else:
            self._value += self.alpha * (value - self._value)
        return self._value

    @property
    def value(self) -> float:
        return self._value if self._value is not None else 0.0

    @property
    def initialized(self) -> bool:
        return self._value is not None


class QuantileSketch:
    """Deterministic streaming quantiles with bounded relative error.

    DDSketch's bucketing scheme: a positive sample ``x`` lands in bucket
    ``ceil(log_gamma(x))`` with ``gamma = (1 + a) / (1 - a)`` for
    relative accuracy ``a``; the reported quantile is the bucket's
    geometric midpoint, within ``a`` relative error of the true value.
    Values at or below :attr:`zero_threshold` share an exact zero
    bucket.
    """

    def __init__(
        self,
        relative_accuracy: float = 0.01,
        zero_threshold: float = 1e-12,
    ) -> None:
        if not 0.0 < relative_accuracy < 1.0:
            raise ValueError("relative_accuracy must be in (0, 1)")
        if zero_threshold < 0.0:
            raise ValueError("zero_threshold must be >= 0")
        self.relative_accuracy = relative_accuracy
        self.zero_threshold = zero_threshold
        self.gamma = (1.0 + relative_accuracy) / (1.0 - relative_accuracy)
        self._log_gamma = math.log(self.gamma)
        self._buckets: dict[int, int] = {}
        self.zero_count = 0
        self.count = 0
        self._min = math.inf
        self._max = -math.inf

    # -- recording -----------------------------------------------------------

    def add(self, value: float, count: int = 1) -> None:
        value = float(value)
        if count < 1:
            raise ValueError("count must be >= 1")
        if value < 0.0 or math.isnan(value) or math.isinf(value):
            raise ValueError(
                f"QuantileSketch accepts finite non-negative values, got {value!r}"
            )
        if value <= self.zero_threshold:
            self.zero_count += count
        else:
            key = math.ceil(math.log(value) / self._log_gamma)
            self._buckets[key] = self._buckets.get(key, 0) + count
        self.count += count
        self._min = min(self._min, value)
        self._max = max(self._max, value)

    # -- reading -------------------------------------------------------------

    @property
    def min(self) -> float:
        return self._min if self.count else 0.0

    @property
    def max(self) -> float:
        return self._max if self.count else 0.0

    def _bucket_value(self, key: int) -> float:
        # Geometric midpoint of (gamma^(key-1), gamma^key].
        return (self.gamma ** key + self.gamma ** (key - 1)) / 2.0

    def quantile(self, q: float) -> float | None:
        """The q-quantile estimate, or ``None`` for an empty sketch."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if self.count == 0:
            return None
        rank = max(1, math.ceil(q * self.count))
        cumulative = self.zero_count
        if rank <= cumulative:
            return 0.0
        for key in sorted(self._buckets):
            cumulative += self._buckets[key]
            if rank <= cumulative:
                return self._bucket_value(key)
        return self._max  # unreachable unless float dust; be safe

    def as_dict(self) -> dict:
        """JSON-ready summary (buckets keyed by stringified index)."""
        return {
            "relative_accuracy": self.relative_accuracy,
            "count": self.count,
            "zero_count": self.zero_count,
            "min": self.min,
            "max": self.max,
            "buckets": {str(k): v for k, v in sorted(self._buckets.items())},
        }

    def __repr__(self) -> str:
        return (
            f"QuantileSketch(n={self.count}, "
            f"buckets={len(self._buckets)}, a={self.relative_accuracy})"
        )
