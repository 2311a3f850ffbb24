"""Sliding-window access-frequency estimation.

Paper section 3.2: for each object, up to ``K`` most recent reference
times are recorded and the access frequency is ``f(O) = K' / (t - t_K')``
where ``K' <= K`` is the number of recorded references and ``t_K'`` the
oldest of them.  ``K = 3`` in the paper's experiments.  To bound overhead,
the estimate is refreshed only when the object is referenced and otherwise
at reasonably large intervals (10 minutes in the paper) to reflect aging.

:class:`~repro.cache.descriptors.ObjectDescriptor` *is* an estimator (a
subclass adding size and miss penalty), so a descriptor and its
frequency state are one object.
"""

from __future__ import annotations

from typing import List

DEFAULT_WINDOW = 3
DEFAULT_AGING_INTERVAL = 600.0

# Windows shorter than this are treated as instantaneous: dividing by a
# subnormal elapsed time would overflow the estimate to infinity.
_MIN_ELAPSED = 1e-9


class SlidingWindowFrequencyEstimator:
    """Estimate request rate from the K most recent reference times.

    ``value(now)`` is cheap: it returns a cached estimate and only
    recomputes (to reflect aging) when at least ``aging_interval`` has
    passed since the last refresh.  A singleton reference with zero elapsed
    time falls back to one reference per aging interval, a conservative
    prior that avoids the division by zero in the paper's formula.

    The window is a plain list (oldest first) trimmed on append: for
    ``K = 3`` that is cheaper to create and to push than a bounded deque.
    """

    __slots__ = ("window", "aging_interval", "_times", "_value", "_refreshed_at")

    def __init__(
        self,
        window: int = DEFAULT_WINDOW,
        aging_interval: float = DEFAULT_AGING_INTERVAL,
    ) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        if aging_interval <= 0:
            raise ValueError("aging_interval must be positive")
        self.window = window
        self.aging_interval = aging_interval
        self._times: List[float] = []
        self._value = 0.0
        self._refreshed_at = float("-inf")

    @property
    def reference_count(self) -> int:
        """Number of reference times currently recorded (``K'``)."""
        return len(self._times)

    def record(self, now: float) -> float:
        """Record a reference at time ``now`` and refresh the estimate."""
        times = self._times
        if times:
            if now < times[-1]:
                raise ValueError("reference times must be non-decreasing")
            if len(times) == self.window:
                del times[0]
        times.append(now)
        elapsed = now - times[0]
        if elapsed >= _MIN_ELAPSED:
            value = len(times) / elapsed
        else:
            value = 1.0 / self.aging_interval
        self._value = value
        self._refreshed_at = now
        return value

    def value(self, now: float) -> float:
        """Current estimate; recomputed lazily at the aging interval."""
        if not self._times:
            return 0.0
        if now - self._refreshed_at >= self.aging_interval:
            return self._refresh(now)
        return self._value

    def peek(self) -> float:
        """Last computed estimate without any refresh."""
        return self._value

    def _refresh(self, now: float) -> float:
        elapsed = now - self._times[0]
        if elapsed >= _MIN_ELAPSED:
            self._value = len(self._times) / elapsed
        else:
            self._value = 1.0 / self.aging_interval
        self._refreshed_at = now
        return self._value
