"""Object descriptors (cache-substrate home of the paper's meta information).

Paper section 2.3: every cache maintains meta information per object --
the object size, its access frequency (estimated from recent reference
timestamps) and its miss penalty with respect to the node.  Descriptors
live either attached to a cached copy in the main cache or standalone in
the node's d-cache, and migrate between the two as objects are inserted
and evicted.

A descriptor is one object: :class:`ObjectDescriptor` subclasses the
sliding-window estimator, so the reference window, the cached estimate
and its refresh time sit in the descriptor's own slots.
"""

from __future__ import annotations

from repro.cache.frequency import (
    DEFAULT_AGING_INTERVAL,
    DEFAULT_WINDOW,
    SlidingWindowFrequencyEstimator,
)


class ObjectDescriptor(SlidingWindowFrequencyEstimator):
    """Per-(node, object) metadata used in caching decisions."""

    __slots__ = ("object_id", "size", "miss_penalty")

    def __init__(
        self,
        object_id: int,
        size: int,
        miss_penalty: float = 0.0,
        window: int = DEFAULT_WINDOW,
        aging_interval: float = DEFAULT_AGING_INTERVAL,
    ) -> None:
        if size <= 0:
            raise ValueError("object size must be positive")
        if miss_penalty < 0:
            raise ValueError("miss penalty must be non-negative")
        super().__init__(window, aging_interval)
        self.object_id = object_id
        self.size = size
        self.miss_penalty = miss_penalty

    @classmethod
    def referenced(
        cls, object_id: int, size: int, miss_penalty: float, now: float
    ) -> "ObjectDescriptor":
        """A new descriptor with its first reference, at ``now``, recorded.

        Same state, slot for slot, as ``record_access(now)`` on a fresh
        descriptor with the default window and aging interval: a
        one-entry window with zero elapsed time, hence the estimator's
        one-reference-per-aging-interval prior.  Built in one step (no
        ``__init__`` chain), with the same size and penalty checks.
        """
        if size <= 0:
            raise ValueError("object size must be positive")
        if miss_penalty < 0:
            raise ValueError("miss penalty must be non-negative")
        descriptor = cls.__new__(cls)
        descriptor.window = DEFAULT_WINDOW
        descriptor.aging_interval = DEFAULT_AGING_INTERVAL
        descriptor._times = [now]
        descriptor._value = 1.0 / DEFAULT_AGING_INTERVAL
        descriptor._refreshed_at = now
        descriptor.object_id = object_id
        descriptor.size = size
        descriptor.miss_penalty = miss_penalty
        return descriptor

    #: Record one reference; returns the refreshed frequency.
    record_access = SlidingWindowFrequencyEstimator.record

    #: Current access-frequency estimate ``f(O)``.
    frequency = SlidingWindowFrequencyEstimator.value

    def cost_rate(self, now: float) -> float:
        """``f(O) * m(O)`` -- the cost loss of removing this object."""
        return self.value(now) * self.miss_penalty

    def normalized_cost_loss(self, now: float) -> float:
        """``NCL(O) = f(O) * m(O) / s(O)`` (paper section 2.1)."""
        return self.value(now) * self.miss_penalty / self.size

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ObjectDescriptor(id={self.object_id}, size={self.size}, "
            f"m={self.miss_penalty:.4g})"
        )
