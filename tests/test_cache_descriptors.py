"""Tests for object descriptors (paper section 2.3)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.descriptors import ObjectDescriptor

# Every slot a descriptor carries: its estimator state, then its object.
_SLOTS = (
    "window",
    "aging_interval",
    "_times",
    "_value",
    "_refreshed_at",
    "object_id",
    "size",
    "miss_penalty",
)


class TestReferenced:
    """``referenced`` is one-step construction of a referenced descriptor."""

    @given(
        object_id=st.integers(0, 10**6),
        size=st.integers(1, 10**9),
        penalty=st.floats(0.0, 1e6, allow_nan=False),
        now=st.floats(0.0, 1e9, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_construct_then_record(self, object_id, size, penalty, now):
        built = ObjectDescriptor.referenced(object_id, size, penalty, now)
        stepwise = ObjectDescriptor(object_id, size, penalty)
        stepwise.record_access(now)
        for slot in _SLOTS:
            assert getattr(built, slot) == getattr(stepwise, slot), slot
        assert type(built) is ObjectDescriptor
        # The window is the descriptor's own list, not shared state.
        built.record_access(now + 1.0)
        assert stepwise.reference_count == 1

    @pytest.mark.parametrize("size", [0, -5])
    def test_rejects_nonpositive_size(self, size):
        with pytest.raises(ValueError, match="size must be positive"):
            ObjectDescriptor.referenced(1, size, 0.0, 0.0)

    def test_rejects_negative_penalty(self):
        with pytest.raises(ValueError, match="miss penalty"):
            ObjectDescriptor.referenced(1, 10, -0.5, 0.0)
