"""Tests for the piggyback message records (paper section 2.3)."""

from __future__ import annotations

from repro.core.piggyback import is_candidate, node_report


class TestNodeReport:
    def test_candidate_requires_descriptor_and_cacheability(self):
        good = node_report(1, 2.0, 3.0, 0.5, has_descriptor=True)
        assert is_candidate(good)
        no_descriptor = node_report(1, 0.0, 0.0, None, has_descriptor=False)
        assert not is_candidate(no_descriptor)
        uncacheable = node_report(1, 2.0, 3.0, None, has_descriptor=True)
        assert not is_candidate(uncacheable)

    def test_zero_cost_loss_is_candidate(self):
        report = node_report(1, 2.0, 3.0, 0.0, has_descriptor=True)
        assert is_candidate(report)
