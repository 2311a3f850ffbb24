"""Tests for the piggyback message records (paper section 2.3)."""

from __future__ import annotations

from repro.core.piggyback import NodeReport


class TestNodeReport:
    def test_candidate_requires_descriptor_and_cacheability(self):
        good = NodeReport(1, 2.0, 3.0, 0.5, has_descriptor=True)
        assert good.is_candidate()
        no_descriptor = NodeReport(1, 0.0, 0.0, None, has_descriptor=False)
        assert not no_descriptor.is_candidate()
        uncacheable = NodeReport(1, 2.0, 3.0, None, has_descriptor=True)
        assert not uncacheable.is_candidate()

    def test_zero_cost_loss_is_candidate(self):
        report = NodeReport(1, 2.0, 3.0, 0.0, has_descriptor=True)
        assert report.is_candidate()
