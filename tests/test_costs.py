"""Tests for the cost models (paper's generic c(u, v, O))."""

from __future__ import annotations

import pytest

from repro.costs.model import (
    BandwidthCostModel,
    HopCostModel,
    LatencyCostModel,
)
from repro.topology.builder import build_chain


@pytest.fixture
def chain():
    return build_chain([0.5, 1.5])


class TestLatencyCostModel:
    def test_scales_with_object_size(self, chain):
        model = LatencyCostModel(chain, avg_size=100.0)
        assert model.link_cost(0, 1, 100) == pytest.approx(0.5)
        assert model.link_cost(0, 1, 200) == pytest.approx(1.0)
        assert model.link_cost(0, 1, 50) == pytest.approx(0.25)

    def test_path_cost_sums_links(self, chain):
        model = LatencyCostModel(chain, avg_size=100.0)
        assert model.path_cost([0, 1, 2], 100) == pytest.approx(2.0)

    def test_trivial_path_is_free(self, chain):
        model = LatencyCostModel(chain, avg_size=100.0)
        assert model.path_cost([0], 100) == 0.0
        assert model.path_cost([], 100) == 0.0

    def test_rejects_nonpositive_avg_size(self, chain):
        with pytest.raises(ValueError):
            LatencyCostModel(chain, avg_size=0.0)

    def test_unknown_link_raises(self, chain):
        model = LatencyCostModel(chain, avg_size=100.0)
        with pytest.raises(KeyError):
            model.link_cost(0, 2, 100)

    @pytest.mark.parametrize(
        "u, v",
        [(0, 2), (2, 0), (1, 1), (7, 0), (0, 7), (-1, 0)],
        ids=["absent", "absent-reversed", "self", "unknown-u", "unknown-v",
             "negative-u"],
    )
    def test_miss_raises_link_delays_error(self, chain, u, v):
        """A miss on the delay map raises exactly Network.link_delay's."""
        model = LatencyCostModel(chain, avg_size=100.0)
        with pytest.raises(KeyError) as expected:
            chain.link_delay(u, v)
        with pytest.raises(KeyError) as raised:
            model.link_cost(u, v, 100)
        assert raised.value.args == expected.value.args


class _DoubledLatency(LatencyCostModel):
    """A subclass overriding ``link_cost``; records every link it prices."""

    def __init__(self, network, avg_size):
        super().__init__(network, avg_size)
        self.priced = []

    def link_cost(self, u, v, size):
        self.priced.append((u, v))
        return 2.0 * super().link_cost(u, v, size)


class TestLinkCostOverride:
    """Every path-level price goes through ``link_cost``, so overrides hold."""

    def test_path_cost_uses_override(self, chain):
        model = _DoubledLatency(chain, avg_size=100.0)
        assert model.path_cost([0, 1, 2], 100) == pytest.approx(4.0)
        assert model.priced == [(0, 1), (1, 2)]

    @pytest.mark.parametrize("scheme_name", ["coordinated", "adaptive"])
    def test_deliver_accumulator_uses_override(self, chain, scheme_name):
        from repro.sim.factory import build_scheme

        model = _DoubledLatency(chain, avg_size=100.0)
        scheme = build_scheme(scheme_name, model, 10_000, 8)
        path = [0, 1, 2]
        decision = {"cache_at": [], "gain": 0.0, "acc": 0.0}
        # Ordinary single-hop arrival at path[1] from path[2] ...
        scheme.deliver_step(1, path, decision, 7, 100, 0.0)
        assert decision["acc"] == pytest.approx(2 * 1.5)
        assert model.priced == [(1, 2)]
        # ... then a failover arrival at path[0] straight from path[2].
        scheme.deliver_step(0, path, decision, 7, 100, 0.0, came_from=2)
        assert decision["acc"] == pytest.approx(2 * 1.5 + 2 * (0.5 + 1.5))
        assert model.priced == [(1, 2), (0, 1), (1, 2)]


class TestHopCostModel:
    def test_unit_cost_per_link(self, chain):
        model = HopCostModel(chain)
        assert model.link_cost(0, 1, 12345) == 1.0
        assert model.path_cost([0, 1, 2], 7) == 2.0

    def test_validates_link(self, chain):
        with pytest.raises(KeyError):
            HopCostModel(chain).link_cost(0, 2, 1)


class TestBandwidthCostModel:
    def test_bytes_per_link(self, chain):
        model = BandwidthCostModel(chain)
        assert model.link_cost(0, 1, 500) == 500.0
        # byte x hops over the path
        assert model.path_cost([0, 1, 2], 500) == 1000.0
