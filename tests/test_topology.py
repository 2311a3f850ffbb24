"""Tests for the network model and topology generators."""

from __future__ import annotations

import pytest

from repro.topology.builder import build_chain, build_star
from repro.topology.graph import Link, Network, NodeKind
from repro.topology.tiers import TiersConfig, TiersTopologyGenerator
from repro.topology.tree import TreeConfig, build_tree_topology


class TestNetwork:
    def test_add_nodes_and_links(self):
        net = Network()
        a = net.add_node(NodeKind.MAN)
        b = net.add_node(NodeKind.WAN)
        net.add_link(a, b, 0.5)
        assert net.num_nodes == 2
        assert net.num_links == 1
        assert net.link_delay(a, b) == 0.5
        assert net.link_delay(b, a) == 0.5

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Link(1, 1, 0.5)

    def test_rejects_negative_delay(self):
        with pytest.raises(ValueError):
            Link(0, 1, -0.1)

    def test_rejects_duplicate_link(self):
        net = build_chain([1.0])
        with pytest.raises(ValueError):
            net.add_link(0, 1, 2.0)

    def test_rejects_unknown_node(self):
        net = Network()
        net.add_node(NodeKind.MAN)
        with pytest.raises(KeyError, match="unknown node 5"):
            net.add_link(0, 5, 1.0)
        with pytest.raises(KeyError, match="unknown node 3"):
            net.link_delay(3, 0)
        with pytest.raises(KeyError, match="unknown node -1"):
            net.link_delay(-1, 0)
        # A valid source with an out-of-range target has no such link.
        with pytest.raises(KeyError, match=r"no link \(0, 3\)"):
            net.link_delay(0, 3)

    def test_missing_link_raises(self):
        net = Network()
        net.add_node(NodeKind.MAN)
        net.add_node(NodeKind.MAN)
        with pytest.raises(KeyError, match=r"no link \(0, 1\)"):
            net.link_delay(0, 1)
        net.add_link(0, 1, 2.5)
        assert net.link_delay(0, 1) == net.link_delay(1, 0) == 2.5

    def test_kinds_and_levels(self):
        net = Network()
        n = net.add_node(NodeKind.TREE, level=2)
        assert net.kind(n) is NodeKind.TREE
        assert net.level(n) == 2
        assert net.nodes_of_kind(NodeKind.TREE) == [n]

    def test_connectivity(self):
        net = Network()
        a = net.add_node(NodeKind.MAN)
        b = net.add_node(NodeKind.MAN)
        assert not net.is_connected()
        net.add_link(a, b, 1.0)
        assert net.is_connected()

    def test_empty_network_is_connected(self):
        assert Network().is_connected()

    def test_links_iterates_each_once(self):
        net = build_chain([1.0, 2.0, 3.0])
        links = list(net.links())
        assert len(links) == 3
        assert {l.endpoints() for l in links} == {(0, 1), (1, 2), (2, 3)}

    def test_mean_delay_by_kind(self):
        net = Network()
        w1 = net.add_node(NodeKind.WAN)
        w2 = net.add_node(NodeKind.WAN)
        m1 = net.add_node(NodeKind.MAN)
        net.add_link(w1, w2, 0.8)  # WAN link
        net.add_link(w1, m1, 0.2)  # attachment link counts as MAN
        assert net.mean_delay([NodeKind.WAN]) == pytest.approx(0.8)
        assert net.mean_delay([NodeKind.MAN]) == pytest.approx(0.2)
        assert net.mean_delay() == pytest.approx(0.5)


class TestBuilders:
    def test_chain_shape(self):
        net = build_chain([1.0, 2.0])
        assert net.num_nodes == 3
        assert net.num_links == 2
        assert net.link_delay(1, 2) == 2.0

    def test_chain_requires_links(self):
        with pytest.raises(ValueError):
            build_chain([])

    def test_star_shape(self):
        net = build_star([1.0, 2.0, 3.0])
        assert net.num_nodes == 4
        assert net.degree(0) == 3
        assert all(net.degree(i) == 1 for i in range(1, 4))

    def test_star_requires_leaves(self):
        with pytest.raises(ValueError):
            build_star([])


class TestTiersGenerator:
    def test_table1_defaults(self):
        """Default config matches Table 1: 100 nodes, 173 links."""
        cfg = TiersConfig(seed=0)
        net = TiersTopologyGenerator(cfg).generate()
        assert net.num_nodes == 100
        assert len(net.nodes_of_kind(NodeKind.WAN)) == 50
        assert len(net.nodes_of_kind(NodeKind.MAN)) == 50
        assert net.num_links == 173
        assert net.is_connected()

    def test_wan_man_delay_ratio(self):
        """Mean WAN delay is ~8x mean MAN delay (Table 1)."""
        net = TiersTopologyGenerator(TiersConfig(seed=1)).generate()
        wan = net.mean_delay([NodeKind.WAN])
        man = net.mean_delay([NodeKind.MAN])
        assert wan == pytest.approx(0.146, rel=0.05)
        # Attachment links share the MAN delay scale, so allow slack.
        assert 4.0 < wan / man < 12.0

    def test_deterministic_by_seed(self):
        a = TiersTopologyGenerator(TiersConfig(seed=5)).generate()
        b = TiersTopologyGenerator(TiersConfig(seed=5)).generate()
        assert [(l.u, l.v, l.delay) for l in a.links()] == [
            (l.u, l.v, l.delay) for l in b.links()
        ]

    def test_different_seeds_differ(self):
        a = TiersTopologyGenerator(TiersConfig(seed=5)).generate()
        b = TiersTopologyGenerator(TiersConfig(seed=6)).generate()
        assert [(l.u, l.v) for l in a.links()] != [(l.u, l.v) for l in b.links()]

    def test_small_config(self):
        cfg = TiersConfig(
            wan_nodes=4, num_mans=2, man_nodes=3, wan_extra_links=1, man_extra_links=0
        )
        net = TiersTopologyGenerator(cfg).generate()
        assert net.num_nodes == 10
        assert net.is_connected()
        # 3 WAN tree + 1 extra + 2 * 2 MAN tree + 2 attachments
        assert net.num_links == 3 + 1 + 4 + 2

    def test_no_zero_delay_links(self):
        net = TiersTopologyGenerator(TiersConfig(seed=2)).generate()
        assert all(l.delay > 0 for l in net.links())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TiersConfig(wan_nodes=1)
        with pytest.raises(ValueError):
            TiersConfig(num_mans=0)
        with pytest.raises(ValueError):
            TiersConfig(wan_delay_mean=0)
        with pytest.raises(ValueError):
            TiersConfig(wan_extra_links=-1)


class TestTreeTopology:
    def test_paper_defaults(self):
        """Depth 4, fanout 3 -> 40 cache nodes + server node."""
        topo = build_tree_topology(TreeConfig())
        assert topo.config.num_cache_nodes == 40
        assert topo.network.num_nodes == 41
        assert len(topo.leaves) == 27
        assert topo.network.level(topo.root) == 3
        assert all(topo.network.level(l) == 0 for l in topo.leaves)
        assert topo.network.is_connected()

    def test_exponential_level_delays(self):
        cfg = TreeConfig(base_delay=0.008, growth_factor=5.0)
        topo = build_tree_topology(cfg)
        net = topo.network
        # Leaf -> parent link: g^0 * d.
        leaf = topo.leaves[0]
        parent = next(iter(net.neighbors(leaf)))[0]
        assert net.link_delay(leaf, parent) == pytest.approx(0.008)
        # Root -> server link: g^3 * d.
        assert net.link_delay(topo.root, topo.server_node) == pytest.approx(
            0.008 * 125
        )

    def test_depth_one_tree(self):
        topo = build_tree_topology(TreeConfig(depth=1, fanout=3))
        assert topo.leaves == [topo.root]
        assert topo.network.num_nodes == 2  # root + server

    def test_fanout_one_is_chain(self):
        topo = build_tree_topology(TreeConfig(depth=3, fanout=1))
        assert topo.config.num_cache_nodes == 3
        assert len(topo.leaves) == 1

    def test_without_server_node(self):
        topo = build_tree_topology(TreeConfig(include_server_node=False))
        assert topo.server_node is None
        assert topo.network.num_nodes == 40

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TreeConfig(depth=0)
        with pytest.raises(ValueError):
            TreeConfig(fanout=0)
        with pytest.raises(ValueError):
            TreeConfig(base_delay=0)
        with pytest.raises(ValueError):
            TreeConfig(growth_factor=0)
