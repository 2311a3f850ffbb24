"""Coherency flags across `repro sim` / `serve` / `loadgen`.

The CLI is where a nonsense configuration must die with a clear
message and exit code 2 -- before any socket is bound or any trace is
generated.  `CoherencyConfig` is the shared validator, so its own
contract is pinned here too.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.coherency import CoherencyConfig


class TestCoherencyConfig:
    def test_defaults(self):
        config = CoherencyConfig()
        assert config.mode == "inband"
        assert not config.grouped

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown coherency mode"):
            CoherencyConfig(mode="gossip")

    def test_negative_poll_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            CoherencyConfig(mode="channel", poll_interval=-1.0)

    def test_inband_poll_rejected(self):
        with pytest.raises(ValueError, match="only applies to channel"):
            CoherencyConfig(mode="inband", poll_interval=2.0)

    def test_group_count_must_be_positive(self):
        with pytest.raises(ValueError, match="group_count"):
            CoherencyConfig(group_count=0)

    def test_negative_skew_rejected(self):
        with pytest.raises(ValueError, match="group_skew"):
            CoherencyConfig(group_skew=-0.1)

    def test_round_trip(self):
        config = CoherencyConfig(
            mode="channel", poll_interval=2.5, group_count=8,
            group_skew=1.1, group_seed=3,
        )
        assert CoherencyConfig.from_dict(config.to_dict()) == config

    def test_build_groups(self):
        per_object = CoherencyConfig(mode="channel").build_groups(10)
        assert per_object.group_count == 10
        grouped = CoherencyConfig(
            mode="channel", group_count=4
        ).build_groups(10)
        assert grouped.group_count == 4


class TestSimFlags:
    def test_group_flags_require_coherency(self, capsys):
        code = main(["sim", "--schemes", "lru", "--group-count", "4"])
        assert code == 2
        assert "require --coherency" in capsys.readouterr().err

    def test_poll_flag_requires_coherency(self, capsys):
        code = main(
            ["sim", "--schemes", "lru", "--channel-poll-interval", "5"]
        )
        assert code == 2
        assert "require --coherency" in capsys.readouterr().err

    def test_coherency_requires_updates(self, capsys):
        code = main(["sim", "--schemes", "lru", "--coherency", "channel"])
        assert code == 2
        assert "measures nothing" in capsys.readouterr().err

    def test_inband_rejects_poll_interval(self, capsys):
        code = main(
            [
                "sim", "--schemes", "lru", "--coherency", "inband",
                "--channel-poll-interval", "5", "--update-rate", "0.5",
            ]
        )
        assert code == 2
        assert "only applies to channel" in capsys.readouterr().err

    def test_sim_saves_coherency_accounting(self, capsys, tmp_path):
        out = tmp_path / "points.json"
        code = main(
            [
                "sim", "--arch", "hierarchical", "--schemes", "lru",
                "--scale", "small", "--size", "0.05",
                "--coherency", "channel", "--channel-poll-interval", "20",
                "--group-count", "10", "--update-rate", "0.5",
                "--save", str(out),
            ]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "via channel" in stdout
        assert "coherency[channel]" in stdout
        document = json.loads(out.read_text())
        (point,) = document["points"]
        stats = point["coherency"]
        assert stats["mode"] == "channel"
        assert stats["events_published"] > 0
        assert stats["polls"] > 0

    def test_inband_run_prints_inv_bytes(self, capsys):
        code = main(
            [
                "sim", "--arch", "hierarchical", "--schemes", "lru",
                "--scale", "small", "--size", "0.05",
                "--coherency", "inband", "--update-rate", "0.5",
            ]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "via inband" in stdout
        assert "coherency[inband]" in stdout


class TestServeFlags:
    def test_channel_rejects_poll_interval(self, capsys):
        code = main(
            [
                "serve", "--coherency", "channel",
                "--channel-poll-interval", "5",
            ]
        )
        assert code == 2
        assert "simulator knob" in capsys.readouterr().err

    def test_channel_rejects_shards(self, capsys):
        code = main(["serve", "--coherency", "channel", "--shards", "2"])
        assert code == 2
        assert "broker lives in the serve process" in capsys.readouterr().err

    def test_inband_is_served_sharded(self, monkeypatch, tmp_path):
        """In-band mode has no broker: nothing differs on the workers,
        the manifest records the mode for the load generator."""
        import signal
        import threading

        import repro.serve.shard

        class StubFleet:
            metrics_addresses: dict = {}

            def __init__(self, arch, catalog, scheme, num_shards, **_):
                self.plan = repro.serve.shard.ShardPlan.compute(
                    arch, num_shards
                )

            def start(self):
                return {node: ("127.0.0.1", 1) for node in self.plan.assignment}

            def stop(self):
                return {}

        monkeypatch.setattr(repro.serve.shard, "ShardedCluster", StubFleet)
        monkeypatch.setattr(threading.Event, "wait", lambda self: True)
        monkeypatch.setattr(signal, "signal", lambda *args: None)
        manifest = tmp_path / "cluster.json"
        code = main(
            [
                "serve", "--coherency", "inband", "--shards", "2",
                "--manifest", str(manifest),
            ]
        )
        assert code == 0
        document = json.loads(manifest.read_text())
        assert document["coherency"]["mode"] == "inband"
        assert document["num_shards"] == 2


def write_manifest(tmp_path, coherency=None, channel=None):
    document = {
        "scale": "small",
        "seed": 0,
        "theta": None,
        "arch": "hierarchical",
        "scheme": "lru",
        "warmup_fraction": 0.5,
        "nodes": {},
        "coherency": coherency,
    }
    if channel is not None:
        document["channel"] = channel
    path = tmp_path / "cluster.json"
    path.write_text(json.dumps(document))
    return str(path)


class TestLoadgenFlags:
    def test_group_flags_require_coherency(self, capsys, tmp_path):
        manifest = write_manifest(tmp_path)
        code = main(
            ["loadgen", "--manifest", manifest, "--group-count", "4"]
        )
        assert code == 2
        assert "require --coherency" in capsys.readouterr().err

    def test_channel_needs_channel_server(self, capsys, tmp_path):
        manifest = write_manifest(tmp_path)
        code = main(
            [
                "loadgen", "--manifest", manifest,
                "--coherency", "channel", "--mode", "sequential",
                "--update-rate", "0.5",
            ]
        )
        assert code == 2
        assert "restart serve with" in capsys.readouterr().err

    def test_flags_must_agree_with_manifest(self, capsys, tmp_path):
        manifest = write_manifest(
            tmp_path,
            coherency=CoherencyConfig(
                mode="inband", group_count=4
            ).to_dict(),
        )
        code = main(
            [
                "loadgen", "--manifest", manifest,
                "--coherency", "inband", "--group-count", "8",
                "--mode", "sequential", "--update-rate", "0.5",
            ]
        )
        assert code == 2
        assert "disagree with the serve manifest" in capsys.readouterr().err

    def test_updates_need_trace_time(self, capsys, tmp_path):
        manifest = write_manifest(tmp_path)
        code = main(
            [
                "loadgen", "--manifest", manifest,
                "--coherency", "inband", "--update-rate", "0.5",
                "--mode", "closed",
            ]
        )
        assert code == 2
        assert "--mode sequential or open" in capsys.readouterr().err
