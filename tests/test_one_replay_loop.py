"""Every simulator replay runs through ``SimulationEngine.run``.

The shadow replay of an audited run must replay what the primary run
replayed: the same trace, the same update stream, and a fresh coherency
policy of the same configuration.  These tests audit runs with writes
beside reads -- per-object in-band updates, a polled channel, group-
targeted updates -- through both audited fronts (``execute_point`` and
``audited_run``) and require zero ``shadow-replay`` violations, then pin
which loop ``repro sim`` hands each run to: the coordinated kernel for a
plain run, the engine's reference loop for audited, timed and
coherency-accounted ones.
"""

from __future__ import annotations

import functools

import pytest

from repro.cli import main
from repro.coherency import CoherencyConfig
from repro.coherency.policy import build_policy
from repro.core.coordinated import CoordinatedScheme
from repro.costs.model import LatencyCostModel
from repro.experiments.presets import build_architecture
from repro.experiments.runner import GridTask, execute_point
from repro.sim import fastpath
from repro.sim.config import SimulationConfig
from repro.sim.factory import build_scheme
from repro.verify.auditor import AuditConfig
from repro.verify.replay import audited_run
from repro.verify.selftest import _HiddenStateMutant
from repro.workload.updates import (
    generate_group_update_events,
    generate_update_events,
)

_AUDIT = AuditConfig(
    audit_every=250,
    shadow_replay=True,
    shadow_replay_sample_every=7,
    strict=False,
)

# case -> coherency config (None: the engine's implicit in-band policy).
_COHERENCY = {
    "inband-updates": None,
    "channel-polled": CoherencyConfig(mode="channel", poll_interval=2.0),
    "grouped-updates": CoherencyConfig(mode="inband", group_count=8),
}


@pytest.fixture
def setup(tiny_workload, tiny_trace):
    trace, catalog = tiny_trace
    architecture = build_architecture(
        "en-route", tiny_workload, seed=tiny_workload.seed
    )
    return architecture, trace, catalog


def _updates(coherency, catalog, trace):
    if coherency is not None and coherency.grouped:
        groups = coherency.build_groups(catalog.num_objects)
        return generate_group_update_events(
            groups, trace.duration, update_rate=1.0, seed=5
        )
    return generate_update_events(
        catalog.num_objects, trace.duration, update_rate=3.0, seed=5
    )


class TestShadowReplaySeesTheRunsUpdates:
    @pytest.mark.parametrize("scheme", ["lru", "coordinated"])
    @pytest.mark.parametrize("case", list(_COHERENCY))
    def test_execute_point(self, setup, scheme, case):
        architecture, trace, catalog = setup
        coherency = _COHERENCY[case]
        task = GridTask(
            scheme=scheme, config=SimulationConfig(relative_cache_size=0.05)
        )
        _, record = execute_point(
            architecture,
            trace,
            catalog,
            task,
            audit=_AUDIT,
            updates=_updates(coherency, catalog, trace),
            coherency=coherency,
        )
        assert record.audit_checks > 0
        assert record.audit_violations == ()

    @pytest.mark.parametrize("case", list(_COHERENCY))
    def test_audited_run(self, setup, case):
        architecture, trace, catalog = setup
        coherency = _COHERENCY[case]
        cost_model = LatencyCostModel(architecture.network, catalog.mean_size)
        capacity = max(1, int(0.05 * catalog.total_bytes))
        result, report = audited_run(
            architecture,
            cost_model,
            lambda: build_scheme("coordinated", cost_model, capacity, 64),
            trace,
            config=_AUDIT,
            updates=_updates(coherency, catalog, trace),
            coherency=(
                functools.partial(build_policy, coherency, catalog.num_objects)
                if coherency is not None
                else None
            ),
        )
        # The update stream really invalidated copies mid-run.
        assert result.copies_invalidated > 0
        assert report.checks_run["shadow-replay"] > 0
        assert report.violations == ()

    def test_hidden_state_still_caught_beside_writes(self, setup):
        """A clean shadow is not a blind one: nondeterminism still fires."""
        architecture, trace, catalog = setup
        coherency = _COHERENCY["channel-polled"]
        cost_model = LatencyCostModel(architecture.network, catalog.mean_size)
        capacity = max(1, int(0.03 * catalog.total_bytes))
        _, report = audited_run(
            architecture,
            cost_model,
            lambda: _HiddenStateMutant(cost_model, capacity),
            trace,
            config=_AUDIT,
            updates=_updates(coherency, catalog, trace),
            coherency=functools.partial(
                build_policy, coherency, catalog.num_objects
            ),
        )
        assert {v.check for v in report.violations} == {"shadow-replay"}


class TestReproSimDispatch:
    """`repro sim` hands the engine columns; the run picks the loop."""

    @pytest.mark.parametrize(
        "flags, expected",
        [
            ((), "kernel"),
            (("--audit",), "reference"),
            (("--timers",), "reference"),
            (("--coherency", "inband", "--update-rate", "0.5"), "reference"),
        ],
        ids=["plain", "audit", "timers", "coherency"],
    )
    def test_loop_per_configuration(self, monkeypatch, capsys, flags, expected):
        served = []
        for loop in ("_run_coordinated", "_run_lru_family"):
            def spy(*args, _loop=getattr(fastpath, loop)):
                served.append("kernel")
                return _loop(*args)

            monkeypatch.setattr(fastpath, loop, spy)
        reference = CoordinatedScheme.process_request

        def counted(self, *args):
            served.append("reference")
            return reference(self, *args)

        monkeypatch.setattr(CoordinatedScheme, "process_request", counted)
        code = main(
            [
                "sim", "--arch", "hierarchical", "--schemes", "coordinated",
                "--scale", "small", "--size", "0.05", *flags,
            ]
        )
        assert code == 0, capsys.readouterr().out
        assert set(served) == {expected}
