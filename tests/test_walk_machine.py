"""The request walk's step machine, driven on its own.

:class:`repro.schemes.base.Walk` is the one spelling of the paper's
step order; the simulator (``process_request``) and every serving node
drive it.  These tests drive it with a scripted driver and a spy scheme
that logs every step call, so the contract both drivers rely on is
pinned without either of them:

* lookups up to the first hit, one decide, then delivers in reverse;
* an unreachable position lands in ``skipped``, and the delivery below
  it gets ``came_from`` past it;
* an unreachable last position ends the walk with its error;
* a remote ``resp`` unwinds with its own ``decision`` and ``hit_index``;
* the simulator's drive is one call, never resumed;
* steps are looked up on the scheme instance, so an instance patch
  sees them;
* a walk is freed when its driver lets go: a served replay leaves no
  reference cycle for the garbage collector (an observer that held its
  walk made every request one, and the collector's passes a cost).
"""

from __future__ import annotations

import asyncio
import gc

import pytest

from repro.costs.model import LatencyCostModel
from repro.experiments.presets import build_architecture
from repro.schemes.base import StepObserver, Walk
from repro.serve import Cluster, LoadGenerator
from repro.sim.factory import build_scheme
from repro.topology.builder import build_chain
from repro.workload.generator import BoeingLikeTraceGenerator, WorkloadConfig

PATH = [10, 11, 12, 13, 14]


class SpyScheme:
    """Logs every step; hits where ``holds`` says, stores everywhere."""

    def __init__(self, holds=(), log=None):
        self.holds = set(holds)
        self.log = [] if log is None else log

    def lookup_step(self, node, object_id, size, now):
        self.log.append(("lookup", node))
        hit = node in self.holds
        return hit, None if hit else {"n": node}

    def decide_step(self, path, hit_index, reports, object_id, size, now):
        self.log.append(("decide", path[hit_index], [r["n"] for r in reports]))
        return {"cache_at": list(path[:hit_index])}

    def deliver_step(self, index, path, decision, object_id, size, now, *,
                     came_from=None):
        self.log.append(("deliver", path[index], came_from))
        return path[index] in decision["cache_at"], 1


class ScriptedDriver(StepObserver):
    """A driver that refuses to enter the positions in ``waits`` (each
    once), attaches itself as every position's step observer and records
    every hook the machine calls."""

    def __init__(self, scheme, waits=()):
        self.scheme = scheme
        self.waits = set(waits)
        self.hooks = []

    def enter(self, walk, index):
        if index in self.waits:
            self.waits.discard(index)
            return None
        self.hooks.append(("enter", index))
        walk.steps = (self,)
        return self.scheme

    def looked_up(self, walk, hit, report):
        self.hooks.append(("looked_up", hit))

    def failed_over(self, walk, index):
        self.hooks.append(("failed_over", index))

    def decided(self, walk):
        self.hooks.append(("decided",))

    def delivered(self, walk, stored, came_from):
        self.hooks.append(("delivered", stored, came_from))


def observed_walk(driver):
    """A walk ``driver`` drives, starting at a position it observes."""
    walk = Walk(PATH, 7, 100, 1.0, observer=driver)
    walk.steps = (driver,)
    return walk


def test_lookups_to_the_first_hit_one_decide_then_delivers_in_reverse():
    scheme = SpyScheme(holds={12})
    walk = Walk(PATH, object_id=7, size=100, now=1.0)
    assert walk.run(scheme) is True
    assert scheme.log == [
        ("lookup", 10),
        ("lookup", 11),
        ("lookup", 12),
        ("decide", 12, [10, 11]),
        ("deliver", 11, 2),
        ("deliver", 10, 1),
    ]
    assert walk.hit_index == 2
    assert walk.inserted == [11, 10]  # response order
    assert walk.evictions == 2
    assert walk.reports == [{"n": 10}, {"n": 11}]


def test_the_origin_attachment_serves_without_a_lookup():
    scheme = SpyScheme()
    walk = Walk(PATH, object_id=7, size=100, now=1.0)
    walk.run(scheme)
    assert [entry[0] for entry in scheme.log] == (
        ["lookup"] * 4 + ["decide"] + ["deliver"] * 4
    )
    assert walk.hit_index == len(PATH) - 1


def test_the_observer_sees_every_step_in_walk_order():
    scheme = SpyScheme(holds={12})
    driver = ScriptedDriver(scheme)
    walk = observed_walk(driver)
    assert walk.run(scheme) is True
    assert driver.hooks == [
        ("looked_up", False),
        ("enter", 1),
        ("looked_up", False),
        ("enter", 2),
        ("looked_up", True),
        ("decided",),
        ("delivered", True, 2),
        ("delivered", True, 1),
    ]


def test_an_unreachable_position_is_skipped_and_charged_below_it():
    scheme = SpyScheme(holds={14})
    driver = ScriptedDriver(scheme, waits={2})
    walk = observed_walk(driver)
    # The driver cannot enter position 2 without waiting: control
    # comes back to it there, with the walk parked at that position.
    assert walk.run(scheme) is False
    assert walk.index == 2
    walk.fail_over(ConnectionError("position 2 is down"))
    assert walk.skipped == [2]
    assert walk.index == 3
    assert ("failed_over", 2) in driver.hooks
    assert walk.run(driver.enter(walk, 3)) is True
    lookups = [entry[1] for entry in scheme.log if entry[0] == "lookup"]
    assert lookups == [10, 11, 13]
    delivers = [entry[1:] for entry in scheme.log if entry[0] == "deliver"]
    # Position 1's response physically came from position 3.
    assert delivers == [(13, 4), (11, 3), (10, 1)]
    assert walk.inserted == [13, 11, 10]


def test_an_unreachable_last_position_raises_and_does_not_fail_over():
    scheme = SpyScheme()
    driver = ScriptedDriver(scheme, waits={4})
    walk = observed_walk(driver)
    assert walk.run(scheme) is False
    assert walk.index == 4
    error = ConnectionError("origin attachment is down")
    with pytest.raises(ConnectionError) as raised:
        walk.fail_over(error)
    assert raised.value is error
    assert walk.skipped == []
    assert ("failed_over", 4) not in driver.hooks
    assert not any(entry[0] in ("decide", "deliver") for entry in scheme.log)


def test_a_remote_reply_unwinds_with_its_own_decision_and_hit_index():
    scheme = SpyScheme()
    driver = ScriptedDriver(scheme, waits={2})
    walk = observed_walk(driver)
    assert walk.run(scheme) is False
    decision = {"cache_at": [11]}
    reply = {"hit_index": 3, "decision": decision, "inserted": [12],
             "evictions": 5}
    assert walk.run(None, reply) is True
    # No decide here: the decision is the one the reply carries.
    assert [entry for entry in scheme.log if entry[0] != "lookup"] == [
        ("deliver", 11, 2),
        ("deliver", 10, 1),
    ]
    assert walk.hit_index == 3
    assert walk.decision is decision
    assert walk.inserted == [12, 11]
    assert walk.evictions == 5 + 2


def make_chain_scheme(name):
    network = build_chain([1.0] * 5)
    return build_scheme(name, LatencyCostModel(network, avg_size=100.0), 1500, 16)


@pytest.mark.parametrize("scheme_name", ["lru", "coordinated"])
def test_the_simulator_drive_is_one_call_never_resumed(
    monkeypatch, scheme_name
):
    runs = []
    run = Walk.run

    def counted(walk, scheme, reply=None):
        done = run(walk, scheme, reply)
        runs.append((walk.observer, reply, done))
        return done

    monkeypatch.setattr(Walk, "run", counted)
    scheme = make_chain_scheme(scheme_name)
    for now, object_id in enumerate([1, 2, 1, 3, 1, 2]):
        scheme.process_request(list(range(6)), object_id, 50, float(now))
    assert runs == [(None, None, True)] * 6


def test_steps_are_looked_up_on_the_scheme_instance():
    scheme = make_chain_scheme("coordinated")
    seen = []
    decide = scheme.decide_step

    def recording(path, hit_index, reports, *rest):
        seen.append((hit_index, len(reports)))
        return decide(path, hit_index, reports, *rest)

    scheme.decide_step = recording
    outcome = scheme.process_request(list(range(6)), 1, 50, 0.0)
    assert seen == [(outcome.hit_index, outcome.hit_index)]


def test_a_served_replay_leaves_no_reference_cycles():
    workload = WorkloadConfig(
        num_objects=80, num_servers=3, num_clients=8, num_requests=400,
        zipf_theta=0.8, seed=7,
    )
    generator = BoeingLikeTraceGenerator(workload)
    trace = generator.generate()
    arch = build_architecture("hierarchical", workload, seed=2)

    async def replay():
        cluster = Cluster.build(arch, generator.catalog, "coordinated")
        await cluster.start()
        loadgen = LoadGenerator(cluster, trace)
        gc.collect()
        gc.disable()
        try:
            report = await loadgen.run(mode="sequential")
            unreachable = gc.collect()
        finally:
            gc.enable()
        await cluster.stop()
        return report, unreachable

    report, unreachable = asyncio.run(replay())
    assert report.cache_served + report.origin_served == len(trace)
    assert unreachable == 0
