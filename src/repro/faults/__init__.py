"""Deterministic, seeded fault injection for the live serving layer.

``repro.faults`` makes the cluster's failure behavior testable: a
:class:`FaultPlan` scripts frame drops, delays, duplicates, corruption
and whole-node crashes/slow-downs; a :class:`FaultInjector` turns the
plan into per-hop decisions from one seeded RNG; and a
:class:`FaultyTransport` applies them above any real
:class:`~repro.serve.transport.Transport` -- so the very same plan runs
against the in-process oracle transport and against loopback TCP --
while the cluster hands the same injector to its nodes for the hops
they cross in memory.

The resilience machinery it exercises (per-RPC deadlines, retry with
backoff, per-upstream circuit breakers, and upstream failover in the
piggyback walk) lives in :mod:`repro.serve`; the chaos gate tying the
two together is ``tests/test_faults_chaos.py``.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "injector": (
        "DROP_HOLD_SECONDS", "FaultInjector", "FaultyTransport", "LinkDecision",
    ),
    "plan": ("NODE_FAULT_KINDS", "FaultPlan", "LinkRule", "NodeFault"),
})
