"""Python-call budget of the reference walk, a perf gate host load cannot move.

Wall-clock gates swing with whatever else the machine runs; the number
of Python function calls a request costs does not.  This counts the
``call`` events ``sys.setprofile`` sees while :class:`SimulationEngine`
replays a fixed, small en-route trace through the coordinated scheme on
its reference loop (a materialized :class:`Trace`, so the columnar fast
path stays out of it), and holds the per-request figure under a
committed bound.

The bound is about 1.25x the value measured when the budget was set, so
only a regression that adds real per-hop or per-request calls trips it.
To re-measure after a deliberate change, run::

    PYTHONPATH=src python tests/test_call_budget.py

which prints the calls per request and the bound; set
``CALLS_PER_REQUEST_BOUND`` to about 1.25x the printed value.
"""

from __future__ import annotations

import sys
from dataclasses import replace

from repro.costs.model import LatencyCostModel
from repro.experiments.presets import SMALL_SCALE, build_architecture
from repro.sim.config import SimulationConfig
from repro.sim.engine import SimulationEngine
from repro.sim.factory import build_scheme
from repro.workload.generator import BoeingLikeTraceGenerator

# Measured at 66.9 calls per request (CPython 3.11); about 1.25x that.
# The walk before the per-hop call cuts measured 152.2 here.
CALLS_PER_REQUEST_BOUND = 84.0

_REQUESTS = 4_000


def calls_per_request() -> float:
    """Python calls per request of one reference-loop replay."""
    workload = replace(SMALL_SCALE.workload, num_requests=_REQUESTS, seed=7)
    generator = BoeingLikeTraceGenerator(workload)
    trace = generator.generate()
    catalog = generator.catalog
    architecture = build_architecture("en-route", workload, seed=4)
    cost_model = LatencyCostModel(architecture.network, catalog.mean_size)
    config = SimulationConfig()
    scheme = build_scheme(
        "coordinated",
        cost_model,
        config.capacity_bytes(catalog.total_bytes),
        config.dcache_entries(catalog.total_bytes, catalog.mean_size),
    )
    engine = SimulationEngine(architecture, cost_model, scheme)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        engine.run(trace)
    finally:
        sys.setprofile(previous)
    return calls / _REQUESTS


def test_reference_walk_stays_within_its_call_budget():
    measured = calls_per_request()
    assert measured <= CALLS_PER_REQUEST_BOUND, (
        f"{measured:.1f} Python calls per request, budget "
        f"{CALLS_PER_REQUEST_BOUND}: the reference walk gained calls"
    )


if __name__ == "__main__":
    value = calls_per_request()
    print(
        f"reference walk: {value:.1f} Python calls per request "
        f"(budget {CALLS_PER_REQUEST_BOUND})"
    )
    sys.exit(0 if value <= CALLS_PER_REQUEST_BOUND else 1)
