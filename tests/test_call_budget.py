"""Python-call budgets of the request walk, perf gates host load cannot move.

Wall-clock gates swing with whatever else the machine runs; the number
of Python function calls a request costs does not.  Each budget counts
the ``call`` events ``sys.setprofile`` sees per request and holds it
under a committed bound:

* the *reference* budget: :class:`SimulationEngine` replays a fixed,
  small en-route trace through the coordinated scheme on its reference
  loop (a :class:`Trace`, so the columnar fast path stays out of it);
* the *observed* budget: the same reference replay with an
  :class:`~repro.verify.auditor.Auditor`, an
  :class:`~repro.metrics.timeseries.IntervalMetricsCollector` and an
  :class:`~repro.obs.instruments.Instruments` registry attached -- the
  price of the observer fan-out;
* the *served* budget: a one-process :class:`~repro.serve.Cluster`
  replays a fixed hierarchical trace sequentially through the load
  generator, every hop in memory -- the node's walk driver, the frame
  codec of the client's ``get``/``resp`` and the event loop included.

Each bound is about 1.25x the value measured when the budget was set, so
only a regression that adds real per-hop or per-request calls trips it.
To re-measure after a deliberate change, run::

    PYTHONPATH=src python tests/test_call_budget.py

which prints each calls-per-request figure beside its bound; set
``CALLS_PER_REQUEST_BOUND`` / ``OBSERVED_CALLS_PER_REQUEST_BOUND`` /
``SERVED_CALLS_PER_REQUEST_BOUND`` to about 1.25x the printed values.
"""

from __future__ import annotations

import asyncio
import sys
from dataclasses import replace

from repro.costs.model import LatencyCostModel
from repro.experiments.presets import SMALL_SCALE, build_architecture
from repro.metrics.timeseries import IntervalMetricsCollector
from repro.obs.instruments import Instruments
from repro.obs.registry import StatRegistry
from repro.serve import Cluster, LoadGenerator
from repro.sim.config import SimulationConfig
from repro.sim.engine import SimulationEngine
from repro.sim.factory import build_scheme
from repro.verify.auditor import Auditor
from repro.workload.generator import BoeingLikeTraceGenerator

# Measured at 68.9 calls per request (CPython 3.11); the bound is about
# 1.25x the 66.9 it was set at.  The walk before the per-hop call cuts
# measured 152.2 here.
CALLS_PER_REQUEST_BOUND = 84.0

# Measured at 124.2 calls per request (CPython 3.11); the bound is about
# 1.25x the 133.3 measured before the walk's one step seam fed the
# registry.  The per-seam hooks before the one observer fan-out measured
# 132.8 here.
OBSERVED_CALLS_PER_REQUEST_BOUND = 167.0

# Measured at 113.5 calls per request (CPython 3.11); the bound is about
# 1.25x the 129.2 measured before the node's counters became a step
# observer.  The node walk before the one step machine measured 145.9.
SERVED_CALLS_PER_REQUEST_BOUND = 162.0

_REQUESTS = 4_000

_SERVED_REQUESTS = 2_000


class _CallCounter:
    """Counts the Python calls (profile ``call`` events) inside its block."""

    def __init__(self) -> None:
        self.calls = 0

    def _count(self, frame, event, arg) -> None:
        if event == "call":
            self.calls += 1

    def __enter__(self) -> "_CallCounter":
        self._previous = sys.getprofile()
        sys.setprofile(self._count)
        return self

    def __exit__(self, *exc) -> None:
        sys.setprofile(self._previous)


def calls_per_request(observed: bool = False) -> float:
    """Python calls per request of one reference-loop replay.

    ``observed`` attaches an auditor, an interval collector and a stat
    registry to the replay.
    """
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
    observers, instruments = (), None
    if observed:
        observers = (Auditor(), IntervalMetricsCollector(60.0))
        instruments = Instruments(registry=StatRegistry())
    with _CallCounter() as counter:
        engine.run(trace, observers=observers, instruments=instruments)
    return counter.calls / _REQUESTS


def observed_calls_per_request() -> float:
    return calls_per_request(observed=True)


def served_calls_per_request() -> float:
    """Python calls per request of one sequential in-process replay."""
    workload = replace(
        SMALL_SCALE.workload, num_requests=_SERVED_REQUESTS, seed=7
    )
    generator = BoeingLikeTraceGenerator(workload)
    trace = generator.generate()
    architecture = build_architecture("hierarchical", workload, seed=7)

    async def replay() -> int:
        cluster = Cluster.build(architecture, generator.catalog, "coordinated")
        await cluster.start()
        loadgen = LoadGenerator(cluster, trace)
        with _CallCounter() as counter:
            await loadgen.run(mode="sequential")
        await cluster.stop()
        return counter.calls

    return asyncio.run(replay()) / _SERVED_REQUESTS


def test_reference_walk_stays_within_its_call_budget():
    measured = calls_per_request()
    assert measured <= CALLS_PER_REQUEST_BOUND, (
        f"{measured:.1f} Python calls per request, budget "
        f"{CALLS_PER_REQUEST_BOUND}: the reference walk gained calls"
    )


def test_observed_reference_walk_stays_within_its_call_budget():
    measured = observed_calls_per_request()
    assert measured <= OBSERVED_CALLS_PER_REQUEST_BOUND, (
        f"{measured:.1f} Python calls per request, budget "
        f"{OBSERVED_CALLS_PER_REQUEST_BOUND}: the observer fan-out gained "
        f"calls"
    )


def test_served_walk_stays_within_its_call_budget():
    measured = served_calls_per_request()
    assert measured <= SERVED_CALLS_PER_REQUEST_BOUND, (
        f"{measured:.1f} Python calls per request, budget "
        f"{SERVED_CALLS_PER_REQUEST_BOUND}: the served walk gained calls"
    )


if __name__ == "__main__":
    within = True
    for name, measure, bound in (
        ("reference walk", calls_per_request, CALLS_PER_REQUEST_BOUND),
        (
            "observed reference walk",
            observed_calls_per_request,
            OBSERVED_CALLS_PER_REQUEST_BOUND,
        ),
        ("served walk", served_calls_per_request, SERVED_CALLS_PER_REQUEST_BOUND),
    ):
        value = measure()
        within = within and value <= bound
        print(f"{name}: {value:.1f} Python calls per request (budget {bound})")
    sys.exit(0 if within else 1)
