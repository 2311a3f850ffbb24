"""Workload inputs: a fixed object population, ordered by ``--seed``.

The program only ever sees the generated trace, architecture and update
stream -- never the seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional

import numpy as np

from bench.spec import (
    POPULATION_SEED,
    RELATIVE_CACHE_SIZE,
    SCHEME,
    SEGMENTS,
    SHUFFLE_BLOCK,
    TOPOLOGY_SEED,
    UPDATE_SHARE,
    WorkloadSpec,
)
from repro.costs.model import LatencyCostModel
from repro.experiments.presets import STANDARD_SCALE, build_architecture
from repro.sim.architecture import Architecture
from repro.sim.config import SimulationConfig
from repro.sim.engine import SimulationEngine
from repro.sim.factory import build_scheme
from repro.workload.catalog import ObjectCatalog
from repro.workload.columnar import ColumnarTrace
from repro.workload.generator import BoeingLikeTraceGenerator, WorkloadConfig
from repro.workload.trace import Trace
from repro.workload.updates import UpdateEvent, generate_update_events


@dataclass
class Inputs:
    """Everything one workload run feeds the program."""

    spec: WorkloadSpec
    segment: int  # requests per segment; the trace holds SEGMENTS + 1
    columnar: ColumnarTrace
    trace: Optional[Trace]  # reference representation (None if columnar)
    architecture: Architecture
    catalog: ObjectCatalog
    config: SimulationConfig
    cost_model: LatencyCostModel
    updates: List[UpdateEvent]

    @property
    def total(self) -> int:
        return len(self.columnar)

    def new_scheme(self):
        """The scheme exactly as ``Cluster.build`` derives it."""
        catalog = self.catalog
        return build_scheme(
            SCHEME,
            self.cost_model,
            self.config.capacity_bytes(catalog.total_bytes),
            self.config.dcache_entries(catalog.total_bytes, catalog.mean_size),
        )

    def new_engine(self, scheme=None, warmup: Optional[int] = None,
                   total: Optional[int] = None) -> SimulationEngine:
        """A fresh engine whose measured window starts after ``warmup``
        requests of a ``total``-request trace (default: one segment of
        the whole trace)."""
        warmup = self.segment if warmup is None else warmup
        total = self.total if total is None else total
        return SimulationEngine(
            self.architecture,
            self.cost_model,
            scheme if scheme is not None else self.new_scheme(),
            # +0.5 keeps int(total * fraction) on `warmup` whatever the
            # float rounding of the division.
            warmup_fraction=(warmup + 0.5) / total,
        )


def arrival_order(total: int, segment: int, seed: int) -> np.ndarray:
    """Row order of the trace: a seeded shuffle inside every block of
    ``SHUFFLE_BLOCK`` consecutive requests; blocks start afresh at each
    segment.

    Every segment keeps its multiset of requests, so the measured window
    asks for the same bytes under every seed and only the cache
    histories differ.
    """
    position = np.arange(total)
    blocks_per_segment = -(-segment // SHUFFLE_BLOCK)
    block = (
        position // segment * blocks_per_segment
        + position % segment // SHUFFLE_BLOCK
    )
    # Whole part: the block, which stays where it is.  Fraction: the
    # seeded rank inside it.
    keys = block + np.random.default_rng(seed).random(total)
    return np.argsort(keys, kind="stable")


def workload_config(total: int) -> WorkloadConfig:
    """The base workload at ``total`` requests, population seed fixed."""
    return replace(
        STANDARD_SCALE.workload, num_requests=total, seed=POPULATION_SEED
    )


def build_inputs(spec: WorkloadSpec, seed: int, segment: int) -> Inputs:
    total = segment * (SEGMENTS + 1)
    workload = workload_config(total)
    generator = BoeingLikeTraceGenerator(workload)
    base = generator.generate_columnar()
    order = arrival_order(total, segment, seed)
    columnar = ColumnarTrace(
        times=base.times,
        client_ids=base.client_ids[order],
        object_ids=base.object_ids[order],
        server_ids=base.server_ids[order],
        sizes=base.sizes[order],
    )
    architecture = build_architecture(spec.arch, workload, seed=TOPOLOGY_SEED)
    catalog = generator.catalog
    updates: List[UpdateEvent] = []
    if spec.updates:
        end = float(columnar.times[-1])
        updates = [
            event
            for event in generate_update_events(
                workload.num_objects,
                duration=end,
                update_rate=UPDATE_SHARE * workload.request_rate,
                seed=seed + 1_000_003,
            )
            if event.time <= end
        ]
    return Inputs(
        spec=spec,
        segment=segment,
        columnar=columnar,
        trace=None if spec.columnar else columnar.to_trace(),
        architecture=architecture,
        catalog=catalog,
        config=SimulationConfig(relative_cache_size=RELATIVE_CACHE_SIZE),
        cost_model=LatencyCostModel(architecture.network, catalog.mean_size),
        updates=updates,
    )
