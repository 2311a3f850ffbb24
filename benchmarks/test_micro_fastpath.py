"""Micro-benchmark: the columnar fast path must actually be fast.

The batched kernels in :mod:`repro.sim.fastpath` exist for one reason --
throughput -- and they buy it under a bit-exactness contract (identical
results to the reference loop; :mod:`tests.test_sim_columnar` and
``scripts/_diff_fastpath.py`` hold them to it).  This gate catches the
silent failure mode the tests cannot: an edit that keeps the kernels
correct but quietly drops them back to per-request speed, e.g. by
breaking an eligibility check so ``run_columnar`` declines every run and
the engine replays it through its reference loop.

The floor is deliberately conservative (2x, against measured ~4-9x on
the gated schemes) so shared-box timing wobble does not flake the gate;
the measured ratio is ``sim.fastpath.speedup_vs_ref`` of
``python3 -m bench`` (``BENCHMARK.json``).

Timing is interleaved min-of-N, same as the probe-overhead gate:
alternate reference and fast replays so drift hits both equally.
"""

from __future__ import annotations

import time

import pytest

from repro.costs.model import LatencyCostModel
from repro.sim.architecture import build_hierarchical_architecture
from repro.sim.config import SimulationConfig
from repro.sim.engine import SimulationEngine
from repro.sim.factory import build_scheme
from repro.workload.generator import BoeingLikeTraceGenerator, WorkloadConfig

ROUNDS = 5
MIN_SPEEDUP = 2.0


def _setup():
    workload = WorkloadConfig(
        num_objects=200,
        num_servers=5,
        num_clients=20,
        num_requests=8_000,
        seed=5,
    )
    generator = BoeingLikeTraceGenerator(workload)
    trace = generator.generate()
    columnar = generator.generate_columnar()
    arch = build_hierarchical_architecture(
        workload.num_clients, workload.num_servers, seed=0
    )
    catalog = generator.catalog
    cost = LatencyCostModel(arch.network, catalog.mean_size)
    config = SimulationConfig(relative_cache_size=0.02)
    capacity = config.capacity_bytes(catalog.total_bytes)
    dentries = config.dcache_entries(catalog.total_bytes, catalog.mean_size)
    return arch, trace, columnar, cost, capacity, dentries


@pytest.mark.parametrize("scheme_name", ["lru", "coordinated"])
def test_micro_fastpath_speedup(benchmark, scheme_name):
    arch, trace, columnar, cost, capacity, dentries = _setup()

    def replay(input_trace):
        scheme = build_scheme(scheme_name, cost, capacity, dentries)
        engine = SimulationEngine(arch, cost, scheme, warmup_fraction=0.5)
        started = time.perf_counter()
        result = engine.run(input_trace)
        return time.perf_counter() - started, result.summary

    def measure():
        replay(columnar)  # warm-up (page cache, allocator)
        ref_times, fast_times = [], []
        for _ in range(ROUNDS):
            seconds, ref_summary = replay(trace)
            ref_times.append(seconds)
            seconds, fast_summary = replay(columnar)
            fast_times.append(seconds)
            assert fast_summary == ref_summary  # bit-identical metrics
        return min(ref_times), min(fast_times)

    def measure_with_retry():
        best = None
        for _ in range(3):
            ref, fast = measure()
            speedup = ref / fast
            if best is None or speedup > best[2]:
                best = (ref, fast, speedup)
            if speedup >= MIN_SPEEDUP:
                break
        return best

    ref, fast, speedup = benchmark.pedantic(
        measure_with_retry, rounds=1, iterations=1
    )
    print(
        f"\n{scheme_name}: reference {ref * 1e3:.1f} ms, "
        f"fast {fast * 1e3:.1f} ms ({speedup:.2f}x)"
    )
    assert speedup >= MIN_SPEEDUP
