"""Dev harness: exhaustive fast-vs-reference differential sweep.

Thin runner over :mod:`repro.verify.fastpath_diff` covering every scheme
on both architectures and all three exact cost models, with an update
stream.  Only latency costs on `lru`, `modulo` and `coordinated` reach a
kernel; the hop and bandwidth cases (and the other schemes) run the
engine's reference loop on both sides -- a `Trace` against its
`ColumnarTrace` -- and pin that the loop reads both the same way.  The
tier-1 test `tests/test_sim_columnar.py` runs a smaller version of the
same sweep; this script is the long-form local gate to run after
touching the kernels in `repro.sim.fastpath`.
"""

import sys

sys.path.insert(0, "src")

from repro.costs.model import BandwidthCostModel, HopCostModel, LatencyCostModel
from repro.sim.architecture import (
    build_enroute_architecture,
    build_hierarchical_architecture,
)
from repro.sim.factory import SCHEME_NAMES, build_scheme
from repro.verify.fastpath_diff import shadow_compare
from repro.workload.generator import BoeingLikeTraceGenerator, WorkloadConfig
from repro.workload.updates import generate_update_events


def run_all():
    cfg = WorkloadConfig(
        num_objects=600,
        num_requests=6000,
        num_clients=40,
        num_servers=6,
        seed=7,
    )
    gen = BoeingLikeTraceGenerator(cfg)
    trace = gen.generate()
    ctrace = gen.generate_columnar()
    catalog = gen.catalog
    updates = generate_update_events(
        600, duration=trace.duration, update_rate=2.0, seed=11
    )
    archs = {
        "hier": build_hierarchical_architecture(40, 6, seed=3),
        "enroute": build_enroute_architecture(40, 6, seed=3),
    }
    cost_builders = {
        "latency": lambda net: LatencyCostModel(net, catalog.mean_size),
        "hop": lambda net: HopCostModel(net),
        "bw": lambda net: BandwidthCostModel(net),
    }
    capacity = max(1, int(catalog.total_bytes * 0.01))
    failures = 0
    for arch_name, arch in archs.items():
        for cost_name, build_cost in cost_builders.items():
            if cost_name != "latency" and arch_name == "enroute":
                continue  # keep runtime sane; latency covers both archs
            cost = build_cost(arch.network)
            for scheme_name in SCHEME_NAMES:
                tag = f"{arch_name}/{cost_name}/{scheme_name}"
                try:
                    shadow_compare(
                        arch,
                        cost,
                        lambda: build_scheme(scheme_name, cost, capacity, 256),
                        trace,
                        ctrace,
                        updates=updates,
                        tag=tag,
                    )
                except AssertionError as exc:
                    failures += 1
                    print(f"FAIL {tag}: {exc}")
                    continue
                print(f"ok   {tag}")
    print("ALL OK" if failures == 0 else f"{failures} FAILURES")
    return failures


if __name__ == "__main__":
    sys.exit(1 if run_all() else 0)
