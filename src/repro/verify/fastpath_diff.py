"""Differential oracle for the columnar fast path.

Runs the same (architecture, cost model, scheme) pair twice -- once over
a :class:`~repro.workload.trace.Trace` through the reference
per-request loop, once over the equivalent
:class:`~repro.workload.columnar.ColumnarTrace`, which a flattened kernel
serves where one exists for the configuration and the same reference
loop otherwise -- and asserts the two runs are indistinguishable:

* the full :class:`~repro.sim.engine.SimulationResult` (minus wall-clock
  timing) must be equal, summary percentiles included;
* the final cache state must match -- entry maps, used bytes, LRU
  recency order, NCL ``(key, id)`` order lists and key maps, descriptor
  miss penalties and the descriptors' frequency internals (window,
  cached estimate, refresh time);
* for the coordinated scheme, d-cache contents (descriptor identity and
  iteration order), LFU bucket structure with its ``_min_count``, or LRU
  recency, plus the piggyback protocol counters.

This is the shadow-replay gate the fast-path kernels are held to: not
"statistically close", bit-identical.  Imports the simulation engine, so
like :mod:`repro.verify.replay` it is not re-exported from
:mod:`repro.verify` -- import it as a submodule.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Callable, Sequence

from repro.schemes.base import CachingScheme
from repro.sim.architecture import Architecture
from repro.sim.engine import SimulationEngine, SimulationResult
from repro.workload.columnar import ColumnarTrace
from repro.workload.trace import Trace
from repro.workload.updates import UpdateEvent

# Wall-clock fields: legitimately different between the two runs.
_TIMING_FIELDS = ("duration_seconds", "requests_per_second")


def result_fingerprint(result: SimulationResult) -> dict:
    """The comparable content of a result (timing fields stripped)."""
    data = asdict(result)
    for field in _TIMING_FIELDS:
        data.pop(field)
    return data


def assert_results_identical(
    reference: SimulationResult, fast: SimulationResult, tag: str = ""
) -> None:
    ref_data = result_fingerprint(reference)
    fast_data = result_fingerprint(fast)
    if ref_data == fast_data:
        return
    diffs = [
        f"{key}: reference={ref_data[key]!r} fast={fast_data[key]!r}"
        for key in ref_data
        if ref_data[key] != fast_data[key]
    ]
    raise AssertionError(
        f"fast path diverged from reference {tag}:\n  " + "\n  ".join(diffs)
    )


def assert_cache_state_identical(
    reference: CachingScheme, fast: CachingScheme, tag: str = ""
) -> None:
    """Full post-run state comparison between two schemes.

    ``entries`` insertion order is compared only for caches without a
    separate recency structure: the LRU kernel stores entries in recency
    order by design (``entries`` is a keyed map there, never an order
    source), so for LRU caches the policy-bearing ``_recency`` order is
    what must -- and does -- match exactly.
    """
    assert type(reference) is type(fast), (
        f"{tag}: scheme types differ: {type(reference).__name__} vs "
        f"{type(fast).__name__}"
    )
    assert reference.capacity_overrides == fast.capacity_overrides, (
        tag, "capacity overrides",
    )
    ref_caches = reference.caches()
    fast_caches = fast.caches()
    assert set(ref_caches) == set(fast_caches), (
        f"{tag}: node sets differ: {sorted(ref_caches)} vs "
        f"{sorted(fast_caches)}"
    )
    for node in ref_caches:
        rc, fc = ref_caches[node], fast_caches[node]
        assert type(rc) is type(fc), (tag, node, type(rc), type(fc))
        assert rc.capacity_bytes == fc.capacity_bytes, (tag, node)
        assert rc._used == fc._used, (tag, node, rc._used, fc._used)
        ref_entries = {oid: e.size for oid, e in rc.entries.items()}
        fast_entries = {oid: e.size for oid, e in fc.entries.items()}
        assert ref_entries == fast_entries, (tag, node, "entries")
        if hasattr(rc, "_recency"):
            assert list(rc._recency) == list(fc._recency), (
                tag, node, "recency order",
            )
        else:
            assert list(rc.entries) == list(fc.entries), (
                tag, node, "entry order",
            )
        if hasattr(rc, "_order"):
            assert rc._order == fc._order, (tag, node, "ncl order")
            assert rc._keys == fc._keys, (tag, node, "ncl keys")
            for oid in rc.entries:
                rd = rc.entries[oid].descriptor
                fd = fc.entries[oid].descriptor
                _assert_descriptor_identical(rd, fd, tag, node, oid)
    if hasattr(reference, "_nodes"):
        assert set(reference._nodes) == set(fast._nodes), (tag, "node states")
        for node in reference._nodes:
            rdc = reference._nodes[node].dcache
            fdc = fast._nodes[node].dcache
            assert list(rdc.descriptors) == list(fdc.descriptors), (
                tag, node, "dcache order",
            )
            for oid in rdc.descriptors:
                _assert_descriptor_identical(
                    rdc.descriptors[oid], fdc.descriptors[oid], tag, node, oid
                )
            assert rdc.policy == fdc.policy, (tag, node, "dcache policy")
            if rdc.policy == "lfu":
                ro, fo = rdc._order, fdc._order
                assert ro._counts == fo._counts, (tag, node, "lfu counts")
                assert {
                    count: list(bucket) for count, bucket in ro._buckets.items()
                } == {
                    count: list(bucket) for count, bucket in fo._buckets.items()
                }, (tag, node, "lfu buckets")
                assert ro._min_count == fo._min_count, (
                    tag, node, "lfu min count",
                )
            else:
                assert rdc.eviction_order() == fdc.eviction_order(), (
                    tag, node, "dcache recency",
                )
    if hasattr(reference, "protocol_stats"):
        assert reference.protocol_stats == fast.protocol_stats, (
            f"{tag}: protocol stats differ: {reference.protocol_stats} vs "
            f"{fast.protocol_stats}"
        )


def _assert_descriptor_identical(rd, fd, tag, node, oid) -> None:
    assert rd.size == fd.size, (tag, node, oid, "size")
    assert rd.miss_penalty == fd.miss_penalty, (tag, node, oid, "penalty")
    assert rd._times == fd._times, (tag, node, oid, "window")
    assert rd._value == fd._value, (tag, node, oid)
    assert rd._refreshed_at == fd._refreshed_at, (tag, node, oid)


def shadow_compare(
    architecture: Architecture,
    cost_model,
    scheme_factory: Callable[[], CachingScheme],
    trace: Trace,
    columnar: ColumnarTrace,
    updates: Sequence[UpdateEvent] = (),
    tag: str = "",
    **run_kwargs,
) -> SimulationResult:
    """Run reference and fast paths and assert they are identical.

    ``scheme_factory`` must build a fresh scheme per call (each run needs
    its own state).  Returns the fast run's result on success; raises
    ``AssertionError`` with a field-level diff on any divergence.
    """
    ref_scheme = scheme_factory()
    fast_scheme = scheme_factory()
    reference = SimulationEngine(architecture, cost_model, ref_scheme).run(
        trace, updates=updates, **run_kwargs
    )
    fast = SimulationEngine(architecture, cost_model, fast_scheme).run(
        columnar, updates=updates, **run_kwargs
    )
    assert_results_identical(reference, fast, tag)
    assert_cache_state_identical(ref_scheme, fast_scheme, tag)
    return fast
