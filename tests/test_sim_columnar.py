"""Columnar fast path: bit-exactness gate, fallbacks, and streaming memory.

The batched kernels in :mod:`repro.sim.fastpath` are held to the same
contract as the reference per-request loop: not statistically close,
*identical* -- results, percentiles, final cache and d-cache state, and
protocol counters.  These tests run the shadow-compare oracle
(:mod:`repro.verify.fastpath_diff`) over every registered scheme on both
architectures with an update stream, then pin the fallback rules (audit
and instruments force the reference loop, with unchanged results) and
the O(chunk) memory guarantee of the streaming generator.

``scripts/_diff_fastpath.py`` is the long-form local version of the same
sweep (all three cost models, larger trace).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.costs.model import BandwidthCostModel, HopCostModel, LatencyCostModel
from repro.metrics.timeseries import IntervalMetricsCollector
from repro.obs.instruments import Instruments
from repro.obs.probe import Probe
from repro.obs.registry import StatRegistry
from repro.sim.architecture import (
    build_enroute_architecture,
    build_hierarchical_architecture,
)
from repro.sim import fastpath
from repro.sim.engine import SimulationEngine
from repro.sim.factory import SCHEME_NAMES, build_scheme
from repro.verify.auditor import AuditConfig, Auditor
from repro.verify.fastpath_diff import result_fingerprint, shadow_compare
from repro.workload.columnar import ColumnarTrace
from repro.workload.generator import BoeingLikeTraceGenerator, WorkloadConfig
from repro.workload.updates import generate_update_events

_NUM_OBJECTS = 300
_NUM_CLIENTS = 24
_NUM_SERVERS = 5


@pytest.fixture(scope="module")
def workload():
    cfg = WorkloadConfig(
        num_objects=_NUM_OBJECTS,
        num_requests=2_500,
        num_clients=_NUM_CLIENTS,
        num_servers=_NUM_SERVERS,
        zipf_theta=0.8,
        seed=7,
    )
    generator = BoeingLikeTraceGenerator(cfg)
    trace = generator.generate()
    columnar = generator.generate_columnar()
    updates = generate_update_events(
        _NUM_OBJECTS, duration=trace.duration, update_rate=2.0, seed=11
    )
    return generator, trace, columnar, updates


@pytest.fixture(scope="module")
def architectures():
    return {
        "hier": build_hierarchical_architecture(
            _NUM_CLIENTS, _NUM_SERVERS, seed=3
        ),
        "enroute": build_enroute_architecture(_NUM_CLIENTS, _NUM_SERVERS, seed=3),
    }


def _capacity(catalog) -> int:
    return max(1, int(catalog.total_bytes * 0.02))


class _ScaledLatency(LatencyCostModel):
    """Overrides ``link_cost`` (twice the latency): never eligible for a
    kernel, and the reference loop must price every hop through it."""

    def link_cost(self, u: int, v: int, size: int) -> float:
        return 2.0 * super().link_cost(u, v, size)


def _case(scheme, expected, cost=LatencyCostModel, observer=False,
          interval=False, **keywords):
    return scheme, expected, cost, observer, interval, keywords


# configuration -> the loop that must serve the columnar run ("reference":
# neither kernel fires and the engine's reference loop reads the columns).
_DISPATCH = {
    "coordinated": _case("coordinated", "coordinated"),
    "lru": _case("lru", "lru"),
    "modulo": _case("modulo", "lru"),
    "hop/coordinated": _case("coordinated", "reference", cost=HopCostModel),
    "hop/lru": _case("lru", "reference", cost=HopCostModel),
    "bandwidth/coordinated": _case(
        "coordinated", "reference", cost=BandwidthCostModel
    ),
    "bandwidth/lru": _case("lru", "reference", cost=BandwidthCostModel),
    "latency-subclass/coordinated": _case(
        "coordinated", "reference", cost=_ScaledLatency
    ),
    "latency-subclass/modulo": _case(
        "modulo", "reference", cost=_ScaledLatency
    ),
    "dcache-lru": _case("coordinated", "reference", dcache_policy="lru"),
    "ncl-heap": _case("coordinated", "reference", ncl_structure="heap"),
    "placement-observer": _case("coordinated", "reference", observer=True),
    "interval-collector": _case("coordinated", "reference", interval=True),
}


class TestBitExactness:
    """Fast path vs reference loop: identical everything."""

    @pytest.mark.parametrize("arch_name", ["hier", "enroute"])
    @pytest.mark.parametrize("name", sorted(SCHEME_NAMES))
    def test_all_schemes_both_architectures(
        self, workload, architectures, arch_name, name
    ):
        generator, trace, columnar, updates = workload
        arch = architectures[arch_name]
        cost = LatencyCostModel(arch.network, generator.catalog.mean_size)
        capacity = _capacity(generator.catalog)
        shadow_compare(
            arch,
            cost,
            lambda: build_scheme(name, cost, capacity, 64),
            trace,
            columnar,
            updates=updates,
            tag=f"{arch_name}/{name}",
        )

    def test_hop_cost_model(self, workload, architectures):
        """Non-latency cost models take the reference loop on columns."""
        generator, trace, columnar, updates = workload
        arch = architectures["hier"]
        cost = HopCostModel(arch.network)
        capacity = _capacity(generator.catalog)
        shadow_compare(
            arch,
            cost,
            lambda: build_scheme("coordinated", cost, capacity, 64),
            trace,
            columnar,
            updates=updates,
            tag="hier/hop/coordinated",
        )

    @pytest.mark.parametrize("name", ["adaptive", "costaware"])
    def test_approximate_schemes_take_generic_loop(
        self, workload, architectures, name
    ):
        """The flattened coordinated kernel is gated on the *exact* type.

        The approximate-placement subclasses (greedy, single-copy) must
        take the engine's reference loop, which runs their real step
        methods -- that is what keeps them bit-exact by construction.
        Pin the dispatch precondition here so a future ``isinstance``
        relaxation of the kernel gate is caught.
        """
        from repro.core.coordinated import CoordinatedScheme

        generator, _, _, _ = workload
        arch = architectures["hier"]
        cost = LatencyCostModel(arch.network, generator.catalog.mean_size)
        scheme = build_scheme(name, cost, _capacity(generator.catalog), 64)
        assert isinstance(scheme, CoordinatedScheme)
        assert type(scheme) is not CoordinatedScheme

    @pytest.mark.parametrize("name", ["adaptive", "costaware"])
    def test_provisioned_new_schemes_bit_exact(
        self, workload, architectures, name
    ):
        """Heterogeneous capacities (the sizing sweep) stay bit-exact."""
        from repro.sim.architecture import level_capacity_overrides

        generator, trace, columnar, updates = workload
        arch = architectures["hier"]
        cost = LatencyCostModel(arch.network, generator.catalog.mean_size)
        capacity = _capacity(generator.catalog)
        overrides = level_capacity_overrides(
            arch.network, capacity, {0: 2.0, 1: 0.5}
        )
        shadow_compare(
            arch,
            cost,
            lambda: build_scheme(
                name, cost, capacity, 64, capacity_overrides=overrides
            ),
            trace,
            columnar,
            updates=updates,
            tag=f"hier/provisioned/{name}",
        )

    @pytest.mark.parametrize("case", list(_DISPATCH))
    def test_dispatch(self, workload, architectures, monkeypatch, case):
        """Which loop serves which configuration -- and bit-exactly.

        The kernels serve exactly one configuration (``LatencyCostModel``
        itself, LFU d-cache, ``list`` NCL, nothing observing); everything
        else must reach the engine's reference loop, not a kernel that no
        longer knows the variant.
        """
        name, expected, cost_type, observed, collected, keywords = _DISPATCH[case]
        generator, trace, columnar, updates = workload
        arch = architectures["hier"]
        if issubclass(cost_type, LatencyCostModel):
            cost = cost_type(arch.network, generator.catalog.mean_size)
        else:
            cost = cost_type(arch.network)
        capacity = _capacity(generator.catalog)

        def factory():
            scheme = build_scheme(name, cost, capacity, 64, **keywords)
            if observed:
                scheme.placement_observer = lambda problem, solution: None
            return scheme

        served = []
        for label, loop in (
            ("coordinated", "_run_coordinated"),
            ("lru", "_run_lru_family"),
        ):
            def spy(*args, _label=label, _loop=getattr(fastpath, loop)):
                served.append(_label)
                return _loop(*args)

            monkeypatch.setattr(fastpath, loop, spy)
        run_kwargs = (
            {"observers": [IntervalMetricsCollector(60.0)]}
            if collected
            else {}
        )
        shadow_compare(
            arch, cost, factory, trace, columnar,
            updates=updates, tag=case, **run_kwargs,
        )
        assert served == ([] if expected == "reference" else [expected])

    def test_columnar_trace_matches_materialized_twin(self, workload):
        generator, trace, columnar, _ = workload
        assert len(columnar) == len(trace)
        twin = ColumnarTrace.from_trace(trace)
        assert list(twin.times) == list(columnar.times)
        assert list(twin.client_ids) == list(columnar.client_ids)
        assert list(twin.object_ids) == list(columnar.object_ids)
        assert list(twin.server_ids) == list(columnar.server_ids)
        assert list(twin.sizes) == list(columnar.sizes)


class TestFallbackPaths:
    """Audit and instruments force the reference loop -- results unchanged."""

    def _run(self, workload, architectures, trace, **kwargs):
        generator = workload[0]
        arch = architectures["hier"]
        cost = LatencyCostModel(arch.network, generator.catalog.mean_size)
        scheme = build_scheme(
            "coordinated", cost, _capacity(generator.catalog), 64
        )
        engine = SimulationEngine(arch, cost, scheme)
        return engine.run(trace, updates=workload[3], **kwargs)

    def test_audited_columnar_run_matches_reference(
        self, workload, architectures
    ):
        plain = self._run(workload, architectures, workload[1])
        audited = self._run(
            workload,
            architectures,
            workload[2],
            observers=[Auditor(AuditConfig(audit_every=250))],
        )
        plain_data = result_fingerprint(plain)
        audited_data = result_fingerprint(audited)
        # The audited run carries its (clean) audit report; everything
        # else -- summary, percentiles, counters -- must be unchanged.
        report = audited_data.pop("audit")
        plain_data.pop("audit")
        assert report["violations"] == ()
        assert audited_data == plain_data

    def test_instrumented_columnar_run_matches_reference(
        self, workload, architectures
    ):
        plain = self._run(workload, architectures, workload[1])
        events = []
        instruments = Instruments(
            probe=Probe(events.append),
            registry=StatRegistry(),
            snapshot_every=500,
        )
        instrumented = self._run(
            workload, architectures, workload[2], instruments=instruments
        )
        assert instrumented.summary == plain.summary
        assert instrumented.node_stats is not None
        assert events


class TestUnknownIds:
    """An id the architecture lacks fails before the first request."""

    @pytest.mark.parametrize("scheme_name", ["lru", "coordinated"])
    @pytest.mark.parametrize("column", ["client_ids", "server_ids"])
    def test_unknown_id_in_the_last_block(
        self, workload, architectures, scheme_name, column
    ):
        catalog = workload[0].catalog
        arch = architectures["hier"]
        # Past two full blocks, so the bad id sits in the last block.
        rows = 2 * fastpath._BLOCK + 100
        index = np.arange(rows, dtype=np.int64)
        objects = index % _NUM_OBJECTS
        columns = {
            "times": index * 0.25,
            "client_ids": index % _NUM_CLIENTS,
            "object_ids": objects,
            "server_ids": catalog.servers[objects],
            "sizes": catalog.sizes[objects],
        }
        columns[column][-1] = 10_000
        cost = LatencyCostModel(arch.network, catalog.mean_size)
        scheme = build_scheme(scheme_name, cost, _capacity(catalog), 64)
        engine = SimulationEngine(arch, cost, scheme)
        with pytest.raises(KeyError) as raised:
            engine.run(ColumnarTrace(**columns))
        assert raised.value.args == (10_000,)
        assert scheme._caches == {}
        assert getattr(scheme, "_nodes", {}) == {}


    def test_a_far_id_is_refused_before_a_table_is_sized_by_it(
        self, workload, architectures
    ):
        """The id lookups are sized by the architecture: a stray id of
        10**7 in the last block costs no 80 MB table before the
        KeyError."""
        import tracemalloc

        catalog = workload[0].catalog
        arch = architectures["hier"]
        rows = 2 * fastpath._BLOCK + 100
        index = np.arange(rows, dtype=np.int64)
        client_ids = index % _NUM_CLIENTS
        client_ids[-1] = 10**7
        objects = index % _NUM_OBJECTS
        trace = ColumnarTrace(
            times=index * 0.25,
            client_ids=client_ids,
            object_ids=objects,
            server_ids=catalog.servers[objects],
            sizes=catalog.sizes[objects],
        )
        cost = LatencyCostModel(arch.network, catalog.mean_size)
        engine = SimulationEngine(
            arch, cost, build_scheme("lru", cost, _capacity(catalog), 64)
        )
        tracemalloc.start()
        try:
            with pytest.raises(KeyError) as raised:
                engine.run(trace)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert raised.value.args == (10**7,)
        assert peak <= 1 << 20


class TestPrepare:
    """The kernels' set-up pass: one read of the trace, paths numbered in
    (client node, server node) order."""

    def _engine(self, workload, arch):
        catalog = workload[0].catalog
        cost = LatencyCostModel(arch.network, catalog.mean_size)
        return SimulationEngine(
            arch, cost, build_scheme("lru", cost, _capacity(catalog), 64)
        )

    def test_reads_the_trace_once(self, workload, architectures):
        """The pass sees the trace only as one run of row blocks: a
        stand-in with no whole columns serves it."""
        columnar = workload[2]

        class BlocksOnly:
            def __init__(self):
                self.reads = []

            def iter_chunks(self, chunk_records):
                for block in columnar.iter_chunks(chunk_records):
                    self.reads.append(len(block))
                    yield block

            def split_warmup(self, fraction):
                return columnar.split_warmup(fraction)

        trace = BlocksOnly()
        fastpath._prepare(
            self._engine(workload, architectures["hier"]), trace, ()
        )
        assert sum(trace.reads) == len(columnar)

    @pytest.mark.parametrize("arch_name", ["hier", "enroute"])
    def test_path_numbering(self, workload, architectures, arch_name):
        arch = architectures[arch_name]
        columnar = workload[2]
        prep = fastpath._prepare(self._engine(workload, arch), columnar, ())
        pairs = [
            (arch.client_nodes[c], arch.server_nodes[s])
            for c, s in zip(
                columnar.client_ids.tolist(), columnar.server_ids.tolist()
            )
        ]
        ordered = sorted(set(pairs))
        assert prep.paths == [
            arch.routing.request_path(c, s) for c, s in ordered
        ]
        number = {pair: i for i, pair in enumerate(ordered)}
        assert fastpath._path_ids(prep, columnar) == [number[p] for p in pairs]


class TestStreamingMemory:
    """stream() holds O(chunk) state, never the full trace."""

    def test_chunks_bounded_and_concatenate_to_full_trace(self):
        cfg = WorkloadConfig(
            num_objects=120,
            num_requests=10_000,
            num_clients=8,
            num_servers=4,
            seed=5,
        )
        chunk_records = 512
        chunks = []
        for chunk in BoeingLikeTraceGenerator(cfg).stream(chunk_records):
            # Each yielded chunk is a self-contained ColumnarTrace no
            # larger than the requested window -- the generator's live
            # state is one chunk of draws plus the locality tail.
            assert isinstance(chunk, ColumnarTrace)
            assert 1 <= len(chunk) <= chunk_records
            chunks.append(chunk)
        assert sum(len(c) for c in chunks) == cfg.num_requests
        whole = ColumnarTrace.concat(chunks)
        assert len(whole) == cfg.num_requests

    def test_stream_invariant_to_chunk_size(self):
        cfg = WorkloadConfig(
            num_objects=60,
            num_requests=3_000,
            num_clients=6,
            num_servers=3,
            seed=9,
        )
        small = ColumnarTrace.concat(
            list(BoeingLikeTraceGenerator(cfg).stream(chunk_records=137))
        )
        large = ColumnarTrace.concat(
            list(BoeingLikeTraceGenerator(cfg).stream(chunk_records=2_048))
        )
        assert list(small.times) == list(large.times)
        assert list(small.client_ids) == list(large.client_ids)
        assert list(small.object_ids) == list(large.object_ids)

    def test_iter_chunks_views_share_memory(self, workload):
        _, _, columnar, _ = workload
        total = 0
        for view in columnar.iter_chunks(700):
            # Zero-copy contract: chunk columns are views into the parent
            # arrays, so chunked consumption allocates nothing per chunk.
            assert view.times.base is not None
            total += len(view)
        assert total == len(columnar)


class TestGeneratorSeedStability:
    """The diurnal dead-draw fix: no RNG burned, columnar twin identical."""

    def test_generate_columnar_is_bit_identical_twin(self):
        cfg = WorkloadConfig(
            num_objects=90,
            num_requests=2_000,
            num_clients=10,
            num_servers=4,
            diurnal_amplitude=0.6,
            diurnal_period=600.0,
            seed=21,
        )
        trace = BoeingLikeTraceGenerator(cfg).generate()
        columnar = BoeingLikeTraceGenerator(cfg).generate_columnar()
        twin = ColumnarTrace.from_trace(trace)
        assert list(twin.times) == list(columnar.times)
        assert list(twin.client_ids) == list(columnar.client_ids)
        assert list(twin.object_ids) == list(columnar.object_ids)

    def test_diurnal_draw_stream_golden(self):
        """Pin the post-fix RNG stream of a diurnal trace.

        The pre-fix generator drew (and discarded) a homogeneous
        exponential block before the thinning draws, shifting the client
        column and every draw after it.  These golden values re-derive
        the expected stream independently, in the fixed draw order the
        generator documents: permutation, Zipf ranks, thinning times,
        then clients.
        """
        import numpy as np

        from repro.workload.zipf import ZipfSampler

        cfg = WorkloadConfig(
            num_objects=40,
            num_requests=500,
            num_clients=7,
            num_servers=3,
            diurnal_amplitude=0.5,
            diurnal_period=300.0,
            seed=13,
        )
        trace = BoeingLikeTraceGenerator(cfg).generate()

        rng = np.random.default_rng(cfg.seed + 1)
        rank_to_object = rng.permutation(cfg.num_objects)
        ranks = ZipfSampler(cfg.num_objects, cfg.zipf_theta).sample(
            cfg.num_requests, rng
        )
        expected_ids = rank_to_object[ranks]
        peak = cfg.request_rate * (1 + cfg.diurnal_amplitude)
        accepted, total, t = [], 0, 0.0
        while total < cfg.num_requests:
            batch = max(1024, cfg.num_requests)
            gaps = rng.exponential(1.0 / peak, size=batch)
            candidates = t + np.cumsum(gaps)
            t = float(candidates[-1])
            intensity = cfg.request_rate * (
                1
                + cfg.diurnal_amplitude
                * np.sin(2 * np.pi * candidates / cfg.diurnal_period)
            )
            keep = candidates[rng.random(batch) < intensity / peak]
            accepted.append(keep)
            total += len(keep)
        expected_times = np.concatenate(accepted)[: cfg.num_requests]
        expected_clients = rng.integers(cfg.num_clients, size=cfg.num_requests)

        assert [r.object_id for r in trace] == [int(i) for i in expected_ids]
        assert [r.time for r in trace] == [float(x) for x in expected_times]
        assert [r.client_id for r in trace] == [int(c) for c in expected_clients]
