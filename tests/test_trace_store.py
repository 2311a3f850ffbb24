"""The one request store: ``Trace`` is a view over one ``ColumnarTrace``.

Pins the store's contract: ``to_trace`` and record slices share the
columns instead of building records, the records view behaves as a
read-only sequence, the per-request readers (the engine's reference
loop, the columnar kernels and the load generator) build no record, the
kernels' working memory does not grow with the trace, and a row costs 24
bytes: int32 ids and sizes whenever the values fit, else int64.

The memory bounds are also a CI gate that host load cannot move; run::

    PYTHONPATH=src python tests/test_trace_store.py

to print the measured ``to_trace`` peak, the kernels' peak growth, the
store's bytes per row and the generation peak per row beside their
bounds.
"""

from __future__ import annotations

import asyncio
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from repro.coherency import CoherencyConfig
from repro.coherency.policy import InbandCoherency, build_policy
from repro.costs.model import LatencyCostModel
from repro.experiments.presets import SMALL_SCALE, build_architecture
from repro.serve import Cluster, LoadGenerator
from repro.sim import fastpath
from repro.sim.config import SimulationConfig
from repro.sim.engine import SimulationEngine
from repro.sim.factory import build_scheme
from repro.workload.catalog import ObjectCatalog
from repro.workload.generator import BoeingLikeTraceGenerator
from repro.workload.scenarios import inject_flash_crowd, inject_scan
from repro.verify.fastpath_diff import shadow_compare
from repro.workload.trace import (
    ColumnarTrace,
    Trace,
    TraceRecord,
    read_trace_csv,
    write_trace_csv,
)
from repro.workload.updates import generate_update_events

# ``to_trace`` of a 1M-row trace allocates a wrapper and a view, never a
# row: its tracemalloc peak stays under this many bytes.
TO_TRACE_PEAK_BOUND = 64 * 1024

_STORE_ROWS = 1_000_000

# The columnar kernels read the trace one block at a time, so a run 8x
# longer may peak at most one block's python lists (four lists of slots
# and scalars, under 128 bytes a row) above the shorter run.  tracemalloc
# slows the kernels some 50x, so the check runs them with a small block.
KERNEL_BLOCK = 256
KERNEL_GROWTH_BOUND = KERNEL_BLOCK * 128

# A row of the store: float64 time, int32 client, object and server ids
# and int32 size.
STORE_BYTES_PER_ROW = 24

# generate_columnar's tracemalloc peak per row at 1M rows.  The ids are
# drawn block by block into int32 arrays, so the peak is the finished
# store plus the order check's one-byte mask: 25.  A whole int64 column
# on top breaks the bound.
GENERATION_ROWS = 1_000_000
GENERATION_PEAK_BOUND = 26


def _columns(rows: int) -> ColumnarTrace:
    return ColumnarTrace(
        times=np.arange(rows, dtype=np.float64),
        client_ids=np.arange(rows, dtype=np.int64) % 7,
        object_ids=np.arange(rows, dtype=np.int64) % 101,
        server_ids=np.arange(rows, dtype=np.int64) % 3,
        sizes=np.arange(rows, dtype=np.int64) % 997 + 1,
    )


def to_trace_peak_bytes() -> int:
    """tracemalloc peak of ``to_trace`` on a 1M-row trace."""
    columns = _columns(_STORE_ROWS)
    tracemalloc.start()
    try:
        columns.to_trace()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def kernel_peak_growth(scheme_name: str) -> int:
    """tracemalloc peak of a kernel run over 16 blocks minus over 2."""
    catalog = ObjectCatalog.generate(50, 2, seed=1)
    workload = replace(
        SMALL_SCALE.workload, num_objects=50, num_clients=4, num_servers=2
    )
    architecture = build_architecture("hierarchical", workload, seed=5)
    cost_model = LatencyCostModel(architecture.network, catalog.mean_size)
    config = SimulationConfig()

    def peak(rows: int) -> int:
        scheme = build_scheme(
            scheme_name,
            cost_model,
            config.capacity_bytes(catalog.total_bytes),
            config.dcache_entries(catalog.total_bytes, catalog.mean_size),
        )
        # Only the last 1 % is measured: the latency reservoir grows
        # with the measured requests up to its fixed cap of samples.
        engine = SimulationEngine(
            architecture, cost_model, scheme, warmup_fraction=0.99
        )
        index = np.arange(rows, dtype=np.int64)
        objects = index * 7919 % catalog.num_objects
        trace = ColumnarTrace(
            index * 0.5, index % 4, objects, catalog.servers[objects],
            catalog.sizes[objects],
        )
        tracemalloc.start()
        try:
            engine.run(trace)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    saved, fastpath._BLOCK = fastpath._BLOCK, KERNEL_BLOCK
    try:
        peak(2 * KERNEL_BLOCK)  # warms the routing memo and lazy imports
        return peak(16 * KERNEL_BLOCK) - peak(2 * KERNEL_BLOCK)
    finally:
        fastpath._BLOCK = saved


def store_bytes_per_row(trace: ColumnarTrace) -> float:
    return sum(column.nbytes for column in trace.arrays) / len(trace)


def generation_peak_per_row() -> float:
    """tracemalloc peak of ``generate_columnar`` per row, at 1M rows."""
    generator = BoeingLikeTraceGenerator(
        replace(SMALL_SCALE.workload, num_requests=GENERATION_ROWS, seed=7)
    )
    generator.catalog  # built outside the measured window
    tracemalloc.start()
    try:
        generator.generate_columnar()
        return tracemalloc.get_traced_memory()[1] / GENERATION_ROWS
    finally:
        tracemalloc.stop()


def _records(columns: ColumnarTrace) -> list:
    return [
        TraceRecord(float(t), int(c), int(o), int(s), int(z))
        for t, c, o, s, z in zip(*columns.arrays)
    ]


@pytest.fixture
def no_records(monkeypatch):
    """Counts the TraceRecords constructed while the test runs."""
    built = []
    check = TraceRecord.__post_init__

    def counting(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(TraceRecord, "__post_init__", counting)
    return built


def _small_run(num_requests: int = 1_500, arch: str = "en-route"):
    workload = replace(
        SMALL_SCALE.workload, num_requests=num_requests, seed=11
    )
    generator = BoeingLikeTraceGenerator(workload)
    architecture = build_architecture(arch, workload, seed=5)
    return generator, architecture


def _engine(generator, architecture) -> SimulationEngine:
    catalog = generator.catalog
    cost_model = LatencyCostModel(architecture.network, catalog.mean_size)
    config = SimulationConfig()
    scheme = build_scheme(
        "coordinated",
        cost_model,
        config.capacity_bytes(catalog.total_bytes),
        config.dcache_entries(catalog.total_bytes, catalog.mean_size),
    )
    return SimulationEngine(architecture, cost_model, scheme)


class TestSharedStorage:
    def test_to_trace_shares_the_columns(self):
        columns = _columns(1_000)
        trace = columns.to_trace()
        assert trace.columns is columns
        for mine, source in zip(trace.columns.arrays, columns.arrays):
            assert np.shares_memory(mine, source)

    def test_to_trace_peak_memory_is_bounded(self):
        peak = to_trace_peak_bytes()
        assert peak < TO_TRACE_PEAK_BOUND, (
            f"to_trace of {_STORE_ROWS} rows peaked at {peak} bytes, "
            f"bound {TO_TRACE_PEAK_BOUND}: it builds rows again"
        )

    def test_trace_of_a_slice_shares_the_columns(self):
        trace = _columns(100).to_trace()
        piece = Trace(trace.records[10:20])
        assert len(piece) == 10
        assert np.shares_memory(piece.columns.times, trace.columns.times)

    def test_trace_from_records_builds_columns_once(self):
        columns = _columns(50)
        trace = Trace(_records(columns))
        assert trace.records == columns.records
        assert trace.columns.times.dtype == np.float64
        assert trace.columns.sizes.dtype == np.int32

    def test_trace_from_records_keeps_the_order_check(self):
        records = _records(_columns(5))
        records[1], records[2] = records[2], records[1]
        with pytest.raises(ValueError, match="time-ordered"):
            Trace(records)


def _assert_narrow(trace: ColumnarTrace) -> None:
    assert [column.dtype for column in trace.arrays] == [
        np.float64, np.int32, np.int32, np.int32, np.int32
    ]
    assert store_bytes_per_row(trace) == STORE_BYTES_PER_ROW


# A 3 GiB object and an object id past int32 range.
_WIDE_SIZE = 3 * 2**30
_WIDE_ID = 2**31 + 5


def _wide(columns: ColumnarTrace) -> ColumnarTrace:
    """``columns`` with the most requested object renamed to
    ``_WIDE_ID`` and grown to ``_WIDE_SIZE`` bytes."""
    hot = columns.object_ids == columns.most_popular(1)[0]
    objects = columns.object_ids.astype(np.int64)
    sizes = columns.sizes.astype(np.int64)
    objects[hot] = _WIDE_ID
    sizes[hot] = _WIDE_SIZE
    return ColumnarTrace(
        columns.times, columns.client_ids, objects, columns.server_ids,
        sizes,
    )


class TestStoreDtypes:
    def test_generated_trace_is_24_bytes_a_row(self):
        generator, _ = _small_run()
        _assert_narrow(generator.generate_columnar())
        _assert_narrow(generator.generate().columns)

    def test_streamed_trace_is_24_bytes_a_row(self):
        generator, _ = _small_run()
        _assert_narrow(ColumnarTrace.concat(list(generator.stream(256))))

    def test_csv_read_trace_is_24_bytes_a_row(self, tmp_path):
        generator, _ = _small_run()
        trace = generator.generate()
        write_trace_csv(trace, tmp_path / "trace.csv")
        read = read_trace_csv(tmp_path / "trace.csv")
        assert read.records == trace.records
        _assert_narrow(read.columns)

    def test_filtered_and_viewed_traces_keep_the_dtypes(self):
        columns = BoeingLikeTraceGenerator(
            replace(SMALL_SCALE.workload, num_requests=1_500, seed=11)
        ).generate_columnar()
        _assert_narrow(columns.filter_objects(columns.most_popular(10)))
        _assert_narrow(columns.view(100, 900))
        for chunk in columns.iter_chunks(400):
            _assert_narrow(chunk)

    def test_an_int64_column_narrows_when_its_values_fit(self):
        columns = _columns(100)
        _assert_narrow(columns)
        assert _columns(0).sizes.dtype == np.int32

    def test_generation_peak_is_bounded(self):
        peak = generation_peak_per_row()
        assert peak <= GENERATION_PEAK_BOUND, (
            f"generate_columnar of {GENERATION_ROWS} rows peaked at "
            f"{peak:.2f} bytes a row, bound {GENERATION_PEAK_BOUND}: it "
            "builds a whole int64 column"
        )


class TestWideValues:
    """Values past int32 range keep their columns int64, end to end."""

    def test_wide_columns_stay_int64(self):
        generator, _ = _small_run()
        wide = _wide(generator.generate_columnar())
        assert [column.dtype for column in wide.arrays] == [
            np.float64, np.int32, np.int64, np.int32, np.int64
        ]
        assert int(wide.object_ids.max()) == _WIDE_ID
        assert int(wide.sizes.max()) == _WIDE_SIZE

    def test_round_trips(self, tmp_path):
        generator, _ = _small_run()
        wide = _wide(generator.generate_columnar())
        write_trace_csv(wide.to_trace(), tmp_path / "wide.csv")
        read = read_trace_csv(tmp_path / "wide.csv")
        assert read.records == wide.records
        assert read.columns.sizes.dtype == np.int64
        piece = wide.view(10, 1_000)
        assert piece.object_ids.dtype == np.int64
        assert np.shares_memory(piece.sizes, wide.sizes)
        assert Trace(wide.records[10:1_000]).records == piece.records
        hot = wide[int(np.argmax(wide.sizes))]
        assert (hot.object_id, hot.size) == (_WIDE_ID, _WIDE_SIZE)
        assert isinstance(hot.size, int)

    @pytest.mark.parametrize(
        "scheme_name, kernel",
        [("lru", "_run_lru_family"), ("coordinated", "_run_coordinated")],
    )
    def test_reference_loop_and_kernels_agree(
        self, monkeypatch, scheme_name, kernel
    ):
        generator, architecture = _small_run()
        wide = _wide(generator.generate_columnar())
        catalog = generator.catalog
        served = []
        loop = getattr(fastpath, kernel)

        def spy(*args):
            served.append(kernel)
            return loop(*args)

        monkeypatch.setattr(fastpath, kernel, spy)
        cost_model = LatencyCostModel(architecture.network, catalog.mean_size)
        schemes = []

        def scheme():
            # Room for the 3 GiB object plus some of the rest.
            schemes.append(build_scheme(
                scheme_name, cost_model,
                _WIDE_SIZE + catalog.total_bytes // 20, 64,
            ))
            return schemes[-1]

        # Asserts equal results and equal final cache state.
        result = shadow_compare(
            architecture, cost_model, scheme, wide.to_trace(), wide,
            tag=scheme_name,
        )
        assert served == [kernel]
        assert result.requests_total == len(wide)
        assert any(
            cache.entries.get(_WIDE_ID) is not None
            and cache.entries[_WIDE_ID].size == _WIDE_SIZE
            for cache in schemes[-1].caches().values()
        )


class TestKernelMemory:
    @pytest.mark.parametrize(
        "scheme_name, kernel",
        [("lru", "_run_lru_family"), ("coordinated", "_run_coordinated")],
    )
    def test_peak_does_not_grow_with_the_trace(
        self, monkeypatch, scheme_name, kernel
    ):
        served = []
        loop = getattr(fastpath, kernel)

        def spy(*args):
            served.append(kernel)
            return loop(*args)

        monkeypatch.setattr(fastpath, kernel, spy)
        growth = kernel_peak_growth(scheme_name)
        assert served == [kernel] * 3
        assert growth <= KERNEL_GROWTH_BOUND, (
            f"{kernel} peaked {growth} bytes higher over 8x the rows, "
            f"bound {KERNEL_GROWTH_BOUND}: it holds per-request lists"
        )


class TestRecordsView:
    def test_length_and_indexing(self):
        columns = _columns(10)
        records = columns.to_trace().records
        assert len(records) == 10
        assert records[0] == TraceRecord(0.0, 0, 0, 0, 1)
        assert records[-1] == TraceRecord(9.0, 2, 9, 0, 10)
        assert records[-1] == records[9]
        assert isinstance(records[3].time, float)
        assert isinstance(records[3].size, int)

    @pytest.mark.parametrize("index", [10, -11, 1_000])
    def test_out_of_range_index_raises(self, index):
        with pytest.raises(IndexError):
            _columns(10).to_trace().records[index]

    def test_slices_are_views(self):
        trace = _columns(100).to_trace()
        piece = trace.records[20:30]
        assert len(piece) == 10
        assert piece[0].time == 20.0
        assert piece[-1].time == 29.0
        assert np.shares_memory(piece.columns.sizes, trace.columns.sizes)
        assert trace.records[20:30:3] == list(trace.records)[20:30:3]
        assert trace.records[::-1] == list(trace.records)[::-1]

    def test_equals_any_sequence_of_equal_records(self):
        columns = _columns(20)
        records = columns.to_trace().records
        plain = _records(columns)
        assert records == plain
        assert plain == records
        assert records == tuple(plain)
        assert records != plain[:-1]
        assert records != plain[:-1] + [TraceRecord(19.0, 0, 0, 0, 1)]
        assert records != 3

    def test_trace_of_a_view_equals_trace_of_its_records(self):
        records = BoeingLikeTraceGenerator(
            replace(SMALL_SCALE.workload, num_requests=300, seed=2)
        ).generate().records
        assert (
            Trace(records[40:160]).records
            == Trace(list(records[40:160])).records
        )

    def test_iteration_yields_records_in_order(self):
        columns = _columns(5)
        assert list(columns.to_trace()) == _records(columns)
        assert list(columns.to_trace().records) == _records(columns)


class TestReadersBuildNoRecords:
    @pytest.mark.parametrize("coherency", [None, InbandCoherency()])
    def test_reference_loop(self, no_records, coherency):
        generator, architecture = _small_run()
        trace = generator.generate()
        no_records.clear()
        result = _engine(generator, architecture).run(
            trace, coherency=coherency
        )
        assert result.requests_total == len(trace)
        assert no_records == []

    @pytest.mark.parametrize("scheme_name", ["lru", "coordinated"])
    def test_kernels(self, no_records, scheme_name):
        generator, architecture = _small_run()
        columns = generator.generate_columnar()
        catalog = generator.catalog
        cost_model = LatencyCostModel(architecture.network, catalog.mean_size)
        scheme = build_scheme(
            scheme_name, cost_model, catalog.total_bytes // 20, 64
        )
        result = SimulationEngine(architecture, cost_model, scheme).run(columns)
        assert result.requests_total == len(columns)
        assert no_records == []

    def test_scenario_injectors(self, no_records):
        generator, _ = _small_run()
        trace = generator.generate()
        catalog = generator.catalog
        no_records.clear()
        crowded = inject_flash_crowd(
            trace, catalog, 3, trace.duration / 2, 10.0, 5.0, 8, seed=1
        )
        scanned = inject_scan(trace, catalog, 1.0, 0.5, object_ids=[4, 5, 6])
        assert len(crowded) > len(trace)
        assert len(scanned) == len(trace) + 3
        assert no_records == []

    def test_channel_coherency_run(self, no_records):
        generator, architecture = _small_run()
        trace = generator.generate()
        num_objects = generator.catalog.num_objects
        updates = generate_update_events(
            num_objects, trace.duration, update_rate=2.0, seed=3
        )
        policy = build_policy(
            CoherencyConfig(mode="channel", poll_interval=5.0), num_objects
        )
        no_records.clear()
        result = _engine(generator, architecture).run(
            trace, updates=updates, coherency=policy
        )
        assert result.requests_total == len(trace)
        assert result.coherency["events_published"] > 0
        assert no_records == []

    @pytest.mark.parametrize(
        "mode, concurrency", [("sequential", 1), ("closed", 4)]
    )
    def test_load_generator(self, no_records, mode, concurrency):
        generator, architecture = _small_run(400, arch="hierarchical")
        trace = generator.generate()

        async def replay():
            cluster = Cluster.build(
                architecture, generator.catalog, "coordinated"
            )
            await cluster.start()
            try:
                no_records.clear()
                return await LoadGenerator(cluster, trace).run(
                    mode=mode, concurrency=concurrency
                )
            finally:
                await cluster.stop()

        report = asyncio.run(replay())
        assert report.cache_served + report.origin_served == len(trace)
        assert no_records == []


def test_reference_loop_summary_is_the_same_for_both_builds():
    generator, architecture = _small_run()
    from_columns = generator.generate()
    from_records = Trace(list(from_columns))
    assert from_records.columns is not from_columns.columns
    a = _engine(generator, architecture).run(from_columns)
    b = _engine(generator, architecture).run(from_records)
    assert a.summary == b.summary


if __name__ == "__main__":
    peak = to_trace_peak_bytes()
    print(
        f"to_trace of {_STORE_ROWS} rows: tracemalloc peak {peak} bytes "
        f"(bound {TO_TRACE_PEAK_BOUND})"
    )
    ok = peak < TO_TRACE_PEAK_BOUND
    for name in ("lru", "coordinated"):
        growth = kernel_peak_growth(name)
        print(
            f"{name} kernel, {16 * KERNEL_BLOCK} vs {2 * KERNEL_BLOCK} rows "
            f"in blocks of {KERNEL_BLOCK}: tracemalloc peak growth {growth} "
            f"bytes (bound {KERNEL_GROWTH_BOUND})"
        )
        ok = ok and growth <= KERNEL_GROWTH_BOUND
    generator, _ = _small_run()
    per_row = store_bytes_per_row(generator.generate_columnar())
    print(
        f"store: {per_row:g} bytes a row (bound {STORE_BYTES_PER_ROW})"
    )
    ok = ok and per_row <= STORE_BYTES_PER_ROW
    generation = generation_peak_per_row()
    print(
        f"generate_columnar of {GENERATION_ROWS} rows: tracemalloc peak "
        f"{generation:.2f} bytes a row (bound {GENERATION_PEAK_BOUND})"
    )
    ok = ok and generation <= GENERATION_PEAK_BOUND
    sys.exit(0 if ok else 1)
