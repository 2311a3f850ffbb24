"""Synthetic Boeing-like trace generation.

The Boeing proxy traces are no longer distributable, so the reproduction
drives the simulator with a synthetic stream exhibiting the statistical
properties the paper's analysis rests on (section 3.1):

* object popularity follows a Zipf-like law with parameter ``theta``
  (Breslau et al. observed theta in roughly 0.64-0.83 for proxy traces;
  the default is 0.8);
* object sizes are heavy-tailed (see :class:`~repro.workload.catalog.SizeDistribution`);
* request inter-arrival times are exponential (Poisson arrivals);
* each request is issued by a client drawn uniformly from the client
  population, and the popularity ranking is shared across clients (the
  merged-proxy view the paper uses).

Because all caching schemes replay the *same* stream, relative scheme
performance -- the paper's stated objective -- is preserved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# numpy imports its random package on first use: load it with the module
# that draws, so a run's first draw imports nothing mid-run.
import numpy.random  # noqa: F401
from typing import Callable, Iterator

from repro.workload.catalog import ObjectCatalog, SizeDistribution
from repro.workload.trace import ColumnarTrace, Trace, int_column, int_dtype
from repro.workload.zipf import ZipfSampler

# Salt mixed into the streaming generator's seed sequence, fixed forever:
# the chunked stream is its own canonical workload (see `stream`), and its
# determinism contract is (seed, salt) -> stream, independent of chunking.
_STREAM_SALT = 0x57A3

# Rows per block of a whole-trace id draw (see `_fill`).
_DRAW_BLOCK = 65_536

# Candidate batch of the streaming diurnal thinner.  Deliberately fixed
# (not tied to chunk_records) so the accept/reject RNG consumption -- and
# therefore the emitted stream -- is invariant to the chunk size.
_THIN_BATCH = 4096


@dataclass(frozen=True)
class WorkloadConfig:
    """Parameters of the synthetic workload.

    The two optional realism knobs extend the plain independent-reference
    model (both default off, leaving the base generator byte-identical):

    * ``diurnal_amplitude`` modulates the arrival rate sinusoidally over
      ``diurnal_period`` seconds (a day-night load cycle), implemented by
      thinning a homogeneous Poisson stream.
    * ``temporal_locality`` is the probability that a request repeats one
      of the most recently referenced objects (an LRU-stack-style burst
      model) instead of drawing fresh from the Zipf law.
    """

    num_objects: int = 2000
    num_servers: int = 20
    num_clients: int = 200
    num_requests: int = 50_000
    zipf_theta: float = 0.8
    request_rate: float = 50.0
    size_distribution: SizeDistribution = SizeDistribution()
    seed: int = 0
    diurnal_amplitude: float = 0.0
    diurnal_period: float = 86_400.0
    temporal_locality: float = 0.0
    locality_window: int = 64

    def __post_init__(self) -> None:
        if self.num_objects < 1 or self.num_servers < 1 or self.num_clients < 1:
            raise ValueError("population sizes must be >= 1")
        if self.num_requests < 1:
            raise ValueError("num_requests must be >= 1")
        if self.request_rate <= 0:
            raise ValueError("request_rate must be positive")
        if self.zipf_theta < 0:
            raise ValueError("zipf_theta must be non-negative")
        if not 0 <= self.diurnal_amplitude < 1:
            raise ValueError("diurnal_amplitude must be in [0, 1)")
        if self.diurnal_period <= 0:
            raise ValueError("diurnal_period must be positive")
        if not 0 <= self.temporal_locality < 1:
            raise ValueError("temporal_locality must be in [0, 1)")
        if self.locality_window < 1:
            raise ValueError("locality_window must be >= 1")


class BoeingLikeTraceGenerator:
    """Generate synthetic traces per :class:`WorkloadConfig`.

    The generator first builds an :class:`ObjectCatalog` (sizes + owning
    servers), then maps Zipf *ranks* to object ids through a random
    permutation so that popularity is independent of id, server and size.
    """

    def __init__(self, config: WorkloadConfig | None = None) -> None:
        self.config = config or WorkloadConfig()
        self._catalog: ObjectCatalog | None = None

    @property
    def catalog(self) -> ObjectCatalog:
        """The object catalog backing generated traces (built on demand)."""
        if self._catalog is None:
            cfg = self.config
            self._catalog = ObjectCatalog.generate(
                num_objects=cfg.num_objects,
                num_servers=cfg.num_servers,
                size_distribution=cfg.size_distribution,
                seed=cfg.seed,
            )
        return self._catalog

    def _draw_columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Draw the (times, clients, object_ids) columns of one trace.

        The diurnal branch draws its arrival times *instead of* the
        homogeneous exponential stream -- drawing both and discarding one
        (the pre-fix behavior) burned RNG values in the hot trace-build
        path and shifted every draw after it.
        """
        cfg = self.config
        n = cfg.num_requests
        rng = np.random.default_rng(cfg.seed + 1)

        # The id columns are drawn block by block straight into arrays of
        # the store's dtype, so no whole int64 column (nor a whole column
        # of ranks) is built; each draw is sequential, so the values are
        # those of one whole-array draw.
        rank_to_object = int_column(rng.permutation(cfg.num_objects))
        sampler = ZipfSampler(cfg.num_objects, cfg.zipf_theta)
        object_ids = _fill(
            np.empty(n, rank_to_object.dtype),
            lambda count: rank_to_object[sampler.sample(count, rng)],
        )
        if cfg.temporal_locality > 0:
            object_ids = self._apply_temporal_locality(object_ids, rng)

        if cfg.diurnal_amplitude > 0:
            times = self._apply_diurnal_modulation(rng)
        else:
            times = rng.exponential(1.0 / cfg.request_rate, size=n)
            np.cumsum(times, out=times)
        clients = _fill(
            np.empty(n, int_dtype(0, cfg.num_clients - 1)),
            lambda count: rng.integers(cfg.num_clients, size=count),
        )
        return times, clients, object_ids

    def generate(self) -> Trace:
        """Produce one trace; identical seeds produce identical traces."""
        return self.generate_columnar().to_trace()

    def generate_columnar(self) -> ColumnarTrace:
        """Produce the same trace as :meth:`generate`, as columns.

        :meth:`generate` wraps these columns: one producer, built
        entirely from array ops with no per-record dataclasses.
        """
        servers, sizes = self._store_tables()
        times, clients, object_ids = self._draw_columns()
        return ColumnarTrace(
            times=times,
            client_ids=clients,
            object_ids=object_ids,
            server_ids=servers[object_ids],
            sizes=sizes[object_ids],
        )

    def _store_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """The catalog's server and size tables in the store's dtype, so
        a gather through them builds each column at its final width."""
        catalog = self.catalog
        return int_column(catalog.servers), int_column(catalog.sizes)

    def _apply_temporal_locality(
        self, object_ids: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Rewrite a fraction of draws to repeat recently seen objects.

        With probability ``temporal_locality`` a request references one of
        the last ``locality_window`` *distinct positions* uniformly -- the
        LRU-stack burst model layered over the Zipf base draw.  The
        whole repeat mask is drawn first, then the offsets (the order of
        one whole-array draw of each), and ``object_ids`` is rewritten in
        place one ``_DRAW_BLOCK`` at a time.
        """
        cfg = self.config
        n = len(object_ids)
        window = cfg.locality_window
        repeat = _fill(
            np.empty(n, dtype=bool),
            lambda count: rng.random(count) < cfg.temporal_locality,
        )
        for start in range(0, n, _DRAW_BLOCK):
            end = min(n, start + _DRAW_BLOCK)
            offsets = rng.integers(1, window + 1, size=end - start)
            _repeat_recent(
                object_ids[max(0, start - window):end],
                repeat[start:end], offsets, start,
            )
        return object_ids

    def _apply_diurnal_modulation(self, rng: np.random.Generator) -> np.ndarray:
        """Arrival times of an inhomogeneous Poisson process by thinning.

        Intensity ``rate * (1 + A * sin(2 pi t / period))``; candidates
        arrive at the peak rate and are accepted with probability
        ``intensity(t) / peak``.  Exactly ``num_requests`` accepted times
        are returned.
        """
        cfg = self.config
        peak = cfg.request_rate * (1 + cfg.diurnal_amplitude)
        accepted: list[np.ndarray] = []
        total = 0
        t = 0.0
        while total < cfg.num_requests:
            batch = max(1024, cfg.num_requests)
            gaps = rng.exponential(1.0 / peak, size=batch)
            candidates = t + np.cumsum(gaps)
            t = float(candidates[-1])
            intensity = cfg.request_rate * (
                1 + cfg.diurnal_amplitude
                * np.sin(2 * np.pi * candidates / cfg.diurnal_period)
            )
            keep = candidates[rng.random(batch) < intensity / peak]
            accepted.append(keep)
            total += len(keep)
        times = np.concatenate(accepted)[: cfg.num_requests]
        return times

    # -- streaming -------------------------------------------------------------

    def stream(self, chunk_records: int = 65_536) -> Iterator[ColumnarTrace]:
        """Yield the workload as :class:`ColumnarTrace` chunks, O(chunk) memory.

        For billion-request runs the full trace cannot be materialized;
        this generator produces consecutive chunks of at most
        ``chunk_records`` requests whose concatenation is one valid trace
        of ``num_requests`` requests with the configured statistical
        properties.

        Determinism contract: the emitted stream is a function of the
        workload config alone -- **invariant to ``chunk_records``** --
        because every drawn field consumes its own spawned RNG stream
        (numpy's distribution generators are sequential per value, so
        chunked draws concatenate exactly).  The stream is a *different*
        (equally canonical) realization than :meth:`generate`, whose
        single-stream whole-array draw order cannot be reproduced
        incrementally; ``generate_columnar`` is the bit-identical
        columnar twin of :meth:`generate`, ``stream`` is the scalable
        one.
        """
        if chunk_records < 1:
            raise ValueError("chunk_records must be >= 1")
        cfg = self.config
        servers, sizes = self._store_tables()
        seq = np.random.SeedSequence((cfg.seed + 1, _STREAM_SALT))
        r_perm, r_rank, r_repeat, r_offset, r_time, r_client = (
            np.random.default_rng(s) for s in seq.spawn(6)
        )
        rank_to_object = int_column(r_perm.permutation(cfg.num_objects))
        sampler = ZipfSampler(cfg.num_objects, cfg.zipf_theta)
        window = cfg.locality_window
        tail = rank_to_object[:0]  # last `window` emitted ids (locality carry-over)
        arrivals = (
            _DiurnalThinner(cfg, r_time)
            if cfg.diurnal_amplitude > 0
            else _HomogeneousArrivals(cfg, r_time)
        )
        emitted = 0
        while emitted < cfg.num_requests:
            n = min(chunk_records, cfg.num_requests - emitted)
            object_ids = rank_to_object[sampler.sample(n, r_rank)]
            if cfg.temporal_locality > 0:
                repeat = r_repeat.random(n) < cfg.temporal_locality
                offsets = r_offset.integers(1, window + 1, size=n)
                recent = np.concatenate([tail, object_ids])
                _repeat_recent(recent, repeat, offsets, emitted)
                tail = recent[-window:]
                object_ids = recent[-n:]
            times = arrivals.take(n)
            clients = r_client.integers(cfg.num_clients, size=n)
            yield ColumnarTrace(
                times=times,
                client_ids=clients,
                object_ids=object_ids,
                server_ids=servers[object_ids],
                sizes=sizes[object_ids],
                validate=False,
            )
            emitted += n


def _repeat_recent(
    ids: np.ndarray, repeat: np.ndarray, offsets: np.ndarray, start: int
) -> None:
    """Resolve one block of temporal-locality repeats in place.

    The last ``len(repeat)`` entries of ``ids`` are the block, whose
    first row has global index ``start``; the entries before it are the
    already resolved ids of the ``len(ids) - len(repeat)`` rows just
    before it (every row an offset can reach).  A repeating row takes
    the id of global row ``max(0, g - offset)``, after that row's own
    repeat: as in a per-row rewrite in order.  Each row points at its
    source row (itself when it does not repeat) and pointer jumping
    (``src = src[src]``) takes every row to the end of its chain in a
    logarithmic number of array passes.
    """
    n = len(repeat)
    before = len(ids) - n
    rows = np.arange(before, len(ids))
    src = np.arange(len(ids))
    # Local index of global row max(0, g - offset); global row 0 is
    # local row before - start.
    src[before:] = np.where(
        repeat, np.maximum(rows - offsets, before - start), rows
    )
    while True:
        hop = src[src]
        if np.array_equal(hop, src):
            break
        src = hop
    ids[before:] = ids[src[before:]]


def _fill(out: np.ndarray, draw: Callable[[int], np.ndarray]) -> np.ndarray:
    """Fill ``out`` with ``draw(count)`` one ``_DRAW_BLOCK`` at a time.

    numpy draws values one after another from the generator's state, so
    the blocks hold exactly the values one ``draw(len(out))`` would.
    """
    for start in range(0, len(out), _DRAW_BLOCK):
        block = out[start:start + _DRAW_BLOCK]
        block[...] = draw(len(block))
    return out


class _HomogeneousArrivals:
    """Incremental Poisson arrival times for the streaming path.

    Gaps are drawn and cumulative-summed in fixed ``_THIN_BATCH`` batches
    (never per requested chunk), so the floating-point summation pattern
    -- and therefore every emitted time, bit for bit -- is invariant to
    the consumer's chunk size.
    """

    def __init__(self, config: WorkloadConfig, rng: np.random.Generator) -> None:
        self._scale = 1.0 / config.request_rate
        self._rng = rng
        self._t = 0.0
        self._buffer = np.empty(0, dtype=np.float64)

    def take(self, count: int) -> np.ndarray:
        while len(self._buffer) < count:
            gaps = self._rng.exponential(self._scale, size=_THIN_BATCH)
            times = self._t + np.cumsum(gaps)
            self._t = float(times[-1])
            self._buffer = np.concatenate([self._buffer, times])
        out = self._buffer[:count].copy()
        self._buffer = self._buffer[count:]
        return out


class _DiurnalThinner:
    """Incremental inhomogeneous-Poisson thinning for the streaming path.

    Same accept/reject construction as
    :meth:`BoeingLikeTraceGenerator._apply_diurnal_modulation`, but
    candidates are drawn in fixed-size batches with accepted times carried
    over between ``take`` calls, so memory stays O(batch) and the output
    does not depend on how many times are requested at once.
    """

    def __init__(self, config: WorkloadConfig, rng: np.random.Generator) -> None:
        self._cfg = config
        self._rng = rng
        self._peak = config.request_rate * (1 + config.diurnal_amplitude)
        self._t = 0.0
        self._buffer = np.empty(0, dtype=np.float64)

    def take(self, count: int) -> np.ndarray:
        cfg = self._cfg
        while len(self._buffer) < count:
            gaps = self._rng.exponential(1.0 / self._peak, size=_THIN_BATCH)
            candidates = self._t + np.cumsum(gaps)
            self._t = float(candidates[-1])
            intensity = cfg.request_rate * (
                1 + cfg.diurnal_amplitude
                * np.sin(2 * np.pi * candidates / cfg.diurnal_period)
            )
            keep = candidates[self._rng.random(_THIN_BATCH) < intensity / self._peak]
            self._buffer = np.concatenate([self._buffer, keep])
        out = self._buffer[:count].copy()
        self._buffer = self._buffer[count:]
        return out
