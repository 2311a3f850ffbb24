"""Tests for the diurnal-modulation and temporal-locality workload knobs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.workload import generator as generator_module
from repro.workload.generator import BoeingLikeTraceGenerator, WorkloadConfig
from repro.workload.zipf import ZipfSampler


def make_config(**kwargs) -> WorkloadConfig:
    defaults = dict(
        num_objects=150,
        num_servers=5,
        num_clients=20,
        num_requests=20_000,
        zipf_theta=0.8,
        seed=9,
    )
    defaults.update(kwargs)
    return WorkloadConfig(**defaults)


class TestValidation:
    def test_bounds(self):
        with pytest.raises(ValueError):
            make_config(diurnal_amplitude=1.0)
        with pytest.raises(ValueError):
            make_config(diurnal_amplitude=-0.1)
        with pytest.raises(ValueError):
            make_config(diurnal_period=0)
        with pytest.raises(ValueError):
            make_config(temporal_locality=1.0)
        with pytest.raises(ValueError):
            make_config(locality_window=0)


class TestDiurnalModulation:
    def test_defaults_unchanged(self):
        """Knobs off must reproduce the exact original trace."""
        base = BoeingLikeTraceGenerator(make_config()).generate()
        again = BoeingLikeTraceGenerator(
            make_config(diurnal_amplitude=0.0, temporal_locality=0.0)
        ).generate()
        assert base.records == again.records

    def test_rate_follows_the_sine(self):
        period = 600.0
        config = make_config(
            diurnal_amplitude=0.8, diurnal_period=period, request_rate=100.0
        )
        trace = BoeingLikeTraceGenerator(config).generate()
        phases = np.array([r.time for r in trace]) % period
        # Quarter around the sine peak (period/4) vs around the trough.
        peak = np.sum((phases > period * 0.125) & (phases < period * 0.375))
        trough = np.sum((phases > period * 0.625) & (phases < period * 0.875))
        assert peak > 2.0 * trough

    def test_count_and_ordering_preserved(self):
        config = make_config(diurnal_amplitude=0.5, diurnal_period=300.0)
        trace = BoeingLikeTraceGenerator(config).generate()
        assert len(trace) == config.num_requests
        times = [r.time for r in trace]
        assert times == sorted(times)

    def test_deterministic(self):
        config = make_config(diurnal_amplitude=0.5)
        a = BoeingLikeTraceGenerator(config).generate()
        b = BoeingLikeTraceGenerator(config).generate()
        assert a.records == b.records


class TestTemporalLocality:
    @staticmethod
    def repeat_rate(trace, window: int) -> float:
        recent: list[int] = []
        repeats = 0
        for record in trace:
            if record.object_id in recent[-window:]:
                repeats += 1
            recent.append(record.object_id)
        return repeats / len(trace)

    def test_locality_raises_short_range_repeats(self):
        base = BoeingLikeTraceGenerator(make_config()).generate()
        local = BoeingLikeTraceGenerator(
            make_config(temporal_locality=0.5, locality_window=32)
        ).generate()
        assert self.repeat_rate(local, 32) > self.repeat_rate(base, 32) + 0.15

    def test_object_ids_stay_valid(self):
        config = make_config(temporal_locality=0.6)
        trace = BoeingLikeTraceGenerator(config).generate()
        assert all(0 <= r.object_id < config.num_objects for r in trace)
        # Catalog consistency maintained after rewriting.
        generator = BoeingLikeTraceGenerator(config)
        trace = generator.generate()
        for record in trace.records[:500]:
            assert record.size == generator.catalog.size(record.object_id)

    def test_deterministic(self):
        config = make_config(temporal_locality=0.4)
        a = BoeingLikeTraceGenerator(config).generate()
        b = BoeingLikeTraceGenerator(config).generate()
        assert a.records == b.records

    def test_locality_improves_cache_hit_rate(self):
        """Sanity end-to-end: burstier reuse means more cache hits."""
        from repro.costs.model import LatencyCostModel
        from repro.schemes.lru_everywhere import LRUEverywhereScheme
        from repro.topology.builder import build_chain

        def run(config):
            generator = BoeingLikeTraceGenerator(config)
            trace = generator.generate()
            network = build_chain([1.0])
            cost = LatencyCostModel(network, generator.catalog.mean_size)
            capacity = int(0.05 * generator.catalog.total_bytes)
            scheme = LRUEverywhereScheme(cost, capacity_bytes=capacity)
            hits = 0
            for record in trace:
                outcome = scheme.process_request(
                    [0, 1], record.object_id, record.size, record.time
                )
                hits += outcome.served_by_cache
            return hits / len(trace)

        base = run(make_config(num_requests=8_000))
        local = run(
            make_config(
                num_requests=8_000, temporal_locality=0.5, locality_window=16
            )
        )
        assert local > base


def per_row_repeats(
    object_ids: np.ndarray, repeat: np.ndarray, offsets: np.ndarray
) -> np.ndarray:
    """Reference temporal locality: rewrite the rows one by one, in order."""
    result = object_ids.copy()
    for i in range(len(result)):
        if repeat[i] and i > 0:
            result[i] = result[max(0, i - int(offsets[i]))]
    return result


@pytest.mark.parametrize("window", [1, 16, 128])
@pytest.mark.parametrize("locality", [0.3, 0.9])
class TestLocalityEqualsPerRowRewrite:
    """The array rewrite (pointer jumping over each block) gives the ids
    the per-row loop gives, and consumes the same draws."""

    ROWS = 2_000

    def config(self, locality, window):
        return make_config(
            num_requests=self.ROWS, temporal_locality=locality,
            locality_window=window,
        )

    @pytest.mark.parametrize("draw_block", [97, 65_536])
    def test_generate_columnar(self, monkeypatch, locality, window, draw_block):
        monkeypatch.setattr(generator_module, "_DRAW_BLOCK", draw_block)
        cfg = self.config(locality, window)
        n = cfg.num_requests
        rng = np.random.default_rng(cfg.seed + 1)
        rank_to_object = rng.permutation(cfg.num_objects)
        sampler = ZipfSampler(cfg.num_objects, cfg.zipf_theta)
        ids = rank_to_object[sampler.sample(n, rng)]
        repeat = rng.random(n) < locality
        offsets = rng.integers(1, window + 1, size=n)
        expected = per_row_repeats(ids, repeat, offsets)
        times = np.cumsum(rng.exponential(1.0 / cfg.request_rate, size=n))

        trace = BoeingLikeTraceGenerator(cfg).generate_columnar()
        np.testing.assert_array_equal(trace.object_ids, expected)
        # The draws after the rewrite are where they were.
        np.testing.assert_array_equal(trace.times, times)

    @pytest.mark.parametrize("chunk", [1, 7, 65_536])
    def test_stream(self, locality, window, chunk):
        cfg = self.config(locality, window)
        n = cfg.num_requests
        seq = np.random.SeedSequence((cfg.seed + 1, generator_module._STREAM_SALT))
        r_perm, r_rank, r_repeat, r_offset, _, _ = (
            np.random.default_rng(s) for s in seq.spawn(6)
        )
        rank_to_object = r_perm.permutation(cfg.num_objects)
        ids = rank_to_object[
            ZipfSampler(cfg.num_objects, cfg.zipf_theta).sample(n, r_rank)
        ]
        expected = per_row_repeats(
            ids,
            r_repeat.random(n) < locality,
            r_offset.integers(1, window + 1, size=n),
        )

        chunks = list(BoeingLikeTraceGenerator(cfg).stream(chunk))
        assert max(len(c) for c in chunks) <= chunk
        np.testing.assert_array_equal(
            np.concatenate([c.object_ids for c in chunks]), expected
        )
