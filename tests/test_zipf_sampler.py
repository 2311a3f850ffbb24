"""The guide-table Zipf sampler is exact, and generation is pinned.

:class:`ZipfSampler` finds each rank through a guide table and a fixed
number of correction steps instead of a binary search.  These tests
hold it to ``np.searchsorted(cdf, u, side="left")`` -- the search it
replaces -- on seeded draws and on the draws where an off-by-one would
show: every CDF value, its two floating-point neighbours, every bucket
edge, 0 and the largest draw below 1.

The digests pin every column of generated traces, the streaming
generator's chunks, the update streams and the group assignment at the
values the binary-search sampler produced.  The other golden tests
derive their expected ids through ``ZipfSampler`` itself, so they
cannot see a sampler change; these can.

Run as a script (``python tests/test_zipf_sampler.py``), it prints
``zipf guide: K buckets, P passes, exact on N adversarial draws`` for
each configuration and exits 1 on any mismatch.
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import replace

import numpy as np
import pytest

from repro.experiments.presets import STANDARD_SCALE
from repro.workload.generator import BoeingLikeTraceGenerator
from repro.workload.groups import GroupAssignment
from repro.workload.trace import ColumnarTrace
from repro.workload.updates import (
    generate_group_update_events,
    generate_update_events,
)
from repro.workload.zipf import ZipfSampler

# (num_items, theta): one item, uniform, the paper's law, a steep law
# and the paper's catalog size.
CONFIGS = [(1, 0.8), (2_000, 0.0), (2_000, 0.8), (2_000, 1.5), (100_000, 0.8)]


class _FixedDraws:
    """Stands in for a Generator whose next ``random`` call returns ``u``."""

    def __init__(self, u: np.ndarray) -> None:
        self._u = u

    def random(self, count: int) -> np.ndarray:
        assert count == len(self._u)
        return self._u.copy()  # sample() scales its draws in place


def adversarial_draws(sampler: ZipfSampler) -> np.ndarray:
    """Every CDF value and bucket edge with both neighbours, 0 and
    1 - 2**-53, restricted to the generator's range [0, 1)."""
    cdf = sampler._cdf
    edges = np.arange(sampler.buckets, dtype=np.float64) / sampler.buckets
    points = np.concatenate([cdf, edges])
    u = np.concatenate([
        points,
        np.nextafter(points, 0.0),
        np.nextafter(points, 2.0),
        [0.0, 1.0 - 2.0**-53],
    ])
    return u[(u >= 0.0) & (u < 1.0)]


def mismatches(sampler: ZipfSampler, u: np.ndarray) -> int:
    """Draws whose rank differs from the binary search's."""
    expected = np.searchsorted(sampler._cdf, u, side="left")
    ranks = sampler.sample(len(u), _FixedDraws(u))
    assert ranks.dtype == np.int64
    return int(np.count_nonzero(ranks != expected))


@pytest.mark.parametrize("num_items,theta", CONFIGS)
class TestExactness:
    def test_adversarial_draws(self, num_items, theta):
        sampler = ZipfSampler(num_items, theta)
        assert mismatches(sampler, adversarial_draws(sampler)) == 0

    def test_seeded_draws(self, num_items, theta):
        sampler = ZipfSampler(num_items, theta)
        u = np.random.default_rng(num_items).random(200_000)
        assert mismatches(sampler, u) == 0

    def test_blocked_draws_equal_one_draw(self, num_items, theta):
        sampler = ZipfSampler(num_items, theta)
        whole = sampler.sample(10_000, np.random.default_rng(5))
        rng = np.random.default_rng(5)
        blocks = [sampler.sample(n, rng) for n in (1, 999, 0, 9_000)]
        np.testing.assert_array_equal(np.concatenate(blocks), whole)


class TestGuideTable:
    def test_bucket_count_is_a_power_of_two_from_the_catalog(self):
        for num_items, theta in CONFIGS:
            sampler = ZipfSampler(num_items, theta)
            buckets = sampler.buckets
            assert buckets & (buckets - 1) == 0
            assert buckets == min(2**16, 2 ** (4 * num_items - 1).bit_length())

    def test_passes(self):
        assert ZipfSampler(1, 0.8).passes == 0
        assert ZipfSampler(2_000, 0.8).passes == 1
        assert ZipfSampler(100_000, 0.8).passes == 7


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _column_digests(trace: ColumnarTrace) -> dict:
    return {
        name: (str(column.dtype), _sha(column.tobytes()))
        for name, column in zip(
            ("times", "client_ids", "object_ids", "server_ids", "sizes"),
            trace.arrays,
        )
    }


def _concatenated(chunks) -> ColumnarTrace:
    chunks = list(chunks)
    return ColumnarTrace(*(
        np.concatenate(columns)
        for columns in zip(*(chunk.arrays for chunk in chunks))
    ))


_STANDARD_200K = replace(STANDARD_SCALE.workload, num_requests=200_000)
_LOCALITY_200K = replace(
    _STANDARD_200K, temporal_locality=0.3, locality_window=16
)

# Digests of the binary-search sampler's streams (times float64, the
# integer columns int32).
_GENERATED = {
    "times": "4d35b7af184404bf22e7587e0bbd2e81b54a39765af4f4f14fe5ca9226670bfe",
    "client_ids": "837288dbd38f0ddee1d42a2f96f21271969fc70653029e390a70ef7adc80bd2b",
    "object_ids": "e1fb4c8afbdf31659f4219b402b7db7c016550b0e2d8a3998e86c12129015f25",
    "server_ids": "7fe2564022f5b447160675016d51d9cf7d5b7597c1efd0a87781e5e5e7199089",
    "sizes": "7923e300b489a28beb2cb4b31e308a974f380b435394179710f78adc3698f10e",
}
_GENERATED_LOCALITY = {
    "times": "052f3fc0f41723217b1da7f02398157c33e5861d8fbfe8fa00f899f6f6d90da8",
    "client_ids": "bb98429ec97559c73ee3881d3ed045e00cb2d2ce2b74c704943e87bff0e8714e",
    "object_ids": "e7021bf26a2745c8f4c15beb6c27549a82fece97ed2ce11c94923f24ef32a6d7",
    "server_ids": "dae445e37f3c47ebf0bcb2e6d65516d94c9c1cd83d0a16ef887305e344739315",
    "sizes": "b5233338013dd4427d6c0d97c122899feb25ad0317c16dbb31b4ec2a4ad1ed2f",
}
_STREAMED = {
    "times": "997c67d18bdc29e4bd2859fb99a89170c0b1314ffd64183b0bd133d51dfcce0b",
    "client_ids": "1bc96fbd335ca34fd412c19b49306a49d824c6579b321d56fbac9679e17fdb5a",
    "object_ids": "38f3538b220bb1fdfe6e81035bfda7372968bf77ed402e57eec7d67c1f13a74d",
    "server_ids": "a350b0cdef38d59a8162901099c422f8dbd49ad1380ebeca40464afec2146ed2",
    "sizes": "8bb8171ee02b4985d3bd47d6426d52f5593e487f63f3d0e762514e1cc1bd8589",
}
_STREAMED_LOCALITY = {
    **_STREAMED,
    "object_ids": "c4e409ffa45007ffc0e5353928080d9f0a8258b8ba7d9ae0eefe8afd3f94a6c5",
    "server_ids": "edaf9428d7ed42323480c6400ad945be5f8e1e8cce5c90d7909f376b8430d26c",
    "sizes": "8845bf82c4039b5f01858afa257c15a2082a3bbf6d2c6dff9378903a4146ecb5",
}


def _expected(digests: dict) -> dict:
    return {
        name: ("float64" if name == "times" else "int32", digest)
        for name, digest in digests.items()
    }


class TestPinnedStreams:
    def test_generate_columnar(self):
        trace = BoeingLikeTraceGenerator(_STANDARD_200K).generate_columnar()
        assert _column_digests(trace) == _expected(_GENERATED)

    def test_generate_columnar_with_locality(self):
        trace = BoeingLikeTraceGenerator(_LOCALITY_200K).generate_columnar()
        assert _column_digests(trace) == _expected(_GENERATED_LOCALITY)

    def test_stream(self):
        chunks = BoeingLikeTraceGenerator(_STANDARD_200K).stream(65_536)
        assert _column_digests(_concatenated(chunks)) == _expected(_STREAMED)

    def test_stream_with_locality(self):
        chunks = BoeingLikeTraceGenerator(_LOCALITY_200K).stream(10_000)
        assert _column_digests(_concatenated(chunks)) == _expected(
            _STREAMED_LOCALITY
        )

    def test_update_events(self):
        events = generate_update_events(
            2_000, duration=1_000.0, update_rate=2.0, seed=3
        )
        assert len(events) == 1_926
        assert _sha(repr([(e.time, e.object_id) for e in events]).encode()) == (
            "15084c43f5641a3ea383512a59bdea7948295a619a9572a369da365ec086fcdd"
        )

    def test_groups_and_group_updates(self):
        groups = GroupAssignment.generate(2_000, 40, skew=0.8, seed=5)
        assert _sha(repr(groups.group_of_object).encode()) == (
            "4df2ea64b7ac39ae77362c1e42134fda9aecb553fcbc04490c4fd8b75661ac74"
        )
        events = generate_group_update_events(groups, 1_000.0, 2.0, seed=9)
        assert len(events) == 2_058
        assert _sha(repr([(e.time, e.group_id) for e in events]).encode()) == (
            "899bbf575cb4e9869c506b5d51e888a0bb2e8ac89dba8dba7647082e6b1f6904"
        )


if __name__ == "__main__":
    failed = False
    for num_items, theta in CONFIGS:
        sampler = ZipfSampler(num_items, theta)
        u = adversarial_draws(sampler)
        bad = mismatches(sampler, u)
        verdict = "exact" if bad == 0 else f"{bad} MISMATCHES"
        print(
            f"zipf guide (n={num_items}, theta={theta}): {sampler.buckets} "
            f"buckets, {sampler.passes} passes, {verdict} on {len(u)} "
            f"adversarial draws"
        )
        failed = failed or bad > 0
    sys.exit(1 if failed else 0)
