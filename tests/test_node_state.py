"""Tests for descriptor migration between main cache and d-cache."""

from __future__ import annotations

import pytest

from repro.schemes.node_state import DescriptorNode


@pytest.fixture
def node():
    return DescriptorNode(capacity_bytes=200, dcache_entries=4)


class TestDescriptorLookup:
    def test_unknown_object_has_no_descriptor(self, node):
        assert node.descriptor(1) is None
        assert node.record_request(1, now=0.0) is None

    def test_descriptor_found_in_main_cache(self, node):
        node.insert_object(1, size=100, penalty=2.0, now=0.0)
        descriptor = node.descriptor(1)
        assert descriptor is not None
        assert descriptor.miss_penalty == 2.0

    def test_descriptor_found_in_dcache(self, node):
        node.ensure_dcache_descriptor(1, size=100, penalty=3.0, now=0.0)
        descriptor = node.descriptor(1)
        assert descriptor is not None
        assert descriptor.miss_penalty == 3.0


class TestRecordRequest:
    def test_records_on_main_cache_descriptor(self, node):
        node.insert_object(1, size=100, penalty=2.0, now=0.0)
        descriptor = node.record_request(1, now=10.0)
        assert descriptor.reference_count == 2

    def test_records_on_dcache_descriptor(self, node):
        node.ensure_dcache_descriptor(1, size=100, penalty=2.0, now=0.0)
        descriptor = node.record_request(1, now=10.0)
        assert descriptor.reference_count == 2


class TestInsertObject:
    def test_descriptor_migrates_from_dcache(self, node):
        node.ensure_dcache_descriptor(1, size=100, penalty=2.0, now=0.0)
        node.record_request(1, now=5.0)
        node.insert_object(1, size=100, penalty=4.0, now=10.0)
        assert 1 not in node.dcache
        entry = node.cache.entry(1)
        assert entry.descriptor.reference_count == 2
        assert entry.descriptor.miss_penalty == 4.0

    def test_victims_fall_to_dcache(self, node):
        node.insert_object(1, size=150, penalty=1.0, now=0.0)
        node.insert_object(2, size=150, penalty=1.0, now=1.0)
        assert 1 not in node.cache
        assert 1 in node.dcache

    def test_oversized_object_restores_dcache_descriptor(self, node):
        node.ensure_dcache_descriptor(1, size=500, penalty=1.0, now=0.0)
        assert node.insert_object(1, size=500, penalty=2.0, now=1.0) is None
        assert 1 in node.dcache
        assert 1 not in node.cache

    def test_update_miss_penalty_in_both_locations(self, node):
        node.insert_object(1, size=50, penalty=1.0, now=0.0)
        node.ensure_dcache_descriptor(2, size=50, penalty=1.0, now=0.0)
        node.update_miss_penalty(1, 9.0, now=1.0)
        node.update_miss_penalty(2, 8.0, now=1.0)
        node.update_miss_penalty(3, 7.0, now=1.0)  # unknown: no-op
        assert node.cache.entry(1).descriptor.miss_penalty == 9.0
        assert node.dcache.peek(2).miss_penalty == 8.0

    def test_ensure_refreshes_existing_penalty(self, node):
        node.ensure_dcache_descriptor(1, size=50, penalty=1.0, now=0.0)
        node.ensure_dcache_descriptor(1, size=50, penalty=6.0, now=1.0)
        assert node.dcache.peek(1).miss_penalty == 6.0
        # Reference count unchanged by the second ensure (no new record).
        assert node.dcache.peek(1).reference_count == 1

    def test_no_object_in_both_caches(self, node):
        for i in range(8):
            node.insert_object(i, size=60, penalty=1.0, now=float(i))
            node.check_invariants()
