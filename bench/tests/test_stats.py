from dataclasses import dataclass

import pytest

from bench import stats


def test_nearest_rank_on_hand_made_samples():
    samples = [5, 1, 4, 2, 3]
    assert stats.nearest_rank(samples, 0.50) == 3
    assert stats.nearest_rank(samples, 0.99) == 5
    # p50 of two samples is the smaller one (ceil(q * n) - 1).
    assert stats.nearest_rank([10, 20], 0.50) == 10
    assert stats.nearest_rank(list(range(1, 101)), 0.99) == 99
    with pytest.raises(ValueError):
        stats.nearest_rank([], 0.5)


def test_segment_median_ignores_one_slow_segment():
    assert stats.median([100, 101, 99, 100, 30, 102]) == 100
    q1, q3 = stats.quartiles([1, 2, 3, 4, 5, 6, 7])
    assert (q1, q3) == (2, 6)
    assert stats.quartiles([7]) == (7, 7)
    assert stats.spread([10, 10, 10]) == 0


def test_group_samples_merges_until_p99_has_ten_beyond():
    segments = [[1.0] * 600, [2.0] * 600, [3.0] * 600, [4.0] * 600, [5.0] * 100]
    groups = stats.group_samples(segments, 1_100)
    # The short tail joins the last full group rather than standing alone.
    assert [len(g) for g in groups] == [1_200, 1_300]
    assert groups[1][-1] == 5.0
    # Too few samples altogether: one group holding all of them.
    assert [len(g) for g in stats.group_samples([[1.0] * 5, [2.0] * 5], 1_100)] == [10]


def test_grouped_percentile_is_median_across_groups():
    segments = [[1.0] * 10, [3.0] * 10, [2.0] * 10]
    value, n = stats.grouped_percentile(segments, 0.5, 10)
    assert (value, n) == (2.0, 30)


@dataclass
class Event:
    time: float


def test_update_slicing_conserves_every_event_exactly_once():
    events = [Event(t) for t in (0.5, 1.0, 1.0, 1.5, 2.0, 2.01, 3.0, 9.0)]
    ends = [1.0, 2.0, 3.0]
    slices, late = stats.slice_updates(events, ends)
    assert [[e.time for e in s] for s in slices] == [
        [0.5, 1.0, 1.0], [1.5, 2.0], [2.01, 3.0],
    ]
    assert [e.time for e in late] == [9.0]
    seen = [id(e) for s in slices for e in s] + [id(e) for e in late]
    assert sorted(seen) == sorted(id(e) for e in events)
    # An update due exactly at a segment's last request fires in it, as
    # the sequential replay's `update.time <= record.time` does.
    assert slices[0][-1].time == ends[0]


def test_update_slicing_with_no_events_or_no_segments():
    assert stats.slice_updates([], [1.0, 2.0]) == ([[], []], [])
    slices, late = stats.slice_updates([Event(1.0)], [])
    assert slices == [] and len(late) == 1


def test_signed_worsening_respects_direction():
    assert stats.signed_worsening(100, 110, "lower") == pytest.approx(0.10)
    assert stats.signed_worsening(100, 110, "higher") == pytest.approx(-0.10)
    assert stats.signed_worsening(0, 1, "lower") is None
