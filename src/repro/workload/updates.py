"""Object-update (invalidation) event streams.

The paper assumes cached objects are up to date, "e.g., by using a cache
coherency protocol [9] if necessary" (section 2), and notes web objects
are read-mostly [13].  This module provides the missing piece as an
extension: a stream of server-side update events that invalidate every
cached copy of an object, so the read-mostly assumption can be stressed
(see ``benchmarks/test_ablation_invalidation.py``).

Update targets follow a Zipf law like reads do (popular objects are also
updated more often), with an independently configurable skew.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.workload.groups import GroupAssignment


@dataclass(frozen=True)
class UpdateEvent:
    """One server-side object update at a point in time."""

    time: float
    object_id: int

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError("update time must be non-negative")
        if self.object_id < 0:
            raise ValueError("object id must be non-negative")


def generate_update_events(
    num_objects: int,
    duration: float,
    update_rate: float,
    zipf_theta: float = 0.8,
    seed: int = 0,
) -> List[UpdateEvent]:
    """Poisson stream of updates over ``[0, duration]``.

    ``update_rate`` is the aggregate updates per unit time across all
    objects.  A rate of 0 returns an empty stream.
    """
    if num_objects < 1:
        raise ValueError("need at least one object")
    if duration < 0:
        raise ValueError("duration must be non-negative")
    if update_rate < 0:
        raise ValueError("update_rate must be non-negative")
    if update_rate == 0 or duration == 0:
        return []
    import numpy as np

    from repro.workload.zipf import ZipfSampler

    rng = np.random.default_rng(seed)
    count = int(rng.poisson(update_rate * duration))
    if count == 0:
        return []
    times = np.sort(rng.random(count) * duration)
    objects = ZipfSampler(num_objects, zipf_theta).sample(count, rng)
    return [
        UpdateEvent(time=float(t), object_id=int(o))
        for t, o in zip(times, objects)
    ]


@dataclass(frozen=True)
class GroupUpdateEvent:
    """One server-side *group* update: every member object goes stale.

    The group-based analogue of :class:`UpdateEvent`, following the
    squid-channels design where one published event invalidates many
    objects.  Membership lives in a
    :class:`~repro.workload.groups.GroupAssignment`, not on the event.
    """

    time: float
    group_id: int

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError("update time must be non-negative")
        if self.group_id < 0:
            raise ValueError("group id must be non-negative")


def generate_group_update_events(
    groups: GroupAssignment,
    duration: float,
    update_rate: float,
    zipf_theta: float = 0.8,
    seed: int = 0,
) -> List[GroupUpdateEvent]:
    """Poisson stream of group updates over ``[0, duration]``.

    Identical draw structure to :func:`generate_update_events` (count,
    sorted uniform times, Zipf targets), just targeting group ranks
    instead of object ranks: popular groups are updated more often.
    """
    if duration < 0:
        raise ValueError("duration must be non-negative")
    if update_rate < 0:
        raise ValueError("update_rate must be non-negative")
    if update_rate == 0 or duration == 0:
        return []
    import numpy as np

    from repro.workload.zipf import ZipfSampler

    rng = np.random.default_rng(seed)
    count = int(rng.poisson(update_rate * duration))
    if count == 0:
        return []
    times = np.sort(rng.random(count) * duration)
    targets = ZipfSampler(groups.group_count, zipf_theta).sample(count, rng)
    return [
        GroupUpdateEvent(time=float(t), group_id=int(g))
        for t, g in zip(times, targets)
    ]


def expand_group_events(
    events: Sequence[GroupUpdateEvent],
    groups: GroupAssignment,
) -> List[UpdateEvent]:
    """Flatten group events into per-object :class:`UpdateEvent`\\ s.

    This is how in-band mode consumes a group-targeted stream: each
    group event becomes one per-object event per member (same
    timestamp, ascending object id), so the existing engine loop and
    the inv-frame broadcast need no group awareness.
    """
    expanded: List[UpdateEvent] = []
    for event in events:
        for object_id in groups.members(event.group_id):
            expanded.append(UpdateEvent(time=event.time, object_id=object_id))
    return expanded
