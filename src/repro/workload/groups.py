"""Object groups for group-based invalidation.

The channel coherency mode (see :mod:`repro.coherency`) follows mnot's
squid-channels design: instead of invalidating one object per event, an
origin publishes a *group* stale event and every subscribed cache drops
all of its copies of that group's members.  This module owns the
workload side of that design: a deterministic assignment of objects to
groups.

Group membership is Zipf-skewed, mirroring how real sites cluster
content (a few templates/sections own most pages): object ``i`` joins
group ``ZipfSampler(group_count, skew).sample(...)`` so low-numbered
groups are large and the tail groups are nearly singletons.  With
``skew=0`` the assignment is uniform.  ``per_object()`` builds the
degenerate one-object-per-group assignment used by the differential
oracle, where channel mode must reproduce in-band invalidation
bit-for-bit.

The assignment is a pure function of ``(num_objects, group_count,
skew, seed)``, so a serving cluster's manifest only needs to carry
those four numbers for clients and nodes to agree on membership.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple


@dataclass(frozen=True)
class GroupAssignment:
    """Immutable object -> group map plus the reverse index.

    Build with :meth:`generate` (Zipf-skewed) or :meth:`per_object`
    (identity).  ``params`` round-trips the generating knobs so the
    assignment can be rebuilt remotely (e.g. from a serve manifest);
    it is ``None`` for hand-built assignments.
    """

    group_of_object: Tuple[int, ...]
    group_count: int
    params: dict | None = None
    _members: Dict[int, Tuple[int, ...]] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        if self.group_count < 1:
            raise ValueError("group_count must be >= 1")
        members: Dict[int, List[int]] = {}
        for obj, grp in enumerate(self.group_of_object):
            if not 0 <= grp < self.group_count:
                raise ValueError(
                    f"object {obj} mapped to group {grp}, outside "
                    f"[0, {self.group_count})"
                )
            members.setdefault(grp, []).append(obj)
        object.__setattr__(
            self,
            "_members",
            {grp: tuple(objs) for grp, objs in members.items()},
        )

    @property
    def num_objects(self) -> int:
        return len(self.group_of_object)

    def group_of(self, object_id: int) -> int:
        """Group id of one object."""
        return self.group_of_object[object_id]

    def members(self, group_id: int) -> Tuple[int, ...]:
        """All objects in one group (ascending ids; empty if none)."""
        if not 0 <= group_id < self.group_count:
            raise IndexError(f"group {group_id} out of range")
        return self._members.get(group_id, ())

    def group_sizes(self) -> Dict[int, int]:
        """Non-empty group sizes, for diagnostics."""
        return {grp: len(objs) for grp, objs in self._members.items()}

    @classmethod
    def generate(
        cls,
        num_objects: int,
        group_count: int,
        skew: float = 0.8,
        seed: int = 0,
    ) -> "GroupAssignment":
        """Deterministic Zipf-skewed membership.

        Each object independently draws its group from a
        ``ZipfSampler(group_count, skew)``; identical inputs always
        produce the identical assignment.
        """
        if num_objects < 1:
            raise ValueError("need at least one object")
        if group_count < 1:
            raise ValueError("group_count must be >= 1")
        if group_count > num_objects:
            raise ValueError(
                f"group_count ({group_count}) cannot exceed "
                f"num_objects ({num_objects})"
            )
        import numpy as np

        from repro.workload.zipf import ZipfSampler

        rng = np.random.default_rng(seed)
        sampler = ZipfSampler(group_count, skew)
        groups = sampler.sample(num_objects, rng)
        return cls(
            group_of_object=tuple(int(g) for g in groups),
            group_count=group_count,
            params={
                "num_objects": num_objects,
                "group_count": group_count,
                "skew": skew,
                "seed": seed,
            },
        )

    @classmethod
    def per_object(cls, num_objects: int) -> "GroupAssignment":
        """Identity assignment: object ``i`` is alone in group ``i``.

        Under this assignment one group event invalidates exactly one
        object, which is what makes the channel-vs-inband differential
        oracle well-defined.
        """
        if num_objects < 1:
            raise ValueError("need at least one object")
        return cls(
            group_of_object=tuple(range(num_objects)),
            group_count=num_objects,
            params={
                "num_objects": num_objects,
                "group_count": num_objects,
                "skew": 0.0,
                "seed": 0,
                "per_object": True,
            },
        )

    @classmethod
    def from_params(cls, params: dict) -> "GroupAssignment":
        """Rebuild an assignment from its ``params`` dict (manifest)."""
        if params.get("per_object"):
            return cls.per_object(int(params["num_objects"]))
        return cls.generate(
            num_objects=int(params["num_objects"]),
            group_count=int(params["group_count"]),
            skew=float(params.get("skew", 0.8)),
            seed=int(params.get("seed", 0)),
        )
