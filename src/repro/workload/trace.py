"""Trace records and file I/O.

A trace entry mirrors the fields of the Boeing proxy logs the paper used
(section 3.1): request time, client id, target object (URL id), the owning
origin server, and the object size.  Traces can be streamed from or
persisted to CSV, so real proxy logs can replace the synthetic generator
after a straightforward field mapping.
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, List, Sequence

_CSV_HEADER = ["time", "client_id", "object_id", "server_id", "size"]


@dataclass(frozen=True)
class TraceRecord:
    """One client request."""

    time: float
    client_id: int
    object_id: int
    server_id: int
    size: int

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError("request time must be non-negative")
        if self.size <= 0:
            raise ValueError("object size must be positive")
        if min(self.client_id, self.object_id, self.server_id) < 0:
            raise ValueError("ids must be non-negative")


class Trace:
    """An in-memory, time-ordered sequence of trace records."""

    def __init__(self, records: Sequence[TraceRecord]) -> None:
        self._records = list(records)
        for earlier, later in zip(self._records, self._records[1:]):
            if later.time < earlier.time:
                raise ValueError("trace records must be time-ordered")

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    def __getitem__(self, index: int) -> TraceRecord:
        return self._records[index]

    @property
    def records(self) -> List[TraceRecord]:
        """The underlying records (do not mutate)."""
        return self._records

    @property
    def duration(self) -> float:
        if not self._records:
            return 0.0
        return self._records[-1].time - self._records[0].time

    def split_warmup(self, warmup_fraction: float = 0.5) -> tuple[int, int]:
        """Index split per the paper: first half warms up, second half measures.

        Returns ``(warmup_end, total)`` -- records with index >=
        ``warmup_end`` are the measurement window.
        """
        if not 0 <= warmup_fraction < 1:
            raise ValueError("warmup_fraction must be in [0, 1)")
        return int(len(self._records) * warmup_fraction), len(self._records)

    def total_requested_bytes(self, start: int = 0) -> int:
        # islice instead of a list-slice copy: summing the tail of a large
        # trace must not allocate a second tail.
        return sum(r.size for r in islice(self._records, start, None))

    def unique_objects(self) -> int:
        return len({r.object_id for r in self._records})

    def most_popular(self, top: int) -> List[int]:
        """Ids of the ``top`` most-requested objects, by request count.

        Ties break towards the smaller object id (count desc, id asc).
        """
        counts = Counter(r.object_id for r in self._records)
        ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        return [object_id for object_id, _ in ranked[:top]]

    def filter_objects(self, keep: Iterable[int]) -> "Trace":
        """Subtrace containing only requests for the given objects.

        This is the paper's subtrace extraction (section 3.1): keeping only
        the most popular objects preserves relative access frequencies.
        """
        keep_set = set(keep)
        return Trace([r for r in self._records if r.object_id in keep_set])


def write_trace_csv(trace: Trace, path: str | Path) -> None:
    """Persist a trace to CSV with a header row."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(_CSV_HEADER)
        for r in trace:
            # repr round-trips floats exactly (shortest representation).
            writer.writerow(
                [repr(r.time), r.client_id, r.object_id, r.server_id, r.size]
            )


def read_trace_csv(path: str | Path) -> Trace:
    """Load a trace previously written by :func:`write_trace_csv`.

    A malformed row -- too few or too many fields, a non-numeric field,
    or a value :class:`TraceRecord` rejects -- raises ``ValueError``
    naming the file and line: ``"<path>:<line>: ..."``.
    """
    records: List[TraceRecord] = []
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header != _CSV_HEADER:
            raise ValueError(f"unexpected trace header: {header!r}")
        for row in reader:
            if len(row) != len(_CSV_HEADER):
                raise ValueError(
                    f"{path}:{reader.line_num}: expected "
                    f"{len(_CSV_HEADER)} fields, got {len(row)}"
                )
            time, client_id, object_id, server_id, size = row
            try:
                record = TraceRecord(
                    time=float(time),
                    client_id=int(client_id),
                    object_id=int(object_id),
                    server_id=int(server_id),
                    size=int(size),
                )
            except ValueError as error:
                raise ValueError(
                    f"{path}:{reader.line_num}: {error}"
                ) from error
            records.append(record)
    return Trace(records)
