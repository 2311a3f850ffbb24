"""The request store: trace records, columnar storage and file I/O.

A trace entry mirrors the fields of the Boeing proxy logs the paper used
(section 3.1): request time, client id, target object (URL id), the owning
origin server, and the object size.  Traces can be streamed from or
persisted to CSV, so real proxy logs can replace the synthetic generator
after a straightforward field mapping.

Every trace is stored once, as columns:

* :class:`ColumnarTrace` keeps the five fields as parallel numpy arrays
  (struct-of-arrays), 24 bytes per request instead of one frozen
  dataclass of several hundred.  ``times`` is float64; each integer
  column (the three ids and the size) is int32 when all its values fit,
  else int64, chosen once where the column enters the store
  (:func:`int_column`).  Views (``view``, ``iter_chunks``, record
  slices) share the parent's arrays and keep their dtypes; ``rows``
  hands a per-request reader each row's scalars, converted to python
  one block of at most ``_BLOCK`` rows at a time, so the dtype never
  shows in a simulated number.
* :class:`Trace` is a thin wrapper over one ``ColumnarTrace``
  (``Trace.columns``) whose ``records`` is a read-only sequence view
  that builds a :class:`TraceRecord` only for the row asked for.  The
  two types differ only in how the simulation engine dispatches them: a
  ``Trace`` runs the reference loop, a ``ColumnarTrace`` the kernels.
"""

from __future__ import annotations

import csv
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain, starmap
from pathlib import Path
from typing import Iterable, Iterator, List, Tuple

import numpy as np

_CSV_HEADER = ["time", "client_id", "object_id", "server_id", "size"]

# One trace row: (time, client_id, object_id, server_id, size).
Row = Tuple[float, int, int, int, int]

# Rows per block handed to a reader (and per batch of the record
# iterator): bounds transient python-object memory while amortizing the
# numpy -> python conversion.  A block's five lists and their scalars
# take up to ~128 bytes a row, five times a stored row: 16 Ki rows keep
# them at about 2 MB.
_BLOCK = 16_384

_INT32 = np.iinfo(np.int32)


def int_dtype(low: int, high: int) -> type:
    """The store's dtype for integers in ``[low, high]``: int32 when
    they fit, else int64."""
    return np.int32 if _INT32.min <= low and high <= _INT32.max else np.int64


def int_column(values) -> np.ndarray:
    """``values`` as an array of the store's integer dtype.

    The store's one dtype rule for its integer columns (see
    :func:`int_dtype`): an int32 array is kept as it is, anything else
    is scanned once.  An empty column is int32.
    """
    column = np.asarray(values)
    if column.dtype == np.int32:
        return column
    column = column.astype(np.int64, copy=False)
    if column.size == 0:
        return column.astype(np.int32)
    return column.astype(
        int_dtype(column.min(), column.max()), copy=False
    )


def _check_row(
    time: float, client_id: int, object_id: int, server_id: int, size: int
) -> None:
    if time < 0:
        raise ValueError("request time must be non-negative")
    if size <= 0:
        raise ValueError("object size must be positive")
    if min(client_id, object_id, server_id) < 0:
        raise ValueError("ids must be non-negative")


@dataclass(frozen=True)
class TraceRecord:
    """One client request."""

    time: float
    client_id: int
    object_id: int
    server_id: int
    size: int

    def __post_init__(self) -> None:
        _check_row(
            self.time, self.client_id, self.object_id, self.server_id,
            self.size,
        )


class ColumnarTrace:
    """A time-ordered request trace stored as parallel numpy arrays."""

    __slots__ = ("times", "client_ids", "object_ids", "server_ids", "sizes")

    def __init__(
        self,
        times: np.ndarray,
        client_ids: np.ndarray,
        object_ids: np.ndarray,
        server_ids: np.ndarray,
        sizes: np.ndarray,
        validate: bool = True,
    ) -> None:
        self.times = np.asarray(times, dtype=np.float64)
        self.client_ids = int_column(client_ids)
        self.object_ids = int_column(object_ids)
        self.server_ids = int_column(server_ids)
        self.sizes = int_column(sizes)
        if validate:
            self._validate()

    def _validate(self) -> None:
        n = len(self.times)
        if any(len(column) != n for column in self.arrays):
            raise ValueError("trace columns must have equal length")
        if n == 0:
            return
        # The checks TraceRecord and the time order impose, vectorized.
        if float(self.times[0]) < 0:
            raise ValueError("request time must be non-negative")
        # A comparison, not np.diff: its mask is 1 byte a row, not 9.
        if np.any(self.times[1:] < self.times[:-1]):
            raise ValueError("trace records must be time-ordered")
        if int(self.sizes.min()) <= 0:
            raise ValueError("object size must be positive")
        if min(int(c.min()) for c in self.arrays[1:4]) < 0:
            raise ValueError("ids must be non-negative")

    @property
    def arrays(self) -> Tuple[np.ndarray, ...]:
        """The five columns, in :class:`TraceRecord` field order."""
        return (
            self.times, self.client_ids, self.object_ids, self.server_ids,
            self.sizes,
        )

    def _take(self, index) -> "ColumnarTrace":
        """The rows ``index`` selects (a view for a slice, a gather for a
        mask); a selection of a valid trace in order needs no re-check,
        and its columns keep this trace's dtypes without a scan."""
        taken = ColumnarTrace.__new__(ColumnarTrace)
        for name, column in zip(self.__slots__, self.arrays):
            setattr(taken, name, column[index])
        return taken

    # -- readers --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.times)

    def rows(self) -> Iterator[Row]:
        """Every row's five scalars, in :class:`TraceRecord` field order.

        The one way a per-request loop, the columnar kernels included,
        reads a trace: the columns are converted to python lists one
        block of at most ``_BLOCK`` rows at a time; no record is built.
        """
        arrays = self.arrays
        return chain.from_iterable(
            zip(*(c[start:start + _BLOCK].tolist() for c in arrays))
            for start in range(0, len(self.times), _BLOCK)
        )

    def __iter__(self) -> Iterator[TraceRecord]:
        """Yield :class:`TraceRecord` objects lazily, one block at a time."""
        return starmap(TraceRecord, self.rows())

    def __getitem__(self, index: int) -> TraceRecord:
        return TraceRecord(*(c[index].item() for c in self.arrays))

    @property
    def records(self) -> "RecordsView":
        """The rows as a read-only sequence of records."""
        return RecordsView(self)

    # -- Trace-compatible accessors ------------------------------------------

    @property
    def duration(self) -> float:
        if len(self.times) == 0:
            return 0.0
        return float(self.times[-1]) - float(self.times[0])

    def split_warmup(self, warmup_fraction: float = 0.5) -> tuple[int, int]:
        """Index split per the paper: first half warms up, second half measures.

        Returns ``(warmup_end, total)`` -- records with index >=
        ``warmup_end`` are the measurement window.
        """
        if not 0 <= warmup_fraction < 1:
            raise ValueError("warmup_fraction must be in [0, 1)")
        n = len(self.times)
        return int(n * warmup_fraction), n

    def total_requested_bytes(self, start: int = 0) -> int:
        return int(self.sizes[start:].sum())

    def unique_objects(self) -> int:
        return len(np.unique(self.object_ids))

    def most_popular(self, top: int) -> List[int]:
        """Ids of the ``top`` most-requested objects, by request count.

        Ties break towards the smaller object id (count desc, id asc).
        """
        ids, counts = np.unique(self.object_ids, return_counts=True)
        # lexsort's last key is primary: order by -count, then id ascending.
        order = np.lexsort((ids, -counts))
        return ids[order[:top]].tolist()

    def filter_objects(self, keep: Iterable[int]) -> "ColumnarTrace":
        """Subtrace containing only requests for the given objects.

        This is the paper's subtrace extraction (section 3.1): keeping only
        the most popular objects preserves relative access frequencies.
        """
        keep_ids = np.fromiter(set(keep), dtype=np.int64)
        return self._take(np.isin(self.object_ids, keep_ids))

    # -- views and chunking ---------------------------------------------------

    def view(self, start: int, stop: int) -> "ColumnarTrace":
        """Zero-copy sub-trace ``[start:stop)`` sharing the parent arrays."""
        return self._take(slice(start, stop))

    def iter_chunks(self, chunk_records: int) -> Iterator["ColumnarTrace"]:
        """Yield consecutive zero-copy views of up to ``chunk_records`` each."""
        if chunk_records < 1:
            raise ValueError("chunk_records must be >= 1")
        n = len(self.times)
        for start in range(0, n, chunk_records):
            yield self.view(start, min(start + chunk_records, n))

    # -- adapters -------------------------------------------------------------

    @classmethod
    def from_records(cls, records: Iterable[TraceRecord]) -> "ColumnarTrace":
        """Build from materialized records (columns validated once)."""
        records = list(records)
        return cls(
            [r.time for r in records],
            [r.client_id for r in records],
            [r.object_id for r in records],
            [r.server_id for r in records],
            [r.size for r in records],
        )

    @classmethod
    def from_trace(cls, trace: "Trace") -> "ColumnarTrace":
        """The columns ``trace`` wraps (shared, not copied)."""
        return trace.columns

    def to_trace(self) -> "Trace":
        """The reference-loop representation, sharing these columns."""
        return Trace(self.records)

    @classmethod
    def concat(cls, chunks: Sequence["ColumnarTrace"]) -> "ColumnarTrace":
        """Concatenate chunks (e.g. from a streaming generator) into one trace."""
        chunks = list(chunks)
        if not chunks:
            return cls([], [], [], [], [], validate=False)
        return cls(*(
            np.concatenate(columns)
            for columns in zip(*(c.arrays for c in chunks))
        ))


class RecordsView(Sequence):
    """A read-only sequence of :class:`TraceRecord` over trace columns.

    Indexing builds the one record asked for; a slice (of positive step)
    is another view sharing the columns; iteration builds records one
    block at a time.  Compares equal to any sequence of equal records.
    """

    __slots__ = ("columns",)

    def __init__(self, columns: ColumnarTrace) -> None:
        self.columns = columns

    def __len__(self) -> int:
        return len(self.columns)

    def __getitem__(self, index):
        if not isinstance(index, slice):
            return self.columns[index]
        if (index.step or 1) < 0:
            # Reversed rows are no trace: hand back plain records.
            return list(self)[index]
        return self.columns._take(index).records

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.columns)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RecordsView):
            return len(self) == len(other) and all(
                np.array_equal(a, b)
                for a, b in zip(self.columns.arrays, other.columns.arrays)
            )
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(
            a == b for a, b in zip(self, other)
        )

    def __repr__(self) -> str:
        return f"RecordsView({len(self)} records)"


class Trace:
    """A time-ordered request trace: records over one :class:`ColumnarTrace`.

    ``Trace(records)`` builds the columns once from a sequence of
    records; ``Trace(trace.records[a:b])`` and
    :meth:`ColumnarTrace.to_trace` share their columns instead.
    """

    __slots__ = ("columns",)

    def __init__(self, records: Iterable[TraceRecord]) -> None:
        if isinstance(records, RecordsView):
            self.columns = records.columns
        else:
            self.columns = ColumnarTrace.from_records(records)

    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.columns)

    def __getitem__(self, index):
        return self.records[index]

    @property
    def records(self) -> RecordsView:
        """The records, as a read-only sequence view over the columns."""
        return RecordsView(self.columns)

    @property
    def duration(self) -> float:
        return self.columns.duration

    def split_warmup(self, warmup_fraction: float = 0.5) -> tuple[int, int]:
        """See :meth:`ColumnarTrace.split_warmup`."""
        return self.columns.split_warmup(warmup_fraction)

    def total_requested_bytes(self, start: int = 0) -> int:
        return self.columns.total_requested_bytes(start)

    def unique_objects(self) -> int:
        return self.columns.unique_objects()

    def most_popular(self, top: int) -> List[int]:
        """See :meth:`ColumnarTrace.most_popular`."""
        return self.columns.most_popular(top)

    def filter_objects(self, keep: Iterable[int]) -> "Trace":
        """See :meth:`ColumnarTrace.filter_objects`."""
        return self.columns.filter_objects(keep).to_trace()


def write_trace_csv_columnar(trace: ColumnarTrace, path: str | Path) -> None:
    """Persist a trace's columns to CSV with a header row."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(_CSV_HEADER)
        # repr round-trips floats exactly (shortest representation).
        writer.writerows((repr(time), *ids) for time, *ids in trace.rows())


def write_trace_csv(trace: Trace, path: str | Path) -> None:
    """Persist a trace to CSV with a header row."""
    write_trace_csv_columnar(trace.columns, path)


def read_trace_csv(path: str | Path) -> Trace:
    """Load a trace previously written by :func:`write_trace_csv`.

    A malformed row -- too few or too many fields, a non-numeric or
    fractional id or size, or a value :class:`TraceRecord` rejects --
    raises ``ValueError`` naming the file and line: ``"<path>:<line>:
    ..."``.  The fields go straight into the columns; no record is built.
    """
    times: List[float] = []
    clients: List[int] = []
    objects: List[int] = []
    servers: List[int] = []
    sizes: List[int] = []
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
            try:
                time = float(row[0])
                client_id, object_id, server_id, size = map(int, row[1:])
                _check_row(time, client_id, object_id, server_id, size)
            except ValueError as error:
                raise ValueError(
                    f"{path}:{reader.line_num}: {error}"
                ) from error
            times.append(time)
            clients.append(client_id)
            objects.append(object_id)
            servers.append(server_id)
            sizes.append(size)
    return ColumnarTrace(times, clients, objects, servers, sizes).to_trace()


def read_trace_csv_columnar(path: str | Path) -> ColumnarTrace:
    """Load a trace CSV into columns: :func:`read_trace_csv`'s parse."""
    return read_trace_csv(path).columns
