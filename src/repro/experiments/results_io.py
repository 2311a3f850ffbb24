"""Persisting sweep results: JSON documents, checkpoints, run records.

Long sweeps are expensive; saving their points lets EXPERIMENTS.md-style
reports, charts and regression comparisons be regenerated without
re-simulating.  Three formats live here:

* **results JSON** (:func:`save_points_json` / :func:`load_points_json`)
  -- a plain versioned document with every point of a finished sweep;
* **checkpoint JSONL** (:class:`CheckpointWriter` /
  :func:`load_checkpoint`) -- one line per *completed* grid point,
  appended and flushed as the experiment runner finishes it, so an
  interrupted sweep resumes by skipping the lines already present.  A
  truncated trailing line (the signature of a killed run) is ignored and
  its point simply re-executes;
* **run records JSON** (:func:`save_run_records`) -- the observability
  sidecar: per-point wall-clock duration, throughput and worker id.
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from repro.experiments.points import SweepPoint
from repro.metrics.collector import MetricsSummary

_SCHEMA_VERSION = 1
_CHECKPOINT_SCHEMA_VERSION = 1
_RECORDS_SCHEMA_VERSION = 1


def point_to_dict(point: SweepPoint) -> dict:
    """One sweep point as a JSON-ready dictionary."""
    document = {
        "architecture": point.architecture,
        "scheme": point.scheme,
        "relative_cache_size": point.relative_cache_size,
        "summary": dataclasses.asdict(point.summary),
    }
    if point.coherency is not None:
        document["coherency"] = point.coherency
    if point.provision is not None:
        document["provision"] = point.provision
    return document


def point_from_dict(raw: dict) -> SweepPoint:
    """Inverse of :func:`point_to_dict`."""
    summary = dict(raw["summary"])
    if "latency_percentiles" in summary:
        summary["latency_percentiles"] = tuple(summary["latency_percentiles"])
    return SweepPoint(
        architecture=raw["architecture"],
        scheme=raw["scheme"],
        relative_cache_size=raw["relative_cache_size"],
        summary=MetricsSummary(**summary),
        coherency=raw.get("coherency"),
        provision=raw.get("provision"),
    )


def _dump_json_atomic(document: dict, path: str | Path) -> None:
    """Write a JSON document crash-safely.

    Serializes into a temporary file in the destination directory and
    renames it over the target with ``os.replace``, so an interrupt (or a
    serialization error) mid-write can never destroy an existing file --
    readers see either the old complete document or the new one.
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent or Path("."), prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as f:
            json.dump(document, f, indent=2)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def save_points_json(points: Sequence[SweepPoint], path: str | Path) -> None:
    """Write sweep points (with full metric summaries) to a JSON file.

    The write is atomic (temp file + rename): a crash mid-write leaves
    any previous results file intact instead of a truncated document.
    """
    document = {
        "schema_version": _SCHEMA_VERSION,
        "points": [point_to_dict(p) for p in points],
    }
    _dump_json_atomic(document, path)


def load_points_json(path: str | Path) -> List[SweepPoint]:
    """Load sweep points previously written by :func:`save_points_json`."""
    with open(path) as f:
        document = json.load(f)
    version = document.get("schema_version")
    if version != _SCHEMA_VERSION:
        raise ValueError(f"unsupported results schema version: {version!r}")
    return [point_from_dict(raw) for raw in document["points"]]


# -- checkpoints ------------------------------------------------------------


class CheckpointWriter:
    """Append-only JSONL sink streaming completed grid points to disk.

    Every :meth:`write` emits one self-contained line and flushes it, so
    the file always reflects the set of finished points even if the
    process dies mid-sweep.  Use as a context manager.
    """

    def __init__(self, path: str | Path, resume: bool = False) -> None:
        self.path = Path(path)
        self._file = open(self.path, "a" if resume else "w")

    def write(self, key: str, point: SweepPoint, record: dict) -> None:
        line = {
            "schema_version": _CHECKPOINT_SCHEMA_VERSION,
            "key": key,
            "point": point_to_dict(point),
            "record": record,
        }
        self._file.write(json.dumps(line) + "\n")
        self._file.flush()

    def close(self) -> None:
        self._file.close()

    def __enter__(self) -> "CheckpointWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def load_checkpoint(path: str | Path) -> Dict[str, Tuple[SweepPoint, dict]]:
    """Read a checkpoint file into ``{key: (point, record)}``.

    Malformed lines -- a truncated trailing line left by a killed run,
    a line missing its ``"key"`` or ``"point"``, non-JSON garbage -- are
    all skipped the same way: their points simply re-execute on resume.
    A later line for the same key wins (harmless duplicate work).
    """
    done: Dict[str, Tuple[SweepPoint, dict]] = {}
    path = Path(path)
    if not path.exists():
        return done
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            try:
                raw = json.loads(line)
            except json.JSONDecodeError:
                continue
            if not isinstance(raw, dict):
                continue
            if raw.get("schema_version") != _CHECKPOINT_SCHEMA_VERSION:
                continue
            key = raw.get("key")
            if not isinstance(key, str):
                continue
            try:
                point = point_from_dict(raw["point"])
            except (KeyError, TypeError):
                continue
            record = raw.get("record")
            done[key] = (point, dict(record) if isinstance(record, dict) else {})
    return done


# -- run records ------------------------------------------------------------


def save_run_records(records: Sequence, path: str | Path) -> None:
    """Write per-point run records (the observability sidecar) as JSON.

    Accepts dataclass instances (e.g. the runner's ``RunRecord``) or
    plain dictionaries.  Like :func:`save_points_json` the write is
    atomic, so an interrupt cannot destroy an existing sidecar.
    """
    rows = [
        dataclasses.asdict(r) if dataclasses.is_dataclass(r) else dict(r)
        for r in records
    ]
    document = {"schema_version": _RECORDS_SCHEMA_VERSION, "records": rows}
    _dump_json_atomic(document, path)


def load_run_records(path: str | Path) -> List[dict]:
    """Load run records previously written by :func:`save_run_records`."""
    with open(path) as f:
        document = json.load(f)
    version = document.get("schema_version")
    if version != _RECORDS_SCHEMA_VERSION:
        raise ValueError(f"unsupported run-records schema version: {version!r}")
    return [dict(r) for r in document["records"]]
