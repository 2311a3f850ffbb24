"""Execution layer for experiment grids.

The figure-regenerating sweeps are embarrassingly parallel grids of
(scheme, configuration) points over one shared trace and architecture.
This module runs such grids fast, resumably and observably:

* **Per-worker state reuse.**  With ``workers > 1`` the architecture,
  trace and catalog are shipped to each worker process exactly **once**
  through the pool initializer; the per-point work items crossing the
  pipe afterwards are tiny :class:`GridTask` tuples.  (The previous
  design re-pickled the full trace for every grid point.)

* **Checkpointing.**  With a ``checkpoint_path``, every completed point
  is appended to a JSONL checkpoint the moment it finishes (see
  :mod:`repro.experiments.results_io`).  A killed sweep restarted with
  ``resume=True`` loads the checkpoint and re-executes only the missing
  points.

* **Observability.**  Each point produces a :class:`RunRecord` (scheme,
  size, wall-clock duration, throughput, worker id) and fires a
  :class:`ProgressEvent` through the optional ``progress`` callback, so
  long grids report liveness and leave a structured account of where the
  time went.

:func:`run_grid` is the engine; the public sweep fronts in
:mod:`repro.experiments.sweeps` and the multi-seed harness in
:mod:`repro.experiments.robustness` are built on it.
"""

from __future__ import annotations

import functools
import json
import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.coherency.policy import build_policy
from repro.costs.model import LatencyCostModel
from repro.experiments.points import SweepPoint
from repro.experiments.results_io import CheckpointWriter, load_checkpoint
from repro.obs.instruments import Instruments
from repro.obs.registry import StatRegistry
from repro.sim.architecture import Architecture
from repro.sim.config import SimulationConfig
from repro.sim.engine import SimulationEngine
from repro.sim.factory import build_scheme
from repro.verify.auditor import AuditConfig
from repro.verify.replay import audited_run
from repro.workload.catalog import ObjectCatalog
from repro.workload.trace import ColumnarTrace, Trace


@dataclass(frozen=True)
class GridTask:
    """One grid point: a scheme name, a config and extra scheme params.

    Deliberately tiny -- this is all that crosses the process-pool pipe
    per point; the heavy shared state travels via the pool initializer.
    """

    scheme: str
    config: SimulationConfig
    params: Dict[str, object] = field(default_factory=dict)

    def key(self, architecture_name: str) -> str:
        """Stable checkpoint identity of this point on one architecture."""
        return json.dumps(
            {
                "architecture": architecture_name,
                "scheme": self.scheme,
                "relative_cache_size": self.config.relative_cache_size,
                "dcache_ratio": self.config.dcache_ratio,
                "warmup_fraction": self.config.warmup_fraction,
                "params": {k: self.params[k] for k in sorted(self.params)},
            },
            sort_keys=True,
        )


@dataclass(frozen=True)
class RunRecord:
    """Observability record of one executed (or reused) grid point.

    ``audit_checks`` / ``audit_violations`` are populated only on audited
    runs (``audit=True``): the number of audit checks executed and the
    structured :meth:`~repro.verify.violations.AuditViolation.to_dict`
    records of every violation found -- these land verbatim in the
    checkpoint / run-record sidecars so a grid's correctness evidence
    survives alongside its metrics.

    ``node_stats`` is ``None`` unless the point ran with the per-node
    stat registry attached (``node_stats=True``): the final
    ``{node: counters}`` snapshot (JSON keys, so node ids are strings),
    persisted in the same sidecars so a grid's per-node behavior
    survives alongside its metrics.
    """

    key: str
    scheme: str
    relative_cache_size: float
    duration_seconds: float
    requests: int
    requests_per_second: float
    worker: int
    reused: bool = False
    audit_checks: int = 0
    audit_violations: Tuple[dict, ...] = ()
    node_stats: Optional[dict] = None

    def to_dict(self) -> dict:
        return {
            "key": self.key,
            "scheme": self.scheme,
            "relative_cache_size": self.relative_cache_size,
            "duration_seconds": self.duration_seconds,
            "requests": self.requests,
            "requests_per_second": self.requests_per_second,
            "worker": self.worker,
            "reused": self.reused,
            "audit_checks": self.audit_checks,
            "audit_violations": [dict(v) for v in self.audit_violations],
            "node_stats": self.node_stats,
        }

    @classmethod
    def from_dict(cls, raw: dict, *, reused: bool | None = None) -> "RunRecord":
        violations = raw.get("audit_violations", ())
        if not isinstance(violations, (list, tuple)):
            violations = ()
        node_stats = raw.get("node_stats")
        return cls(
            key=raw.get("key", ""),
            scheme=raw.get("scheme", ""),
            relative_cache_size=float(raw.get("relative_cache_size", 0.0)),
            duration_seconds=float(raw.get("duration_seconds", 0.0)),
            requests=int(raw.get("requests", 0)),
            requests_per_second=float(raw.get("requests_per_second", 0.0)),
            worker=int(raw.get("worker", 0)),
            reused=raw.get("reused", False) if reused is None else reused,
            audit_checks=int(raw.get("audit_checks", 0)),
            audit_violations=tuple(
                dict(v) for v in violations if isinstance(v, dict)
            ),
            node_stats=dict(node_stats) if isinstance(node_stats, dict) else None,
        )


@dataclass(frozen=True)
class ProgressEvent:
    """Fired through the ``progress`` callback once per finished point."""

    completed: int
    total: int
    record: RunRecord

    @property
    def reused(self) -> bool:
        return self.record.reused

    def format(self) -> str:
        """One human-readable progress line (used by the CLI)."""
        status = "reused" if self.record.reused else (
            f"{self.record.duration_seconds:.1f}s, "
            f"{self.record.requests_per_second:,.0f} req/s"
        )
        return (
            f"[{self.completed}/{self.total}] {self.record.scheme} "
            f"@ {self.record.relative_cache_size:g} ({status})"
        )


@dataclass(frozen=True)
class GridResult:
    """Everything :func:`run_grid` produces for one grid."""

    points: List[SweepPoint]
    records: List[RunRecord]


def execute_point(
    architecture: Architecture,
    trace: Trace | ColumnarTrace,
    catalog: ObjectCatalog,
    task: GridTask,
    audit: Union[bool, AuditConfig] = False,
    node_stats: bool = False,
    observers: Sequence = (),
    updates: Sequence = (),
    coherency=None,
) -> Tuple[SweepPoint, RunRecord]:
    """Run one grid point in this process; returns its point and record.

    ``audit`` enables the correctness audit layer for the point: ``True``
    uses a collecting (non-strict) :class:`~repro.verify.auditor.
    AuditConfig`; pass a config instance for full control.  An audited
    point runs through :func:`~repro.verify.replay.audited_run`, whose
    shadow replay (when the config asks for one) sees the same updates
    and coherency configuration as the primary run.  Audited points run
    with the ``mirrored`` NCL structure (where the scheme has one) so
    every eviction decision is differentially checked -- the overlay
    happens *after* the checkpoint key is computed, so audited
    and unaudited grids share checkpoint identities (and metrics, which
    auditing never changes).

    ``observers`` ride along the point's run (see
    :meth:`SimulationEngine.run`): e.g. an
    :class:`~repro.obs.instruments.Instruments` bundle with a probe,
    registry or timers, or an
    :class:`~repro.metrics.timeseries.IntervalMetricsCollector`.
    ``node_stats`` adds a bundle with a fresh per-node stat registry
    (see :mod:`repro.obs`); a bundle's final registry snapshot lands on
    the record.  Both are observational only -- metrics and checkpoint
    identities are unchanged.

    ``updates`` threads a time-ordered update-event stream (per-object
    or group-targeted) through the replay, and ``coherency`` -- a
    :class:`~repro.coherency.config.CoherencyConfig` -- selects how
    those updates reach the caches (in-band broadcast vs. pub/sub
    channel).  With a coherency config the point's accounting lands on
    ``SweepPoint.coherency``; without one the engine keeps its implicit
    in-band behavior and surfaces nothing, bit-identical to before the
    seam existed.  Checkpoint identities deliberately ignore both --
    the update stream is an input, not a grid axis.

    Provisioning points (``repro sweep --provision``) carry a
    ``level_multipliers`` param -- JSON-keyed ``{level: multiplier}`` --
    which IS part of the checkpoint key (it is a grid axis).  It is
    translated here into per-node ``capacity_overrides`` via
    :func:`~repro.sim.architecture.level_capacity_overrides`, preserving
    the total capacity budget, and echoed on ``SweepPoint.provision``
    (with the optional ``provision_profile`` label) so downstream
    consumers can separate sizing profiles from uniform runs.
    """
    config = task.config
    key = task.key(architecture.name)
    cost_model = LatencyCostModel(architecture.network, catalog.mean_size)
    capacity = config.capacity_bytes(catalog.total_bytes)
    dcache_entries = config.dcache_entries(catalog.total_bytes, catalog.mean_size)
    params = dict(task.params)
    provision = None
    multipliers = params.pop("level_multipliers", None)
    profile = params.pop("provision_profile", None)
    if multipliers is not None:
        from repro.sim.architecture import level_capacity_overrides

        params["capacity_overrides"] = level_capacity_overrides(
            architecture.network,
            capacity,
            {int(level): float(m) for level, m in multipliers.items()},
        )
        provision = {
            "level_multipliers": {
                str(level): float(m) for level, m in multipliers.items()
            }
        }
        if profile is not None:
            provision["profile"] = profile
    if node_stats:
        observers = (*observers, Instruments(registry=StatRegistry()))
    if audit:
        params.setdefault("ncl_structure", "mirrored")
    scheme_factory = functools.partial(
        build_scheme, task.scheme, cost_model, capacity, dcache_entries, **params
    )
    new_policy = (
        functools.partial(build_policy, coherency, catalog.num_objects)
        if coherency is not None
        else None
    )
    if audit:
        result, _ = audited_run(
            architecture,
            cost_model,
            scheme_factory,
            trace,
            config=(
                audit
                if isinstance(audit, AuditConfig)
                else AuditConfig(strict=False)
            ),
            warmup_fraction=config.warmup_fraction,
            updates=updates,
            coherency=new_policy,
            observers=observers,
        )
    else:
        engine = SimulationEngine(
            architecture,
            cost_model,
            scheme_factory(),
            warmup_fraction=config.warmup_fraction,
        )
        result = engine.run(
            trace,
            updates=updates,
            coherency=new_policy() if new_policy is not None else None,
            observers=observers,
        )
    point = SweepPoint(
        architecture=architecture.name,
        scheme=result.scheme,
        relative_cache_size=config.relative_cache_size,
        summary=result.summary,
        coherency=result.coherency,
        provision=provision,
    )
    record = RunRecord(
        key=key,
        scheme=result.scheme,
        relative_cache_size=config.relative_cache_size,
        duration_seconds=result.duration_seconds,
        requests=result.requests_total,
        requests_per_second=result.requests_per_second,
        worker=os.getpid(),
        audit_checks=result.audit.total_checks if result.audit else 0,
        audit_violations=tuple(
            v.to_dict() for v in (result.audit.violations if result.audit else ())
        ),
        node_stats=(
            {str(node): stats for node, stats in result.node_stats.items()}
            if result.node_stats is not None
            else None
        ),
    )
    return point, record


# -- process-pool plumbing --------------------------------------------------

# Shared state installed once per worker process by the pool initializer;
# the per-task payload is then just the GridTask itself.
_WORKER_STATE: Optional[
    Tuple[Architecture, Trace, ObjectCatalog, Union[bool, AuditConfig], bool]
] = None


def _init_worker(
    architecture: Architecture,
    trace: Trace | ColumnarTrace,
    catalog: ObjectCatalog,
    audit: Union[bool, AuditConfig] = False,
    node_stats: bool = False,
) -> None:
    global _WORKER_STATE
    _WORKER_STATE = (architecture, trace, catalog, audit, node_stats)


def _run_pooled(task: GridTask) -> Tuple[SweepPoint, RunRecord]:
    if _WORKER_STATE is None:  # pragma: no cover - defensive
        raise RuntimeError("worker used without initializer")
    architecture, trace, catalog, audit, node_stats = _WORKER_STATE
    return execute_point(
        architecture, trace, catalog, task, audit=audit, node_stats=node_stats
    )


def run_grid(
    architecture: Architecture,
    trace: Trace | ColumnarTrace,
    catalog: ObjectCatalog,
    tasks: Sequence[GridTask],
    workers: int = 1,
    checkpoint_path: str | Path | None = None,
    resume: bool = False,
    progress: Optional[Callable[[ProgressEvent], None]] = None,
    audit: Union[bool, AuditConfig] = False,
    node_stats: bool = False,
) -> GridResult:
    """Execute a grid of tasks; returns points in task order.

    ``workers > 1`` fans the grid out over a process pool whose workers
    receive the (architecture, trace, catalog) state once, at pool
    start-up.  Points are independent and fully deterministic, so the
    result is identical to the sequential run regardless of worker count
    or completion order.

    ``checkpoint_path`` streams every finished point to a JSONL file;
    with ``resume=True`` points already present there are *not*
    re-executed -- their stored summaries are returned (records flagged
    ``reused=True``) and only the missing grid points run.  Without
    ``resume`` an existing checkpoint is overwritten.

    ``progress`` receives one :class:`ProgressEvent` per finished point
    (reused points first, then live completions as they land).

    ``audit`` threads the correctness audit layer through every executed
    point (see :func:`execute_point`); violations surface as structured
    ``audit_violations`` entries on each point's :class:`RunRecord` and
    in the checkpoint sidecar.  Reused checkpoint points are *not*
    re-audited -- their records keep whatever audit evidence the original
    execution stored.

    ``node_stats`` attaches the per-node stat registry to every executed
    point; each record (and checkpoint sidecar entry) then carries the
    final ``{node: counters}`` snapshot.  Like auditing, this never
    changes metrics or checkpoint identities, and reused points keep
    whatever snapshot (or ``None``) their original execution stored.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    tasks = list(tasks)
    keys = [task.key(architecture.name) for task in tasks]
    if len(set(keys)) != len(keys):
        duplicates = sorted({k for k in keys if keys.count(k) > 1})
        raise ValueError(f"duplicate grid tasks: {duplicates[:3]}")

    done: Dict[str, Tuple[SweepPoint, dict]] = {}
    if resume and checkpoint_path is not None:
        done = load_checkpoint(checkpoint_path)

    points: List[Optional[SweepPoint]] = [None] * len(tasks)
    records: List[Optional[RunRecord]] = [None] * len(tasks)
    total = len(tasks)
    completed = 0

    # Reused points surface first, in task order.
    pending: List[int] = []
    for index, key in enumerate(keys):
        if key in done:
            point, raw_record = done[key]
            points[index] = point
            records[index] = RunRecord.from_dict(
                {**raw_record, "key": key}, reused=True
            )
            completed += 1
            if progress is not None:
                progress(ProgressEvent(completed, total, records[index]))
        else:
            pending.append(index)

    writer = (
        CheckpointWriter(checkpoint_path, resume=resume)
        if checkpoint_path is not None
        else None
    )
    try:
        def finish(index: int, point: SweepPoint, record: RunRecord) -> None:
            nonlocal completed
            points[index] = point
            records[index] = record
            completed += 1
            if writer is not None:
                writer.write(keys[index], point, record.to_dict())
            if progress is not None:
                progress(ProgressEvent(completed, total, record))

        if workers == 1 or len(pending) <= 1:
            for index in pending:
                point, record = execute_point(
                    architecture,
                    trace,
                    catalog,
                    tasks[index],
                    audit=audit,
                    node_stats=node_stats,
                )
                finish(index, point, record)
        else:
            pool_size = min(workers, len(pending))
            with ProcessPoolExecutor(
                max_workers=pool_size,
                initializer=_init_worker,
                initargs=(architecture, trace, catalog, audit, node_stats),
            ) as executor:
                futures = {
                    executor.submit(_run_pooled, tasks[index]): index
                    for index in pending
                }
                for future in as_completed(futures):
                    point, record = future.result()
                    finish(futures[future], point, record)
    finally:
        if writer is not None:
            writer.close()

    assert all(p is not None for p in points)
    return GridResult(points=list(points), records=list(records))
