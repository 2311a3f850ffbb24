"""The runtime audit driver: an observer of a simulation run.

An :class:`Auditor` rides along a :meth:`SimulationEngine.run
<repro.sim.engine.SimulationEngine.run>` replay as one of its
``observers``:

* it observes every request outcome (feeding the :class:`OutcomeLedger`
  double books and sampling outcome signatures for the shadow-replay
  harness);
* every ``audit_every`` requests -- and once at the end -- it sweeps the
  scheme's invariants plus the cross-layer accounting identities;
* on coordinated schemes it installs a :class:`~repro.verify.oracles.
  PlacementOracle` on the ``placement_observer`` seam, differential-
  checking the live placement DP against the exhaustive reference.

``strict=True`` (the default) raises :class:`AuditFailure` at the first
violation -- the loud mode behind ``repro sim --audit``.  The experiment
runner uses ``strict=False`` so violations become structured records in
the checkpoint / run-record sidecars instead of aborting a whole grid.

None of the audit work feeds back into the simulation: an audited run's
metrics are bit-identical to the same run without an auditor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.verify.invariants import (
    OutcomeLedger,
    cache_accounting_violations,
    scheme_invariant_violations,
)
from repro.verify.oracles import MirroredNCLCache, PlacementOracle
from repro.verify.violations import AuditFailure, AuditViolation


@dataclass(frozen=True)
class AuditConfig:
    """Knobs of one audited run.

    ``audit_every`` is the periodic sweep cadence in requests.
    ``placement_sample_every`` / ``brute_force_limit`` control the
    placement oracle (every Nth live problem, brute-forced only up to
    the given path length).  ``shadow_replay`` asks the harness driving
    the run to re-execute the trace on a fresh scheme afterwards and
    compare outcome signatures sampled every
    ``shadow_replay_sample_every`` requests.  ``strict`` selects loud
    (raise) versus collecting behavior.
    """

    audit_every: int = 1000
    placement_sample_every: int = 37
    brute_force_limit: int = 12
    shadow_replay: bool = False
    shadow_replay_sample_every: int = 17
    strict: bool = True

    def __post_init__(self) -> None:
        if self.audit_every < 1:
            raise ValueError("audit_every must be >= 1")
        if self.shadow_replay_sample_every < 1:
            raise ValueError("shadow_replay_sample_every must be >= 1")


@dataclass(frozen=True)
class AuditReport:
    """What one audited run checked and what it found.

    ``notes`` carries informational observations that are not
    violations -- e.g. the adaptive scheme's measured vs-DP placement
    gap -- keyed by check name.
    """

    violations: Tuple[AuditViolation, ...] = ()
    checks_run: Dict[str, int] = field(default_factory=dict)
    notes: Dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def total_checks(self) -> int:
        return sum(self.checks_run.values())

    def format(self) -> str:
        checks = ", ".join(
            f"{name} x{count}" for name, count in sorted(self.checks_run.items())
        )
        head = f"audit: {self.total_checks} checks ({checks or 'none'})"
        if self.ok:
            lines = [head + ", no violations"]
        else:
            lines = [head + f", {len(self.violations)} VIOLATIONS:"]
            lines.extend("  " + v.format() for v in self.violations)
        lines.extend(
            f"  {name}: {note}" for name, note in sorted(self.notes.items())
        )
        return "\n".join(lines)


class Auditor:
    """Collects observations during a run and executes the checks."""

    def __init__(self, config: AuditConfig | None = None) -> None:
        self.config = config or AuditConfig()
        self.violations: List[AuditViolation] = []
        self.checks_run: Dict[str, int] = {}
        self._ledger = OutcomeLedger()
        self._signatures: Dict[int, tuple] = {}
        self._placement_oracle: PlacementOracle | None = None
        self.notes: Dict[str, str] = {}
        self._scheme = None
        self._collector = None

    # -- the run-observer protocol -------------------------------------------

    def begin(self, engine, collector) -> None:
        """Install the oracles the scheme exposes seams for."""
        scheme = engine.scheme
        self._scheme = scheme
        self._collector = collector
        if hasattr(scheme, "placement_observer"):
            self._placement_oracle = PlacementOracle(
                report=self._flag,
                sample_every=self.config.placement_sample_every,
                brute_force_limit=self.config.brute_force_limit,
            )
            scheme.placement_observer = self._placement_oracle

    def outcome(self, index, now, object_id, outcome, latency, measured) -> None:
        """Sample signatures, mirror measured outcomes, sweep when due."""
        config = self.config
        if config.shadow_replay and index % config.shadow_replay_sample_every == 0:
            self._signatures[index] = outcome_signature(outcome)
        if measured:
            self._ledger.record(outcome, latency)
        if (index + 1) % config.audit_every == 0:
            self.audit_now(self._scheme, self._collector, index)

    def end(self, requests_total: int) -> dict:
        """Final sweep; the report lands in ``SimulationResult.audit``."""
        self.audit_now(self._scheme, self._collector, requests_total - 1)
        oracle = self._placement_oracle
        if oracle is not None:
            self.checks_run["placement-oracle"] = oracle.problems_checked
            if oracle.gap_count:
                self.checks_run["placement-gap"] = oracle.gap_count
                self.notes["placement-gap"] = oracle.gap_summary()
        return {"audit": self.report()}

    @property
    def outcome_signatures(self) -> Dict[int, tuple]:
        """Sampled ``{request_index: signature}`` of the primary run."""
        return dict(self._signatures)

    # -- periodic sweep ------------------------------------------------------

    def audit_now(self, scheme, collector, request_index: int = -1) -> None:
        """Run the invariant sweep and accounting identities right now."""
        self._count("invariant-sweep")
        for violation in scheme_invariant_violations(scheme, request_index):
            self._flag(violation)
        for violation in cache_accounting_violations(scheme, request_index):
            self._flag(violation)
        for node, cache in scheme.caches().items():
            if isinstance(cache, MirroredNCLCache):
                for detail in cache.drain_divergences():
                    self._flag(
                        AuditViolation(
                            check="ncl-shadow",
                            detail=f"node {node}: {detail}",
                            request_index=request_index,
                        )
                    )
        for violation in self._ledger.violations_against(collector, request_index):
            self._flag(violation)

    def extend(self, violations) -> None:
        """Fold in violations found by an out-of-run harness (replay)."""
        for violation in violations:
            self._flag(violation)

    def report(self) -> AuditReport:
        return AuditReport(
            violations=tuple(self.violations),
            checks_run=dict(self.checks_run),
            notes=dict(self.notes),
        )

    # -- internals -----------------------------------------------------------

    def _count(self, check: str) -> None:
        self.checks_run[check] = self.checks_run.get(check, 0) + 1

    def _flag(self, violation: AuditViolation) -> None:
        self.violations.append(violation)
        if self.config.strict:
            raise AuditFailure(violation)


def outcome_signature(outcome) -> tuple:
    """Comparable fingerprint of one request outcome."""
    return (
        outcome.hit_index,
        tuple(outcome.inserted_nodes),
        outcome.evicted_objects,
        outcome.size,
    )
