"""Shadow-replay harness: re-run the trace, expect identical outcomes.

The simulator is deterministic by design: one (architecture, scheme
configuration, trace, update stream, coherency policy) tuple must always
produce the same outcome sequence.  Hidden mutable state -- module
globals, class-level counters, iteration over unordered containers --
silently breaks that and with it every A/B comparison the reproduction
rests on.

During an audited primary run the :class:`~repro.verify.auditor.Auditor`
samples outcome signatures every ``shadow_replay_sample_every``
requests.  :func:`audited_run` then replays the same trace on a *fresh*
scheme through :meth:`SimulationEngine.run
<repro.sim.engine.SimulationEngine.run>` itself -- the same updates, a
fresh coherency policy of the same configuration -- with a
:class:`_ShadowSampler` observer comparing the same request indices.
:func:`audited_run` is the one audited-run protocol: the experiment
runner (and with it the CLI) and the self-test all go through it.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.sim.engine import SimulationEngine, SimulationResult
from repro.verify.auditor import AuditConfig, Auditor, AuditReport, outcome_signature
from repro.verify.violations import AuditViolation


class _ShadowSampler:
    """Run observer comparing the shadow's outcomes with the primary's.

    ``reference`` maps request indices to the primary run's sampled
    :func:`~repro.verify.auditor.outcome_signature` fingerprints.
    """

    def __init__(self, reference: Dict[int, tuple]) -> None:
        self.reference = reference
        self.violations: List[AuditViolation] = []

    def begin(self, engine, collector) -> None:
        pass

    def outcome(self, index, now, object_id, outcome, latency, measured) -> None:
        expected = self.reference.get(index)
        if expected is None:
            return
        observed = outcome_signature(outcome)
        if observed != expected:
            self.violations.append(
                AuditViolation(
                    check="shadow-replay",
                    detail=(
                        f"replay diverged: primary saw "
                        f"(hit_index, inserted, evictions, size)={expected} "
                        f"but shadow saw {observed}"
                    ),
                    request_index=index,
                )
            )

    def end(self, requests_total: int) -> dict:
        return {}


def audited_run(
    architecture,
    cost_model,
    scheme_factory: Callable[[], object],
    trace,
    config: AuditConfig | None = None,
    warmup_fraction: float = 0.5,
    updates: Sequence = (),
    coherency: Optional[Callable[[], object]] = None,
    observers: Sequence = (),
) -> Tuple[SimulationResult, AuditReport]:
    """One fully audited simulation: engine run + optional shadow replay.

    ``scheme_factory`` must build a *fresh* scheme per call -- the shadow
    replay depends on starting from identical empty state.
    ``coherency`` likewise builds a fresh policy per call (``None`` keeps
    the engine's implicit in-band policy), so the shadow replays the
    primary run's updates through the same coherency configuration.
    ``observers`` (an :class:`~repro.obs.instruments.Instruments` bundle
    among them, say) ride along the primary run only.  Returns the
    simulation result (whose ``audit`` field carries the final report)
    and the report itself.
    """
    config = config or AuditConfig()
    auditor = Auditor(config)

    def run(*attached) -> SimulationResult:
        engine = SimulationEngine(
            architecture, cost_model, scheme_factory(), warmup_fraction
        )
        policy = coherency() if coherency is not None else None
        return engine.run(
            trace, updates=updates, coherency=policy, observers=attached
        )

    result = run(auditor, *observers)
    if config.shadow_replay:
        reference = auditor.outcome_signatures
        auditor.checks_run["shadow-replay"] = len(reference)
        sampler = _ShadowSampler(reference)
        run(sampler)
        auditor.extend(sampler.violations)
        result = dataclasses.replace(result, audit=auditor.report())
    return result, result.audit
