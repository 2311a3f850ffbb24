"""Opt-in correctness audit layer (runtime invariants + differential oracles).

The reproduction's headline numbers rest on delicate bookkeeping --
piggybacked ``(f_i, m_i, l_i)`` reports, the placement DP, descriptor
migration between cache and d-cache -- and that bug class corrupts
silently: runs complete, metrics just drift.  This package catches it:

* :mod:`repro.verify.invariants` -- cross-layer accounting identities
  plus an independent re-accumulation of the metrics collector's books;
* :mod:`repro.verify.oracles` -- differential oracles: list-NCL vs a
  shadow heap-NCL, and the placement DP vs the exhaustive reference on
  real piggybacked problems;
* :mod:`repro.verify.auditor` -- the audit driver, a run observer
  (``SimulationEngine.run(observers=[Auditor(...)])``);
* :mod:`repro.verify.replay` -- ``audited_run``, the one audited-run
  protocol (engine run + shadow replay through the engine) behind the
  experiment runner, the CLI and the self-test;
* :mod:`repro.verify.metamorphic` -- known-effect transformations
  (delay scaling, zero capacity);
* :mod:`repro.verify.selftest` -- seeded mutations proving the layer
  actually detects deliberately broken schemes;
* :mod:`repro.verify.fastpath_diff` -- the columnar kernels' shadow
  gate: reference loop vs batched kernels, bit-identical results and
  final cache/d-cache/protocol state.

``replay``, ``metamorphic``, ``selftest`` and ``fastpath_diff`` import
the simulation engine and are *not* re-exported here; import them as
submodules.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "auditor": ("AuditConfig", "AuditReport", "Auditor"),
    "invariants": ("OutcomeLedger",),
    "oracles": ("MirroredNCLCache", "PlacementOracle"),
    "violations": ("AuditFailure", "AuditViolation"),
})
