"""Cache coherency modes (the invalidation subsystem).

The paper keeps caches fresh "by using a cache coherency protocol if
necessary" (section 2) without ever measuring one.  This package makes
the protocol a first-class, selectable axis:

* ``inband`` -- the existing design: invalidation frames walk the
  distribution tree synchronously (one broadcast per updated object).
* ``channel`` -- the squid-channels design: origins publish (group)
  stale events to a pub/sub channel; caches poll it and apply batches,
  trading staleness for protocol bytes.

:class:`CoherencyConfig` selects and validates a mode,
:mod:`~repro.coherency.policy` implements both for the simulator
behind one seam, and :class:`~repro.coherency.stats.CoherencyStats`
prices either mode in the same schema so the warehouse
``coherency-modes`` query can compare them.  The live-cluster side
(broker, subscribers, wire frames) lives in
:mod:`repro.serve.channel`.  See ``docs/coherency.md``.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "config": ("MODES", "CoherencyConfig"),
    "policy": ("ChannelCoherency", "InbandCoherency", "build_policy"),
    "stats": (
        "CATCHUP_BYTES", "EVENT_BYTES", "POLL_BYTES", "SUB_BYTES", "CoherencyStats",
        "staleness_percentile",
    ),
})
