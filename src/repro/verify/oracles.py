"""Differential oracles: two independent implementations, one answer.

* :class:`MirroredNCLCache` -- the default bisect-list NCL cache with a
  lazy-deletion heap NCL cache (the paper's suggested structure, section
  2.4) shadowing every mutation.  Both structures see identical
  descriptor state, so every victim selection and every piggybacked
  ``cost_loss`` must agree; divergences are collected (never raised from
  the decision path, so audited runs stay bit-identical to unaudited
  ones) and drained by the auditor's periodic sweep.

* :class:`PlacementOracle` -- samples the coordinated scheme's *live*
  placement problems (real piggybacked ``(f_i, m_i, l_i)`` vectors, not
  synthetic ones) and checks the O(n^2) dynamic program against the
  O(2^n) exhaustive reference: the reported gain must equal the
  objective recomputed from the chosen indices, and must match the
  brute-force optimum.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional

from repro.cache.base import CacheEntry
from repro.cache.ncl import NCLCache
from repro.cache.ncl_heap import HeapNCLCache
from repro.core.placement import (
    PlacementProblem,
    PlacementSolution,
    brute_force_placement,
    solve_placement,
)
from repro.verify.violations import AuditViolation

_GAIN_REL_TOL = 1e-9
_GAIN_ABS_TOL = 1e-12


class MirroredNCLCache(NCLCache):
    """List-NCL cache shadowed by a heap-NCL twin for differential audit.

    Policy behavior is exactly :class:`~repro.cache.ncl.NCLCache` -- the
    shadow only observes.  The shadow's entries *are* the primary's
    :class:`CacheEntry` objects (shared descriptors), mirrored through
    the insert/remove hooks and key refreshes, so any disagreement in
    eviction decisions or cost-loss pricing indicts one of the two NCL
    bookkeeping structures rather than descriptor state.

    Divergences append to :attr:`divergences`; the audit layer drains
    them via :meth:`drain_divergences`.  ``check_invariants`` verifies
    the shadow itself plus full eviction-order agreement.
    """

    def __init__(self, capacity_bytes: int) -> None:
        super().__init__(capacity_bytes)
        self._shadow = HeapNCLCache(capacity_bytes)
        self.divergences: List[str] = []

    # -- mutation mirroring --------------------------------------------------

    def refresh_key(self, object_id: int, now: float) -> None:
        # All descriptor-driven reordering (record_access,
        # set_miss_penalty) funnels through here in the list structure.
        super().refresh_key(object_id, now)
        if object_id in self._shadow.entries:
            self._shadow._push(object_id, now)
            self._shadow._compact()

    def on_insert(self, entry: CacheEntry, now: float) -> None:
        super().on_insert(entry, now)
        shadow = self._shadow
        shadow.entries[entry.object_id] = entry
        shadow._used += entry.size
        shadow._push(entry.object_id, now)
        shadow._compact()

    def on_remove(self, entry: CacheEntry) -> None:
        super().on_remove(entry)
        self._shadow._remove_entry(entry)

    # -- differential decision points ---------------------------------------

    def select_victims(
        self, needed_bytes: int, now: float, exclude: Optional[int] = None
    ) -> List[CacheEntry]:
        victims = super().select_victims(needed_bytes, now, exclude=exclude)
        mirrored = self._shadow.select_victims(needed_bytes, now, exclude=exclude)
        ours = [v.object_id for v in victims]
        theirs = [v.object_id for v in mirrored]
        if ours != theirs:
            self.divergences.append(
                f"select_victims({needed_bytes}B, now={now:g}): "
                f"list chose {ours[:8]} but heap chose {theirs[:8]}"
            )
        return victims

    def cost_loss(self, object_id: int, size: int, now: float) -> Optional[float]:
        loss = super().cost_loss(object_id, size, now)
        mirrored = self._shadow.cost_loss(object_id, size, now)
        # Both implementations sum the same victims' current cost rates in
        # the same order, so agreement should be exact.
        if loss != mirrored:
            self.divergences.append(
                f"cost_loss(object {object_id}, {size}B, now={now:g}): "
                f"list says {loss!r} but heap says {mirrored!r}"
            )
        return loss

    # -- audit surface -------------------------------------------------------

    def drain_divergences(self) -> List[str]:
        """Return and clear the recorded divergences."""
        drained = self.divergences
        self.divergences = []
        return drained

    def check_invariants(self) -> None:
        super().check_invariants()
        self._shadow.check_invariants()
        if self._shadow.used_bytes != self.used_bytes:
            raise AssertionError(
                f"shadow byte accounting drift: list={self.used_bytes} "
                f"heap={self._shadow.used_bytes}"
            )
        ours = self.eviction_order()
        theirs = self._shadow.eviction_order()
        if ours != theirs:
            raise AssertionError(
                f"list/heap NCL eviction order diverged: "
                f"{ours[:8]} vs {theirs[:8]}"
            )


class PlacementOracle:
    """Sampled differential check of live placement decisions.

    Installed as a coordinated-family scheme's ``placement_observer``;
    every ``sample_every``-th solved problem is re-checked.  Violations
    go to the ``report`` callback supplied by the auditor.

    Exact solutions (``method == "dp"``) must equal the brute-force
    optimum.  Approximate solutions (the adaptive scheme's greedy hill
    climb, the cost-aware single-copy rule) are held to two laws -- the
    reported gain must recompute from the chosen indices, and must never
    *exceed* the DP optimum -- while the realised adaptive-vs-DP gap is
    accumulated into :attr:`gap_count` / :attr:`gap_total` /
    :attr:`gap_max` and surfaced per-run by the auditor's report.  On
    small problems the DP reference itself is still cross-checked
    against the exhaustive solver, so approximate runs keep exercising
    the optimality oracle.
    """

    def __init__(
        self,
        report: Callable[[AuditViolation], None],
        sample_every: int = 37,
        brute_force_limit: int = 12,
    ) -> None:
        if sample_every < 0:
            raise ValueError("sample_every must be non-negative")
        self.report = report
        self.sample_every = sample_every
        self.brute_force_limit = brute_force_limit
        self.problems_seen = 0
        self.problems_checked = 0
        # Approximation-gap accounting (optimum minus achieved gain) over
        # the sampled problems solved by a non-exact method.
        self.gap_count = 0
        self.gap_total = 0.0
        self.gap_max = 0.0
        self.gap_suboptimal = 0

    def gap_summary(self) -> Optional[str]:
        """One-line description of the observed vs-DP gap, if any."""
        if not self.gap_count:
            return None
        return (
            f"{self.gap_suboptimal}/{self.gap_count} sampled problems "
            f"strictly below the DP optimum; mean gap "
            f"{self.gap_total / self.gap_count:.6g}, max {self.gap_max:.6g}"
        )

    def __call__(
        self, problem: PlacementProblem, solution: PlacementSolution
    ) -> None:
        self.problems_seen += 1
        if self.sample_every <= 0 or self.problems_seen % self.sample_every:
            return
        self.problems_checked += 1
        solver = "DP" if solution.is_exact else solution.method
        try:
            recomputed = problem.objective(solution.indices)
        except (ValueError, IndexError) as error:
            self.report(
                AuditViolation(
                    check="placement-objective",
                    detail=f"solution indices invalid: {error}",
                )
            )
            return
        if not math.isclose(
            recomputed, solution.gain, rel_tol=_GAIN_REL_TOL, abs_tol=_GAIN_ABS_TOL
        ):
            self.report(
                AuditViolation(
                    check="placement-objective",
                    detail=(
                        f"{solver} reports gain {solution.gain!r} for indices "
                        f"{solution.indices} but the objective recomputes to "
                        f"{recomputed!r}"
                    ),
                )
            )
        if not solution.is_exact:
            optimum = solve_placement(problem)
            gap = optimum.gain - solution.gain
            if gap < 0 and not math.isclose(
                optimum.gain,
                solution.gain,
                rel_tol=_GAIN_REL_TOL,
                abs_tol=_GAIN_ABS_TOL,
            ):
                self.report(
                    AuditViolation(
                        check="placement-gap",
                        detail=(
                            f"{solver} gain {solution.gain!r} (indices "
                            f"{solution.indices}) exceeds the DP optimum "
                            f"{optimum.gain!r} (indices {optimum.indices}) -- "
                            f"an approximation cannot beat the exact solver"
                        ),
                    )
                )
                return
            gap = max(gap, 0.0)
            self.gap_count += 1
            self.gap_total += gap
            self.gap_max = max(self.gap_max, gap)
            if gap > _GAIN_ABS_TOL and gap > _GAIN_REL_TOL * abs(optimum.gain):
                self.gap_suboptimal += 1
            # The exact-vs-exhaustive cross-check below now audits the
            # DP reference rather than the scheme's own answer.
            solution = optimum
            solver = "DP"
        if problem.num_nodes > self.brute_force_limit:
            return
        reference = brute_force_placement(problem)
        if not math.isclose(
            reference.gain, solution.gain, rel_tol=_GAIN_REL_TOL, abs_tol=_GAIN_ABS_TOL
        ):
            self.report(
                AuditViolation(
                    check="placement-optimality",
                    detail=(
                        f"{solver} gain {solution.gain!r} (indices "
                        f"{solution.indices}) != brute-force optimum "
                        f"{reference.gain!r} (indices {reference.indices}) on "
                        f"a {problem.num_nodes}-node problem"
                    ),
                )
            )
