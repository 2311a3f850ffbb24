"""The audit layer itself: clean runs stay clean, corruption gets caught.

Complements the seeded-mutation self-test (``test_verify_selftest``)
with fast, targeted unit checks of each audit component.
"""

from __future__ import annotations

import pytest

from repro.core.placement import (
    PlacementProblem,
    PlacementSolution,
    solve_placement,
)
from repro.costs.model import LatencyCostModel
from repro.experiments.presets import build_architecture
from repro.experiments.runner import GridTask, execute_point
from repro.metrics.collector import MetricsCollector
from repro.schemes.base import RequestOutcome
from repro.schemes.lru_everywhere import LRUEverywhereScheme
from repro.sim.config import SimulationConfig
from repro.sim.engine import SimulationEngine
from repro.verify import (
    AuditConfig,
    AuditFailure,
    Auditor,
    OutcomeLedger,
    PlacementOracle,
)


@pytest.fixture
def en_route(tiny_workload, tiny_trace):
    trace, catalog = tiny_trace
    architecture = build_architecture(
        "en-route", tiny_workload, seed=tiny_workload.seed
    )
    return architecture, trace, catalog


class TestAuditedRuns:
    @pytest.mark.parametrize("scheme", ["lru", "lnc-r", "coordinated"])
    def test_clean_schemes_pass_full_audit(self, en_route, scheme):
        architecture, trace, catalog = en_route
        config = AuditConfig(
            audit_every=200,
            placement_sample_every=7,
            shadow_replay=True,
            strict=False,
        )
        task = GridTask(
            scheme=scheme, config=SimulationConfig(relative_cache_size=0.03)
        )
        _, record = execute_point(
            architecture, trace, catalog, task, audit=config
        )
        assert record.audit_violations == ()
        assert record.audit_checks > 0

    def test_audited_metrics_bit_identical_to_unaudited(self, en_route):
        """Auditing observes; it must never perturb a single metric bit."""
        architecture, trace, catalog = en_route
        task = GridTask(
            scheme="coordinated",
            config=SimulationConfig(relative_cache_size=0.03),
        )
        plain, plain_record = execute_point(architecture, trace, catalog, task)
        audited, audited_record = execute_point(
            architecture,
            trace,
            catalog,
            task,
            audit=AuditConfig(audit_every=100, strict=False),
        )
        assert plain.summary == audited.summary
        assert plain_record.key == audited_record.key
        assert plain_record.audit_checks == 0
        assert audited_record.audit_checks > 0

    def test_strict_mode_raises_on_corruption(self, chain_costs, chain4):
        scheme = LRUEverywhereScheme(chain_costs, 1000)
        path = (0, 1, 2, 3, 4)
        for i in range(5):
            scheme.process_request(path, i, 100, float(i))
        auditor = Auditor(AuditConfig(strict=True))
        collector = MetricsCollector()
        auditor.audit_now(scheme, collector, request_index=4)  # clean: fine
        next(iter(scheme.caches().values()))._used += 7
        with pytest.raises(AuditFailure) as excinfo:
            auditor.audit_now(scheme, collector, request_index=5)
        assert excinfo.value.violation.check in (
            "cache-accounting",
            "scheme-invariants",
        )

    def test_engine_audit_every_shorthand(self, en_route):
        architecture, trace, catalog = en_route
        cost_model = LatencyCostModel(architecture.network, catalog.mean_size)
        scheme = LRUEverywhereScheme(
            cost_model, max(1, int(0.03 * catalog.total_bytes))
        )
        engine = SimulationEngine(architecture, cost_model, scheme)
        result = engine.run(
            trace, observers=[Auditor(AuditConfig(audit_every=500))]
        )
        assert result.audit is not None
        assert result.audit.ok
        assert result.audit.checks_run["invariant-sweep"] >= len(trace) // 500


class TestOutcomeLedger:
    def _outcome(self, hit_index=1, inserted=()):
        return RequestOutcome(
            path=(0, 1, 2, 3),
            hit_index=hit_index,
            size=50,
            inserted_nodes=tuple(inserted),
        )

    def test_matching_books_produce_no_violations(self):
        ledger = OutcomeLedger()
        collector = MetricsCollector()
        for outcome, latency in (
            (self._outcome(1), 1.0),
            (self._outcome(3, inserted=(1,)), 2.5),
        ):
            ledger.record(outcome, latency)
            collector.record(outcome, latency)
        assert ledger.violations_against(collector) == []

    def test_diverging_books_are_flagged(self):
        ledger = OutcomeLedger()
        collector = MetricsCollector()
        outcome = self._outcome(1)
        ledger.record(outcome, 1.0)
        collector.record(outcome, 1.0)
        collector.record(outcome, 1.0)  # collector double-counts
        violations = ledger.violations_against(collector, request_index=3)
        assert violations
        assert all(v.check == "collector-identity" for v in violations)
        assert all(v.request_index == 3 for v in violations)


class TestPlacementOracle:
    def _problem(self):
        return PlacementProblem(
            frequencies=(5.0, 3.0, 1.0),
            penalties=(2.0, 4.0, 8.0),
            losses=(1.0, 1.0, 1.0),
        )

    def test_correct_solution_passes(self):
        found = []
        oracle = PlacementOracle(report=found.append, sample_every=1)
        problem = self._problem()
        oracle(problem, solve_placement(problem))
        assert oracle.problems_checked == 1
        assert found == []

    def test_corrupted_gain_is_flagged(self):
        found = []
        oracle = PlacementOracle(report=found.append, sample_every=1)
        problem = self._problem()
        good = solve_placement(problem)
        oracle(problem, PlacementSolution(indices=good.indices, gain=good.gain + 1.0))
        assert {v.check for v in found} >= {"placement-objective"}

    def test_suboptimal_solution_is_flagged(self):
        found = []
        oracle = PlacementOracle(report=found.append, sample_every=1)
        problem = self._problem()
        empty = PlacementSolution(indices=(), gain=0.0)
        oracle(problem, empty)
        assert any(v.check == "placement-optimality" for v in found)

    def test_sampling_skips_problems(self):
        found = []
        oracle = PlacementOracle(report=found.append, sample_every=3)
        problem = self._problem()
        solution = solve_placement(problem)
        for _ in range(7):
            oracle(problem, solution)
        assert oracle.problems_seen == 7
        assert oracle.problems_checked == 2

    def test_approximate_solution_accumulates_gap_not_violation(self):
        """A suboptimal greedy/single solution is a *gap*, never a bug."""
        from repro.schemes.costaware import single_copy_placement

        found = []
        oracle = PlacementOracle(report=found.append, sample_every=1)
        # An upstream copy skims the delta-frequency cheaply while the
        # downstream copy keeps its high penalty: DP takes both,
        # single-copy can only take one.
        problem = PlacementProblem(
            frequencies=(10.0, 4.0),
            penalties=(2.0, 10.0),
            losses=(1.0, 1.0),
        )
        single = single_copy_placement(problem)
        optimum = solve_placement(problem)
        assert single.gain < optimum.gain  # premise: genuinely suboptimal
        oracle(problem, single)
        assert found == []
        assert oracle.gap_count == 1
        assert oracle.gap_suboptimal == 1
        assert oracle.gap_total == pytest.approx(optimum.gain - single.gain)
        assert oracle.gap_max == pytest.approx(optimum.gain - single.gain)
        assert "below the DP optimum" in oracle.gap_summary()

    def test_optimal_approximate_solution_counts_zero_gap(self):
        from repro.core.placement import greedy_placement

        oracle = PlacementOracle(report=lambda v: None, sample_every=1)
        problem = self._problem()
        greedy = greedy_placement(problem)
        oracle(problem, greedy)
        assert oracle.gap_count == 1
        assert oracle.gap_suboptimal == 0
        assert oracle.gap_total == pytest.approx(0.0)

    def test_approximate_beating_dp_is_flagged(self):
        """An 'approximation' above the DP optimum means a broken solver."""
        found = []
        oracle = PlacementOracle(report=found.append, sample_every=1)
        problem = self._problem()
        good = solve_placement(problem)
        impossible = PlacementSolution(
            indices=good.indices, gain=good.gain + 1.0, method="greedy"
        )
        oracle(problem, impossible)
        checks = {v.check for v in found}
        # The recomputed objective no longer matches the claimed gain, and
        # the claimed gain exceeds the DP optimum: both must fire.
        assert "placement-objective" in checks
        assert "placement-gap" in checks
        # A refuted "approximation" never enters the gap statistics.
        assert oracle.gap_count == 0
