from bench import report
from bench.spec import END_TO_END, WORKLOADS


def _run(scale=1.0, wobble=0.0, quality=0.3):
    metrics = {}
    for spec in END_TO_END:
        value = 100.0 * (scale if spec.name == "throughput_rps" else 1.0)
        if spec.name in ("byte_hit_ratio", "mean_model_latency"):
            value = quality
        segments = [value * (1 + wobble * k) for k in (-1, -0.5, 0, 0, 0.5, 1)]
        metrics[spec.name] = {
            "value": value, "unit": spec.unit, "n": 6, "segments": segments,
        }
    return {"correct": True, "attempted": 1000, "failed": 0,
            "failures": [], "metrics": metrics}


def _report(**kwargs):
    return {
        "meta": {"seed": 11, "seconds": 10.0},
        "workloads": {w.name: {"end_to_end": _run(**kwargs)} for w in WORKLOADS},
    }


def _verdicts(rows, metric):
    return {r["workload"]: r["verdict"] for r in rows if r["metric"] == metric}


def test_identical_reports_are_ok():
    rows, ok = report.compare(_report(), _report())
    assert ok and {r["verdict"] for r in rows} == {report.OK}


def test_latency_is_a_row_only_where_a_round_trip_exists():
    rows, _ = report.compare(_report(), _report())
    assert set(_verdicts(rows, "lat_p50_ms")) == {
        w.name for w in WORKLOADS if w.kind == "serve"
    }
    assert set(_verdicts(rows, "throughput_rps")) == {w.name for w in WORKLOADS}


def test_clear_regression_and_improvement():
    rows, ok = report.compare(_report(), _report(scale=0.6))
    assert not ok
    assert set(_verdicts(rows, "throughput_rps").values()) == {report.REGRESSED}
    rows, ok = report.compare(_report(), _report(scale=1.5))
    assert ok
    assert set(_verdicts(rows, "throughput_rps").values()) == {report.IMPROVED}


def test_overlapping_quartiles_are_unresolved_not_regressed():
    rows, ok = report.compare(
        _report(wobble=0.5), _report(scale=0.7, wobble=0.5)
    )
    assert ok
    assert set(_verdicts(rows, "throughput_rps").values()) == {report.UNRESOLVED}


def test_quality_must_be_exact_on_deterministic_workloads():
    rows, ok = report.compare(_report(), _report(quality=0.3001))
    assert not ok
    verdicts = _verdicts(rows, "byte_hit_ratio")
    assert verdicts["serve-inproc"] == report.CHANGED
    # Closed-loop completion order is not deterministic: bound applies.
    assert verdicts["serve-tcp-2shard"] == report.OK


def test_selfcheck_fails_beyond_the_bound_only():
    assert report.agree(_report(), _report(scale=1.05))[1]
    assert not report.agree(_report(), _report(scale=1.5))[1]


def test_failed_run_is_missing():
    broken = _report()
    broken["workloads"]["sim-ref"]["end_to_end"]["correct"] = False
    rows, ok = report.compare(_report(), broken)
    assert not ok and rows[0]["verdict"] == report.MISSING


def test_merged_runs_report_the_median_and_keep_the_run_values():
    runs = [dict(_run(scale=k), seed=k) for k in (1.0, 3.0, 2.0)]
    merged = report.merge_runs(runs)
    m = merged["metrics"]["throughput_rps"]
    assert m["value"] == 200.0 and m["segments"] == [100.0, 300.0, 200.0]
    assert merged["seed"] == [1.0, 3.0, 2.0] and merged["attempted"] == 3000
    assert report.merge_runs(runs[:1]) is runs[0]


def test_write_json_replaces_atomically(tmp_path):
    path = tmp_path / "r.json"
    report.write_json(str(path), {"a": 1})
    report.write_json(str(path), {"a": 2})
    assert report.load_json(str(path)) == {"a": 2}
    assert [p.name for p in tmp_path.iterdir()] == ["r.json"]
