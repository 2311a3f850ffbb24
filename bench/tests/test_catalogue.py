import json

from bench.spec import (
    END_TO_END,
    NAME_PATTERN,
    PER_LAYER,
    SEGMENTS,
    WORKLOADS,
)
from bench.__main__ import ROOT, RUN_SECONDS


def contract():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_every_name_is_well_formed_and_used_once():
    names = (
        [w.name for w in WORKLOADS]
        + [m.name for m in END_TO_END]
        + [m.name for m in PER_LAYER]
    )
    assert all(NAME_PATTERN.match(name) for name in names), names
    assert len(set(names)) == len(names)


def test_benchmark_json_is_the_catalogue():
    doc = contract()
    assert set(doc) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert doc["command"] == ["python3", "-m", "bench"]
    assert doc["paths"] == ["bench"]
    assert doc["run_seconds"] == RUN_SECONDS
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS
    ]
    assert doc["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END
    ]
    assert doc["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in PER_LAYER
    ]


def test_contract_limits():
    doc = contract()
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    assert all(len(w["why"]) <= 200 for w in doc["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [
        {"name": "setup_s", "unit": "s", "better": "lower",
         "bound": max(m["bound"] for m in doc["end_to_end"])}
    ]


def test_segments_are_long_enough_for_a_p99():
    # Sim chunks: a full-length segment holds >= 1,100 latency samples.
    for w in WORKLOADS:
        if w.kind == "sim":
            assert w.segment_requests(RUN_SECONDS) // w.chunk >= 1_100
        assert w.segment_requests(RUN_SECONDS) * SEGMENTS >= 1_100
