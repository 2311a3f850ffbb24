"""Smoke: the one command at a tenth of the length, and the ways it
must refuse to run."""

import json
import shutil
import signal
import subprocess
import sys

import pytest

import bench.__main__ as cli
from bench.__main__ import ROOT
from bench.spec import END_TO_END, PER_LAYER, WORKLOADS


def _bench(*args, cwd=ROOT, timeout=170):
    return subprocess.run(
        [sys.executable, "-m", "bench", *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


def test_quick_report_is_schema_valid(tmp_path):
    out = tmp_path / "quick.json"
    done = _bench("--quick", "--out", str(out))
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    report = json.loads(out.read_text())
    assert list(report["workloads"]) == [w.name for w in WORKLOADS]
    for entry in report["workloads"].values():
        assert "errors" not in entry
        for part, catalogue in (
            ("end_to_end", END_TO_END), ("per_layer", PER_LAYER)
        ):
            run = entry[part]
            assert run["correct"] and run["failed"] == 0
            assert run["attempted"] >= 1
            assert list(run["metrics"]) == [m.name for m in catalogue]
            for spec in catalogue:
                m = run["metrics"][spec.name]
                assert m["unit"] == spec.unit and m["n"] >= 0
                assert isinstance(m["value"], float)
        # A user-visible metric is never zero.
        assert all(m["value"] > 0 for m in entry["end_to_end"]["metrics"].values())
        # Every workload prices its own tracing.
        assert entry["per_layer"]["metrics"]["obs.tracing_overhead_ratio"]["value"] > 0
    # Nothing is left behind in the checkout.
    assert not (ROOT / ".bench_scratch").exists()


def test_last_line_is_the_contract_object():
    done = _bench("--workload", "serve-inproc", "--seed", "3",
                  "--seconds", "1", "--trace", "0")
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == [m.name for m in END_TO_END]
    assert all(set(v) == {"value", "unit"} for v in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    # A directory holding only the benchmark: no result, non-zero exit.
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _bench("--workload", "sim-ref", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout
    assert "cannot import the program" in done.stderr


# Runs the command as a child sub-reaper, so that anything the run
# orphans is re-parented here and can be seen once the run has exited.
_REAPER = """
import ctypes, os, subprocess, sys
PR_SET_CHILD_SUBREAPER = 36
if ctypes.CDLL(None).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
    sys.exit(77)
done = subprocess.run(sys.argv[1:], capture_output=True, text=True)
left = []
for entry in os.listdir("/proc"):
    if entry.isdigit():
        try:
            with open(f"/proc/{entry}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == os.getpid():
            left.append(int(entry))
print(done.returncode, left)
"""


@pytest.mark.parametrize("trace", ["0", "1"])
def test_a_tcp_run_leaves_no_process_behind(trace):
    # Shard workers are joined, but spawning them also starts
    # multiprocessing's resource tracker, which used to outlive the run.
    done = subprocess.run(
        [sys.executable, "-c", _REAPER, sys.executable, "-m", "bench",
         "--workload", "serve-tcp-2shard", "--seed", "2", "--seconds", "1",
         "--trace", trace, "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    if done.returncode == 77:
        pytest.skip("no PR_SET_CHILD_SUBREAPER on this system")
    assert done.stdout.strip() == "0 []", done.stdout + done.stderr[-2000:]


def test_unknown_workload_is_an_error():
    done = _bench("--workload", "nope", "--seed", "1", "--seconds", "1",
                  "--trace", "0")
    assert done.returncode == 2 and "unknown workload" in done.stderr


def test_alarm_gets_out_of_a_serve_segment(monkeypatch, capsys):
    # The alarm fires with a request in flight, inside the load
    # generator's `except Exception: record_error()`: a timeout that is
    # an Exception is counted as one failed request and the run goes on.
    monkeypatch.setattr(cli, "RUN_TIMEOUT", 1)
    handlers = {
        s: signal.getsignal(s) for s in (signal.SIGALRM, signal.SIGTERM)
    }
    try:
        with pytest.raises(SystemExit) as exit_:
            cli.main(["--workload", "serve-inproc", "--seed", "1",
                      "--seconds", "5", "--trace", "0", "--quick"])
    finally:
        signal.alarm(0)
        for s, handler in handlers.items():
            signal.signal(s, handler)
    assert exit_.value.code == cli.EXIT_TIMEOUT
    captured = capsys.readouterr()
    assert "did not finish within 1 s" in captured.err
    assert "correct" not in captured.out
