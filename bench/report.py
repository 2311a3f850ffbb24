"""Reports of a full set of runs, and the comparison of two of them."""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import tempfile
from pathlib import Path
from typing import Iterator, List, Optional, Tuple

from bench import stats
from bench.result import format_run
from bench.spec import (
    END_TO_END,
    QUALITY_METRICS,
    WORKLOAD_BY_NAME,
    WORKLOADS,
)

# Absolute slack on the failed share: one request in a thousand.
FAILED_SHARE_SLACK = 0.001

OK, REGRESSED, IMPROVED, UNRESOLVED, CHANGED, MISSING, DISAGREES = (
    "ok", "regressed", "improved", "unresolved", "changed", "missing",
    "disagrees",
)
FAILING = (REGRESSED, CHANGED, MISSING, DISAGREES)


# Scratch (span files, per-run JSON) lives inside the checkout: the
# driver's contract lets a run read and write nowhere else.
SCRATCH_ROOT = Path(__file__).resolve().parent.parent / ".bench_scratch"


@contextlib.contextmanager
def scratch_dir(prefix: str) -> Iterator[str]:
    """A directory under the checkout's scratch root, removed on exit
    with everything the passes run for its owner left in it (and the
    root with it, once no other run has scratch in there)."""
    SCRATCH_ROOT.mkdir(exist_ok=True)
    path = tempfile.mkdtemp(prefix=prefix, dir=SCRATCH_ROOT)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH_ROOT.rmdir()


def write_json(path: str, document: dict) -> None:
    """Write through a temp file, so a reader never sees half a report."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, temp = tempfile.mkstemp(prefix=".report-", dir=directory)
    try:
        with os.fdopen(fd, "w") as f:
            json.dump(document, f, indent=1)
            f.write("\n")
        os.chmod(temp, 0o644)  # mkstemp's 0600 is for secrets
        os.replace(temp, path)
    except BaseException:
        if os.path.exists(temp):
            os.unlink(temp)
        raise


def load_json(path: str) -> dict:
    with open(path) as f:
        return json.load(f)


def merge_runs(runs: List[dict]) -> dict:
    """Several runs of one workload (one seed each) as one entry: every
    metric is the median over the runs, which become its ``segments``."""
    if len(runs) == 1:
        return runs[0]
    merged = dict(runs[0])
    merged["seed"] = [run["seed"] for run in runs]
    merged["correct"] = all(run["correct"] for run in runs)
    merged["attempted"] = sum(run["attempted"] for run in runs)
    merged["failed"] = sum(run["failed"] for run in runs)
    merged["failures"] = [f for run in runs for f in run["failures"]]
    merged["metrics"] = {}
    for name, first in runs[0]["metrics"].items():
        values = [run["metrics"][name]["value"] for run in runs]
        merged["metrics"][name] = {
            "value": stats.median(values),
            "unit": first["unit"],
            "n": sum(run["metrics"][name]["n"] for run in runs),
            "segments": values,
        }
    return merged


def _quartile_range(measurement: dict) -> Tuple[float, float]:
    segments = measurement.get("segments") or [measurement["value"]]
    return stats.quartiles(segments)


def _spread(measurement: dict) -> float:
    segments = measurement.get("segments")
    return stats.spread(segments) if segments and len(segments) > 1 else 0.0


def verdict(base: dict, new: dict, better: str, bound: float) -> Tuple[str, Optional[float]]:
    """Classify one (metric, workload) pair of measurements.

    Within the bound is ``ok`` -- unless either side's own segments
    spread wider than the bound, which resolves nothing.  Beyond the
    bound counts only when the two sides' segment quartile ranges do not
    overlap; otherwise the difference sits inside the noise.
    """
    worsening = stats.signed_worsening(base["value"], new["value"], better)
    if worsening is None:
        return (OK if new["value"] == base["value"] else UNRESOLVED), None
    if abs(worsening) <= bound:
        noisy = max(_spread(base), _spread(new)) > bound
        return (UNRESOLVED if noisy else OK), worsening
    (base_lo, base_hi), (new_lo, new_hi) = (
        _quartile_range(base), _quartile_range(new)
    )
    if base_lo <= new_hi and new_lo <= base_hi:
        return UNRESOLVED, worsening
    return (REGRESSED if worsening > 0 else IMPROVED), worsening


def compare(base: dict, new: dict) -> Tuple[List[dict], bool]:
    """Rows (one per workload and end-to-end metric) and whether every
    row passes.  ``base`` and ``new`` are full reports."""
    rows: List[dict] = []
    same_inputs = all(
        base["meta"].get(key) == new["meta"].get(key)
        for key in ("seed", "seconds", "runs")
    )
    for workload in WORKLOADS:
        sides = [
            report["workloads"].get(workload.name, {}).get("end_to_end")
            for report in (base, new)
        ]
        if not all(sides) or not all(side["correct"] for side in sides):
            rows.append({"workload": workload.name, "metric": "*",
                         "verdict": MISSING})
            continue
        a, b = sides
        for spec in END_TO_END:
            if spec.name == "lat_p50_ms" and workload.kind == "sim":
                # A simulator has no round trip.  The driver's contract
                # wants every metric on every workload, so the run
                # prints its service time per request there, which
                # throughput_rps already gates: no second row for it.
                continue
            ma, mb = a["metrics"][spec.name], b["metrics"][spec.name]
            exact = (
                spec.name in QUALITY_METRICS
                and WORKLOAD_BY_NAME[workload.name].deterministic
                and same_inputs
            )
            if exact:
                # Same inputs, deterministic replay: the paper's metrics
                # must not move at all under a pure performance change.
                state = OK if ma["value"] == mb["value"] else CHANGED
                worsening = stats.signed_worsening(
                    ma["value"], mb["value"], spec.better
                )
            else:
                state, worsening = verdict(ma, mb, spec.better, spec.bound)
            rows.append({
                "workload": workload.name,
                "metric": spec.name,
                "unit": spec.unit,
                "base": ma["value"],
                "new": mb["value"],
                "ratio": stats.ratio(mb["value"], ma["value"]),
                "worsening": worsening,
                "bound": 0.0 if exact else spec.bound,
                "verdict": state,
            })
        share_a = a["failed"] / max(a["attempted"], 1)
        share_b = b["failed"] / max(b["attempted"], 1)
        rows.append({
            "workload": workload.name,
            "metric": "failed_share",
            "unit": "ratio",
            "base": share_a,
            "new": share_b,
            "ratio": stats.ratio(share_b, share_a),
            "worsening": share_b - share_a,
            "bound": FAILED_SHARE_SLACK,
            "verdict": (
                REGRESSED if share_b > share_a + FAILED_SHARE_SLACK else OK
            ),
        })
    return rows, not any(row["verdict"] in FAILING for row in rows)


def agree(base: dict, new: dict) -> Tuple[List[dict], bool]:
    """The self-check: two sets of the same commit must sit within each
    metric's bound of one another, whatever their spread."""
    rows, _ = compare(base, new)
    for row in rows:
        worsening = row.get("worsening")
        if row["verdict"] in (MISSING, CHANGED) or worsening is None:
            continue
        if row["metric"] == "failed_share":
            inside = abs(worsening) <= FAILED_SHARE_SLACK
        else:
            inside = abs(worsening) <= row["bound"]
        row["verdict"] = OK if inside else DISAGREES
    return rows, not any(row["verdict"] in FAILING for row in rows)


def format_rows(rows: List[dict]) -> str:
    lines = []
    current = None
    for row in rows:
        if row["workload"] != current:
            current = row["workload"]
            lines.append(f"{current}")
        if row["metric"] == "*":
            lines.append("  (run missing or failed its checks)      missing")
            continue
        worsening = row["worsening"]
        shown = "    n/a" if worsening is None else f"{worsening:+7.2%}"
        lines.append(
            f"  {row['metric']:<20} base {row['base']:>12.6g} "
            f"new {row['new']:>12.6g} {row['unit']:<6} "
            f"new/base {row['ratio']:>7.4f}  worse by {shown} "
            f"(bound {row['bound']:.3g})  {row['verdict']}"
        )
    return "\n".join(lines)


def format_report(report: dict) -> str:
    """Every metric of every run in a report, by name."""
    lines = []
    for name, entry in report["workloads"].items():
        for part in ("end_to_end", "per_layer"):
            if entry.get(part) is not None:
                lines.append(format_run(entry[part]))
            elif part in entry.get("errors", {}):
                lines.append(f"{name} {part}: {entry['errors'][part]}")
    return "\n".join(lines)


def all_correct(report: dict) -> bool:
    for entry in report["workloads"].values():
        if entry.get("errors"):
            return False
        for part in ("end_to_end", "per_layer"):
            run = entry.get(part)
            if run is not None and not run["correct"]:
                return False
    return True
