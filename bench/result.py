"""What one run reports: named measurements plus the correctness verdict."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from bench import stats
from bench.spec import (
    END_TO_END,
    END_TO_END_BY_NAME,
    MIN_PERCENTILE_SAMPLES,
    PER_LAYER,
    PER_LAYER_BY_NAME,
    MetricSpec,
)


@dataclass
class Measurement:
    value: float
    unit: str
    n: int  # samples behind the value
    # Per-segment (or per-repeat) values the median was taken over;
    # `compare` reads quartiles off them.
    segments: Optional[List[float]] = None

    def to_dict(self) -> dict:
        out = {"value": self.value, "unit": self.unit, "n": self.n}
        if self.segments is not None:
            out["segments"] = self.segments
        return out


@dataclass
class RunResult:
    workload: str
    seed: int
    seconds: float
    traced: bool
    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, Measurement] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)  # failed checks

    @property
    def correct(self) -> bool:
        return not self.failures

    @property
    def catalogue(self) -> Sequence[MetricSpec]:
        return PER_LAYER if self.traced else END_TO_END

    def put(self, name: str, value: float, n: int = 1,
            segments: Optional[Sequence[float]] = None) -> None:
        by_name = PER_LAYER_BY_NAME if self.traced else END_TO_END_BY_NAME
        spec = by_name[name]
        self.metrics[name] = Measurement(
            float(value), spec.unit, int(n),
            [float(v) for v in segments] if segments is not None else None,
        )

    def put_end_to_end(self, *, setup_seconds: Sequence[float],
                       rates: Sequence[float], cpu_ms: Sequence[float],
                       samples_ms: Sequence[Sequence[float]], rss_mb: float,
                       byte_hit_ratio: float, mean_latency: float,
                       window: int) -> None:
        """The end-to-end metrics from per-repeat set-up times, the
        per-segment rates / CPU / latency samples, and the measured
        window's quality."""
        self.put("setup_s", stats.median(setup_seconds), len(setup_seconds),
                 setup_seconds)
        self.put("throughput_rps", stats.median(rates), len(rates), rates)
        self.put("cpu_ms_per_req", stats.median(cpu_ms), len(cpu_ms), cpu_ms)
        value, n = stats.grouped_percentile(
            samples_ms, 0.50, MIN_PERCENTILE_SAMPLES
        )
        self.put("lat_p50_ms", value, n,
                 [stats.median(s) for s in samples_ms])
        self.put("peak_rss_mb", rss_mb)
        self.put("byte_hit_ratio", byte_hit_ratio, window)
        self.put("mean_model_latency", mean_latency, window)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)

    def fill_missing(self) -> None:
        """A layer that does no work on this workload reads 0 with no
        samples, so every run prints the whole catalogue."""
        for spec in self.catalogue:
            if spec.name not in self.metrics:
                self.metrics[spec.name] = Measurement(0.0, spec.unit, 0)

    def contract_line(self) -> str:
        """The one JSON object the driver reads off the last line."""
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {
                    spec.name: {
                        "value": self.metrics[spec.name].value,
                        "unit": spec.unit,
                    }
                    for spec in self.catalogue
                },
            }
        )

    def to_dict(self) -> dict:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "seconds": self.seconds,
            "traced": self.traced,
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": self.failures,
            "metrics": {
                spec.name: self.metrics[spec.name].to_dict()
                for spec in self.catalogue
            },
        }

    def format(self) -> str:
        return format_run(self.to_dict())


def format_run(run: dict) -> str:
    """Every metric of one run by name, with its unit and sample count."""
    lines = [
        f"{run['workload']}  seed {run['seed']}  "
        f"{'per-layer (traced)' if run['traced'] else 'end-to-end'}"
    ]
    for name, m in run["metrics"].items():
        lines.append(
            f"  {name:<40} {m['value']:>14.6g} {m['unit']:<6} n={m['n']}"
        )
    lines.append(
        f"  attempted {run['attempted']}  failed {run['failed']}  "
        f"checks {'ok' if run['correct'] else 'FAILED'}"
    )
    lines.extend(f"  CHECK FAILED: {msg}" for msg in run["failures"])
    return "\n".join(lines)
