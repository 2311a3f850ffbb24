"""Command line of the benchmark.  Run from the repository root.

One run, as the driver invokes it (last stdout line is the result)::

    python3 -m bench --workload sim-ref --seed 11 --seconds 10 --trace 0

Every workload, end-to-end and per-layer, every metric by name::

    python3 -m bench [--quick] [--out report.json]

Two full sets of the same commit, run turn by turn, which must agree
within the bounds::

    python3 -m bench --selfcheck [--out prefix]

Two reports against each other, bound by bound::

    python3 -m bench compare base.json new.json
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import os
import platform
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

RUN_SECONDS = 10.0
DEFAULT_SEED = 11
# End-to-end runs per workload and side of a self-check, one seed each.
SELFCHECK_RUNS = 5
# A single run that outlives this is killed and reported, never waited
# for: the driver's own limit is 180 s.
RUN_TIMEOUT = 150
EXIT_CHECKS_FAILED, EXIT_UNUSABLE, EXIT_TIMEOUT, EXIT_INTERRUPTED = 1, 2, 3, 130
# A pass run for a caller leaves its full result (sample counts, segment
# values) under this name in the scratch directory the caller gave it.
DETAIL_NAME = "result.json"


class RunTimeout(KeyboardInterrupt):
    """Raised by the alarm.  Like Ctrl-C it must get out through code
    that counts every ``Exception`` as a failed request (the load
    generator, asyncio callbacks), so it is not one."""


def _fail(message: str, code: int) -> "NoReturn":  # noqa: F821
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(code)


def run_one(args) -> int:
    """One workload, one pass; prints the contract line last."""
    from bench import serverun, simrun
    from bench.proc import stop_children
    from bench.report import scratch_dir, write_json
    from bench.spec import SETUP_REPEATS, WORKLOAD_BY_NAME

    spec = WORKLOAD_BY_NAME.get(args.workload)
    if spec is None:
        _fail(
            f"unknown workload {args.workload!r}; one of "
            f"{', '.join(WORKLOAD_BY_NAME)}",
            EXIT_UNUSABLE,
        )
    cores = len(os.sched_getaffinity(0))
    if spec.shards and cores < 2:
        _fail(
            f"{spec.name} runs a driver and {spec.shards} shard worker(s) "
            f"at two requests in flight; this box offers {cores} core, "
            "which would measure the scheduler, not the program",
            EXIT_UNUSABLE,
        )

    def on_alarm(signum, frame):
        raise RunTimeout()

    def on_term(signum, frame):
        raise KeyboardInterrupt()

    signal.signal(signal.SIGALRM, on_alarm)
    signal.signal(signal.SIGTERM, on_term)
    signal.alarm(RUN_TIMEOUT)
    setups = 1 if args.quick else SETUP_REPEATS
    try:
        if spec.kind == "sim":
            result = (
                simrun.run_layers(spec, args.seed, args.seconds)
                if args.trace
                else simrun.run_end_to_end(
                    spec, args.seed, args.seconds, setups
                )
            )
        elif not args.trace:
            result = asyncio.run(
                serverun.run_end_to_end(spec, args.seed, args.seconds, setups)
            )
        else:
            # Span files go to the caller's scratch directory, which the
            # caller removes even after killing this process; a run on
            # its own makes one and removes it.
            with (
                contextlib.nullcontext(args.scratch) if args.scratch
                else scratch_dir("run-")
            ) as span_dir:
                result = asyncio.run(
                    serverun.run_layers(
                        spec, args.seed, args.seconds, span_dir
                    )
                )
    except RunTimeout:
        _fail(
            f"{spec.name} did not finish within {RUN_TIMEOUT} s; killed",
            EXIT_TIMEOUT,
        )
    except KeyboardInterrupt:
        _fail(f"{spec.name} interrupted; everything it started is stopped",
              EXIT_INTERRUPTED)
    finally:
        signal.alarm(0)
        # Whatever path led here, nothing this run started may outlive
        # it: not a shard worker, not multiprocessing's resource tracker.
        stop_children()
    result.fill_missing()
    if args.scratch:
        write_json(os.path.join(args.scratch, DETAIL_NAME), result.to_dict())
    print(result.format())
    print(result.contract_line())
    return 0 if result.correct else EXIT_CHECKS_FAILED


def _child(workload: str, trace: int, seed: int, args, scratch: str):
    """Run one pass in a process group of its own; returns (dict, error).

    The pass writes its span files and its result under a directory of
    ``scratch``, which the caller removes whether the pass exits or is
    killed.
    """
    own = tempfile.mkdtemp(prefix=f"{workload}-{trace}-", dir=scratch)
    detail = os.path.join(own, DETAIL_NAME)
    command = [
        sys.executable, "-m", "bench",
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(args.seconds),
        "--trace", str(trace),
        "--scratch", own,
    ]
    if args.quick:
        command.append("--quick")
    process = subprocess.Popen(
        command, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        _, stderr = process.communicate(timeout=RUN_TIMEOUT + 15)
    except subprocess.TimeoutExpired:
        stderr = f"no exit within {RUN_TIMEOUT + 15} s; process group killed"
    except BaseException:
        _kill_group(process)
        raise
    if process.poll() is None:
        _kill_group(process)
    if os.path.exists(detail):
        from bench.report import load_json

        return load_json(detail), None
    return None, (stderr.strip().splitlines() or ["no output"])[-1]


def _kill_group(process: subprocess.Popen) -> None:
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    process.wait()


def full_sets(args, sides: int = 1, layers: bool = True) -> list:
    """``sides`` reports of every workload, each pass in a fresh process.

    A single report makes one end-to-end pass per workload.  Two sides
    (the self-check) make ``SELFCHECK_RUNS`` each, one per seed, reported
    as the median over the runs, and take turns run by run, swapping who
    goes first, so a slow spell of the box falls on both.
    """
    from bench.report import merge_runs, scratch_dir
    from bench.spec import WORKLOADS

    runs = 1 if sides == 1 else SELFCHECK_RUNS
    meta = {
        "seed": args.seed,
        "seconds": args.seconds,
        "runs": runs,
        "python": platform.python_version(),
        "cores": len(os.sched_getaffinity(0)),
        "started": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    reports = [{"meta": dict(meta), "workloads": {}} for _ in range(sides)]

    def passes(name: str, trace: int, part: str, seeds, scratch: str) -> None:
        started = time.perf_counter()
        taken = [[] for _ in range(sides)]
        for turn, seed in enumerate(seeds):
            order = range(sides) if turn % 2 == 0 else reversed(range(sides))
            for side in order:
                entry = reports[side]["workloads"][name]
                if part in entry["errors"]:
                    continue
                run, error = _child(name, trace, seed, args, scratch)
                if error:
                    entry["errors"][part] = error
                else:
                    taken[side].append(run)
        for side in range(sides):
            entry = reports[side]["workloads"][name]
            if part not in entry["errors"]:
                entry[part] = merge_runs(taken[side])
        print(
            f"  {name} {part}: {time.perf_counter() - started:.1f} s",
            file=sys.stderr, flush=True,
        )

    with scratch_dir("runs-") as scratch:
        for name in (w.name for w in WORKLOADS):
            for report in reports:
                report["workloads"][name] = {
                    "end_to_end": None, "per_layer": None, "errors": {},
                }
            passes(name, 0, "end_to_end",
                   range(args.seed, args.seed + runs), scratch)
            if layers:
                passes(name, 1, "per_layer", [args.seed], scratch)
            for report in reports:
                if not report["workloads"][name]["errors"]:
                    del report["workloads"][name]["errors"]
    return reports


def run_all(args) -> int:
    from bench.report import all_correct, format_report, write_json

    (report,) = full_sets(args)
    print(format_report(report))
    if args.out:
        write_json(args.out, report)
        print(f"wrote {args.out}")
    return 0 if all_correct(report) else EXIT_CHECKS_FAILED


def run_selfcheck(args) -> int:
    from bench.report import agree, all_correct, format_rows, write_json

    first, second = full_sets(args, sides=2, layers=False)
    if args.out:
        write_json(f"{args.out}.a.json", first)
        write_json(f"{args.out}.b.json", second)
    rows, ok = agree(first, second)
    print(format_rows(rows))
    ok = ok and all_correct(first) and all_correct(second)
    print("selfcheck " + ("passed" if ok else "FAILED"))
    return 0 if ok else EXIT_CHECKS_FAILED


def run_compare(base_path: str, new_path: str) -> int:
    from bench.report import compare, format_rows, load_json

    rows, ok = compare(load_json(base_path), load_json(new_path))
    print(format_rows(rows))
    return 0 if ok else EXIT_CHECKS_FAILED


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            _fail("usage: python3 -m bench compare BASE.json NEW.json",
                  EXIT_UNUSABLE)
        return run_compare(argv[1], argv[2])
    parser = argparse.ArgumentParser(
        prog="python3 -m bench", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--workload", help="run this one workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="a tenth of the length and one set-up: a "
                        "smoke, not a number")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--out", help="write the report (selfcheck: prefix)")
    parser.add_argument("--scratch", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = RUN_SECONDS / 10 if args.quick else RUN_SECONDS
    if args.seconds <= 0:
        _fail("--seconds must be positive", EXIT_UNUSABLE)
    try:
        import repro  # noqa: F401
    except ImportError as error:
        _fail(
            f"cannot import the program under {ROOT / 'src'} ({error}); "
            "run from a checkout that holds src/repro",
            EXIT_UNUSABLE,
        )
    if args.workload:
        return run_one(args)
    return run_selfcheck(args) if args.selfcheck else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
