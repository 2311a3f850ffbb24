#!/usr/bin/env sh
# CI smoke job: lint (when ruff is available) + the tier-1 test command.
#
# Usage: sh scripts/ci_smoke.sh
#
# The ruff configuration lives in pyproject.toml ([tool.ruff]); install
# it with `pip install -e .[lint]`.  Environments without ruff (e.g. the
# hermetic reproduction container) skip the lint step with a notice and
# still gate on the tier-1 pytest run.
set -eu

cd "$(dirname "$0")/.."

if command -v ruff >/dev/null 2>&1; then
    echo "== ruff check =="
    ruff check src tests scripts benchmarks
else
    echo "== ruff not installed; skipping lint (pip install -e .[lint]) =="
fi

echo "== tier-1 tests =="
# With pytest-cov available the run doubles as the coverage gate
# (`pip install -e .[lint]`); hermetic containers without it still gate
# on the plain tier-1 pytest run.
if python -c "import pytest_cov" >/dev/null 2>&1; then
    COV_FLAGS="--cov=repro --cov-fail-under=80"
else
    echo "== pytest-cov not installed; skipping coverage gate =="
    COV_FLAGS=""
fi
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -x -q $COV_FLAGS

echo "== layered benchmark harness (bench/tests + quick run) =="
# The benchmark of BENCHMARK.json, as a correctness gate rather than a
# number: the harness' own tests, then a tenth-length run of all six
# workloads (< 30 s).  Exit 1 means a harness check failed -- fast path
# == reference, serve == simulator, request conservation, or one
# reconstructed span walk per completed request -- so a src/ change
# that breaks one fails here instead of at the next benchmark run.
# The harness puts src/ on the path itself.
python3 -m pytest bench/tests -q
python3 -m bench --quick

echo "== audited simulation smoke =="
# Every registered scheme under the full correctness audit layer (runtime
# invariants, differential oracles, shadow replay), so each scheme's
# steps pass them through the one request driver; exits non-zero on any
# violation.
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m repro sim --audit \
    --scale small \
    --schemes lru,modulo,lnc-r,coordinated,adaptive,costaware,lfu,gds,admission-lru
# The same audit beside writes: a grouped update stream through a polled
# channel, so the shadow replay must see the primary run's updates and
# coherency configuration to stay clean.
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m repro sim --audit \
    --scale small --schemes lru,modulo,lnc-r,coordinated \
    --update-rate 0.5 --coherency channel --channel-poll-interval 5 \
    --group-count 10

echo "== one walk gate =="
# The request walk is written once: schemes implement the per-node steps
# (or the hooks the default steps call), never process_request.
WALKS=$(grep -rn "def process_request" src/repro/schemes src/repro/core)
echo "$WALKS"
test "$(echo "$WALKS" | wc -l)" -eq 1
# One step order: the simulator and every serving node drive the one
# Walk machine, so each step has exactly one call site under src/.
for step in lookup_step decide_step deliver_step; do
    test "$(grep -rn "[.]$step(" src | wc -l)" -eq 1
done
test -z "$(grep -rn "class _Hop\|def _timed" src)"
# One replay loop: every simulator replay that calls the scheme per
# request -- plain, audited, instrumented, shadow -- is the engine's
# reference loop; only the flattened kernels skip it.
REPLAYS=$(grep -rn "scheme[.]process_request" src)
echo "$REPLAYS"
test "$(echo "$REPLAYS" | wc -l)" -eq 1
echo "$REPLAYS" | grep -q "^src/repro/sim/engine.py:"
# One observer seam: whatever watches a simulator run -- auditor,
# interval collector, instruments, shadow sampler, coherency stale-hit
# accounting -- rides SimulationEngine.run(observers=...), so no
# per-observer seam is left and the engine knows nothing of the audit
# layer.
test -z "$(grep -rn "interval_collector\|wants_outcomes" src)"
test -z "$(grep -n "from repro[.]verify\|import repro[.]verify" \
    src/repro/sim/engine.py)"

echo "== examples smoke =="
# The documented entry points keep working against the current API;
# each exits non-zero on failure.
for example in quickstart dynamics_study custom_topology offline_analysis; do
    PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python "examples/$example.py" \
        >/dev/null
    echo "examples/$example.py ok"
done

echo "== one served walk gate =="
# The report record has one form (the wire dict), the node no scheme-
# specific decode, one serving branch, one fwd constructor, and the
# message pricing lives in one module.
PIGGYBACK=src/repro/core/piggyback.py
NODE=src/repro/serve/node.py
test -z "$(grep -n "to_dict\|from_dict\|class NodeReport" "$PIGGYBACK")"
test -z "$(grep -n "_decoded_reports\|_coordinated\|repro\.core\.coordinated" "$NODE")"
test "$(grep -c '"type": MSG_RESP' "$NODE")" -eq 1
test "$(grep -c '"type": MSG_FWD' "$NODE")" -eq 1
PRICED=$(grep -rlE --include='*.py' \
    "REPORT_BYTES|TAG_BYTES|DECISION_BYTES|ACCUMULATOR_BYTES" src)
echo "$PRICED"
test "$PRICED" = "$PIGGYBACK"
# Shards follow the distribution tree: no hash ring under serve/.
test -z "$(grep -rn "HashRing\|hashlib" src/repro/serve/)"

echo "== one walk loop gate =="
# A process crosses its co-hosted hops in the node's own walk loop: no
# forwarder or frame-free call sits between two nodes, and the retry
# policy is passed as itself.
test -z "$(grep -rn "shard_forwarder\|direct_call\|ResilienceConfig" src)"
# Fault decisions exist in one routine, FaultInjector.hop: a frame (in
# the FaultyTransport) and an in-memory hop (at the node it reaches)
# meet the same seat, so each decision is called at one site, inside it.
INJECTOR=src/repro/faults/injector.py
SEAT=$(sed -n '/async def hop(/,/return decision.duplicate/p' "$INJECTOR")
for decision in link_decision node_down; do
    test "$(grep -rn "[.]$decision(" src | wc -l)" -eq 1
    echo "$SEAT" | grep -q "[.]$decision("
done

echo "== one descriptor object gate =="
# A descriptor is one object -- it *is* its sliding-window estimator, no
# second object hangs off it -- and the d-cache's victim pick is O(1):
# the LFU victim is the first id of the lowest-count bucket, never a sort.
test -z "$(grep -rn "[.]estimator" src)"
test -z "$(grep -n "sorted(" src/repro/cache/dcache.py)"

echo "== reference-walk call budget =="
# Python calls per request of the reference loop on a fixed small
# en-route coordinated trace -- bare, and with an auditor, an interval
# collector and a stat registry observing it -- and of a sequential
# in-process served replay of a fixed hierarchical trace: perf gates
# host load cannot move.  Prints each measured number beside its
# committed bound; exits 1 over any.
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python tests/test_call_budget.py

echo "== one request store =="
# A Trace is a view over one ColumnarTrace: to_trace() of a 1M-row trace
# shares the columns and builds no row, and the columnar kernels read the
# trace in row blocks, so a kernel run over 8x the rows peaks at most one
# block's lists higher.  A row of the store is 24 bytes (int32 ids and
# sizes, float64 times), and generate_columnar() of 1M rows peaks at
# most 26 bytes a row: no whole int64 column.  Memory only, so host load
# cannot move it.  Prints the to_trace peak, each kernel's peak growth,
# the store's bytes a row and the generation peak a row beside their
# bounds; exits 1 over any.
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python tests/test_trace_store.py
# The generator draws its Zipf ranks through a guide table: each rank
# must be the one np.searchsorted(cdf, u, side="left") gives.  Prints the
# table's buckets and correction passes and the adversarial draws (every
# CDF value and bucket edge with both neighbours, 0, 1 - 2**-53) it was
# exact on, per catalog shape; exits 1 on any mismatch.
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python tests/test_zipf_sampler.py

echo "== worker footprint =="
# A shard worker loads only the serving plane: a fresh import of the
# module holding its entrypoint must not load numpy (package __init__s
# export lazily; see docs/architecture.md).  Prints the import seconds,
# the module count and the peak resident set; exits 1 if numpy loaded.
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python - <<'EOF'
import sys
import time

started = time.perf_counter()
import repro.serve.shard  # noqa: E402,F401

seconds = time.perf_counter() - started
hwm = "n/a"
try:
    with open("/proc/self/status") as status:
        hwm = next(
            line.split(":")[1].strip()
            for line in status
            if line.startswith("VmHWM:")
        )
except OSError:
    pass
print(f"import repro.serve.shard: {seconds:.3f} s, "
      f"{len(sys.modules)} modules, VmHWM {hwm}")
assert "numpy" not in sys.modules, "a shard worker's import loads numpy"
EOF
# The shard workers spawned below a serve process (pid $1) load only the
# serving plane: none maps a numpy file.  Prints their peak resident sets.
shard_workers_map_no_numpy() {
    python - "$1" <<'EOF'
import os
import sys

children = {}
for entry in os.listdir("/proc"):
    if entry.isdigit():
        try:
            with open(f"/proc/{entry}/stat") as stat:
                ppid = int(stat.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        children.setdefault(ppid, []).append(int(entry))
below, todo = [], [int(sys.argv[1])]
while todo:
    kids = children.get(todo.pop(), [])
    below += kids
    todo += kids
workers, peaks = [], []
for pid in below:
    with open(f"/proc/{pid}/cmdline", "rb") as cmdline:
        if b"spawn_main" in cmdline.read():
            workers.append(pid)
assert len(workers) == 2, f"expected 2 shard workers, found {workers}"
for pid in workers:
    with open(f"/proc/{pid}/maps") as maps:
        numpy = [line for line in maps if "numpy" in line]
    assert not numpy, f"shard worker {pid} maps numpy: {numpy[0]}"
    with open(f"/proc/{pid}/status") as status:
        peaks += [line.split(":")[1].strip() for line in status
                  if line.startswith("VmHWM:")]
print(f"shard workers {workers} map no numpy; VmHWM {', '.join(peaks)}")
EOF
}
# The same holds under the installed `cascade-repro` console script,
# which multiprocessing re-runs as each worker's __mp_main__: the
# workers of `serve --shards 2` started through a launcher shaped like
# that script (it imports repro.cli) map no numpy either.
if [ -r /proc/self/maps ]; then
    FOOT_DIR=$(mktemp -d)
    FOOT_PID=""
    trap '[ -z "$FOOT_PID" ] || kill -TERM "$FOOT_PID" 2>/dev/null; rm -rf "$FOOT_DIR"' EXIT
    printf '%s\n' 'import sys' '' 'from repro.cli import main' '' \
        'if __name__ == "__main__":' '    sys.exit(main())' \
        > "$FOOT_DIR/cascade-repro"
    PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python "$FOOT_DIR/cascade-repro" \
        serve --scheme coordinated --arch hierarchical --scale small \
        --shards 2 --no-metrics --manifest "$FOOT_DIR/cluster.json" \
        > "$FOOT_DIR/serve.log" 2>&1 &
    FOOT_PID=$!
    waited=0
    while [ ! -s "$FOOT_DIR/cluster.json" ]; do
        kill -0 "$FOOT_PID" && [ "$waited" -lt 300 ] || {
            cat "$FOOT_DIR/serve.log"; exit 1; }
        sleep 0.2
        waited=$((waited + 1))
    done
    shard_workers_map_no_numpy "$FOOT_PID"
    kill -TERM "$FOOT_PID"
    wait "$FOOT_PID" || true
    FOOT_PID=""
    rm -rf "$FOOT_DIR"
    trap - EXIT
else
    echo "no /proc: skipping the console-script workers' numpy-mapping check"
fi

echo "== instrumented simulation smoke =="
# One coordinated run with the full observability layer on: JSONL event
# trace, per-node stat table, phase timers, windowed time series -- then
# the trace subcommand summarizing what the run wrote.
OBS_DIR=$(mktemp -d)
trap 'rm -rf "$OBS_DIR"' EXIT
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m repro sim \
    --scale small --schemes coordinated --size 0.01 \
    --trace-out "$OBS_DIR/run.jsonl" --node-stats --timers \
    --snapshot-every 5000 --timeseries-window 60 \
    --timeseries-out "$OBS_DIR/series.csv"
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m repro trace \
    "$OBS_DIR/run.jsonl"
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m repro trace \
    "$OBS_DIR/run.jsonl" --kinds placement --events --limit 3

echo "== approximate-placement family sweep (adaptive + costaware) =="
# The greedy and single-copy placement schemes through the full
# pipeline: an *audited* provisioned mini-sweep (uniform vs. edge-heavy
# capacity profiles; the command exits non-zero on any audit violation,
# while the placement oracle reports the adaptive-vs-DP gap as a note),
# then ingestion into a temporary warehouse where both new schemes must
# come back out of the scheme-arch and provisioning canned queries.
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m repro sweep \
    --arch hierarchical --schemes coordinated,adaptive,costaware \
    --sizes 0.02 --scale small --provision --profiles uniform,edge-heavy \
    --audit --metrics latency,byte_hit_ratio \
    --save "$OBS_DIR/family.json"
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m repro warehouse \
    --db "$OBS_DIR/family.sqlite" ingest \
    "$OBS_DIR/family.json" "$OBS_DIR/family.json.records.json"
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python - \
    "$OBS_DIR/family.sqlite" <<'EOF'
import sys

from repro.obs.warehouse import Warehouse

with Warehouse(sys.argv[1]) as warehouse:
    headers, rows = warehouse.query("scheme-arch")
    schemes = {row[headers.index("scheme")] for row in rows}
    assert {"coordinated", "adaptive", "costaware"} <= schemes, schemes
    headers, rows = warehouse.query("provisioning")
    assert len(rows) == 6, rows  # 3 schemes x 2 capacity profiles
    profiles = {row[headers.index("profile")] for row in rows}
    assert profiles == {"uniform", "edge-heavy"}, profiles
print("approximate-placement sweep: both new schemes present in "
      "scheme-arch, all 6 provisioning rows accounted for")
EOF

echo "== disabled-instrumentation overhead gate =="
# The obs layer's zero-overhead-when-off contract: a disabled bundle
# must stay within 5% of plain engine throughput (interleaved min-of-N).
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q \
    benchmarks/test_micro_probe_overhead.py

echo "== fast-path micro speedup gate =="
# The columnar kernels must stay recognizably faster than the reference
# loop (conservative 2x floor; catches eligibility-check regressions
# that silently hand every columnar run to the reference loop).
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q \
    benchmarks/test_micro_fastpath.py

echo "== fast-path long-form differential sweep =="
# Every scheme on both architectures under all three exact cost models,
# with an update stream, fast path against the reference loop down to
# the written-back descriptor, d-cache and NCL state (~20 s).
python3 scripts/_diff_fastpath.py

echo "== live serve/loadgen smoke (loopback TCP) =="
# End to end through the serving layer: background `repro serve`, drive
# part of the trace over real sockets with `repro loadgen`, scrape the
# per-node /metrics endpoints and require the request counter to have
# moved, then SIGTERM the server for the graceful drain-and-snapshot
# path.  SIGTERM, not SIGINT: POSIX shells start background jobs with
# SIGINT ignored.  Every step is bounded by `timeout` when available.
SERVE_DIR=$(mktemp -d)
SERVE_PID=""
cleanup() {
    if [ -n "$SERVE_PID" ] && kill -0 "$SERVE_PID" 2>/dev/null; then
        kill -TERM "$SERVE_PID" 2>/dev/null || true
        wait "$SERVE_PID" 2>/dev/null || true
    fi
    rm -rf "$OBS_DIR" "$SERVE_DIR"
}
trap cleanup EXIT
if command -v timeout >/dev/null 2>&1; then
    BOUND="timeout 180"
else
    BOUND=""
fi
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} $BOUND python -m repro serve \
    --scheme coordinated --arch hierarchical --scale small \
    --manifest "$SERVE_DIR/cluster.json" \
    --snapshot "$SERVE_DIR/snapshot.json" &
SERVE_PID=$!
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} $BOUND python -m repro loadgen \
    --manifest "$SERVE_DIR/cluster.json" --mode closed --concurrency 4 \
    --requests 2000 --wait 60 --json "$SERVE_DIR/report.json"
# scrape_handled MANIFEST REQUESTS: the handled-requests counters on the
# nodes' /metrics must sum to at least the requests driven, and a node's
# /healthz must say ready -- whichever process hosts the node.
scrape_handled() {
    PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} $BOUND python - "$@" <<'EOF'
import json, sys, urllib.request

manifest = json.load(open(sys.argv[1]))
driven = int(sys.argv[2])
handled = 0
for node, (host, port) in sorted(manifest["metrics"].items()):
    body = urllib.request.urlopen(
        f"http://{host}:{port}/metrics", timeout=10
    ).read().decode()
    for line in body.splitlines():
        if line.startswith("repro_node_requests_handled_total{"):
            handled += int(float(line.rsplit(" ", 1)[1]))
print(f"/metrics across {len(manifest['metrics'])} nodes: "
      f"{handled} request walks handled")
assert handled >= driven, f"request counter did not move: {handled}"
health = json.load(
    urllib.request.urlopen(f"http://{host}:{port}/healthz", timeout=10)
)
assert health["ready"] is True, health
EOF
}
scrape_handled "$SERVE_DIR/cluster.json" 2000
kill -TERM "$SERVE_PID"
wait "$SERVE_PID" || true
SERVE_PID=""
test -s "$SERVE_DIR/snapshot.json"
echo "graceful SIGTERM shutdown wrote $SERVE_DIR/snapshot.json"

echo "== chaos smoke (fault-injected serve + loadgen) =="
# The same serve/loadgen pair under the example fault plan: frame drops,
# delays, duplicates, corruption, one node crash-and-restart and one
# slow-down (the plan targets the small hierarchical topology at seed 0).
# The run must complete with zero client-visible errors -- the resilience
# layer (deadlines, retries, breakers, failover) absorbs every fault --
# and the retry counters scraped from /metrics must have moved.  A one-
# process serve crosses every hop in memory, so the timeouts counter
# moving shows the plan's drops fire at the nodes' per-hop seat.
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} $BOUND python -m repro serve \
    --scheme coordinated --arch hierarchical --scale small \
    --fault-plan examples/fault_plan.json \
    --rpc-timeout 5 --retry-attempts 4 \
    --manifest "$SERVE_DIR/chaos.json" &
SERVE_PID=$!
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} $BOUND python -m repro loadgen \
    --manifest "$SERVE_DIR/chaos.json" --mode closed --concurrency 4 \
    --requests 2000 --wait 60 --json "$SERVE_DIR/chaos_report.json"
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} $BOUND python - \
    "$SERVE_DIR/chaos.json" "$SERVE_DIR/chaos_report.json" <<'EOF'
import json, sys, urllib.request

report = json.load(open(sys.argv[2]))
assert report["errors"] == 0, f"client-visible errors: {report['errors']}"
assert report["cache_served"] + report["origin_served"] == 2000
manifest = json.load(open(sys.argv[1]))
survived = {"rpc_retries_total": 0, "failovers_total": 0,
            "rpc_timeouts_total": 0, "breaker_trips_total": 0}
for node, (host, port) in sorted(manifest["metrics"].items()):
    body = urllib.request.urlopen(
        f"http://{host}:{port}/metrics", timeout=10
    ).read().decode()
    for line in body.splitlines():
        for key in survived:
            if line.startswith(f"repro_cache_{key}{{"):
                survived[key] += int(float(line.rsplit(" ", 1)[1]))
print("resilience counters:",
      ", ".join(f"{k}={v}" for k, v in sorted(survived.items())))
assert survived["rpc_retries_total"] > 0, "fault plan exercised nothing"
assert survived["rpc_timeouts_total"] > 0, "no drop fired on an in-memory hop"
EOF
kill -TERM "$SERVE_PID"
wait "$SERVE_PID" || true
SERVE_PID=""
echo "chaos smoke survived the fault plan with zero client-visible errors"

echo "== sharded serve smoke (two worker processes, open-loop load, updates) =="
# The cluster split across two shard worker processes, driven open-loop
# (requests fire at retimed trace timestamps regardless of completions).
# Gates: zero client-visible errors AND zero rejections -- at this
# offered rate the cluster must absorb everything -- plus cross-shard
# forward counters in the drain snapshot that are nonzero, proving walks
# really crossed the process boundary, and no more than the requests
# served: the tree-contiguous plan cuts a walk at most once on two
# shards.  The workers' endpoints get the single-process stage's scrape:
# a worker is a Cluster, and one that drifts from it again fails here.
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} $BOUND python -m repro serve \
    --scheme coordinated --arch hierarchical --scale small \
    --shards 2 --coherency inband \
    --manifest "$SERVE_DIR/sharded.json" \
    --snapshot "$SERVE_DIR/sharded_snapshot.json" &
SERVE_PID=$!
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} $BOUND python -m repro loadgen \
    --manifest "$SERVE_DIR/sharded.json" --mode open --speedup 300 \
    --requests 1500 --wait 60 --json "$SERVE_DIR/sharded_report.json"
# Writes beside reads on the same two workers: a short sequential pass
# with an in-band update stream.  Each update is one inv frame to one
# node, relayed inside each shard; the client's accounting must still
# show every cache node reached by every update.
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} $BOUND python -m repro loadgen \
    --manifest "$SERVE_DIR/sharded.json" --mode sequential \
    --coherency inband --update-rate 5 \
    --requests 600 --wait 60 --json "$SERVE_DIR/sharded_updates_report.json"
scrape_handled "$SERVE_DIR/sharded.json" 2100
# The workers of `python -m repro serve --shards 2` -- the spawned
# processes below $SERVE_PID -- load only the serving plane: none of
# them maps a numpy file.
if [ -r /proc/self/maps ]; then
    shard_workers_map_no_numpy "$SERVE_PID"
else
    echo "no /proc: skipping the workers' numpy-mapping check"
fi
kill -TERM "$SERVE_PID"
wait "$SERVE_PID" || true
SERVE_PID=""
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} $BOUND python - \
    "$SERVE_DIR/sharded_report.json" "$SERVE_DIR/sharded_snapshot.json" \
    "$SERVE_DIR/sharded_updates_report.json" "$SERVE_DIR/sharded.json" <<'EOF'
import json, sys

from repro.experiments.presets import SMALL_SCALE, build_architecture

report = json.load(open(sys.argv[1]))
assert report["errors"] == 0, f"client-visible errors: {report['errors']}"
assert report["rejected"] == 0, f"rejected requests: {report['rejected']}"
updated = json.load(open(sys.argv[3]))
manifest = json.load(open(sys.argv[4]))
cache_nodes = len(build_architecture(
    manifest["arch"],
    SMALL_SCALE.with_seed(manifest["seed"]).workload,
    seed=manifest["seed"],
).cache_nodes)
assert updated["errors"] == 0, f"errors beside updates: {updated['errors']}"
assert updated["updates_applied"] > 0, "the update stream was empty"
assert updated["coherency"]["inv_frames"] == (
    updated["updates_applied"] * cache_nodes
), (updated["coherency"], updated["updates_applied"], cache_nodes)
print(f"sequential sharded updates: {updated['updates_applied']} updates x "
      f"{cache_nodes} cache nodes, {updated['copies_invalidated']} copies "
      "invalidated, 0 errors")
snapshot = json.load(open(sys.argv[2]))
assert snapshot["num_shards"] == 2, snapshot["num_shards"]
xfwd = sum(
    node["stats"].get("cross_shard_fwds", 0)
    for node in snapshot["nodes"].values()
)
assert xfwd > 0, "no walk crossed the shard boundary"
served = report["requests_total"] + updated["requests_total"]
assert xfwd <= served, f"{xfwd} crossings on {served} walks"
print(f"open-loop sharded smoke: {report['requests_total']} requests, "
      f"0 errors, {xfwd} cross-shard forwards")
EOF

echo "== observability smoke (traced shards + results warehouse) =="
# The PR-8 pipeline end to end: a short traced two-shard cluster writes
# per-shard span files; a one-point sweep leaves results + run-record
# sidecars; the loadgen report and a /metrics scrape land next to them;
# everything is ingested into one temporary sqlite warehouse.  Gates:
# the scheme-arch canned query returns exactly the sweep's row count,
# re-ingesting an artifact adds zero rows, and the spans reconstruct
# into a request tree covering both shard processes, every walk span's
# upstream wait inside its own wall time.
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m repro sweep \
    --arch hierarchical --schemes lru --sizes 0.05 --scale small \
    --metrics latency --node-stats --save "$SERVE_DIR/points.json"
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} $BOUND python -m repro serve \
    --scheme coordinated --arch hierarchical --scale small \
    --shards 2 --trace-out "$SERVE_DIR/spans.jsonl" \
    --manifest "$SERVE_DIR/traced.json" &
SERVE_PID=$!
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} $BOUND python -m repro loadgen \
    --manifest "$SERVE_DIR/traced.json" --mode closed --concurrency 4 \
    --requests 1000 --wait 60 --report-out "$SERVE_DIR/traced_report.json"
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} $BOUND python - \
    "$SERVE_DIR/traced.json" "$SERVE_DIR/scrape.prom" <<'EOF'
import json, sys, urllib.request

manifest = json.load(open(sys.argv[1]))
with open(sys.argv[2], "w") as out:
    for node, (host, port) in sorted(manifest["metrics"].items()):
        out.write(urllib.request.urlopen(
            f"http://{host}:{port}/metrics", timeout=10
        ).read().decode())
print(f"scraped /metrics of {len(manifest['metrics'])} nodes")
EOF
kill -TERM "$SERVE_PID"
wait "$SERVE_PID" || true
SERVE_PID=""
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m repro warehouse \
    --db "$SERVE_DIR/warehouse.sqlite" ingest \
    "$SERVE_DIR/points.json" "$SERVE_DIR/points.json.records.json" \
    "$SERVE_DIR/traced_report.json" "$SERVE_DIR/scrape.prom" \
    "$SERVE_DIR"/spans.shard*.jsonl
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python - \
    "$SERVE_DIR/warehouse.sqlite" "$SERVE_DIR/points.json" \
    "$SERVE_DIR"/spans.shard*.jsonl <<'EOF'
import sys

from repro.obs import read_trace_events, reconstruct_traces
from repro.obs.warehouse import Warehouse

with Warehouse(sys.argv[1]) as warehouse:
    headers, rows = warehouse.query("scheme-arch")
    assert len(rows) == 1, f"expected the sweep's single point: {rows}"
    headers, rows = warehouse.query("loadgen")
    assert len(rows) == 1, rows
    headers, rows = warehouse.query("metrics-latest")
    assert rows, "no /metrics samples ingested"
    headers, rows = warehouse.query("trace-shards")
    shards = headers.index("shards")
    assert rows and max(row[shards] for row in rows) >= 2, rows
    before = warehouse.table_counts()
    assert warehouse.ingest(sys.argv[2]).total_added == 0
    assert warehouse.table_counts() == before, "re-ingest changed rows"
events = [e for path in sys.argv[3:] for e in read_trace_events(path)]
trees = reconstruct_traces(events)
cross = [t for t in trees.values() if len(t.shards()) >= 2]
assert cross, "no reconstructed trace covers both shard processes"
walks = [
    s for t in trees.values() for s in t.walk_spans() if s.status != "busy"
]
assert walks and all(
    0.0 <= (s.upstream or 0.0) <= s.wall for s in walks
), "a walk span waited on its upstream longer than it ran"
print(f"warehouse smoke: {len(trees)} traces reconstructed, "
      f"{len(cross)} crossing shards; idempotent re-ingest verified")
print(cross[0].format())
EOF

echo "== coherency comparison smoke (in-band vs. channel) =="
# The PR-9 axis end to end.  Two real sim runs (same workload, same
# update stream) produce the in-band and channel sides of the
# comparison; a live channel-mode cluster then runs under a fault plan
# that drops 40% of broker fan-out frames, so convergence must come
# from gap detection + catch-up replay.  Gates: the loadgen report
# shows drops AND catch-ups AND zero pending after the drain sync, the
# SIGTERM snapshot agrees, and the warehouse's coherency-modes query
# lines both modes up from the sim sweep and the live run.
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m repro sim \
    --arch hierarchical --schemes lru --scale small --size 0.05 \
    --coherency inband --update-rate 0.5 \
    --save "$SERVE_DIR/coh_inband.json"
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m repro sim \
    --arch hierarchical --schemes lru --scale small --size 0.05 \
    --coherency channel --channel-poll-interval 20 --update-rate 0.5 \
    --save "$SERVE_DIR/coh_channel.json"
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} $BOUND python -m repro serve \
    --scheme lru --arch hierarchical --scale small \
    --coherency channel --no-metrics \
    --fault-plan examples/broker_fault_plan.json \
    --manifest "$SERVE_DIR/channel.json" \
    --snapshot "$SERVE_DIR/channel_snapshot.json" &
SERVE_PID=$!
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} $BOUND python -m repro loadgen \
    --manifest "$SERVE_DIR/channel.json" --mode sequential \
    --update-rate 0.5 --requests 1500 --wait 60 \
    --report-out "$SERVE_DIR/channel_report.json"
kill -TERM "$SERVE_PID"
wait "$SERVE_PID" || true
SERVE_PID=""
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} $BOUND python - \
    "$SERVE_DIR/channel_report.json" "$SERVE_DIR/channel_snapshot.json" <<'EOF'
import json, sys

report = json.load(open(sys.argv[1]))
coh = report["coherency"]
assert coh["mode"] == "channel", coh["mode"]
assert coh["event_drops"] > 0, "fault plan dropped no fan-out frames"
assert coh["node_catchups"] > 0, "drops recovered without any catchup?"
assert coh["pending"] == 0, f"drain sync left {coh['pending']} pending"
snapshot = json.load(open(sys.argv[2]))
snap_coh = snapshot["coherency"]
assert snap_coh["pending"] == 0, snap_coh["pending"]
assert snapshot["channel"]["broker"]["events_published"] > 0
print(f"channel smoke: {coh['events_published']} events, "
      f"{coh['event_drops']} dropped fan-outs recovered via "
      f"{coh['node_catchups']} catchups, 0 pending at drain")
EOF
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m repro warehouse \
    --db "$SERVE_DIR/coherency.sqlite" ingest \
    "$SERVE_DIR/coh_inband.json" "$SERVE_DIR/coh_channel.json" \
    "$SERVE_DIR/channel_report.json" "$SERVE_DIR/channel_snapshot.json"
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m repro warehouse \
    --db "$SERVE_DIR/coherency.sqlite" query coherency-modes
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python - \
    "$SERVE_DIR/coherency.sqlite" <<'EOF'
import sys

from repro.obs.warehouse import Warehouse

with Warehouse(sys.argv[1]) as warehouse:
    headers, rows = warehouse.query("coherency-modes")
    modes = {row[headers.index("mode")] for row in rows}
    contexts = {row[headers.index("context")] for row in rows}
    assert modes == {"inband", "channel"}, modes
    assert {"sim", "loadgen", "snapshot"} <= contexts, contexts
    print(f"coherency-modes: {len(rows)} rows covering {sorted(modes)} "
          f"across {sorted(contexts)}")
EOF

echo "== serve saturation throughput gate =="
# The quick serving benchmark against the committed BENCH_serve.json
# baseline: a two-shard cluster driven open-loop at offered rates far
# below any machine's saturation knee.  The gate is the achieved/offered
# *ratio* at the lowest level (machine speed cancels: an unsaturated
# cluster achieves ~1.0 of offered anywhere) within 20% of baseline,
# plus zero client-visible errors at every level.
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python scripts/bench_serve.py \
    --quick --check
