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

echo "== one walk gate =="
# The request walk is written once: schemes implement the per-node steps
# (or the hooks the default steps call), never process_request.
WALKS=$(grep -rn "def process_request" src/repro/schemes src/repro/core)
echo "$WALKS"
test "$(echo "$WALKS" | wc -l)" -eq 1

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
# that silently reroute everything through the generic loop).
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q \
    benchmarks/test_micro_fastpath.py

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
# and the retry counters scraped from /metrics must have moved.
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
# into a request tree covering both shard processes.
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
