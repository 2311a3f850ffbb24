"""A shard worker loads only the serving plane.

A spawned worker unpickles ``repro.serve.shard._shard_worker_main`` and
its :class:`~repro.serve.shard.ShardSpec`, so what that import and that
pickle pull in is paid once per worker process.  Four checks:

* a fresh interpreter importing ``repro.serve.shard`` loads neither
  numpy nor sqlite3 nor the experiment, analysis and audit layers;
* nor does one importing ``repro.cli``, which a worker spawned under
  the ``cascade-repro`` console script imports too, load numpy or the
  experiment and analysis layers;
* a ``ShardSpec`` built by ``ShardedCluster`` from a real
  ``ObjectCatalog`` pickles without a numpy global;
* the workers of a started two-shard cluster map no numpy file.
"""

from __future__ import annotations

import json
import os
import pickle
import pickletools
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.presets import SMALL_SCALE, build_architecture
from repro.serve.shard import ShardedCluster

SRC = Path(__file__).resolve().parents[1] / "src"
NOT_IN_A_WORKER = (
    "numpy",
    "sqlite3",
    "repro.experiments",
    "repro.analysis",
    "repro.verify",
    "repro.obs.warehouse",
)


def small_sharded_cluster(num_shards: int = 2) -> ShardedCluster:
    preset = SMALL_SCALE.with_seed(3)
    arch = build_architecture("hierarchical", preset.workload, seed=3)
    return ShardedCluster(
        arch, preset.generator().catalog, "coordinated", num_shards=num_shards
    )


def fresh_import(module: str) -> set:
    """The modules a fresh interpreter holds once it imported ``module``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [
            sys.executable,
            "-c",
            "import json, sys\n"
            f"import {module}\n"
            "print(json.dumps(sorted(sys.modules)))",
        ],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    loaded = set(json.loads(out))
    assert module in loaded
    return loaded


def test_the_worker_import_closure_is_the_serving_plane():
    loaded = fresh_import("repro.serve.shard")
    assert sorted(loaded.intersection(NOT_IN_A_WORKER)) == []


def test_the_console_script_module_loads_no_experiment_layer():
    """Multiprocessing re-runs the ``cascade-repro`` console script as
    each shard worker's ``__mp_main__``, so every worker it spawns
    imports ``repro.cli`` too."""
    loaded = fresh_import("repro.cli")
    heavy = {"numpy", "repro.experiments", "repro.analysis"}
    assert sorted(loaded & heavy) == []


def test_a_shard_spec_pickles_without_numpy():
    cluster = small_sharded_cluster()
    blob = pickle.dumps(cluster.spec(0))
    # Protocol 4+ pushes a global's module name as a string before
    # STACK_GLOBAL; older protocols carry "module name" in GLOBAL.
    named = [
        arg
        for _, arg, _ in pickletools.genops(blob)
        if isinstance(arg, str) and arg.split(" ")[0].split(".")[0] == "numpy"
    ]
    assert named == []
    spec = pickle.loads(blob)
    catalog = cluster.catalog
    assert tuple(spec.catalog) == (
        catalog.num_objects,
        catalog.total_bytes,
        catalog.mean_size,
    )
    assert [type(value) for value in spec.catalog] == [int, int, float]


@pytest.mark.skipif(
    not os.path.exists("/proc/self/maps"), reason="needs /proc/<pid>/maps"
)
def test_started_workers_map_no_numpy():
    cluster = small_sharded_cluster()
    cluster.start()
    try:
        pids = [process.pid for process in cluster._processes]
        assert len(pids) == 2
        for pid in pids:
            with open(f"/proc/{pid}/maps") as maps:
                mapped = [line for line in maps if "numpy" in line]
            assert mapped == [], f"shard worker {pid} maps numpy"
    finally:
        cluster.stop()
