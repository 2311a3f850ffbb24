"""cascade-repro: coordinated management of cascaded caches.

A reproduction of Tang & Chanson, *Coordinated Management of Cascaded
Caches for Efficient Content Distribution* (ICDE 2003): the k-optimization
dynamic program for object placement, the coordinated placement +
replacement scheme, the LRU / MODULO / LNC-R baselines, and a trace-driven
simulator for en-route and hierarchical caching architectures.

Quickstart::

    from repro import (
        STANDARD_SCALE, SimulationConfig, build_architecture, run_single,
    )

    preset = STANDARD_SCALE
    generator = preset.generator()
    trace = generator.generate()
    arch = build_architecture("en-route", preset.workload, seed=1)
    point = run_single(
        arch, trace, generator.catalog, "coordinated",
        SimulationConfig(relative_cache_size=0.01),
    )
    print(point.summary.mean_latency)
"""

from repro._exports import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "analysis.che": ("expected_byte_hit_ratio", "lru_hit_ratios"),
    "analysis.static_plan": ("greedy_static_plan",),
    "analysis.tree_placement": ("TreePlacementProblem", "optimal_tree_placement"),
    "core.coordinated": ("CoordinatedScheme",),
    "core.placement": (
        "PlacementProblem", "PlacementSolution", "brute_force_placement",
        "enforce_monotone_frequencies", "solve_placement",
    ),
    "costs.model": ("LatencyCostModel",),
    "experiments.presets": (
        "DEFAULT_CACHE_SIZES", "PAPER_SCALE", "SMALL_SCALE", "STANDARD_SCALE",
        "ExperimentPreset", "build_architecture",
    ),
    "experiments.sweeps": (
        "SweepPoint", "run_cache_size_sweep", "run_modulo_radius_sweep", "run_single",
    ),
    "experiments.charts": ("render_ascii_chart", "render_figure"),
    "experiments.tables": (
        "figure_series", "format_sweep_table", "format_table1",
        "topology_characteristics",
    ),
    "experiments.compare": ("compare_points",),
    "experiments.results_io": (
        "load_checkpoint", "load_points_json", "load_run_records", "save_points_json",
        "save_run_records",
    ),
    "experiments.robustness": ("RobustnessResult", "run_robustness"),
    "experiments.runner": (
        "GridResult", "GridTask", "ProgressEvent", "RunRecord", "run_grid",
    ),
    "metrics.collector": ("MetricsSummary",),
    "metrics.replication": (
        "copies_per_object", "density_by_popularity", "occupancy_by_level",
    ),
    "schemes.lncr": ("LNCRScheme",),
    "schemes.lru_everywhere": ("LRUEverywhereScheme",),
    "schemes.modulo": ("ModuloScheme",),
    "sim.architecture": (
        "Architecture", "build_enroute_architecture", "build_hierarchical_architecture",
    ),
    "sim.config": ("SimulationConfig",),
    "sim.engine": ("SimulationEngine", "SimulationResult"),
    "sim.factory": ("SCHEME_NAMES", "build_scheme"),
    "workload.generator": ("BoeingLikeTraceGenerator", "WorkloadConfig"),
})
