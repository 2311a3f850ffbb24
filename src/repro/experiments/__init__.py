"""Experiment harness: the paper's tables and figures as runnable sweeps."""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "presets": (
        "DEFAULT_CACHE_SIZES", "ExperimentPreset", "PAPER_SCALE", "SMALL_SCALE",
        "STANDARD_SCALE",
    ),
    "charts": ("render_ascii_chart", "render_figure"),
    "results_io": (
        "load_checkpoint", "load_points_json", "load_run_records", "save_points_json",
        "save_run_records",
    ),
    "robustness": ("RobustnessResult", "run_robustness"),
    "runner": ("GridResult", "GridTask", "ProgressEvent", "RunRecord", "run_grid"),
    "sweeps": (
        "SweepPoint", "run_cache_size_sweep", "run_single", "run_modulo_radius_sweep",
    ),
    "tables": (
        "figure_series", "format_sweep_table", "format_table1",
        "topology_characteristics",
    ),
})
