"""Analysis helpers: statistics, linear models, normalization, tables."""

from repro._lazy import lazy_exports

__all__ = [
    "TrialStats",
    "summarize",
    "t_quantile",
    "LinearFit",
    "fit_linear",
    "Range",
    "normalize_to_baseline",
    "range_across_objects",
    "render_table",
    "ascii_chart",
    "ascii_staircase",
    "energy_table_csv",
    "timeline_csv",
    "write_csv",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "ascii_plot": ("ascii_chart", "ascii_staircase"),
    "export": ("energy_table_csv", "timeline_csv", "write_csv"),
    "linear": ("LinearFit", "fit_linear"),
    "normalize": ("Range", "normalize_to_baseline", "range_across_objects"),
    "stats": ("TrialStats", "summarize", "t_quantile"),
    "tables": ("render_table",),
})
