"""Analysis helpers: units, statistics, parameter sweeps, plotting and reports."""

from repro._exports import lazy_exports

__all__, _export, __dir__ = lazy_exports(
    __name__,
    {
        ".units": (
            "PS",
            "NS",
            "US",
            "MHZ",
            "GHZ",
            "KELVIN_0C",
            "db_to_linear",
            "linear_to_db",
            "format_si",
            "format_engineering",
        ),
        ".statistics": (
            "Histogram",
            "RunningStats",
            "percentile",
            "binomial_confidence_95",
            "bootstrap_confidence_interval",
        ),
        ".sweep": ("Sweep", "SweepResult", "grid_sweep", "link_ber_sweep"),
        ".plotting": ("ascii_heatmap", "ascii_histogram", "ascii_line_plot"),
        ".report": ("TextReport", "ReportTable"),
    },
)


def __getattr__(name: str):
    if name == "ExperimentReport":
        # Warn here (not via repro.analysis.report's own __getattr__) so the
        # DeprecationWarning is attributed to the caller's line, not to this
        # shim.
        import warnings

        warnings.warn(
            "repro.analysis.ExperimentReport was renamed to TextReport; "
            "the ExperimentReport name now belongs to the structured "
            "repro.scenarios.ExperimentReport data artefact",
            DeprecationWarning,
            stacklevel=2,
        )
        name = "TextReport"
    return _export(name)
