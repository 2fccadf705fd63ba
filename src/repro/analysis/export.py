"""CSV export of experiment results and traces.

Benchmarks print paper-style tables; this module writes the same data
as machine-readable CSV so downstream users can re-plot the figures
with their tool of choice.
"""

from __future__ import annotations

import csv
import io

__all__ = ["energy_table_csv", "timeline_csv", "write_csv"]


def energy_table_csv(energies_by_config, object_names=None):
    """Render a ``{config: {object: value}}`` table as CSV text."""
    if not energies_by_config:
        raise ValueError("empty table")
    first = next(iter(energies_by_config.values()))
    objects = list(object_names) if object_names else list(first)
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["config"] + objects)
    for config, row in energies_by_config.items():
        writer.writerow([config] + [row.get(obj, "") for obj in objects])
    return buffer.getvalue()


def timeline_csv(rows):
    """Render ``(time, category, label, value, extra)`` rows as CSV text.

    The rows are a goal run's Figure 19 series
    (:attr:`~repro.experiments.GoalResult.series`).
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["time", "category", "label", "value", "extra"])
    writer.writerows(rows)
    return buffer.getvalue()


def write_csv(path, text):
    """Write CSV text to a file, returning the path."""
    with open(path, "w", newline="") as handle:
        handle.write(text)
    return path
