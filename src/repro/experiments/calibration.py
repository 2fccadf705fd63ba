"""The paper's Section 3 savings claims, declared once, and their check.

:data:`CLAIMS` holds one row per headline comparison of Figures 6, 8,
10 and 13 (e.g. "combined video adaptation saves 28-30% over
hardware-only"): the application, its label, the configuration, the
reference it is compared with, and the paper's band.  ``repro
calibrate``, ``repro report`` (:mod:`repro.experiments.summary`) and
the figure benchmarks all read it, and :func:`measure` is the one
evaluator: per-object ``1 - config/reference``, then min..max.

A row the model cannot meet also holds its recorded measured range, at
the 0.1-point precision EXPERIMENTS.md prints, and the number of its
"Known deviation" there.  The check gives every row one status:

- ``OK``: the measured range overlaps the paper's band;
- ``DEV``: a recorded deviation, still inside its recorded range;
- ``MISS``: outside the paper's band with no deviation recorded, or
  a deviation that has left its recorded range.

Only ``MISS`` fails :func:`report_ok`, so a documented deviation is
reported and a drift of one is caught.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

from repro.experiments.fidelity_study import (
    map_energy_table,
    speech_energy_table,
    video_energy_table,
    web_energy_table,
)

__all__ = [
    "CLAIMS",
    "Claim",
    "TABLES",
    "band_text",
    "calibration_report",
    "claims",
    "headline",
    "measure",
    "render_report",
    "report_ok",
]

#: The Section 3 energy table of each application, and its figure.
TABLES = {
    "video": video_energy_table,
    "speech": speech_energy_table,
    "map": map_energy_table,
    "web": web_energy_table,
}
_FIGURES = {"video": "Figure 6", "speech": "Figure 8", "map": "Figure 10",
           "web": "Figure 13"}


class Claim(NamedTuple):
    app: str
    label: str
    config: str
    reference: str
    paper: Tuple[float, float]
    recorded: Optional[Tuple[float, float]] = None
    deviation: Optional[int] = None


CLAIMS = (
    Claim("video", "hw-only", "hw-only", "baseline", (0.09, 0.10),
          (0.055, 0.062), 1),
    Claim("video", "premiere-c", "premiere-c", "hw-only", (0.16, 0.17),
          (0.138, 0.148), 2),
    Claim("video", "reduced-window", "reduced-window", "hw-only",
          (0.19, 0.20), (0.172, 0.177), 2),
    Claim("video", "combined", "combined", "hw-only", (0.28, 0.30),
          (0.315, 0.321), 2),
    Claim("video", "combined vs baseline", "combined", "baseline",
          (0.34, 0.36)),
    Claim("speech", "hw-only", "hw-only", "baseline", (0.33, 0.34),
          (0.344, 0.344), 5),
    Claim("speech", "reduced", "reduced", "hw-only", (0.25, 0.46)),
    Claim("speech", "remote", "remote", "hw-only", (0.33, 0.44)),
    Claim("speech", "hybrid", "hybrid", "hw-only", (0.47, 0.55)),
    Claim("speech", "remote-reduced", "remote-reduced", "hw-only",
          (0.42, 0.65)),
    Claim("speech", "hybrid-reduced", "hybrid-reduced", "hw-only",
          (0.53, 0.70)),
    Claim("speech", "hybrid-red vs baseline", "hybrid-reduced", "baseline",
          (0.69, 0.80)),
    Claim("map", "hw-only", "hw-only", "baseline", (0.09, 0.19)),
    Claim("map", "minor-filter", "minor-filter", "hw-only", (0.06, 0.51)),
    Claim("map", "secondary-filter", "secondary-filter", "hw-only",
          (0.23, 0.55)),
    Claim("map", "cropped", "cropped", "hw-only", (0.14, 0.49)),
    Claim("map", "crop-secondary", "crop-secondary", "hw-only",
          (0.36, 0.66)),
    Claim("map", "lowest vs baseline", "crop-secondary", "baseline",
          (0.46, 0.70)),
    Claim("web", "hw-only", "hw-only", "baseline", (0.22, 0.26)),
    Claim("web", "jpeg-5", "jpeg-5", "hw-only", (0.04, 0.14)),
    Claim("web", "jpeg-5 vs baseline", "jpeg-5", "baseline", (0.29, 0.34)),
)


def claims(app):
    """The rows of ``app``, in figure order."""
    return [claim for claim in CLAIMS if claim.app == app]


def headline(app):
    """``{"hw-only": claim, "lowest": claim}``: the app's two claims
    against the baseline, hardware PM alone and at lowest fidelity."""
    hw_only, lowest = (claim for claim in claims(app)
                       if claim.reference == "baseline")
    return {"hw-only": hw_only, "lowest": lowest}


def savings(table, config, reference):
    """Per-object fractional savings of ``config`` vs ``reference``."""
    ref = table[reference]
    cfg = table[config]
    return [1.0 - cfg[obj] / ref[obj] for obj in ref]


def measure(claim, table):
    """``(min, max)`` of the claim's savings across the table's objects."""
    values = savings(table, claim.config, claim.reference)
    return min(values), max(values)


def band_text(band):
    """A fractional band as EXPERIMENTS.md's "Paper" column prints it."""
    return f"{band[0] * 100:.0f}-{band[1] * 100:.0f}%"


def _check(claim, table):
    measured_lo, measured_hi = measure(claim, table)
    paper_lo, paper_hi = claim.paper
    ok = measured_hi >= paper_lo and measured_lo <= paper_hi
    band = {
        "label": claim.label,
        "vs": claim.reference,
        "measured_lo": measured_lo,
        "measured_hi": measured_hi,
        "paper_lo": paper_lo,
        "paper_hi": paper_hi,
        "ok": ok,
        "status": "OK" if ok else "MISS",
    }
    if claim.deviation is not None:
        lo, hi = claim.recorded
        held = lo <= round(measured_lo, 3) and round(measured_hi, 3) <= hi
        band.update(deviation=claim.deviation, recorded_lo=lo,
                    recorded_hi=hi, status="DEV" if held else "MISS")
    return band


def calibration_report():
    """Check every claim over each :data:`TABLES` table at its defaults;
    returns a JSON-shaped report."""
    tables = {app: table_fn() for app, table_fn in TABLES.items()}
    figures = [{
        "name": app,
        "figure": figure,
        "baseline": {obj: round(joules)
                     for obj, joules in tables[app]["baseline"].items()},
        "bands": [_check(claim, tables[app]) for claim in claims(app)],
    } for app, figure in _FIGURES.items()]
    return {
        "figures": figures,
        "ok": all(band["status"] != "MISS" for figure in figures
                  for band in figure["bands"]),
    }


def report_ok(report):
    return bool(report["ok"])


def render_report(report):
    """One line per claim: its status, measured range and paper band."""
    lines = []
    for figure in report["figures"]:
        lines.append(f"{figure['name']} ({figure['figure']})")
        lines.append(f"   baseline energies: {figure['baseline']}")
        for band in figure["bands"]:
            line = (
                f"  [{band['status']:<4}] {band['label']:<28} "
                f"vs {band['vs']:<8} "
                f"measured {band['measured_lo'] * 100:5.1f}-"
                f"{band['measured_hi'] * 100:5.1f}%   "
                f"paper {band_text((band['paper_lo'], band['paper_hi']))}"
            )
            if "deviation" in band:
                line += (f"   (deviation {band['deviation']}: recorded "
                         f"{band['recorded_lo'] * 100:.1f}-"
                         f"{band['recorded_hi'] * 100:.1f}%)")
            lines.append(line)
    return "\n".join(lines)
