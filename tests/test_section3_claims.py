"""The paper's Section 3 claims, checked over the session tables.

The savings bands that ``repro calibrate`` and ``repro report`` print
are recorded here to full float precision, so a change that moves any
of them fails tier-1 instead of passing unseen.  Every test reads the
session ``section3_tables``: none runs a simulation of its own.
"""

import pathlib

from repro.experiments.calibration import (
    CLAIMS,
    calibration_report,
    headline,
    report_ok,
    savings,
)

EXPERIMENTS = pathlib.Path(__file__).resolve().parents[1] / "EXPERIMENTS.md"

#: ``fidelity_summary()``: per app, hardware-only and lowest-fidelity
#: savings vs the baseline, (min, max) across the four objects.
FIDELITY = {
    "video": {"hw-only": (0.054942113330361364, 0.062417297055683774),
              "lowest": (0.35750591758656924, 0.3579458860278435)},
    "speech": {"hw-only": (0.34421980300673927, 0.34421980300673927),
               "lowest": (0.6971497723938376, 0.7343919137498065)},
    "map": {"hw-only": (0.16519331261651427, 0.18855630352639507),
            "lowest": (0.4623424798597544, 0.6462338459224518)},
    "web": {"hw-only": (0.22458190206802697, 0.2514129845405664),
            "lowest": (0.25137747281480405, 0.33795571406280467)},
}

#: Every calibration band: (app, label, measured_lo, measured_hi, ok).
BANDS = [
    ("video", "hw-only", 0.054942113330361364, 0.062417297055683774, False),
    ("video", "premiere-c", 0.13812879156928692, 0.14842868530311837, False),
    ("video", "reduced-window", 0.1721905878351495, 0.1766046389901198,
     False),
    ("video", "combined", 0.31473343055947034, 0.32061927313813565, False),
    ("video", "combined vs baseline", 0.35750591758656924,
     0.3579458860278435, True),
    ("speech", "hw-only", 0.34421980300673927, 0.34421980300673927, False),
    ("speech", "reduced", 0.40625, 0.4062500000000001, True),
    ("speech", "remote", 0.33139078379704967, 0.36544718956932387, True),
    ("speech", "hybrid", 0.4423211746622232, 0.4991117601765822, True),
    ("speech", "remote-reduced", 0.523115092097445, 0.5571714978697191,
     True),
    ("speech", "hybrid-reduced", 0.538183328812421, 0.5949739143267799,
     True),
    ("speech", "hybrid-red vs baseline", 0.6971497723938376,
     0.7343919137498065, True),
    ("map", "hw-only", 0.16519331261651427, 0.18855630352639507, True),
    ("map", "minor-filter", 0.061439681698910564, 0.39505119826672275,
     True),
    ("map", "secondary-filter", 0.19455899204655058, 0.490408384055242,
     True),
    ("map", "cropped", 0.23039880637091525, 0.3065052400345263, True),
    ("map", "crop-secondary", 0.3374062519965182, 0.5762298512649093, True),
    ("map", "lowest vs baseline", 0.4623424798597544, 0.6462338459224518,
     True),
    ("web", "hw-only", 0.22458190206802697, 0.2514129845405664, True),
    ("web", "jpeg-5", -4.743834053866358e-05, 0.14620991217143853, True),
    ("web", "jpeg-5 vs baseline", 0.25137747281480405, 0.33795571406280467,
     True),
]


def _bands(report):
    return [
        (figure["name"], band["label"], band["measured_lo"],
         band["measured_hi"], band["ok"])
        for figure in report["figures"] for band in figure["bands"]
    ]


def test_fidelity_summary_equals_the_recorded_one(serial_fidelity_summary):
    assert serial_fidelity_summary == FIDELITY


def test_claims_hold_and_only_the_known_deviations_miss(
        served_section3_tables):
    report = calibration_report()
    assert report_ok(report)
    bands = [band for figure in report["figures"]
             for band in figure["bands"]]
    # A deviation whose row has come back inside the paper's band is a
    # stale note: exactly the rows with a deviation sit outside.
    outside = [(claim.app, claim.label)
               for claim, band in zip(CLAIMS, bands) if not band["ok"]]
    assert outside == [(claim.app, claim.label) for claim in CLAIMS
                       if claim.deviation is not None]
    assert len(outside) == 5
    assert [band["status"] for band in bands].count("DEV") == 5
    assert _bands(report) == BANDS


def test_abstract_headline_claims(section3_tables):
    """"Energy reductions in the range of 7% to 72%, with a mean of
    36% ... overall reductions between 31% and 76%, with a mean of 50%
    -- in effect, doubling battery life": per app, lowest fidelity vs
    hardware-only PM (fidelity) and vs the baseline (overall)."""
    fidelity, overall = {}, {}
    for app, table in section3_tables.items():
        lowest = headline(app)["lowest"].config
        fidelity[app] = savings(table, lowest, "hw-only")
        overall[app] = savings(table, lowest, "baseline")

    def mean(values):
        return sum(values) / len(values)

    fidelity_mean = mean([mean(values) for values in fidelity.values()])
    overall_mean = mean([mean(values) for values in overall.values()])
    all_fidelity = [bound for values in fidelity.values()
                    for bound in (min(values), max(values))]
    assert min(all_fidelity) < 0.20      # some app saves little (web)
    assert max(all_fidelity) > 0.50      # some app saves a lot (speech)
    assert 0.25 <= fidelity_mean <= 0.45  # paper: 36%
    assert 0.38 <= overall_mean <= 0.60   # paper: 50%
    assert 1.0 / (1.0 - overall_mean) > 1.6  # "in effect, doubling"


def _paper_cells(figure):
    """The "Paper" column of EXPERIMENTS.md's table under ``figure``."""
    section = EXPERIMENTS.read_text(encoding="utf-8").split(
        f"### {figure} ", 1)[1].split("\n### ", 1)[0]
    rows = [line.split("|")[1:-1] for line in section.splitlines()
            if line.startswith("|")]
    return [cells[1].strip() for cells in rows[2:]]


def test_experiments_md_paper_bands_follow_the_claims():
    cells = [cell for figure in ("Figure 6", "Figure 8", "Figure 10",
                                 "Figure 13")
             for cell in _paper_cells(figure)]
    assert cells == [
        f"{claim.paper[0] * 100:.0f}\u2013{claim.paper[1] * 100:.0f} %"
        for claim in CLAIMS
    ]
