"""Session fixtures: the Section-3 energy tables computed once per session.

Each table simulates every object of one application under every
configuration.  The summary, report, figure-export and ``fig06`` paths
all start from the four tables at their default arguments, so tests
that drive those paths read them from one session computation.  Treat
the results as read-only.
"""

import contextlib
import copy

import pytest


@pytest.fixture(scope="session")
def section3_tables():
    """``{app: table}`` from each Section-3 table function's defaults."""
    from repro.experiments.calibration import TABLES

    return {app: table_fn() for app, table_fn in TABLES.items()}


def _served(real, table):
    def table_fn(*args, **kwargs):
        if args or kwargs:
            return real(*args, **kwargs)
        return copy.deepcopy(table)

    return table_fn


@contextlib.contextmanager
def _serving(tables):
    """Answer default-argument table calls from ``tables``.

    Patches every binding the claims check, the summary, the figure
    bundles and the CLI read; calls with any argument still simulate.
    """
    import repro.experiments
    from repro.experiments import calibration, figures

    with pytest.MonkeyPatch.context() as patch:
        for app, real in list(calibration.TABLES.items()):
            served = _served(real, tables[app])
            patch.setitem(calibration.TABLES, app, served)
            patch.setattr(repro.experiments, real.__name__, served)
            patch.setattr(figures, real.__name__, served)
        yield


@pytest.fixture
def served_section3_tables(section3_tables):
    """Within one test, the Section-3 tables come from the session."""
    with _serving(section3_tables):
        yield section3_tables


@pytest.fixture(scope="session")
def serial_fidelity_summary(section3_tables):
    """The serial ``fidelity_summary()``."""
    from repro.experiments.summary import fidelity_summary

    with _serving(section3_tables):
        return fidelity_summary()


@pytest.fixture(scope="session")
def fidelity_only_report(section3_tables):
    """``full_report`` without the concurrency and goal studies."""
    from repro.experiments import full_report

    with _serving(section3_tables):
        return full_report(include_concurrency=False, include_goal=False)
