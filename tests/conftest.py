"""Session fixtures: Section-3 studies computed once per test session.

Each study simulates every object of every application, so tests that
only read its result share one computation.  Treat the results as
read-only.
"""

import pytest


@pytest.fixture(scope="session")
def serial_fidelity_summary():
    """The serial ``fidelity_summary()``."""
    from repro.experiments.summary import fidelity_summary

    return fidelity_summary()


@pytest.fixture(scope="session")
def fidelity_only_report():
    """``full_report`` without the concurrency and goal studies."""
    from repro.experiments import full_report

    return full_report(include_concurrency=False, include_goal=False)
