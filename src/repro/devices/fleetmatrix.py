"""Fleet-matrix names kept for callers of the per-device matrix.

The device axis lives in :mod:`repro.fleet.diffmatrix`: a
:class:`~repro.fleet.diffmatrix.PolicyMatrix` built with ``devices`` is
the fleet matrix.  These are aliases onto that single implementation.
"""

from __future__ import annotations

from repro.fleet.diffmatrix import (
    PolicyMatrix as FleetMatrix,
    matrix_from_result as fleet_from_result,
    matrix_from_values as fleet_from_values,
    policy_matrix_campaign,
)

__all__ = [
    "FleetMatrix",
    "fleet_matrix_campaign",
    "fleet_from_values",
    "fleet_from_result",
]


def fleet_matrix_campaign(devices, candidates, baseline=None, scenario=None,
                          name=None, gap=0):
    """:func:`~repro.fleet.diffmatrix.policy_matrix_campaign` with the
    fleet first."""
    return policy_matrix_campaign(candidates, baseline=baseline,
                                  scenario=scenario, name=name, gap=gap,
                                  devices=devices)
