"""Calibration of the IBM ThinkPad 560X testbed (paper Figure 4).

Published component powers (Figure 4):

====================  ==========  =========
Component             State       Power (W)
====================  ==========  =========
Display               Bright      4.54
Display               Dim         1.95
WaveLAN               Idle        1.46
WaveLAN               Standby     0.18
Disk                  Idle        0.88
Disk                  Standby     0.16
Other (base)          Idle        3.20
====================  ==========  =========

Published totals the correction term reproduces:

* 10.28 W with screen brightest, disk and network idle — 0.21 W more
  than the component sum (4.54 + 1.46 + 0.88 + 3.20 = 10.08).
* 5.6 W background (display dim, WaveLAN & disk standby) — the
  component sum is 5.49 W, so the correction contributes ~0.11 W.

Powers the paper did not publish (CPU busy draw, NIC transmit/receive,
disk active) are calibration constants chosen from the literature the
paper cites (Stemm & Katz for WaveLAN; Douglis et al. for disks) and
tuned so the application-level results land in the paper's reported
bands; see DESIGN.md §5.
"""

from __future__ import annotations

from repro.hardware.battery import Battery, ExternalSupply
from repro.hardware.component import PowerComponent
from repro.hardware.cpu import Cpu
from repro.hardware.disk import Disk
from repro.hardware.display import Display, ZonedDisplay
from repro.hardware.machine import Machine
from repro.hardware.wavelan import WaveLan

__all__ = [
    "DISPLAY_BRIGHT_W",
    "DISPLAY_DIM_W",
    "WAVELAN_IDLE_W",
    "WAVELAN_STANDBY_W",
    "DISK_IDLE_W",
    "DISK_STANDBY_W",
    "BASE_W",
    "CPU_BUSY_EXTRA_W",
    "CPU_POLL_EXTRA_W",
    "WAVELAN_RECV_W",
    "WAVELAN_XMIT_W",
    "DISK_ACTIVE_W",
    "FULL_ON_TOTAL_W",
    "BACKGROUND_W",
    "VOLTAGE",
    "NOMINAL_BATTERY_J",
    "superlinear_correction",
    "build_machine",
]

# -- Figure 4 (published) ----------------------------------------------
DISPLAY_BRIGHT_W = 4.54
DISPLAY_DIM_W = 1.95
WAVELAN_IDLE_W = 1.46
WAVELAN_STANDBY_W = 0.18
DISK_IDLE_W = 0.88
DISK_STANDBY_W = 0.16
BASE_W = 3.20

# -- published totals reproduced by the correction term -----------------
FULL_ON_TOTAL_W = 10.28   # bright display, disk and network idle
BACKGROUND_W = 5.60       # dim display, WaveLAN & disk standby

# -- calibration constants (not in Figure 4; see module docstring) ------
CPU_BUSY_EXTRA_W = 9.0    # whole-system extra under load, above hlt baseline
CPU_POLL_EXTRA_W = 0.8    # idle loop without hlt (power management off)
WAVELAN_RECV_W = 2.50
WAVELAN_XMIT_W = 2.70
DISK_ACTIVE_W = 2.10
DISK_SPINUP_S = 2.5
VOLTAGE = 16.0            # external supply voltage (controlled to 0.25 %)
NOMINAL_BATTERY_J = 90_000.0   # fully charged 560X battery (Fig. 22)

SCREEN_WIDTH = 800
SCREEN_HEIGHT = 600


def superlinear_correction(machine):
    """The 560X's measured superlinearity.

    0.11 W whenever the machine is powered, plus a further 0.10 W when
    the display is bright — reproducing both published totals:
    10.08 + 0.21 = ~10.28 W full-on and 5.49 + 0.11 = 5.60 W background.
    """
    display = machine.components.get("display")
    extra = 0.10 if display is not None and display.state == Display.BRIGHT else 0.0
    return 0.11 + extra


def build_machine(sim, supply=None, zoned=None, scheduler=None, profile=None):
    """Assemble a calibrated ThinkPad 560X model.

    Parameters
    ----------
    sim:
        Driving simulator.
    supply:
        Energy supply; defaults to an :class:`ExternalSupply` (the
        paper removed the battery during measurement).
    zoned:
        ``None`` for the stock display, or ``(rows, cols)`` for the
        Section 4 zoned-backlighting projection (``(2, 2)`` = 4 zones,
        ``(2, 4)`` = 8 zones).
    scheduler:
        Optional :class:`~repro.sim.scheduler.QuantumScheduler` for
        round-robin CPU time-slicing (FIFO whole-burst by default).
    profile:
        Optional :class:`~repro.devices.DeviceProfile`; scales each
        component's wattage table as it is attached (the default
        ``None`` reproduces the calibrated Figure-4 machine exactly).
    """
    machine = Machine(
        sim,
        supply=supply if supply is not None else ExternalSupply(),
        voltage=VOLTAGE,
        correction=superlinear_correction,
        scheduler=scheduler,
        profile=profile,
    )
    machine.attach(PowerComponent("base", {"on": BASE_W}, "on"))
    machine.attach(Cpu(CPU_BUSY_EXTRA_W, poll_extra_watts=CPU_POLL_EXTRA_W))
    if zoned is None:
        display = Display(
            DISPLAY_BRIGHT_W, DISPLAY_DIM_W,
            width=SCREEN_WIDTH, height=SCREEN_HEIGHT,
        )
    else:
        rows, cols = zoned
        display = ZonedDisplay(
            DISPLAY_BRIGHT_W, DISPLAY_DIM_W, rows, cols,
            width=SCREEN_WIDTH, height=SCREEN_HEIGHT,
        )
    machine.attach(display)
    machine.attach(
        Disk(
            DISK_IDLE_W, DISK_STANDBY_W, DISK_ACTIVE_W,
            spinup_seconds=DISK_SPINUP_S,
        )
    )
    machine.attach(
        WaveLan(WAVELAN_IDLE_W, WAVELAN_STANDBY_W, WAVELAN_RECV_W, WAVELAN_XMIT_W)
    )
    return machine


def nominal_battery():
    """A fully charged 560X battery (~90 kJ, paper Section 5.4)."""
    return Battery(NOMINAL_BATTERY_J)
