"""PowerScope: statistical-sampling energy profiler (paper Section 2.1).

Collection (:class:`Multimeter` + :class:`SystemMonitor`) produces
correlated current and PC/PID sample sequences; the offline stage
(:func:`correlate`) merges them into an :class:`EnergyProfile`; and
:func:`render_profile` formats the Figure 2-style tables.  The
:class:`OnlinePowerMonitor` is the 100 ms on-line variant feeding
goal-directed adaptation (Section 5).
"""

from repro._lazy import lazy_exports

# ``correlate`` is also a submodule's name, so it stays eager (see
# repro._lazy).
from repro.powerscope.correlate import CorrelationError, correlate

__all__ = [
    "Multimeter",
    "SystemMonitor",
    "OnlinePowerMonitor",
    "SmartBatteryGauge",
    "GAUGE_OVERHEAD_W",
    "CurrentSample",
    "PcPidSample",
    "EnergyProfile",
    "ProfileEntry",
    "correlate",
    "CorrelationError",
    "render_profile",
    "render_process_detail",
    "ProfileDelta",
    "diff_profiles",
    "render_diff",
    "profile_run",
    "fold_phase_energy",
    "spans_to_segments",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "diff": ("ProfileDelta", "diff_profiles", "render_diff"),
    "multimeter": ("Multimeter", "SystemMonitor"),
    "online": ("OnlinePowerMonitor",),
    "phases": ("fold_phase_energy", "spans_to_segments"),
    "profile": ("EnergyProfile", "ProfileEntry"),
    "report": ("render_process_detail", "render_profile"),
    "samples": ("CurrentSample", "PcPidSample"),
    "smartbattery": ("GAUGE_OVERHEAD_W", "SmartBatteryGauge"),
})


def profile_run(machine, until, rate_hz=600.0, seed=0):
    """Convenience: profile a machine while running its simulator.

    Starts a multimeter + system monitor pair, runs the simulation to
    ``until``, and returns the correlated :class:`EnergyProfile`, folded
    from the machine's segment journal.
    """
    from repro.powerscope.multimeter import Multimeter, SystemMonitor

    monitor = SystemMonitor(machine, seed=seed)
    meter = Multimeter(machine, rate_hz=rate_hz, monitor=monitor)
    meter.start()
    machine.sim.run(until=until)
    meter.stop()
    machine.advance()
    return meter.profile()
