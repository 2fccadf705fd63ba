"""Experiment rig: assembles a complete simulated client.

One rig = one trial: a fresh simulator, a calibrated ThinkPad 560X, the
wireless link, the remote servers, the X server, the wardens, and the
four adaptive applications — mirroring the experimental setup of paper
Section 3.2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.apps import (
    DEFAULT_COSTS,
    MapViewer,
    MapWarden,
    SpeechRecognizer,
    SpeechWarden,
    VideoPlayer,
    VideoWarden,
    WebBrowser,
    WebWarden,
    XServer,
)
from repro.hardware import PowerManager, build_machine
from repro.hardware.battery import ExternalSupply
from repro.net import Link, RpcChannel, Server
from repro.sim import Simulator
from repro.workloads.thinktime import DEFAULT_THINK_S, FixedThinkTime

__all__ = ["Rig", "build_rig"]

WAVELAN_BANDWIDTH_BPS = 2e6  # 2 Mb/s 900 MHz WaveLAN


@dataclass
class Rig:
    """All the moving parts of one experimental trial."""

    sim: object
    machine: object
    link: object
    xserver: object
    power_manager: object
    servers: dict = field(default_factory=dict)
    wardens: dict = field(default_factory=dict)
    apps: dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    def run_until_complete(self, *processes):
        """Step the simulation until every given process finishes.

        Returns the machine's total energy at the completion instant —
        the paper measures each experiment from start to workload end,
        excluding whatever the event queue still holds (e.g. pending
        spin-down timers).
        """
        # A finished process stays finished, so stepping until each in
        # turn is done stops at the same event as stepping until all are.
        step = self.sim.step
        for process in processes:
            while process.alive:
                if not step():
                    raise RuntimeError(
                        "event queue drained with processes alive")
        self.machine.advance()
        return self.machine.energy_total

    def energy_report(self):
        return self.machine.energy_report()


def build_rig(pm_enabled=True, display_policy="bright", costs=None,
              supply=None, zoned=None, think_time_s=DEFAULT_THINK_S,
              speech_mode="local", bandwidth_bps=WAVELAN_BANDWIDTH_BPS,
              priorities=None, cpu_quantum=None):
    """Assemble a rig.

    Parameters
    ----------
    pm_enabled:
        Hardware power management (False = the paper's baseline).
    display_policy:
        ``"bright"``, ``"dim"`` or ``"off"`` (speech experiments).
    costs:
        :class:`~repro.apps.CostModel`; default calibration when None.
    supply:
        Energy supply; external (infinite) by default.
    zoned:
        ``None`` or ``(rows, cols)`` for a zoned-backlight display.
    think_time_s:
        Fixed think time for the map and Web applications.
    speech_mode:
        ``"local"``, ``"remote"`` or ``"hybrid"``.
    priorities:
        Optional ``{app_name: priority}`` override; the default is the
        paper's ordering (speech < video < map < web).
    cpu_quantum:
        When set, the CPU time-slices round-robin with this quantum
        instead of serializing whole bursts FIFO.
    """
    costs = costs or DEFAULT_COSTS
    priorities = priorities or {"speech": 1, "video": 2, "map": 3, "web": 4}
    sim = Simulator()
    scheduler = None
    if cpu_quantum is not None:
        from repro.sim.scheduler import QuantumScheduler

        scheduler = QuantumScheduler(sim, quantum=cpu_quantum)
    machine = build_machine(
        sim,
        supply=supply if supply is not None else ExternalSupply(),
        zoned=zoned,
        scheduler=scheduler,
    )
    link = Link(machine, bandwidth_bps=bandwidth_bps)
    xserver = XServer(machine)

    servers = {
        "video": Server("video-server"),
        "janus": Server("janus-server", speed=costs.speech_server_speed),
        "map": Server("map-server"),
        "distill": Server("distillation-server"),
    }
    channels = {
        name: RpcChannel(link, server) for name, server in servers.items()
    }

    wardens = {
        "video": VideoWarden(link, costs=costs),
        "speech": SpeechWarden(channels["janus"], costs=costs),
        "map": MapWarden(channels["map"], costs=costs),
        "web": WebWarden(channels["distill"], costs=costs),
    }

    think = FixedThinkTime(think_time_s)
    apps = {
        "video": VideoPlayer(
            machine, wardens["video"], xserver,
            priority=priorities["video"], costs=costs,
        ),
        "speech": SpeechRecognizer(
            machine, warden=wardens["speech"], mode=speech_mode,
            priority=priorities["speech"], costs=costs,
        ),
        "map": MapViewer(
            machine, wardens["map"], xserver,
            priority=priorities["map"], costs=costs, think_time=think,
        ),
        "web": WebBrowser(
            machine, wardens["web"], xserver,
            priority=priorities["web"], costs=costs, think_time=think,
        ),
    }

    power_manager = PowerManager(
        machine, enabled=pm_enabled, display_policy=display_policy
    )
    power_manager.apply_initial_states()

    return Rig(
        sim=sim,
        machine=machine,
        link=link,
        xserver=xserver,
        power_manager=power_manager,
        servers=servers,
        wardens=wardens,
        apps=apps,
    )
