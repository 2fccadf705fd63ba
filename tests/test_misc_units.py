"""Unit tests for small pieces: X server, servers."""

import pytest

from repro.apps import XServer
from repro.experiments import build_rig
from repro.net import Server
from repro.sim import Simulator


class TestXServer:
    def test_render_seconds_charges_x_process(self):
        rig = build_rig()
        xserver = rig.xserver

        def draw():
            yield from xserver.render_seconds(1.5)

        proc = rig.sim.spawn(draw())
        rig.run_until_complete(proc)
        assert rig.energy_report()["X"] > 0
        assert xserver.requests == 1

    def test_zero_seconds_is_free(self):
        rig = build_rig()

        def draw():
            yield from rig.xserver.render_seconds(0.0)

        proc = rig.sim.spawn(draw())
        rig.run_until_complete(proc)
        assert "X" not in rig.energy_report()

    def test_render_pixels_scales_with_area(self):
        rig = build_rig()
        xserver = rig.xserver
        done = []

        def draw():
            yield from xserver.render_pixels(100_000, 1e-6)
            done.append(rig.sim.now)

        proc = rig.sim.spawn(draw())
        rig.run_until_complete(proc)
        assert done[0] == pytest.approx(0.1)

    def test_render_bytes_scales_with_size(self):
        rig = build_rig()
        done = []

        def draw():
            yield from rig.xserver.render_bytes(1_000_000, 2e-7)
            done.append(rig.sim.now)

        proc = rig.sim.spawn(draw())
        rig.run_until_complete(proc)
        assert done[0] == pytest.approx(0.2)

    def test_standalone_xserver(self):
        from repro.hardware import build_machine

        sim = Simulator()
        machine = build_machine(sim)
        xserver = XServer(machine)

        def draw():
            yield from xserver.render_seconds(0.5, procedure="_PolyFill")

        sim.spawn(draw())
        sim.run()
        machine.advance()
        assert machine.energy_by_procedure[("X", "_PolyFill")] > 0


class TestServerSpeed:
    def test_set_speed_validation(self):
        server = Server("s")
        with pytest.raises(ValueError):
            server.set_speed(0.0)

    def test_set_speed_changes_service_time(self):
        server = Server("s", speed=1.0)
        assert server.service_time(2.0) == pytest.approx(2.0)
        server.set_speed(4.0)
        assert server.service_time(2.0) == pytest.approx(0.5)
