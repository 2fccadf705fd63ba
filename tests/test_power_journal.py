"""Segment-journal power accounting: merging, folding, pins, context.

The journal is the tentpole of the event-driven accounting rework: one
entry per genuine change point, lazy folds into the attribution
dictionaries, and an exact-integral invariant (journal energy equals
the eagerly integrated total) that a property test hammers.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import (
    Cpu,
    ExternalSupply,
    HardwareError,
    Machine,
    PowerComponent,
    Rect,
    ZonedDisplay,
)
from repro.hardware.thinkpad560x import build_machine
from repro.sim import Simulator


def make_machine(correction=None):
    sim = Simulator()
    machine = Machine(sim, ExternalSupply(), correction=correction)
    machine.attach(PowerComponent("base", {"on": 2.0, "off": 0.0}, "on"))
    return sim, machine


class TestJournalSegments:
    def test_unchanged_advances_merge_into_open_segment(self):
        sim, machine = make_machine()
        for t in (1.0, 2.5, 4.0):
            sim.run(until=t)
            machine.advance()
        journal = machine.journal
        assert len(journal) == 1
        assert journal[0].t0 == 0.0
        assert journal[0].t1 == 4.0
        assert journal[0].power == pytest.approx(2.0)

    def test_state_change_opens_new_segment(self):
        sim, machine = make_machine()
        sim.run(until=1.0)
        machine["base"].set_state("off")
        sim.run(until=3.0)
        machine.advance()
        journal = machine.journal
        assert [s.power for s in journal] == pytest.approx([2.0, 0.0])
        # Contiguous spans: each segment starts where the last ended.
        for prev, nxt in zip(journal, journal[1:]):
            assert prev.t1 == nxt.t0

    def test_context_change_opens_new_segment(self):
        sim, machine = make_machine()
        sim.run(until=1.0)
        token = machine.push_context("app", "work")
        sim.run(until=2.0)
        machine.pop_context(token)
        sim.run(until=3.0)
        machine.advance()
        contexts = [s.context for s in machine.journal]
        assert contexts == [
            ("Idle", "_kernel_idle"), ("app", "work"), ("Idle", "_kernel_idle")
        ]

    def test_journal_energy_matches_energy_total(self):
        sim, machine = make_machine()
        sim.run(until=1.0)
        machine["base"].set_state("off")
        sim.run(until=2.0)
        machine["base"].set_state("on")
        sim.run(until=5.0)
        machine.advance()
        assert machine.journal_energy() == pytest.approx(
            machine.energy_total, rel=1e-12
        )
        assert machine.energy_total == pytest.approx(2.0 * 4.0)


class TestLazyFold:
    def test_fold_attributes_to_context(self):
        sim, machine = make_machine()
        sim.run(until=1.0)
        token = machine.push_context("app", "work")
        sim.run(until=3.0)
        machine.pop_context(token)
        sim.run(until=4.0)
        machine.advance()
        by_process = machine.energy_by_process
        assert by_process["app"] == pytest.approx(2.0 * 2.0)
        assert by_process["Idle"] == pytest.approx(2.0 * 2.0)

    def test_fold_attributes_overlays_and_correction(self):
        sim, machine = make_machine(correction=lambda m: 0.5)
        sim.run(until=1.0)
        handle = machine.add_overlay(0.25, "Interrupts-WaveLAN")
        sim.run(until=3.0)
        machine.remove_overlay(handle)
        machine.advance()
        by_process = machine.energy_by_process
        # 2.5 W for 2 s under a 25% overlay.
        assert by_process["Interrupts-WaveLAN"] == pytest.approx(
            2.5 * 2.0 * 0.25
        )
        by_component = machine.energy_by_component
        assert by_component["(superlinear)"] == pytest.approx(0.5 * 3.0)
        assert by_component["base"] == pytest.approx(2.0 * 3.0)

    def test_process_and_component_views_sum_to_total(self):
        sim, machine = make_machine(correction=lambda m: 0.25)
        sim.run(until=1.0)
        token = machine.push_context("app")
        sim.run(until=2.0)
        machine.pop_context(token)
        machine.advance()
        assert sum(machine.energy_by_process.values()) == pytest.approx(
            machine.energy_total
        )
        assert sum(machine.energy_by_component.values()) == pytest.approx(
            machine.energy_total
        )

    def test_pin_blocks_compaction_until_released(self):
        sim, machine = make_machine()
        machine.pin_journal()
        for t in (1.0, 2.0, 3.0):
            sim.run(until=t)
            machine["base"].set_state("off" if t != 2.0 else "on")
        machine.advance()
        before = len(machine.journal)
        assert before >= 3
        machine.energy_by_process  # folds, but may not compact while pinned
        assert len(machine.journal) == before
        machine.unpin_journal()
        machine.energy_by_process
        assert len(machine.journal) < before
        # Energy survives compaction.
        assert machine.journal_energy() == pytest.approx(
            machine.energy_total, rel=1e-12
        )

    def test_unpin_without_pin_raises(self):
        _, machine = make_machine()
        with pytest.raises(HardwareError):
            machine.unpin_journal()

    def test_fold_is_idempotent(self):
        sim, machine = make_machine()
        sim.run(until=2.0)
        machine.advance()
        first = dict(machine.energy_by_process)
        again = dict(machine.energy_by_process)
        assert first == again


class TestContextStack:
    def test_out_of_order_pop(self):
        sim, machine = make_machine()
        token_a = machine.push_context("a", "fa")
        token_b = machine.push_context("b", "fb")
        machine.pop_context(token_a)  # unlink below the top
        assert machine.context == ("b", "fb")
        machine.pop_context(token_b)
        assert machine.context == ("Idle", "_kernel_idle")

    def test_unknown_token_raises_without_side_effects(self):
        sim, machine = make_machine()
        token = machine.push_context("a")
        with pytest.raises(HardwareError):
            machine.pop_context(object())
        assert machine.context == ("a", "main")
        machine.pop_context(token)

    def test_double_pop_raises(self):
        sim, machine = make_machine()
        token = machine.push_context("a")
        machine.pop_context(token)
        with pytest.raises(HardwareError):
            machine.pop_context(token)


class TestCorrectionEvaluation:
    def test_correction_evaluated_once_per_refresh_not_per_advance(self):
        calls = []

        def correction(machine):
            calls.append(machine.sim.now)
            return 0.1

        sim, machine = make_machine(correction=correction)
        machine.power  # prime the cache
        baseline = len(calls)
        for t in (1.0, 2.0, 3.0):
            sim.run(until=t)
            machine.advance()
        # Steady state: no state changes, so no re-evaluation at all.
        assert len(calls) == baseline
        machine["base"].set_state("off")
        sim.run(until=4.0)
        machine.advance()
        # Exactly one refresh for the change (the old code evaluated the
        # correction twice per integration step).
        assert len(calls) == baseline + 1
        sim.run(until=6.0)
        machine.advance()
        machine.power
        assert len(calls) == baseline + 1


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.001, max_value=5.0,
                      allow_nan=False, allow_infinity=False),
            st.sampled_from(["none", "toggle", "push", "pop", "overlay"]),
        ),
        min_size=1,
        max_size=30,
    )
)
@settings(max_examples=60, deadline=None)
def test_journal_energy_equals_total_for_any_schedule(script):
    """Invariant: the journal integrates exactly what advance() drains."""
    sim = Simulator()
    machine = Machine(sim, ExternalSupply())
    machine.attach(PowerComponent("base", {"on": 2.0, "off": 0.5}, "on"))
    tokens = []
    overlay = None
    state = "on"
    for dt, action in script:
        sim.run(until=sim.now + dt)
        if action == "toggle":
            state = "off" if state == "on" else "on"
            machine["base"].set_state(state)
        elif action == "push":
            tokens.append(machine.push_context(f"p{len(tokens)}"))
        elif action == "pop" and tokens:
            machine.pop_context(tokens.pop())
        elif action == "overlay":
            if overlay is None:
                overlay = machine.add_overlay(0.2, "irq")
            else:
                machine.remove_overlay(overlay)
                overlay = None
        else:
            machine.advance()
    machine.advance()
    assert machine.journal_energy() == pytest.approx(
        machine.energy_total, rel=1e-9, abs=1e-12
    )
    assert sum(machine.energy_by_process.values()) == pytest.approx(
        machine.energy_total, rel=1e-9, abs=1e-12
    )


def _reference_watts(component):
    """A component's draw from scratch: ``states[state]``, or the zone
    sum of a zoned display, as ``power`` computed it on every read
    before components kept their ``watts``."""
    if isinstance(component, ZonedDisplay):
        if component.state == ZonedDisplay.OFF:
            return 0.0
        per_zone = {
            ZonedDisplay.BRIGHT:
                component.states[ZonedDisplay.BRIGHT] / component.zones,
            ZonedDisplay.DIM:
                component.states[ZonedDisplay.DIM] / component.zones,
            ZonedDisplay.OFF: 0.0,
        }
        return sum(per_zone[level] for level in component.zone_levels)
    return component.states[component.state]


def _random_set_state(data, machine):
    component = data.draw(st.sampled_from(list(machine.components.values())))
    states = sorted(component.states)
    if isinstance(component, Cpu):
        states.append(Cpu.IDLE)
    component.set_state(data.draw(st.sampled_from(states)))


def _cache_step(data, machine, op):
    cpu = machine["cpu"]
    display = machine["display"]
    levels = [ZonedDisplay.BRIGHT, ZonedDisplay.DIM, ZonedDisplay.OFF]
    if op == "set_state":
        _random_set_state(data, machine)
    elif op == "cpu":
        action = data.draw(st.sampled_from(["busy", "idle", "halt", "poll"]))
        if action == "busy":
            cpu.busy()
        elif action == "idle":
            cpu.idle()
        else:
            cpu.set_resting_state(action)
    elif op == "zone" and isinstance(display, ZonedDisplay):
        display.set_zone(data.draw(st.integers(0, display.zones - 1)),
                         data.draw(st.sampled_from(levels)))
    elif op == "illuminate" and isinstance(display, ZonedDisplay):
        corner = st.integers(0, 799), st.integers(0, 599)
        rects = data.draw(st.lists(
            st.builds(Rect, *corner, st.integers(1, 400), st.integers(1, 300)),
            max_size=3))
        display.illuminate(rects, level=data.draw(st.sampled_from(levels)),
                           background=data.draw(st.sampled_from(levels)))
    elif op == "scale":
        component = data.draw(
            st.sampled_from(list(machine.components.values())))
        component.scale(data.draw(st.sampled_from([0.5, 0.8, 1.1, 1.25, 3.0])))
    elif op == "snapshot":
        # Capture, change states at the same instant, restore: the
        # restore must leave every `watts` matching the restored state.
        captured = json.loads(json.dumps(machine.__snapshot__(None)))
        for _ in range(data.draw(st.integers(0, 3))):
            _random_set_state(data, machine)
        machine.__restore__(captured, None)


@pytest.mark.parametrize("zoned", [None, (2, 2), (2, 4)],
                         ids=["stock", "zoned2x2", "zoned2x4"])
@given(data=st.data())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_component_watts_stay_coherent(zoned, data):
    """After every mutation each component's ``watts`` equals its
    from-scratch draw bit for bit, and the machine's cached power
    equals a from-scratch sum in attach order plus the correction."""
    sim = Simulator()
    machine = build_machine(sim, zoned=zoned)
    ops = st.sampled_from(["set_state", "cpu", "zone", "illuminate",
                           "scale", "snapshot"])
    for _ in range(data.draw(st.integers(1, 25))):
        sim.run(until=sim.now + data.draw(st.sampled_from([0.0, 0.25, 1.5])))
        _cache_step(data, machine, data.draw(ops))
        expected = 0.0
        for component in machine.components.values():
            watts = _reference_watts(component)
            assert component.watts.hex() == watts.hex(), component.name
            assert component.power.hex() == watts.hex(), component.name
            expected += watts
        expected += machine.correction(machine)
        assert machine.power.hex() == expected.hex()
    total = machine.finish()
    assert machine.journal_energy() == pytest.approx(total, rel=1e-9,
                                                     abs=1e-12)
