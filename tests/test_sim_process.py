"""Unit tests for generator-based processes and FIFO resources."""

import gc

import pytest

from repro.sim import (
    ProcessError,
    Resource,
    ResourceError,
    ResourceGrant,
    Simulator,
)


class TestProcessLifecycle:
    def test_process_runs_to_completion(self):
        sim = Simulator()
        steps = []

        def proc():
            steps.append(sim.now)
            yield sim.timeout(1.0)
            steps.append(sim.now)
            yield sim.timeout(2.0)
            steps.append(sim.now)

        process = sim.spawn(proc())
        sim.run()
        assert steps == [0.0, 1.0, 3.0]
        assert not process.alive
        assert not process.failed

    def test_spawn_requires_generator(self):
        sim = Simulator()
        with pytest.raises(ProcessError):
            sim.spawn(lambda: None)  # not a generator object

    def test_return_value_delivered_to_joiner(self):
        sim = Simulator()
        results = []

        def child():
            yield sim.timeout(1.0)
            return 42

        def parent():
            value = yield sim.spawn(child())
            results.append(value)

        sim.spawn(parent())
        sim.run()
        assert results == [42]

    def test_yield_from_composes_subactivities(self):
        sim = Simulator()
        trace = []

        def inner(tag):
            yield sim.timeout(1.0)
            trace.append((tag, sim.now))
            return tag

        def outer():
            a = yield from inner("a")
            b = yield from inner("b")
            return a + b

        def main():
            result = yield sim.spawn(outer())
            trace.append(("total", result))

        sim.spawn(main())
        sim.run()
        assert trace == [("a", 1.0), ("b", 2.0), ("total", "ab")]

    def test_yielding_non_waitable_fails_the_process(self):
        sim = Simulator()

        def bad():
            yield 123

        process = sim.spawn(bad())
        with pytest.raises(ProcessError):
            sim.run()
        assert process.failed

    def test_exception_in_process_propagates(self):
        sim = Simulator()

        def bad():
            yield sim.timeout(1.0)
            raise ValueError("boom")

        process = sim.spawn(bad())
        with pytest.raises(ValueError):
            sim.run()
        assert process.failed
        assert isinstance(process.error, ValueError)

    def test_processes_have_unique_pids_and_names(self):
        sim = Simulator()

        def noop():
            yield sim.timeout(0)

        a = sim.spawn(noop(), name="alpha")
        b = sim.spawn(noop())
        assert a.name == "alpha"
        assert a.pid != b.pid
        assert sim.processes == (a, b)


class TestResource:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ResourceError):
            Resource(Simulator(), capacity=0)

    def test_grants_within_capacity_are_immediate(self):
        sim = Simulator()
        res = Resource(sim, capacity=2)
        g1 = res.acquire()
        g2 = res.acquire()
        assert g1.triggered and g2.triggered
        assert res.in_use == 2

    def test_excess_acquirers_queue_fifo(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        g1 = res.acquire()
        g2 = res.acquire()
        g3 = res.acquire()
        assert g1.triggered and not g2.triggered and not g3.triggered
        assert res.queued == 2
        res.release(g1)
        assert g2.triggered and not g3.triggered
        res.release(g2)
        assert g3.triggered

    def test_release_of_unheld_grant_raises(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        g1 = res.acquire()
        g2 = res.acquire()  # queued, not held
        with pytest.raises(ResourceError):
            res.release(g2)
        res.release(g1)

    def test_use_serializes_contending_processes(self):
        sim = Simulator()
        res = Resource(sim, capacity=1, name="cpu")
        spans = []

        def worker(tag, duration):
            start_holder = []
            yield from res.use(
                duration,
                owner=tag,
                on_grant=lambda: start_holder.append(sim.now),
            )
            spans.append((tag, start_holder[0], sim.now))

        sim.spawn(worker("a", 2.0))
        sim.spawn(worker("b", 3.0))
        sim.run()
        assert spans == [("a", 0.0, 2.0), ("b", 2.0, 5.0)]

    def test_yield_delivers_the_grant_itself(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        received = []

        def worker():
            grant = res.acquire()
            received.append((yield grant) is grant)
            yield sim.timeout(1.0)
            res.release(grant)

        sim.spawn(worker())
        sim.spawn(worker())  # queued: granted on the first release
        sim.run()
        assert received == [True, True]

    def test_grant_value_is_itself_once_granted(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        g1 = res.acquire()
        g2 = res.acquire()
        assert g1.value is g1 and g2.value is None
        res.release(g1)
        assert g2.value is g2
        late = []
        g2.subscribe(late.append)
        assert late == [g2]

    def test_many_fired_waits_in_one_instant_need_no_stack(self):
        # Each yield on an uncontended grant resumes the process at
        # once; thousands in one instant must not nest one call each.
        sim = Simulator()
        res = Resource(sim, capacity=1)

        def worker():
            for _ in range(5000):
                grant = res.acquire()
                yield grant
                res.release(grant)
            return "done"

        process = sim.spawn(worker())
        sim.run()
        assert not process.alive and not process.failed
        assert process.value == "done"
        assert sim.now == 0.0 and res.in_use == 0

    def test_grants_need_no_cycle_collector(self):
        # A grant that stored itself as its value formed a reference
        # cycle, so every CPU burst left garbage for the cyclic GC.
        from repro.experiments.fidelity_study import measure_video
        from repro.workloads.videos import VIDEO_CLIPS

        gc.collect()
        gc.disable()
        try:
            assert measure_video(VIDEO_CLIPS[0], "baseline") > 0
            leaked = sum(isinstance(obj, ResourceGrant)
                         for obj in gc.get_objects())
        finally:
            gc.enable()
        assert leaked == 0

    def test_use_invokes_release_hook_exactly_when_done(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        released_at = []

        def worker():
            yield from res.use(4.0, on_release=lambda: released_at.append(sim.now))

        sim.spawn(worker())
        sim.run()
        assert released_at == [4.0]
        assert res.in_use == 0
