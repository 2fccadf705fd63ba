"""Tests for workload descriptors."""

import pytest

from repro.obs import Tracer
from repro.sim import Simulator
from repro.workloads import (
    BurstySchedule,
    CursorError,
    FixedThinkTime,
    IMAGES,
    MAPS,
    RandomThinkTime,
    SPEECH_MODELS,
    UTTERANCES,
    VIDEO_CLIPS,
    WorkloadCursor,
    clip_by_name,
    generate_schedules,
    image_by_name,
    map_by_name,
    utterance_by_name,
)


class TestVideoClips:
    def test_four_clips_in_paper_duration_range(self):
        assert len(VIDEO_CLIPS) == 4
        for clip in VIDEO_CLIPS:
            assert 127.0 <= clip.duration_s <= 226.0

    def test_baseline_bitrate_under_link_capacity(self):
        """The 2 Mb/s WaveLAN must carry the baseline stream."""
        for clip in VIDEO_CLIPS:
            assert clip.bitrate_bps("baseline") < 2e6

    def test_baseline_nearly_saturates_link(self):
        """Paper: playback is network-limited at baseline fidelity."""
        for clip in VIDEO_CLIPS:
            assert clip.bitrate_bps("baseline") > 0.6 * 2e6

    def test_tracks_ordered_by_compression(self):
        for clip in VIDEO_CLIPS:
            assert (
                clip.track_bytes("premiere-c")
                < clip.track_bytes("premiere-b")
                < clip.track_bytes("baseline")
            )

    def test_frame_count(self):
        clip = VIDEO_CLIPS[0]
        assert clip.frame_count == int(clip.duration_s * clip.fps)

    def test_unknown_track_rejected(self):
        with pytest.raises(KeyError):
            VIDEO_CLIPS[0].track_bytes("mystery")

    def test_lookup_by_name(self):
        assert clip_by_name("video-2").name == "video-2"
        with pytest.raises(KeyError):
            clip_by_name("video-9")


class TestUtterances:
    def test_four_utterances_in_paper_length_range(self):
        assert len(UTTERANCES) == 4
        for utt in UTTERANCES:
            assert 1.0 <= utt.duration_s <= 7.0

    def test_reduced_model_is_faster(self):
        for utt in UTTERANCES:
            assert utt.recognition_seconds("reduced") < utt.recognition_seconds("full")

    def test_rtf_scaling(self):
        utt = UTTERANCES[2]
        expected = utt.duration_s * SPEECH_MODELS["full"]["rtf"] * utt.complexity
        assert utt.recognition_seconds("full") == pytest.approx(expected)

    def test_waveform_bytes(self):
        utt = UTTERANCES[0]
        assert utt.waveform_bytes == int(utt.duration_s * 32_000)

    def test_unknown_model_rejected(self):
        with pytest.raises(KeyError):
            UTTERANCES[0].recognition_seconds("huge")

    def test_lookup_by_name(self):
        assert utterance_by_name("utterance-3").name == "utterance-3"
        with pytest.raises(KeyError):
            utterance_by_name("utterance-9")


class TestMaps:
    def test_four_maps(self):
        assert len(MAPS) == 4

    def test_filters_reduce_bytes_monotonically(self):
        for city in MAPS:
            assert (
                city.bytes_at("crop-secondary")
                < city.bytes_at("secondary-filter")
                < city.bytes_at("minor-filter")
                < city.bytes_at("full")
            )

    def test_crop_and_filter_compose_multiplicatively(self):
        city = MAPS[0]
        expected = int(city.full_bytes * city.crop_factor * city.minor_factor)
        assert city.bytes_at("crop-minor") == expected

    def test_per_city_filter_effectiveness_varies(self):
        """Dense vs sparse road grids (the Figure 10 spread)."""
        factors = [city.minor_factor for city in MAPS]
        assert max(factors) - min(factors) > 0.3

    def test_unknown_fidelity_rejected(self):
        with pytest.raises(KeyError):
            MAPS[0].bytes_at("sepia")

    def test_lookup_by_name(self):
        assert map_by_name("boston").name == "boston"
        with pytest.raises(KeyError):
            map_by_name("atlantis")


class TestImages:
    def test_four_images_in_paper_size_range(self):
        assert len(IMAGES) == 4
        sizes = [img.full_bytes for img in IMAGES]
        assert min(sizes) == 110
        assert max(sizes) == 175_000

    def test_quality_reduces_bytes_monotonically(self):
        image = image_by_name("image-1")
        assert (
            image.bytes_at("jpeg-5")
            < image.bytes_at("jpeg-25")
            < image.bytes_at("jpeg-50")
            < image.bytes_at("jpeg-75")
            < image.bytes_at("full")
        )

    def test_tiny_image_cannot_shrink(self):
        """110 B image hits the floor at every quality (paper's point)."""
        tiny = image_by_name("image-4")
        assert tiny.bytes_at("jpeg-5") == tiny.bytes_at("full") == 110

    def test_unknown_quality_rejected(self):
        with pytest.raises(KeyError):
            IMAGES[0].bytes_at("jpeg-200")


class TestThinkTime:
    def test_fixed_model_returns_constant(self):
        model = FixedThinkTime(5.0)
        assert [model.next() for _ in range(3)] == [5.0, 5.0, 5.0]

    def test_negative_fixed_rejected(self):
        with pytest.raises(ValueError):
            FixedThinkTime(-1.0)

    def test_random_model_bounded_and_deterministic(self):
        a = RandomThinkTime(mean=5.0, spread=0.5, seed=42)
        b = RandomThinkTime(mean=5.0, spread=0.5, seed=42)
        values = [a.next() for _ in range(50)]
        assert values == [b.next() for _ in range(50)]
        assert all(2.5 <= v <= 7.5 for v in values)

    def test_random_model_validation(self):
        with pytest.raises(ValueError):
            RandomThinkTime(mean=-1)
        with pytest.raises(ValueError):
            RandomThinkTime(spread=2.0)


class TestBurstySchedule:
    def test_length_and_indexing(self):
        schedule = BurstySchedule("video", minutes=60, seed=1)
        assert len(schedule) == 60
        with pytest.raises(IndexError):
            schedule.active_in_minute(60)

    def test_deterministic_per_seed(self):
        a = BurstySchedule("x", 120, seed=7)
        b = BurstySchedule("x", 120, seed=7)
        assert a.states == b.states

    def test_different_seeds_differ(self):
        a = BurstySchedule("x", 120, seed=1)
        b = BurstySchedule("x", 120, seed=2)
        assert a.states != b.states

    def test_state_persistence_probability(self):
        """~10% switching: long runs of the same state dominate."""
        schedule = BurstySchedule("x", 5000, seed=3)
        switches = sum(
            1 for a, b in zip(schedule.states, schedule.states[1:]) if a != b
        )
        rate = switches / (len(schedule) - 1)
        assert 0.07 < rate < 0.13

    def test_duty_cycle_bounds(self):
        schedule = BurstySchedule("x", 300, seed=9)
        assert 0.0 <= schedule.duty_cycle <= 1.0

    def test_generate_schedules_one_per_app(self):
        schedules = generate_schedules(["a", "b", "c"], minutes=30, seed=4)
        assert set(schedules) == {"a", "b", "c"}
        assert all(len(s) == 30 for s in schedules.values())

    def test_generate_schedules_apps_independent(self):
        schedules = generate_schedules(["a", "b"], minutes=200, seed=4)
        assert schedules["a"].states != schedules["b"].states


class TestWorkloadCursor:
    def test_counts_and_guards(self):
        cursor = WorkloadCursor("w")
        assert cursor.begin("a") == "a"
        with pytest.raises(CursorError):
            cursor.begin("b")
        assert cursor.end() == 1
        with pytest.raises(CursorError):
            cursor.end()
        assert cursor.begin("b") == "b"
        cursor.end()
        assert cursor.position == 2 and not cursor.in_phase

    def test_emits_phase_instants(self):
        """Each phase is one ``phase.begin``/``phase.end`` pair on the
        ``workload`` category, stamped with simulated time."""
        tracer = Tracer(categories={"workload"}, clock=lambda: 0.0)
        sim = Simulator(tracer=tracer)
        cursor = WorkloadCursor("maps", sim=sim)
        for item in ("boston", "pittsburgh"):
            cursor.begin(item)
            sim.run(until=sim.now + 2.5)
            cursor.end()
        tracer.flush()
        assert [(e.name, e.ts, e.track, e.args) for e in tracer.events] == [
            ("phase.begin", 0.0, "maps",
             {"workload": "maps", "item": "boston", "index": 0}),
            ("phase.end", 2.5, "maps",
             {"workload": "maps", "item": "boston", "index": 0}),
            ("phase.begin", 2.5, "maps",
             {"workload": "maps", "item": "pittsburgh", "index": 1}),
            ("phase.end", 5.0, "maps",
             {"workload": "maps", "item": "pittsburgh", "index": 1}),
        ]
