"""Tests for the four adaptive applications."""

import pytest

from repro.apps import CompositeApplication
from repro.experiments.rig import build_rig
from repro.hardware import Display, WaveLan
from repro.workloads import IMAGES, MAPS, UTTERANCES, VIDEO_CLIPS


def short_clip():
    """A few seconds of video keeps unit tests fast."""
    from repro.workloads.videos import VideoClip

    return VideoClip("short", 3.0, 12.0, 16_000)


class TestVideoPlayer:
    def test_plays_all_frames_in_real_time(self):
        rig = build_rig(pm_enabled=True)
        player = rig.apps["video"]
        clip = short_clip()
        proc = rig.sim.spawn(player.play(clip))
        rig.run_until_complete(proc)
        assert player.frames_played == clip.frame_count
        # Paced playback: the experiment lasts about the clip duration.
        assert rig.sim.now == pytest.approx(clip.duration_s, rel=0.1)

    def test_fidelity_config_mapping(self):
        rig = build_rig()
        player = rig.apps["video"]
        assert player.fidelity == "baseline"
        assert player.track == "baseline"
        assert player.window == "full"
        player.set_fidelity("combined")
        assert player.track == "premiere-c"
        assert player.window == "reduced"

    def test_window_rect_shrinks_at_reduced_fidelity(self):
        rig = build_rig()
        player = rig.apps["video"]
        full_area = player.window_rect().area
        player.set_fidelity("reduced-window")
        assert player.window_rect().area == pytest.approx(full_area / 4)

    def test_compression_reduces_bytes_transferred(self):
        clip = short_clip()
        totals = {}
        for level in ("baseline", "premiere-c"):
            rig = build_rig()
            player = rig.apps["video"]
            player.set_fidelity(level)
            proc = rig.sim.spawn(player.play(clip))
            rig.run_until_complete(proc)
            totals[level] = rig.link.bytes_transferred
        assert totals["premiere-c"] < 0.6 * totals["baseline"]

    def test_energy_attribution_has_paper_processes(self):
        """Figure 6 shadings: Idle, Xanim, X, Odyssey, WaveLAN."""
        rig = build_rig()
        player = rig.apps["video"]
        proc = rig.sim.spawn(player.play(short_clip()))
        rig.run_until_complete(proc)
        report = rig.energy_report()
        for process in ("Idle", "xanim", "X", "odyssey", "Interrupts-WaveLAN"):
            assert report.get(process, 0) > 0, f"missing {process}"

    def test_x_energy_unaffected_by_compression(self):
        """Paper: frames are decoded before reaching X, so X cost is
        independent of the lossy-compression level."""
        x_energy = {}
        for level in ("baseline", "premiere-c"):
            rig = build_rig()
            player = rig.apps["video"]
            player.set_fidelity(level)
            proc = rig.sim.spawn(player.play(short_clip()))
            rig.run_until_complete(proc)
            x_energy[level] = rig.energy_report()["X"]
        assert x_energy["premiere-c"] == pytest.approx(
            x_energy["baseline"], rel=0.05
        )

    def test_mid_stream_adaptation_takes_effect(self):
        rig = build_rig()
        player = rig.apps["video"]
        clip = VIDEO_CLIPS[0]
        proc = rig.sim.spawn(player.play(clip, max_seconds=10.0))
        rig.sim.schedule(5.0, lambda t: player.set_fidelity("combined"))
        rig.run_until_complete(proc)
        assert player.fidelity == "combined"
        assert player.frames_played == int(10.0 * clip.fps)

    def test_play_loop_runs_for_duration(self):
        rig = build_rig()
        player = rig.apps["video"]

        def main():
            yield from player.play_loop(short_clip(), duration=7.0)

        proc = rig.sim.spawn(main())
        rig.run_until_complete(proc)
        assert rig.sim.now == pytest.approx(7.0, abs=0.5)
        assert player.items_completed >= 2  # looped at least twice


class TestSpeechRecognizer:
    def test_local_recognition_time_follows_model(self):
        rig = build_rig(pm_enabled=True, display_policy="off")
        recognizer = rig.apps["speech"]
        utt = UTTERANCES[1]
        proc = rig.sim.spawn(recognizer.recognize(utt))
        rig.run_until_complete(proc)
        assert rig.sim.now == pytest.approx(utt.recognition_seconds("full"))

    def test_invalid_mode_rejected(self):
        rig = build_rig()
        from repro.apps import SpeechRecognizer

        with pytest.raises(ValueError):
            SpeechRecognizer(rig.machine, mode="telepathy")

    def test_remote_mode_requires_warden(self):
        rig = build_rig()
        from repro.apps import SpeechRecognizer

        with pytest.raises(ValueError):
            SpeechRecognizer(rig.machine, warden=None, mode="remote")

    def test_remote_ships_waveform(self):
        rig = build_rig(speech_mode="remote", display_policy="off")
        recognizer = rig.apps["speech"]
        utt = UTTERANCES[0]
        proc = rig.sim.spawn(recognizer.recognize(utt))
        rig.run_until_complete(proc)
        assert rig.link.bytes_transferred >= utt.waveform_bytes

    def test_hybrid_ships_five_times_less_data(self):
        moved = {}
        for mode in ("remote", "hybrid"):
            rig = build_rig(speech_mode=mode, display_policy="off")
            recognizer = rig.apps["speech"]
            proc = rig.sim.spawn(recognizer.recognize(UTTERANCES[2]))
            rig.run_until_complete(proc)
            moved[mode] = rig.link.bytes_transferred
        assert moved["hybrid"] < 0.35 * moved["remote"]

    def test_reduced_model_uses_less_energy(self):
        energies = {}
        for model in ("full", "reduced"):
            rig = build_rig(display_policy="off")
            recognizer = rig.apps["speech"]
            recognizer.set_fidelity(model)
            proc = rig.sim.spawn(recognizer.recognize(UTTERANCES[3]))
            energies[model] = rig.run_until_complete(proc)
        assert energies["reduced"] < energies["full"]

    def test_janus_dominates_local_profile(self):
        """Paper: almost all energy in local recognition is Janus."""
        rig = build_rig(display_policy="off")
        recognizer = rig.apps["speech"]
        proc = rig.sim.spawn(recognizer.recognize(UTTERANCES[2]))
        rig.run_until_complete(proc)
        report = rig.energy_report()
        assert report["janus"] > 0.9 * sum(report.values())


class TestMapViewer:
    def test_view_includes_think_time(self):
        rig = build_rig(think_time_s=5.0)
        viewer = rig.apps["map"]
        proc = rig.sim.spawn(viewer.view(MAPS[1]))
        rig.run_until_complete(proc)
        fetch_render = rig.sim.now - 5.0
        assert fetch_render > 0

    def test_filtering_reduces_fetch_bytes(self):
        moved = {}
        for level in ("full", "secondary-filter"):
            rig = build_rig()
            viewer = rig.apps["map"]
            proc = rig.sim.spawn(viewer.view(MAPS[0], fidelity=level))
            rig.run_until_complete(proc)
            moved[level] = rig.link.bytes_transferred
        assert moved["secondary-filter"] < 0.5 * moved["full"]

    def test_unknown_fidelity_rejected(self):
        rig = build_rig()
        viewer = rig.apps["map"]
        proc = rig.sim.spawn(viewer.view(MAPS[0], fidelity="sepia"))
        with pytest.raises(ValueError):
            rig.run_until_complete(proc)

    def test_nic_standby_during_think_time_with_pm(self):
        rig = build_rig(pm_enabled=True, think_time_s=10.0)
        nic_states = []
        rig.machine["wavelan"].observe(
            lambda _comp, _old, new: nic_states.append(new)
        )
        viewer = rig.apps["map"]
        proc = rig.sim.spawn(viewer.view(MAPS[1]))
        rig.run_until_complete(proc)
        # The NIC woke for the fetch RPC and fell back to standby for
        # the think period (paper: standby except during RPCs).
        assert WaveLan.RECV in nic_states or WaveLan.XMIT in nic_states
        assert nic_states[-1] == WaveLan.STANDBY
        assert rig.machine["wavelan"].state == WaveLan.STANDBY

    def test_window_rect_halves_when_cropped(self):
        rig = build_rig()
        viewer = rig.apps["map"]
        full = viewer.window_rect()
        viewer.set_fidelity("crop-secondary")
        cropped = viewer.window_rect()
        assert cropped.height == pytest.approx(full.height / 2)


class TestWebBrowser:
    def test_browse_full_quality_skips_distillation(self):
        rig = build_rig()
        browser = rig.apps["web"]
        proc = rig.sim.spawn(browser.browse(IMAGES[0], quality="full"))
        rig.run_until_complete(proc)
        assert rig.servers["distill"].busy_seconds == 0.0

    def test_distillation_runs_on_server_for_lower_quality(self):
        rig = build_rig()
        browser = rig.apps["web"]
        proc = rig.sim.spawn(browser.browse(IMAGES[0], quality="jpeg-25"))
        rig.run_until_complete(proc)
        assert rig.servers["distill"].busy_seconds > 0.0

    def test_quality_reduces_bytes(self):
        moved = {}
        for quality in ("full", "jpeg-5"):
            rig = build_rig()
            browser = rig.apps["web"]
            proc = rig.sim.spawn(browser.browse(IMAGES[0], quality=quality))
            rig.run_until_complete(proc)
            moved[quality] = rig.link.bytes_transferred
        assert moved["jpeg-5"] < 0.2 * moved["full"]

    def test_profile_contains_proxy_and_netscape(self):
        rig = build_rig()
        browser = rig.apps["web"]
        proc = rig.sim.spawn(browser.browse(IMAGES[1]))
        rig.run_until_complete(proc)
        report = rig.energy_report()
        assert report.get("netscape", 0) > 0
        assert report.get("proxy", 0) > 0


class TestCompositeApplication:
    def make_composite(self, rig):
        return CompositeApplication(
            rig.apps["speech"], rig.apps["web"], rig.apps["map"]
        )

    def test_one_iteration_exercises_all_apps(self):
        rig = build_rig()
        composite = self.make_composite(rig)
        proc = rig.sim.spawn(composite.run_iteration())
        rig.run_until_complete(proc)
        assert rig.apps["speech"].utterances_recognized == 2
        assert rig.apps["web"].pages_viewed == 1
        assert rig.apps["map"].maps_viewed == 1

    def test_six_iterations_cycle_objects(self):
        rig = build_rig(think_time_s=0.5)
        composite = self.make_composite(rig)
        proc = rig.sim.spawn(composite.run(iterations=6))
        rig.run_until_complete(proc)
        assert composite.iterations_completed == 6
        assert rig.apps["web"].pages_viewed == 6

    def test_run_every_paces_iterations(self):
        rig = build_rig(think_time_s=0.5)
        composite = self.make_composite(rig)

        def main():
            yield from composite.run_every(period=25.0, until=70.0)

        proc = rig.sim.spawn(main())
        rig.run_until_complete(proc)
        # Iterations start at 0, 25, 50 -> three complete.
        assert composite.iterations_completed == 3

    def test_constituents_adapt_independently(self):
        rig = build_rig()
        composite = self.make_composite(rig)
        rig.apps["speech"].degrade()
        assert rig.apps["web"].fidelity == "full"
        assert composite.speech.fidelity == "reduced"
