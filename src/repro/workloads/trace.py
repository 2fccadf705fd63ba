"""Trace-driven workloads: record and replay user sessions.

The paper's controlled experiments use scripted loops; its future-work
section calls for studying real use.  A session trace is an ordered
list of timed actions — recognize an utterance, browse an image, view
a map, play a video segment, idle — that can be written by hand,
parsed from a simple text format, or recorded from a live run, then
replayed deterministically against any rig configuration.

Text format (one action per line, ``#`` comments):

    0.0   speech utterance-1
    8.0   web image-2
    20.0  map boston
    40.0  video video-1 15
    60.0  idle 10
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.workloads.cursor import WorkloadCursor
from repro.workloads.images import image_by_name
from repro.workloads.maps import map_by_name
from repro.workloads.utterances import utterance_by_name
from repro.workloads.videos import clip_by_name

__all__ = ["TraceAction", "SessionTrace", "TraceCursor", "TraceError"]

ACTIONS = ("speech", "web", "map", "video", "idle")


class TraceError(Exception):
    """Malformed trace input."""


@dataclass(frozen=True)
class TraceAction:
    """One timed action in a session trace.

    ``at`` is the earliest start time (seconds from trace start);
    actions run in order, later than ``at`` if the previous action
    overruns.  ``argument`` names the workload object (or the idle /
    video duration).
    """

    at: float
    kind: str
    argument: str
    duration: float = 0.0

    def __post_init__(self):
        if self.at < 0:
            raise TraceError(f"negative action time {self.at}")
        if self.kind not in ACTIONS:
            raise TraceError(f"unknown action kind {self.kind!r}")
        if self.kind in ("video", "idle") and self.duration <= 0:
            raise TraceError(f"{self.kind} actions need a positive duration")


class SessionTrace:
    """An ordered, replayable user session."""

    def __init__(self, actions):
        self.actions = sorted(actions, key=lambda a: a.at)

    def __len__(self):
        return len(self.actions)

    def __iter__(self):
        return iter(self.actions)

    @property
    def span(self):
        """Nominal trace length (start of the last action)."""
        return self.actions[-1].at if self.actions else 0.0

    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, text):
        """Parse the text format described in the module docstring."""
        actions = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) < 2:
                raise TraceError(f"line {lineno}: expected 'time kind ...'")
            try:
                at = float(parts[0])
            except ValueError as exc:
                raise TraceError(f"line {lineno}: bad time {parts[0]!r}") from exc
            kind = parts[1]
            if kind == "idle":
                if len(parts) != 3:
                    raise TraceError(f"line {lineno}: idle needs a duration")
                actions.append(
                    TraceAction(at, "idle", "", duration=float(parts[2]))
                )
            elif kind == "video":
                if len(parts) != 4:
                    raise TraceError(
                        f"line {lineno}: video needs a clip and duration"
                    )
                actions.append(
                    TraceAction(at, "video", parts[2], duration=float(parts[3]))
                )
            elif kind in ("speech", "web", "map"):
                if len(parts) != 3:
                    raise TraceError(f"line {lineno}: {kind} needs an object")
                actions.append(TraceAction(at, kind, parts[2]))
            else:
                raise TraceError(f"line {lineno}: unknown action {kind!r}")
        if not actions:
            raise TraceError("empty trace")
        return cls(actions)

    def render(self):
        """Serialize back to the text format (round-trips with parse)."""
        lines = []
        for action in self.actions:
            if action.kind == "idle":
                lines.append(f"{action.at:g} idle {action.duration:g}")
            elif action.kind == "video":
                lines.append(
                    f"{action.at:g} video {action.argument} {action.duration:g}"
                )
            else:
                lines.append(f"{action.at:g} {action.kind} {action.argument}")
        return "\n".join(lines) + "\n"

    # ------------------------------------------------------------------
    def cursor(self):
        """A fresh :class:`TraceCursor` positioned at the first action."""
        return TraceCursor(self)

    def replay(self, rig):
        """Generator: replay the trace against a rig's applications."""
        return self.cursor().replay(rig)


class TraceCursor:
    """Position inside a :class:`SessionTrace` replay.

    ``index`` counts fully completed actions; calling :meth:`replay`
    again with the original anchor ``start`` resumes the session where
    it left off.
    """

    def __init__(self, trace):
        self.trace = trace
        self.index = 0

    # ------------------------------------------------------------------
    @staticmethod
    def _item_name(action):
        if action.kind == "idle":
            return f"idle:{action.duration:g}"
        return f"{action.kind}:{action.argument}"

    def replay(self, rig, start=None):
        """Generator: replay the remaining actions against ``rig``.

        ``start`` anchors the trace's time origin; it defaults to the
        simulator's current time, so a resumed cursor must pass the
        original anchor to keep later actions on schedule.
        """
        sim = rig.sim
        if start is None:
            start = sim.now
        phases = WorkloadCursor("session", sim=sim)
        phases.position = self.index
        while self.index < len(self.trace.actions):
            action = self.trace.actions[self.index]
            target = start + action.at
            if sim.now < target:
                yield sim.timeout(target - sim.now)
            phases.begin(self._item_name(action))
            if action.kind == "speech":
                utterance = utterance_by_name(action.argument)
                yield from rig.apps["speech"].recognize(utterance)
            elif action.kind == "web":
                image = image_by_name(action.argument)
                yield from rig.apps["web"].browse(image)
            elif action.kind == "map":
                city = map_by_name(action.argument)
                yield from rig.apps["map"].view(city)
            elif action.kind == "video":
                clip = clip_by_name(action.argument)
                yield from rig.apps["video"].play(
                    clip, max_seconds=action.duration
                )
            elif action.kind == "idle":
                yield sim.timeout(action.duration)
            phases.end()
            self.index = phases.position
