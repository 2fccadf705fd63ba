"""The four adaptive applications of the paper, plus shared models."""

from repro._lazy import lazy_exports

__all__ = [
    "AdaptiveApplication",
    "CostModel",
    "DEFAULT_COSTS",
    "XServer",
    "X_PROCESS",
    "VideoPlayer",
    "VideoWarden",
    "VIDEO_LEVELS",
    "VIDEO_LEVEL_CONFIG",
    "SpeechRecognizer",
    "SpeechWarden",
    "SPEECH_LEVELS",
    "SPEECH_MODES",
    "MapViewer",
    "MapWarden",
    "MAP_LEVELS",
    "WebBrowser",
    "WebWarden",
    "WEB_LEVELS",
    "CompositeApplication",
    "ZonedWindowManager",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "base": ("AdaptiveApplication",),
    "composite": ("CompositeApplication",),
    "costs": ("DEFAULT_COSTS", "CostModel"),
    "mapviewer": ("MAP_LEVELS", "MapViewer", "MapWarden"),
    "speech": ("SPEECH_LEVELS", "SPEECH_MODES", "SpeechRecognizer",
               "SpeechWarden"),
    "video": ("VIDEO_LEVEL_CONFIG", "VIDEO_LEVELS", "VideoPlayer",
              "VideoWarden"),
    "web": ("WEB_LEVELS", "WebBrowser", "WebWarden"),
    "windowmgr": ("ZonedWindowManager",),
    "xserver": ("X_PROCESS", "XServer"),
})
