"""Wardens: type-specific data components (paper Section 2.2).

A warden encapsulates the functionality of one data type — video,
speech, map, Web image — mediating between the application and the
remote server for that type.  The application-specific wardens in
:mod:`repro.apps` subclass :class:`Warden` and implement ``fetch``-style
operations whose cost depends on the requested fidelity; the viceroy
keeps the registry (one warden per data type in the system).
"""

from __future__ import annotations

__all__ = ["Warden", "WardenError"]


class WardenError(Exception):
    """Invalid warden registration or operation."""


class Warden:
    """Base class for type-specific wardens.

    Parameters
    ----------
    data_type:
        The data type this warden serves (e.g. ``"video"``); unique
        within a viceroy.
    channel:
        Optional :class:`repro.net.RpcChannel` to the type's server.
    """

    def __init__(self, data_type, channel=None):
        self.data_type = data_type
        self.channel = channel
        self.requests = 0

    def __repr__(self):
        return f"<Warden {self.data_type} requests={self.requests}>"
