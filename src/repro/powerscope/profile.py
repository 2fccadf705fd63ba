"""Energy-profile data structures (the output of PowerScope).

A profile is two nested tables, as in the paper's Figure 2: a summary
of CPU time, energy and average power per process, and a per-procedure
detail table within each process.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["ProfileEntry", "EnergyProfile"]


@dataclass
class ProfileEntry:
    """Accumulated time and energy for one process or procedure."""

    name: str
    cpu_seconds: float = 0.0
    energy_joules: float = 0.0

    @property
    def average_power(self):
        """Mean watts while this entry's code was executing."""
        if self.cpu_seconds <= 0:
            return 0.0
        return self.energy_joules / self.cpu_seconds

    def add(self, seconds, joules):
        """Accumulate one sample interval."""
        self.cpu_seconds += seconds
        self.energy_joules += joules


@dataclass
class EnergyProfile:
    """A complete PowerScope profile.

    Attributes
    ----------
    processes:
        Mapping of process name to its summary :class:`ProfileEntry`.
    procedures:
        Mapping of process name to {procedure name: :class:`ProfileEntry`}.
    elapsed:
        Wall-clock span covered by the profile.
    sample_count:
        Number of correlated samples the profile was built from.
    """

    processes: dict = field(default_factory=dict)
    procedures: dict = field(default_factory=dict)
    elapsed: float = 0.0
    sample_count: int = 0

    def record(self, process, procedure, seconds, joules):
        """Credit one sample interval to a process/procedure pair."""
        entry = self.processes.get(process)
        if entry is None:
            entry = self.processes[process] = ProfileEntry(process)
        entry.add(seconds, joules)
        detail = self.procedures.setdefault(process, {})
        proc_entry = detail.get(procedure)
        if proc_entry is None:
            proc_entry = detail[procedure] = ProfileEntry(procedure)
        proc_entry.add(seconds, joules)

    @property
    def total_energy(self):
        """Total joules across all processes."""
        return sum(e.energy_joules for e in self.processes.values())

    @property
    def total_cpu_seconds(self):
        """Total sampled seconds across all processes."""
        return sum(e.cpu_seconds for e in self.processes.values())

    def energy_of(self, process):
        """Joules attributed to one process (0 when absent)."""
        entry = self.processes.get(process)
        return entry.energy_joules if entry else 0.0

    def fraction_of(self, process):
        """Share of total energy attributed to one process."""
        total = self.total_energy
        return self.energy_of(process) / total if total else 0.0

    def sorted_processes(self):
        """Process entries, highest energy first (Figure 2 ordering)."""
        return sorted(
            self.processes.values(), key=lambda e: e.energy_joules, reverse=True
        )

    def sorted_procedures(self, process):
        """Procedure entries for a process, highest energy first."""
        detail = self.procedures.get(process, {})
        return sorted(detail.values(), key=lambda e: e.energy_joules, reverse=True)

    def as_table(self):
        """Nested plain-dict view of every accumulated number.

        Exact (no rounding), so two profiles built from bit-identical
        sample streams compare equal — the multimeter tests compare it
        against a reference per-sample ticker, and
        ``tests/goldens/profile-video.json`` pins the ``repro profile``
        tables with it.
        """
        return {
            "elapsed": self.elapsed,
            "sample_count": self.sample_count,
            "processes": {
                name: (entry.cpu_seconds, entry.energy_joules)
                for name, entry in self.processes.items()
            },
            "procedures": {
                process: {
                    name: (entry.cpu_seconds, entry.energy_joules)
                    for name, entry in detail.items()
                }
                for process, detail in self.procedures.items()
            },
        }
