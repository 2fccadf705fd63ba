"""Display power models: the stock backlit panel and the paper's
projected *zoned backlighting* panel (Section 4).

The stock display has three states taken from Figure 4 of the paper:
bright (4.54 W), dim (1.95 W) and off.  The zoned display divides the
panel into a grid of independently lit zones; each zone draws a share of
the full-panel power proportional to its area, which is exactly the
assumption the paper uses for its Section 4 projection.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.component import HardwareError, PowerComponent

__all__ = ["Display", "ZonedDisplay", "Rect"]


@dataclass(frozen=True)
class Rect:
    """A window rectangle in screen coordinates (pixels)."""

    x: float
    y: float
    width: float
    height: float

    def __post_init__(self):
        if self.width < 0 or self.height < 0:
            raise HardwareError(f"negative rect dimensions: {self}")

    @property
    def area(self):
        return self.width * self.height

    def intersects(self, other):
        """True when this rect overlaps ``other`` with positive area."""
        return (
            self.x < other.x + other.width
            and other.x < self.x + self.width
            and self.y < other.y + other.height
            and other.y < self.y + self.height
        )


class Display(PowerComponent):
    """Conventional backlit panel: bright / dim / off."""

    BRIGHT = "bright"
    DIM = "dim"
    OFF = "off"

    def __init__(self, bright_watts, dim_watts, name="display",
                 width=800, height=600):
        super().__init__(
            name,
            states={self.BRIGHT: bright_watts, self.DIM: dim_watts, self.OFF: 0.0},
            initial=self.BRIGHT,
        )
        self.width = width
        self.height = height

    @property
    def screen(self):
        """Full-screen rectangle."""
        return Rect(0, 0, self.width, self.height)

    def bright(self):
        self.set_state(self.BRIGHT)

    def dim(self):
        self.set_state(self.DIM)

    def off(self):
        self.set_state(self.OFF)


class ZonedDisplay(Display):
    """A display whose backlight is divided into independently lit zones.

    Zones form a ``rows x cols`` grid.  Each zone's bright/dim power is
    the full-panel bright/dim power scaled by the zone's area fraction
    (1/zones).  The component's reported power is the sum over zones,
    so the machine integrates zoned energy exactly like any other
    component.

    The paper's 4-zone display is a 2x2 grid and the 8-zone display a
    2x4 grid (Figure 17).
    """

    def __init__(self, bright_watts, dim_watts, rows, cols,
                 name="display", width=800, height=600):
        if rows < 1 or cols < 1:
            raise HardwareError(f"invalid zone grid {rows}x{cols}")
        self.rows = rows
        self.cols = cols
        self.zone_levels = [self.BRIGHT] * (rows * cols)
        # Initialise the underlying Display after zone bookkeeping exists
        # because `watts` sums zone_levels.
        super().__init__(bright_watts, dim_watts, name=name,
                         width=width, height=height)

    # -- zone geometry --------------------------------------------------
    @property
    def zones(self):
        """Total number of zones."""
        return self.rows * self.cols

    def zone_rect(self, index):
        """Screen rectangle covered by zone ``index`` (row-major)."""
        if not 0 <= index < self.zones:
            raise HardwareError(f"zone index {index} out of range")
        row, col = divmod(index, self.cols)
        zone_w = self.width / self.cols
        zone_h = self.height / self.rows
        return Rect(col * zone_w, row * zone_h, zone_w, zone_h)

    def zones_for(self, rect):
        """Indices of zones a window rectangle overlaps."""
        return [i for i in range(self.zones) if rect.intersects(self.zone_rect(i))]

    # -- power ----------------------------------------------------------
    def _refresh_watts(self):
        per_zone = {
            self.BRIGHT: self.states[self.BRIGHT] / self.zones,
            self.DIM: self.states[self.DIM] / self.zones,
            self.OFF: 0.0,
        }
        # The component's own `state` acts as a master switch: when the
        # whole display is off, zones draw nothing regardless of level.
        if self.state == self.OFF:
            self.watts = 0.0
        else:
            self.watts = sum(per_zone[level] for level in self.zone_levels)

    # -- zone control ---------------------------------------------------
    def set_zone(self, index, level):
        """Set one zone's illumination level (bright / dim / off)."""
        if level not in (self.BRIGHT, self.DIM, self.OFF):
            raise HardwareError(f"unknown zone level {level!r}")
        if not 0 <= index < self.zones:
            raise HardwareError(f"zone index {index} out of range")
        if self.zone_levels[index] == level:
            return
        if self._pre_change is not None:
            self._pre_change()
        self.zone_levels[index] = level
        self._refresh_watts()

    def set_all_zones(self, level):
        """Set every zone to ``level``."""
        for i in range(self.zones):
            self.set_zone(i, level)

    def illuminate(self, rects, level=Display.BRIGHT, background=Display.OFF):
        """Light exactly the zones overlapped by ``rects``.

        Zones touched by any rectangle get ``level``; all other zones
        get ``background``.  Returns the number of zones lit at
        ``level`` — the quantity the paper's Section 4 projection is
        framed in ("the map output only occupies three zones").
        """
        lit = set()
        for rect in rects:
            lit.update(self.zones_for(rect))
        for i in range(self.zones):
            self.set_zone(i, level if i in lit else background)
        return len(lit)
