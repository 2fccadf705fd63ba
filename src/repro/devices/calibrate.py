"""Sesame-style online self-calibration of per-component power models.

The controller believes a *nominal* power table; the device's reality
may differ (a :class:`~repro.devices.profile.DeviceProfile` multiplier,
or mid-run drift).  Following Sesame (PAPERS.md), the
:class:`OnlineCalibrator` recovers the real table from the only signal
a deployed machine has — coarse :class:`SmartBatteryGauge` readings —
by regressing each reading against the per-component *nominal* energy
folded over the reading interval:

    gauge reading  ≈  Σ_c  m_c · (nominal joules of c in interval) / dt

Between readings the calibrator tracks every component state change
(via ``component.observe``) and folds nominal watts *at the gauge's
own internal sample instants* (``SmartBatteryGauge.sample_hooks``), so
each regressor sees exactly the waveform the reading averaged — the
alternative, a continuous-time integral, aliases against the gauge's
point sampling of pulsed loads and biases the fit.  The fit is plain
least squares over the stdlib (normal equations + Gaussian elimination
with partial pivoting; no numpy), re-run over a sliding window of
recent readings so the model re-converges after injected drift.

Convergence and residuals are observable as ``calibration.*`` trace
events (joinable to power spans via ``power_span``) and metrics.
"""

from __future__ import annotations

from collections import deque

__all__ = [
    "LearnedPowerModel",
    "OnlineCalibrator",
    "CalibratedPowerFeed",
    "parse_drift",
    "schedule_drift",
]

#: Readings retained for the sliding-window refit.  Large enough to
#: average quantization error down, small enough that a drifted table
#: dominates the window within ~a minute of 1 Hz readings.
DEFAULT_WINDOW = 64


def _solve(matrix, vector):
    """Solve ``matrix @ x = vector`` by Gaussian elimination.

    Partial pivoting; returns ``None`` when the system is (near)
    singular — e.g. a component that never changed state is perfectly
    collinear with another constant draw.
    """
    n = len(vector)
    a = [row[:] + [vector[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(a[r][col]))
        if abs(a[pivot][col]) < 1e-12:
            return None
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
        for row in range(col + 1, n):
            factor = a[row][col] / a[col][col]
            if factor != 0.0:
                for k in range(col, n + 1):
                    a[row][k] -= factor * a[col][k]
    x = [0.0] * n
    for row in range(n - 1, -1, -1):
        acc = a[row][n]
        for k in range(row + 1, n):
            acc -= a[row][k] * x[k]
        x[row] = acc / a[row][row]
    return x


class LearnedPowerModel:
    """A fitted power model: per-component multipliers over a nominal table."""

    def __init__(self, multipliers, nominal, fitted_at=0.0, readings=0):
        self.multipliers = dict(multipliers)
        self.nominal = nominal
        self.fitted_at = fitted_at
        self.readings = readings

    def multiplier(self, component_name):
        return self.multipliers.get(component_name, 1.0)

    def predict(self, mean_nominal_watts):
        """Predicted total draw for per-component mean nominal watts."""
        return sum(
            self.multiplier(name) * watts
            for name, watts in mean_nominal_watts.items()
        )

    def table(self):
        """The learned table: nominal wattages scaled by the fit."""
        return {
            name: {state: watts * self.multiplier(name)
                   for state, watts in states.items()}
            for name, states in self.nominal.items()
        }

    def error_vs(self, true_multipliers):
        """Per-component relative error against known-true multipliers."""
        errors = {}
        for name in self.multipliers:
            true = true_multipliers.get(name, 1.0)
            errors[name] = abs(self.multiplier(name) - true) / true
        return errors


class OnlineCalibrator:
    """Regress gauge readings against journal-folded nominal utilization.

    Parameters
    ----------
    machine:
        The machine whose (possibly miscalibrated) draw is gauged.
    gauge:
        A started-or-startable :class:`SmartBatteryGauge` on that
        machine.  The calibrator subscribes immediately, so create it
        *before* any consumer that wants post-fit model state per
        reading (e.g. :class:`CalibratedPowerFeed`).
    nominal:
        The believed table, ``{component: {state: watts}}``.  Only the
        listed components are fitted; their state sets must cover the
        states the run visits.
    window:
        Sliding window of readings per refit (:data:`DEFAULT_WINDOW`).
    tracer / metrics:
        Observability; ``calibration.*`` events and metrics.
    """

    def __init__(self, machine, gauge, nominal, window=DEFAULT_WINDOW,
                 tracer=None, metrics=None):
        if not nominal:
            raise ValueError("nominal table must name at least one component")
        self.machine = machine
        self.sim = machine.sim
        self.gauge = gauge
        self.nominal = {name: dict(states)
                        for name, states in nominal.items()}
        self.component_names = sorted(self.nominal)
        self.window = window
        self.model = LearnedPowerModel(
            {name: 1.0 for name in self.component_names}, self.nominal
        )
        self.readings = 0
        self.fits = 0
        self.last_residual_w = 0.0
        self.last_x = {name: 0.0 for name in self.component_names}
        self.last_predicted_w = 0.0
        self.residual_log = deque(maxlen=4096)
        self._rows = deque(maxlen=window)

        # Current nominal watts per component (kept fresh by state-change
        # observers) plus per-window sums folded at the gauge's own
        # sample instants.
        self._acc = {name: 0.0 for name in self.component_names}
        self._acc_samples = 0
        self._current = {}
        for name in self.component_names:
            component = machine.components[name]
            self._current[name] = self._nominal_watts(name, component.state)
            component.observe(self._on_state_change)
        gauge.sample_hooks.append(self._on_gauge_sample)

        tracer = tracer if tracer is not None else getattr(
            self.sim, "tracer", None)
        self._trace = tracer.gate("calibration") if tracer is not None else None
        if metrics is None:
            from repro.obs.metrics import current_metrics
            metrics = current_metrics()
        self.metrics = metrics
        self._m_readings = metrics.counter("calibration.readings")
        self._m_fits = metrics.counter("calibration.fits")
        self._m_residual = metrics.histogram("calibration.residual_w")
        self._m_residual_last = metrics.gauge("calibration.last_residual_w")

        gauge.subscribe(self._on_reading)

    # ------------------------------------------------------------------
    # nominal-utilization fold
    # ------------------------------------------------------------------
    def _nominal_watts(self, name, state):
        states = self.nominal[name]
        if state not in states:
            raise ValueError(
                f"nominal table for {name!r} missing state {state!r}")
        return states[state]

    def _on_state_change(self, component, _old, new):
        if component.name not in self._current:
            return
        self._current[component.name] = self._nominal_watts(
            component.name, new)

    def _on_gauge_sample(self, _now, _watts):
        for name, watts in self._current.items():
            self._acc[name] += watts
        self._acc_samples += 1

    # ------------------------------------------------------------------
    # per-reading update
    # ------------------------------------------------------------------
    def _on_reading(self, now, reading_w, dt):
        if dt <= 0.0 or self._acc_samples == 0:
            return
        samples = self._acc_samples
        x = {name: self._acc[name] / samples
             for name in self.component_names}
        self._acc = {name: 0.0 for name in self.component_names}
        self._acc_samples = 0
        self.readings += 1
        self._m_readings.inc()
        self._rows.append((x, reading_w))
        if len(self._rows) > len(self.component_names):
            self._fit(now)
        self.last_x = x
        self.last_predicted_w = self.model.predict(x)
        residual = reading_w - self.last_predicted_w
        self.last_residual_w = residual
        self.residual_log.append((now, residual))
        self._m_residual.observe(abs(residual))
        self._m_residual_last.set(residual)
        if self._trace is not None:
            self._trace.instant(
                now, "calibration", "calibration.fit", track="calibration",
                args={
                    "reading_w": reading_w,
                    "predicted_w": self.last_predicted_w,
                    "residual_w": residual,
                    "multipliers": dict(self.model.multipliers),
                    "fits": self.fits,
                    "power_span": self.machine.power_span_id(),
                },
            )

    def _fit(self, now):
        names = self.component_names
        n = len(names)
        ata = [[0.0] * n for _ in range(n)]
        aty = [0.0] * n
        for x, y in self._rows:
            xv = [x[name] for name in names]
            for i in range(n):
                if xv[i] == 0.0:
                    continue
                aty[i] += xv[i] * y
                for j in range(n):
                    ata[i][j] += xv[i] * xv[j]
        solution = _solve(ata, aty)
        if solution is None:
            return
        multipliers = {
            name: max(0.0, solution[i]) for i, name in enumerate(names)
        }
        self.fits += 1
        self._m_fits.inc()
        self.model = LearnedPowerModel(
            multipliers, self.nominal, fitted_at=now, readings=self.readings
        )

    # ------------------------------------------------------------------
    def residuals_between(self, t0, t1):
        """Residuals logged in ``[t0, t1)`` (for convergence tests)."""
        return [r for t, r in self.residual_log if t0 <= t < t1]

    def summary(self):
        recent = [abs(r) for _t, r in list(self.residual_log)[-16:]]
        return {
            "readings": self.readings,
            "fits": self.fits,
            "multipliers": {name: self.model.multipliers[name]
                            for name in self.component_names},
            "last_residual_w": self.last_residual_w,
            "recent_abs_residual_w": (
                sum(recent) / len(recent) if recent else 0.0
            ),
        }


class CalibratedPowerFeed:
    """Monitor-compatible feed that publishes *learned-model* power.

    Where :class:`OnlinePowerMonitor` hands the controller ground-truth
    watts, this feed hands it what the learned model *believes* was
    drawn over each gauge interval — the controller's whole view of
    power passes through the calibration.  Create it *after* the
    calibrator so each gauge reading updates the model first.
    """

    def __init__(self, calibrator):
        self.calibrator = calibrator
        self.gauge = calibrator.gauge
        self.subscribers = []
        self.gauge.subscribe(self._on_reading)

    def subscribe(self, callback):
        """Register ``callback(time, watts, dt)`` per model estimate."""
        self.subscribers.append(callback)

    def start(self):
        self.gauge.start()

    def stop(self):
        self.gauge.stop()

    def _on_reading(self, now, _reading_w, dt):
        watts = self.calibrator.last_predicted_w
        for callback in self.subscribers:
            callback(now, watts, dt)


def parse_drift(spec):
    """Parse ``"AT:FACTOR"`` (e.g. ``"60:1.25"``) into ``(at, factor)``."""
    if isinstance(spec, (tuple, list)):
        at, factor = spec
        at, factor = float(at), float(factor)
    else:
        try:
            at_text, factor_text = str(spec).split(":", 1)
            at, factor = float(at_text), float(factor_text)
        except ValueError:
            raise ValueError(
                f"drift must be 'AT:FACTOR' (e.g. '60:1.25'): {spec!r}"
            ) from None
    if at < 0:
        raise ValueError(f"drift instant must be >= 0: {at}")
    if factor <= 0:
        raise ValueError(f"drift factor must be positive: {factor}")
    return at, factor


def schedule_drift(sim, machine, at, factor, components=None, tracer=None):
    """Scale real component wattages by ``factor`` at sim time ``at``.

    Models the device's physical power draw drifting away from any
    previously correct model (thermal effects, aging, a misbehaving
    peripheral).  Controllers and calibrators are not told — they see
    it only through the gauge.
    """
    at, factor = float(at), float(factor)
    if factor <= 0:
        raise ValueError(f"drift factor must be positive: {factor}")
    tracer = tracer if tracer is not None else getattr(sim, "tracer", None)
    gate = tracer.gate("calibration") if tracer is not None else None

    def _apply(_time):
        names = []
        for name, component in machine.components.items():
            if components is not None and name not in components:
                continue
            component.scale(factor)
            names.append(name)
        if gate is not None:
            gate.instant(
                sim.now, "calibration", "calibration.drift",
                track="calibration",
                args={"factor": factor, "components": names,
                      "power_span": machine.power_span_id()},
            )

    delay = at - sim.now
    if delay < 0:
        raise ValueError(f"drift instant {at} is in the past (now={sim.now})")
    return sim.schedule(delay, _apply)
