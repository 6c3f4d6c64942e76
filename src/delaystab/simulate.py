"""Fixed-step integration of concrete delay systems and decay fitting.

Integration is classical explicit fourth-order Runge-Kutta marching on a
uniform grid (the method of steps with a continuous extension).  A
`systems.ConcreteSystem` lists its delayed reads in a table, (component,
lag, bound, label) each, and evaluates its one right-hand side, the same
for every family, from the list of read values.

One RK4 step evaluates the right-hand side four times but at only two new
stage times, t + h/2 and t + h.  The reads are resolved once per stage time:
each lag is evaluated once and range-checked against its declared bound, and
every read time t - lag(t) falls in one of five classes:

* stage: the lag is zero, so the read takes the state of each evaluation
  (zero-delay terms reduce to the classical ODE method),
* history: at or before the start time, from the initial history,
* node: on a completed grid point, its stored value,
* Hermite: inside a completed step, cubic interpolation from the stored
  node values and node derivatives, which keeps the interpolation error at
  the same order as the integrator's own truncation error,
* sub-step: inside the step being built (lag below one step), the last
  completed grid point; this fallback is only first-order accurate, and the
  number of such reads is reported as `meta["substep_lookups"]`.

All but the stage reads depend only on the stage time and the completed
steps, so the same stage time gives the same values to every evaluation.
When no read at a stage time is a stage read, the evaluation does not depend
on the stage state and is reused exactly: k3 is k2, and the node derivative
(stored for the Hermite reads and the next step's first stage) is k4.

A non-finite state aborts the run with the blow-up time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .systems import read_time


class SimulationError(RuntimeError):
    """Integration aborted; `time` holds the failure instant."""

    def __init__(self, message: str, time: float):
        super().__init__(message)
        self.time = time


class FitInapplicableError(RuntimeError):
    """The trajectory does not support an exponential-decay fit."""


@dataclass(frozen=True)
class SimConfig:
    """Time span, step size and output decimation."""

    t0: float
    t_end: float
    h: float
    record_every: int = 1


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    states: np.ndarray
    derivatives: np.ndarray
    meta: dict

    @property
    def dim(self) -> int:
        return self.states.shape[1]


@dataclass(frozen=True)
class DecayFit:
    lambda_hat: float
    amplitude: float
    fit_window: tuple[float, float]
    r_squared: float


def require_finite(**values: float) -> None:
    """Raise ValueError naming the first of the given times that is NaN or infinite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


class _Integrator:
    def __init__(self, system, cfg: SimConfig):
        require_finite(t0=cfg.t0, t_end=cfg.t_end, step=cfg.h)
        if cfg.h <= 0:
            raise ValueError(f"step size must be positive, got {cfg.h}")
        if cfg.t_end <= cfg.t0:
            raise ValueError("t_end must exceed t0")
        span = cfg.t_end - cfg.t0
        require_finite(step_count=span / cfg.h)
        n_steps = int(round(span / cfg.h))
        if n_steps < 1 or abs(n_steps * cfg.h - span) > 1e-6 * cfg.h:
            raise ValueError("t_end - t0 must be an integer number of steps")
        min_lag = system.min_positive_lag_bound
        if min_lag is not None and cfg.h > min_lag / 10.0 + 1e-12:
            raise ValueError(
                f"step size {cfg.h} too large: must be at most a tenth of "
                f"the smallest positive delay bound ({min_lag / 10.0:.6g})")
        if cfg.record_every < 1 or n_steps % cfg.record_every != 0:
            raise ValueError("record_every must be a positive divisor of the "
                             "step count")
        self.cfg = cfg
        self.n_steps = n_steps
        self.dim = system.dim
        self.phi = system.history
        try:
            self.times = cfg.t0 + np.arange(n_steps + 1) * cfg.h
            self.states = np.empty((n_steps + 1, self.dim))
            self.derivs = np.empty((n_steps + 1, self.dim))
        except MemoryError:
            raise ValueError(f"cannot allocate the grid of {n_steps} steps of size "
                             f"{cfg.h:g}; shorten the span or enlarge the step") from None
        # lookups read Python floats straight from the stored arrays
        self.states_view = memoryview(self.states)
        self.derivs_view = memoryview(self.derivs)
        self.reads = system.reads
        self.rhs = system.rhs
        self.history_start = cfg.t0 - system.max_lag_bound
        self.substep_lookups = 0

    def _resolve(self, t: float, frontier: int):
        """Read every delayed value at stage time t, the last completed node
        being `frontier`; returns the value list and the (slot, component)
        pairs of the stage reads, whose slots each evaluation fills."""
        t0, h, states, derivs = self.cfg.t0, self.cfg.h, self.states_view, self.derivs_view
        near = 1e-12 * max(1.0, abs(t))
        values = []
        stage = []
        for slot, (comp, lag, bound, label) in enumerate(self.reads):
            tq = read_time(t, lag, bound, label)
            if abs(tq - t) <= near:
                stage.append((slot, comp))
                values.append(0.0)
                continue
            if tq <= t0:
                if tq < self.history_start - 1e-9:
                    raise SimulationError(
                        f"delayed lookup at t={tq:.6g} lies before the retained "
                        f"history, which starts at t={self.history_start:.6g}", t)
                values.append(float(np.asarray(self.phi(tq), dtype=float)[comp]))
                continue
            pos = (tq - t0) / h
            node = int(round(pos))
            if abs(pos - node) <= 1e-9 and node <= frontier:
                values.append(states[node, comp])
            elif pos >= frontier:
                # inside the step being built: last completed grid point
                self.substep_lookups += 1
                values.append(states[frontier, comp])
            else:
                j = min(int(pos), frontier - 1)
                theta = pos - j
                om = 1.0 - theta
                h00 = (1.0 + 2.0 * theta) * om * om
                h10 = theta * om * om
                h01 = theta * theta * (3.0 - 2.0 * theta)
                h11 = theta * theta * (theta - 1.0)
                values.append(h00 * states[j, comp] + h10 * h * derivs[j, comp]
                              + h01 * states[j + 1, comp] + h11 * h * derivs[j + 1, comp])
        return values, stage

    def _eval(self, t: float, values: list, stage: list, x: np.ndarray) -> np.ndarray:
        if stage:
            xs = x.tolist()
            for slot, comp in stage:
                values[slot] = xs[comp]
        return self.rhs(t, values)

    def run(self) -> Trajectory:
        h = self.cfg.h
        times, states, derivs = self.times, self.states, self.derivs
        # a blow-up is reported by the finiteness check, not by numpy
        with np.errstate(over="ignore", invalid="ignore"):
            t = self.cfg.t0
            states[0] = np.asarray(self.phi(t), dtype=float)
            derivs[0] = self._eval(t, *self._resolve(t, 0), states[0])
            for k in range(self.n_steps):
                t = float(times[k])
                t_mid, t_next = t + 0.5 * h, float(times[k + 1])
                x = states[k]
                k1 = derivs[k]
                values, stage = self._resolve(t_mid, k)
                k2 = self._eval(t_mid, values, stage, x + (0.5 * h) * k1)
                k3 = self._eval(t_mid, values, stage, x + (0.5 * h) * k2) if stage else k2
                values, stage = self._resolve(t_next, k)
                k4 = self._eval(t_next, values, stage, x + h * k3)
                x_next = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                if not np.all(np.isfinite(x_next)):
                    raise SimulationError(f"state became non-finite at t={t_next:.6g}", t_next)
                states[k + 1] = x_next
                # node derivative, stored for Hermite reads and reused as the
                # next step's first stage; the reads at t_next are still those
                # of k4, which never look at node k + 1
                derivs[k + 1] = self._eval(t_next, values, stage, x_next) if stage else k4
        every = self.cfg.record_every
        meta = {
            "t0": self.cfg.t0, "t_end": self.cfg.t_end, "h": h,
            "record_every": every, "dim": self.dim,
            "substep_lookups": self.substep_lookups,
        }
        return Trajectory(times[::every].copy(), states[::every].copy(),
                          derivs[::every].copy(), meta)


def simulate(system, cfg: SimConfig) -> Trajectory:
    """Integrate a concrete system over the configured span.

    Identical system + config always produce bit-identical trajectories.
    """
    return _Integrator(system, cfg).run()


def fit_decay(traj: Trajectory, reference) -> DecayFit:
    """Fit an exponential envelope to the deviation from a reference point.

    Uses the running-maximum envelope of the sup-norm deviation over the
    last 80% of the run (the first 20% is treated as transient).  Raises
    FitInapplicableError when the trajectory is not converging toward the
    reference or the envelope is degenerate.
    """
    ref = np.asarray(reference, dtype=float)
    if ref.shape != (traj.dim,):
        raise ValueError(f"reference must have shape ({traj.dim},), got {ref.shape}")
    dev = np.max(np.abs(traj.states - ref[None, :]), axis=1)
    t = traj.times
    t_a = t[0] + 0.2 * (t[-1] - t[0])
    win = t >= t_a - 1e-12
    wdev = dev[win]
    wt = t[win]
    if wdev.size < 3:
        raise FitInapplicableError("fit window holds fewer than 3 samples")
    if not np.any(dev > 0):
        raise FitInapplicableError("trajectory is constant at the reference")
    d0 = dev[0]
    if d0 <= 0 or wdev.max() >= d0:
        raise FitInapplicableError(
            f"not converging: window deviation {wdev.max():.3e} is not below "
            f"the initial deviation {d0:.3e}")
    env = np.maximum.accumulate(wdev[::-1])[::-1]
    if env[0] <= env[-1]:
        raise FitInapplicableError("deviation envelope does not decrease "
                                   "across the fit window")
    keep = env > 0
    if keep.sum() < 2:
        raise FitInapplicableError("deviation envelope vanishes inside the window")
    tt = wt[keep] - t[0]
    yy = np.log(env[keep])
    slope, intercept = np.polyfit(tt, yy, 1)
    fitted = slope * tt + intercept
    ss_res = float(np.sum((yy - fitted) ** 2))
    ss_tot = float(np.sum((yy - yy.mean()) ** 2))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return DecayFit(lambda_hat=float(-slope), amplitude=float(math.exp(intercept)),
                    fit_window=(float(wt[0]), float(wt[-1])),
                    r_squared=r_squared)


def write_csv(traj: Trajectory, destination) -> None:
    """Write `t,x_1,...,x_m` rows at 17 significant digits with LF endings."""
    m = traj.states.shape[1]
    header = "t," + ",".join(f"x_{i + 1}" for i in range(m))
    lines = [header]
    for tval, row in zip(traj.times, traj.states):
        lines.append(",".join("%.17g" % v for v in (tval, *row)))
    text = "\n".join(lines) + "\n"
    if hasattr(destination, "write"):
        destination.write(text)
    else:
        with open(destination, "w", newline="") as fh:
            fh.write(text)
