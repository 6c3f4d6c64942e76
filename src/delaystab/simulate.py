"""Fixed-step integration of concrete delay systems and decay fitting.

Integration is classical explicit fourth-order Runge-Kutta marching on a
uniform grid, with delayed arguments served from the stored solution:

* lookups at the current stage time return the stage state (so zero-delay
  terms reduce to the classical ODE method),
* lookups inside the step being built (lag below one step) fall back to the
  last completed grid point,
* lookups in completed intervals use cubic interpolation from the stored
  node values and node derivatives, which keeps the interpolation error at
  the same order as the integrator's own truncation error,
* lookups before the start time evaluate the initial history.

Every delay evaluation is range-checked against its declared bound, and a
non-finite state aborts the run with the blow-up time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .systems import InvalidSpecError


class SimulationError(RuntimeError):
    """Integration aborted; `time` holds the failure instant."""

    def __init__(self, message: str, time: float):
        super().__init__(message)
        self.time = time


class FitInapplicableError(RuntimeError):
    """The trajectory does not support an exponential-decay fit."""


@dataclass(frozen=True)
class SimConfig:
    """Time span, step size, output decimation, and optional history override.

    `history` may be a constant vector or a callable t -> vector; left as
    None, the concrete system's own history is used.
    """

    t0: float
    t_end: float
    h: float
    record_every: int = 1
    history: object = None


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


def _resolve_history(history, dim: int):
    if callable(history):
        return history
    vec = np.asarray(history, dtype=float)
    if vec.shape != (dim,):
        raise InvalidSpecError([f"history must have shape ({dim},), got {vec.shape}"])
    return lambda t: vec


class _Integrator:
    def __init__(self, system, cfg: SimConfig):
        if cfg.h <= 0:
            raise ValueError(f"step size must be positive, got {cfg.h}")
        if cfg.t_end <= cfg.t0:
            raise ValueError("t_end must exceed t0")
        span = cfg.t_end - cfg.t0
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
        self.system = system
        self.cfg = cfg
        self.n_steps = n_steps
        self.dim = system.dim
        self.phi = _resolve_history(cfg.history, self.dim) if cfg.history is not None \
            else system.history
        self.times = cfg.t0 + np.arange(n_steps + 1) * cfg.h
        self.states = np.empty((n_steps + 1, self.dim))
        self.derivs = np.empty((n_steps + 1, self.dim))
        self.frontier = 0
        self.stage_t = cfg.t0
        self.stage_x = np.zeros(self.dim)

    def _value_at(self, comp: int, tq: float) -> float:
        if abs(tq - self.stage_t) <= 1e-12 * max(1.0, abs(self.stage_t)):
            return float(self.stage_x[comp])
        t0 = self.cfg.t0
        if tq <= t0:
            start = t0 - self.system.max_lag_bound
            if tq < start - 1e-9:
                raise SimulationError(
                    f"delayed lookup at t={tq:.6g} lies before the retained "
                    f"history, which starts at t={start:.6g}", float(self.stage_t))
            return float(np.asarray(self.phi(tq), dtype=float)[comp])
        h = self.cfg.h
        pos = (tq - t0) / h
        node = int(round(pos))
        if abs(pos - node) <= 1e-9 and node <= self.frontier:
            return float(self.states[node, comp])
        if pos >= self.frontier:
            # inside the step being built: last completed grid point
            return float(self.states[self.frontier, comp])
        j = min(int(pos), self.frontier - 1)
        theta = pos - j
        om = 1.0 - theta
        h00 = (1.0 + 2.0 * theta) * om * om
        h10 = theta * om * om
        h01 = theta * theta * (3.0 - 2.0 * theta)
        h11 = theta * theta * (theta - 1.0)
        return float(h00 * self.states[j, comp] + h10 * h * self.derivs[j, comp]
                     + h01 * self.states[j + 1, comp] + h11 * h * self.derivs[j + 1, comp])

    def _eval(self, t: float, x: np.ndarray) -> np.ndarray:
        self.stage_t = t
        self.stage_x = x
        return self.system.derivative(t, self._value_at)

    def run(self) -> Trajectory:
        h = self.cfg.h
        self.states[0] = np.asarray(self.phi(self.cfg.t0), dtype=float)
        self.derivs[0] = self._eval(self.cfg.t0, self.states[0])
        for k in range(self.n_steps):
            self.frontier = k
            t = self.times[k]
            x = self.states[k]
            k1 = self.derivs[k]
            k2 = self._eval(t + 0.5 * h, x + (0.5 * h) * k1)
            k3 = self._eval(t + 0.5 * h, x + (0.5 * h) * k2)
            k4 = self._eval(self.times[k + 1], x + h * k3)
            x_next = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.all(np.isfinite(x_next)):
                raise SimulationError(
                    f"state became non-finite at t={self.times[k + 1]:.6g}",
                    float(self.times[k + 1]))
            self.states[k + 1] = x_next
            # node derivative, stored for cubic lookups and reused as the
            # next step's first stage; sub-step lags still see frontier k
            self.derivs[k + 1] = self._eval(self.times[k + 1], x_next)
        every = self.cfg.record_every
        meta = {
            "t0": self.cfg.t0, "t_end": self.cfg.t_end, "h": h,
            "record_every": every, "dim": self.dim,
        }
        return Trajectory(self.times[::every].copy(), self.states[::every].copy(),
                          self.derivs[::every].copy(), meta)


def simulate(system, cfg: SimConfig, meta: dict | None = None) -> Trajectory:
    """Integrate a concrete system over the configured span.

    Identical system + config always produce bit-identical trajectories.
    Extra `meta` entries (say, a spec hash) are merged into the result's
    metadata.
    """
    traj = _Integrator(system, cfg).run()
    if meta:
        merged = dict(traj.meta)
        merged.update(meta)
        traj = Trajectory(traj.times, traj.states, traj.derivatives, merged)
    return traj


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
