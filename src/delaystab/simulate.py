"""Fixed-step integration of concrete delay systems and decay fitting.

Integration is classical explicit fourth-order Runge-Kutta marching on a
uniform grid (the method of steps with a continuous extension).  Its step
must divide the span and be at most a tenth of the smallest positive delay
bound; left out, it is the largest such step that is also at most
COARSEST_STEP, and this module is the one place that rule lives.  A
`systems.ConcreteSystem` lists its delayed reads in a table, (component,
lag, bound, label) each, and evaluates its one right-hand side, the same
for every family, from the list of read values.

One RK4 step evaluates the right-hand side four times but at only two new
stage times, t + c h for c = 1/2 and 1.  A read at t - lag(t) is one of:

* stage: the lag is zero, so the read takes the state of each evaluation
  (zero-delay terms reduce to the classical ODE method),
* history: at or before the start time, from the initial history,
* node: on a completed grid point, its stored value,
* Hermite: inside a completed step, cubic interpolation from the stored
  node values and derivatives, as accurate as the integrator itself,
* sub-step: inside the step being built (lag below one step), the last
  completed grid point, first-order only; `meta["substep_lookups"]` counts it.

A constant lag of at least one step reads q = c - lag / h steps from node k
in every step k, so it is range-checked once and each stage offset plans
its node offset or Hermite weights once, for the steps whose read lies past
t0 + h, and a constant history's value (`systems.ConstantHistory`) for the
steps whose read lies at or before t0; other reads are resolved anew at
each stage time.  Only stage reads depend on more than the stage time and
the completed steps, so a stage time without them evaluates once: k3 is k2,
and the node derivative (kept for Hermite reads and the next step) is k4.

A step runs on Python floats in numpy's elementwise order (the same bits,
no numpy call per step); a non-finite state aborts the run at its time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .systems import ConstantHistory, ConstantLag, read_time

COARSEST_STEP = 0.01


class SimulationError(RuntimeError):
    """Integration aborted; `time` holds the failure instant."""

    def __init__(self, message: str, time: float):
        super().__init__(message)
        self.time = time


class FitInapplicableError(RuntimeError):
    """The trajectory does not support an exponential-decay fit."""


@dataclass(frozen=True)
class SimConfig:
    """Time span, step size and output decimation.

    `h` None is the default step: the largest that divides the span and is
    at most COARSEST_STEP and a tenth of the smallest positive delay bound.
    """

    t0: float
    t_end: float
    h: float | None = None
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


def _place(q: float, h: float) -> tuple:
    """(r, Hermite weights with h folded in or none, sub-step flag) of a read
    q steps past node k: on node k + r, or between nodes k + r and k + r + 1."""
    if q > 1e-9 or abs(q - round(q)) <= 1e-9:
        return min(round(q), 0), (), q > 1e-9
    r = math.floor(q)
    theta, om = q - r, 1.0 - (q - r)
    return r, ((1.0 + 2.0 * theta) * om * om, theta * om * om * h,
               theta * theta * (3.0 - 2.0 * theta), theta * theta * (theta - 1.0) * h), False


class _ReadPlan:
    """The reads at stage offset c of every step (see the module docstring)."""

    def __init__(self, c: float, h: float, dim: int, reads: tuple, fixed: list):
        self.stage, self.nodes, self.hermite, self.varying, warm = [], [], [], [], []
        for slot, (comp, lag, bound, label) in enumerate(reads):
            if lag is None or isinstance(lag, ConstantLag) and lag.value == 0:
                self.stage.append((slot, comp))
            elif not isinstance(lag, ConstantLag) or lag.value < h:  # may be a sub-step read
                self.varying.append((slot, reads[slot]))
            else:
                r, weights, _ = _place(q := c - lag.value / h, h)
                # the steps k < history read at or before t0 (k + q <= 1e-9): the fixed value
                history = 0 if fixed[slot] is None else math.floor(1e-9 - q) + 1
                warm.append((max(0, 1 - r), history, (slot, reads[slot]),
                             (slot, r * dim + comp, *weights)))
        self.queue = sorted(warm, key=lambda entry: -entry[0])  # next warm-up to end on top


class _Integrator:
    def __init__(self, system, cfg: SimConfig):
        h = cfg.h
        require_finite(t0=cfg.t0, t_end=cfg.t_end)
        if h is not None:
            require_finite(step=h)
            if h <= 0:
                raise ValueError(f"step size must be positive, got {h}")
        if cfg.t_end <= cfg.t0:
            raise ValueError("t_end must exceed t0")
        span = cfg.t_end - cfg.t0
        min_lag = system.min_positive_lag_bound
        if h is None:  # the default step: the coarsest allowed one that divides the span
            cap = COARSEST_STEP if min_lag is None else min(COARSEST_STEP, min_lag / 10.0)
            require_finite(step_count=span / cap)
            n = max(1, math.ceil(span / cap - 1e-9))
            # span / cap may lie above n by the 1e-9 slack: one more step past the lag cap
            h = span / (n + (min_lag is not None and span / n > min_lag / 10.0 + 1e-12))
        require_finite(step_count=span / h)
        n_steps = int(round(span / h))
        if n_steps < 1 or abs(n_steps * h - span) > 1e-6 * h:
            raise ValueError("t_end - t0 must be an integer number of steps")
        if min_lag is not None and h > min_lag / 10.0 + 1e-12:
            raise ValueError(
                f"step size {h} too large: must be at most a tenth of "
                f"the smallest positive delay bound ({min_lag / 10.0:.6g})")
        if cfg.record_every < 1 or n_steps % cfg.record_every != 0:
            raise ValueError("record_every must be a positive divisor of the "
                             "step count")
        self.cfg, self.h, self.n_steps = cfg, h, n_steps
        self.dim = system.dim
        self.phi = system.history
        try:
            self.times = cfg.t0 + np.arange(n_steps + 1) * h
            self.states = np.empty((n_steps + 1, self.dim))
            self.derivs = np.empty((n_steps + 1, self.dim))
        except MemoryError:
            raise ValueError(f"cannot allocate the grid of {n_steps} steps of size "
                             f"{h:g}; shorten the span or enlarge the step") from None
        # lookups read Python floats from the flat arrays: x_i(t_j) is at j * dim + i
        self.flat = memoryview(self.states.reshape(-1)), memoryview(self.derivs.reshape(-1))
        self.reads = system.reads
        self.rhs = system.rhs
        self.history_start = cfg.t0 - system.max_lag_bound
        self.substep_lookups = 0
        self.fixed = [None] * len(self.reads)  # a constant history's value of a planned read
        for slot, (comp, lag, bound, label) in enumerate(self.reads):
            if isinstance(lag, ConstantLag):  # each constant lag is range-checked once
                tq = read_time(cfg.t0, lag, bound, label)
                if isinstance(self.phi, ConstantHistory) and tq >= self.history_start - 1e-9:
                    self.fixed[slot] = float(self.phi.vector[comp])
        self.plans = [_ReadPlan(c, h, self.dim, self.reads, self.fixed) for c in (0.5, 1.0)]

    def _read(self, plan: _ReadPlan, t: float, k: int):
        """Every read's value at stage time t of step k; the stage reads' (slot, comp)."""
        while plan.queue and plan.queue[-1][0] <= k:  # its warm-up is over: gathered from now on
            gather = plan.queue.pop()[3]
            (plan.hermite if len(gather) > 2 else plan.nodes).append(gather)
        t0, h, dim, (states, derivs) = self.cfg.t0, self.h, self.dim, self.flat
        values = self.fixed.copy()  # every read that is not fixed at step k is written below
        stage, nodes, hermite = plan.stage, plan.nodes, plan.hermite
        pending = (plan.varying + [entry[2] for entry in plan.queue if entry[1] <= k]
                   if plan.queue else plan.varying)
        if pending:
            stage, nodes, hermite = stage.copy(), nodes.copy(), hermite.copy()
            near = 1e-12 * max(1.0, abs(t))
            for slot, (comp, lag, bound, label) in pending:
                tq = read_time(t, lag, bound, label)
                if abs(tq - t) <= near:
                    stage.append((slot, comp))
                elif tq <= t0:
                    if tq < self.history_start - 1e-9:
                        raise SimulationError(
                            f"delayed lookup at t={tq:.6g} lies before the retained "
                            f"history, which starts at t={self.history_start:.6g}", t)
                    values[slot] = float(np.asarray(self.phi(tq), dtype=float)[comp])
                else:
                    r, weights, substep = _place((tq - t0) / h - k, h)
                    self.substep_lookups += substep
                    (hermite if weights else nodes).append((slot, r * dim + comp, *weights))
        base = k * dim
        for slot, at in nodes:
            values[slot] = states[base + at]
        for slot, at, w0, w1, w2, w3 in hermite:
            at += base
            values[slot] = (w0 * states[at] + w1 * derivs[at]
                            + w2 * states[at + dim] + w3 * derivs[at + dim])
        return values, stage

    def _eval(self, t: float, values: list, stage: list, x: list) -> list:
        for slot, comp in stage:
            values[slot] = x[comp]
        return self.rhs(t, values)

    def run(self) -> Trajectory:
        h, dim, (half, whole), (states, derivs) = self.h, self.dim, self.plans, self.flat
        half_h, sixth_h = 0.5 * h, h / 6.0
        # a blow-up is reported by the finiteness check, not by numpy
        with np.errstate(over="ignore", invalid="ignore"):
            t = self.cfg.t0
            self.states[0] = np.asarray(self.phi(t), dtype=float)
            # no plan gathers before step 1, so this reads every lag at t0
            self.derivs[0] = self._eval(t, *self._read(half, t, 0), self.states[0].tolist())
            x, k1, times = self.states[0].tolist(), self.derivs[0].tolist(), self.times.tolist()
            for k in range(self.n_steps):
                t, t_next = times[k], times[k + 1]
                t_mid = t + half_h
                values, stage = self._read(half, t_mid, k)
                k2 = self._eval(t_mid, values, stage, [a + half_h * b for a, b in zip(x, k1)])
                k3 = (self._eval(t_mid, values, stage, [a + half_h * b for a, b in zip(x, k2)])
                      if stage else k2)
                values, stage = self._read(whole, t_next, k)
                k4 = self._eval(t_next, values, stage, [a + h * b for a, b in zip(x, k3)])
                x = [a + sixth_h * (b + 2.0 * c + 2.0 * d + e)
                     for a, b, c, d, e in zip(x, k1, k2, k3, k4)]
                if not all(map(math.isfinite, x)):
                    raise SimulationError(f"state became non-finite at t={t_next:.6g}", t_next)
                # node derivative, stored for Hermite reads and reused as the
                # next step's first stage; the reads at t_next are still those
                # of k4, which never look at node k + 1
                k1 = self._eval(t_next, values, stage, x) if stage else k4
                for at, (value, slope) in enumerate(zip(x, k1), (k + 1) * dim):
                    states[at], derivs[at] = value, slope
        every = self.cfg.record_every
        meta = {
            "t0": self.cfg.t0, "t_end": self.cfg.t_end, "h": h,
            "record_every": every, "dim": self.dim,
            "substep_lookups": self.substep_lookups,
        }
        return Trajectory(self.times[::every].copy(), self.states[::every].copy(),
                          self.derivs[::every].copy(), meta)


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
