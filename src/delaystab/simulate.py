"""Fixed-step integration of concrete delay systems and decay fitting.

Integration is classical explicit fourth-order Runge-Kutta marching on a
uniform grid (the method of steps with a continuous extension).  Its step
must divide the span and be at most a tenth of the smallest positive delay
bound that the reads declare; left out, it is the largest such step that is
also at most COARSEST_STEP, and this module is the one place that rule
lives.  A `systems.ConcreteSystem` lists its delayed reads, (component, lag,
bound, label) each, and its rates and coefficients, and evaluates its one
right-hand side, the same for every family, from their values.

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

The initial history is one state vector, the state at every t <= t0, so a
read at or before t0 takes its component's entry.  A constant lag of at
least one step reads q = c - lag / h steps from node k in every step k, so
it is range-checked once and each stage offset plans its node offset or
Hermite weights once.  The read keeps its history entry until the first
step whose read lies past t0, and is gathered from then on.  The rates,
coefficients and table reads (time-varying lags and constant lags below one
step) depend on t alone and are tabulated with numpy, with range checks,
classes and places, on the stage times of BLOCK steps at a time, into one
flat list of table reads per block that each stage reads in place.  A table
read whose lag leaves its declared bound raises when its stage is reached.
Only stage reads depend on more than the stage time and the completed
steps, so a stage time without them evaluates once: k3 is k2, and the node
derivative (kept for Hermite reads and the next step) is k4.

A step runs on Python floats in numpy's elementwise order (the same bits,
no numpy call per step); a non-finite state aborts the run at its time.
Every read stays within its declared bound (`systems.read_time`), so the
initial history and the nodes of the longest declared lag bound serve them
all.  Node values and derivatives go to two flat lists that keep only that
window; the recorded states are copied out per block, so memory is
O(max bound / h * dim) plus those rows.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .systems import Constant, read_time

COARSEST_STEP = 0.01
BLOCK = 64  # steps whose stage times are tabulated at once


class SimulationError(RuntimeError):
    """Integration aborted; `time` holds the failure instant."""

    def __init__(self, message: str, time: float):
        super().__init__(message)
        self.time = time


class FitInapplicableError(RuntimeError):
    """The trajectory does not support an exponential-decay fit."""


class SimConfig(NamedTuple):
    """Time span, step size and output decimation.

    `h` None is the default step: the largest that divides the span and is
    at most COARSEST_STEP and a tenth of the smallest positive declared delay bound.
    """

    t0: float
    t_end: float
    h: float | None = None
    record_every: int = 1


class Trajectory(NamedTuple):
    times: np.ndarray
    states: np.ndarray
    meta: dict

    @property
    def dim(self) -> int:
        return self.states.shape[1]


class DecayFit(NamedTuple):
    lambda_hat: float
    amplitude: float
    fit_window: tuple[float, float]
    r_squared: float


def require_finite(**values: float) -> None:
    """Raise ValueError naming the first of the given times that is NaN or infinite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def _place(q: np.ndarray, h: float) -> tuple:
    """(r, Hermite weights with h folded in, on-node flags, sub-step flags) of reads
    q steps past node k (an array): on node k + r, or between nodes k + r and
    k + r + 1; a sub-step read takes node k."""
    substep = q > 1e-9
    node = substep | (np.abs(q - np.rint(q)) <= 1e-9)
    r = np.where(node, np.minimum(np.rint(q), 0.0), np.floor(q))
    theta, om = q - r, 1.0 - (q - r)
    return r.astype(int), ((1.0 + 2.0 * theta) * om * om, theta * om * om * h,
                           theta * theta * (3.0 - 2.0 * theta),
                           theta * theta * (theta - 1.0) * h), node, substep


class _ReadPlan:
    """The planned reads at stage offset c of every step (see the module docstring)."""

    def __init__(self, c: float, h: float, dim: int, planned: list, start: list):
        q = np.array([c - lag / h for _, _, lag in planned])
        offsets, weights, nodes, _ = _place(q, h)
        queue = []
        for (slot, comp, _), q, r, node, *w in zip(planned, q.tolist(), offsets.tolist(),
                                                   nodes.tolist(), *(w.tolist() for w in weights)):
            # gathered from the first step whose read lies past t0
            queue.append((math.floor(1e-9 - q) + 1,
                          (slot, r * dim + comp) if node else (slot, r * dim + comp, *w)))
        self.queue = sorted(queue, key=lambda entry: -entry[0])  # the next to start on top
        # each read keeps its history entry until it is gathered
        self.nodes, self.hermite, self.values = [], [], start.copy()


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
        # the bounds the lagged reads declare: the smallest positive one caps the step
        bounds = [bound for _, lag, bound, _ in system.reads if lag is not None]
        min_lag = min((bound for bound in bounds if bound > 0), default=None)
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
        self.cfg, self.h, self.n_steps, self.dim = cfg, h, n_steps, system.dim
        self.history = system.history
        try:  # the recorded rows, filled one block of steps at a time
            self.times = cfg.t0 + np.arange(0, n_steps + 1, cfg.record_every) * h
            self.states = np.empty((len(self.times), self.dim))
        except (MemoryError, ValueError):  # numpy's ValueError: beyond any array size
            raise ValueError(f"cannot allocate the grid of {n_steps} steps of size "
                             f"{h:g}; shorten the span or enlarge the step") from None
        # the nodes a read can reach, its lag within its declared bound up to `read_time`'s
        # slack: x_i(t_j) is xs[(j - first) * dim + i], its slope in ks
        top = max(bounds, default=0.0)
        self.window = math.ceil(min((top + 1e-9 * max(1.0, top)) / h, n_steps)) + 2
        self.first, self.xs, self.ks = 0, [], []
        self.reads, self.rhs, self.time_functions = system.reads, system.rhs, system.time_functions
        self.substep_lookups = 0
        constant = [(slot, *read) for slot, read in enumerate(self.reads)
                    if isinstance(read[1], Constant)]
        # each constant lag is range-checked once, at t0
        _, error = read_time(np.full(len(constant), cfg.t0),
                             np.array([lag(cfg.t0) for _, _, lag, _, _ in constant], dtype=float),
                             np.array([r[3] for r in constant]), [r[4] for r in constant])
        if error:
            raise error
        self.stage, table, planned = [], [], []
        for slot, (comp, lag, bound, label) in enumerate(self.reads):
            if lag is None or isinstance(lag, Constant) and lag.value == 0:
                self.stage.append((slot, comp))
            elif not isinstance(lag, Constant) or lag.value < h:  # may be a sub-step read
                table.append((slot, comp, lag, bound, label))
            else:  # a lag beyond the span reads the history in every step, as one step past it does
                planned.append((slot, comp, min(lag.value, span + h)))
        self.table_lags = [lag for _, _, lag, _, _ in table]
        self.table = [np.array([read[i] for read in table], dtype=kind)
                      for i, kind in ((0, int), (1, int), (3, float), (4, object))]
        start = self.history[[comp for comp, *_ in self.reads]].tolist()
        self.plans = [_ReadPlan(c, h, self.dim, planned, start) for c in (0.5, 1.0)]
        self.g0, self.entries, self.cut, self.failure = -1, [], math.inf, None

    def _tabulate(self, g0: int, n: int) -> list:
        """The time functions' values at the times of stages g0 <= g < g0 + n (stage 2k is
        step k's half step, 2k + 1 its end, -1 is t0), evaluated at once, as is each table
        read's lag there; self.entries keeps their reads, stage by stage from stage self.g0,
        as (kind, slot, at, w0, w1, w2, w3, value), kind 0 to 3 a stage, node, Hermite or
        history read."""
        h, dim, t0 = self.h, self.dim, self.cfg.t0
        g = np.arange(g0, g0 + n)
        k = g // 2
        T = np.where(g % 2 == 0, (t0 + k * h) + 0.5 * h, t0 + (k + 1) * h)
        f_t = np.empty((n, len(self.time_functions)))
        for col, fn in enumerate(self.time_functions):
            f_t[:, col] = fn(T)
        if not (lags := self.table_lags):
            return f_t.tolist()
        lag = np.empty((n, len(lags)))
        for j, fn in enumerate(self.table_lags):
            lag[:, j] = fn(T)
        slot, comp, bound, label = (np.tile(column, n) for column in self.table)
        g, t = np.repeat(g, len(lags)), np.repeat(T, len(lags))  # stage by stage
        tq, error = read_time(t, lag.ravel(), bound, label)
        if error:  # raised at its stage, before it is served
            m = len(tq)
            self.cut, self.failure = int(g[m]), error
            g, t, slot, comp = g[:m], t[:m], slot[:m], comp[:m]
        stage = np.abs(tq - t) <= 1e-12 * np.maximum(1.0, np.abs(t))
        past = ~stage & (tq <= t0)
        # placed at t0, a past read (of the history, however far back) stays in range
        r, weights, node, substep = _place((np.where(past, t0, tq) - t0) / h - g // 2, h)
        self.substep_lookups += int(np.count_nonzero(substep & ~stage & ~past))
        kind = np.where(stage, 0, np.where(past, 3, 2 - node))
        columns = (kind, slot, np.where(stage, comp, r * dim + comp), *weights, self.history[comp])
        self.g0, self.entries = g0, list(zip(*(x.tolist() for x in columns)))
        return f_t.tolist()

    def _read(self, plan: _ReadPlan, g: int, k: int) -> tuple:
        """The plan's read values and the stage reads at stage g, of step k, with the table
        reads served in place from self.entries; raises the error of a read that fails there."""
        if g == self.cut:
            raise self.failure
        while plan.queue and plan.queue[-1][0] <= k:  # its read lies past t0 from now on
            gather = plan.queue.pop()[1]
            (plan.hermite if len(gather) > 2 else plan.nodes).append(gather)
        values, stage = plan.values, self.stage
        dim, states, derivs, base = self.dim, self.xs, self.ks, (k - self.first) * self.dim
        for slot, at in plan.nodes:
            values[slot] = states[base + at]
        for slot, at, w0, w1, w2, w3 in plan.hermite:
            at += base
            values[slot] = (w0 * states[at] + w1 * derivs[at]
                            + w2 * states[at + dim] + w3 * derivs[at + dim])
        if entries := self.entries:  # stage g's table reads, the commonest kind (Hermite) first
            lo = (g - self.g0) * (width := len(self.table_lags))
            for kind, slot, at, w0, w1, w2, w3, value in entries[lo:lo + width]:
                if kind == 2:
                    at += base
                    values[slot] = (w0 * states[at] + w1 * derivs[at]
                                    + w2 * states[at + dim] + w3 * derivs[at + dim])
                elif kind == 1:
                    values[slot] = states[base + at]
                elif kind == 3:
                    values[slot] = value
                else:  # a zero lag at this stage
                    stage = stage + [(slot, at)]
        return values, stage

    def _record(self, start: int, stop: int) -> None:
        """Write the recorded nodes start < j <= stop, and drop those no later read reaches."""
        every, dim, first = self.cfg.record_every, self.dim, self.first
        lo, hi = start // every + 1, stop // every + 1  # the rows lo <= i < hi, if any
        nodes = slice((lo * every - first) * dim, ((hi - 1) * every - first + 1) * dim)
        self.states[lo:hi] = np.reshape(self.xs[nodes], (-1, dim))[::every]
        if (old := stop - self.window - first) > 0:
            del self.xs[:old * dim], self.ks[:old * dim]
            self.first += old

    def run(self) -> Trajectory:
        h, rhs, (half, whole) = self.h, self.rhs, self.plans
        half_h, sixth_h, xs, ks = 0.5 * h, h / 6.0, self.xs, self.ks
        # a blow-up is reported by the finiteness check, not by numpy
        with np.errstate(over="ignore", invalid="ignore"):
            self.states[0] = self.history
            x = self.history.tolist()
            f_t = self._tabulate(-1, 1)  # the start: stage -1, the end of step -1
            values, stage = self._read(whole, -1, -1)
            for slot, comp in stage:
                values[slot] = x[comp]
            k1 = rhs(f_t[0], values)
            xs.extend(x)
            ks.extend(k1)
            for start in range(0, self.n_steps, BLOCK):
                stop = min(start + BLOCK, self.n_steps)
                f_t = self._tabulate(2 * start, 2 * (stop - start))
                for k, f_half, f_end in zip(range(start, stop), f_t[::2], f_t[1::2]):
                    # a stage read takes each evaluation's state; without one, the
                    # evaluations at a stage time are the same one
                    values, stage = self._read(half, 2 * k, k)
                    for slot, comp in stage:
                        values[slot] = x[comp] + half_h * k1[comp]
                    k2 = rhs(f_half, values)
                    for slot, comp in stage:
                        values[slot] = x[comp] + half_h * k2[comp]
                    k3 = rhs(f_half, values) if stage else k2
                    values, stage = self._read(whole, 2 * k + 1, k)
                    for slot, comp in stage:
                        values[slot] = x[comp] + h * k3[comp]
                    k4 = rhs(f_end, values)
                    x = [a + sixth_h * (b + 2.0 * c + 2.0 * d + e)
                         for a, b, c, d, e in zip(x, k1, k2, k3, k4)]
                    if not all(map(math.isfinite, x)):
                        t_next = self.cfg.t0 + (k + 1) * h
                        raise SimulationError(f"state became non-finite at t={t_next:.6g}", t_next)
                    # node derivative, stored for Hermite reads and reused as the
                    # next step's first stage; the reads at t_next are still those
                    # of k4, which never look at node k + 1
                    for slot, comp in stage:
                        values[slot] = x[comp]
                    k1 = rhs(f_end, values) if stage else k4
                    xs.extend(x)
                    ks.extend(k1)
                self._record(start, stop)
        meta = {
            "t0": self.cfg.t0, "t_end": self.cfg.t_end, "h": h,
            "record_every": self.cfg.record_every, "dim": self.dim,
            "substep_lookups": self.substep_lookups,
        }
        return Trajectory(self.times, self.states, meta)


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
    """Write `t,x_1,...,x_m` rows at 17 significant digits with LF endings to the
    file at the path `destination`."""
    m = traj.states.shape[1]
    row = ",".join(["%.17g"] * (m + 1))
    lines = ["t," + ",".join(f"x_{i + 1}" for i in range(m))]
    lines += [row % (t, *x) for t, x in zip(traj.times.tolist(), traj.states.tolist())]
    with open(destination, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
