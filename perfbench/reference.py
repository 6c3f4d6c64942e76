"""Reference integrator for simulate outputs.

A vectorised numpy method-of-steps RK4 that reads the JSON document itself
(catalog functions included), so it shares no code with the program's
integrator.  Delayed values follow the published scheme: the stage state for
zero lags, the constant history before t0, node values, cubic Hermite
interpolation on completed steps, and, for lags shorter than the step being
built, the last completed node (first order).

`final_state` also integrates with a second-order treatment of those sub-step
lags (linear interpolation between the last node and the stage state).  The
two answers differ by about the error of the first-order fallback, which sets
how far a program may move from the first answer: a sub-step fix is allowed,
anything larger is a wrong result.
"""

from __future__ import annotations

import numpy as np


def _coeffs(nodes):
    """Coefficient functions as base + s*sin(t) + c*cos(t)."""
    base, s, c = [], [], []
    for node in nodes:
        kind = node["type"]
        if kind == "constant":
            base.append(node["value"]); s.append(0.0); c.append(0.0)
        elif kind == "sinusoid":
            base.append(node["base"]); s.append(node["amp"]); c.append(0.0)
        elif kind == "cosinusoid":
            base.append(node["base"]); s.append(0.0); c.append(node["amp"])
        else:
            raise ValueError(f"unknown coefficient type {kind}")
    base, s, c = (np.array(v, dtype=float) for v in (base, s, c))
    return lambda t: base + s * np.sin(t) + c * np.cos(t)


def _lags(nodes):
    """Lag functions as c0 + s2*sin(t)^2 + as*|sin t| + ac*|cos t| (null = 0)."""
    cols = np.zeros((4, len(nodes)))
    for i, node in enumerate(nodes):
        if node is None:
            continue
        kind = node["type"]
        if kind == "constant":
            cols[0, i] = node["value"]
        elif kind == "sin_squared":
            cols[1, i] = node["amp"]
        elif kind == "shifted_abs_sin":
            cols[0, i], cols[2, i] = node["base"], node["amp"]
        elif kind == "shifted_abs_cos":
            cols[0, i], cols[3, i] = node["base"], node["amp"]
        else:
            raise ValueError(f"unknown lag type {kind}")
    c0, s2, a_s, a_c = cols

    def lag(t):
        s = np.sin(t)
        return c0 + s2 * s * s + a_s * abs(s) + a_c * abs(np.cos(t))

    return lag


def activation(nodes):
    """Activation functions applied elementwise to a vector."""
    kinds = [node["type"] for node in nodes]
    k = np.array([node["k"] for node in nodes], dtype=float)
    known = {"linear", "tanh_scaled", "sin_scaled", "logistic_centered"}
    if not set(kinds) <= known:
        raise ValueError(f"unknown activation in {kinds}")
    kinds = np.array(kinds)

    def act(u):
        out = np.where(kinds == "linear", u, 0.0)
        out = np.where(kinds == "tanh_scaled", np.tanh(u), out)
        out = np.where(kinds == "sin_scaled", np.sin(u), out)
        logistic = 0.5 * np.tanh(0.5 * u)  # = 1/(1+exp(-u)) - 1/2
        out = np.where(kinds == "logistic_centered", logistic, out)
        return k * out

    return act


def _scalar_or_list(spec, key, scalar):
    value = spec[key]
    return [value] if scalar else value


def _bam_rhs(doc):
    spec, dyn = doc["spec"], doc["dynamics"]
    scalar = doc["kind"] == "two_neuron"

    def fns(key):
        return [dyn[key]] if scalar else dyn[key]

    a = np.array(_scalar_or_list(spec, "a", scalar), dtype=float)
    b = np.array(_scalar_or_list(spec, "b", scalar), dtype=float)
    n = a.shape[0]
    if scalar:
        a_conn = np.array([[spec["coupling_xy"]]], dtype=float)
        b_conn = np.array([[spec["coupling_yx"]]], dtype=float)
    else:
        a_conn = np.array(spec["a_conn"], dtype=float)
        b_conn = np.array(spec["b_conn"], dtype=float)
    inp_i = np.array(_scalar_or_list(spec, "I", scalar), dtype=float) if "I" in spec else np.zeros(n)
    inp_j = np.array(_scalar_or_list(spec, "J", scalar), dtype=float) if "J" in spec else np.zeros(n)
    rate_x, rate_y = _coeffs(fns("rate_x")), _coeffs(fns("rate_y"))
    leak_x, leak_y = _lags(fns("leak_x")), _lags(fns("leak_y"))
    trans_x, trans_y = _lags(fns("trans_x")), _lags(fns("trans_y"))
    f, g = activation(fns("f")), activation(fns("g"))
    xs, ys = np.arange(n), np.arange(n, 2 * n)
    comps = np.concatenate([xs, ys, ys, xs])

    def rhs(t, lookup):
        lags = np.concatenate([leak_x(t), leak_y(t), trans_y(t), trans_x(t)])
        v = lookup(comps, t - lags)
        fy, gx = f(v[2 * n:3 * n]), g(v[3 * n:])
        dx = rate_x(t) * (-a * v[:n] + a_conn @ fy + inp_i)
        dy = rate_y(t) * (-b * v[n:2 * n] + b_conn @ gx + inp_j)
        return np.concatenate([dx, dy])

    return 2 * n, rhs


def _linear_rhs(doc):
    dyn = doc["dynamics"]
    m = len(dyn["coefficients"])
    coeff = _coeffs([c for row in dyn["coefficients"] for c in row])
    lag = _lags([d for row in dyn["lags"] for d in row])
    comps = np.tile(np.arange(m), m)

    def rhs(t, lookup):
        v = lookup(comps, t - lag(t))
        return (coeff(t) * v).reshape(m, m).sum(axis=1)

    return m, rhs


def min_positive_lag_bound(doc) -> float | None:
    """Smallest positive declared lag bound, as the step cap uses it."""
    dyn = doc["dynamics"]
    if doc["kind"] == "linear":
        nodes = [d for row in dyn["lags"] for d in row]
    else:
        keys = ("leak_x", "leak_y", "trans_x", "trans_y")
        nodes = [dyn[k] for k in keys] if doc["kind"] == "two_neuron" else \
            [d for k in keys for d in dyn[k]]
    bounds = []
    for node in nodes:
        if node is None:
            continue
        if node["type"] == "constant":
            bounds.append(node["value"])
        elif node["type"] == "sin_squared":
            bounds.append(node["amp"])
        else:
            bounds.append(node["base"] + node["amp"])
    positive = [b for b in bounds if b > 0]
    return min(positive) if positive else None


def default_step(doc, t_end: float, coarsest: float = 0.01) -> float:
    """The CLI's documented default: the largest step <= min(0.01, lag/10) dividing the span."""
    cap = coarsest
    bound = min_positive_lag_bound(doc)
    if bound is not None:
        cap = min(cap, bound / 10.0)
    return t_end / max(1, int(np.ceil(t_end / cap - 1e-9)))


def integrate(doc, t_end: float, h: float,
              second_order_substep: bool = False) -> tuple[np.ndarray, bool]:
    """Final state on [0, t_end] with step h, and whether any lag fell below a step."""
    if doc["kind"] == "linear":
        dim, rhs = _linear_rhs(doc)
    elif doc["kind"] in ("bam", "two_neuron"):
        dim, rhs = _bam_rhs(doc)
    else:
        raise ValueError(f"no reference dynamics for kind {doc['kind']}")
    history = np.array(doc["history"], dtype=float)
    n_steps = int(round(t_end / h))
    states = np.empty((n_steps + 1, dim))
    derivs = np.empty((n_steps + 1, dim))
    st = {"t": 0.0, "x": history, "frontier": 0, "substep": False}

    def lookup(comp, tq):
        t, x, k = st["t"], st["x"], st["frontier"]
        out = np.empty(tq.shape[0])
        pos = tq / h
        node = np.rint(pos)
        stage = np.abs(tq - t) <= 1e-12 * max(1.0, abs(t))
        hist = ~stage & (tq <= 0.0)
        at_node = ~stage & ~hist & (np.abs(pos - node) <= 1e-9) & (node <= k)
        beyond = ~stage & ~hist & ~at_node & (pos >= k)
        herm = ~(stage | hist | at_node | beyond)
        out[stage] = x[comp[stage]]
        out[hist] = history[comp[hist]]
        out[at_node] = states[node[at_node].astype(int), comp[at_node]]
        cb = comp[beyond]
        st["substep"] = st["substep"] or bool(cb.size)
        if second_order_substep and t > k * h:
            w = (tq[beyond] - k * h) / (t - k * h)
            out[beyond] = (1.0 - w) * states[k, cb] + w * x[cb]
        else:
            out[beyond] = states[k, cb]
        if herm.any():
            j = np.minimum(np.floor(pos[herm]).astype(int), k - 1)
            th = pos[herm] - j
            om = 1.0 - th
            ch = comp[herm]
            out[herm] = ((1.0 + 2.0 * th) * om * om * states[j, ch]
                         + th * om * om * h * derivs[j, ch]
                         + th * th * (3.0 - 2.0 * th) * states[j + 1, ch]
                         + th * th * (th - 1.0) * h * derivs[j + 1, ch])
        return out

    def ev(t, x):
        st["t"], st["x"] = t, x
        return rhs(t, lookup)

    states[0] = history
    derivs[0] = ev(0.0, states[0])
    for k in range(n_steps):
        st["frontier"] = k
        t, x, k1 = k * h, states[k], derivs[k]
        k2 = ev(t + 0.5 * h, x + (0.5 * h) * k1)
        k3 = ev(t + 0.5 * h, x + (0.5 * h) * k2)
        k4 = ev((k + 1) * h, x + h * k3)
        states[k + 1] = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        derivs[k + 1] = ev((k + 1) * h, states[k + 1])
    return states[-1], st["substep"]


def final_state(doc, t_end: float, h: float) -> tuple[np.ndarray, float]:
    """Reference final state and the tolerance a program's answer must meet.

    The tolerance is 1e-8 of the state scale plus ten times the change that a
    second-order sub-step treatment makes, so documents whose lags never fall
    below one step get a tight bound.
    """
    first, substep = integrate(doc, t_end, h)
    scale = max(1.0, float(np.max(np.abs(first))))
    if not substep:
        return first, 1e-8 * scale
    second, _ = integrate(doc, t_end, h, second_order_substep=True)
    return first, 1e-8 * scale + 10.0 * float(np.max(np.abs(first - second)))
