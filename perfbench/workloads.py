"""Seeded workload generator.

`build(workload, seed, workdir, inputs_dir)` writes the workload's JSON
documents into `workdir` and returns its operations: one CLI argument list
per operation plus what the checker needs to score the output.  The same seed
gives byte-identical documents.

Structure (kinds, dimensions, horizons, which verbs run) is fixed per
workload; the seed draws only the values.  Values are drawn inside ranges
that fix each verdict by construction (strict row dominance of the
comparison matrix certifies, all row sums negative refutes), so every seed
costs the same amount of work and no seed turns an operation into a failure.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field

import numpy as np

from oracle import comparison_matrix, critical_value

WORKLOADS = ("certify", "simulate", "sweep")


@dataclass
class Op:
    """One CLI call: `argv` for delaystab.cli.main and the checker's data."""

    name: str
    verb: str
    argv: list
    expect: dict = field(default_factory=dict)


def _rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


def _floats(arr):
    return np.asarray(arr, dtype=float).tolist()


def _write(workdir: str, name: str, doc: dict) -> str:
    path = os.path.join(workdir, name + ".json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return path


def _row_scaled(rng, m, targets, zero_diag=True):
    """Nonnegative m x m weights whose row i sums to targets[i]."""
    w = rng.uniform(0.1, 1.0, (m, m))
    if zero_diag:
        np.fill_diagonal(w, 0.0)
    if m == 1:
        return w * 0.0
    return w * (np.asarray(targets) / w.sum(axis=1))[:, None]


# ---------------------------------------------------------------------------
# bounds-only documents (analysis and certification)
# ---------------------------------------------------------------------------

def general_bounds(rng, m, diag, dominance, delay_free=False):
    """General spec without self-coupling.

    The comparison matrix gets diagonal entries drawn from `diag` and
    off-diagonal row sums equal to `dominance` times the diagonal, so a
    dominance range below 1 certifies and one above 1 refutes.
    """
    alpha = rng.uniform(0.8, 1.2, m)
    upper = alpha * rng.uniform(1.0, 1.2, m)
    sigma = rng.uniform(0.0, 0.5, (m, m))
    d = rng.uniform(*diag, m)
    if delay_free:
        d = np.ones(m)
        tau = np.zeros(m)
    else:
        tau = (1.0 - d) * alpha / (upper * upper)
    s = rng.uniform(*dominance, m)
    growth = _row_scaled(rng, m, s * d * alpha / (upper * tau + 1.0))
    return {"kind": "general", "spec": {
        "alpha": _floats(alpha), "A": _floats(upper), "tau": _floats(tau),
        "sigma": _floats(sigma), "L": _floats(growth),
        "diagonal_delay_free": bool(delay_free)}}


def general_uniform(rng, m, growth=None):
    """alpha = A = 1, tau = 0.5, sigma = 0: comparison diagonal about 0.5."""
    if growth is None:
        growth = rng.uniform(0.0, 0.002, (m, m))
        np.fill_diagonal(growth, 0.0)
    return {"kind": "general", "spec": {
        "alpha": [1.0] * m, "A": [1.0] * m, "tau": [0.5] * m,
        "sigma": [[0.0] * m for _ in range(m)], "L": _floats(growth)}}


def linear_bounds(rng, m, diag, dominance, delay_free=False):
    alpha = rng.uniform(0.8, 1.2, m)
    upper = alpha * rng.uniform(1.0, 1.2, m)
    sigma = rng.uniform(0.0, 0.5, (m, m))
    if delay_free:
        d = np.ones(m)
    else:
        d = rng.uniform(*diag, m)
        np.fill_diagonal(sigma, (1.0 - d) * alpha / (upper * upper))
    sd = np.diag(sigma) * (0.0 if delay_free else 1.0)
    s = rng.uniform(*dominance, m)
    a_off = _row_scaled(rng, m, s * d * alpha / (upper * sd + 1.0))
    return {"kind": "linear", "spec": {
        "alpha": _floats(alpha), "A": _floats(upper), "A_off": _floats(a_off),
        "sigma": _floats(sigma), "diagonal_delay_free": bool(delay_free)}}


def bam_bounds(rng, n, diag, dominance):
    """Two-layer spec (kind two_neuron when n == 1) with a fixed comparison diagonal."""
    a, b = rng.uniform(0.8, 1.5, n), rng.uniform(0.8, 1.5, n)
    r_lo = rng.uniform(0.9, 1.0, n)
    r_hi = r_lo * rng.uniform(1.0, 1.1, n)
    p_lo = rng.uniform(0.9, 1.0, n)
    p_hi = p_lo * rng.uniform(1.0, 1.1, n)
    lf, lg = rng.uniform(0.5, 1.0, n), rng.uniform(0.5, 1.0, n)
    dx, dy = rng.uniform(*diag, n), rng.uniform(*diag, n)
    tau_x = (1.0 - dx) * r_lo / (r_hi * r_hi * a)
    tau_y = (1.0 - dy) * p_lo / (p_hi * p_hi * b)
    sx, sy = rng.uniform(*dominance, n), rng.uniform(*dominance, n)
    # row i of the x-layer: sum_j (r_hi a tau + 1) |a_conn_ij| r_hi Lf_j / (r_lo a) = sx dx
    wx = rng.uniform(0.1, 1.0, (n, n)) * lf[None, :]
    wy = rng.uniform(0.1, 1.0, (n, n)) * lg[None, :]
    kx = sx * dx * r_lo * a / ((r_hi * a * tau_x + 1.0) * r_hi) / wx.sum(axis=1)
    ky = sy * dy * p_lo * b / ((p_hi * b * tau_y + 1.0) * p_hi) / wy.sum(axis=1)
    a_conn = (wx / lf[None, :]) * kx[:, None] * rng.choice([-1.0, 1.0], (n, n))
    b_conn = (wy / lg[None, :]) * ky[:, None] * rng.choice([-1.0, 1.0], (n, n))
    fields = {
        "a": a, "b": b, "a_conn": a_conn, "b_conn": b_conn, "Lf": lf, "Lg": lg,
        "r_lo": r_lo, "r_hi": r_hi, "p_lo": p_lo, "p_hi": p_hi,
        "tau_x": tau_x, "tau_y": tau_y,
        "sigma_x": rng.uniform(0.0, 0.5, n), "sigma_y": rng.uniform(0.0, 0.5, n),
        "I": rng.uniform(-1.0, 1.0, n), "J": rng.uniform(-1.0, 1.0, n),
    }
    return _bam_doc(fields, n)


def _bam_doc(fields, n):
    """A bam document, or with one unit per layer the scalar two_neuron form."""
    if n == 1:
        scalar = {"a_conn": "coupling_xy", "b_conn": "coupling_yx"}
        return {"kind": "two_neuron", "spec": {scalar.get(k, k): float(np.ravel(v)[0])
                                               for k, v in fields.items()}}
    return {"kind": "bam", "spec": {k: _floats(v) for k, v in fields.items()}}


# ---------------------------------------------------------------------------
# documents with dynamics (simulation, equilibria)
# ---------------------------------------------------------------------------

def _coeff(rng, base, amp, kind):
    if kind == "constant":
        return {"type": "constant", "value": float(base)}
    return {"type": kind, "base": float(base), "amp": float(amp)}


def bam_dynamics(rng, n, substep=False):
    """Stable two-layer network with modulated rates and tanh/linear activations.

    Lag bounds stay at or above 0.1, so the default step is 0.01.  With
    `substep` the transmission lags are sin^2(t) functions that cross zero at
    multiples of pi, where a lag falls below one step.
    """
    a, b = rng.uniform(1.0, 2.0, n), rng.uniform(1.0, 2.0, n)
    ks_f, ks_g = rng.uniform(0.5, 1.0, n), rng.uniform(0.5, 1.0, n)
    wx = rng.uniform(-1.0, 1.0, (n, n))
    wy = rng.uniform(-1.0, 1.0, (n, n))
    a_conn = wx * (0.5 * a / (np.abs(wx) @ ks_f))[:, None]
    b_conn = wy * (0.5 * b / (np.abs(wy) @ ks_g))[:, None]
    kinds = ("constant", "sinusoid", "cosinusoid")

    def rates(prefix):
        return [_coeff(rng, rng.uniform(0.9, 1.1), rng.uniform(0.05, 0.3), kinds[(i + prefix) % 3])
                for i in range(n)]

    def lags(lo, hi, sin_squared):
        if sin_squared:
            return [{"type": "sin_squared", "amp": float(rng.uniform(0.5, 1.0))} for _ in range(n)]
        return [{"type": "constant", "value": float(rng.uniform(lo, hi))} for _ in range(n)]

    def acts(ks):
        return [{"type": "tanh_scaled" if i % 2 == 0 else "linear", "k": float(k)}
                for i, k in enumerate(ks)]

    fields = {"a": a, "b": b, "a_conn": a_conn, "b_conn": b_conn,
              "I": rng.uniform(-1.0, 1.0, n), "J": rng.uniform(-1.0, 1.0, n)}
    dyn = {"rate_x": rates(0), "rate_y": rates(1),
           "leak_x": lags(0.1, 0.2, False), "leak_y": lags(0.1, 0.2, False),
           "trans_x": lags(0.2, 0.5, substep), "trans_y": lags(0.2, 0.5, substep),
           "f": acts(ks_f), "g": acts(ks_g)}
    doc = _bam_doc(fields, n)
    doc["dynamics"] = {k: v[0] for k, v in dyn.items()} if n == 1 else dyn
    doc["history"] = _floats(rng.uniform(-1.0, 1.0, 2 * n))
    return doc


def linear_dynamics(rng, m):
    """Stable linear delay system: delayed negative diagonal, weak couplings."""
    coeffs, lags = [], []
    for i in range(m):
        row, lag_row = [], []
        for j in range(m):
            if i == j:
                kind = ("constant", "sinusoid")[i % 2]
                row.append(_coeff(rng, -rng.uniform(1.2, 2.0), rng.uniform(0.05, 0.2), kind))
                lag_row.append({"type": "constant", "value": float(rng.uniform(0.1, 0.3))})
            else:
                kind = ("constant", "cosinusoid")[(i + j) % 2]
                c = rng.uniform(-0.4, 0.4) / m
                row.append(_coeff(rng, c if kind == "constant" else 0.0, abs(c), kind))
                lag_row.append(None if rng.uniform() < 0.3 else
                               {"type": "constant", "value": float(rng.uniform(0.1, 0.5))})
        coeffs.append(row)
        lags.append(lag_row)
    return {"kind": "linear", "spec": {"diagonal_delay_free": False},
            "dynamics": {"coefficients": coeffs, "lags": lags},
            "history": _floats(rng.uniform(-1.0, 1.0, m))}


# ---------------------------------------------------------------------------
# sweep documents: one parameter "$k" feeds several coupling leaves
# ---------------------------------------------------------------------------

def general_sweep(rng, m):
    """General spec with every coupling L_ij = $k, and the critical k from the oracle."""
    alpha = rng.uniform(0.8, 1.2, m)
    upper = alpha * rng.uniform(1.0, 1.2, m)
    tau = rng.uniform(0.05, 0.3, m)
    spec = {"alpha": _floats(alpha), "A": _floats(upper), "tau": _floats(tau),
            "sigma": _floats(rng.uniform(0.0, 0.5, (m, m))),
            "L": [["$k" if i != j else 0.0 for j in range(m)] for i in range(m)]}

    def build(k):
        return comparison_matrix("general", dict(spec, L=[[k if i != j else 0.0 for j in range(m)]
                                                          for i in range(m)]))

    return {"kind": "general", "parameters": {"k": 0.0}, "spec": spec}, critical_value(build)


def bam_sweep(rng, n):
    """Two-layer spec with every x-layer connection = $k, and the critical k."""
    doc = bam_bounds(rng, n, (0.6, 0.9), (0.2, 0.5))
    spec = doc["spec"]
    if n == 1:
        spec["coupling_xy"] = "$k"
    else:
        spec["a_conn"] = [["$k"] * n for _ in range(n)]
    key = "coupling_xy" if n == 1 else "a_conn"

    def build(k):
        return comparison_matrix(doc["kind"], dict(spec, **{key: k if n == 1 else [[k] * n] * n}))

    doc = {"kind": doc["kind"], "parameters": {"k": 0.0}, "spec": spec}
    return doc, critical_value(build)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

CERTIFIED = (0.2, 0.6)     # off-diagonal row sum / diagonal: strictly dominant
REFUTED = (1.2, 1.6)       # every row sum negative: not an M-matrix
DIAG = (0.5, 0.9)
DIAG_LOW = (0.4, 0.6)      # with m >= 45 the minors fall below the 1e-12 tolerance


def _certify(seed, workdir, inputs_dir):
    # Dimensions step finely, so operation costs spread smoothly and the latency
    # percentiles never sit on a gap between two operations of unequal cost.
    docs = []   # (name, maker, verbs)
    both = ("analyze", "certify-rate")
    for m in (2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 14, 16, 18, 20):
        docs.append((f"general_m{m}", lambda r, m=m: general_bounds(r, m, DIAG, CERTIFIED), both))
    for m in (22, 24, 26, 28, 30, 32, 36, 40):
        docs.append((f"general_m{m}", lambda r, m=m: general_bounds(r, m, DIAG, CERTIFIED),
                     ("analyze",)))
    docs.append(("general_m45_roadmap", lambda r: general_uniform(r, 45, np.full((45, 45), 0.001)),
                 both))
    for tag in "abc":
        docs.append((f"general_m48_uniform_{tag}", lambda r: general_uniform(r, 48), both))
    for m in (52, 56, 60, 64):
        docs.append((f"general_m{m}_lowdiag",
                     lambda r, m=m: general_bounds(r, m, DIAG_LOW, CERTIFIED), both))
    for m in (3, 12):
        docs.append((f"general_m{m}_refuted", lambda r, m=m: general_bounds(r, m, DIAG, REFUTED),
                     both))
    docs.append(("general_m6_delay_free",
                 lambda r: general_bounds(r, 6, DIAG, CERTIFIED, delay_free=True), both))
    for m in (3, 8, 12, 16, 20, 24, 32):
        docs.append((f"linear_m{m}", lambda r, m=m: linear_bounds(r, m, DIAG, CERTIFIED),
                     ("analyze",)))
    docs.append(("linear_m45_lowdiag", lambda r: linear_bounds(r, 45, DIAG_LOW, CERTIFIED),
                 ("analyze",)))
    for m in (6, 10):
        docs.append((f"linear_m{m}_delay_free",
                     lambda r, m=m: linear_bounds(r, m, DIAG, CERTIFIED, delay_free=True),
                     ("analyze",)))
    for n in (1, 2, 3, 4, 6, 8):
        docs.append((f"bam_n{n}", lambda r, n=n: bam_bounds(r, n, DIAG, CERTIFIED),
                     ("analyze", "certify-rate", "equilibrium")))
    for n in (12, 16):
        docs.append((f"bam_n{n}", lambda r, n=n: bam_bounds(r, n, DIAG, CERTIFIED),
                     ("analyze", "equilibrium")))
    for n in (24, 32):
        docs.append((f"bam_n{n}_lowdiag", lambda r, n=n: bam_bounds(r, n, DIAG_LOW, CERTIFIED),
                     ("analyze", "certify-rate", "equilibrium")))
    for n in (2, 4):
        docs.append((f"bam_dynamics_n{n}", lambda r, n=n: bam_dynamics(r, n),
                     ("analyze", "certify-rate", "equilibrium")))
    ops = []
    for name, make, verbs in docs:
        path = _write(workdir, name, make(_rng(seed, name)))
        ops.extend(Op(f"{verb}:{name}", verb, [verb, path]) for verb in verbs)
    for name, verbs in (("general_sample", ("analyze", "certify-rate")),
                        ("linear_coupled", ("analyze",)),
                        ("two_neuron_sample", ("analyze", "certify-rate", "equilibrium")),
                        ("bam_modulated", ("analyze", "certify-rate", "equilibrium"))):
        path = os.path.join(inputs_dir, name + ".json")
        ops.extend(Op(f"{verb}:inputs/{name}", verb, [verb, path]) for verb in verbs)
    return ops


def _simulate(seed, workdir, inputs_dir):
    docs = [
        ("two_neuron_dynamics", lambda r: bam_dynamics(r, 1), 3.0),
        ("bam_dynamics_n2", lambda r: bam_dynamics(r, 2), 2.0),
        ("bam_dynamics_n4", lambda r: bam_dynamics(r, 4), 1.5),
        ("bam_dynamics_n8", lambda r: bam_dynamics(r, 8), 1.0),
        ("linear_dynamics_m2", lambda r: linear_dynamics(r, 2), 3.0),
        ("bam_dynamics_n3", lambda r: bam_dynamics(r, 3), 1.5),
        ("linear_dynamics_m4", lambda r: linear_dynamics(r, 4), 2.0),
        ("linear_dynamics_m6", lambda r: linear_dynamics(r, 6), 1.0),
        ("linear_dynamics_m8", lambda r: linear_dynamics(r, 8), 1.0),
        ("two_neuron_substep", lambda r: bam_dynamics(r, 1, substep=True), 4.0),
        ("bam_substep_n2", lambda r: bam_dynamics(r, 2, substep=True), 4.0),
    ]
    entries = [(_write(workdir, name, make(_rng(seed, name))), name, t_end)
               for name, make, t_end in docs]
    entries += [(os.path.join(inputs_dir, "two_neuron_sample.json"), "inputs/two_neuron_sample", 5.0),
                (os.path.join(inputs_dir, "bam_modulated.json"), "inputs/bam_modulated", 0.05)]
    ops = []
    for path, name, t_end in entries:
        base = ["simulate", path, "--t-end", repr(t_end)]
        expect = {"document": path, "t_end": t_end}
        ops.append(Op(f"simulate:{name}", "simulate", base, dict(expect, record_every=1)))
        if name == "inputs/bam_modulated":
            continue  # 25 operations: p50 and p90 fall mid-way into one operation's samples
        out = os.path.join(workdir, name.replace("/", "_") + ".csv")
        ops.append(Op(f"simulate-csv:{name}", "simulate",
                      base + ["--record-every", "10", "--out", out],
                      dict(expect, record_every=10, csv=out)))
    return ops


THRESHOLD_VALUES = (0.25, 0.6, 1.3)
SWEEP_VALUES = (0.2, 0.5, 0.8, 1.1, 1.5)


def _sweep(seed, workdir, inputs_dir):
    docs = [("general_sweep_m2_a", lambda r: general_sweep(r, 2)),
            ("general_sweep_m2_b", lambda r: general_sweep(r, 2)),
            ("general_sweep_m3", lambda r: general_sweep(r, 3)),
            ("general_sweep_m4", lambda r: general_sweep(r, 4)),
            ("two_neuron_sweep_a", lambda r: bam_sweep(r, 1)),
            ("two_neuron_sweep_b", lambda r: bam_sweep(r, 1)),
            ("bam_sweep_n2", lambda r: bam_sweep(r, 2))]
    ops = []
    for name, make in docs:
        doc, k_star = make(_rng(seed, name))
        path = _write(workdir, name, doc)
        base = ["sweep", path, "--param", "parameters.k"]
        values = [k_star * f for f in THRESHOLD_VALUES]
        start = 0.5 * k_star
        ops.append(Op(f"sweep-threshold:{name}", "sweep",
                      base + ["--values", ",".join(map(repr, values)),
                              "--threshold-start", repr(start)],
                      {"document": path, "k_star": k_star, "values": values}))
        values = [k_star * f for f in SWEEP_VALUES]
        ops.append(Op(f"sweep:{name}", "sweep",
                      base + ["--values", ",".join(map(repr, values))],
                      {"document": path, "k_star": k_star, "values": values}))
    path = os.path.join(inputs_dir, "bam_modulated.json")
    ops.append(Op("sweep-threshold:inputs/bam_modulated", "sweep",
                  ["sweep", path, "--param", "parameters.mu", "--values", "0,9,18",
                   "--threshold-start", "18"], {"frozen": "sweep:inputs/bam_modulated"}))
    return ops


def build(workload: str, seed: int, workdir: str, inputs_dir: str) -> list:
    """Write the workload's documents for `seed` into workdir and list its operations."""
    makers = {"certify": _certify, "simulate": _simulate, "sweep": _sweep}
    if workload not in makers:
        raise ValueError(f"unknown workload {workload!r} (choose from {', '.join(WORKLOADS)})")
    return makers[workload](seed, workdir, inputs_dir)
