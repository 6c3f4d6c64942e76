"""System descriptions: bound-level specs and concrete realizations.

Two layers are kept apart on purpose.  A *spec* carries only the bounds the
stability tests consume (decay-rate ranges, coupling Lipschitz constants,
delay bounds).  A *concrete system* additionally fixes actual time functions
from a small catalog, which is what the simulator integrates.  Specs are
immutable value objects; their array fields are made read-only at
construction.

Index conventions in messages are 1-based to match the usual component
numbering in hand-worked two-neuron examples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np


class InvalidSpecError(ValueError):
    """Raised when an operation requires a spec that fails validation."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("invalid spec: " + "; ".join(self.violations))


class FamilyError(ValueError):
    """Raised when a spec belongs to the wrong family for an operation."""


# ---------------------------------------------------------------------------
# function catalog
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstantCoeff:
    value: float

    def __call__(self, t: float) -> float:
        return self.value

    @property
    def lower(self) -> float:
        return self.value

    @property
    def upper(self) -> float:
        return self.value


@dataclass(frozen=True)
class Sinusoid:
    """base + amp*sin(t), range [base-|amp|, base+|amp|]."""

    base: float
    amp: float

    def __call__(self, t: float) -> float:
        return self.base + self.amp * math.sin(t)

    @property
    def lower(self) -> float:
        return self.base - abs(self.amp)

    @property
    def upper(self) -> float:
        return self.base + abs(self.amp)


@dataclass(frozen=True)
class Cosinusoid(Sinusoid):
    """base + amp*cos(t), with the same range as the sine variant."""

    def __call__(self, t: float) -> float:
        return self.base + self.amp * math.cos(t)


@dataclass(frozen=True)
class ConstantLag:
    value: float

    def __call__(self, t: float) -> float:
        return self.value

    @property
    def lower(self) -> float:
        return self.value

    @property
    def bound(self) -> float:
        return self.value


@dataclass(frozen=True)
class SinSquaredLag:
    """amp*sin(t)^2; touches zero periodically, bounded by amp."""

    amp: float

    def __call__(self, t: float) -> float:
        s = math.sin(t)
        return self.amp * s * s

    @property
    def lower(self) -> float:
        return min(self.amp, 0.0)

    @property
    def bound(self) -> float:
        return self.amp


@dataclass(frozen=True)
class ShiftedAbsSinLag:
    """base + amp*|sin(t)|, ranging over [base + min(amp, 0), base + max(amp, 0)]."""

    base: float
    amp: float

    def __call__(self, t: float) -> float:
        return self.base + self.amp * abs(math.sin(t))

    @property
    def lower(self) -> float:
        return self.base + min(self.amp, 0.0)

    @property
    def bound(self) -> float:
        return self.base + max(self.amp, 0.0)


@dataclass(frozen=True)
class ShiftedAbsCosLag(ShiftedAbsSinLag):
    """base + amp*|cos(t)|, with the same range as the sine variant."""

    def __call__(self, t: float) -> float:
        return self.base + self.amp * abs(math.cos(t))


@dataclass(frozen=True)
class _Activation:
    """k*phi(u) for a fixed phi of slope at most 1, hence Lipschitz constant |k|."""

    k: float

    @property
    def lipschitz(self) -> float:
        return abs(self.k)


@dataclass(frozen=True)
class LinearActivation(_Activation):
    def __call__(self, u: float) -> float:
        return self.k * u


@dataclass(frozen=True)
class TanhActivation(_Activation):
    """k*tanh(u): slope k at the origin, |value| <= |k u|."""

    def __call__(self, u: float) -> float:
        return self.k * math.tanh(u)


@dataclass(frozen=True)
class SinActivation(_Activation):
    def __call__(self, u: float) -> float:
        return self.k * math.sin(u)


@dataclass(frozen=True)
class LogisticActivation(_Activation):
    """k*(sigmoid(u) - 1/2): zero at zero, max slope k/4."""

    def __call__(self, u: float) -> float:
        # branch keeps exp() from overflowing for large negative u
        if u >= 0:
            return self.k * (1.0 / (1.0 + math.exp(-u)) - 0.5)
        e = math.exp(u)
        return self.k * (e / (1.0 + e) - 0.5)

    @property
    def lipschitz(self) -> float:
        return abs(self.k) / 4.0


COEFF_CATALOG = {
    "constant": (ConstantCoeff, ("value",)),
    "sinusoid": (Sinusoid, ("base", "amp")),
    "cosinusoid": (Cosinusoid, ("base", "amp")),
}

LAG_CATALOG = {
    "constant": (ConstantLag, ("value",)),
    "sin_squared": (SinSquaredLag, ("amp",)),
    "shifted_abs_sin": (ShiftedAbsSinLag, ("base", "amp")),
    "shifted_abs_cos": (ShiftedAbsCosLag, ("base", "amp")),
}

ACTIVATION_CATALOG = {
    "linear": (LinearActivation, ("k",)),
    "tanh_scaled": (TanhActivation, ("k",)),
    "sin_scaled": (SinActivation, ("k",)),
    "logistic_centered": (LogisticActivation, ("k",)),
}


# ---------------------------------------------------------------------------
# spec types
# ---------------------------------------------------------------------------

def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _array(value, shape: tuple, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.shape != shape:
        raise InvalidSpecError([f"{name} must have shape {shape}, got {arr.shape}"])
    return _freeze(arr)


def _set_arrays(spec, vecs, mats):
    # the first vector fixes the dimension; arrays are converted in order
    shape = np.asarray(getattr(spec, vecs[0]), dtype=float).shape
    if len(shape) != 1 or shape[0] == 0:
        raise InvalidSpecError([f"{vecs[0]} must be a nonempty vector"])
    for names, dims in ((vecs, shape), (mats, shape + shape)):
        for name in names:
            object.__setattr__(spec, name, _array(getattr(spec, name), dims, name))


def _eq(a, b) -> bool:
    if type(a) is not type(b):
        return NotImplemented
    for f in fields(a):
        va, vb = getattr(a, f.name), getattr(b, f.name)
        if isinstance(va, np.ndarray):
            if not np.array_equal(va, vb):
                return False
        elif va != vb:
            return False
    return True


@dataclass(frozen=True, eq=False)
class GeneralSystemSpec:
    """Bounds for the nonlinear family with delayed self-decay.

    alpha/A bracket the time-varying decay coefficient of each component, tau
    bounds the self-decay delay, sigma[i][j] bounds the delay of component j's
    signal entering equation i, and L[i][j] is the growth constant of that
    coupling term.  diagonal_delay_free marks the subfamily whose self-decay
    acts on the undelayed state.
    """

    alpha: np.ndarray
    A: np.ndarray
    tau: np.ndarray
    sigma: np.ndarray
    L: np.ndarray
    diagonal_delay_free: bool = False

    def __post_init__(self):
        _set_arrays(self, ("alpha", "A", "tau"), ("sigma", "L"))
        object.__setattr__(self, "diagonal_delay_free", bool(self.diagonal_delay_free))

    __eq__ = _eq

    @property
    def m(self) -> int:
        return self.alpha.shape[0]


@dataclass(frozen=True, eq=False)
class LinearSystemSpec:
    """Bounds for the linear family.

    alpha/A bracket the magnitude of the (negative) diagonal coefficients,
    A_off[i][j] bounds |a_ij| for i != j, sigma[i][j] bounds the delay of the
    j-th state in equation i (diagonal included unless diagonal_delay_free).
    """

    alpha: np.ndarray
    A: np.ndarray
    A_off: np.ndarray
    sigma: np.ndarray
    diagonal_delay_free: bool = False

    def __post_init__(self):
        _set_arrays(self, ("alpha", "A"), ("A_off", "sigma"))
        object.__setattr__(self, "diagonal_delay_free", bool(self.diagonal_delay_free))

    __eq__ = _eq

    @property
    def m(self) -> int:
        return self.alpha.shape[0]


@dataclass(frozen=True, eq=False)
class BamSpec:
    """Bounds for the two-layer bidirectional network.

    Layer x has n units with gains a, leakage delay bounds tau_x, and incoming
    couplings a_conn (n x n) through activations with Lipschitz constants Lf
    applied to layer-y states delayed by at most sigma_y.  Layer y mirrors
    this with b, tau_y, b_conn, Lg, sigma_x.  r_lo/r_hi and p_lo/p_hi bracket
    the time-varying rate modulation of each layer; I and J are constant
    external inputs.
    """

    a: np.ndarray
    b: np.ndarray
    a_conn: np.ndarray
    b_conn: np.ndarray
    Lf: np.ndarray
    Lg: np.ndarray
    r_lo: np.ndarray
    r_hi: np.ndarray
    p_lo: np.ndarray
    p_hi: np.ndarray
    tau_x: np.ndarray
    tau_y: np.ndarray
    sigma_x: np.ndarray
    sigma_y: np.ndarray
    I: np.ndarray
    J: np.ndarray

    def __post_init__(self):
        _set_arrays(self, ("a", "b", "Lf", "Lg", "r_lo", "r_hi", "p_lo", "p_hi",
                           "tau_x", "tau_y", "sigma_x", "sigma_y", "I", "J"),
                    ("a_conn", "b_conn"))

    __eq__ = _eq

    @property
    def n(self) -> int:
        return self.a.shape[0]


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def _check(out: list[str], arr: np.ndarray, name: str, rule: str | None,
           other=None):
    # rule is "> 0", ">= 0", "<=" (against `other`) or None (finite only);
    # numpy finds the failing entries and only those are formatted
    finite = np.isfinite(arr)
    if rule == "> 0":
        ok = arr > 0
    elif rule == ">= 0":
        ok = arr >= 0
    elif rule == "<=":
        ok = arr <= other
    else:
        ok = True
    for idx in zip(*np.nonzero(~(finite & ok))):
        v = arr[idx]
        where = name + "".join(f"[{k + 1}]" for k in idx)
        if not finite[idx]:
            out.append(f"{where} must be finite (got {v})")
        elif rule == "<=":
            out.append(f"{where} must be <= its upper partner (got {v} > {other[idx]})")
        else:
            out.append(f"{where} must be {rule} (got {v})")


# the rules of each spec type, in message order: (field, rule, partner), with
# rule "> 0", ">= 0", "<=" (against the partner field) or None (finite only)
_RULES = {
    GeneralSystemSpec: (("alpha", "> 0", None), ("A", ">= 0", None), ("alpha", "<=", "A"),
                        ("tau", ">= 0", None), ("sigma", ">= 0", None), ("L", ">= 0", None)),
    LinearSystemSpec: (("alpha", "> 0", None), ("A", ">= 0", None), ("alpha", "<=", "A"),
                       ("A_off", ">= 0", None), ("sigma", ">= 0", None)),
    BamSpec: (("a", "> 0", None), ("b", "> 0", None),
              ("r_lo", "> 0", None), ("r_hi", "> 0", None), ("r_lo", "<=", "r_hi"),
              ("p_lo", "> 0", None), ("p_hi", "> 0", None), ("p_lo", "<=", "p_hi"))
    + tuple((name, ">= 0", None)
            for name in ("Lf", "Lg", "tau_x", "tau_y", "sigma_x", "sigma_y"))
    + tuple((name, None, None) for name in ("I", "J", "a_conn", "b_conn")),
}


def _rule_groups(rules) -> tuple[list[str], ...]:
    # field names per test of the one-pass check: finite (every field),
    # "> 0", ">= 0", and the two sides of "<="
    def names(*wanted):
        return [name for name, rule, _ in rules if rule in wanted]

    return ([name for name, _, _ in rules], names("> 0"), names(">= 0"), names("<="),
            [other for _, rule, other in rules if rule == "<="])


_GROUPS = {cls: _rule_groups(rules) for cls, rules in _RULES.items()}


def _passes(spec, groups) -> bool:
    # every rule at once: each group's arrays joined and tested in one call
    finite, positive, nonnegative, lower, upper = (
        np.concatenate([getattr(spec, name) for name in names], axis=None)
        for names in groups)
    return bool(np.isfinite(finite).all() and (positive > 0).all()
                and (nonnegative >= 0).all() and (lower <= upper).all())


def validate(spec) -> list[str]:
    """Return the list of constraint violations; empty means valid.

    Never raises; string entries carry field paths with 1-based indices.
    All rules are first tested together; only a spec that fails is checked
    field by field, for the messages.
    """
    for cls, rules in _RULES.items():
        if isinstance(spec, cls):
            break
    else:
        return [f"unknown spec type {type(spec).__name__}"]
    if _passes(spec, _GROUPS[cls]):
        return []
    out: list[str] = []
    for name, rule, other in rules:
        _check(out, getattr(spec, name), name, rule,
               None if other is None else getattr(spec, other))
    return out


def require_valid(spec):
    """Return `spec`, or raise InvalidSpecError listing its violations.

    Specs are immutable, so one that passed is marked and not checked again.
    """
    if not getattr(spec, "_valid", False):
        violations = validate(spec)
        if violations:
            raise InvalidSpecError(violations)
        object.__setattr__(spec, "_valid", True)
    return spec


# ---------------------------------------------------------------------------
# reductions and constructors
# ---------------------------------------------------------------------------

def merged_bounds(bam: BamSpec):
    """(alpha, A, tau, L) of the two-layer network merged into dimension 2n."""
    require_valid(bam)
    n = bam.n
    alpha = np.concatenate([bam.r_lo * bam.a, bam.p_lo * bam.b])
    upper = np.concatenate([bam.r_hi * bam.a, bam.p_hi * bam.b])
    tau = np.concatenate([bam.tau_x, bam.tau_y])
    L = np.zeros((2 * n, 2 * n))
    L[:n, n:] = np.abs(bam.a_conn) * bam.r_hi[:, None] * bam.Lf[None, :]
    L[n:, :n] = np.abs(bam.b_conn) * bam.p_hi[:, None] * bam.Lg[None, :]
    return alpha, upper, tau, L


def bam_to_general(bam: BamSpec) -> GeneralSystemSpec:
    """Merge the two layers into one general spec of dimension 2n.

    The x-layer occupies components 1..n and the y-layer n+1..2n.  Decay
    bounds absorb the rate modulation brackets, and each cross-layer coupling
    inherits the connection magnitude scaled by the source activation's
    Lipschitz constant and the destination row's upper rate.

    The direct two-layer test-matrix builder uses the same arrays (from
    `merged_bounds`), so both routes agree to the last bit.
    """
    alpha, upper, tau, L = merged_bounds(bam)
    n = bam.n
    sigma = np.zeros((2 * n, 2 * n))
    sigma[:n, n:] = np.broadcast_to(bam.sigma_y[None, :], (n, n))
    sigma[n:, :n] = np.broadcast_to(bam.sigma_x[None, :], (n, n))
    return GeneralSystemSpec(alpha=alpha, A=upper, tau=tau, sigma=sigma, L=L,
                             diagonal_delay_free=False)


def two_neuron_spec(a: float, b: float, coupling_xy: float, coupling_yx: float,
                    Lf: float, Lg: float, tau_x: float, tau_y: float,
                    sigma_x: float, sigma_y: float,
                    r_lo: float = 1.0, r_hi: float = 1.0,
                    p_lo: float = 1.0, p_hi: float = 1.0,
                    input_x: float = 0.0, input_y: float = 0.0) -> BamSpec:
    """One unit per layer: x driven by y through coupling_xy and vice versa.

    Raises InvalidSpecError when the scalar parameters violate the spec
    constraints (for example a <= 0).
    """
    spec = BamSpec(
        a=[a], b=[b], a_conn=[[coupling_xy]], b_conn=[[coupling_yx]],
        Lf=[Lf], Lg=[Lg],
        r_lo=[r_lo], r_hi=[r_hi], p_lo=[p_lo], p_hi=[p_hi],
        tau_x=[tau_x], tau_y=[tau_y], sigma_x=[sigma_x], sigma_y=[sigma_y],
        I=[input_x], J=[input_y],
    )
    return require_valid(spec)


# ---------------------------------------------------------------------------
# concrete systems
# ---------------------------------------------------------------------------

class DelayBoundError(RuntimeError):
    """A delay function left its declared bound during evaluation."""


def read_time(t: float, lag, bound: float, label: str) -> float:
    """The time t - lag(t) of a delayed read (t when `lag` is None).

    Raises DelayBoundError, naming the read by `label`, when the lag value
    leaves [0, bound].
    """
    if lag is None:
        return t
    value = lag(t)
    if value < -1e-12:
        raise DelayBoundError(f"{label} evaluates to a negative lag {value:.3e} at t={t:.6g}")
    if value > bound + 1e-9 * max(1.0, bound):
        raise DelayBoundError(
            f"{label} exceeds its declared bound {bound:.6g} at t={t:.6g} (got {value:.6g})"
        )
    return t - value


def as_history(history, dim: int):
    """A callable t -> state from a constant vector or a callable."""
    if callable(history):
        return history
    vec = np.asarray(history, dtype=float)
    if vec.shape != (dim,):
        raise InvalidSpecError([f"history must have shape ({dim},), got {vec.shape}"])

    def phi(t: float) -> np.ndarray:
        return vec

    return phi


class _Concrete:
    """Common part of the concrete systems.

    `reads` is the table of delayed reads, in the order `rhs(t, values)`
    consumes them: (component, lag function or None, declared bound, label).
    A read at time t takes the component at `read_time(t, lag, bound, label)`.
    """

    def _set_common(self, dim: int, history, reads):
        # the lag bounds count only lags that are read; an absent term's lag is not
        self.dim = dim
        self.history = as_history(history, dim)
        self.reads = tuple((comp, lag, float(bound), label) for comp, lag, bound, label in reads)
        bounds = [lag.bound for _, lag, _, _ in self.reads if lag is not None]
        self.max_lag_bound = max(bounds, default=0.0)
        self.min_positive_lag_bound = min((b for b in bounds if b > 0), default=None)


class GeneralConcrete(_Concrete):
    """A realization of a GeneralSystemSpec with catalog functions.

    coeffs: per-component decay coefficient functions (range within
    [alpha_i, A_i]); leak_lags: self-decay lag functions (bound <= tau_i);
    coupling_lags/couplings: per-pair lag functions and nonlinearities (None
    where L[i][j] == 0 means the term is absent).
    """

    def __init__(self, spec: GeneralSystemSpec, coeffs, leak_lags, coupling_lags,
                 couplings, history):
        require_valid(spec)
        m = spec.m
        problems: list[str] = []
        for i, c in enumerate(coeffs):
            if c.lower < spec.alpha[i] - 1e-9 or c.upper > spec.A[i] + 1e-9:
                problems.append(f"coefficient[{i + 1}] range outside [alpha, A]")
        for i, lag in enumerate(leak_lags):
            if spec.diagonal_delay_free:
                if lag is not None and lag.bound > 1e-12:
                    problems.append(f"leak_lag[{i + 1}] must be zero for a delay-free diagonal")
            elif lag is not None and lag.bound > spec.tau[i] + 1e-9:
                problems.append(f"leak_lag[{i + 1}] bound exceeds tau[{i + 1}]")
        for i in range(m):
            for j in range(m):
                fn = couplings[i][j]
                lag = coupling_lags[i][j]
                if fn is None:
                    continue
                if fn.lipschitz > spec.L[i, j] + 1e-9:
                    problems.append(f"coupling[{i + 1}][{j + 1}] growth exceeds L[{i + 1}][{j + 1}]")
                if lag is not None and lag.bound > spec.sigma[i, j] + 1e-9:
                    problems.append(f"coupling_lag[{i + 1}][{j + 1}] bound exceeds sigma")
        if problems:
            raise InvalidSpecError(problems)
        self.spec = spec
        self.coeffs = list(coeffs)
        self.leak_lags = list(leak_lags)
        self.coupling_lags = [list(row) for row in coupling_lags]
        self.couplings = [list(row) for row in couplings]
        # per row: the self-decay read, then one read per present coupling
        reads = []
        for i in range(m):
            reads.append((i, self.leak_lags[i], spec.tau[i], f"leak_lag[{i + 1}]"))
            reads += [(j, self.coupling_lags[i][j], spec.sigma[i, j],
                       f"coupling_lag[{i + 1}][{j + 1}]")
                      for j in range(m) if self.couplings[i][j] is not None]
        self._row_fns = [[fn for fn in row if fn is not None] for row in self.couplings]
        self._set_common(m, history, reads)

    def rhs(self, t: float, values) -> np.ndarray:
        out = np.empty(self.dim)
        it = iter(values)
        for i, fns in enumerate(self._row_fns):
            acc = -self.coeffs[i](t) * next(it)
            for fn in fns:
                acc += fn(next(it))
            out[i] = acc
        return out


class LinearConcrete(_Concrete):
    """A realization of a LinearSystemSpec: dx_i = sum_j c_ij(t) x_j(t - lag_ij)."""

    def __init__(self, spec: LinearSystemSpec, coeffs, lags, history):
        require_valid(spec)
        m = spec.m
        problems: list[str] = []
        for i in range(m):
            for j in range(m):
                c = coeffs[i][j]
                if i == j:
                    if c.upper > -spec.alpha[i] + 1e-9 or c.lower < -spec.A[i] - 1e-9:
                        problems.append(f"coefficients[{i + 1}][{i + 1}] range outside [-A, -alpha]")
                    if spec.diagonal_delay_free and lags[i][i] is not None and lags[i][i].bound > 1e-12:
                        problems.append(f"lags[{i + 1}][{i + 1}] must be zero for a delay-free diagonal")
                elif max(abs(c.lower), abs(c.upper)) > spec.A_off[i, j] + 1e-9:
                    problems.append(f"coefficients[{i + 1}][{j + 1}] magnitude exceeds A_off")
                lag = lags[i][j]
                if lag is not None and lag.bound > spec.sigma[i, j] + 1e-9:
                    problems.append(f"lags[{i + 1}][{j + 1}] bound exceeds sigma")
        if problems:
            raise InvalidSpecError(problems)
        self.spec = spec
        self.coeffs = [list(row) for row in coeffs]
        self.lags = [list(row) for row in lags]
        self._set_common(m, history,
                         [(j, self.lags[i][j], spec.sigma[i, j], f"lags[{i + 1}][{j + 1}]")
                          for i in range(m) for j in range(m)])

    def rhs(self, t: float, values) -> np.ndarray:
        out = np.empty(self.dim)
        it = iter(values)
        for i, row in enumerate(self.coeffs):
            acc = 0.0
            for c in row:
                acc += c(t) * next(it)
            out[i] = acc
        return out


class BamConcrete(_Concrete):
    """A realization of a BamSpec; state is (x_1..x_n, y_1..y_n).

    rates r/p modulate each layer's whole right-hand side; leak lags delay the
    self-decay argument and transmission lags delay the opposite layer's
    signal on its way into each sum.
    """

    def __init__(self, bam: BamSpec, r, p, leak_x, leak_y, trans_x, trans_y,
                 f, g, history):
        require_valid(bam)
        n = bam.n
        problems: list[str] = []
        for i in range(n):
            if r[i].lower < bam.r_lo[i] - 1e-9 or r[i].upper > bam.r_hi[i] + 1e-9:
                problems.append(f"r[{i + 1}] range outside [r_lo, r_hi]")
            if p[i].lower < bam.p_lo[i] - 1e-9 or p[i].upper > bam.p_hi[i] + 1e-9:
                problems.append(f"p[{i + 1}] range outside [p_lo, p_hi]")
            if leak_x[i].bound > bam.tau_x[i] + 1e-9:
                problems.append(f"leak_x[{i + 1}] bound exceeds tau_x[{i + 1}]")
            if leak_y[i].bound > bam.tau_y[i] + 1e-9:
                problems.append(f"leak_y[{i + 1}] bound exceeds tau_y[{i + 1}]")
            if trans_x[i].bound > bam.sigma_x[i] + 1e-9:
                problems.append(f"trans_x[{i + 1}] bound exceeds sigma_x[{i + 1}]")
            if trans_y[i].bound > bam.sigma_y[i] + 1e-9:
                problems.append(f"trans_y[{i + 1}] bound exceeds sigma_y[{i + 1}]")
            if f[i].lipschitz > bam.Lf[i] + 1e-9:
                problems.append(f"f[{i + 1}] Lipschitz constant exceeds Lf[{i + 1}]")
            if g[i].lipschitz > bam.Lg[i] + 1e-9:
                problems.append(f"g[{i + 1}] Lipschitz constant exceeds Lg[{i + 1}]")
        if problems:
            raise InvalidSpecError(problems)
        self.bam = bam
        self.r, self.p = list(r), list(p)
        self.leak_x, self.leak_y = list(leak_x), list(leak_y)
        self.trans_x, self.trans_y = list(trans_x), list(trans_y)
        self.f, self.g = list(f), list(g)
        # transmissions (y into x, x into y) per unit, then leaks per unit
        reads = []
        for j in range(n):
            reads += [(n + j, trans_y[j], bam.sigma_y[j], f"trans_y[{j + 1}]"),
                      (j, trans_x[j], bam.sigma_x[j], f"trans_x[{j + 1}]")]
        for i in range(n):
            reads += [(i, leak_x[i], bam.tau_x[i], f"leak_x[{i + 1}]"),
                      (n + i, leak_y[i], bam.tau_y[i], f"leak_y[{i + 1}]")]
        self._set_common(2 * n, history, reads)

    def rhs(self, t: float, values) -> np.ndarray:
        bam = self.bam
        n = bam.n
        fy = np.array([f(v) for f, v in zip(self.f, values[0:2 * n:2])])
        gx = np.array([g(v) for g, v in zip(self.g, values[1:2 * n:2])])
        out = np.empty(2 * n)
        for i in range(n):
            out[i] = self.r[i](t) * (
                -bam.a[i] * values[2 * (n + i)] + float(bam.a_conn[i] @ fy) + bam.I[i])
            out[n + i] = self.p[i](t) * (
                -bam.b[i] * values[2 * (n + i) + 1] + float(bam.b_conn[i] @ gx) + bam.J[i])
        return out
