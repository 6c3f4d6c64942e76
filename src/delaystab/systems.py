"""System descriptions: bound-level specs and concrete realizations.

Two layers are kept apart on purpose.  A *spec* carries only the bounds the
stability tests consume (decay-rate ranges, coupling Lipschitz constants,
delay bounds).  A *concrete system* (`ConcreteSystem`, one class for every
family) fixes actual time functions from a small catalog and is what the
simulator integrates.  Specs are immutable value objects, checked when
built: each spec type declares its array fields and rules once, its fields
are stored as read-only copies, and bounds outside the family's rules raise
InvalidSpecError, so every spec that exists meets the hypotheses of the
stability tests.

A two-layer network's bounds merge into the general family's
(alpha, A, tau, L, sigma) in one place, `merged_bounds`, once, when the
spec is built, whose rules include that every merged bound is in float
range; the stability tests read those arrays (`BamSpec.merged`), and
`bam_to_general` builds a general spec of the same values.

Messages index the entries of a spec's fields from 0, as the arrays and a
document's lists do (`alpha[0]`, `a_conn[0][1]`).  The labels of a concrete
system's reads and functions (`leak_lag[1]`, `coefficient[1]`, `r[1]`)
number components from 1, as x_1 ... x_m are numbered.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np


class InvalidSpecError(ValueError):
    """Raised when a spec, or a system realized on one, breaks its family's rules;
    `violations` lists each broken rule."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("invalid spec: " + "; ".join(self.violations))


class FamilyError(ValueError):
    """Raised when a spec belongs to the wrong family for an operation."""


# ---------------------------------------------------------------------------
# function catalog
# ---------------------------------------------------------------------------

# rates, coefficients and lags are numpy ufunc expressions, the same bits on a time or
# an array of times; activations stay on `math`, whose tanh differs from numpy's

@dataclass(frozen=True)
class Constant:
    """The constant coefficient or lag `value`: its range and bound are the value."""

    value: float

    def __call__(self, t: float) -> float:
        return self.value

    @property
    def lower(self) -> float:
        return self.value

    upper = bound = lower


@dataclass(frozen=True)
class Sinusoid:
    """base + amp*sin(t), range [base-|amp|, base+|amp|]."""

    base: float
    amp: float

    def __call__(self, t: float) -> float:
        return self.base + self.amp * np.sin(t)

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
        return self.base + self.amp * np.cos(t)


@dataclass(frozen=True)
class SinSquaredLag:
    """amp*sin(t)^2; touches zero periodically, bounded by amp."""

    amp: float

    def __call__(self, t: float) -> float:
        s = np.sin(t)
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
        return self.base + self.amp * np.abs(np.sin(t))

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
        return self.base + self.amp * np.abs(np.cos(t))


@dataclass(frozen=True)
class _Activation:
    """k*unit(u) for a fixed `unit` of slope at most 1, hence Lipschitz constant |k|."""

    k: float

    def __call__(self, u: float) -> float:
        return self.k * self.unit(u)

    @property
    def lipschitz(self) -> float:
        return abs(self.k)


@dataclass(frozen=True)
class LinearActivation(_Activation):
    unit = float  # k * float(u) is k * u


@dataclass(frozen=True)
class TanhActivation(_Activation):
    """k*tanh(u): slope k at the origin, |value| <= |k u|."""

    unit = math.tanh


@dataclass(frozen=True)
class SinActivation(_Activation):
    # NaN, where math.sin raises, for an infinite u: the step's finiteness check reports it
    unit = staticmethod(lambda u: math.sin(u) if math.isfinite(u) else math.nan)


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
    "constant": (Constant, ("value",)),
    "sinusoid": (Sinusoid, ("base", "amp")),
    "cosinusoid": (Cosinusoid, ("base", "amp")),
}

LAG_CATALOG = {
    "constant": (Constant, ("value",)),
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

def _array(value, shape: tuple, name: str) -> np.ndarray:
    # a copy, so the caller's array stays writable and cannot change the spec
    arr = np.array(value, dtype=float)
    if arr.shape != shape:
        raise InvalidSpecError([f"{name} must have shape {shape}, got {arr.shape}"])
    arr.setflags(write=False)
    return arr


def _check(out: list[str], arr: np.ndarray, name: str, rule: str | None,
           other=None, first: bool = True):
    # rule is "> 0", ">= 0", "<=" (against `other`) or None (finite only);
    # numpy finds the failing entries and only those are formatted; a
    # non-finite entry is named at its field's first rule only
    finite = np.isfinite(arr)
    if rule == "> 0":
        ok = arr > 0
    elif rule == ">= 0":
        ok = arr >= 0
    elif rule == "<=":
        ok = arr <= other
    else:
        ok = True
    for idx in zip(*np.nonzero(~(finite & ok) if first else finite & ~ok)):
        v = arr[idx]
        where = name + "".join(f"[{k}]" for k in idx)
        if not finite[idx]:
            out.append(f"{where} must be finite (got {v})")
        elif rule == "<=":
            out.append(f"{where} must be <= its upper partner (got {v} > {other[idx]})")
        else:
            out.append(f"{where} must be {rule} (got {v})")


@functools.cache
def _rule_groups(rules) -> tuple[list[str], ...]:
    # field names per test of the one-pass check: finite (every field),
    # "> 0", ">= 0", and the two sides of "<="
    def names(*wanted):
        return [name for name, rule, _ in rules if rule in wanted]

    return ([name for name, _, _ in rules], names("> 0"), names(">= 0"), names("<="),
            [other for _, rule, other in rules if rule == "<="])


class _Spec:
    """The base of the spec types.  Each declares its fields' layout and rules:
    VECTORS (the first fixes the dimension) and MATRICES name its array fields,
    and RULES lists (field, rule, partner) in message order, with rule "> 0",
    ">= 0", "<=" (against the partner field) or None (finite only)."""

    VECTORS: tuple[str, ...]
    MATRICES: tuple[str, ...]
    RULES: tuple[tuple[str, str | None, str | None], ...]

    def __post_init__(self):
        shape = np.asarray(getattr(self, self.VECTORS[0]), dtype=float).shape
        if len(shape) != 1 or shape[0] == 0:
            raise InvalidSpecError([f"{self.VECTORS[0]} must be a nonempty vector"])
        for names, dims in ((self.VECTORS, shape), (self.MATRICES, shape + shape)):
            for name in names:
                object.__setattr__(self, name, _array(getattr(self, name), dims, name))
        if hasattr(self, "diagonal_delay_free"):
            object.__setattr__(self, "diagonal_delay_free", bool(self.diagonal_delay_free))
        # all rules are first tested together, each group's arrays joined and
        # tested in one call; only a spec that fails is checked field by field,
        # for the messages
        finite, positive, nonnegative, lower, upper = (
            np.concatenate([getattr(self, name) for name in names], axis=None)
            for names in _rule_groups(self.RULES))
        if (np.isfinite(finite).all() and (positive > 0).all()
                and (nonnegative >= 0).all() and (lower <= upper).all()):
            return
        out, seen = [], set()
        for name, rule, other in self.RULES:
            _check(out, getattr(self, name), name, rule,
                   None if other is None else getattr(self, other), name not in seen)
            seen.add(name)
        raise InvalidSpecError(out)

    def __eq__(self, other) -> bool:
        if type(self) is not type(other):
            return NotImplemented
        for f in fields(self):
            va, vb = getattr(self, f.name), getattr(other, f.name)
            if isinstance(va, np.ndarray):
                if not np.array_equal(va, vb):
                    return False
            elif va != vb:
                return False
        return True


@dataclass(frozen=True, eq=False)
class GeneralSystemSpec(_Spec):
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

    VECTORS = ("alpha", "A", "tau")
    MATRICES = ("sigma", "L")
    RULES = (("alpha", "> 0", None), ("A", ">= 0", None), ("alpha", "<=", "A"),
             ("tau", ">= 0", None), ("sigma", ">= 0", None), ("L", ">= 0", None))

    @property
    def m(self) -> int:
        return self.alpha.shape[0]


@dataclass(frozen=True, eq=False)
class LinearSystemSpec(_Spec):
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

    VECTORS = ("alpha", "A")
    MATRICES = ("A_off", "sigma")
    RULES = (("alpha", "> 0", None), ("A", ">= 0", None), ("alpha", "<=", "A"),
             ("A_off", ">= 0", None), ("sigma", ">= 0", None))

    @property
    def m(self) -> int:
        return self.alpha.shape[0]


@dataclass(frozen=True, eq=False)
class BamSpec(_Spec):
    """Bounds for the two-layer bidirectional network.

    Layer x has n units with gains a, leakage delay bounds tau_x, and incoming
    couplings a_conn (n x n) through activations with Lipschitz constants Lf
    applied to layer-y states delayed by at most sigma_y.  Layer y mirrors
    this with b, tau_y, b_conn, Lg, sigma_x.  r_lo/r_hi and p_lo/p_hi bracket
    the time-varying rate modulation of each layer; I and J are constant
    external inputs.  `merged` holds the read-only `merged_bounds`.
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

    VECTORS = ("a", "b", "Lf", "Lg", "r_lo", "r_hi", "p_lo", "p_hi",
               "tau_x", "tau_y", "sigma_x", "sigma_y", "I", "J")
    MATRICES = ("a_conn", "b_conn")
    RULES = ((("a", "> 0", None), ("b", "> 0", None),
              ("r_lo", "> 0", None), ("r_hi", "> 0", None), ("r_lo", "<=", "r_hi"),
              ("p_lo", "> 0", None), ("p_hi", "> 0", None), ("p_lo", "<=", "p_hi"))
             + tuple((name, ">= 0", None)
                     for name in ("Lf", "Lg", "tau_x", "tau_y", "sigma_x", "sigma_y"))
             + tuple((name, None, None) for name in ("I", "J", "a_conn", "b_conn")))

    def __post_init__(self):
        super().__post_init__()
        merged = merged_bounds(self)
        for arr in merged:
            arr.setflags(write=False)
        object.__setattr__(self, "merged", merged)

    @property
    def n(self) -> int:
        return self.a.shape[0]


# ---------------------------------------------------------------------------
# reductions and constructors
# ---------------------------------------------------------------------------

def require_bam(spec) -> BamSpec:
    """The spec itself when it is a two-layer network spec, else FamilyError."""
    if not isinstance(spec, BamSpec):
        raise FamilyError(f"expected a two-layer network spec, got {type(spec).__name__}")
    return spec


def merged_bounds(bam: BamSpec):
    """(alpha, A, tau, L, sigma) of the two-layer network merged into dimension 2n.

    The x-layer occupies components 1..n and the y-layer n+1..2n.  Decay
    bounds absorb the rate modulation brackets, and each cross-layer coupling
    inherits the connection magnitude scaled by the source activation's
    Lipschitz constant and the destination row's upper rate.  A product of
    nonzero factors that underflows to 0 or overflows is an InvalidSpecError
    whose name begins with a, b, a_conn or b_conn, the fields that every
    two-layer document gives.  `BamSpec` calls this once, when it is built.
    """
    n = bam.n
    with np.errstate(over="ignore", invalid="ignore"):  # checked below, with the field names
        alpha = np.concatenate([bam.r_lo * bam.a, bam.p_lo * bam.b])
        upper = np.concatenate([bam.r_hi * bam.a, bam.p_hi * bam.b])
        L = np.zeros((2 * n, 2 * n))
        L[:n, n:] = np.abs(bam.a_conn) * bam.r_hi[:, None] * bam.Lf[None, :]
        L[n:, :n] = np.abs(bam.b_conn) * bam.p_hi[:, None] * bam.Lg[None, :]
    # entry by entry only when a count or a sum says an entry may be out of range
    couplings = np.count_nonzero(L)
    if not (alpha.all() and math.isfinite(upper.sum() + L.sum()) and (couplings == 2 * n * n
            or couplings == np.count_nonzero(bam.a_conn * (bam.Lf != 0))
            + np.count_nonzero(bam.b_conn * (bam.Lg != 0)))):
        xy, yx = (bam.a_conn != 0) & (bam.Lf != 0), (bam.b_conn != 0) & (bam.Lg != 0)
        products = (("a[{i}]*r_lo[{i}]", alpha[:n], True), ("a[{i}]*r_hi[{i}]", upper[:n], True),
                    ("b[{i}]*p_lo[{i}]", alpha[n:], True), ("b[{i}]*p_hi[{i}]", upper[n:], True),
                    ("a_conn[{i}][{j}]*r_hi[{i}]*Lf[{j}]", L[:n, n:], xy),
                    ("b_conn[{i}][{j}]*p_hi[{i}]*Lg[{j}]", L[n:, :n], yx))
        problems = [name.format(i=at[0], j=at[-1])
                    + (" overflows" if value[at] else " underflows to 0")
                    for name, value, nonzero in products
                    for at in zip(*np.nonzero(~np.isfinite(value) | (value == 0) & nonzero))]
        if problems:
            raise InvalidSpecError(problems)
    tau = np.concatenate([bam.tau_x, bam.tau_y])
    sigma = np.zeros((2 * n, 2 * n))
    sigma[:n, n:] = bam.sigma_y
    sigma[n:, :n] = bam.sigma_x
    return alpha, upper, tau, L, sigma


def bam_to_general(bam: BamSpec) -> GeneralSystemSpec:
    """Merge the two layers into one general spec of dimension 2n.

    Its fields are copies of the arrays of `merged_bounds`, which the test
    matrix of the two-layer spec is built from, so both agree to the last bit.
    """
    alpha, upper, tau, L, sigma = bam.merged
    return GeneralSystemSpec(alpha=alpha, A=upper, tau=tau, sigma=sigma, L=L)


# ---------------------------------------------------------------------------
# concrete systems
# ---------------------------------------------------------------------------

class DelayBoundError(RuntimeError):
    """A delay function left its declared bound during evaluation."""


def read_time(t: np.ndarray, lag: np.ndarray, bound: np.ndarray, label) -> tuple:
    """The times t - lag of delayed reads at the times t, up to the first read whose
    lag leaves [0, bound], and the DelayBoundError naming that read by its label
    (None when every lag is in range); every argument has one entry per read.
    """
    negative = lag < -1e-12
    bad = np.flatnonzero(negative | ~(lag <= bound + 1e-9 * np.maximum(1.0, bound)))
    if not bad.size:
        return t - lag, None
    i = bad[0]
    return t[:i] - lag[:i], DelayBoundError(
        f"{label[i]} evaluates to a negative lag {lag[i]:.3e} at t={t[i]:.6g}" if negative[i]
        else f"{label[i]} exceeds its declared bound {bound[i]:.6g} at t={t[i]:.6g} "
             f"(got {lag[i]:.6g})")


# -0.0 is the exact additive identity (x + -0.0 is x, even for x = -0.0): a
# row sum starts from it and a row without input adds it
_EXACT_ZERO = -0.0


class ConcreteSystem:
    """The paper's system realized with catalog functions, in one form:

        dx_i/dt = mu_i(t) * (sum over row i's terms of w * c(t) * phi(x_j(t - lag(t))) + e_i)

    `reads` lists the delayed reads in the order `rhs(f_t, values)` takes their
    values: (component j, lag or None, declared bound, label), each read at
    t - lag(t) (see `read_time`); `phis` keeps (read index, k, unit) of the
    reads entering through phi(u) = k * unit(u): a catalog activation's k and
    unit, else 1.0 and phi (1.0 * y is y).  `time_functions` lists the distinct
    rates mu and time-varying coefficients c, `f_t` their values at a stage time.
    `rows` holds per component (mu's index or None for 1, e, terms), a term
    being (read index, weight w, c's index or None); a constant c is folded
    into w, exactly, as w * c(t) * x is (w * c(t)) * x.
    `checks` lists (label, realized lower, realized upper, allowed lower,
    allowed upper) of the functions a spec bounds; each lag's bound is checked
    against its read's declared bound too.  `activations` is a two-layer
    realization's (f, g), as `solve_equilibrium` takes them; None otherwise.
    """

    def __init__(self, reads, phis, rows, history, checks, activations=None):
        self.reads = tuple((comp, lag, float(bound), label) for comp, lag, bound, label in reads)
        # only lags that are read count; an absent term's lag is not
        lagged = [(label, 0.0, lag.bound, 0.0, bound) for _, lag, bound, label in self.reads
                  if lag is not None]
        problems = [f"{label} [{lo:.6g}, {hi:.6g}] lies outside [{low:.6g}, {high:.6g}]"
                    for label, lo, hi, low, high in [*checks, *lagged]
                    if lo < low - 1e-9 or hi > high + 1e-9]
        if problems:
            raise InvalidSpecError(problems)
        rows = [(mu, e, [(k, w * c.value, None) if isinstance(c, Constant) else (k, w, c)
                         for k, w, c in terms]) for mu, e, terms in rows]
        # each distinct rate or time-varying coefficient once, by identity
        self.time_functions = list({id(fn): fn for mu, _, terms in rows for fn in (
            mu, *(c for _, _, c in terms)) if fn is not None}.values())
        column = {id(fn): i for i, fn in enumerate(self.time_functions)}
        self.rows = [(column.get(id(mu)), e, [(k, w, column.get(id(c))) for k, w, c in terms])
                     for mu, e, terms in rows]
        # k * unit(u) of a catalog activation is its call without the call's frame
        self.phis = [(slot, phi.k, phi.unit) if type(phi).__call__ is _Activation.__call__
                     else (slot, 1.0, phi) for slot, phi in enumerate(phis) if phi is not None]
        self.activations, self.dim = activations, len(rows)
        self.history = np.array(history, dtype=float)  # the state at every t <= t0
        if (shape := self.history.shape) != (self.dim,):
            raise InvalidSpecError([f"history must have shape ({self.dim},), got {shape}"])
        self.history.flags.writeable = False

    def rhs(self, f_t: list, values) -> list:
        x = values.copy()
        for slot, k, unit in self.phis:
            x[slot] = k * unit(x[slot])
        out = []
        for mu, e, terms in self.rows:
            acc = _EXACT_ZERO
            for k, w, c in terms:
                acc += w * x[k] if c is None else w * f_t[c] * x[k]
            acc += e
            out.append(acc if mu is None else f_t[mu] * acc)
        return out


def GeneralConcrete(spec: GeneralSystemSpec, coeffs, leak_lags, coupling_lags, couplings,
                    history) -> ConcreteSystem:
    """Realize a GeneralSystemSpec: dx_i = -c_i(t) x_i(t - h_i) + sum_j F_ij(x_j(t - g_ij)).

    A None leak lag reads x_i undelayed; a None coupling (where L[i][j] == 0)
    is an absent term, whose lag is not read.
    """
    reads, phis, rows, checks = [], [], [], []
    for i, c in enumerate(coeffs):
        checks.append((f"coefficient[{i + 1}]", c.lower, c.upper, spec.alpha[i], spec.A[i]))
        # the self-decay read, then one read per present coupling
        terms = [(len(reads), -1.0, c)]
        reads.append((i, leak_lags[i], 0.0 if spec.diagonal_delay_free else spec.tau[i],
                      f"leak_lag[{i + 1}]"))
        phis.append(None)
        for j, fn in enumerate(couplings[i]):
            if fn is not None:
                checks.append((f"coupling[{i + 1}][{j + 1}] Lipschitz constant", 0.0,
                               fn.lipschitz, 0.0, spec.L[i, j]))
                terms.append((len(reads), 1.0, None))
                reads.append((j, coupling_lags[i][j], spec.sigma[i, j],
                              f"coupling_lag[{i + 1}][{j + 1}]"))
                phis.append(fn)
        rows.append((None, _EXACT_ZERO, terms))
    return ConcreteSystem(reads, phis, rows, history, checks)


def LinearConcrete(spec: LinearSystemSpec, coeffs, lags, history) -> ConcreteSystem:
    """Realize a LinearSystemSpec: dx_i = sum_j c_ij(t) x_j(t - lag_ij)."""
    m = spec.m
    reads, checks = [], []
    for i in range(m):
        for j, c in enumerate(coeffs[i]):
            low, high = ((-spec.A[i], -spec.alpha[i]) if i == j
                         else (-spec.A_off[i, j], spec.A_off[i, j]))
            checks.append((f"coefficients[{i + 1}][{j + 1}]", c.lower, c.upper, low, high))
            bound = 0.0 if i == j and spec.diagonal_delay_free else spec.sigma[i, j]
            reads.append((j, lags[i][j], bound, f"lags[{i + 1}][{j + 1}]"))
    rows = [(None, _EXACT_ZERO, [(i * m + j, 1.0, c) for j, c in enumerate(coeffs[i])])
            for i in range(m)]
    return ConcreteSystem(reads, [None] * len(reads), rows, history, checks)


def BamConcrete(bam: BamSpec, r, p, leak_x, leak_y, trans_x, trans_y, f, g,
                history) -> ConcreteSystem:
    """Realize a BamSpec with state (x_1..x_n, y_1..y_n): dx_i = r_i(t) *
    (-a_i x_i(t - leak_x_i) + sum_j a_conn[i][j] f_j(y_j(t - trans_y_j)) + I_i),
    and the y-layer mirrors it with p, b, b_conn, g, leak_y, trans_x and J.
    """
    n = bam.n
    # read 2j carries f_j(y_j) into the x-layer and 2j + 1 carries g_j(x_j)
    # into the y-layer; the leak reads of unit i are 2(n + i) and 2(n + i) + 1
    reads, phis, checks = [], [], []
    for j in range(n):
        reads += [(n + j, trans_y[j], bam.sigma_y[j], f"trans_y[{j + 1}]"),
                  (j, trans_x[j], bam.sigma_x[j], f"trans_x[{j + 1}]")]
        phis += [f[j], g[j]]
    for i in range(n):
        reads += [(i, leak_x[i], bam.tau_x[i], f"leak_x[{i + 1}]"),
                  (n + i, leak_y[i], bam.tau_y[i], f"leak_y[{i + 1}]")]
        phis += [None, None]
        checks += [(f"r[{i + 1}]", r[i].lower, r[i].upper, bam.r_lo[i], bam.r_hi[i]),
                   (f"p[{i + 1}]", p[i].lower, p[i].upper, bam.p_lo[i], bam.p_hi[i]),
                   (f"f[{i + 1}] Lipschitz constant", 0.0, f[i].lipschitz, 0.0, bam.Lf[i]),
                   (f"g[{i + 1}] Lipschitz constant", 0.0, g[i].lipschitz, 0.0, bam.Lg[i])]
    rows = [(rate[i], float(inputs[i]), [(2 * (n + i) + s, -float(gain[i]), None)]
             + [(2 * j + s, float(conn[i, j]), None) for j in range(n)])
            for s, rate, gain, conn, inputs in ((0, r, bam.a, bam.a_conn, bam.I),
                                                (1, p, bam.b, bam.b_conn, bam.J))
            for i in range(n)]
    return ConcreteSystem(reads, phis, rows, history, checks, activations=(list(f), list(g)))
