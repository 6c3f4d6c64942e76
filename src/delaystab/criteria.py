"""Stability tests for delayed interconnected systems.

Every test here follows one mechanism: build a comparison matrix whose
diagonal measures how strongly each component damps itself and whose
off-diagonal entries bound how hard its neighbours can push it, then ask
whether that matrix is a nonsingular M-matrix.  The closed-form tests for
small dimensions spell out the same leading-minor inequalities by hand, and
the dominance variants replace the minors test with the cheaper row/column
sufficient conditions.

The rate-parametrized matrix family underlying `certify_decay_rate` is
entrywise nonincreasing in the rate, so a pass at some rate guarantees a pass
at every smaller rate; bisection on the rate is therefore sound.

Criterion tags (the wire-format strings carried by verdicts and reports) are
fixed identifiers; forcing a tag that does not fit the spec family raises
FamilyError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_TOL, MMatrixReport, dominance_sums, is_m_matrix, sign_and_pivot_test
from .systems import (
    BamSpec,
    FamilyError,
    GeneralSystemSpec,
    LinearSystemSpec,
    bam_to_general,
    merged_bounds,
    require_valid,
)

# halvings in every bisection: decay rate and sweep failure threshold
BISECT_STEPS = 60

STATUS_STABLE = "stable_certified"
STATUS_INCONCLUSIVE = "inconclusive"

TAG_GENERAL = "theorem1"
TAG_NO_SELF = "cor0"
TAG_UNDELAYED_DECAY = "cor1"
TAG_LINEAR = "cor2"
TAG_LINEAR_UNDELAYED = "cor3"
TAG_BAM = "thm3"

ALL_TAGS = (
    TAG_GENERAL, TAG_NO_SELF, TAG_UNDELAYED_DECAY, TAG_LINEAR, TAG_LINEAR_UNDELAYED,
    "cor4", "cor5", "cor6", "cor7", TAG_BAM,
    "cor9-1", "cor9-2", "cor9-3", "cor9-4",
    "cor10-1", "cor10-2", "cor10-3", "cor10-4",
    "cor11", "gopalsamy17", "criterion18",
)


class NotCertifiedError(RuntimeError):
    """Decay-rate certification requested for a spec that is not certified stable."""


@dataclass(frozen=True)
class Check:
    """One scalar inequality lhs < rhs with its slack."""

    name: str
    lhs: float
    rhs: float
    margin: float
    satisfied: bool


def _check(name: str, lhs: float, rhs: float, tol: float) -> Check:
    margin = float(rhs) - float(lhs)
    return Check(name, float(lhs), float(rhs), margin, bool(margin > tol))


@dataclass(frozen=True)
class StabilityVerdict:
    status: str
    criterion_used: str
    test_matrix: np.ndarray | None
    report: MMatrixReport | None
    checks: tuple[Check, ...] = ()

    @property
    def stable(self) -> bool:
        return self.status == STATUS_STABLE

    @property
    def margins(self) -> dict[str, float]:
        return {c.name: c.margin for c in self.checks}


@dataclass(frozen=True)
class DecayCertificate:
    """A bisection-certified decay rate.

    lambda0 is the last rate at which the test matrix passed; boundary_margin
    is the smallest leading minor there.  bracket_width bounds the distance to
    the first observed failure; upper_failed records whether the top of the
    search range failed at all (when it passes, lambda0 is simply that top).
    """

    lambda0: float
    boundary_margin: float
    iterations: int
    bracket_width: float
    upper_failed: bool


# ---------------------------------------------------------------------------
# test-matrix builders
# ---------------------------------------------------------------------------

def _require_general(spec, delayed: bool | None = None) -> GeneralSystemSpec:
    if not isinstance(spec, GeneralSystemSpec):
        raise FamilyError(f"expected a general spec, got {type(spec).__name__}")
    require_valid(spec)
    if delayed is True and spec.diagonal_delay_free:
        raise FamilyError("this test needs the delayed-decay family; "
                          "use tau = 0 instead of diagonal_delay_free")
    if delayed is False and not spec.diagonal_delay_free:
        raise FamilyError("this test is for the delay-free-decay family")
    return spec


def _require_linear(spec, delayed: bool) -> LinearSystemSpec:
    if not isinstance(spec, LinearSystemSpec):
        raise FamilyError(f"expected a linear spec, got {type(spec).__name__}")
    require_valid(spec)
    if delayed and spec.diagonal_delay_free:
        raise FamilyError("this test needs the delayed linear family")
    if not delayed and not spec.diagonal_delay_free:
        raise FamilyError("this test is for the delay-free linear family")
    return spec


def test_matrix_at_rate(spec: GeneralSystemSpec, rate: float) -> np.ndarray:
    """Comparison matrix of the delayed-decay family at a trial decay rate.

    At rate 0 this reduces (with identical expression ordering, hence exact
    float equality) to the base test matrix.  Each entry is nonincreasing in
    the rate.
    """
    spec = _require_general(spec, delayed=True)
    if not 0.0 <= rate < float(np.min(spec.alpha)):
        raise ValueError(
            f"rate must lie in [0, {np.min(spec.alpha)}), got {rate}")
    return _rate_matrix(spec, rate)


def _rate_matrix(spec: GeneralSystemSpec, rate: float) -> np.ndarray:
    # unvalidated body of test_matrix_at_rate, shared with the rate bisection
    # so that a certificate validates its spec once, not once per trial rate
    e_tau = np.exp(rate * spec.tau)
    e_sig = np.exp(rate * spec.sigma)
    denom = spec.alpha - rate
    ae = spec.A * e_tau
    self_gain = e_sig.diagonal() * spec.L.diagonal()
    diag = 1.0 - (ae * (rate + ae + self_gain) * spec.tau + self_gain) / denom
    c = -(e_sig * spec.L * (ae * spec.tau + 1.0)[:, None]) / denom[:, None]
    np.fill_diagonal(c, diag)
    return c


def test_matrix_general(spec: GeneralSystemSpec) -> np.ndarray:
    """Base comparison matrix for the delayed-decay family (rate 0)."""
    return test_matrix_at_rate(spec, 0.0)


def _no_self_entries(alpha: np.ndarray, upper: np.ndarray, tau: np.ndarray,
                     L: np.ndarray) -> np.ndarray:
    # shared by the no-self-coupling and two-layer builders so that the
    # two-layer matrix and the merged-spec matrix agree entry for entry
    diag = 1.0 - (upper * upper) * tau / alpha
    c = -(((upper * tau)[:, None] * L) + L) / alpha[:, None]
    np.fill_diagonal(c, diag)
    return c


def test_matrix_no_self_coupling(spec: GeneralSystemSpec) -> np.ndarray:
    """Comparison matrix for the subfamily without self-coupling terms."""
    spec = _require_general(spec, delayed=True)
    if np.any(spec.L.diagonal() != 0.0):
        raise FamilyError("self-coupling constants must be zero for this test")
    return _no_self_entries(spec.alpha, spec.A, spec.tau, spec.L)


def test_matrix_undelayed_decay(spec: GeneralSystemSpec) -> np.ndarray:
    """Comparison matrix when the self-decay acts on the undelayed state."""
    spec = _require_general(spec, delayed=False)
    b = -(spec.L / spec.alpha[:, None])
    np.fill_diagonal(b, 1.0 - spec.L.diagonal() / spec.alpha)
    return b


def test_matrix_linear(spec: LinearSystemSpec) -> np.ndarray:
    """Comparison matrix for the linear family with delayed diagonal terms."""
    spec = _require_linear(spec, delayed=True)
    sd = spec.sigma.diagonal()
    d = -(((spec.A * sd)[:, None] * spec.A_off) + spec.A_off) / spec.alpha[:, None]
    np.fill_diagonal(d, 1.0 - spec.A * spec.A * sd / spec.alpha)
    return d


def test_matrix_linear_undelayed(spec: LinearSystemSpec) -> np.ndarray:
    """Comparison matrix for the linear family with undelayed diagonal terms."""
    spec = _require_linear(spec, delayed=False)
    f = -(spec.A_off / spec.alpha[:, None])
    np.fill_diagonal(f, 1.0)
    return f


def test_matrix_bam(bam: BamSpec) -> np.ndarray:
    """Comparison matrix for the two-layer network.

    The no-self-coupling matrix of the merged spec, built from the same
    arrays `bam_to_general` uses, so the two agree entry for entry.
    """
    return _no_self_entries(*merged_bounds(bam))


# tag -> matrix builder; the lambdas look the builders up at call time, so a
# rebound module global (a profiler's timing wrapper, say) sees every call
_BUILDERS = {
    TAG_GENERAL: lambda spec: test_matrix_general(spec),
    TAG_NO_SELF: lambda spec: test_matrix_no_self_coupling(spec),
    TAG_UNDELAYED_DECAY: lambda spec: test_matrix_undelayed_decay(spec),
    TAG_LINEAR: lambda spec: test_matrix_linear(spec),
    TAG_LINEAR_UNDELAYED: lambda spec: test_matrix_linear_undelayed(spec),
    TAG_BAM: lambda spec: test_matrix_bam(spec),
}


# ---------------------------------------------------------------------------
# matrix-based verdicts and dispatch
# ---------------------------------------------------------------------------

def _matrix_verdict(matrix: np.ndarray, tag: str, tol: float) -> StabilityVerdict:
    report = is_m_matrix(matrix, tol=tol)
    off = matrix - np.diag(matrix.diagonal())
    checks = (
        Check("off_diagonal_signs", float(off.max()), 0.0,
              float(-off.max()), bool(report.off_diagonal_ok)),
        Check("min_leading_minor", 0.0, float(report.margin),
              float(report.margin), report.pivots_ok),
    )
    status = STATUS_STABLE if report.is_m_matrix else STATUS_INCONCLUSIVE
    return StabilityVerdict(status, tag, matrix, report, checks)


def _auto_tag(spec) -> str:
    if isinstance(spec, BamSpec):
        return TAG_BAM
    if isinstance(spec, GeneralSystemSpec):
        if spec.diagonal_delay_free:
            return TAG_UNDELAYED_DECAY
        if np.all(spec.L.diagonal() == 0.0):
            return TAG_NO_SELF
        return TAG_GENERAL
    if isinstance(spec, LinearSystemSpec):
        return TAG_LINEAR_UNDELAYED if spec.diagonal_delay_free else TAG_LINEAR
    raise FamilyError(f"unsupported spec type {type(spec).__name__}")


def stability_verdict(spec, tol: float = DEFAULT_TOL,
                      criterion: str | None = None) -> StabilityVerdict:
    """Classify a spec, auto-selecting the sharpest applicable test.

    Pass `criterion` to force one of the fixed tags instead; a tag that does
    not fit the spec's family raises FamilyError.
    """
    tag = criterion if criterion is not None else _auto_tag(spec)
    if tag not in ALL_TAGS:
        raise FamilyError(f"unknown criterion tag {tag!r}")
    if tag in ("cor4", "cor5", "cor6", "cor7"):
        return two_dim_verdict(spec, which=int(tag[3]), tol=tol)
    if tag.startswith(("cor9-", "cor10-")):
        family, which = tag.split("-")
        return _bam_dominance(spec, family, int(which), None, tol)
    if tag == "cor11":
        return two_neuron_closed_form(spec, tol=tol)
    if tag in ("gopalsamy17", "criterion18"):
        return two_neuron_comparison(spec, tol=tol)[tag == "criterion18"]
    if tag == TAG_BAM and not isinstance(spec, BamSpec):
        raise FamilyError("this criterion needs a two-layer network spec")
    if isinstance(spec, BamSpec) and tag in (TAG_GENERAL, TAG_NO_SELF):
        spec = bam_to_general(spec)
    return _matrix_verdict(_BUILDERS[tag](spec), tag, tol)


# ---------------------------------------------------------------------------
# decay-rate certification
# ---------------------------------------------------------------------------

def bisect(passes, lo: float, hi: float) -> tuple[float, float]:
    """Halve [lo, hi] BISECT_STEPS times for a monotone test that passes at
    lo and fails at hi; returns the final (last pass, first fail)."""
    for _ in range(BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        if passes(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def certify_decay_rate(spec, tol: float = DEFAULT_TOL) -> DecayCertificate:
    """Bisect for the largest rate at which the rate-parametrized test passes.

    Requires the rate-zero matrix to pass (otherwise NotCertifiedError).
    Trial rates are decided by `sign_and_pivot_test` alone.  Runs a fixed
    BISECT_STEPS steps; the returned rate is the last passing iterate, so
    the true switchover lies within bracket_width above it.
    """
    if isinstance(spec, BamSpec):
        spec = bam_to_general(spec)
    if not isinstance(spec, GeneralSystemSpec):
        raise FamilyError("decay-rate certification needs a general or "
                          "two-layer spec")
    if spec.diagonal_delay_free:
        spec = GeneralSystemSpec(alpha=spec.alpha, A=spec.A,
                                 tau=np.zeros(spec.m), sigma=spec.sigma,
                                 L=spec.L, diagonal_delay_free=False)
    base = is_m_matrix(test_matrix_general(spec), tol=tol)
    if not base.is_m_matrix:
        raise NotCertifiedError(
            "not certified stable: the rate-zero test matrix is not an "
            f"M-matrix (margin {base.margin:.3e})")

    def passes(rate: float) -> bool:
        off_ok, pivots_ok, _ = sign_and_pivot_test(_rate_matrix(spec, rate), tol)
        return off_ok and pivots_ok

    top = float(np.min(spec.alpha)) - tol
    if passes(top):
        lo, hi, iterations = top, top, 0
    else:
        (lo, hi), iterations = bisect(passes, 0.0, top), BISECT_STEPS
    boundary = is_m_matrix(_rate_matrix(spec, lo), tol=tol)
    return DecayCertificate(lambda0=lo, boundary_margin=float(boundary.margin),
                            iterations=iterations, bracket_width=hi - lo,
                            upper_failed=iterations > 0)


# ---------------------------------------------------------------------------
# closed-form two-dimensional tests
# ---------------------------------------------------------------------------

def two_dim_verdict(spec, which: int | None = None,
                    tol: float = DEFAULT_TOL) -> StabilityVerdict:
    """Closed-form leading-minor test for two-component specs.

    which selects the family variant: 4 = delayed decay, 5 = undelayed decay,
    6 = delayed linear, 7 = undelayed linear.  Omitted, it is inferred from
    the spec.  These are the 2x2 minors inequalities written out, so the
    verdict agrees with the matrix-based classification.
    """
    family = _auto_tag(spec)
    inferred = {TAG_GENERAL: 4, TAG_NO_SELF: 4, TAG_UNDELAYED_DECAY: 5,
                TAG_LINEAR: 6, TAG_LINEAR_UNDELAYED: 7}.get(family)
    if inferred is None:
        raise FamilyError("two-dimensional closed forms need a general or "
                          "linear spec")
    if which is None:
        which = inferred
    elif which != inferred:
        raise FamilyError(f"closed form {which} does not match this spec "
                          f"(expected {inferred})")
    if spec.m != 2:
        raise FamilyError(f"dimension must be 2, got {spec.m}")

    al, up = spec.alpha, spec.A
    if which == 7:
        off = spec.A_off
        checks = (
            _check("coupling_determinant", off[0, 1] * off[1, 0], al[0] * al[1], tol),
        )
    else:
        # one formula for 4-6: x_i = A_i (A_i + s_i) d_i + s_i against alpha_i,
        # and the coupling product (A_0 k_01 d_0 + k_01)(A_1 k_10 d_1 + k_10);
        # d = 0 and s = 0 drop their terms exactly
        zero = np.zeros(2)
        if which == 4:
            k, d, s = spec.L, spec.tau, spec.L.diagonal()
        elif which == 5:
            k, d, s = spec.L, zero, spec.L.diagonal()
        else:
            k, d, s = spec.A_off, spec.sigma.diagonal(), zero
        x = up * (up + s) * d + s
        coupling = (up[0] * k[0, 1] * d[0] + k[0, 1]) * (up[1] * k[1, 0] * d[1] + k[1, 0])
        checks = (
            _check("decay_margin_1", x[0], al[0], tol),
            _check("decay_margin_2", x[1], al[1], tol),
            _check("coupling_determinant", coupling, (al[0] - x[0]) * (al[1] - x[1]), tol),
        )
    status = STATUS_STABLE if all(c.satisfied for c in checks) else STATUS_INCONCLUSIVE
    return StabilityVerdict(status, f"cor{which}", _BUILDERS[family](spec), None, checks)


# ---------------------------------------------------------------------------
# two-layer dominance and scalar closed forms
# ---------------------------------------------------------------------------

def _require_bam(spec) -> BamSpec:
    if not isinstance(spec, BamSpec):
        raise FamilyError(f"expected a two-layer network spec, got {type(spec).__name__}")
    require_valid(spec)
    return spec


def _bam_dominance(bam, family: str, which: int, weights, tol: float) -> StabilityVerdict:
    # family "cor9" is the general two-layer case, "cor10" the one without
    # leakage delays
    bam = _require_bam(bam)
    if family == "cor10" and (np.any(bam.tau_x != 0.0) or np.any(bam.tau_y != 0.0)):
        raise FamilyError("this test needs zero leakage delays "
                          "(tau_x = tau_y = 0)")
    c = test_matrix_bam(bam)
    m = c.shape[0]
    tag = f"{family}-{which}"
    if which in (1, 2):
        w = None
    elif weights is not None:
        w = np.asarray(weights, dtype=float)
        if w.shape != (m,) or not np.all(w > 0):
            raise ValueError(f"weights must be {m} positive numbers")
    else:
        report = is_m_matrix(c, tol=tol)
        if report.witness_xi is None:
            witness_gap = Check("weight_witness_available", 1.0, 0.0, -1.0, False)
            return StabilityVerdict(STATUS_INCONCLUSIVE, tag, c, report, (witness_gap,))
        w = report.witness_xi
    if which not in (1, 2, 3, 4):
        raise FamilyError(f"which must be one of 1, 2, 3, 4 (got {which})")
    row, column, bound = dominance_sums(c, w)
    sums = row if which in (1, 3) else column
    label = ("row", "column", "weighted_row", "weighted_column")[which - 1]
    checks = tuple(_check(f"{label}_{k + 1}", sums[k], bound[k], tol) for k in range(m))
    status = STATUS_STABLE if all(ck.satisfied for ck in checks) else STATUS_INCONCLUSIVE
    return StabilityVerdict(status, tag, c, None, checks)


def bam_dominance_verdict(bam: BamSpec, which: int, weights=None,
                          tol: float = DEFAULT_TOL) -> StabilityVerdict:
    """Dominance sufficient conditions on the two-layer comparison matrix.

    which: 1 = strict row dominance, 2 = strict column dominance, 3/4 = the
    weighted variants.  Without explicit weights, 3 and 4 borrow the witness
    vector from the full M-matrix classification (when it exists — an
    inconclusive classification leaves no witness and the weighted conditions
    are reported unsatisfied).
    """
    return _bam_dominance(bam, "cor9", which, weights, tol)


def bam_undelayed_dominance_verdict(bam: BamSpec, which: int, weights=None,
                                    tol: float = DEFAULT_TOL) -> StabilityVerdict:
    """Dominance conditions for two-layer networks without leakage delays.

    With zero leakage delays the comparison matrix has unit diagonal, so the
    conditions reduce to (weighted) coupling sums staying below 1.
    """
    return _bam_dominance(bam, "cor10", which, weights, tol)


def two_neuron_closed_form(bam: BamSpec, tol: float = DEFAULT_TOL) -> StabilityVerdict:
    """Scalar stability inequalities for a one-unit-per-layer network.

    The three checks are the 2x2 leading-minor conditions of the two-layer
    comparison matrix written in the original network parameters.
    """
    bam = _require_bam(bam)
    if bam.n != 1:
        raise FamilyError(f"closed form needs one unit per layer, got n={bam.n}")
    a, b = bam.a[0], bam.b[0]
    rl, rh = bam.r_lo[0], bam.r_hi[0]
    pl, ph = bam.p_lo[0], bam.p_hi[0]
    t1, t2 = bam.tau_x[0], bam.tau_y[0]
    k_xy, k_yx = abs(bam.a_conn[0, 0]), abs(bam.b_conn[0, 0])
    lf, lg = bam.Lf[0], bam.Lg[0]
    d1 = a * rh * rh * t1 / rl
    d2 = b * ph * ph * t2 / pl
    coupling = (k_xy * k_yx * rh * ph * lf * lg
                * (a * rh * t1 + 1.0) * (b * ph * t2 + 1.0)) / (rl * pl * a * b)
    checks = (
        _check("x_decay", d1, 1.0, tol),
        _check("y_decay", d2, 1.0, tol),
        _check("coupling_determinant", coupling, (1.0 - d1) * (1.0 - d2), tol),
    )
    status = STATUS_STABLE if all(c.satisfied for c in checks) else STATUS_INCONCLUSIVE
    return StabilityVerdict(status, "cor11", test_matrix_bam(bam), None, checks)


def two_neuron_comparison(bam: BamSpec,
                          tol: float = DEFAULT_TOL) -> tuple[StabilityVerdict, StabilityVerdict]:
    """Evaluate two classical scalar criteria side by side.

    Applies to one-unit-per-layer networks without rate modulation.  The
    first verdict tests each unit separately (decay-delay ratio against its
    incoming coupling); the second tests the product form, which is implied
    by the first whenever it holds.  Both report the leak-delay products
    a*tau that must stay below 1 for the ratios to make sense.
    """
    bam = _require_bam(bam)
    if bam.n != 1:
        raise FamilyError(f"comparison needs one unit per layer, got n={bam.n}")
    rates = np.concatenate([bam.r_lo, bam.r_hi, bam.p_lo, bam.p_hi])
    if np.any(rates != 1.0):
        raise FamilyError("comparison applies only without rate modulation "
                          "(all rate bounds equal to 1)")
    a1, a2 = bam.a[0], bam.b[0]
    t1, t2 = bam.tau_x[0], bam.tau_y[0]
    k12, k21 = abs(bam.a_conn[0, 0]), abs(bam.b_conn[0, 0])
    l1, l2 = bam.Lf[0], bam.Lg[0]
    pre1 = _check("leak_delay_product_1", a1 * t1, 1.0, tol)
    pre2 = _check("leak_delay_product_2", a2 * t2, 1.0, tol)
    applicable = pre1.satisfied and pre2.satisfied
    if applicable:
        ratio1 = (1.0 - a1 * t1) / (1.0 + a1 * t1)
        ratio2 = (1.0 - a2 * t2) / (1.0 + a2 * t2)
        per_unit = (
            _check("unit_1_coupling", k12 * l1 / a1, ratio1, tol),
            _check("unit_2_coupling", k21 * l2 / a2, ratio2, tol),
        )
        product = (_check("coupling_product", k12 * k21 * l1 * l2 / (a1 * a2),
                          ratio1 * ratio2, tol),)
    else:
        per_unit = ()
        product = ()
    g_checks = (pre1, pre2) + per_unit
    e_checks = (pre1, pre2) + product
    g_ok = applicable and all(c.satisfied for c in per_unit)
    e_ok = applicable and all(c.satisfied for c in product)
    if g_ok and not product[0].margin > 0.0:
        # per-unit ratios multiply into the product form, so a strict pass
        # of the first criterion forces a pass of the second
        raise ArithmeticError(
            "per-unit criterion passed but the product form did not "
            f"(margin {product[0].margin:.3e}); rounding exceeds the tolerance")
    first = StabilityVerdict(STATUS_STABLE if g_ok else STATUS_INCONCLUSIVE,
                             "gopalsamy17", None, None, g_checks)
    second = StabilityVerdict(STATUS_STABLE if e_ok else STATUS_INCONCLUSIVE,
                              "criterion18", None, None, e_checks)
    return first, second
