"""Stability tests for delayed interconnected systems.

Every test here follows one mechanism: build a comparison matrix whose
diagonal measures how strongly each component damps itself and whose
off-diagonal entries bound how hard its neighbours can push it, then ask
whether that matrix is a nonsingular M-matrix.  Every matrix criterion is
Theorem 1's matrix of its family's bounds: one map (`_bounds`) turns each
spec family into (alpha, A, tau, L, sigma), where undelayed decay is
tau = 0 and no self-coupling is a zero diagonal of L, and one builder
(`test_matrix_at_rate`) computes the matrix from them.  A criterion tag
only checks that the spec fits its family (`comparison_matrix`).  The
closed-form corollaries for two components (4-7, and 11 for a one-unit
two-layer network) are that matrix's leading-minor inequalities, so they
are decided by the same M-matrix test; the dominance variants replace it
with the cheaper row/column sufficient conditions.

The rate-parametrized matrix family underlying `certify_decay_rate` is
entrywise nonincreasing in the rate, so a pass at some rate guarantees a pass
at every smaller rate (Fiedler & Ptak, 1962); a bracketing search on the
rate is therefore sound.  The certificate is the pass/fail bracket that a
safeguarded root-finder on the witness margin finds, down to adjacent floats
or the width of a fixed number of halvings; the same search
(`switch_bracket`) finds failure thresholds along a swept parameter.

Criterion tags (the wire-format strings carried by verdicts and reports) are
fixed identifiers; forcing a tag that does not fit the spec family raises
FamilyError.
"""

from __future__ import annotations

from math import inf, nan, nextafter, ulp
from typing import NamedTuple

import numpy as np

from .linalg import DEFAULT_TOL, MMatrixReport, dominance_sums, is_m_matrix, witness_test
from .systems import (
    BamSpec,
    FamilyError,
    GeneralSystemSpec,
    LinearSystemSpec,
    require_bam,
)

# `switch_bracket` stops at width (hi - lo) / 2**BISECT_STEPS, and within
# BISECT_STEPS + 1 trials
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


class Check(NamedTuple):
    """One scalar inequality lhs < rhs with its slack."""

    name: str
    lhs: float
    rhs: float
    margin: float
    satisfied: bool


def _check(name: str, lhs: float, rhs: float, tol: float) -> Check:
    margin = float(rhs) - float(lhs)
    return Check(name, float(lhs), float(rhs), margin, bool(margin > tol))


class StabilityVerdict(NamedTuple):
    status: str
    criterion_used: str
    test_matrix: np.ndarray | None
    report: MMatrixReport | None
    checks: tuple[Check, ...] = ()

    @property
    def stable(self) -> bool:
        return self.status == STATUS_STABLE


class DecayCertificate(NamedTuple):
    """A decay rate certified by the last pass of a pass/fail bracket.

    lambda0 is the last rate at which the test matrix passed; boundary_margin
    is its witness margin there.  bracket_width bounds the distance to the
    first failure; upper_failed records whether the top of the search range
    failed at all (when it passes, lambda0 is simply that top).  iterations
    counts the M-matrix tests run: rate 0, the top and each search step.
    """

    lambda0: float
    boundary_margin: float
    iterations: int
    bracket_width: float
    upper_failed: bool


# ---------------------------------------------------------------------------
# the test matrix
# ---------------------------------------------------------------------------

def _bounds(spec, rates: bool = False):
    # Theorem 1's (alpha, A, tau, L, sigma) of a spec, the one map
    # from a family to its bounds: delay-free decay is tau = 0, the linear
    # family's diagonal delays are its tau and A_off is its L with the
    # diagonal, which bounds nothing, zeroed; a two-layer network is merged.
    # For nonzero rates an absent coupling (L_ij = 0), which adds 0 at every
    # rate, has delay 0: exp(rate * sigma_ij) * 0 is NaN where the exp overflows
    if isinstance(spec, BamSpec):
        alpha, A, tau, L, sigma = spec.merged
    elif isinstance(spec, (GeneralSystemSpec, LinearSystemSpec)):
        alpha, A, sigma = spec.alpha, spec.A, spec.sigma
        if isinstance(spec, GeneralSystemSpec):
            tau, L = spec.tau, spec.L
        else:
            tau, L = sigma.diagonal(), spec.A_off - np.diag(spec.A_off.diagonal())
        if spec.diagonal_delay_free:
            tau = 0.0
    else:
        raise FamilyError(f"unsupported spec type {type(spec).__name__}")
    return alpha, A, tau, L, np.where(L, sigma, 0.0) if rates else sigma


def test_matrix_at_rate(spec, rate: float) -> np.ndarray:
    """Theorem 1's comparison matrix of a spec's bounds at a trial decay rate.

    At rate 0 this is the spec's test matrix, for every family; a nonzero
    rate must lie below the smallest decay bound.  Each entry is
    nonincreasing in the rate.  An entry that overflows is +-inf or NaN,
    which `witness_test` fails.
    """
    bounds = _bounds(spec, rates=bool(rate))
    alpha = bounds[0]
    if rate and not 0.0 <= rate < float(np.min(alpha)):
        raise ValueError(f"rate must lie in [0, {np.min(alpha)}), got {rate}")
    return _rate_matrix(*bounds, rate)


def _rate_matrix(alpha: np.ndarray, A: np.ndarray, tau: np.ndarray | float, L: np.ndarray,
                 sigma: np.ndarray, rate: float = 0.0) -> np.ndarray:
    # Theorem 1's matrix of the bounds, the one body of every matrix
    # criterion; it takes the bounds, so that a certificate maps its spec to
    # them once, not once per trial rate.  L's diagonal is the self-coupling gain
    if rate:    # at rate 0 the weights exp(rate * delay) are exactly 1
        A = A * np.exp(rate * tau)
        L = np.exp(rate * sigma) * L
    denom = alpha - rate
    self_gain = L.diagonal()
    diag = 1.0 - (A * (rate + A + self_gain) * tau + self_gain) / denom
    c = -(L * (A * tau + 1.0)[:, None]) / denom[:, None]
    np.fill_diagonal(c, diag)
    return c


_GENERAL = "expected a general spec, got {}"
_LINEAR = "expected a linear spec, got {}"
# tag -> (spec types, delay-free flag, wrong-type error, wrong-flag error) of
# the family whose matrix the tag tests; a two-layer network has no flag and
# fits the delayed general family once merged
_FAMILIES = {
    TAG_GENERAL: ((GeneralSystemSpec, BamSpec), False, _GENERAL,
                  "this test needs the delayed-decay family; "
                  "use tau = 0 instead of diagonal_delay_free"),
    TAG_UNDELAYED_DECAY: (GeneralSystemSpec, True, _GENERAL,
                          "this test is for the delay-free-decay family"),
    TAG_LINEAR: (LinearSystemSpec, False, _LINEAR, "this test needs the delayed linear family"),
    TAG_LINEAR_UNDELAYED: (LinearSystemSpec, True, _LINEAR,
                           "this test is for the delay-free linear family"),
    TAG_BAM: (BamSpec, False, "this criterion needs a two-layer network spec", None),
}
_FAMILIES[TAG_NO_SELF] = _FAMILIES[TAG_GENERAL]


# ---------------------------------------------------------------------------
# matrix-based verdicts and dispatch
# ---------------------------------------------------------------------------

def _matrix_verdict(spec, matrix: np.ndarray, tag: str, tol: float) -> StabilityVerdict:
    # every matrix verdict tests `test_matrix_at_rate(spec, 0.0)`, a certificate's first trial
    report = is_m_matrix(matrix, tol=tol)
    object.__setattr__(spec, "_rate_zero", {tol: (report.is_m_matrix, report.margin)})
    off = matrix.copy()     # the diagonal zeroed, which an infinite entry also allows
    np.fill_diagonal(off, 0.0)
    top = float(off.max())
    checks = (
        Check("off_diagonal_signs", top, 0.0, -top, bool(report.off_diagonal_ok)),
        Check("witness_margin", 0.0, float(report.margin),
              float(report.margin), report.is_m_matrix),
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
        # Corollaries 4-7 are the leading-minor inequalities of a
        # two-component family's test matrix, so they are its M-matrix test
        family = _auto_tag(spec)
        inferred = {TAG_GENERAL: 4, TAG_NO_SELF: 4, TAG_UNDELAYED_DECAY: 5,
                    TAG_LINEAR: 6, TAG_LINEAR_UNDELAYED: 7}.get(family)
        if inferred is None:
            raise FamilyError("two-dimensional closed forms need a general or "
                              "linear spec")
        if tag != f"cor{inferred}":
            raise FamilyError(f"closed form {tag[3]} does not match this spec "
                              f"(expected {inferred})")
        if spec.m != 2:
            raise FamilyError(f"dimension must be 2, got {spec.m}")
        return _matrix_verdict(spec, comparison_matrix(spec, family), tag, tol)
    if tag.startswith(("cor9-", "cor10-")):
        return _bam_dominance(spec, tag, tol)
    if tag == "cor11":
        # Corollary 11 is the same for a one-unit-per-layer network
        bam = require_bam(spec)
        if bam.n != 1:
            raise FamilyError(f"closed form needs one unit per layer, got n={bam.n}")
        return _matrix_verdict(bam, test_matrix_at_rate(bam, 0.0), tag, tol)
    if tag in ("gopalsamy17", "criterion18"):
        return two_neuron_comparison(spec, tol=tol)[tag == "criterion18"]
    return _matrix_verdict(spec, comparison_matrix(spec, tag), tag, tol)


def comparison_matrix(spec, tag: str | None = None) -> np.ndarray:
    """Test matrix of a matrix-based criterion tag, auto-selected when None.

    It is `test_matrix_at_rate(spec, 0.0)` for a spec that fits the tag's
    family (FamilyError otherwise), and the spec passes that criterion
    exactly when `witness_test` accepts it.
    """
    if tag is None:
        tag = _auto_tag(spec)
    if tag not in _FAMILIES:
        raise FamilyError(f"{tag!r} is not a matrix-based criterion tag")
    types, delay_free, type_error, flag_error = _FAMILIES[tag]
    if not isinstance(spec, types):
        raise FamilyError(type_error.format(type(spec).__name__))
    if getattr(spec, "diagonal_delay_free", False) != delay_free:
        raise FamilyError(flag_error)
    if tag == TAG_NO_SELF and isinstance(spec, GeneralSystemSpec) \
            and np.any(spec.L.diagonal() != 0.0):
        raise FamilyError("self-coupling constants must be zero for this test")
    # looked up at call time, so a rebound module global (a profiler's
    # timing wrapper, say) sees every verdict's build
    return test_matrix_at_rate(spec, 0.0)


# ---------------------------------------------------------------------------
# pass/fail bracketing and decay-rate certification
# ---------------------------------------------------------------------------

def switch_bracket(trial, lo: float, hi: float, slack_lo: float,
                   slack_hi: float) -> tuple[float, float]:
    """Shrink [lo, hi] around the pass/fail switch of a monotone test that
    passes at lo and fails at hi; returns (last pass, first fail).

    ITP search (Oliveira & Takahashi, ACM TOMS 47(1), 2020) with their
    kappa1 = 0.2 / (hi - lo), kappa2 = 2 and n0 = 1, on an Illinois regula
    falsi estimate.  It stops at adjacent floats or, up to the rounding of
    its last steps, at width (hi - lo) / 2**BISECT_STEPS, and the projection
    keeps it within one trial more than that many halvings, whatever the
    slack does.  `trial(x)` returns (verdict, slack); the verdict alone moves
    the bracket, the slack only picks the next trial.  A non-finite or
    wrong-signed slack (a NaN `slack_lo`, say) means a halving.
    """
    floor, kappa1 = (hi - lo) * 0.5 ** BISECT_STEPS, 0.2 / (hi - lo)
    n_max = BISECT_STEPS + 1
    kept = 0    # +1 after a pass, -1 after a fail
    for j in range(n_max):
        width = hi - lo
        # the halvings' stop: their floor, or the float spacing at the end
        # nearest zero, which only grows as the bracket shrinks
        done = max(floor, ulp(lo) if lo >= 0.0 else ulp(hi) if hi <= 0.0 else 0.0)
        if width <= done:
            break
        x = mid = 0.5 * (lo + hi)
        allowed = done * 2.0 ** (n_max - j - 1)    # the width after this trial
        if 0.0 < slack_lo < inf and -inf < slack_hi <= 0.0:
            x_f = lo + width * (slack_lo / (slack_lo - slack_hi))
            delta = kappa1 * width * width
            side = 1.0 if mid >= x_f else -1.0
            x_t = x_f + side * delta if delta <= abs(mid - x_f) else mid
            reach = allowed - 0.5 * width
            x = x_t if abs(x_t - mid) <= reach else mid - side * reach
        if x - lo > allowed:        # rounded a float too far on one side
            x = nextafter(x, lo)
        elif hi - x > allowed:
            x = nextafter(x, hi)
        if not lo < x < hi:         # an estimate within an ulp of an end
            x = nextafter(lo, hi) if x <= lo else nextafter(hi, lo)
        ok, slack = trial(x)
        # Illinois: an end kept for a second step in a row has its slack halved
        if ok:
            if kept > 0:
                slack_hi *= 0.5
            lo, slack_lo, kept = x, slack, 1
        else:
            if kept < 0:
                slack_lo *= 0.5
            hi, slack_hi, kept = x, slack, -1
    return lo, hi


def witness_trial(c: np.ndarray, tol: float) -> tuple[bool, float, float]:
    """(verdict, slack, margin) of `witness_test` on a rate matrix: a bracket search's trial.

    The slack is the margin s - tol, which crosses zero smoothly at the
    switch; a positive one on a fail means a halving.  A rate matrix's
    off-diagonal entries are <= 0, so the sign test always passes.  A 1x1
    matrix has no magnitude once its row is scaled, so its slack is
    p - tol |p| of its entry p, over |p| when |p| > 1: a passing rate matrix
    has p in (0, 1], and near the pole at the top of the rate range p tends
    to -inf, which would pull every estimate to the passing end.  A p that
    overflowed to -inf, or NaN, gives a NaN slack, as a larger matrix's NaN
    margin does.
    """
    _, ok, margin, _ = witness_test(c, tol)
    if len(c) > 1:
        return ok, margin, margin
    p = float(c[0, 0])
    return ok, (p - tol * abs(p)) / max(1.0, abs(p)), margin


def certify_decay_rate(spec, tol: float = DEFAULT_TOL) -> DecayCertificate:
    """Find the largest rate at which the rate-parametrized test passes.

    Requires the rate-zero matrix to pass (otherwise NotCertifiedError).
    Every rate tried, 0 and the top of the range included, is decided by
    one `witness_trial`; rate 0 keeps the outcome of a `stability_verdict` of
    the spec at this tol that tested the same matrix.  A rate whose matrix
    has an entry that overflows fails, with a NaN slack: a halving.  When the
    top fails, the certificate is the bracket `switch_bracket` finds: lambda0
    is its last pass, and the true switchover lies within bracket_width
    above it.
    """
    if not isinstance(spec, (GeneralSystemSpec, BamSpec)):
        raise FamilyError("decay-rate certification needs a general or "
                          "two-layer spec")
    bounds = _bounds(spec, rates=True)
    tried = []      # (rate, witness margin) of each trial

    def trial(rate: float) -> tuple[bool, float]:
        ok, slack, margin = witness_trial(_rate_matrix(*bounds, rate), tol)
        tried.append((rate, margin))
        return ok, slack

    if zero := getattr(spec, "_rate_zero", {}).get(tol):  # a verdict's test of this matrix
        tried.append((0.0, zero[1]))
    with np.errstate(over="ignore", invalid="ignore"):  # once, not once per trial
        if not (zero[0] if zero else trial(0.0)[0]):
            raise NotCertifiedError(
                "not certified stable: the rate-zero test matrix is not an "
                f"M-matrix (margin {min(-tol, tried[0][1]):.3e})")
        low = float(np.min(bounds[0]))
        top = min(low - tol, nextafter(low, 0.0))  # below the pole at min alpha for any tol
        top_passes, slack_top = trial(top)
        lo, hi = (top, top) if top_passes else switch_bracket(trial, 0.0, top, nan, slack_top)
    return DecayCertificate(lambda0=lo, boundary_margin=dict(tried)[lo],
                            iterations=len(tried), bracket_width=hi - lo,
                            upper_failed=not top_passes)


# ---------------------------------------------------------------------------
# two-layer dominance and scalar closed forms
# ---------------------------------------------------------------------------

def _bam_dominance(bam, tag: str, tol: float) -> StabilityVerdict:
    # Corollaries 9 and 10: dominance sufficient conditions on the two-layer
    # comparison matrix C, cheaper than its M-matrix test.  Variant 1 is strict
    # row dominance, 2 strict column dominance, 3/4 the row/column conditions
    # weighted by the witness C^-1 1 of `witness_test`; when C fails there is
    # no witness, and they are reported unsatisfied with C's `is_m_matrix`
    # report.  cor10 is the case without leakage delays (tau_x = tau_y = 0),
    # where C has unit diagonal
    family, which = tag.split("-")
    which = int(which)
    bam = require_bam(bam)
    if family == "cor10" and (np.any(bam.tau_x != 0.0) or np.any(bam.tau_y != 0.0)):
        raise FamilyError("this test needs zero leakage delays "
                          "(tau_x = tau_y = 0)")
    c = test_matrix_at_rate(bam, 0.0)
    w = None
    if which in (3, 4):
        w = witness_test(c, tol)[3]
        if w is None:
            witness_gap = Check("weight_witness_available", 1.0, 0.0, -1.0, False)
            return StabilityVerdict(STATUS_INCONCLUSIVE, tag, c, is_m_matrix(c, tol=tol),
                                    (witness_gap,))
    row, column, bound = dominance_sums(c, w)
    sums = row if which in (1, 3) else column
    label = ("row", "column", "weighted_row", "weighted_column")[which - 1]
    checks = tuple(_check(f"{label}_{k + 1}", sums[k], bound[k], tol) for k in range(len(c)))
    status = STATUS_STABLE if all(ck.satisfied for ck in checks) else STATUS_INCONCLUSIVE
    return StabilityVerdict(status, tag, c, None, checks)


def two_neuron_comparison(bam: BamSpec,
                          tol: float = DEFAULT_TOL) -> tuple[StabilityVerdict, StabilityVerdict]:
    """Evaluate two classical scalar criteria side by side.

    Applies to one-unit-per-layer networks without rate modulation.  The
    first verdict tests each unit separately (decay-delay ratio against its
    incoming coupling); the second tests the product form, which is implied
    by the first whenever it holds.  Both report the leak-delay products
    a*tau that must stay below 1 for the ratios to make sense.
    """
    bam = require_bam(bam)
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
        # of the first criterion forces a pass of the second; a ValueError, so
        # that the command line reports it as one error line
        raise ValueError(
            "per-unit criterion passed but the product form did not "
            f"(margin {product[0].margin:.3e}); rounding exceeds the tolerance")
    first = StabilityVerdict(STATUS_STABLE if g_ok else STATUS_INCONCLUSIVE,
                             "gopalsamy17", None, None, g_checks)
    second = StabilityVerdict(STATUS_STABLE if e_ok else STATUS_INCONCLUSIVE,
                              "criterion18", None, None, e_checks)
    return first, second
