"""Mechanical hypothesis checking for the asymptotic-polynomial theorems.

Given an equation spec and a simulated trace, runs every hypothesis of the
selected case, then verifies the conclusion (the solution splits into a
polynomial of degree < m plus a remainder certified o(n**s), and, in the
regular form that a spec with q set selects, the remainder additionally
passes the iterated-difference checks).  a-summability, b-summability,
u-rate, f-bounded, g-integral-divergent and sigma-within-past are exact:
they read the catalog entries, or sigma(n0), which bounds sigma(n) - n on
the whole run (:class:`~asympoly.catalog.DelayMap`).  The other checks and
the conclusion are finite-horizon diagnostics with declared thresholds.
A failure verdict names the first failing hypothesis so the tool can be
used to probe counterexamples.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import islice, repeat
from operator import sub

from .catalog import Majorant, RhsFunction, SeqGenerator
from .decomp import MIN_WINDOW, SolutionDecomposition, decompose_solution
from .errors import ConfigError, WindowLengthError, brief
from .neutral_solver import EquationSpec, SolutionTrace
from .seqcore import (
    OrderVerdict,
    Seq,
    classify_oscillation,
    line_fit,
    order_estimate,
    weighted_sum_diagnostic,
)

#: Relative slack of the pointwise (g, p)-boundedness grid check.
GP_GRID_SLACK = 1e-12
#: Points per decade of the (g, p)-boundedness grid in |t|.
GRID_T_PER_DECADE = 2
#: Exponent slack of the polynomial-growth verdict: x is judged against
#: n**(t + GROWTH_SLACK), t the growth exponent fitted on the trailing half.
GROWTH_SLACK = 0.5


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    metric: float
    detail: str = ""


@dataclass(frozen=True)
class ConclusionResult:
    """Membership verdict for the asymptotically polynomial conclusion."""

    passed: bool
    s: float
    remainder_kind: str
    metric: float
    regular_passed: bool | None = None


@dataclass(frozen=True)
class HypothesisVerdict:
    """All checks of one theorem case plus the conclusion.

    ``passed``, ``failed_check`` and ``mode`` are derived from the checks
    and the conclusion.  ``passed`` holds iff every case check passed and
    the conclusion passed; ``failed_check`` names the first failure (or
    "conclusion"), None when passed.  ``mode`` is "regular" when the
    regular checks ran (the spec set q), else "plain".  verdict.json is
    this verdict field by field, with case_id under the key case and
    without the decomposition, which decomposition.json holds.
    """

    case_id: str
    mode: str = field(init=False)
    checks: tuple[CheckResult, ...]
    conclusion: ConclusionResult
    passed: bool = field(init=False)
    failed_check: str | None = field(init=False)
    decomposition: SolutionDecomposition

    def __post_init__(self) -> None:
        regular = self.conclusion.regular_passed is not None
        object.__setattr__(self, "mode", "regular" if regular else "plain")
        failed = next(
            (c.name for c in self.checks if not c.passed),
            None if self.conclusion.passed else "conclusion",
        )
        object.__setattr__(self, "passed", failed is None)
        object.__setattr__(self, "failed_check", failed)


def _log_grid_t() -> list[float]:
    decades = 12  # 1e-6 .. 1e+6
    steps = decades * GRID_T_PER_DECADE
    mags = [10.0 ** (-6 + i / GRID_T_PER_DECADE) for i in range(steps + 1)]
    return [-t for t in reversed(mags)] + [0.0] + mags


def check_g_p_bounded(f: RhsFunction, g: Majorant, p: float, n_max: int) -> CheckResult:
    """The f-g-bounded check: |f(t)| <= g(|t|/n**p) for n in [1, n_max], over
    a symmetric log grid of t up to 1e6 plus zero.

    It evaluates n = n_max alone, which bounds every n in [1, n_max]: f does
    not read n, |t|/n**p does not grow with n for p = m - 1 >= 0, and g is
    nondecreasing.  Pointwise equality is allowed up to a relative slack of
    GP_GRID_SLACK; the metric is the worst ratio |f| / g.  A g value that
    overflows counts as +inf.
    """
    worst = 0.0
    np_ = float(n_max) ** p
    for t in _log_grid_t():
        fv = abs(f(t))
        try:
            gv = g(abs(t) / np_)
        except OverflowError:
            # A g beyond the float range bounds any finite |f|.
            gv = math.inf
        if gv <= 0.0:
            ratio = 0.0 if fv == 0.0 else math.inf
        else:
            ratio = fv / gv
        if ratio > worst:
            worst = ratio
    return CheckResult(
        "f-g-bounded",
        worst <= 1.0 + GP_GRID_SLACK,
        worst,
        f"(g, {p:g})-bounded, worst ratio {worst:.6g}",
    )


def _summability(name: str, v: SeqGenerator, w: float) -> CheckResult:
    """The check that the sum of n**w |v_n| converges, decided exactly from
    v's limit and decay (:func:`weighted_sum_diagnostic`); the metric is
    the exponent margin, and the check passes iff it is above 0."""
    margin = weighted_sum_diagnostic(v.limit, v.decay, w)
    return CheckResult(
        name, margin > 0.0, margin, f"|limit| {abs(v.limit):g}, decay {v.decay:g}, weight {w:g}"
    )


def check_u_rate(u: SeqGenerator, e: float) -> CheckResult:
    """The u-rate check, u - c = o(n**e), decided exactly from u's catalog
    entry: |u_n - c| is |A| n**-decay, or decays faster than every power
    when decay is inf.  The metric is the exponent margin ``u.decay + e``,
    and the check passes iff it is above 0."""
    margin = u.decay + e
    return CheckResult("u-rate", margin > 0.0, margin, f"decay {u.decay:g} against n**{e:g}")


def polynomial_growth_check(x: Seq) -> OrderVerdict:
    """x in O(n**t) for some t: the :func:`order_estimate` verdict on the
    trailing half of a window of at least MIN_WINDOW entries, at exponent
    t + GROWTH_SLACK.

    t is the slope of log(1 + |x_n|) against log n over the first two thirds
    of that half, clamped at 0: a bounded x is O(n**0).  If n**(t +
    GROWTH_SLACK) overflows by the window's end, the verdict is neither,
    with infinite metric, trend and bound, and order_estimate is not called.
    """
    if len(x) < MIN_WINDOW:
        raise WindowLengthError(f"need at least {MIN_WINDOW} entries, got {len(x)}")
    tail = x.trailing()
    fit_len = 2 * len(tail) // 3
    log_n = list(map(math.log, range(tail.start, tail.start + fit_len)))
    log_x = list(map(math.log1p, map(abs, tail.values[:fit_len])))
    s = max(line_fit(log_n, log_x), 0.0) + GROWTH_SLACK
    if s * math.log(tail.end) > math.log(sys.float_info.max):
        return OrderVerdict("neither", s, math.inf, math.inf, math.inf)
    return order_estimate(tail, s)


def _composed_growth_check(trace: SolutionTrace, p: float) -> CheckResult:
    """x_{sigma(n)} in O(n**p): the :func:`order_estimate` verdict at
    exponent p, passed when it is small_o or big_O.

    It reads the longest prefix of z's window on which sigma(n) lies in x's
    window.  Causality holds on every step, so that prefix covers them all;
    past the last step a delay that advances may read beyond x's end.  sigma
    is nondecreasing, so bisection finds where it passes x's end.
    """
    x = trace.x
    sig = islice(trace.sigma, bisect_right(trace.sigma, x.end))
    x_sig = Seq(trace.z.start, map(x.values.__getitem__, map(sub, sig, repeat(x.start))))
    verdict = order_estimate(x_sig, p)
    return CheckResult(
        "x-sigma-growth",
        verdict.kind != "neither",
        verdict.metric,
        f"x_sigma(n) against n**{p:g}: {verdict.kind}, trend {verdict.trend:.6g}",
    )


def _alternative_check(trace: SolutionTrace, spec: EquationSpec) -> CheckResult:
    """The three-way alternative: k(|c|-1) >= 0, polynomial growth (a
    :func:`polynomial_growth_check` verdict of small_o or big_O), or
    (u,k)-nonoscillation; the first satisfied branch is reported."""
    kc = spec.k * (abs(spec.c) - 1.0)
    if kc >= 0.0:
        return CheckResult("alternative", True, kc, f"k(|c|-1) = {kc:.6g} >= 0")
    growth = polynomial_growth_check(trace.x)
    if growth.kind != "neither":
        return CheckResult(
            "alternative", True, growth.metric,
            f"polynomial growth: x against n**{growth.exponent:.6g}: "
            f"{growth.kind}, trend {growth.trend:.6g}",
        )
    labels = classify_oscillation(trace.x, trace.u, spec.k)
    if "uk_nonoscillatory" in labels:
        return CheckResult("alternative", True, 0.0, "(u,k)-nonoscillatory")
    return CheckResult(
        "alternative", False, kc,
        "k(|c|-1) < 0, no polynomial-growth certificate, trace oscillates",
    )


def validate_case(case_id: str) -> None:
    """Reject a case other than a, b or c."""
    if case_id not in ("a", "b", "c"):
        raise ConfigError(f"field case: must be a, b or c, got {brief(case_id)}")


def theorem_dispatch(spec: EquationSpec, trace: SolutionTrace, case_id: str) -> HypothesisVerdict:
    """Run every hypothesis check of the selected case and the conclusion.

    Cases (a) and (b) check f (g, p)-bounded at p = m - 1, the exponent the
    case (a) reduction produces, and case (b) checks that x_{sigma(n)} is
    O(n**p) at the same p, by the :func:`order_estimate` rule that every
    other order verdict uses.  A spec with q set (so s == q, which
    EquationSpec enforces) selects the regular form: the u-rate is checked
    at exponent 1 - m, and the conclusion additionally requires the
    remainder to pass the iterated-difference checks.
    """
    validate_case(case_id)
    rt = spec.rt
    m, s = spec.m, spec.s
    n0, N = trace.z.start, trace.z.end
    p_eff = float(m - 1)

    rate_exp = float(1 - m) if spec.q is not None else s + 1.0 - m
    checks = [
        _summability("a-summability", rt.a, m - 1 - s),
        _summability("b-summability", rt.b, m - 1 - s),
        check_u_rate(rt.u, rate_exp),
    ]

    if case_id == "c":
        bounded = rt.f.bound < math.inf
        checks.append(CheckResult(
            "f-bounded", bounded, rt.f.bound,
            f"catalog bound {rt.f.bound:g}" if bounded else "f unbounded in catalog"))
        checks.append(_alternative_check(trace, spec))
    else:
        f_g_bounded = check_g_p_bounded(rt.f, rt.g, p_eff, n_max=N)
        if case_id == "a":
            checks.append(CheckResult(
                "g-nondecreasing", True, 0.0, "catalog guarantee"))
            checks.append(f_g_bounded)
            sigma_excess = trace.sigma[0] - n0  # sigma(n) - n never increases
            checks.append(CheckResult(
                "sigma-within-past", sigma_excess <= 0, float(sigma_excess),
                f"max(sigma(n) - n) = {sigma_excess}"))
            checks.append(CheckResult(
                "g-integral-divergent", rt.g.integral_diverges, 0.0,
                "exact catalog primitive"))
            labels = classify_oscillation(trace.x, trace.u, spec.k)
            checks.append(CheckResult(
                "uk-nonoscillation", "uk_nonoscillatory" in labels, 0.0,
                f"labels: {', '.join(sorted(labels))}"))
        else:
            checks.append(CheckResult(
                "g-locally-bounded", True, 0.0, "catalog guarantee"))
            checks.append(f_g_bounded)
            checks.append(_composed_growth_check(trace, p_eff))
            checks.append(_alternative_check(trace, spec))

    decomposition = decompose_solution(trace, spec)

    x_rep = decomposition.x_report
    conclusion = ConclusionResult(  # regular_passed is None when q is not set
        passed=x_rep.remainder_verdict.is_small_o and x_rep.regular_passed is not False,
        s=s,
        remainder_kind=x_rep.remainder_verdict.kind,
        metric=x_rep.remainder_verdict.metric,
        regular_passed=x_rep.regular_passed,
    )

    return HypothesisVerdict(
        case_id=case_id,
        checks=tuple(checks),
        conclusion=conclusion,
        decomposition=decomposition,
    )
