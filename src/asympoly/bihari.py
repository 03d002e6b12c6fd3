"""Discrete Bihari/Gronwall machinery.

Computes the uniform bound M of the discrete Bihari inequality

    w_n <= lambda + sum_{j=p}^{n-1} a_j g(w_j)   and   sum a_j <= G(M),

where G(t) is the integral of 1/g over [lambda, t], by monotone bracketing
and bisection on G.  Catalog majorants use their exact primitives; a plain
callable g goes through adaptive Simpson quadrature.  The module also
builds the extremal equality sequence (the brute-force oracle the bound is
tested against) and the growth constant L with
|x_n| <= n**(m-1) (L + sum |m-th differences|).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from operator import sub, truediv
from typing import Callable, Sequence

from .catalog import Majorant
from .errors import BracketRangeError, QuadratureDomainError, WindowLengthError
from .seqcore import CompensatedSum, Seq, csum, delta, index_powers

#: Absolute tolerance of the adaptive quadrature.
QUAD_TOL = 1e-10
#: Bisection stops when the bracket is narrower than this relative width.
BISECT_RTOL = 1e-12
#: Upper end of the doubling bracket search.
BRACKET_CAP = 1e15
#: Growth per doubling below which G counts as plateaued (integral finite).
PLATEAU_EPS = 1e-14
#: Floor keeping the BHL2 constant strictly positive.
BHL2_EPS = 1e-12


def adaptive_simpson(
    fn: Callable[[float], float], a: float, b: float, tol: float = QUAD_TOL
) -> tuple[float, float]:
    """Adaptive Simpson quadrature of fn over [a, b].

    Returns (value, error_estimate); the estimate is the accumulated
    |S_fine - S_coarse| / 15 over accepted panels.
    """
    if b < a:
        raise ValueError(f"inverted interval [{a}, {b}]")
    if b == a:
        return 0.0, 0.0

    # Accepted panel values and |err|, summed once at the end.
    panels: list[float] = []
    errs: list[float] = []
    mid0 = 0.5 * (a + b)
    stack = [(a, b, fn(a), fn(mid0), fn(b), tol, 0)]
    while stack:
        lo, hi, flo, fmid, fhi, budget, depth = stack.pop()
        mid = 0.5 * (lo + hi)
        lmid = 0.5 * (lo + mid)
        rmid = 0.5 * (mid + hi)
        flm = fn(lmid)
        frm = fn(rmid)
        # Simpson's rule on the whole panel and on its two halves.
        whole = (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)
        left = (mid - lo) / 6.0 * (flo + 4.0 * flm + fmid)
        right = (hi - mid) / 6.0 * (fmid + 4.0 * frm + fhi)
        err = (left + right - whole) / 15.0
        if abs(err) <= budget or depth >= 60:
            panels.append(left + right + err)
            errs.append(abs(err))
        else:
            stack.append((lo, mid, flo, flm, fmid, budget / 2.0, depth + 1))
            stack.append((mid, hi, fmid, frm, fhi, budget / 2.0, depth + 1))
    return csum(panels), csum(errs)


def _recip(g: Callable[[float], float]) -> Callable[[float], float]:
    def integrand(t: float) -> float:
        gv = g(t)
        if gv <= 0.0:
            raise QuadratureDomainError(f"g({t!r}) = {gv!r} is not positive")
        return 1.0 / gv

    return integrand


def integrate_recip_g(
    g: Majorant | Callable[[float], float], lam: float, t: float
) -> float:
    """Integral of 1/g over [lam, t].

    Catalog majorants short-circuit to their exact primitive after a
    positivity check at the lower endpoint (nondecreasing g is then
    positive on the whole interval); a plain callable goes through
    adaptive quadrature, which checks positivity at every sample.
    """
    if t < lam:
        raise ValueError(f"upper limit {t} below lower limit {lam}")
    if isinstance(g, Majorant):
        g_lam = g(lam)
        if g_lam <= 0.0:
            raise QuadratureDomainError(f"g(lambda) = {g_lam!r} is not positive")
        return g.recip_primitive(lam, t)
    value, _ = adaptive_simpson(_recip(g), lam, t, QUAD_TOL)
    return value


def _check_weights(values: Sequence[float], start: int) -> None:
    """Reject the first negative weight; ``values[i]`` is a_{start + i}."""
    if values and min(values) < 0.0:
        i = next(i for i, v in enumerate(values) if v < 0.0)
        raise ValueError(f"negative weight a_{start + i} = {values[i]}")


@dataclass(frozen=True)
class BihariProblem:
    """Inputs of the discrete Bihari bound.

    ``total_a`` may be the scalar sum of the weights or a window of
    nonnegative weights to be summed (exactly rounded).  ``p`` is the start
    index of the inequality; it does not enter the bound itself but fixes
    where the extremal oracle starts.
    """

    g: Majorant | Callable[[float], float]
    lam: float
    total_a: float | Seq
    p: int = 1
    #: The weight total: total_a itself, or the exactly rounded window sum.
    total: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.lam < 0.0:
            raise ValueError(f"lambda must be >= 0, got {self.lam}")
        g_lam = self.g(self.lam)
        if not g_lam > 0.0:
            raise ValueError(f"g(lambda) = {g_lam!r} must be positive")
        if isinstance(self.total_a, Seq):
            _check_weights(self.total_a.values, self.total_a.start)
            total = csum(self.total_a.values)
            if not math.isfinite(total):
                raise ValueError("total_a: the weight window's sum overflows the float range")
        elif not self.total_a >= 0.0:  # also rejects NaN
            raise ValueError(f"total_a: total weight must be >= 0, got {self.total_a}")
        else:
            total = float(self.total_a)
        object.__setattr__(self, "total", total)


@dataclass(frozen=True)
class BihariBound:
    """Output of the bound computation.

    When ``condition_violated`` is set, the integral of 1/g plateaus below
    the weight sum and no finite M exists; M is then +inf.
    ``quadrature_error`` is the sum of the error estimates of every
    integrated piece (0 on the exact route).
    """

    M: float
    G_at_M: float
    quadrature_error: float
    condition_violated: bool = False


def bihari_bound(prob: BihariProblem) -> BihariBound:
    """Least M >= lambda with G(M) >= total, by doubling then bisection.

    G is monotone nondecreasing, so the returned M is on the safe side:
    G(M) >= total up to the bisection width.  condition_violated is
    reported when G plateaus (growth < PLATEAU_EPS per doubling, or the
    exact improper integral is finite) strictly below the weight sum.

    On the quadrature route each new G value is carried forward from the
    nearest point below it where G is already known, G(b) = G(a) + the
    integral over [a, b], so every piece of [lambda, M] is integrated once.
    The tolerance is split so that the pieces behind any G value have
    budgets summing to at most QUAD_TOL.  Doubling step i (step 0 is the
    first bracket [lambda, hi]) gets QUAD_TOL / ((i + 1) (i + 2)); steps
    0 .. K - 1 sum to QUAD_TOL (1 - 1 / (K + 1)).  After K doublings the
    bisection pieces, disjoint subintervals of the last bracket, share the
    remaining QUAD_TOL / (K + 1) in proportion to their widths.
    """
    total = prob.total
    lam = prob.lam
    err_seen = 0.0

    if isinstance(prob.g, Majorant):
        g_lam = prob.g(lam)
        if g_lam <= 0.0:
            raise QuadratureDomainError(f"g(lambda) = {g_lam!r} is not positive")

        def G_from(a: float, g_a: float, b: float, budget: float) -> float:
            return prob.g.recip_primitive(lam, b)

    else:
        recip = _recip(prob.g)
        # Pieces share endpoints, and a bisection piece inside the previous
        # one revisits its sample points: each g value is computed once.
        recip_at: dict[float, float] = {}

        def integrand(t: float) -> float:
            value = recip_at.get(t)
            if value is None:
                value = recip_at[t] = recip(t)
            return value

        def G_from(a: float, g_a: float, b: float, budget: float) -> float:
            """G(b) from G(a) = g_a, integrating only [a, b] within the budget."""
            nonlocal err_seen
            value, err = adaptive_simpson(integrand, a, b, budget)
            err_seen += err
            return g_a + value

    if total == 0.0:
        return BihariBound(M=lam, G_at_M=0.0, quadrature_error=0.0)

    if isinstance(prob.g, Majorant) and not prob.g.integral_diverges:
        # Exact primitive: the improper integral is its limit at +inf.
        g_limit = prob.g.recip_primitive(lam, BRACKET_CAP)
        if g_limit < total:
            return BihariBound(
                M=math.inf, G_at_M=g_limit, quadrature_error=0.0, condition_violated=True
            )

    lo, g_lo = lam, 0.0
    hi = max(2.0 * lam, lam + 1.0)
    g_hi = G_from(lo, g_lo, hi, QUAD_TOL / 2.0)
    doublings = 0
    while g_hi < total:
        if hi >= BRACKET_CAP:
            raise BracketRangeError(
                f"G({BRACKET_CAP:g}) = {g_hi} still below total {total}; "
                "bound exceeds the supported bracket range"
            )
        doublings += 1
        nxt = min(hi * 2.0, BRACKET_CAP)
        g_nxt = G_from(hi, g_hi, nxt, QUAD_TOL / ((doublings + 1) * (doublings + 2)))
        if g_nxt - g_hi < PLATEAU_EPS and g_nxt < total:
            return BihariBound(
                M=math.inf, G_at_M=g_nxt, quadrature_error=err_seen, condition_violated=True
            )
        lo, g_lo, hi, g_hi = hi, g_hi, nxt, g_nxt

    tol_per_width = QUAD_TOL / (doublings + 1) / (hi - lo)
    for _ in range(64):
        if hi - lo <= BISECT_RTOL * (1.0 + hi):
            break
        mid = 0.5 * (lo + hi)
        g_mid = G_from(lo, g_lo, mid, tol_per_width * (mid - lo))
        if g_mid >= total:
            hi, g_hi = mid, g_mid
        else:
            lo, g_lo = mid, g_mid
    return BihariBound(M=hi, G_at_M=g_hi, quadrature_error=err_seen)


def worst_case_w(
    a: Seq, g: Majorant | Callable[[float], float], lam: float, p: int, N: int
) -> Seq:
    """Extremal sequence with equality in the Bihari recursion.

    w_p = lambda and w_{n+1} = lambda + sum_{j=p}^{n} a_j g(w_j), computed
    incrementally with compensated summation.  This is the brute-force
    oracle against which bihari_bound is tested.
    """
    if a.start > p or a.end < N - 1:
        raise WindowLengthError(
            f"weight window [{a.start}, {a.end}] does not cover [{p}, {N - 1}]"
        )
    # One list read: each read from the array would box a new float.
    weights = a.values[p - a.start : max(N, p) - a.start].tolist()
    _check_weights(weights, p)
    fn = g.fn if isinstance(g, Majorant) else g
    add = CompensatedSum(lam).add
    wn = float(lam)
    w = [wn]
    for av in weights:
        wn = add(av * fn(wn))
        w.append(wn)
    return Seq(p, w)


def bhl2_constant(x: Seq, m: int, n0: int) -> float:
    """Minimal L > 0 with |x_n| <= n**(m-1) (L + sum_{i=n0}^{n-1} |d_i|)
    at every window index, where d is the m-th difference of x.

    L is the max over the window of |x_n|/n**(m-1) minus the running
    difference sum, floored at a tiny epsilon to stay positive.
    """
    if m < 1:
        raise ValueError(f"order m must be >= 1, got {m}")
    if n0 < max(1, x.start):
        raise ValueError(f"n0 must be >= max(1, start index {x.start}), got {n0}")
    dm = delta(x, m)  # indices x.start .. x.end - m
    if n0 > dm.end:
        raise WindowLengthError(f"window too short: no differences at or after n0={n0}")
    xs = x.values[n0 - x.start : dm.end + 2 - x.start]
    # before[i] is the running sum of |d| over [n0, n0 + i).
    add = CompensatedSum().add
    before = [0.0]
    before += [add(abs(d)) for d in dm.values[n0 - dm.start :]]
    scaled = map(truediv, map(abs, xs), index_powers(n0, len(xs), m - 1))
    return max(chain((BHL2_EPS,), map(sub, scaled, before)))
