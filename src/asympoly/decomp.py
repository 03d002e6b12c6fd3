"""Asymptotic polynomial decomposition of sequence windows.

Splits a window into a polynomial part plus a remainder certified small at
a target exponent s.  The polynomial part has one rule: its coefficients of
degree >= ceil(s) are the least-squares fit of the window's trailing half
by a polynomial of degree < m, solved exactly and rounded once
(:func:`_fit_polynomial`); the lower degrees are fitted and dropped, into
the remainder.

A solution is fitted once, on z: x's polynomial is the exact transfer of
z's rounded once (:func:`decompose_solution`), x's remainder judged as z's.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import repeat
from operator import mul, sub, truediv

from .errors import DivergenceError, WindowLengthError
from .neutral_solver import EquationSpec, SolutionTrace, UNIT_MARGIN
from .seqcore import (
    OrderVerdict,
    PolyCoeffs,
    Seq,
    delta,
    order_estimate,
)

#: Multiples of one rounding ulp treated as quantization noise.
NOISE_SAFETY = 4.0
#: Shortest window extract_polynomial accepts; regularity_check at order q
#: needs MIN_WINDOW + q entries.
MIN_WINDOW = 64


@dataclass(frozen=True)
class DecompositionReport:
    """Polynomial part, remainder and its smallness certificates.

    psi + remainder reproduces the input window exactly (the remainder is
    defined as the pointwise difference).  remainder_verdict certifies
    o(n**s) membership only: kinds are small_o or neither, never big_O.
    A remainder whose trailing third sits at the input's rounding
    resolution is small_o with trend 0, as a regularity level is.
    regular_checks holds the :func:`regularity_check` verdicts when q is
    given; its level 0 is remainder_verdict with big_O kept, and every
    other field equal.  regular_passed is derived: whether all of them
    are small_o, None when q is not given.

    Each side of decomposition.json is this report field by field, with
    psi as its coefficient list and the remainder as its [start, end]
    window under the key remainder_window.
    """

    psi: PolyCoeffs
    remainder: Seq
    s: float
    remainder_verdict: OrderVerdict
    regular_q: int | None = None
    regular_checks: tuple[OrderVerdict, ...] | None = None
    regular_passed: bool | None = field(init=False)

    def __post_init__(self) -> None:
        checks = self.regular_checks
        passed = None if checks is None else all(v.is_small_o for v in checks)
        object.__setattr__(self, "regular_passed", passed)


def _fit_polynomial(z: Seq, m: int, d_min: int) -> PolyCoeffs:
    """The kept coefficients, degrees d_min .. m - 1 (the lower ones are 0),
    of the least-squares fit of z's trailing half by a polynomial of degree
    < m, solved exactly and rounded once; one past the float range is the
    input's divergence."""
    half = z.trailing()
    vals, ns = half.values, range(half.start, half.end + 1)
    # Each value is an integer times 2**low, the last place of the least
    # nonzero magnitude, so the normal equations are sums of integers.  ldexp
    # finds those integers while they are floats, Fractions past that span.
    low = math.frexp(min(filter(None, map(abs, vals)), default=1.0))[1] - 53
    unit = Fraction(2) ** low
    in_range = math.frexp(max(map(abs, vals)))[1] - low <= 1024

    def moment(i: int) -> int:  # sum n**i z_n / 2**low, the integers streamed
        if in_range:  # float.__trunc__ is int() without the type call's cost
            ints = map(float.__trunc__, map(math.ldexp, vals, repeat(-low)))
        else:
            ints = map(int, map(truediv, map(Fraction, vals), repeat(unit)))
        return sum(map(mul, map(pow, ns, repeat(i)), ints))

    power_sums = [sum(map(pow, ns, repeat(e))) for e in range(2 * m - 1)]
    rows = [power_sums[i : i + m] + [moment(i)] for i in range(m)]
    # Gauss-Jordan without pivoting: the half holds more than m indices, so
    # the power-sum matrix is positive definite and every pivot is positive.
    for i, pivot in enumerate(rows):
        for row in rows:
            if row is not pivot:
                factor = Fraction(row[i], pivot[i])
                row[:] = [a - factor * b for a, b in zip(row, pivot)]
    try:
        kept = [float(unit * Fraction(rows[d][m], rows[d][d])) for d in range(d_min, m)]
    except OverflowError:
        raise DivergenceError("divergent input: fitted coefficient past the float range") from None
    return PolyCoeffs((0.0,) * d_min + tuple(kept))


def _remainder(z: Seq, psi: PolyCoeffs) -> Seq:
    """z - psi on z's window; a non-finite entry is a DivergenceError."""
    try:
        return Seq(z.start, map(sub, z.values, psi.at_indices(z.start, len(z))))
    except ValueError as exc:  # Seq names the first non-finite index
        raise DivergenceError(f"remainder: {exc}") from None


def rounding_resolution(scale: float, p: int = 0) -> float:
    """Level at or below which the p-th difference of data of magnitude scale
    is rounding noise: NOISE_SAFETY units of eps * scale, doubled per level.
    The one rule for the remainder verdict (p = 0) and :func:`regularity_check`."""
    return NOISE_SAFETY * 2.0**p * sys.float_info.epsilon * scale


def _min_degree(s: float) -> int:
    """Lowest degree the polynomial part keeps, max(0, ceil(s))."""
    return max(0, math.ceil(s - 1e-12))


def extract_polynomial(z: Seq, m: int, s: float, q: int | None = None) -> DecompositionReport:
    """Split z into a degree < m polynomial and an o(n**s)-candidate rest.

    The polynomial's coefficients of degree >= max(0, ceil(s)) are the
    least-squares fit of z's trailing half by a degree < m polynomial, the
    exact fit rounded once (:func:`_fit_polynomial`); the lower degrees are
    fitted and dropped.  The remainder is judged by :func:`_judge`.  Given
    q, the regular form, s must equal q, as :class:`EquationSpec` requires.
    """
    if len(z) < MIN_WINDOW:
        raise WindowLengthError(f"need at least {MIN_WINDOW} entries, got {len(z)}")
    if s > m - 1 + 1e-12:
        raise ValueError(f"need s <= m - 1 = {m - 1}, got {s}")
    if q is not None and s != q:
        raise ValueError(f"the regular form (q set) needs s == q, got s={s}, q={q}")
    return _judge(z, _fit_polynomial(z, m, _min_degree(s)), s, q)


def _judge(w: Seq, psi: PolyCoeffs, s: float, q: int | None) -> DecompositionReport:
    """The report of w against psi: the remainder w - psi is judged by
    :func:`order_estimate` at the :func:`rounding_resolution` of sup |w|
    (p = 0), with big_O read as neither (only smallness is a meaningful
    certificate for the remainder).  When q is given (so s == q), that
    judgement is level 0 of :func:`regularity_check` on the remainder,
    made once: the remainder verdict is read from it.
    """
    remainder = _remainder(w, psi)
    # The remainder is derived from w, so its rounding resolution is w's.
    scale = max(map(abs, w.values))
    if q is None:
        regular_checks = None
        verdict = order_estimate(remainder, s, noise_scale=rounding_resolution(scale))
    else:
        regular_checks = regularity_check(remainder, q, scale=scale)
        verdict = regular_checks[0]
    if verdict.kind == "big_O":
        verdict = replace(verdict, kind="neither")
    return DecompositionReport(psi, remainder, s, verdict, q, regular_checks)


def transfer_polynomial(phi: PolyCoeffs, c: float, k: int) -> PolyCoeffs:
    """The unique psi with psi(n) + c psi(n + k) = phi(n) and deg psi = deg phi,
    solved exactly from the floats of phi and c, each coefficient rounded once.

    The system is upper triangular with 1 + c on the diagonal and binomial
    shift terms above, solved top degree down in Fractions: the leading
    coefficient is phi's over 1 + c, rounded once.  One past the float range
    is a DivergenceError naming the highest such degree.
    """
    if abs(abs(c) - 1.0) <= UNIT_MARGIN:
        raise ValueError(f"|c| must differ from 1 by more than {UNIT_MARGIN}, got c={c}")
    deg = phi.degree
    exact_c = Fraction(c)
    exact = [Fraction(0)] * (deg + 1)
    psi = [0.0] * (deg + 1)
    for i in range(deg, -1, -1):
        shift = sum(math.comb(j, i) * k ** (j - i) * exact[j] for j in range(i + 1, deg + 1))
        exact[i] = (Fraction(phi.coeffs[i]) - exact_c * shift) / (1 + exact_c)
        try:
            psi[i] = float(exact[i])
        except OverflowError:
            raise DivergenceError(f"transfer: non-finite coefficient at degree {i}") from None
    return PolyCoeffs(tuple(psi))


def regularity_check(w: Seq, q: int, *, scale: float) -> tuple[OrderVerdict, ...]:
    """Verdicts, for p = 0..q, on the p-th difference of w lying in o(n**(q-p)).

    All levels small_o certifies, at finite horizon, that the q-th
    difference of w tends to zero (the regular form of smallness).
    ``scale`` is the magnitude of the data w was derived from; p-th
    differences at their :func:`rounding_resolution` are quantization
    noise and certified small directly.  Level 0 is w's plain o(n**q)
    verdict, big_O kept: :func:`_judge` reads the remainder verdict from
    it rather than judging the remainder a second time.
    """
    if q < 0:
        raise ValueError(f"q must be >= 0, got {q}")
    if len(w) < MIN_WINDOW + q:
        raise WindowLengthError(f"need at least {MIN_WINDOW + q} entries, got {len(w)}")
    verdicts = []
    level = w
    for p in range(q + 1):
        if p:
            level = delta(level, 1)  # the p-th difference, exactly as delta(w, p)
        verdicts.append(
            order_estimate(level, float(q - p), noise_scale=rounding_resolution(scale, p))
        )
    return tuple(verdicts)


@dataclass(frozen=True)
class SolutionDecomposition:
    """Decompositions of z and x; x's polynomial is the transfer of z's.

    decomposition.json is this decomposition field by field, with the
    reports under the keys z and x.
    """

    z_report: DecompositionReport
    x_report: DecompositionReport


def decompose_solution(trace: SolutionTrace, spec: EquationSpec) -> SolutionDecomposition:
    """Decompose z by :func:`extract_polynomial`, and x against the transfer
    of z's polynomial (:func:`transfer_polynomial` with the spec's c and k),
    its degrees below ceil(s) zeroed as the fit zeroes them.  If z = phi +
    o(n**s) and u - c decays as the u-rate hypothesis asks, x = T(phi) +
    o(n**s).  The regular checks run on both remainders when the spec
    carries q; only x's report enters the verdict.
    """
    rz = extract_polynomial(trace.z, spec.m, spec.s, q=spec.q)
    d_min = _min_degree(spec.s)
    transferred = transfer_polynomial(rz.psi, spec.c, spec.k).padded(spec.m - 1)
    psi_x = PolyCoeffs((0.0,) * d_min + transferred[d_min:])
    return SolutionDecomposition(rz, _judge(trace.x, psi_x, spec.s, spec.q))
