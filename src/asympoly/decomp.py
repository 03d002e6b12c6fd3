"""Asymptotic polynomial decomposition of sequence windows.

Splits a window into a polynomial part plus a remainder certified small at
a target exponent s.  The polynomial part has one rule: its coefficients of
degree >= ceil(s) are the least-squares fit of the window's trailing half
by a polynomial of degree < m (:func:`_fit_polynomial`); the lower degrees
are fitted and dropped, into the remainder.

A solution is fitted once, on z: x's polynomial is the transfer of z's
(:func:`decompose_solution`), and x's remainder is judged as z's is.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from itertools import repeat
from operator import mul, sub, truediv
from typing import Sequence

from .errors import DivergenceError, WindowLengthError
from .neutral_solver import EquationSpec, SolutionTrace, UNIT_MARGIN
from .seqcore import (
    OrderVerdict,
    PolyCoeffs,
    Seq,
    csum,
    delta,
    index_powers,
    order_estimate,
)

#: Relative residual allowed when re-checking a polynomial transfer.
TRANSFER_RTOL = 1e-10
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


def _solve_normal_equations(ata: list[list[float]], atb: list[float]) -> list[float]:
    """Gaussian elimination with partial pivoting on a small SPD-ish system."""
    k = len(atb)
    aug = [row[:] + [atb[i]] for i, row in enumerate(ata)]
    for col in range(k):
        pivot = max(range(col, k), key=lambda r: abs(aug[r][col]))
        if abs(aug[pivot][col]) < 1e-300:
            raise DivergenceError("degenerate least-squares system in coefficient fit")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        for r in range(col + 1, k):
            factor = aug[r][col] / aug[col][col]
            for c in range(col, k + 1):
                aug[r][c] -= factor * aug[col][c]
    out = [0.0] * k
    for r in range(k - 1, -1, -1):
        acc = aug[r][k] - sum(aug[r][c] * out[c] for c in range(r + 1, k))
        out[r] = acc / aug[r][r]
    return out


def _lstsq_degrees(ns: range, resid: Sequence[float], degrees: list[int]) -> dict[int, float]:
    """Least-squares fit of the residual against the monomials n**d.

    The basis is scaled by the last index to keep the normal equations
    well conditioned; corrections are returned in the unscaled basis.
    """
    scale = float(ns[-1])

    def column(d: int) -> list[float] | None:
        # pow(t, 0) is 1.0 and pow(t, 1) is t, exactly, so those need no pow;
        # the column of ones is not built (None), see dot.
        if d == 0:
            return None
        scaled = map(truediv, ns, repeat(scale))
        return list(scaled if d == 1 else map(pow, scaled, repeat(d)))

    def dot(a: list[float] | None, b: Sequence[float] | None) -> float:
        # 1.0 * v is v, so a product with the column of ones is the other
        # column, and the ones alone sum to their count: both exact.
        if a is None:
            return float(len(ns)) if b is None else csum(b)
        return csum(a) if b is None else csum(map(mul, a, b))

    cols = [column(d) for d in degrees]
    # The normal matrix is symmetric: each entry is summed once.
    k = len(cols)
    ata = [[0.0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            ata[i][j] = ata[j][i] = dot(cols[i], cols[j])
    atb = [dot(ci, resid) for ci in cols]
    sol = _solve_normal_equations(ata, atb)
    return {d: sol[i] / scale**d for i, d in enumerate(degrees)}


def _fit_polynomial(z: Seq, m: int, d_min: int) -> PolyCoeffs:
    """Coefficients of degrees d_min .. m - 1 (the lower ones stay 0): the
    least-squares fit of z's trailing half by a polynomial of degree < m.

    Top degree down, c_d is the mean of the d-th difference of the working
    half over d!, and c_d n**d is subtracted; one least-squares pass over
    degrees 0 .. m - 1 then corrects the kept coefficients.  In exact
    arithmetic the means decide nothing: they precondition the pass, whose
    normal equations alone lose digits to the near-collinear columns n**d.
    """
    coeffs = [0.0] * m
    work = z.trailing()
    # A non-finite difference, residual or coefficient raises ValueError
    # (from Seq or PolyCoeffs): the input diverges.
    try:
        for d in range(m - 1, d_min - 1, -1):
            diff = delta(work, d).values
            mean = csum(diff) / len(diff)
            if not math.isfinite(mean):
                raise DivergenceError(f"difference mean at degree {d} is not finite")
            c = mean / math.factorial(d)
            coeffs[d] = c
            monomial = map(mul, repeat(c), index_powers(work.start, len(work), d))
            work = Seq(work.start, map(sub, work.values, monomial))

        # Joint least-squares pass on the residual: degrees below d_min enter
        # as nuisance columns so their content cannot leak into the kept
        # coefficients, but only kept degrees receive corrections.
        ns = range(work.start, work.end + 1)
        corrections = _lstsq_degrees(ns, work.values, list(range(m)))
        for d in range(d_min, m):
            coeffs[d] += corrections[d]
        return PolyCoeffs(tuple(coeffs))
    except ValueError as exc:
        raise DivergenceError(f"divergent input: {exc}") from exc


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
    least-squares fit of z's trailing half by a degree < m polynomial
    (:func:`_fit_polynomial`); the lower degrees are fitted and dropped.
    The remainder is judged by :func:`_judge`.  Given q, the regular form,
    s must equal q, as :class:`EquationSpec` requires.
    """
    if len(z) < MIN_WINDOW:
        raise WindowLengthError(f"need at least {MIN_WINDOW} entries, got {len(z)}")
    if s > m - 1 + 1e-12:
        raise ValueError(f"need s <= m - 1 = {m - 1}, got {s}")
    if q is not None and s != q:
        raise ValueError(f"the regular form (q set) needs s == q, got s={s}, q={q}")
    # _fit_polynomial's working windows are gone before _judge builds the remainder.
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
    """The unique psi with psi(n) + c psi(n + k) = phi(n) and deg psi = deg phi.

    The coefficient system is upper triangular with 1 + c on the diagonal
    and binomial shift terms above, solved top degree down; the identity
    is re-checked at deg + 3 sample points.  A coefficient beyond the float
    range, or a residual above its rounding bound, is a DivergenceError.
    The leading coefficient is exactly phi's divided by 1 + c.
    """
    if abs(abs(c) - 1.0) <= UNIT_MARGIN:
        raise ValueError(f"|c| = {abs(c)} within {UNIT_MARGIN} of 1: transfer is ill conditioned")
    deg = phi.degree
    phi_c = phi.padded(deg)
    psi = [0.0] * (deg + 1)
    for i in range(deg, -1, -1):
        shift = csum(
            math.comb(j, i) * float(k) ** (j - i) * psi[j] for j in range(i + 1, deg + 1)
        )
        psi[i] = (phi_c[i] - c * shift) / (1.0 + c)
        if not math.isfinite(psi[i]):
            raise DivergenceError(f"transfer: non-finite coefficient at degree {i}")
    result = PolyCoeffs(tuple(psi))
    # Horner's rounding bound: p(n) errs by a few ulps of p's absolute
    # coefficients summed at |n|, which do not cancel at a root of p.
    abs_psi = PolyCoeffs(tuple(map(abs, psi)))
    abs_phi = PolyCoeffs(tuple(map(abs, phi.coeffs)))
    for n in range(deg + 3):
        residual = result(n) + c * result(n + k) - phi(n)
        scale = 1.0 + abs_psi(n) + abs(c) * abs_psi(abs(n + k)) + abs_phi(n)
        if abs(residual) > TRANSFER_RTOL * scale:
            raise DivergenceError(f"transfer residual above tolerance at n={n} (c={c}, k={k})")
    return result


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
    of z's polynomial (transfer_polynomial with the spec's c and k), its
    degrees below ceil(s) zeroed as the fit zeroes them.  If z = phi + o(n**s)
    and u - c decays as the u-rate hypothesis asks, x = T(phi) + o(n**s).
    When the spec carries q, the regular checks run on both remainders.
    """
    rz = extract_polynomial(trace.z, spec.m, spec.s, q=spec.q)
    d_min = _min_degree(spec.s)
    transferred = transfer_polynomial(rz.psi, spec.c, spec.k).padded(spec.m - 1)
    psi_x = PolyCoeffs((0.0,) * d_min + transferred[d_min:])
    return SolutionDecomposition(rz, _judge(trace.x, psi_x, spec.s, spec.q))
