"""Asymptotic polynomial decomposition of sequence windows.

Splits a window into a polynomial part plus a remainder certified small at
a target exponent s.  Coefficients come top-down from trailing-window
means of iterated differences (the d! c_d = limit of the d-th difference
characterization), followed by a least-squares correction pass on the
residual: the pure mean cascade leaves each level's estimation error
multiplied by n**d in the levels below it, and the correction removes that
amplification without touching the top-down structure.

Degrees strictly below s belong to the remainder, not the polynomial (the
decomposition only determines coefficients of degree >= s; at integer s
the coefficient at degree exactly s is kept).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
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
#: Fraction of the window, at its end, whose mean of each iterated
#: difference estimates a polynomial coefficient: the trailing eighth.
COEFF_WINDOW_FRACTION = 0.125


@dataclass(frozen=True)
class DecompositionReport:
    """Polynomial part, remainder and its smallness certificates.

    psi + remainder reproduces the input window exactly (the remainder is
    defined as the pointwise difference).  remainder_verdict certifies
    o(n**s) membership only: kinds are small_o or neither, never big_O.
    A remainder whose trailing third sits at the input's rounding
    resolution is small_o with trend 0, as a regularity level is.
    regular_checks holds the :func:`regularity_check` verdicts when q is
    given, and regular_passed whether all of them are small_o.

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
    regular_passed: bool | None = None


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
    """Coefficients of degrees d_min .. m - 1 (the lower ones stay 0).

    Top-down trailing means of iterated differences, then one joint
    least-squares correction; see :func:`extract_polynomial`.  The means
    read the last tail_count + d values of the working window and the
    correction its trailing half, so the cascade runs on the trailing
    half of z alone: each entry is the same float it is over the whole
    window, and so is every coefficient.
    """
    tail_count = max(1, math.ceil(len(z) * COEFF_WINDOW_FRACTION))
    # The means need tail_count + m - 1 values, and the half holds them:
    # ceil(len/8) + m - 1 <= ceil(len/2) for len >= MIN_WINDOW = 64 and
    # m - 1 <= 20, the highest order delta accepts (MAX_DIFFERENCE_ORDER).
    coeffs = [0.0] * m
    work = z.trailing()
    # A non-finite difference, residual or coefficient raises ValueError
    # (from Seq or PolyCoeffs): the input diverges.
    try:
        for d in range(m - 1, d_min - 1, -1):
            tail = delta(work, d).values[-tail_count:]
            mean = csum(tail) / len(tail)
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


def extract_polynomial(z: Seq, m: int, s: float, q: int | None = None) -> DecompositionReport:
    """Split z into a degree < m polynomial and an o(n**s)-candidate rest.

    Coefficients are estimated top-down: c_d is the trailing-window mean
    of the d-th difference divided by d!, the monomial is subtracted, and
    the recursion continues down to degree max(0, ceil(s)); a joint
    least-squares pass over the trailing half then corrects the kept
    coefficients.  The remainder's verdict is :func:`order_estimate` at
    the :func:`rounding_resolution` of sup |z| (p = 0), with big_O
    downgraded to neither (only smallness is a meaningful certificate for
    the remainder).  When q is given, the iterated difference checks of the
    remainder are run as well.
    """
    if len(z) < MIN_WINDOW:
        raise WindowLengthError(f"need at least {MIN_WINDOW} entries, got {len(z)}")
    if s > m - 1 + 1e-12:
        raise ValueError(f"need s <= m - 1 = {m - 1}, got {s}")
    d_min = max(0, math.ceil(s - 1e-12))
    # The fit's working windows die with _fit_polynomial, before the
    # remainder is built, so they never coexist with it or with the
    # regularity levels below.
    psi = _fit_polynomial(z, m, d_min)
    remainder = _remainder(z, psi)

    # The remainder is derived from z, so its rounding resolution is z's.
    scale = max(map(abs, z.values))
    verdict = order_estimate(remainder, s, noise_scale=rounding_resolution(scale))
    if verdict.kind == "big_O":
        verdict = replace(verdict, kind="neither")

    regular_checks = None
    regular_passed = None
    if q is not None:
        regular_checks = regularity_check(remainder, q, scale=scale)
        regular_passed = all(v.is_small_o for v in regular_checks)
    return DecompositionReport(
        psi=psi,
        remainder=remainder,
        s=s,
        remainder_verdict=verdict,
        regular_q=q,
        regular_checks=regular_checks,
        regular_passed=regular_passed,
    )


def transfer_polynomial(phi: PolyCoeffs, c: float, k: int) -> PolyCoeffs:
    """The unique psi with psi(n) + c psi(n + k) = phi(n) and deg psi = deg phi.

    The coefficient system is upper triangular with 1 + c on the diagonal
    and binomial shift terms above, solved top degree down; the identity
    is re-checked at deg + 3 sample points, each residual relative to the
    sizes of the three terms it cancels.  The leading coefficient is
    exactly phi's divided by 1 + c.
    """
    if abs(abs(c) - 1.0) <= UNIT_MARGIN:
        raise ValueError(f"|c| = {abs(c)} within {UNIT_MARGIN} of 1: transfer is ill conditioned")
    deg = phi.degree
    if deg < 0:
        return PolyCoeffs(())
    phi_c = phi.padded(deg)
    psi = [0.0] * (deg + 1)
    for i in range(deg, -1, -1):
        shift = csum(
            math.comb(j, i) * float(k) ** (j - i) * psi[j] for j in range(i + 1, deg + 1)
        )
        psi[i] = (phi_c[i] - c * shift) / (1.0 + c)
    result = PolyCoeffs(tuple(psi))
    for n in range(deg + 3):
        # The residual is measured against the terms it cancels: at a large
        # shift c psi(n + k) dwarfs phi(n).
        here, shifted, target = result(n), c * result(n + k), phi(n)
        scale = 1.0 + abs(here) + abs(shifted) + abs(target)
        if abs(here + shifted - target) > TRANSFER_RTOL * scale:
            raise ArithmeticError(
                f"transfer residual above tolerance at n={n} (c={c}, k={k})"
            )
    return result


def regularity_check(w: Seq, q: int, *, scale: float) -> tuple[OrderVerdict, ...]:
    """Verdicts, for p = 0..q, on the p-th difference of w lying in o(n**(q-p)).

    All levels small_o certifies, at finite horizon, that the q-th
    difference of w tends to zero (the regular form of smallness).
    ``scale`` is the magnitude of the data w was derived from; p-th
    differences at their :func:`rounding_resolution` are quantization
    noise and certified small directly.
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
    """Decompositions of z and x plus the transfer-predicted x polynomial.

    decomposition.json is this decomposition field by field, with the
    reports under the keys z and x.
    """

    z_report: DecompositionReport
    x_report: DecompositionReport
    psi_x_transferred: PolyCoeffs


def decompose_solution(trace: SolutionTrace, spec: EquationSpec) -> SolutionDecomposition:
    """Decompose both sides of a trace and predict x's polynomial from z's.

    z is decomposed directly; its polynomial is pushed through the neutral
    relation (transfer_polynomial with the spec's c and k) to predict x's
    polynomial; x is decomposed independently as a cross-check.  When the
    spec carries q, the regular checks run on both remainders.
    """
    rz = extract_polynomial(trace.z, spec.m, spec.s, q=spec.q)
    transferred = transfer_polynomial(rz.psi, spec.c, spec.k)
    rx = extract_polynomial(trace.x, spec.m, spec.s, q=spec.q)
    return SolutionDecomposition(rz, rx, transferred)
