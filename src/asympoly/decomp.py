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
from itertools import compress, repeat
from operator import ge, mul, sub, truediv
from typing import Sequence

from .errors import DivergenceError, WindowLengthError
from .neutral_solver import EquationSpec, SolutionTrace, UNIT_MARGIN
from .seqcore import (
    DEFAULT_THRESHOLDS,
    OrderVerdict,
    PolyCoeffs,
    Seq,
    Thresholds,
    csum,
    delta,
    index_powers,
    line_fit,
    order_estimate,
)

#: Relative residual allowed when re-checking a polynomial transfer.
TRANSFER_RTOL = 1e-10
#: |r_n| below this is dropped from the log-log decay fit.
DECAY_FIT_FLOOR = 1e-14
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
    decay_exponent is the least-squares slope of log |r_n| against log n
    over the trailing half, with its R**2.
    """

    psi: PolyCoeffs
    remainder: Seq
    s: float
    remainder_verdict: OrderVerdict
    decay_exponent: float
    decay_r2: float
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
    cols = [list(map(pow, map(truediv, ns, repeat(scale)), repeat(d))) for d in degrees]
    # The normal matrix is symmetric: each entry is summed once.
    k = len(cols)
    ata = [[0.0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            ata[i][j] = ata[j][i] = csum(map(mul, cols[i], cols[j]))
    atb = [csum(map(mul, ci, resid)) for ci in cols]
    sol = _solve_normal_equations(ata, atb)
    return {d: sol[i] / scale**d for i, d in enumerate(degrees)}


def _decay_fit(remainder: Seq, trail_fraction: float) -> tuple[float, float]:
    tail = remainder.trailing(trail_fraction)
    lo = max(tail.start, 1)
    vals = tail.values[lo - tail.start :]
    kept = list(map(ge, map(abs, vals), repeat(DECAY_FIT_FLOOR)))
    xs = list(map(math.log, compress(range(lo, tail.end + 1), kept)))
    ys = list(map(math.log, compress(map(abs, vals), kept)))
    if len(xs) < 2:
        return math.nan, math.nan
    slope, resid = line_fit(xs, ys)
    ym = csum(ys) / len(ys)
    ss_res = csum(map(pow, resid, repeat(2)))
    ss_tot = csum(map(pow, map(sub, ys, repeat(ym)), repeat(2)))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return slope, r2


def _fit_polynomial(z: Seq, m: int, d_min: int, thresholds: Thresholds) -> PolyCoeffs:
    """Coefficients of degrees d_min .. m - 1 (the lower ones stay 0).

    Top-down trailing means of iterated differences, then one joint
    least-squares correction; see :func:`extract_polynomial`.
    """
    tail_count = max(1, math.ceil(len(z) * thresholds.coeff_window_fraction))
    coeffs = [0.0] * m
    work = z
    for d in range(m - 1, d_min - 1, -1):
        try:
            diff = delta(work, d)
        except ValueError as exc:  # non-finite intermediate difference
            raise DivergenceError(f"divergent input: {exc}") from exc
        tail = diff.values[-tail_count:]
        mean = csum(tail) / len(tail)
        if not math.isfinite(mean):
            raise DivergenceError(f"difference mean at degree {d} is not finite")
        c = mean / math.factorial(d)
        coeffs[d] = c
        try:
            monomial = map(mul, repeat(c), index_powers(work.start, len(work), d))
            work = Seq(work.start, tuple(map(sub, work.values, monomial)))
        except ValueError as exc:
            raise DivergenceError(f"divergent input: {exc}") from exc

    # Joint least-squares pass on the residual: degrees below d_min enter
    # as nuisance columns so their content cannot leak into the kept
    # coefficients, but only kept degrees receive corrections.
    half = len(z) - len(z) // 2
    ns = range(z.end - half + 1, z.end + 1)
    corrections = _lstsq_degrees(ns, work.values[-half:], list(range(m)))
    for d in range(d_min, m):
        coeffs[d] += corrections[d]
    return PolyCoeffs(tuple(coeffs))


def _remainder(z: Seq, psi: PolyCoeffs) -> Seq:
    """z - psi on z's window; a non-finite entry is a DivergenceError."""
    vals = tuple(map(sub, z.values, psi.at_indices(z.start, len(z))))
    try:
        return Seq(z.start, vals)
    except ValueError:
        i = next(i for i, v in enumerate(vals) if not math.isfinite(v))
        raise DivergenceError(f"remainder not finite at index {z.start + i}") from None


def extract_polynomial(
    z: Seq,
    m: int,
    s: float,
    q: int | None = None,
    thresholds: Thresholds = DEFAULT_THRESHOLDS,
) -> DecompositionReport:
    """Split z into a degree < m polynomial and an o(n**s)-candidate rest.

    Coefficients are estimated top-down: c_d is the trailing-window mean
    of the d-th difference divided by d!, the monomial is subtracted, and
    the recursion continues down to degree max(0, ceil(s)); a joint
    least-squares pass over the trailing half then corrects the kept
    coefficients.  A remainder at rounding level relative to the input is
    certified small_o directly; otherwise the order verdict is computed,
    with big_O downgraded to neither (only smallness is a meaningful
    certificate for the remainder).  When q is given, the iterated
    difference checks of the remainder are run as well.
    """
    if len(z) < MIN_WINDOW:
        raise WindowLengthError(f"need at least {MIN_WINDOW} entries, got {len(z)}")
    if s > m - 1 + 1e-12:
        raise ValueError(f"need s <= m - 1 = {m - 1}, got {s}")
    d_min = max(0, math.ceil(s - 1e-12))
    # The fit's working windows die with these helpers, before the decay fit
    # below, where a run's memory peaks.
    psi = _fit_polynomial(z, m, d_min, thresholds)
    remainder = _remainder(z, psi)

    scale = max(map(abs, z.values))
    sup_rem = max(map(abs, remainder.values))
    if sup_rem <= thresholds.noise_floor * (1.0 + scale):
        # Pure rounding residue: certified small directly.
        tail_seq = remainder.trailing(1.0 / 3.0)
        skip = 1 if tail_seq.start == 0 and s != 0.0 else 0
        count = len(tail_seq) - skip
        metric = max(
            map(
                truediv,
                map(abs, tail_seq.values[skip:]),
                index_powers(tail_seq.start + skip, count, s),
            )
        )
        verdict = OrderVerdict("small_o", s, metric, 0.0, metric)
    else:
        verdict = order_estimate(remainder, s, thresholds)
        if verdict.kind == "big_O":
            verdict = replace(verdict, kind="neither")

    slope, r2 = _decay_fit(remainder, thresholds.trail_fraction)
    regular_checks = None
    regular_passed = None
    if q is not None:
        report = regularity_check(remainder, q, thresholds, scale=scale)
        regular_checks = report.verdicts
        regular_passed = report.passed
    return DecompositionReport(
        psi=psi,
        remainder=remainder,
        s=s,
        remainder_verdict=verdict,
        decay_exponent=slope,
        decay_r2=r2,
        regular_q=q,
        regular_checks=regular_checks,
        regular_passed=regular_passed,
    )


def transfer_polynomial(phi: PolyCoeffs, c: float, k: int) -> PolyCoeffs:
    """The unique psi with psi(n) + c psi(n + k) = phi(n) and deg psi = deg phi.

    The coefficient system is upper triangular with 1 + c on the diagonal
    and binomial shift terms above, solved top degree down; the identity
    is re-checked at deg + 3 sample points.  The leading coefficient is
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
    scale = 1.0 + max(abs(phi(n)) for n in range(deg + 3))
    for n in range(deg + 3):
        if abs(result(n) + c * result(n + k) - phi(n)) > TRANSFER_RTOL * scale:
            raise ArithmeticError(
                f"transfer residual above tolerance at n={n} (c={c}, k={k})"
            )
    return result


@dataclass(frozen=True)
class RegularityReport:
    """Per-p verdicts for the p-th difference lying in o(n**(q-p))."""

    q: int
    verdicts: tuple[OrderVerdict, ...]
    passed: bool


def regularity_check(
    w: Seq,
    q: int,
    thresholds: Thresholds = DEFAULT_THRESHOLDS,
    scale: float | None = None,
) -> RegularityReport:
    """Certify that the p-th difference of w is o(n**(q-p)) for p = 0..q.

    Passing all levels certifies, at finite horizon, that the q-th
    difference of w tends to zero (the regular form of smallness).
    ``scale`` is the magnitude of the data w was derived from (defaults to
    sup |w|); p-th differences at the rounding resolution 2**p ulp(scale)
    are quantization noise and certified small directly.
    """
    if q < 0:
        raise ValueError(f"q must be >= 0, got {q}")
    if len(w) < MIN_WINDOW + q:
        raise WindowLengthError(f"need at least {MIN_WINDOW + q} entries, got {len(w)}")
    base = max(map(abs, w.values)) if scale is None else scale
    verdicts = tuple(
        order_estimate(
            delta(w, p),
            float(q - p),
            thresholds,
            noise_scale=NOISE_SAFETY * 2.0**p * sys.float_info.epsilon * base,
        )
        for p in range(q + 1)
    )
    return RegularityReport(q, verdicts, all(v.kind == "small_o" for v in verdicts))


@dataclass(frozen=True)
class SolutionDecomposition:
    """Decompositions of z and x plus the transfer-predicted x polynomial."""

    z_report: DecompositionReport
    x_report: DecompositionReport
    psi_x_transferred: PolyCoeffs


def decompose_solution(
    trace: SolutionTrace,
    spec: EquationSpec,
    thresholds: Thresholds = DEFAULT_THRESHOLDS,
) -> SolutionDecomposition:
    """Decompose both sides of a trace and predict x's polynomial from z's.

    z is decomposed directly; its polynomial is pushed through the neutral
    relation (transfer_polynomial with the spec's c and k) to predict x's
    polynomial; x is decomposed independently as a cross-check.  When the
    spec carries q, the regular checks run on both remainders.
    """
    rz = extract_polynomial(trace.z, spec.m, spec.s, q=spec.q, thresholds=thresholds)
    transferred = transfer_polynomial(rz.psi, spec.c, spec.k)
    rx = extract_polynomial(trace.x, spec.m, spec.s, q=spec.q, thresholds=thresholds)
    return SolutionDecomposition(rz, rx, transferred)
