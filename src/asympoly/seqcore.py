"""Finite-difference calculus on realized sequence windows.

This is the vocabulary the rest of the package speaks: finite windows of
real sequences with an explicit start index, polynomial sequences,
exactly rounded window sums, and the finite-horizon order-of-growth
diagnostics.  Every operation is a pure function of immutable inputs, so
values can be shared freely between threads.

Conventions fixed once here and reused everywhere:

* "for large n" means: for every n in the trailing half of the realized
  common window;
* a small-o verdict at exponent s requires the trailing-third sup of
  |x_n|/n**s to be below ``tau_small`` *and* to have decreased against the
  middle third;
* window sums are exactly rounded (``math.fsum``), so they do not depend
  on the order of the terms and diagnostics are reproducible;
* index n = 0 never enters an n**s-weighted diagnostic unless s == 0
  (the weight is undefined or degenerate there); windows built from
  generators start at index 1.
"""

from __future__ import annotations

import math
from array import array
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from itertools import islice, repeat
from operator import add, lt, mul, sub, truediv
from typing import Callable, Iterable, Iterator, Sequence

from .errors import IndexRangeError, WindowLengthError

#: Difference orders above this are rejected everywhere in the package.
MAX_DIFFERENCE_ORDER = 20


@dataclass(frozen=True)
class Thresholds:
    """Certification thresholds for the finite-horizon diagnostics.

    tau_small
        trailing-third sup bound for a small-o verdict.
    tau_tail
        relative tail bound below which a weighted sum counts as converged.
    big_o_slack
        allowed relative excess of the trailing sup over the earlier sup
        before a big-O verdict is withheld.
    noise_floor
        relative magnitude below which a decomposition remainder counts
        as zero (pure rounding residue).
    trail_fraction
        fraction of the window that "for large n" refers to.
    coeff_window_fraction
        fraction of the window averaged when estimating polynomial
        coefficients from iterated differences.
    """

    tau_small: float = 0.05
    tau_tail: float = 1e-3
    big_o_slack: float = 0.02
    noise_floor: float = 1e-9
    trail_fraction: float = 0.5
    coeff_window_fraction: float = 0.125


DEFAULT_THRESHOLDS = Thresholds()


@dataclass(frozen=True)
class Seq:
    """A realized window of a real sequence.

    ``values[i]`` is the entry at index ``start + i``.  The constructor
    takes any iterable of reals and stores its own ``array('d')`` copy,
    8 bytes per entry, so later changes to the source do not reach the
    window; treat ``values`` as read-only.  Entries are finite floats;
    reading outside the window raises :class:`IndexRangeError` instead of
    silently defaulting.  An array is unhashable, so a Seq is too; nothing
    in the package or the benchmark hashes one.
    """

    start: int
    values: array

    def __post_init__(self) -> None:
        if not isinstance(self.start, int) or isinstance(self.start, bool):
            raise ValueError(f"start index must be an integer, got {self.start!r}")
        if self.start < 0:
            raise ValueError(f"start index must be >= 0, got {self.start}")
        vals = array("d", self.values)
        if not vals:
            raise ValueError("sequence window must be non-empty")
        if not all(map(math.isfinite, vals)):
            i = next(i for i, v in enumerate(vals) if not math.isfinite(v))
            raise ValueError(f"non-finite value at index {self.start + i}")
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def end(self) -> int:
        """Last index of the window, inclusive."""
        return self.start + len(self.values) - 1

    def at(self, n: int) -> float:
        if n < self.start or n > self.end:
            raise IndexRangeError(
                f"index {n} outside realized window [{self.start}, {self.end}]"
            )
        return self.values[n - self.start]

    def items(self) -> Iterator[tuple[int, float]]:
        """Pairs (n, x_n) in index order."""
        start = self.start
        return ((start + i, v) for i, v in enumerate(self.values))

    def window(self, lo: int, hi: int) -> "Seq":
        """Sub-window on [lo, hi], inclusive on both ends."""
        if lo > hi:
            raise IndexRangeError(f"empty sub-window [{lo}, {hi}]")
        if lo < self.start or hi > self.end:
            raise IndexRangeError(
                f"sub-window [{lo}, {hi}] not contained in [{self.start}, {self.end}]"
            )
        return Seq(lo, self.values[lo - self.start : hi - self.start + 1])

    def trailing(self, fraction: float) -> "Seq":
        """Trailing part of the window holding ceil(len * fraction) entries."""
        count = max(1, math.ceil(len(self.values) * fraction))
        return Seq(self.end - count + 1, self.values[-count:])


def seq_from_function(fn: Callable[[int], float], start: int = 1, length: int = 1) -> Seq:
    """Materialize fn on the window [start, start + length - 1]."""
    if length < 1:
        raise ValueError("length must be >= 1")
    return Seq(start, tuple(map(fn, range(start, start + length))))


#: The innermost index_power_tables scope: its last index and its tables,
#: float(n) ** e for n in [1, last] keyed by e (None: some value overflows).
#: A table holds 8-byte doubles; as a tuple of floats it would take 32 bytes
#: per value and raise the peak memory of a long run by a fifth.
_POWER_TABLES: ContextVar[tuple[int, dict[float, array | None]] | None] = ContextVar(
    "asympoly_index_power_tables", default=None
)


@contextmanager
def index_power_tables(last: int) -> Iterator[None]:
    """Serve :func:`index_powers` on [1, last] from one table per exponent.

    A table is built on the first request for its exponent and dropped when
    the scope exits.  The scope lives in a context variable, so threads
    never share it.
    """
    token = _POWER_TABLES.set((last, {}))
    try:
        yield
    finally:
        _POWER_TABLES.reset(token)


def index_powers(start: int, length: int, e: float) -> Iterator[float]:
    """float(n) ** e for n = start, ..., start + length - 1.

    e == 0 gives 1.0 for every n (as pow does, 0.0 ** 0 included) and
    builds no table.  Inside an :func:`index_power_tables` scope a window
    within [1, last] is read from the scope's table for e.  Any other
    window is computed lazily, so n = 0 with e < 0 raises
    ZeroDivisionError when it is reached.  All routes give the same floats.
    """
    if e == 0:
        return repeat(1.0, length)
    scope = _POWER_TABLES.get()
    if scope is not None and start >= 1 and start + length - 1 <= scope[0]:
        last, tables = scope
        if e not in tables:
            try:
                tables[e] = array("d", map(pow, map(float, range(1, last + 1)), repeat(e)))
            except OverflowError:  # computed per window, where it may still fit
                tables[e] = None
        table = tables[e]
        if table is not None:
            return iter(table[start - 1 : start - 1 + length])
    return map(pow, map(float, range(start, start + length)), repeat(e))


@dataclass(frozen=True)
class PolyCoeffs:
    """Coefficients of a polynomial sequence; ``coeffs[j]`` multiplies n**j.

    The empty tuple is the zero polynomial.  Evaluation is Horner order,
    highest degree first, which fixes the rounding pattern and keeps
    results bit-for-bit reproducible.
    """

    coeffs: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        vals = tuple(float(c) for c in self.coeffs)
        for j, c in enumerate(vals):
            if not math.isfinite(c):
                raise ValueError(f"non-finite coefficient at degree {j}")
        object.__setattr__(self, "coeffs", vals)

    @property
    def degree(self) -> int:
        """Highest index with a nonzero entry; -1 for the zero polynomial."""
        for j in range(len(self.coeffs) - 1, -1, -1):
            if self.coeffs[j] != 0.0:
                return j
        return -1

    def __call__(self, n: float) -> float:
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * n + c
        return acc

    def at_indices(self, start: int, length: int) -> tuple[float, ...]:
        """Values at n = start, ..., start + length - 1, each equal to self(n)."""
        ns = range(start, start + length)
        acc: Iterable[float] = repeat(0.0, length)
        for c in reversed(self.coeffs):
            acc = map(add, map(mul, acc, ns), repeat(c))
        return tuple(acc)

    def sample(self, start: int, length: int) -> Seq:
        return Seq(start, self.at_indices(start, length))

    def padded(self, degree: int) -> tuple[float, ...]:
        """Coefficients extended with zeros through the given degree."""
        if degree < len(self.coeffs) - 1:
            return self.coeffs[: degree + 1]
        return self.coeffs + (0.0,) * (degree + 1 - len(self.coeffs))


class CompensatedSum:
    """Neumaier compensated accumulator, for running sums read after each add.

    Adding values in index order gives sums whose rounding error is
    independent of magnitude ordering.  A sum of a whole window goes
    through :func:`csum` instead.
    """

    __slots__ = ("_s", "_c")

    def __init__(self, value: float = 0.0) -> None:
        self._s = float(value)
        self._c = 0.0

    def add(self, v: float) -> float:
        """Add v and return the running value, the same float as ``value``."""
        s = self._s
        t = s + v
        if abs(s) >= abs(v):
            self._c += (s - t) + v
        else:
            self._c += (v - t) + s
        self._s = t
        return t + self._c

    @property
    def value(self) -> float:
        return self._s + self._c


def csum(values: Iterable[float]) -> float:
    """Exactly rounded sum of an iterable (``math.fsum``), independent of order.

    A sum whose partial sums leave the float range is NaN, so callers that
    check the result with ``math.isfinite`` see it as divergent.
    """
    try:
        return math.fsum(values)
    except OverflowError:
        return math.nan


def line_fit(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, Iterator[float]]:
    """Least-squares line through the points (xs, ys), with exactly rounded sums.

    Returns the slope and an iterator over the residuals
    y - (mean(ys) + slope (x - mean(xs))) in input order; the slope is NaN
    when the xs do not vary.  Nothing of the size of the input is stored.
    """
    xm = csum(xs) / len(xs)
    ym = csum(ys) / len(ys)
    sxx = csum(map(pow, map(sub, xs, repeat(xm)), repeat(2)))
    if sxx:
        slope = csum(map(mul, map(sub, xs, repeat(xm)), map(sub, ys, repeat(ym)))) / sxx
    else:
        slope = math.nan
    fitted = map(add, repeat(ym), map(mul, repeat(slope), map(sub, xs, repeat(xm))))
    return slope, map(sub, ys, fitted)


def delta(x: Seq, m: int) -> Seq:
    """m-th forward difference of the window.

    Computed by iterating the first difference, so
    ``delta(delta(x, 1), m - 1)`` reproduces ``delta(x, m)`` exactly.
    The result keeps the start index and is shorter by m entries;
    ``delta(x, 0)`` is x itself.
    """
    if m < 0:
        raise ValueError("difference order must be >= 0")
    if m > MAX_DIFFERENCE_ORDER:
        raise ValueError(
            f"difference order {m} exceeds the supported maximum {MAX_DIFFERENCE_ORDER}"
        )
    if len(x) <= m:
        raise WindowLengthError(
            f"window of length {len(x)} too short for difference order {m}"
        )
    if m == 0:
        return x
    vals = x.values
    for _ in range(m):
        vals = tuple(map(sub, vals[1:], vals))
    return Seq(x.start, vals)


@dataclass(frozen=True)
class WeightedSumDiagnostic:
    partial_sum: float
    tail_estimate: float
    converged: bool


def weighted_sum_diagnostic(
    x: Seq, w: float, thresholds: Thresholds = DEFAULT_THRESHOLDS
) -> WeightedSumDiagnostic:
    """Partial sum of n**w * |x_n| with a last-quarter tail estimate.

    ``converged`` means the trailing quarter of the window contributes less
    than ``tau_tail * (1 + partial_sum)``.  This is a finite-horizon
    verdict with a declared threshold, not a convergence proof.
    """
    if len(x) < 16:
        raise WindowLengthError(f"need at least 16 entries, got {len(x)}")
    skip = 1 if x.start == 0 and w != 0.0 else 0
    tail_at = (3 * len(x)) // 4 - skip
    terms = tuple(
        map(mul, index_powers(x.start + skip, len(x) - skip, w), map(abs, x.values[skip:]))
    )
    partial = csum(terms)
    tail_part = csum(terms[tail_at:])
    return WeightedSumDiagnostic(
        partial, tail_part, tail_part < thresholds.tau_tail * (1.0 + partial)
    )


@dataclass(frozen=True)
class OrderVerdict:
    """Finite-horizon verdict for membership of x in o(n**s) / O(n**s).

    metric is the sup of |x_n|/n**s over the trailing third of the window,
    trend its ratio against the middle-third sup, and bound the sup over
    the first two thirds (the big-O reference level).
    """

    kind: str  # "small_o" | "big_O" | "neither"
    exponent: float
    metric: float
    trend: float
    bound: float
    excluded_zero: bool = False

    @property
    def is_small_o(self) -> bool:
        return self.kind == "small_o"


def order_estimate(
    x: Seq,
    s: float,
    thresholds: Thresholds = DEFAULT_THRESHOLDS,
    noise_scale: float | None = None,
) -> OrderVerdict:
    """Order-of-growth verdict for x against the scale n**s.

    small_o: trailing-third sup of |x_n|/n**s below ``tau_small`` and
    decreased versus the middle third.  big_O: trailing sup within
    ``big_o_slack`` of the sup over the first two thirds.  Deterministic
    given the window and thresholds.  Index 0 is skipped (and flagged)
    whenever s != 0.

    ``noise_scale``, when given, is the rounding resolution of the data x
    was derived from: a window whose trailing values sit at or below that
    resolution is certified small_o directly (trend reported as 0), since
    no trend measured on quantization noise is meaningful.
    """
    if len(x) < 32:
        raise WindowLengthError(f"need at least 32 entries, got {len(x)}")
    excluded = x.start == 0 and s != 0.0
    skip = 1 if excluded else 0
    count = len(x) - skip
    start = x.end - count + 1
    third = count // 3
    mags = map(abs, islice(x.values, skip, None))
    ratios = mags if s == 0.0 else map(truediv, mags, index_powers(start, count, s))
    # One pass, no copy: the part before the middle third, the middle third,
    # then the trailing third.
    lead_sup = max(islice(ratios, count - 2 * third))
    mid_sup = max(islice(ratios, third))
    metric = max(ratios)
    early_sup = max(lead_sup, mid_sup)
    if (
        noise_scale is not None
        and max(map(abs, x.values[len(x) - third :])) <= noise_scale
        and metric < thresholds.tau_small
    ):
        return OrderVerdict("small_o", s, metric, 0.0, early_sup, excluded)
    if mid_sup > 0.0:
        trend = metric / mid_sup
    elif metric == 0.0:
        trend = 0.0
    else:
        trend = math.inf
    small = metric < thresholds.tau_small and trend < 1.0
    big = metric <= early_sup * (1.0 + thresholds.big_o_slack)
    kind = "small_o" if small else ("big_O" if big else "neither")
    return OrderVerdict(kind, s, metric, trend, early_sup, excluded)


#: Labels classify_oscillation may grant.
OSCILLATION_LABELS = (
    "nonoscillatory",
    "k_nonoscillatory",
    "uk_nonoscillatory",
    "oscillatory",
)


def _any_negative(values: Iterable[float]) -> bool:
    return any(map(lt, values, repeat(0.0)))


def classify_oscillation(
    x: Seq, u: Seq, k: int, thresholds: Thresholds = DEFAULT_THRESHOLDS
) -> frozenset[str]:
    """Sign-pattern labels of x relative to the shift k and weight u.

    Each nonoscillation label is granted iff its defining sign condition
    holds at every n in the trailing half of the common window on which
    x_n, x_{n+1}, x_{n+k} and u_n all exist; ``oscillatory`` is the
    complement of ``nonoscillatory``.
    """
    lo = max(x.start, u.start, x.start - k)
    hi = min(x.end - 1, u.end, x.end - k)
    if lo > hi:
        raise WindowLengthError(
            f"x window [{x.start}, {x.end}] and u window [{u.start}, {u.end}] "
            f"do not overlap sufficiently for shift k={k}"
        )
    count = hi - lo + 1
    tail_lo = hi - max(1, math.ceil(count * thresholds.trail_fraction)) + 1
    # A trail longer than the window (trail_fraction > 1) reaches before
    # lo; reading its first row through at() raises IndexRangeError.
    x.at(tail_lo), x.at(tail_lo + 1), x.at(tail_lo + k), u.at(tail_lo)
    width = hi - tail_lo + 1

    def window_from(seq: Seq, n: int) -> tuple[float, ...]:
        return seq.values[n - seq.start : n - seq.start + width]

    xn, xn1, xnk = window_from(x, tail_lo), window_from(x, tail_lo + 1), window_from(x, tail_lo + k)
    un = window_from(u, tail_lo)
    non = not _any_negative(map(mul, xn, xn1))
    k_non = not _any_negative(map(mul, xn, xnk))
    uk_non = not _any_negative(map(mul, map(mul, xn, un), xnk))
    labels = set()
    if non:
        labels.add("nonoscillatory")
    else:
        labels.add("oscillatory")
    if k_non:
        labels.add("k_nonoscillatory")
    if uk_non:
        labels.add("uk_nonoscillatory")
    return frozenset(labels)
