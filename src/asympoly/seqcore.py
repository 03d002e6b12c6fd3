"""Finite-difference calculus on realized sequence windows.

This is the vocabulary the rest of the package speaks: finite windows of
real sequences with an explicit start index, polynomial sequences,
exactly rounded window sums, and the finite-horizon order-of-growth
diagnostics.  Every operation is a pure function of immutable inputs, so
values can be shared freely between threads.

Conventions fixed once here and reused everywhere:

* "for large n" means: for every n in the trailing half of the realized
  common window, whose length is :func:`trail_length`;
* a small-o verdict at exponent s requires the trailing-third sup of
  |x_n|/n**s to be below ``TAU_SMALL`` *and* to have decreased against the
  middle third;
* window sums are exactly rounded (``math.fsum``), so they do not depend
  on the order of the terms and diagnostics are reproducible;
* every window starts at index 1 or later (:class:`Seq` rejects a lower
  start), so every n**s weight is defined.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from itertools import islice, repeat
from operator import add, lt, mul, sub, truediv
from typing import Iterable, Iterator, Sequence

from .errors import WindowLengthError

#: Difference orders above this are rejected everywhere in the package.
MAX_DIFFERENCE_ORDER = 20
#: Fraction of a window that "for large n" refers to: its trailing half.
TRAIL_FRACTION = 0.5
#: Values moved per step by :func:`fill_array`.
FILL_CHUNK = 4096

# The three certification gates, read by :func:`order_estimate` and
# :func:`weighted_sum_diagnostic` when they are called.  The windows those
# diagnostics read are conventions, not gates: "for large n" is the
# trailing half (TRAIL_FRACTION), coefficient means read the trailing
# eighth (``decomp.COEFF_WINDOW_FRACTION``), and the level at which a
# window counts as rounding noise is derived from the data
# (``order_estimate``'s noise_scale).
#: Trailing-third sup bound for a small-o verdict.
TAU_SMALL = 0.05
#: Relative tail bound below which a weighted sum counts as converged.
TAU_TAIL = 1e-3
#: Allowed relative excess of the trailing sup over the earlier sup before
#: a big-O verdict is withheld.
BIG_O_SLACK = 0.02


def trail_length(n: int) -> int:
    """Length of the trailing half (TRAIL_FRACTION) of n entries: ceil(n / 2), at least 1."""
    return max(1, math.ceil(n * TRAIL_FRACTION))


def fill_array(values: Iterable[float]) -> array:
    """A new ``array('d')`` holding the values in order.

    An array, list or tuple is copied in one call.  Any other iterable
    (a lazy ``map``, say) is read FILL_CHUNK values at a time into a list
    that ``fromlist`` appends: ``array('d', it)`` would append it one
    value at a time, which costs more, and a list of the whole input
    would hold a boxed float per value.  The extra memory is one chunk.
    """
    if isinstance(values, (array, list, tuple)):
        return array("d", values)
    out = array("d")
    it = iter(values)
    while True:
        chunk = list(islice(it, FILL_CHUNK))
        out.fromlist(chunk)
        if len(chunk) < FILL_CHUNK:
            return out


@dataclass(frozen=True)
class Seq:
    """A realized window of a real sequence.

    ``values[i]`` is the entry at index ``start + i``, and ``start`` is at
    least 1, as the paper's sequences are indexed from 1.  The constructor
    takes any iterable of reals (a lazy ``map`` included, so no caller
    builds a tuple first) and stores its own ``array('d')`` copy, 8 bytes
    per entry, so later changes to the source do not reach the window;
    treat ``values`` as read-only.  An iterator is copied a chunk at a
    time (:func:`fill_array`): cheaper than appending value by value, and
    only one chunk of boxed floats is alive at once.  Entries are finite
    floats: the window is summed once, and only a sum that is not finite
    triggers the entry-by-entry scan, which rejects the first NaN or
    infinity and accepts a window of finite values whose sum merely
    overflows.  An array is unhashable, so a Seq is too; nothing in the
    package or the benchmark hashes one.
    """

    start: int
    values: array

    def __post_init__(self) -> None:
        if not isinstance(self.start, int) or isinstance(self.start, bool):
            raise ValueError(f"start index must be an integer, got {self.start!r}")
        if self.start < 1:
            raise ValueError(f"start index must be >= 1, got {self.start}")
        vals = fill_array(self.values)
        if not vals:
            raise ValueError("sequence window must be non-empty")
        # A NaN or an infinity makes the sum non-finite; finite values can too,
        # by overflow, so the sum only decides whether to scan.
        if not math.isfinite(sum(vals)):
            bad = next((i for i, v in enumerate(vals) if not math.isfinite(v)), None)
            if bad is not None:
                raise ValueError(f"non-finite value at index {self.start + bad}")
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def end(self) -> int:
        """Last index of the window, inclusive."""
        return self.start + len(self.values) - 1

    def trailing(self) -> "Seq":
        """The trailing half of the window: its last trail_length(len) entries."""
        count = trail_length(len(self.values))
        return Seq(self.end - count + 1, self.values[-count:])


def index_powers(start: int, length: int, e: float) -> Iterator[float]:
    """float(n) ** e for n = start, ..., start + length - 1, computed as they are read.

    e == 0 gives 1.0 for every n, as pow does (0.0 ** 0 included).  Any
    other power is computed when it is reached, so n = 0 with e < 0 raises
    ZeroDivisionError and a power past the float range raises
    OverflowError there.
    """
    if e == 0:
        return repeat(1.0, length)
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

    def at_indices(self, start: int, length: int) -> Iterator[float]:
        """Values at n = start, ..., start + length - 1, each equal to self(n)
        for n >= 0 (a window's indices), computed as they are read."""
        if not self.coeffs:
            return repeat(0.0, length)
        ns = range(start, start + length)
        # Horner's first level, 0.0 * n + c, is 0.0 + c at every n >= 0.
        acc: Iterable[float] = repeat(0.0 + self.coeffs[-1], length)
        for c in reversed(self.coeffs[:-1]):
            acc = map(add, map(mul, acc, ns), repeat(c))
        return iter(acc)

    def padded(self, degree: int) -> tuple[float, ...]:
        """Coefficients extended with zeros through the given degree."""
        if degree < len(self.coeffs) - 1:
            return self.coeffs[: degree + 1]
        return self.coeffs + (0.0,) * (degree + 1 - len(self.coeffs))


def csum(values: Iterable[float]) -> float:
    """Exactly rounded sum of an iterable (``math.fsum``), independent of order.

    A sum whose partial sums leave the float range is NaN, so callers that
    check the result with ``math.isfinite`` see it as divergent.
    """
    try:
        return math.fsum(values)
    except OverflowError:
        return math.nan


def line_fit(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Slope of the least-squares line through the points (xs, ys), with
    exactly rounded sums; NaN when the xs do not vary."""
    xm = csum(xs) / len(xs)
    ym = csum(ys) / len(ys)
    sxx = csum(map(pow, map(sub, xs, repeat(xm)), repeat(2)))
    if not sxx:
        return math.nan
    return csum(map(mul, map(sub, xs, repeat(xm)), map(sub, ys, repeat(ym)))) / sxx


def delta(x: Seq, m: int) -> Seq:
    """m-th forward difference of the window.

    Computed by iterating the first difference, so
    ``delta(delta(x, 1), m - 1)`` and ``delta(delta(x, m - 1), 1)``
    reproduce ``delta(x, m)`` exactly.  The result keeps the start index
    and is shorter by m entries; ``delta(x, 0)`` is x itself.
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
    for _ in range(m - 1):
        vals = fill_array(map(sub, vals[1:], vals))
    return Seq(x.start, map(sub, vals[1:], vals))


@dataclass(frozen=True)
class WeightedSumDiagnostic:
    partial_sum: float
    tail_estimate: float
    converged: bool


def weighted_sum_diagnostic(x: Seq, w: float) -> WeightedSumDiagnostic:
    """Partial sum of n**w * |x_n| with a last-quarter tail estimate.

    ``converged`` means the trailing quarter of the window contributes less
    than ``TAU_TAIL * (1 + partial_sum)``.  This is a finite-horizon
    verdict with a declared threshold, not a convergence proof.
    """
    if len(x) < 16:
        raise WindowLengthError(f"need at least 16 entries, got {len(x)}")
    vals = x.values

    def weighted_sum(lo: int) -> float:
        """Exact sum of the terms from window position lo on."""
        mags = map(abs, vals[lo:])
        if w == 0.0:  # n**0 is 1.0, and 1.0 * |x_n| is |x_n|
            return csum(mags)
        return csum(map(mul, index_powers(x.start + lo, len(vals) - lo, w), mags))

    partial = weighted_sum(0)
    tail_part = weighted_sum((3 * len(vals)) // 4)
    return WeightedSumDiagnostic(
        partial, tail_part, tail_part < TAU_TAIL * (1.0 + partial)
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

    @property
    def is_small_o(self) -> bool:
        return self.kind == "small_o"


def order_estimate(
    x: Seq,
    s: float,
    *,
    noise_scale: float | None = None,
) -> OrderVerdict:
    """Order-of-growth verdict for x against the scale n**s.

    small_o: trailing-third sup of |x_n|/n**s below ``TAU_SMALL`` and
    decreased versus the middle third.  big_O: trailing sup within
    ``BIG_O_SLACK`` of the sup over the first two thirds.  Deterministic
    given the window.

    ``noise_scale``, when given, is the rounding resolution of the data x
    was derived from: a window whose trailing values sit at or below that
    resolution is certified small_o directly (trend reported as 0), since
    no trend measured on quantization noise is meaningful.
    """
    if len(x) < 32:
        raise WindowLengthError(f"need at least 32 entries, got {len(x)}")
    count = len(x)
    third = count // 3
    mags = map(abs, x.values)
    ratios = mags if s == 0.0 else map(truediv, mags, index_powers(x.start, count, s))
    # One pass, no copy: the part before the middle third, the middle third,
    # then the trailing third.
    lead_sup = max(islice(ratios, count - 2 * third))
    mid_sup = max(islice(ratios, third))
    metric = max(ratios)
    early_sup = max(lead_sup, mid_sup)
    if (
        noise_scale is not None
        and max(map(abs, x.values[len(x) - third :])) <= noise_scale
        and metric < TAU_SMALL
    ):
        return OrderVerdict("small_o", s, metric, 0.0, early_sup)
    if mid_sup > 0.0:
        trend = metric / mid_sup
    elif metric == 0.0:
        trend = 0.0
    else:
        trend = math.inf
    small = metric < TAU_SMALL and trend < 1.0
    big = metric <= early_sup * (1.0 + BIG_O_SLACK)
    kind = "small_o" if small else ("big_O" if big else "neither")
    return OrderVerdict(kind, s, metric, trend, early_sup)


def _any_negative(values: Iterable[float]) -> bool:
    return any(map(lt, values, repeat(0.0)))


def classify_oscillation(x: Seq, u: Seq, k: int) -> frozenset[str]:
    """Sign-pattern labels of x relative to the shift k and weight u.

    Each nonoscillation label is granted iff its defining sign condition
    holds at every n in the trailing half (:func:`trail_length`) of the common
    window on which x_n, x_{n+1}, x_{n+k} and u_n all exist;
    ``oscillatory`` is the complement of ``nonoscillatory``.  No
    threshold enters.
    """
    lo = max(x.start, u.start, x.start - k)
    hi = min(x.end - 1, u.end, x.end - k)
    if lo > hi:
        raise WindowLengthError(
            f"x window [{x.start}, {x.end}] and u window [{u.start}, {u.end}] "
            f"do not overlap sufficiently for shift k={k}"
        )
    width = trail_length(hi - lo + 1)
    tail_lo = hi - width + 1

    def window_from(seq: Seq, n: int) -> array:
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
