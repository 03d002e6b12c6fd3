"""Closed-form catalogs for the equation building blocks.

Every right-hand side f(t), majorant g, delay map sigma and coefficient
generator used anywhere in the package is drawn from the fixed tables
below, one per family.  There is deliberately no expression interpreter:
extending the catalog is a code change, which keeps runs deterministic
and testable.  ``asympoly catalog`` lists every identifier with its
parameters and their rules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from itertools import cycle, islice, repeat
from operator import add, floordiv, mul
from typing import Callable, Iterable, Mapping

from .errors import CatalogError, brief, finite_number, integer
from .seqcore import Seq


@dataclass(frozen=True)
class CatalogRef:
    """A catalog identifier plus its numeric parameters."""

    id: str
    params: Mapping[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Entry:
    """One catalog identifier: its parameters, their rule and its builder.

    ``build`` takes the parameter values in ``params`` order and returns
    the fields that follow ``ref`` in the family's entry class.  ``rule``
    is (parameter, predicate, rule text), checked before building;
    ``integers`` names the parameters that must be integers.
    """

    params: tuple[str, ...]
    build: Callable[..., tuple]
    rule: tuple[str, Callable[[float], bool], str] | None = None
    integers: tuple[str, ...] = ()

    def schema(self) -> str:
        """The listing text: parameter names, integer flags and the rule."""
        names = ", ".join(p + " (integer)" * (p in self.integers) for p in self.params)
        rule = f"; {self.rule[2]}" if self.rule else ""
        return (names or "-") + rule


def _param(ref: CatalogRef, name: str, is_integer: bool) -> float:
    if name not in ref.params:
        raise CatalogError(f"catalog entry {ref.id!r} requires parameter {name!r}")
    value, subject = ref.params[name], f"parameter {name!r} of {ref.id!r}"
    number = finite_number(value, subject, CatalogError)
    return integer(value, subject, CatalogError) if is_integer else number


def _build(table: Mapping[str, Entry], family: str, ref: CatalogRef) -> tuple:
    """Validate ref against its table entry and return the built fields."""
    entry = table.get(ref.id)
    if entry is None:
        raise CatalogError(f"unknown {family} identifier {ref.id!r}")
    extra = set(ref.params) - set(entry.params)
    if extra:
        raise CatalogError(
            f"unknown parameter(s) {sorted(extra)} for catalog entry {ref.id!r}"
        )
    values = [_param(ref, name, name in entry.integers) for name in entry.params]
    if entry.rule is not None:
        name, holds, text = entry.rule
        value = values[entry.params.index(name)]
        if not holds(value):
            raise CatalogError(f"{ref.id} needs {text}, got {brief(value)}")
    return entry.build(*values)


@dataclass(frozen=True)
class RhsFunction:
    """Catalog entry for the right-hand side f; ``bound`` is sup |f|, inf if unbounded.

    The paper's f(n, t) may depend on n; no catalog entry does, so f is a
    function of t alone.  An entry that reads n would bring back the
    argument, and the n scan of ``hypotheses.check_g_p_bounded`` with it.
    """

    ref: CatalogRef
    fn: Callable[[float], float]
    bound: float

    def __call__(self, t: float) -> float:
        return self.fn(t)


F_TABLE = {
    "sigmoid": Entry((), lambda: (lambda t: t / (1.0 + t * t), 0.5)),
    "arctan": Entry((), lambda: (math.atan, math.pi / 2)),
    "power_sgn": Entry(
        ("gamma",),
        lambda gamma: (lambda t: math.copysign(abs(t) ** gamma, t) if t else 0.0, math.inf),
        ("gamma", lambda v: 0.0 < v <= 1.0, "0 < gamma <= 1"),
    ),
    "linear": Entry((), lambda: (lambda t: t, math.inf)),
    "bounded_sin": Entry((), lambda: (math.sin, 1.0)),
}


def make_f(ref: CatalogRef) -> RhsFunction:
    return RhsFunction(ref, *_build(F_TABLE, "f", ref))


@dataclass(frozen=True)
class Majorant:
    """Catalog entry for the nondecreasing majorant g.

    Every catalog majorant is nondecreasing and locally bounded by
    construction, so neither is a field.  ``integral_diverges`` states
    whether the integral of 1/g diverges as t grows without bound, and
    ``recip_primitive(lam, t)`` is its exact value over [lam, t].
    """

    ref: CatalogRef
    fn: Callable[[float], float]
    integral_diverges: bool
    recip_primitive: Callable[[float, float], float]

    def __call__(self, t: float) -> float:
        return self.fn(t)


def _power_majorant(gamma: float) -> tuple:
    def primitive(lam: float, t: float) -> float:
        if gamma == 1.0:
            return math.log(t / lam)
        return (t ** (1.0 - gamma) - lam ** (1.0 - gamma)) / (1.0 - gamma)

    return lambda t: t**gamma, gamma <= 1.0, primitive


def _affine_majorant(alpha: float, beta: float) -> tuple:
    def primitive(lam: float, t: float) -> float:
        if alpha == 0.0:
            return (t - lam) / beta
        return (math.log(alpha * t + beta) - math.log(alpha * lam + beta)) / alpha

    return lambda t: alpha * t + beta, True, primitive


G_TABLE = {
    "identity": Entry((), lambda: (lambda t: t, True, lambda lam, t: math.log(t / lam))),
    "power": Entry(("gamma",), _power_majorant, ("gamma", lambda v: v > 0.0, "gamma > 0")),
    "affine": Entry(
        ("alpha", "beta"), _affine_majorant, ("alpha", lambda v: v >= 0.0, "alpha >= 0")
    ),
    "constant": Entry(
        ("value",),
        lambda value: (lambda t: value, True, lambda lam, t: (t - lam) / value),
        ("value", lambda v: v > 0.0, "value > 0"),
    ),
}


def make_g(ref: CatalogRef) -> Majorant:
    return Majorant(ref, *_build(G_TABLE, "g", ref))


def _indices(start: int, length: int) -> range:
    return range(start, start + length)


def _delay(d: int, start: int, length: int) -> range:
    return _indices(start - d, length)


def _half(start: int, length: int) -> Iterable[int]:
    return map(floordiv, _indices(start, length), repeat(2))


def _floor_log(start: int, length: int) -> Iterable[int]:
    return map(math.floor, map(math.log, _indices(start, length)))


@dataclass(frozen=True)
class DelayMap:
    """Catalog entry for the delay sigma: index -> index.

    ``window(start, length)`` gives sigma(n) for n = start, ...,
    start + length - 1.  It is the entry's one formula.  Every catalog
    delay is nondecreasing and sigma(n) - n never increases, so the first
    step of a run decides its causality, and sigma(n0) - n0 is the largest
    sigma(n) - n.
    """

    ref: CatalogRef
    window: Callable[[int, int], Iterable[int]]


SIGMA_TABLE = {
    "identity": Entry((), lambda: (_indices,)),
    "delay_d": Entry(("d",), lambda d: (partial(_delay, d),), integers=("d",)),
    "half": Entry((), lambda: (_half,)),
    "floor_log": Entry((), lambda: (_floor_log,)),
}


def make_sigma(ref: CatalogRef) -> DelayMap:
    return DelayMap(ref, *_build(SIGMA_TABLE, "sigma", ref))


@dataclass(frozen=True)
class SeqGenerator:
    """Catalog entry for a coefficient sequence (u, a or b), with its limit
    and its decay exponent.

    ``window(start, length)`` gives the values at n = start, ...,
    start + length - 1 through C-level maps.  It is the entry's one
    formula: a single index is read through it too.  ``decay`` is the
    exponent rho with |v_n - limit| = |A| n**-rho (``power``,
    ``alt_power``, ``power_offset``), and ``math.inf`` when v_n - limit
    decays faster than every power (``constant``, ``geometric``, a zero
    amplitude).  The summability and u-rate hypotheses read it.
    """

    ref: CatalogRef
    window: Callable[[int, int], Iterable[float]]
    limit: float
    decay: float

    def __call__(self, n: int) -> float:
        return next(iter(self.window(n, 1)))

    def sample(self, start: int, length: int) -> Seq:
        return Seq(start, self.window(start, length))


def _constant(value: float, start: int, length: int) -> Iterable[float]:
    return repeat(value, length)


def _inverse_powers(rho: float, start: int, length: int) -> Iterable[float]:
    """float(n) ** -rho."""
    return map(pow, map(float, _indices(start, length)), repeat(-rho))


def _power(amp: float, rho: float, start: int, length: int) -> Iterable[float]:
    """amp * float(n) ** -rho."""
    return map(mul, repeat(amp), _inverse_powers(rho, start, length))


def _power_offset(c: float, amp: float, rho: float, start: int, length: int) -> Iterable[float]:
    """c + amp * float(n) ** -rho."""
    return map(add, repeat(c), _power(amp, rho, start, length))


def _alt_power(amp: float, rho: float, start: int, length: int) -> Iterable[float]:
    """amp * (1.0 if n is even else -1.0) * float(n) ** -rho (amp * -1.0 is -amp exactly)."""
    signed = islice(cycle((amp, -amp) if start % 2 == 0 else (-amp, amp)), length)
    return map(mul, signed, _inverse_powers(rho, start, length))


def _geometric(amp: float, ratio: float, start: int, length: int) -> Iterable[float]:
    """amp * ratio ** n."""
    return map(mul, repeat(amp), map(pow, repeat(ratio), _indices(start, length)))


def _decay(amp: float, rho: float) -> float:
    """The decay exponent of amp * n**-rho: rho, or inf for a zero amplitude."""
    return rho if amp else math.inf


def _power_offset_entry(c: float, amp: float, rho: float) -> tuple:
    """The power_offset fields; a finite c + A keeps c + A n**-rho finite for every n >= 1."""
    if not math.isfinite(c + amp):
        raise CatalogError(f"power_offset needs a finite c + A, got c={brief(c)}, A={brief(amp)}")
    return partial(_power_offset, c, amp, rho), c, _decay(amp, rho)


_RHO_RULE = ("rho", lambda v: v > 0.0, "rho > 0")

GENERATOR_TABLE = {
    "constant": Entry(("value",), lambda value: (partial(_constant, value), value, math.inf)),
    "power_offset": Entry(("c", "A", "rho"), _power_offset_entry, _RHO_RULE),
    "power": Entry(
        ("A", "rho"), lambda amp, rho: (partial(_power, amp, rho), 0.0, _decay(amp, rho)), _RHO_RULE
    ),
    "alt_power": Entry(
        ("A", "rho"),
        lambda amp, rho: (partial(_alt_power, amp, rho), 0.0, _decay(amp, rho)),
        _RHO_RULE,
    ),
    "geometric": Entry(
        ("A", "ratio"),
        lambda amp, ratio: (partial(_geometric, amp, ratio), 0.0, math.inf),
        ("ratio", lambda v: 0.0 < v < 1.0, "0 < ratio < 1"),
    ),
}


def make_generator(ref: CatalogRef) -> SeqGenerator:
    return SeqGenerator(ref, *_build(GENERATOR_TABLE, "generator", ref))


#: (listing title, table) of every family, in listing order.
FAMILIES = (
    ("f (right-hand side)", F_TABLE),
    ("g (majorant)", G_TABLE),
    ("sigma (delay)", SIGMA_TABLE),
    ("u/a/b (generators)", GENERATOR_TABLE),
)


def catalog_listing() -> str:
    """Stable, alphabetically ordered listing of every catalog identifier."""
    lines = []
    for title, table in FAMILIES:
        lines.append(f"{title}:")
        for name in sorted(table):
            lines.append(f"  {name:<14} params: {table[name].schema()}")
    return "\n".join(lines) + "\n"
