"""Build, validate and simulate neutral difference equations.

The equation advanced here is, in terms of the associated sequence
z_n = x_n + u_n x_{n+k},

    (m-th difference of z at n) = a_n f(n, x_{sigma(n)}) + b_n

with u_n -> c, |c| != 1.  The simulator fixes the start at
n0 = max(1, 1 - k, m), requires seeds exactly there, advances z with the
binomial expansion of the m-th difference, and extends x by inverting the
neutral relation.  The inversion is only forward-stable when k <= 0 with
|c| < 1, k >= 0 with |c| > 1, or k == 0; outside those regimes any seed
or rounding error is amplified each step and the run ends in a
DivergenceError - an inherent property of the recursion (x = 2**n with
u = -1/2, k = 1 gives z identically 0), not a solver defect.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from itertools import count
from typing import Iterable, MutableSequence, Sequence

from .catalog import (
    CatalogRef,
    DelayMap,
    Majorant,
    RhsFunction,
    SeqGenerator,
    make_f,
    make_g,
    make_generator,
    make_sigma,
)
from .errors import (
    CatalogError,
    CausalityError,
    ConfigError,
    DivergenceError,
    SeedError,
    SingularRecoveryError,
    WindowLengthError,
)
from .seqcore import MAX_DIFFERENCE_ORDER, Seq

#: |x| or |z| beyond this aborts a run with DivergenceError.
DIVERGENCE_LIMIT = 1e300
#: |u_n| (k > 0) or |1 + u_n| (k == 0) below this is a singular recovery.
SINGULAR_GUARD = 1e-9
#: ||c| - 1| must exceed this margin.
UNIT_MARGIN = 1e-6
#: Tolerance of the post-simulation z = x + u x_{+k} re-verification.
RELATION_RTOL = 1e-9


def _is_int(value: object) -> bool:
    """True for an int that is not a bool (True would otherwise read as 1)."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class EquationSpec:
    """Full description of one equation instance.

    All functional ingredients are catalog references; ``s`` is the target
    smallness exponent of the asymptotic decomposition and ``q``, when set,
    selects the regular (iterated-difference) form of the conclusion.
    """

    m: int
    k: int
    c: float
    u: CatalogRef
    a: CatalogRef
    b: CatalogRef
    f: CatalogRef
    g: CatalogRef
    sigma: CatalogRef
    s: float
    q: int | None = None
    #: The catalog entries, built once from the references above.
    rt: Runtime = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not _is_int(self.m) or self.m < 1:
            raise ConfigError(f"field m: difference order must be an integer >= 1, got {self.m!r}")
        if self.m > MAX_DIFFERENCE_ORDER:
            raise ConfigError(f"field m: order {self.m} exceeds supported maximum {MAX_DIFFERENCE_ORDER}")
        if not _is_int(self.k):
            raise ConfigError(f"field k: neutral shift must be an integer, got {self.k!r}")
        for name in ("c", "s"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
                raise ConfigError(f"field {name}: must be a finite number, got {value!r}")
        if abs(abs(self.c) - 1.0) <= UNIT_MARGIN:
            raise ConfigError(f"field c: |c| must differ from 1 by more than {UNIT_MARGIN}, got c={self.c}")
        if self.s > self.m - 1 + 1e-12:
            raise ConfigError(f"field s: need s <= m - 1 = {self.m - 1}, got {self.s}")
        if self.q is not None:
            if not _is_int(self.q) or not 0 <= self.q <= self.m - 1:
                raise ConfigError(f"field q: need an integer in [0, {self.m - 1}], got {self.q!r}")
        object.__setattr__(self, "rt", runtime(self))
        if abs(self.rt.u.limit - self.c) > 1e-12 * (1.0 + abs(self.c)):
            raise ConfigError(
                f"field u: generator limit {self.rt.u.limit} inconsistent with c={self.c}"
            )


@dataclass(frozen=True)
class Runtime:
    """Concrete callables built from an EquationSpec's catalog references."""

    u: SeqGenerator
    a: SeqGenerator
    b: SeqGenerator
    f: RhsFunction
    g: Majorant
    sigma: DelayMap


def runtime(spec: EquationSpec) -> Runtime:
    """Build every catalog entry of spec; an invalid one names its spec field."""
    makers = {
        "u": make_generator,
        "a": make_generator,
        "b": make_generator,
        "f": make_f,
        "g": make_g,
        "sigma": make_sigma,
    }
    built = {}
    for name, make in makers.items():
        try:
            built[name] = make(getattr(spec, name))
        except CatalogError as exc:
            raise CatalogError(f"field {name}: {exc}") from None
    return Runtime(**built)


def start_index(spec: EquationSpec) -> int:
    """First z index of a simulation: n0 = max(1, 1 - k, m)."""
    return max(1, 1 - spec.k, spec.m)


def x_start_index(spec: EquationSpec) -> int:
    """First x index of a simulation (n0 + k when k < 0, else n0)."""
    return start_index(spec) + min(spec.k, 0)


@dataclass(frozen=True)
class CoefficientSamples:
    """u, a, b and sigma, each evaluated once per run at every index it is read.

    ``u[n - 1]`` is u_n for n in [1, end of x]; ``a[n - 1]`` and
    ``b[n - 1]`` are a_n and b_n for n in [1, N]; ``sigma[n - n0]`` is
    sigma(n) for n in [n0, N].  u, a and b are stored as ``array('d')``
    and sigma as ``array('q')``, 8 bytes a value, holding exactly what the
    catalog windows give (sigma stays a list when a value does not fit
    64 bits).  They are read-only: the run's checks read them after
    simulate has stepped with them.
    """

    u: array
    a: array
    b: array
    sigma: Sequence[int]


def sample_coefficients(spec: EquationSpec, N: int) -> CoefficientSamples:
    """Evaluate u, a, b and sigma once on the windows a run to horizon N reads."""
    rt = spec.rt
    n0 = start_index(spec)
    try:
        sigma: Sequence[int] = array("q", rt.sigma.window(n0, N - n0 + 1))
    except OverflowError:
        # An index beyond 64 bits fails the causality check; keep a list.  The
        # failed array may have consumed part of the window, so sample it anew.
        sigma = list(rt.sigma.window(n0, N - n0 + 1))
    return CoefficientSamples(
        u=array("d", rt.u.window(1, N + max(spec.k, 0))),
        a=array("d", rt.a.window(1, N)),
        b=array("d", rt.b.window(1, N)),
        sigma=sigma,
    )


@dataclass(frozen=True)
class SolutionTrace:
    """Simulated solution: x, z, the horizon, the n0 the run was seeded at,
    and the coefficient samples the run stepped with (which the hypothesis
    checks read instead of evaluating the catalog again)."""

    x: Seq
    z: Seq
    horizon: int
    start: int
    samples: CoefficientSamples


def z_from_x(x: Seq, u: Seq, k: int) -> Seq:
    """Associated sequence z_n = x_n + u_n x_{n+k} on the largest valid window."""
    lo = max(x.start, u.start, x.start - k, 0, -k)
    hi = min(x.end, u.end, x.end - k)
    if lo > hi:
        raise WindowLengthError(
            f"x window [{x.start}, {x.end}] and u window [{u.start}, {u.end}] "
            f"leave no valid index for shift k={k}"
        )
    return Seq(lo, tuple(x.at(n) + u.at(n) * x.at(n + k) for n in range(lo, hi + 1)))


def _recover_x(x_vals: MutableSequence[float], k: int, n: int, zn: float, un: float) -> float:
    """Append the x value that z_n unlocks, inverting z_n = x_n + u_n x_{n+k}.

    That value is x_n for k <= 0 and x_{n+k} for k > 0.  x_vals holds the
    x values recovered so far, so the one read back (x_{n+k} for k < 0,
    x_n for k > 0) is x_vals[-|k|].
    """
    if k < 0:
        xv = zn - un * x_vals[k]
    elif k == 0:
        den = 1.0 + un
        if abs(den) <= SINGULAR_GUARD:
            raise SingularRecoveryError(f"1 + u_n = {den!r} at index {n} is below the singularity guard")
        xv = zn / den
    else:
        if abs(un) <= SINGULAR_GUARD:
            raise SingularRecoveryError(f"u_n = {un!r} at index {n} is below the singularity guard")
        xv = (zn - x_vals[-k]) / un
    x_vals.append(xv)
    return xv


def x_from_z(z: Seq, u: Seq, k: int, seed: Seq | None = None) -> Seq:
    """Recover x from z = x + u x_{+k} by forward recursion.

    k < 0 needs a seed on [z.start + k, z.start - 1]; k > 0 needs a seed on
    [z.start, z.start + k - 1] and u bounded away from 0; k == 0 needs no
    seed and 1 + u bounded away from 0.  Round-trips z_from_x up to
    floating error on stable configurations.
    """
    if u.start > z.start or u.end < z.end:
        raise WindowLengthError(
            f"u window [{u.start}, {u.end}] does not cover z window [{z.start}, {z.end}]"
        )
    if k == 0:
        if seed is not None:
            raise SeedError("k=0 recovery takes no seed")
    elif seed is None:
        raise SeedError(f"recovery with k={k} requires a seed window")
    else:
        lo = z.start + min(k, 0)
        if seed.start != lo or len(seed) != abs(k):
            raise SeedError(
                f"k={k} recovery needs seed exactly on [{lo}, {lo + abs(k) - 1}], "
                f"got [{seed.start}, {seed.end}]"
            )
    vals = [] if seed is None else list(seed.values)
    for n, zn, un in zip(count(z.start), z.values, u.values[z.start - u.start :]):
        _recover_x(vals, k, n, zn, un)
    return Seq(z.start + min(k, 0), vals)


def consistent_seeds(spec: EquationSpec, profile: Seq) -> tuple[Seq | None, Seq]:
    """Build (x_seed, z_seed) from an initial stretch of x values.

    The profile must cover exactly the x indices that determine the z
    seeds: [n0 + k, n0 + m - 1] for k <= 0 and [n0, n0 + m + k - 1] for
    k > 0.  The z seeds are computed through the neutral relation, so the
    pair is consistent by construction.
    """
    u = spec.rt.u
    n0 = start_index(spec)
    m, k = spec.m, spec.k
    lo = n0 + min(k, 0)
    hi = n0 + m - 1 + max(k, 0)
    if profile.start != lo or profile.end != hi:
        raise SeedError(
            f"seed profile must cover exactly [{lo}, {hi}], got [{profile.start}, {profile.end}]"
        )
    z_vals = tuple(
        profile.at(n) + u(n) * profile.at(n + k) for n in range(n0, n0 + m)
    )
    z_seed = Seq(n0, z_vals)
    if k > 0:
        x_seed: Seq | None = profile.window(n0, n0 + k - 1)
    elif k < 0:
        x_seed = profile.window(n0 + k, n0 - 1)
    else:
        x_seed = None
    return x_seed, z_seed


def _check_causality(spec: EquationSpec, N: int, sigma: Iterable[int]) -> None:
    """Raise CausalityError at the first step whose sigma(n) leaves the x window.

    sigma holds sigma(n0), sigma(n0 + 1), ...  At step n the realized x
    window is [x start, n + m - 1 + max(k, 0)]; reading past its end reads
    the future, and reading before its start also enforces sigma(n) >= 1
    on the simulated range.
    """
    n0 = start_index(spec)
    xs = x_start_index(spec)
    lag = spec.m - 1 + max(spec.k, 0)  # x horizon at step n is n + lag
    for n, sv in zip(range(n0, max(n0, N - spec.m + 1)), sigma):
        if sv < xs or sv > n + lag:
            raise CausalityError(
                f"step n={n}: sigma(n)={sv} outside realized x range [{xs}, {n + lag}]"
            )


def _check_finite(value: float, what: str, index: int) -> None:
    if not math.isfinite(value) or abs(value) > DIVERGENCE_LIMIT:
        raise DivergenceError(
            f"{what} exceeded the finite range at index {index}; last valid index {index - 1}"
        )


def simulate(spec: EquationSpec, x_seed: Seq | None, z_seed: Seq, N: int) -> SolutionTrace:
    """Advance the equation from its seeds to z horizon N.

    z_seed must supply z at the m indices [n0, n0 + m - 1]; x_seed must
    cover exactly the indices listed in :func:`consistent_seeds`.  u, a, b
    and sigma are evaluated once (:func:`sample_coefficients`) and every
    sigma(n) is checked against the realized x window before the first
    step.  The returned trace carries those samples, satisfies the neutral
    relation on the full overlap window (re-verified before returning) and
    the stepping residual of the equation itself is at rounding level.
    """
    m, k = spec.m, spec.k
    n0 = start_index(spec)
    xs = x_start_index(spec)
    if N < n0 + m - 1:
        raise ConfigError(f"field horizon: need N >= {n0 + m - 1}, got {N}")
    if z_seed.start != n0 or len(z_seed) != m:
        raise SeedError(
            f"z seed must cover exactly [{n0}, {n0 + m - 1}], got [{z_seed.start}, {z_seed.end}]"
        )
    if k == 0:
        if x_seed is not None:
            raise SeedError("k=0 takes no x seed (x is determined by z)")
    else:
        lo = n0 + min(k, 0)
        hi = n0 - 1 if k < 0 else n0 + k - 1
        if x_seed is None or x_seed.start != lo or x_seed.end != hi:
            got = "nothing" if x_seed is None else f"[{x_seed.start}, {x_seed.end}]"
            raise SeedError(f"x seed must cover exactly [{lo}, {hi}], got {got}")
    samples = sample_coefficients(spec, N)
    _check_causality(spec, N, samples.sigma)

    # Signed binomial coefficient of z_{n+i}, i < m, in the m-th difference at n.
    coeffs = tuple((-1) ** (m - i) * math.comb(m, i) for i in range(m))
    # z values indexed from n0, x values indexed from xs.
    z_vals = array("d", z_seed.values)
    x_vals = array("d", x_seed.values if x_seed is not None else ())
    f = spec.rt.f.fn
    # u_n for n in [n0, N], the z window; a_n and b_n for each step n.
    u_z = samples.u[n0 - 1 : N]
    a_steps = samples.a[n0 - 1 : N - m]
    b_steps = samples.b[n0 - 1 : N - m]
    limit = DIVERGENCE_LIMIT
    shift = max(k, 0)  # the x value z_j unlocks has index j + shift

    for j, zj, uj in zip(count(n0), z_seed.values, u_z):
        xv = _recover_x(x_vals, k, j, zj, uj)
        if not -limit <= xv <= limit:
            _check_finite(xv, "|x|", j + shift)

    steps = range(n0, N - m + 1)
    u_next = u_z[m:]  # u at the z index each step adds
    for n, sv, an, bn, un in zip(steps, samples.sigma, a_steps, b_steps, u_next):
        acc = an * f(n, x_vals[sv - xs]) + bn
        for coeff, zv in zip(coeffs, z_vals[-m:]):
            acc -= coeff * zv
        if not -limit <= acc <= limit:
            _check_finite(acc, "|z|", n + m)
        z_vals.append(acc)
        xv = _recover_x(x_vals, k, n + m, acc, un)
        if not -limit <= xv <= limit:
            _check_finite(xv, "|x|", n + m + shift)

    x = Seq(xs, x_vals)
    z = Seq(n0, z_vals)
    _verify_relation(x, z, u_z, k)
    return SolutionTrace(x=x, z=z, horizon=N, start=n0, samples=samples)


def _verify_relation(x: Seq, z: Seq, u_z: Iterable[float], k: int) -> None:
    """Re-check z_n = x_n + u_n x_{n+k} on z's window; u_z holds u on that window."""
    off = z.start - x.start
    rows = zip(count(z.start), z.values, x.values[off:], u_z, x.values[off + k :])
    for n, zn, xn, un, xnk in rows:
        term = un * xnk
        if abs(zn - (xn + term)) > RELATION_RTOL * (1.0 + abs(zn) + abs(xn) + abs(term)):
            raise RuntimeError(
                f"internal error: neutral relation violated at index {n} after simulation"
            )
