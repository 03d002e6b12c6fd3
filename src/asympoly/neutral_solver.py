"""Build, validate and simulate neutral difference equations.

The equation advanced here is, in terms of the associated sequence
z_n = x_n + u_n x_{n+k},

    (m-th difference of z at n) = a_n f(x_{sigma(n)}) + b_n

with u_n -> c (the limit u's catalog entry records), |c| != 1, and f a
catalog entry, which reads t alone (the paper's f(n, t) may read n too).  The
simulator fixes the start at n0 = max(1, 1 - k, m), takes z on
[n0, n0 + m - 1] and |k| x values as seeds (this module alone knows where
they sit), advances z with the binomial expansion of the m-th difference, and
extends x by inverting the neutral relation.  The inversion is only
forward-stable when k <= 0 with |c| < 1, k >= 0 with |c| > 1, or k == 0;
outside those regimes any seed or rounding error is amplified each step -
an inherent property of the recursion (x = 2**n with u = -1/2, k = 1
gives z identically 0), not a solver defect.  Such a run ends in a
DivergenceError here, or reaches the horizon with an x the alternative or
the conclusion rejects.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from itertools import chain, count, islice
from typing import Iterable, MutableSequence, NoReturn, Sequence

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
    brief,
    finite_number,
    integer,
)
from .seqcore import MAX_DIFFERENCE_ORDER, Seq

#: |x| or |z| beyond this aborts a run with DivergenceError.
DIVERGENCE_LIMIT = 1e300
#: |u_n| (k > 0) or |1 + u_n| (k == 0) below this is a singular recovery.
SINGULAR_GUARD = 1e-9
#: ||c| - 1| must exceed this margin, c being u's limit.
UNIT_MARGIN = 1e-6
#: Tolerance of the post-simulation z = x + u x_{+k} re-verification.
RELATION_RTOL = 1e-9


@dataclass(frozen=True)
class EquationSpec:
    """Full description of one equation instance.

    All functional ingredients are catalog references; ``s`` is the target
    smallness exponent of the asymptotic decomposition and ``q``, when set,
    selects the regular (iterated-difference) form of the conclusion, which
    needs the integer target s == q.  ``m``, ``k`` and ``q`` are stored as
    ints (2.0 reads as 2) and ``s`` as a float, by the config's rules in
    :mod:`asympoly.errors`.  ``c`` is u's limit.
    """

    m: int
    k: int
    u: CatalogRef
    a: CatalogRef
    b: CatalogRef
    f: CatalogRef
    g: CatalogRef
    sigma: CatalogRef
    s: float
    q: int | None = None
    c: float = field(init=False, compare=False)
    #: The catalog entries, built once from the references above.
    rt: Runtime = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        for name, rule in (("m", integer), ("k", integer), ("s", finite_number)):
            object.__setattr__(self, name, rule(getattr(self, name), f"field {name}:"))
        if self.q is not None:
            object.__setattr__(self, "q", integer(self.q, "field q:"))
        if self.m < 1:
            raise ConfigError(f"field m: difference order must be an integer >= 1, got {brief(self.m)}")
        if self.m > MAX_DIFFERENCE_ORDER:
            raise ConfigError(f"field m: order {brief(self.m)} exceeds supported maximum {MAX_DIFFERENCE_ORDER}")
        if self.s > self.m - 1 + 1e-12:
            raise ConfigError(f"field s: need s <= m - 1 = {self.m - 1}, got {self.s}")
        if self.q is not None and not 0 <= self.q <= self.m - 1:
            raise ConfigError(f"field q: need an integer in [0, {self.m - 1}], got {brief(self.q)}")
        if self.q is not None and self.s != self.q:
            raise ConfigError(f"field s: the regular form (q set) needs s == q, got s={self.s}, q={self.q}")
        object.__setattr__(self, "rt", runtime(self))
        object.__setattr__(self, "c", self.rt.u.limit)
        if abs(abs(self.c) - 1.0) <= UNIT_MARGIN:
            raise ConfigError(f"field u: |c| must differ from 1 by more than {UNIT_MARGIN}, got limit c={self.c}")


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


def sample_coefficients(spec: EquationSpec, N: int) -> tuple[Seq, Seq, Seq, array]:
    """What a run to horizon N reads, each value sampled once: sigma(n) and
    u_n for n on z's window [n0, N], and a_n and b_n for each step n in
    [n0, N - m].

    sigma(n0), the first value of sigma's window, is checked for causality
    (:func:`_check_causality`) before the rest of the window is read, so a
    run that reads the future fails before u, a or b is sampled.  sigma is
    an ``array('q')``, 8 bytes a value.
    """
    rt = spec.rt
    n0 = start_index(spec)
    window = iter(rt.sigma.window(n0, N - n0 + 1))
    sigma_n0 = next(window)
    _check_causality(spec, sigma_n0)
    sigma = array("q", chain((sigma_n0,), window))
    steps = N - spec.m - n0 + 1
    return rt.u.sample(n0, N - n0 + 1), rt.a.sample(n0, steps), rt.b.sample(n0, steps), sigma


@dataclass(frozen=True)
class SolutionTrace:
    """Simulated solution: x and z, and the samples of u and sigma the run
    stepped with (which the checks read instead of evaluating the catalog
    again), both on z's window: ``u.values[n - z.start]`` = u_n and
    ``sigma[n - z.start]`` = sigma(n) for n in [z.start, z.end]."""

    x: Seq
    z: Seq
    u: Seq
    sigma: array


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


def consistent_seeds(
    spec: EquationSpec, profile: Sequence[float]
) -> tuple[tuple[float, ...] | None, tuple[float, ...]]:
    """The (x_seed, z_seed) values :func:`simulate` takes, from m + |k| x values.

    profile holds x in index order on the indices that determine the z
    seeds: [n0 + k, n0 + m - 1] for k <= 0 and [n0, n0 + m + k - 1] for
    k > 0.  Its first |k| values are the x seed (None when k = 0), and the
    z seeds are computed through the neutral relation, so the pair is
    consistent by construction.  A profile of another length raises
    SeedError.
    """
    m, k = spec.m, spec.k
    if len(profile) != m + abs(k):
        raise SeedError(
            f"seed profile must hold exactly m + |k| = {m + abs(k)} values, got {len(profile)}"
        )
    u = spec.rt.u
    n0 = start_index(spec)
    lo = x_start_index(spec)
    z_seed = tuple(profile[n - lo] + u(n) * profile[n + k - lo] for n in range(n0, n0 + m))
    return (tuple(profile[: abs(k)]) if k else None), z_seed


def check_seeds(spec: EquationSpec, x_seed: Sequence[float] | None, z_seed: Sequence[float]) -> None:
    """Raise SeedError naming ``seeds.z`` or ``seeds.x`` unless the seeds hold
    m z values and |k| x values (x_seed None when k = 0), as :func:`simulate` takes them."""
    m, k = spec.m, spec.k
    if len(z_seed) != m:
        raise SeedError(f"field seeds.z: must hold exactly m = {m} values, got {len(z_seed)}")
    if k == 0:
        if x_seed is not None:
            raise SeedError("field seeds.x: must be null when k = 0")
    elif x_seed is None:
        raise SeedError(f"field seeds.x: required when k = {brief(k)}")
    elif len(x_seed) != abs(k):
        raise SeedError(
            f"field seeds.x: must hold exactly |k| = {brief(abs(k))} values, got {len(x_seed)}"
        )


def _check_causality(spec: EquationSpec, sigma_n0: int) -> None:
    """Raise CausalityError unless step n0 reads x inside its realized window
    [x start, n0 + m - 1 + max(k, 0)]; by :class:`DelayMap`'s invariant every
    later step then does too.  Reading past the end reads the future, and
    reading before the start also enforces sigma(n) >= 1."""
    n0 = start_index(spec)
    xs = x_start_index(spec)
    end = n0 + spec.m - 1 + max(spec.k, 0)
    if not xs <= sigma_n0 <= end:
        raise CausalityError(f"step n={n0}: sigma(n)={brief(sigma_n0)} outside realized x range [{xs}, {end}]")


def _raise_divergence(what: str, index: int) -> NoReturn:
    """The value at index is NaN or beyond +-DIVERGENCE_LIMIT; the caller tests that."""
    raise DivergenceError(
        f"{what} exceeded the finite range at index {index}; last valid index {index - 1}"
    )


def simulate(
    spec: EquationSpec, x_seed: Sequence[float] | None, z_seed: Sequence[float], N: int
) -> SolutionTrace:
    """Advance the equation from its seed values to z horizon N.

    z_seed holds the m values z_n for n in [n0, n0 + m - 1], and x_seed
    the |k| values x_n for n in [n0 + k, n0 - 1] when k < 0 or
    [n0, n0 + k - 1] when k > 0, both in index order; x_seed is None when
    k = 0 (:func:`consistent_seeds` builds a consistent pair).  A seed of
    the wrong length raises SeedError (:func:`check_seeds`, called first),
    and a non-finite one ValueError naming its index, before anything is
    sampled.  sigma, u, a and b are evaluated once (:func:`sample_coefficients`),
    and causality is decided at n0 before u, a and b are sampled.  N must
    leave at least one step, N >= n0 + m.
    The returned trace carries the samples of u and sigma, satisfies the neutral
    relation on the full overlap window (re-verified before returning) and
    the stepping residual of the equation itself is at rounding level.
    """
    check_seeds(spec, x_seed, z_seed)
    m, k = spec.m, spec.k
    n0 = start_index(spec)
    xs = x_start_index(spec)
    if N < n0 + m:
        raise ConfigError(f"field horizon: need N >= {n0 + m}, got {N}")
    # z_vals holds z from n0 and x_vals x from xs; Seq rejects a non-finite
    # seed, naming its index.
    z_vals = array("d", Seq(n0, z_seed).values)
    x_vals = array("d", () if x_seed is None else Seq(xs, x_seed).values)
    u, a, b, sigma = sample_coefficients(spec, N)

    # For each i < m, oldest first: the signed binomial coefficient of z_{n+i}
    # in the m-th difference at n, as a float (exact for m <=
    # MAX_DIFFERENCE_ORDER; a float-by-float product takes CPython's fast
    # path, an int-by-float one does not), and z_{n+i}'s position i - m from
    # the end of z_vals, which holds z up to z_{n+m-1} at step n.
    terms = tuple((float((-1) ** (m - i) * math.comb(m, i)), i - m) for i in range(m))
    f = spec.rt.f.fn
    limit = DIVERGENCE_LIMIT
    shift = max(k, 0)  # the x value z_j unlocks has index j + shift

    for j, zj, uj in zip(count(n0), z_vals, u.values):
        xv = _recover_x(x_vals, k, j, zj, uj)
        if not -limit <= xv <= limit:
            _raise_divergence("|x|", j + shift)

    # a and b hold one value per step; un is u at the z index step n adds.
    for n, sv, an, bn, un in zip(count(n0), sigma, a.values, b.values, islice(u.values, m, None)):
        acc = an * f(x_vals[sv - xs]) + bn
        for coeff, back in terms:
            acc -= coeff * z_vals[back]
        if not -limit <= acc <= limit:
            _raise_divergence("|z|", n + m)
        z_vals.append(acc)
        xv = _recover_x(x_vals, k, n + m, acc, un)
        if not -limit <= xv <= limit:
            _raise_divergence("|x|", n + m + shift)

    x = Seq(xs, x_vals)
    z = Seq(n0, z_vals)
    _verify_relation(x, z, u.values, k)
    return SolutionTrace(x=x, z=z, u=u, sigma=sigma)


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
