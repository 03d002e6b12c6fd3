import math
import sys
from array import array
from operator import sub

import pytest

from asympoly.catalog import (
    F_TABLE,
    G_TABLE,
    GENERATOR_TABLE,
    SIGMA_TABLE,
    CatalogRef,
    catalog_listing,
    make_f,
    make_g,
    make_generator,
    make_sigma,
)
from asympoly.errors import CatalogError

from conftest import SIGMA_CASES, sigma_at


def test_unknown_identifiers_rejected():
    with pytest.raises(CatalogError):
        make_f(CatalogRef("exp"))
    with pytest.raises(CatalogError):
        make_g(CatalogRef("exp"))
    with pytest.raises(CatalogError):
        make_sigma(CatalogRef("double"))
    with pytest.raises(CatalogError):
        make_generator(CatalogRef("exp_decay"))


def test_unknown_parameters_rejected():
    with pytest.raises(CatalogError):
        make_f(CatalogRef("sigmoid", {"gamma": 1.0}))
    with pytest.raises(CatalogError):
        make_generator(CatalogRef("power", {"A": 1.0, "rho": 1.0, "phase": 0.0}))


def test_f_entries():
    sig = make_f(CatalogRef("sigmoid"))
    assert sig(1.0) == 0.5
    assert sig.bound == 0.5
    atan = make_f(CatalogRef("arctan"))
    assert atan(1.0) == math.atan(1.0)
    psgn = make_f(CatalogRef("power_sgn", {"gamma": 0.5}))
    assert psgn(4.0) == 2.0
    assert psgn(-4.0) == -2.0
    assert psgn(0.0) == 0.0
    lin = make_f(CatalogRef("linear"))
    assert lin(-2.5) == -2.5
    assert lin.bound == psgn.bound == math.inf  # unbounded
    bsin = make_f(CatalogRef("bounded_sin"))
    assert bsin(math.pi / 2) == math.sin(math.pi / 2)
    with pytest.raises(CatalogError):
        make_f(CatalogRef("power_sgn", {"gamma": 1.5}))


def test_g_entries_and_primitives():
    ident = make_g(CatalogRef("identity"))
    assert ident(3.0) == 3.0
    assert ident.integral_diverges
    assert abs(ident.recip_primitive(1.0, math.e) - 1.0) < 1e-15
    pw = make_g(CatalogRef("power", {"gamma": 2.0}))
    assert not pw.integral_diverges
    assert abs(pw.recip_primitive(1.0, 2.0) - 0.5) < 1e-15
    pw_half = make_g(CatalogRef("power", {"gamma": 0.5}))
    assert pw_half.integral_diverges
    aff = make_g(CatalogRef("affine", {"alpha": 2.0, "beta": 1.0}))
    assert aff(1.0) == 3.0
    assert aff.integral_diverges
    const = make_g(CatalogRef("constant", {"value": 4.0}))
    assert const(100.0) == 4.0
    assert abs(const.recip_primitive(0.0, 8.0) - 2.0) < 1e-15
    with pytest.raises(CatalogError):
        make_g(CatalogRef("constant", {"value": 0.0}))
    with pytest.raises(CatalogError):
        make_g(CatalogRef("affine", {"alpha": -1.0, "beta": 1.0}))


#: Every G_TABLE entry at parameters on the edges of its rule.
G_EDGES = {
    "identity": [{}],
    "power": [{"gamma": 1e-6}, {"gamma": 1.0}, {"gamma": 50.0}],
    "affine": [
        {"alpha": alpha, "beta": beta} for alpha in (0.0, 1e3) for beta in (-1.0, 1.0)
    ],
    "constant": [{"value": 1e-300}, {"value": 1e300}],
}


@pytest.mark.parametrize(
    "ident, params",
    [
        pytest.param(ident, params, id=f"{ident}-{params}")
        for ident, cases in G_EDGES.items()
        for params in cases
    ],
)
def test_every_majorant_is_finite_and_nondecreasing(ident, params):
    # dispatch reports g-nondecreasing and g-locally-bounded as a literal
    # True ("catalog guarantee"); this is the guarantee, on t = 0 and a log
    # grid of magnitudes from 1e-6 to 1e6.
    assert set(G_EDGES) == set(G_TABLE)
    g = make_g(CatalogRef(ident, params))
    ts = [0.0] + [10.0 ** (i / 10) for i in range(-60, 61)]
    values = []
    for t in ts:
        try:
            values.append(g(t))
        except OverflowError:  # as in check_g_p_bounded: beyond the float range
            values.append(math.inf)
    assert all(map(math.isfinite, values)), list(zip(ts, values))
    assert all(a <= b for a, b in zip(values, values[1:])), list(zip(ts, values))


def test_sigma_entries():
    assert sigma_at(make_sigma(CatalogRef("identity")), 7) == 7
    assert sigma_at(make_sigma(CatalogRef("delay_d", {"d": 3})), 10) == 7
    assert sigma_at(make_sigma(CatalogRef("delay_d", {"d": -5})), 10) == 15
    assert sigma_at(make_sigma(CatalogRef("half")), 9) == 4
    flog = make_sigma(CatalogRef("floor_log"))
    assert sigma_at(flog, 1) == 0
    assert sigma_at(flog, 100) == 4
    with pytest.raises(CatalogError):
        make_sigma(CatalogRef("delay_d", {"d": 1.5}))


@pytest.mark.parametrize("ident", sorted(SIGMA_TABLE))
def test_every_delay_is_nondecreasing_and_never_gains_on_n(ident):
    # Causality and sigma-within-past are decided at n0 because of this:
    # sigma(n + 1) - sigma(n) is 0 or 1, so sigma is nondecreasing and
    # sigma(n) - n never increases.  A new table entry needs its own case.
    for params in SIGMA_CASES[ident]:
        window = make_sigma(CatalogRef(ident, params)).window
        for start, length in ((1, 10**6), (10**9, 10**4), (10**15, 10**4)):
            values = array("q", window(start, length))
            steps = set(map(sub, values[1:], values[:-1]))
            assert steps <= {0, 1}, (ident, params, start, sorted(steps))


def test_generator_entries_and_limits():
    const = make_generator(CatalogRef("constant", {"value": 0.5}))
    assert const(3) == 0.5 and const.limit == 0.5
    po = make_generator(CatalogRef("power_offset", {"c": 2.0, "A": 1.0, "rho": 2.0}))
    assert po(2) == 2.25 and po.limit == 2.0
    pw = make_generator(CatalogRef("power", {"A": 3.0, "rho": 1.0}))
    assert pw(3) == 1.0 and pw.limit == 0.0
    alt = make_generator(CatalogRef("alt_power", {"A": 1.0, "rho": 1.0}))
    assert alt(2) == 0.5 and alt(3) == -1.0 / 3.0 and alt.limit == 0.0
    geo = make_generator(CatalogRef("geometric", {"A": 1.0, "ratio": 0.5}))
    assert geo(3) == 0.125 and geo.limit == 0.0
    with pytest.raises(CatalogError):
        make_generator(CatalogRef("geometric", {"A": 1.0, "ratio": 1.0}))
    with pytest.raises(CatalogError):
        make_generator(CatalogRef("power", {"A": 1.0, "rho": 0.0}))


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_power_offset_with_c_plus_a_at_the_float_limit_is_accepted(sign):
    # c + A is the largest float: accepted, and every value is finite,
    # since |A n**-rho| <= |A|.  One step further is rejected.
    half = sign * sys.float_info.max / 2
    po = make_generator(CatalogRef("power_offset", {"c": half, "A": half, "rho": 1.0}))
    assert po(1) == sign * sys.float_info.max
    assert all(map(math.isfinite, po.window(1, 1000)))
    with pytest.raises(CatalogError, match=r"^power_offset needs a finite c \+ A, got c="):
        make_generator(CatalogRef("power_offset", {"c": half, "A": sign * sys.float_info.max, "rho": 1.0}))


def test_generator_sampling():
    pw = make_generator(CatalogRef("power", {"A": 1.0, "rho": 1.0}))
    s = pw.sample(2, 3)
    assert s.start == 2
    assert tuple(s.values) == (0.5, 1.0 / 3.0, 0.25)


@pytest.mark.parametrize("start", [1, 2, 7])
def test_generator_windows_match_their_formulas_bit_for_bit(start):
    c, amp, rho, ratio = 0.3, -1.7, 0.9, 0.6
    formulas = {
        "constant": ({"value": amp}, lambda n: amp),
        "power": ({"A": amp, "rho": rho}, lambda n: amp * float(n) ** -rho),
        "power_offset": ({"c": c, "A": amp, "rho": rho}, lambda n: c + amp * float(n) ** -rho),
        "alt_power": (
            {"A": amp, "rho": rho},
            lambda n: amp * (1.0 if n % 2 == 0 else -1.0) * float(n) ** -rho,
        ),
        "geometric": ({"A": amp, "ratio": ratio}, lambda n: amp * ratio**n),
    }
    assert set(formulas) == set(GENERATOR_TABLE)
    ns = range(start, start + 25)
    for ident, (params, formula) in formulas.items():
        gen = make_generator(CatalogRef(ident, params))
        expected = [formula(n).hex() for n in ns]
        assert [v.hex() for v in gen.window(start, len(ns))] == expected, ident
        assert [gen(n).hex() for n in ns] == expected, ident


#: Every GENERATOR_TABLE entry, with amplitudes of both signs and zero.
GENERATOR_CASES = {
    "constant": [{"value": 0.0}, {"value": -0.7}],
    "power": [{"A": 1.0, "rho": 1.3}, {"A": -0.5, "rho": 0.2}, {"A": 0.0, "rho": 2.0}],
    "alt_power": [{"A": 0.5, "rho": 2.0}, {"A": -3.0, "rho": 1e-3}, {"A": -0.0, "rho": 1.0}],
    "power_offset": [
        {"c": 2.0, "A": 1.0, "rho": 1.0},
        {"c": 0.4, "A": -0.25, "rho": 3.0},
        {"c": -0.5, "A": 0.0, "rho": 1.0},
    ],
    "geometric": [{"A": 1.0, "ratio": 0.5}, {"A": -2.0, "ratio": 0.7}],
}


@pytest.mark.parametrize(
    "ident, params",
    [
        pytest.param(ident, params, id=f"{ident}-{params}")
        for ident, cases in GENERATOR_CASES.items()
        for params in cases
    ],
)
def test_generator_decay_is_the_exponent_of_v_minus_its_limit(ident, params):
    # The summability and u-rate checks read decay and limit alone.  A finite
    # decay rho states |v_n - limit| = |A| n**-rho exactly, up to the rounding
    # of v_n - limit; an infinite one, a v_n - limit below every power.  A
    # builder that sets no decay cannot build its entry.
    assert set(GENERATOR_CASES) == set(GENERATOR_TABLE)
    gen = make_generator(CatalogRef(ident, params))
    eps = 2.0**-52
    assert gen.decay > 0.0
    for n in (1, 10, 1_000, 1_000_000):
        v = gen(n)
        gap = abs(v - gen.limit)
        if gen.decay == math.inf:
            assert n < 1_000 or gap == 0.0 or gap < float(n) ** -50, (n, gap)
        else:
            amp = abs(params["A"])
            scale = float(n) ** gen.decay
            tol = 4 * eps * (abs(v) + abs(gen.limit)) * scale + 8 * eps * amp
            assert abs(gap * scale - amp) <= tol, (n, gap * scale, amp)


def test_listing_contains_required_identifiers_and_is_stable():
    listing = catalog_listing()
    for ident in ("sigmoid", "arctan", "power_sgn", "linear", "bounded_sin",
                  "identity", "power", "affine", "constant",
                  "delay_d", "half", "floor_log",
                  "power_offset", "alt_power", "geometric"):
        assert ident in listing
    assert listing == catalog_listing()


FAMILY_MAKERS = (
    (F_TABLE, make_f),
    (G_TABLE, make_g),
    (SIGMA_TABLE, make_sigma),
    (GENERATOR_TABLE, make_generator),
)


def _valid_params(entry):
    """A value for every listed parameter that satisfies the entry's rule."""
    def allowed(name, value):
        return entry.rule is None or entry.rule[0] != name or entry.rule[1](value)

    return {name: next(v for v in (1, 0.5) if allowed(name, v)) for name in entry.params}


def test_every_table_entry_builds_with_exactly_its_params():
    listing = catalog_listing()
    for table, make in FAMILY_MAKERS:
        for ident, entry in table.items():
            params = _valid_params(entry)
            assert make(CatalogRef(ident, params)).ref.id == ident
            with pytest.raises(CatalogError, match="unknown parameter"):
                make(CatalogRef(ident, {**params, "extra": 1.0}))
            for name in params:
                fewer = {k: v for k, v in params.items() if k != name}
                with pytest.raises(CatalogError, match="requires parameter"):
                    make(CatalogRef(ident, fewer))
            assert f"  {ident:<14} params: {entry.schema()}" in listing


@pytest.mark.parametrize(
    "value", [True, pytest.param([1], id="[1]"), "1", math.nan, math.inf, 10**400]
)
def test_non_numeric_and_non_finite_params_rejected(value):
    with pytest.raises(CatalogError, match="'A' of 'power' must be a finite number"):
        make_generator(CatalogRef("power", {"A": value, "rho": 1.0}))
    with pytest.raises(CatalogError, match="'d' of 'delay_d' must be a finite number"):
        make_sigma(CatalogRef("delay_d", {"d": value}))
