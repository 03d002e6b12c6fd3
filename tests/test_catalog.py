import math

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
    assert sig(5, 1.0) == 0.5
    assert sig.bound == 0.5
    atan = make_f(CatalogRef("arctan"))
    assert atan(1, 1.0) == math.atan(1.0)
    psgn = make_f(CatalogRef("power_sgn", {"gamma": 0.5}))
    assert psgn(1, 4.0) == 2.0
    assert psgn(1, -4.0) == -2.0
    assert psgn(1, 0.0) == 0.0
    lin = make_f(CatalogRef("linear"))
    assert lin(9, -2.5) == -2.5
    assert lin.bound == psgn.bound == math.inf  # unbounded
    bsin = make_f(CatalogRef("bounded_sin"))
    assert bsin(1, math.pi / 2) == math.sin(math.pi / 2)
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


def test_sigma_entries():
    assert make_sigma(CatalogRef("identity"))(7) == 7
    assert make_sigma(CatalogRef("delay_d", {"d": 3}))(10) == 7
    assert make_sigma(CatalogRef("delay_d", {"d": -5}))(10) == 15
    assert make_sigma(CatalogRef("half"))(9) == 4
    flog = make_sigma(CatalogRef("floor_log"))
    assert flog(1) == 0
    assert flog(100) == 4
    with pytest.raises(CatalogError):
        make_sigma(CatalogRef("delay_d", {"d": 1.5}))


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


@pytest.mark.parametrize("value", [True, [1], "1", math.nan, math.inf, 10**400])
def test_non_numeric_and_non_finite_params_rejected(value):
    with pytest.raises(CatalogError, match="'A' of 'power' must be a finite number"):
        make_generator(CatalogRef("power", {"A": value, "rho": 1.0}))
    with pytest.raises(CatalogError, match="'d' of 'delay_d' must be a finite number"):
        make_sigma(CatalogRef("delay_d", {"d": value}))
