import dataclasses
import math
import random

import pytest

from asympoly.bihari import (
    BihariProblem,
    adaptive_simpson,
    bhl2_constant,
    bihari_bound,
    integrate_recip_g,
    worst_case_w,
)
from asympoly.catalog import CatalogRef, make_g
from asympoly.errors import QuadratureDomainError, WindowLengthError
from asympoly.seqcore import CompensatedSum, Seq, delta, seq_from_function

IDENTITY = make_g(CatalogRef("identity"))
POWER2 = make_g(CatalogRef("power", {"gamma": 2.0}))
CONST = make_g(CatalogRef("constant", {"value": 3.0}))

CATALOG_GS = (
    IDENTITY,
    make_g(CatalogRef("power", {"gamma": 0.5})),
    POWER2,
    make_g(CatalogRef("affine", {"alpha": 2.0, "beta": 1.0})),
    CONST,
)


class TestIntegrateRecipG:
    def test_identity_log(self):
        assert abs(integrate_recip_g(IDENTITY, 1.0, math.e) - 1.0) < 1e-14

    def test_constant(self):
        g = make_g(CatalogRef("constant", {"value": 4.0}))
        assert integrate_recip_g(g, 0.0, 10.0) == 2.5

    def test_inverse_square(self):
        assert abs(integrate_recip_g(POWER2, 1.0, 2.0) - 0.5) < 1e-14

    def test_quadrature_matches_closed_forms(self):
        # the adaptive route must agree with the exact primitives
        for g, lam, t in (
            (IDENTITY, 1.0, math.e),
            (POWER2, 1.0, 2.0),
            (make_g(CatalogRef("affine", {"alpha": 2.0, "beta": 1.0})), 0.5, 7.0),
            (CONST, 0.0, 11.0),
        ):
            exact = g.recip_primitive(lam, t)
            quad = integrate_recip_g(g.fn, lam, t)
            assert abs(quad - exact) <= 1e-9 * (1.0 + abs(exact)), g.ref.id

    def test_nonpositive_g_rejected(self):
        with pytest.raises(QuadratureDomainError):
            integrate_recip_g(IDENTITY, 0.0, 1.0)  # g(0) = 0
        with pytest.raises(QuadratureDomainError):
            integrate_recip_g(lambda t: t - 2.0, 1.0, 3.0)

    def test_inverted_interval_rejected(self):
        with pytest.raises(ValueError):
            integrate_recip_g(IDENTITY, 2.0, 1.0)


def test_adaptive_simpson_polynomial_exact():
    value, err = adaptive_simpson(lambda t: 3.0 * t * t, 0.0, 2.0)
    assert abs(value - 8.0) < 1e-12
    assert err < 1e-10


class TestBihariBound:
    def test_gronwall_closed_form(self):
        b = bihari_bound(BihariProblem(IDENTITY, 1.0, 1.0))
        assert not b.condition_violated
        assert abs(b.M - math.e) <= 1e-8 * b.M
        assert b.G_at_M >= 1.0 - 1e-12

    def test_zero_total(self):
        b = bihari_bound(BihariProblem(IDENTITY, 1.5, 0.0))
        assert b.M == 1.5

    def test_condition_violated_closed_form(self):
        # integral of 1/t^2 from 1 is exactly 1 < 2
        b = bihari_bound(BihariProblem(POWER2, 1.0, 2.0))
        assert b.condition_violated
        assert b.M == math.inf
        assert abs(b.G_at_M - 1.0) < 1e-12

    def test_condition_violated_plateau_route(self):
        b = bihari_bound(BihariProblem(lambda t: t * t, 1.0, 2.0))
        assert b.condition_violated
        assert abs(b.G_at_M - 1.0) < 1e-9

    def test_quadrature_integrates_each_piece_once(self):
        # G is carried forward between bracketing and bisection points, so
        # the plateau route costs a few thousand g evaluations, not millions.
        calls = []

        def g(t):
            calls.append(t)
            return t * t

        b = bihari_bound(BihariProblem(g, 1.0, 2.0))
        assert b.condition_violated
        assert len(calls) < 10_000

    def test_plain_callable_agrees_with_catalog(self):
        exact = bihari_bound(BihariProblem(IDENTITY, 1.0, 1.0)).M
        quad = bihari_bound(BihariProblem(lambda t: t, 1.0, 1.0)).M
        assert abs(exact - quad) <= 1e-8 * exact

    def test_seq_total(self):
        a = Seq(1, (0.25, 0.25, 0.5))
        b = bihari_bound(BihariProblem(IDENTITY, 1.0, a))
        assert abs(b.M - math.e) <= 1e-8 * b.M

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            BihariProblem(IDENTITY, 1.0, Seq(1, (0.5, -0.1)))

    def test_nan_total_rejected(self):
        with pytest.raises(ValueError, match="total_a"):
            BihariProblem(IDENTITY, 1.0, math.nan)

    def test_overflowing_weight_window_rejected(self):
        # Each weight is finite; their exactly rounded sum is not.
        with pytest.raises(ValueError, match="total_a"):
            BihariProblem(IDENTITY, 1.0, Seq(1, (1e308, 1e308)))

    def test_g_lambda_positive_required(self):
        with pytest.raises(ValueError):
            BihariProblem(IDENTITY, 0.0, 1.0)  # g(0) = 0

    def test_monotone_in_total_and_lambda(self):
        prev = 0.0
        for tot in (0.0, 0.5, 1.0, 2.0, 4.0):
            m = bihari_bound(BihariProblem(IDENTITY, 1.0, tot)).M
            assert m >= prev
            prev = m
        prev = 0.0
        for lam in (0.5, 1.0, 2.0, 4.0):
            m = bihari_bound(BihariProblem(IDENTITY, lam, 1.0)).M
            assert m >= prev
            prev = m


class TestWorstCaseW:
    def test_zero_weights(self):
        a = Seq(1, (0.0,) * 10)
        w = worst_case_w(a, IDENTITY, 2.0, 1, 10)
        assert all(v == 2.0 for v in w.values)

    def test_compound_growth_approaches_e(self):
        n = 10_000
        a = Seq(1, (1.0 / n,) * n)
        w = worst_case_w(a, IDENTITY, 1.0, 1, n + 1)
        assert abs(w.at(n + 1) - math.e) < 3.0 / n

    def test_constant_g_gives_partial_sums(self):
        g1 = make_g(CatalogRef("constant", {"value": 1.0}))
        a = Seq(1, (0.5, 1.5, 2.0, 0.25))
        w = worst_case_w(a, g1, 0.0, 1, 5)
        assert w.values == (0.0, 0.5, 2.0, 4.0, 4.25)

    def test_negative_weight_rejected(self):
        a = Seq(1, (0.5, -0.5, 1.0))
        with pytest.raises(ValueError):
            worst_case_w(a, IDENTITY, 1.0, 1, 3)

    def test_window_must_cover_range(self):
        a = Seq(3, (0.5, 0.5))
        with pytest.raises(WindowLengthError):
            worst_case_w(a, IDENTITY, 1.0, 1, 5)

    def test_oracle_never_exceeds_bound(self):
        rng = random.Random(99)
        n = 2000
        for g in CATALOG_GS:
            for lam in (0.5, 1.0):
                cap = g.recip_primitive(lam, 10.0 * lam + 10.0)
                raw = [rng.random() for _ in range(n)]
                scale = 0.8 * cap / sum(raw)
                a = Seq(1, tuple(v * scale for v in raw))
                bound = bihari_bound(BihariProblem(g, lam, a))
                w = worst_case_w(a, g, lam, 1, n)
                assert max(w.values) <= bound.M + 1e-6 * (1.0 + bound.M)

    def test_tightness_compound_limit(self):
        n = 10_000
        a = Seq(1, (1.0 / n,) * n)
        bound = bihari_bound(BihariProblem(IDENTITY, 1.0, 1.0))
        w = worst_case_w(a, IDENTITY, 1.0, 1, n + 1)
        assert max(w.values) / bound.M > 0.99


class TestBhl2Constant:
    def test_zero_sequence(self):
        assert bhl2_constant(Seq(1, (0.0,) * 50), 1, 1) == 1e-12

    def test_pure_power(self):
        for m in (1, 2, 3):
            x = seq_from_function(lambda n, m=m: float(n) ** (m - 1), 1, 100)
            assert abs(bhl2_constant(x, m, 1) - 1.0) < 1e-9

    def test_alternating_minimal(self):
        x = seq_from_function(lambda n: (-1.0) ** n, 1, 200)
        L = bhl2_constant(x, 1, 1)
        d = delta(x, 1)
        # the inequality holds at every index with the returned constant
        running = 0.0
        for n in range(1, 200):
            assert abs(x.at(n)) <= float(n) ** 0 * (L + running) + 1e-12
            if n <= d.end:
                running += abs(d.at(n))
        # and fails somewhere if L is shrunk
        shrunk = L - 1e-9
        violated = False
        running = 0.0
        for n in range(1, 200):
            if abs(x.at(n)) > float(n) ** 0 * (shrunk + running):
                violated = True
                break
            if n <= d.end:
                running += abs(d.at(n))
        assert violated


def _reference_worst_case_w(a, g, lam, p, N):
    """The oracle recursion read index by index: at(), add, then .value."""
    acc = CompensatedSum(lam)
    w = [float(lam)]
    for n in range(p, N):
        acc.add(a.at(n) * g(w[-1]))
        w.append(acc.value)
    return w


def _reference_bhl2(x, m, n0):
    """The BHL2 constant read index by index: at() and .value before each add."""
    dm = delta(x, m)
    best = 1e-12
    running = CompensatedSum()
    for n in range(n0, x.end - m + 2):
        term = abs(x.at(n)) / float(n) ** (m - 1) - running.value
        if term > best:
            best = term
        if n <= dm.end:
            running.add(abs(dm.at(n)))
    return best


def _hex(values):
    return [float(v).hex() for v in values]


class TestOracleKernels:
    """The slice-driven kernels against index-by-index reference loops."""

    def test_worst_case_w_matches_reference_loop(self):
        rng = random.Random(11)
        # p > a.start and N - 1 < a.end, so both slice offsets are exercised.
        p, N = 5, 590
        for g in CATALOG_GS + (lambda t: 0.5 + t * t,):
            a = Seq(2, tuple(rng.uniform(0.0, 5e-4) for _ in range(600)))
            w = worst_case_w(a, g, 0.75, p, N)
            assert w.start == p
            assert _hex(w.values) == _hex(_reference_worst_case_w(a, g, 0.75, p, N))

    def test_worst_case_w_calls_g_once_per_weight(self):
        calls = []

        def g(t):
            calls.append(t)
            return 1.0 + t

        a = Seq(2, (0.1,) * 20)
        worst_case_w(a, g, 1.0, 4, 17)
        assert len(calls) == 17 - 4
        calls.clear()
        worst_case_w(a, dataclasses.replace(IDENTITY, fn=g), 1.0, 4, 17)
        assert len(calls) == 17 - 4

    def test_negative_weight_names_its_index(self):
        a = Seq(2, (0.5, -0.5, 1.0))
        for p in (2, 3):
            with pytest.raises(ValueError, match=r"negative weight a_3 = -0\.5$"):
                worst_case_w(a, IDENTITY, 1.0, p, 5)
        with pytest.raises(ValueError, match=r"negative weight a_3 = -0\.5$"):
            BihariProblem(IDENTITY, 1.0, a)

    def test_bhl2_constant_matches_reference_loop(self):
        rng = random.Random(5)
        for m in (1, 2, 3):
            for start in (0, 1, 3):
                values = [rng.uniform(-5.0, 5.0) * (i + 1) ** (m - 1) for i in range(300)]
                x = Seq(start, tuple(values))
                for n0 in (max(1, start), max(1, start) + 7):
                    got = bhl2_constant(x, m, n0)
                    assert got.hex() == _reference_bhl2(x, m, n0).hex()
