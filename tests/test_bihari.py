import dataclasses
import math
import random

import pytest

from asympoly.bihari import (
    BihariProblem,
    adaptive_simpson,
    bihari_bound,
    worst_case_w,
)
from asympoly.catalog import CatalogRef, make_g
from asympoly.errors import QuadratureDomainError, WindowLengthError
from asympoly.seqcore import Seq

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


#: The plain-callable g of the quadrature tests, by name.
QUADRATURE_GS = {"t": lambda t: t, "sqrt": math.sqrt, "2t+1": lambda t: 2.0 * t + 1.0}

#: float.hex of (M, G_at_M, quadrature_error) on the quadrature route, keyed
#: by (g, lambda, total).  Any change to the sample points, the carried-forward
#: pieces, their budgets or the order of the sums moves at least one of them.
QUADRATURE_PINNED = {
    ("t", 0.5, 0.25): ("0x1.48b5e3c3ea000p-1", "0x1.0000000005efcp-2", "0x1.9a5af1b4fbef0p-35"),
    ("sqrt", 0.5, 0.25): ("0x1.62827999fe000p-1", "0x1.000000000292fp-2", "0x1.d7a72a012cccdp-35"),
    ("2t+1", 0.5, 0.25): ("0x1.261298e1e2000p+0", "0x1.0000000001f6fp-2", "0x1.a6e82b3d9bbcep-35"),
    ("t", 0.5, 0.5): ("0x1.a61298e1e4000p-1", "0x1.00000000045a9p-1", "0x1.c9741a2e6aaccp-35"),
    ("sqrt", 0.5, 0.5): ("0x1.d504f333fc000p-1", "0x1.00000000023c7p-1", "0x1.a37113fc44897p-35"),
    ("2t+1", 0.5, 0.5): ("0x1.1bf0a8b145800p+1", "0x1.00000000000b5p-1", "0x1.9c7e652302567p-35"),
    ("t", 0.5, 1.0): ("0x1.5bf0a8b146000p+0", "0x1.0000000000663p+0", "0x1.62c231f1c476cp-35"),
    ("sqrt", 0.5, 1.0): ("0x1.7504f333fa000p+0", "0x1.00000000001f5p+0", "0x1.e0ab81b7be869p-35"),
    ("2t+1", 0.5, 1.0): ("0x1.b8e64b8d4e800p+2", "0x1.00000000002e5p+0", "0x1.1ab3eb3788b1dp-35"),
    ("t", 0.5, 2.0): ("0x1.d8e64b8d4e000p+1", "0x1.00000000000a8p+1", "0x1.53a16a8f5f56ap-35"),
    ("sqrt", 0.5, 2.0): ("0x1.7504f333fa000p+1", "0x1.000000000014ep+1", "0x1.620ee3bf86d3dp-35"),
    ("2t+1", 0.5, 2.0): ("0x1.b0c902e275000p+5", "0x1.000000000033bp+1", "0x1.4217ac09ce53dp-35"),
    ("t", 1.0, 0.25): ("0x1.48b5e3c3ea000p+0", "0x1.0000000005efcp-2", "0x1.6398d99b62556p-35"),
    ("sqrt", 1.0, 0.25): ("0x1.4400000000000p+0", "0x1.000000000006ep-2", "0x1.0e8f12378f1c7p-34"),
    ("2t+1", 1.0, 0.25): ("0x1.f91be552d2000p+0", "0x1.0000000001314p-2", "0x1.c73c3c859baf0p-35"),
    ("t", 1.0, 0.5): ("0x1.a61298e1e2000p+0", "0x1.0000000001f05p-1", "0x1.e9c5c703c0020p-35"),
    ("sqrt", 1.0, 0.5): ("0x1.9000000000000p+0", "0x1.0000000000051p-1", "0x1.96a3c91be9056p-35"),
    ("2t+1", 1.0, 0.5): ("0x1.c9e8fd09ea000p+1", "0x1.0000000000e7cp-1", "0x1.4962b595503bdp-35"),
    ("t", 1.0, 1.0): ("0x1.5bf0a8b146000p+1", "0x1.0000000000663p+0", "0x1.3ab7a2fa4cff5p-35"),
    ("sqrt", 1.0, 1.0): ("0x1.2000000000000p+1", "0x1.0000000000012p+0", "0x1.2f2a4d0604c95p-35"),
    ("2t+1", 1.0, 1.0): ("0x1.52acb8a9fb000p+3", "0x1.00000000003a2p+0", "0x1.15794d80b8d85p-35"),
    ("t", 1.0, 2.0): ("0x1.d8e64b8d4e000p+2", "0x1.00000000000adp+1", "0x1.58c21c6acf5fbp-35"),
    ("sqrt", 1.0, 2.0): ("0x1.0000000000000p+2", "0x1.000000000000bp+1", "0x1.5328b73cccd9ap-35"),
    ("2t+1", 1.0, 2.0): ("0x1.4596c229d7000p+6", "0x1.00000000000e3p+1", "0x1.33575c5f400cdp-35"),
}


class TestIntegrateRecipG:
    """The integral of 1/g: exact catalog primitives, adaptive Simpson on a
    plain callable, and bihari_bound's positivity check along the bracket."""

    def test_identity_log(self):
        assert abs(IDENTITY.recip_primitive(1.0, math.e) - 1.0) < 1e-14

    def test_constant(self):
        g = make_g(CatalogRef("constant", {"value": 4.0}))
        assert g.recip_primitive(0.0, 10.0) == 2.5

    def test_inverse_square(self):
        assert abs(POWER2.recip_primitive(1.0, 2.0) - 0.5) < 1e-14

    def test_quadrature_matches_closed_forms(self):
        # the adaptive route must agree with the exact primitives
        for g, lam, t in (
            (IDENTITY, 1.0, math.e),
            (POWER2, 1.0, 2.0),
            (make_g(CatalogRef("affine", {"alpha": 2.0, "beta": 1.0})), 0.5, 7.0),
            (CONST, 0.0, 11.0),
        ):
            exact = g.recip_primitive(lam, t)
            quad, _ = adaptive_simpson(lambda s, fn=g.fn: 1.0 / fn(s), lam, t)
            assert abs(quad - exact) <= 1e-9 * (1.0 + abs(exact)), g.ref.id

    def test_nonpositive_g_rejected(self):
        # g(1) = 1 passes BihariProblem, but g(2) = 0 at the first bracket end.
        prob = BihariProblem(lambda t: 2.0 - t, 1.0, 1.0)
        with pytest.raises(QuadratureDomainError, match=r"g\(2\.0\) = 0\.0 is not positive"):
            bihari_bound(prob)

    def test_inverted_interval_rejected(self):
        with pytest.raises(ValueError, match="inverted interval"):
            adaptive_simpson(lambda t: 1.0 / t, 2.0, 1.0)


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

    def test_quadrature_route_pinned_bit_for_bit(self):
        for (name, lam, total), want in QUADRATURE_PINNED.items():
            b = bihari_bound(BihariProblem(QUADRATURE_GS[name], lam, total))
            assert not b.condition_violated
            got = (b.M.hex(), b.G_at_M.hex(), b.quadrature_error.hex())
            assert got == want, (name, lam, total)
        # The t**3 plateau: the integral over [1, inf) is 1/2 < 1.
        b = bihari_bound(BihariProblem(lambda t: t**3, 1.0, 1.0))
        assert b.condition_violated and b.M == math.inf
        got = (b.G_at_M.hex(), b.quadrature_error.hex())
        assert got == ("0x1.00000000005f9p-1", "0x1.f23977336fe8fp-36")

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
        assert abs(w.values[n + 1 - w.start] - math.e) < 3.0 / n

    def test_constant_g_gives_partial_sums(self):
        g1 = make_g(CatalogRef("constant", {"value": 1.0}))
        a = Seq(1, (0.5, 1.5, 2.0, 0.25))
        w = worst_case_w(a, g1, 0.0, 1, 5)
        assert tuple(w.values) == (0.0, 0.5, 2.0, 4.0, 4.25)

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


def _reference_worst_case_w(a, g, lam, p, N):
    """The oracle recursion read index by index, with its own Neumaier sum:
    s is the plain running sum, c its accumulated rounding error."""
    s, c = float(lam), 0.0
    w = [s]
    for n in range(p, N):
        v = a.values[n - a.start] * g(w[-1])
        t = s + v
        if abs(s) >= abs(v):
            c += (s - t) + v
        else:
            c += (v - t) + s
        s = t
        w.append(s + c)
    return w


def _hex(values):
    return [float(v).hex() for v in values]


class TestOracleKernels:
    """The slice-driven kernels against index-by-index reference loops."""

    def test_worst_case_w_matches_reference_loop(self):
        rng = random.Random(11)
        # p > a.start and N - 1 < a.end, so both slice offsets are exercised.
        p, N = 5, 590
        # At lambda = 0 the first nonzero step has |s| < |v|, the second
        # Neumaier branch; a negative g drives the sum through zero.
        gs = CATALOG_GS + (lambda t: 0.5 + t * t, lambda t: -2.0 - t)
        for lam in (0.75, 0.0):
            for g in gs:
                a = Seq(2, tuple(rng.uniform(0.0, 5e-4) for _ in range(600)))
                w = worst_case_w(a, g, lam, p, N)
                assert w.start == p
                assert _hex(w.values) == _hex(_reference_worst_case_w(a, g, lam, p, N))

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
