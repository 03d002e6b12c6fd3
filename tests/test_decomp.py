import json
import math
import random
from dataclasses import replace
from fractions import Fraction
from itertools import repeat
from operator import mul, sub, truediv

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asympoly import decomp
from asympoly.catalog import CatalogRef
from asympoly.cli import ExperimentConfig
from asympoly.decomp import (
    MIN_WINDOW,
    DecompositionReport,
    decompose_solution,
    extract_polynomial,
    regularity_check,
    transfer_polynomial,
)
from asympoly.errors import DivergenceError, WindowLengthError
from asympoly.neutral_solver import (
    EquationSpec,
    consistent_seeds,
    sample_coefficients,
    simulate,
    start_index,
    x_start_index,
)
from asympoly.seqcore import (
    MAX_DIFFERENCE_ORDER,
    OrderVerdict,
    PolyCoeffs,
    Seq,
    csum,
    delta,
    index_powers,
)

from conftest import CERTIFIED, fit_divergent_raw, seq_from_function, tail_sum_window


def reference_lstsq(ns, resid, degrees):
    """_lstsq_degrees with every column built with pow, ones included."""
    scale = float(ns[-1])
    cols = [list(map(pow, map(truediv, ns, repeat(scale)), repeat(d))) for d in degrees]
    ata = [[csum(map(mul, ci, cj)) for cj in cols] for ci in cols]
    atb = [csum(map(mul, ci, resid)) for ci in cols]
    sol = decomp._solve_normal_equations(ata, atb)
    return {d: sol[i] / scale**d for i, d in enumerate(degrees)}


@pytest.mark.parametrize("m", [1, 2, 3])
def test_lstsq_matches_the_reference_bit_for_bit(m):
    rng = random.Random(m)
    ns = range(5001, 10001)
    resid = [rng.gauss(0.0, 1e-6) + 1e-9 * n for n in ns]
    got = decomp._lstsq_degrees(ns, resid, list(range(m)))
    want = reference_lstsq(ns, resid, list(range(m)))
    assert {d: c.hex() for d, c in got.items()} == {d: c.hex() for d, c in want.items()}


def reference_psi(z, m, s):
    """extract_polynomial's coefficients computed over z's whole window.

    The reference the fit is held to: every iterated difference and every
    monomial subtraction runs on the whole window, and the least-squares
    columns are all built with pow.
    """
    d_min = max(0, math.ceil(s - 1e-12))
    half = len(z) - len(z) // 2
    coeffs = [0.0] * m
    work = tuple(z.values)
    for d in range(m - 1, d_min - 1, -1):
        diff = work
        for _ in range(d):
            diff = tuple(map(sub, diff[1:], diff))
        # The d-th difference of the trailing half: its last half - d entries.
        tail = diff[-(half - d):]
        coeffs[d] = csum(tail) / len(tail) / math.factorial(d)
        monomial = map(mul, repeat(coeffs[d]), index_powers(z.start, len(z), d))
        work = tuple(map(sub, work, monomial))
    ns = range(z.end - half + 1, z.end + 1)
    corrections = reference_lstsq(ns, work[-half:], list(range(m)))
    for d in range(d_min, m):
        coeffs[d] += corrections[d]
    return tuple(coeffs)


@pytest.mark.parametrize("name", sorted(CERTIFIED))
def test_psi_matches_the_whole_window_reference_bit_for_bit(name, traces):
    cfg = CERTIFIED[name]
    m, s = cfg.spec.m, cfg.spec.s
    for seq in (traces[name].z, traces[name].x):
        got = extract_polynomial(seq, m, s).psi.coeffs
        want = reference_psi(seq, m, s)
        assert list(map(float.hex, got)) == list(map(float.hex, want)), (name, seq.start)


def exact_lstsq(w, m):
    """The least-squares fit of w by a polynomial of degree < m, in exact
    rational arithmetic: each float of w is an integer over the common
    power-of-two denominator Q, the normal equations are sums of integers,
    and they are solved in Fractions."""
    ratios = [v.as_integer_ratio() for v in w.values]
    big_q = max(q for _, q in ratios)
    scaled = [p * (big_q // q) for p, q in ratios]
    ns = range(w.start, w.end + 1)
    power_sums = [sum(n**e for n in ns) for e in range(2 * m - 1)]
    aug = [
        [Fraction(power_sums[i + j]) for j in range(m)]
        + [Fraction(sum(n**i * v for n, v in zip(ns, scaled)), big_q)]
        for i in range(m)
    ]
    for col in range(m):
        for r in range(col + 1, m):
            factor = aug[r][col] / aug[col][col]
            aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    coeffs = [Fraction(0)] * m
    for r in range(m - 1, -1, -1):
        acc = aug[r][m] - sum(aug[r][c] * coeffs[c] for c in range(r + 1, m))
        coeffs[r] = acc / aug[r][r]
    return coeffs


@pytest.mark.parametrize(
    "name, horizon",
    [
        *((name, horizon) for name in sorted(CERTIFIED) for horizon in (2000, 10_000)),
        ("t1_case_a_m3", 100_000),
    ],
)
def test_psi_is_the_exact_least_squares_fit_of_the_trailing_half(name, horizon):
    # The one rule for the polynomial part, held to an oracle that shares no
    # code with the fit: ψ's kept coefficients are the least-squares fit of
    # z's trailing half.
    cfg = CERTIFIED[name]
    m, s = cfg.spec.m, cfg.spec.s
    z = simulate(cfg.spec, cfg.x_seed, cfg.z_seed, horizon).z
    got = extract_polynomial(z, m, s).psi.coeffs
    kept = range(decomp._min_degree(s), m)
    want = exact_lstsq(z.trailing(), m)
    size = max(abs(float(want[d])) for d in kept)
    errors = [abs(Fraction(got[d]) - want[d]) for d in kept]
    assert max(errors) <= Fraction(1e-11) * Fraction(size), (name, horizon, float(max(errors)) / size)
    assert all(c == 0.0 for c in got[: kept.start])


@pytest.mark.parametrize("m", range(1, MAX_DIFFERENCE_ORDER + 2))
def test_psi_on_the_shortest_window_matches_the_reference_at_every_order(m):
    # The fit runs on z's trailing half, and its degree m - 1 mean reads all
    # len/2 - (m - 1) differences there: at MIN_WINDOW entries and the
    # highest order delta accepts, 12 of them.
    rng = random.Random(m)
    z = Seq(3, [rng.uniform(-1.0, 1.0) for _ in range(MIN_WINDOW)])
    got = extract_polynomial(z, m, 0.0).psi.coeffs
    want = reference_psi(z, m, 0.0)
    assert list(map(float.hex, got)) == list(map(float.hex, want))


@pytest.mark.parametrize("q", [1, 3])
def test_regularity_levels_are_the_iterated_differences_bit_for_bit(q, traces, monkeypatch):
    rng = random.Random(q)
    windows = [
        Seq(1, [rng.uniform(-1.0, 1.0) * n for n in range(1, 2001)]),
        extract_polynomial(traces["t2_regular_m3"].x, 3, 2.0).remainder,
    ]
    levels = []
    order_estimate = decomp.order_estimate

    def recording(x, *args, **kwargs):
        levels.append(x)
        return order_estimate(x, *args, **kwargs)

    monkeypatch.setattr(decomp, "order_estimate", recording)
    for w in windows:
        levels.clear()
        regularity_check(w, q, scale=1.0)
        assert len(levels) == q + 1
        for p, level in enumerate(levels):
            want = delta(w, p)
            assert level.start == want.start
            assert level.values.tobytes() == want.values.tobytes(), p


class TestExtractPolynomial:
    def test_quadratic_with_decaying_ripple(self):
        z = seq_from_function(lambda n: 3.0 * n * n - n + math.sin(n) / n, 1, 10_000)
        rep = extract_polynomial(z, 3, 0.0)
        for got, want in zip(rep.psi.padded(2), (0.0, -1.0, 3.0)):
            assert abs(got - want) < 1e-2
        assert rep.remainder_verdict.kind == "small_o"

    def test_exact_polynomial(self):
        p = PolyCoeffs((2.0, -1.5, 0.25))
        z = Seq(1, p.at_indices(1, 512))
        rep = extract_polynomial(z, 3, 0.0)
        for got, want in zip(rep.psi.padded(2), p.padded(2)):
            assert abs(got - want) < 1e-8
        assert rep.remainder_verdict.kind == "small_o"
        assert max(abs(v) for v in rep.remainder.values) <= 1e-9 * 512**2

    def test_alternating_no_certificate(self):
        z = seq_from_function(lambda n: (-1.0) ** n, 1, 200)
        rep = extract_polynomial(z, 1, 0.0)
        assert rep.remainder_verdict.kind == "neither"

    def test_remainder_with_a_one_ulp_tail_is_small(self):
        # An early transient, then a tail that alternates between 1.0 and the
        # next float up.  The remainder's trailing third sits at the input's
        # rounding resolution, so no trend is measured on the quantisation: a
        # trend ratio there reads 1.0, which would make the verdict neither.
        w = Seq(1, [
            1.0 + 1e-3 * 0.5**n if n < 60 else (math.nextafter(1.0, 2.0) if n % 2 else 1.0)
            for n in range(1, 3001)
        ])
        verdict = extract_polynomial(w, 1, 0.0).remainder_verdict
        assert verdict.kind == "small_o"
        assert verdict.trend == 0.0

    def test_remainder_of_an_overflowing_psi_names_the_index(self):
        # 1e306 * n leaves the float range first at n = 180.
        z = Seq(1, [0.0] * 300)
        with pytest.raises(DivergenceError, match=r"^remainder: non-finite value at index 180$"):
            decomp._remainder(z, PolyCoeffs((0.0, 1e306)))

    def test_overflowing_fit_of_a_finite_x_is_a_divergence(self):
        # A non-finite coefficient is the input's divergence, as a non-finite
        # difference is, not a ValueError.
        cfg = ExperimentConfig.from_json(json.dumps(fit_divergent_raw()))
        trace = simulate(cfg.spec, cfg.x_seed, cfg.z_seed, 6540)
        with pytest.raises(DivergenceError, match=r"^divergent input: non-finite coefficient"):
            extract_polynomial(trace.x, cfg.spec.m, cfg.spec.s)

    def test_reconstruction_is_exact(self):
        z = seq_from_function(lambda n: 1.5 * n + math.cos(n), 1, 256)
        rep = extract_polynomial(z, 2, 0.0)
        rebuilt = tuple(
            rep.psi(n) + r for n, r in enumerate(rep.remainder.values, rep.remainder.start)
        )
        assert rebuilt == tuple(z.values)

    def test_degrees_below_s_left_to_remainder(self):
        z = seq_from_function(lambda n: 2.0 * n + 5.0, 1, 512)
        rep = extract_polynomial(z, 2, 1.0)
        assert rep.psi.padded(1)[0] == 0.0  # constant not estimated at s = 1
        assert abs(rep.psi.padded(1)[1] - 2.0) < 1e-6
        assert rep.remainder_verdict.kind == "small_o"

    def test_window_too_short(self):
        with pytest.raises(WindowLengthError):
            extract_polynomial(Seq(1, (1.0,) * 63), 1, 0.0)

    def test_s_above_order_rejected(self):
        with pytest.raises(ValueError):
            extract_polynomial(Seq(1, (1.0,) * 64), 1, 0.5)

    def test_coefficient_errors_shrink_with_horizon(self):
        true = PolyCoeffs((1.5, -2.0, 0.75))
        s = 0.0
        errs = {}
        for N in (5_000, 20_000):
            z = Seq(
                1,
                tuple(
                    true(n) + float(n) ** (s - 0.5) * math.cos(0.1 * n)
                    for n in range(1, N + 1)
                ),
            )
            rep = extract_polynomial(z, 3, s)
            errs[N] = [abs(a - b) for a, b in zip(rep.psi.padded(2), true.padded(2))]
        for d in (1, 2):  # degrees above s
            assert errs[20_000][d] < errs[5_000][d]

    def test_summable_difference_construction_certified(self):
        # polynomial + m-fold tail sums of a weighted-summable sequence:
        # the remainder must be certified small at s
        m, s = 2, 0.0
        poly = PolyCoeffs((1.0, 0.5))
        d = [float(n) ** -4 for n in range(1, 10_001)]
        w = tail_sum_window(d, 1, m)
        z = Seq(1, tuple(poly(n) + v for n, v in enumerate(w.values, w.start)))
        rep = extract_polynomial(z, m, s)
        assert rep.remainder_verdict.kind == "small_o"
        assert abs(rep.psi.padded(1)[1] - 0.5) < 1e-6



    def test_divergent_input_raises_divergence_error(self):
        from asympoly.errors import DivergenceError

        big = 9e307
        z = Seq(1, tuple(big if n % 2 else -big for n in range(1, 101)))
        with pytest.raises(DivergenceError):
            extract_polynomial(z, 2, 0.0)

    def test_regularity_of_remainder_when_top_difference_vanishes(self):
        # synthetic x whose m-th difference tends to zero by construction:
        # the remainder after polynomial extraction passes every iterated
        # difference check up to m
        from conftest import cumsum_window

        m = 2
        d = [float(n) ** -0.5 for n in range(1, 10_001)]
        x = cumsum_window(d, 1, m)
        rep = extract_polynomial(x, m, float(m - 1))
        scale = max(abs(v) for v in x.values)
        checks = regularity_check(rep.remainder, m, scale=scale)
        assert all(v.is_small_o for v in checks), [v.kind for v in checks]
        # An old positional third argument (the thresholds) is rejected,
        # not read silently as the scale.
        with pytest.raises(TypeError):
            regularity_check(rep.remainder, m, scale)


class TestTransferPolynomial:
    def test_linear_closed_form(self):
        for c in (-0.5, 0.5, 2.0):
            for k in (-2, 1, 3):
                psi = transfer_polynomial(PolyCoeffs((0.0, 1.0)), c, k)
                expect = (-c * k / (1.0 + c) ** 2, 1.0 / (1.0 + c))
                assert abs(psi.coeffs[0] - expect[0]) < 1e-14
                assert abs(psi.coeffs[1] - expect[1]) < 1e-14

    def test_c_zero_is_identity(self):
        phi = PolyCoeffs((1.0, -2.0, 3.0))
        assert transfer_polynomial(phi, 0.0, 5).coeffs == phi.coeffs

    def test_k_zero_divides(self):
        phi = PolyCoeffs((3.0, -6.0))
        psi = transfer_polynomial(phi, 0.5, 0)
        assert psi.coeffs == (2.0, -4.0)

    def test_zero_polynomial(self):
        assert transfer_polynomial(PolyCoeffs(()), 0.5, 1).coeffs == ()

    def test_residual_at_a_root_of_a_large_psi(self):
        # psi = phi / 3 has its root near n = 3, where psi(3), 2 psi(3) and
        # phi(3) cancel to near 0: the residual, rounding of terms near
        # 1e160, is measured against the coefficient magnitudes instead.
        slope = math.nextafter(1e160, math.inf)
        psi = transfer_polynomial(PolyCoeffs((-3e160, slope)), 2.0, 0)
        assert psi.coeffs == (-3e160 / 3.0, slope / 3.0)

    def test_residual_above_tolerance_is_a_divergence(self, monkeypatch):
        monkeypatch.setattr(decomp, "TRANSFER_RTOL", -1.0)
        with pytest.raises(DivergenceError, match=r"^transfer residual above tolerance at n=0"):
            transfer_polynomial(PolyCoeffs((1.0, 2.0)), 0.5, 1)

    def test_coefficient_beyond_the_float_range_is_a_divergence(self):
        # 1 + c = 1.5e-6 divides at each degree, and the shift terms carry
        # the top coefficient down: degree 0 is about 6e308.
        with pytest.raises(DivergenceError, match=r"^transfer: non-finite coefficient at degree 0$"):
            transfer_polynomial(PolyCoeffs((0.0, 0.0, 1e296)), -0.9999985, -1)

    def test_near_unit_c_rejected(self):
        with pytest.raises(ValueError):
            transfer_polynomial(PolyCoeffs((1.0,)), 1.0 + 1e-9, 1)
        with pytest.raises(ValueError):
            transfer_polynomial(PolyCoeffs((1.0,)), -1.0, 1)

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(0, 6),
        st.sampled_from([-3.0, -0.5, 0.0, 0.5, 3.0]),
        st.integers(-3, 3),
        st.integers(0, 2**31 - 1),
    )
    def test_residual_property(self, deg, c, k, seed):
        rng = random.Random(seed)
        phi = PolyCoeffs(tuple(rng.uniform(-4.0, 4.0) for _ in range(deg + 1)))
        psi = transfer_polynomial(phi, c, k)
        scale = 1.0 + max(abs(phi(n)) for n in range(deg + 3))
        for n in range(deg + 3):
            assert abs(psi(n) + c * psi(n + k) - phi(n)) <= 1e-10 * scale
        if phi.degree >= 0:
            ratio = psi.coeffs[phi.degree] / phi.coeffs[phi.degree]
            assert abs(ratio - 1.0 / (1.0 + c)) <= 1e-12


class TestRegularityCheck:
    def test_slow_power_decay_passes(self):
        for q in (1, 2):
            w = seq_from_function(lambda n, q=q: float(n) ** (q - 0.5), 1, 10_000)
            checks = regularity_check(w, q, scale=max(w.values))
            assert all(v.is_small_o for v in checks), [v.kind for v in checks]

    def test_alternating_fails_at_p_one(self):
        w = seq_from_function(lambda n: (-1.0) ** n, 1, 200)
        checks = regularity_check(w, 1, scale=1.0)
        assert not all(v.is_small_o for v in checks)
        assert checks[0].kind == "small_o"  # (-1)^n is o(n)
        assert checks[1].kind != "small_o"  # its difference is not o(1)

    def test_zero_window_passes(self):
        checks = regularity_check(Seq(1, (0.0,) * 80), 2, scale=0.0)
        assert all(v.is_small_o for v in checks)

    def test_window_length(self):
        with pytest.raises(WindowLengthError):
            regularity_check(Seq(1, (0.0,) * 63), 1, scale=0.0)


class TestRemainderJudgedOnce:
    # The regular form's level 0 (p = 0, exponent q = s) is the remainder
    # verdict: one order_estimate call per level, none more.
    @pytest.mark.parametrize("name", sorted(CERTIFIED))
    def test_order_estimate_calls_per_judge(self, name, traces, monkeypatch):
        spec = CERTIFIED[name].spec
        calls = []
        order_estimate, judge = decomp.order_estimate, decomp._judge

        def counting(*args, **kwargs):
            calls[-1] += 1
            return order_estimate(*args, **kwargs)

        def judging(*args):
            calls.append(0)
            return judge(*args)

        monkeypatch.setattr(decomp, "order_estimate", counting)
        monkeypatch.setattr(decomp, "_judge", judging)
        decompose_solution(traces[name], spec)
        assert calls == [1 if spec.q is None else spec.q + 1] * 2  # z, then x

    @pytest.mark.parametrize("name", ["t2_regular_m2", "t2_regular_m3"])
    def test_level_zero_is_the_remainder_verdict(self, name, traces):
        dec = decompose_solution(traces[name], CERTIFIED[name].spec)
        for rep in (dec.z_report, dec.x_report):
            self.assert_level_zero_is_the_verdict(rep)

    def test_big_o_level_zero_reads_neither_in_the_remainder_verdict(self):
        # n + sin n at s = q = 0: the remainder is about sin n, bounded and
        # not decaying, so level 0 is big_O and the remainder verdict neither.
        z = seq_from_function(lambda n: n + math.sin(n), 1, 2000)
        rep = extract_polynomial(z, 2, 0.0, q=0)
        assert rep.regular_checks[0].kind == "big_O"
        assert rep.remainder_verdict.kind == "neither"
        assert rep.regular_passed is False
        self.assert_level_zero_is_the_verdict(rep)

    @staticmethod
    def assert_level_zero_is_the_verdict(rep):
        level0, verdict = rep.regular_checks[0], rep.remainder_verdict
        assert replace(level0, kind=verdict.kind) == verdict
        assert verdict.kind == ("neither" if level0.kind == "big_O" else level0.kind)

    def test_regular_form_needs_s_equal_to_q(self):
        z = seq_from_function(lambda n: n + 1.0 / n, 1, 200)
        with pytest.raises(ValueError, match=r"needs s == q, got s=0.0, q=1$"):
            extract_polynomial(z, 2, 0.0, q=1)


class TestDecompositionReport:
    def test_regular_passed_is_not_an_argument(self):
        verdict = OrderVerdict("small_o", 0.0, 0.0, 0.0, 0.0)
        with pytest.raises(TypeError):
            DecompositionReport(
                PolyCoeffs(()), Seq(1, (0.0,)), 0.0, verdict, 0, (verdict,), regular_passed=False
            )

    def test_regular_passed_is_derived_from_the_levels(self):
        small = OrderVerdict("small_o", 1.0, 0.0, 0.0, 0.0)
        big = replace(small, kind="big_O")
        args = (PolyCoeffs(()), Seq(1, (0.0,)), 1.0, small)
        assert DecompositionReport(*args).regular_passed is None
        assert DecompositionReport(*args, 1, (small, small)).regular_passed is True
        assert DecompositionReport(*args, 1, (small, big)).regular_passed is False


class TestDecomposeSolution:
    def test_polynomial_trivial(self, traces):
        spec = EquationSpec(
            m=2, k=0,
            u=CatalogRef("constant", {"value": 0.5}),
            a=CatalogRef("constant", {"value": 0.0}),
            b=CatalogRef("constant", {"value": 0.0}),
            f=CatalogRef("sigmoid"),
            g=CatalogRef("constant", {"value": 1.0}),
            sigma=CatalogRef("identity"),
            s=0.0,
        )
        x_seed, z_seed = consistent_seeds(spec, (5.0, 7.0))  # x = 2n + 1
        trace = simulate(spec, x_seed, z_seed, 2000)
        dec = decompose_solution(trace, spec)
        for got, want in zip(dec.x_report.psi.padded(1), (1.0, 2.0)):
            assert abs(got - want) < 1e-6
        assert dec.x_report.remainder_verdict.kind == "small_o"
        assert max(abs(v) for v in dec.x_report.remainder.values) < 1e-6

    def test_transfer_agrees_with_direct_extraction(self, traces):
        # An independent fit of x, which a run no longer makes, is the reference.
        spec, trace = CERTIFIED["t1_case_a_m2"].spec, traces["t1_case_a_m2"]
        transferred = decompose_solution(trace, spec).x_report.psi.padded(1)
        direct = extract_polynomial(trace.x, spec.m, spec.s).psi.padded(1)
        assert abs(transferred[1] - direct[1]) <= 0.02 * max(
            abs(transferred[1]), abs(direct[1])
        )

    def test_one_fit_per_run(self, traces, monkeypatch):
        fitted = []
        fit = decomp._fit_polynomial
        monkeypatch.setattr(decomp, "_fit_polynomial", lambda *a: fitted.append(a) or fit(*a))
        decompose_solution(traces["t2_regular_m3"], CERTIFIED["t2_regular_m3"].spec)
        assert len(fitted) == 1

    @pytest.mark.parametrize("name", sorted(CERTIFIED))
    def test_x_polynomial_is_the_zeroed_transfer_of_z(self, name, traces):
        # Bit for bit: the transfer of z's polynomial, its degrees below
        # ceil(s) zeroed as the fit zeroes them, m coefficients as z's.
        spec = CERTIFIED[name].spec
        dec = decompose_solution(traces[name], spec)
        d_min = max(0, math.ceil(spec.s - 1e-12))
        transferred = transfer_polynomial(dec.z_report.psi, spec.c, spec.k).padded(spec.m - 1)
        want = [0.0 if d < d_min else v for d, v in enumerate(transferred)]
        assert [v.hex() for v in dec.x_report.psi.coeffs] == [v.hex() for v in want]

    def test_scalar_linear_instance_matches_product_oracle(self):
        # m=1, k=0, u = c: the equation collapses to the scalar recursion
        # x_{n+1} = x_n (1 + a_n/(1+c)), whose limit is an explicit product
        spec = EquationSpec(
            m=1, k=0,
            u=CatalogRef("constant", {"value": 0.5}),
            a=CatalogRef("power", {"A": 0.5, "rho": 2.0}),
            b=CatalogRef("constant", {"value": 0.0}),
            f=CatalogRef("linear"),
            g=CatalogRef("identity"),
            sigma=CatalogRef("identity"),
            s=0.0,
        )
        x_seed, z_seed = consistent_seeds(spec, (1.0,))
        trace = simulate(spec, x_seed, z_seed, 10_000)
        dec = decompose_solution(trace, spec)
        product = 1.0
        for n in range(1, 1_000_000):
            product *= 1.0 + (0.5 / n**2) / 1.5
        assert abs(dec.x_report.psi.padded(0)[0] - product) < 1e-3

    @pytest.mark.parametrize("name", sorted(CERTIFIED))
    def test_every_window_a_run_holds_starts_at_one_or_later(self, name, traces):
        # Seq rejects a start below 1, and no diagnostic handles index 0:
        # z starts at n0 = max(1, 1 - k, m), x at n0 + min(k, 0), and the
        # coefficient samples u, a and b at n0.
        spec, trace = CERTIFIED[name].spec, traces[name]
        dec = decompose_solution(trace, spec)
        _, a, b, _ = sample_coefficients(spec, trace.z.end)
        assert (trace.z.start, trace.x.start) == (start_index(spec), x_start_index(spec))
        assert (trace.u.start, a.start, b.start) == (start_index(spec),) * 3
        windows = (trace.x, trace.z, trace.u, a, b,
                   dec.z_report.remainder, dec.x_report.remainder)
        assert min(w.start for w in windows) >= 1

    def test_regular_reports_present_when_q_set(self, traces):
        spec = CERTIFIED["t2_regular_m2"].spec
        dec = decompose_solution(traces["t2_regular_m2"], spec)
        assert dec.x_report.regular_q == spec.q
        assert dec.x_report.regular_passed is True
        assert dec.z_report.regular_passed is True
        assert len(dec.x_report.regular_checks) == spec.q + 1
