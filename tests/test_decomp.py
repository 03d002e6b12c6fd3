import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asympoly.catalog import CatalogRef
from asympoly.decomp import (
    decompose_solution,
    extract_polynomial,
    regularity_check,
    transfer_polynomial,
)
from asympoly.errors import WindowLengthError
from asympoly.neutral_solver import EquationSpec, consistent_seeds, simulate
from asympoly.seqcore import PolyCoeffs, Seq, csum, seq_from_function

from conftest import CERTIFIED, tail_sum_window


class TestExtractPolynomial:
    def test_quadratic_with_decaying_ripple(self):
        z = seq_from_function(lambda n: 3.0 * n * n - n + math.sin(n) / n, 1, 10_000)
        rep = extract_polynomial(z, 3, 0.0)
        for got, want in zip(rep.psi.padded(2), (0.0, -1.0, 3.0)):
            assert abs(got - want) < 1e-2
        assert rep.remainder_verdict.kind == "small_o"

    def test_exact_polynomial(self):
        p = PolyCoeffs((2.0, -1.5, 0.25))
        z = p.sample(1, 512)
        rep = extract_polynomial(z, 3, 0.0)
        for got, want in zip(rep.psi.padded(2), p.padded(2)):
            assert abs(got - want) < 1e-8
        assert rep.remainder_verdict.kind == "small_o"
        assert max(abs(v) for v in rep.remainder.values) <= 1e-9 * 512**2

    def test_alternating_no_certificate(self):
        z = seq_from_function(lambda n: (-1.0) ** n, 1, 200)
        rep = extract_polynomial(z, 1, 0.0)
        assert rep.remainder_verdict.kind == "neither"

    def test_reconstruction_is_exact(self):
        z = seq_from_function(lambda n: 1.5 * n + math.cos(n), 1, 256)
        rep = extract_polynomial(z, 2, 0.0)
        rebuilt = tuple(
            rep.psi(n) + rep.remainder.at(n) for n, _ in z.items()
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
        z = Seq(1, tuple(poly(n) + w.at(n) for n, _ in w.items()))
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
        check = regularity_check(rep.remainder, m, scale=scale)
        assert check.passed, [v.kind for v in check.verdicts]


    def test_decay_exponent_fit(self):
        # alternating sign keeps the trailing mean of the remainder at zero,
        # so the fitted constant does not distort the tail magnitudes
        z = seq_from_function(
            lambda n: 2.0 + (-1.0) ** n * float(n) ** -1.5, 1, 4096
        )
        rep = extract_polynomial(z, 1, 0.0)
        assert abs(rep.decay_exponent + 1.5) < 0.1
        assert rep.decay_r2 > 0.99


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
            rep = regularity_check(w, q)
            assert rep.passed, [v.kind for v in rep.verdicts]

    def test_alternating_fails_at_p_one(self):
        w = seq_from_function(lambda n: (-1.0) ** n, 1, 200)
        rep = regularity_check(w, 1)
        assert not rep.passed
        assert rep.verdicts[0].kind == "small_o"  # (-1)^n is o(n)
        assert rep.verdicts[1].kind != "small_o"  # its difference is not o(1)

    def test_zero_window_passes(self):
        rep = regularity_check(Seq(1, (0.0,) * 80), 2)
        assert rep.passed

    def test_window_length(self):
        with pytest.raises(WindowLengthError):
            regularity_check(Seq(1, (0.0,) * 63), 1)


class TestDecomposeSolution:
    def test_polynomial_trivial(self, traces):
        spec = EquationSpec(
            m=2, k=0, c=0.5,
            u=CatalogRef("constant", {"value": 0.5}),
            a=CatalogRef("constant", {"value": 0.0}),
            b=CatalogRef("constant", {"value": 0.0}),
            f=CatalogRef("sigmoid"),
            g=CatalogRef("constant", {"value": 1.0}),
            sigma=CatalogRef("identity"),
            s=0.0,
        )
        x_seed, z_seed = consistent_seeds(spec, Seq(2, (5.0, 7.0)))  # x = 2n + 1
        trace = simulate(spec, x_seed, z_seed, 2000)
        dec = decompose_solution(trace, spec)
        for got, want in zip(dec.x_report.psi.padded(1), (1.0, 2.0)):
            assert abs(got - want) < 1e-6
        assert dec.x_report.remainder_verdict.kind == "small_o"
        assert max(abs(v) for v in dec.x_report.remainder.values) < 1e-6

    def test_transfer_agrees_with_direct_extraction(self, traces):
        dec = decompose_solution(traces["t1_case_a_m2"], CERTIFIED["t1_case_a_m2"].spec)
        transferred = dec.psi_x_transferred.padded(1)
        direct = dec.x_report.psi.padded(1)
        assert abs(transferred[1] - direct[1]) <= 0.02 * max(
            abs(transferred[1]), abs(direct[1])
        )

    def test_scalar_linear_instance_matches_product_oracle(self):
        # m=1, k=0, u = c: the equation collapses to the scalar recursion
        # x_{n+1} = x_n (1 + a_n/(1+c)), whose limit is an explicit product
        spec = EquationSpec(
            m=1, k=0, c=0.5,
            u=CatalogRef("constant", {"value": 0.5}),
            a=CatalogRef("power", {"A": 0.5, "rho": 2.0}),
            b=CatalogRef("constant", {"value": 0.0}),
            f=CatalogRef("linear"),
            g=CatalogRef("identity"),
            sigma=CatalogRef("identity"),
            s=0.0,
        )
        x_seed, z_seed = consistent_seeds(spec, Seq(1, (1.0,)))
        trace = simulate(spec, x_seed, z_seed, 10_000)
        dec = decompose_solution(trace, spec)
        product = 1.0
        for n in range(1, 1_000_000):
            product *= 1.0 + (0.5 / n**2) / 1.5
        assert abs(dec.x_report.psi.padded(0)[0] - product) < 1e-3

    def test_regular_reports_present_when_q_set(self, traces):
        spec = CERTIFIED["t2_regular_m2"].spec
        dec = decompose_solution(traces["t2_regular_m2"], spec)
        assert dec.x_report.regular_q == spec.q
        assert dec.x_report.regular_passed is True
        assert dec.z_report.regular_passed is True
        assert len(dec.x_report.regular_checks) == spec.q + 1
