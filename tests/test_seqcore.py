import math
import random
from array import array
from itertools import islice, repeat
from operator import add, mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asympoly.errors import WindowLengthError
from asympoly.seqcore import (
    PolyCoeffs,
    TRAIL_FRACTION,
    Seq,
    classify_oscillation,
    csum,
    delta,
    index_powers,
    line_fit,
    order_estimate,
    trail_length,
    weighted_sum_diagnostic,
)

from asympoly import seqcore
from conftest import cumsum_window, seq_from_function


class TestSeq:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Seq(1, ())

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Seq(1, (1.0, math.inf))
        with pytest.raises(ValueError):
            Seq(1, (math.nan,))

    @pytest.mark.parametrize(
        "values, first_bad",
        [
            pytest.param((1.0, math.nan, 2.0), 1, id="nan"),
            pytest.param((1.0, 2.0, math.inf), 2, id="inf"),
            pytest.param((-math.inf, 1.0), 0, id="-inf-first"),
            # The sum is NaN, not an infinity.
            pytest.param((1.0, math.inf, -math.inf), 1, id="inf-then-minus-inf"),
            # The sum overflows before the NaN.
            pytest.param((1e308, 1e308, math.nan), 2, id="overflow-then-nan"),
        ],
    )
    def test_rejects_each_non_finite_value_naming_the_first(self, values, first_bad):
        with pytest.raises(ValueError, match=rf"^non-finite value at index {3 + first_bad}$"):
            Seq(3, values)
        with pytest.raises(ValueError, match=rf"^non-finite value at index {3 + first_bad}$"):
            Seq(3, iter(values))

    @pytest.mark.parametrize("bad", [seqcore.FILL_CHUNK, 5000])
    def test_iterator_longer_than_one_chunk_names_the_first_non_finite(self, bad):
        values = [float(n) for n in range(6000)]
        values[bad] = math.nan
        with pytest.raises(ValueError, match=rf"^non-finite value at index {2 + bad}$"):
            Seq(2, iter(values))

    @pytest.mark.parametrize("length", [1, seqcore.FILL_CHUNK, 2 * seqcore.FILL_CHUNK, 9000])
    def test_iterator_is_copied_whole_across_chunks(self, length):
        values = [n * 0.5 - 7.0 for n in range(length)]
        assert Seq(1, map(float, values)).values == array("d", values)

    @pytest.mark.parametrize("values", [
        pytest.param((1e308, 1e308), id="overflow"),
        pytest.param((1e308, 1e308, -1e308), id="overflow-then-back"),
    ])
    def test_finite_values_whose_sum_overflows_are_accepted(self, values):
        assert tuple(Seq(1, values).values) == values

    def test_later_changes_to_the_source_do_not_reach_the_window(self):
        source = array("d", (1.0, 2.0, 3.0))
        x = Seq(1, source)
        source[0] = 9.0
        source.append(4.0)
        assert tuple(x.values) == (1.0, 2.0, 3.0)

    def test_rejects_negative_start(self):
        # Index 0 too: the paper's sequences, and every window, start at 1.
        for start in (-1, 0):
            with pytest.raises(ValueError, match=rf"^start index must be >= 1, got {start}$"):
                Seq(start, (1.0,))

    def test_trailing_holds_trail_length_entries(self):
        # trail_length is the one definition of the trailing half: ceil(n / 2).
        values = array("d", range(1, 4097))
        for n in range(1, 4097):
            assert trail_length(n) == n - n // 2
            tail = Seq(1, values[:n]).trailing()
            assert (len(tail), tail.end) == (trail_length(n), n)
            assert tail.values == values[n - len(tail) : n]


class TestPolyCoeffs:
    def test_eval_linear(self):
        assert PolyCoeffs((0.0, 1.0))(7) == 7.0

    def test_zero_polynomial(self):
        p = PolyCoeffs(())
        assert p.degree == -1
        for n in (0, 3, 100):
            assert p(n) == 0.0

    def test_direct_evaluation(self):
        # 1 - 2*3 + 3**2 = 4
        assert PolyCoeffs((1.0, -2.0, 1.0))(3) == 4.0

    def test_degree_ignores_trailing_zeros(self):
        assert PolyCoeffs((1.0, 0.0, 0.0)).degree == 0

    def test_kernel_of_delta(self):
        # degree-d polynomials are annihilated by the (d+1)-th difference
        for coeffs in ((3.0,), (1.0, -2.0), (0.5, 1.0, -0.25), (1.0, 0.0, 0.0, 2.0)):
            p = PolyCoeffs(coeffs)
            x = Seq(1, p.at_indices(1, 200))
            d = delta(x, p.degree + 1)
            scale = max(abs(v) for v in x.values)
            assert max(abs(v) for v in d.values) <= 1e-9 * scale


def hexes(values):
    return [v.hex() for v in values]


def reference_at_indices(coeffs, start, length):
    """Horner from acc = 0.0 through every level, the top one included."""
    ns = range(start, start + length)
    acc = repeat(0.0, length)
    for c in reversed(coeffs):
        acc = map(add, map(mul, acc, ns), repeat(c))
    return list(acc)


@pytest.mark.parametrize("start", [0, 1, 37])
@pytest.mark.parametrize(
    "coeffs",
    [
        pytest.param(c, id=repr(c))
        for c in [
            (), (0.0,), (-0.0,), (2.5,), (1.5, 0.0), (1.5, -0.0), (-0.0, 0.0, -0.0),
            (0.1, -3.0, 1e-3, 7.25),
        ]
    ],
)
def test_at_indices_matches_the_full_horner_bit_for_bit(coeffs, start):
    got = list(PolyCoeffs(coeffs).at_indices(start, 300))
    assert hexes(got) == hexes(reference_at_indices(coeffs, start, 300))
    assert hexes(got) == hexes(PolyCoeffs(coeffs)(n) for n in range(start, start + 300))


# 5001 is where the trailing half of a 10,000-term window starts.
@pytest.mark.parametrize("start", [1, 9, 5001])
def test_weighted_sum_at_w_zero_matches_the_weighted_formula_bit_for_bit(start):
    rng = random.Random(start)
    values = [rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-12, 3) for _ in range(3000)]
    values[5] = -0.0
    x = Seq(start, values)
    # The general formula: each |x_n| times n**0 (1.0), summed exactly.
    terms = tuple(map(mul, index_powers(start, len(x), 0.0), map(abs, x.values)))
    tail_at = (3 * len(x)) // 4
    diag = weighted_sum_diagnostic(x, 0.0)
    assert diag.partial_sum.hex() == csum(terms).hex()
    assert diag.tail_estimate.hex() == csum(terms[tail_at:]).hex()


class TestDelta:
    def test_constant_kernel(self):
        assert tuple(delta(Seq(1, (5.0, 5.0, 5.0, 5.0)), 1).values) == (0.0, 0.0, 0.0)

    def test_alternating_closed_form(self):
        # m-th difference of (-1)^n is 2^m (-1)^(m+n)
        x = seq_from_function(lambda n: (-1.0) ** n, 1, 40)
        for m in (1, 2, 3, 5):
            d = delta(x, m)
            for n, v in enumerate(d.values, d.start):
                assert v == 2.0**m * (-1.0) ** (m + n)

    def test_quadratic(self):
        x = seq_from_function(lambda n: float(n * n), 1, 20)
        assert set(delta(x, 2).values) == {2.0}

    def test_order_zero_is_identity(self):
        x = seq_from_function(float, 1, 5)
        assert delta(x, 0) is x

    def test_window_too_short(self):
        with pytest.raises(WindowLengthError):
            delta(Seq(1, (1.0, 2.0)), 2)

    def test_order_cap(self):
        with pytest.raises(ValueError):
            delta(seq_from_function(float, 1, 40), 21)

    def test_composition_exact(self):
        x = seq_from_function(lambda n: math.sin(0.7 * n) * n, 1, 100)
        for m in (2, 3, 4):
            assert delta(delta(x, 1), m - 1) == delta(x, m)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(-100, 100), min_size=8, max_size=40),
        st.lists(st.floats(-100, 100), min_size=8, max_size=40),
        st.floats(-3, 3),
        st.floats(-3, 3),
        st.integers(0, 4),
    )
    def test_linearity(self, xs, ys, alpha, beta, m):
        length = min(len(xs), len(ys))
        if length <= m:
            return
        x = Seq(1, tuple(xs[:length]))
        y = Seq(1, tuple(ys[:length]))
        combo = Seq(1, tuple(alpha * a + beta * b for a, b in zip(x.values, y.values)))
        lhs = delta(combo, m)
        dx, dy = delta(x, m), delta(y, m)
        scale = 1.0 + max(max(abs(v) for v in dx.values), max(abs(v) for v in dy.values))
        for n, v in enumerate(lhs.values, lhs.start):
            want = alpha * dx.values[n - dx.start] + beta * dy.values[n - dy.start]
            assert abs(v - want) <= 1e-12 * scale * (1.0 + abs(alpha) + abs(beta))


class TestCsum:
    def test_cancellation_naive_sum_gets_wrong(self):
        vals = [1e16, 1.0, -1e16]
        assert sum(vals) == 0.0  # naive summation loses the 1.0
        assert csum(vals) == 1.0

    def test_close_to_exact_under_repeated_cancellation(self):
        vals = [1e16, 1.0, -1e16, 1.0, 0.1, -0.2] * 50
        exact = math.fsum(vals)
        assert abs(csum(vals) - exact) <= 1e-12 * abs(exact)


class TestLineFit:
    def test_exact_line(self):
        xs = range(1, 11)
        assert line_fit(xs, [3.0 * x - 2.0 for x in xs]) == 3.0

    def test_constant_xs_give_nan(self):
        assert math.isnan(line_fit([2.0] * 5, [1.0, 2.0, 3.0, 4.0, 5.0]))


class TestWeightedSumDiagnostic:
    def test_zeta_two_partial(self):
        x = seq_from_function(lambda n: float(n) ** -3, 1, 10_000)
        diag = weighted_sum_diagnostic(x, 1.0)
        assert diag.converged
        assert abs(diag.partial_sum - 1.6449340668482264) < 1e-3

    def test_harmonic_not_converged(self):
        x = seq_from_function(lambda n: 1.0 / n, 1, 10_000)
        diag = weighted_sum_diagnostic(x, 0.0)
        assert not diag.converged
        # trailing quarter of the harmonic series contributes ~log(4/3)
        assert abs(diag.tail_estimate - math.log(4.0 / 3.0)) < 2e-2

    def test_zero_sequence(self):
        x = Seq(1, (0.0,) * 32)
        diag = weighted_sum_diagnostic(x, 2.0)
        assert diag == type(diag)(0.0, 0.0, True)

    def test_minimum_length(self):
        with pytest.raises(WindowLengthError):
            weighted_sum_diagnostic(Seq(1, (1.0,) * 15), 0.0)

    def test_weights_beyond_the_float_range_read_as_divergent(self):
        # 32**400 overflows: the sum is NaN, as csum reports a divergent sum.
        diag = weighted_sum_diagnostic(Seq(1, (1.0,) * 32), 400.0)
        assert math.isnan(diag.partial_sum) and not diag.converged

    @staticmethod
    def tuple_formula(x, w):
        """Every term boxed in one tuple, then the whole and its last quarter summed."""
        tail_at = (3 * len(x)) // 4
        mags = map(abs, x.values)
        if w == 0.0:
            terms = tuple(mags)
        else:
            terms = tuple(map(mul, index_powers(x.start, len(x), w), mags))
        partial = csum(terms)
        tail_part = csum(terms[tail_at:])
        return partial.hex(), tail_part.hex(), tail_part < seqcore.TAU_TAIL * (1.0 + partial)

    @pytest.mark.parametrize("source", ["list", "iterator"])
    @pytest.mark.parametrize("length", [16, 1001])
    @pytest.mark.parametrize("start", [1, 7, 1500])
    @pytest.mark.parametrize("w", [0.0, 1.0, -0.5, 2.5])
    def test_streaming_sums_match_the_tuple_formula(self, w, start, length, source):
        # Streamed or boxed in one tuple, the sums are the same bits, whether
        # the window was built from a list or, as the solver builds it, from
        # a lazy iterator.
        rng = random.Random(length + start)
        values = [rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-8, 8) for _ in range(length)]
        x = Seq(start, values if source == "list" else iter(values))
        got = weighted_sum_diagnostic(x, w)
        want = self.tuple_formula(x, w)
        assert (got.partial_sum.hex(), got.tail_estimate.hex(), got.converged) == want


class TestOrderEstimate:
    def test_sqrt_is_small_o_of_n(self):
        x = seq_from_function(lambda n: float(n) ** 0.5, 1, 10_000)
        assert order_estimate(x, 1.0).kind == "small_o"

    def test_linear_is_big_o_not_small_o(self):
        x = seq_from_function(float, 1, 10_000)
        v = order_estimate(x, 1.0)
        assert v.kind == "big_O"
        assert v.metric == 1.0

    def test_n_log_n_is_neither(self):
        x = seq_from_function(lambda n: n * math.log(n), 1, 10_000)
        assert order_estimate(x, 1.0).kind == "neither"

    def test_minimum_length(self):
        with pytest.raises(WindowLengthError):
            order_estimate(Seq(1, (1.0,) * 31), 0.0)

    def test_noise_scale_is_keyword_only(self):
        # An old positional third argument (the thresholds) is rejected,
        # not read silently as a noise scale.
        with pytest.raises(TypeError):
            order_estimate(Seq(1, (1.0,) * 32), 0.0, 1e-12)

    def test_power_grid(self):
        # n^t * (bounded, nonvanishing): small_o iff t < s, big_O iff t <= s
        grid = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)
        for t in grid:
            x = seq_from_function(lambda n: float(n) ** t * (2.0 + math.sin(n)), 1, 10_000)
            for s in grid:
                v = order_estimate(x, s)
                assert (v.kind == "small_o") == (t < s), (t, s, v)
                assert (v.kind in ("small_o", "big_O")) == (t <= s), (t, s, v)


def test_stolz_cesaro_coefficient_property():
    # if the m-th difference tends to lam, then p! * (m-p)-th difference / n^p
    # approaches lam as well, for every p up to m
    for m in (1, 2, 3, 4):
        for lam in (-10.0, -1.0, 0.5, 10.0):
            d = [lam + 1.0 / n for n in range(1, 10_001)]
            z = cumsum_window(d, 1, m)
            for p in range(m + 1):
                dv = delta(z, m - p)
                n_end = dv.end
                val = math.factorial(p) * dv.values[-1] / float(n_end) ** p
                assert abs(val - lam) <= 0.05 * abs(lam), (m, lam, p, val)


class TestClassifyOscillation:
    def test_constant_positive_grants_all_nonoscillation_labels(self):
        x = seq_from_function(lambda n: 1.0, 1, 100)
        u = seq_from_function(lambda n: 0.3, 1, 100)
        labels = classify_oscillation(x, u, 3)
        assert {"nonoscillatory", "k_nonoscillatory", "uk_nonoscillatory"} <= labels
        assert "oscillatory" not in labels

    def test_alternating_even_shift(self):
        x = seq_from_function(lambda n: (-1.0) ** n, 1, 100)
        u = seq_from_function(lambda n: 2.0, 1, 100)
        labels = classify_oscillation(x, u, 2)
        assert "k_nonoscillatory" in labels
        assert "uk_nonoscillatory" in labels
        assert "nonoscillatory" not in labels

    def test_alternating_odd_shift_only_oscillatory(self):
        x = seq_from_function(lambda n: (-1.0) ** n, 1, 100)
        u = seq_from_function(lambda n: 2.0, 1, 100)
        assert classify_oscillation(x, u, 1) == frozenset({"oscillatory"})

    def test_insufficient_overlap(self):
        x = seq_from_function(lambda n: 1.0, 1, 5)
        u = seq_from_function(lambda n: 1.0, 1, 5)
        with pytest.raises(WindowLengthError):
            classify_oscillation(x, u, 10)

    @pytest.mark.parametrize("k", [-1, 0, 2])
    def test_only_the_trailing_half_is_read(self, k):
        # Sign changes before the trailing half of the common window (and
        # before the x_{n+k} it reads when k < 0) leave every label as it is
        # on a positive x; one inside it does not.
        u = seq_from_function(lambda n: 1.0, 1, 100)
        lo, hi = max(1, 1 - k), min(99, 100 - k)
        tail_lo = hi - math.ceil((hi - lo + 1) * TRAIL_FRACTION) + 1
        first_read = tail_lo + min(k, 0)
        positive = classify_oscillation(seq_from_function(lambda n: 1.0, 1, 100), u, k)
        early = seq_from_function(lambda n: (-1.0) ** n if n < first_read else 1.0, 1, 100)
        assert classify_oscillation(early, u, k) == positive
        late = seq_from_function(lambda n: -1.0 if n == hi else 1.0, 1, 100)
        assert "oscillatory" in classify_oscillation(late, u, k)


class TestIndexPowers:
    EXPONENTS = (-2, -1, 0, 0.5, 1, 2, 3.7)

    @staticmethod
    def direct(start, length, e):
        return list(map(pow, map(float, range(start, start + length)), repeat(e)))

    @pytest.mark.parametrize("start", [0, 1, 5000])
    def test_matches_pow_bit_for_bit(self, start):
        length = 3000
        for e in self.EXPONENTS:
            if start == 0 and e < 0:
                # 0.0 ** e: both raise when n = 0 is reached.
                with pytest.raises(ZeroDivisionError):
                    self.direct(start, length, e)
                with pytest.raises(ZeroDivisionError):
                    list(index_powers(start, length, e))
                continue
            got = list(index_powers(start, length, e))
            assert list(map(float.hex, got)) == list(map(float.hex, self.direct(start, length, e)))

    @pytest.mark.parametrize("e", EXPONENTS)
    def test_powers_are_computed_as_they_are_read(self, e):
        # A window of 10**18 indices costs nothing until it is read: no
        # table of its powers is built up front.
        got = list(islice(index_powers(1, 10**18, e), 5))
        assert list(map(float.hex, got)) == list(map(float.hex, self.direct(1, 5, e)))

    def test_power_past_the_float_range_raises_when_reached(self):
        # 2**1000 fits a float, 3**1000 does not.
        assert list(index_powers(1, 2, 1000)) == [1.0, 2.0**1000]
        powers = index_powers(1, 3, 1000)
        assert [next(powers), next(powers)] == [1.0, 2.0**1000]
        with pytest.raises(OverflowError):
            next(powers)
