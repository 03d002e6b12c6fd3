import math

import pytest

from asympoly import hypotheses, seqcore
from asympoly.catalog import F_TABLE, CatalogRef, RhsFunction, make_f, make_g
from asympoly.decomp import MIN_WINDOW, extract_polynomial
from asympoly.errors import ConfigError, WindowLengthError
from asympoly.hypotheses import (
    GROWTH_SLACK,
    CheckResult,
    ConclusionResult,
    HypothesisVerdict,
    check_g_p_bounded,
    check_u_rate,
    polynomial_growth_check,
    theorem_dispatch,
)
from asympoly.neutral_solver import EquationSpec, consistent_seeds, simulate

from conftest import CERTIFIED, load_fixture, seq_from_function
from test_catalog import G_EDGES

CONST_ONE = make_g(CatalogRef("constant", {"value": 1.0}))
IDENTITY_G = make_g(CatalogRef("identity"))


class TestCheckGPBounded:
    def test_sigmoid_under_constant_one(self):
        f = make_f(CatalogRef("sigmoid"))
        for p in (0.0, 1.0, 2.0):
            res = check_g_p_bounded(f, CONST_ONE, p, 10_000)
            assert res.passed
            assert res.metric <= 0.5 + 1e-12

    def test_linear_under_identity(self):
        f = make_f(CatalogRef("linear"))
        assert check_g_p_bounded(f, IDENTITY_G, 0.0, 10_000).passed
        res = check_g_p_bounded(f, IDENTITY_G, 1.0, 10_000)
        assert not res.passed
        assert res.metric > 1.0

    def test_zero_rhs_passes_everything(self):
        zero = RhsFunction(CatalogRef("linear"), lambda t: 0.0, 0.0)
        for g in (CONST_ONE, IDENTITY_G):
            for p in (0.0, 1.0):
                assert check_g_p_bounded(zero, g, p, 10_000).passed

    def test_dispatch_checks_at_the_trace_horizon(self, monkeypatch):
        import asympoly.hypotheses as hyp

        horizons = []
        real = hyp.check_g_p_bounded

        def recording(f, g, p, n_max):
            horizons.append(n_max)
            return real(f, g, p, n_max)

        monkeypatch.setattr(hyp, "check_g_p_bounded", recording)
        inst = CERTIFIED["t1_case_a_m1"]
        trace = simulate(inst.spec, inst.x_seed, inst.z_seed, 100_000)
        theorem_dispatch(inst.spec, trace, inst.case_id)
        assert horizons == [trace.z.end] == [100_000]


#: Parameters for every f entry: the ends and the middle of power_sgn's range.
F_PARAMS = {
    "sigmoid": [{}],
    "arctan": [{}],
    "power_sgn": [{"gamma": 1e-6}, {"gamma": 0.5}, {"gamma": 1.0}],
    "linear": [{}],
    "bounded_sin": [{}],
}


def n_by_t_scan(f, g, p, n_max):
    """The f-g-bounded check as an n x t grid: six log-spaced n per decade
    over [1, n_max], each against check_g_p_bounded's t grid."""
    count = max(2, int(math.log10(max(n_max, 2)) * 6) + 1)
    raw = [round(10.0 ** (i * math.log10(n_max) / (count - 1))) for i in range(count)]
    worst = 0.0
    for n in sorted({max(1, n) for n in raw}):
        np_ = float(n) ** p
        for t in hypotheses._log_grid_t():
            fv = abs(f(t))
            try:
                gv = g(abs(t) / np_)
            except OverflowError:
                gv = math.inf
            ratio = (0.0 if fv == 0.0 else math.inf) if gv <= 0.0 else fv / gv
            worst = max(worst, ratio)
    passed = worst <= 1.0 + hypotheses.GP_GRID_SLACK
    return worst, passed, f"(g, {p:g})-bounded, worst ratio {worst:.6g}"


@pytest.mark.parametrize(
    "f_id, f_params, g_id, g_params",
    [
        pytest.param(f_id, f_params, g_id, g_params, id=f"{f_id}-{f_params}-{g_id}-{g_params}")
        for f_id, f_cases in F_PARAMS.items()
        for f_params in f_cases
        for g_id, g_cases in G_EDGES.items()
        for g_params in g_cases
    ],
)
def test_check_at_n_max_matches_the_n_by_t_scan(f_id, f_params, g_id, g_params):
    # f reads t alone and g is nondecreasing, so the row n = n_max of the
    # grid bounds every other row: one row gives the grid's exact verdict.
    assert set(F_PARAMS) == set(F_TABLE)
    f = make_f(CatalogRef(f_id, f_params))
    g = make_g(CatalogRef(g_id, g_params))
    for p in (0.0, 1.0, 2.0):
        for n_max in (64, 2000, 10_000, 1_000_000):
            res = check_g_p_bounded(f, g, p, n_max)
            worst, passed, detail = n_by_t_scan(f, g, p, n_max)
            assert (res.metric.hex(), res.passed, res.detail) == (worst.hex(), passed, detail), (
                p, n_max)


class TestCheckURate:
    def test_fast_approach_is_small_o(self):
        u = seq_from_function(lambda n: 0.5 + float(n) ** -2, 1, 2000)
        assert check_u_rate(u, 0.5, -1.0).kind == "small_o"

    def test_borderline_rate_is_not_small_o(self):
        u = seq_from_function(lambda n: 0.5 + 1.0 / n, 1, 2000)
        assert check_u_rate(u, 0.5, -1.0).kind != "small_o"

    def test_constant_u_small_o_at_any_exponent(self):
        u = seq_from_function(lambda n: 0.5, 1, 2000)
        for e in (-2.0, 0.0, 1.0):
            assert check_u_rate(u, 0.5, e).kind == "small_o"


class TestPolynomialGrowthCheck:
    def test_cubic_passes_with_exponent_three(self):
        x = seq_from_function(lambda n: float(n) ** 3, 1, 10_000)
        res = polynomial_growth_check(x)
        assert res.kind == "small_o"
        assert abs(res.exponent - GROWTH_SLACK - 3.0) <= 0.1

    def test_exponential_fails(self, monkeypatch):
        # The fitted t is about 197 on [1, 300], and 300**t overflows a
        # float: the verdict is neither, without order_estimate.
        def unreachable(*args):
            raise AssertionError("order_estimate called")

        monkeypatch.setattr(hypotheses, "order_estimate", unreachable)
        res = polynomial_growth_check(seq_from_function(math.exp, 1, 300))
        assert res.kind == "neither"
        assert res.metric == res.trend == res.bound == math.inf

    def test_window_below_min_window_is_rejected(self):
        # The same minimum, and the same error, as extract_polynomial.
        x = seq_from_function(float, 1, MIN_WINDOW - 1)
        with pytest.raises(WindowLengthError, match=r"^need at least 64 entries, got 63$"):
            polynomial_growth_check(x)

    def test_bounded_passes_with_exponent_zero(self):
        x = seq_from_function(lambda n: 2.0 + math.sin(float(n)), 1, 10_000)
        res = polynomial_growth_check(x)
        assert res.kind == "small_o"
        assert abs(res.exponent - GROWTH_SLACK) <= 0.1

    @pytest.mark.parametrize("r", [0.01, 0.001])
    def test_exponential_growth_is_neither(self, r):
        x = seq_from_function(lambda n: math.exp(r * n), 1, 10_000)
        assert polynomial_growth_check(x).kind == "neither"

    @pytest.mark.parametrize("fn", [
        lambda n: float(n) ** 2,
        lambda n: float(n) ** 2 * math.log(n),
        lambda n: n * (2.0 + math.sin(n)),
        lambda n: (-1.0) ** n * n,
        lambda n: 3.0,
        lambda n: 1.0 / n,
    ], ids=["n^2", "n^2 log n", "n(2 + sin n)", "(-1)^n n", "constant", "1/n"])
    def test_polynomial_and_bounded_growth_is_small_o(self, fn):
        assert polynomial_growth_check(seq_from_function(fn, 1, 10_000)).kind == "small_o"

    def test_slow_exponential_is_big_o(self):
        """e^{0.0002 n} at N = 1e4, rN = 2: an honest ambiguity at this horizon.

        e^{rn} on [1, N] reads big_O for rN below about 7.38 and neither
        above it, at N = 1e3, 1e4 and 1e5 alike: below that rN the
        exponential cannot be told from a power on the trailing half.
        """
        x = seq_from_function(lambda n: math.exp(0.0002 * n), 1, 10_000)
        assert polynomial_growth_check(x).kind == "big_O"

    def test_steep_decay_is_clamped_at_exponent_zero(self):
        # Unclamped, the fitted slope is about -330.
        x = seq_from_function(lambda n: 1e300 * math.exp(-0.05 * n), 1, 10_000)
        res = polynomial_growth_check(x)
        assert res.exponent == GROWTH_SLACK
        assert res.kind == "big_O"

    def test_thresholds_reach_the_verdict(self, monkeypatch):
        # The gate is read when the check runs, not bound at import.
        x = seq_from_function(lambda n: float(n) ** 2, 1, 10_000)
        monkeypatch.setattr(seqcore, "TAU_SMALL", 0.0)
        assert polynomial_growth_check(x).kind == "big_O"


class TestTheoremDispatch:
    def test_case_a_instance_passes(self, traces):
        v = theorem_dispatch(CERTIFIED["t1_case_a_m2"].spec, traces["t1_case_a_m2"], "a")
        assert v.passed
        assert v.failed_check is None
        assert v.conclusion.remainder_kind == "small_o"
        names = [c.name for c in v.checks]
        assert names == [
            "a-summability", "b-summability", "u-rate", "g-nondecreasing",
            "f-g-bounded", "sigma-within-past", "g-integral-divergent",
            "uk-nonoscillation",
        ]

    def test_broken_b_summability_is_named(self):
        cfg = load_fixture("fail_b_summability")  # harmonic b
        trace = simulate(cfg.spec, cfg.x_seed, cfg.z_seed, 10_000)
        v = theorem_dispatch(cfg.spec, trace, "b")
        assert not v.passed
        assert v.failed_check == "b-summability"

    def test_polynomial_solution_passes_every_case(self):
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
        x_seed, z_seed = consistent_seeds(spec, (5.0, 7.0))
        trace = simulate(spec, x_seed, z_seed, 2000)
        for case_id in ("a", "b", "c"):
            v = theorem_dispatch(spec, trace, case_id)
            assert v.passed, (case_id, v.failed_check)

    def test_soundness_wiring(self, traces):
        # overall pass implies every sub-check and the conclusion passed
        for name, inst in CERTIFIED.items():
            v = theorem_dispatch(inst.spec, traces[name], inst.case_id)
            if v.passed:
                assert all(c.passed for c in v.checks)
                assert v.conclusion.passed
            else:
                assert v.failed_check is not None

    def test_thresholds_are_keyword_only(self, traces):
        # A fourth positional argument (an old mode or thresholds) is
        # rejected, not read silently.
        spec = CERTIFIED["t1_case_a_m2"].spec
        with pytest.raises(TypeError):
            theorem_dispatch(spec, traces["t1_case_a_m2"], "a", "regular")

    def test_invalid_case_rejected(self, traces):
        with pytest.raises(ConfigError, match="field case:"):
            theorem_dispatch(CERTIFIED["t1_case_a_m2"].spec, traces["t1_case_a_m2"], "d")

    def test_regular_instances_pass(self, traces):
        for name in ("t2_regular_m2", "t2_regular_m3"):
            inst = CERTIFIED[name]
            v = theorem_dispatch(inst.spec, traces[name], inst.case_id)
            assert v.passed, (name, v.failed_check)
            assert v.mode == "regular"
            assert v.conclusion.regular_passed is True

    def test_case_c_bounded_f(self, traces):
        # the m=2 case (a) instance also satisfies case (c): sigmoid is
        # bounded and k(|c|-1) = 1 >= 0
        v = theorem_dispatch(CERTIFIED["t1_case_a_m2"].spec, traces["t1_case_a_m2"], "c")
        assert v.passed
        names = [c.name for c in v.checks]
        assert "f-bounded" in names and "alternative" in names


class TestHypothesisVerdict:
    # passed and failed_check are derived from the checks and the conclusion,
    # so a verdict cannot contradict them.
    @pytest.mark.parametrize(
        "check_passes, conclusion_passes, passed, failed_check",
        [
            # the first failing check is named, even when the conclusion fails too
            ((True, False, False), False, False, "c1"),
            ((True, True, True), False, False, "conclusion"),
            ((True, True, True), True, True, None),
        ],
        ids=["failing_check", "failing_conclusion", "all_passing"],
    )
    def test_outcome_is_derived(self, check_passes, conclusion_passes, passed, failed_check):
        checks = tuple(CheckResult(f"c{i}", ok, 0.0) for i, ok in enumerate(check_passes))
        conclusion = ConclusionResult(conclusion_passes, 0.0, "small_o", 0.0)
        v = HypothesisVerdict("a", checks, conclusion, decomposition=None)
        assert (v.passed, v.failed_check) == (passed, failed_check)

    def test_outcome_is_not_an_argument(self):
        conclusion = ConclusionResult(True, 0.0, "small_o", 0.0)
        with pytest.raises(TypeError):
            HypothesisVerdict(
                "a", (), conclusion, passed=False, failed_check="conclusion", decomposition=None
            )


class TestAlternativeCheck:
    # m = 1, k = 1 and c = 0.5 give k(|c| - 1) < 0, so the three-way
    # alternative falls through to its polynomial-growth branch and past it.
    SPEC = EquationSpec(
        m=1, k=1,
        u=CatalogRef("constant", {"value": 0.5}),
        a=CatalogRef("constant", {"value": 0.0}),
        b=CatalogRef("constant", {"value": 0.0}),
        f=CatalogRef("sigmoid"),
        g=CatalogRef("constant", {"value": 1.0}),
        sigma=CatalogRef("identity"),
        s=0.0,
    )

    def dispatch(self, profile):
        trace = simulate(self.SPEC, *consistent_seeds(self.SPEC, profile), 200)
        verdict = theorem_dispatch(self.SPEC, trace, "b")
        return verdict, next(c for c in verdict.checks if c.name == "alternative")

    def test_zero_solution_has_polynomial_growth(self):
        _, check = self.dispatch((0.0, 0.0))
        assert check.passed
        assert check.metric == 0.0
        assert check.detail == "polynomial growth: x against n**0.5: small_o, trend 0"

    def test_oscillating_exponential_solution_fails(self):
        # z = 1, so x_{n+1} = 2 - 2 x_n: the distance to 2/3 doubles each step
        # with alternating sign.
        verdict, check = self.dispatch((1.0, 0.0))
        assert verdict.failed_check == "x-sigma-growth"
        assert not check.passed
        assert check.metric == -0.5
        assert check.detail == "k(|c|-1) < 0, no polynomial-growth certificate, trace oscillates"


def test_geometric_forcing_small_at_every_exponent():
    # a and b decaying geometrically: the remainder is certified small at
    # every exponent from m-1 down to -1 (root test: (2^-n)^(1/n) = 1/2 < 1)
    spec = EquationSpec(
        m=2, k=0,
        u=CatalogRef("constant", {"value": 0.5}),
        a=CatalogRef("geometric", {"A": 1.0, "ratio": 0.5}),
        b=CatalogRef("geometric", {"A": 0.5, "ratio": 0.5}),
        f=CatalogRef("sigmoid"),
        g=CatalogRef("constant", {"value": 1.0}),
        sigma=CatalogRef("identity"),
        s=0.0,
    )
    x_seed, z_seed = consistent_seeds(spec, (1.0, 1.5))
    trace = simulate(spec, x_seed, z_seed, 10_000)
    from asympoly.catalog import make_generator

    gen = make_generator(spec.a)
    roots = [abs(gen(n)) ** (1.0 / n) for n in range(50, 60)]  # root-test sanity
    assert max(roots) < 1.0
    for s in (1.0, 0.0, -1.0):
        rep = extract_polynomial(trace.x, 2, s)
        assert rep.remainder_verdict.kind == "small_o", s


@pytest.mark.parametrize("name", ["t1_case_b_m2", "t1_case_b_m3", "t2_regular_m2"])
def test_certified_case_b_has_x_sigma_in_big_o(name, traces):
    # x_{sigma(n)} grows like n**p itself, so the O(n**p) rule reads big_O
    # (not small_o) and the check passes.
    inst = CERTIFIED[name]
    verdict = theorem_dispatch(inst.spec, traces[name], inst.case_id)
    check = next(c for c in verdict.checks if c.name == "x-sigma-growth")
    assert check.passed
    assert ": big_O, trend " in check.detail, check.detail


@pytest.mark.parametrize("name", ["t1_case_a_m2", "t1_case_b_m3"])
def test_dispatch_keeps_no_state_between_runs(name, traces):
    # Every n**e weight is computed where it is read, so a second dispatch of
    # the same trace finds nothing left by the first and gives the same verdict.
    inst = CERTIFIED[name]
    first = theorem_dispatch(inst.spec, traces[name], inst.case_id)
    second = theorem_dispatch(inst.spec, traces[name], inst.case_id)
    assert repr(second) == repr(first)
