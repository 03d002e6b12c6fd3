import dataclasses
import math
import sys

import pytest

from asympoly import neutral_solver
from asympoly.catalog import CatalogRef
from asympoly.errors import (
    CausalityError,
    ConfigError,
    DivergenceError,
    SeedError,
    SingularRecoveryError,
)
from asympoly.hypotheses import theorem_dispatch
from asympoly.neutral_solver import (
    EquationSpec,
    consistent_seeds,
    sample_coefficients,
    simulate,
    start_index,
    x_start_index,
)
from asympoly.seqcore import classify_oscillation, csum, delta, order_estimate

from conftest import CERTIFIED, load_fixture, seq_from_function, sigma_at


def spec_with(**overrides):
    base = dict(
        m=1, k=0,
        u=CatalogRef("constant", {"value": 0.0}),
        a=CatalogRef("constant", {"value": 0.0}),
        b=CatalogRef("constant", {"value": 0.0}),
        f=CatalogRef("sigmoid"),
        g=CatalogRef("constant", {"value": 1.0}),
        sigma=CatalogRef("identity"),
        s=0.0,
    )
    base.update(overrides)
    return EquationSpec(**base)


class TestEquationSpec:
    @pytest.mark.parametrize("limit", [1.0, -1.0000004])
    def test_unit_c_rejected(self, limit):
        with pytest.raises(ConfigError, match=r"^field u: \|c\| must differ from 1 by more than 1e-06, got limit c="):
            spec_with(u=CatalogRef("constant", {"value": limit}))

    @pytest.mark.parametrize("u", [
        CatalogRef("constant", {"value": -0.5}),
        CatalogRef("power_offset", {"c": 2.0, "A": 1.0, "rho": 2.0}),
        CatalogRef("power", {"A": 1.0, "rho": 1.0}),
        CatalogRef("alt_power", {"A": 1.0, "rho": 1.0}),
        CatalogRef("geometric", {"A": 1.0, "ratio": 0.5}),
    ], ids=lambda ref: ref.id)
    def test_c_is_the_limit_of_u(self, u):
        spec = spec_with(u=u)
        assert spec.c == spec.rt.u.limit
        assert spec.c == u.params.get("value", u.params.get("c", 0.0))

    def test_c_is_not_a_parameter(self):
        with pytest.raises(TypeError, match="'c'"):
            spec_with(c=0.0)

    def test_s_above_order_rejected(self):
        with pytest.raises(ConfigError, match="s"):
            spec_with(s=0.5)

    def test_q_range(self):
        with pytest.raises(ConfigError, match="^field q:"):
            spec_with(m=2, s=1.0, q=2)
        spec_with(m=2, s=1.0, q=1)  # valid

    def test_q_set_needs_s_equal_q(self):
        # q selects the regular form, whose target is the integer s = q.
        with pytest.raises(ConfigError, match=r"^field s: .*needs s == q, got s=0.0, q=1$"):
            spec_with(m=2, s=0.0, q=1)
        # The rule runs before the catalog is built.
        with pytest.raises(ConfigError, match="^field s:"):
            spec_with(m=2, s=0.0, q=1, u=CatalogRef("no_such_entry"))

    def test_catalog_built_once_per_spec(self, monkeypatch):
        # Spec, seeds, simulation and dispatch share the spec's one runtime.
        calls = []
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "asympoly"]
        for name in ("make_f", "make_g", "make_generator", "make_sigma"):
            orig = getattr(sys.modules["asympoly.catalog"], name)

            def counted(ref, orig=orig):
                calls.append(ref.id)
                return orig(ref)

            for module in modules:
                if getattr(module, name, None) is orig:
                    monkeypatch.setattr(module, name, counted)
        inst = CERTIFIED["t1_case_b_m2"]
        spec = dataclasses.replace(inst.spec)
        trace = simulate(spec, inst.x_seed, inst.z_seed, 2000)
        theorem_dispatch(spec, trace, inst.case_id)
        assert len(calls) == 6

    def test_c_beyond_the_float_range_rejected(self):
        # An int beyond the float range is rejected with the config message,
        # not an OverflowError from a float conversion.
        u = CatalogRef("power_offset", {"c": 10**400, "A": 1.0, "rho": 1.0})
        with pytest.raises(
            ConfigError, match=r"field u: parameter 'c' of 'power_offset' must be a finite number, got 1000"
        ):
            spec_with(u=u)

    def test_integer_valued_floats_read_as_ints(self):
        # The library reads m, k and q by the config's integer rule.
        spec = spec_with(m=2.0, k=0.0, s=1.0, q=1.0)
        assert spec == spec_with(m=2, k=0, s=1.0, q=1)
        assert type(spec.m) is int and type(spec.k) is int and type(spec.q) is int

    @pytest.mark.parametrize("field, value", [
        ("m", 1.5), ("m", True), ("m", "2"), ("k", math.nan), pytest.param("k", [0], id="k-[0]"),
        ("q", math.inf),
    ])
    def test_non_integers_rejected_naming_the_field(self, field, value):
        with pytest.raises(ConfigError, match=f"field {field}: must be an integer, got"):
            spec_with(**{field: value})

    def test_c_and_s_stored_as_floats(self):
        spec = spec_with(u=CatalogRef("constant", {"value": 0}), s=0)
        assert type(spec.c) is float and type(spec.s) is float
        assert spec.s == 0.0

    def test_start_indices(self):
        assert start_index(spec_with(m=2)) == 2
        s = spec_with(m=2, k=-3, u=CatalogRef("constant", {"value": 0.5}))
        assert start_index(s) == 4
        assert x_start_index(s) == 1
        s2 = spec_with(m=1, k=2, u=CatalogRef("constant", {"value": 2.0}))
        assert start_index(s2) == 1
        assert x_start_index(s2) == 1
        # Every window a run builds starts at 1 or later, which Seq requires.
        for m in range(1, 5):
            for k in range(-3, 4):
                spec = spec_with(m=m, k=k, u=CatalogRef("constant", {"value": 0.5}))
                assert start_index(spec) == max(1, 1 - k, m) >= 1
                assert x_start_index(spec) == start_index(spec) + min(k, 0) >= 1


def neutral_trace(k, c, profile, N, m=1, **overrides):
    """Trace from the x profile with u = c and, unless overridden, a = b = 0."""
    spec = spec_with(m=m, k=k, u=CatalogRef("constant", {"value": c}), **overrides)
    return simulate(spec, *consistent_seeds(spec, profile), N)


class TestZFromX:
    # simulate forms z = x + u x_{+k} from the seed profile and keeps it.
    def test_doubling_cancels(self):
        # x = 2^(n-1) with u = -1/2, k = 1 gives z identically 0
        tr = neutral_trace(1, -0.5, (1.0, 2.0), 40)
        assert all(v == 0.0 for v in tr.z.values)

    def test_zero_u_gives_x(self):
        tr = neutral_trace(0, 0.0, (1.0,), 30, b=CatalogRef("power", {"A": 1.0, "rho": 2.0}))
        assert len(set(tr.z.values)) == 30
        assert tr.x.values == tr.z.values

    def test_constant_x(self):
        for k in (-2, 0, 3):
            tr = neutral_trace(k, 0.7, (1.0,) * (1 + abs(k)), 30)
            assert all(abs(v - 1.7) < 1e-15 for v in tr.z.values), k
            assert all(abs(v - 1.0) < 1e-12 for v in tr.x.values), k


class TestXFromZ:
    # simulate is the one place x is recovered from z.
    def test_negative_shift_roundtrip(self):
        tr = neutral_trace(-1, 0.5, (4.0, 9.0, 16.0, 25.0), 60, m=3)
        assert (tr.x.start, tr.x.end) == (2, 60)
        scale = 60.0**2
        assert max(abs(v - float(n * n)) for n, v in enumerate(tr.x.values, 2)) <= 1e-10 * scale

    def test_k_zero_scalar(self):
        tr = neutral_trace(0, 0.5, (2.0,), 20)
        assert all(v == 3.0 for v in tr.z.values)
        assert all(v == 2.0 for v in tr.x.values)

    def test_growing_recovery_is_well_posed(self):
        # z = 0, u = -1/2, k = 1 and the seed x_1 = 1 recover x = 2^(n-1) exactly
        tr = neutral_trace(1, -0.5, (1.0, 2.0), 40)
        for n, v in enumerate(tr.x.values, tr.x.start):
            assert v == 2.0 ** (n - 1)

    def test_singular_divisor(self):
        # u_1 = c + A vanishes (k = 1) or equals -1 (k = 0)
        cases = [
            (1, 2.0, -2.0, (1.0,), r"u_n = 0\.0 at index 1 is below"),
            (0, -0.5, -0.5, None, r"1 \+ u_n = 0\.0 at index 1 is below"),
        ]
        for k, c, A, x_seed, message in cases:
            spec = spec_with(k=k, u=CatalogRef("power_offset", {"c": c, "A": A, "rho": 1.0}))
            with pytest.raises(SingularRecoveryError, match=message):
                simulate(spec, x_seed, (1.0,), 10)

    def test_missing_or_miscounted_x_seed(self):
        spec = spec_with(m=2, k=1, u=CatalogRef("constant", {"value": 2.0}))
        with pytest.raises(SeedError, match="field seeds.x: required when k = 1"):
            simulate(spec, None, (1.0, 1.0), 100)
        with pytest.raises(SeedError, match=r"field seeds.x: must hold exactly \|k\| = 1 values, got 2"):
            simulate(spec, (1.0, 1.0), (1.0, 1.0), 100)


class TestSeedBoundary:
    # Seeds are checked before sigma, u, a or b is sampled.
    @pytest.fixture(autouse=True)
    def no_sampling(self, monkeypatch):
        def never(*args):
            raise AssertionError("sample_coefficients was reached")

        monkeypatch.setattr(neutral_solver, "sample_coefficients", never)

    K1 = dict(m=2, k=1, u=CatalogRef("constant", {"value": 2.0}))
    K0 = dict(m=2, k=0, u=CatalogRef("constant", {"value": 0.5}))

    @pytest.mark.parametrize(
        "spec, x_seed, z_seed, field",
        [
            pytest.param(K1, (1.0,), (1.0,), "seeds.z", id="k=1-one-z"),  # m = 2 z values
            pytest.param(K1, (1.0,), (1.0, 1.0, 1.0), "seeds.z", id="k=1-three-z"),
            pytest.param(K1, (), (1.0, 1.0), "seeds.x", id="k=1-no-x"),  # |k| = 1 x value
            pytest.param(K1, None, (1.0, 1.0), "seeds.x", id="k=1-x-null"),  # missing at k = 1
            pytest.param(K0, (1.0,), (1.0, 1.0), "seeds.x", id="k=0-one-x"),  # given at k = 0
            pytest.param(K0, (), (1.0, 1.0), "seeds.x", id="k=0-no-x"),
        ],
    )
    def test_wrong_seed_names_its_field(self, spec, x_seed, z_seed, field):
        with pytest.raises(SeedError, match=f"^field {field}: "):
            simulate(spec_with(**spec), x_seed, z_seed, 100)

    @pytest.mark.parametrize(
        "spec, x_seed, z_seed, index",
        [
            pytest.param(K1, (1.0,), (1.0, float("nan")), 3, id="z-nan"),  # z on [2, 3]
            pytest.param(K1, (float("inf"),), (1.0, 1.0), 2, id="x-inf"),  # x on [2, 2]
        ],
    )
    def test_non_finite_seed_names_its_index(self, spec, x_seed, z_seed, index):
        with pytest.raises(ValueError, match=f"non-finite value at index {index}$"):
            simulate(spec_with(**spec), x_seed, z_seed, 100)


class TestConsistentSeeds:
    def test_profile_window_enforced(self):
        # m + |k| = 3 values: x on [n0, n0 + m + k - 1] = [2, 4].
        spec = spec_with(m=2, k=1, u=CatalogRef("constant", {"value": 2.0}))
        for profile in ((1.0, 1.0), (1.0,) * 4):
            with pytest.raises(SeedError, match=r"exactly m \+ \|k\| = 3 values, got"):
                consistent_seeds(spec, profile)
        assert consistent_seeds(spec, (1.0, 1.0, 1.0)) == ((1.0,), (3.0, 3.0))

    @pytest.mark.parametrize(
        "name, profile",
        [
            # k = 1, the README example
            pytest.param("t1_case_a_m2", (1.0, 1.0, 1.0), id="t1_case_a_m2"),
            pytest.param("t1_case_a_m3", (4.0, 9.0, 16.0, 25.0), id="t1_case_a_m3"),  # k = -1
            pytest.param("t1_case_b_m2", (1.0, 2.0), id="t1_case_b_m2"),  # k = 0
        ],
    )
    def test_fixture_seeds_come_from_a_profile(self, name, profile):
        cfg = CERTIFIED[name]
        assert consistent_seeds(cfg.spec, profile) == (cfg.x_seed, cfg.z_seed)


class TestSimulate:
    def test_forced_partial_sum(self):
        # m=1, k=0, u=0, a=0, b = n^-2: x at N is the partial sum of j^-2
        spec = spec_with(b=CatalogRef("power", {"A": 1.0, "rho": 2.0}))
        x_seed, z_seed = consistent_seeds(spec, (0.0,))
        trace = simulate(spec, x_seed, z_seed, 1000)
        direct = csum(float(j) ** -2 for j in range(1, 1000))
        assert abs(trace.x.values[-1] - direct) <= 1e-9 * (1.0 + direct)

    def test_polynomial_solution_stays_polynomial(self):
        spec = spec_with(m=2, u=CatalogRef("constant", {"value": 0.5}))
        profile = (5.0, 7.0)  # x = 2n + 1 from n0 = 2
        x_seed, z_seed = consistent_seeds(spec, profile)
        trace = simulate(spec, x_seed, z_seed, 1000)
        for n in range(2, 1001):
            expect = 2.0 * n + 1.0
            assert abs(trace.x.values[n - trace.x.start] - expect) <= 1e-8 * expect

    def test_equation_residual(self, traces):
        # recomputing the m-th difference of z reproduces the forcing
        from asympoly.neutral_solver import runtime

        for name in ("t1_case_a_m2", "t1_case_b_m3", "t1_case_a_m1_kneg"):
            inst = CERTIFIED[name]
            tr = traces[name]
            rt = runtime(inst.spec)
            dz = delta(tr.z, inst.spec.m)
            zmax = max(abs(v) for v in tr.z.values)
            worst = 0.0
            for n in range(tr.z.start, dz.end + 1):
                x_sigma = tr.x.values[sigma_at(rt.sigma, n) - tr.x.start]
                rhs = rt.a(n) * rt.f(x_sigma) + rt.b(n)
                worst = max(worst, abs(dz.values[n - dz.start] - rhs))
            assert worst <= 1e-8 * (1.0 + zmax), name

    @pytest.mark.parametrize("name", ["t1_case_a_m3", "t1_case_b_m2", "t1_case_a_m2"])  # k = -1, 0, 1
    def test_trace_carries_the_coefficient_windows(self, traces, name):
        spec, tr = CERTIFIED[name].spec, traces[name]
        n0, N = start_index(spec), tr.z.end
        # u is read nowhere past N, so it stops there whatever k is.  a and b
        # are sampled on the same window; the trace keeps u and sigma alone,
        # since the checks read a and b from the catalog.
        u, a, b, sigma = sample_coefficients(spec, N)
        assert (tr.u.start, tr.u.end) == (a.start, a.end) == (b.start, b.end) == (1, N)
        assert tr.u.values == u.values and list(tr.sigma) == list(sigma)
        assert [f.name for f in dataclasses.fields(tr)] == ["x", "z", "u", "sigma"]
        assert len(tr.sigma) == N - n0 + 1
        # The samples are the catalog's values, at the ends of each window too.
        rt = spec.rt
        for n in (1, N):
            samples = (tr.u.values[n - 1], a.values[n - 1], b.values[n - 1])
            assert samples == (rt.u(n), rt.a(n), rt.b(n))
        assert (tr.sigma[0], tr.sigma[-1]) == (sigma_at(rt.sigma, n0), sigma_at(rt.sigma, N))

    def test_trace_relation_holds(self, traces):
        from asympoly.neutral_solver import runtime

        inst = CERTIFIED["t1_case_a_m3"]
        tr = traces["t1_case_a_m3"]
        rt = runtime(inst.spec)
        for n in range(tr.z.start, tr.z.end + 1, 97):
            zn = tr.z.values[n - tr.z.start]
            rel = tr.x.values[n - tr.x.start] + rt.u(n) * tr.x.values[n + inst.spec.k - tr.x.start]
            assert abs(zn - rel) <= 1e-9 * (1.0 + abs(zn))

    def test_unstable_regime_diverges(self):
        # |c| < 1 with k > 0: any seed deviation doubles per step, so the
        # run must end in a divergence error long before the horizon
        spec = spec_with(
            m=2, k=1,
            u=CatalogRef("power_offset", {"c": 0.5, "A": 1.0, "rho": 2.0}),
            a=CatalogRef("power", {"A": 1.0, "rho": 4.0}),
        )
        x_seed, z_seed = consistent_seeds(spec, (1.0, 1.0, 1.0))
        with pytest.raises(DivergenceError):
            simulate(spec, x_seed, z_seed, 10_000)

    def test_causality_error_names_step(self):
        spec = spec_with(sigma=CatalogRef("delay_d", {"d": -1}))
        x_seed, z_seed = consistent_seeds(spec, (1.0,))
        with pytest.raises(CausalityError, match=r"n=1"):
            simulate(spec, x_seed, z_seed, 100)

    def test_seed_window_validation(self):
        spec = spec_with(m=2, u=CatalogRef("constant", {"value": 0.5}))
        with pytest.raises(SeedError, match="field seeds.z: must hold exactly m = 2 values, got 1"):
            simulate(spec, None, (1.0,), 100)
        with pytest.raises(SeedError, match="field seeds.x: must be null when k = 0"):
            simulate(spec, (1.0,), (1.0, 1.0), 100)

    def test_causality_fixture_names_the_first_bad_step(self):
        config = load_fixture("causality_violation")
        with pytest.raises(CausalityError) as err:
            simulate(config.spec, config.x_seed, config.z_seed, config.horizon)
        assert str(err.value) == "step n=1: sigma(n)=6 outside realized x range [1, 1]"

    def test_boundedness_transfer(self, traces):
        # |c| < 1 and k <= 0: |x| stays within b/(1-beta) + K
        tr = traces["t1_case_a_m1_kneg"]
        u = seq_from_function(
            lambda n: 0.5 + 0.25 / n, tr.x.start, len(tr.x)
        )
        b = max(abs(v) for v in tr.z.values)
        beta = max(u.trailing().values)
        seed_max = abs(tr.x.values[0])
        bound = b / (1.0 - beta) + seed_max
        assert max(abs(v) for v in tr.x.values) <= bound

    def test_limit_transfer(self, traces):
        # x bounded and z convergent: (1+c) * lim x = lim z, checked through
        # trailing means at the horizon
        inst = CERTIFIED["t1_case_a_m1"]
        tr = traces["t1_case_a_m1"]
        assert order_estimate(tr.x, 0.5).kind == "small_o"  # x bounded
        # the trailing quarters, ceil(len / 4) entries each
        x_tail = tr.x.values[-math.ceil(len(tr.x) / 4) :]
        z_tail = tr.z.values[-math.ceil(len(tr.z) / 4) :]
        x_mean = csum(x_tail) / len(x_tail)
        z_mean = csum(z_tail) / len(z_tail)
        assert abs((1.0 + inst.spec.c) * x_mean - z_mean) <= 0.02 * abs(z_mean)


class TestValidateCausality:
    # simulate checks every sigma(n) against the realized x window before stepping.
    def test_identity_with_positive_shift_ok(self):
        spec = spec_with(m=2, k=1, u=CatalogRef("constant", {"value": 2.0}))
        x_seed, z_seed = consistent_seeds(spec, (1.0, 1.0, 1.0))
        assert simulate(spec, x_seed, z_seed, 500).z.end == 500

    def test_future_read_reported_at_first_step(self):
        spec = spec_with(sigma=CatalogRef("delay_d", {"d": -5}))
        x_seed, z_seed = consistent_seeds(spec, (1.0,))
        with pytest.raises(CausalityError) as err:
            simulate(spec, x_seed, z_seed, 500)
        assert str(err.value) == "step n=1: sigma(n)=6 outside realized x range [1, 1]"

    def test_half_delay_with_negative_shift_ok(self):
        spec = spec_with(
            m=1, k=-2,
            u=CatalogRef("constant", {"value": 0.5}),
            sigma=CatalogRef("half"),
        )
        x_seed, z_seed = consistent_seeds(spec, (1.0, 1.0, 1.0))
        for N in (50, 500, 5000):
            assert simulate(spec, x_seed, z_seed, N).z.end == N

    def test_oscillation_labels_on_trace(self, traces):
        # the case (a) instances are (u,k)-nonoscillatory by construction
        for name in ("t1_case_a_m1", "t1_case_a_m2", "t1_case_a_m3"):
            inst = CERTIFIED[name]
            tr = traces[name]
            u = seq_from_function(
                lambda n, sp=inst.spec: _u_value(sp, n), tr.x.start, len(tr.x)
            )
            labels = classify_oscillation(tr.x, u, inst.spec.k)
            assert "uk_nonoscillatory" in labels, name


def _u_value(spec, n):
    from asympoly.catalog import make_generator

    return make_generator(spec.u)(n)
