import dataclasses
import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asympoly.catalog import CatalogRef
from asympoly.errors import (
    CausalityError,
    ConfigError,
    DivergenceError,
    SeedError,
    SingularRecoveryError,
    WindowLengthError,
)
from asympoly.hypotheses import theorem_dispatch
from asympoly.neutral_solver import (
    EquationSpec,
    consistent_seeds,
    simulate,
    start_index,
    x_from_z,
    x_start_index,
    z_from_x,
)
from asympoly.seqcore import (
    Seq,
    classify_oscillation,
    csum,
    delta,
    order_estimate,
    seq_from_function,
)

from conftest import CERTIFIED, load_fixture


def spec_with(**overrides):
    base = dict(
        m=1, k=0, c=0.0,
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
    def test_unit_c_rejected(self):
        with pytest.raises(ConfigError, match="c"):
            spec_with(c=1.0, u=CatalogRef("constant", {"value": 1.0}))
        with pytest.raises(ConfigError, match="c"):
            spec_with(c=-1.0000004, u=CatalogRef("constant", {"value": -1.0000004}))

    def test_s_above_order_rejected(self):
        with pytest.raises(ConfigError, match="s"):
            spec_with(s=0.5)

    def test_q_range(self):
        with pytest.raises(ConfigError, match="q"):
            spec_with(m=2, s=1.0, q=2)
        spec_with(m=2, s=1.0, q=1)  # valid

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
        trace = simulate(spec, *inst.seed_windows(), 2000)
        theorem_dispatch(spec, trace, inst.case_id, inst.mode)
        assert len(calls) == 6

    def test_u_limit_must_match_c(self):
        with pytest.raises(ConfigError, match="u"):
            spec_with(c=0.5, u=CatalogRef("constant", {"value": 0.4}))

    def test_start_indices(self):
        assert start_index(spec_with(m=2)) == 2
        s = spec_with(m=2, k=-3, c=0.5, u=CatalogRef("constant", {"value": 0.5}))
        assert start_index(s) == 4
        assert x_start_index(s) == 1
        s2 = spec_with(m=1, k=2, c=2.0, u=CatalogRef("constant", {"value": 2.0}))
        assert start_index(s2) == 1
        assert x_start_index(s2) == 1


class TestZFromX:
    def test_doubling_cancels(self):
        # x = 2^n with u = -1/2, k = 1 gives z identically zero
        x = seq_from_function(lambda n: 2.0**n, 1, 40)
        u = seq_from_function(lambda n: -0.5, 1, 40)
        z = z_from_x(x, u, 1)
        assert all(v == 0.0 for v in z.values)

    def test_zero_u_gives_x(self):
        x = seq_from_function(lambda n: math.sin(float(n)), 1, 30)
        u = seq_from_function(lambda n: 0.0, 1, 30)
        z = z_from_x(x, u, 0)
        assert z.values == x.values

    def test_constant_x(self):
        x = seq_from_function(lambda n: 1.0, 1, 30)
        u = seq_from_function(lambda n: 0.7, 1, 30)
        for k in (-2, 0, 3):
            z = z_from_x(x, u, k)
            assert all(abs(v - 1.7) < 1e-15 for v in z.values)

    def test_no_overlap(self):
        x = seq_from_function(float, 1, 5)
        u = seq_from_function(float, 1, 5)
        with pytest.raises(WindowLengthError):
            z_from_x(x, u, 10)


class TestXFromZ:
    def test_negative_shift_roundtrip(self):
        x = seq_from_function(lambda n: float(n * n), 1, 60)
        u = seq_from_function(lambda n: 0.5, 1, 60)
        z = z_from_x(x, u, -1)
        seed = x.window(1, 1)
        xr = x_from_z(z, u, -1, seed)
        scale = max(abs(v) for v in x.values)
        assert max(abs(xr.at(n) - x.at(n)) for n in range(1, 61)) <= 1e-10 * scale

    def test_k_zero_scalar(self):
        z = seq_from_function(lambda n: 3.0, 1, 20)
        u = seq_from_function(lambda n: 0.5, 1, 20)
        x = x_from_z(z, u, 0)
        assert all(v == 2.0 for v in x.values)

    def test_growing_recovery_is_well_posed(self):
        # z = 0, u = -1/2, k = 1, seed x_1 = 1 recovers x = 2^(n-1) exactly
        z = Seq(1, (0.0,) * 40)
        u = seq_from_function(lambda n: -0.5, 1, 40)
        x = x_from_z(z, u, 1, Seq(1, (1.0,)))
        for n, v in x.items():
            assert v == 2.0 ** (n - 1)

    def test_singular_divisor(self):
        z = seq_from_function(lambda n: 1.0, 1, 10)
        u = seq_from_function(lambda n: 0.0, 1, 10)
        with pytest.raises(SingularRecoveryError, match="index 1"):
            x_from_z(z, u, 1, Seq(1, (1.0,)))
        um = seq_from_function(lambda n: -1.0, 1, 10)
        with pytest.raises(SingularRecoveryError):
            x_from_z(z, um, 0)

    def test_missing_or_misaligned_seed(self):
        z = seq_from_function(lambda n: 1.0, 2, 10)
        u = seq_from_function(lambda n: 0.5, 1, 20)
        with pytest.raises(SeedError):
            x_from_z(z, u, 1, None)
        with pytest.raises(SeedError):
            x_from_z(z, u, 1, Seq(3, (1.0,)))

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(-3, 3),
        st.sampled_from([0.3, 0.5, 2.0, 3.0]),
        st.booleans(),
        st.integers(0, 2**31 - 1),
    )
    def test_roundtrip_property(self, k, cmag, negate, seed_int):
        import random

        rng = random.Random(seed_int)
        c = -cmag if negate else cmag
        if k == 0 and abs(1.0 + c) < 0.2:
            c = cmag
        length = 8 + 2 * abs(k)
        u = Seq(1, tuple(c + 0.05 * math.sin(1.7 * n) / n for n in range(1, length + 1)))
        x = Seq(1, tuple(rng.uniform(-5.0, 5.0) for _ in range(length)))
        z = z_from_x(x, u, k)
        if k == 0:
            seed = None
        elif k > 0:
            seed = x.window(z.start, z.start + k - 1)
        else:
            seed = x.window(z.start + k, z.start - 1)
        xr = x_from_z(z, u, k, seed)
        scale = max(abs(v) for v in x.values)
        lo, hi = max(x.start, xr.start), min(x.end, xr.end)
        err = max(abs(xr.at(n) - x.at(n)) for n in range(lo, hi + 1))
        assert err <= 1e-9 * max(scale, 1.0)


class TestConsistentSeeds:
    def test_profile_window_enforced(self):
        spec = spec_with(m=2, k=1, c=2.0, u=CatalogRef("constant", {"value": 2.0}))
        with pytest.raises(SeedError):
            consistent_seeds(spec, Seq(1, (1.0, 1.0, 1.0)))
        x_seed, z_seed = consistent_seeds(spec, Seq(2, (1.0, 1.0, 1.0)))
        assert x_seed.start == 2 and len(x_seed) == 1
        assert z_seed.start == 2 and len(z_seed) == 2
        assert tuple(z_seed.values) == (3.0, 3.0)

    @pytest.mark.parametrize(
        "name, profile",
        [
            ("t1_case_a_m2", Seq(2, (1.0, 1.0, 1.0))),  # k = 1, the README example
            ("t1_case_a_m3", Seq(2, (4.0, 9.0, 16.0, 25.0))),  # k = -1
            ("t1_case_b_m2", Seq(2, (1.0, 2.0))),  # k = 0
        ],
    )
    def test_fixture_seeds_come_from_a_profile(self, name, profile):
        cfg = CERTIFIED[name]
        assert consistent_seeds(cfg.spec, profile) == cfg.seed_windows()


class TestSimulate:
    def test_forced_partial_sum(self):
        # m=1, k=0, u=0, a=0, b = n^-2: x at N is the partial sum of j^-2
        spec = spec_with(b=CatalogRef("power", {"A": 1.0, "rho": 2.0}))
        x_seed, z_seed = consistent_seeds(spec, Seq(1, (0.0,)))
        trace = simulate(spec, x_seed, z_seed, 1000)
        direct = csum(float(j) ** -2 for j in range(1, 1000))
        assert abs(trace.x.at(1000) - direct) <= 1e-9 * (1.0 + direct)

    def test_polynomial_solution_stays_polynomial(self):
        spec = spec_with(m=2, c=0.5, u=CatalogRef("constant", {"value": 0.5}))
        profile = Seq(2, (5.0, 7.0))  # x = 2n + 1
        x_seed, z_seed = consistent_seeds(spec, profile)
        trace = simulate(spec, x_seed, z_seed, 1000)
        for n in range(2, 1001):
            expect = 2.0 * n + 1.0
            assert abs(trace.x.at(n) - expect) <= 1e-8 * expect

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
            for n in range(tr.start, dz.end + 1):
                rhs = rt.a(n) * rt.f(n, tr.x.at(rt.sigma(n))) + rt.b(n)
                worst = max(worst, abs(dz.at(n) - rhs))
            assert worst <= 1e-8 * (1.0 + zmax), name

    def test_trace_relation_holds(self, traces):
        from asympoly.neutral_solver import runtime

        inst = CERTIFIED["t1_case_a_m3"]
        tr = traces["t1_case_a_m3"]
        rt = runtime(inst.spec)
        for n in range(tr.z.start, tr.z.end + 1, 97):
            zn = tr.z.at(n)
            rel = tr.x.at(n) + rt.u(n) * tr.x.at(n + inst.spec.k)
            assert abs(zn - rel) <= 1e-9 * (1.0 + abs(zn))

    def test_unstable_regime_diverges(self):
        # |c| < 1 with k > 0: any seed deviation doubles per step, so the
        # run must end in a divergence error long before the horizon
        spec = spec_with(
            m=2, k=1, c=0.5,
            u=CatalogRef("power_offset", {"c": 0.5, "A": 1.0, "rho": 2.0}),
            a=CatalogRef("power", {"A": 1.0, "rho": 4.0}),
        )
        x_seed, z_seed = consistent_seeds(spec, Seq(2, (1.0, 1.0, 1.0)))
        with pytest.raises(DivergenceError):
            simulate(spec, x_seed, z_seed, 10_000)

    def test_causality_error_names_step(self):
        spec = spec_with(sigma=CatalogRef("delay_d", {"d": -1}))
        x_seed, z_seed = consistent_seeds(spec, Seq(1, (1.0,)))
        with pytest.raises(CausalityError, match=r"n=1"):
            simulate(spec, x_seed, z_seed, 100)

    def test_seed_window_validation(self):
        spec = spec_with(m=2, c=0.5, u=CatalogRef("constant", {"value": 0.5}))
        with pytest.raises(SeedError):
            simulate(spec, None, Seq(1, (1.0, 1.0)), 100)  # z must start at n0=2
        with pytest.raises(SeedError):
            simulate(spec, Seq(2, (1.0,)), Seq(2, (1.0, 1.0)), 100)  # no x seed for k=0

    def test_causality_fixture_names_the_first_bad_step(self):
        config = load_fixture("causality_violation")
        with pytest.raises(CausalityError) as err:
            simulate(config.spec, *config.seed_windows(), config.horizon)
        assert str(err.value) == "step n=1: sigma(n)=6 outside realized x range [1, 1]"

    def test_boundedness_transfer(self, traces):
        # |c| < 1 and k <= 0: |x| stays within b/(1-beta) + K
        tr = traces["t1_case_a_m1_kneg"]
        u = seq_from_function(
            lambda n: 0.5 + 0.25 / n, tr.x.start, len(tr.x)
        )
        b = max(abs(v) for v in tr.z.values)
        beta = max(u.trailing(0.5).values)
        seed_max = abs(tr.x.at(tr.x.start))
        bound = b / (1.0 - beta) + seed_max
        assert max(abs(v) for v in tr.x.values) <= bound

    def test_limit_transfer(self, traces):
        # x bounded and z convergent: (1+c) * lim x = lim z, checked through
        # trailing means at the horizon
        inst = CERTIFIED["t1_case_a_m1"]
        tr = traces["t1_case_a_m1"]
        assert order_estimate(tr.x, 0.5).kind == "small_o"  # x bounded
        x_tail = tr.x.trailing(0.25)
        z_tail = tr.z.trailing(0.25)
        x_mean = csum(x_tail.values) / len(x_tail)
        z_mean = csum(z_tail.values) / len(z_tail)
        assert abs((1.0 + inst.spec.c) * x_mean - z_mean) <= 0.02 * abs(z_mean)


class TestValidateCausality:
    # simulate checks every sigma(n) against the realized x window before stepping.
    def test_identity_with_positive_shift_ok(self):
        spec = spec_with(m=2, k=1, c=2.0, u=CatalogRef("constant", {"value": 2.0}))
        x_seed, z_seed = consistent_seeds(spec, Seq(2, (1.0, 1.0, 1.0)))
        assert simulate(spec, x_seed, z_seed, 500).z.end == 500

    def test_future_read_reported_at_first_step(self):
        spec = spec_with(sigma=CatalogRef("delay_d", {"d": -5}))
        x_seed, z_seed = consistent_seeds(spec, Seq(1, (1.0,)))
        with pytest.raises(CausalityError) as err:
            simulate(spec, x_seed, z_seed, 500)
        assert str(err.value) == "step n=1: sigma(n)=6 outside realized x range [1, 1]"

    def test_half_delay_with_negative_shift_ok(self):
        spec = spec_with(
            m=1, k=-2, c=0.5,
            u=CatalogRef("constant", {"value": 0.5}),
            sigma=CatalogRef("half"),
        )
        x_seed, z_seed = consistent_seeds(spec, Seq(1, (1.0, 1.0, 1.0)))
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
