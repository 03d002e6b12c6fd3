"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances and runtime budgets are pinned here, not configurable.
"""

import math
import random
import time

import pytest

from asympoly.bihari import BihariProblem, bihari_bound, worst_case_w
from asympoly.catalog import CatalogRef, make_g
from asympoly.cli import selftest
from asympoly.decomp import (
    decompose_solution,
    regularity_check,
    transfer_polynomial,
)
from asympoly.errors import CausalityError
from asympoly.hypotheses import theorem_dispatch
from asympoly.neutral_solver import EquationSpec, consistent_seeds, simulate
from asympoly.seqcore import PolyCoeffs, Seq, delta

from conftest import CERTIFIED, cumsum_window, load_fixture, seq_from_function

T1_NAMES = tuple(name for name, cfg in CERTIFIED.items() if cfg.mode == "plain")
T2_NAMES = tuple(name for name, cfg in CERTIFIED.items() if cfg.mode == "regular")


def _report(number, name, t0, budget):
    elapsed = time.monotonic() - t0
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget: {elapsed:.1f}s"
    print(f"ACCEPTANCE {number} ({name}): PASS in {elapsed:.2f}s (budget {budget}s)")


def test_criterion_1_bihari_validity():
    t0 = time.monotonic()
    rng = random.Random(20240817)
    gs = (
        make_g(CatalogRef("identity")),
        make_g(CatalogRef("power", {"gamma": 0.5})),
        make_g(CatalogRef("power", {"gamma": 2.0})),
        make_g(CatalogRef("affine", {"alpha": 2.0, "beta": 1.0})),
        make_g(CatalogRef("constant", {"value": 3.0})),
    )
    horizon = 10_000
    runs = 0
    for g in gs:
        for lam in (0.5, 1.0):
            cap = g.recip_primitive(lam, 10.0 * lam + 10.0)
            for _ in range(20):
                raw = [rng.random() for _ in range(horizon)]
                scale = rng.uniform(0.2, 0.95) * cap / sum(raw)
                a = Seq(1, tuple(v * scale for v in raw))
                bound = bihari_bound(BihariProblem(g, lam, a, 1))
                assert not bound.condition_violated
                w = worst_case_w(a, g, lam, 1, horizon)
                assert max(w.values) <= bound.M + 1e-6 * (1.0 + bound.M)
                runs += 1
    assert runs == 200
    _report(1, "bihari validity, 200 random weight sequences", t0, 10.0)


def test_criterion_2_gronwall_closed_form():
    t0 = time.monotonic()
    g = make_g(CatalogRef("identity"))
    for lam in (0.5, 1.0, 2.0):
        for total in (0.0, 0.25, 0.7, 1.0, 2.0, 3.3, 4.1, 5.0):
            bound = bihari_bound(BihariProblem(g, lam, total))
            expect = lam * math.exp(total)
            assert abs(bound.M - expect) <= 1e-8 * bound.M, (lam, total)
    _report(2, "Gronwall closed form", t0, 1.0)


def test_criterion_3_transfer_exactness():
    t0 = time.monotonic()
    rng = random.Random(7)
    for deg in range(7):
        for c in (-3.0, -0.5, 0.0, 0.5, 3.0):
            for k in range(-3, 4):
                phi = PolyCoeffs(tuple(rng.uniform(-4.0, 4.0) for _ in range(deg + 1)))
                psi = transfer_polynomial(phi, c, k)
                scale = 1.0 + max(abs(phi(n)) for n in range(deg + 3))
                residual = max(
                    abs(psi(n) + c * psi(n + k) - phi(n)) for n in range(deg + 3)
                )
                assert residual <= 1e-10 * scale, (deg, c, k)
                ratio = psi.coeffs[phi.degree] / phi.coeffs[phi.degree]
                assert abs(ratio - 1.0 / (1.0 + c)) <= 1e-12, (deg, c, k)
    _report(3, "transfer exactness on the full grid", t0, 1.0)


def test_criterion_4_round_trips():
    # simulate forms z from the x profile and recovers x from z; with a = b = 0
    # and m = 1 it steps z as a constant, so the round trip is the whole run.
    t0 = time.monotonic()
    rng = random.Random(123)
    shifts = [-3, -2, -1, 0, 1, 2, 3]
    mags = [0.3, 0.5, 2.0, 3.0]
    zero = CatalogRef("constant", {"value": 0.0})
    for trial in range(500):
        k = shifts[trial % len(shifts)]
        c = mags[(trial // len(shifts)) % len(mags)] * (1.0 if trial % 2 else -1.0)
        spec = EquationSpec(
            m=1, k=k,
            u=CatalogRef("power_offset", {"c": c, "A": 0.05, "rho": 1.0}),
            a=zero, b=zero, f=CatalogRef("sigmoid"), g=CatalogRef("constant", {"value": 1.0}),
            sigma=CatalogRef("identity"), s=0.0,
        )
        profile = tuple(rng.uniform(-5.0, 5.0) for _ in range(1 + abs(k)))
        x_seed, z_seed = consistent_seeds(spec, profile)
        trace = simulate(spec, x_seed, z_seed, 8 + 2 * abs(k))
        x, z, u = trace.x, trace.z, trace.u
        # The profile starts at x's first index; its first |k| values are x_seed.
        assert x_seed == (tuple(x.values[: abs(k)]) if k else None), (trial, k, c)
        # The one profile value that is not a seed comes back through z.
        scale = max(1.0, max(map(abs, profile)))
        for n, v in enumerate(profile, x.start):
            assert abs(x.at(n) - v) <= 1e-9 * scale, (trial, k, c, n)
        for n in range(z.start, z.end + 1):
            zn, term = z.at(n), u.at(n) * x.at(n + k)
            err = abs(zn - (x.at(n) + term))
            assert err <= 1e-9 * (abs(zn) + abs(x.at(n)) + abs(term)), (trial, k, c, n)
    _report(4, "x/z round trips, 500 instances", t0, 5.0)


def test_criterion_5_theorem_t1_end_to_end(traces):
    t0 = time.monotonic()
    assert len(T1_NAMES) >= 6
    covered_m = {CERTIFIED[n].spec.m for n in T1_NAMES}
    covered_k = {CERTIFIED[n].spec.k for n in T1_NAMES}
    covered_case = {CERTIFIED[n].case_id for n in T1_NAMES}
    assert covered_m >= {1, 2, 3}
    assert covered_k >= {-1, 0, 1}
    assert covered_case >= {"a", "b"}
    for name in T1_NAMES:
        spec = CERTIFIED[name].spec
        assert spec.s in {0.0, float(spec.m - 2), float(spec.m - 1)}
    assert {CERTIFIED[n].spec.s for n in T1_NAMES} >= {0.0, 1.0, 2.0}
    for name in T1_NAMES:
        inst = CERTIFIED[name]
        verdict = theorem_dispatch(inst.spec, traces[name], inst.case_id, inst.mode)
        assert verdict.passed, (name, verdict.failed_check)
        dec = verdict.decomposition
        assert dec.x_report.remainder_verdict.kind == "small_o", name
        assert dec.x_report.remainder_verdict.metric < 0.05, name
        d_lo = max(1, math.ceil(inst.spec.s - 1e-12))
        transferred = dec.psi_x_transferred.padded(inst.spec.m - 1)
        direct = dec.x_report.psi.padded(inst.spec.m - 1)
        for d in range(d_lo, inst.spec.m):
            tv, dv = transferred[d], direct[d]
            if tv == 0.0 and dv == 0.0:
                continue
            assert abs(tv - dv) <= 0.02 * max(abs(tv), abs(dv)), (name, d, tv, dv)
    _report(5, "theorem end-to-end on the shipped fixtures", t0, 30.0)


def test_criterion_6_regular_refinement(traces):
    t0 = time.monotonic()
    assert len(T2_NAMES) == 2
    for name in T2_NAMES:
        inst = CERTIFIED[name]
        assert inst.spec.q == inst.spec.s  # integer target
        assert inst.spec.u.id == "power_offset"
        assert inst.spec.u.params["rho"] == inst.spec.m  # u = c + A n^-m
        verdict = theorem_dispatch(inst.spec, traces[name], inst.case_id, "regular")
        assert verdict.passed, (name, verdict.failed_check)
        rep = verdict.decomposition.x_report
        assert rep.regular_passed is True, name
        assert len(rep.regular_checks) == inst.spec.q + 1
        for p, check in enumerate(rep.regular_checks):
            assert check.kind == "small_o", (name, p)
    _report(6, "regular (iterated-difference) refinement", t0, 10.0)


def test_criterion_7_negative_controls():
    t0 = time.monotonic()
    # (i) harmonic b breaks the b-summability hypothesis, named in the verdict
    cfg = load_fixture("fail_b_summability")
    assert cfg.spec.b == CatalogRef("power", {"A": 1.0, "rho": 1.0})
    trace = simulate(cfg.spec, cfg.x_seed, cfg.z_seed, 10_000)
    verdict = theorem_dispatch(cfg.spec, trace, cfg.case_id)
    assert not verdict.passed
    assert verdict.failed_check == "b-summability"
    # (ii) alternating window fails the regular check at p = 1
    w = seq_from_function(lambda n: (-1.0) ** n, 1, 200)
    checks = regularity_check(w, 1)
    assert not all(v.is_small_o for v in checks)
    assert checks[1].kind != "small_o"
    # (iii) sigma(n) = n + 1 with k = 0 reads the future
    spec3 = EquationSpec(
        m=1, k=0,
        u=CatalogRef("constant", {"value": 0.5}),
        a=CatalogRef("constant", {"value": 0.0}),
        b=CatalogRef("constant", {"value": 0.0}),
        f=CatalogRef("sigmoid"),
        g=CatalogRef("constant", {"value": 1.0}),
        sigma=CatalogRef("delay_d", {"d": -1}),
        s=0.0,
    )
    x_seed3, z_seed3 = consistent_seeds(spec3, (1.0,))
    with pytest.raises(CausalityError):
        simulate(spec3, x_seed3, z_seed3, 100)
    _report(7, "negative controls", t0, 5.0)


def test_criterion_8_stolz_cesaro_coefficients():
    t0 = time.monotonic()
    for m in (1, 2, 3, 4):
        for lam in (-10.0, -1.0, 0.5, 10.0):
            d = [lam + 1.0 / n for n in range(1, 10_001)]
            z = cumsum_window(d, 1, m)
            for p in range(m + 1):
                dv = delta(z, m - p)
                n_end = dv.end
                value = math.factorial(p) * dv.at(n_end) / float(n_end) ** p
                assert abs(value - lam) <= 0.05 * abs(lam), (m, lam, p)
    _report(8, "Stolz-Cesaro coefficient property", t0, 5.0)


def test_criterion_9_determinism(capsys):
    t0 = time.monotonic()
    # selftest runs every manifest fixture twice, checks its exit code and
    # compares the artifacts of the two runs byte for byte.
    assert selftest() == 0
    with capsys.disabled():
        _report(9, "byte-identical reruns of every fixture", t0, 60.0)
