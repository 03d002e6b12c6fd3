"""Analytic oracle: an equation whose limit polynomial is known in closed form.

The equation is t1_case_a_m2's (m = 2, k = 1, u_n = c + n**-2 with c = 2,
z seeded at n0 = 2) with a = 0 and b_n = A n**-4, A = -0.5.  Then
Delta**2 z_n = b_n for n >= 2, and summing twice gives z = phi + r with

    phi(n) = (z_2 - 2 Dz_2 - S0 - S1) + (Dz_2 + S0) n,
    S0 = sum_{j>=2} b_j = A (pi**4/90 - 1),
    S1 = sum_{j>=2} j b_j = A (zeta(3) - 1),
    r_n = sum_{j>=n} (j - n + 1) b_j, about A / (6 n**2),

where Dz_2 = z_3 - z_2.  The config is not a shipped fixture: the golden
files record what the code printed, this test what the equation implies.

Tolerances, at N = 1e4 (max |z| is about |phi_1| N = 1.8e3):

* Rounding.  Each step rounds z_{n+2} at most twice, by at most
  u = ulp(max |z|) / 2 = 1.1e-13 each time.  An error d_j made at step j
  stays in z as d_j (n - j + 1), because its second difference is zero.
  So N independent roundings move the fitted slope by a sum of N errors,
  of size sqrt(N) u, and the fitted constant by N times that.  The
  allowance is 8 sqrt(N) u = 9.1e-11 on the slope and 8 N sqrt(N) u =
  9.1e-7 on the constant, in absolute terms.  A sum of N errors uniform
  on [-2u, 2u] has standard deviation 1.15 sqrt(N) u, so that is about
  seven of them.
* Truncation.  The fit over the trailing half absorbs part of r.  The
  least-squares line through 1/t**2 on [1/2, 1] has intercept 6.09, so r
  moves the constant by about 6.09 |A| / (6 N**2) = 5e-9, which is added.

Measured, as relative errors (constant, slope): the z side is off by
(1.4e-8, 8.2e-11), inside the allowance.

The x side is compared with transfer_polynomial(phi, c, k), and there the
gap is (4.4e-6, 6.2e-9): not rounding, but u_n - c = n**-2.  x solves
x_n + c x_{n+1} = z_n - (u_n - c) x_{n+1}, so next to z's remainder it
carries r_x(n) about -(u_n - c) psi_x(n + 1) / (1 + c), about 0.02 / n.
The least-squares line of that model over x's trailing half is the
predicted gap, and it matches the measured one to 1.6e-8 on the constant
and 4.8e-12 on the slope.  What is left is z's rounding carried through
the transfer, which divides it by 1 + c = 3, and terms of order n**-2
left out of the model (under 3e-9 at N = 1e4).  So the z allowances
bound the x side once the predicted gap is taken off.
"""

import json
import math

import pytest

from asympoly.cli import ExperimentConfig
from asympoly.decomp import decompose_solution, transfer_polynomial
from asympoly.neutral_solver import simulate
from asympoly.seqcore import PolyCoeffs, csum, line_fit

from conftest import FIXTURES

N = 10_000
A = -0.5
ZETA_3 = 1.2020569031595942
#: Intercept of the least-squares line through 1/t**2 on [1/2, 1].
INTERCEPT_INV_SQUARE = 6.09


@pytest.fixture(scope="module")
def oracle():
    raw = json.loads((FIXTURES / "t1_case_a_m2.json").read_text(encoding="utf-8"))
    raw["spec"]["a"] = {"id": "constant", "params": {"value": 0.0}}
    raw["spec"]["b"] = {"id": "power", "params": {"A": A, "rho": 4.0}}
    config = ExperimentConfig.from_json(json.dumps(raw))
    z2, z3 = config.z_seed
    dz2 = z3 - z2
    s0 = A * (math.pi**4 / 90 - 1)
    s1 = A * (ZETA_3 - 1)
    phi = PolyCoeffs((z2 - 2 * dz2 - s0 - s1, dz2 + s0))
    trace = simulate(config.spec, config.x_seed, config.z_seed, N)
    return config.spec, phi, trace, decompose_solution(trace, config.spec)


def allowances(trace):
    """Absolute (constant, slope) allowances for z's fitted polynomial."""
    u = math.ulp(max(map(abs, trace.z.values))) / 2
    slope = 8 * math.sqrt(N) * u
    return N * slope + INTERCEPT_INV_SQUARE * abs(A) / (6 * N**2), slope


def test_z_polynomial_matches_the_closed_form(oracle):
    _, phi, trace, dec = oracle
    errors = [g - w for g, w in zip(dec.z_report.psi.padded(1), phi.padded(1))]
    for error, allowance in zip(errors, allowances(trace)):
        assert abs(error) <= allowance, (errors, allowances(trace))
    assert dec.z_report.remainder_verdict.kind == "small_o"


def test_x_polynomial_is_the_transfer_plus_the_u_perturbation(oracle):
    spec, phi, trace, dec = oracle
    psi_x = transfer_polynomial(phi, spec.c, spec.k)
    x = trace.x
    ns = range(x.end - (len(x) - len(x) // 2) + 1, x.end + 1)
    model = [-(n**-2.0) * psi_x(n + spec.k) / (1.0 + spec.c) for n in ns]
    slope = line_fit(ns, model)
    mean = csum(model) / len(model)
    predicted = (mean - slope * csum(ns) / len(ns), slope)
    errors = [g - w for g, w in zip(dec.x_report.psi.padded(1), psi_x.padded(1))]
    for error, gap, allowance in zip(errors, predicted, allowances(trace)):
        assert abs(error - gap) <= allowance, (errors, predicted, allowances(trace))
    assert dec.x_report.remainder_verdict.kind == "small_o"
