"""The three benchmark workloads and the correctness check of every operation.

An operation is one call a user of the package would make: ``cli.run`` on
one config for the two CLI workloads, one ``bihari_bound`` (plus its
oracle where it has one) for the Bihari suite.  Each operation object is
callable (the timed part) and has a ``check`` that returns an error
message, or None when the outcome is correct.  The seed fixes the order
of the operations and the Bihari weights; nothing else is random.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import math
import random
import shutil
from collections import Counter
from itertools import count
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

#: Configs of the long-horizon workload: case (a) with k = 1, case (b)
#: with m = 3, and regular mode with k = -1.
LONG_CONFIGS = ("t1_case_a_m2.json", "t1_case_b_m3.json", "t2_regular_m3.json")
LONG_HORIZON = 100_000
#: Horizon of the untimed warm-up call of each CLI config during set-up.
WARM_HORIZON = 1_000
ARTIFACTS = ("trace.csv", "decomposition.json", "verdict.json")

#: Length of each seeded weight window of the exact Bihari route.
WEIGHT_LENGTH = 10_000
#: Weight totals of the quadrature route.
QUADRATURE_TOTALS = (0.25, 0.5, 1.0, 2.0)
#: Relative slack of the worst-case oracle against the bound M.
ORACLE_RTOL = 1e-6
#: Relative agreement of a quadrature bound with its closed form.
CLOSED_FORM_RTOL = 1e-8
#: Absolute agreement of the t**3 plateau's G(M) with its limit 1/2.
PLATEAU_ATOL = 1e-9


class _Sink:
    """Discards what ``cli.run`` prints, so the last stdout line stays ours."""

    def write(self, text: str) -> int:
        return len(text)

    def flush(self) -> None:
        pass


class Operation:
    label = ""

    def __call__(self) -> Any:
        raise NotImplementedError

    def check(self, result: Any, counters: Counter[str]) -> str | None:
        raise NotImplementedError

    def warm_up(self) -> None:
        self()
        self.cleanup()

    def instrument(self, tracer: Any) -> None:
        """Hook for counters that need the operation's own inputs."""

    def cleanup(self) -> None:
        pass


class CliOperation(Operation):
    """``cli.run`` on one config, into a fresh output directory."""

    def __init__(
        self,
        cli: Any,
        config: Path,
        horizon: int | None,
        expect_exit: int,
        must_pass: bool,
        work_dir: Path,
    ) -> None:
        self.cli = cli
        self.config = config
        self.horizon = horizon
        self.expect_exit = expect_exit
        self.must_pass = must_pass
        self.work_dir = work_dir
        self.label = config.stem if horizon is None else f"{config.stem}@{horizon}"
        self.reference: dict[str, str] | None = None
        self.out = work_dir
        self._runs = count()

    def _run(self, horizon: int | None) -> int:
        self.out = self.work_dir / f"{self.label}-{next(self._runs)}"
        sink = _Sink()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            # Looked up on the module at call time, so a traced run sees
            # the wrapper installed after set-up.
            return self.cli.run(str(self.config), horizon, str(self.out))

    def __call__(self) -> int:
        return self._run(self.horizon)

    def warm_up(self) -> None:
        self._run(WARM_HORIZON)
        self.cleanup()

    def check(self, code: int, counters: Counter[str]) -> str | None:
        if code != self.expect_exit:
            return f"exit code {code}, manifest expects {self.expect_exit}"
        if code not in (0, 2):
            if self.out.exists():
                return f"exit code {code} but output directory was written"
            return None
        data = {}
        for name in ARTIFACTS:
            path = self.out / name
            if not path.is_file():
                return f"artifact {name} missing"
            data[name] = path.read_bytes()
        counters["cli.bytes_written"] += sum(len(v) for v in data.values())
        digests = {name: hashlib.sha256(v).hexdigest() for name, v in data.items()}
        if self.reference is None:
            self.reference = digests
        else:
            changed = [name for name in ARTIFACTS if digests[name] != self.reference[name]]
            if changed:
                return f"artifacts differ from the first run of this config: {changed}"
        if self.must_pass and json.loads(data["verdict.json"])["passed"] is not True:
            return "verdict not passed"
        return None

    def cleanup(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)


class ExactBoundOperation(Operation):
    """Catalog majorant: exact-primitive bound, checked by worst_case_w."""

    def __init__(self, pkg: SimpleNamespace, g: Any, lam: float, weights: Any) -> None:
        self.bihari = pkg.bihari
        self.g, self.lam, self.weights = g, lam, weights
        self.label = f"exact:{g.ref.id}:{g.ref.params}:lam={lam}"

    def __call__(self) -> tuple[Any, Any]:
        b = self.bihari
        bound = b.bihari_bound(b.BihariProblem(self.g, self.lam, self.weights, 1))
        w = b.worst_case_w(self.weights, self.g, self.lam, 1, WEIGHT_LENGTH)
        return bound, w

    def check(self, result: tuple[Any, Any], counters: Counter[str]) -> str | None:
        bound, w = result
        if bound.condition_violated:
            return "condition_violated on a divergent-integral majorant"
        w_max = max(w.values)
        if not w_max <= bound.M * (1.0 + ORACLE_RTOL):
            return f"oracle max w = {w_max!r} exceeds M = {bound.M!r}"
        return None

    def instrument(self, tracer: Any) -> None:
        # Still a Majorant, so the bound keeps taking the exact route.
        self.g = dataclasses.replace(self.g, fn=tracer.count_calls(self.g.fn, "bihari.g_evals"))


class QuadratureBoundOperation(Operation):
    """Plain-callable g: quadrature bound, checked against a closed form.

    ``expect_M`` is the closed-form bound; None means the integral of 1/g
    converges to ``plateau`` below the weight total, so the bound must
    report condition_violated with G(M) at that limit.
    """

    def __init__(
        self,
        pkg: SimpleNamespace,
        name: str,
        g: Callable[[float], float],
        lam: float,
        total: float,
        expect_M: float | None,
        plateau: float | None = None,
    ) -> None:
        self.bihari = pkg.bihari
        self.g, self.lam, self.total = g, lam, total
        self.expect_M, self.plateau = expect_M, plateau
        self.label = f"quadrature:{name}:lam={lam}:total={total}"

    def __call__(self) -> Any:
        b = self.bihari
        return b.bihari_bound(b.BihariProblem(self.g, self.lam, self.total))

    def check(self, bound: Any, counters: Counter[str]) -> str | None:
        if self.expect_M is None:
            if not bound.condition_violated or bound.M != math.inf:
                return f"expected condition_violated, got M = {bound.M!r}"
            if not abs(bound.G_at_M - self.plateau) <= PLATEAU_ATOL:
                return f"G_at_M = {bound.G_at_M!r}, expected {self.plateau}"
            return None
        if bound.condition_violated:
            return "unexpected condition_violated"
        if not abs(bound.M - self.expect_M) <= CLOSED_FORM_RTOL * bound.M:
            return f"M = {bound.M!r}, closed form {self.expect_M!r}"
        return None

    def instrument(self, tracer: Any) -> None:
        self.g = tracer.count_calls(self.g, "bihari.g_evals")


def _manifest(root: Path) -> tuple[Path, dict[str, int]]:
    fixtures = root / "src" / "asympoly" / "fixtures"
    manifest = json.loads((fixtures / "manifest.json").read_text(encoding="utf-8"))
    return fixtures, {e["file"]: e["expect_exit"] for e in manifest["fixtures"]}


def fixture_batch(pkg: SimpleNamespace, root: Path, seed: int, work_dir: Path) -> list[Operation]:
    """Every manifest entry at its shipped horizon, in seeded order."""
    fixtures, expected = _manifest(root)
    ops: list[Operation] = [
        CliOperation(pkg.cli, fixtures / name, None, code, False, work_dir)
        for name, code in expected.items()
    ]
    random.Random(seed).shuffle(ops)
    return ops


def long_horizon(pkg: SimpleNamespace, root: Path, seed: int, work_dir: Path) -> list[Operation]:
    """Three certified configs pushed to horizon 1e5; each must pass."""
    fixtures, expected = _manifest(root)
    ops: list[Operation] = [
        CliOperation(pkg.cli, fixtures / name, LONG_HORIZON, expected[name], True, work_dir)
        for name in LONG_CONFIGS
    ]
    random.Random(seed).shuffle(ops)
    return ops


def bihari_suite(pkg: SimpleNamespace, root: Path, seed: int, work_dir: Path) -> list[Operation]:
    """Exact-primitive route with seeded weights, and the quadrature route."""
    make_g, ref = pkg.catalog.make_g, pkg.catalog.CatalogRef
    rng = random.Random(seed)
    majorants = (
        make_g(ref("identity")),
        make_g(ref("power", {"gamma": 0.5})),
        make_g(ref("power", {"gamma": 2.0})),
        make_g(ref("affine", {"alpha": 2.0, "beta": 1.0})),
        make_g(ref("constant", {"value": 3.0})),
    )
    ops: list[Operation] = []
    for g in majorants:
        for lam in (0.5, 1.0):
            # Weight total below G(10 lam + 10), so a finite bound exists.
            cap = g.recip_primitive(lam, 10.0 * lam + 10.0)
            raw = [rng.random() for _ in range(WEIGHT_LENGTH)]
            scale = rng.uniform(0.2, 0.95) * cap / math.fsum(raw)
            weights = pkg.seqcore.Seq(1, tuple(v * scale for v in raw))
            ops.append(ExactBoundOperation(pkg, g, lam, weights))
    # Several totals spread the quadrature costs over two decades, so the
    # latency percentiles do not sit inside one tight cluster of equal ops.
    for lam in (0.5, 1.0):
        for total in QUADRATURE_TOTALS:
            ops.append(QuadratureBoundOperation(
                pkg, "t", lambda t: t, lam, total, lam * math.exp(total)))
            ops.append(QuadratureBoundOperation(
                pkg, "sqrt", math.sqrt, lam, total, (math.sqrt(lam) + total / 2.0) ** 2))
            ops.append(QuadratureBoundOperation(
                pkg, "2t+1", lambda t: 2.0 * t + 1.0, lam, total,
                ((2.0 * lam + 1.0) * math.exp(2.0 * total) - 1.0) / 2.0))
    # The integral of t**-3 over [1, inf) is 1/2 < 1: no finite bound.
    ops.append(QuadratureBoundOperation(pkg, "t**3", lambda t: t**3, 1.0, 1.0, None, 0.5))
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "fixture_batch": fixture_batch,
    "long_horizon": long_horizon,
    "bihari_suite": bihari_suite,
}
