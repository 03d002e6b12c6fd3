import json
import re
from pathlib import Path

import pytest

from asympoly.cli import ExperimentConfig
from asympoly.neutral_solver import simulate

HORIZON = 10_000
FIXTURES = Path(__file__).resolve().parent.parent / "src" / "asympoly" / "fixtures"


def pytest_collection_modifyitems(items):
    """Refuse a parametrized id with a positional component such as value10.

    pytest names a parameter it cannot render by its argument name and
    position, so such an id changes when a case is added or moved, and a
    list of test names that holds it goes stale.  Every id is given
    explicitly instead.
    """
    positional = [
        item.nodeid
        for item in items
        if hasattr(item, "callspec")
        and any(
            re.fullmatch(re.escape(arg) + r"\d+", part)
            for part in item.callspec.id.split("-")
            for arg in item.callspec.params
        )
    ]
    if positional:
        raise pytest.UsageError(
            "parametrized ids with a positional component (give explicit ids): "
            + ", ".join(positional)
        )


def manifest_entries():
    """The manifest's fixture entries: file, expect_exit and note."""
    return json.loads((FIXTURES / "manifest.json").read_text(encoding="utf-8"))["fixtures"]


def load_fixture(name):
    """The shipped fixture ``name`` (without .json), parsed as ``cli.run`` parses it."""
    return ExperimentConfig.from_json((FIXTURES / f"{name}.json").read_text(encoding="utf-8"))


def fit_divergent_raw():
    """t1_case_b_m2 as order 5 in case (c) with k = 1 and u's limit c = 0.9, an unstable
    inversion: x stays finite up to index 6642, but from horizon 6500 on a
    polynomial fit of x overflows.  Not a shipped fixture."""
    raw = json.loads((FIXTURES / "t1_case_b_m2.json").read_text(encoding="utf-8"))
    raw["spec"].update(m=5, k=1, s=4.0)
    raw["spec"]["u"]["params"]["c"] = 0.9
    raw["case"] = "c"
    raw["seeds"] = {"x": [1.0], "z": [1.0, 1.1, 1.2, 1.3, 1.4]}
    return raw


#: Every shipped fixture whose run certifies the theorem (exit 0), by name.
CERTIFIED = {
    Path(e["file"]).stem: load_fixture(Path(e["file"]).stem)
    for e in manifest_entries()
    if e["expect_exit"] == 0
}


@pytest.fixture(scope="session")
def traces():
    """Simulated traces of every certified fixture at the shared horizon."""
    return {
        name: simulate(cfg.spec, cfg.x_seed, cfg.z_seed, HORIZON) for name, cfg in CERTIFIED.items()
    }


def seq_from_function(fn, start, length):
    """fn materialized on the window [start, start + length - 1]."""
    from asympoly.seqcore import Seq

    return Seq(start, map(fn, range(start, start + length)))


#: Parameter sets of every SIGMA_TABLE id: delay_d at d in -3..3 and +-10**6.
SIGMA_CASES = {
    "identity": [{}],
    "delay_d": [{"d": d} for d in (*range(-3, 4), 10**6, -(10**6))],
    "half": [{}],
    "floor_log": [{}],
}


def sigma_at(sigma, n):
    """sigma(n) for one index, read through the delay map's window formula."""
    return next(iter(sigma.window(n, 1)))


def cumsum_window(dvals, start, m):
    """m-fold forward cumulative sums with zero initial conditions.

    Given d on [start, start + len - 1], returns z on
    [start, start + len + m - 1] with the m-th difference of z equal to d.
    """
    from asympoly.seqcore import Seq

    vals = list(dvals)
    for _ in range(m):
        acc = 0.0
        out = []
        for v in vals:
            out.append(acc)
            acc += v
        out.append(acc)
        vals = out
    return Seq(start, tuple(vals))


def tail_sum_window(dvals, start, m):
    """m-fold tail sums of a fast-decaying window (converging to zero)."""
    from asympoly.seqcore import Seq

    vals = list(dvals)
    for _ in range(m):
        acc = 0.0
        out = []
        for v in reversed(vals):
            acc += v
            out.append(acc)
        vals = list(reversed(out))
    return Seq(start, tuple(vals))
