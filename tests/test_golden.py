"""Semantic goldens of the shipped fixtures.

Each file in ``tests/golden/`` records, for one manifest entry, what a
run of ``cli.run`` decides: the exit code, the first failed check, the
pass flag of every check and of the conclusion, the remainder kinds of
the z and x decompositions, and the polynomial parts psi_z and psi_x
(the transfer of psi_z).  Everything is compared exactly except the psi
coefficients, which are compared at a relative tolerance so that a
change in summation order (for example to an exactly rounded sum) is
not mistaken for a change of behaviour.

Regenerate after an intended change of behaviour with::

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import sys
import tempfile
from pathlib import Path

import pytest

from asympoly.cli import run

from conftest import FIXTURES, manifest_entries

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
#: Relative tolerance of a psi coefficient, scaled by max |psi| of its vector.
PSI_RTOL = 1e-9
PSI_KEYS = ("psi_z", "psi_x")


def manifest_files():
    return [entry["file"] for entry in manifest_entries()]


def golden_entry(name, out_dir):
    """Run one fixture through the CLI and extract its semantic outcome."""
    out = Path(out_dir) / Path(name).stem
    code = run(str(FIXTURES / name), out_dir=str(out))
    entry = {"fixture": name, "exit_code": code, "failed_check": None}
    if not (out / "verdict.json").is_file():
        return entry
    verdict = json.loads((out / "verdict.json").read_text(encoding="utf-8"))
    decomposition = json.loads((out / "decomposition.json").read_text(encoding="utf-8"))
    entry.update(
        passed=verdict["passed"],
        failed_check=verdict["failed_check"],
        checks=[[c["name"], c["passed"]] for c in verdict["checks"]],
        conclusion_passed=verdict["conclusion"]["passed"],
        regular_passed=verdict["conclusion"]["regular_passed"],
        remainder_kind_z=decomposition["z"]["remainder_verdict"]["kind"],
        remainder_kind_x=decomposition["x"]["remainder_verdict"]["kind"],
        psi_z=decomposition["z"]["psi"],
        psi_x=decomposition["x"]["psi"],
    )
    return entry


@pytest.mark.parametrize("name", manifest_files())
def test_fixture_matches_golden(name, tmp_path, capsys):
    want = json.loads((GOLDEN / f"{Path(name).stem}.json").read_text(encoding="utf-8"))
    got = golden_entry(name, tmp_path)
    assert {k: v for k, v in got.items() if k not in PSI_KEYS} == {
        k: v for k, v in want.items() if k not in PSI_KEYS
    }
    for key in PSI_KEYS:
        if key not in want:
            continue
        assert len(got[key]) == len(want[key]), key
        tol = PSI_RTOL * max(abs(c) for c in want[key])
        for j, (g, w) in enumerate(zip(got[key], want[key])):
            assert abs(g - w) <= tol, f"{key}[{j}]: {g!r} vs golden {w!r} (tol {tol:.3g})"


def test_every_fixture_has_a_golden():
    assert sorted(p.name for p in GOLDEN.glob("*.json")) == sorted(
        f"{Path(name).stem}.json" for name in manifest_files()
    )


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for fixture in manifest_files():
            data = golden_entry(fixture, tmp)
            path = GOLDEN / f"{Path(fixture).stem}.json"
            path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")
            print(f"wrote {path.relative_to(ROOT)}", file=sys.stderr)
