import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from asympoly import cli, neutral_solver
from asympoly.cli import EXIT_CONFIG, EXIT_HYPOTHESIS, EXIT_OK, EXIT_SIMULATION, ExperimentConfig, run
from asympoly.errors import ConfigError

from conftest import CERTIFIED, FIXTURES, manifest_entries


def fixture_text(name):
    return (FIXTURES / name).read_text(encoding="utf-8")


class TestExperimentConfig:
    def test_unknown_top_level_key_rejected(self):
        raw = json.loads(fixture_text("t1_case_a_m1.json"))
        raw["extra"] = 1
        with pytest.raises(ConfigError, match="extra"):
            ExperimentConfig.from_json(json.dumps(raw))

    def test_unknown_spec_key_rejected(self):
        raw = json.loads(fixture_text("t1_case_a_m1.json"))
        raw["spec"]["tau"] = 0.1
        with pytest.raises(ConfigError, match="tau"):
            ExperimentConfig.from_json(json.dumps(raw))

    def test_unknown_threshold_key_rejected(self):
        raw = json.loads(fixture_text("t1_case_a_m1.json"))
        raw["thresholds"]["tau_typo"] = 0.1
        with pytest.raises(ConfigError, match="tau_typo"):
            ExperimentConfig.from_json(json.dumps(raw))

    def test_missing_required_key_rejected(self):
        raw = json.loads(fixture_text("t1_case_a_m1.json"))
        del raw["seeds"]
        with pytest.raises(ConfigError, match="seeds"):
            ExperimentConfig.from_json(json.dumps(raw))

    def test_bad_case_rejected(self):
        raw = json.loads(fixture_text("t1_case_a_m1.json"))
        raw["case"] = "z"
        with pytest.raises(ConfigError, match="case"):
            ExperimentConfig.from_json(json.dumps(raw))


@pytest.mark.parametrize(
    "section, field, value",
    [
        ("spec", "m", True),
        ("spec", "k", True),
        (None, "horizon", True),
        ("spec", "c", math.nan),
        ("spec", "s", math.nan),
        ("spec", "s", [0]),
        ("spec", "c", "abc"),
        ("seeds", "z", [True]),
        ("thresholds", "tau_small", True),
        # n**(m - 1 - s) overflows a float at the horizon 1e4.
        ("spec", "s", -400),
        ("spec", "s", -1e308),
        ("thresholds", "coeff_window_fraction", -1),
        ("thresholds", "coeff_window_fraction", 0),
        ("thresholds", "trail_fraction", 0),
        ("thresholds", "trail_fraction", 1.5),
        ("thresholds", "tau_small", -0.1),
        ("seeds", "z", [1.75, 1.75]),
        (None, "horizon", 10),
    ],
)
def test_bool_and_nan_rejected_at_the_boundary(section, field, value, tmp_path, capsys):
    raw = json.loads(fixture_text("t1_case_a_m1.json"))
    (raw if section is None else raw[section])[field] = value
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    assert run(str(config), out_dir=str(tmp_path / "o")) == EXIT_CONFIG
    name = field if section in (None, "spec") else f"{section}.{field}"
    assert f"field {name}:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_s_floor_follows_the_effective_horizon(tmp_path):
    # m = 1 at horizon 1e4: the floor is s >= -ln(max float) / ln(1e4) = -77.06.
    raw = json.loads(fixture_text("t1_case_a_m1.json"))
    raw["spec"]["s"] = -77.0
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    assert run(str(config), out_dir=str(tmp_path / "inside")) in (EXIT_OK, EXIT_HYPOTHESIS)
    # s = -100 is below the floor at 1e4 but inside it at an overridden horizon of 1e3.
    raw["spec"]["s"] = -100.0
    config.write_text(json.dumps(raw), encoding="utf-8")
    assert run(str(config), out_dir=str(tmp_path / "below")) == EXIT_CONFIG
    assert not (tmp_path / "below").exists()
    assert run(str(config), horizon=1000, out_dir=str(tmp_path / "short")) in (
        EXIT_OK,
        EXIT_HYPOTHESIS,
    )


def test_seed_x_length_rejected_at_the_boundary(tmp_path, capsys):
    raw = json.loads(fixture_text("t2_regular_m3.json"))  # k = -1: one x seed
    raw["seeds"]["x"] = [4.0, 4.0]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    assert run(str(config), out_dir=str(tmp_path / "o")) == EXIT_CONFIG
    assert "field seeds.x:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "name, shortest",
    [
        ("t1_case_a_m1.json", 64),  # n0 = 1, 64 z values
        ("t2_regular_m3.json", 68),  # n0 = 3, 64 + q = 66 z values
    ],
)
def test_shortest_horizon_is_the_analysis_window(name, shortest, tmp_path, capsys):
    config = str(FIXTURES / name)
    assert run(config, horizon=shortest - 1, out_dir=str(tmp_path / "short")) == EXIT_CONFIG
    assert "field horizon:" in capsys.readouterr().err
    assert not (tmp_path / "short").exists()
    assert run(config, horizon=shortest, out_dir=str(tmp_path / "ok")) in (EXIT_OK, EXIT_HYPOTHESIS)


def test_horizon_beyond_the_cap_is_rejected_before_simulating(tmp_path, capsys, monkeypatch):
    def never(*args):
        raise AssertionError("simulate was reached")

    monkeypatch.setattr(cli, "simulate", never)
    rows = [
        (10**12, None),
        (1e308, None),  # a JSON float: its integer has 309 digits
        (2000, "1" + "0" * 400),
        (2000, str(cli.MAX_HORIZON + 1)),
    ]
    for config_horizon, override in rows:
        raw = json.loads(fixture_text("t1_case_a_m1.json"))
        raw["horizon"] = config_horizon
        config = tmp_path / "config.json"
        config.write_text(json.dumps(raw), encoding="utf-8")
        argv = ["run", str(config), "--out", str(tmp_path / "o")]
        if override is not None:
            argv += ["--horizon", override]
        assert cli.main(argv) == EXIT_CONFIG, (config_horizon, override)
        err = capsys.readouterr().err
        assert "field horizon:" in err and "GB" in err, err
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "name, edit, field",
    [
        ("t1_case_a_m2.json", {"mode": "regular"}, "q"),  # q is null
        ("t2_regular_m2.json", {"s": 0.0}, "s"),  # q = 1
    ],
)
def test_inconsistent_regular_mode_is_rejected_before_simulating(
    name, edit, field, tmp_path, capsys, monkeypatch
):
    def never(*args):
        raise AssertionError("simulate was reached")

    monkeypatch.setattr(cli, "simulate", never)
    raw = json.loads(fixture_text(name))
    for key, value in edit.items():
        (raw if key == "mode" else raw["spec"])[key] = value
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    assert run(str(config), out_dir=str(tmp_path / "o")) == EXIT_CONFIG
    assert f"field {field}: regular mode requires" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("out", ["file", "file/sub"])
def test_unwritable_output_exits_one(out, tmp_path, capsys, monkeypatch):
    # The output path is checked before anything is simulated.
    def never(*args):
        raise AssertionError("simulate was reached")

    monkeypatch.setattr(cli, "simulate", never)
    (tmp_path / "file").write_text("", encoding="utf-8")
    config = str(FIXTURES / "t1_case_a_m1.json")
    assert run(config, horizon=200, out_dir=str(tmp_path / out)) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"error: cannot write output to {tmp_path / out}:" in err and "Traceback" not in err
    assert (tmp_path / "file").read_text(encoding="utf-8") == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]


def test_bytes_per_step_bounds_the_run_memory(tmp_path):
    # The memory estimate behind MAX_HORIZON: a whole run (simulate, dispatch
    # and the writes) peaks below BYTES_PER_STEP per step on every certified
    # fixture.  Per step, the peak at 2000 is above the one at 1e4 and 1e5.
    horizon = 2_000
    for name in CERTIFIED:
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = run(str(FIXTURES / f"{name}.json"), horizon, str(tmp_path / name))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        assert peak <= cli.BYTES_PER_STEP * horizon, (name, peak / horizon)


@pytest.mark.parametrize("name", ["t1_case_a_m2.json", "t1_case_b_m3.json", "t2_regular_m3.json"])
def test_each_coefficient_is_evaluated_once_per_index(name, tmp_path, monkeypatch):
    calls: list[tuple[str, Counter]] = []

    def counting(make):
        def build(ref):
            entry = make(ref)
            counter: Counter = Counter()
            window = entry.window

            def counted(start, length):
                counter.update(range(start, start + length))
                return window(start, length)

            calls.append((ref.id, counter))
            return dataclasses.replace(entry, window=counted)

        return build

    monkeypatch.setattr(neutral_solver, "make_generator", counting(neutral_solver.make_generator))
    monkeypatch.setattr(neutral_solver, "make_sigma", counting(neutral_solver.make_sigma))
    assert run(str(FIXTURES / name), out_dir=str(tmp_path / "o")) == EXIT_OK
    assert len(calls) == 4  # u, a, b and sigma
    for ref_id, counter in calls:
        assert counter, ref_id
        assert max(counter.values()) == 1, (ref_id, counter.most_common(1))


_POWER_OFFSET = {"id": "power_offset", "params": {"c": 0.5, "A": None, "rho": 2.0}}
_DELAY_D = {"id": "delay_d", "params": {"d": None}}


@pytest.mark.parametrize(
    "field, ref, param, literal",
    [
        ("u", _POWER_OFFSET, "A", "[1]"),
        ("u", _POWER_OFFSET, "A", "true"),
        ("u", _POWER_OFFSET, "A", "NaN"),
        ("sigma", _DELAY_D, "d", "1e400"),
    ],
)
def test_bad_catalog_params_rejected_at_the_boundary(field, ref, param, literal, tmp_path, capsys):
    raw = json.loads(fixture_text("t1_case_a_m1.json"))
    raw["spec"][field] = {"id": ref["id"], "params": {**ref["params"], param: "@value"}}
    # The JSON literal is spliced in as text, exactly as a user would write it.
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw).replace('"@value"', literal), encoding="utf-8")
    assert run(str(config), out_dir=str(tmp_path / "o")) == EXIT_CONFIG
    assert f"field {field}: parameter {param!r} of {ref['id']!r}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


class TestRunCommand:
    def test_passing_instance_writes_reports(self, tmp_path):
        out = tmp_path / "out"
        code = run(str(FIXTURES / "t1_case_a_m2.json"), out_dir=str(out))
        assert code == EXIT_OK
        csv = (out / "trace.csv").read_text(encoding="utf-8")
        lines = csv.splitlines()
        assert lines[0] == "n,x,z,delta_m_z"
        assert lines[1].startswith("2,")
        # last m rows carry no m-th difference
        assert lines[-1].endswith(",")
        verdict = json.loads((out / "verdict.json").read_text())
        assert verdict["passed"] is True
        decomposition = json.loads((out / "decomposition.json").read_text())
        assert "psi" in decomposition["x"] and "psi" in decomposition["z"]

    def test_unit_c_exits_one_naming_c(self, tmp_path, capsys):
        code = run(str(FIXTURES / "bad_c_unit.json"), out_dir=str(tmp_path / "o"))
        assert code == EXIT_CONFIG
        assert "c" in capsys.readouterr().err

    def test_future_sigma_exits_three(self, tmp_path, capsys):
        code = run(str(FIXTURES / "causality_violation.json"), out_dir=str(tmp_path / "o"))
        assert code == EXIT_SIMULATION
        err = capsys.readouterr().err
        assert "sigma" in err

    def test_failed_hypothesis_exits_two(self, tmp_path):
        out = tmp_path / "o"
        code = run(str(FIXTURES / "fail_b_summability.json"), out_dir=str(out))
        assert code == EXIT_HYPOTHESIS
        verdict = json.loads((out / "verdict.json").read_text())
        assert verdict["failed_check"] == "b-summability"

    def test_horizon_override(self, tmp_path):
        out = tmp_path / "o"
        code = run(str(FIXTURES / "t1_case_a_m1.json"), horizon=2000, out_dir=str(out))
        assert code == EXIT_OK
        lines = (out / "trace.csv").read_text().splitlines()
        assert lines[-1].split(",")[0] == "2000"

    def test_missing_config_file(self, tmp_path, capsys):
        assert run(str(tmp_path / "nope.json")) == EXIT_CONFIG

    def test_deterministic_outputs(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert run(str(FIXTURES / "t1_case_b_m2.json"), out_dir=str(out1)) == EXIT_OK
        assert run(str(FIXTURES / "t1_case_b_m2.json"), out_dir=str(out2)) == EXIT_OK
        for artifact in ("trace.csv", "decomposition.json", "verdict.json"):
            assert (out1 / artifact).read_bytes() == (out2 / artifact).read_bytes()


class TestCatalogCommand:
    def test_contains_required_identifiers(self):
        out = subprocess.run(
            [sys.executable, "-m", "asympoly.cli", "catalog"],
            capture_output=True, text=True, check=True,
        )
        assert "sigmoid" in out.stdout
        assert "floor_log" in out.stdout

    def test_listing_identical_across_invocations(self):
        runs = [
            subprocess.run(
                [sys.executable, "-m", "asympoly.cli", "catalog"],
                capture_output=True, text=True, check=True,
            ).stdout
            for _ in range(2)
        ]
        assert runs[0] == runs[1]


def test_every_module_is_reached_from_the_package():
    # A module that nothing in the package imports is code only tests use.
    package = Path(cli.__file__).parent
    code = "import sys, asympoly, asympoly.cli; print(*sorted(sys.modules))"
    loaded = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout.split()
    for path in sorted(package.glob("*.py")):
        name = "asympoly" if path.stem == "__init__" else f"asympoly.{path.stem}"
        assert name in loaded, name


def test_readme_library_example_certifies_its_equation():
    root = Path(__file__).resolve().parent.parent
    readme = (root / "README.md").read_text(encoding="utf-8")
    example = readme.split("## Library example", 1)[1]
    code = example.split("```python\n", 1)[1].split("```", 1)[0]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout
    assert out.splitlines()[0] == "True small_o"


def test_manifest_covers_all_exit_codes():
    codes = {entry["expect_exit"] for entry in manifest_entries()}
    assert codes == {0, 1, 2, 3}
