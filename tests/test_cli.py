import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asympoly import cli, neutral_solver
from asympoly.cli import EXIT_CONFIG, EXIT_HYPOTHESIS, EXIT_OK, EXIT_SIMULATION, ExperimentConfig, run
from asympoly.errors import ConfigError

from conftest import CERTIFIED, FIXTURES, fit_divergent_raw, manifest_entries


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
        ("spec", "s", math.nan),
        pytest.param("spec", "s", [0], id="spec-s-[0]"),
        pytest.param("seeds", "z", [True], id="seeds-z-[True]"),
        # n**(m - 1 - s) overflows a float at the horizon 1e4.
        ("spec", "s", -400),
        ("spec", "s", -1e308),
        pytest.param("seeds", "z", [1.75, 1.75], id="seeds-z-[1.75,1.75]"),
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


@pytest.mark.parametrize("value", [
    math.nan, "abc", pytest.param(10**400, id="int-beyond-float"),
])
def test_u_limit_parameter_read_by_the_finite_number_rule(value, tmp_path, capsys):
    # c is u's limit: the c parameter of u's power_offset entry.
    raw = json.loads(fixture_text("t1_case_a_m1.json"))
    raw["spec"]["u"]["params"]["c"] = value
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    assert run(str(config), out_dir=str(tmp_path / "o")) == EXIT_CONFIG
    assert "field u: parameter 'c' of 'power_offset' must be a finite number" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("name", sorted(entry["file"] for entry in manifest_entries()))
def test_spec_c_is_an_unknown_key(name, tmp_path, capsys):
    # c is u's limit, not a config key.
    raw = json.loads(fixture_text(name))
    raw["spec"]["c"] = 0.5
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    assert run(str(config), out_dir=str(tmp_path / "o")) == EXIT_CONFIG
    assert "config error: unknown key(s) ['c'] in spec" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("mode", ["plain", "regular"])
@pytest.mark.parametrize("name", sorted(entry["file"] for entry in manifest_entries()))
def test_mode_is_an_unknown_key(name, mode, tmp_path, capsys):
    # spec.q alone selects the regular form; there is no mode key.
    raw = json.loads(fixture_text(name))
    raw["mode"] = mode
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    assert run(str(config), out_dir=str(tmp_path / "o")) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == "" and err == "config error: unknown key(s) ['mode'] in config\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("name", sorted(entry["file"] for entry in manifest_entries()))
def test_thresholds_is_an_unknown_key(name, tmp_path, capsys):
    # The three gates are seqcore constants; the block every shipped config
    # once held is no longer a key.
    raw = json.loads(fixture_text(name))
    raw["thresholds"] = {"big_o_slack": 0.02, "tau_small": 0.05, "tau_tail": 0.001}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    assert run(str(config), out_dir=str(tmp_path / "o")) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == "" and err == "config error: unknown key(s) ['thresholds'] in config\n"
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


@pytest.mark.parametrize("k", [
    pytest.param(-(10**400), id="k-int-beyond-float"),
    pytest.param(-1e308, id="k-minus-1e308"),
])
def test_seeds_are_checked_before_the_horizon(k, tmp_path, capsys):
    # |k| x seeds are needed; the horizon check would print an n0 of 309+ digits.
    # The seed message itself abbreviates |k| to its leading digits and count.
    raw = json.loads(fixture_text("t2_regular_m3.json"))  # one x seed
    raw["spec"]["k"] = k
    digits = f"({len(str(abs(int(k))))} digits)"
    for x_seed, message in (([4.0], "must hold exactly |k| = "), (None, "required when k = ")):
        raw["seeds"]["x"] = x_seed
        config = tmp_path / "config.json"
        config.write_text(json.dumps(raw), encoding="utf-8")
        assert run(str(config), out_dir=str(tmp_path / "o")) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: field seeds.x: {message}") and digits in err
        assert len(err.splitlines()) == 1 and len(err) < 200, err
        assert not (tmp_path / "o").exists()


SEED_VALUES = st.lists(st.floats(-10.0, 10.0), max_size=4)


@settings(max_examples=50, deadline=None)
@given(
    st.sampled_from(["t1_case_a_m3", "t1_case_b_m2", "t1_case_a_m2"]),  # k = -1, 0, 1
    st.none() | SEED_VALUES,
    SEED_VALUES,
)
def test_seed_lengths_are_checked_through_run(name, x_seed, z_seed):
    raw = json.loads(fixture_text(f"{name}.json"))
    m, k = raw["spec"]["m"], raw["spec"]["k"]
    raw["seeds"] = {"x": x_seed, "z": z_seed}
    if k == 0:
        wrong = x_seed is not None
    else:
        wrong = x_seed is None or len(x_seed) != abs(k)
    wrong = wrong or len(z_seed) != m
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(raw), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = run(str(config), horizon=200, out_dir=str(Path(tmp) / "o"))
        assert "Traceback" not in err.getvalue()
        if wrong:
            assert code == EXIT_CONFIG
            assert "field seeds." in err.getvalue()
            assert not (Path(tmp) / "o").exists()
        else:
            assert code in (EXIT_OK, EXIT_HYPOTHESIS, EXIT_SIMULATION)


SIGMAS = st.sampled_from(
    [{"id": "identity"}, {"id": "half"}, {"id": "floor_log"}]
    + [{"id": "delay_d", "params": {"d": d}} for d in range(-3, 4)]
)
F_ENTRIES = st.sampled_from(
    [{"id": f} for f in ("sigmoid", "arctan", "linear", "bounded_sin")]
    + [{"id": "power_sgn", "params": {"gamma": 0.5}}]
)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(CERTIFIED)), SIGMAS, F_ENTRIES, st.sampled_from("abc"))
def test_valid_swaps_of_sigma_f_and_case_never_exit_one(name, sigma, f, case):
    raw = json.loads(fixture_text(f"{name}.json"))
    raw["spec"]["sigma"], raw["spec"]["f"], raw["case"] = sigma, f, case
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(raw), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = run(str(config), horizon=300, out_dir=str(Path(tmp) / "o"))
        assert "Traceback" not in err.getvalue()
        assert code in (EXIT_OK, EXIT_HYPOTHESIS, EXIT_SIMULATION), err.getvalue()
        if code == EXIT_SIMULATION:
            assert not (Path(tmp) / "o").exists()


def test_x_sigma_growth_reads_x_where_an_advancing_delay_leaves_it(tmp_path):
    # With sigma(n) = n + 1 and k = 0, every step reads x causally, but
    # sigma(N) = N + 1 lies past x's last index N.
    raw = json.loads(fixture_text("t1_case_b_m2.json"))
    raw["spec"]["sigma"] = {"id": "delay_d", "params": {"d": -1}}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    assert run(str(config), horizon=2000, out_dir=str(tmp_path / "o")) in (EXIT_OK, EXIT_HYPOTHESIS)
    checks = json.loads((tmp_path / "o" / "verdict.json").read_text(encoding="utf-8"))["checks"]
    growth = next(c for c in checks if c["name"] == "x-sigma-growth")
    assert math.isfinite(growth["metric"])


@pytest.mark.parametrize("horizon", [
    10_000,
    pytest.param(100_000, marks=pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 1: binomial stepping carries its rounding forward as a degree m - 1 "
        "polynomial, so at 1e5 the x remainder holds a flat quadratic residue and reads neither"
    ))),
])
def test_exactly_quadratic_z_is_certified(horizon, tmp_path):
    # With a = b = 0 the third difference of z is 0: z is exactly quadratic,
    # and x is the transferred quadratic plus an o(n**2) remainder.
    raw = json.loads(fixture_text("t2_regular_m3.json"))
    raw["spec"]["a"] = raw["spec"]["b"] = {"id": "constant", "params": {"value": 0.0}}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    assert run(str(config), horizon=horizon, out_dir=str(tmp_path / "o")) == EXIT_OK


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
    "name, key, value",
    [
        ("t2_regular_m2.json", "s", 0.0),  # q = 1
        ("t1_case_a_m2.json", "q", 1),  # s = 0
        ("t1_case_b_m3.json", "q", 0),  # s = 2
    ],
)
def test_q_set_with_s_not_q_is_rejected_before_simulating(
    name, key, value, tmp_path, capsys, monkeypatch
):
    calls = []
    monkeypatch.setattr(cli, "simulate", lambda *args: calls.append(args))
    raw = json.loads(fixture_text(name))
    raw["spec"][key] = value
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    assert run(str(config), out_dir=str(tmp_path / "o")) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: field s: ")
    assert calls == []
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "name, q", [("t1_case_b_m2.json", 1), ("t1_case_b_m3.json", 2), ("t1_case_a_m3.json", 1)]
)
def test_q_set_on_a_plain_fixture_certifies_the_regular_form(name, q, tmp_path):
    # s = q on these fixtures, so q selects the regular form. Its remainder
    # checks pass, but u - c is not o(n**(1 - m)), the rate the regular
    # theorem needs, so the run fails on u-rate.
    raw = json.loads(fixture_text(name))
    raw["spec"]["q"] = q
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    out = tmp_path / "o"
    assert run(str(config), out_dir=str(out)) == EXIT_HYPOTHESIS
    verdict = json.loads((out / "verdict.json").read_text(encoding="utf-8"))
    assert verdict["mode"] == "regular"
    assert verdict["failed_check"] == "u-rate"
    assert verdict["conclusion"]["passed"] is True
    assert verdict["conclusion"]["regular_passed"] is True


def test_regular_fixture_with_q_null_runs_plain(tmp_path):
    raw = json.loads(fixture_text("t2_regular_m2.json"))
    raw["spec"]["q"] = None
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    out = tmp_path / "o"
    assert run(str(config), out_dir=str(out)) == EXIT_OK
    verdict = json.loads((out / "verdict.json").read_text(encoding="utf-8"))
    assert verdict["mode"] == "plain"
    assert verdict["conclusion"]["regular_passed"] is None


#: The amplitude parameter of each b entry the certified fixtures use.
B_AMPLITUDE = {"constant": "value", "power": "A", "alt_power": "A"}


@pytest.mark.parametrize("name", sorted(CERTIFIED))
def test_negated_seeds_and_b_negate_the_trace(name, tmp_path):
    # f is odd in every certified fixture, so with b negated -x solves the
    # equation that x solves from the negated seeds.  Rounding to nearest is
    # symmetric, so every cell is negated exactly, and every verdict reads
    # magnitudes or signs of products, so verdict.json does not move.
    raw = json.loads(fixture_text(f"{name}.json"))
    neg = json.loads(json.dumps(raw))
    seeds = neg["seeds"]
    seeds["z"] = [-v for v in seeds["z"]]
    if seeds["x"] is not None:
        seeds["x"] = [-v for v in seeds["x"]]
    params = neg["spec"]["b"]["params"]
    amplitude = B_AMPLITUDE[neg["spec"]["b"]["id"]]
    params[amplitude] = -params[amplitude]
    for label, cfg in (("pos", raw), ("neg", neg)):
        config = tmp_path / f"{label}.json"
        config.write_text(json.dumps(cfg), encoding="utf-8")
        assert run(str(config), out_dir=str(tmp_path / label)) == EXIT_OK
    pos, negated = tmp_path / "pos", tmp_path / "neg"
    assert (pos / "verdict.json").read_bytes() == (negated / "verdict.json").read_bytes()
    pos_rows = (pos / "trace.csv").read_text(encoding="utf-8").splitlines()
    neg_rows = (negated / "trace.csv").read_text(encoding="utf-8").splitlines()
    assert pos_rows[0] == neg_rows[0] == "n,x,z,delta_m_z"
    assert len(pos_rows) == len(neg_rows)
    for p_row, n_row in zip(pos_rows[1:], neg_rows[1:]):
        n_p, *cells_p = p_row.split(",")
        n_n, *cells_n = n_row.split(",")
        assert n_p == n_n
        # Compared as floats, so that 0.0 equals -0.0.  The last m rows have
        # no m-th difference: that cell is empty in both.
        assert [c and -float(c) for c in cells_p] == [c and float(c) for c in cells_n], (p_row, n_row)


def _set_path(raw, path, value):
    """Set raw at a path of keys, e.g. ("spec", "u", "params", "c")."""
    for key in path[:-1]:
        raw = raw[key]
    raw[path[-1]] = value


#: Huge config values, by label: ints beyond the float range, and floats
#: that an integer field reads as 309-digit ints.
HUGE = {"1e308": 1e308, "-1e308": -1e308, "10**400": 10**400, "-10**400": -(10**400)}
BEYOND_FLOAT = ("10**400", "-10**400")


def huge_cases(path, labels, code, start):
    """One case per label: set path to that value, expect code and a
    message starting with start."""
    name = ".".join(map(str, path))
    return [pytest.param(path, HUGE[label], code, start, id=f"{name}={label}") for label in labels]


#: Config values a message echoed whole before they were abbreviated.
HUGE_VALUES = [
    *huge_cases(("spec", "m"), HUGE, EXIT_CONFIG, "config error: field m: "),
    *huge_cases(("spec", "s"), BEYOND_FLOAT, EXIT_CONFIG, "config error: field s: "),
    *huge_cases(("spec", "q"), HUGE, EXIT_CONFIG, "config error: field q: "),
    *huge_cases(("case",), BEYOND_FLOAT, EXIT_CONFIG, "config error: field case: "),
    *huge_cases(("seeds", "z", 0), BEYOND_FLOAT, EXIT_CONFIG, "config error: field seeds.z: "),
    *huge_cases(("spec", "u", "params", "c"), BEYOND_FLOAT, EXIT_CONFIG, "config error: field u: parameter 'c'"),
    *huge_cases(("spec", "sigma", "params", "d"), ("1e308", "-1e308"), EXIT_SIMULATION,
                "simulation error: step n=2: sigma(n)="),
    *huge_cases(("spec", "sigma", "params", "d"), BEYOND_FLOAT, EXIT_CONFIG,
                "config error: field sigma: parameter 'd'"),
    *huge_cases(("horizon",), HUGE, EXIT_CONFIG, "config error: field horizon: "),
    pytest.param(("case",), "x" * 1000, EXIT_CONFIG, "config error: field case: ", id="case=long-string"),
]


@pytest.mark.parametrize("path, value, code, start", HUGE_VALUES)
def test_huge_config_values_are_abbreviated(path, value, code, start, tmp_path, capsys):
    raw = json.loads(fixture_text("t1_case_a_m2.json"))
    raw["spec"]["sigma"] = {"id": "delay_d", "params": {"d": 0}}  # the identity
    raw["horizon"] = 300
    _set_path(raw, path, value)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    assert run(str(config), out_dir=str(tmp_path / "o")) == code
    err = capsys.readouterr().err
    assert err.startswith(start), err
    assert all(len(line) < 200 for line in err.splitlines()), err


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


def test_output_path_with_a_null_byte_exits_one(tmp_path, capsys, monkeypatch):
    # Rejected before simulating, naming the path: os.path.lexists reports
    # such a path as absent, and mkdir raises ValueError, not OSError.
    simulated = []
    monkeypatch.setattr(cli, "simulate", lambda *args: simulated.append(args))
    out = str(tmp_path / "o\0")
    assert run(str(FIXTURES / "t1_case_a_m1.json"), horizon=200, out_dir=out) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: output path {out!r} holds a null byte\n"
    assert simulated == []
    assert list(tmp_path.iterdir()) == []


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


def test_run_memory_per_step_at_a_horizon_where_windows_dominate(tmp_path):
    # At 1e4 the per-step windows outweigh the fixed costs, so this bound
    # tracks what a long run pays per step (t2_regular_m3 peaks at about
    # 140 B/step here and 125 at 1e5).
    horizon = 10_000
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = run(str(FIXTURES / "t2_regular_m3.json"), horizon, str(tmp_path / "out"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK
    assert peak <= 160 * horizon, peak / horizon


def count_sampled_indices(monkeypatch):
    """Count, per catalog entry built for a spec, every index its window samples.

    Returns a list filled with (kind, Counter) in build order, kind being
    "generator" for u, a and b and "sigma" for the delay map.
    """
    calls: list[tuple[str, Counter]] = []

    def counting(make, kind):
        def build(ref):
            entry = make(ref)
            counter: Counter = Counter()
            window = entry.window

            def counted(start, length):
                counter.update(range(start, start + length))
                return window(start, length)

            calls.append((kind, counter))
            return dataclasses.replace(entry, window=counted)

        return build

    monkeypatch.setattr(
        neutral_solver, "make_generator", counting(neutral_solver.make_generator, "generator")
    )
    monkeypatch.setattr(neutral_solver, "make_sigma", counting(neutral_solver.make_sigma, "sigma"))
    return calls


@pytest.mark.parametrize("name", ["t1_case_a_m2.json", "t1_case_b_m3.json", "t2_regular_m3.json"])
def test_each_coefficient_is_evaluated_once_per_index(name, tmp_path, monkeypatch):
    calls = count_sampled_indices(monkeypatch)
    assert run(str(FIXTURES / name), out_dir=str(tmp_path / "o")) == EXIT_OK
    assert len(calls) == 4  # u, a, b and sigma
    for kind, counter in calls:
        assert counter, kind
        assert max(counter.values()) == 1, (kind, counter.most_common(1))


def test_causality_fails_before_u_a_and_b_are_sampled(tmp_path, monkeypatch, capsys):
    calls = count_sampled_indices(monkeypatch)
    code = run(str(FIXTURES / "causality_violation.json"), out_dir=str(tmp_path / "o"))
    assert code == EXIT_SIMULATION
    assert "simulation error: step n=1: sigma(n)=6 outside realized x range" in capsys.readouterr().err
    assert [kind for kind, _ in calls] == ["generator"] * 3 + ["sigma"]  # u, a, b, sigma
    assert calls[3][1]
    assert not any(counter for _, counter in calls[:3]), calls


_POWER_OFFSET = {"id": "power_offset", "params": {"c": 0.5, "A": None, "rho": 2.0}}
_DELAY_D = {"id": "delay_d", "params": {"d": None}}


@pytest.mark.parametrize(
    "field, ref, param, literal",
    [
        pytest.param("u", _POWER_OFFSET, "A", "[1]", id="u-A-[1]"),
        pytest.param("u", _POWER_OFFSET, "A", "true", id="u-A-true"),
        pytest.param("u", _POWER_OFFSET, "A", "NaN", id="u-A-NaN"),
        pytest.param("sigma", _DELAY_D, "d", "1e400", id="sigma-d-1e400"),
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


#: JSON values of every kind, among them values that no field accepts.
ANY_VALUE = (
    st.booleans()
    | st.none()
    | st.text(max_size=3)
    | st.integers(-3, 3)
    | st.floats(-10.0, 10.0)
    | st.sampled_from([math.nan, math.inf, -math.inf, 10**400, -(10**400), 1e308, -1e308])
    | st.lists(st.floats(-2.0, 2.0), max_size=2)
    | st.just({"extra": 1.0})
)
#: A horizon that runs (at most 300) or that is rejected before anything is allocated.
HORIZON_VALUE = ANY_VALUE | st.integers(60, 300) | st.just(cli.MAX_HORIZON + 1)
CATALOG_FIELDS = ["u", "a", "b", "f", "g", "sigma"]
SCALAR_KEYS = ["m", "k", "s", "q", "case"]
FIXTURE_FILES = sorted(entry["file"] for entry in manifest_entries())


def draw_fixture(draw):
    """A shipped fixture, drawn by name, at horizon 300."""
    raw = json.loads(fixture_text(draw(st.sampled_from(FIXTURE_FILES))))
    raw["horizon"] = 300
    return raw


@st.composite
def mutated_config(draw):
    """A shipped fixture at horizon 300 with one value of its seeds, its
    horizon or a catalog reference replaced by another JSON value, or one
    key deleted or added."""
    raw = draw_fixture(draw)
    target = draw(st.sampled_from(["seeds", "seed entry", "horizon", "ref", "params"]))
    values = ANY_VALUE
    if target == "seeds":
        container, keys = raw["seeds"], ["x", "z", "extra"]
    elif target == "seed entry":
        container = raw["seeds"]["z"]
        keys = list(range(len(container)))
    elif target == "horizon":
        container, keys, values = raw, ["horizon"], HORIZON_VALUE
    else:
        ref = raw["spec"][draw(st.sampled_from(CATALOG_FIELDS))]
        if target == "ref":
            container, keys = ref, ["id", "params", "extra"]
        else:
            container = ref.setdefault("params", {})
            keys = sorted(container) + ["extra"]
    key = draw(st.sampled_from(keys))
    present = key in container if isinstance(container, dict) else True
    if present and draw(st.booleans()):
        del container[key]
    else:
        container[key] = draw(values)
    return raw


def mutate_scalar(draw, raw, key):
    """Replace spec.<key>, or the top-level case, by another JSON value, or delete it."""
    container = raw if key == "case" else raw["spec"]
    if draw(st.booleans()):
        container.pop(key, None)
    else:
        container[key] = draw(ANY_VALUE)


@st.composite
def mutated_spec_scalar(draw):
    """A shipped fixture at horizon 300 with one of spec.m, k, s and q,
    and case replaced by another JSON value, or deleted."""
    raw = draw_fixture(draw)
    mutate_scalar(draw, raw, draw(st.sampled_from(SCALAR_KEYS)))
    return raw


@st.composite
def mutated_structure(draw):
    """A shipped fixture at horizon 300 with its whole spec replaced (by
    another JSON value or another fixture's spec), its output replaced by
    another JSON value, or two of the SCALAR_KEYS mutated at once."""
    raw = draw_fixture(draw)
    target = draw(st.sampled_from(["spec", "output", "two keys"]))
    if target == "spec":
        other = json.loads(fixture_text(draw(st.sampled_from(FIXTURE_FILES))))["spec"]
        raw["spec"] = draw(ANY_VALUE | st.just(other))
    elif target == "output":
        raw["output"] = draw(ANY_VALUE)
    else:
        for key in draw(st.lists(st.sampled_from(SCALAR_KEYS), min_size=2, max_size=2, unique=True)):
            mutate_scalar(draw, raw, key)
    return raw


def assert_exits_cleanly(raw):
    """Run raw: exit 0-3, no traceback, and no output directory on exits 1 and 3."""
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(raw), encoding="utf-8")
        out = Path(tmp) / "o"
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = run(str(config), out_dir=str(out))
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_HYPOTHESIS, EXIT_SIMULATION), err.getvalue()
        assert "Traceback" not in err.getvalue()
        if code in (EXIT_CONFIG, EXIT_SIMULATION):
            assert not out.exists()


@settings(max_examples=40, deadline=None)
@given(mutated_config())
def test_mutated_seeds_horizon_and_params_exit_cleanly(raw):
    assert_exits_cleanly(raw)


@settings(max_examples=40, deadline=None)
@given(mutated_spec_scalar())
def test_mutated_spec_scalars_and_case_exit_cleanly(raw):
    assert_exits_cleanly(raw)


@settings(max_examples=40, deadline=None)
@given(mutated_structure())
def test_replaced_spec_or_output_and_double_mutations_exit_cleanly(raw):
    assert_exits_cleanly(raw)


def artifact_digests(out):
    return [
        hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("trace.csv", "decomposition.json", "verdict.json")
    ]


@pytest.mark.parametrize("text, same_as", [("1e4", "10000"), ("1.5e3", "1500")])
def test_horizon_flag_reads_a_json_number(text, same_as, tmp_path):
    # --horizon is read as the config's "horizon" is: 1e4 is the integer 10000.
    config = str(FIXTURES / "t1_case_a_m1.json")
    for value, out in ((text, tmp_path / "a"), (same_as, tmp_path / "b")):
        assert cli.main(["run", config, "--horizon", value, "--out", str(out)]) == EXIT_OK
    assert artifact_digests(tmp_path / "a") == artifact_digests(tmp_path / "b")


@pytest.mark.parametrize("text", ["1.5", "1.5e-3", "NaN", "true"])
def test_horizon_flag_rejects_what_the_config_rejects(text, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", str(FIXTURES / "t1_case_a_m1.json"), "--horizon", text,
                  "--out", str(tmp_path / "o")])
    assert exc.value.code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "usage: asympoly" in err and "argument --horizon:" in err
    assert "Traceback" not in err
    raw = json.loads(fixture_text("t1_case_a_m1.json"))
    raw["horizon"] = "@horizon"
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw).replace('"@horizon"', text), encoding="utf-8")
    assert run(str(config), out_dir=str(tmp_path / "o")) == EXIT_CONFIG
    assert "field horizon:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [
    pytest.param(["run", str(FIXTURES / "t1_case_a_m1.json"), "--horizon", "abc"], id="horizon-abc"),
    pytest.param(["run"], id="run-without-config"),
    pytest.param(["bogus"], id="bogus-command"),
    pytest.param([], id="no-arguments"),
])
def test_usage_error_exits_one(argv, capsys):
    # argparse's own exit code, 2, means a failed hypothesis here.
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == EXIT_CONFIG
    assert "usage: asympoly" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv", [pytest.param(["--help"], id="--help"), pytest.param(["run", "--help"], id="run---help")]
)
def test_help_exits_zero(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == EXIT_OK
    assert "usage: asympoly" in capsys.readouterr().out


@pytest.mark.parametrize("k, c, expected", [
    (1, 0.99, EXIT_HYPOTHESIS),
    (-1, 1.01, EXIT_HYPOTHESIS),
    (1, 0.999, EXIT_OK),
])
def test_case_c_alternative_rejects_exponential_growth(k, c, expected, tmp_path):
    # k(|c| - 1) < 0, so the alternative reaches its polynomial-growth branch.
    # The forward solve follows the homogeneous mode, |x| reaching 1e9 to
    # 1e49 at 1e4, except at (1, 0.999), where |x| stays near n.
    raw = json.loads(fixture_text("t1_case_b_m2.json"))
    raw["case"] = "c"
    raw["spec"]["k"] = k
    raw["spec"]["u"]["params"]["c"] = c
    raw["seeds"]["x"] = [1.0] * abs(k)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    assert run(str(config), horizon=10_000, out_dir=str(tmp_path / "o")) == expected
    verdict = json.loads((tmp_path / "o" / "verdict.json").read_text(encoding="utf-8"))
    alternative = next(ch for ch in verdict["checks"] if ch["name"] == "alternative")
    if expected == EXIT_OK:
        assert alternative["detail"].startswith("polynomial growth: ")
    else:
        assert verdict["failed_check"] == "alternative"
        assert not alternative["passed"]


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
        assert "field u: |c| must differ from 1 by more than" in capsys.readouterr().err

    def test_future_sigma_exits_three(self, tmp_path, capsys):
        code = run(str(FIXTURES / "causality_violation.json"), out_dir=str(tmp_path / "o"))
        assert code == EXIT_SIMULATION
        err = capsys.readouterr().err
        assert "sigma" in err

    @pytest.mark.parametrize(
        "k, c, A, x_seed",
        [
            pytest.param(1, 2.0, -2.0, [1.0], id="1-2.0--2.0-[1.0]"),  # u_1 = 0 divides x_2 out of z_1
            (0, -0.5, -0.5, None),  # 1 + u_1 = 0 divides x_1 out of z_1
        ],
    )
    def test_singular_recovery_exits_three(self, k, c, A, x_seed, tmp_path, capsys):
        raw = json.loads(fixture_text("t1_case_a_m1.json"))
        u = {"id": "power_offset", "params": {"c": c, "A": A, "rho": 1.0}}
        raw["spec"].update(k=k, u=u)
        raw["seeds"] = {"x": x_seed, "z": [1.0]}
        config = tmp_path / "config.json"
        config.write_text(json.dumps(raw), encoding="utf-8")
        assert run(str(config), out_dir=str(tmp_path / "o")) == EXIT_SIMULATION
        assert "at index 1 is below the singularity guard" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_failed_hypothesis_exits_two(self, tmp_path):
        out = tmp_path / "o"
        code = run(str(FIXTURES / "fail_b_summability.json"), out_dir=str(out))
        assert code == EXIT_HYPOTHESIS
        verdict = json.loads((out / "verdict.json").read_text())
        assert verdict["failed_check"] == "b-summability"

    @pytest.mark.parametrize("horizon", [10_000, 100_000])
    def test_log_growth_of_x_sigma_is_not_big_o(self, horizon, tmp_path):
        # b_n = 1/n makes x_{sigma(n)}/n grow like log n: its trailing-third
        # sup keeps rising against the middle third, so it is not O(n).
        out = tmp_path / "o"
        code = run(str(FIXTURES / "fail_b_summability.json"), horizon=horizon, out_dir=str(out))
        assert code == EXIT_HYPOTHESIS
        verdict = json.loads((out / "verdict.json").read_text())
        assert verdict["failed_check"] == "b-summability"
        check = next(c for c in verdict["checks"] if c["name"] == "x-sigma-growth")
        assert not check["passed"]
        assert "neither" in check["detail"], check["detail"]

    def _run_failing(self, raw, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(raw), encoding="utf-8")
        out = tmp_path / "o"
        assert run(str(config), out_dir=str(out)) == EXIT_HYPOTHESIS
        return json.loads((out / "verdict.json").read_text())

    def test_large_shift_transfer_reaches_the_verdict(self, tmp_path):
        # c psi(n + k) is about k**3 times phi(n) here; the transfer's
        # residual check must scale with it instead of raising.
        raw = json.loads(fixture_text("t1_case_a_m1.json"))
        zero = {"id": "constant", "params": {"value": 0.0}}
        u = {"id": "constant", "params": {"value": 2.0}}
        raw["spec"].update(m=4, k=2000, u=u, a=zero, b=zero)
        raw["seeds"] = {"z": [1.0, 8.0, 27.0, 64.0], "x": [float(i % 7) for i in range(2000)]}
        verdict = self._run_failing(raw, tmp_path)
        assert verdict["failed_check"] == "conclusion"

    def test_overflowing_majorant_fails_f_g_bounded(self, tmp_path):
        # g(1e6) overflows and counts as +inf; g(1e-6) underflows to 0.
        raw = json.loads(fixture_text("t1_case_a_m1.json"))
        raw["spec"]["g"] = {"id": "power", "params": {"gamma": 100.0}}
        verdict = self._run_failing(raw, tmp_path)
        assert verdict["failed_check"] == "f-g-bounded"
        check = next(c for c in verdict["checks"] if c["name"] == "f-g-bounded")
        assert check["metric"] == math.inf

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


REPORT_SIDE_KEYS = {
    "psi", "regular_checks", "regular_passed", "regular_q", "remainder_verdict",
    "remainder_window", "s",
}
ORDER_VERDICT_KEYS = {"bound", "exponent", "kind", "metric", "trend"}


@pytest.mark.parametrize(
    "entry",
    [e for e in manifest_entries() if e["expect_exit"] in (EXIT_OK, EXIT_HYPOTHESIS)],
    ids=lambda e: e["file"],
)
def test_report_schema(entry, tmp_path):
    # The exact key sets of both reports, nested: a field added to or
    # dropped from a report dataclass must show up here.
    out = tmp_path / "o"
    assert run(str(FIXTURES / entry["file"]), out_dir=str(out)) == entry["expect_exit"]
    config = ExperimentConfig.from_json(fixture_text(entry["file"]))
    decomposition = json.loads((out / "decomposition.json").read_text(encoding="utf-8"))
    assert set(decomposition) == {"psi_x_transferred", "x", "z"}
    for side in ("z", "x"):
        report = decomposition[side]
        assert set(report) == REPORT_SIDE_KEYS
        assert set(report["remainder_verdict"]) == ORDER_VERDICT_KEYS
        for check in report["regular_checks"] or ():
            assert set(check) == ORDER_VERDICT_KEYS
        window = report["remainder_window"]
        assert len(window) == 2 and all(type(i) is int for i in window)
    n0 = neutral_solver.start_index(config.spec)
    assert decomposition["z"]["remainder_window"] == [n0, config.horizon]
    if config.spec.q is not None:
        assert len(decomposition["z"]["regular_checks"]) == config.spec.q + 1

    verdict = json.loads((out / "verdict.json").read_text(encoding="utf-8"))
    assert set(verdict) == {"case", "checks", "conclusion", "failed_check", "mode", "passed"}
    for check in verdict["checks"]:
        assert set(check) == {"detail", "metric", "name", "passed"}
    assert set(verdict["conclusion"]) == {
        "metric", "passed", "regular_passed", "remainder_kind", "s",
    }


@pytest.mark.parametrize(
    "name, spec_update, message",
    [
        # |c| < 1 with k = 1: recovering x from z doubles it at every step.
        pytest.param(
            "t1_case_a_m2.json",
            {"u": {"id": "power_offset", "params": {"A": 1.0, "c": 0.5, "rho": 2.0}}},
            "|x| exceeded the finite range at index 1001; last valid index 1000",
            id="t1_case_a_m2.json-x",
        ),
        # A linear f with a constant a makes z grow geometrically.
        pytest.param(
            "t1_case_b_m2.json",
            {"f": {"id": "linear", "params": {}}, "a": {"id": "constant", "params": {"value": 5.0}}},
            "|z| exceeded the finite range at index 490; last valid index 489",
            id="t1_case_b_m2.json-z",
        ),
    ],
)
def test_divergence_exits_three_naming_the_index(name, spec_update, message, tmp_path, capsys):
    raw = json.loads(fixture_text(name))
    raw["spec"].update(spec_update)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    assert run(str(config), out_dir=str(tmp_path / "o")) == EXIT_SIMULATION
    assert capsys.readouterr().err == f"simulation error: {message}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("horizon, expected", [
    (6400, EXIT_HYPOTHESIS),  # below the band, the fit is finite
    (6540, EXIT_SIMULATION),  # a non-finite coefficient of x's fit
    (6620, EXIT_SIMULATION),  # a non-finite difference of x
])
def test_divergence_found_while_decomposing_exits_three(horizon, expected, tmp_path, capsys):
    # x is finite through index 6642, so simulate returns; the exit code
    # must not depend on which stage finds the divergence.
    config = tmp_path / "config.json"
    config.write_text(json.dumps(fit_divergent_raw()), encoding="utf-8")
    assert run(str(config), horizon=horizon, out_dir=str(tmp_path / "o")) == expected
    if expected == EXIT_SIMULATION:
        assert capsys.readouterr().err.startswith("simulation error: divergent input: ")
        assert not (tmp_path / "o").exists()


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
