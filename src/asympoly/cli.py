"""Batch experiment runner.

Loads a strict JSON config describing one equation instance, simulates it,
decomposes the solution, checks the selected theorem case, and writes
machine-readable reports: trace.csv (n, x, z, m-th difference of z),
decomposition.json and verdict.json.  Identical configs produce
byte-identical outputs (exactly rounded sums, fixed evaluation order,
canonical JSON).

Exit codes: 0 all hypotheses and the conclusion certified; 1 config
error; 2 a hypothesis or the conclusion failed; 3 the simulation errored
(causality, divergence or singular recovery).
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import sys
import tempfile
from dataclasses import asdict, dataclass, fields
from itertools import chain, islice
from pathlib import Path
from typing import Any, Iterable, Iterator

from .catalog import CatalogRef, catalog_listing
from .decomp import MIN_WINDOW, DecompositionReport, SolutionDecomposition
from .errors import (
    AsymPolyError,
    CausalityError,
    ConfigError,
    DivergenceError,
    SingularRecoveryError,
)
from .hypotheses import HypothesisVerdict, theorem_dispatch, validate_mode
from .neutral_solver import (
    EquationSpec,
    SolutionTrace,
    simulate,
    start_index,
    x_start_index,
)
from .seqcore import Seq, Thresholds, delta

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_HYPOTHESIS = 2
EXIT_SIMULATION = 3

#: trace.csv rows joined into one string per write.
CSV_CHUNK_ROWS = 1024
#: Memory estimate of one run per step of horizon.  The peak traced memory
#: (tracemalloc) of simulate, dispatch and the three writes is at most
#: 171 B per step at horizon 1e5 on the shipped certified fixtures
#: (t2_regular_m3; 172 at 1e4).  Fixed costs weigh more at short horizons:
#: at 2000, where tests/test_cli.py re-measures it, the peak reaches 222.
#: Rounded up from that, with headroom for other Python versions.
BYTES_PER_STEP = 250
#: Largest accepted horizon, about 2 GB of run memory at BYTES_PER_STEP.
MAX_HORIZON = 8_000_000

_SPEC_KEYS = {"m", "k", "c", "u", "a", "b", "f", "g", "sigma", "s", "q"}
_TOP_KEYS = {"spec", "seeds", "horizon", "case", "mode", "thresholds", "output"}
_THRESHOLD_KEYS = {f.name for f in fields(Thresholds)}
#: Thresholds that are fractions of the window, in (0, 1]; the others must be >= 0.
_FRACTION_THRESHOLDS = {"trail_fraction", "coeff_window_fraction"}


def _require_keys(obj: dict, allowed: set[str], required: set[str], where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")
    missing = required - set(obj)
    if missing:
        raise ConfigError(f"missing key(s) {sorted(missing)} in {where}")


def _int_field(value: Any, name: str) -> int:
    """An integer-valued JSON number; bools, non-finite and fractional values are rejected."""
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or (isinstance(value, float) and not value.is_integer())
    ):
        raise ConfigError(f"field {name}: must be an integer, got {value!r}")
    return int(value)


def _num_field(value: Any, name: str) -> float:
    """A finite JSON number; bools, non-numbers and non-finite values are rejected."""
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not -sys.float_info.max <= value <= sys.float_info.max
    ):
        raise ConfigError(f"field {name}: must be a finite number, got {value!r}")
    return float(value)


def _threshold_field(value: Any, key: str) -> float:
    """A threshold: a finite number in (0, 1] for a window fraction, else >= 0."""
    name = f"thresholds.{key}"
    v = _num_field(value, name)
    if key in _FRACTION_THRESHOLDS:
        if not 0.0 < v <= 1.0:
            raise ConfigError(f"field {name}: must be in (0, 1], got {v!r}")
    elif v < 0.0:
        raise ConfigError(f"field {name}: must be >= 0, got {v!r}")
    return v


def _check_horizon(spec: EquationSpec, horizon: int) -> None:
    """Reject a horizon whose z window [n0, N] is shorter than the analysis
    needs, or whose estimated memory exceeds the MAX_HORIZON cap."""
    n0 = start_index(spec)
    need = MIN_WINDOW + (spec.q or 0)
    if horizon - n0 + 1 < need:
        raise ConfigError(
            f"field horizon: the analysis needs at least {need} z values on "
            f"[n0, horizon] with n0 = {n0}, so horizon >= {n0 + need - 1}; got {horizon}"
        )
    if horizon > MAX_HORIZON:
        # The figure is the cap's: a horizon beyond the float range has none.
        raise ConfigError(
            f"field horizon: {horizon} exceeds the cap {MAX_HORIZON}, about "
            f"{MAX_HORIZON * BYTES_PER_STEP / 1e9:.3g} GB of run memory at "
            f"{BYTES_PER_STEP} B per step"
        )


def _check_s_floor(spec: EquationSpec, horizon: int) -> None:
    """Reject an s whose summability weight n**(m - 1 - s) overflows by n = horizon."""
    if horizon > 1:
        ln_horizon = math.log(horizon)
        if (spec.m - 1 - spec.s) * ln_horizon > math.log(sys.float_info.max):
            floor = spec.m - 1 - math.log(sys.float_info.max) / ln_horizon
            raise ConfigError(
                f"field s: n**(m - 1 - s) overflows at horizon {horizon}; "
                f"need s >= {floor:.6g}, got {spec.s}"
            )


def _check_seed_lengths(spec: EquationSpec, x_raw: list | None, z_raw: list) -> None:
    """seeds.z holds z on [n0, n0 + m - 1]; seeds.x holds |k| values, null when k = 0."""
    if len(z_raw) != spec.m:
        raise ConfigError(
            f"field seeds.z: must hold exactly m = {spec.m} values, got {len(z_raw)}"
        )
    if spec.k == 0:
        if x_raw is not None:
            raise ConfigError("field seeds.x: must be null when k = 0")
    elif x_raw is None:
        raise ConfigError(f"field seeds.x: required when k = {spec.k}")
    elif len(x_raw) != abs(spec.k):
        raise ConfigError(
            f"field seeds.x: must hold exactly |k| = {abs(spec.k)} values, got {len(x_raw)}"
        )


def _check_output_dir(out: Path) -> None:
    """Raise NotADirectoryError when out, or its nearest existing ancestor,
    is not a directory, so the run fails before simulating.  Creates nothing."""
    for path in (out, *out.parents):
        if os.path.lexists(path):  # a dangling symlink also blocks mkdir
            if not path.is_dir():
                raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(path))
            return


def _ref_from_json(obj: Any, where: str) -> CatalogRef:
    if not isinstance(obj, dict):
        raise ConfigError(f"field {where}: expected an object with id/params")
    _require_keys(obj, {"id", "params"}, {"id"}, where)
    params = obj.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError(f"field {where}: params must be an object")
    return CatalogRef(str(obj["id"]), dict(params))


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: equation spec, seeds, horizon, case and thresholds."""

    spec: EquationSpec
    x_seed: tuple[float, ...] | None
    z_seed: tuple[float, ...]
    horizon: int
    case_id: str
    mode: str = "plain"
    thresholds: Thresholds = Thresholds()
    output: str | None = None

    @staticmethod
    def from_json(text: str) -> "ExperimentConfig":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        _require_keys(raw, _TOP_KEYS, {"spec", "seeds", "horizon", "case"}, "config")
        spec_raw = raw["spec"]
        if not isinstance(spec_raw, dict):
            raise ConfigError("field spec: must be an object")
        _require_keys(spec_raw, _SPEC_KEYS, _SPEC_KEYS - {"q"}, "spec")
        q = spec_raw.get("q")
        spec = EquationSpec(
            m=_int_field(spec_raw["m"], "m"),
            k=_int_field(spec_raw["k"], "k"),
            c=_num_field(spec_raw["c"], "c"),
            u=_ref_from_json(spec_raw["u"], "u"),
            a=_ref_from_json(spec_raw["a"], "a"),
            b=_ref_from_json(spec_raw["b"], "b"),
            f=_ref_from_json(spec_raw["f"], "f"),
            g=_ref_from_json(spec_raw["g"], "g"),
            sigma=_ref_from_json(spec_raw["sigma"], "sigma"),
            s=_num_field(spec_raw["s"], "s"),
            q=None if q is None else _int_field(q, "q"),
        )
        seeds = raw["seeds"]
        if not isinstance(seeds, dict):
            raise ConfigError("field seeds: must be an object")
        _require_keys(seeds, {"x", "z"}, {"x", "z"}, "seeds")
        x_raw = seeds["x"]
        if x_raw is not None and not isinstance(x_raw, list):
            raise ConfigError("field seeds.x: must be a list or null")
        if not isinstance(seeds["z"], list):
            raise ConfigError("field seeds.z: must be a list")
        _check_seed_lengths(spec, x_raw, seeds["z"])
        horizon = _int_field(raw["horizon"], "horizon")
        case_id = raw["case"]
        if case_id not in ("a", "b", "c"):
            raise ConfigError(f"field case: must be a, b or c, got {case_id!r}")
        mode = raw.get("mode", "plain")
        if mode not in ("plain", "regular"):
            raise ConfigError(f"field mode: must be plain or regular, got {mode!r}")
        validate_mode(spec, mode)
        thr_raw = raw.get("thresholds", {})
        if not isinstance(thr_raw, dict):
            raise ConfigError("field thresholds: must be an object")
        _require_keys(thr_raw, _THRESHOLD_KEYS, set(), "thresholds")
        thresholds = Thresholds(
            **{k: _threshold_field(v, k) for k, v in thr_raw.items()}
        )
        output = raw.get("output")
        if output is not None and not isinstance(output, str):
            raise ConfigError("field output: must be a string path")
        return ExperimentConfig(
            spec=spec,
            x_seed=None if x_raw is None else tuple(_num_field(v, "seeds.x") for v in x_raw),
            z_seed=tuple(_num_field(v, "seeds.z") for v in seeds["z"]),
            horizon=horizon,
            case_id=case_id,
            mode=mode,
            thresholds=thresholds,
            output=output,
        )

    def seed_windows(self) -> tuple[Seq | None, Seq]:
        n0 = start_index(self.spec)
        z_seed = Seq(n0, self.z_seed)
        if self.x_seed is None:
            return None, z_seed
        return Seq(x_start_index(self.spec), self.x_seed), z_seed


def _report_to_dict(r: DecompositionReport) -> dict:
    return {
        "psi": list(r.psi.coeffs),
        "s": r.s,
        "remainder_verdict": asdict(r.remainder_verdict),
        "remainder_window": [r.remainder.start, r.remainder.end],
        "decay_exponent": r.decay_exponent,
        "decay_r2": r.decay_r2,
        "regular_q": r.regular_q,
        "regular_checks": None
        if r.regular_checks is None
        else [asdict(c) for c in r.regular_checks],
        "regular_passed": r.regular_passed,
    }


def _decomposition_to_dict(d: SolutionDecomposition) -> dict:
    return {
        "z": _report_to_dict(d.z_report),
        "x": _report_to_dict(d.x_report),
        "psi_x_transferred": list(d.psi_x_transferred.coeffs),
    }


def _hypothesis_to_dict(v: HypothesisVerdict) -> dict:
    return {
        "case": v.case_id,
        "mode": v.mode,
        "passed": v.passed,
        "failed_check": v.failed_check,
        "checks": [asdict(c) for c in v.checks],
        "conclusion": asdict(v.conclusion),
    }


def _atomic_write(path: Path, chunks: Iterable[str]) -> None:
    """Write the concatenated chunks to a temp file, then rename it to path."""
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _trace_csv(trace: SolutionTrace, m: int) -> Iterator[str]:
    """Rows n, x_n, z_n, m-th difference of z at n (empty in the last m rows).

    Yields the header, then the rows joined in chunks of CSV_CHUNK_ROWS,
    so the whole file never sits in memory as one string.
    """
    z, x = trace.z, trace.x
    dz = delta(z, m).values
    ns = range(z.start, z.end + 1)
    x_vals = x.values[z.start - x.start : z.end - x.start + 1]
    full = len(dz)
    rows = chain(
        map("%d,%.17g,%.17g,%.17g\n".__mod__, zip(ns, x_vals, z.values, dz)),
        map("%d,%.17g,%.17g,\n".__mod__, zip(ns[full:], x_vals[full:], z.values[full:])),
    )
    yield "n,x,z,delta_m_z\n"
    while chunk := "".join(islice(rows, CSV_CHUNK_ROWS)):
        yield chunk


def _json_text(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def run(config_path: str, horizon: int | None = None, out_dir: str | None = None) -> int:
    """Execute one experiment config; returns the process exit code."""
    path = Path(config_path)
    try:
        config = ExperimentConfig.from_json(path.read_text(encoding="utf-8"))
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    N = config.horizon if horizon is None else horizon
    out = Path(out_dir or config.output or f"{path.stem}_out")
    try:
        _check_horizon(config.spec, N)
        _check_s_floor(config.spec, N)
        _check_output_dir(out)
        x_seed, z_seed = config.seed_windows()
        trace = simulate(config.spec, x_seed, z_seed, N)
    except (CausalityError, DivergenceError, SingularRecoveryError) as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return EXIT_SIMULATION
    except OSError as exc:
        print(f"error: cannot write output to {out}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (AsymPolyError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        verdict = theorem_dispatch(
            config.spec, trace, config.case_id, config.mode, thresholds=config.thresholds
        )
    except (AsymPolyError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        out.mkdir(parents=True, exist_ok=True)
        _atomic_write(out / "trace.csv", _trace_csv(trace, config.spec.m))
        _atomic_write(
            out / "decomposition.json", [_json_text(_decomposition_to_dict(verdict.decomposition))]
        )
        _atomic_write(out / "verdict.json", [_json_text(_hypothesis_to_dict(verdict))])
    except OSError as exc:
        print(f"error: cannot write output to {out}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    status = "pass" if verdict.passed else f"fail ({verdict.failed_check})"
    print(f"{path.name}: {status}; reports in {out}")
    return EXIT_OK if verdict.passed else EXIT_HYPOTHESIS


def _fixtures_dir() -> Path:
    return Path(__file__).resolve().parent / "fixtures"


def selftest() -> int:
    """Run every shipped fixture, check its exit code, re-run for determinism."""
    fixtures = _fixtures_dir()
    manifest = json.loads((fixtures / "manifest.json").read_text(encoding="utf-8"))
    failures = 0
    with tempfile.TemporaryDirectory(prefix="asympoly-selftest-") as tmp:
        for entry in manifest["fixtures"]:
            name = entry["file"]
            expected = entry["expect_exit"]
            out1 = Path(tmp) / f"{name}.run1"
            out2 = Path(tmp) / f"{name}.run2"
            code1 = run(str(fixtures / name), out_dir=str(out1))
            code2 = run(str(fixtures / name), out_dir=str(out2))
            ok = code1 == expected and code2 == expected
            if ok and code1 in (EXIT_OK, EXIT_HYPOTHESIS):
                for artifact in ("trace.csv", "decomposition.json", "verdict.json"):
                    if (out1 / artifact).read_bytes() != (out2 / artifact).read_bytes():
                        ok = False
                        break
            print(f"selftest {name}: {'PASS' if ok else 'FAIL'} (exit {code1}, expected {expected})")
            if not ok:
                failures += 1
    print(f"selftest: {len(manifest['fixtures']) - failures}/{len(manifest['fixtures'])} fixtures ok")
    return 0 if failures == 0 else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="asympoly",
        description="Simulate neutral difference equations and certify "
        "asymptotically polynomial structure.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run one experiment config")
    p_run.add_argument("config", help="path to the experiment JSON config")
    p_run.add_argument("--horizon", type=int, default=None, help="override the config horizon")
    p_run.add_argument("--out", default=None, help="override the output directory")
    sub.add_parser("catalog", help="list all catalog identifiers")
    sub.add_parser("selftest", help="run the shipped fixture suite")
    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args.config, args.horizon, args.out)
    if args.command == "catalog":
        print(catalog_listing(), end="")
        return 0
    return selftest()


if __name__ == "__main__":
    sys.exit(main())
