"""Batch experiment runner.

Loads a strict JSON config describing one equation instance, simulates it,
decomposes the solution, checks the selected theorem case, and writes
machine-readable reports: trace.csv (n, x, z, m-th difference of z),
decomposition.json and verdict.json.  Identical configs produce
byte-identical outputs (exactly rounded sums, fixed evaluation order,
canonical JSON).

Exit codes: 0 all hypotheses and the conclusion certified; 1 config, usage
or output error; 2 a hypothesis or the conclusion failed; 3 a causality
violation, a singular recovery or a divergence, found while simulating or
while decomposing the trace.  Past the config read, the error's class picks it.
"""

from __future__ import annotations

import argparse
import errno
import io
import json
import math
import os
import sys
import tempfile
from dataclasses import MISSING, dataclass, fields, is_dataclass
from itertools import chain, islice
from pathlib import Path
from typing import Any, Iterable, Iterator, NoReturn

from .catalog import CatalogRef, catalog_listing
from .decomp import MIN_WINDOW
from .errors import (
    AsymPolyError,
    CausalityError,
    ConfigError,
    DivergenceError,
    SingularRecoveryError,
    brief,
    finite_number,
    integer,
)
from .hypotheses import theorem_dispatch, validate_case
from .neutral_solver import EquationSpec, SolutionTrace, check_seeds, simulate, start_index
from .seqcore import PolyCoeffs, Seq, delta

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_HYPOTHESIS = 2
EXIT_SIMULATION = 3

#: trace.csv rows joined into one string per write.
CSV_CHUNK_ROWS = 1024
#: Memory estimate of one run per step of horizon.  The peak traced memory
#: (tracemalloc) of simulate, dispatch and the three writes is at most
#: 82 B per step at horizon 1e5 on the shipped certified fixtures
#: (t2_regular_m3), reached while simulating, and 98 at 1e4, reached while
#: dispatching and writing (tests/test_cli.py bounds it by 160 there, and
#: simulate alone, 82, by 96).  Fixed costs weigh more at short horizons:
#: at 2000, where tests/test_cli.py re-measures it, the peak is at most
#: 207 (CPython 3.11).  Rounded up from that, with headroom for other
#: Python versions.
BYTES_PER_STEP = 250
#: Largest accepted horizon, about 2 GB of run memory at BYTES_PER_STEP.
MAX_HORIZON = 8_000_000

#: The files a run writes into its output directory, in writing order.
ARTIFACTS = ("trace.csv", "decomposition.json", "verdict.json")

#: The spec's keys: EquationSpec's init fields, required unless defaulted.
_SPEC_FIELDS = tuple(f for f in fields(EquationSpec) if f.init)
_SPEC_KEYS = {f.name for f in _SPEC_FIELDS}
_TOP_KEYS = {"spec", "seeds", "horizon", "case", "output"}


def _require_keys(obj: dict, allowed: set[str], required: set[str], where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")
    missing = required - set(obj)
    if missing:
        raise ConfigError(f"missing key(s) {sorted(missing)} in {where}")


def _check_horizon(spec: EquationSpec, horizon: int) -> None:
    """Reject a horizon whose z window [n0, N] is shorter than the analysis
    needs, or whose estimated memory exceeds the MAX_HORIZON cap, and an s
    below the floor m - 1 - ln(max float) / ln(N + max(k, 0)), taken at the
    end of x's window, the last index at which any n**e is read.  At or
    above it, every n**s that order_estimate divides by is at least
    1 / max float, so none is 0."""
    n0 = start_index(spec)
    need = MIN_WINDOW + (spec.q or 0)
    if horizon - n0 + 1 < need:
        raise ConfigError(
            f"field horizon: the analysis needs at least {need} z values on "
            f"[n0, horizon] with n0 = {n0}, so horizon >= {n0 + need - 1}; got {brief(horizon)}"
        )
    if horizon > MAX_HORIZON:
        # The figure is the cap's: a horizon beyond the float range has none.
        raise ConfigError(
            f"field horizon: {brief(horizon)} exceeds the cap {MAX_HORIZON}, about "
            f"{MAX_HORIZON * BYTES_PER_STEP / 1e9:.3g} GB of run memory at "
            f"{BYTES_PER_STEP} B per step"
        )
    # The window rule leaves horizon >= MIN_WINDOW > 1, so the log is positive.
    # At or above the floor at x's end, x_end**s >= 1 / max float > 0: no n**s is 0.
    x_end = horizon + max(spec.k, 0)
    ln_end = math.log(x_end)
    if (spec.m - 1 - spec.s) * ln_end > math.log(sys.float_info.max):
        floor = spec.m - 1 - math.log(sys.float_info.max) / ln_end
        where = f"horizon {horizon}" if x_end == horizon else f"index {x_end} = horizon + k"
        raise ConfigError(
            f"field s: n**(m - 1 - s) overflows at {where}; "
            f"need s >= {floor:.6g}, got {spec.s}"
        )


def _check_output_dir(out: Path) -> None:
    """Raise NotADirectoryError when out, or its nearest existing ancestor,
    is not a directory, and IsADirectoryError when an artifact's path in out
    is a directory (no file can be renamed onto it), so the run fails before
    simulating.  Creates nothing.  A null byte, which os.path.lexists
    reports as absent, raises ConfigError."""
    if "\0" in str(out):
        raise ConfigError(f"output path {str(out)!r} holds a null byte")
    for path in (out, *out.parents):
        if os.path.lexists(path):  # a dangling symlink also blocks mkdir
            if not path.is_dir():
                raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(path))
            break
    for name in ARTIFACTS:
        path = out / name
        if path.is_dir() and not path.is_symlink():  # a rename replaces a symlink
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))


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
    """One experiment: equation spec, seeds, horizon and case.

    x_seed and z_seed are the seed values as :func:`simulate` takes them.
    """

    spec: EquationSpec
    x_seed: tuple[float, ...] | None
    z_seed: tuple[float, ...]
    horizon: int
    case_id: str
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
        required = {f.name for f in _SPEC_FIELDS if f.default is MISSING}
        _require_keys(spec_raw, _SPEC_KEYS, required, "spec")
        spec = EquationSpec(**{  # in field order; a CatalogRef field is an id/params object
            f.name: _ref_from_json(spec_raw[f.name], f.name) if f.type == "CatalogRef" else spec_raw[f.name]
            for f in _SPEC_FIELDS if f.name in spec_raw
        })
        seeds = raw["seeds"]
        if not isinstance(seeds, dict):
            raise ConfigError("field seeds: must be an object")
        _require_keys(seeds, {"x", "z"}, {"x", "z"}, "seeds")
        x_raw = seeds["x"]
        if x_raw is not None and not isinstance(x_raw, list):
            raise ConfigError("field seeds.x: must be a list or null")
        if not isinstance(seeds["z"], list):
            raise ConfigError("field seeds.z: must be a list")
        horizon = integer(raw["horizon"], "field horizon:")
        case_id = raw["case"]
        validate_case(case_id)
        output = raw.get("output")
        if output is not None and not isinstance(output, str):
            raise ConfigError("field output: must be a string path")
        return ExperimentConfig(
            spec=spec,
            x_seed=None if x_raw is None else tuple(finite_number(v, "field seeds.x:") for v in x_raw),
            z_seed=tuple(finite_number(v, "field seeds.z:") for v in seeds["z"]),
            horizon=horizon,
            case_id=case_id,
            output=output,
        )


#: Report fields written under another key; None leaves the field out
#: (the decomposition is written as its own file).
_REPORT_KEYS = {
    "z_report": "z",
    "x_report": "x",
    "remainder": "remainder_window",
    "case_id": "case",
    "decomposition": None,
}


def _to_json(obj: Any) -> Any:
    """The JSON form of a report: a PolyCoeffs is its coefficient list, a
    Seq its [start, end] window, a tuple a list, and any other dataclass
    its fields, keyed as _REPORT_KEYS says.  PolyCoeffs and Seq are
    dataclasses too, so they are tested first."""
    if isinstance(obj, PolyCoeffs):
        return list(obj.coeffs)
    if isinstance(obj, Seq):
        return [obj.start, obj.end]
    if isinstance(obj, tuple):
        return [_to_json(v) for v in obj]
    if is_dataclass(obj):
        return {
            key: _to_json(getattr(obj, f.name))
            for f in fields(obj)
            if (key := _REPORT_KEYS.get(f.name, f.name)) is not None
        }
    return obj


def _write_artifacts(out: Path, contents: Iterable[Iterable[str]]) -> None:
    """Write each ARTIFACTS file's chunks to a temp file in out, and rename
    the temp files only once all are written: a failed write renames none,
    removes every temp file and leaves out's earlier artifacts."""
    tmps: list[str] = []
    try:
        for name, chunks in zip(ARTIFACTS, contents):
            fd, tmp = tempfile.mkstemp(dir=str(out), prefix=name, suffix=".tmp")
            tmps.append(tmp)
            with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
                fh.writelines(chunks)
        for name, tmp in zip(ARTIFACTS, tmps):
            os.replace(tmp, out / name)
    except BaseException:
        for tmp in tmps:
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


def _json_text(report: Any) -> str:
    return json.dumps(_to_json(report), sort_keys=True, indent=2) + "\n"


def run(config_path: str, horizon: int | None = None, out_dir: str | None = None) -> int:
    """Execute one experiment config; returns the process exit code."""
    path = Path(config_path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out: Path | None = None
    try:
        text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()  # as read_text
        config = ExperimentConfig.from_json(text)
        check_seeds(config.spec, config.x_seed, config.z_seed)
        N = config.horizon if horizon is None else horizon
        out = Path(out_dir or config.output or f"{path.stem}_out")
        _check_horizon(config.spec, N)
        _check_output_dir(out)
        trace = simulate(config.spec, config.x_seed, config.z_seed, N)
        verdict = theorem_dispatch(config.spec, trace, config.case_id)
        out.mkdir(parents=True, exist_ok=True)
        reports = [_json_text(verdict.decomposition)], [_json_text(verdict)]
        _write_artifacts(out, (_trace_csv(trace, config.spec.m), *reports))
    except (CausalityError, DivergenceError, SingularRecoveryError) as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return EXIT_SIMULATION
    except OSError as exc:
        print(f"error: cannot write output to {out}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (AsymPolyError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
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
                for artifact in ARTIFACTS:
                    if (out1 / artifact).read_bytes() != (out2 / artifact).read_bytes():
                        ok = False
                        break
            print(f"selftest {name}: {'PASS' if ok else 'FAIL'} (exit {code1}, expected {expected})")
            if not ok:
                failures += 1
    print(f"selftest: {len(manifest['fixtures']) - failures}/{len(manifest['fixtures'])} fixtures ok")
    return 0 if failures == 0 else 1


class _ArgumentParser(argparse.ArgumentParser):
    """A parser whose usage errors exit EXIT_CONFIG: argparse's own code, 2,
    is EXIT_HYPOTHESIS here.  Subparsers are built from this class too."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _horizon_arg(text: str) -> int:
    """--horizon read as the config's "horizon" is, a JSON number (1e4 is 10000).
    argparse makes an ArgumentTypeError, not a ConfigError, a usage error."""
    try:
        value = json.loads(text)
    except ValueError:  # not JSON: the rule rejects the text itself
        value = text
    try:
        return integer(value, "horizon")
    except ConfigError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def main(argv: list[str] | None = None) -> int:
    parser = _ArgumentParser(
        prog="asympoly",
        description="Simulate neutral difference equations and certify "
        "asymptotically polynomial structure.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run one experiment config")
    p_run.add_argument("config", help="path to the experiment JSON config")
    p_run.add_argument("--horizon", type=_horizon_arg, default=None, help="override the config horizon")
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
