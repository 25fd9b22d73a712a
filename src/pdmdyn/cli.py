"""Command-line front end: JSON configs in, CSV/JSON tables and reports out.

Subcommands:

* ``simulate``       integrate a configured system and write (t, x, v, E)
* ``exact``          tabulate a closed-form solution on a time grid
* ``map``            simulate, then append (tau_i, q_i, qtilde_i) columns
* ``noninvariance``  run the two-dimensional shared-multiplier demonstration
* ``verify``         run named check suites and report pass/fail
* ``misprints``      print the ledger of published-vs-validated formulas

Exit codes: 0 success, 1 a check failed, 2 configuration or usage error.
Every number is written with 17 significant digits so the files round-trip
bit-exactly through 64-bit floats.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from .core import (TYPE1, TYPE2, PdmSystem, State, Trajectory, build_system,
                   parameter_set, total_energy)
from .eom import el1_rhs, el2_rhs
from .errors import PdmError
from .exact import (ExactSolutionSpec, exact_energy, exact_solution,
                    exact_trajectory, MISPRINTS, oscillation_period)
from .integrate import FIXED_RK4, IntegratorOptions, integrate
from .transform import map_to_reference, reference_map
from .verify import check_names, run_check, run_suite

_FMT = "%.17g"


class ConfigError(PdmError):
    """Malformed run configuration; the message names the offending key."""


def _fmt(x: float) -> str:
    return _FMT % float(x)


def _require(cfg: dict, key: str, context: str = "") -> Any:
    if key not in cfg:
        where = f" in {context}" if context else ""
        raise ConfigError(f"missing required key '{key}'{where}")
    return cfg[key]


def _number(cfg: dict, key: str, default: Any = None, context: str = "",
            kind: type = float) -> Any:
    """cfg[key] as a float (or int); required when no default is given."""
    value = _require(cfg, key, context) if default is None else cfg.get(key, default)
    name = f"{context}.{key}" if context else key
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    try:
        return kind(value)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{name} must be a number, got {value!r}") from err


def _numbers(cfg: dict, key: str, context: str, default: Any = None) -> tuple[float, ...]:
    """cfg[key] as a tuple of floats; required when no default is given."""
    value = _require(cfg, key, context) if default is None else cfg.get(key, default)
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{context}.{key} must be a list of numbers, got {value!r}")
    entries = dict(enumerate(value))
    return tuple(_number(entries, i, context=f"{context}.{key}") for i in entries)


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise ConfigError(f"cannot read config {path!r}: {err}") from err
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(
            f"config {path!r} is not valid JSON: line {err.lineno}, "
            f"column {err.colno}: {err.msg}") from err


def _build_from_config(cfg: dict) -> PdmSystem:
    family = _require(cfg, "family")
    n = _number(cfg, "n", 1, kind=int)
    params = cfg.get("params", {})
    custom = cfg.get("custom", {})
    return build_system(family, n, params,
                        mass_exprs=custom.get("mass"),
                        potential_exprs=custom.get("potential"),
                        kind=TYPE2 if custom.get("kind") == "type2" else None)


def _exact_spec_from(cfg: dict, system_cfg: dict, context: str) -> ExactSolutionSpec:
    family = _require(system_cfg, "family")
    n = _number(system_cfg, "n", 1, kind=int)
    params = parameter_set(system_cfg.get("params", {}), n)
    amplitude = _numbers(cfg, "amplitude", context)
    phase = _numbers(cfg, "phase", context, ())
    variant = cfg.get("variant", "published")
    return ExactSolutionSpec(family, params, amplitude, phase, variant)


def _initial_state(cfg: dict, system: PdmSystem) -> State:
    initial = _require(cfg, "initial")
    if "from_exact" in initial:
        spec = _exact_spec_from(initial["from_exact"], cfg, "initial.from_exact")
        t0 = _number(initial["from_exact"], "t0", 0.0, "initial.from_exact")
        return exact_solution(spec, t0)
    x = np.asarray(_numbers(initial, "x", "initial"), dtype=float)
    v = np.asarray(_numbers(initial, "v", "initial"), dtype=float)
    if len(x) != system.n or len(v) != system.n:
        raise ConfigError(f"initial.x and initial.v must have length {system.n}")
    return State(_number(initial, "t0", 0.0, "initial"), x, v)


def _integrator_options(cfg: dict) -> IntegratorOptions:
    """The integrator block; with no scheme (or null), DOP853."""
    icfg = _require(cfg, "integrator")
    t_end = _number(icfg, "t_end", context="integrator")
    scheme = icfg.get("scheme")
    if scheme in ("fixed", "fixed_rk4"):
        return IntegratorOptions(t_end=t_end, scheme=FIXED_RK4,
                                 h=_number(icfg, "h", 1e-3, "integrator"))
    if scheme not in (None, "adaptive", "dop853"):
        raise ConfigError("integrator.scheme must be dop853 (or adaptive), fixed_rk4 "
                          f"(or fixed) or left out, got {scheme!r}")
    return IntegratorOptions(
        t_end=t_end,
        rel_tol=_number(icfg, "rel_tol", 1e-10, "integrator"),
        abs_tol=_number(icfg, "abs_tol", 1e-12, "integrator"),
        h_init=_number(icfg, "h_init", 1e-3, "integrator"),
        h_min=_number(icfg, "h_min", 1e-14, "integrator"),
        h_max=_number(icfg, "h_max", math.inf, "integrator"))


def _write_table(path: str | None, fmt: str, header: list[str],
                 rows: list[list[float]], out_stream) -> None:
    if fmt == "json":
        payload = {"columns": header,
                   "rows": [[_fmt(v) for v in row] for row in rows]}
        text = json.dumps(payload, indent=1)
    else:
        lines = [",".join(header)]
        lines.extend(",".join(_fmt(v) for v in row) for row in rows)
        text = "\n".join(lines) + "\n"
    if path is None:
        out_stream.write(text)
    else:
        Path(path).write_text(text)


def _trajectory_rows(system: PdmSystem, traj: Trajectory,
                     stride: int) -> tuple[list[str], list[list[float]]]:
    n = system.n
    header = (["t"] + [f"x_{i + 1}" for i in range(n)]
              + [f"v_{i + 1}" for i in range(n)] + ["E"])
    # total_energy reads any sequences: lists spare two array copies per row
    ts, xs, vs = traj.t.tolist(), traj.x.tolist(), traj.v.tolist()
    rows = []
    for k in range(0, len(ts), stride):
        e = total_energy(system, State(ts[k], xs[k], vs[k]))
        rows.append([ts[k], *xs[k], *vs[k], e])
    return header, rows


def _output_settings(cfg: dict, args) -> tuple[str | None, str, int]:
    out = cfg.get("output", {})
    path = args.out if getattr(args, "out", None) else out.get("path")
    if path is not None and not isinstance(path, str):
        raise ConfigError(f"output.path must be a string, got {path!r}")
    fmt = out.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise ConfigError(f"output.format must be csv or json, got {fmt!r}")
    stride = _number(out, "stride", 1, "output", kind=int)
    if stride < 1:
        raise ConfigError("output.stride must be >= 1")
    return path, fmt, stride


def _cmd_simulate(args, out_stream, err_stream, mapped: bool = False) -> int:
    """Integrate the configured system; ``mapped`` (the ``map`` command)
    appends each row's (tau_i, q_i, qtilde_i) columns."""
    cfg = _load_config(args.config)
    system = _build_from_config(cfg)
    if mapped and system.kind != TYPE1:
        raise ConfigError("map needs a per-coordinate (type1) system")
    state = _initial_state(cfg, system)
    opts = _integrator_options(cfg)
    rhs = el2_rhs(system) if system.kind == TYPE2 else el1_rhs(system)
    traj = integrate(rhs, state, opts)
    image = map_to_reference(reference_map(system)[0], traj) if mapped else None
    path, fmt, stride = _output_settings(cfg, args)
    header, rows = _trajectory_rows(system, traj, stride)
    if mapped:
        n = system.n
        header += ([f"tau_{i + 1}" for i in range(n)] + [f"q_{i + 1}" for i in range(n)]
                   + [f"qt_{i + 1}" for i in range(n)])
        for j, k in enumerate(range(0, len(traj.t), stride)):
            rows[j] += [*image.tau[k], *image.q[k], *image.qtilde[k]]
    _write_table(path, fmt, header, rows, out_stream)
    if traj.termination.kind != "completed":
        err_stream.write(f"note: integration truncated: {traj.termination}\n")
    return 0


def _cmd_exact(args, out_stream, err_stream) -> int:
    cfg = _load_config(args.config)
    spec = _exact_spec_from(_require(cfg, "solution"), cfg, "solution")
    grid = cfg.get("grid", {})
    t0 = _number(grid, "t0", 0.0, "grid")
    if grid.get("periods") is not None:
        periods = _number(grid, "periods", context="grid")
        t1 = t0 + periods * float(np.max(oscillation_period(spec)))
    else:
        t1 = _number(grid, "t1", context="grid")
    samples = _number(grid, "samples", 1000, "grid", kind=int)
    system = build_system(spec.family, spec.n, spec.params)
    traj = exact_trajectory(spec, t0, t1, samples)
    path, fmt, stride = _output_settings(cfg, args)
    header, rows = _trajectory_rows(system, traj, stride)
    _write_table(path, fmt, header, rows, out_stream)
    err_stream.write(f"closed-form energy: {_fmt(exact_energy(spec))}\n")
    return 0


def _cmd_noninvariance(args, out_stream, err_stream) -> int:
    n2 = run_check("noninvariance:el2-n2", rel_tol=args.rel_tol)
    n1 = run_check("invariance:el2-n1", rel_tol=args.rel_tol)
    ok = n2.passed and n1.passed
    report = {
        "n2_max_mapped_residual": _fmt(n2.metric),
        "n1_max_mapped_residual": _fmt(n1.metric),
        "demonstrated": ok,
        "note": "a shared mass multiplier cannot be absorbed by the "
                "per-coordinate map once n >= 2",
    }
    text = json.dumps(report, indent=1)
    if args.report:
        Path(args.report).write_text(text)
    out_stream.write(text + "\n")
    return 0 if ok else 1


def _cmd_verify(args, out_stream, err_stream) -> int:
    selection = None
    if args.checks is not None:
        selection = [s for s in args.checks.split(",") if s]
        if not selection:
            raise ConfigError(f"--checks {args.checks!r} names no check")
    reports, summary = run_suite(selection, seed=args.seed, rel_tol=args.rel_tol)
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        if r.is_demonstration:
            status = "XFAIL-OK" if r.passed else "XFAIL-MISSING"
        out_stream.write(f"{status:13s} {r.name:32s} metric={r.metric:.3e} "
                         f"{r.comparison} {r.threshold:.3e}\n")
    out_stream.write(f"summary: {summary.passed} passed, "
                     f"{summary.expected_fail} expected-fail, "
                     f"{summary.failed} failed\n")
    if args.report:
        payload = {
            "summary": {"passed": summary.passed,
                        "expected_fail": summary.expected_fail,
                        "failed": summary.failed},
            "checks": [{"name": r.name, "passed": r.passed,
                        "metric": _fmt(r.metric), "threshold": _fmt(r.threshold),
                        "comparison": r.comparison, "details": r.details}
                       for r in reports],
        }
        Path(args.report).write_text(json.dumps(payload, indent=1))
    return 0 if summary.ok else 1


def _cmd_misprints(args, out_stream, err_stream) -> int:
    if args.json:
        payload = [{"id": m.identifier, "published_ref": m.published_ref,
                    "family": m.family, "printed": m.printed,
                    "validated": m.validated, "note": m.note}
                   for m in MISPRINTS]
        out_stream.write(json.dumps(payload, indent=1) + "\n")
        return 0
    for m in MISPRINTS:
        out_stream.write(f"[{m.identifier}] published relation {m.published_ref}, "
                         f"family {m.family}\n")
        out_stream.write(f"  printed:   {m.printed}\n")
        out_stream.write(f"  validated: {m.validated}\n")
        out_stream.write(f"  note:      {m.note}\n")
    return 0


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdmdyn",
        description="position-dependent-mass dynamics: simulate, map, verify")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="integrate a configured system")
    p.add_argument("--config", required=True)
    p.add_argument("--out", help="output path (defaults to config output.path or stdout)")

    p = sub.add_parser("exact", help="tabulate a closed-form solution")
    p.add_argument("--config", required=True)
    p.add_argument("--out")

    p = sub.add_parser("map", help="simulate and emit reference-frame columns")
    p.add_argument("--config", required=True)
    p.add_argument("--out")

    p = sub.add_parser("noninvariance",
                       help="run the shared-multiplier two-dimensional demonstration")
    p.add_argument("--report", help="write a JSON report here")
    p.add_argument("--rel-tol", type=float, default=1e-10, dest="rel_tol")

    p = sub.add_parser("verify", help="run verification check suites")
    p.add_argument("--suite", default="default", choices=("default", "all"))
    p.add_argument("--checks", help="comma-separated check names or prefixes")
    p.add_argument("--report", help="write a JSON report here")
    p.add_argument("--seed", type=int, default=20260810)
    p.add_argument("--rel-tol", type=float, default=None, dest="rel_tol",
                   help="override integrator tolerance in integration-backed checks")
    p.add_argument("--list", action="store_true", help="list check names and exit")

    p = sub.add_parser("misprints", help="print the published-vs-validated ledger")
    p.add_argument("--json", action="store_true")
    return parser


def run_cli(argv: Sequence[str] | None = None,
            out_stream=None, err_stream=None) -> int:
    out_stream = out_stream or sys.stdout
    err_stream = err_stream or sys.stderr
    parser = _make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return 2 if err.code not in (0, None) else 0
    try:
        if args.command == "simulate":
            return _cmd_simulate(args, out_stream, err_stream)
        if args.command == "exact":
            return _cmd_exact(args, out_stream, err_stream)
        if args.command == "map":
            return _cmd_simulate(args, out_stream, err_stream, mapped=True)
        if args.command == "noninvariance":
            return _cmd_noninvariance(args, out_stream, err_stream)
        if args.command == "verify":
            if args.list:
                for name in check_names():
                    out_stream.write(name + "\n")
                return 0
            return _cmd_verify(args, out_stream, err_stream)
        if args.command == "misprints":
            return _cmd_misprints(args, out_stream, err_stream)
        raise AssertionError(f"unreachable command {args.command}")
    except PdmError as err:
        err_stream.write(f"error: {err}\n")
        return 2
    except OSError as err:
        err_stream.write(f"i/o error: {err}\n")
        return 2


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
