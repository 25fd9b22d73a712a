"""Output checks of every op, kept apart from the path being timed.

Each check takes an op and what ``run_cli`` produced (exit code, stdout,
stderr) and returns the list of problems it found; an empty list is a pass.
A failed check counts in ``failed_ratio`` and never aborts a run.
"""

from __future__ import annotations

import io

import numpy as np

from workloads import Op

#: the ``energy-drift`` gate: E within this of ``exact_energy``, relative
DRIFT_ENERGY_TOL = 1e-8
#: mapped columns: reference energy (q~^2 + w^2 q^2 [+ kappa/q^2])/2 within
#: this of ``exact_energy``, relative (the potentials match exactly, so the
#: reference energy equals the system's)
MAPPED_ENERGY_TOL = 1e-8
#: expression systems: E stays within this of its first row, relative
EXPR_DRIFT_TOL = 1e-8
#: the custom ml1+ twin ends within this of the catalog ml1+ run
TWIN_TOL = 1e-8
#: the integration must reach t_end to this relative precision
T_END_TOL = 1e-9


def parse_table(text: str) -> tuple[list[str], np.ndarray]:
    """Header and rows of a CSV table as written by ``simulate``/``map``."""
    header, _, body = text.partition("\n")
    rows = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    return header.split(","), rows


def _common(rc: int, err: str) -> list[str]:
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}: {err.strip()[:200]}")
    if "truncated" in err:
        problems.append(f"truncation note: {err.strip()[:200]}")
    return problems


def _table(op: Op, out: str, problems: list[str]):
    n = op.config["n"]
    want = (["t"] + [f"x_{i + 1}" for i in range(n)]
            + [f"v_{i + 1}" for i in range(n)] + ["E"])
    if op.command == "map":
        want += ([f"tau_{i + 1}" for i in range(n)] + [f"q_{i + 1}" for i in range(n)]
                 + [f"qt_{i + 1}" for i in range(n)])
    try:
        header, rows = parse_table(out)
    except ValueError as err:
        problems.append(f"unparsable table: {err}")
        return None
    if header != want or rows.shape[1] != len(want) or len(rows) < 2:
        problems.append(f"unexpected table shape {rows.shape}, header {header}")
        return None
    t_end = op.expect["t_end"]
    if abs(rows[-1, 0] - t_end) > T_END_TOL * max(1.0, abs(t_end)):
        problems.append(f"ends at t={rows[-1, 0]!r}, not t_end={t_end!r}")
    if not np.all(np.isfinite(rows)):
        problems.append("non-finite values in the table")
    return rows


def check_drift(op: Op, rc: int, out: str, err: str) -> list[str]:
    problems = _common(rc, err)
    if rc != 0:
        return problems
    rows = _table(op, out, problems)
    if rows is None:
        return problems
    n = op.config["n"]
    e0 = op.expect["energy"]
    drift = float(np.max(np.abs(rows[:, 1 + 2 * n] - e0))) / abs(e0)
    if not drift <= DRIFT_ENERGY_TOL:
        problems.append(f"E drifts {drift:.3e} from exact_energy")
    if op.command == "map":
        tau = rows[:, 2 + 2 * n:2 + 3 * n]
        q = rows[:, 2 + 3 * n:2 + 4 * n]
        qt = rows[:, 2 + 4 * n:2 + 5 * n]
        w = np.asarray(op.expect["omega"])
        e_ref = 0.5 * np.sum(qt * qt + w * w * q * q, axis=1)
        if op.expect["kappa"] is not None:
            e_ref += 0.5 * np.sum(np.asarray(op.expect["kappa"]) / (q * q), axis=1)
        ref_drift = float(np.max(np.abs(e_ref - e0))) / abs(e0)
        if not ref_drift <= MAPPED_ENERGY_TOL:
            problems.append(f"reference energy drifts {ref_drift:.3e}")
        if not np.all(np.diff(tau, axis=0) > 0.0):
            problems.append("tau is not strictly increasing")
    return problems


def check_expr(op: Op, rc: int, out: str, err: str) -> list[str]:
    problems = _common(rc, err)
    if rc != 0:
        return problems
    rows = _table(op, out, problems)
    if rows is None:
        return problems
    n = op.config["n"]
    e = rows[:, 1 + 2 * n]
    drift = float(np.max(np.abs(e - e[0]))) / abs(e[0])
    if not drift <= EXPR_DRIFT_TOL:
        problems.append(f"E drifts {drift:.3e} from its first row")
    final = op.expect.get("final")
    if final is not None:
        gap = float(np.max(np.abs(rows[-1, 1:1 + 2 * n] - final)))
        if not gap <= TWIN_TOL:
            problems.append(f"final state {gap:.3e} away from the catalog run")
    return problems


def check_verify(op: Op, rc: int, out: str, err: str) -> list[str]:
    problems = _common(rc, err)
    lines = out.splitlines()
    if len(lines) != 2:
        return problems + [f"expected one check line and a summary, got {len(lines)} lines"]
    fields = lines[0].split()
    if fields[:2] != ["PASS", op.check]:
        problems.append(f"verdict line {lines[0]!r}")
    if lines[1] != "summary: 1 passed, 0 expected-fail, 0 failed":
        problems.append(f"summary line {lines[1]!r}")
    return problems


CHECKS = {"drift": check_drift, "expr": check_expr, "identities": check_verify}
