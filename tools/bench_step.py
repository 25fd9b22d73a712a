"""Step-level benchmark of ``integrate``: time per accepted step and per RHS call,
and of one right-hand-side call on its own.

    python3 tools/bench_step.py [--against OTHER_CHECKOUT] [--out BENCH_step.json]
    python3 tools/bench_step.py --quick --out bench-step-quick.json

Each (scheme, n), n = 1..3, integrates one fixed orbit of the catalog ``ml1``
'+' system (omega_i = 1, 1.5, 2, lambda 1) through its type1 right-hand side
``el1_rhs``: DOP853 at rel_tol 1e-12 and fixed RK4 at h = 1e-2, both to
t = 25.  The cases ``type2/n=2`` and ``type2/n=3`` integrate the type2 systems
of perfbench's ``expr`` workload, from its base states, through ``el2_rhs``
with DOP853 in the same way.  A measurement runs in a fresh interpreter that imports ``pdmdyn``
from the checkout's ``src``; it integrates each orbit once untimed (building
whatever the first call builds), then repeatedly for a second, and reports
the median run time divided by the accepted steps and by the RHS calls
(``nfev``, the initial acceleration included).  ``rhs_us`` times the
right-hand side apart from ``integrate``: passes of one right-hand-side call at
each state of the orbit's trajectory, repeated for a quarter second, give
the median pass time divided by the states.  ``energy_us`` times
``total_energy`` the same way: passes of one call at each state of the
orbit's trajectory, each state a list-backed ``State`` as the CLI's rows
build it.  There are five rounds of
measurements; with ``--against``, each round measures both checkouts,
alternating which goes first, and the JSON keeps every round.  ``--quick``
runs one round that integrates each orbit once to t = 1: it shows that the
harness runs, and its timings mean nothing.

Writes ``--out`` (default ``BENCH_step.json``) with the environment record;
exit code 0, or non-zero when a measurement fails.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCHEMES = ("dop853", "fixed_rk4")
DIMENSIONS = (1, 2, 3)
OMEGA, X0 = (1.0, 1.5, 2.0), (0.5, -0.4, 0.3)
T_END, QUICK_T_END = 25.0, 1.0
REL_TOL, ABS_TOL, RK4_H = 1e-12, 1e-14, 1e-2
ROUNDS, SECONDS, RHS_SECONDS = 5, 1.0, 0.25
#: perfbench's expr type2 systems by n: the shared mass, the potential terms
#: (None: force-free) and the base state (x0, v0)
TYPE2 = {2: ("1+x1^2+x2^2", None, (0.4, -0.3), (0.7, 0.5)),
         3: ("2+sin(x1*x2)+0.5*x3^2", ["0.5*x^2"] * 3, (0.4, -0.3, 0.2), (0.3, 0.4, -0.2))}


def _median_run(fn, seconds: float) -> tuple[float, int]:
    """The median time of fn() over its repeats for ``seconds`` (at least one
    repeat), and the number of repeats."""
    runs = []
    stop = time.perf_counter() + seconds
    while not runs or time.perf_counter() < stop:
        t0 = time.perf_counter()
        fn()
        runs.append(time.perf_counter() - t0)
    return statistics.median(runs), len(runs)


def _cases():
    """(case, scheme, system, rhs, initial state) of every orbit."""
    from pdmdyn import TYPE2 as KIND2, State, build_system, el1_rhs, el2_rhs

    for scheme in SCHEMES:
        for n in DIMENSIONS:
            system = build_system("ml1", n, {"omega": list(OMEGA[:n]), "lambda": 1.0,
                                             "sign": "+"})
            yield (f"{scheme}/n={n}", scheme, system, el1_rhs(system),
                   State.of(0.0, X0[:n], [0.0] * n))
    for n, (mass, potentials, x0, v0) in TYPE2.items():
        system = build_system("custom", n, mass_exprs=[mass], potential_exprs=potentials,
                              kind=KIND2)
        yield f"type2/n={n}", "dop853", system, el2_rhs(system), State.of(0.0, x0, v0)


def _measure(t_end: float, seconds: float) -> dict:
    """Per case: median microseconds per accepted step, per RHS call inside
    ``integrate``, per RHS call on its own and per total_energy call."""
    from pdmdyn import IntegratorOptions, State, integrate, total_energy

    out = {}
    for case, scheme, system, rhs, state in _cases():
        opts = IntegratorOptions(t_end=t_end, scheme=scheme, h=RK4_H,
                                 rel_tol=REL_TOL, abs_tol=ABS_TOL)
        traj = integrate(rhs, state, opts)
        s, runs = _median_run(lambda: integrate(rhs, state, opts), seconds)
        states = list(zip(traj.t.tolist(), traj.x.tolist(), traj.v.tolist()))

        def calls():
            for t, x, v in states:
                rhs(t, x, v)
        r, _ = _median_run(calls, seconds and RHS_SECONDS)
        rows = [State(t, x, v) for t, x, v in states]
        total_energy(system, rows[0])    # untimed: the first call compiles the kernel

        def energies():
            for row in rows:
                total_energy(system, row)
        e, _ = _median_run(energies, seconds and RHS_SECONDS)
        out[case] = {"us_per_step": s / traj.accepted * 1e6,
                     "us_per_rhs": s / traj.nfev * 1e6,
                     "rhs_us": r / len(states) * 1e6,
                     "energy_us": e / len(rows) * 1e6,
                     "accepted": traj.accepted, "nfev": traj.nfev, "runs": runs}
    return out


def _worker(root: Path, quick: bool) -> dict:
    """Run one measurement of the checkout at root in a fresh interpreter."""
    code = (f"import json, sys; sys.path.insert(0, {str(root / 'src')!r}); "
            f"sys.path.insert(0, {str(ROOT / 'tools')!r}); import bench_step; "
            f"print(json.dumps(bench_step._measure({QUICK_T_END if quick else T_END!r}, "
            f"{0.0 if quick else SECONDS!r})))")
    env = dict(os.environ, PYTHONPATH="")
    proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          stdout=subprocess.PIPE, text=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _commit(root: Path) -> str | None:
    """The checkout's short commit, marked +dirty when it has changes; None
    outside git."""
    try:
        head = subprocess.run(["git", "-C", str(root), "rev-parse", "--short", "HEAD"],
                              capture_output=True, text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "-C", str(root), "status", "--porcelain", "--",
                                "src"], capture_output=True, text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return None
    return head + ("+dirty" if dirty.strip() else "")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _environment(load_before: tuple) -> dict:
    """The machine and interpreter a run measured, with the load around it."""
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "machine": platform.machine(), "cpu": _cpu_model(),
            "nproc": len(os.sched_getaffinity(0)), "loadavg_before": load_before,
            "loadavg_after": os.getloadavg(),
            "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")}


def _summary(rounds: list[dict]) -> dict:
    """Per case: the median over rounds of each round's time per step and per call."""
    return {case: {key: statistics.median(r[case][key] for r in rounds)
                   for key in ("us_per_step", "us_per_rhs", "rhs_us", "energy_us")}
            for case in rounds[0]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--against", type=Path, help="another checkout to measure in turn")
    p.add_argument("--quick", action="store_true", help="one short run per orbit")
    p.add_argument("--out", type=Path, default=Path("BENCH_step.json"))
    args = p.parse_args(argv)
    sides = {"this": ROOT}
    if args.against is not None:
        sides["against"] = args.against.resolve()
    for root in sides.values():
        if not (root / "src" / "pdmdyn" / "__init__.py").is_file():
            p.error(f"no src/pdmdyn under {root}")

    load_before = os.getloadavg()
    rounds = {name: [] for name in sides}
    for k in range(1 if args.quick else ROUNDS):
        for name in (list(sides) if k % 2 == 0 else list(sides)[::-1]):
            rounds[name].append(_worker(sides[name], args.quick))
    result = {
        "harness": "tools/bench_step.py", "quick": args.quick,
        "orbits": {"family": "ml1", "sign": "+", "omega": OMEGA, "lambda": 1.0, "x0": X0,
                   "type2": {f"n={n}": {"mass": mass, "potential": potentials, "x0": x0,
                                        "v0": v0}
                             for n, (mass, potentials, x0, v0) in TYPE2.items()},
                   "t_end": QUICK_T_END if args.quick else T_END, "dop853_rel_tol": REL_TOL,
                   "dop853_abs_tol": ABS_TOL, "fixed_rk4_h": RK4_H},
        "seconds_per_orbit": 0.0 if args.quick else SECONDS,
        "rhs_seconds_per_orbit": 0.0 if args.quick else RHS_SECONDS,
        "checkouts": {name: {"commit": _commit(sides[name]), "median": _summary(rs),
                             "rounds": rs} for name, rs in rounds.items()},
        "env": _environment(load_before),
    }
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    for name, side in result["checkouts"].items():
        for case, m in side["median"].items():
            print(f"{name:8s} {case:14s} {m['us_per_step']:9.2f} us/step "
                  f"{m['us_per_rhs']:7.3f} us/rhs call {m['rhs_us']:7.3f} us/rhs alone "
                  f"{m['energy_us']:7.3f} us/energy")
    return 0


if __name__ == "__main__":
    sys.exit(main())
