"""Step-level benchmark of ``integrate``: time per accepted step and per RHS call,
and of one right-hand-side, energy and closed-form call on its own.

    python3 tools/bench_step.py [--against OTHER_CHECKOUT] [--out BENCH_step.json]
    python3 tools/bench_step.py --quick --out bench-step-quick.json

Each (scheme, n), n = 1..3, integrates one fixed orbit of the catalog ``ml1``
'+' system (omega_i = 1, 1.5, 2, lambda 1) through its type1 right-hand side
``el1_rhs``: DOP853 at rel_tol 1e-12 and fixed RK4 at h = 1e-2, both to
t = 25.  The cases ``type2/n=2`` and ``type2/n=3`` integrate the type2 systems
of perfbench's ``expr`` workload, from its base states, through ``el2_rhs``
with DOP853 in the same way.  A measurement integrates each orbit once
untimed (building whatever the first call builds), then repeatedly for a
second, and reports the median run time divided by the accepted steps and
by the RHS calls (``nfev``, the initial acceleration included).  ``rhs_us``
times the right-hand side apart from ``integrate``: passes of one
right-hand-side call at each state of the orbit's trajectory, repeated for
a quarter second, give the median pass time divided by the states.
``energy_us`` times ``total_energy`` the same way: passes of one call at
each state of the orbit's trajectory, each state a list-backed ``State`` as
the CLI's rows build it.  ``kinematics_us`` (the ``ml1`` cases only) times
``kinematics`` the same way at each time of the trajectory, on the closed
form the orbit follows: amplitude x0, phase 0.  The cases ``map/ml1+``,
``map/morse`` and ``map/sw1+`` time the coordinate map of those verify
cases, in passes of one batch call over 1,000 evenly spaced points of the
case's sample box, per point: ``map_us`` for the full column set (q, dq/dx,
f, m) and ``map_q_us`` for q alone, the column ``potential_match_residual``
reads.  A checkout whose map has no column sets is timed on its one kernel
for both.

Every checkout is measured in this one process: its package is imported
from its ``src`` under a module name of its own (``pdmdyn_this``,
``pdmdyn_against``), so the comparison carries no process-to-process
difference in speed.  With ``--against``, each timing runs the two
checkouts' passes in turn, run by run, alternating which goes first, so a
change in the host's speed while it runs reaches both alike.  There are
five rounds of measurements, and the JSON keeps every round.  ``--quick``
runs one round that integrates each orbit once to t = 1: it shows that the
harness runs, and its timings mean nothing.

Writes ``--out`` (default ``BENCH_step.json``) with the environment record;
exit code 0, or non-zero when a measurement fails.
"""

from __future__ import annotations

import argparse
import datetime
import importlib.util
import inspect
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
#: the verify cases whose coordinate map map_us times, and the points per call
MAP_CASES, MAP_POINTS = ("ml1+", "morse", "sw1+"), 1_000


def _median_runs(fns: list, seconds: float) -> list[tuple[float, int]]:
    """The median time of each fn() and its number of repeats, the fns run in
    turn, the first of them in alternate turns, for ``seconds`` each (at
    least one turn): a change in the host's speed reaches every fn alike."""
    runs = [[] for _ in fns]
    stop = time.perf_counter() + seconds * len(fns)
    while not runs[0] or time.perf_counter() < stop:
        turn = list(zip(fns, runs))
        for fn, out in (turn if len(runs[0]) % 2 == 0 else turn[::-1]):
            t0 = time.perf_counter()
            fn()
            out.append(time.perf_counter() - t0)
    return [(statistics.median(out), len(out)) for out in runs]


def load(root: Path, name: str):
    """The package in root/src/pdmdyn, imported under the module name ``name``."""
    init = root / "src" / "pdmdyn" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init,
                                                  submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def _cases(pkg):
    """(case, scheme, system, rhs, initial state, closed form or None) of every orbit."""
    for scheme in SCHEMES:
        for n in DIMENSIONS:
            params = {"omega": list(OMEGA[:n]), "lambda": 1.0, "sign": "+"}
            system = pkg.build_system("ml1", n, params)
            spec = pkg.ExactSolutionSpec("ml1", pkg.parameter_set(params, n), X0[:n])
            yield (f"{scheme}/n={n}", scheme, system, pkg.el1_rhs(system),
                   pkg.State.of(0.0, X0[:n], [0.0] * n), spec)
    for n, (mass, potentials, x0, v0) in TYPE2.items():
        system = pkg.build_system("custom", n, mass_exprs=[mass], potential_exprs=potentials,
                                  kind=pkg.TYPE2)
        yield (f"type2/n={n}", "dop853", system, pkg.el2_rhs(system),
               pkg.State.of(0.0, x0, v0), None)


def _timed(pkg, scheme, system, rhs, state, spec, t_end: float) -> tuple[dict, dict]:
    """One package's case: its trajectory's counts, and the passes to time,
    each with the number of calls (or steps) it makes."""
    opts = pkg.IntegratorOptions(t_end=t_end, scheme=scheme, h=RK4_H,
                                 rel_tol=REL_TOL, abs_tol=ABS_TOL)
    traj = pkg.integrate(rhs, state, opts)
    states = list(zip(traj.t.tolist(), traj.x.tolist(), traj.v.tolist()))
    total_energy, rows = pkg.total_energy, [pkg.State(t, x, v) for t, x, v in states]
    total_energy(system, rows[0])    # untimed: the first call compiles the kernel

    def calls():
        for t, x, v in states:
            rhs(t, x, v)

    def energies():
        for row in rows:
            total_energy(system, row)
    passes = {"us_per_step": (lambda: pkg.integrate(rhs, state, opts), traj.accepted),
              "rhs_us": (calls, len(states)), "energy_us": (energies, len(rows))}
    if spec is not None:
        kinematics, times = pkg.kinematics, [t for t, _, _ in states]
        kinematics(spec, 0.0)        # untimed: the first call compiles the kernel

        def closed_forms():
            for t in times:
                kinematics(spec, t)
        passes["kinematics_us"] = (closed_forms, len(times))
    return {"accepted": traj.accepted, "nfev": traj.nfev}, passes


def _map_timed(pkg, name: str) -> tuple[dict, dict]:
    """One package's map case: the full column set's pass and q's, over
    MAP_POINTS points of the verify case's sample box; a map without column
    sets runs its one kernel in both."""
    case = pkg.standard_case(name)
    batch = pkg.reference_map(case.system())[0].batches[0]
    lo, hi = case.sample_box
    xs = [lo + (hi - lo) * k / (MAP_POINTS - 1) for k in range(MAP_POINTS)]
    q = [("q",)] if "columns" in inspect.signature(batch).parameters else []
    batch(xs)
    batch(xs, *q)    # untimed: the first calls compile the kernels
    return {}, {"map_us": (lambda: batch(xs), len(xs)),
                "map_q_us": (lambda: batch(xs, *q), len(xs))}


def _measure(packages: list, t_end: float, seconds: float) -> list[dict]:
    """Per package, per case: median microseconds per accepted step, per RHS
    call inside ``integrate``, per RHS call on its own, per total_energy call
    and (with a closed form) per kinematics call; per map case, per point of
    the map's batch call.  Each is timed for all packages at once, run by
    run in turn (``_median_runs``)."""
    out = [{} for _ in packages]
    timed = [(cases[0][0], [_timed(pkg, *case[1:], t_end) for pkg, case in zip(packages, cases)])
             for cases in zip(*map(_cases, packages))]
    timed += [(f"map/{name}", [_map_timed(pkg, name) for pkg in packages]) for name in MAP_CASES]
    for case, sides in timed:
        for key in sides[0][1]:
            timings = _median_runs([passes[key][0] for _, passes in sides],
                                   seconds if key == "us_per_step" else seconds and RHS_SECONDS)
            for (counts, passes), (median, runs) in zip(sides, timings):
                counts[key] = median / passes[key][1] * 1e6
                if key == "us_per_step":
                    counts.update(runs=runs, us_per_rhs=median / counts["nfev"] * 1e6)
        for cases_of, (counts, _) in zip(out, sides):
            cases_of[case] = counts
    return out


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


#: the timings of a case, in microseconds; kinematics_us where it has a closed
#: form, and only map_us and map_q_us for a map case
TIMINGS = ("us_per_step", "us_per_rhs", "rhs_us", "energy_us", "kinematics_us", "map_us",
           "map_q_us")


def _summary(rounds: list[dict]) -> dict:
    """Per case: the median over rounds of each round's time per step and per call."""
    return {case: {key: statistics.median(r[case][key] for r in rounds)
                   for key in TIMINGS if key in timings}
            for case, timings in rounds[0].items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--against", type=Path, help="another checkout to measure alongside")
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
    packages = [load(root, f"pdmdyn_{name}") for name, root in sides.items()]
    rounds = {name: [] for name in sides}
    for _ in range(1 if args.quick else ROUNDS):
        measured = _measure(packages, QUICK_T_END if args.quick else T_END,
                            0.0 if args.quick else SECONDS)
        for name, cases in zip(sides, measured):
            rounds[name].append(cases)
    result = {
        "harness": "tools/bench_step.py", "quick": args.quick,
        "orbits": {"family": "ml1", "sign": "+", "omega": OMEGA, "lambda": 1.0, "x0": X0,
                   "type2": {f"n={n}": {"mass": mass, "potential": potentials, "x0": x0,
                                        "v0": v0}
                             for n, (mass, potentials, x0, v0) in TYPE2.items()},
                   "t_end": QUICK_T_END if args.quick else T_END, "dop853_rel_tol": REL_TOL,
                   "dop853_abs_tol": ABS_TOL, "fixed_rk4_h": RK4_H},
        "maps": {"cases": MAP_CASES, "points": MAP_POINTS},
        "seconds_per_orbit": 0.0 if args.quick else SECONDS,
        "rhs_seconds_per_orbit": 0.0 if args.quick else RHS_SECONDS,
        "checkouts": {name: {"commit": _commit(sides[name]), "median": _summary(rs),
                             "rounds": rs} for name, rs in rounds.items()},
        "env": _environment(load_before),
    }
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    for name, side in result["checkouts"].items():
        for case, m in side["median"].items():
            if "map_us" in m:
                print(f"{name:8s} {case:14s} {m['map_us']:7.3f} us/point full map "
                      f"{m['map_q_us']:7.3f} us/point q alone")
                continue
            kinematics = (f" {m['kinematics_us']:7.3f} us/kinematics"
                          if "kinematics_us" in m else "")
            print(f"{name:8s} {case:14s} {m['us_per_step']:9.2f} us/step "
                  f"{m['us_per_rhs']:7.3f} us/rhs call {m['rhs_us']:7.3f} us/rhs alone "
                  f"{m['energy_us']:7.3f} us/energy" + kinematics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
