"""Check-level benchmark of the identity checks: time per check, summed per group.

    python3 tools/bench_identities.py [--against OTHER_CHECKOUT] [--out BENCH_identities.json]
    python3 tools/bench_identities.py --quick --out bench-identities-quick.json

The checks are the 44 ``verify`` checks of the seven identity groups
(``g-identity``, ``potential-match``, ``printed-eom``, ``mapped-exactness``,
``invariance``, ``profiles-derivatives``, ``tau-closed-form``), each run
through ``pdmdyn.verify.run_check`` at seed 1.  A measurement runs in a
fresh interpreter that imports ``pdmdyn`` from the checkout's ``src``; it
runs each check once untimed (compiling whatever the first run compiles),
then repeatedly for a quarter second, and reports the median run time of
every check and, per group, the sum of its checks' medians.  There are five
rounds of measurements; with ``--against``, each round measures both
checkouts, alternating which goes first, and the JSON keeps every round.
``--quick`` runs one round that times each check once: it shows that the
harness runs, and its timings mean nothing.

Writes ``--out`` (default ``BENCH_identities.json``) with the environment
record; exit code 0, or non-zero when a measurement fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from bench_step import _commit, _environment

ROOT = Path(__file__).resolve().parents[1]
GROUPS = ("g-identity", "potential-match", "printed-eom", "mapped-exactness",
          "invariance", "profiles-derivatives", "tau-closed-form")
SEED = 1
ROUNDS, SECONDS = 5, 0.25


def _group(check: str) -> str | None:
    return next((g for g in GROUPS if check == g or check.startswith(g + ":")), None)


def _measure(seconds: float) -> dict:
    """Per check: its group, verdict and median seconds per run."""
    from pdmdyn.verify import check_names, run_check

    out = {}
    for name in check_names():
        group = _group(name)
        if group is None:
            continue
        report = run_check(name, SEED)
        runs = []
        stop = time.perf_counter() + seconds
        while not runs or time.perf_counter() < stop:
            t0 = time.perf_counter()
            run_check(name, SEED)
            runs.append(time.perf_counter() - t0)
        out[name] = {"group": group, "passed": report.passed,
                     "s": statistics.median(runs), "runs": len(runs)}
    return out


def _worker(root: Path, quick: bool) -> dict:
    """Run one measurement of the checkout at root in a fresh interpreter."""
    code = (f"import json, sys; sys.path.insert(0, {str(root / 'src')!r}); "
            f"sys.path.insert(0, {str(ROOT / 'tools')!r}); import bench_identities; "
            f"print(json.dumps(bench_identities._measure({0.0 if quick else SECONDS!r})))")
    env = dict(os.environ, PYTHONPATH="")
    proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          stdout=subprocess.PIPE, text=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _groups(checks: dict) -> dict:
    """Per group: the sum of its checks' median seconds."""
    return {g: sum(c["s"] for c in checks.values() if c["group"] == g) for g in GROUPS}


def _summary(rounds: list[dict]) -> dict:
    """Per group and in total: the median over rounds of each round's sum."""
    sums = [_groups(r) for r in rounds]
    out = {g: statistics.median(s[g] for s in sums) for g in GROUPS}
    out["total"] = statistics.median(sum(s.values()) for s in sums)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--against", type=Path, help="another checkout to measure in turn")
    p.add_argument("--quick", action="store_true", help="one timed run per check")
    p.add_argument("--out", type=Path, default=Path("BENCH_identities.json"))
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
        "harness": "tools/bench_identities.py", "quick": args.quick, "seed": SEED,
        "seconds_per_check": 0.0 if args.quick else SECONDS,
        "checkouts": {name: {"commit": _commit(sides[name]), "median_s": _summary(rs),
                             "rounds": rs} for name, rs in rounds.items()},
        "env": _environment(load_before),
    }
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    for name, side in result["checkouts"].items():
        for group, s in side["median_s"].items():
            print(f"{name:8s} {group:22s} {s * 1e3:9.1f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
