"""Check-level benchmark of the identity checks: time per check, summed per group.

    python3 tools/bench_identities.py [--against OTHER_CHECKOUT] [--out BENCH_identities.json]
    python3 tools/bench_identities.py --quick --out bench-identities-quick.json

The checks are the 44 ``verify`` checks of the seven identity groups
(``g-identity``, ``potential-match``, ``printed-eom``, ``mapped-exactness``,
``invariance``, ``profiles-derivatives``, ``tau-closed-form``), each run
through ``run_check`` at seed 1.  Every checkout is measured in this one
process, its package imported from its ``src`` under a module name of its
own, as ``bench_step.py`` does.  A measurement runs each check once untimed
(compiling whatever the first run compiles), then repeatedly for a quarter
second, and reports the median run time of every check and, per group, the
sum of its checks' medians.  With ``--against``, each check's runs
alternate between the two checkouts, run by run, so a change in the host's
speed reaches both alike.  There are five rounds of measurements, and the
JSON keeps every round.  ``--quick`` runs one round that times each check
once: it shows that the harness runs, and its timings mean nothing.

Writes ``--out`` (default ``BENCH_identities.json``) with the environment
record; exit code 0, or non-zero when a measurement fails.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import statistics
import sys
from pathlib import Path

from bench_step import _commit, _environment, _median_runs, load

ROOT = Path(__file__).resolve().parents[1]
GROUPS = ("g-identity", "potential-match", "printed-eom", "mapped-exactness",
          "invariance", "profiles-derivatives", "tau-closed-form")
SEED = 1
ROUNDS, SECONDS = 5, 0.25


def _group(check: str) -> str | None:
    return next((g for g in GROUPS if check == g or check.startswith(g + ":")), None)


def _measure(packages: list, seconds: float) -> list[dict]:
    """Per package, per check: its group, verdict and median seconds per run."""
    out = [{} for _ in packages]
    for name in packages[0].check_names():
        group = _group(name)
        if group is None:
            continue
        reports = [pkg.run_check(name, SEED) for pkg in packages]
        timings = _median_runs([functools.partial(pkg.run_check, name, SEED)
                                for pkg in packages], seconds)
        for checks, report, (median, runs) in zip(out, reports, timings):
            checks[name] = {"group": group, "passed": report.passed, "s": median, "runs": runs}
    return out


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
    p.add_argument("--against", type=Path, help="another checkout to measure alongside")
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
    packages = [load(root, f"pdmdyn_{name}") for name, root in sides.items()]
    rounds = {name: [] for name in sides}
    for _ in range(1 if args.quick else ROUNDS):
        for name, checks in zip(sides, _measure(packages, 0.0 if args.quick else SECONDS)):
            rounds[name].append(checks)
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
