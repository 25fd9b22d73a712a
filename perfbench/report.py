"""Runs every workload on several seeds and prints each metric by name.

    python3 perfbench/report.py --seeds 1,2,3 [--traced] [--out FILE]

Each run is one ``run.py`` invocation, one after another, on every workload
for ``run_seconds`` of BENCHMARK.json.  For every workload and end-to-end
metric it prints the median over seeds, the quartiles and their distance as
a share of the median (the spread the metric's bound must cover), and
``failed_ratio`` with its op count.  ``--traced`` adds one traced run per
workload on the first seed.  ``--out`` writes the runs and the summary as
JSON, for a recorded baseline.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def _run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(SECONDS),
                           "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"run.py {workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = json.loads(next(l for l in lines if l.startswith("env "))[4:])
    return {"env": env, "result": json.loads(lines[-1])}


def _summary(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        out[name] = {"unit": runs[0]["result"]["metrics"][name]["unit"],
                     "median": statistics.median(values), "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / statistics.median(values)}
    attempted = sum(r["result"]["attempted"] for r in runs)
    failed = sum(r["result"]["failed"] for r in runs)
    out["failed_ratio"] = {"unit": "1", "value": failed / attempted,
                           "failed": failed, "attempted": attempted}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1,2,3")
    p.add_argument("--traced", action="store_true")
    p.add_argument("--out")
    args = p.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    record = {"seconds": SECONDS, "seeds": seeds, "workloads": {}}
    for workload in WORKLOADS:
        runs = []
        for seed in seeds:
            runs.append(_run(workload, seed, 0))
            m = runs[-1]["result"]["metrics"]
            print(f"{workload:10s} seed {seed:3d}  " + "  ".join(
                f"{k} {v['value']:.4g} {v['unit']}" for k, v in m.items()), flush=True)
        summary = _summary(runs)
        for name, s in summary.items():
            if name == "failed_ratio":
                print(f"{workload:10s} {name:12s} {s['value']:.3g} {s['unit']} "
                      f"({s['failed']} of {s['attempted']} ops)")
            else:
                print(f"{workload:10s} {name:12s} median {s['median']:.4g} {s['unit']}  "
                      f"quartiles {s['q1']:.4g}..{s['q3']:.4g}  spread {s['spread']:.3f}")
        entry = {"summary": summary, "runs": runs}
        if args.traced:
            traced = _run(workload, seeds[0], 1)
            entry["traced"] = traced
            for k, v in traced["result"]["metrics"].items():
                print(f"{workload:10s} {k:32s} {v['value']:.6g} {v['unit']}")
        record["workloads"][workload] = entry
        sys.stdout.flush()
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
