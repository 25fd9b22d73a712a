"""pdmdyn benchmark: one workload, one seed, metrics by name with units.

    python3 perfbench/run.py --workload drift --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Workloads (see ``workloads.py`` and ``layers.json``):

* ``drift``       six ``energy-drift`` cases through ``simulate``/``map``
* ``expr``        four expression-backed systems through ``simulate``
* ``identities``  44 ``verify --checks <name>`` ops over 10^4-point identities

One caller in a closed loop: each op starts when the previous one has ended,
and the benchmark starts no threads.  The workload runs in a worker process
of its own with BLAS pinned to one thread, so its peak memory is its own.
Op times are calibrated for the shared host's speed at the moment (see
``calibrate.py``), and so is set-up time: each of ``SETUP_RUNS`` fresh
interpreters that time the set-up is followed by one that times
``SETUP_REFERENCE``, and ``setup_s`` is the median of the set-up times each
scaled by ``NOMINAL_SETUP_REF_S`` over its reference time.  The raw times
are printed alongside.  With ``--trace 0`` the
last line carries the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of a separate traced run.  Every op's output is checked; ops that
raise, exit non-zero or fail their check are counted in ``failed``.

Exit code 0 with a result line, or non-zero without one when the benchmark
itself cannot run (for instance when ``src/pdmdyn`` is missing).
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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("drift", "expr", "identities")
#: fresh interpreters timed for setup_s, each paired with a reference
SETUP_RUNS = 9
#: set-up reference: the same kind of work as set-up (imports in a fresh
#: interpreter, numpy's among them) that never touches pdmdyn; timing the
#: calibrate.py kernel after a set-up does not track the host's speed for it
SETUP_REFERENCE = ("import time; t0 = time.perf_counter(); "
                   "import argparse, dataclasses, decimal, email.parser, fractions, json, "
                   "numpy, random, statistics, typing; "
                   "print(time.perf_counter() - t0)")
#: the reference's time on the reference machine, in seconds
NOMINAL_SETUP_REF_S = 0.14
#: the whole run must end well inside three minutes
DEADLINE_S = 170.0
#: BLAS and OpenMP pools pinned to one thread in every child
PINNED = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                                 "VECLIB_MAXIMUM_THREADS")}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER_UNITS = {name: layer["unit"] for name, layer in
                   json.loads((HERE / "layers.json").read_text())["mapping"].items()}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def _parse(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description="pdmdyn benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _child(args: list[str], deadline: float):
    """Run a Python child to completion and return its last stdout line as JSON."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a child process")
    env = dict(os.environ, **PINNED)
    try:
        proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as err:   # run() has killed and reaped it
        raise BenchError(f"{args} timed out") from err
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{args} exited {proc.returncode}")
    return json.loads(lines[-1])


def _worker(args: list[str], deadline: float) -> dict:
    return _child([str(HERE / "worker.py"), *args], deadline)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(args: argparse.Namespace) -> tuple[list[str], dict]:
    """Human-readable report lines and the result object."""
    if not (ROOT / "src" / "pdmdyn" / "__init__.py").is_file():
        raise BenchError(f"no src/pdmdyn under {ROOT}: run from a pdmdyn checkout")
    deadline = time.monotonic() + DEADLINE_S
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    load_before = os.getloadavg()
    setups = []                 # (set-up seconds, reference seconds)
    if not args.trace:
        for _ in range(SETUP_RUNS):
            setups.append((_worker(base + ["--setup-only"], deadline)["setup_s"],
                           _child(["-c", SETUP_REFERENCE], deadline)))
    res = _worker(base + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                  deadline)
    load_after = os.getloadavg()
    attempted, failed = res["attempted"], res["failed"]
    lines = [f"workload {args.workload}, seed {args.seed}: {res['ops']} ops per pass, "
             f"{res['passes'] if args.trace else len(res['passes'])} passes, "
             f"{attempted} ops attempted, {failed} failed"]
    if args.trace:
        metrics = {name: _metric(res["metrics"][name], unit)
                   for name, unit in PER_LAYER_UNITS.items()}
    else:
        setup_s = statistics.median(s * NOMINAL_SETUP_REF_S / ref for s, ref in setups)
        metrics = {"wall_s": _metric(res["wall_s"], "s"),
                   "setup_s": _metric(setup_s, "s"),
                   "peak_rss_mb": _metric(res["peak_rss_mb"], "MiB")}
        lines.append(f"  raw pass times (s): {' '.join(f'{p:.3f}' for p in res['passes'])}; "
                     f"raw wall_s {res['raw_wall_s']:.4g} s at a reference step of "
                     f"{res['ref_step_us']:.4g} us")
        lines.append("  raw set-up / reference times (s): "
                     + " ".join(f"{s:.3f}/{ref:.3f}" for s, ref in setups))
    for name, m in metrics.items():
        lines.append(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    lines.append(f"  {'failed_ratio':32s} {failed / attempted:.6g} 1 "
                 f"({failed} of {attempted} ops)")
    env = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
           "cpu": _cpu_model(), "python": res["python"], "numpy": res["numpy"],
           "loadavg_before": load_before, "loadavg_after": load_after,
           "blas_threads": 1, "ref_step_us": res.get("ref_step_us")}
    lines.append("env " + json.dumps(env))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return lines, result


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        lines, result = run(args)
    except BenchError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
