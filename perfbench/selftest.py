"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py [--seed 5]

Checks that:

* BENCHMARK.json names the metrics that ``layers.json`` and ``run.py`` report;
* every output check accepts the real output of each op and rejects a
  deliberately corrupted copy (an E column scaled by 1+1e-6, a moved final
  state, a truncation note, a non-zero exit, a flipped verdict, ...);
* ``integrate.rhs_evals``, the step counts and ``verify.checks_run`` repeat
  exactly between two traced runs on one seed, and every per-layer time of
  both runs (``cli.self_s`` and ``trace.overhead_s`` among them) is above 0;
* ``run.py`` exits non-zero without a result line where ``src/pdmdyn`` is
  missing.

Exit code 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import worker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COUNTS = ("integrate.rhs_evals", "integrate.steps_accepted",
          "integrate.steps_rejected", "verify.checks_run")


class Report:
    def __init__(self):
        self.failures = 0

    def expect(self, ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        self.failures += not ok


def _scale_column(out: str, column: str, factor: float, rows=slice(None)) -> str:
    """Copy of a CSV table with one column scaled on the selected rows."""
    lines = out.rstrip("\n").split("\n")
    j = lines[0].split(",").index(column)
    body = lines[1:]
    for k in range(len(body))[rows]:
        cells = body[k].split(",")
        cells[j] = "%.17g" % (float(cells[j]) * factor)
        body[k] = ",".join(cells)
    return "\n".join([lines[0], *body]) + "\n"


def _corruptions(op, out: str, err: str):
    """(description, rc, out, err) variants that a sound check must reject."""
    yield "exit code 1", 1, out, err
    yield "truncation note", 0, out, err + "note: integration truncated: x\n"
    if op.command == "verify":
        yield "flipped verdict", 0, out.replace("PASS", "FAIL", 1), err
        yield "failed summary", 0, out.replace("0 failed", "1 failed"), err
        yield "missing verdict", 0, out.split("\n", 1)[1], err
        return
    n = op.config["n"]
    yield "last row dropped", 0, out.rstrip("\n").rsplit("\n", 1)[0] + "\n", err
    if op.name.startswith("drift"):
        yield "E scaled by 1+1e-6", 0, _scale_column(out, "E", 1 + 1e-6), err
    else:
        yield ("last E scaled by 1+1e-6", 0,
               _scale_column(out, "E", 1 + 1e-6, slice(-1, None)), err)
    if op.command == "map":
        yield "qt_1 scaled by 1+1e-6", 0, _scale_column(out, "qt_1", 1 + 1e-6), err
    if "final" in op.expect:
        yield ("final x_1 moved by 1e-6", 0,
               _scale_column(out, "x_1", 1 + 1e-6 / abs(op.expect["final"][0]),
                             slice(-1, None)), err)
    if n > 1:
        yield "a NaN in the table", 0, _scale_column(out, "v_2", float("nan"),
                                                     slice(3, 4)), err


def check_outputs(workload: str, seed: int, report: Report) -> None:
    import workloads
    runner = worker.Runner(workload)
    ops = workloads.make_ops(workload, seed)
    with tempfile.TemporaryDirectory(dir=worker.WORK) as tmp:
        workloads.write_configs(ops, Path(tmp))
        runner.prepare(ops)
        bad_real = bad_missed = cases = 0
        for op in ops:
            _, rc, out, err = runner.run(op)
            problems = runner.check(op, rc, out, err)
            if problems:
                bad_real += 1
                print(f"     {op.name}: {problems}")
            for what, rc2, out2, err2 in _corruptions(op, out, err):
                cases += 1
                if not runner.check(op, rc2, out2, err2):
                    bad_missed += 1
                    print(f"     {op.name}: accepted corrupted output ({what})")
    report.expect(bad_real == 0, f"{workload}: all {len(ops)} real outputs accepted")
    report.expect(bad_missed == 0,
                  f"{workload}: {cases} corrupted outputs rejected")


def _run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=300)


def check_traced(workload: str, seed: int, report: Report) -> None:
    results = []
    for _ in range(2):
        proc = _run(["perfbench/run.py", "--workload", workload, "--seed", str(seed),
                     "--seconds", "1", "--trace", "1"], ROOT)
        results.append(json.loads(proc.stdout.strip().splitlines()[-1])["metrics"])
    counts = [{k: r[k]["value"] for k in COUNTS} for r in results]
    report.expect(counts[0] == counts[1],
                  f"{workload}: counts repeat across traced runs {counts[0]}")
    not_positive = sorted({k for r in results for k, m in r.items()
                           if m["unit"] in ("s", "us") and not m["value"] > 0})
    report.expect(not not_positive,
                  f"{workload}: every per-layer time is above 0 {not_positive or ''}")


def check_metric_names(report: Report) -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    import run
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    report.expect(per_layer == run.PER_LAYER_UNITS,
                  "BENCHMARK.json per_layer matches layers.json")
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    report.expect(e2e == run.END_TO_END_UNITS,
                  "BENCHMARK.json end_to_end matches run.py")
    report.expect([w["name"] for w in bench["workloads"]] == list(run.WORKLOADS),
                  "BENCHMARK.json workloads match run.py")


def check_refuses_without_program(report: Report) -> None:
    with tempfile.TemporaryDirectory(dir=worker.WORK) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run([f"{HERE.name}/run.py", "--workload", "drift", "--seed", "1",
                     "--seconds", "1", "--trace", "0"], Path(tmp))
    report.expect(proc.returncode != 0 and not proc.stdout.strip(),
                  f"refuses to run without src/pdmdyn (exit {proc.returncode})")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="self-test of the benchmark harness")
    p.add_argument("--seed", type=int, default=5)
    args = p.parse_args(argv)
    worker._import_pdmdyn()
    worker.WORK.mkdir(exist_ok=True)
    report = Report()
    check_metric_names(report)
    check_refuses_without_program(report)
    for workload in ("drift", "expr", "identities"):
        check_outputs(workload, args.seed, report)
        check_traced(workload, args.seed, report)
    print(f"self-test: {report.failures} failure(s)")
    return 1 if report.failures else 0


if __name__ == "__main__":
    sys.exit(main())
