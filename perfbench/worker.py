"""Runs one workload in its own process and prints its metrics as JSON.

    python3 perfbench/worker.py --workload drift --seed 1 --seconds 30 --trace 0
    python3 perfbench/worker.py --workload drift --seed 1 --setup-only

``run.py`` starts this; the process belongs to one workload, so its peak
resident memory is that workload's.  Set-up (importing ``pdmdyn`` and
building every op's config and system) is timed from the first line of
``main``.  Untraced, the worker repeats passes over the op list through
``pdmdyn.cli.run_cli`` while another pass fits in ``--seconds`` (at least
``MIN_PASSES``), checks every output outside the timed region and reports
a typical pass, calibrated for the machine's speed (``calibrate.py``).
Traced, each pass runs the same ops through ``run_cli`` with span shims
in place of the program's calls into its layers (see ``tracing.py``).
"""

from __future__ import annotations

import argparse
import io
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
MIN_PASSES = 3


def _parse(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def _import_pdmdyn():
    """Import pdmdyn from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import pdmdyn
    if Path(pdmdyn.__file__).resolve().parent != (src / "pdmdyn").resolve():
        raise SystemExit(f"pdmdyn imported from {pdmdyn.__file__}, not from {src}")
    return pdmdyn


def _room_for_another(start: float, done: int, seconds: float) -> bool:
    """Whether one more pass, as long as the average so far, ends in time."""
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / done <= seconds


class Runner:
    """Runs ops through run_cli, checks them and keeps the failure count."""

    def __init__(self, workload: str):
        import pdmdyn.cli
        from checks import CHECKS
        self.cli = pdmdyn.cli          # run_cli looked up per call: tracing wraps it
        self.check = CHECKS[workload]
        self.attempted = 0
        self.failed = 0

    def run(self, op) -> tuple[float, int | None, str, str]:
        """One op through run_cli: (seconds, exit code or None, stdout, stderr)."""
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            rc = self.cli.run_cli(op.argv(), out, err)
        except Exception:
            rc = None
            err.write(traceback.format_exc())
        return time.perf_counter() - t0, rc, out.getvalue(), err.getvalue()

    def run_checked(self, op) -> float:
        """Run, check and count one op; returns its run_cli seconds."""
        seconds, rc, out, err = self.run(op)
        if rc is None:
            problems = [f"raised: {err.strip().splitlines()[-1]}"]
        else:
            problems = self.check(op, rc, out, err)
        self.attempted += 1
        if problems:
            self.failed += 1
            sys.stderr.write(f"FAILED {op.name}: {'; '.join(problems)}\n")
        return seconds

    def prepare(self, ops) -> None:
        """Reference results the checks need, computed outside any timing."""
        import numpy as np
        from checks import parse_table
        from workloads import Op
        for op in ops:
            ref = op.expect.get("reference")
            if ref is None:
                continue
            path = Path(op.config_path).with_suffix(".reference.json")
            path.write_text(json.dumps(ref))
            _, rc, out, err = self.run(Op(op.name, "simulate", ref, config_path=str(path)))
            n = ref["n"]
            if rc == 0:
                op.expect["final"] = parse_table(out)[1][-1, 1:1 + 2 * n]
            else:
                op.expect["final"] = np.full(2 * n, np.nan)
                sys.stderr.write(f"reference run for {op.name} failed: {err}\n")


def _untraced(runner: Runner, ops, seconds: float) -> dict:
    """wall_s is one pass assembled from each op's median over the passes.

    Each op's time is divided by its pass's average reference step time
    (see ``calibrate.py``), so the host's slow phases cancel.  A burst of
    load that slows a few ops of one pass is dropped by the per-op median,
    where a median of whole passes would need many passes.
    """
    import calibrate             # not at the top: it must not preload numpy
    steps = calibrate.steps_per_op(len(ops))
    passes, refs = [], []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or _room_for_another(start, len(passes), seconds):
        times, kernel_us = [], []
        for op in ops:
            times.append(runner.run_checked(op))
            kernel_us.append(calibrate.step_us(steps))
        passes.append(times)
        refs.append(statistics.fmean(kernel_us))
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    scale = [calibrate.NOMINAL_STEP_US / ref for ref in refs]
    per_op = list(zip(*passes))
    return {"wall_s": sum(statistics.median(t * c for t, c in zip(runs, scale))
                          for runs in per_op),
            "raw_wall_s": sum(statistics.median(runs) for runs in per_op),
            "ref_step_us": statistics.median(refs),
            "peak_rss_mb": rss_kib / 1024.0,
            "passes": [sum(p) for p in passes]}


def _traced(runner: Runner, ops, seconds: float, workload: str, seed: int) -> dict:
    """Per-layer metrics: passes through run_cli with the span shims installed.

    Span totals are medians over the passes; trace.overhead_s is the pass's
    span and counted-call numbers times what one of each costs, measured on
    a no-op after the passes.
    """
    import tracing
    per_pass = []
    start = time.perf_counter()
    while not per_pass or _room_for_another(start, len(per_pass), seconds):
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            for k, op in enumerate(ops):
                tracer.op, tracer.spec = k, op.spec()
                runner.run_checked(op)
        m = tracing.pass_metrics(tracer.spans, ops)
        span_s = sum(s["end"] - s["start"] for s in tracer.spans if s["name"] == "integrate")
        if not math.isclose(m["integrate.self_s"] + m["integrate.rhs_s"], span_s,
                            rel_tol=1e-9, abs_tol=1e-12):
            raise SystemExit("integrate.self_s + integrate.rhs_s != integrate spans")
        per_pass.append(m)
    metrics = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    spans, counted = tracing.shim_counts(tracer.spans)
    span_cost, count_cost = tracing.shim_costs()
    metrics["trace.overhead_s"] = spans * span_cost + counted * count_cost
    for name, value in tracing.probe_span_metrics(seed).items():
        if metrics[name] == 0.0:          # the workload makes no such call
            metrics[name] = value
    metrics.update(tracing.per_call_metrics(tracing.samples(tracer.trajectories)))
    tracer.write(WORK / f"trace-{workload}-seed{seed}.jsonl")
    return {"metrics": metrics, "passes": len(per_pass), "spans": len(tracer.spans)}


def main(argv=None) -> int:
    args = _parse(argv)
    t0 = time.perf_counter()
    pdmdyn = _import_pdmdyn()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}")
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        ops = workloads.make_ops(args.workload, args.seed)
        workloads.write_configs(ops, work)
        for op in ops:
            if op.config is not None:
                op.build()
        setup_s = time.perf_counter() - t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        import numpy
        runner = Runner(args.workload)
        runner.prepare(ops)
        if args.trace:
            result = _traced(runner, ops, args.seconds, args.workload, args.seed)
        else:
            result = _untraced(runner, ops, args.seconds)
        result.update(attempted=runner.attempted, failed=runner.failed,
                      ops=len(ops), numpy=numpy.__version__,
                      python=sys.version.split()[0], pdmdyn=pdmdyn.__version__)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
