"""Traced runs: spans around the program's own calls into each layer.

While a traced pass runs, ``installed(tracer)`` replaces the module
attributes that the CLI and the checks call through (``pdmdyn.cli.integrate``,
``pdmdyn.verify.integrate``, ``pdmdyn.exprparse.parse_expression``, ...)
with shims that record a span around the real call, and restores them
afterwards.  The ops still run through ``run_cli`` as in an untraced run and
nothing under ``src/`` changes, so every span times a call the program makes
itself: expression parsing nests inside the ``core.build_system`` span of the
build that asked for it, and a check's integrations nest inside its
``verify.run_suite`` span.

Spans are recorded only here: name, start, end, parent span and op id, held
in memory and written out at the end.  RHS evaluations are counted and timed
by wrapping the RHS callable the ``integrate`` shim receives before it passes
it on; their totals are kept on the ``integrate`` span, so its self time is
its duration minus ``rhs_s``.  The CLI's per-row ``total_energy`` calls are
timed the same way onto the enclosing ``cli.run`` span.

Metrics ending in ``_us`` are the time per call of one layer function on
states sampled from the trajectories the workload's own integrations
produced.  Where a workload has no system a layer applies to, the call is
timed on a fixed probe system (catalog ml1+, its custom twin, or the README
type2 system) at coordinates drawn from the same samples; the metric is then
a control that no change to the workload's own path should move.  Span
totals of layers the workload never enters (no expressions to parse, no
closed-form trajectory or map, no checks) are likewise timed once on fixed
probes, so no per-layer time is a constant zero.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

import pdmdyn.cli
import pdmdyn.exprparse
import pdmdyn.verify
from pdmdyn import (TYPE1, TYPE2, State, UnsupportedFamily, build_system,
                    el1_acceleration, el2_acceleration, eval_dual, eval_gradient,
                    exact_trajectory, f_scale, kinematics, map_to_reference,
                    oscillation_period, parse_expression, potential_gradient,
                    q_map, reference_map, total_energy)
from pdmdyn.verify import run_check, standard_case

from workloads import (IDENTITY_PREFIXES, ML1_PLUS, TWIN_MASS, TWIN_POTENTIAL,
                       identity_checks, identity_group)

#: states kept per traced trajectory for the per-call metrics
SAMPLES_PER_TRAJECTORY = 48
#: calls per timing repeat of a per-call metric, and repeats (median taken)
MICRO_CALLS = 600
MICRO_REPEATS = 3
#: calls per repeat when timing the shims themselves for trace.overhead_s
SHIM_CALLS = 20000


class Tracer:
    """In-memory span recorder, plus what the shims learn about each op."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op: int | None = None
        self.spec = None              # closed form of the current op, if any
        self.system = None            # the system built last
        #: (system, closed form, trajectory) of every integrate call
        self.trajectories: list[tuple] = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {"id": len(self.spans), "name": name, "op": self.op,
               "parent": self._stack[-1] if self._stack else None, **attrs}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")

    # --- shims: each takes the real function and returns its replacement ---

    def spanned(self, fn, name: str):
        def shim(*args, **kw):
            with self.span(name):
                return fn(*args, **kw)
        return shim

    def building(self, fn):
        def shim(*args, **kw):
            with self.span("core.build_system"):
                self.system = fn(*args, **kw)
            return self.system
        return shim

    def integrating(self, fn):
        def shim(rhs, initial, opts):
            with self.span("integrate", rhs_evals=0, rhs_s=0.0) as rec:
                traj = fn(_counted(rhs, rec), initial, opts)
                rec.update(accepted=traj.accepted, rejected=traj.rejected)
            self.trajectories.append((self.system, self.spec, traj))
            return traj
        return shim

    def mapping(self, fn):
        def shim(nmap, traj):
            with self.span("transform.map_to_reference", points=traj.x.size):
                return fn(nmap, traj)
        return shim

    def suite(self, fn):
        def shim(*args, **kw):
            with self.span("verify.run_suite") as rec:
                reports, summary = fn(*args, **kw)
                rec["checks"] = len(reports)
            return reports, summary
        return shim

    def energy(self, fn):
        """Time each call onto the innermost open span, without a span of its own."""
        clock = time.perf_counter

        def shim(*args):
            rec = self.spans[self._stack[-1]]
            t0 = clock()
            try:
                return fn(*args)
            finally:
                rec["energy_s"] = rec.get("energy_s", 0.0) + clock() - t0
                rec["energy_calls"] = rec.get("energy_calls", 0) + 1
        return shim


@contextmanager
def installed(tracer: Tracer):
    """Put the tracer's shims in place of the program's calls, then restore them."""
    cli, verify = pdmdyn.cli, pdmdyn.verify
    targets = [
        (cli, "run_cli", lambda f: tracer.spanned(f, "cli.run")),
        (pdmdyn.exprparse, "parse_expression",
         lambda f: tracer.spanned(f, "exprparse.parse")),
        (cli, "build_system", tracer.building),
        (verify, "build_system", tracer.building),
        (cli, "integrate", tracer.integrating),
        (verify, "integrate", tracer.integrating),
        (cli, "map_to_reference", tracer.mapping),
        (verify, "exact_trajectory", lambda f: tracer.spanned(f, "exact.exact_trajectory")),
        (cli, "run_suite", tracer.suite),
        (cli, "total_energy", tracer.energy),
    ]
    saved = [(module, name, getattr(module, name)) for module, name, _ in targets]
    try:
        for module, name, make in targets:
            setattr(module, name, make(getattr(module, name)))
        yield tracer
    finally:
        for module, name, fn in saved:
            setattr(module, name, fn)


def _counted(rhs, rec: dict):
    """Wrap an RHS so every call adds to rec's rhs_evals and rhs_s."""
    clock = time.perf_counter

    def wrapped(t, x, v):
        t0 = clock()
        try:
            return rhs(t, x, v)
        finally:
            rec["rhs_s"] += clock() - t0
            rec["rhs_evals"] += 1
    return wrapped


# --- span metrics -------------------------------------------------------------


def pass_metrics(spans: list[dict], ops) -> dict[str, float]:
    """Layer totals of one traced pass over ops."""
    def dur(s: dict) -> float:
        return s["end"] - s["start"]

    def total(name: str) -> float:
        return sum(dur(s) for s in spans if s["name"] == name)

    integ = [s for s in spans if s["name"] == "integrate"]
    span_s = total("integrate")
    rhs_s = sum(s["rhs_s"] for s in integ)
    evals = sum(s["rhs_evals"] for s in integ)
    accepted = sum(s["accepted"] for s in integ)
    rejected = sum(s["rejected"] for s in integ)
    self_s = span_s - rhs_s
    mapped = [s for s in spans if s["name"] == "transform.map_to_reference"]
    map_s = sum(dur(s) for s in mapped)
    points = sum(s["points"] for s in mapped)
    children_s = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            children_s[s["parent"]] += dur(s)
    runs = [s for s in spans if s["name"] == "cli.run"]
    groups = {f"verify.{identity_group(p)}_s": 0.0 for p in IDENTITY_PREFIXES}
    suites = [s for s in spans if s["name"] == "verify.run_suite"]
    for s in suites:
        groups[f"verify.{identity_group(ops[s['op']].check)}_s"] += dur(s)
    return {
        "integrate.rhs_evals": evals,
        "integrate.self_s": self_s,
        "integrate.self_us_per_eval": self_s / evals * 1e6 if evals else 0.0,
        "integrate.rhs_s": rhs_s,
        "integrate.steps_accepted": accepted,
        "integrate.steps_rejected": rejected,
        "integrate.accept_ratio":
            accepted / (accepted + rejected) if accepted + rejected else 0.0,
        "core.build_system_s": total("core.build_system"),
        "exprparse.parse_s": total("exprparse.parse"),
        "transform.map_to_reference_s": map_s,
        "transform.map_us_per_point": map_s / points * 1e6 if points else 0.0,
        "exact.exact_trajectory_s": total("exact.exact_trajectory"),
        "verify.checks_run": sum(s["checks"] for s in suites),
        **groups,
        "cli.self_s": sum(dur(s) - children_s[s["id"]] - s.get("energy_s", 0.0)
                          for s in runs),
    }


def shim_counts(spans: list[dict]) -> tuple[int, int]:
    """Spans and counted calls (RHS and total_energy) of one traced pass."""
    counted = sum(s.get("rhs_evals", 0) + s.get("energy_calls", 0) for s in spans)
    return len(spans), counted


def shim_costs() -> tuple[float, float]:
    """Seconds a span shim and a counting wrapper add to each call they wrap.

    Each is the median time per call of the shim around a no-op, minus that
    of the bare no-op, over SHIM_CALLS calls in each of MICRO_REPEATS repeats.
    """
    def noop(t, x, v):
        return None

    def per_call(make) -> float:
        times = []
        for _ in range(MICRO_REPEATS):
            fn = make()
            t0 = time.perf_counter()
            for _ in range(SHIM_CALLS):
                fn(0.0, None, None)
            times.append((time.perf_counter() - t0) / SHIM_CALLS)
        return statistics.median(times)

    bare = per_call(lambda: noop)
    span = per_call(lambda: Tracer().spanned(noop, "probe")) - bare
    count = per_call(lambda: _counted(noop, {"rhs_evals": 0, "rhs_s": 0.0})) - bare
    return span, count


def probe_span_metrics(seed: int) -> dict[str, float]:
    """Span totals on fixed probes, for layers a workload never enters.

    The probes: parsing the ml1+ twin's expressions; the ml1+ closed form
    over one period at 4001 points and its map; the first check of each
    ``identities`` group.
    """
    clock = time.perf_counter
    out = {}
    t0 = clock()
    for text in (TWIN_MASS, TWIN_POTENTIAL):
        parse_expression(text, ["x"])
    out["exprparse.parse_s"] = clock() - t0
    case = standard_case("ml1+")
    spec = case.spec()
    t0 = clock()
    traj = exact_trajectory(spec, 0.0, float(max(oscillation_period(spec))), 4001)
    out["exact.exact_trajectory_s"] = clock() - t0
    t0 = clock()
    map_to_reference(reference_map(case.system())[0], traj)
    out["transform.map_to_reference_s"] = clock() - t0
    out["transform.map_us_per_point"] = out["transform.map_to_reference_s"] / traj.x.size * 1e6
    checks = identity_checks()
    for prefix in IDENTITY_PREFIXES:
        name = next(c for c in checks if c.startswith(prefix))
        t0 = clock()
        run_check(name, seed=seed)
        out[f"verify.{identity_group(name)}_s"] = clock() - t0
    return out


# --- per-call metrics -------------------------------------------------------


@dataclass
class Sample:
    """One state of a traced trajectory and what it belongs to."""

    system: object
    state: State
    spec: object = None       # closed form, when the trajectory has one
    nmap: object = None       # nonlocal map, when the family has one


def samples(trajectories: list[tuple]) -> list[Sample]:
    """Evenly spaced states of each (system, closed form, trajectory)."""
    out = []
    for system, spec, traj in trajectories:
        try:
            nmap = reference_map(system)[0] if system.kind == TYPE1 else None
        except UnsupportedFamily:          # custom families have no map
            nmap = None
        picks = np.linspace(0, len(traj.t) - 1, SAMPLES_PER_TRAJECTORY).astype(int)
        out.extend(Sample(system, traj.state(int(k)), spec, nmap) for k in picks)
    return out


def _per_call_us(fn, args: list) -> float:
    """Median over repeats of the time per call of fn(*a) for a in args."""
    reps = max(1, MICRO_CALLS // len(args))
    work = args * reps
    clock = time.perf_counter
    times = []
    for _ in range(MICRO_REPEATS):
        t0 = clock()
        for a in work:
            fn(*a)
        times.append((clock() - t0) / len(work))
    return statistics.median(times) * 1e6


def _probe_systems():
    ml1 = build_system("ml1", 1, ML1_PLUS)
    twin = build_system("custom", 1, mass_exprs=[TWIN_MASS],
                        potential_exprs=[TWIN_POTENTIAL])
    type2 = build_system("custom", 2, mass_exprs=["1+x1^2+x2^2"], kind=TYPE2)
    return ml1, twin, type2


def per_call_metrics(samples: list[Sample]) -> dict[str, float]:
    """Every ``*_us`` metric, on the workload's samples or the probes."""
    ml1, twin, type2 = _probe_systems()
    ml1_spec = standard_case("ml1+").spec()
    coords = [(s.state.t, float(s.state.x[0]), float(s.state.v[0])) for s in samples]
    probe1 = [State.of(t, [x], [v]) for t, x, v in coords]
    probe2 = [State.of(t, [x, coords[k - 1][1]], [v, coords[k - 1][2]])
              for k, (t, x, v) in enumerate(coords)]

    type1 = [s for s in samples if s.system.kind == TYPE1]
    type2s = [s for s in samples if s.system.kind == TYPE2]
    custom1 = [s for s in type1 if s.system.potential.family == "custom"]
    mapped = [s for s in type1 if s.nmap is not None]
    exact = [s for s in samples if s.spec is not None]

    el1 = [(s.system, s.state) for s in type1] or [(ml1, st) for st in probe1]
    el2 = [(s.system, s.state) for s in type2s] or [(type2, st) for st in probe2]
    prof = ([(s.system.profiles[i], float(s.state.x[i]))
             for s in type1 for i in range(s.system.n)]
            or [(ml1.profiles[0], float(st.x[0])) for st in probe1])
    coupled = ([(s.system.coupled_profile, s.state.x) for s in type2s]
               or [(type2.coupled_profile, st.x) for st in probe2])
    dual = ([(e, float(s.state.x[i])) for s in custom1 for i in range(s.system.n)
             for e in (s.system.profiles[i].expr, s.system.potential.exprs[i])]
            or [(e, float(st.x[0])) for st in probe1
                for e in (twin.profiles[0].expr, twin.potential.exprs[0])])
    grad = ([(s.system.coupled_profile.expr, s.system.coupled_profile.names, s.state.x)
             for s in type2s]
            or [(type2.coupled_profile.expr, type2.coupled_profile.names, st.x)
                for st in probe2])
    maps = ([(s.nmap, i, float(s.state.x[i])) for s in mapped for i in range(s.system.n)]
            or [(reference_map(ml1)[0], 0, float(st.x[0])) for st in probe1])
    kin = [(s.spec, s.state.t) for s in exact] or [(ml1_spec, st.t) for st in probe1]
    every = [(s.system, s.state) for s in samples]

    return {
        "eom.el1_us": _per_call_us(el1_acceleration, el1),
        "eom.el2_us": _per_call_us(el2_acceleration, el2),
        "core.potential_gradient_us":
            _per_call_us(lambda s, st: potential_gradient(s, st.x), every),
        "core.total_energy_us": _per_call_us(total_energy, every),
        "profiles.eval_us": _per_call_us(lambda p, x: p.eval(x), prof),
        "profiles.coupled_grad_us":
            _per_call_us(lambda p, x: p.value_and_gradient(x), coupled),
        "exprparse.eval_dual_us": _per_call_us(eval_dual, dual),
        "exprparse.eval_gradient_us": _per_call_us(eval_gradient, grad),
        "transform.q_map_us": _per_call_us(q_map, maps),
        "transform.f_scale_us": _per_call_us(f_scale, maps),
        "exact.kinematics_us": _per_call_us(kinematics, kin),
    }
