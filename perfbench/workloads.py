"""Seeded op lists of the three workloads.

An op is one ``pdmdyn`` command driven in-process through ``run_cli``.  The
seed sets every generated input; the program only ever sees the configs.
Integration configs state ``rel_tol``/``abs_tol`` and leave
``integrator.scheme`` unset, so a better default scheme shows as a gain.

Importing this module imports ``pdmdyn``: the caller puts the checkout's
``src`` on ``sys.path`` first and times the import as set-up.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from pdmdyn import (TYPE2, ExactSolutionSpec, build_system, exact_energy,
                    oscillation_period, parameter_set)
from pdmdyn.verify import CASES, check_names, standard_case

WORKLOADS = ("drift", "expr", "identities")

#: the six cases of the ``energy-drift`` checks that integrate a whole orbit
DRIFT_CASES = ("ml1+", "ml1-", "morse", "sw1+", "sw2-eta-neg1", "ml2-reduction")
#: cases run through ``pdmdyn map`` rather than ``pdmdyn simulate``
DRIFT_MAPPED = ("ml1+", "sw1+")
DRIFT_PERIODS = 4
DRIFT_RTOL, DRIFT_ATOL = 1e-12, 1e-14
#: relative amplitude jitter; keeps every case inside its valid range
DRIFT_JITTER = 0.02

EXPR_T_END = 20.0
EXPR_RTOL, EXPR_ATOL = 1e-10, 1e-12
#: absolute jitter of each initial coordinate around its base state
EXPR_JITTER = 0.03

#: check-name prefixes of the ``identities`` workload (44 checks)
IDENTITY_PREFIXES = ("g-identity:", "potential-match:", "printed-eom:",
                     "mapped-exactness:", "invariance:", "profiles-derivatives",
                     "tau-closed-form:")

#: the custom type1 twin of catalog ``ml1+`` (omega 1, lambda 1, '+')
TWIN_MASS = "1/(1+x^2)"
TWIN_POTENTIAL = "0.5*x^2/(1+x^2)"
ML1_PLUS = {"omega": [1.0], "lambda": 1.0, "sign": "+"}


@dataclass
class Op:
    """One command of a workload, plus what its output check needs."""

    name: str
    command: str                  # "simulate" | "map" | "verify"
    config: dict | None = None    # run configuration (simulate/map)
    check: str | None = None      # check name (verify)
    seed: int = 0
    expect: dict = field(default_factory=dict)
    config_path: str | None = None

    def argv(self) -> list[str]:
        if self.command == "verify":
            return ["verify", "--checks", self.check, "--seed", str(self.seed)]
        return [self.command, "--config", self.config_path]

    def build(self):
        """The op's system, built through the public API as the CLI builds it."""
        cfg = self.config
        custom = cfg.get("custom", {})
        return build_system(cfg["family"], cfg.get("n", 1), cfg.get("params", {}),
                            mass_exprs=custom.get("mass"),
                            potential_exprs=custom.get("potential"),
                            kind=TYPE2 if custom.get("kind") == "type2" else None)

    def spec(self) -> ExactSolutionSpec | None:
        """Closed form of a ``from_exact`` op or of the case a check is named
        after, else None."""
        if self.command == "verify":
            case = self.check.partition(":")[2]
            return standard_case(case).spec() if case in CASES else None
        cfg = self.config
        exact = cfg["initial"].get("from_exact")
        if exact is None:
            return None
        return ExactSolutionSpec(cfg["family"], parameter_set(cfg["params"], cfg["n"]),
                                 tuple(exact["amplitude"]))


def _integrator(t_end: float, rel_tol: float, abs_tol: float) -> dict:
    return {"rel_tol": rel_tol, "abs_tol": abs_tol, "t_end": t_end}


def _drift_ops(rng: random.Random) -> list[Op]:
    ops = []
    for name in DRIFT_CASES:
        case = standard_case(name)
        amp = [a * (1.0 + rng.uniform(-DRIFT_JITTER, DRIFT_JITTER))
               for a in case.amplitude]
        cfg = {"family": case.family, "n": len(amp), "params": case.params,
               "initial": {"from_exact": {"amplitude": amp}}}
        op = Op(f"drift:{name}", "map" if name in DRIFT_MAPPED else "simulate", cfg)
        spec = op.spec()
        t_end = DRIFT_PERIODS * float(max(oscillation_period(spec)))
        cfg["integrator"] = _integrator(t_end, DRIFT_RTOL, DRIFT_ATOL)
        p = spec.params
        op.expect = {"t_end": t_end, "energy": exact_energy(spec),
                     "omega": list(p.omega),
                     "kappa": list(p.kappa) if p.kappa else None}
        ops.append(op)
    return ops


def _jitter(rng: random.Random, base: list[float]) -> list[float]:
    """A seeded state near base; small, so the work per op barely moves."""
    return [b + rng.uniform(-EXPR_JITTER, EXPR_JITTER) for b in base]


def _expr_ops(rng: random.Random) -> list[Op]:
    integ = _integrator(EXPR_T_END, EXPR_RTOL, EXPR_ATOL)
    twin_x, twin_v = _jitter(rng, [0.9]), _jitter(rng, [0.0])
    specs = [
        ("twin-ml1+", {"kind": "type1", "mass": [TWIN_MASS],
                       "potential": [TWIN_POTENTIAL]}, 1, twin_x, twin_v),
        ("type1-n2", {"kind": "type1",
                      "mass": ["1+0.5*sin(x)^2", "exp(-0.25*x^2)+0.5"],
                      "potential": ["sqrt(1+x^2)-1", "0.5*x^2+0.1*ln(1+x^2)"]},
         2, _jitter(rng, [0.5, -0.4]), _jitter(rng, [0.3, 0.2])),
        ("type2-n2", {"kind": "type2", "mass": ["1+x1^2+x2^2"]}, 2,
         _jitter(rng, [0.4, -0.3]), _jitter(rng, [0.7, 0.5])),
        ("type2-n3", {"kind": "type2", "mass": ["2+sin(x1*x2)+0.5*x3^2"],
                      "potential": ["0.5*x^2", "0.5*x^2", "0.5*x^2"]},
         3, _jitter(rng, [0.4, -0.3, 0.2]), _jitter(rng, [0.3, 0.4, -0.2])),
    ]
    ops = []
    for name, custom, n, x, v in specs:
        cfg = {"family": "custom", "n": n, "custom": custom,
               "initial": {"x": x, "v": v}, "integrator": dict(integ)}
        ops.append(Op(f"expr:{name}", "simulate", cfg, expect={"t_end": EXPR_T_END}))
    twin = ops[0]
    twin.expect["reference"] = {"family": "ml1", "n": 1, "params": ML1_PLUS,
                                "initial": {"x": twin_x, "v": twin_v},
                                "integrator": dict(integ)}
    return ops


def identity_checks() -> list[str]:
    return [n for n in check_names() if n.startswith(IDENTITY_PREFIXES)]


def identity_group(check: str) -> str:
    """The prefix a check belongs to, without its trailing colon."""
    return next(p for p in IDENTITY_PREFIXES if check.startswith(p)).rstrip(":")


def make_ops(workload: str, seed: int) -> list[Op]:
    """The workload's fixed op list for one seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "drift":
        return _drift_ops(rng)
    if workload == "expr":
        return _expr_ops(rng)
    if workload == "identities":
        return [Op(f"identities:{c}", "verify", check=c, seed=seed)
                for c in identity_checks()]
    raise ValueError(f"unknown workload {workload!r}")


def write_configs(ops: list[Op], directory: Path) -> None:
    """Write each simulate/map op's config where its argv points."""
    for k, op in enumerate(ops):
        if op.config is not None:
            path = directory / f"op{k}.json"
            path.write_text(json.dumps(op.config))
            op.config_path = str(path)
