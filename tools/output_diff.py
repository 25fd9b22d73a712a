"""Compare this checkout's CLI outputs with another checkout's, byte for byte.

    python3 tools/output_diff.py OTHER_CHECKOUT

Each checkout runs in its own fresh interpreter with its ``src`` first on
``sys.path``, through ``pdmdyn.cli.run_cli``:

* this README's JSON configs with ``simulate``, and with ``map`` where the
  family is a catalog one (``ml1``);
* for each ``verify.CASES`` case at phases 0 and 0.3, ``exact`` over 3
  periods (over t in [-0.4, 0.4] where the case's record has a branch) and
  ``simulate`` from that closed form to t = 0.3.

A run is its exit code, stdout and stderr.  Prints each run that differs
(or that only one checkout has) with the first lines where it differs, then
``N differ``; exits 1 if any differ, else 0.  ``python3 tools/output_diff.py .``
runs this checkout twice: its outputs must be deterministic.
"""

from __future__ import annotations

import argparse
import difflib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PHASES = (0.0, 0.3)


def _runs(readme: str) -> dict[str, list]:
    """Label -> [exit code, stdout, stderr] of every run, in the importing checkout."""
    from pdmdyn.cli import run_cli
    from pdmdyn.families import FAMILIES
    from pdmdyn.verify import CASES

    commands = []
    for text in re.findall(r"```json\n(.*?)```", readme, re.S):
        family = json.loads(text)["family"]
        commands.append((f"readme-{family}", "simulate", text))
        if family in FAMILIES:
            commands.append((f"readme-{family}", "map", text))
    for case in CASES.values():
        n = len(case.amplitude)
        system = {"family": case.family, "n": n, "params": case.params}
        grid = ({"t0": -0.4, "t1": 0.4} if FAMILIES[case.family].branch
                else {"periods": 3.0})
        for phase in PHASES:
            closed_form = {"amplitude": list(case.amplitude), "phase": [phase] * n,
                           "variant": case.variant}
            label = f"{case.name}@{phase}"
            commands.append((label, "exact", json.dumps(
                {**system, "solution": closed_form, "grid": grid})))
            commands.append((label, "simulate", json.dumps(
                {**system, "initial": {"from_exact": closed_form},
                 "integrator": {"t_end": 0.3}})))
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        for label, command, config in commands:
            path.write_text(config)
            stdout, stderr = io.StringIO(), io.StringIO()
            code = run_cli([command, "--config", str(path)], stdout, stderr)
            out[f"{command} {label}"] = [code, stdout.getvalue(), stderr.getvalue()]
    return out


def _worker(root: Path) -> dict[str, list]:
    """The runs of the checkout at root, in a fresh interpreter."""
    code = (f"import json, sys; sys.path.insert(0, {str(root / 'src')!r}); "
            f"sys.path.insert(0, {str(ROOT / 'tools')!r}); import output_diff; "
            f"print(json.dumps(output_diff._runs(sys.stdin.read())))")
    env = dict(os.environ, PYTHONPATH="")
    proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          input=(ROOT / "README.md").read_text(),
                          stdout=subprocess.PIPE, text=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _first_lines(before: str, after: str, limit: int = 8) -> list[str]:
    diff = difflib.unified_diff(before.splitlines(), after.splitlines(), lineterm="", n=0)
    return list(diff)[2:2 + limit]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("other", type=Path, help="the checkout to compare with")
    args = p.parse_args(argv)
    other = args.other.resolve()
    if not (other / "src" / "pdmdyn" / "__init__.py").is_file():
        p.error(f"no src/pdmdyn under {other}")
    before, after = _worker(other), _worker(ROOT)
    differ = 0
    for label in sorted(before.keys() | after.keys()):
        if label not in before or label not in after:
            print(f"{label}: only in {other if label in before else ROOT}")
        elif before[label] != after[label]:
            (code_b, *streams_b), (code_a, *streams_a) = before[label], after[label]
            print(f"{label}: exit {code_b} -> {code_a}")
            for name, b, a in zip(("stdout", "stderr"), streams_b, streams_a):
                for line in _first_lines(b, a):
                    print(f"  {name} {line}")
        else:
            continue
        differ += 1
    print(f"{differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
