"""Compare this checkout's generated expression kernels with another's on random trees.

    python3 tools/kernel_diff.py OTHER_CHECKOUT [--trees N] [--seed S]

Both packages are imported in this one process, each from its ``src`` under
a module name of its own, as ``tools/bench_step.py`` loads them.  The seeded
trees use + - * / ^, unary -, sin cos exp ln sqrt and constants among them 0,
1e999, 1e300 and 5e-324; an exponent is often an integer beyond 16 or is
built from calls and powers of constants, some of which fail (``ln(0)``,
``exp(1000)``).  Three trees in four are in ``x`` and run through
``compile_expression`` at orders 0, 1 and 2 with the seeds 0, 1 and -0.5 at
each of POINTS; the fourth is in ``x1, x2`` and runs through
``eval_gradient`` at 16 point pairs drawn from POINTS.  Each tree is also
the mass of a right-hand side on the whole real line: a tree in ``x`` of a
type1 one (``compile_rhs``), whose potential term it is too, called at each
of POINTS with each of VELOCITIES; a tree in ``x1, x2`` of a type2 one
(``compile_rhs2``) with the terms ``0.5*x^2``, called at its point pairs
with each pair of VELOCITIES.  Both checkouts' kernels are called through
their list form ``rhs(t, x, v)``, with a ``fail`` that raises its
arguments.  A generated list form calls the scalar entry ``rhs.scalar``,
the kernel the integrator's stages run, so comparing list forms across
checkouts covers that kernel; where this checkout's right-hand side
carries a scalar entry, the entry is called on the same floats too, and
must return or raise what the list form does.

An outcome is the floats a call returns (every NaN alike) or the type and
message of the error it raises.  Each outcome that differs is counted in one
class: only the sign of a zero differs; the other checkout has a NaN where
this one has a number (zero signs aside); the other raised a float overflow
and this one returns or raises another error; and the classes no change
should show: this one raises where the other returned, the other raised
(not an overflow) where this one returns or raises another error, and two
numbers differ; and, within this checkout, a scalar entry whose outcome is
not its list form's.  Prints every class's count, then ``N outcomes, M
differ``; exits 1 if any differ, else 0.  ``python3 tools/kernel_diff.py .`` compares
this checkout with itself: its kernels must be deterministic.
"""

from __future__ import annotations

import argparse
import importlib
import math
import random
import struct
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_step import ROOT, load  # noqa: E402

POINTS = (0.0, -0.0, 5e-324, 1e300, -1e300, 1e-300, math.inf, -math.inf, math.nan, 0.75, -1.5)
SEEDS = (0.0, 1.0, -0.5)
#: the velocities a right-hand side is called with
VELOCITIES = (0.75, -0.0, 1e200)
CONSTANTS = ("0", "1", "2", "0.5", "3", "1e999", "1e300", "5e-324", "1e-300", "0.1")
#: integer exponents, those beyond 16 among them (1e300 squares about 1,000 times)
INTEGERS = ("0", "1", "2", "3", "17", "20", "33", "40", "64", "100", "1e300")
#: exponents that read no variable and fold, or fail, when the kernel is generated
CONSTANT_EXPONENTS = ("sqrt(4)", "2^0.5", "ln(0)", "exp(1000)", "sin(1)", "ln(2)", "cos(0)*3",
                      "exp(2)", "sqrt(-1)", "2^2^2^2^2", "0^-20", "-(0*ln(0))", "1e300^2",
                      "sin(1e999)", "(1+1)^17", "ln(1e999-1e999)", "sqrt(0.25)*40")
CLASSES = ("zero sign", "NaN at the other, a number here", "overflow at the other, then the next",
           "raises where the other returned", "another error dropped or changed",
           "numbers differ", "scalar entry and list form differ")


def tree(rng: random.Random, names: tuple[str, ...], depth: int) -> str:
    """A random expression text over names, at most depth levels deep."""
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(names) if rng.random() < 0.55 else rng.choice(CONSTANTS)
    kind = rng.random()
    if kind < 0.1:
        return f"-({tree(rng, names, depth - 1)})"
    if kind < 0.35:
        fn = rng.choice(("sin", "cos", "exp", "ln", "sqrt"))
        return f"{fn}({tree(rng, names, depth - 1)})"
    if kind < 0.55:
        return f"({tree(rng, names, depth - 1)})^({exponent(rng, names, depth - 1)})"
    op = rng.choice("+-*/")
    return f"({tree(rng, names, depth - 1)}){op}({tree(rng, names, depth - 1)})"


def exponent(rng: random.Random, names: tuple[str, ...], depth: int) -> str:
    kind = rng.random()
    if kind < 0.4:
        k = rng.choice(INTEGERS)
        return k if rng.random() < 0.6 else f"-{k}"
    if kind < 0.75:
        return rng.choice(CONSTANT_EXPONENTS)
    if kind < 0.85:
        return rng.choice(CONSTANTS)
    return tree(rng, names, min(depth, 2))


def outcome(fn, *args) -> tuple:
    """The floats fn returns, each a bit pattern and every NaN alike, or the
    type name and message of the error it raises."""
    try:
        out = fn(*args)
    except Exception as err:
        return ("raised", type(err).__name__, str(err))
    if isinstance(out, tuple) and len(out) == 2 and isinstance(out[1], list):
        out = (out[0], *out[1])         # eval_gradient's (value, gradient)
    elif isinstance(out, list):         # a right-hand side's list form
        out = tuple(out)
    elif not isinstance(out, tuple):
        out = (out,)
    return tuple("nan" if math.isnan(f) else struct.pack("<d", f) for f in out)


def classify(other: tuple, this: tuple) -> str:
    """The class of a differing outcome (see the module's notes)."""
    if other[0] == "raised":
        return CLASSES[2] if other[2].startswith("float overflow") else CLASSES[4]
    if this[0] == "raised":
        return CLASSES[3]
    if len(other) != len(this):
        return CLASSES[5]
    nan = False
    for a, b in zip(other, this):
        if a == b:
            continue
        if a == "nan":
            nan = True
        elif b == "nan" or struct.unpack("<d", a)[0] != struct.unpack("<d", b)[0]:
            return CLASSES[5]
    return CLASSES[1] if nan else CLASSES[0]


def fail(*args):
    """A right-hand side's failed check: raises what it was handed."""
    raise RuntimeError(f"fail{args!r}")


def right_hand_side(ep, expr, names: tuple[str, ...]):
    """The tree's right-hand side on the whole real line (see the module's notes)."""
    real = (-math.inf, math.inf)
    if names == ("x",):
        return ep.compile_rhs((expr,), (expr,), (None,), real, None)(fail)
    term = ep.parse_expression("0.5*x^2")
    return ep.compile_rhs2(expr, names, (term, term), real, None)(fail)


def calls(ep, text: str, names: tuple[str, ...], pairs: list) -> tuple[list, list]:
    """The (label, outcome) of every call of the tree's kernels in one
    package's exprparse module ep, the gradient's and the right-hand side's
    at the point pairs; and, where the right-hand side has a scalar entry,
    the (label, list form's outcome, scalar entry's outcome) of each of its
    calls."""
    expr = ep.parse_expression(text, names)
    if names == ("x",):
        out = [((text, order, seed, x),
                outcome(lambda: ep.compile_expression(expr, names, order)(x, seed)))
               for order in (0, 1, 2) for seed in SEEDS for x in POINTS]
        states = [((x,), (v,)) for x in POINTS for v in VELOCITIES]
    else:
        out = [((text, "gradient", xs), outcome(ep.eval_gradient, expr, list(names), list(xs)))
               for xs in pairs]
        states = [(xs, vs) for xs in pairs for vs in zip(VELOCITIES, VELOCITIES[::-1])]
    labels = [(text, "rhs", xs, vs) for xs, vs in states]
    try:
        rhs = right_hand_side(ep, expr, names)
    except Exception as err:    # no kernel: its error is every call's outcome
        return out + [(label, ("raised", type(err).__name__, str(err))) for label in labels], []
    listed = [outcome(rhs, 0.0, list(xs), list(vs)) for xs, vs in states]
    scalar = getattr(rhs, "scalar", None)
    entries = [(label, got, outcome(scalar, 0.0, *xs, *vs))
               for label, got, (xs, vs) in zip(labels, listed, states)] if scalar else []
    return out + list(zip(labels, listed)), entries


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("other", type=Path, help="the checkout to compare with")
    p.add_argument("--trees", type=int, default=1000, help="random trees (default 1000)")
    p.add_argument("--seed", type=int, default=0, help="seed of the trees (default 0)")
    args = p.parse_args(argv)
    other = args.other.resolve()
    if not (other / "src" / "pdmdyn" / "__init__.py").is_file():
        p.error(f"no src/pdmdyn under {other}")
    modules = [importlib.import_module(f"{load(root, name).__name__}.exprparse")
               for root, name in ((other, "pdmdyn_other"), (ROOT, "pdmdyn_this"))]
    rng = random.Random(args.seed)
    counts, shown, total = Counter(), Counter(), 0
    for k in range(args.trees):
        names = ("x1", "x2") if k % 4 == 3 else ("x",)
        text = tree(rng, names, 4)
        # the gradient's point pairs, drawn once for both checkouts
        pairs = [(rng.choice(POINTS), rng.choice(POINTS))
                 for _ in range(16 if len(names) > 1 else 0)]
        (theirs, _), (ours, entries) = (calls(ep, text, names, pairs) for ep in modules)
        for label, listed, got in entries:
            total += 1
            if got != listed:
                counts[CLASSES[6]] += 1
                if shown[CLASSES[6]] < 5:
                    shown[CLASSES[6]] += 1
                    print(f"{CLASSES[6]}: {label}: {listed} -> {got}")
        for (label, a), (_, b) in zip(theirs, ours):
            total += 1
            if a != b:
                kind = classify(a, b)
                counts[kind] += 1
                if kind in CLASSES[3:] and shown[kind] < 5:
                    shown[kind] += 1
                    print(f"{kind}: {label}: {a} -> {b}")
    for kind in CLASSES:
        print(f"{kind}: {counts[kind]}")
    differ = sum(counts.values())
    print(f"{total} outcomes, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
