"""Compare two ``pdmdyn verify --report`` files check by check.

    python3 tools/verify_diff.py BEFORE.json AFTER.json

Prints one line per check whose metric moved (name, before, after; the
metrics are the report's 17-digit text, so any moved bit shows) and one per
check whose details text moved (name, ``details``, before, after: the text
holds step counts, the termination and E0), then the number of checks with
either moved.  Exits 1 when the two reports name different checks or any
check's verdict (passed), threshold or comparison differs, else 0, however
many checks moved.
"""

from __future__ import annotations

import argparse
import json
import sys


def _checks(path: str) -> dict[str, dict]:
    with open(path) as fh:
        return {c["name"]: c for c in json.load(fh)["checks"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before")
    parser.add_argument("after")
    args = parser.parse_args(argv)
    before, after = _checks(args.before), _checks(args.after)
    status = 0
    for name in sorted(before.keys() ^ after.keys()):
        print(f"only in {args.before if name in before else args.after}: {name}")
        status = 1
    moved = 0
    for name in sorted(before.keys() & after.keys()):
        b, a = before[name], after[name]
        for field in ("passed", "threshold", "comparison"):
            if b[field] != a[field]:
                print(f"{field} differs: {name} {b[field]} -> {a[field]}")
                status = 1
        if b["metric"] != a["metric"]:
            print(f"{name} {b['metric']} {a['metric']}")
        if b["details"] != a["details"]:
            print(f"{name} details {b['details']!r} {a['details']!r}")
        moved += (b["metric"], b["details"]) != (a["metric"], a["details"])
    print(f"{moved} moved")
    return status


if __name__ == "__main__":
    sys.exit(main())
