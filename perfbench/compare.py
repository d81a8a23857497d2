"""Compare two result records written by run.py to .bench_out/.

    python3 perfbench/compare.py BASE.json NEW.json

Prints each metric of both records with NEW/BASE.  Records from different
kernel backends, workloads or trace modes are refused: their numbers
measure different programs.
"""

from __future__ import annotations

import json
import sys

MUST_MATCH = ("backend", "workload", "trace")


def load(path):
    with open(path) as fh:
        return json.load(fh)


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    base, new = load(argv[0]), load(argv[1])
    for field in MUST_MATCH:
        if base["meta"][field] != new["meta"][field]:
            sys.exit(f"refused: {field} differs "
                     f"({base['meta'][field]!r} vs {new['meta'][field]!r})")
    for field in ("python", "nproc"):
        if base["meta"][field] != new["meta"][field]:
            print(f"note: {field} differs ({base['meta'][field]} vs "
                  f"{new['meta'][field]})")
    print(f"correct      {base['result']['correct']} -> "
          f"{new['result']['correct']}")
    for name, b in base["result"]["metrics"].items():
        n = new["result"]["metrics"].get(name)
        if n is None:
            print(f"{name:<44} only in BASE")
            continue
        ratio = n["value"] / b["value"] if b["value"] else float("nan")
        print(f"{name:<44} {b['value']:12.6g} {n['value']:12.6g} "
              f"{b['unit']:<6} x{ratio:.3f}")


if __name__ == "__main__":
    main(sys.argv[1:])
