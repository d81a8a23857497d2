"""Regenerate reference.json: the answer digest of every operation that any
seed can produce, computed with the ringscope in src/.

    python3 perfbench/make_reference.py

Run from the root of a checkout.  Regenerate only when an answer is meant
to change; a speed-up must leave every digest as it is.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(Path.cwd() / "src"))

import recipes  # noqa: E402
import workloads  # noqa: E402


def reference_of(op):
    ring = op.fresh()
    result = op.call(ring)
    extra = op.extra(op.fresh()) if op.extra else None
    answer = op.checked_answer(op.answer(result), extra)
    if answer["answer"].get("ok") is False:
        raise SystemExit(f"{op.label}: verify_suite report is not ok")
    return workloads.digest(answer)


def main():
    out = {}
    for name in ("verify_corpus", "modules_rank2"):
        ops = workloads.WORKLOADS[name](0)
        out[name] = {op.label: reference_of(op)
                     for op in sorted(ops, key=lambda op: op.label)}
    out["profile_random"] = {}
    for recipe in recipes.all_recipes():
        if recipes.screen(recipe) is not None:
            op = workloads.profile_operation(recipe)
            out["profile_random"][op.label] = reference_of(op)
            print(len(out["profile_random"]), op.label, flush=True)
    with open(HERE / "reference.json", "w") as fh:
        json.dump(out, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
