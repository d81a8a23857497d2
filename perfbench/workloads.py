"""The benchmark's workloads: what each operation runs and what answer it
is checked on.  See NOTES.md for why each workload and ring is in the set.

An operation builds a fresh ring (untimed), then makes one timed call.
Caches live on ring and module objects, so a fresh ring makes every timed
call pay for them cold, as one `ringscope verify|classify|modules` run does.
"""

from __future__ import annotations

import hashlib
import json
import random

import ringscope
from ringscope.cli import load_ring
from ringscope.modules import additive_type

import recipes

# Every operation takes at most about 1.5 s, so that a run repeats each one
# many times and its figure does not hang on a few long samples.  Left out:
# quiver_f2 (verify_suite alone takes about 43 s) and m2z4 (about 5 s).
VERIFY_RINGS = ("z8", "z4xf2", "t2f2", "m2f2", "f2xy_j2", "f2xy_x2y2")
# (ring, max_order) at rank 2.  max_order is the CLI default, 64, where that
# takes at most about 1.5 s, and 8 on the rings where 64 takes 8-37 s.
# f2xy_x2y2 and m2z4 end in BoundExceededError at rank 2, and m2f2 below
# order 64 is mostly submodule enumeration, not the isomorphism search.
MODULE_RUNS = (("z8", 64), ("z4xf2", 64), ("t2f2", 8), ("f2xy_j2", 8))


def _plain(value):
    """NumPy scalars as Python numbers, so that a digest does not depend on
    which of the two the library returns."""
    return value.item()


def digest(answer) -> str:
    text = json.dumps(answer, sort_keys=True, separators=(",", ":"),
                      default=_plain)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Operation:
    """One timed call on a freshly built ring.

    `group` names the operations whose times pool into one latency figure:
    the ring itself on the corpus workloads, the right-ideal stratum on
    profile_random, where each ring runs about once per run.

    `answer` turns the call's result into JSON-able data; `extra`, when
    given, computes more data to check from a fresh ring.  It costs
    another computation, so a run makes it once per operation, after its
    timed window.
    """

    def __init__(self, label, fresh, call, answer, extra=None, group=None):
        self.label = label
        self.group = group or label
        self.fresh = fresh
        self.call = call
        self.answer = answer
        self.extra = extra

    def checked_answer(self, answer, extra):
        """The data compared with the reference: the call's answer, with
        the extra part when the operation has one."""
        out = {"answer": answer}
        if self.extra is not None:
            out["extra"] = extra
        return out


def _axiom_checked(ring):
    problem = ringscope.verify_ring_axioms(ring)
    if problem is not None:
        raise RuntimeError(f"{ring.label}: {problem}")
    return ring


def _seeded_order(items, seed):
    items = list(items)
    random.Random(seed).shuffle(items)
    return items


def _verify_answer(report):
    return {"ok": report.ok(),
            "statuses": [[e["id"], e["status"]] for e in report.entries]}


def _prepare_verify(seed):
    ops = []
    for name in _seeded_order(VERIFY_RINGS, seed):
        _axiom_checked(load_ring(name))
        ops.append(Operation(name, lambda name=name: load_ring(name),
                             ringscope.verify_suite, _verify_answer))
    return ops


def _modules_call(max_order):
    return lambda ring: ringscope.enumerate_modules(
        ring, max_free_rank=2, max_order=max_order)


def _modules_answer(mods):
    return {"count": len(mods),
            "types": sorted(list(additive_type(m.orders)) for m in mods)}


def _prepare_modules(seed):
    ops = []
    for name, max_order in _seeded_order(MODULE_RUNS, seed):
        _axiom_checked(load_ring(name))
        ops.append(Operation(f"{name}@{max_order}",
                             lambda name=name: load_ring(name),
                             _modules_call(max_order), _modules_answer))
    return ops


def _profile_flags(ring):
    out = {}
    for kind, fn in (("i", ringscope.i_profile), ("p", ringscope.p_profile)):
        rep = fn(ring)
        out[kind] = {"size": rep.size, "flags": rep.flags}
    return out


def profile_operation(recipe, group=None):
    return Operation(recipes.key(recipe), lambda: recipes.build(recipe),
                     ringscope.classify_report, lambda report: report,
                     extra=_profile_flags, group=group)


def _prepare_profile(seed):
    ops = []
    for recipe, n_ideals in recipes.draw_recipes(seed):
        _axiom_checked(recipes.build(recipe))
        ops.append(profile_operation(recipe, recipes.stratum_name(n_ideals)))
    return ops


# name -> prepare(seed) -> [Operation]; BENCHMARK.json says why each is in.
WORKLOADS = {
    "verify_corpus": _prepare_verify,
    "profile_random": _prepare_profile,
    "modules_rank2": _prepare_modules,
}
