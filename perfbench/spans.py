"""Per-layer tracing by wrapping ringscope functions from outside the package.

Only the traced run installs the wrappers.  Each wrapper records a span
(function, parent function, duration, time covered by child spans) and
folds it into an in-memory aggregate keyed by (function, parent), so
memory stays bounded however many calls a run makes.  Self time is a
span's duration minus the time its children cover; the wrappers' own
bookkeeping is charged to nobody, and shows up only in trace.overhead_s.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from contextlib import contextmanager
from time import perf_counter

# (metric prefix, module that binds the name, attribute path)
TRACED = (
    ("kernel.howell_mod", "exactla", "howell_mod"),
    ("exactla.ModMatrix.howell_form", "exactla", "ModMatrix.howell_form"),
    ("exactla.ModMatrix.solve", "exactla", "ModMatrix.solve"),
    ("exactla.solve_affine", "exactla", "solve_affine"),
    ("exactla.quotient_presentation", "exactla", "quotient_presentation"),
    ("modules.submodules", "modules", "submodules"),
    ("modules.submodule_as_module", "modules", "submodule_as_module"),
    ("modules.verify_module_axioms", "modules", "verify_module_axioms"),
    ("modules.quotient_module", "modules", "quotient_module"),
    ("modules.cyclic_span", "modules", "cyclic_span"),
    ("modules.is_isomorphic_modules", "modules", "is_isomorphic_modules"),
    ("modules.cyclic_modules_up_to_iso", "modules", "cyclic_modules_up_to_iso"),
    ("modules.enumerate_modules", "modules", "enumerate_modules"),
    ("hom.hom_group", "hom", "hom_group"),
    ("hom.is_relatively_injective", "hom", "is_relatively_injective"),
    ("hom.is_relatively_projective", "hom", "is_relatively_projective"),
    ("ideals.right_ideals", "ideals", "right_ideals"),
    ("ideals.two_sided_ideals", "ideals", "two_sided_ideals"),
    ("ideals.jacobson_radical", "ideals", "jacobson_radical"),
    ("torsion.IdealContext.colon", "torsion", "IdealContext.colon"),
    ("torsion.is_linear_filter", "torsion", "is_linear_filter"),
    ("torsion.eta_filter", "torsion", "eta_filter"),
    ("torsion.all_linear_filters", "torsion", "all_linear_filters"),
    ("lattice.build_lattice", "lattice", "build_lattice"),
    ("lattice.are_isomorphic", "lattice", "are_isomorphic"),
    ("profile.inj_fingerprint", "profile", "inj_fingerprint"),
    ("profile.proj_fingerprint", "profile", "proj_fingerprint"),
    ("profile.find_witness", "profile", "find_witness"),
    ("profile.i_profile", "profile", "i_profile"),
    ("profile.p_profile", "profile", "p_profile"),
    ("classify.verify_suite", "classify", "verify_suite"),
    ("classify.classify_report", "classify", "classify_report"),
    ("classify.is_super_qf", "classify", "is_super_qf"),
    ("ring.verify_ring_axioms", "ring", "verify_ring_axioms"),
)
NAMES = tuple(name for name, _, _ in TRACED)
REPEAT_TRACKED = ("hom.hom_group", "modules.submodule_as_module",
                  "modules.submodules")
TRUE_TRACKED = "modules.is_isomorphic_modules"
ROOT = "<operation>"


class Tracer:
    """Span aggregate plus the per-operation state the ratios need."""

    def __init__(self):
        self.active = False
        self.spans = {}            # (name, parent) -> [calls, total_s, child_s]
        self._frames = [[ROOT, 0.0]]
        self.repeats = {name: 0 for name in REPEAT_TRACKED}
        self._seen = {name: set() for name in REPEAT_TRACKED}
        self._rings = {}           # keeps rings alive so their ids stay unique
        self.iso_true = 0

    def begin_operation(self):
        """Repeats count within one operation only."""
        for seen in self._seen.values():
            seen.clear()
        self._rings.clear()

    def _module_key(self, m):
        self._rings[id(m.ring)] = m.ring
        return (id(m.ring), m.orders, tuple(a.rows for a in m.action))

    def _call_key(self, name, args):
        if name == "hom.hom_group":
            return self._module_key(args[0]), self._module_key(args[1])
        if name == "modules.submodule_as_module":
            sub = args[0]
            return self._module_key(sub.parent), sub.gens
        return (self._module_key(args[0]),) + tuple(args[1:])

    def wrap(self, name, fn):
        frames = self._frames
        spans = self.spans
        seen = self._seen.get(name)
        is_iso = name == TRUE_TRACKED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            entered = perf_counter()
            if seen is not None:
                k = self._call_key(name, args)
                if k in seen:
                    self.repeats[name] += 1
                else:
                    seen.add(k)
            parent = frames[-1]
            frame = [name, 0.0]
            frames.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                frames.pop()
                rec = spans.get((name, parent[0]))
                if rec is None:
                    rec = spans[(name, parent[0])] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += end - start
                rec[2] += frame[1]
                parent[1] += perf_counter() - entered
            if is_iso and result[0]:
                self.iso_true += 1
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every ringscope namespace that binds a traced object."""
        undo = []
        try:
            for name, module, attr in TRACED:
                undo.extend(self._install(name, module, attr))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def _install(self, name, module, attr):
        mod = importlib.import_module(f"ringscope.{module}")
        owner_path, _, leaf = attr.rpartition(".")
        owner = mod
        try:
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part)
            original = (vars(owner)[leaf] if owner_path
                        else getattr(owner, leaf))
        except (AttributeError, KeyError):
            raise LookupError(
                f"traced function {name} ({module}.{attr}) no longer exists; "
                "update perfbench/spans.py") from None
        wrapper = self.wrap(name, original)
        if owner_path:
            setattr(owner, leaf, wrapper)
            return [(owner, leaf, original)]
        undo = []
        for modname, namespace in list(sys.modules.items()):
            if modname != "ringscope" and not modname.startswith("ringscope."):
                continue
            for binding, value in list(vars(namespace).items()):
                if value is original:
                    setattr(namespace, binding, wrapper)
                    undo.append((namespace, binding, original))
        return undo

    def totals(self):
        """name -> [calls, self_s, total_s], summed over parents.  total_s
        counts nested calls of a function twice; no listed function nests
        inside itself today."""
        out = {name: [0, 0.0, 0.0] for name in NAMES}
        for (name, _), (calls, total, child) in self.spans.items():
            out[name][0] += calls
            out[name][1] += total - child
            out[name][2] += total
        return out

    def metrics(self):
        totals = self.totals()
        out = {}
        for name in NAMES:
            calls, self_s, _ = totals[name]
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.self_s"] = (self_s, "s")
        for name in REPEAT_TRACKED:
            calls = totals[name][0]
            out[f"{name}.repeat_share"] = (
                self.repeats[name] / calls if calls else 0.0, "ratio")
        calls = totals[TRUE_TRACKED][0]
        out[f"{TRUE_TRACKED}.true_share"] = (
            self.iso_true / calls if calls else 0.0, "ratio")
        return out

    def dump(self, path):
        """Write the aggregated spans once, at the end of the run."""
        rows = [{"function": name, "parent": parent, "calls": calls,
                 "total_s": total, "self_s": total - child}
                for (name, parent), (calls, total, child)
                in sorted(self.spans.items())]
        with open(path, "w") as fh:
            json.dump(rows, fh, indent=1)
