"""Command-line front end.

Subcommands: ring show, classify, profile, domains, filters, modules,
verify.  Ring and module inputs are single-object JSON documents (see
docs/format.md); ring arguments may also name a bundled corpus ring.
Exit codes: 0 success, 1 check failure or refutation, 2 invalid input,
3 resource bound exceeded, 4 internal error (a failed cross-check).
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources

from .classify import classify_report, verify_suite
from .errors import (
    BoundExceededError,
    InputError,
    RingScopeError,
    TheoremViolationError,
)
from .ideals import right_ideals
from .lattice import to_dot
from .modules import (
    Submodule,
    direct_sum,
    enumerate_modules,
    factor_module,
    full_submodule,
    module_times_ideal,
    quotient_module,
    regular_module,
)
from .profile import inj_fingerprint, profile, proj_fingerprint
from .ring import FiniteRing, int_field, ring_from_spec
from .torsion import all_linear_filters


# -- file formats --------------------------------------------------------------

def _read_document(text: str, what: str, build):
    """build(doc) for the JSON document doc in text; InputError when text
    is not JSON, or nests too deeply for the decoder or for build, which
    recurse once per level."""
    try:
        return build(json.loads(text))
    except json.JSONDecodeError as exc:
        raise InputError(f"{what} file is not valid JSON: {exc}") from exc
    except RecursionError:
        raise InputError(f"{what} file is nested too deeply") from None


def parse_ring_file(text: str) -> FiniteRing:
    """The ring of a JSON ring document."""
    return _read_document(text, "ring", ring_from_spec)


def parse_module_file(text: str, ring: FiniteRing):
    """Build a right module over the given ring from a JSON document."""
    return _read_document(text, "module",
                          lambda doc: _module_from_doc(doc, ring))


# module type -> the fields its document may carry besides "type"
MODULE_FIELDS = {
    "regular": (),
    "cyclic": ("ideal_gens",),
    "quotient_of_free": ("rank", "relations"),
    "direct_sum": ("summands",),
}


def _module_from_doc(doc, ring: FiniteRing):
    """The module of a parsed module document, or of a direct_sum summand.
    Unknown types and unknown fields raise InputError."""
    if not isinstance(doc, dict) or "type" not in doc:
        raise InputError("module file needs a top-level 'type'")
    kind = doc["type"]
    if not isinstance(kind, str) or kind not in MODULE_FIELDS:
        raise InputError(f"unknown module type {kind!r}")
    for key in doc:
        if key != "type" and key not in MODULE_FIELDS[kind]:
            raise InputError(f"module type {kind!r} has no field {key!r}")
    if kind == "regular":
        return regular_module(ring)
    if kind == "cyclic":
        gens = int_field(doc, "ideal_gens", 2, "cyclic", [])
        reg = regular_module(ring)
        ideal = Submodule(reg, [ring.reduce_el(g) for g in gens])
        if not ideal.is_action_stable():
            raise InputError("cyclic module: generators do not span a right ideal")
        return factor_module(ring, ideal)[0]
    if kind == "quotient_of_free":
        rank = int_field(doc, "rank", 0, "quotient_of_free", 1)
        if rank < 1:
            raise InputError("quotient_of_free: rank must be >= 1")
        free = direct_sum([regular_module(ring)] * rank, label=f"R^{rank}")
        relations = int_field(doc, "relations", 2, "quotient_of_free", [])
        # the submodule the relations generate: their span times R
        closed = module_times_ideal(
            Submodule(free, [free.reduce_el(r) for r in relations]),
            full_submodule(regular_module(ring)))
        return quotient_module(free, closed)[0]
    summands = doc.get("summands", [])
    if not isinstance(summands, list) or not summands:
        raise InputError("direct_sum: needs a list of summands")
    return direct_sum([_module_from_doc(p, ring) for p in summands])


def corpus_names():
    root = resources.files("ringscope") / "corpus"
    return sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".ring"))


def load_corpus_text(name: str) -> str:
    path = resources.files("ringscope") / "corpus" / f"{name}.ring"
    if not path.is_file():
        raise InputError(
            f"no ring file and no corpus ring named {name!r}; "
            f"bundled: {', '.join(corpus_names())}")
    return path.read_text()


def load_ring(arg: str) -> FiniteRing:
    import os

    if os.path.exists(arg):
        with open(arg) as fh:
            text = fh.read()
    else:
        text = load_corpus_text(arg)
    return parse_ring_file(text)


# -- subcommand implementations -------------------------------------------------


def _cmd_ring_show(args, out) -> int:
    ring = load_ring(args.ring)
    print(f"label: {ring.label}", file=out)
    print(f"order: {ring.order()}", file=out)
    print(f"generator orders: {list(ring.orders)}", file=out)
    print(f"one: {list(ring.one)}", file=out)
    for i in range(ring.rank):
        row = [list(ring.mul[i][j]) for j in range(ring.rank)]
        print(f"g{i} * : {row}", file=out)
    return 0


def _cmd_classify(args, out) -> int:
    ring = load_ring(args.ring)
    report = classify_report(ring)
    if args.json:
        print(json.dumps(report, sort_keys=True), file=out)
        return 0
    for key in ("label", "order", "semisimple", "local", "chain_ring",
                "uniform", "qf", "super_qf", "i_middle_class",
                "p_middle_class", "profile_nodes", "radical_order"):
        print(f"{key}: {report[key]}", file=out)
    if report["super_qf_certificate"] is not None:
        print(f"super_qf_certificate: {report['super_qf_certificate']}",
              file=out)
    return 0


def _profile_json(rep) -> dict:
    nodes = []
    for t in range(rep.size):
        witness = rep.witnesses[t]
        nodes.append({
            "ideal": [list(r) for r in rep.ideals[t].gens.rows],
            "filter_size": len(rep.filters[t]),
            "witness": None if witness is None else witness.label,
        })
    pairs = [[a, b] for a in range(rep.size) for b in range(rep.size)
             if a != b and rep.lattice.le(a, b)]
    flags = {k: (v if not isinstance(v, list) else list(map(int, v)))
             for k, v in rep.flags.items()}
    return {"kind": rep.kind, "nodes": nodes, "order_pairs": pairs,
            "flags": flags}


def _cmd_profile(args, out) -> int:
    ring = load_ring(args.ring)
    rep = profile(ring, args.kind)
    if args.json:
        print(json.dumps(_profile_json(rep), sort_keys=True), file=out)
    else:
        print(f"{args.kind}-profile of {ring.label}: {rep.size} node(s)",
              file=out)
        shape = "chain" if rep.flags["is_chain"] else "lattice"
        print(f"shape: {shape}, length {rep.flags['length']}, "
              f"middle class: {rep.flags['has_middle_class']}", file=out)
        for t in range(rep.size):
            w = rep.witnesses[t]
            wtxt = "none found" if w is None else f"order {w.order()}"
            print(f"node {t}: ideal of order {rep.ideals[t].size()}, "
                  f"filter with {len(rep.filters[t])} ideals, "
                  f"witness {wtxt}", file=out)
    if args.dot:
        labels = [f"I{t} (|I|={rep.ideals[t].size()})" for t in range(rep.size)]
        with open(args.dot, "w") as fh:
            fh.write(to_dot(rep.lattice, labels) + "\n")
    return 0


def _cmd_domains(args, out) -> int:
    ring = load_ring(args.ring)
    with open(args.module) as fh:
        mod = parse_module_file(fh.read(), ring)
    fp = inj_fingerprint(mod) if args.kind == "i" else proj_fingerprint(mod)
    reps = fp.modules()
    print(f"{args.kind}-domain of the module (order {mod.order()}) "
          f"restricted to cyclics: {len(fp)} classes", file=out)
    for c in reps:
        print(f"  cyclic of order {c.order()}, type {list(c.orders)}",
              file=out)
    return 0


def _cmd_filters(args, out) -> int:
    ring = load_ring(args.ring)
    filters = all_linear_filters(ring, above_all_maximal=args.above_maximal)
    scope = "above all maximal right ideals" if args.above_maximal else "all"
    print(f"linear filters ({scope}): {len(filters)} "
          f"over {len(right_ideals(ring))} right ideals", file=out)
    for f in filters:
        gen = f.smallest_member()
        print(f"  filter with {len(f)} ideals, smallest member of order "
              f"{gen.size()}", file=out)
    return 0


def _cmd_modules(args, out) -> int:
    ring = load_ring(args.ring)
    mods = enumerate_modules(ring, args.max_rank, args.max_order)
    print(f"{len(mods)} isomorphism classes (rank <= {args.max_rank}, "
          f"order <= {args.max_order})", file=out)
    for m in mods:
        print(f"  order {m.order()}, additive type {list(m.orders)}", file=out)
    return 0


def _cmd_verify(args, out) -> int:
    ring = load_ring(args.ring)
    rep = verify_suite(ring, max_free_rank=args.max_rank,
                       max_order=args.max_module_order)
    for line in rep.lines():
        print(line, file=out)
    if rep.ok():
        print("all checks passed", file=out)
        return 0
    print(f"{len(rep.failed)} check(s) failed", file=out)
    return 1


def _bound(text: str) -> int:
    """A bound option's value: an integer >= 1."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"must be an integer >= 1, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringscope",
        description="Exact injectivity/projectivity profiles of finite rings")
    sub = parser.add_subparsers(dest="command", required=True)

    ring_cmd = sub.add_parser("ring", help="ring file utilities")
    ring_sub = ring_cmd.add_subparsers(dest="ring_command", required=True)
    show = ring_sub.add_parser("show", help="print the structure constants")
    show.add_argument("ring", help="ring file or corpus name")
    show.set_defaults(func=_cmd_ring_show)

    cls = sub.add_parser("classify", help="ring-level predicates")
    cls.add_argument("ring", help="ring file or corpus name")
    cls.add_argument("--json", action="store_true")
    cls.set_defaults(func=_cmd_classify)

    prof = sub.add_parser("profile", help="injectivity/projectivity profile")
    prof.add_argument("ring", help="ring file or corpus name")
    prof.add_argument("--kind", choices=("i", "p"), required=True)
    prof.add_argument("--dot", help="write the Hasse diagram to this file")
    prof.add_argument("--json", action="store_true")
    prof.set_defaults(func=_cmd_profile)

    dom = sub.add_parser("domains", help="cyclic fingerprint of a module")
    dom.add_argument("--ring", required=True)
    dom.add_argument("--module", required=True)
    dom.add_argument("--kind", choices=("i", "p"), required=True)
    dom.set_defaults(func=_cmd_domains)

    filt = sub.add_parser("filters", help="enumerate linear filters")
    filt.add_argument("ring", help="ring file or corpus name")
    filt.add_argument("--above-maximal", action="store_true")
    filt.set_defaults(func=_cmd_filters)

    mods = sub.add_parser("modules", help="enumerate module iso-classes")
    mods.add_argument("ring", help="ring file or corpus name")
    mods.add_argument("--max-rank", type=_bound, default=2)
    mods.add_argument("--max-order", type=_bound, default=64)
    mods.set_defaults(func=_cmd_modules)

    ver = sub.add_parser("verify", help="run the verification suite")
    ver.add_argument("ring", help="ring file or corpus name")
    ver.add_argument("--max-rank", type=_bound, default=1)
    ver.add_argument("--max-module-order", type=_bound, default=64)
    ver.set_defaults(func=_cmd_verify)

    return parser


def run_command(argv, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, out)
    except BoundExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except TheoremViolationError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    try:
        code = run_command(sys.argv[1:])
    except RingScopeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    sys.exit(code)


if __name__ == "__main__":
    main()
