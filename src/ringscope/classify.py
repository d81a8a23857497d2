"""Ring-level predicates and the cross-module verification suite.

The suite (V1..V16) re-derives the structure theorems that the profile
machinery relies on, each by an independent route, and reports
pass/fail/skipped per check.  A failure is either a bug or a genuine
counterexample; both must surface identically.
"""

from __future__ import annotations

import itertools

from .errors import BoundExceededError
from .hom import is_injective, is_quasi, is_relatively_injective
from .ideals import (
    jacobson_radical,
    maximal_right_ideals,
    minimal_right_ideals,
    right_ideal_lattice,
    two_sided_ideals,
)
from .lattice import are_isomorphic, build_lattice
from .modules import (
    cyclic_modules_up_to_iso,
    direct_sum,
    enumerate_modules,
    factor_module,
    full_submodule,
    is_isomorphic_modules,
    minimal_submodules,
    module_times_ideal,
    regular_module,
    socle,
    socle_series,
    submodule_as_module,
)
from .profile import (
    i_profile,
    inj_fingerprint,
    is_poor,
    killed_by,
    p_profile,
    proj_fingerprint,
)
from .ring import FiniteRing
from .torsion import all_linear_filters, check_filter_guard, eta_filter


def is_semisimple_ring(ring: FiniteRing) -> bool:
    return jacobson_radical(ring).size() == 1


def is_local(ring: FiniteRing) -> bool:
    """Exactly one maximal right ideal (the zero ring has none)."""
    return len(maximal_right_ideals(ring)) == 1


def is_chain_ring(ring: FiniteRing) -> bool:
    return right_ideal_lattice(ring).is_chain()


def is_uniform_ring(ring: FiniteRing) -> bool:
    """Every two nonzero right ideals intersect nontrivially; it suffices
    to test the minimal ones."""
    atoms = minimal_right_ideals(ring)
    return len(atoms) <= 1


def is_qf(ring: FiniteRing) -> bool:
    """Self-injectivity of the regular module (finite rings are
    noetherian).  R is injective iff it is R-injective (Baer's test), and
    R ≅ R/0 is a cyclic class, so R is QF iff its injectivity fingerprint,
    memoised on the ring, holds every cyclic class."""
    fp = inj_fingerprint(regular_module(ring))
    return len(fp) == len(cyclic_modules_up_to_iso(ring))


def is_super_qf(ring: FiniteRing):
    """(flag, certificate): certificate is a two-sided ideal with non-QF
    factor ring when the answer is negative.

    Modules over R/I are the R-modules killed by I, with the same maps
    and submodules, so R/I is QF (self-injective by Baer's test) iff the
    R-module R/I is quasi-injective.  An I ⊇ J is skipped: R/I is then a
    factor of the semisimple R/J, so QF."""
    jac = jacobson_radical(ring)
    for ideal in two_sided_ideals(ring):
        if ideal.contains_sub(jac):
            continue
        if ideal.size() == 1:
            qf = is_qf(ring)
        else:
            q = factor_module(ring, ideal)[0]
            qf = is_relatively_injective(q, q)[0]
        if not qf:
            return False, ideal
    return True, None


def socle_homogeneous(m) -> bool:
    """m is semisimple with pairwise isomorphic simple summands."""
    if m.order() == 1:
        return True
    if socle(m).size() != m.order():
        return False
    simples = [submodule_as_module(s)[0] for s in minimal_submodules(m)]
    return all(is_isomorphic_modules(simples[0], s)[0] for s in simples[1:])


STATEMENTS = {
    "V1": "ideal route and filter route give the same profile",
    "V2": "domain of a direct sum is the intersection of domains",
    "V3": "profile of a product is the product of profiles",
    "V4": "profile lattice is modular and coatomic",
    "V5": "chain ring profile is a chain of length l(R)-1",
    "V6": "QF profile is isomorphic to the ideal lattice of R/Soc",
    "V7": "middle class iff the radical holds a nontrivial ideal",
    "V8": "factor modules realize the annihilator fingerprint",
    "V9": "the factor by the radical is i-poor",
    "V10": "chain profile admits a simple i-poor module",
    "V11": "no middle class forces a square-zero radical",
    "V12": "super QF fingerprint agreement within bounds",
    "V13": "every linear filter is the up-set of a two-sided ideal",
    "V14": "quasi-injective collapse without middle class",
    "V15": "local ring: chain profile iff chain of ideals",
    "V16": "QF equivalences for the socle factor and the radical",
}


class VerifyReport:
    """Ordered results of the verification suite."""

    def __init__(self):
        self.entries = []

    def _record(self, check_id, status, certificate, statement):
        self.entries.append({
            "id": check_id,
            "statement": statement or STATEMENTS[check_id],
            "status": status,
            "certificate": certificate,
        })

    def check(self, check_id: str, ok: bool, certificate=None,
              statement: str | None = None):
        """pass with no certificate, or fail with the certificate; the
        statement is STATEMENTS[check_id] unless another is given."""
        self._record(check_id, "pass" if ok else "fail",
                     None if ok else certificate, statement)

    def skip(self, check_id: str, reason: str):
        self._record(check_id, "skipped", reason, None)

    @property
    def failed(self):
        return [e for e in self.entries if e["status"] == "fail"]

    def ok(self) -> bool:
        return not self.failed

    def lines(self):
        for e in self.entries:
            suffix = ""
            if e["status"] == "fail" and e["certificate"] is not None:
                suffix = f"  [{e['certificate']}]"
            elif e["status"] == "skipped" and e["certificate"] is not None:
                suffix = f"  ({e['certificate']})"
            yield f"{e['id']:<4} {e['status']:<7} {e['statement']}{suffix}"


def verify_suite(ring: FiniteRing, max_free_rank: int = 1,
                 max_order: int = 64, product_partner=None) -> VerifyReport:
    """Run checks V1..V16 and collect a report.

    product_partner, when given, is a second ring used for the product
    law check (V3); otherwise V3 is skipped.
    """
    check_filter_guard(ring)
    rep = VerifyReport()
    reg = regular_module(ring)
    jac = jacobson_radical(ring)
    semisimple = jac.size() == 1
    ip = i_profile(ring)
    pp = p_profile(ring)
    cyclics = cyclic_modules_up_to_iso(ring)

    all_filters = all_linear_filters(ring)

    # V1: profile via ideals equals profile via filter enumeration; by F2
    # and F3 a filter holds every maximal right ideal iff it holds J
    structural = set(ip.filters)
    brute = {f for f in all_filters if jac in f}
    rep.check("V1", structural == brute, (structural, brute))

    # V2: intersection law on cyclic pairs
    bad = None
    for a, b in itertools.combinations_with_replacement(cyclics, 2):
        lhs = inj_fingerprint(direct_sum([a, b]))
        rhs_members = inj_fingerprint(a).members & inj_fingerprint(b).members
        if lhs.members != rhs_members:
            bad = (a.label, b.label)
            break
    rep.check("V2", bad is None, bad)

    # V3: product law
    if product_partner is None:
        rep.skip("V3", "no partner ring supplied")
    else:
        from .lattice import lattice_product
        from .ring import product_ring

        prod = product_ring([ring, product_partner])
        okv3 = True
        for fn in (i_profile, p_profile):
            lhs = fn(prod).lattice
            rhs = lattice_product(fn(ring).lattice,
                                  fn(product_partner).lattice)
            if not are_isomorphic(lhs, rhs)[0]:
                okv3 = False
        rep.check("V3", okv3)

    # V4: profile lattice modular and coatomic
    rep.check("V4", ip.flags["modular"] and ip.flags["coatomic"], ip.flags)

    # V5: chain rings have chain profiles of length (Loewy length - 1)
    if not is_chain_ring(ring):
        rep.skip("V5", "not a chain ring")
    else:
        _, loewy = socle_series(reg)
        rep.check("V5", ip.flags["is_chain"]
                  and ip.flags["length"] == max(loewy - 1, 0),
                  (ip.flags["length"], loewy))

    # V6: QF law — profile matches the ideal lattice of R/Soc(R), which
    # is that of the two-sided ideals of R holding Soc(R)
    qf = is_qf(ring)
    soc = socle(reg) if qf else None  # read by V6 and V16
    if not qf:
        rep.skip("V6", "ring is not QF")
    else:
        above = [i for i in two_sided_ideals(ring) if i.contains_sub(soc)]
        flat = build_lattice(list(range(len(above))),
                             leq=lambda a, b: above[b].contains_sub(above[a]))
        rep.check("V6", are_isomorphic(ip.lattice, flat)[0])

    # V7: middle class iff a two-sided ideal strictly between 0 and J (the
    # nodes are the two-sided ideals inside J); read again by V16
    strict = [i for i in ip.ideals if 1 < i.size() < jac.size()]
    rep.check("V7", (ip.size > 2) == bool(strict))

    # V8: projectivity fingerprint of R/I is the annihilator condition
    bad = None
    for i, w in zip(pp.ideals, pp.witnesses):
        if proj_fingerprint(w) != killed_by(ring, i):
            bad = i
            break
    rep.check("V8", bad is None, bad)

    # V9: R/J is i-poor
    rj, _ = factor_module(ring, jac)
    rep.check("V9", is_poor(rj, "i"))

    # V10: chain profile of a non-semisimple ring has a simple i-poor module
    if semisimple or not ip.flags["is_chain"]:
        rep.skip("V10", "semisimple ring" if semisimple
                 else "profile not a chain")
    else:
        simples = [submodule_as_module(s)[0]
                   for s in minimal_right_ideals(ring)]
        rep.check("V10", any(is_poor(s, "i") for s in simples))

    # V11 and V14 both need a non-semisimple ring without a middle class
    collapse_skip = None
    if semisimple:
        collapse_skip = "semisimple ring"
    elif ip.size > 2:
        collapse_skip = "middle class present"

    # V11: no middle class forces J^2 = 0
    if collapse_skip:
        rep.skip("V11", collapse_skip)
    else:
        rep.check("V11", module_times_ideal(jac, jac).size() == 1)

    # V12: super QF iff every factor is QF, with a bounded fingerprint check
    sflag, cert = is_super_qf(ring)
    try:
        pool = enumerate_modules(ring, max_free_rank, max_order)
    except BoundExceededError:
        pool = None
    out_of_bounds = "module enumeration out of bounds"
    if pool is None:
        rep.skip("V12", out_of_bounds)
    elif sflag:
        bad = None
        for m in pool:
            if inj_fingerprint(m) != proj_fingerprint(m):
                bad = m
                break
        rep.check("V12", bad is None, bad)
    elif qf:
        found = any(inj_fingerprint(m) != proj_fingerprint(m) for m in pool)
        rep.check("V12", found, f"bound rank {max_free_rank}",
                  "non-super QF ring shows a fingerprint discrepancy")
    else:
        rep.skip("V12", "ring is not QF")

    # V13: filters are exactly the up-sets of two-sided ideals
    etas = {eta_filter(ring, i) for i in two_sided_ideals(ring)}
    rep.check("V13", set(all_filters) == etas)

    # V14: without i-middle class, quasi-injective non-semisimple => injective
    if collapse_skip:
        rep.skip("V14", collapse_skip)
    elif pool is None:
        rep.skip("V14", out_of_bounds)
    else:
        bad = None
        for m in pool:
            if m.order() == 1:
                continue
            if module_times_ideal(full_submodule(m), jac).size() == 1:
                continue  # semisimple module
            if is_quasi(m, "injective") and not is_injective(m):
                bad = m
                break
        rep.check("V14", bad is None, bad)

    # V15: local ring with chain profile iff linearly ordered ideals
    if not is_local(ring):
        rep.skip("V15", "ring is not local")
    else:
        ts = two_sided_ideals(ring)
        chain_ideals = all(a.contains_sub(b) or b.contains_sub(a)
                           for a, b in itertools.combinations(ts, 2))
        rep.check("V15", ip.flags["is_chain"] == chain_ideals)

    # V16: QF with nonzero radical — simple artinian factor by the socle,
    # radical free of nontrivial ideals, homogeneous semisimple radical:
    # all three agree
    if not qf or semisimple:
        rep.skip("V16", "semisimple ring" if semisimple else "ring is not QF")
    else:
        # R/Soc(R) is simple artinian iff the R-module R/Soc(R) is
        # homogeneous semisimple (soc ≠ R, the ring not being semisimple)
        cond1 = socle_homogeneous(factor_module(ring, soc)[0])
        cond2 = not strict
        cond3 = socle_homogeneous(submodule_as_module(jac)[0])
        rep.check("V16", cond1 == cond2 == cond3, (cond1, cond2, cond3))

    return rep


def classify_report(ring: FiniteRing) -> dict:
    """The predicate bundle rendered by the command layer."""
    check_filter_guard(ring)
    sqf, cert = is_super_qf(ring)
    ip = i_profile(ring)
    pp = p_profile(ring)
    return {
        "label": ring.label,
        "order": ring.order(),
        "semisimple": is_semisimple_ring(ring),
        "local": is_local(ring),
        "chain_ring": is_chain_ring(ring),
        "uniform": is_uniform_ring(ring),
        "qf": is_qf(ring),
        "super_qf": sqf,
        "super_qf_certificate": (None if cert is None
                                 else [list(r) for r in cert.gens.rows]),
        "i_middle_class": ip.size > 2,
        "p_middle_class": pp.size > 2,
        "profile_nodes": ip.size,
        "radical_order": jacobson_radical(ring).size(),
    }
