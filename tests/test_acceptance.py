"""Acceptance gate: thirteen end-to-end checks over the bundled rings.

Each test prints exactly one pass/fail line for its criterion.
"""

import random

from ringscope.hom import is_injective, is_quasi
from ringscope.ideals import ideals_in_radical, jacobson_radical, two_sided_ideals
from ringscope.lattice import are_isomorphic, build_lattice, lattice_product
from ringscope.modules import (
    Submodule,
    cyclic_span,
    direct_sum,
    enumerate_modules,
    factor_module,
    full_submodule,
    module_times_ideal,
    regular_module,
    submodule_as_module,
)
from ringscope.profile import (
    has_middle_class,
    i_profile,
    inj_fingerprint,
    is_poor,
    killed_by,
    p_profile,
    profile,
    proj_fingerprint,
)
from ringscope.classify import is_super_qf
from ringscope.ring import zmod
from ringscope.torsion import all_linear_filters, eta_filter, sigma_contains

from conftest import SMALL_CORPUS, corpus, simple_modules
from oracle_utils import (
    central_idempotents,
    dense_el_mul,
    oracle_rel_inj,
    oracle_rel_proj,
    oracle_sigma,
)


def report(n, ok, detail=""):
    status = "pass" if ok else "fail"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {n:2d}: {status}{suffix}")
    assert ok, f"criterion {n} failed {suffix}"


def chain_lattice(n):
    return build_lattice(list(range(n)), leq=lambda a, b: a <= b)


def test_criterion_01_chain_profile_of_z8():
    ring = corpus("z8")
    ip, pp = i_profile(ring), p_profile(ring)
    ok = (ip.size == 3 and ip.flags["is_chain"] and ip.flags["length"] == 2
          and pp.size == 3 and pp.flags["is_chain"]
          and pp.flags["length"] == 2)
    # anti-isomorphic to the ideal chain 0 < (4) < (2)
    reg = regular_module(ring)
    ideals = [Submodule(reg, gens) for gens in ([], [(4,)], [(2,)])]
    lat = build_lattice([0, 1, 2],
                        leq=lambda a, b: ideals[b].contains_sub(ideals[a]))
    ok = ok and are_isomorphic(ip.lattice, lat, anti=True)[0]
    ok = ok and are_isomorphic(pp.lattice, lat, anti=True)[0]
    report(1, ok)


def test_criterion_02_quiver_diamond():
    ring = corpus("quiver_f2")
    lat, nodes = ideals_in_radical(ring)
    ok = sorted(n.size() for n in nodes) == [1, 2, 2, 4]
    # the two middle nodes are the arrow ideals <a>, <b>
    reg = regular_module(ring)
    arrow_ideals = {cyclic_span(reg, reg.generator(j)) for j in (3, 4)}
    ok = ok and {n for n in nodes if n.size() == 2} == arrow_ideals
    square = lattice_product(chain_lattice(2), chain_lattice(2))
    ok = ok and are_isomorphic(i_profile(ring).lattice, square)[0]
    ok = ok and are_isomorphic(p_profile(ring).lattice, square)[0]
    ok = ok and central_idempotents(ring) == {ring.zero, ring.one}
    report(2, ok)


def test_criterion_03_no_middle_class_t2():
    ring = corpus("t2f2")
    ok = not has_middle_class(ring, "i") and not has_middle_class(ring, "p")
    jac = jacobson_radical(ring)
    jsq = Submodule(regular_module(ring),
                    [dense_el_mul(ring, a, b)
                     for a in jac.gens.rows for b in jac.gens.rows])
    ok = ok and jsq.size() == 1
    report(3, ok)


def test_criterion_04_m3_profile():
    rep = i_profile(corpus("f2xy_j2"))
    ok = (rep.size == 5 and rep.flags["modular"]
          and not rep.flags["distributive"] and not rep.flags["is_chain"]
          and rep.flags["coatomic"])
    m3 = build_lattice(["0", "x", "y", "z", "1"],
                       [("0", "x"), ("0", "y"), ("0", "z"),
                        ("x", "1"), ("y", "1"), ("z", "1")])
    ok = ok and are_isomorphic(rep.lattice, m3)[0]
    report(4, ok)


def test_criterion_05_qf_socle_law():
    rep = i_profile(corpus("z8"))
    z4_ideals = two_sided_ideals(zmod(4))
    lat = build_lattice(list(range(len(z4_ideals))),
                        leq=lambda a, b: z4_ideals[b].contains_sub(
                            z4_ideals[a]))
    ok = lat.size == 3 and are_isomorphic(rep.lattice, lat)[0]
    report(5, ok)


def test_criterion_06_p_witness_law():
    ok = True
    for name in SMALL_CORPUS:
        ring = corpus(name)
        jac = jacobson_radical(ring)
        for ideal in two_sided_ideals(ring):
            if not jac.contains_sub(ideal):
                continue
            w = factor_module(ring, ideal)[0]
            if proj_fingerprint(w) != killed_by(ring, ideal):
                ok = False
    report(6, ok)


def test_criterion_07_poverty():
    ok = True
    for name in SMALL_CORPUS:
        ring = corpus(name)
        rj = factor_module(ring, jacobson_radical(ring))[0]
        ok = ok and is_poor(rj, "i")
        ok = ok and is_poor(direct_sum(simple_modules(ring)), "p")
    ring = corpus("z8")
    simple = submodule_as_module(
        Submodule(regular_module(ring), [(4,)]))[0]
    ok = ok and is_poor(simple, "i")
    report(7, ok)


def test_criterion_08_filter_bijection():
    ok = True
    for name in SMALL_CORPUS:
        ring = corpus(name)
        jac = jacobson_radical(ring)
        ts = two_sided_ideals(ring)
        full = set(all_linear_filters(ring))
        ok = ok and full == {eta_filter(ring, i) for i in ts}
        restricted = set(all_linear_filters(ring, above_all_maximal=True))
        ok = ok and restricted == {eta_filter(ring, i) for i in ts
                                   if jac.contains_sub(i)}
    report(8, ok)


def test_criterion_09_product_law():
    prod = corpus("z4xf2")
    z4 = zmod(4)
    ok = True
    for kind in ("i", "p"):
        lhs = profile(prod, kind)
        rhs = profile(z4, kind)
        ok = ok and lhs.size == rhs.size == 2 and lhs.flags["is_chain"]
        ok = ok and are_isomorphic(lhs.lattice, rhs.lattice)[0]
    report(9, ok)


def test_criterion_10_super_qf():
    ok = is_super_qf(corpus("z8"))[0]
    ok = ok and is_super_qf(corpus("m2z4"))[0]
    ring = corpus("f2xy_x2y2")
    flag, cert = is_super_qf(ring)
    ok = ok and not flag
    ok = ok and list(cert.gens.rows) == [(0, 0, 0, 1)]  # the ideal (xy)
    # domain agreement for every module of Z/8 within bounds
    for m in enumerate_modules(corpus("z8"), max_free_rank=2, max_order=64):
        ok = ok and inj_fingerprint(m) == proj_fingerprint(m)
    # the discrepancy witness R/(xy) turns up within bounds
    found = None
    for m in enumerate_modules(ring, max_free_rank=1, max_order=64):
        if inj_fingerprint(m) != proj_fingerprint(m):
            found = m
            break
    rxy = factor_module(ring, cert)[0]
    ok = ok and found is not None and found.order() == rxy.order() == 8
    ok = ok and inj_fingerprint(rxy) != proj_fingerprint(rxy)
    report(10, ok)


def test_criterion_11_quasi_injective_collapse():
    ring = corpus("t2f2")
    jac = jacobson_radical(ring)
    ok = True
    for m in enumerate_modules(ring, max_free_rank=2, max_order=64):
        if (m.order() == 1
                or module_times_ideal(full_submodule(m), jac).size() == 1):
            continue  # zero or semisimple
        if is_quasi(m, "injective"):
            ok = ok and is_injective(m)
    report(11, ok)


def test_criterion_12_oracle_equivalence():
    pools = {name: enumerate_modules(corpus(name), max_free_rank=1,
                                     max_order=32)
             for name in SMALL_CORPUS}
    rng = random.Random(20260826)
    names = list(SMALL_CORPUS)
    done = 0
    tries = 0
    ok = True
    from ringscope.hom import is_relatively_injective, is_relatively_projective

    while done < 200 and tries < 5000:
        tries += 1
        name = rng.choice(names)
        pool = pools[name]
        m, n = rng.choice(pool), rng.choice(pool)
        if n.order() > 32:
            continue
        oi = oracle_rel_inj(m, n)
        op = oracle_rel_proj(m, n)
        if oi is None or op is None:
            continue  # map space over the oracle's cap; resample
        ok = ok and oi == is_relatively_injective(m, n)[0]
        ok = ok and op == is_relatively_projective(m, n)[0]
        done += 1
    ok = ok and done == 200
    # subgeneration agreement on all pairs over the rings of order <= 16
    for name in SMALL_CORPUS:
        ring = corpus(name)
        if ring.order() > 16:
            continue
        for m in pools[name]:
            for n in pools[name]:
                ok = ok and sigma_contains(m, n) == oracle_sigma(m, n)
    report(12, ok, f"{done} sampled pairs")


def test_criterion_13_semisimple_singleton():
    ring = corpus("m2f2")
    ok = (i_profile(ring).size == 1 and p_profile(ring).size == 1
          and not has_middle_class(ring, "i")
          and not has_middle_class(ring, "p"))
    report(13, ok)
