"""Independent brute-force oracles used to cross-validate the library.

Most routes here avoid the library's solvers: maps are found by
filtering additive homomorphisms, annihilators by scanning ring
elements, subgroups by closing subsets.  Slow on purpose.  The
element-level routes that the library does not need (hom_maps,
central_idempotents, is_simple_artinian) live here too.
"""

import itertools
import math

from ringscope.classify import socle_homogeneous
from ringscope.errors import BoundExceededError
from ringscope.exactla import apply_matrix, quotient_presentation, solve_affine
from ringscope.hom import hom_group, is_injective
from ringscope.ideals import (
    right_ideal_lattice,
    right_ideals,
    two_sided_ideals,
)
from ringscope.lattice import _bits
from ringscope.modules import (
    ModuleMap,
    Submodule,
    cyclic_modules_up_to_iso,
    cyclic_span,
    direct_sum,
    element_annihilator,
    factor_module,
    full_submodule,
    is_isomorphic_modules,
    module_times_ideal,
    quotient_module,
    regular_module,
    submodule_as_module,
    submodule_sum,
    submodules,
    zero_submodule,
)
from ringscope.profile import CyclicFingerprint
from ringscope.ring import memoised, quotient_ring
from ringscope.torsion import LinearFilter, ideal_context


def mask(indices):
    """The int bitset with bit t for each index t, the form in which the
    library holds filters and fingerprints."""
    return sum(1 << t for t in set(indices))


def upset(ctx, t):
    """The indices of the right ideals containing I_t, as a frozenset."""
    return frozenset(_bits(right_ideal_lattice(ctx.ring).up[t]))


def add_vectors(orders, x, y):
    """x + y in ⊕ Z/orders, coordinate by coordinate."""
    return tuple((a + b) % m for a, b, m in zip(x, y, orders))


def brute_subgroup_spans(mod):
    """Every action-stable subgroup of a small module, as element frozensets."""
    elems = [tuple(x) for x in mod.elements()]
    ring = mod.ring

    def close(seed):
        grp = {mod.zero}
        frontier = set(seed)
        while frontier:
            fresh = set()
            for x in frontier:
                for j in range(ring.rank):
                    img = mod.act_gen(x, j)
                    if img not in grp and img not in fresh:
                        fresh.add(img)
                for y in list(grp) + list(frontier):
                    s = add_vectors(mod.orders, x, y)
                    if s not in grp and s not in fresh:
                        fresh.add(s)
            grp |= frontier
            frontier = fresh
        return frozenset(grp)

    found = {close([])}
    frontier = set(found)
    while frontier:
        fresh = set()
        for grp in frontier:
            for x in elems:
                if x in grp:
                    continue
                bigger = close(list(grp) + [x])
                if bigger not in found:
                    fresh.add(bigger)
        found |= fresh
        frontier = fresh
    return found


def join_all_submodules(n):
    """Every submodule of n by the join route: the cyclic submodules x·R
    closed under sums, sorted as submodules() sorts them.  Asks nothing of
    the radical or the socle."""
    cyclics = {zero_submodule(n)} | {cyclic_span(n, x) for x in n.elements()}
    seen = set(cyclics)
    frontier = list(cyclics)
    while frontier:
        s = frontier.pop()
        for c in cyclics:
            joined = submodule_sum(s, c)
            if joined not in seen:
                seen.add(joined)
                frontier.append(joined)
    return sorted(seen, key=lambda s: (s.size(), s.gens.rows))


def _socle_lifts(n, s, jgens):
    """Lifts to n of the nonzero y in Soc(N/S) = {y : y·j = 0 for the rows
    j of jgens}, solved in the Smith coordinates of N/S; no rows: all of
    N/S."""
    new_orders, proj, lift = quotient_presentation(n.orders, s.gens.rows)
    if not new_orders:
        return
    if jgens:
        rows = [tuple(x for g in jgens
                      for x in apply_matrix(n.act(l, g), proj, new_orders))
                for l in lift]
        eq_moduli = new_orders * len(jgens)
        _, soc = solve_affine(rows, eq_moduli, (0,) * len(eq_moduli),
                              new_orders)
        ys = soc.span_elements()
    else:
        ys = itertools.product(*(range(m) for m in new_orders))
    for y in ys:
        if any(y):
            yield apply_matrix(y, lift, n.orders)


def submodules_by_socle_walk(n, jgens):
    """Every submodule of n by a walk from 0 by steps S → S + x·R, x + S
    in Soc(N/S) (Anderson–Fuller §11), the socle being what the rows
    jgens of J(R) kill (no rows: all of N/S): for T ⊋ S the socle of T/S
    is nonzero and lies in Soc(N/S), so some step from S stays inside T,
    and every submodule is reached.  Sorted as submodules() sorts them;
    the library walks by covers instead."""
    zero = zero_submodule(n)
    seen = {zero}
    frontier = [zero]
    spans = {}  # x -> x·R, as the same lift recurs from many S
    while frontier:
        s = frontier.pop()
        steps = set()
        for x in _socle_lifts(n, s, jgens):
            c = spans.get(x)
            if c is None:
                c = spans[x] = cyclic_span(n, x)
            steps.add(c)
        for c in steps:
            t = submodule_sum(s, c)
            if t not in seen:
                seen.add(t)
                frontier.append(t)
    return sorted(seen, key=lambda s: (s.size(), s.gens.rows))


def submodule_intersection(a, b):
    """a ∩ b, spanned by the elements of the smaller one that lie in the
    larger."""
    small, big = (a, b) if a.size() <= b.size() else (b, a)
    rows = [v for v in small.elements() if big.contains(v)]
    return Submodule(a.parent, rows)


def hom_maps(grp, bound=4096):
    """Every map of the HomGroup grp, one per element of its basis span;
    BoundExceededError past bound maps."""
    if grp.size() > bound:
        raise BoundExceededError(
            f"hom group of order {grp.size()} exceeds bound {bound}")
    for flat in grp.basis.span_elements():
        yield grp._unflatten(flat)


def central_idempotents(ring):
    """The idempotents that commute with every ring generator, by a scan
    of the ring's elements."""
    gens = [ring.generator(i) for i in range(ring.rank)]
    out = set()
    for x in map(tuple, ring.elements()):
        if ring.el_mul(x, x) == x and all(
                ring.el_mul(x, g) == ring.el_mul(g, x) for g in gens):
            out.add(x)
    return out


def is_simple_artinian(ring):
    """A nonzero ring whose regular module is semisimple with a single
    simple class: a matrix ring over a division ring."""
    return ring.order() > 1 and socle_homogeneous(regular_module(ring))


def iso_by_hom_scan(a, b):
    """(flag, witness) by walking every map of Hom(a, b): modules of equal
    order are isomorphic iff some map is onto, and the first onto map is
    the witness."""
    if a.order() != b.order():
        return False, None
    for f in hom_maps(hom_group(a, b), bound=1 << 20):
        if f.image_span().span_size() == b.order():
            return True, f
    return False, None


def cyclic_classes_by_scan(ring):
    """cyclic_modules_up_to_iso by comparing each R/L with every class
    found so far through iso_by_hom_scan; the library compares it only
    with the classes of its interval shape."""
    reps = []
    for ideal in right_ideals(ring):
        q = factor_module(ring, ideal)[0]
        if not any(iso_by_hom_scan(q, r)[0] for r in reps):
            reps.append(q)
    reps.sort(key=lambda m: (m.order(), m.orders))
    return reps


def modules_by_scan(ring, k, max_order):
    """enumerate_modules(ring, k, max_order) by comparing each quotient of
    R^2, ..., R^k with every class found so far, equal contents included;
    the library skips a content classified before and compares a new one
    only with the classes of its additive type and radical series sizes."""
    reg = regular_module(ring)
    reps = [c for c in cyclic_modules_up_to_iso(ring) if c.order() <= max_order]
    for rank in range(2, k + 1):
        free = direct_sum([reg] * rank)
        for s in submodules(free):
            if free.order() // s.size() > max_order:
                continue
            q = quotient_module(free, s)[0]
            if not any(is_isomorphic_modules(q, r)[0] for r in reps):
                reps.append(q)
    reps.sort(key=lambda m: (m.order(), m.orders))
    return reps


def trace(sources, target):
    """Sum of all homomorphic images of the sources inside the target: with
    the simple modules as sources, the socle of the target."""
    rows = []
    for src in sources:
        for gen in hom_group(src, target).gen_maps():
            rows.extend(gen.rows)
    return Submodule(target, rows)


def minimal_submodules_by_pairs(m):
    """The nonzero submodules with no nonzero submodule strictly inside,
    by the scan over all pairs; the library tests each candidate against
    the minimal ones found before it."""
    cands = submodules(m)[1:]

    def inside(a, b):  # a strictly inside b
        return a.size() < b.size() and b.contains_sub(a)

    return [s for s in cands if not any(inside(t, s) for t in cands)]


def fingerprint_by_scan(m, relative):
    """{cyclic C : relative(m, C) holds}, testing every cyclic class; the
    library reads most classes off the domain's linear filter instead."""
    reps = cyclic_modules_up_to_iso(m.ring)
    return CyclicFingerprint(
        m.ring, mask(t for t, c in enumerate(reps) if relative(m, c)[0]))


def dense_el_mul(r, x, y):
    """x·y read off every coordinate of the dense table r.mul; the library
    reads only the nonzero structure constants."""
    acc = [0] * r.rank
    for i, xi in enumerate(x):
        if not xi:
            continue
        row = r.mul[i]
        for j, yj in enumerate(y):
            if not yj:
                continue
            c = xi * yj
            t = row[j]
            for k in range(r.rank):
                acc[k] += c * t[k]
    return tuple(a % m for a, m in zip(acc, r.orders))


def axioms_by_dense_products(r):
    """verify_ring_axioms over every entry, unit law and triple of the
    dense table, each product by dense_el_mul."""
    d = r.rank
    for i in range(d):
        for j in range(d):
            prod = r.mul[i][j]
            for k in range(d):
                if (r.orders[i] * prod[k]) % r.orders[k]:
                    return (f"product g{i}*g{j} not well defined: "
                            f"{r.orders[i]} copies do not vanish")
                if (r.orders[j] * prod[k]) % r.orders[k]:
                    return (f"product g{i}*g{j} not well defined: "
                            f"{r.orders[j]} copies do not vanish")
    for i in range(d):
        g = r.generator(i)
        if dense_el_mul(r, r.one, g) != g:
            return f"left unit law fails on generator g{i}"
        if dense_el_mul(r, g, r.one) != g:
            return f"right unit law fails on generator g{i}"
    for i in range(d):
        gi = r.generator(i)
        for j in range(d):
            left = r.mul[i][j]
            for k in range(d):
                gk = r.generator(k)
                if (dense_el_mul(r, left, gk)
                        != dense_el_mul(r, gi, r.mul[j][k])):
                    return f"associativity fails on (g{i}, g{j}, g{k})"
    return None


def super_qf_by_factor_rings(ring):
    """(flag, certificate) of is_super_qf by rebuilding each factor ring
    R/I with quotient_ring and testing its regular module for
    self-injectivity; the library asks the same question of the R-module
    R/I instead, mostly as a bit of its injectivity fingerprint."""
    for ideal in two_sided_ideals(ring):
        if ideal.size() == ring.order():
            continue  # zero factor ring
        factor = (ring if ideal.size() == 1
                  else quotient_ring(ring, ideal.gens.rows)[0])
        if not is_injective(regular_module(factor)):
            return False, ideal
    return True, None


def apply_matrix_by_loop(vec, mat, out_moduli):
    """Row-vector times matrix, one entry at a time, reduced per output
    modulus at the end."""
    k = len(out_moduli)
    out = [0] * k
    for x, row in zip(vec, mat):
        if x:
            for j in range(k):
                out[j] += x * row[j]
    return tuple(o % m for o, m in zip(out, out_moduli))


def act_by_loop(m, x, r):
    """x·r summed over the ring generators, one coordinate at a time:
    Σ_j r_j·(x·g_j), reduced per coordinate at the end."""
    acc = [0] * m.rank
    for j, c in enumerate(r):
        if not c:
            continue
        img = m.act_gen(x, j)
        for k in range(m.rank):
            acc[k] += c * img[k]
    return tuple(a % o for a, o in zip(acc, m.orders))


def atoms_by_covers(lat):
    """(atoms, coatoms) as bitsets, read off the covering pairs: the upper
    covers of the bottom and the lower covers of the top."""
    covers = lat.covers()
    return (mask(b for a, b in covers if a == lat.bottom),
            mask(a for a, b in covers if b == lat.top))


def killed_by_by_products(ring, ideal):
    """killed_by(ring, ideal) by module arithmetic: the cyclic classes C
    with C·I = 0, each product spanned from the generators of C and of I;
    the library reads I ⊆ L off the right-ideal lattice instead."""
    reps = cyclic_modules_up_to_iso(ring)
    return CyclicFingerprint(ring, mask(
        t for t, c in enumerate(reps)
        if module_times_ideal(full_submodule(c), ideal).size() == 1))


def sigma_filter_by_elements(m):
    """σ[M]'s filter as the up-set of the meet of M's element
    annihilators, one solve per element; the library solves for ann(M)
    once."""
    ctx = ideal_context(m.ring)
    lat = right_ideal_lattice(m.ring)
    t = _top(ctx)
    for x in m.elements():
        t = lat.meet[t][ctx.index[element_annihilator(m, x).gens]]
    return LinearFilter(m.ring, lat.up[t])


def additive_closure(mod, vecs):
    """The subgroup generated by vecs, as a frozenset: each new vector v
    adds the cosets grp + k·v until k·v falls back into grp."""
    grp = {mod.zero}
    for v in set(vecs):
        step, w = set(grp), v
        while w not in grp:
            step |= {add_vectors(mod.orders, g, w) for g in grp}
            w = add_vectors(mod.orders, w, v)
        grp = step
    return frozenset(grp)


def is_bijective(f) -> bool:
    """f is a bijection between modules of equal order."""
    src, tgt = f.source, f.target
    return (src.order() == tgt.order()
            and len({f.apply(x) for x in src.elements()}) == tgt.order())


def additive_hom_count(a, b) -> int:
    return math.prod(math.gcd(oa, ob) for oa in a.orders for ob in b.orders)


def brute_maps(a, b):
    """All module maps a → b by filtering the additive homomorphisms."""
    cand = []
    for oa in a.orders:
        cand.append([y for y in b.elements()
                     if all((oa * yi) % m == 0
                            for yi, m in zip(y, b.orders))])
    out = []
    for rows in itertools.product(*cand):
        f = ModuleMap(a, b, rows)
        if f.is_valid():
            out.append(f)
    return out


def oracle_rel_inj(m, n, cap: int = 4096):
    """Extension-search oracle; None when the map space exceeds the cap."""
    if additive_hom_count(n, m) > cap:
        return None
    full = brute_maps(n, m)
    for k in submodules(n):
        kmod, incl = submodule_as_module(k)
        if additive_hom_count(kmod, m) > cap:
            return None
        for phi in brute_maps(kmod, m):
            if not any(all(f.apply(incl.rows[t]) == phi.rows[t]
                           for t in range(kmod.rank)) for f in full):
                return False
    return True


def oracle_rel_proj(m, n, cap: int = 4096):
    """Lift-search oracle; None when the map space exceeds the cap."""
    if additive_hom_count(m, n) > cap:
        return None
    full = brute_maps(m, n)
    for l in submodules(n):
        q, proj = quotient_module(n, l)
        if additive_hom_count(m, q) > cap:
            return None
        for psi in brute_maps(m, q):
            if not any(all(proj.apply(f.rows[t]) == psi.rows[t]
                           for t in range(m.rank)) for f in full):
                return False
    return True


def brute_ann(mod, x):
    """Element annihilator as a frozenset of ring elements."""
    ring = mod.ring
    return frozenset(r for r in ring.elements()
                     if mod.act(x, r) == mod.zero)


def oracle_sigma(m, n) -> bool:
    """Subgeneration oracle: each element annihilator of n must contain a
    finite intersection of element annihilators of m, verified in place."""
    anns = {brute_ann(m, x) for x in m.elements()}
    closed = set(anns)
    while True:
        fresh = {a & b for a in closed for b in closed} - closed
        if not fresh:
            break
        closed |= fresh
    for x in n.elements():
        ax = brute_ann(n, x)
        wit = next((a for a in closed if a <= ax), None)
        if wit is None:
            return False
        assert all(n.act(x, r) == n.zero for r in wit)
    return True


@memoised(lambda ctx, t: ("colons", ctx.ideals[t].gens))
def colon_table(ctx, t):
    """{(I_t : r) : r ∈ R}, from one lift per coset of R/I_t: for
    i ∈ I_t, (r+i)·y = r·y + i·y and i·y ∈ I_t, so the colon ideal
    depends on the coset only.  Each colon ideal maps to the first lift r
    that gives it.  Memoised on the ring; the library reads only the
    colons at the additive generators of R/I_t."""
    q, proj = factor_module(ctx.ring, ctx.ideals[t])
    table = {}
    for c in itertools.product(*(range(m) for m in q.orders)):
        r = apply_matrix(c, proj.section, ctx.ring.orders)
        table.setdefault(ctx.colon(t, r), r)
    return table


def filter_axiom_failed(ring, mem):
    """The first of F1, F3, F2, F4 that the index set mem violates, or
    None; F4 is checked on every member and at every coset, not only at
    the least member's additive generators.  The colon ideals are
    colon_table, which the torsion tests check against an element scan."""
    ctx = ideal_context(ring)
    if _top(ctx) not in mem:
        return "F1"
    if any(not upset(ctx, t) <= mem for t in mem):
        return "F3"
    return _f2_f4_failed(ctx, mem)


def _top(ctx):
    """The index of R itself in the right-ideal list."""
    return ctx.index[full_submodule(regular_module(ctx.ring)).gens]


def _f2_f4_failed(ctx, mem):
    meet = right_ideal_lattice(ctx.ring).meet
    if any(meet[a][b] not in mem for a in mem for b in mem):
        return "F2"
    if any(not colon_table(ctx, t).keys() <= mem for t in mem):
        return "F4"
    return None


def _upsets(ctx):
    """All up-sets of the right-ideal poset, each yielded once.

    Elements are processed from large to small, so membership of
    everything above is already decided when an element is considered.
    """
    n = len(ctx.ideals)
    order = sorted(range(n), key=lambda t: -ctx.ideals[t].size())
    strict_above = [[b for b in upset(ctx, t) if b != t] for t in range(n)]

    def rec(pos, chosen):
        if pos == n:
            yield frozenset(chosen)
            return
        t = order[pos]
        yield from rec(pos + 1, chosen)
        if all(b in chosen for b in strict_above[t]):
            chosen.add(t)
            yield from rec(pos + 1, chosen)
            chosen.remove(t)

    yield from rec(0, set())


def filters_by_upsets(ring, above_all_maximal=False):
    """Every linear filter by the exhaustive walk: each up-set of the
    right-ideal poset that passes F1, F2 and F4 on every member, sorted as
    all_linear_filters sorts.  Assumes nothing about least members."""
    ctx = ideal_context(ring)
    lat = right_ideal_lattice(ring)
    required = set(_bits(lat.coatoms())) if above_all_maximal else set()
    out = [cand for cand in _upsets(ctx)
           if _top(ctx) in cand and required <= cand
           and _f2_f4_failed(ctx, cand) is None]
    out.sort(key=lambda cand: (len(cand), sorted(cand)))
    return [LinearFilter(ring, mask(cand)) for cand in out]
