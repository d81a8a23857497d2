"""Independent brute-force oracles used to cross-validate the library.

Nothing here goes through the linear-algebra solvers: maps are found by
filtering additive homomorphisms, annihilators by scanning ring
elements, subgroups by closing subsets.  Slow on purpose.
"""

import itertools
import math

from ringscope.classify import is_qf
from ringscope.hom import hom_group
from ringscope.ideals import two_sided_ideals
from ringscope.modules import (
    ModuleMap,
    Submodule,
    cyclic_modules_up_to_iso,
    cyclic_span,
    quotient_module,
    submodule_as_module,
    submodule_sum,
    submodules,
    zero_submodule,
)
from ringscope.profile import CyclicFingerprint
from ringscope.ring import quotient_ring
from ringscope.torsion import LinearFilter, ideal_context


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
                    s = mod.add(x, y)
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


def submodule_intersection(a, b):
    """a ∩ b, spanned by the elements of the smaller one that lie in the
    larger."""
    small, big = (a, b) if a.size() <= b.size() else (b, a)
    rows = [v for v in small.elements() if big.contains(v)]
    return Submodule(a.parent, rows)


def iso_by_hom_scan(a, b):
    """(flag, witness) by walking every map of Hom(a, b): modules of equal
    order are isomorphic iff some map is onto, and the first onto map is
    the witness."""
    if a.order() != b.order():
        return False, None
    for f in hom_group(a, b).maps(bound=1 << 20):
        if f.image_span().span_size() == b.order():
            return True, f
    return False, None


def fingerprint_by_scan(m, relative):
    """{cyclic C : relative(m, C) holds}, testing every cyclic class; the
    library reads most classes off the domain's linear filter instead."""
    reps = cyclic_modules_up_to_iso(m.ring)
    return CyclicFingerprint(
        m.ring, [t for t, c in enumerate(reps) if relative(m, c)[0]])


def super_qf_by_factor_rings(ring):
    """(flag, certificate) of is_super_qf by rebuilding each factor ring
    R/I with quotient_ring and testing it with is_qf; the library asks
    the same question of the R-module R/I instead."""
    for ideal in two_sided_ideals(ring):
        if ideal.size() == ring.order():
            continue  # zero factor ring
        factor = (ring if ideal.size() == 1
                  else quotient_ring(ring, ideal.gens.rows)[0])
        if not is_qf(factor):
            return False, ideal
    return True, None


def additive_closure(mod, vecs):
    """The subgroup generated by vecs, as a frozenset: each new vector v
    adds the cosets grp + k·v until k·v falls back into grp."""
    grp = {mod.zero}
    for v in set(vecs):
        step, w = set(grp), v
        while w not in grp:
            step |= {mod.add(g, w) for g in grp}
            w = mod.add(w, v)
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
        f = ModuleMap(a, b, rows, check=False)
        if f.is_valid():
            out.append(f)
    return out


def oracle_rel_inj(m, n, cap: int = 4096):
    """Extension-search oracle; None when the map space exceeds the cap."""
    if additive_hom_count(n, m) > cap:
        return None
    full = brute_maps(n, m)
    for k in submodules(n):
        kmod, incl, _ = submodule_as_module(k)
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


def filter_axiom_failed(ring, mem):
    """The first of F1, F3, F2, F4 that the index set mem violates, or
    None; F4 is checked on every member, not only on the least one.  The
    colon ideals are IdealContext.colons, which the torsion tests check
    against an element scan."""
    ctx = ideal_context(ring)
    if ctx.top not in mem:
        return "F1"
    if any(not ctx.upset(t) <= mem for t in mem):
        return "F3"
    return _f2_f4_failed(ctx, mem)


def _f2_f4_failed(ctx, mem):
    if any(ctx.lat.meet[a][b] not in mem for a in mem for b in mem):
        return "F2"
    if any(not ctx.colons(t).keys() <= mem for t in mem):
        return "F4"
    return None


def _upsets(ctx):
    """All up-sets of the right-ideal poset, each yielded once.

    Elements are processed from large to small, so membership of
    everything above is already decided when an element is considered.
    """
    n = len(ctx.ideals)
    order = sorted(range(n), key=lambda t: -ctx.ideals[t].size())
    strict_above = [[b for b in ctx.upset(t) if b != t] for t in range(n)]

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
    required = set(ctx.lat.coatoms()) if above_all_maximal else set()
    out = [LinearFilter(ring, cand) for cand in _upsets(ctx)
           if ctx.top in cand and required <= cand
           and _f2_f4_failed(ctx, cand) is None]
    out.sort(key=lambda f: (len(f.members), sorted(f.members)))
    return out
