"""Hom groups and relative injectivity/projectivity.

The solver-based hom groups are compared to brute-force map filtering,
and the domain predicates to pointwise extension/lift search.
"""

import importlib
import itertools

import pytest

from ringscope.cli import load_ring
from ringscope.errors import InputError
from ringscope.exactla import howell_span
from ringscope.hom import (
    _blocks,
    _projective_by_homs,
    _hom_kernel,
    _hom_kernel_mono,
    hom_group,
    is_injective,
    is_projective,
    is_quasi,
    is_relatively_injective,
    is_relatively_projective,
)
from ringscope.ideals import right_ideals, two_sided_ideals
from ringscope.modules import (
    RightModule,
    Submodule,
    cyclic_modules_up_to_iso,
    direct_sum,
    factor_module,
    is_isomorphic_modules,
    minimal_submodules,
    quotient_module,
    quotient_via_lattice,
    regular_module,
    socle,
    submodule_as_module,
    submodules,
    zero_module,
)
from ringscope.ring import zmod
from ringscope.torsion import sigma_contains

from conftest import (
    DIFFERENTIAL_RINGS,
    RECIPE_RINGS,
    SMALL_CORPUS,
    corpus,
    recipe_ring,
    simple_modules,
)
from oracle_utils import (
    brute_maps,
    hom_maps,
    oracle_rel_inj,
    oracle_rel_proj,
    trace,
)

hom_mod = importlib.import_module("ringscope.hom")


def test_hom_group_sizes_z8():
    ring = corpus("z8")
    reg = regular_module(ring)
    z2 = factor_module(ring, Submodule(reg, [(2,)]))[0]
    z4 = factor_module(ring, Submodule(reg, [(4,)]))[0]
    assert hom_group(reg, reg).size() == 8
    assert hom_group(z2, z4).size() == 2   # images killed by 2 inside Z/4
    assert hom_group(z4, z2).size() == 2
    assert hom_group(reg, z2).size() == 2


def test_hom_group_matches_brute_force():
    for name in ("z8", "z4xf2", "t2f2", "f2xy_j2"):
        ring = corpus(name)
        cyc = cyclic_modules_up_to_iso(ring)
        for a in cyc:
            for b in cyc:
                if a.order() > 8 or b.order() > 8:
                    continue
                grp = hom_group(a, b)
                brute = {f.rows for f in brute_maps(a, b)}
                assert {f.rows for f in hom_maps(grp)} == brute


@pytest.mark.parametrize("source", [*SMALL_CORPUS, "t2f2xz2", "z3xz4"])
def test_block_pairs_assemble_the_single_solve(source):
    """Hom of modules that split into blocks is assembled from one solve
    per block pair; the basis must equal the one solve over all
    coordinates, row for row, on every pair among R, the cyclic classes
    and the sums X ⊕ Y that pair the i-th of those with the i-th from the
    end (so X ⊕ Y and Y ⊕ X both occur, and the middle one as X ⊕ X)."""
    ring = recipe_ring(source) if source in RECIPE_RINGS else corpus(source)
    base = [regular_module(ring)] + cyclic_modules_up_to_iso(ring)
    mods = base + [direct_sum([x, y]) for x, y in zip(base, base[::-1])]
    split = 0
    for a in mods:
        for b in mods:
            assert (_hom_kernel(ring, a.key, b.key)
                    == _hom_kernel_mono(a.key, b.key)), (a, b)
            split += (len(_blocks(ring, a.key)) > 1
                      or len(_blocks(ring, b.key)) > 1)
    assert split > len(mods)


@pytest.mark.parametrize("name", SMALL_CORPUS)
def test_blocks_of_a_sum_of_indecomposables_are_the_summands(name):
    """A simple module is indecomposable, and so is every nonzero cyclic
    module over a local ring; the blocks of their direct sum are exactly
    the coordinates of the summands, and each block's content is its
    summand's."""
    ring = corpus(name)
    parts = simple_modules(ring)
    if name in ("z8", "f2xy_j2", "f2xy_x2y2"):   # local rings
        parts += [c for c in cyclic_modules_up_to_iso(ring) if c.rank]
    parts += parts[:1]
    offsets = [0]
    for p in parts:
        offsets.append(offsets[-1] + p.rank)
    blocks = _blocks(ring, direct_sum(parts).key)
    assert [coords for coords, _ in blocks] == [
        tuple(range(lo, hi)) for lo, hi in zip(offsets, offsets[1:])]
    assert [content for _, content in blocks] == [p.key for p in parts]


@pytest.mark.parametrize("name", SMALL_CORPUS)
def test_hom_into_a_direct_sum_builds_no_module(name, monkeypatch):
    """Hom(c, a ⊕ b) reads the blocks of a ⊕ b off its content: it builds
    no RightModule and leaves no summands table on the ring."""
    ring = load_ring(name)  # fresh, so no block fact is memoised yet
    cyc = [c for c in cyclic_modules_up_to_iso(ring) if c.rank]
    sums = [direct_sum([a, b])
            for a, b in itertools.combinations_with_replacement(cyc[:4], 2)]
    built = []
    init = RightModule.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(RightModule, "__init__", counted)
    for c in cyc:
        for total in sums:
            hom_group(c, total)
    assert built == []
    assert not [k for k in ring._cache
                if isinstance(k, tuple) and k[0] == "summands"]


def test_hom_basis_maps_are_valid():
    ring = corpus("t2f2")
    reg = regular_module(ring)
    for gen in hom_group(reg, reg).gen_maps():
        assert gen.is_valid()


def test_relative_injectivity_certificate():
    ring = corpus("z8")
    reg = regular_module(ring)
    z2 = factor_module(ring, Submodule(reg, [(2,)]))[0]
    flag, cert = is_relatively_injective(z2, reg)
    assert not flag
    k, phi = cert
    # the certificate map really does not extend
    kmod, incl = submodule_as_module(k)
    assert phi.source.orders == kmod.orders
    extensions = [f for f in brute_maps(reg, z2)
                  if all(f.apply(incl.rows[t]) == phi.rows[t]
                         for t in range(kmod.rank))]
    assert extensions == []


def test_relative_projectivity_certificate():
    """Z/2 is not Z/8-projective.  Both routes certify it: the colon route
    for R/(2) against R/0, the hom route for R/(2) against the regular
    module; no map Z/2 → Z/8 lifts either certificate ψ."""
    ring = corpus("z8")
    reg = regular_module(ring)
    z2 = factor_module(ring, Submodule(reg, [(2,)]))[0]
    r0 = factor_module(ring, Submodule(reg, []))[0]
    for n, cert in ((r0, is_relatively_projective(z2, r0)),
                    (reg, _projective_by_homs(z2, reg))):
        flag, (l, psi) = cert
        assert not flag and psi.is_valid()
        q, proj = quotient_via_lattice(n, l)
        assert psi.target.key == q.key
        lifts = [f for f in brute_maps(z2, n)
                 if all(proj.apply(f.rows[t]) == psi.rows[t]
                        for t in range(z2.rank))]
        assert lifts == []


def assert_no_lift(m, n, certificate):
    """ψ of a certificate (L, ψ) is a map m → n/L that no map m → n lifts:
    the composites of Hom(m, n) with the projection do not reach it."""
    l, psi = certificate
    assert l in submodules(n) and l.size() > 1
    q, proj = quotient_via_lattice(n, l)
    assert psi.target.key == q.key and psi.is_valid()
    composites = howell_span(
        q.orders * m.rank,
        [[x for r in f.rows for x in proj.apply(r)]
         for f in hom_group(m, n).gen_maps()])
    assert not composites.contains([x for r in psi.rows for x in r])


@pytest.mark.parametrize("group", DIFFERENTIAL_RINGS)
def test_colon_route_matches_the_hom_route(group, monkeypatch):
    """For every two-sided I and right ideal L, is_relatively_projective
    (R/I, R/L) takes the colon route, never the hom route, and its verdict
    equals the hom route's; each of its certificates is a map that does
    not lift."""
    real = hom_mod._projective_by_homs
    monkeypatch.setattr(hom_mod, "_projective_by_homs", None)
    pairs = failures = 0
    for ring in DIFFERENTIAL_RINGS[group]():
        for i in two_sided_ideals(ring):
            m = factor_module(ring, i)[0]
            for l in right_ideals(ring):
                n = factor_module(ring, l)[0]
                flag, certificate = is_relatively_projective(m, n)
                assert flag == real(m, n)[0], (ring.label, i, l)
                if not flag:
                    assert_no_lift(m, n, certificate)
                    failures += 1
                pairs += 1
    assert failures > 0
    assert pairs >= {"corpus": 400, "drawn_7": 2000}.get(group, 0)


def test_domains_closed_under_submodules_and_quotients():
    ring = corpus("t2f2")
    reg = regular_module(ring)
    for m in cyclic_modules_up_to_iso(ring):
        if not is_relatively_injective(m, reg)[0]:
            continue
        for k in submodules(reg):
            sub = submodule_as_module(k)[0]
            assert is_relatively_injective(m, sub)[0]
            quo = quotient_module(reg, k)[0]
            assert is_relatively_injective(m, quo)[0]


def test_domains_closed_under_finite_sums():
    ring = corpus("z8")
    reg = regular_module(ring)
    z2 = factor_module(ring, Submodule(reg, [(2,)]))[0]
    # everything is injective relative to a semisimple module, sums included
    assert is_relatively_injective(reg, z2)[0]
    assert is_relatively_injective(reg, direct_sum([z2, z2]))[0]


def test_self_injectivity_of_corpus_rings():
    assert is_injective(regular_module(corpus("z8")))
    assert is_injective(regular_module(corpus("m2f2")))
    assert not is_injective(regular_module(corpus("t2f2")))
    assert not is_injective(regular_module(corpus("f2xy_j2")))


def test_projectivity_matches_free_summand_oracle():
    # over a local ring the projectives are free: R itself yes, R/I no
    ring = corpus("z8")
    reg = regular_module(ring)
    assert is_projective(reg)
    for gens in ([(2,)], [(4,)]):
        q = factor_module(ring, Submodule(reg, gens))[0]
        assert not is_projective(q)
    # over the semisimple matrix ring everything is projective
    m2 = corpus("m2f2")
    for c in cyclic_modules_up_to_iso(m2):
        assert is_projective(c)


def test_quasi_injective_example():
    ring = corpus("z8")
    reg = regular_module(ring)
    z2 = factor_module(ring, Submodule(reg, [(2,)]))[0]
    assert is_quasi(z2, "injective")
    assert is_quasi(reg, "projective")
    with pytest.raises(ValueError):
        is_quasi(reg, "flat")


def test_trace_of_simples_is_socle():
    for name in ("z8", "t2f2", "f2xy_j2"):
        ring = corpus(name)
        reg = regular_module(ring)
        simples = [submodule_as_module(s)[0]
                   for s in minimal_submodules(reg)]
        assert trace(simples, reg) == socle(reg)


def _check_against_oracles(m, n):
    oi = oracle_rel_inj(m, n)
    if oi is not None:
        assert oi == is_relatively_injective(m, n)[0]
    op = oracle_rel_proj(m, n)
    if op is not None:
        assert op == is_relatively_projective(m, n)[0]
    return oi is not None and op is not None


def test_relative_predicates_match_pointwise_oracles():
    for name in ("z8", "z4xf2", "t2f2"):
        ring = corpus(name)
        cyc = cyclic_modules_up_to_iso(ring)
        for m in cyc:
            for n in cyc:
                _check_against_oracles(m, n)
    # direct sums of cyclic classes, as V2 tests them; every module is
    # built afresh after an equal copy has warmed the memoised Hom bases
    # and presentations, so the answers checked come from the memo
    cyc = cyclic_modules_up_to_iso(corpus("z4xf2"))
    checked = 0
    for i, a in enumerate(cyc):
        for b in cyc[i:]:
            for n in cyc:
                is_relatively_injective(direct_sum([a, b]), n)
                is_relatively_projective(direct_sum([a, b]), n)
                checked += _check_against_oracles(direct_sum([a, b]), n)
    assert checked > 0


def test_hom_memo_is_keyed_by_content():
    for name in ("z8", "z4xf2"):
        ring = corpus(name)
        reg = regular_module(ring)
        for k in submodules(reg):
            for l in submodules(reg):
                a, a2 = (quotient_module(reg, k, label=label)[0]
                         for label in ("first", "second"))
                b = factor_module(ring, l)[0]
                assert a is not a2 and a.key == a2.key
                first, second = hom_group(a, b), hom_group(a2, b)
                assert first.basis == second.basis
                assert first.source is a and second.source is a2
                assert first.target is b and second.target is b
                assert second.size() == len(brute_maps(a2, b))


@pytest.mark.parametrize("free_summands", [0, 1])
def test_certificates_past_the_hom_enumeration_bound(free_summands):
    """Over Z/4, Hom((2), M) and Hom(M, Z/4/(2)) have at least 2**13 maps
    for M = (Z/2)^13, beyond the 4096 that the oracle hom_maps enumerates; the
    certificate is still found, among the hom basis maps.  With a summand
    Z/4 the restrictions and composites span a nonzero subgroup, which the
    certificate must avoid."""
    ring = zmod(4)
    reg = regular_module(ring)
    z2 = factor_module(ring, Submodule(reg, [(2,)]))[0]
    m = direct_sum([reg] * free_summands + [z2] * 13)

    flag, (k, phi) = is_relatively_injective(m, reg)
    assert not flag
    kmod, incl = submodule_as_module(k)
    assert phi.source is kmod and phi.is_valid()
    restrictions = howell_span(
        m.orders * kmod.rank,
        [[x for r in incl.rows for x in gen.apply(r)]
         for gen in hom_group(reg, m).gen_maps()])
    assert not restrictions.contains([x for r in phi.rows for x in r])

    flag, (l, psi) = is_relatively_projective(m, reg)
    assert not flag
    q, proj = quotient_module(reg, l)
    assert psi.target.key == q.key and psi.is_valid()
    composites = howell_span(
        q.orders * m.rank,
        [[x for r in gen.rows for x in proj.apply(r)]
         for gen in hom_group(m, reg).gen_maps()])
    assert not composites.contains([x for r in psi.rows for x in r])


@pytest.mark.parametrize("name", SMALL_CORPUS)
def test_injectivity_reads_hom_only_when_a_restriction_needs_it(name):
    """is_relatively_injective(m, n) reads Hom(n, m) only at a K ⊊ n with
    Hom(K, m) ≠ 0: against a simple n (its one K ⊊ n is 0) it stores no
    hom basis for the pair, while against R, whose radical maps into R,
    it does.  Every module is injective relative to a simple one."""
    ring = load_ring(name)
    reg = regular_module(ring)
    asked = 0
    for m in [reg, *cyclic_modules_up_to_iso(ring)]:
        for n in simple_modules(ring):
            key = ("hom_bases", n.key, m.key)
            if key in ring._cache:
                continue  # stored by the isomorphism tests of the simples
            assert is_relatively_injective(m, n) == (True, None)
            assert key not in ring._cache, (name, m.label, n.label)
            asked += 1
    assert asked
    assert ("hom_bases", reg.key, reg.key) not in ring._cache
    is_relatively_injective(reg, reg)
    assert ("hom_bases", reg.key, reg.key) in ring._cache


def test_zero_module_over_another_ring_is_refused():
    """The zero module has no K ⊊ 0 to restrict to, so the relative
    injectivity test refuses a pair over two rings before any hom solve,
    in either order."""
    a, b = corpus("z8"), corpus("z4xf2")
    for m, n in ((zero_module(a), regular_module(b)),
                 (regular_module(a), zero_module(b)),
                 (zero_module(a), zero_module(b))):
        with pytest.raises(InputError, match="ring"):
            is_relatively_injective(m, n)


def test_modules_over_different_rings_are_refused():
    """Z/8 and Z/4 x F2 have the same order but are different rings: the
    hom solve, the sigma test and the direct sum refuse the pair, and the
    isomorphism test answers no.  A separately built copy of a ring is the
    same ring."""
    a = regular_module(corpus("z8"))
    b = regular_module(corpus("z4xf2"))
    for call in (hom_group, is_relatively_injective, sigma_contains,
                 lambda m, n: direct_sum([m, n])):
        with pytest.raises(InputError, match="ring"):
            call(a, b)
    # two factor modules R/0, each with its origin: no colon route either
    a0, b0 = (factor_module(m.ring, Submodule(m, []))[0] for m in (a, b))
    with pytest.raises(InputError, match="ring"):
        is_relatively_projective(a0, b0)
    assert is_isomorphic_modules(a, b) == (False, None)
    copy = regular_module(load_ring("z8"))
    assert hom_group(a, copy).size() == 8
    assert sigma_contains(a, copy)
    assert is_isomorphic_modules(a, copy)[0]
    assert direct_sum([a, copy]).order() == 64
