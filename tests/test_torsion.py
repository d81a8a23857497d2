"""Linear filters of right ideals and the subgeneration calculus."""

import ast
import re

import pytest

from ringscope.cli import load_ring
from ringscope.errors import InputError
from ringscope.ideals import (
    jacobson_radical,
    right_ideal_lattice,
    two_sided_ideals,
)
from ringscope.modules import (
    Submodule,
    cyclic_modules_up_to_iso,
    element_annihilator,
    factor_module,
    regular_module,
)
from ringscope.profile import CyclicFingerprint
from ringscope.torsion import (
    LinearFilter,
    all_linear_filters,
    eta_filter,
    ideal_context,
    is_linear_filter,
    sigma_contains,
    sigma_filter,
)

from conftest import (
    DIFFERENTIAL_RINGS,
    GUARD_RINGS,
    RECIPE_RINGS,
    SMALL_CORPUS,
    TRIANGULAR_RINGS,
    corpus,
    drawn_rings,
    recipe_ring,
)
from oracle_utils import (
    colon_table,
    dense_el_mul,
    filter_axiom_failed,
    filters_by_upsets,
    mask,
    oracle_sigma,
    sigma_filter_by_elements,
    upset,
)


def idx_of(ring, gens):
    ctx = ideal_context(ring)
    reg = regular_module(ring)
    return ctx.index[Submodule(reg, gens).gens]


def oracle_colon(ring, t, r):
    """Index of (I_t : r) = {y : r·y ∈ I_t}, found by enumerating
    elements and matching element sets against the right-ideal list."""
    ctx = ideal_context(ring)
    members = set(ctx.ideals[t].elements())
    ys = {y for y in ring.elements() if dense_el_mul(ring, r, y) in members}
    return next(s for s, i in enumerate(ctx.ideals)
                if set(i.elements()) == ys)


def assert_f4_report_names_a_witness(ring, members, report):
    """The element named in an F4 report, on the bitset members, has its
    colon ideal outside."""
    match = re.fullmatch(r"F4: \((\d+) : (\(.*\))\) missing", report)
    assert match, report
    t, r = int(match.group(1)), ast.literal_eval(match.group(2))
    assert members >> t & 1
    assert not members >> oracle_colon(ring, t, r) & 1


def test_filter_axiom_f1():
    ring = corpus("z8")
    two = idx_of(ring, [(2,)])
    ok, report = is_linear_filter(ring, 1 << two)
    assert not ok and report.startswith("F1")


def test_filter_axiom_f3():
    ring = corpus("z8")
    top = idx_of(ring, [(1,)])
    four = idx_of(ring, [(4,)])
    # contains (4) and R but not the intermediate (2)
    ok, report = is_linear_filter(ring, 1 << top | 1 << four)
    assert not ok and report.startswith("F3")


def test_filter_axiom_f2():
    ring = corpus("m2f2")
    ctx = ideal_context(ring)
    up = right_ideal_lattice(ring).up
    a, b = [ctx.index[i.gens] for i in ctx.ideals if i.size() == 4][:2]
    members = up[a] | up[b]  # up-closed, misses a ∩ b = 0
    ok, report = is_linear_filter(ring, members)
    assert not ok and report.startswith("F2")


def test_filter_axiom_f4():
    ring = corpus("t2f2")
    ctx = ideal_context(ring)
    # up-sets of one-sided ideals fail F4: pick the span of E22
    from ringscope.ideals import is_two_sided

    one_sided = next(t for t, i in enumerate(ctx.ideals)
                     if i.size() == 2 and not is_two_sided(ring, i))
    members = right_ideal_lattice(ring).up[one_sided]
    ok, report = is_linear_filter(ring, members)
    assert not ok and report.startswith(("F2", "F4"))
    # and the E22 up-set specifically violates F4, not F2
    sizes = sorted(i.size() for t, i in enumerate(ctx.ideals)
                   if members >> t & 1)
    assert sizes == [2, 4, 8]
    assert report.startswith("F4")
    assert_f4_report_names_a_witness(ring, members, report)
    # every F4 report on a principal up-set names a real witness
    for name in ("t2f2", "m2f2"):
        ring = corpus(name)
        reports = [(up, is_linear_filter(ring, up)[1])
                   for up in right_ideal_lattice(ring).up]
        f4 = [(m, rep) for m, rep in reports if rep and rep.startswith("F4")]
        assert f4
        for members, rep in f4:
            assert_f4_report_names_a_witness(ring, members, rep)


@pytest.mark.parametrize("members", [31, 1 << 4, 128, -1])
def test_a_bitset_past_the_right_ideals_is_refused(members):
    """Z/8 has four right ideals, so a bitset with a bit at 4 or above,
    or a negative one, names no set of them, whichever bit comes first."""
    with pytest.raises(InputError, match="right ideals"):
        is_linear_filter(corpus("z8"), members)


def test_principal_filters_match_the_upset_walk():
    """The filters among the up(s), one per right ideal, are every filter
    that the walk over all up-sets finds, in the same order."""
    rings = ([corpus(n) for n in SMALL_CORPUS + ("m2z4",)]
             + [recipe_ring(n) for n in RECIPE_RINGS] + drawn_rings(7))
    assert len(rings) == len(SMALL_CORPUS) + 1 + len(RECIPE_RINGS) + 24
    for ring in rings:
        for above in (False, True):
            assert (all_linear_filters(ring, above_all_maximal=above)
                    == filters_by_upsets(ring, above)), (ring.label, above)


@pytest.mark.parametrize("name", SMALL_CORPUS + tuple(GUARD_RINGS)
                         + tuple(TRIANGULAR_RINGS))
def test_f4_at_the_least_member_matches_every_member(name):
    """is_linear_filter fails exactly where F4 on every member fails, with
    the same axiom letter, on the principal up-sets, their pairwise
    unions and the pairs {I, R}.  Each report names a witness: an F4
    report a colon ideal outside, an F2 report two members whose meet is
    outside, an F3 report a member t inside a non-member b."""
    ring = corpus(name)
    ctx = ideal_context(ring)
    lat = right_ideal_lattice(ring)
    ups = [upset(ctx, t) for t in range(len(ctx.ideals))]
    cands = ({a | b for a in ups for b in ups}
             | {frozenset({t, lat.top}) for t in range(len(ups))})
    letters = set()
    for members in cands:
        ok, report = is_linear_filter(ring, mask(members))
        failed = filter_axiom_failed(ring, members)
        assert ok == (failed is None), (members, report)
        if not ok:
            assert report[:2] == failed, (members, report)
        if failed == "F4":
            assert_f4_report_names_a_witness(ring, mask(members), report)
        elif failed == "F2":
            a, b = map(int, re.fullmatch(
                r"F2: intersection of members (\d+), (\d+) missing",
                report).groups())
            assert {a, b} <= members and lat.meet[a][b] not in members
        elif failed == "F3":
            t, b = map(int, re.fullmatch(
                r"F3: member (\d+) is contained in non-member (\d+)",
                report).groups())
            assert t in members and b not in members
            assert ctx.ideals[b].contains_sub(ctx.ideals[t])
        letters.add(failed)
    assert "F3" in letters


@pytest.mark.parametrize("group", DIFFERENTIAL_RINGS)
def test_f4_reports_name_a_witness(group):
    """F4 is checked at the additive generators of R/m only; each F4
    report on a principal up-set still names a ring element whose colon
    ideal, found by an element scan, is no member."""
    reports = 0
    for ring in DIFFERENTIAL_RINGS[group]():
        for members in right_ideal_lattice(ring).up:
            report = is_linear_filter(ring, members)[1]
            if report and report.startswith("F4"):
                assert_f4_report_names_a_witness(ring, members, report)
                reports += 1
    assert reports


@pytest.mark.parametrize("name", ["z8", "z4xf2", "t2f2", "m2f2", "f2xy_j2",
                                  "f2xy_x2y2"])
def test_colon_matches_element_oracle(name):
    """colon(t, r) is (I_t : r) for every ideal and element, and the
    oracle's colon_table(t) maps each of them to an element that gives it,
    although both are computed per coset."""
    ring = load_ring(name)   # fresh, so colon_table(t) runs before any colon
    ctx = ideal_context(ring)
    for t in range(len(ctx.ideals)):
        colons = colon_table(ctx, t)
        for r in ring.elements():
            assert ctx.colon(t, r) == oracle_colon(ring, t, r), (t, r)
        assert colons.keys() == {ctx.colon(t, r) for r in ring.elements()}
        assert all(oracle_colon(ring, t, r) == c for c, r in colons.items())


def test_eta_filter_basics():
    ring = corpus("z8")
    reg = regular_module(ring)
    zero = Submodule(reg, [])
    assert len(eta_filter(ring, zero)) == 4     # every right ideal
    jac = jacobson_radical(ring)
    assert len(eta_filter(ring, jac)) == 2      # (2) and R
    with pytest.raises(InputError):
        # one-sided span over T2(F2) is rejected
        t2 = corpus("t2f2")
        eta_filter(t2, Submodule(regular_module(t2), [(0, 0, 1)]))


def test_eta_filters_compare_rings_by_contents():
    """The η-filter of J is one filter for one ring loaded twice; equal
    members over different rings stay unequal."""
    a, b = load_ring("z8"), load_ring("z8")
    fa = eta_filter(a, jacobson_radical(a))
    fb = eta_filter(b, jacobson_radical(b))
    assert fa <= fb <= fa
    assert fa == fb and hash(fa) == hash(fb)
    assert fa != LinearFilter(load_ring("z4xf2"), fa.members)


def test_a_filter_never_equals_a_fingerprint():
    """LinearFilter and CyclicFingerprint share their index-set body, but
    equal members over one ring do not make a filter a fingerprint."""
    ring = corpus("z8")
    filt = sigma_filter(regular_module(ring))
    fp = CyclicFingerprint(ring, filt.members)
    assert filt != fp and fp != filt
    assert len({filt, fp}) == 2
    assert filt <= fp <= filt and len(filt) == len(fp)


def test_filter_counts():
    expected = {"z8": 4, "z4xf2": 6, "t2f2": 5, "m2f2": 2,
                "quiver_f2": 13, "f2xy_j2": 6, "f2xy_x2y2": 7}
    restricted = {"z8": 3, "z4xf2": 2, "t2f2": 2, "m2f2": 1,
                  "quiver_f2": 4, "f2xy_j2": 5, "f2xy_x2y2": 6}
    for name in expected:
        ring = corpus(name)
        assert len(all_linear_filters(ring)) == expected[name]
        assert len(all_linear_filters(ring, above_all_maximal=True)) == \
            restricted[name]


def test_every_filter_is_an_eta_filter():
    for name in SMALL_CORPUS:
        ring = corpus(name)
        filters = set(all_linear_filters(ring))
        etas = {eta_filter(ring, i) for i in two_sided_ideals(ring)}
        assert filters == etas
        # the generating ideal is recovered as the smallest member
        for i in two_sided_ideals(ring):
            assert eta_filter(ring, i).smallest_member() == i


def test_filters_closed_under_intersection_and_join():
    for name in ("z8", "t2f2", "f2xy_j2"):
        ring = corpus(name)
        filters = all_linear_filters(ring)
        members = {f.members for f in filters}
        for a in filters:
            for b in filters:
                assert a.members & b.members in members


def test_sigma_filter_examples():
    ring = corpus("z8")
    reg = regular_module(ring)
    assert len(sigma_filter(reg)) == 4  # 0 = ann(1) pulls in everything
    rj = factor_module(ring, jacobson_radical(ring))[0]
    assert sigma_filter(rj) == eta_filter(ring, jacobson_radical(ring))


def test_sigma_contains_examples():
    ring = corpus("z8")
    reg = regular_module(ring)
    z2 = factor_module(ring, Submodule(reg, [(2,)]))[0]
    z4 = factor_module(ring, Submodule(reg, [(4,)]))[0]
    assert sigma_contains(z4, z2)
    assert not sigma_contains(z2, z4)
    assert sigma_contains(reg, z4)
    # subgeneration is reflexive and transitive on these examples
    for m in (reg, z2, z4):
        assert sigma_contains(m, m)


@pytest.mark.parametrize("group", ["corpus", "recipes"])
def test_sigma_matches_the_element_annihilators(group):
    """σ[M]'s filter, up(ann M), is the up-set of the meet of M's element
    annihilators; and N ∈ σ[M], read as ann(N) in that filter, holds
    exactly when every element annihilator of N is in it.  On every
    cyclic class and R, over the small corpus, m2z4 and the recipe
    rings."""
    for ring in DIFFERENTIAL_RINGS[group]():
        ctx = ideal_context(ring)
        mods = cyclic_modules_up_to_iso(ring) + [regular_module(ring)]
        filters = [sigma_filter_by_elements(m) for m in mods]
        anns = [mask(ctx.index[element_annihilator(n, x).gens]
                     for x in n.elements()) for n in mods]
        for m, filt in zip(mods, filters):
            assert sigma_filter(m) == filt
            for n, ann in zip(mods, anns):
                assert sigma_contains(m, n) == (not ann & ~filt.members)


def test_sigma_contains_matches_embedding_oracle():
    for name in ("z8", "z4xf2", "t2f2", "f2xy_j2"):
        ring = corpus(name)
        cyc = cyclic_modules_up_to_iso(ring)
        for m in cyc:
            for n in cyc:
                assert sigma_contains(m, n) == oracle_sigma(m, n)


def test_sigma_comparability_on_chain_ring():
    # over a chain ring the sigma classes of cyclics are totally ordered
    ring = corpus("z8")
    cyc = cyclic_modules_up_to_iso(ring)
    for m in cyc:
        for n in cyc:
            assert sigma_contains(m, n) or sigma_contains(n, m)
