"""Profile lattices, fingerprints, poverty, and witness search."""

import hashlib
import importlib
import itertools
import json

import pytest

from ringscope.classify import classify_report, verify_suite
from ringscope.cli import _profile_json, load_ring
from ringscope.errors import InputError, TheoremViolationError
from ringscope import modules
from ringscope.hom import is_relatively_injective, is_relatively_projective
from ringscope.ideals import (
    ideals_in_radical,
    is_two_sided,
    jacobson_radical,
    right_ideals,
    two_sided_ideals,
)
from ringscope.lattice import are_isomorphic, build_lattice, lattice_product
from ringscope.modules import (
    Submodule,
    cyclic_modules_up_to_iso,
    cyclic_origin,
    direct_sum,
    factor_module,
    quotient_module,
    regular_module,
    submodule_as_module,
)
from ringscope.profile import (
    CyclicFingerprint,
    find_witness,
    has_middle_class,
    i_profile,
    inj_fingerprint,
    is_poor,
    killed_by,
    p_profile,
    profile,
    proj_fingerprint,
    semisimple_cyclics,
)
from ringscope.ring import zmod
from ringscope.torsion import all_linear_filters

from conftest import (
    DIFFERENTIAL_RINGS,
    RECIPE_RINGS,
    SMALL_CORPUS,
    corpus,
    drawn_rings,
    recipe_ring,
    simple_modules,
)
from oracle_utils import fingerprint_by_scan, killed_by_by_products
from test_cli_golden import GOLDEN

# the package re-exports the function profile(), which shadows the module
profile_mod = importlib.import_module("ringscope.profile")


def test_profile_sizes():
    expected = {"z8": 3, "z4xf2": 2, "t2f2": 2, "m2f2": 1,
                "quiver_f2": 4, "f2xy_j2": 5, "f2xy_x2y2": 6}
    for name, size in expected.items():
        ring = corpus(name)
        assert i_profile(ring).size == size
        assert p_profile(ring).size == size


def test_profiles_modular_and_coatomic_everywhere():
    for name in SMALL_CORPUS:
        rep = i_profile(corpus(name))
        assert rep.flags["modular"]
        assert rep.flags["coatomic"]


def test_profile_anti_isomorphic_to_radical_ideals():
    for name in SMALL_CORPUS:
        ring = corpus(name)
        rep = i_profile(ring)
        lat, nodes = ideals_in_radical(ring)
        ok, _ = are_isomorphic(rep.lattice, lat, anti=True)
        assert ok
        assert len(nodes) == rep.size


def test_i_and_p_profiles_agree_as_lattices():
    for name in SMALL_CORPUS:
        ring = corpus(name)
        ok, _ = are_isomorphic(i_profile(ring).lattice,
                               p_profile(ring).lattice)
        assert ok


def test_middle_class_flags():
    expected = {"z8": True, "z4xf2": False, "t2f2": False, "m2f2": False,
                "quiver_f2": True, "f2xy_j2": True, "f2xy_x2y2": True}
    for name, flag in expected.items():
        ring = corpus(name)
        assert has_middle_class(ring, "i") == flag
        assert has_middle_class(ring, "p") == flag


def test_fingerprint_intersection_law():
    for name in ("z8", "t2f2", "f2xy_j2"):
        ring = corpus(name)
        cyc = cyclic_modules_up_to_iso(ring)
        a, b = cyc[1], cyc[-1]
        lhs = inj_fingerprint(direct_sum([a, b]))
        assert lhs.members == (inj_fingerprint(a).members
                               & inj_fingerprint(b).members)
        lhs = proj_fingerprint(direct_sum([a, b]))
        assert lhs.members == (proj_fingerprint(a).members
                               & proj_fingerprint(b).members)


def test_product_law():
    prod = corpus("z4xf2")
    z4 = zmod(4)
    f2 = zmod(2)
    for kind in ("i", "p"):
        lhs = profile(prod, kind).lattice
        rhs = lattice_product(profile(z4, kind).lattice,
                              profile(f2, kind).lattice)
        ok, _ = are_isomorphic(lhs, rhs)
        assert ok


def test_semisimple_cyclics():
    ring = corpus("z8")
    fp = semisimple_cyclics(ring)
    reps = fp.modules()
    assert sorted(m.order() for m in reps) == [1, 2]
    assert semisimple_cyclics(corpus("m2f2")).members == \
        (1 << len(cyclic_modules_up_to_iso(corpus("m2f2")))) - 1


def test_poverty():
    for name in SMALL_CORPUS:
        ring = corpus(name)
        rj = factor_module(ring, jacobson_radical(ring))[0]
        assert is_poor(rj, "i")
        assert is_poor(direct_sum(simple_modules(ring)), "p")
    # the unique simple over Z/8 is i-poor on its own
    ring = corpus("z8")
    reg = regular_module(ring)
    simple = submodule_as_module(Submodule(reg, [(4,)]))[0]
    assert is_poor(simple, "i")


def test_regular_module_has_full_domains():
    for name in ("z8", "t2f2", "f2xy_x2y2"):
        ring = corpus(name)
        all_classes = (1 << len(cyclic_modules_up_to_iso(ring))) - 1
        assert proj_fingerprint(regular_module(ring)).members == all_classes


def test_fingerprints_compare_rings_by_contents():
    """One ring loaded twice gives equal fingerprints, as <= already says;
    equal members over different rings stay unequal."""
    a, b = load_ring("z8"), load_ring("z8")
    fa = inj_fingerprint(regular_module(a))
    fb = inj_fingerprint(regular_module(b))
    assert fa <= fb <= fa
    assert fa == fb and hash(fa) == hash(fb)
    assert fa != CyclicFingerprint(load_ring("z4xf2"), fa.members)


def test_killed_by_matches_proj_fingerprint_on_nodes():
    for name in ("z8", "quiver_f2", "f2xy_j2"):
        ring = corpus(name)
        for ideal in p_profile(ring).ideals:
            w = factor_module(ring, ideal)[0]
            assert proj_fingerprint(w) == killed_by(ring, ideal)


@pytest.mark.parametrize("group", DIFFERENTIAL_RINGS)
def test_killed_by_matches_the_products(group):
    """killed_by, read off the right-ideal lattice as I ⊆ L, keeps the
    classes C with C·I = 0 by module products, for every two-sided I."""
    for ring in DIFFERENTIAL_RINGS[group]():
        for ideal in two_sided_ideals(ring):
            assert killed_by(ring, ideal) == \
                killed_by_by_products(ring, ideal), ring.label


@pytest.mark.parametrize("group", DIFFERENTIAL_RINGS)
def test_killed_by_refuses_a_one_sided_ideal(group):
    """killed_by reads (R/L)·I = (I + L)/L, which holds for a two-sided I
    only; a right ideal that is not two-sided is refused, as eta_filter
    refuses it.  Each group has such an ideal."""
    refused = 0
    for ring in DIFFERENTIAL_RINGS[group]():
        for ideal in right_ideals(ring):
            if not is_two_sided(ring, ideal):
                with pytest.raises(InputError, match="two-sided"):
                    killed_by(ring, ideal)
                refused += 1
    assert refused


def test_killed_by_computes_no_module_product(monkeypatch):
    """Once the cyclic classes are listed, killed_by reads the lattice and
    multiplies no module by the ideal."""
    rings = [load_ring(name) for name in SMALL_CORPUS]  # fresh: no memo
    for ring in rings:
        cyclic_modules_up_to_iso(ring)

    def refuse(sub, ideal):
        raise AssertionError(f"{sub.parent.label} multiplied by an ideal")

    for mod in (modules, profile_mod):
        if hasattr(mod, "module_times_ideal"):
            monkeypatch.setattr(mod, "module_times_ideal", refuse)
    for ring in rings:
        for ideal in two_sided_ideals(ring):
            killed_by(ring, ideal)


def test_find_witness_p_always_verified():
    for name in ("z8", "t2f2", "f2xy_j2"):
        ring = corpus(name)
        for ideal in p_profile(ring).ideals:
            w = find_witness(ring, ideal, "p")
            assert proj_fingerprint(w) == killed_by(ring, ideal)


def test_find_witness_i_on_qf_ring():
    ring = corpus("z8")
    for ideal in i_profile(ring).ideals:
        w = find_witness(ring, ideal, "i")
        assert w is not None
        assert inj_fingerprint(w) == killed_by(ring, ideal)


def test_equal_modules_share_one_fingerprint():
    """Fingerprints are memoised on the ring by content: two builds of R/I
    with their own labels read one fingerprint object."""
    ring = load_ring("z4xf2")  # fresh, so nothing is memoised yet
    ideal = i_profile(ring).ideals[-1]
    reg = regular_module(ring)
    a, _ = quotient_module(reg, ideal, label="first")
    b, _ = quotient_module(reg, ideal, label="second")
    assert a is not b and (a.label, b.label) == ("first", "second")
    assert inj_fingerprint(a) is inj_fingerprint(b)
    assert proj_fingerprint(a) is proj_fingerprint(b)


def test_witness_labels_name_the_module_chosen():
    """A witness carries the label of the candidate find_witness chose, R/I
    or R, also at I = 0, where R/I has the content of R and shares its
    facts (z8 among others)."""
    shared = set()
    for name in SMALL_CORPUS:
        ring = corpus(name)
        reg = regular_module(ring)
        inj_fingerprint(reg)
        factor, regular = f"{ring.label}/I", reg.label
        rep = p_profile(ring)
        assert [w.label for w in rep.witnesses] == [factor] * rep.size
        if any(w.key == reg.key for w in rep.witnesses):
            shared.add(name)
        rep = i_profile(ring)
        for ideal, w in zip(rep.ideals, rep.witnesses):
            if w is not None:
                q, _ = factor_module(ring, ideal)
                realised = inj_fingerprint(q) == killed_by(ring, ideal)
                assert w.label == (factor if realised else regular)
    assert "z8" in shared


def test_profile_kind_validation():
    with pytest.raises(ValueError):
        profile(corpus("z8"), "x")


def test_profile_report_flags_quiver():
    rep = i_profile(corpus("quiver_f2"))
    assert rep.flags["has_middle_class"]
    assert not rep.flags["is_chain"]
    assert rep.flags["length"] == 2
    assert len(rep.flags["atoms"]) == 2 and len(rep.flags["coatoms"]) == 2


@pytest.mark.parametrize("name", ["t2f2", "f2xy_x2y2"])
def test_profiles_share_one_skeleton(monkeypatch, name):
    """i_profile then p_profile of one ring enumerate the filters once and
    report the same nodes, lattice and filters."""
    calls = []
    enumerate_filters = profile_mod.all_linear_filters

    def counted(*args, **kwargs):
        calls.append(args)
        return enumerate_filters(*args, **kwargs)

    monkeypatch.setattr(profile_mod, "all_linear_filters", counted)
    ring = load_ring(name)
    ip = i_profile(ring)
    pp = p_profile(ring)
    assert len(calls) == 1
    assert ip.ideals == pp.ideals
    assert ip.filters == pp.filters
    assert (ip.lattice.labels, ip.lattice.up) == \
        (pp.lattice.labels, pp.lattice.up)
    fresh = i_profile(load_ring(name))
    assert len(calls) == 2
    assert [f.members for f in fresh.filters] == \
        [f.members for f in ip.filters]


def test_profiles_build_one_factor_module_per_node(monkeypatch):
    """i_profile then p_profile build R/I once per node and share it: the
    node witnesses, the cyclic classes and the quotients of the
    projectivity test all read one factor module per right ideal, and
    none of them scans a listed right ideal for closure.  The
    i-witnesses are found when first read, once.  An R/I build is a
    quotient of the regular module."""
    real = modules.quotient_module
    calls, scans, kinds = [], [], []

    def counted(n, k, *args, **kwargs):
        if n is regular_module(n.ring):
            calls.append(k.gens)
        return real(n, k, *args, **kwargs)

    def scanned(sub):
        scans.append(sub.gens)
        return stable(sub)

    def witness(ring, ideal, kind):
        kinds.append(kind)
        return find_witness(ring, ideal, kind)

    stable = modules.Submodule.is_action_stable
    find_witness = profile_mod.find_witness
    monkeypatch.setattr(modules, "quotient_module", counted)
    monkeypatch.setattr(modules.Submodule, "is_action_stable", scanned)
    monkeypatch.setattr(profile_mod, "find_witness", witness)
    ring = load_ring("f2xy_x2y2")
    ip = i_profile(ring)
    pp = p_profile(ring)
    assert ip.size == 6
    assert len(calls) == len(set(calls))
    assert set(calls) == {i.gens for i in right_ideals(ring)}
    assert scans == []
    assert kinds == ["p"] * pp.size
    assert all(w in (None, v, regular_module(ring))
               for w, v in zip(ip.witnesses, pp.witnesses))
    assert ip.witnesses is i_profile(ring).witnesses
    assert kinds == ["p"] * pp.size + ["i"] * ip.size
    assert len(calls) == len(set(calls))


@pytest.mark.parametrize("name", SMALL_CORPUS)
def test_i_profile_read_after_the_reports_is_pinned(name):
    """The i-witnesses, found only when read, give the pinned output of
    `ringscope profile --kind i --json` also when they are read after
    classify_report and verify_suite have run on the ring."""
    ring = load_ring(name)
    classify_report(ring)
    if name != "quiver_f2":  # its verify_suite takes about 40 s
        verify_suite(ring)
    text = json.dumps(_profile_json(i_profile(ring)), sort_keys=True) + "\n"
    assert (0, hashlib.sha256(text.encode()).hexdigest()) == \
        GOLDEN[f"profile {name} --kind i --json"]


def test_profile_order_is_filter_inclusion():
    """Node a lies below node b iff η(I_a) ⊆ η(I_b), iff I_a ⊇ I_b."""
    for name in SMALL_CORPUS:
        rep = i_profile(corpus(name))
        for a in range(rep.size):
            for b in range(rep.size):
                below = rep.lattice.le(a, b)
                assert below == (rep.filters[a] <= rep.filters[b])
                assert below == rep.ideals[a].contains_sub(rep.ideals[b])


def test_skeleton_checks_filter_order_against_ideal_order(monkeypatch):
    """The anti-isomorphism check compares the filter order with the
    lattice that ideals_in_radical builds; a wrong ideal lattice fails."""
    real = profile_mod.ideals_in_radical

    def as_chain(ring):
        _, nodes = real(ring)
        return build_lattice(list(range(len(nodes))),
                             leq=lambda a, b: a <= b), nodes

    monkeypatch.setattr(profile_mod, "ideals_in_radical", as_chain)
    assert i_profile(load_ring("z8")).size == 3  # a chain: the check passes
    with pytest.raises(TheoremViolationError, match="anti-isomorphic"):
        i_profile(load_ring("f2xy_x2y2"))


def test_i_witness_is_the_factor_or_the_regular_module():
    """An i-witness is R/I or R when one of them realises the node, and
    None otherwise."""
    for name in ("z8", "t2f2", "quiver_f2"):
        ring = corpus(name)
        rep = i_profile(ring)
        for ideal, w in zip(rep.ideals, rep.witnesses):
            target = killed_by(ring, ideal)
            realising = [c.key for c in (factor_module(ring, ideal)[0],
                                         regular_module(ring))
                         if inj_fingerprint(c) == target]
            if w is None:
                assert not realising
            else:
                assert inj_fingerprint(w) == target
                assert w.key == realising[0]
    assert None in i_profile(corpus("t2f2")).witnesses


RELATIVE = (is_relatively_injective, is_relatively_projective)

FINGERPRINT_RINGS = {
    "corpus": lambda: [corpus(n) for n in SMALL_CORPUS + ("m2z4",)],
    "recipes": lambda: [recipe_ring(n) for n in RECIPE_RINGS],
    "drawn_7": lambda: drawn_rings(7),
}


def v2_modules(ring):
    """Every cyclic class, then every direct sum of two classes (the
    modules of V2)."""
    cyclics = cyclic_modules_up_to_iso(ring)
    return list(cyclics) + [direct_sum([a, b]) for a, b in
                            itertools.combinations_with_replacement(cyclics, 2)]


@pytest.mark.parametrize("group", FINGERPRINT_RINGS)
def test_filter_fingerprints_match_the_class_scan(group):
    """Both fingerprints, read through the domain's linear filter, equal
    the scan that tests every cyclic class: on every cyclic class, R, every
    R/I of a profile node and every direct sum of two classes."""
    for ring in FINGERPRINT_RINGS[group]():
        nodes = ideals_in_radical(ring)[1]
        mods = (v2_modules(ring) + [regular_module(ring)]
                + [factor_module(ring, i)[0] for i in nodes])
        for m in mods:
            for fingerprint, relative in zip(
                    (inj_fingerprint, proj_fingerprint), RELATIVE):
                assert fingerprint(m) == fingerprint_by_scan(m, relative), \
                    (ring.label, m.label, relative.__name__)


def counting(relative, calls):
    def counted(m, n):
        calls.append(n)
        return relative(m, n)
    return counted


def test_filter_fingerprints_save_relative_tests():
    """On V2's 230 modules of quiver_f2 (20 classes), the filter route,
    starting at J and so testing no semisimple class, makes 670 of the
    scan's 4,600 injectivity tests and 646 of its 4,600 projectivity
    tests."""
    ring = load_ring("quiver_f2")
    mods = v2_modules(ring)
    assert (len(mods), len(cyclic_modules_up_to_iso(ring))) == (230, 20)
    made = []
    for relative in RELATIVE:
        calls = []
        for m in mods:
            profile_mod._fingerprint(m, counting(relative, calls))
        made.append(len(calls))
    assert made == [670, 646]


@pytest.mark.parametrize("group", ["corpus", "drawn_7"])
def test_fingerprints_test_no_semisimple_class(group):
    """Every domain holds the semisimple modules, so the filter walk never
    asks either relative test about a class killed by J(R) (found by
    module products, not the lattice): on the V2 modules of the small
    corpus, m2z4 and the rings drawn at seed 7, where the other classes
    are still tested."""
    tested = 0
    for ring in FINGERPRINT_RINGS[group]():
        position = {id(c): t
                    for t, c in enumerate(cyclic_modules_up_to_iso(ring))}
        semisimple = killed_by_by_products(ring, jacobson_radical(ring))
        assert semisimple.members
        for relative in RELATIVE:
            calls = []
            for m in v2_modules(ring):
                profile_mod._fingerprint(m, counting(relative, calls))
            tested += len(calls)
            asked = {position[id(n)] for n in calls}
            assert not any(semisimple.members >> t & 1 for t in asked), \
                (ring.label, relative.__name__)
    assert tested


def _answers(ring):
    """classify_report, both profiles' sizes and flags, the linear filters
    and every cyclic class's fingerprints."""
    profiles = (i_profile(ring), p_profile(ring))
    return (classify_report(ring), [(p.size, p.flags) for p in profiles],
            [f.members for f in all_linear_filters(ring)],
            [(inj_fingerprint(c).members, proj_fingerprint(c).members)
             for c in cyclic_modules_up_to_iso(ring)])


def test_answers_do_not_follow_the_first_built_quotient():
    """Right ideals L ≠ L′ may give R/L and R/L′ one content, and
    cyclic_origin keeps the one built first.  Building every R/I in
    reverse index order on a fresh ring moves some of those origins and
    none of the answers."""
    pairs = [(load_ring(n), load_ring(n))
             for n in ("m2f2", "t2f2", "quiver_f2", "m2z4")]
    pairs += zip(drawn_rings(7), drawn_rings(7))
    moved = 0
    for plain, turned in pairs:
        for ideal in reversed(right_ideals(turned)):
            factor_module(turned, ideal)
        assert _answers(turned) == _answers(plain), plain.label
        moved += sum(
            cyclic_origin(factor_module(plain, a)[0])[0]
            != cyclic_origin(factor_module(turned, b)[0])[0]
            for a, b in zip(right_ideals(plain), right_ideals(turned)))
    assert moved
