"""Modules: submodule enumeration, socle/radical, isomorphism testing.

Submodule counts are cross-checked against an exhaustive subgroup-closure
oracle that never touches the linear algebra.
"""

import itertools

import pytest

from ringscope import hom, modules
from ringscope.cli import load_ring
from ringscope.errors import BoundExceededError, InputError, TheoremViolationError
from ringscope.exactla import ModMatrix, howell_span, quotient_presentation
from ringscope.ideals import jacobson_radical, right_ideals
from ringscope.modules import (
    ModuleMap,
    RightModule,
    Submodule,
    additive_type,
    annihilator,
    cyclic_modules_up_to_iso,
    cyclic_span,
    direct_sum,
    element_annihilator,
    enumerate_modules,
    factor_module,
    full_submodule,
    is_isomorphic_modules,
    minimal_submodules,
    module_times_ideal,
    quotient_module,
    radical_series,
    regular_module,
    socle,
    socle_series,
    submodule_as_module,
    submodules,
    verify_module_axioms,
    zero_submodule,
)
from ringscope.ring import product_ring, same_ring, table_ring, zmod

from conftest import (DIFFERENTIAL_RINGS, RECIPE_RINGS, SMALL_CORPUS, corpus,
                      drawn_rings, recipe_ring)
from oracle_utils import (
    act_by_loop,
    additive_closure,
    brute_maps,
    brute_subgroup_spans,
    cyclic_classes_by_scan,
    is_bijective,
    iso_by_hom_scan,
    join_all_submodules,
    minimal_submodules_by_pairs,
    modules_by_scan,
    submodule_intersection,
    submodules_by_socle_walk,
)


def test_submodule_counts_match_subgroup_oracle():
    expected = {"z8": 4, "z4xf2": 6, "t2f2": 7, "m2f2": 5}
    for name, count in expected.items():
        reg = regular_module(corpus(name))
        subs = submodules(reg)
        assert len(subs) == count
        oracle = brute_subgroup_spans(reg)
        assert {frozenset(s.elements()) for s in subs} == oracle


def test_submodules_are_action_stable_and_sorted():
    reg = regular_module(corpus("quiver_f2"))
    subs = submodules(reg)
    assert len(subs) == 28
    assert all(s.is_action_stable() for s in subs)
    sizes = [s.size() for s in subs]
    assert sizes == sorted(sizes)
    assert subs[0] == zero_submodule(reg)
    assert subs[-1] == full_submodule(reg)


def _walked_modules(ring, limit):
    """R, and R² with three of its quotients when |R²| ≤ limit: the
    modules whose submodules submodules() walks."""
    reg = regular_module(ring)
    mods = [reg]
    if reg.order() ** 2 <= limit:
        free = direct_sum([reg, reg], label="R^2")
        subs = submodules(free)
        mods += [free] + [quotient_module(free, subs[t])[0]
                          for t in (1, len(subs) // 2, -2)]
    return mods


def _oracle_jgens(m):
    """The rows of J(R) the socle walk steps by on m; none on the
    regular module, whose walk lists the right ideals J is read off."""
    if m.key == regular_module(m.ring).key:
        return ()
    return jacobson_radical(m.ring).gens.rows


@pytest.mark.parametrize("source", [*RECIPE_RINGS, *SMALL_CORPUS, "m2z4"])
def test_socle_walk_matches_the_join_route(source):
    """submodules() walks by covers; the join of every submodule with
    every cyclic one must give the same list, in the same order, on R, on
    R² and on three quotients of R², up to order 256.  The join route
    takes seconds on R² of the order-16 recipe rings (600 submodules), so
    there only R is compared."""
    recipe = source in RECIPE_RINGS
    ring = recipe_ring(source) if recipe else corpus(source)
    for m in _walked_modules(ring, 144 if recipe else 256):
        assert submodules(m) == join_all_submodules(m), m.label


@pytest.mark.parametrize("group", DIFFERENTIAL_RINGS)
def test_cover_walk_matches_the_oracles(group):
    """The walk by covers lists what the socle walk of oracle_utils lists
    on R, on R² up to order 256 and three of its quotients, and on every
    cyclic class, forced through the walk instead of the right-ideal
    lattice; so does the join route, except on R², where it takes seconds
    (the test above runs it there on the corpus and recipe rings).  A
    ring the draw repeats is checked once."""
    checked = []
    for ring in DIFFERENTIAL_RINGS[group]():
        if any(same_ring(ring, r) for r in checked):
            continue
        checked.append(ring)
        walked = _walked_modules(ring, 256)
        free = walked[1] if len(walked) > 1 else None
        for m in walked + list(cyclic_modules_up_to_iso(ring)):
            listed = modules._walk_submodules(m)[0]
            assert listed == submodules_by_socle_walk(m, _oracle_jgens(m)), \
                (ring.label, m.label)
            if m is not free:
                assert listed == join_all_submodules(m), (ring.label, m.label)


def _cover_edges(subs):
    """The pairs (S, T) of the sorted list subs with T covering S, by the
    scan over all pairs: S ⊊ T with nothing strictly between."""
    sizes = [s.size() for s in subs]
    down = [{a for a in range(b) if sizes[a] < sizes[b]
             and subs[b].contains_sub(subs[a])} for b in range(len(subs))]
    return {(a, b) for b in range(len(subs))
            for a in down[b] - set().union(*(down[c] for c in down[b]))}


@pytest.mark.parametrize("name, rank", [("z4xf2", 2), ("t2f2", 2),
                                        ("quiver_f2", 1)])
def test_the_walk_makes_one_sum_per_cover_edge(monkeypatch, name, rank):
    """From each S the walk sums S + c only for a c that no cover already
    found from S holds, so it makes one Howell sum per cover edge of the
    lattice it returns, and presents no N/S."""
    reg = regular_module(load_ring(name))  # fresh: nothing memoised
    m = direct_sum([reg] * rank) if rank > 1 else reg
    sums, presented = [], []
    real_sum, real_present = (modules.submodule_sum,
                              modules.quotient_presentation)
    monkeypatch.setattr(modules, "submodule_sum",
                        lambda a, b: sums.append(b) or real_sum(a, b))
    monkeypatch.setattr(modules, "quotient_presentation",
                        lambda *args: presented.append(args)
                        or real_present(*args))
    subs = modules._walk_submodules(m)[0]
    monkeypatch.undo()
    assert presented == []
    assert len(sums) == len(_cover_edges(subs)) > len(subs) - 1


def test_submodules_over_a_ring_too_large_to_list_its_ideals():
    """Z/2 over Z/8192: the right ideals are past the enumeration bound,
    so no lattice is read; the walk by covers steps by the cyclic
    submodules of Z/2 itself and needs no radical."""
    ring = zmod(8192)
    reg = regular_module(ring)
    q, _ = quotient_module(reg, Submodule(reg, [[2]]))
    assert [s.size() for s in submodules(q)] == [1, 2]


# F2[x]/(x²) on the basis 1, x
DUAL_NUMBERS = table_ring((2, 2), [[(1, 0), (0, 1)], [(0, 1), (0, 0)]],
                          (1, 0))


@pytest.mark.parametrize("ring, orders, action, report", [
    (zmod(4), (2,), [[(1,)]], None),
    # "action" of 1 sends the order-2 generator to an order-4 element
    (zmod(4), (2, 4), [[(0, 1), (0, 1)]],
     "action of g0 not additive on generator 0"),
    # 1 has order 2 in Z/2, but acts on Z/4 as the identity
    (zmod(2), (4,), [[(1,)]], "action of g0 ignores the order of g0"),
    (zmod(3), (3, 3), [[(1, 0), (0, 2)]],
     "identity does not fix module generator 1"),
    # x acts as the identity on F2, but x·x = 0
    (DUAL_NUMBERS, (2,), [[(1,)], [(1,)]],
     "action incompatible with g1*g1 on generator 0"),
])
def test_module_axioms_report_the_first_broken_check(ring, orders, action,
                                                    report):
    """Each broken module fails its first check, with that check's report."""
    assert verify_module_axioms(RightModule(ring, orders, action)) == report


def test_module_axioms_reject_broken_action():
    ring = zmod(4)
    # "action" of 1 sends the order-2 generator to an order-4 element
    m = RightModule(ring, (2,), [[(1,)]])
    bad = RightModule(ring, (2, 4), [[(0, 1), (0, 1)]])
    assert verify_module_axioms(m) is None
    assert verify_module_axioms(bad) is not None


def test_cyclic_span_z8():
    reg = regular_module(corpus("z8"))
    assert cyclic_span(reg, (2,)).size() == 4
    assert cyclic_span(reg, (6,)).size() == 4
    assert cyclic_span(reg, (4,)).size() == 2


@pytest.mark.parametrize("name", SMALL_CORPUS + ("m2z4",))
def test_minimal_submodules_match_the_pairwise_scan(name):
    """On R, R/J, every cyclic class and, for rings of order 8 or less,
    R^2: testing each candidate against the minimal submodules found so
    far lists what the scan over all pairs lists."""
    ring = corpus(name)
    reg = regular_module(ring)
    mods = [reg, factor_module(ring, jacobson_radical(ring))[0],
            *cyclic_modules_up_to_iso(ring)]
    if ring.order() <= 8:
        mods.append(direct_sum([reg, reg]))
    for m in mods:
        assert minimal_submodules(m) == minimal_submodules_by_pairs(m), \
            m.label


def test_socle_and_series_z8():
    reg = regular_module(corpus("z8"))
    assert socle(reg).size() == 2          # (4)
    chain, loewy = socle_series(reg)
    assert loewy == 3
    assert [s.size() for s in chain] == [1, 2, 4, 8]
    rad = radical_series(reg)
    assert [s.size() for s in rad] == [8, 4, 2, 1]


def test_socle_of_t2_and_quiver():
    assert socle(regular_module(corpus("t2f2"))).size() == 4
    _, loewy = socle_series(regular_module(corpus("t2f2")))
    assert loewy == 2
    _, loewy = socle_series(regular_module(corpus("quiver_f2")))
    assert loewy == 2


def test_annihilator_of_direct_sum_is_intersection():
    for name in ("z8", "t2f2", "f2xy_j2"):
        ring = corpus(name)
        cyc = cyclic_modules_up_to_iso(ring)
        a, b = cyc[1], cyc[-1]
        lhs = annihilator(direct_sum([a, b]))
        rhs = submodule_intersection(annihilator(a), annihilator(b))
        assert lhs == rhs


@pytest.mark.parametrize("name", SMALL_CORPUS)
def test_act_matches_the_coordinate_loop(name):
    """x·r as r times the matrix of x's images is the sum over the ring
    generators taken one coordinate at a time, for every element x of
    every cyclic class and of R, and every ring element r."""
    ring = corpus(name)
    elements = list(ring.elements())
    for m in cyclic_modules_up_to_iso(ring) + [regular_module(ring)]:
        for x in m.elements():
            for r in elements:
                assert m.act(x, r) == act_by_loop(m, x, r)


def test_element_annihilator_brute_force():
    for name in ("z8", "t2f2"):
        ring = corpus(name)
        reg = regular_module(ring)
        for x in reg.elements():
            ann = element_annihilator(reg, x)
            brute = {tuple(r) for r in ring.elements()
                     if reg.act(x, r) == reg.zero}
            assert set(ann.elements()) == brute


def test_quotient_module_projection_and_section():
    reg = regular_module(corpus("z8"))
    k = Submodule(reg, [(4,)])
    q, proj = quotient_module(reg, k)
    assert q.order() == 4
    assert proj.is_valid()
    for i in range(q.rank):
        lifted = proj.section[i]
        assert proj.apply(lifted) == q.generator(i)


def test_quotient_rejects_unstable_span():
    reg = regular_module(corpus("t2f2"))
    # single basis vector E11 does not span a right ideal
    with pytest.raises(InputError):
        quotient_module(reg, Submodule(reg, [(1, 0, 0)]))
    with pytest.raises(InputError, match="not closed under the ring action"):
        submodule_as_module(Submodule(reg, [(1, 0, 0)]))


def test_quotient_rejects_a_submodule_of_another_module():
    """Over F2 x F2, the regular module and S1 + S1 (S1 the simple module
    on which the first factor acts as 1) share the orders (2, 2); the
    diagonal is a submodule of the second but not of the first."""
    ring = product_ring([zmod(2), zmod(2)])
    reg = regular_module(ring)
    s1 = factor_module(ring, Submodule(reg, [(0, 1)]))[0]
    m2 = direct_sum([s1, s1])
    assert m2.orders == reg.orders and m2.key != reg.key
    k = Submodule(m2, [(1, 1)])
    assert k.is_action_stable()
    assert quotient_module(m2, k)[0].order() == 2
    with pytest.raises(InputError, match="does not live in"):
        quotient_module(reg, k)
    with pytest.raises(InputError, match="not closed under"):
        quotient_module(reg, Submodule(reg, [(1, 1)]))
    with pytest.raises(InputError, match="not closed under"):
        factor_module(reg.ring, Submodule(reg, [(1, 1)]))  # not listed


def test_cyclic_class_counts():
    expected = {"z8": 4, "t2f2": 6, "m2f2": 3, "f2xy_j2": 6, "f2xy_x2y2": 7}
    for name, count in expected.items():
        reps = cyclic_modules_up_to_iso(corpus(name))
        assert len(reps) == count
        for a, b in zip(reps, reps[1:]):
            assert not is_isomorphic_modules(a, b)[0]


@pytest.mark.parametrize("group", DIFFERENTIAL_RINGS)
def test_cyclic_classes_match_the_unbucketed_scan(group):
    """Comparing each R/L only with the classes of its interval shape keeps
    the representatives, in order, of comparing it with every class found
    so far by the all-maps scan."""
    for ring in DIFFERENTIAL_RINGS[group]():
        assert [m.key for m in cyclic_modules_up_to_iso(ring)] == \
            [m.key for m in cyclic_classes_by_scan(ring)], ring.label


@pytest.mark.parametrize("group", DIFFERENTIAL_RINGS)
def test_listed_submodules_are_closed_under_the_action(group):
    """Every member of submodules(R), and on the corpus and recipe rings of
    submodules(R²), passes the closure scan that quotient_module skips for
    them (closed=True in factor_module and enumerate_modules)."""
    for ring in DIFFERENTIAL_RINGS[group]():
        reg = regular_module(ring)
        modules_checked = [reg]
        if group in ("corpus", "recipes") and \
                reg.order() ** 2 <= modules.SUBMODULE_ENUM_BOUND:
            modules_checked.append(direct_sum([reg, reg]))
        for m in modules_checked:
            assert all(s.is_action_stable() for s in submodules(m)), \
                (ring.label, m.label)


def test_cyclic_classes_reach_hom_group_past_the_cores(monkeypatch):
    """The cyclic classes of the rings drawn at seed 7 make 168 isomorphism
    tests; unequal annihilator cores answer all but 7 of them before any
    hom solve.  Over F_p each R/L is read off the echelon form of L, so
    distinct L often give one content, which is skipped untested."""
    reached = []
    real_iso, real_hom = modules.is_isomorphic_modules, hom.hom_group

    def counted_hom(a, b):
        reached[-1] = True
        return real_hom(a, b)

    monkeypatch.setattr(modules, "is_isomorphic_modules",
                        lambda a, b: reached.append(False) or real_iso(a, b))
    monkeypatch.setattr(hom, "hom_group", counted_hom)
    for ring in drawn_rings(7):
        cyclic_modules_up_to_iso(ring)
    assert (len(reached), sum(reached)) == (168, 7)


def test_cyclic_classes_z8_orders():
    assert [m.order() for m in cyclic_modules_up_to_iso(corpus("z8"))] == \
        [1, 2, 4, 8]


def test_isomorphic_minimal_ideals_of_matrix_ring():
    ring = corpus("m2f2")
    atoms = minimal_submodules(regular_module(ring))
    assert len(atoms) == 3
    mods = [submodule_as_module(a)[0] for a in atoms]
    for other in mods[1:]:
        flag, witness = is_isomorphic_modules(mods[0], other)
        assert flag
        assert witness.is_valid()
        assert witness.image_span().span_size() == other.order()


def test_non_isomorphic_same_order():
    # over Z/4 x F/2: simple at the Z/4 spot vs simple at the F/2 spot
    ring = corpus("z4xf2")
    reg = regular_module(ring)
    a = submodule_as_module(Submodule(reg, [(2, 0)]))[0]
    b = submodule_as_module(Submodule(reg, [(0, 1)]))[0]
    assert a.order() == b.order() == 2
    assert not is_isomorphic_modules(a, b)[0]


def test_isomorphism_witness_is_bijective_map():
    ring = corpus("t2f2")
    reg = regular_module(ring)
    flag, witness = is_isomorphic_modules(reg, reg)
    assert flag
    images = {witness.apply(x) for x in reg.elements()}
    assert len(images) == reg.order()


def _same_as_brute_force(a, b):
    """is_isomorphic_modules(a, b) agrees with a search of every module
    map for a bijection, and a witness it returns is one."""
    flag, witness = is_isomorphic_modules(a, b)
    assert flag == any(is_bijective(f) for f in brute_maps(a, b))
    if flag:
        assert witness.is_valid() and is_bijective(witness)
    return flag


def test_cyclic_isomorphisms_match_brute_force():
    """Every R/I of order <= 8 against each cyclic class of its order."""
    pairs = 0
    for name in SMALL_CORPUS:
        ring = corpus(name)
        classes = cyclic_modules_up_to_iso(ring)
        for ideal in right_ideals(ring):
            q = factor_module(ring, ideal)[0]
            if q.order() > 8:
                continue
            same = [c for c in classes if c.order() == q.order()]
            assert sum(_same_as_brute_force(q, c) for c in same) == 1
            pairs += len(same)
    assert pairs == 153


def test_rank_two_classes_are_pairwise_non_isomorphic():
    pairs = 0
    for name in ("z8", "z4xf2", "t2f2"):
        mods = enumerate_modules(corpus(name), 2, 8)
        for t, a in enumerate(mods):
            for b in mods[t + 1:]:
                if a.order() == b.order():
                    assert not _same_as_brute_force(a, b)
                    pairs += 1
    assert pairs == 28


def _same_as_hom_scan(a, b):
    """is_isomorphic_modules(a, b) agrees with the scan of every map of
    Hom(a, b), and a witness it returns is a bijective module map."""
    flag, witness = is_isomorphic_modules(a, b)
    assert flag == iso_by_hom_scan(a, b)[0]
    if flag:
        assert witness.is_valid() and is_bijective(witness)
    return flag


def test_cyclic_isomorphisms_match_the_hom_scan():
    """Every R/I against each cyclic class of its order: the End-size
    check and the walk over the tops answer as the all-maps scan."""
    pairs = 0
    for name in SMALL_CORPUS + ("m2z4",):
        ring = corpus(name)
        classes = cyclic_modules_up_to_iso(ring)
        for ideal in right_ideals(ring):
            q = factor_module(ring, ideal)[0]
            same = [c for c in classes if c.order() == q.order()]
            assert sum(_same_as_hom_scan(q, c) for c in same) == 1
            pairs += len(same)
    assert pairs == 206


def test_rank_two_isomorphisms_match_the_hom_scan():
    """Every quotient of R^2 of order <= 16 against each class of its
    order.  quiver_f2 sits this out: walking the 5907 submodules of its
    R^2 and the pairs they give takes about 9 s."""
    pairs = 0
    for name in SMALL_CORPUS:
        if name == "quiver_f2":
            continue
        ring = corpus(name)
        classes = enumerate_modules(ring, 2, 16)
        free = direct_sum([regular_module(ring)] * 2)
        for s in submodules(free):
            if free.order() // s.size() > 16:
                continue
            q = quotient_module(free, s)[0]
            same = [c for c in classes if c.order() == q.order()]
            assert sum(_same_as_hom_scan(q, c) for c in same) == 1
            pairs += len(same)
    assert pairs == 2294


@pytest.mark.parametrize("group", ["corpus", "recipes"])
def test_module_classes_match_the_scan(group):
    """Skipping the contents classified before and comparing a new one only
    with the classes of its bucket keeps the representatives, in order, of
    comparing every quotient of R^2 with every class found so far.  Rings
    of order <= 16 only, quiver_f2 sitting out as above.  The other
    DIFFERENTIAL_RINGS groups sit out too: the guard and triangular rings
    have order 32 and 64, and the seven distinct rings of order <= 16 that
    the seed-7 draw makes take about 5 s, against 1.4 s for these two
    groups, while the recipe rings hold quivers over F2 of that order."""
    for ring in DIFFERENTIAL_RINGS[group]():
        if ring.order() > 16 or ring is corpus("quiver_f2"):
            continue
        assert [m.key for m in enumerate_modules(ring, 2, 16)] == \
            [m.key for m in modules_by_scan(ring, 2, 16)], ring.label


@pytest.mark.parametrize("name, calls", [("t2f2", 40), ("f2xy_j2", 262)])
def test_enumeration_tests_each_content_once(monkeypatch, name, calls):
    """No isomorphism test compares two equal contents, at rank 1 or 2;
    the pinned count shows that the buckets and the skip stay in force."""
    ring = load_ring(name)  # fresh: nothing memoised
    real = modules.is_isomorphic_modules
    pairs = []
    monkeypatch.setattr(modules, "is_isomorphic_modules",
                        lambda a, b: pairs.append((a.key, b.key))
                        or real(a, b))
    enumerate_modules(ring, 2, 64)
    assert not any(a == b for a, b in pairs)
    assert len(pairs) == calls


def test_rank_one_enumeration_reads_no_radical_series(monkeypatch):
    """The buckets of the rank-2 loop are made only when it runs."""
    def refuse(m):
        raise AssertionError(f"radical series of {m.label} read at rank 1")

    monkeypatch.setattr(modules, "radical_series", refuse)
    for name in SMALL_CORPUS:
        assert enumerate_modules(load_ring(name), 1, 64)


def _hom_free_invariants(m):
    """Isomorphism invariants computed without Hom: order, additive type,
    submodule count, radical and socle series sizes, the annihilator and
    the multiset of element annihilators."""
    return (m.order(), additive_type(m.orders), len(submodules(m)),
            [s.size() for s in radical_series(m)],
            [s.size() for s in socle_series(m)[0]],
            annihilator(m).gens.rows,
            sorted(element_annihilator(m, x).gens.rows
                   for x in m.elements()))


@pytest.mark.parametrize("name, classes", [("t2f2", 18), ("f2xy_x2y2", 32)])
def test_rank_two_classes_differ_in_hom_free_invariants(name, classes):
    """Each pair of rank-2 classes is told apart without Hom, so no two
    classes are isomorphic; the pinned count shows none was merged."""
    mods = enumerate_modules(corpus(name), 2, 64)
    assert len(mods) == classes
    invariants = [_hom_free_invariants(m) for m in mods]
    for t, inv in enumerate(invariants):
        assert inv not in invariants[t + 1:]


def test_isomorphism_witness_must_pass_the_map_check(monkeypatch):
    """A hom basis holding a non-map is caught by the witness check."""
    ring = load_ring("t2f2")  # fresh, so the hom memo is not shared
    reg = regular_module(ring)
    swap = [reg.generator(1), reg.generator(0), reg.generator(2)]
    assert not ModuleMap(reg, reg, swap).is_valid()
    flat = [x for row in swap for x in row]
    monkeypatch.setattr(hom, "_hom_kernel",
                        lambda a, b: howell_span(b.orders * a.rank, [flat]))
    with pytest.raises(TheoremViolationError, match="non-map"):
        is_isomorphic_modules(reg, reg)


def test_a_lift_onto_the_top_must_be_onto(monkeypatch):
    """With b/b posing as the top, the zero map is onto the top; the full
    image check of the lift catches it."""
    reg = regular_module(load_ring("t2f2"))
    monkeypatch.setattr(modules, "_top",
                        lambda b: quotient_module(b, full_submodule(b)))
    with pytest.raises(TheoremViolationError,
                       match="lifts to a map that is not onto"):
        is_isomorphic_modules(reg, reg)


def test_hom_groups_of_unequal_size_answer_before_the_tops(monkeypatch):
    """|Hom(a, b)| = 1 but |End(b)| = 2, so the z4xf2 simples are told
    apart without building a top."""
    reg = regular_module(corpus("z4xf2"))
    a = submodule_as_module(Submodule(reg, [(2, 0)]))[0]
    b = submodule_as_module(Submodule(reg, [(0, 1)]))[0]
    assert hom.hom_group(a, b).size() == 1
    assert hom.hom_group(b, b).size() == 2

    def no_top(m):
        raise AssertionError("the top was built")

    monkeypatch.setattr(modules, "_top", no_top)
    assert is_isomorphic_modules(a, b) == (False, None)


def test_isomorphism_search_is_bounded_by_the_hom_group(monkeypatch):
    reg = regular_module(corpus("t2f2"))
    monkeypatch.setattr(modules, "ISO_SEARCH_BOUND", 4)
    with pytest.raises(BoundExceededError,
                       match="^hom group of order 8 exceeds bound 4$"):
        is_isomorphic_modules(reg, reg)


def test_module_bounds_below_one_are_refused():
    ring = corpus("f2xy_x2y2")
    with pytest.raises(InputError, match="rank 0 and order 64"):
        enumerate_modules(ring, 0)
    with pytest.raises(InputError, match="rank 2 and order 0"):
        enumerate_modules(ring, 2, max_order=0)


def test_enumerate_modules_z8():
    mods = enumerate_modules(corpus("z8"), max_free_rank=1, max_order=8)
    assert [m.order() for m in mods] == [1, 2, 4, 8]
    mods2 = enumerate_modules(corpus("z8"), max_free_rank=2, max_order=64)
    # quotients of Z/8 ⊕ Z/8: one class per pair d2 | d1 | 8
    assert sorted(tuple(sorted(m.orders)) for m in mods2) == sorted([
        (), (2,), (4,), (8,), (2, 2), (2, 4), (2, 8), (4, 4), (4, 8), (8, 8)])


def test_enumeration_bound_is_enforced():
    with pytest.raises(BoundExceededError):
        enumerate_modules(corpus("m2z4"), max_free_rank=2)


@pytest.mark.parametrize("max_order", [4, 64])
def test_rank_one_modules_are_the_cyclic_classes(max_order):
    """The rank-1 layer is the cyclic classes of order <= max_order, and
    every R/I of that order is isomorphic to exactly one of them."""
    for name in SMALL_CORPUS:
        ring = corpus(name)
        mods = enumerate_modules(ring, 1, max_order)
        assert [m.key for m in mods] == [
            c.key for c in cyclic_modules_up_to_iso(ring)
            if c.order() <= max_order]
        reg = regular_module(ring)
        for ideal in submodules(reg):
            if reg.order() // ideal.size() > max_order:
                continue
            q = factor_module(ring, ideal)[0]
            assert sum(is_isomorphic_modules(q, m)[0] for m in mods) == 1


def test_rank_one_bounds_are_checked_before_the_cyclic_classes(monkeypatch):
    with pytest.raises(BoundExceededError,
                       match="^free module of order 5000 not enumerable$"):
        enumerate_modules(zmod(5000), max_free_rank=1)
    ring = load_ring("t2f2")
    monkeypatch.setattr(modules, "FREE_SUBMODULE_CEILING", 6)
    with pytest.raises(BoundExceededError,
                       match="^7 submodules of R\\^1 exceed ceiling 6$"):
        enumerate_modules(ring, max_free_rank=1)
    assert "cyclic_classes" not in ring._cache


def test_socle_cross_check_runs_on_corpus():
    # socle() hard-verifies minimal-sum == radical-annihilator internally
    for name in SMALL_CORPUS:
        reg = regular_module(corpus(name))
        assert socle(reg).is_action_stable()


def test_submodule_presentation_is_shared():
    for name in ("z8", "t2f2", "z4xf2"):
        reg = regular_module(corpus(name))
        for s in submodules(reg):
            again = Submodule(reg, list(s.gens.rows) * 2 + [reg.zero])
            assert again is not s and again == s
            assert submodule_as_module(again) is submodule_as_module(s)
            mod, incl = submodule_as_module(again)
            assert mod.order() == s.size()
            assert Submodule(reg, incl.rows) == s


def test_quotient_module_presents_each_content_once(monkeypatch):
    """quotient_module(N, S) presents N/S once per content: again, and
    from an equal N built separately, it reads the same presentation."""
    reg = regular_module(load_ring("z4xf2"))  # fresh: nothing memoised
    free = direct_sum([reg, reg])
    subs = submodules(free)
    calls = []
    real = modules.quotient_presentation
    monkeypatch.setattr(modules, "quotient_presentation",
                        lambda *args: calls.append(args) or real(*args))
    for s in subs:
        quotient_module(free, s)
    assert len(calls) == len(subs)
    for s in subs:
        quotient_module(free, s)
    twin = direct_sum([reg, reg])
    assert twin is not free and twin.key == free.key
    quotient_module(twin, Submodule(twin, subs[1].gens))
    assert len(calls) == len(subs)
    triple = direct_sum([reg, reg, reg])
    quotient_module(triple, zero_submodule(triple))
    assert len(calls) == len(subs) + 1


def test_equal_modules_keep_their_labels_and_share_their_submodules():
    """Two builds of R/I are two objects carrying the caller's labels, and
    the submodule walk, memoised on the ring by content, runs once."""
    ring = load_ring("z4xf2")  # fresh, so nothing is memoised yet
    ideal = right_ideals(ring)[1]
    reg = regular_module(ring)
    a, _ = quotient_module(reg, ideal, label="first")
    b, _ = quotient_module(reg, ideal, label="second")
    assert a is not b and a.key == b.key
    assert (a.label, b.label) == ("first", "second")
    assert submodules(a) is submodules(b)


def test_module_axioms_run_once_per_content(monkeypatch):
    ring = load_ring("t2f2")
    keys = []
    real = modules.verify_module_axioms
    monkeypatch.setattr(modules, "verify_module_axioms",
                        lambda m: keys.append(m.key) or real(m))
    reg = regular_module(ring)
    ideals = right_ideals(ring)

    def build():
        return ([quotient_module(reg, i, label=f"{ring.label}/I")[0]
                 for i in ideals]
                + [direct_sum([reg, reg])])

    first = build()
    checked = len(keys)
    second = build()
    assert len(keys) == checked
    assert len(keys) == len(set(keys))
    # a direct sum checks its summands, not the sum
    *cyclics, total = first
    assert {m.key for m in cyclics} | {reg.key} <= set(keys)
    assert total.key not in keys
    assert all(x is not y and x.key == y.key for x, y in zip(first, second))


@pytest.mark.parametrize("name", SMALL_CORPUS)
def test_direct_sums_pass_the_module_axioms(name):
    """The sums that direct_sum leaves unchecked are modules: every sum of
    two cyclic classes (V2's modules) and R ⊕ R."""
    ring = corpus(name)
    cyclics = cyclic_modules_up_to_iso(ring)
    reg = regular_module(ring)
    sums = [direct_sum([a, b])
            for a, b in itertools.combinations_with_replacement(cyclics, 2)]
    for m in sums + [direct_sum([reg, reg])]:
        assert verify_module_axioms(m) is None, m.label


def test_direct_sum_refuses_an_unchecked_summand():
    bad = RightModule(zmod(4), (2, 4), [[(0, 1), (0, 1)]], label="bad")
    with pytest.raises(InputError, match="bad: action of g0 not additive"):
        direct_sum([regular_module(bad.ring), bad])


def test_broken_content_is_refused_on_every_build():
    """The axiom report is memoised, the refusal is not: each build of
    broken content raises the same error."""
    ring = zmod(4)
    messages = []
    for _ in range(2):
        bad = RightModule(ring, (2, 4), [[(0, 1), (0, 1)]], label="bad")
        with pytest.raises(InputError) as exc:
            modules._validated(bad)
        messages.append(str(exc.value))
    assert messages == ["bad: action of g0 not additive on generator 0"] * 2


@pytest.mark.parametrize("name, summands", [
    *((name, None) for name in SMALL_CORPUS),
    ("z8", (1, 2)),     # Z/2 + Z/4
    ("t2f2", (1, 2)),   # the two simple modules
])
def test_presented_submodules_match_element_sets(name, summands):
    """Each submodule K of the regular module (or of a sum of two cyclic
    classes) is presented with order |K| and a valid inclusion that maps
    its elements onto those of K, so one to one.  Each x·R is
    {x·r : r in R}, and K·J(R) is the subgroup generated by the x·r, x in
    K and r in J(R)."""
    ring = corpus(name)
    if summands is None:
        m = regular_module(ring)
    else:
        cyc = cyclic_modules_up_to_iso(ring)
        m = direct_sum([cyc[t] for t in summands])
    everything = [tuple(v) for v in m.elements()]
    ring_elements = [tuple(r) for r in ring.elements()]
    for x in everything:
        assert set(cyclic_span(m, x).elements()) == {
            m.act(x, r) for r in ring_elements}
    jac = jacobson_radical(ring)
    jac_elements = list(jac.elements())
    for k in submodules(m):
        assert set(module_times_ideal(k, jac).elements()) == additive_closure(
            m, [m.act(x, r) for x in k.elements() for r in jac_elements])
        mod, incl = submodule_as_module(k)
        members = set(k.elements())
        assert mod.order() == len(members)
        assert incl.is_valid()
        assert incl.image_span() == k.gens
        assert {incl.apply(x) for x in mod.elements()} == members


def _assert_checked_action(m):
    """Each action matrix of m equals its rebuild through the checked
    ModMatrix constructor: rows, working modulus, and plain int tuples."""
    for act in m.action:
        public = ModMatrix(act.col_moduli, act.rows)
        assert act == public and act.n == public.n, m.label
        assert type(act.col_moduli) is tuple and type(act.rows) is tuple
        assert all(type(r) is tuple and all(type(x) is int for x in r)
                   for r in act.rows), m.label


@pytest.mark.parametrize("group", DIFFERENTIAL_RINGS)
def test_derived_modules_hold_checked_actions(group):
    """quotient_module, the presented submodules, direct_sum and the
    block modules of hom build their actions from reduced rows, unchecked;
    each action equals the one the checked constructor builds."""
    for ring in DIFFERENTIAL_RINGS[group]():
        reg = regular_module(ring)
        built = [factor_module(ring, i)[0] for i in right_ideals(ring)]
        built += [submodule_as_module(k)[0] for k in submodules(reg)]
        cyclics = cyclic_modules_up_to_iso(ring)
        for a, b in itertools.combinations_with_replacement(cyclics[:4], 2):
            total = direct_sum([a, b])
            built += [total, modules._top(total)[0]]
            built += [mod for _, mod in hom._summands(total)]
        for m in built:
            _assert_checked_action(m)


def test_additive_type_is_the_smith_form_of_the_orders():
    """The prime-power split gives the invariant factors that the Smith
    form of diag(orders) gives, in the same order."""
    for orders in itertools.product((1, 2, 3, 4, 6, 8, 9, 12), repeat=3):
        assert additive_type(orders) == \
            quotient_presentation(orders, [])[0], orders
    assert additive_type(()) == () and additive_type((1,)) == ()
