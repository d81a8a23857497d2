"""Right ideals, two-sided ideals, the radical, and essentiality."""

import itertools

import pytest

from ringscope.cli import load_ring
from ringscope.errors import TheoremViolationError
from ringscope.lattice import inclusion_order
from ringscope.ideals import (
    annihilator_cores,
    colon_ideals,
    ideal_index,
    ideals_in_radical,
    is_two_sided,
    jacobson_radical,
    maximal_right_ideals,
    minimal_right_ideals,
    right_ideal_lattice,
    right_ideals,
    two_sided_ideals,
)
from ringscope.modules import (
    Submodule,
    annihilator,
    cyclic_modules_up_to_iso,
    element_annihilator,
    factor_module,
    radical_series,
    regular_module,
    submodule_as_module,
    submodules,
    zero_submodule,
)
from ringscope.torsion import sigma_filter

from conftest import DIFFERENTIAL_RINGS, SMALL_CORPUS, corpus
from oracle_utils import (
    atoms_by_covers,
    dense_el_mul,
    mask,
    submodule_intersection,
)


def test_right_ideal_counts():
    expected = {"z8": 4, "z4xf2": 6, "t2f2": 7, "m2f2": 5,
                "quiver_f2": 28, "f2xy_j2": 6, "f2xy_x2y2": 7}
    for name, count in expected.items():
        assert len(right_ideals(corpus(name))) == count


def test_two_sided_counts():
    expected = {"z8": 4, "z4xf2": 6, "t2f2": 5, "m2f2": 2,
                "quiver_f2": 13, "f2xy_j2": 6, "f2xy_x2y2": 7}
    for name, count in expected.items():
        ring = corpus(name)
        ts = two_sided_ideals(ring)
        assert len(ts) == count
        # brute re-check of two-sidedness on every right ideal
        for i in right_ideals(ring):
            brute = all(i.contains(dense_el_mul(ring, a, x))
                        for x in i.elements() for a in ring.elements())
            assert is_two_sided(ring, i) == brute


def test_t2f2_one_sided_ideals_exist():
    ring = corpus("t2f2")
    one_sided = [i for i in right_ideals(ring) if not is_two_sided(ring, i)]
    assert len(one_sided) == 2  # the spans of E22 and of E12+E22


def test_radical_sizes():
    expected = {"z8": 4, "z4xf2": 2, "t2f2": 2, "m2f2": 1,
                "quiver_f2": 4, "f2xy_j2": 4, "f2xy_x2y2": 8}
    for name, size in expected.items():
        assert jacobson_radical(corpus(name)).size() == size


def test_radical_is_largest_nilpotent_ideal():
    for name in SMALL_CORPUS:
        ring = corpus(name)
        reg = regular_module(ring)

        def is_nilpotent(ideal):
            power = ideal
            while power.size() > 1:
                nxt = Submodule(reg, [dense_el_mul(ring, a, b)
                                      for a in power.gens.rows
                                      for b in ideal.gens.rows])
                if nxt.size() >= power.size():
                    return False
                power = nxt
            return True

        nil = [i for i in two_sided_ideals(ring) if is_nilpotent(i)]
        biggest = max(nil, key=lambda i: i.size())
        assert biggest == jacobson_radical(ring)
        # and every nilpotent ideal sits inside it
        assert all(biggest.contains_sub(i) for i in nil)


def test_maximal_right_ideals():
    assert len(maximal_right_ideals(corpus("z8"))) == 1
    assert len(maximal_right_ideals(corpus("z4xf2"))) == 2
    ring = corpus("t2f2")
    maxes = maximal_right_ideals(ring)
    assert all(m.size() == 4 for m in maxes)
    inter = maxes[0]
    for m in maxes[1:]:
        inter = submodule_intersection(inter, m)
    assert inter == jacobson_radical(ring)


def test_minimal_right_ideals():
    expected = {"z8": 1, "z4xf2": 2, "t2f2": 3, "m2f2": 3,
                "f2xy_j2": 3, "f2xy_x2y2": 1}
    for name, count in expected.items():
        atoms = minimal_right_ideals(corpus(name))
        assert len(atoms) == count
        assert all(a.size() > 1 for a in atoms)


def test_ideals_in_radical_shapes():
    lat, nodes = ideals_in_radical(corpus("z8"))
    assert lat.size == 3 and lat.is_chain()
    lat, nodes = ideals_in_radical(corpus("quiver_f2"))
    assert lat.size == 4 and not lat.is_chain()
    assert sorted(n.size() for n in nodes) == [1, 2, 2, 4]
    lat, nodes = ideals_in_radical(corpus("f2xy_j2"))
    assert lat.size == 5
    assert lat.atoms().bit_count() == 3 and lat.coatoms().bit_count() == 3


def test_local_ring_ideals_in_radical_match_radical_submodules():
    for name in ("z8", "f2xy_j2", "f2xy_x2y2"):
        ring = corpus(name)
        jac = jacobson_radical(ring)
        inside = [i for i in right_ideals(ring) if jac.contains_sub(i)]
        jmod = submodule_as_module(jac)[0]
        assert len(submodules(jmod)) == len(inside)


def test_ideal_lattice_order_consistency():
    for name in SMALL_CORPUS:
        ideals = right_ideals(corpus(name))
        for a, b in itertools.combinations(ideals, 2):
            inter = submodule_intersection(a, b)
            assert a.contains_sub(inter) and b.contains_sub(inter)


def test_right_ideal_lattice_matches_element_sets():
    """le, meet, atoms and coatoms of the lattice agree with inclusion of
    element sets and with the element-scan intersection."""
    for name in SMALL_CORPUS:
        ring = corpus(name)
        ideals = right_ideals(ring)
        lat = right_ideal_lattice(ring)
        assert lat is right_ideal_lattice(ring)
        elems = [frozenset(i.elements()) for i in ideals]
        n = len(ideals)
        for a in range(n):
            for b in range(n):
                assert lat.le(a, b) == (elems[a] <= elems[b])
                assert ideals[lat.meet[a][b]] == \
                    submodule_intersection(ideals[a], ideals[b])
        nonzero = [t for t in range(n) if len(elems[t]) > 1]
        proper = [t for t in range(n) if len(elems[t]) < ring.order()]
        atoms = [t for t in nonzero
                 if not any(elems[s] < elems[t] for s in nonzero)]
        coatoms = [t for t in proper
                   if not any(elems[t] < elems[s] for s in proper)]
        assert lat.atoms() == mask(atoms)
        assert lat.coatoms() == mask(coatoms)
        assert minimal_right_ideals(ring) == [ideals[t] for t in atoms]
        assert maximal_right_ideals(ring) == [ideals[t] for t in coatoms]


def test_sigma_filter_is_the_closure_of_annihilators():
    """σ[C] of every cyclic class is the up-set of the closure of its
    element annihilators under pairwise intersection."""
    for name in SMALL_CORPUS:
        ring = corpus(name)
        ideals = right_ideals(ring)
        for c in cyclic_modules_up_to_iso(ring):
            closed = {element_annihilator(c, x) for x in c.elements()}
            while True:
                fresh = {submodule_intersection(a, b)
                         for a in closed for b in closed} - closed
                if not fresh:
                    break
                closed |= fresh
            members = mask(t for t, i in enumerate(ideals)
                           if any(i.contains_sub(a) for a in closed))
            assert sigma_filter(c).members == members


def _lossy_order(ideals, dropped):
    """inclusion_order on the walk's bitsets of the right ideals listed in
    ideals, forgetting the containment of small in big for the pair
    (big.gens, small.gens) dropped."""
    pos = {i.gens: t for t, i in enumerate(ideals)}
    big, small = (pos[gens] for gens in dropped)

    def lossy(sets):
        return [sum(1 << b for b, t in enumerate(sets)
                    if not s & ~t and (a, b) != (small, big))
                for a, s in enumerate(sets)]

    return lossy


@pytest.mark.parametrize("name, count", [("t2f2", 15), ("z8", 6)])
def test_lattice_check_catches_a_dropped_containment(monkeypatch, name,
                                                     count):
    """Dropping any one true containment from the order read off the
    walk's bitsets makes the right-ideal lattice fail its check.  On z8,
    dropping (4) ⊆ (2) leaves a lattice whose orders multiply correctly;
    only the join check sees it."""
    import ringscope.ideals as ideals_mod

    ideals = right_ideals(load_ring(name))
    strict = [(big.gens, small.gens) for big in ideals for small in ideals
              if big != small and big.contains_sub(small)]
    assert len(strict) == count
    for dropped in strict:
        monkeypatch.setattr(ideals_mod, "inclusion_order",
                            _lossy_order(ideals, dropped))
        with pytest.raises(TheoremViolationError, match="right ideals"):
            right_ideal_lattice(load_ring(name))
        monkeypatch.undo()


def _padded_order(ideals, added):
    """inclusion_order on the walk's bitsets of the right ideals listed in
    ideals, with the false containment of small in big added for the pair
    (big.gens, small.gens), closed under transitivity."""
    pos = {i.gens: t for t, i in enumerate(ideals)}
    big, small = (pos[gens] for gens in added)

    def padded(sets):
        up = inclusion_order(sets)
        return [u | up[big] if u >> small & 1 else u for u in up]

    return padded


@pytest.mark.parametrize("name, count", [("t2f2", 12), ("z4xf2", 6),
                                         ("f2xy_j2", 6)])
def test_lattice_check_catches_an_added_containment(monkeypatch, name,
                                                    count):
    """Adding a false containment between two incomparable right ideals
    to the order read off the walk's bitsets makes the right-ideal lattice
    fail its check.  The pair then has the larger ideal as its join, so
    the orders multiply correctly on it; the containment test of check
    (b) on comparable pairs, or an order that is no lattice, sees it."""
    import ringscope.ideals as ideals_mod

    ideals = right_ideals(load_ring(name))
    false = [(big.gens, small.gens) for big in ideals for small in ideals
             if not big.contains_sub(small) and not small.contains_sub(big)]
    assert len(false) == count
    for added in false:
        monkeypatch.setattr(ideals_mod, "inclusion_order",
                            _padded_order(ideals, added))
        with pytest.raises(TheoremViolationError, match="right ideals"):
            right_ideal_lattice(load_ring(name))
        monkeypatch.undo()


def _join_irreducible(ideals, g):
    """g is not the sum of the ideals strictly inside it (0 is the empty
    sum)."""
    return g != Submodule(g.parent, [row for i in ideals
                                     if i != g and g.contains_sub(i)
                                     for row in i.gens.rows])


@pytest.mark.parametrize("group", DIFFERENTIAL_RINGS)
def test_join_irreducibles_are_the_ideals_not_summed_from_below(group):
    """The lattice's join-irreducibles, which check (b) and colon_ideals
    read, are the right ideals that are not the sum of those strictly
    inside them."""
    for ring in DIFFERENTIAL_RINGS[group]():
        ideals = right_ideals(ring)
        assert right_ideal_lattice(ring).join_irreducibles() == mask(
            t for t, g in enumerate(ideals) if _join_irreducible(ideals, g))


@pytest.mark.parametrize("group", ["corpus", "recipes", "drawn_7"])
def test_colon_ideals_match_the_element_scan(group):
    """colon_ideals(I)[K] is {r in R : rI ⊆ K}, scanned element by element
    (r·g in K for each Howell row g of I), for every two-sided I and right
    ideal K; a one-sided I has no table."""
    for ring in DIFFERENTIAL_RINGS[group]():
        ideals = right_ideals(ring)
        reg = regular_module(ring)
        elements = list(ring.elements())
        for t, i in enumerate(ideals):
            colons = colon_ideals(ring, t)
            if not is_two_sided(ring, i):
                assert colons is None
                continue
            for k, c in zip(ideals, colons):
                scanned = Submodule(reg, [
                    r for r in elements
                    if all(k.contains(ring.el_mul(r, g)) for g in i.gens.rows)])
                assert ideals[c] == scanned, (ring.label, i, k)


@pytest.mark.parametrize("name, count", [("t2f2", 3), ("quiver_f2", 73),
                                         ("m2z4", 12)])
def test_lattice_check_catches_a_dropped_containment_off_the_irreducibles(
        monkeypatch, name, count):
    """The join = sum check pairs every ideal with the join-irreducibles
    only; dropping a containment between two ideals neither of which is
    join-irreducible still fails the lattice check."""
    import ringscope.ideals as ideals_mod

    ideals = right_ideals(load_ring(name))
    reducible = [i for i in ideals if not _join_irreducible(ideals, i)]
    strict = [(big.gens, small.gens) for big in reducible
              for small in reducible
              if big != small and big.contains_sub(small)]
    assert len(strict) == count
    for dropped in strict:
        monkeypatch.setattr(ideals_mod, "inclusion_order",
                            _lossy_order(ideals, dropped))
        with pytest.raises(TheoremViolationError, match="right ideals"):
            right_ideal_lattice(load_ring(name))
        monkeypatch.undo()


def test_failed_radical_check_memoises_nothing(monkeypatch):
    """A radical whose quotient R/J is not semisimple is refused and not
    kept; once the fault is gone the true radical is found."""
    import ringscope.ideals as ideals_mod

    ring = load_ring("z8")
    real = ideals_mod.factor_module

    def faulty(base, ideal):
        # R/0 = R for the ring under test, which is not semisimple
        return real(base, zero_submodule(regular_module(base)))

    monkeypatch.setattr(ideals_mod, "factor_module", faulty)
    with pytest.raises(TheoremViolationError, match="not semisimple"):
        jacobson_radical(ring)
    assert "jacobson_radical" not in ring._cache
    monkeypatch.undo()
    jac = jacobson_radical(ring)
    assert jac.size() == 4 and jac == jacobson_radical(load_ring("z8"))


def test_stalled_series_raise_their_callers_messages(monkeypatch):
    """jacobson_radical's nilpotency check and radical_series walk one
    descending loop; a product that does not shrink raises each caller's
    own message."""
    import ringscope.modules as modules_mod

    ring = load_ring("z8")
    reg = regular_module(ring)
    jacobson_radical(ring)
    monkeypatch.setattr(modules_mod, "module_times_ideal",
                        lambda sub, ideal: sub)
    with pytest.raises(TheoremViolationError) as exc:
        radical_series(reg)
    assert str(exc.value) == (f"radical series stalls on {reg.label}; ring "
                              "radical is not nilpotent on this module")
    with pytest.raises(TheoremViolationError) as exc:
        jacobson_radical(load_ring("z8"))
    assert str(exc.value) == "radical of Z/8 is not nilpotent"


def test_radical_check_reads_no_submodule_list(monkeypatch):
    """The semisimplicity check walks R/J itself: it never asks
    submodules(), which would read R/J's submodules off R's own lattice."""
    import ringscope.modules as modules_mod

    ring = load_ring("t2f2")
    right_ideal_lattice(ring)
    asked = []
    real = modules_mod.submodules

    def counted(n):
        asked.append(n.key)
        return real(n)

    monkeypatch.setattr(modules_mod, "submodules", counted)
    assert jacobson_radical(ring).size() == 2
    assert asked == []


@pytest.mark.parametrize("name", ["z8", "f2xy_x2y2"])
def test_lattice_check_catches_a_missing_zero_ideal(monkeypatch, name):
    """With the zero ideal dropped from the list, the right ideals of these
    rings (each has one minimal right ideal) still form a lattice whose
    joins are sums and whose orders multiply; the check that the least
    one is 0 refuses it, and nothing is kept."""
    import ringscope.ideals as ideals_mod

    ring = load_ring(name)
    real = ideals_mod.right_ideals
    monkeypatch.setattr(ideals_mod, "right_ideals", lambda r: real(r)[1:])
    with pytest.raises(TheoremViolationError, match="the least one is not 0"):
        right_ideal_lattice(ring)
    assert "right_ideal_lattice" not in ring._cache


@pytest.mark.parametrize("name", ["z8", "f2xy_x2y2"])
def test_lattice_check_catches_a_missing_whole_ring(monkeypatch, name):
    """With R dropped from the list, the right ideals of these local rings
    (each has one maximal right ideal) still form a lattice whose least
    one is 0, whose joins are sums and whose orders multiply; the check
    that the greatest one is R refuses it, and nothing is kept."""
    import ringscope.ideals as ideals_mod

    ring = load_ring(name)
    real = ideals_mod.right_ideals
    monkeypatch.setattr(ideals_mod, "right_ideals", lambda r: [
        i for i in real(r) if i.size() < r.order()])
    with pytest.raises(TheoremViolationError,
                       match="the greatest one is not R"):
        right_ideal_lattice(ring)
    assert "right_ideal_lattice" not in ring._cache


@pytest.mark.parametrize("group", DIFFERENTIAL_RINGS)
def test_atoms_and_coatoms_match_the_covers(group):
    """atoms() and coatoms() read off the bitsets give the upper covers of
    the bottom and the lower covers of the top, in the same order."""
    for ring in DIFFERENTIAL_RINGS[group]():
        lat = right_ideal_lattice(ring)
        assert (lat.atoms(), lat.coatoms()) == atoms_by_covers(lat)


@pytest.mark.parametrize("group", DIFFERENTIAL_RINGS)
def test_the_walk_order_is_contains_sub(group):
    """The order read off the walk's bitsets is inclusion of the Howell
    spans, asked pair by pair."""
    for ring in DIFFERENTIAL_RINGS[group]():
        ideals = right_ideals(ring)
        lat = right_ideal_lattice(ring)
        for a, small in enumerate(ideals):
            for b, big in enumerate(ideals):
                assert lat.le(a, b) == big.contains_sub(small), ring.label


@pytest.mark.parametrize("group", DIFFERENTIAL_RINGS)
def test_annihilator_cores_are_the_annihilators(group):
    """The core of each right ideal L, the join of the two-sided ideals
    inside it, is ann(R/L), solved from the action of R/L."""
    for ring in DIFFERENTIAL_RINGS[group]():
        index = ideal_index(ring)
        assert annihilator_cores(ring) == [
            index[annihilator(factor_module(ring, i)[0]).gens]
            for i in right_ideals(ring)], ring.label
