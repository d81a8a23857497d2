"""Right ideals, two-sided ideals and the radical.

Right ideals of R are the submodules of the regular module; everything
here works with that list materialized, so bounds are inherited from the
submodule enumerator.  Their order is one lattice per ring,
right_ideal_lattice, which every inclusion and meet question reads.
"""

from __future__ import annotations

from .errors import InputError, NotALatticeError, TheoremViolationError
from .lattice import FiniteLattice, _bits, build_lattice, inclusion_order
from .modules import (
    Submodule,
    _descending_series,
    _minimal,
    _walk_submodules,
    factor_module,
    module_times_ideal,
    regular_module,
    submodule_sum,
    submodule_walk,
    submodules,
)
from .ring import FiniteRing, memoised


def right_ideals(ring: FiniteRing):
    """All right ideals, canonically sorted (0 and R included)."""
    return submodules(regular_module(ring))


@memoised("ideal_index")
def ideal_index(ring: FiniteRing) -> dict:
    """{I.gens: t} for right_ideals(ring)[t] = I, memoised on the ring:
    a right ideal's position, by its Howell generators."""
    return {i.gens: t for t, i in enumerate(right_ideals(ring))}


@memoised("right_ideal_lattice")
def right_ideal_lattice(ring: FiniteRing) -> FiniteLattice:
    """The right ideals under inclusion, memoised on the ring.

    Element t is right_ideals(ring)[t]; meet is intersection and join is
    sum.  The order is read off the regular module's walk: each ideal is
    held there as the bitset of the cyclic right ideals inside it, and A
    lies in B iff A's bitset lies inside B's (inclusion_order).  Whatever
    built it, the order is checked once, when the lattice is built, on
    three facts:
    (a) the least element is the zero ideal, and the greatest is R;
    (b) join(A, g) is the Howell sum A + g for every A and every
    join-irreducible g (an element other than the bottom whose strict
    down-set is another element's down-set); when A and g are comparable
    the join is the larger one, and the sum is that one iff it holds the
    other, one containment test;
    (c) |meet(A, B)|·|join(A, B)| = |A|·|B| for every pair.
    They give join(A, B) = A + B for every pair.  In a finite lattice B
    is join(g₁, …, g_k) over the join-irreducibles below it (Grätzer,
    join-irreducibles).  Chaining (b) from the bottom, which is 0 by (a),
    join(g₁, …, g_i) = g₁ + … + g_i for each i, so B = g₁ + … + g_k as
    an ideal; chaining (b) from A, A + B = (…(A + g₁) + …) + g_k is
    join(A, g₁, …, g_k) = join(A, B).  That pins the order (A ⊆ B iff
    A + B = B), and by (c) the meet, lying in A∩B, is A∩B.
    """
    ideals = right_ideals(ring)
    sizes = [i.size() for i in ideals]
    n = len(ideals)
    held = submodule_walk(regular_module(ring))[1]
    up = inclusion_order([held[i] for i in ideals])
    try:
        lat = FiniteLattice(range(n), up)
    except (InputError, NotALatticeError) as exc:
        raise TheoremViolationError(
            f"{ring.label}: right ideals under inclusion: {exc}") from exc
    if sizes[lat.bottom] != 1:
        raise TheoremViolationError(
            f"{ring.label}: right ideals: the least one is not 0")
    if sizes[lat.top] != ring.order():
        raise TheoremViolationError(
            f"{ring.label}: right ideals: the greatest one is not R")
    for a in range(n):
        for b in range(a + 1, n):
            meet, join = lat.meet[a][b], lat.join[a][b]
            if sizes[meet] * sizes[join] != sizes[a] * sizes[b]:
                raise TheoremViolationError(
                    f"{ring.label}: right ideals {a}, {b} have meet {meet} "
                    f"and join {join}, whose orders do not multiply to "
                    "theirs")
    index = ideal_index(ring)
    irreducible = list(_bits(lat.join_irreducibles()))
    for b in range(n):
        for g in irreducible:
            join = lat.join[b][g]
            if join in (b, g):
                # comparable: the sum is the larger one iff it holds the other
                other = g if join == b else b
                ok = ideals[join].contains_sub(ideals[other])
            else:
                ok = index.get(submodule_sum(ideals[b], ideals[g]).gens) == join
            if not ok:
                raise TheoremViolationError(
                    f"{ring.label}: right ideals {b}, {g} have join "
                    f"{join}, not their sum")
    return lat


def is_two_sided(ring: FiniteRing, ideal: Submodule) -> bool:
    """Left multiplication by generators suffices, the span being additive."""
    for row in ideal.gens.rows:
        for i in range(ring.rank):
            if not ideal.contains(ring.el_mul(ring.generator(i), row)):
                return False
    return True


def two_sided_index(ring: FiniteRing, ideal: Submodule):
    """ideal's index in right_ideals(ring) when it is a two-sided ideal,
    else None.  is_two_sided checks left products only, so a left ideal
    that is not a right ideal passes it and is refused by the lookup."""
    if not is_two_sided(ring, ideal):
        return None
    return ideal_index(ring).get(ideal.gens)


@memoised("two_sided_ideals")
def two_sided_ideals(ring: FiniteRing):
    return [i for i in right_ideals(ring) if is_two_sided(ring, i)]


@memoised("annihilator_cores")
def annihilator_cores(ring: FiniteRing) -> list:
    """[core of L, by ideal index, for each right ideal L]: the largest
    two-sided ideal inside L, the join of the two-sided ideals below it,
    memoised on the ring.  It is ann(R/L) = {r : Rr ⊆ L}, which lies in L
    (1·r ∈ L) and is two-sided, and which holds every two-sided I ⊆ L
    (RI ⊆ I ⊆ L)."""
    lat = right_ideal_lattice(ring)
    index = ideal_index(ring)
    two = sum(1 << index[i.gens] for i in two_sided_ideals(ring))
    return [lat.join_all(two & down) for down in lat.down]


@memoised(lambda ring, t: ("colon_ideals", t))
def colon_ideals(ring: FiniteRing, t: int):
    """[C(K) for each right ideal K, both by ideal index], C(K) = {r in R :
    rI ⊆ K}, for the right ideal I = right_ideals(ring)[t], memoised on
    the ring by t; None when I is not two-sided.

    C(K) is a right ideal, I being a left ideal too (rsI ⊆ rI ⊆ K).  A
    right ideal is the join of the join-irreducibles below it, and g ⊆
    C(K) iff gI ⊆ K, so C(K) is the join of the join-irreducibles g with
    gI ⊆ K: one product gI (module_times_ideal) per join-irreducible, then
    one mask per K."""
    ideals = right_ideals(ring)
    index = ideal_index(ring)
    ideal = ideals[t]
    if not is_two_sided(ring, ideal):
        return None
    lat = right_ideal_lattice(ring)
    products = [(g, index[module_times_ideal(ideals[g], ideal).gens])
                for g in _bits(lat.join_irreducibles())]
    return [lat.join_all(sum(1 << g for g, p in products if down >> p & 1))
            for down in lat.down]


def maximal_right_ideals(ring: FiniteRing):
    """The coatoms of the right-ideal lattice, in canonical order."""
    ideals = right_ideals(ring)
    return [ideals[t] for t in _bits(right_ideal_lattice(ring).coatoms())]


@memoised("jacobson_radical")
def jacobson_radical(ring: FiniteRing) -> Submodule:
    """Intersection of the maximal right ideals: the meet of the coatoms,
    memoised on the ring.

    Post-verified: two-sided, nilpotent, and with R/J semisimple: the
    R-module R/J of factor_module, walked afresh by _walk_submodules,
    must be the sum of its minimal submodules.  Its R-submodules are its
    R/J-submodules, so the ring R/J is then semisimple, as a finite ring
    is iff its radical is 0.  submodules(R/J) is not asked: it would read
    them off R's own lattice (cyclic_origin), where J came from.  Failure
    of any check is a bug in the enumeration, reported as a hard error;
    nothing is memoised then.
    """
    lat = right_ideal_lattice(ring)
    jac = right_ideals(ring)[lat.meet_all(lat.coatoms())]
    if not is_two_sided(ring, jac):
        raise TheoremViolationError(
            f"radical of {ring.label} is not two-sided")
    # nilpotency: powers must strictly descend to zero
    _descending_series(jac, jac, f"radical of {ring.label} is not nilpotent")
    if jac.size() > 1:
        quo = factor_module(ring, jac)[0]
        atoms = _minimal(_walk_submodules(quo)[0])
        if Submodule(quo, [row for a in atoms
                           for row in a.gens.rows]).size() != quo.order():
            raise TheoremViolationError(
                f"{ring.label}: quotient by the radical is not semisimple")
    return jac


def minimal_right_ideals(ring: FiniteRing):
    """The atoms of the right-ideal lattice, in canonical order."""
    ideals = right_ideals(ring)
    return [ideals[t] for t in _bits(right_ideal_lattice(ring).atoms())]


def ideals_in_radical(ring: FiniteRing):
    """(lattice, nodes): two-sided ideals inside J(R) under inclusion."""
    jac = jacobson_radical(ring)
    nodes = [i for i in two_sided_ideals(ring) if jac.contains_sub(i)]
    lat = build_lattice(list(range(len(nodes))),
                        leq=lambda a, b: nodes[b].contains_sub(nodes[a]))
    return lat, nodes
