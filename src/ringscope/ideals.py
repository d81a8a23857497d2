"""Right ideals, two-sided ideals, the radical, and essentiality.

Right ideals of R are the submodules of the regular module; everything
here works with that list materialized, so bounds are inherited from the
submodule enumerator.
"""

from __future__ import annotations

from .errors import TheoremViolationError
from .lattice import build_lattice
from .modules import (
    Submodule,
    extremal_submodules,
    full_submodule,
    regular_module,
    submodule_intersection,
    submodules,
)
from .ring import FiniteRing


def right_ideals(ring: FiniteRing):
    """All right ideals, canonically sorted (0 and R included)."""
    return submodules(regular_module(ring))


def is_two_sided(ring: FiniteRing, ideal: Submodule) -> bool:
    """Left multiplication by generators suffices, the span being additive."""
    for row in ideal.gens.rows:
        for i in range(ring.rank):
            if not ideal.contains(ring.el_mul(ring.generator(i), row)):
                return False
    return True


def two_sided_ideals(ring: FiniteRing):
    key = "two_sided_ideals"
    if key not in ring._cache:
        ring._cache[key] = [i for i in right_ideals(ring)
                            if is_two_sided(ring, i)]
    return ring._cache[key]


def maximal_right_ideals(ring: FiniteRing):
    return extremal_submodules(regular_module(ring), maximal=True)


def jacobson_radical(ring: FiniteRing) -> Submodule:
    """Intersection of the maximal right ideals.

    Post-verified: nilpotent, two-sided, and with semisimple quotient
    (the quotient's radical is zero).  Failure of any check is a bug in
    the enumeration, reported as a hard error.
    """
    key = "jacobson_radical"
    if key in ring._cache:
        return ring._cache[key]
    reg = regular_module(ring)
    maxes = maximal_right_ideals(ring)
    jac = full_submodule(reg)
    for m in maxes:
        jac = submodule_intersection(jac, m)
    if not is_two_sided(ring, jac):
        raise TheoremViolationError(
            f"radical of {ring.label} is not two-sided")
    # nilpotency: powers must strictly descend to zero
    power = jac
    steps = 0
    while power.size() > 1:
        rows = [ring.el_mul(a, b)
                for a in power.gens.rows for b in jac.gens.rows]
        nxt = Submodule(reg, rows)
        if nxt.size() >= power.size():
            raise TheoremViolationError(
                f"radical of {ring.label} is not nilpotent")
        power = nxt
        steps += 1
        if steps > ring.order():
            raise TheoremViolationError("radical power chain does not stop")
    ring._cache[key] = jac
    # semisimple quotient: every maximal ideal of R/J pulls back to one of
    # ours, so it suffices that the radical of R/J vanishes
    from .ring import quotient_ring

    if jac.size() > 1:
        quo, _, _ = quotient_ring(ring, jac.gens.rows,
                                  label=f"{ring.label}/J")
        if jacobson_radical(quo).size() != 1:
            del ring._cache[key]
            raise TheoremViolationError(
                f"{ring.label}: quotient by the radical is not semisimple")
    return jac


def minimal_right_ideals(ring: FiniteRing):
    return extremal_submodules(regular_module(ring))


def is_essential(ring: FiniteRing, ideal: Submodule) -> bool:
    """True iff the ideal meets every nonzero right ideal nontrivially.

    It suffices to test the minimal right ideals: any nonzero ideal
    contains one.
    """
    for atom in minimal_right_ideals(ring):
        inter = submodule_intersection(ideal, atom)
        if inter.size() == 1:
            return False
    return True


def ideals_in_radical(ring: FiniteRing):
    """(lattice, nodes): two-sided ideals inside J(R) under inclusion."""
    jac = jacobson_radical(ring)
    nodes = [i for i in two_sided_ideals(ring) if jac.contains_sub(i)]
    lat = build_lattice(list(range(len(nodes))),
                        leq=lambda a, b: nodes[b].contains_sub(nodes[a]))
    return lat, nodes
