"""Linear filters of right ideals and the σ[M] calculus.

A linear filter is a set 𝔉 of right ideals with: F1 R ∈ 𝔉; F2 closed
under pairwise intersection; F3 upward closed; F4 closed under
(I : r) = {y : r·y ∈ I} for every ring element r.  Filters are stored
as bitsets over the canonical right-ideal list, the form of the
right-ideal lattice's up-sets, which makes all the axioms finite checks.

Two facts of a finite lattice make the checks short:
(a) a set of right ideals with F1 and F2 has a least member m, the meet
of them all, and with F3 it is exactly up(m), the ideals above m;
(b) s ⊆ t gives (s : r) ⊆ (t : r), so F4 holds on an up-closed set once
it holds at its least member;
(c) (m : r + r′) ⊇ (m : r) ∩ (m : r′), (m : k·r) ⊇ (m : r) and
(m : s) = R for s ∈ m, so with F2 and F3, F4 holds at m once (m : r) is
a member for the lifts r of the additive generators of R/m.
The filters are therefore the up(m) that pass F4 at m, checked at those
lifts, at most log₂|R/m| colon solves per m; the exhaustive walk over
every up-set, with F4 on every member and every coset, is the tests'
oracle for (a)–(c).
"""

from __future__ import annotations

from .errors import BoundExceededError, InputError, TheoremViolationError
from .ideals import (
    ideal_index,
    is_two_sided,
    right_ideal_lattice,
    right_ideals,
)
from .lattice import _bits
from .modules import (
    RightModule,
    Submodule,
    annihilator,
    element_annihilator,
    factor_module,
)
from .ring import FiniteRing, IndexSet, memoised, same_ring

FILTER_IDEAL_GUARD = 400


class IdealContext:
    """Per-ring colon tables over the canonical right-ideal list: the
    colon ideals at the additive generators of each R/I_t, memoised on
    the ring by the ideal's Howell rows."""

    def __init__(self, ring: FiniteRing):
        self.ring = ring
        self.ideals = right_ideals(ring)
        self.index = ideal_index(ring)

    def colon(self, t: int, r) -> int:
        """(I_t : r) = {y : r·y ∈ I_t} = ann(r + I_t), as an ideal index:
        the annihilator of r's coset in the module R/I_t of
        factor_module."""
        q, proj = factor_module(self.ring, self.ideals[t])
        ann = element_annihilator(q, proj.apply(self.ring.reduce_el(r)))
        return self.index[ann.gens]

    @memoised(lambda ctx, t: ("f4_colons", ctx.ideals[t].gens))
    def generator_colons(self, t: int) -> list:
        """[(r, (I_t : r))] for the lifts r of the additive generators of
        R/I_t, the section of its projection: by fact (c) these colons
        decide F4 at I_t.  Memoised on the ring by I_t's generators."""
        proj = factor_module(self.ring, self.ideals[t])[1]
        return [(r, self.colon(t, r))
                for r in map(self.ring.reduce_el, proj.section)]


@memoised("ideal_context")
def ideal_context(ring: FiniteRing) -> IdealContext:
    return IdealContext(ring)


class LinearFilter(IndexSet):
    """A set of right ideals, held as an int bitset over the canonical
    list: bit t for right_ideals(ring)[t]."""

    def smallest_member(self) -> Submodule:
        """Intersection of the members; the generating ideal when the
        filter is an η(I)."""
        lat = right_ideal_lattice(self.ring)
        return right_ideals(self.ring)[lat.meet_all(self.members)]

    def __contains__(self, ideal: Submodule):
        return bool(self.members >> ideal_index(self.ring)[ideal.gens] & 1)

    def __repr__(self):
        return f"LinearFilter({len(self)} ideals)"


def is_linear_filter(ring: FiniteRing, members):
    """(flag, report) for a LinearFilter or a bitset of ideal indices:
    report names the first violated axiom.  F1 and F3 are mask tests;
    past them F2 holds iff the set is up(m), m the meet of all members,
    by fact (a).  Else some pair has its meet outside: were every
    pairwise meet a member, so would m be, and F3 would give up(m)."""
    lat = right_ideal_lattice(ring)
    mem = members.members if isinstance(members, LinearFilter) else members
    if not mem >> lat.top & 1:
        return False, "F1: the whole ring is missing"
    for t in _bits(mem):
        above = lat.up[t] & ~mem
        if above:
            return False, (f"F3: member {t} is contained in non-member "
                           f"{next(_bits(above))}")
    m = lat.meet_all(mem)
    if mem != lat.up[m]:
        a, b = next((a, b) for a in _bits(mem) for b in _bits(mem)
                    if not mem >> lat.meet[a][b] & 1)
        return False, f"F2: intersection of members {a}, {b} missing"
    # facts (b) and (c): F4 at m, at the additive generators of R/m
    for r, colon in ideal_context(ring).generator_colons(m):
        if not mem >> colon & 1:
            return False, f"F4: ({m} : {r}) missing"
    return True, None


def eta_filter(ring: FiniteRing, ideal: Submodule) -> LinearFilter:
    """η(I): all right ideals containing the two-sided ideal I."""
    if not is_two_sided(ring, ideal):
        raise InputError("eta filter needs a two-sided ideal")
    return _checked_upset(ring, ideal, "eta filter of a two-sided ideal")


def _checked_upset(ring: FiniteRing, ideal: Submodule, name: str):
    """up(I), the right ideals containing I, as a LinearFilter that must
    pass is_linear_filter."""
    t = ideal_index(ring)[ideal.gens]
    filt = LinearFilter(ring, right_ideal_lattice(ring).up[t])
    ok, report = is_linear_filter(ring, filt)
    if not ok:
        raise TheoremViolationError(f"{name} violates {report}")
    return filt


def check_filter_guard(ring: FiniteRing):
    """BoundExceededError past FILTER_IDEAL_GUARD right ideals.  Whatever
    lists the linear filters checks it first, before it builds the
    right-ideal lattice or the radical."""
    n = len(right_ideals(ring))
    if n > FILTER_IDEAL_GUARD:
        raise BoundExceededError(
            f"{n} right ideals exceed the filter guard {FILTER_IDEAL_GUARD}")


def all_linear_filters(ring: FiniteRing, above_all_maximal: bool = False):
    """Every linear filter: by fact (a) each is up(s) for its least
    member s, so the candidates are the up(s), one per right ideal, and
    is_linear_filter keeps those that pass F1–F4.

    With above_all_maximal, keeps only filters containing every maximal
    right ideal.
    """
    check_filter_guard(ring)
    lat = right_ideal_lattice(ring)
    required = lat.coatoms() if above_all_maximal else 0
    out = [LinearFilter(ring, up) for up in lat.up
           if not required & ~up and is_linear_filter(ring, up)[0]]
    out.sort(key=lambda f: (len(f), list(_bits(f.members))))
    return out


def sigma_filter(m: RightModule) -> LinearFilter:
    """The filter of σ[M]: the right ideals holding a finite intersection
    of element annihilators.  The meet of them all is one of those
    intersections, and it is ann(M), so the filter is up(ann M)."""
    return _checked_upset(m.ring, annihilator(m), "sigma filter")


def sigma_contains(m: RightModule, n: RightModule) -> bool:
    """True iff N belongs to σ[M]: every element annihilator of N is in
    M's filter up(ann M).  They all hold ann(M) iff their meet ann(N)
    does, so one annihilator is asked."""
    if not same_ring(m.ring, n.ring):
        raise InputError("sigma[M] membership of a module over another ring")
    return annihilator(n) in sigma_filter(m)
