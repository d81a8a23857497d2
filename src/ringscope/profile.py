"""Injectivity/projectivity profiles of a finite ring.

The profile is the lattice of realizable domains.  It is assembled by
two independent routes — structurally as {η(I) : I two-sided, I ⊆ J(R)}
and by brute-force enumeration of linear filters above all maximal
right ideals — and the two must agree exactly; a mismatch aborts the
computation, it is never papered over.  Domains are tracked through
their restriction to cyclic modules (fingerprints), enough to separate
any two domains over these rings.
"""

from __future__ import annotations

from .errors import InputError, TheoremViolationError
from .hom import is_relatively_injective, is_relatively_projective
from .ideals import (
    ideal_index,
    ideals_in_radical,
    jacobson_radical,
    right_ideal_lattice,
    two_sided_index,
)
from .lattice import (
    FiniteLattice,
    _bits,
    are_isomorphic,
    build_lattice,
    structure_report,
)
from .modules import (
    RightModule,
    cyclic_modules_up_to_iso,
    cyclic_origin,
    factor_module,
    regular_module,
)
from .ring import FiniteRing, IndexSet, memoised
from .torsion import all_linear_filters, check_filter_guard, eta_filter


class CyclicFingerprint(IndexSet):
    """A domain restricted to the cyclic iso-classes, held as an int
    bitset over cyclic_modules_up_to_iso: bit t for its class t."""

    def modules(self):
        reps = cyclic_modules_up_to_iso(self.ring)
        return [reps[t] for t in _bits(self.members)]

    def __repr__(self):
        return f"CyclicFingerprint({list(_bits(self.members))})"


def _fingerprint(m: RightModule, relative) -> CyclicFingerprint:
    """{cyclic C : relative(m, C) holds}, read through the domain's filter.

    The domain is closed under submodules, quotients and finite direct
    sums (Anderson–Fuller §16), and R/(I∩K) embeds in R/I ⊕ R/K, so the
    right ideals L with R/L in it are closed under meets and up-closed:
    they are up(s) for their least member s.  Every domain holds the
    semisimple modules, so s ⊆ J(R) and the walk starts from J: for
    L ⊇ J, R/L is semisimple, so m is R/L-injective (every K ≤ R/L is a
    summand, and a map from K extends by zero on a complement) and
    R/L-projective (R/L → (R/L)/K splits), and R/L joins untested.
    Walking the classes, a class R/L (L's index read from cyclic_origin:
    every class is built by factor_module, so every class has one) is a
    member when the meet of J and the members found so far lies in L, and
    is not when L lies in a failure; only the classes left open are
    tested.
    """
    ring = m.ring
    lat = right_ideal_lattice(ring)
    least = ideal_index(ring)[jacobson_radical(ring).gens]
    failed = members = 0
    for t, c in enumerate(cyclic_modules_up_to_iso(ring)):
        l = cyclic_origin(c)[0]
        if lat.le(least, l) or (not failed >> l & 1 and relative(m, c)[0]):
            least = lat.meet[least][l]
            members |= 1 << t
        else:
            failed |= lat.down[l]
    return CyclicFingerprint(ring, members)


@memoised(lambda m: ("inj_fingerprint", m.key))
def inj_fingerprint(m: RightModule) -> CyclicFingerprint:
    """{cyclic C : m is C-injective}, memoised on the ring by m's content."""
    return _fingerprint(m, is_relatively_injective)


@memoised(lambda m: ("proj_fingerprint", m.key))
def proj_fingerprint(m: RightModule) -> CyclicFingerprint:
    """{cyclic C : m is C-projective}, memoised on the ring by m's
    content."""
    return _fingerprint(m, is_relatively_projective)


def semisimple_cyclics(ring: FiniteRing) -> CyclicFingerprint:
    """Cyclic classes killed by the radical — exactly the semisimple ones."""
    return killed_by(ring, jacobson_radical(ring))


@memoised(lambda ring, ideal: ("killed_by", ideal.gens))
def killed_by(ring: FiniteRing, ideal) -> CyclicFingerprint:
    """Cyclic classes C with C·I = 0 for a two-sided ideal I, memoised on
    the ring by I's generators; InputError when I is not two-sided.

    For C = R/L (cyclic_origin), C·I = (I + L)/L, so C is killed by I iff
    I ⊆ L: one lookup in the right-ideal lattice per class."""
    i = two_sided_index(ring, ideal)
    if i is None:
        raise InputError("killed_by needs a two-sided ideal")
    lat = right_ideal_lattice(ring)
    return CyclicFingerprint(
        ring, sum(1 << t for t, c in enumerate(cyclic_modules_up_to_iso(ring))
                  if lat.le(i, cyclic_origin(c)[0])))


class ProfileReport:
    """Profile lattice plus per-node data and structure flags."""

    def __init__(self, kind: str, ring: FiniteRing, lattice: FiniteLattice,
                 ideals, filters):
        self.kind = kind
        self.ring = ring
        self.lattice = lattice
        self.ideals = ideals          # node t -> two-sided ideal I_t
        self.filters = filters        # node t -> eta(I_t)
        rep = structure_report(lattice)
        self.flags = {
            "is_chain": rep["chain"],
            "has_middle_class": lattice.size > 2,
            "modular": rep["modular"],
            "distributive": rep["distributive"],
            "coatomic": rep["coatomic"],
            "atomic": rep["atomic"],
            "length": rep["length"],
            "atoms": rep["atoms"],
            "coatoms": rep["coatoms"],
        }

    @property
    def size(self) -> int:
        return self.lattice.size

    @property
    def witnesses(self) -> list:
        """node t -> module or None, from find_witness on each node the
        first time the witnesses of this kind are read, memoised on the
        ring."""
        return _witnesses(self.ring, self.kind)


@memoised("profile_skeleton")
def _skeleton(ring: FiniteRing):
    """(nodes, lattice, filters), which both profiles share on the ring,
    memoised on it.

    nodes are the two-sided ideals inside J(R), filters their η-filters,
    and the lattice orders the nodes by filter inclusion.  Both
    cross-checks run once, when the skeleton is built: the η-filters are
    exactly the filters above all maximal right ideals, and the filter
    order is anti-isomorphic to the inclusion of the ideals.
    """
    ideal_lat, nodes = ideals_in_radical(ring)
    filters = [eta_filter(ring, i) for i in nodes]
    structural = set(filters)
    brute = set(all_linear_filters(ring, above_all_maximal=True))
    if structural != brute:
        raise TheoremViolationError(
            f"{ring.label}: filters above all maximal right ideals do "
            f"not match eta-filters of ideals inside the radical "
            f"({len(brute)} vs {len(structural)})")
    lat = build_lattice(list(range(len(nodes))),
                        leq=lambda a, b: filters[a] <= filters[b])
    if not are_isomorphic(lat, ideal_lat, anti=True)[0]:
        raise TheoremViolationError(
            f"{ring.label}: profile lattice is not anti-isomorphic to "
            "the lattice of ideals inside the radical")
    return nodes, lat, filters


def profile(ring: FiniteRing, kind: str) -> ProfileReport:
    """The profile of kind "i" or "p": the shared skeleton, with a witness
    per node from find_witness.  The i-witnesses are found when first
    read; the p-witnesses at once, since verifying each R/I is the
    p-profile's check."""
    if kind not in ("i", "p"):
        raise ValueError(f"kind must be 'i' or 'p', got {kind!r}")
    check_filter_guard(ring)
    nodes, lat, filters = _skeleton(ring)
    if kind == "p":
        _witnesses(ring, kind)
    return ProfileReport(kind, ring, lat, list(nodes), list(filters))


@memoised(lambda ring, kind: ("witnesses", kind))
def _witnesses(ring: FiniteRing, kind: str) -> list:
    """[find_witness of each node of the skeleton], memoised on the ring
    by kind."""
    return [find_witness(ring, i, kind) for i in _skeleton(ring)[0]]


def i_profile(ring: FiniteRing) -> ProfileReport:
    """The injectivity profile, cross-validated against filter enumeration."""
    return profile(ring, "i")


def p_profile(ring: FiniteRing) -> ProfileReport:
    """The projectivity profile; every node's witness R/I is verified."""
    return profile(ring, "p")


def is_poor(m: RightModule, kind: str) -> bool:
    """True when the domain is as small as possible (semisimples only)."""
    fp = inj_fingerprint(m) if kind == "i" else proj_fingerprint(m)
    return fp == semisimple_cyclics(m.ring)


def has_middle_class(ring: FiniteRing, kind: str) -> bool:
    """True iff the profile has more than two nodes."""
    return profile(ring, kind).size > 2


def find_witness(ring: FiniteRing, ideal, kind: str):
    """A module whose domain is the node of the given two-sided ideal.

    kind "p": R/I, verified, always found.  kind "i": R/I or the regular
    module when one of them realises the node, else None (absence of a
    witness is not proved).  Both kinds read one R/I per ideal, kept on
    the ring by the ideal's generators, so its fingerprints are shared.
    """
    target = killed_by(ring, ideal)
    w, _ = factor_module(ring, ideal)
    if kind == "p":
        if proj_fingerprint(w) != target:
            raise TheoremViolationError(
                f"{ring.label}: factor module fails its projectivity "
                "fingerprint")
        return w
    for cand in (w, regular_module(ring)):
        if inj_fingerprint(cand) == target:
            return cand
    return None
