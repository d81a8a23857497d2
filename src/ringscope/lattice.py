"""Finite lattices: construction, structure flags, isomorphism, products.

Elements are kept as opaque labels; the order lives in Python-int
bitsets, up[a] holding bit b exactly when a ≤ b.  Meets and joins are
derived from the order and their existence is what makes the poset a
lattice — failures are reported with the offending pair.
"""

from __future__ import annotations

from .errors import (BoundExceededError, InputError, NotALatticeError,
                     TheoremViolationError)

LATTICE_SIZE_GUARD = 64


def _bits(mask: int):
    """Indices of the set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class FiniteLattice:
    """Bounded lattice on elements 0..n-1, given by its order.

    up[a] is the bitset of the elements ≥ a and down[b] that of the
    elements ≤ b; the order is checked antisymmetric and transitive.  The
    meet of i and j is the k whose down-set is exactly their common lower
    bounds, the join likewise on up-sets; meet and join are kept as lists
    of lists of indices.
    """

    def __init__(self, labels, up):
        self.labels = list(labels)
        self.up = list(up)
        n = len(self.up)
        self.down = [0] * n
        for a, row in enumerate(self.up):
            for b in _bits(row):
                self.down[b] |= 1 << a
        for i in range(n):
            twins = self.up[i] & self.down[i] & ~(1 << i)
            if twins:
                j = next(_bits(twins))
                raise InputError("order is not antisymmetric on "
                                 f"{self.labels[i]!r}, {self.labels[j]!r}")
            for j in _bits(self.up[i]):
                beyond = self.up[j] & ~self.up[i]
                if beyond:
                    k = next(_bits(beyond))
                    raise InputError(
                        "order is not transitive on "
                        f"{self.labels[i]!r}, {self.labels[j]!r}, "
                        f"{self.labels[k]!r}")
        # antisymmetry makes the down-sets (and the up-sets) distinct
        by_down = {d: k for k, d in enumerate(self.down)}
        by_up = {u: k for k, u in enumerate(self.up)}
        self.meet = [[0] * n for _ in range(n)]
        self.join = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                pair = (self.labels[i], self.labels[j])
                k = by_down.get(self.down[i] & self.down[j])
                if k is None:
                    raise NotALatticeError(f"no meet for {pair!r}", pair)
                self.meet[i][j] = k
                k = by_up.get(self.up[i] & self.up[j])
                if k is None:
                    raise NotALatticeError(f"no join for {pair!r}", pair)
                self.join[i][j] = k
        full = (1 << n) - 1
        self.bottom = self.up.index(full)
        self.top = self.down.index(full)

    @property
    def size(self) -> int:
        return len(self.labels)

    def meet_all(self, mask: int) -> int:
        """The meet of the elements in the bitset mask; the top when the
        mask is empty."""
        t = self.top
        for s in _bits(mask):
            t = self.meet[t][s]
        return t

    def join_all(self, mask: int) -> int:
        """The join of the elements in the bitset mask; the bottom when
        the mask is empty."""
        t = self.bottom
        for s in _bits(mask):
            t = self.join[t][s]
        return t

    def le(self, a: int, b: int) -> bool:
        return bool(self.up[a] >> b & 1)

    def covers(self) -> list:
        """Covering pairs (a, b): a < b and the interval [a, b] is {a, b}."""
        n = self.size
        return [(a, b) for a in range(n) for b in range(n)
                if a != b and self.up[a] & self.down[b] == 1 << a | 1 << b]

    def atoms(self) -> int:
        """The bitset of the elements whose strict down-set is the bottom
        alone."""
        bottom = 1 << self.bottom
        return sum(1 << b for b, d in enumerate(self.down)
                   if d & ~(1 << b) == bottom)

    def coatoms(self) -> int:
        """The bitset of the elements whose strict up-set is the top
        alone."""
        top = 1 << self.top
        return sum(1 << a for a, u in enumerate(self.up)
                   if u & ~(1 << a) == top)

    def join_irreducibles(self) -> int:
        """The bitset of the elements other than the bottom whose strict
        down-set is another element's down-set: each element is the join
        of the join-irreducibles below it."""
        downs = set(self.down)
        return sum(1 << g for g, d in enumerate(self.down)
                   if g != self.bottom and d & ~(1 << g) in downs)

    def height(self) -> int:
        """Length of a longest chain from bottom to top (number of steps)."""
        n = self.size
        depth = [0] * n
        # by down-set size: every element comes after those below it
        for b in sorted(range(n), key=lambda i: self.down[i].bit_count()):
            for a in _bits(self.down[b] & ~(1 << b)):
                depth[b] = max(depth[b], depth[a] + 1)
        return depth[self.top]

    def is_chain(self) -> bool:
        full = (1 << self.size) - 1
        return all(u | d == full for u, d in zip(self.up, self.down))


def build_lattice(elements, order_pairs=None, *, leq=None) -> FiniteLattice:
    """Lattice from either generating order pairs or a comparison predicate.

    order_pairs are (a, b) meaning a ≤ b, completed to a reflexive and
    transitive relation.  Raises NotALatticeError naming a pair without a
    unique meet or join.
    """
    elements = list(elements)
    n = len(elements)
    if n == 0:
        raise InputError("a lattice needs at least one element")
    if n > LATTICE_SIZE_GUARD:
        raise BoundExceededError(f"lattice size {n} exceeds guard")
    up = [1 << i for i in range(n)]
    if leq is not None:
        for i, a in enumerate(elements):
            for j, b in enumerate(elements):
                if leq(a, b):
                    up[i] |= 1 << j
    else:
        idx = {e: i for i, e in enumerate(elements)}
        for a, b in order_pairs or []:
            up[idx[a]] |= 1 << idx[b]
        # Warshall: every row that reaches k also reaches all of up[k]
        for k in range(n):
            for i in range(n):
                if up[i] >> k & 1:
                    up[i] |= up[k]
    return FiniteLattice(elements, up)


def inclusion_order(sets) -> list:
    """The up-sets of a list of bitsets under inclusion: bit b of row a
    when sets[a] lies inside sets[b].  Row a is the meet, over the members
    of sets[a], of the rows of the sets holding that member."""
    holding = {}
    for b, s in enumerate(sets):
        for t in _bits(s):
            holding[t] = holding.get(t, 0) | 1 << b
    full = (1 << len(sets)) - 1
    up = []
    for s in sets:
        row = full
        for t in _bits(s):
            row &= holding[t]
        up.append(row)
    return up


def _pentagon_witness(lat: FiniteLattice):
    """Five elements forming N₅, or None when the lattice is modular."""
    m, j = lat.meet, lat.join
    n = lat.size
    for a in range(n):
        for b in range(n):
            if not lat.le(a, b) or a == b:
                continue
            for c in range(n):
                lhs = j[a][m[c][b]]
                rhs = m[j[a][c]][b]
                if lhs != rhs:
                    witness = (m[lhs][c], lhs, rhs, c, j[rhs][c])
                    if len(set(witness)) != 5 or not lat.le(lhs, rhs):
                        raise TheoremViolationError(
                            f"pentagon witness {witness} is not an N5")
                    return witness
    return None


def _diamond_witness(lat: FiniteLattice):
    """Five elements forming M₃ in a modular lattice, or None."""
    m, j = lat.meet, lat.join
    n = lat.size
    for a in range(n):
        for b in range(n):
            for c in range(n):
                lhs = m[a][j[b][c]]
                rhs = j[m[a][b]][m[a][c]]
                if lhs == rhs:
                    continue
                bot = j[j[m[a][b]][m[a][c]]][m[b][c]]
                top = m[m[j[a][b]][j[a][c]]][j[b][c]]
                x = j[m[a][top]][bot]
                y = j[m[b][top]][bot]
                z = j[m[c][top]][bot]
                witness = (bot, x, y, z, top)
                if len(set(witness)) != 5:
                    raise TheoremViolationError(
                        f"diamond witness {witness} is not an M3")
                return witness
    return None


def structure_report(lat: FiniteLattice) -> dict:
    """Lattice-theoretic flags plus sublattice certificates for failures."""
    pent = _pentagon_witness(lat)
    modular = pent is None
    atoms, coatoms = lat.atoms(), lat.coatoms()
    report = {
        "size": lat.size,
        "chain": lat.is_chain(),
        "length": lat.height(),
        "atoms": list(_bits(atoms)),
        "coatoms": list(_bits(coatoms)),
        "modular": modular,
        "distributive": False,
        "atomic": False,
        "coatomic": False,
    }
    if not modular:
        report["pentagon"] = pent
        report["diamond"] = None
    else:
        diam = _diamond_witness(lat)
        report["distributive"] = diam is None
        if diam is not None:
            report["diamond"] = diam
    # atomic: every nonzero element sits above an atom;
    # coatomic: every non-top element sits below a coatom
    report["atomic"] = all(
        i == lat.bottom or lat.down[i] & atoms for i in range(lat.size))
    report["coatomic"] = all(
        i == lat.top or lat.up[i] & coatoms for i in range(lat.size))
    return report


def _profile_invariant(lat: FiniteLattice, i: int, flip: bool):
    col = lat.down[i].bit_count()
    row = lat.up[i].bit_count()
    return (row, col) if flip else (col, row)


def are_isomorphic(a: FiniteLattice, b: FiniteLattice, anti: bool = False):
    """(flag, mapping): order (anti-)isomorphism as a list, a→b indices."""
    if a.size != b.size:
        return False, None
    if a.size > LATTICE_SIZE_GUARD:
        raise BoundExceededError("lattice too large for isomorphism search")
    n = a.size
    inv_a = [_profile_invariant(a, i, False) for i in range(n)]
    inv_b = [_profile_invariant(b, i, anti) for i in range(n)]
    if sorted(inv_a) != sorted(inv_b):
        return False, None
    cand = [[j for j in range(n) if inv_b[j] == inv_a[i]] for i in range(n)]
    order = sorted(range(n), key=lambda i: len(cand[i]))
    assign = [-1] * n
    used = [False] * n

    def compatible(i, j, placed):
        for t in placed:
            u = assign[t]
            fwd = b.le(u, j) if not anti else b.le(j, u)
            bwd = b.le(j, u) if not anti else b.le(u, j)
            if a.le(t, i) != fwd:
                return False
            if a.le(i, t) != bwd:
                return False
        return True

    placed = []

    def backtrack(pos):
        if pos == n:
            return True
        i = order[pos]
        for j in cand[i]:
            if used[j] or not compatible(i, j, placed):
                continue
            assign[i] = j
            used[j] = True
            placed.append(i)
            if backtrack(pos + 1):
                return True
            placed.pop()
            used[j] = False
            assign[i] = -1
        return False

    if backtrack(0):
        return True, list(assign)
    return False, None


def lattice_product(a: FiniteLattice, b: FiniteLattice) -> FiniteLattice:
    if a.size * b.size > LATTICE_SIZE_GUARD:
        raise BoundExceededError("product lattice exceeds size guard")
    labels = [(x, y) for x in a.labels for y in b.labels]
    # (i1, j1) ≤ (i2, j2) iff i1 ≤ i2 and j1 ≤ j2; (i, j) sits at i·nb + j
    nb = b.size
    up = [sum(b.up[j1] << i2 * nb for i2 in _bits(a.up[i1]))
          for i1 in range(a.size) for j1 in range(nb)]
    return FiniteLattice(labels, up)


def to_dot(lat: FiniteLattice, labels=None) -> str:
    """Hasse diagram as DOT text; edges point from smaller to larger."""
    names = [str(x) for x in (labels if labels is not None else lat.labels)]
    lines = ["digraph lattice {", "  rankdir=BT;"]
    for i, name in enumerate(names):
        lines.append(f'  n{i} [label="{name}"];')
    for a, b in sorted(lat.covers()):
        lines.append(f"  n{a} -> n{b};")
    lines.append("}")
    return "\n".join(lines)
