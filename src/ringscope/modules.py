"""Finite right modules over a finite ring.

A module is an additive group ⊕_i Z/m_i with one action matrix per ring
generator; the action of an arbitrary ring element is assembled by
linearity.  Submodules are identified with their Howell-canonical spans,
so two submodules are equal iff their representations are equal.
"""

from __future__ import annotations

import itertools
import math
import operator

from .errors import BoundExceededError, InputError, TheoremViolationError
from .exactla import (
    ModMatrix,
    apply_matrix,
    echelon_presentation,
    howell_span,
    lcm_all,
    quotient_presentation,
    solve_affine,
    zero_matrix,
)
from .lattice import _bits
from .ring import FiniteRing, memoised, reduce_vector, same_ring

SUBMODULE_ENUM_BOUND = 4096
# most submodules of R^k that enumerate_modules takes on
FREE_SUBMODULE_CEILING = 20000
# largest hom group that the isomorphism search takes on
ISO_SEARCH_BOUND = 1 << 20


class RightModule:
    """Right module over a finite ring, immutable once validated.

    The module keeps no memo of its own: every fact about it is memoised
    on its ring under a key carrying ``key``, its content, so equal
    modules built separately share the work and the label stays with
    each object.
    """

    def __init__(self, ring: FiniteRing, orders, action, label: str = "module"):
        self.ring = ring
        self.orders = tuple(int(m) for m in orders)
        if any(m < 1 for m in self.orders):
            raise InputError("generator orders must be positive")
        if len(action) != ring.rank:
            raise InputError("need one action matrix per ring generator")
        acts = []
        for a in action:
            if not isinstance(a, ModMatrix):
                a = ModMatrix(self.orders, a)
            if a.col_moduli != self.orders or a.nrows != len(self.orders):
                raise InputError("action matrix has wrong shape")
            acts.append(a)
        self.action = tuple(acts)
        # content key: equal keys present the same module
        self.key = (self.orders, tuple(a.rows for a in acts))
        self.label = label
        self.zero = (0,) * len(self.orders)

    @property
    def rank(self) -> int:
        return len(self.orders)

    def order(self) -> int:
        return math.prod(self.orders)

    def __repr__(self):
        return f"RightModule({self.label}, order={self.order()})"

    def reduce_el(self, vec):
        return reduce_vector(vec, self.orders, "module element")

    def elements(self):
        if self.order() > SUBMODULE_ENUM_BOUND:
            raise BoundExceededError(f"module of order {self.order()} exceeds "
                                     f"bound {SUBMODULE_ENUM_BOUND}")
        return itertools.product(*(range(m) for m in self.orders))

    def act_gen(self, x, j):
        """x · g_j for ring generator j."""
        return apply_matrix(x, self.action[j].rows, self.orders)

    def act(self, x, r):
        """x · r for a ring element r in coordinates: r times the matrix
        of r ↦ x·r."""
        return apply_matrix(r, _images(self, x), self.orders)

    def generator(self, i):
        e = [0] * self.rank
        e[i] = 1 % self.orders[i]
        return tuple(e)


def verify_module_axioms(m: RightModule):
    """None if the action tables define a unital module, else a report."""
    ring = m.ring
    for j in range(ring.rank):
        rows = m.action[j].rows
        for i in range(m.rank):
            for k in range(m.rank):
                if (m.orders[i] * rows[i][k]) % m.orders[k]:
                    return f"action of g{j} not additive on generator {i}"
                if (ring.orders[j] * rows[i][k]) % m.orders[k]:
                    return f"action of g{j} ignores the order of g{j}"
    # once the orders pass, e_i·g_c is row i of action[c], and e_i·r is
    # r times the matrix of those rows
    images = [[act.rows[i] for act in m.action] for i in range(m.rank)]
    for i in range(m.rank):
        if apply_matrix(ring.one, images[i], m.orders) != m.generator(i):
            return f"identity does not fix module generator {i}"
    for a in range(ring.rank):
        for b in range(ring.rank):
            prod = ring.mul[a][b]
            for i in range(m.rank):
                lhs = m.act_gen(images[i][a], b)
                rhs = apply_matrix(prod, images[i], m.orders)
                if lhs != rhs:
                    return f"action incompatible with g{a}*g{b} on generator {i}"
    return None


def _reduced_action(orders: tuple, action):
    """One action matrix per list of rows, built by ModMatrix._reduced
    with no second reduction: each row must be a tuple already reduced
    modulo the tuple orders, as apply_matrix gives it or as a slice of
    checked rows is.  _validated still checks the module's content."""
    n = lcm_all(orders)
    return [ModMatrix._reduced(orders, tuple(rows), n) for rows in action]


@memoised(lambda m: ("module_axioms", m.key))
def _axiom_report(m: RightModule):
    """verify_module_axioms(m), memoised on the ring by m's content."""
    return verify_module_axioms(m)


def _validated(mod: RightModule) -> RightModule:
    """mod, once its content passes verify_module_axioms; the report is
    memoised on the ring, so broken content is refused on every build."""
    report = _axiom_report(mod)
    if report is not None:
        raise InputError(f"{mod.label}: {report}")
    return mod


class ModuleMap:
    """Additive, action-preserving map given by generator images (rows);
    is_valid() checks that the rows give one."""

    def __init__(self, source: RightModule, target: RightModule, rows):
        self.source = source
        self.target = target
        self.rows = tuple(target.reduce_el(r) for r in rows)
        if len(self.rows) != source.rank:
            raise InputError("map needs one image row per source generator")

    def apply(self, x):
        return apply_matrix(x, self.rows, self.target.orders)

    def is_valid(self) -> bool:
        src, tgt = self.source, self.target
        for i in range(src.rank):
            img = self.rows[i]
            for k in range(tgt.rank):
                if (src.orders[i] * img[k]) % tgt.orders[k]:
                    return False
        for i in range(src.rank):
            e = src.generator(i)
            for j in range(src.ring.rank):
                if self.apply(src.act_gen(e, j)) != tgt.act_gen(self.apply(e), j):
                    return False
        return True

    def image_span(self) -> ModMatrix:
        return howell_span(self.target.orders, self.rows)

    def __eq__(self, other):
        return (isinstance(other, ModuleMap) and self.rows == other.rows
                and self.source.orders == other.source.orders
                and self.target.orders == other.target.orders)

    def __hash__(self):
        return hash(self.rows)


class Submodule:
    """A submodule of `parent`, stored as the Howell form of its span."""

    def __init__(self, parent: RightModule, gens):
        if not isinstance(gens, ModMatrix):
            gens = ModMatrix(parent.orders, gens)
        if gens.col_moduli != parent.orders:
            raise InputError("generator moduli do not match the module")
        self.parent = parent
        self.gens = gens.howell_form()

    def size(self) -> int:
        return self.gens.span_size()

    def contains(self, vec) -> bool:
        return self.gens.contains(vec)

    def contains_sub(self, other: "Submodule") -> bool:
        return all(self.gens.contains(r) for r in other.gens.rows)

    def is_action_stable(self) -> bool:
        for row in self.gens.rows:
            for j in range(self.parent.ring.rank):
                if not self.gens.contains(self.parent.act_gen(row, j)):
                    return False
        return True

    def elements(self):
        return self.gens.span_elements()

    def __eq__(self, other):
        return isinstance(other, Submodule) and self.gens == other.gens

    def __hash__(self):
        return hash(self.gens)

    def __repr__(self):
        return f"Submodule(size={self.size()})"


def zero_submodule(m: RightModule) -> Submodule:
    return Submodule(m, zero_matrix(m.orders))


def full_submodule(m: RightModule) -> Submodule:
    rows = [m.generator(i) for i in range(m.rank)]
    return Submodule(m, rows)


# -- construction -------------------------------------------------------------


@memoised("regular")
def regular_module(ring: FiniteRing) -> RightModule:
    """The ring acting on itself by right multiplication."""
    action = [ring.right_mul_matrix(ring.generator(j)).rows
              for j in range(ring.rank)]
    return _validated(RightModule(ring, ring.orders, action,
                                  label=f"{ring.label} (regular)"))


def zero_module(ring: FiniteRing) -> RightModule:
    return RightModule(ring, (), [()] * ring.rank if ring.rank else [],
                       label="0")


def direct_sum(mods, label: str | None = None) -> RightModule:
    """The external direct sum.  Each summand's content is checked (a memo
    hit for any module the library built); a sum of modules is a module,
    so the sum itself is not checked."""
    mods = [_validated(m) for m in mods]
    if not mods:
        raise InputError("direct sum of nothing; pass the zero module instead")
    ring = mods[0].ring
    if not all(same_ring(m.ring, ring) for m in mods):
        raise InputError("direct sum components must share the ring")
    orders = tuple(m for mod in mods for m in mod.orders)
    offsets = []
    off = 0
    for mod in mods:
        offsets.append(off)
        off += mod.rank
    action = []
    for j in range(ring.rank):
        rows = []
        for mod, o in zip(mods, offsets):
            head, tail = (0,) * o, (0,) * (off - o - mod.rank)
            rows += [head + r + tail for r in mod.action[j].rows]
        action.append(rows)
    name = label or " + ".join(m.label for m in mods)
    return RightModule(ring, orders, _reduced_action(orders, action),
                       label=name)


def quotient_module(n: RightModule, k: Submodule, label: str | None = None,
                    *, closed: bool = False):
    """Factor module together with the projection map.

    The returned projection carries a ``section`` attribute: integer rows
    lifting each quotient generator back into n.

    k is scanned for closure under the ring action, unless the caller
    passes closed=True for a span that is a submodule by construction (a
    member of submodules(n), a listed right ideal, N·J, a preimage of a
    submodule).  The quotient's content is checked either way.
    """
    if k.parent is not n and k.parent.key != n.key:
        raise InputError("submodule does not live in the given module")
    if not closed and not k.is_action_stable():
        raise InputError("span is not closed under the ring action")
    new_orders, proj, lift = _presentation(n.ring, k.gens)

    def down(vec):
        return apply_matrix(vec, proj, new_orders)

    action = [[down(n.act_gen(row, j)) for row in lift]
              for j in range(n.ring.rank)]
    q = _validated(RightModule(n.ring, new_orders,
                               _reduced_action(new_orders, action),
                               label=label or f"{n.label}/K"))
    projection = ModuleMap(n, q, [down(n.generator(i)) for i in range(n.rank)])
    projection.section = [tuple(r) for r in lift]
    return q, projection


@memoised("cyclic_origins")
def _origins(ring: FiniteRing) -> dict:
    """{content key: (L, π)} for the contents built as R/L, on the ring."""
    return {}


def cyclic_origin(m: RightModule):
    """(t, π) when factor_module has built m's content as R/L, with L =
    right_ideals(ring)[t] and π: R → R/L carrying its section; else None.
    A lookup records nothing, so a content built as R/L after it was
    first asked about has its origin then."""
    return _origins(m.ring).get(m.key)


@memoised(lambda ring, ideal: ("factor_modules", ideal.gens))
def factor_module(ring: FiniteRing, ideal: Submodule):
    """(R/I, projection from the regular module) for a right ideal I,
    built once per ring: every call with I returns the one R/I, which the
    cyclic classes, the profile witnesses and the projectivity test read.
    On a ring within SUBMODULE_ENUM_BOUND a listed I is a submodule of R
    by construction, so its quotient skips the closure scan, and the build
    records I's index and the projection as the origin of R/I's content
    (cyclic_origin) unless it has one: the first build of a content wins.
    Only a module with an origin reads the right-ideal lattice."""
    from .ideals import ideal_index  # deferred: ideals builds on modules

    reg = regular_module(ring)
    sub = Submodule(reg, ideal.gens)
    t = (ideal_index(ring).get(sub.gens)
         if ring.order() <= SUBMODULE_ENUM_BOUND else None)
    q, proj = quotient_module(reg, sub, label=f"{ring.label}/I",
                              closed=t is not None)
    if t is not None:
        _origins(ring).setdefault(q.key, (t, proj))
    return q, proj


@memoised(lambda n, l: ("quotients", n.key, l.gens))
def quotient_via_lattice(n: RightModule, l: Submodule):
    """n/l with its projection, memoised on the ring by the contents of n
    and l.  For n = R/L (cyclic_origin) it is R/K, K the preimage of l in
    R, L's rows plus the lifts of l's, read from factor_module: (R/L)/(K/L)
    ≅ R/K.  The projection sends e_i to π_K(section_L(e_i)).  Any other
    n goes through quotient_module."""
    from .ideals import right_ideals  # deferred: ideals builds on modules

    origin = cyclic_origin(n)
    if origin is None:
        return quotient_module(n, l)
    t, proj_l = origin
    reg = proj_l.source
    lifts = [apply_matrix(r, proj_l.section, reg.orders) for r in l.gens.rows]
    low = right_ideals(n.ring)[t].gens.rows
    q, proj_k = factor_module(n.ring, Submodule(reg, low + tuple(lifts)))
    proj = ModuleMap(n, q, [proj_k.apply(s) for s in proj_l.section])
    proj.section = [proj_l.apply(s) for s in proj_k.section]
    return q, proj


# -- submodule enumeration -----------------------------------------------------


def _images(m: RightModule, x):
    """The rows x·g_j over the ring generators g_j: the matrix of r ↦ x·r."""
    return [m.act_gen(x, j) for j in range(m.ring.rank)]


def cyclic_span(m: RightModule, x) -> Submodule:
    """x·R: the smallest submodule containing x, the span of x and the
    x·g_j, as the ring generators g_j span R."""
    x = m.reduce_el(x)
    return Submodule(m, [x] + _images(m, x))


@memoised(lambda ring, rels: ("quotient_presentation", rels))
def _presentation(ring: FiniteRing, rels: ModMatrix):
    """(new_orders, proj, lift) presenting (⊕ Z/rels.col_moduli) / ⟨rels⟩,
    memoised on the ring by rels, a canonical Howell matrix whose column
    moduli and rows are all it reads.  Callers must not mutate it.

    Relations with one modulus n on every column and unit Howell pivots,
    as over every F_p, are read off their echelon form
    (echelon_presentation); others, over Z/p^k with a non-unit pivot or
    with mixed moduli, take the Smith form (quotient_presentation).  The
    orders agree; the coordinates, which no output prints, may not.
    Quotient rings, whose coordinates are printed, keep the Smith form."""
    return (echelon_presentation(rels)
            or quotient_presentation(rels.col_moduli, rels.rows))


@memoised(lambda n: ("submodules", n.key))
def submodules(n: RightModule):
    """Every submodule, canonically sorted; 0 and N included.

    A module whose content factor_module has built as R/L reads its
    submodules off the right-ideal lattice (_cyclic_submodules).  Any
    other module walks up the lattice by covers (_walk_submodules): from
    S it steps to S + c for the cyclic c ⊄ S whose proper cyclic
    submodules all lie in S, which are the covers of S.  The walk asks
    nothing of the radical and presents no N/S.  The regular module,
    whose walk defines that lattice, always walks: factor_module lists
    the right ideals, submodules(R), before it records any origin, so a
    content equal to R's finds its list memoised before it has an origin.

    The list is memoised on the ring by n's content, so an equal module
    built separately shares it: the ``parent`` of each submodule is the
    first module of that content to be listed.
    """
    if n.order() > SUBMODULE_ENUM_BOUND:
        raise BoundExceededError(f"module of order {n.order()} exceeds "
                                 f"enumeration bound {SUBMODULE_ENUM_BOUND}")
    origin = cyclic_origin(n)
    if origin is not None:
        return _cyclic_submodules(n, *origin)
    return submodule_walk(n)[0]


@memoised(lambda n: ("submodule_walk", n.key))
def submodule_walk(n: RightModule):
    """_walk_submodules(n), memoised on the ring by n's content: the
    right-ideal lattice reads its order off the bitsets of the regular
    module's walk."""
    return _walk_submodules(n)


def _walk_submodules(n: RightModule):
    """(subs, held): every submodule of n, canonically sorted, by a walk
    from 0 over the covers, and {S: the bitset of the cyclic submodules
    inside S} over them.  S ⊆ T iff held[S] lies inside held[T], S being
    the sum of its cyclic submodules.

    Let c be a cyclic submodule, c ⊄ S, whose proper cyclic submodules
    all lie in S.  A proper submodule of c is the sum of its cyclic
    submodules, each proper in c, so it lies in S: c ∩ S holds every
    proper submodule of c, (S + c)/S ≅ c/(c ∩ S) is simple, and S + c
    covers S.  Conversely, if T covers S, a cyclic c ⊆ T, c ⊄ S, minimal
    as such, is of that kind, and S ⊊ S + c ⊆ T gives S + c = T.  So the
    covers of S are the S + c over those c, and a c inside a cover
    already found from S gives that cover again and is skipped: one
    Howell sum per cover edge.  Every T ≠ 0 has a lower cover, so by
    induction on |T| every submodule is reached from 0.

    The distinct c = x·R are spanned once, one cyclic_span per class of
    x under x ~ k·x, k prime to the additive order of x; each submodule
    is read as the bitset of the c inside it, from its elements.  From S
    the c ⊄ S are tried in turn, and those holding a c tried before are
    dropped unseen: they are not minimal outside S.
    """
    orders = n.orders

    def elements(sub):
        """sub's elements: each Howell row's multiples added to the
        elements built so far."""
        out = [n.zero]
        for row in sub.gens.rows:
            j = next(k for k, x in enumerate(row) if x)
            count = orders[j] // math.gcd(row[j], orders[j])
            steps = [tuple(q * x % m for x, m in zip(row, orders))
                     for q in range(1, count)]
            out += [tuple(map(operator.mod, map(operator.add, v, w), orders))
                    for w in steps for v in out]
        return out

    spans, index, pos = [], {}, {}  # pos: element -> index of its span
    for x in n.elements():
        if x in pos:
            continue
        c = cyclic_span(n, x)
        t = index.setdefault(c.gens, len(spans))
        if t == len(spans):
            spans.append(c)
        order = math.lcm(*(m // math.gcd(a, m) for a, m in zip(x, orders)))
        for k in range(1, order + 1):
            if math.gcd(k, order) == 1:
                pos[tuple(k * a % m for a, m in zip(x, orders))] = t

    def inside(sub):
        """The bitset of the cyclic submodules inside sub."""
        mask = 0
        for t in {pos[y] for y in elements(sub)}:
            mask |= 1 << t
        return mask

    # the proper cyclic submodules of each c
    below = [inside(c) & ~(1 << t) for t, c in enumerate(spans)]
    above = [0] * len(spans)
    for t, mask in enumerate(below):
        for b in _bits(mask):
            above[b] |= 1 << t
    every = (1 << len(spans)) - 1
    zero = zero_submodule(n)
    seen = {zero: inside(zero)}
    frontier = [zero]
    while frontier:
        s = frontier.pop()
        held = seen[s]
        free = every & ~held
        while free:
            bit = free & -free
            free ^= bit
            t = bit.bit_length() - 1
            free &= ~above[t]  # they hold c ⊄ S
            if below[t] & ~held:
                continue
            cover = submodule_sum(s, spans[t])
            mask = seen.get(cover)
            if mask is None:
                mask = seen[cover] = inside(cover)
                frontier.append(cover)
            free &= ~mask
    return sorted(seen, key=lambda s: (s.size(), s.gens.rows)), seen


def _cyclic_submodules(n: RightModule, low: int, proj: ModuleMap):
    """The submodules of n = R/L, L = right_ideals(ring)[low], sorted as
    the walk sorts them: the images K/L = π(K) of the right ideals K ⊇ L
    (the correspondence theorem, Anderson–Fuller Ch. 1), read off the
    lattice.  The regular module is never read so: its walk defines it."""
    from .ideals import right_ideal_lattice, right_ideals  # deferred

    ideals = right_ideals(n.ring)
    subs = [Submodule(n, [proj.apply(r) for r in ideals[t].gens.rows])
            for t in _bits(right_ideal_lattice(n.ring).up[low])]
    return sorted(subs, key=lambda s: (s.size(), s.gens.rows))


def submodule_sum(a: Submodule, b: Submodule) -> Submodule:
    return Submodule(a.parent, a.gens.stack(b.gens))


def submodule_as_module(sub: Submodule):
    """Present a submodule abstractly: (module, inclusion ModuleMap).

    The pair is memoised on the ring, keyed by the parent's content and
    the Howell generators of the submodule, so equal submodules share one
    pair, even in parents built separately: the presented module and the
    inclusion's target may belong to an equal-content twin of sub.parent.
    Callers must not mutate it.
    """
    return _present_submodule(sub.parent, sub.gens)


@memoised(lambda parent, gens: ("presentations", parent.key, gens))
def _present_submodule(parent: RightModule, gens: ModMatrix):
    g = gens.nrows
    if g == 0:
        zero = zero_module(parent.ring)
        return zero, ModuleMap(zero, parent, [])
    new_orders, proj, lift = _presentation(parent.ring, gens.kernel())

    def express(vec):
        sol = gens.solve(vec)
        if sol is None:
            raise InputError("span is not closed under the ring action")
        return apply_matrix(sol[0], proj, new_orders)

    incl_rows = [apply_matrix(lrow, gens.rows, parent.orders) for lrow in lift]
    action = [[express(parent.act_gen(row, j)) for row in incl_rows]
              for j in range(parent.ring.rank)]
    mod = _validated(RightModule(parent.ring, new_orders,
                                 _reduced_action(new_orders, action),
                                 label=f"{parent.label} (sub)"))
    return mod, ModuleMap(mod, parent, incl_rows)


# -- socle, radical, singular, annihilator ------------------------------------


def minimal_submodules(m: RightModule):
    """Minimal nonzero submodules, in the canonical order of submodules(m)."""
    return _minimal(submodules(m))


def _minimal(subs):
    """The minimal nonzero members of a module's submodules, subs sorted
    by size, so 0 comes first: a candidate is minimal iff it holds none of
    the minimal ones listed before it, as a non-minimal one holds a
    strictly smaller minimal one."""
    found = []
    for s in subs[1:]:
        if not any(s.contains_sub(t) for t in found):
            found.append(s)
    return found


def socle(m: RightModule) -> Submodule:
    """Sum of the minimal submodules; cross-checked against the subgroup
    annihilated by the radical."""
    acc = Submodule(m, [row for s in minimal_submodules(m)
                        for row in s.gens.rows])
    from .ideals import jacobson_radical  # deferred: ideals builds on modules

    jac = jacobson_radical(m.ring)
    killed = annihilated_by(m, jac)
    if killed != acc:
        raise TheoremViolationError(
            f"socle mismatch on {m.label}: sum of minimal submodules differs "
            "from the radical annihilator")
    return acc


def annihilated_by(m: RightModule, ideal: Submodule) -> Submodule:
    """{x in M : x·i = 0 for all i in the ideal}."""
    gens = ideal.gens.rows
    if not gens:
        return full_submodule(m)
    rows = [tuple(x for g in gens for x in m.act(m.generator(i), g))
            for i in range(m.rank)]
    eq_moduli = m.orders * len(gens)
    rhs = (0,) * len(eq_moduli)
    _, ker = solve_affine(rows, eq_moduli, rhs, m.orders)
    return Submodule(m, ker)


def module_times_ideal(sub: Submodule, ideal: Submodule) -> Submodule:
    """sub·I for a right ideal I: the span of the x·s over the generators
    x of sub and s of I, the product being bilinear."""
    m = sub.parent
    return Submodule(m, [m.act(x, s) for x in sub.gens.rows
                         for s in ideal.gens.rows])


def socle_series(m: RightModule):
    """Ascending socle chain 0 < Soc M < Soc₂ M < ... < M and its length."""
    chain = [zero_submodule(m)]
    current = chain[0]
    while current.size() < m.order():
        q, proj = quotient_module(m, current, closed=True)
        s = socle(q)
        lifted = [apply_matrix(row, proj.section, m.orders)
                  for row in s.gens.rows]
        nxt = Submodule(m, current.gens.rows + tuple(lifted))
        if nxt.size() == current.size():
            raise TheoremViolationError(
                f"socle series stalls on {m.label}")
        chain.append(nxt)
        current = nxt
    loewy_length = len(chain) - 1
    return chain, loewy_length


def radical_series(m: RightModule):
    """Descending chain M > MJ > MJ² > ... > 0."""
    from .ideals import jacobson_radical

    return _descending_series(
        full_submodule(m), jacobson_radical(m.ring),
        f"radical series stalls on {m.label}; ring radical is not nilpotent "
        "on this module")


def _descending_series(start: Submodule, ideal: Submodule, message: str):
    """[S, S·I, S·I², …, 0] for a submodule S and a right ideal I; a step
    that does not shrink raises TheoremViolationError(message)."""
    chain = [start]
    while chain[-1].size() > 1:
        nxt = module_times_ideal(chain[-1], ideal)
        if nxt.size() >= chain[-1].size():
            raise TheoremViolationError(message)
        chain.append(nxt)
    return chain


def element_annihilator(m: RightModule, x) -> Submodule:
    """ann(x) = {r in R : x·r = 0}, a right ideal: the kernel of r ↦ x·r."""
    _, ker = solve_affine(_images(m, x), m.orders, m.zero, m.ring.orders)
    return Submodule(regular_module(m.ring), ker)


def annihilator(m: RightModule) -> Submodule:
    """{r in R : M·r = 0}, as a submodule of the regular module (two-sided)."""
    ring = m.ring
    reg = regular_module(ring)
    if m.rank == 0:
        return full_submodule(reg)
    rows = [tuple(x for row in act.rows for x in row) for act in m.action]
    eq_moduli = m.orders * m.rank
    _, ker = solve_affine(rows, eq_moduli, (0,) * len(eq_moduli), ring.orders)
    return Submodule(reg, ker)


# -- isomorphism and enumeration ----------------------------------------------


def additive_type(orders) -> tuple:
    """The invariant factors of ⊕ Z/orders, ascending, 1s dropped, as
    quotient_presentation gives them: for each prime p, the p-parts of
    the orders, largest first, are the p-parts of the factors from the
    largest down."""
    parts = {}
    for m in orders:
        p = 2
        while m > 1:
            if p * p > m:
                p = m  # what is left is prime
            q = 1
            while m % p == 0:
                m //= p
                q *= p
            if q > 1:
                parts.setdefault(p, []).append(q)
            p += 1
    factors = [1] * max(map(len, parts.values()), default=0)
    for qs in parts.values():
        for i, q in enumerate(sorted(qs, reverse=True)):
            factors[i] *= q
    return tuple(reversed(factors))


def is_isomorphic_modules(a: RightModule, b: RightModule):
    """(flag, witness): witness is an isomorphism a → b.

    Decision: modules of the same finite order are isomorphic iff some
    map in Hom_R(a, b) is onto.  An isomorphism φ makes f ↦ f∘φ⁻¹ a
    bijection Hom(a, b) → End(b), so hom groups of unequal size answer
    no at once.  Otherwise the walk reads the tops: bJ is superfluous in
    the finite b (Nakayama, Anderson–Fuller §9–10), so f is onto iff its
    image in b/bJ is, and maps that differ by a map into bJ are onto
    together.  One map per coset of Hom(a, bJ) is tested, as the span of
    the hom basis pushed into Hom(a, b/bJ); the first image onto the top
    is lifted to a map f.  The witness f is checked against the
    module-map conditions, an independent check of the hom solve, and
    for a full image, a check of J and of Nakayama's lemma.

    Isomorphic modules have equal annihilators, so two cyclic modules
    R/K and R/L (cyclic_origin) whose annihilators, the two-sided cores
    of K and L (annihilator_cores), differ answer no before any hom solve.
    """
    if (not same_ring(a.ring, b.ring) or a.order() != b.order()
            or additive_type(a.orders) != additive_type(b.orders)):
        return False, None
    ka, kb = cyclic_origin(a), cyclic_origin(b)
    if ka and kb:
        from .ideals import annihilator_cores  # deferred

        cores = annihilator_cores(a.ring)
        if cores[ka[0]] != cores[kb[0]]:
            return False, None
    from .hom import hom_group  # deferred: hom builds on modules

    homs = hom_group(a, b)
    if homs.size() > ISO_SEARCH_BOUND:
        raise BoundExceededError(f"hom group of order {homs.size()} "
                                 f"exceeds bound {ISO_SEARCH_BOUND}")
    if homs.size() != hom_group(b, b).size():
        return False, None
    top, proj = _top(b)
    gens = homs.gen_maps()
    images = ModMatrix(top.orders * a.rank,
                       [[x for row in g.rows for x in proj.apply(row)]
                        for g in gens])
    t = top.rank
    for flat in images.span_elements():
        rows = [flat[i * t:(i + 1) * t] for i in range(a.rank)]
        if howell_span(top.orders, rows).span_size() == top.order():
            break
    else:
        return False, None
    coeffs, _ = images.solve(flat)
    f = ModuleMap(a, b, [apply_matrix(coeffs, [g.rows[i] for g in gens],
                                      b.orders) for i in range(a.rank)])
    if not f.is_valid():
        raise TheoremViolationError(
            f"hom solve from {a.label} to {b.label} gave a non-map")
    if f.image_span().span_size() != b.order():
        raise TheoremViolationError(
            f"a map from {a.label} onto the top of {b.label} lifts to a "
            f"map that is not onto {b.label}")
    return True, f


@memoised(lambda b: ("top", b.key))
def _top(b: RightModule):
    """(b/bJ, the projection b → b/bJ), memoised on the ring by b's
    content; the projection's source is the first module of that content.
    On rings too large to list their right ideals, J is not computed and
    the superfluous submodule taken is 0, so the top is b itself."""
    ring = b.ring
    if ring.order() > SUBMODULE_ENUM_BOUND:
        small = zero_submodule(b)
    else:
        from .ideals import jacobson_radical  # deferred: ideals builds on modules

        small = module_times_ideal(full_submodule(b), jacobson_radical(ring))
    return quotient_module(b, small, label=f"top of {b.label}", closed=True)


@memoised("cyclic_classes")
def cyclic_modules_up_to_iso(ring: FiniteRing):
    """One representative R/I per isomorphism class of cyclic modules,
    memoised on the ring.

    Each R/L whose content was not classified before is compared only
    with the classes of its interval shape, the multiset {|K|/|L| : K ⊇ L}
    of its submodule orders read off the right-ideal lattice (the
    correspondence theorem): isomorphic modules have isomorphic submodule
    lattices.  A content met again is the same module and is skipped.
    The representatives are those of a scan over every class found so
    far."""
    from .ideals import right_ideal_lattice, right_ideals  # deferred

    ideals = right_ideals(ring)
    lat = right_ideal_lattice(ring)
    sizes = [i.size() for i in ideals]
    reps, by_shape, seen = [], {}, set()
    for t, ideal in enumerate(ideals):
        q, _ = factor_module(ring, ideal)
        if q.key in seen:
            continue
        seen.add(q.key)
        shape = tuple(sorted(sizes[k] // sizes[t] for k in _bits(lat.up[t])))
        bucket = by_shape.setdefault(shape, [])
        if not any(is_isomorphic_modules(q, r)[0] for r in bucket):
            bucket.append(q)
            reps.append(q)
    reps.sort(key=lambda m: (m.order(), m.orders))
    return reps


def _free_submodules(free: RightModule, k: int):
    """submodules(free) for free = R^k, within the enumeration bounds."""
    if free.order() > SUBMODULE_ENUM_BOUND:
        raise BoundExceededError(
            f"free module of order {free.order()} not enumerable")
    subs = submodules(free)
    if len(subs) > FREE_SUBMODULE_CEILING:
        raise BoundExceededError(
            f"{len(subs)} submodules of R^{k} exceed ceiling "
            f"{FREE_SUBMODULE_CEILING}")
    return subs


def _class_invariant(m: RightModule):
    """(additive type, sizes of the radical series M ⊇ MJ ⊇ ... ⊇ 0): an
    isomorphism carries each MJⁱ onto the matching one, so isomorphic
    modules share it."""
    return additive_type(m.orders), tuple(s.size() for s in radical_series(m))


def enumerate_modules(ring: FiniteRing, max_free_rank: int = 2,
                      max_order: int = 64):
    """All iso-classes of quotients of R^k, k ≤ max_free_rank, of order
    ≤ max_order.  The quotients of R^1 are the cyclic classes.

    At rank k ≥ 2 each content is tested once.  A quotient whose content
    was classified before, as a class or as a match, is the same module
    and is skipped.  A new content is compared only with the classes that
    share its _class_invariant, which the cyclic classes get once R^2 is
    listed.  The representatives are those of a scan of every quotient
    over every class found so far."""
    if max_free_rank < 1 or max_order < 1:
        raise InputError(f"module bounds must be >= 1, got rank "
                         f"{max_free_rank} and order {max_order}")
    reg = regular_module(ring)
    _free_submodules(reg, 1)
    reps = [c for c in cyclic_modules_up_to_iso(ring)
            if c.order() <= max_order]
    seen, buckets = {c.key for c in reps}, {}
    for k in range(2, max_free_rank + 1):
        free = direct_sum([reg] * k, label=f"R^{k}")
        subs = _free_submodules(free, k)
        if k == 2:
            for c in reps:
                buckets.setdefault(_class_invariant(c), []).append(c)
        for s in subs:
            if free.order() // s.size() > max_order:
                continue
            q, _ = quotient_module(free, s, closed=True)
            if q.key in seen:
                continue
            seen.add(q.key)
            bucket = buckets.setdefault(_class_invariant(q), [])
            if not any(is_isomorphic_modules(q, r)[0] for r in bucket):
                bucket.append(q)
                reps.append(q)
    reps.sort(key=lambda m: (m.order(), m.orders))
    return reps
