"""Hom groups and relative injectivity/projectivity.

Hom_R(A, B) is computed one block pair at a time: the coordinates of each
module split into blocks that its action never mixes, so A = ⊕ A_s and
B = ⊕ B_t, and Hom(A, B) = ⊕ Hom(A_s, B_t) (Anderson–Fuller §16).  Each
Hom(A_s, B_t) is one linear solve: a map is a matrix F over the target
moduli that is additively well defined and commutes with the action of
every ring generator, all of which are linear conditions on the
entries.  The solve reads only the two contents (generator orders and
action rows), and a block's content is sliced out of its module's, so
no block is built as a module.

Relative injectivity of M with respect to N is decided by surjectivity
of the restriction maps Hom(N,M) → Hom(K,M) over all submodules K ≤ N,
one span comparison per submodule; Hom(N, M) is read only when some
Hom(K, M) ≠ 0, K ⊊ N.

Relative projectivity has two routes.  The hom route asks, for each
submodule L of N, whether the composites of Hom(M, N) with N → N/L span
Hom(M, N/L).  The colon route serves M = R/I, I two-sided, and N = R/L:
R/I is R/L-projective iff C(L) + K = C(K) for every right ideal K ⊇ L,
C(K) = {r : rI ⊆ K}, a lattice test on one table per I
(is_relatively_projective has the proof).
"""

from __future__ import annotations

from .errors import InputError, TheoremViolationError
from .exactla import (
    ModMatrix,
    apply_matrix,
    howell_span,
    solve_affine,
    zero_matrix,
)
from .ideals import colon_ideals, right_ideal_lattice, right_ideals
from .lattice import _bits
from .modules import (
    ModuleMap,
    RightModule,
    Submodule,
    cyclic_origin,
    quotient_via_lattice,
    regular_module,
    submodule_as_module,
    submodules,
)
from .ring import memoised, same_ring


class HomGroup:
    """The abelian group Hom_R(source, target), as a canonical span.

    ``basis`` spans the group inside ⊕_(i,j) Z/target.orders[j], the
    flattened matrix coordinates (source generator i, target coord j).
    """

    def __init__(self, source: RightModule, target: RightModule,
                 basis: ModMatrix):
        self.source = source
        self.target = target
        self.basis = basis

    def size(self) -> int:
        return self.basis.span_size()

    def _unflatten(self, flat) -> ModuleMap:
        return ModuleMap(self.source, self.target,
                         _map_rows(flat, self.source.rank, self.target.rank))

    def gen_maps(self):
        return [self._unflatten(r) for r in self.basis.rows]


def hom_group(a: RightModule, b: RightModule) -> HomGroup:
    """Hom_R(a, b), wrapping a memoised canonical basis.

    The basis is a fact of the two modules' contents (generator orders
    and action rows), memoised on the ring under ``("hom_bases", a.key,
    b.key)``.  Equal modules built separately share the entry; the table
    holds no module, and the returned group's ``source`` and ``target``
    are the objects passed in.
    """
    if not same_ring(a.ring, b.ring):
        raise InputError("hom between modules over different rings")
    return HomGroup(a, b, _hom_kernel(a.ring, a.key, b.key))


@memoised(lambda ring, key: ("blocks", key))
def _blocks(ring, key):
    """(coordinates, content) for each block of the module of content
    key, ordered by first coordinate.  The coordinates are sorted tuples,
    the classes of the union-find joining i and k whenever some action
    row sends e_i to an element with a nonzero k-th entry.  The action
    maps the span of each block into itself, so the module is the direct
    sum of its blocks, and a block's content is its orders and action
    rows sliced out of key; a one-block module's content is key itself."""
    orders, action = key
    parent = list(range(len(orders)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for rows in action:
        for i, row in enumerate(rows):
            for k, x in enumerate(row):
                if x:
                    parent[find(i)] = find(k)
    blocks = {}
    for i in range(len(orders)):
        blocks.setdefault(find(i), []).append(i)
    coords = [tuple(b) for b in blocks.values()]
    if len(coords) == 1:
        return [(coords[0], key)]
    return [(c, (tuple(orders[i] for i in c),
                 tuple(tuple(tuple(rows[i][k] for k in c) for i in c)
                       for rows in action)))
            for c in coords]


@memoised(lambda ring, a, b: ("hom_bases", a, b))
def _hom_kernel(ring, a, b) -> ModMatrix:
    """The canonical basis of Hom_R(A, B) for the modules of contents a
    and b, one block pair at a time.

    Each Hom(A_s, B_t) is this fact of the pair of block contents, so a
    pair that repeats is solved once; its rows are placed at the
    flattened coordinates of the pair, and one Howell span canonicalises
    them.  The result is the basis that _hom_kernel_mono gives for the
    whole pair.
    """
    sa, sb = _blocks(ring, a), _blocks(ring, b)
    if len(sa) <= 1 and len(sb) <= 1:
        return _hom_kernel_mono(a, b)
    br = len(b[0])
    umods = b[0] * len(a[0])
    rows = []
    for cs, a_s in sa:
        for ct, b_t in sb:
            w = len(ct)
            for flat in _hom_kernel(ring, a_s, b_t).rows:
                row = [0] * len(umods)
                for p, x in enumerate(flat):
                    if x:
                        row[cs[p // w] * br + ct[p % w]] = x
                rows.append(row)
    return howell_span(umods, rows)


def _hom_kernel_mono(a, b) -> ModMatrix:
    """The solution space of the linear conditions defining Hom_R(A, B)
    for the modules of contents a and b, in one solve over all the
    coordinates."""
    (a_orders, a_action), (b_orders, b_action) = a, b
    ar, br = len(a_orders), len(b_orders)
    ncols = ar * br
    umods = b_orders * ar
    if ncols == 0:
        return zero_matrix(umods)

    def upos(i, j):
        return i * br + j

    eq_moduli = []
    cols = [[] for _ in range(ncols)]

    def add_equation(coeffs: dict, modulus: int):
        pos = len(eq_moduli)
        eq_moduli.append(modulus)
        for u, c in coeffs.items():
            cols[u].append((pos, c))

    # additive well-definedness: orders[i]·F[i][j] ≡ 0
    for i in range(ar):
        for j in range(br):
            add_equation({upos(i, j): a_orders[i]}, b_orders[j])
    # commutation with each generator action
    for arows, bact in zip(a_action, b_action):
        for i in range(ar):
            moved = arows[i]  # e_i · g in source
            for u in range(br):
                coeffs = {}
                for t in range(ar):
                    if moved[t]:
                        coeffs[upos(t, u)] = coeffs.get(upos(t, u), 0) + moved[t]
                for v in range(br):
                    if bact[v][u]:
                        coeffs[upos(i, v)] = coeffs.get(upos(i, v), 0) - bact[v][u]
                coeffs = {k: c for k, c in coeffs.items() if c % b_orders[u]}
                if coeffs:
                    add_equation(coeffs, b_orders[u])
    neq = len(eq_moduli)
    rows = [[0] * neq for _ in range(ncols)]
    for u in range(ncols):
        for pos, c in cols[u]:
            rows[u][pos] = c
    _, ker = solve_affine(rows, eq_moduli, (0,) * neq, umods)
    return ker


def _map_rows(flat, s: int, t: int):
    """The s image rows, t entries each, of a flattened map matrix."""
    return [flat[i * t:(i + 1) * t] for i in range(s)]


def _compose(f, g, orders):
    """The flattened matrix of x ↦ (x·f)·g, the map given by the rows f
    followed by the one given by the rows g; orders are g's target's."""
    return tuple(x for r in f for x in apply_matrix(r, g, orders))


def _missing_map(homs: HomGroup, images):
    """A map of homs outside the span of the flattened images, or None
    when the images span all of homs.  A smaller span misses one of the
    basis maps, so the certificate is found without enumerating homs."""
    image = howell_span(homs.basis.col_moduli, images)
    if image.span_size() == homs.size():
        return None
    for flat in homs.basis.rows:
        if not image.contains(flat):
            return homs._unflatten(flat)
    raise TheoremViolationError("span size mismatch without a missing map")


def is_relatively_injective(m: RightModule, n: RightModule):
    """(flag, certificate): certificate is (K, φ) with φ: K → m
    non-extendable to n when the answer is negative.

    The basis of Hom(n, m) is read only at the first K ⊊ n with
    Hom(K, m) ≠ 0, so a test that meets no such K (n simple, say) stores
    no hom basis for the pair.  Each basis map F is held as its image
    rows, and its restriction to K is the images of the inclusion's rows
    under F."""
    if not same_ring(m.ring, n.ring):
        raise InputError("hom between modules over different rings")
    maps = None
    for k in submodules(n):
        if k.size() == n.order():
            continue  # restriction along the identity
        kmod, incl = submodule_as_module(k)
        homs_km = hom_group(kmod, m)
        if homs_km.size() == 1:
            continue
        if maps is None:
            maps = [_map_rows(flat, n.rank, m.rank)
                    for flat in _hom_kernel(n.ring, n.key, m.key).rows]
        restrictions = [_compose(incl.rows, f, m.orders) for f in maps]
        phi = _missing_map(homs_km, restrictions)
        if phi is not None:
            return False, (k, phi)
    return True, None


def is_relatively_projective(m: RightModule, n: RightModule):
    """(flag, certificate): certificate is (L, ψ) with ψ: m → n/L
    non-liftable through the projection when the answer is negative.

    Each n/L is memoised on the ring by the contents of n and L, so the
    quotient, and ψ's target, may be one built from an equal-content twin
    of n; for a cyclic n = R/I it is the factor module R/K ≅ n/L, K the
    preimage of L (see quotient_via_lattice).

    When m = R/I with I two-sided and n = R/L (cyclic_origin of both,
    recorded on rings that list their right ideals), the answer is read off
    the colon ideals C(K) = {r : rI ⊆ K} (ideals.colon_ideals).  A map
    R/I → R/K is 1 + I ↦ y + K for a y with yI ⊆ K, so Hom(R/I, R/K) ≅
    C(K)/K.  The quotients of R/L are the R/K, K ⊇ L (the correspondence
    theorem), and 1 + I ↦ y + L composed with R/L → R/K is 1 + I ↦ y + K;
    so the maps that lift are the y + K with y in C(L) + K, and R/I is
    R/L-projective iff C(L) + K = C(K) for every K ⊇ L.  On a failing K,
    ψ(1 + I) = y + K for a Howell row y of C(K) outside C(L) + K.  Other
    pairs take the hom route (_projective_by_homs).
    """
    origin_m, origin_n = cyclic_origin(m), cyclic_origin(n)
    if origin_m and origin_n and same_ring(m.ring, n.ring):
        colons = colon_ideals(m.ring, origin_m[0])
        if colons is not None:
            return _projective_by_colons(m, n, colons, origin_m, origin_n)
    return _projective_by_homs(m, n)


def _projective_by_colons(m: RightModule, n: RightModule, colons,
                          origin_m, origin_n):
    """is_relatively_projective(m, n) for m = R/I, I two-sided, and
    n = R/L, given the colon ideals of I and the origins of m and n; the
    K ⊇ L are tried in ideal index order."""
    ring = m.ring
    lat = right_ideal_lattice(ring)
    start, proj_n = origin_n
    for k in _bits(lat.up[start]):
        lifted = lat.join[colons[start]][k]
        if lifted == colons[k]:
            continue
        ideals = right_ideals(ring)
        y = next((r for r in ideals[colons[k]].gens.rows
                  if not ideals[lifted].contains(r)), None)
        if y is None:
            raise TheoremViolationError(
                f"{ring.label}: colon ideals of a two-sided ideal are not "
                "monotone")
        l = Submodule(n, [proj_n.apply(r) for r in ideals[k].gens.rows])
        q, proj = quotient_via_lattice(n, l)
        psi = ModuleMap(m, q, [proj.apply(proj_n.apply(ring.el_mul(y, s)))
                               for s in origin_m[1].section])
        return False, (l, psi)
    return True, None


def _projective_by_homs(m: RightModule, n: RightModule):
    """is_relatively_projective(m, n) by hom groups: for each submodule L
    of n, the composites of Hom(m, n) with n → n/L must span
    Hom(m, n/L).  Each basis map of Hom(m, n) is held as its image rows,
    and its composite with n → n/L is those rows under the projection."""
    maps = [_map_rows(flat, m.rank, n.rank)
            for flat in hom_group(m, n).basis.rows]
    for l in submodules(n):
        if l.size() == 1:
            continue  # lifting along the identity
        q, proj = quotient_via_lattice(n, l)
        homs_mq = hom_group(m, q)
        if homs_mq.size() == 1:
            continue
        composites = [_compose(f, proj.rows, q.orders) for f in maps]
        psi = _missing_map(homs_mq, composites)
        if psi is not None:
            return False, (l, psi)
    return True, None


def is_injective(m: RightModule) -> bool:
    """Self-injectivity test relative to the regular module.

    Extending maps from right ideals of R into M suffices for full
    injectivity over these rings (the regular module is a test module).
    """
    flag, _ = is_relatively_injective(m, regular_module(m.ring))
    return flag


def is_projective(m: RightModule) -> bool:
    """Projectivity via projectivity relative to the regular module.

    Any finite M admits an epimorphism R^k → M.  Projectivity relative
    to R gives projectivity relative to R^k (projectivity domains are
    closed under finite direct sums), so the identity of M lifts through
    R^k → M, splitting it; hence M is a summand of a free module, i.e.
    projective.  The converse is immediate.
    """
    flag, _ = is_relatively_projective(m, regular_module(m.ring))
    return flag


def is_quasi(m: RightModule, kind: str) -> bool:
    """Self-relative injectivity or projectivity."""
    if kind == "injective":
        return is_relatively_injective(m, m)[0]
    if kind == "projective":
        return is_relatively_projective(m, m)[0]
    raise ValueError(f"kind must be injective or projective, got {kind!r}")

