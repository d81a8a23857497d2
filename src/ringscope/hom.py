"""Hom groups and relative injectivity/projectivity.

Hom_R(A, B) is computed one block pair at a time: the coordinates of each
module split into blocks that its action never mixes, so A = ⊕ A_s and
B = ⊕ B_t, and Hom(A, B) = ⊕ Hom(A_s, B_t) (Anderson–Fuller §16).  Each
Hom(A_s, B_t) is one linear solve: a map is a matrix F over the target
moduli that is additively well defined and commutes with the action of
every ring generator, all of which are linear conditions on the
entries.  Relative injectivity of M with respect to N is decided by
surjectivity of the restriction maps Hom(N,M) → Hom(K,M) over all
submodules K ≤ N, one span comparison per submodule; Hom(N, M) is read
only when some Hom(K, M) ≠ 0, K ⊊ N.

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
from .ideals import (
    colon_ideals,
    ideal_index,
    right_ideal_lattice,
    right_ideals,
)
from .lattice import _bits
from .modules import (
    SUBMODULE_ENUM_BOUND,
    ModuleMap,
    RightModule,
    Submodule,
    _reduced_action,
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
        t = self.target.rank
        rows = [flat[i * t:(i + 1) * t] for i in range(self.source.rank)]
        return ModuleMap(self.source, self.target, rows)

    def gen_maps(self):
        return [self._unflatten(r) for r in self.basis.rows]


def hom_group(a: RightModule, b: RightModule) -> HomGroup:
    """Hom_R(a, b), wrapping a memoised canonical basis.

    The basis depends only on the contents of the two modules, so it is
    memoised on the ring under ``("hom_bases", a.key, b.key)`` (generator
    orders and action rows).  Equal modules built separately share the
    entry; the table holds no module, and the returned group's ``source``
    and ``target`` are the objects passed in.
    """
    if not same_ring(a.ring, b.ring):
        raise InputError("hom between modules over different rings")
    return HomGroup(a, b, _hom_kernel(a, b))


@memoised(lambda m: ("blocks", m.key))
def _blocks(m: RightModule):
    """The coordinates of m split into blocks, as sorted tuples ordered by
    their first coordinate: the classes of the union-find joining i and k
    whenever some action row sends e_i to an element with a nonzero k-th
    entry.  The action maps the span of each block into itself, so m is
    the direct sum of its blocks; an indecomposable m is one block."""
    parent = list(range(m.rank))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for act in m.action:
        for i, row in enumerate(act.rows):
            for k, x in enumerate(row):
                if x:
                    parent[find(i)] = find(k)
    blocks = {}
    for i in range(m.rank):
        blocks.setdefault(find(i), []).append(i)
    return [tuple(b) for b in blocks.values()]


def _summands(m: RightModule):
    """(coordinates, module) for each block of m: m itself when it is one
    block, else the blocks as modules.  The blocks and the block modules
    are memoised on the ring by m's content, as one module meets many
    others in Hom (the block modules carry the label of the first module
    of that content)."""
    blocks = _blocks(m)
    if len(blocks) <= 1:
        return [(coords, m) for coords in blocks]
    return _block_modules(m)


@memoised(lambda m: ("summands", m.key))
def _block_modules(m: RightModule):
    out = []
    for coords in _blocks(m):
        orders = tuple(m.orders[i] for i in coords)
        action = [[tuple(act.rows[i][k] for k in coords) for i in coords]
                  for act in m.action]
        out.append((coords, RightModule(m.ring, orders,
                                        _reduced_action(orders, action),
                                        label=f"{m.label} (block)")))
    return out


@memoised(lambda a, b: ("hom_bases", a.key, b.key))
def _hom_kernel(a: RightModule, b: RightModule) -> ModMatrix:
    """The canonical basis of Hom_R(a, b), one block pair at a time.

    Each Hom(a_s, b_t) is this fact of the pair of blocks, so a pair that
    repeats is solved once; its rows are placed at the flattened
    coordinates of the pair, and one Howell span canonicalises them.  The
    result is the basis that _hom_kernel_mono gives for the whole pair.
    """
    sa, sb = _summands(a), _summands(b)
    if len(sa) <= 1 and len(sb) <= 1:
        return _hom_kernel_mono(a, b)
    br = b.rank
    umods = b.orders * a.rank
    rows = []
    for cs, ms in sa:
        for ct, mt in sb:
            basis = _hom_kernel(ms, mt)
            w = len(ct)
            for flat in basis.rows:
                row = [0] * len(umods)
                for p, x in enumerate(flat):
                    if x:
                        row[cs[p // w] * br + ct[p % w]] = x
                rows.append(row)
    return howell_span(umods, rows)


def _hom_kernel_mono(a: RightModule, b: RightModule) -> ModMatrix:
    """The solution space of the linear conditions defining Hom_R(a, b),
    in one solve over all the coordinates."""
    ar, br = a.rank, b.rank
    ncols = ar * br
    umods = b.orders * ar
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
            add_equation({upos(i, j): a.orders[i]}, b.orders[j])
    # commutation with each generator action
    for g in range(a.ring.rank):
        bact = b.action[g].rows
        for i in range(ar):
            moved = a.action[g].rows[i]  # e_i · g in source
            for u in range(br):
                coeffs = {}
                for t in range(ar):
                    if moved[t]:
                        coeffs[upos(t, u)] = coeffs.get(upos(t, u), 0) + moved[t]
                for v in range(br):
                    if bact[v][u]:
                        coeffs[upos(i, v)] = coeffs.get(upos(i, v), 0) - bact[v][u]
                coeffs = {k: c for k, c in coeffs.items() if c % b.orders[u]}
                if coeffs:
                    add_equation(coeffs, b.orders[u])
    neq = len(eq_moduli)
    rows = [[0] * neq for _ in range(ncols)]
    for u in range(ncols):
        for pos, c in cols[u]:
            rows[u][pos] = c
    _, ker = solve_affine(rows, eq_moduli, (0,) * neq, umods)
    return ker


def _flatten_map_rows(rows):
    return tuple(x for row in rows for x in row)


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
            t = m.rank
            maps = [[flat[i * t:(i + 1) * t] for i in range(n.rank)]
                    for flat in _hom_kernel(n, m).rows]
        restrictions = [
            _flatten_map_rows(apply_matrix(r, f, m.orders) for r in incl.rows)
            for f in maps]
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

    When m = R/I with I two-sided and n = R/L (cyclic_origin of both), on
    a ring small enough to list its right ideals, the answer is read off
    the colon ideals C(K) = {r : rI ⊆ K} (ideals.colon_ideals).  A map
    R/I → R/K is 1 + I ↦ y + K for a y with yI ⊆ K, so Hom(R/I, R/K) ≅
    C(K)/K.  The quotients of R/L are the R/K, K ⊇ L (the correspondence
    theorem), and 1 + I ↦ y + L composed with R/L → R/K is 1 + I ↦ y + K;
    so the maps that lift are the y + K with y in C(L) + K, and R/I is
    R/L-projective iff C(L) + K = C(K) for every K ⊇ L.  On a failing K,
    ψ(1 + I) = y + K for a Howell row y of C(K) outside C(L) + K.  Other
    pairs take the hom route (_projective_by_homs).
    """
    ring = m.ring
    origin_m, origin_n = cyclic_origin(m), cyclic_origin(n)
    if (origin_m and origin_n and same_ring(ring, n.ring)
            and ring.order() <= SUBMODULE_ENUM_BOUND):
        colons = colon_ideals(ring, origin_m[0])
        if colons is not None:
            return _projective_by_colons(m, n, colons)
    return _projective_by_homs(m, n)


def _projective_by_colons(m: RightModule, n: RightModule, colons):
    """is_relatively_projective(m, n) for m = R/I, I two-sided, and
    n = R/L, given the colon ideals of I; the K ⊇ L are tried in ideal
    index order."""
    ring = m.ring
    lat = right_ideal_lattice(ring)
    gens, proj_n = cyclic_origin(n)
    start = ideal_index(ring)[gens]
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
                               for s in cyclic_origin(m)[1].section])
        return False, (l, psi)
    return True, None


def _projective_by_homs(m: RightModule, n: RightModule):
    """is_relatively_projective(m, n) by hom groups: for each submodule L
    of n, the composites of Hom(m, n) with n → n/L must span
    Hom(m, n/L)."""
    mn_gens = hom_group(m, n).gen_maps()
    for l in submodules(n):
        if l.size() == 1:
            continue  # lifting along the identity
        q, proj = quotient_via_lattice(n, l)
        homs_mq = hom_group(m, q)
        if homs_mq.size() == 1:
            continue
        composites = [_flatten_map_rows(proj.apply(r) for r in gen.rows)
                      for gen in mn_gens]
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

