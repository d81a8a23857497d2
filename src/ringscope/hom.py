"""Hom groups and relative injectivity/projectivity.

Hom_R(A, B) is computed one block pair at a time: the coordinates of each
module split into blocks that its action never mixes, so A = ⊕ A_s and
B = ⊕ B_t, and Hom(A, B) = ⊕ Hom(A_s, B_t) (Anderson–Fuller §16).  Each
Hom(A_s, B_t) is one linear solve: a map is a matrix F over the target
moduli that is additively well defined and commutes with the action of
every ring generator, all of which are linear conditions on the
entries.  Relative injectivity of M with respect to N is decided by
surjectivity of the restriction maps Hom(N,M) → Hom(K,M) over all
submodules K ≤ N, one span comparison per submodule; the projective
side uses composition with the projections N → N/L.
"""

from __future__ import annotations

from .errors import InputError, TheoremViolationError
from .exactla import ModMatrix, howell_span, solve_affine, zero_matrix
from .modules import (
    ModuleMap,
    RightModule,
    _reduced_action,
    quotient_via_lattice,
    regular_module,
    submodule_as_module,
    submodules,
)
from .ring import memo, same_ring


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
    basis = memo(a.ring, ("hom_bases", a.key, b.key), _hom_kernel, a, b)
    return HomGroup(a, b, basis)


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
    blocks = memo(m.ring, ("blocks", m.key), _blocks, m)
    if len(blocks) <= 1:
        return [(coords, m) for coords in blocks]
    return memo(m.ring, ("summands", m.key), _block_modules, m, blocks)


def _block_modules(m: RightModule, blocks):
    out = []
    for coords in blocks:
        orders = tuple(m.orders[i] for i in coords)
        action = [[tuple(act.rows[i][k] for k in coords) for i in coords]
                  for act in m.action]
        out.append((coords, RightModule(m.ring, orders,
                                        _reduced_action(orders, action),
                                        label=f"{m.label} (block)")))
    return out


def _hom_kernel(a: RightModule, b: RightModule) -> ModMatrix:
    """The canonical basis of Hom_R(a, b), one block pair at a time.

    Each Hom(a_s, b_t) is memoised on the ring under the same
    ``("hom_bases", ...)`` key as hom_group, so a pair that repeats is
    solved once; its rows are placed at the flattened coordinates of the
    pair, and one Howell span canonicalises them.  The result is the
    basis that _hom_kernel_mono gives for the whole pair of modules.
    """
    sa, sb = _summands(a), _summands(b)
    if len(sa) <= 1 and len(sb) <= 1:
        return _hom_kernel_mono(a, b)
    br = b.rank
    umods = b.orders * a.rank
    rows = []
    for cs, ms in sa:
        for ct, mt in sb:
            basis = memo(a.ring, ("hom_bases", ms.key, mt.key),
                         _hom_kernel_mono, ms, mt)
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
    non-extendable to n when the answer is negative."""
    nm_gens = hom_group(n, m).gen_maps()
    for k in submodules(n):
        if k.size() == n.order():
            continue  # restriction along the identity
        kmod, incl = submodule_as_module(k)
        homs_km = hom_group(kmod, m)
        if homs_km.size() == 1:
            continue
        restrictions = [_flatten_map_rows(gen.apply(r) for r in incl.rows)
                        for gen in nm_gens]
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
    preimage of L (see quotient_via_lattice)."""
    mn_gens = hom_group(m, n).gen_maps()
    for l in submodules(n):
        if l.size() == 1:
            continue  # lifting along the identity
        q, proj = memo(n.ring, ("quotients", n.key, l.gens),
                       quotient_via_lattice, n, l)
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

