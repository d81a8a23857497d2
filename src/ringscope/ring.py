"""Finite associative rings with identity, given by structure constants.

A ring is an additive group ⊕_i Z/n_i together with a bilinear product
recorded on generators: ``mul[i][j]`` is the coordinate vector of g_i·g_j.
Constructors cover Z/n, explicit tables, path algebras of acyclic quivers
over F_p, matrix rings, finite products, two-sided quotients, and
opposites.
"""

from __future__ import annotations

import graphlib
import itertools
import math
import operator
import os
from functools import reduce

from .errors import BoundExceededError, InputError
from .exactla import ModMatrix, apply_matrix, howell_span, quotient_presentation

DEFAULT_MAX_ORDER = 65536


def max_ring_order() -> int:
    """The ring order cap: RINGSCOPE_MAX_ORDER, a positive integer, when
    set, else DEFAULT_MAX_ORDER."""
    raw = os.environ.get("RINGSCOPE_MAX_ORDER")
    if raw is None:
        return DEFAULT_MAX_ORDER
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise InputError("RINGSCOPE_MAX_ORDER must be a positive integer, "
                         f"got {raw!r}")
    return value


def _integers(values, what: str) -> tuple:
    """values as ints through operator.index, which refuses the floats
    and strings that int() would truncate or parse."""
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        raise InputError(f"{what} must hold integers, got {values!r}") from None


def reduce_vector(vec, orders, what: str = "element"):
    """vec reduced modulo orders; InputError unless it has one integer
    coordinate per order (zip would silently truncate a longer vector)."""
    if len(vec) != len(orders):
        raise InputError(f"{what} has {len(vec)} coordinates, expected "
                         f"{len(orders)}")
    return tuple(x % m for x, m in zip(_integers(vec, what), orders))


_MISSING = object()


def memoised(key):
    """Decorator: the function's answer is a fact kept on its ring, built
    by the function on first use; a build that raises stores nothing.

    A string key names a fact of the ring alone, the one argument.
    Otherwise key maps the arguments, all of which it must read, to a
    tuple naming the table first; the ring is the first argument or its
    ``ring``.  A module's fact carries the module's content key, never
    the module.  Entries live as long as the ring, including those of
    modules since dropped.  The name, qualified name, module and
    docstring are copied by hand: no ``__wrapped__`` is set, so a tracer
    that wraps module attributes leaves nothing behind."""
    name = key if isinstance(key, str) else None

    def decorate(build):
        def fact(*args):
            first = args[0]
            if name is not None:
                k, cache = name, first._cache
            else:
                k = key(*args)
                cache = (first if isinstance(first, FiniteRing)
                         else first.ring)._cache
            value = cache.get(k, _MISSING)
            if value is _MISSING:
                value = cache[k] = build(*args)
            return value

        for attr in ("__module__", "__name__", "__qualname__", "__doc__"):
            setattr(fact, attr, getattr(build, attr))
        return fact

    return decorate


class FiniteRing:
    """A finite ring with identity, immutable once validated.

    ``mul`` is the dense public table; ``_terms[i][j]`` holds the nonzero
    ``(k, c)`` of g_i·g_j, which products read.  The ring holds the memo
    tables of the facts that memoised keeps on it and its modules."""

    def __init__(self, orders, mul, one, label: str = "ring"):
        self.orders = _integers(orders, "generator orders")
        if any(n < 1 for n in self.orders):
            raise InputError("generator orders must be positive")
        d = len(self.orders)
        if len(mul) != d or any(len(row) != d for row in mul):
            raise InputError("multiplication table has wrong shape")
        self.mul = tuple(
            tuple(reduce_vector(vec, self.orders, "product table entry")
                  for vec in row)
            for row in mul
        )
        self._terms = tuple(
            tuple(tuple((k, c) for k, c in enumerate(vec) if c) for vec in row)
            for row in self.mul
        )
        self.one = reduce_vector(one, self.orders, "identity vector")
        self.label = label
        self.zero = (0,) * d
        self.exponent = reduce(math.lcm, self.orders, 1)
        self._cache = {}

    @property
    def rank(self) -> int:
        return len(self.orders)

    def order(self) -> int:
        return math.prod(self.orders)

    def __repr__(self):
        return f"FiniteRing({self.label}, order={self.order()})"

    def reduce_el(self, vec):
        return reduce_vector(vec, self.orders)

    def el_mul(self, x, y):
        acc = [0] * self.rank
        for xi, row in zip(x, self._terms):
            if not xi:
                continue
            for yj, terms in zip(y, row):
                if not yj:
                    continue
                c = xi * yj
                for k, t in terms:
                    acc[k] += c * t
        return tuple(a % m for a, m in zip(acc, self.orders))

    def elements(self):
        cap = max_ring_order()
        if self.order() > cap:
            raise BoundExceededError(
                f"ring of order {self.order()} exceeds enumeration bound {cap}")
        return itertools.product(*(range(n) for n in self.orders))

    def left_mul_matrix(self, a) -> ModMatrix:
        """Matrix of x ↦ a·x in the generator coordinates (rows = images)."""
        rows = [self.el_mul(a, self.generator(j)) for j in range(self.rank)]
        return ModMatrix(self.orders, rows, self.exponent)

    def right_mul_matrix(self, a) -> ModMatrix:
        """Matrix of x ↦ x·a (rows = images of the generators)."""
        rows = [self.el_mul(self.generator(i), a) for i in range(self.rank)]
        return ModMatrix(self.orders, rows, self.exponent)

    def generator(self, i):
        e = [0] * self.rank
        e[i] = 1 % self.orders[i]
        return tuple(e)


def same_ring(r: FiniteRing, s: FiniteRing) -> bool:
    """True iff r and s are one ring: the same object, or the same
    generator orders and structure constants."""
    return r is s or (r.orders == s.orders and r.mul == s.mul)


class IndexSet:
    """A set of indices into one of a ring's canonical lists, held as an
    int bitset (bit t for index t) and ordered by inclusion.  Two are
    equal when they are of one class, over one ring, with the same
    members."""

    def __init__(self, ring: FiniteRing, members: int):
        self.ring = ring
        self.members = members

    def __eq__(self, other):
        return (type(other) is type(self)
                and same_ring(self.ring, other.ring)
                and self.members == other.members)

    def __hash__(self):
        return hash(self.members)

    def __le__(self, other):
        return not self.members & ~other.members

    def __len__(self):
        return self.members.bit_count()


def verify_ring_axioms(r: FiniteRing):
    """None when the tables define a ring with identity r.one; otherwise a
    human-readable description of the first violated law."""
    d, orders, terms = r.rank, r.orders, r._terms
    for i in range(d):
        for j in range(d):
            for k, c in terms[i][j]:
                if (orders[i] * c) % orders[k]:
                    return (f"product g{i}*g{j} not well defined: "
                            f"{orders[i]} copies do not vanish")
                if (orders[j] * c) % orders[k]:
                    return (f"product g{i}*g{j} not well defined: "
                            f"{orders[j]} copies do not vanish")
    for i in range(d):
        g = r.generator(i)
        if r.el_mul(r.one, g) != g:
            return f"left unit law fails on generator g{i}"
        if r.el_mul(g, r.one) != g:
            return f"right unit law fails on generator g{i}"
    # (g_i·g_j)·g_k − g_i·(g_j·g_k) over the nonzero terms of both sides;
    # once the products are well defined, a generator of order 1 has only
    # zero products, so dropping its coefficient 1 % 1 = 0 changes nothing
    for i in range(d):
        row_i = terms[i]
        for j in range(d):
            left, row_j = row_i[j], terms[j]
            for k in range(d):
                right = row_j[k]
                if not (left or right):
                    continue
                acc = {}
                for l, c in left:
                    for m, t in terms[l][k]:
                        acc[m] = acc.get(m, 0) + c * t
                for l, c in right:
                    for m, t in row_i[l]:
                        acc[m] = acc.get(m, 0) - c * t
                if any(v % orders[m] for m, v in acc.items()):
                    return f"associativity fails on (g{i}, g{j}, g{k})"
    return None


def _validated(ring: FiniteRing) -> FiniteRing:
    if ring.order() > max_ring_order():
        raise BoundExceededError(
            f"ring order {ring.order()} exceeds bound {max_ring_order()}")
    report = verify_ring_axioms(ring)
    if report is not None:
        raise InputError(f"{ring.label}: {report}")
    return ring


# -- constructors -----------------------------------------------------------


def zmod(n: int) -> FiniteRing:
    if n < 1:
        raise InputError("zmod needs n >= 1")
    if n == 1:  # the zero ring has no generators, as quotient_ring presents it
        return _validated(FiniteRing((), [], (), label="Z/1"))
    return _validated(FiniteRing((n,), [[(1,)]], (1,), label=f"Z/{n}"))


def table_ring(orders, mul, one, label: str = "table") -> FiniteRing:
    return _validated(FiniteRing(orders, mul, one, label=label))


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    for q in range(2, int(p ** 0.5) + 1):
        if p % q == 0:
            return False
    return True


def path_algebra(p: int, num_vertices: int, arrows, label: str | None = None) -> FiniteRing:
    """Path algebra of an acyclic quiver over F_p.

    Basis: all paths, including one trivial path per vertex.  The product
    a·b is "b then a": nonzero exactly when source(a) = target(b), the
    composite running from source(b) to target(a).
    """
    cap = max_ring_order()
    if p > cap:  # before the trial division, which is slow for a large p
        raise BoundExceededError(f"field order {p} exceeds bound {cap}")
    if not _is_prime(p):
        raise InputError(f"{p} is not prime")
    if num_vertices < 0:
        raise InputError("path algebra needs vertices >= 0")
    most = next(d for d in itertools.count() if p ** (d + 1) > cap)
    over = f"ring order at least {p ** (most + 1)} exceeds bound {cap}"
    if num_vertices > most:
        raise BoundExceededError(over)
    arrows = [(int(s), int(t)) for s, t in arrows]
    verts = list(range(1, num_vertices + 1))
    for s, t in arrows:
        if s not in verts or t not in verts:
            raise InputError(f"arrow {s}->{t} uses an unknown vertex")
    graph = {v: set() for v in verts}
    for s, t in arrows:
        graph[t].add(s)  # t depends on s
    try:
        tuple(graphlib.TopologicalSorter(graph).static_order())
    except graphlib.CycleError as exc:
        raise InputError("quiver has a cycle; path algebra is infinite") from exc

    # paths as (source, target, arrow index tuple); trivial paths first
    paths = [(v, v, ()) for v in verts]
    frontier = list(paths)
    while frontier:
        src, tgt, seq = frontier.pop()
        for idx, (s, t) in enumerate(arrows):
            if s == tgt:
                ext = (src, t, seq + (idx,))
                paths.append(ext)
                frontier.append(ext)
                if len(paths) > most:
                    raise BoundExceededError(over)
    paths.sort(key=lambda q: (len(q[2]), q))
    index = {q: i for i, q in enumerate(paths)}
    d = len(paths)

    def compose(a, b):
        # a after b
        if a[0] != b[1]:
            return None
        return (b[0], a[1], b[2] + a[2])

    zero = (0,) * d
    mul = []
    for a in paths:
        row = []
        for b in paths:
            c = compose(a, b)
            if c is None:
                row.append(zero)
            else:
                e = [0] * d
                e[index[c]] = 1
                row.append(tuple(e))
        mul.append(row)
    one = [0] * d
    for v in verts:
        one[index[(v, v, ())]] = 1
    name = label or f"F{p}-quiver({num_vertices}v,{len(arrows)}a)"
    return _validated(FiniteRing((p,) * d, mul, one, label=name))


def matrix_ring(base: FiniteRing, size: int) -> FiniteRing:
    """size × size matrices over the base ring."""
    if size < 1:
        raise InputError("matrix size must be >= 1")
    # the order is base.order() ** size²: a base of order >= 2 passes the
    # cap only at size² <= cap.bit_length(), and one of order 1 is held to
    # that too, before the basis is listed
    cap = max_ring_order()
    if base.order() ** min(size * size, cap.bit_length()) > cap:
        raise BoundExceededError(f"matrix ring order exceeds bound {cap}")
    if size * size > cap.bit_length():
        raise BoundExceededError(
            f"matrix size {size} exceeds bound: size² > {cap.bit_length()}")
    db = base.rank
    basis = [(i, j, s) for i in range(size) for j in range(size)
             for s in range(db)]
    index = {b: t for t, b in enumerate(basis)}
    d = len(basis)
    orders = tuple(base.orders[s] for (_, _, s) in basis)
    zero = (0,) * d
    mul = []
    for (i, j, s) in basis:
        row = []
        for (k, l, t) in basis:
            if j != k:
                row.append(zero)
                continue
            prod = base.mul[s][t]
            vec = [0] * d
            for u, c in enumerate(prod):
                vec[index[(i, l, u)]] = c
            row.append(tuple(vec))
        mul.append(row)
    one = [0] * d
    for i in range(size):
        for u, c in enumerate(base.one):
            one[index[(i, i, u)]] = c
    return _validated(FiniteRing(orders, mul, one,
                                 label=f"M{size}({base.label})"))


def product_ring(factors) -> FiniteRing:
    factors = list(factors)
    if not factors:
        raise InputError("product of zero rings is not supported")
    orders = tuple(n for r in factors for n in r.orders)
    cap, order = max_ring_order(), 1
    offsets = []
    off = 0
    for t, r in enumerate(factors):
        # the order is checked before the table, while the number is small
        order *= r.order()
        if order > cap:
            more = " at least" if t + 1 < len(factors) else ""
            raise BoundExceededError(
                f"ring order{more} {order} exceeds bound {cap}")
        offsets.append(off)
        off += r.rank
    d = off
    zero = (0,) * d
    mul = [[zero] * d for _ in range(d)]
    for r, o in zip(factors, offsets):
        for i in range(r.rank):
            for j in range(r.rank):
                vec = [0] * d
                for k, c in enumerate(r.mul[i][j]):
                    vec[o + k] = c
                mul[o + i][o + j] = tuple(vec)
    one = [0] * d
    for r, o in zip(factors, offsets):
        for k, c in enumerate(r.one):
            one[o + k] = c
    label = " x ".join(r.label for r in factors)
    return _validated(FiniteRing(orders, mul, one, label=label))


def two_sided_closure(ring: FiniteRing, gens) -> ModMatrix:
    """Howell span of the smallest two-sided ideal containing gens: the
    span of each x and the g_i·x·g_j, as the generators g_i span R."""
    ring_gens = [ring.generator(i) for i in range(ring.rank)]
    rows = []
    for x in map(ring.reduce_el, gens):
        rows.append(x)
        for g in ring_gens:
            gx = ring.el_mul(g, x)
            rows.extend(ring.el_mul(gx, h) for h in ring_gens)
    return howell_span(ring.orders, rows)


def quotient_ring(base: FiniteRing, ideal_gens, label: str | None = None):
    """Factor ring by the two-sided ideal generated by ideal_gens.

    Returns (ring, proj, lift) where proj maps base coordinates onto the
    quotient coordinates and lift is a set-theoretic section.
    """
    ideal = two_sided_closure(base, ideal_gens)
    new_orders, proj, lift = quotient_presentation(base.orders, ideal.rows)

    def down(vec):
        return apply_matrix(vec, proj, new_orders)

    def up(vec):
        return apply_matrix(vec, lift, base.orders)

    mul = [[down(base.el_mul(a, b)) for b in lift] for a in lift]
    one = down(base.one)
    ring = FiniteRing(new_orders, mul, one,
                      label=label or f"{base.label}/I")
    return _validated(ring), down, up


def opposite_ring(base: FiniteRing) -> FiniteRing:
    mul = [[base.mul[j][i] for j in range(base.rank)]
           for i in range(base.rank)]
    return _validated(FiniteRing(base.orders, mul, base.one,
                                 label=f"op({base.label})"))


# -- element-level queries ---------------------------------------------------


def units(ring: FiniteRing) -> set:
    """All elements with a two-sided inverse."""
    return {x for x in ring.elements() if inverse(ring, x) is not None}


def inverse(ring: FiniteRing, x):
    """Two-sided inverse of x, or None."""
    sol = ring.left_mul_matrix(x).solve(ring.one)
    if sol is None:
        return None
    y = ring.reduce_el(sol[0])
    if ring.el_mul(y, x) != ring.one:
        return None
    return y


# -- ring documents -----------------------------------------------------------

# constructor -> its fields, each mapped to how deep its integers sit in
# lists; None marks a construct (or, for "factors", a list of constructs)
SPEC_FIELDS = {
    "zmod": {"n": 0},
    "table": {"orders": 1, "mul": 3, "one": 1},
    "path_algebra": {"p": 0, "vertices": 0, "arrows": 2},
    "matrix": {"base": None, "size": 0},
    "product": {"factors": None},
    "quotient": {"base": None, "ideal_gens": 2},
    "opposite": {"base": None},
}

_SHAPES = ("an integer", "a list of integers", "a list of integer lists",
           "an array of integer lists")


def _ints(x, depth: int) -> bool:
    """x is an integer nested in depth levels of lists."""
    if depth == 0:
        return isinstance(x, int) and not isinstance(x, bool)
    return isinstance(x, list) and all(_ints(v, depth - 1) for v in x)


def int_field(doc, key, depth: int, where: str, default=None):
    """doc[key] (default when absent), checked to hold integers at depth."""
    value = doc.get(key, default)
    if not _ints(value, depth):
        raise InputError(f"{where}.{key} must be {_SHAPES[depth]}")
    return value


def ring_from_spec(doc) -> FiniteRing:
    """Build a ring from a ring document,
    ``{"construct": {"type": ..., ...}, "label": ...}``; see docs/format.md.
    Malformed documents, unknown fields included, raise InputError."""
    if not isinstance(doc, dict) or "construct" not in doc:
        raise InputError("ring file needs a top-level 'construct' object")
    for key in doc:
        if key not in ("construct", "label"):
            raise InputError(f"ring file has unknown field {key!r}")
    label = doc.get("label")
    if label is not None and not isinstance(label, str):
        raise InputError("label must be a string")
    ring = _build(doc["construct"], "construct", label)
    if label:
        ring.label = label
    return ring


def _build(obj, where: str, label: str | None = None) -> FiniteRing:
    """The ring of one construct; where is its path in the document."""
    if not isinstance(obj, dict) or "type" not in obj:
        raise InputError(f"{where}: construct must be an object with a 'type'")
    kind = obj["type"]
    if not isinstance(kind, str) or kind not in SPEC_FIELDS:
        raise InputError(f"{where}: unknown constructor {kind!r}")
    fields = SPEC_FIELDS[kind]
    for key in obj:
        if key != "type" and key not in fields:
            raise InputError(f"{where}: constructor {kind!r} has no field "
                             f"{key!r}")
    for key, depth in fields.items():
        if key not in obj:
            raise InputError(f"{where}: constructor {kind!r} needs field "
                             f"{key!r}")
        if depth is not None:
            int_field(obj, key, depth, where)
    if kind == "zmod":
        return zmod(obj["n"])
    if kind == "table":
        return table_ring(obj["orders"], obj["mul"], obj["one"],
                          label=label or "table")
    if kind == "path_algebra":
        if any(len(a) != 2 for a in obj["arrows"]):
            raise InputError(f"{where}.arrows must be [source, target] pairs")
        return path_algebra(obj["p"], obj["vertices"], obj["arrows"],
                            label=label)
    if kind == "matrix":
        return matrix_ring(_build(obj["base"], where + ".base"), obj["size"])
    if kind == "product":
        if not isinstance(obj["factors"], list):
            raise InputError(f"{where}.factors must be a list of constructs")
        return product_ring([_build(f, f"{where}.factors[{t}]")
                             for t, f in enumerate(obj["factors"])])
    if kind == "quotient":
        base = _build(obj["base"], where + ".base")
        return quotient_ring(base, obj["ideal_gens"], label=label)[0]
    return opposite_ring(_build(obj["base"], where + ".base"))
