"""Exact linear algebra over finite abelian groups presented as ⊕ Z/m_k.

Everything downstream (submodules, hom groups, ideals) reduces to row-span
computations here.  A span is canonicalized by the Howell form: two
matrices have equal row spans iff their Howell forms are identical.
Columns may carry individual moduli; internally a column of modulus m is
scaled by n/m and the single-modulus kernel (see ``_backend``) does the
actual elimination mod n.  A matrix whose columns all have modulus n, as
every matrix over F_2 does, skips the scaling.
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import reduce

from ._backend import howell_mod
from .errors import InputError, TheoremViolationError


def lcm_all(values) -> int:
    return reduce(math.lcm, values, 1)


class ModMatrix:
    """A matrix whose rows live in ⊕_k Z/col_moduli[k].

    Immutable; hashable on (col_moduli, rows).  ``n`` is the working
    modulus (a common multiple of all column moduli, by default the lcm).
    """

    # _solver, the elimination that solve reuses, is set on the first
    # solve and never by a constructor
    __slots__ = ("n", "col_moduli", "rows", "_howell", "_scaled", "_solver")

    def __init__(self, col_moduli, rows, n: int | None = None):
        col_moduli = tuple(map(int, col_moduli))
        if col_moduli and min(col_moduli) < 1:
            raise InputError("column moduli must be positive")
        n = lcm_all(col_moduli) if n is None else int(n)
        if any(map(n.__mod__, col_moduli)):
            raise InputError("every column modulus must divide n")
        k = len(col_moduli)
        norm = []
        for r in rows:
            if len(r) != k:
                raise InputError(f"row of length {len(r)} where the column "
                                 f"moduli ask for {k}")
            norm.append(tuple(map(operator.mod, map(int, r), col_moduli)))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "col_moduli", col_moduli)
        object.__setattr__(self, "rows", tuple(norm))
        object.__setattr__(self, "_howell", None)
        object.__setattr__(self, "_scaled", None)

    @classmethod
    def _reduced(cls, col_moduli, rows, n: int) -> "ModMatrix":
        """A matrix from a tuple of row tuples already reduced modulo the
        tuple col_moduli, whose moduli all divide n: nothing is checked
        and nothing reduced."""
        out = object.__new__(cls)
        object.__setattr__(out, "n", n)
        object.__setattr__(out, "col_moduli", col_moduli)
        object.__setattr__(out, "rows", rows)
        object.__setattr__(out, "_howell", None)
        object.__setattr__(out, "_scaled", None)
        return out

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("ModMatrix is immutable")

    @property
    def ncols(self) -> int:
        return len(self.col_moduli)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def __eq__(self, other):
        return (isinstance(other, ModMatrix)
                and self.col_moduli == other.col_moduli
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.col_moduli, self.rows))

    def __repr__(self):
        return f"ModMatrix({list(self.col_moduli)}, {[list(r) for r in self.rows]})"

    # -- scaled (single-modulus) view -------------------------------------

    def _uniform(self) -> bool:
        """Every column modulus is the working modulus: no scaling."""
        return self.col_moduli.count(self.n) == len(self.col_moduli)

    def _scales(self):
        n = self.n
        return [n // m for m in self.col_moduli]

    # -- canonical form ----------------------------------------------------

    def howell_form(self) -> "ModMatrix":
        """The unique canonical matrix with the same row span.

        When every column modulus is n the rows go to the kernel as they
        are, and its rows are the answer: scaling by n/n does nothing."""
        if self._howell is not None:
            return self._howell
        n = self.n
        if self._uniform():
            h = rows = tuple(map(tuple, howell_mod(self.rows, self.ncols, n)))
        else:
            sc = self._scales()
            scaled = [[x * s for x, s in zip(r, sc)] for r in self.rows]
            h = tuple(map(tuple, howell_mod(scaled, self.ncols, n)))
            rows = tuple(tuple(x // s for x, s in zip(r, sc)) for r in h)
        out = ModMatrix._canonical(self.col_moduli, rows, n, h)
        object.__setattr__(self, "_howell", out)
        return out

    @classmethod
    def _canonical(cls, col_moduli, rows, n: int, scaled) -> "ModMatrix":
        """_reduced(col_moduli, rows, n), marked as its own Howell form:
        rows must be the Howell rows of their span, and scaled those rows
        scaled to the working modulus."""
        out = cls._reduced(col_moduli, rows, n)
        object.__setattr__(out, "_howell", out)
        object.__setattr__(out, "_scaled", scaled)
        return out

    def _howell_scaled(self):
        """The Howell rows scaled to the working modulus, as the kernel
        returned them."""
        return self.howell_form()._scaled

    def stack(self, other: "ModMatrix") -> "ModMatrix":
        if self.col_moduli != other.col_moduli:
            raise InputError("column moduli mismatch in stack")
        return ModMatrix._reduced(self.col_moduli, self.rows + other.rows,
                                  self.n)

    def span_size(self) -> int:
        n = self.n
        size = 1
        for r in self._howell_scaled():
            g = next(x for x in r if x)
            size *= n // g
        return size

    def contains(self, vec) -> bool:
        """vec lies in the span: the Howell rows reduce it to 0."""
        n = self.n
        if self._uniform():
            v = [int(x) % n for x in vec]
        else:
            sc = self._scales()
            v = [int(x) % m * s for x, m, s in zip(vec, self.col_moduli, sc)]
        for row in self._howell_scaled():
            j = next(i for i, x in enumerate(row) if x)
            g = row[j]
            if v[j] % g == 0:
                q = v[j] // g
                if q:
                    v = [(a - q * b) % n for a, b in zip(v, row)]
        return not any(v)

    def span_elements(self):
        """Iterate every element of the row span (|span| tuples)."""
        h = self.howell_form()
        n = self.n
        scaled = self._howell_scaled()
        counts = []
        for r in scaled:
            g = next(x for x in r if x)
            counts.append(n // g)
        mods = self.col_moduli
        zero = tuple(0 for _ in mods)
        if not counts:
            yield zero
            return
        for coeffs in itertools.product(*(range(c) for c in counts)):
            v = list(zero)
            for q, row in zip(coeffs, h.rows):
                if q:
                    v = [(a + q * b) % m for a, b, m in zip(v, row, mods)]
            yield tuple(v)

    # -- solving -----------------------------------------------------------

    def solve(self, vec):
        """Solve x · self = vec for x over Z/n.

        Returns (particular, kernel) where kernel is a ModMatrix whose
        rows span all homogeneous solutions (column moduli all n), or
        None when no solution exists.  The elimination is made on the
        first solve and kept (see _elimination); every later solve on
        this matrix only back-substitutes.
        """
        if len(vec) != self.ncols:
            raise InputError("right-hand side has wrong length")
        pivots, kernel = self._elimination()
        n = self.n
        b = [int(x) % m * s
             for x, m, s in zip(vec, self.col_moduli, self._scales())]
        part = [0] * self.nrows
        for j, g, left, right in pivots:
            if b[j] % g:
                return None
            q = b[j] // g
            if q:
                b = [(a - q * x) % n for a, x in zip(b, left)]
                part = [(a + q * x) % n for a, x in zip(part, right)]
        if any(b):
            return None
        return tuple(part), kernel

    def _elimination(self):
        """(pivots, kernel) from the Howell form over Z/n of [A·scale | I],
        A the rows, made on the first call and kept on the matrix.

        pivots holds (j, g, left, right) for each Howell row whose pivot j
        lies in the first c = ncols columns: g the pivot, left the row's
        first c entries and right the rest.  The rows with pivot past c
        are (0 | x) with x·A = 0, and by the Howell property at column c
        they span every such x: their right parts are the kernel.  They
        are already its Howell form, as the Howell form of a span is
        unique, so the kernel is marked canonical, not reduced again."""
        try:
            return self._solver
        except AttributeError:
            pass
        n, L, c = self.n, self.nrows, self.ncols
        sc = self._scales()
        aug = []
        for i, r in enumerate(self.rows):
            row = [x * s for x, s in zip(r, sc)] + [0] * L
            row[c + i] = 1
            aug.append(row)
        pivots, kernel_rows = [], []
        for row in howell_mod(aug, c + L, n):
            j = next(i for i, x in enumerate(row) if x)
            if j >= c:
                kernel_rows.append(tuple(row[c:]))
            else:
                pivots.append((j, row[j], row[:c], row[c:]))
        kernel_rows = tuple(kernel_rows)
        kernel = ModMatrix._canonical((n,) * L, kernel_rows, n, kernel_rows)
        object.__setattr__(self, "_solver", (pivots, kernel))
        return self._solver

    def kernel(self) -> "ModMatrix":
        """Howell basis of {x : x · self = 0} over Z/n, the kernel that
        every solve on this matrix returns."""
        return self._elimination()[1]


def zero_matrix(col_moduli) -> ModMatrix:
    return ModMatrix(col_moduli, ())


def solve_affine(coeff_rows, eq_moduli, rhs, unknown_moduli):
    """Solve Σ_l x_l · coeff_rows[l] ≡ rhs, equation e taken mod eq_moduli[e],
    with unknown l valued in Z/unknown_moduli[l].

    The system must be well defined on ⊕ Z/unknown_moduli, i.e. shifting
    x_l by unknown_moduli[l] must fix every equation (checked).  Returns
    (particular | None, kernel ModMatrix over unknown_moduli); the kernel
    spans the full homogeneous solution group.  When every unknown has
    the working modulus, as in every hom system over F_p, the solve's
    kernel is already that Howell form and is returned as it is; else its
    rows are reduced per unknown modulus and canonicalised again.
    """
    eq_moduli = tuple(int(m) for m in eq_moduli)
    unknown_moduli = tuple(int(m) for m in unknown_moduli)
    if any(u < 1 for u in unknown_moduli):
        raise InputError("column moduli must be positive")
    big = lcm_all(eq_moduli + unknown_moduli)
    mat = ModMatrix(eq_moduli, coeff_rows, big)
    if mat.nrows < len(unknown_moduli):
        raise TheoremViolationError("system has fewer rows than unknowns")
    for row, u in zip(mat.rows, unknown_moduli):
        if any((u * x) % m for x, m in zip(row, eq_moduli)):
            raise TheoremViolationError(
                "system not well defined modulo the unknown moduli")
    sol = mat.solve(rhs)
    if sol is None:
        return None, zero_matrix(unknown_moduli)
    part, ker = sol
    if ker.col_moduli == unknown_moduli and ker.n == lcm_all(unknown_moduli):
        return part, ker
    part = tuple(x % u for x, u in zip(part, unknown_moduli))
    rows = tuple(tuple(x % u for x, u in zip(r, unknown_moduli))
                 for r in ker.rows)
    kernel = ModMatrix._reduced(unknown_moduli, rows,
                                lcm_all(unknown_moduli)).howell_form()
    return part, kernel


# -- integer Smith normal form and quotient presentations ------------------


def smith_normal_form(mat):
    """Smith form with transforms: returns (D, U, V, Vinv), U·A·V = D.

    Plain integer arithmetic; intended for the small matrices arising in
    quotient presentations.  D is r×c diagonal with d_i | d_{i+1} ≥ 0.
    """
    A = [list(map(int, row)) for row in mat]
    r = len(A)
    c = len(A[0]) if r else 0
    U = [[int(i == j) for j in range(r)] for i in range(r)]
    V = [[int(i == j) for j in range(c)] for i in range(c)]
    Vinv = [[int(i == j) for j in range(c)] for i in range(c)]

    def row_op(i, k, q):  # row_i -= q * row_k
        A[i] = [a - q * b for a, b in zip(A[i], A[k])]
        U[i] = [a - q * b for a, b in zip(U[i], U[k])]

    def col_op(j, k, q):  # col_j -= q * col_k
        for row in A:
            row[j] -= q * row[k]
        for row in V:
            row[j] -= q * row[k]
        Vinv[k] = [a + q * b for a, b in zip(Vinv[k], Vinv[j])]

    def row_swap(i, k):
        A[i], A[k] = A[k], A[i]
        U[i], U[k] = U[k], U[i]

    def col_swap(j, k):
        for row in A:
            row[j], row[k] = row[k], row[j]
        for row in V:
            row[j], row[k] = row[k], row[j]
        Vinv[j], Vinv[k] = Vinv[k], Vinv[j]

    t = 0
    while t < min(r, c):
        # pivot: min abs nonzero in trailing submatrix
        piv = None
        for i in range(t, r):
            for j in range(t, c):
                if A[i][j] and (piv is None or abs(A[i][j]) < abs(A[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        row_swap(t, piv[0])
        col_swap(t, piv[1])
        dirty = False
        for i in range(t + 1, r):
            q = A[i][t] // A[t][t]
            if q:
                row_op(i, t, q)
            if A[i][t]:
                dirty = True
        for j in range(t + 1, c):
            q = A[t][j] // A[t][t]
            if q:
                col_op(j, t, q)
            if A[t][j]:
                dirty = True
        if dirty:
            continue
        # enforce divisibility of the rest by the pivot
        bad = None
        for i in range(t + 1, r):
            for j in range(t + 1, c):
                if A[i][j] % A[t][t]:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            row_op(t, bad, -1)  # row_t += row_bad, reprocess
            continue
        if A[t][t] < 0:
            A[t] = [-x for x in A[t]]
            U[t] = [-x for x in U[t]]
        t += 1
    D = A
    return D, U, V, Vinv


def quotient_presentation(orders, rel_rows):
    """Present (⊕ Z/orders) / ⟨rel_rows⟩ as ⊕ Z/new_orders, by the Smith
    form: the general route, for any relations and any moduli.

    Returns (new_orders, proj, lift):
      proj: d×k integer matrix, x ↦ x·proj (entries reduced per new order);
      lift: k×d integer matrix, section sending new basis j to a preimage.
    Coordinates with invariant factor 1 are dropped.  echelon_presentation
    reads the same orders, in other coordinates, off a Howell form with
    unit pivots; the tests hold this route as its reference.
    """
    d = len(orders)
    if d == 0:
        return (), [], []
    A = [list(map(int, r)) for r in rel_rows]
    for i, m in enumerate(orders):
        A.append([m if j == i else 0 for j in range(d)])
    D, _, V, Vinv = smith_normal_form(A)
    diag = [D[i][i] for i in range(d)]
    if not all(x >= 1 for x in diag):
        raise TheoremViolationError(
            f"invariant factors {diag} of a finite quotient must be positive")
    keep = [i for i, di in enumerate(diag) if di != 1]
    new_orders = tuple(diag[i] for i in keep)
    proj = [[V[t][i] % diag[i] for i in keep] for t in range(d)]
    lift = [[Vinv[i][t] % orders[t] for t in range(d)] for i in keep]
    return new_orders, proj, lift


def echelon_presentation(rels: ModMatrix):
    """quotient_presentation's (new_orders, proj, lift) for
    (Z/n)^d / ⟨rels⟩, read off the Howell rows of rels, or None unless
    every column has the working modulus n > 1 and every Howell pivot is
    1, as at a prime n.

    Unit pivots are reduced above, so the rows are a reduced echelon
    form, and the row of pivot j is e_j + Σ_i row_j[t_i]·e_{t_i} over the
    free columns t_1 < … < t_k.  The rows span a free summand of rank d−k,
    and the quotient is (Z/n)^k, coordinate i read at column t_i: a free
    column t_i maps to e_i and a pivot column j to Σ_i −row_j[t_i]·e_i.
    The section sends e_i to e_{t_i}.  The orders (n,)*k are those the
    Smith form gives; the coordinates in general are not."""
    n = rels.n
    if n == 1 or not rels._uniform():
        return None
    pivots = {}
    for row in rels.howell_form().rows:
        j = next(i for i, x in enumerate(row) if x)
        if row[j] != 1:
            return None
        pivots[j] = row
    d = rels.ncols
    free = [t for t in range(d) if t not in pivots]
    proj = [[-pivots[j][t] % n for t in free] if j in pivots
            else [int(j == t) for t in free] for j in range(d)]
    lift = [[int(j == t) for j in range(d)] for t in free]
    return (n,) * len(free), proj, lift


def apply_matrix(vec, mat, out_moduli):
    """Row-vector times matrix, reduced per output modulus."""
    out = None
    for x, row in zip(vec, mat):
        if x:
            if x != 1:
                row = map(x.__mul__, row)
            out = row if out is None else map(operator.add, out, row)
    if out is None:
        return (0,) * len(out_moduli)
    return tuple(map(operator.mod, out, out_moduli))


def howell_span(col_moduli, rows) -> ModMatrix:
    """Canonical span of a bunch of vectors in ⊕ Z/col_moduli."""
    return ModMatrix(col_moduli, rows).howell_form()

