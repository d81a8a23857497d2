"""Exact linear algebra over ⊕ Z/m_k: spans, solving, Smith form."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from ringscope import exactla
from ringscope.errors import InputError, TheoremViolationError
from ringscope.exactla import (
    ModMatrix,
    apply_matrix,
    echelon_presentation,
    howell_span,
    quotient_presentation,
    smith_normal_form,
    solve_affine,
    zero_matrix,
)
from ringscope.modules import (
    RightModule,
    Submodule,
    cyclic_modules_up_to_iso,
    regular_module,
    submodule_as_module,
    submodules,
)
from ringscope.ring import zmod
from ringscope.torsion import ideal_context

from conftest import DIFFERENTIAL_RINGS
from oracle_utils import apply_matrix_by_loop


def _closure(rows, moduli):
    zero = tuple(0 for _ in moduli)
    seen = {zero}
    frontier = [zero]
    rows = [tuple(x % m for x, m in zip(r, moduli)) for r in rows]
    while frontier:
        v = frontier.pop()
        for r in rows:
            w = tuple((a + b) % m for a, b, m in zip(v, r, moduli))
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return seen


def test_basic_span():
    m = ModMatrix((4, 4), [(2, 2), (0, 2)])
    assert m.span_size() == 4
    assert frozenset(m.span_elements()) == frozenset(
        {(0, 0), (2, 0), (0, 2), (2, 2)})
    assert m.contains((2, 2)) and not m.contains((1, 0))


def test_howell_exhaustive_pairs():
    # every pair of vectors in (Z/4 x Z/2): canonical form determines span
    moduli = (4, 2)
    vecs = list(itertools.product(range(4), range(2)))
    by_span = {}
    for r1, r2 in itertools.product(vecs, repeat=2):
        m = ModMatrix(moduli, [r1, r2])
        key = frozenset(_closure([r1, r2], moduli))
        h = m.howell_form()
        by_span.setdefault(key, set()).add(h)
        assert frozenset(m.span_elements()) == key
        assert m.span_size() == len(key)
    for key, forms in by_span.items():
        assert len(forms) == 1, "span got two different canonical forms"


def test_mixed_moduli_spans():
    rng = random.Random(3)
    for _ in range(150):
        moduli = tuple(rng.choice([2, 3, 4, 6]) for _ in range(rng.randrange(1, 4)))
        rows = [[rng.randrange(m) for m in moduli]
                for _ in range(rng.randrange(0, 4))]
        m = ModMatrix(moduli, rows)
        truth = _closure(rows, moduli)
        assert m.span_size() == len(truth)
        assert frozenset(m.span_elements()) == frozenset(truth)
        for v in truth:
            assert m.contains(v)


def test_solve_soundness():
    rng = random.Random(17)
    for _ in range(150):
        moduli = tuple(rng.choice([2, 4, 6]) for _ in range(rng.randrange(1, 4)))
        nrows = rng.randrange(1, 4)
        rows = [[rng.randrange(m) for m in moduli] for _ in range(nrows)]
        m = ModMatrix(moduli, rows)
        n = m.n
        truth = _closure(rows, moduli)
        # a solvable target
        coeffs = [rng.randrange(n) for _ in range(nrows)]
        b = [0] * len(moduli)
        for c, r in zip(coeffs, rows):
            b = [(a + c * x) % mm for a, x, mm in zip(b, r, moduli)]
        sol = m.solve(b)
        assert sol is not None
        part, ker = sol
        # particular solution actually works
        chk = [0] * len(moduli)
        for c, r in zip(part, rows):
            chk = [(a + c * x) % mm for a, x, mm in zip(chk, r, moduli)]
        assert tuple(chk) == tuple(b)
        # kernel rows are homogeneous solutions
        for krow in ker.rows:
            chk = [0] * len(moduli)
            for c, r in zip(krow, rows):
                chk = [(a + c * x) % mm for a, x, mm in zip(chk, r, moduli)]
            assert not any(chk)
        # kernel is complete: #solutions * #image = n^nrows
        assert ker.span_size() * len(truth) == n ** nrows
        # an unsolvable target is rejected
        outside = [v for v in itertools.product(*(range(mm) for mm in moduli))
                   if tuple(v) not in truth]
        if outside:
            assert m.solve(list(rng.choice(outside))) is None


def test_kernel_of_injective_map_is_trivial():
    m = ModMatrix((5, 5), [(1, 0), (0, 1)])
    assert m.kernel().span_size() == 1


def test_zero_matrix():
    z = zero_matrix((4, 4))
    assert z.span_size() == 1
    assert z.contains((0, 0)) and not z.contains((2, 0))


@pytest.mark.parametrize("mods, n", [((2, 2), 4), ((2, 2, 2), 6),
                                     ((3, 3), 9), ((4, 4, 4), 8)])
def test_one_modulus_howell_equals_the_scaled_route(mods, n):
    """With every column modulus equal to n the rows skip the scaling; the
    same span worked modulo a multiple of n is scaled and unscaled, and
    both routes give the same Howell rows, sizes and membership."""
    rng = random.Random(sum(mods) * n)
    vecs = list(itertools.product(*(range(m) for m in mods)))
    for _ in range(60):
        rows = rng.sample(vecs, rng.randrange(0, 4))
        one, scaled = ModMatrix(mods, rows), ModMatrix(mods, rows, n=n)
        assert one.howell_form().rows == scaled.howell_form().rows
        assert one.span_size() == scaled.span_size()
        for v in vecs:
            assert one.contains(v) == scaled.contains(v)


def test_apply_matrix_matches_the_entrywise_loop():
    rng = random.Random(20261019)
    for _ in range(2000):
        k, d = rng.randrange(0, 7), rng.randrange(0, 7)
        mods = tuple(rng.choice((1, 2, 3, 4, 8, 9)) for _ in range(k))
        mat = [tuple(rng.randrange(-9, 10) for _ in range(k))
               for _ in range(d)]
        vec = tuple(rng.choice((0, 0, 1, 1, -1, 2, 5)) for _ in range(d))
        assert (apply_matrix(vec, mat, mods)
                == apply_matrix_by_loop(vec, mat, mods)), (vec, mat, mods)


def test_stack_and_equality():
    a = ModMatrix((4,), [(2,)])
    b = ModMatrix((4,), [(1,)])
    assert a.stack(b).howell_form() == b.howell_form()
    with pytest.raises(InputError):
        a.stack(ModMatrix((2,), [(1,)]))


def test_solve_affine_mixed_moduli():
    # x0*2 + x1*3 = b in Z/6 with x0 in Z/3, x1 in Z/2
    part, ker = solve_affine([(2,), (3,)], (6,), (5,), (3, 2))
    assert part is not None
    x0, x1 = part
    assert (2 * x0 + 3 * x1) % 6 == 5
    for krow in ker.rows:
        assert (2 * krow[0] + 3 * krow[1]) % 6 == 0
    none, ker0 = solve_affine([(2,)], (6,), (1,), (3,))
    assert none is None and ker0.span_size() == 1


def test_solve_affine_counts_all_solutions():
    rng = random.Random(23)
    for _ in range(80):
        umods = tuple(rng.choice([2, 3, 4]) for _ in range(rng.randrange(1, 3)))
        emods = tuple(rng.choice([2, 4, 6]) for _ in range(rng.randrange(1, 3)))
        # build a well-defined system: coefficient row l must die mod u_l
        rows = []
        for u in umods:
            rows.append([rng.randrange(m) * (m // math.gcd(m, u))
                         for m in emods])
        xs = [rng.randrange(u) for u in umods]
        rhs = [0] * len(emods)
        for x, r in zip(xs, rows):
            rhs = [(a + x * c) % m for a, c, m in zip(rhs, r, emods)]
        part, ker = solve_affine(rows, emods, rhs, umods)
        assert part is not None
        # brute-force solution set
        sols = set()
        for cand in itertools.product(*(range(u) for u in umods)):
            acc = [0] * len(emods)
            for x, r in zip(cand, rows):
                acc = [(a + x * c) % m for a, c, m in zip(acc, r, emods)]
            if tuple(acc) == tuple(rhs):
                sols.add(cand)
        assert tuple(part) in sols
        got = {tuple((p + k) % u for p, k, u in zip(part, delta, umods))
               for delta in ker.span_elements()}
        assert got == sols


def _as_public(m):
    """m rebuilt from its rows through the checked constructor."""
    return ModMatrix(m.col_moduli, m.rows, m.n)


def _assert_canonical(m):
    """m equals its checked rebuild, row tuples and working modulus too,
    and is its own Howell form."""
    public = _as_public(m)
    assert m == public and m.n == public.n
    assert type(m.rows) is tuple and all(type(r) is tuple for r in m.rows)
    assert m.howell_form() == public.howell_form() == m


def test_internal_constructions_equal_the_public_ones():
    """howell_form, stack, solve and solve_affine build their results from
    rows that are already reduced; on random mixed-moduli matrices each
    result equals the matrix built from the same rows the checked way, and
    the scaled rows kept with a Howell form are its rows times the scales."""
    rng = random.Random(31)
    for _ in range(120):
        moduli = tuple(rng.choice([2, 3, 4, 6, 8, 9])
                       for _ in range(rng.randrange(1, 5)))

        def draw():
            return ModMatrix(moduli, [[rng.randrange(-9, 2 * m) for m in moduli]
                                      for _ in range(rng.randrange(0, 5))])

        a, b = draw(), draw()
        h = a.howell_form()
        _assert_canonical(h)
        scaled = [[x * s for x, s in zip(r, h._scales())] for r in h.rows]
        assert [list(r) for r in a._howell_scaled()] == scaled
        assert [list(r) for r in h._howell_scaled()] == scaled

        st_ab = a.stack(b)
        assert st_ab == _as_public(st_ab) and st_ab.n == a.n
        assert st_ab.rows == a.rows + b.rows

        target = [0] * a.ncols
        for r in a.rows:
            c = rng.randrange(a.n)
            target = [(t + c * x) % m for t, x, m in zip(target, r, moduli)]
        _, ker = a.solve(target)
        _assert_canonical(ker)
        assert ker == ModMatrix((a.n,) * a.nrows, ker.rows, a.n).howell_form()
        # later solves reuse the elimination: each answers as a fresh copy
        for rhs in (target, [rng.randrange(m) for m in moduli],
                    [0] * a.ncols):
            again, fresh = a.solve(rhs), _as_public(a).solve(rhs)
            assert again == fresh
            if again is not None:
                _assert_canonical(again[1])

        umods = tuple(rng.choice([2, 3, 4, 6]) for _ in range(a.nrows))
        rows = [[x * (m // math.gcd(m, u)) for x, m in zip(r, moduli)]
                for r, u in zip(a.rows, umods)]
        _, ker = solve_affine(rows, moduli, [0] * len(moduli), umods)
        _assert_canonical(ker)
        assert ker.n == math.lcm(*umods)
        assert ker == ModMatrix(umods, ker.rows).howell_form()


def _count_howell_calls(monkeypatch):
    calls = []
    real = exactla.howell_mod
    monkeypatch.setattr(exactla, "howell_mod",
                        lambda *args: calls.append(args) or real(*args))
    return calls


def test_solves_on_one_matrix_eliminate_once(monkeypatch):
    """k solves and the kernel of one matrix make one elimination: the
    kernel is the trailing block of its Howell form, not reduced again."""
    calls = _count_howell_calls(monkeypatch)
    m = ModMatrix((4, 2, 4), [(1, 1, 2), (2, 0, 1), (3, 1, 3), (0, 1, 0)])
    sols = [m.solve(rhs) for rhs in ((1, 1, 2), (0, 0, 0), (1, 0, 0),
                                     (3, 1, 1))]
    assert m.kernel() is sols[1][1]
    assert len(calls) == 1
    assert sols[0][1].howell_form() is sols[0][1]
    assert len(calls) == 1


def test_solve_affine_at_one_modulus_returns_the_solve_kernel(monkeypatch):
    """With every unknown modulus the working modulus, as in every hom
    system over F_p, solve_affine returns the kernel of its one
    elimination; mixed moduli reduce the kernel and take its Howell form."""
    calls = _count_howell_calls(monkeypatch)
    rows = [(1, 0, 1), (0, 1, 1), (1, 1, 0), (1, 1, 1)]
    part, ker = solve_affine(rows, (2, 2, 2), (1, 1, 0), (2,) * 4)
    assert len(calls) == 1
    assert ker.howell_form() is ker and ker.n == 2
    assert ker == ModMatrix((2,) * 4, [(1, 1, 1, 0)]).howell_form()
    assert apply_matrix(part, rows, (2, 2, 2)) == (1, 1, 0)
    del calls[:]
    solve_affine([(2,), (3,)], (6,), (0,), (3, 2))
    assert len(calls) == 2
    # no unknowns: the kernel lives in the zero group, whose modulus is 1
    _, ker = solve_affine([], (4,), (0,), ())
    assert ker.col_moduli == () and ker.n == 1


def _assert_presents(rels, presentation):
    """presentation presents (⊕ Z/rels.col_moduli)/⟨rels⟩ with the orders
    of the Smith route: proj kills exactly rels, and lift is a section."""
    new_orders, proj, lift = presentation
    assert new_orders == quotient_presentation(rels.col_moduli, rels.rows)[0]
    _, ker = solve_affine(proj, new_orders, (0,) * len(new_orders),
                          rels.col_moduli)
    assert ker.howell_form() == rels.howell_form()
    for i, row in enumerate(lift):
        assert apply_matrix(row, proj, new_orders) == tuple(
            int(i == k) for k in range(len(new_orders)))


def test_echelon_presentation_matches_the_smith_route():
    """On random Howell matrices with unit pivots over Z/n the echelon
    reader gives the Smith route's orders, a projection whose kernel is
    the span, and a section; on any other matrix it declines."""
    rng = random.Random(30)
    read = dict.fromkeys((2, 3, 4, 8, 9), 0)
    for n in read:
        for draw in range(300):
            d = rng.randrange(1, 6)
            if draw % 2:
                rows = [[rng.randrange(n) for _ in range(d)]
                        for _ in range(rng.randrange(0, 5))]
            else:  # unit pivots in random columns, random entries past them
                rows = [[0] * j + [1] + [rng.randrange(n) for _ in range(j + 1, d)]
                        for j in rng.sample(range(d), rng.randrange(0, d + 1))]
            rels = howell_span((n,) * d, rows)
            pivots = [next(x for x in row if x) for row in rels.rows]
            presentation = echelon_presentation(rels)
            assert (presentation is None) == any(g != 1 for g in pivots)
            if presentation is not None:
                read[n] += 1
                assert presentation[0] == (n,) * (d - rels.nrows)
                _assert_presents(rels, presentation)
    assert all(count >= 150 for count in read.values()), read
    assert echelon_presentation(howell_span((4, 2), [(1, 1)])) is None
    assert echelon_presentation(ModMatrix((4, 4), [(1, 0)], n=8)) is None
    assert echelon_presentation(howell_span((1, 1), [])) is None


@pytest.mark.parametrize("group", DIFFERENTIAL_RINGS)
def test_module_presentations_match_the_smith_route(group):
    """Every relation matrix that the module layer presents by its
    echelon form, as the cyclic classes, the presented submodules of R
    and the colon tables meet them, is presented as the Smith route
    presents it, up to coordinates."""
    read = 0
    for ring in DIFFERENTIAL_RINGS[group]():
        cyclic_modules_up_to_iso(ring)
        for s in submodules(regular_module(ring)):
            submodule_as_module(s)
        ctx = ideal_context(ring)
        for t in range(len(ctx.ideals)):
            ctx.generator_colons(t)
        for key, presentation in list(ring._cache.items()):
            if isinstance(key, tuple) and key[0] == "quotient_presentation":
                if echelon_presentation(key[1]) is not None:
                    assert presentation == echelon_presentation(key[1])
                    _assert_presents(key[1], presentation)
                    read += 1
    assert read


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def det(a):
    """Exact integer determinant by Laplace expansion along the first row."""
    if not a:
        return 1
    return sum((-1) ** j * a[0][j] * det([row[:j] + row[j + 1:] for row in a[1:]])
               for j in range(len(a)))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.data())
def test_smith_normal_form_properties(r, c, data):
    mat = [[data.draw(st.integers(-9, 9)) for _ in range(c)] for _ in range(r)]
    D, U, V, Vinv = smith_normal_form(mat)
    assert matmul(matmul(U, mat), V) == D
    assert matmul(V, Vinv) == [[int(i == j) for j in range(c)]
                               for i in range(c)]
    diag = [D[i][i] for i in range(min(r, c))]
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        if a:
            assert b % a == 0
        else:
            assert b == 0
    # off-diagonal must vanish
    for i in range(r):
        for j in range(c):
            if i != j:
                assert D[i][j] == 0
    # transforms are unimodular
    assert abs(det(U)) == 1
    assert abs(det(V)) == 1


def test_quotient_presentation_roundtrip():
    rng = random.Random(41)
    for _ in range(100):
        orders = tuple(rng.choice([2, 3, 4, 8]) for _ in range(rng.randrange(1, 4)))
        rels = [[rng.randrange(m) for m in orders]
                for _ in range(rng.randrange(0, 3))]
        new_orders, proj, lift = quotient_presentation(orders, rels)
        sub = _closure(rels, orders)
        total = 1
        for m in orders:
            total *= m
        q = 1
        for m in new_orders:
            q *= m
        assert q * len(sub) == total
        # proj kills exactly the relation subgroup
        zero = tuple(0 for _ in new_orders)
        killed = {v for v in itertools.product(*(range(m) for m in orders))
                  if apply_matrix(v, proj, new_orders) == zero}
        assert killed == sub
        # lift is a section of proj
        for j in range(len(new_orders)):
            e = [0] * len(new_orders)
            e[j] = 1
            back = apply_matrix(lift[j], proj, new_orders)
            assert back == tuple(e)
        # proj is additive and surjective
        imgs = {apply_matrix(v, proj, new_orders)
                for v in itertools.product(*(range(m) for m in orders))}
        assert len(imgs) == q


def test_quotient_presentation_trivial():
    new_orders, proj, lift = quotient_presentation((4, 2), [(1, 0), (0, 1)])
    assert new_orders == ()
    assert quotient_presentation((), [])[0] == ()


def test_howell_span_helper():
    s = howell_span((6,), [(2,), (3,)])
    assert s.span_size() == 6


def test_bad_inputs():
    with pytest.raises(InputError):
        ModMatrix((0,), [])
    with pytest.raises(InputError):
        ModMatrix((4, 2), [(1, 1)], n=2)
    with pytest.raises(InputError):
        ModMatrix((4,), [(1,)]).solve((1, 2))
    with pytest.raises(InputError, match="positive"):
        solve_affine([(1,)], (2,), (0,), (-2,))
    # a row shorter or longer than the column moduli is a dimension mismatch
    ring = zmod(4)
    for row in ((1,), (1, 0, 1)):
        with pytest.raises(InputError, match="length"):
            ModMatrix((2, 2), [(1, 1), row])
        with pytest.raises(InputError, match="length"):
            RightModule(ring, (4, 2), [[(1, 0), row]])
    for row in ((), (1, 0)):
        with pytest.raises(InputError, match="length"):
            Submodule(regular_module(ring), [row])


def test_solve_affine_rejects_ill_defined_systems():
    # x ∈ Z/2 cannot act on an equation mod 4: 2·1 ≢ 0 (mod 4)
    with pytest.raises(TheoremViolationError, match="not well defined"):
        solve_affine([(1,)], (4,), (0,), (2,))
    with pytest.raises(TheoremViolationError, match="fewer rows"):
        solve_affine([(2,)], (4,), (0,), (2, 2))
    part, ker = solve_affine([(2,)], (4,), (2,), (2,))
    assert part == (1,) and ker.span_size() == 1
