"""Ring constructors, axiom checking, and element-level queries."""

import ast
import os
import re
from pathlib import Path

import pytest

from ringscope.errors import BoundExceededError, InputError
from ringscope.ideals import two_sided_ideals
from ringscope.modules import regular_module
from ringscope.ring import (
    SPEC_FIELDS,
    FiniteRing,
    central_idempotents,
    inverse,
    matrix_ring,
    memo,
    opposite_ring,
    path_algebra,
    product_ring,
    quotient_ring,
    ring_from_spec,
    table_ring,
    two_sided_closure,
    units,
    verify_ring_axioms,
    zmod,
)
from ringscope.torsion import ideal_context

from conftest import SMALL_CORPUS, corpus


def test_zmod_basics():
    r = zmod(8)
    assert r.order() == 8
    assert r.one == (1,)
    assert r.el_mul((3,), (5,)) == (7,)
    assert verify_ring_axioms(r) is None


def test_table_ring_rejects_non_associative():
    # basis 1, x, y with x·x = y, x·y = 0, y·x = x: (x·x)·x ≠ x·(x·x)
    z = (0, 0, 0)
    mul = [
        [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
        [(0, 1, 0), (0, 0, 1), z],
        [(0, 0, 1), (0, 1, 0), z],
    ]
    with pytest.raises(InputError, match="associativity"):
        table_ring((2, 2, 2), mul, (1, 0, 0))


def test_table_ring_rejects_missing_unit():
    mul = [[(0, 0), (0, 0)], [(0, 0), (0, 0)]]  # zero multiplication
    with pytest.raises(InputError):
        table_ring((2, 2), mul, (1, 0))


def test_verify_reports_ill_defined_product():
    # g0 has order 2 but g0*g0 = g1 of order 4: 2·g1 ≠ 0
    r = FiniteRing((2, 4), [[(0, 1), (0, 0)], [(0, 0), (0, 0)]], (0, 1))
    report = verify_ring_axioms(r)
    assert report is not None and "well defined" in report


def test_path_algebra_shape():
    # 2 <- 1 -> 3: three trivial paths plus two arrows
    a = path_algebra(2, 3, [[1, 2], [1, 3]])
    assert a.rank == 5
    assert a.order() == 32
    assert sum(a.one) == 3  # sum of the three vertex idempotents


def test_path_algebra_composition_convention():
    # 1 -> 2 -> 3: paths e1,e2,e3, a:1->2, b:2->3, ba:1->3
    a = path_algebra(2, 3, [[1, 2], [2, 3]])
    assert a.rank == 6
    # basis sorted by path length: arrows at positions 3,4; ba at 5
    ar = a.generator(3)   # 1 -> 2
    br = a.generator(4)   # 2 -> 3
    ba = a.generator(5)
    # product "b after a" is b·a (right-to-left application)
    assert a.el_mul(br, ar) == ba
    assert a.el_mul(ar, br) == a.zero


def test_path_algebra_rejects_cycles():
    with pytest.raises(InputError):
        path_algebra(2, 2, [[1, 2], [2, 1]])


def test_matrix_ring_units_count():
    m = matrix_ring(zmod(2), 2)
    assert m.order() == 16
    assert len(units(m)) == 6  # |GL_2(F_2)|


def test_product_ring_componentwise():
    p = product_ring([zmod(4), zmod(2)])
    assert p.order() == 8
    assert p.one == (1, 1)
    assert p.el_mul((3, 1), (2, 1)) == (2, 1)


def test_quotient_ring_of_z8():
    q, down, up = quotient_ring(zmod(8), [(4,)])
    assert q.order() == 4
    assert down((5,)) == down(q.reduce_el(up(down((5,)))))
    # projection is multiplicative
    assert down(zmod(8).el_mul((3,), (3,))) == q.el_mul(down((3,)), down((3,)))


def _element_closure(ring, gens):
    """The two-sided ideal generated by gens, closed on element sets."""
    elems = [tuple(x) for x in ring.elements()]
    closed = set()
    queue = [ring.zero] + [ring.reduce_el(g) for g in gens]
    while queue:
        x = queue.pop()
        if x in closed:
            continue
        closed.add(x)
        queue.extend(ring.el_add(x, y) for y in closed)
        queue.extend(ring.el_mul(r, x) for r in elems)
        queue.extend(ring.el_mul(x, r) for r in elems)
    return closed


@pytest.mark.parametrize("name", SMALL_CORPUS)
def test_quotient_rings_match_element_sets(name):
    """For each two-sided ideal I: the Howell closure of I's generators, and
    of each one alone, is the element-set closure; R -> R/I is a surjective
    unital ring map with kernel I, and up is a section of it."""
    ring = corpus(name)
    elems = [tuple(x) for x in ring.elements()]
    for ideal in two_sided_ideals(ring):
        for gens in [ideal.gens.rows, *([g] for g in ideal.gens.rows)]:
            closure = two_sided_closure(ring, gens)
            assert set(closure.span_elements()) == _element_closure(ring, gens)
        q, down, up = quotient_ring(ring, ideal.gens.rows)
        assert down(ring.one) == q.one
        for x in elems:
            for y in elems:
                assert down(ring.el_add(x, y)) == q.el_add(down(x), down(y))
                assert down(ring.el_mul(x, y)) == q.el_mul(down(x), down(y))
        assert {down(x) for x in elems} == set(q.elements())
        assert {x for x in elems if down(x) == q.zero} == set(ideal.elements())
        for v in q.elements():
            assert down(up(v)) == v


def test_opposite_involution():
    t2 = corpus("t2f2")
    assert opposite_ring(opposite_ring(t2)).mul == t2.mul
    # a genuinely non-commutative ring: opposite differs
    assert opposite_ring(t2).mul != t2.mul


def test_units_and_inverse_z8():
    r = zmod(8)
    assert units(r) == {(1,), (3,), (5,), (7,)}
    assert inverse(r, (3,)) == (3,)
    assert inverse(r, (2,)) is None


def test_units_against_brute_force():
    for name in ("z8", "z4xf2", "t2f2"):
        r = corpus(name)
        brute = {tuple(x) for x in r.elements()
                 if any(r.el_mul(x, y) == r.one and r.el_mul(y, x) == r.one
                        for y in r.elements())}
        assert units(r) == brute


def test_central_idempotents():
    assert central_idempotents(zmod(8)) == {(0,), (1,)}
    t2 = corpus("t2f2")
    assert central_idempotents(t2) == {t2.zero, t2.one}
    prod = corpus("z4xf2")
    assert len(central_idempotents(prod)) == 4


def test_ring_from_spec_roundtrip():
    doc = {"construct": {"type": "quotient",
                         "base": {"type": "zmod", "n": 8},
                         "ideal_gens": [[4]]},
           "label": "Z/8 mod 4"}
    r = ring_from_spec(doc)
    assert r.order() == 4
    assert r.label == "Z/8 mod 4"
    with pytest.raises(InputError):
        ring_from_spec({"construct": {"type": "nonsense"}})


def test_order_bound_env(monkeypatch):
    monkeypatch.setenv("RINGSCOPE_MAX_ORDER", "4")
    doc = {"construct": {"type": "zmod", "n": 8}}
    with pytest.raises(BoundExceededError):
        ring_from_spec(doc)
    monkeypatch.delenv("RINGSCOPE_MAX_ORDER")
    assert ring_from_spec(doc).order() == 8


def test_order_cap_refuses_large_zmod_and_products(monkeypatch):
    monkeypatch.delenv("RINGSCOPE_MAX_ORDER", raising=False)
    with pytest.raises(BoundExceededError, match="exceeds bound 65536"):
        zmod(2 ** 33)
    with pytest.raises(BoundExceededError, match="exceeds bound 65536"):
        product_ring([zmod(1000)] * 2)


def test_corpus_rings_satisfy_axioms():
    for name in SMALL_CORPUS:
        assert verify_ring_axioms(corpus(name)) is None


def test_format_doc_lists_the_parsed_fields():
    """docs/format.md's constructor table names exactly the constructors
    and fields that ring_from_spec accepts."""
    doc = Path(__file__).resolve().parent.parent / "docs" / "format.md"
    table = {}
    for line in doc.read_text(encoding="utf-8").splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 2 and re.fullmatch(r"`\w+`", cells[0]):
            table[cells[0].strip("`")] = re.findall(r"`(\w+)`", cells[1])
    assert table == {kind: list(fields)
                     for kind, fields in SPEC_FIELDS.items()}


def test_memo_builds_once_and_stores_no_failed_build():
    ring = zmod(2)
    builds = []

    def build(x):
        builds.append(x)
        if x is None:
            raise InputError("no value")
        return x

    assert memo(ring, ("t", 1), build, 1) == 1
    assert memo(ring, ("t", 1), build, 2) == 1
    with pytest.raises(InputError):
        memo(ring, ("t", 2), build, None)
    assert memo(ring, ("t", 2), build, 3) == 3
    assert builds == [1, None, 3]


# the functions that may name a cache: memo, and the one constructor
# that creates one, the ring's
CACHE_OWNERS = {"memo", "FiniteRing.__init__"}


def _scopes(node, prefix=""):
    """(qualified name, first line, last line) of every def and class."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            name = prefix + child.name
            yield name, child.lineno, child.end_lineno
            yield from _scopes(child, name + ".")
        else:
            yield from _scopes(child, prefix)


def test_every_cache_goes_through_memo():
    src = Path(__file__).resolve().parent.parent / "src" / "ringscope"
    stray = []
    for path in sorted(src.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        scopes = list(_scopes(ast.parse(text)))
        for lineno, line in enumerate(text.splitlines(), 1):
            if not re.search(r"\b_cache\b", line):
                continue
            inner = [s for s in scopes if s[1] <= lineno <= s[2]]
            name = max(inner, key=lambda s: s[1])[0] if inner else "<module>"
            if name not in CACHE_OWNERS:
                stray.append(f"{path.name}:{lineno} ({name})")
    assert stray == []


def test_modules_and_ideal_contexts_hold_no_cache():
    """Every memo table is owned by a ring."""
    ring = zmod(4)
    assert not hasattr(regular_module(ring), "_cache")
    assert not hasattr(ideal_context(ring), "_cache")
