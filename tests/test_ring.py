"""Ring constructors, axiom checking, and element-level queries."""

import ast
import importlib
import inspect
import random
import re
from pathlib import Path

import pytest

from ringscope.errors import BoundExceededError, InputError
from ringscope.exactla import echelon_presentation, quotient_presentation
from ringscope.ideals import two_sided_ideals
from ringscope.modules import regular_module
from ringscope.ring import (
    SPEC_FIELDS,
    FiniteRing,
    inverse,
    matrix_ring,
    memoised,
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

from conftest import DIFFERENTIAL_RINGS, SMALL_CORPUS, corpus
from oracle_utils import (
    add_vectors,
    axioms_by_dense_products,
    central_idempotents,
    dense_el_mul,
)


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


@pytest.mark.parametrize("orders, mul, one, field", [
    ((4,), [[(1.7,)]], (1.2,), "product table entry"),
    (("4",), [[("1",)]], ("1",), "generator orders"),
])
def test_table_ring_refuses_non_integers(orders, mul, one, field):
    """A float or a string in a table is refused, not truncated or
    parsed."""
    with pytest.raises(InputError, match=f"^{field} must hold integers"):
        table_ring(orders, mul, one)


@pytest.mark.parametrize("group", DIFFERENTIAL_RINGS)
def test_products_match_the_dense_table(group):
    """el_mul, which reads the nonzero structure constants, agrees with
    the dense table on every pair of generators and the identity, and on
    50 seeded random pairs."""
    rng = random.Random(7)
    for ring in DIFFERENTIAL_RINGS[group]():
        basis = [ring.generator(i) for i in range(ring.rank)] + [ring.one]
        pairs = [(x, y) for x in basis for y in basis]
        for _ in range(50):
            pairs.append(tuple(tuple(rng.randrange(n) for n in ring.orders)
                               for _ in range(2)))
        for x, y in pairs:
            assert ring.el_mul(x, y) == dense_el_mul(ring, x, y), ring.label


# Z/2 × Z/4 with a generator of order 1 between the factors
ORDER_ONE_TABLE = ((2, 1, 4),
                   [[(1, 0, 0), (0, 0, 0), (0, 0, 0)],
                    [(0, 0, 0)] * 3,
                    [(0, 0, 0), (0, 0, 0), (0, 0, 1)]],
                   (1, 0, 1))

# M2(F2) in the basis E11+E22, E11+E21, E12+E22, E11+E21+E22: products
# of several terms, whose two sides of associativity can differ by a
# multiple of 2 before reduction
DENSE_M2F2_TABLE = ((2, 2, 2, 2),
                    [[(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)],
                     [(0, 1, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 1, 0, 0)],
                     [(0, 0, 1, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 1, 1, 0)],
                     [(0, 0, 0, 1), (1, 1, 0, 1), (0, 1, 1, 1), (1, 0, 0, 0)]],
                    (1, 0, 0, 0))
TABLES = {"order_one": ORDER_ONE_TABLE, "m2f2_dense": DENSE_M2F2_TABLE}


def _perturbed_tables(orders, mul, one):
    """The table itself, then every table with one structure constant or
    one identity coordinate raised by 1 modulo its generator's order."""
    yield mul, one
    d = len(orders)
    for i in range(d):
        for j in range(d):
            for k in range(d):
                table = [[list(v) for v in row] for row in mul]
                table[i][j][k] = (table[i][j][k] + 1) % orders[k]
                yield table, one
    for k in range(d):
        unit = list(one)
        unit[k] = (unit[k] + 1) % orders[k]
        yield mul, unit


@pytest.mark.parametrize("name", ["z4xf2", "t2f2", "m2f2", "f2xy_j2",
                                  "f2xy_x2y2", "t3f2", *TABLES])
def test_axiom_reports_match_the_dense_check(name):
    """verify_ring_axioms gives the dense check's report, string for
    string, on a ring and on every one-coordinate perturbation of its
    table and identity, each built unvalidated."""
    if name in TABLES:
        orders, mul, one = TABLES[name]
    else:
        ring = corpus(name)
        orders, mul, one = ring.orders, ring.mul, ring.one
    reports = set()
    for table, unit in _perturbed_tables(orders, mul, one):
        r = FiniteRing(orders, table, unit)
        report = verify_ring_axioms(r)
        assert report == axioms_by_dense_products(r), (table, unit)
        reports.add(report)
    assert None in reports and len(reports) > 2, reports


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
        queue.extend(add_vectors(ring.orders, x, y) for y in closed)
        queue.extend(dense_el_mul(ring, r, x) for r in elems)
        queue.extend(dense_el_mul(ring, x, r) for r in elems)
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
                assert (down(add_vectors(ring.orders, x, y))
                        == add_vectors(q.orders, down(x), down(y)))
                assert (down(dense_el_mul(ring, x, y))
                        == q.el_mul(down(x), down(y)))
        assert {down(x) for x in elems} == set(q.elements())
        assert {x for x in elems if down(x) == q.zero} == set(ideal.elements())
        for v in q.elements():
            assert down(up(v)) == v


def test_quotient_ring_coordinates_are_the_smith_forms():
    """A quotient ring's coordinates are printed (ring show, classify's
    certificates, the benchmark's answer digests), so quotient_ring keeps
    the Smith form's.  On the F2 path algebra of three arrows 1 → 2 cut by
    a1 + a3 the echelon form of the ideal gives the same orders in other
    coordinates, and the ring's table is pinned."""
    base = path_algebra(2, 2, [[1, 2]] * 3)
    q, down, _ = quotient_ring(base, [(0, 0, 1, 0, 1)])
    assert q.orders == (2, 2, 2, 2) and q.one == (1, 1, 0, 0)
    e1 = ((1, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0))
    e2 = ((0, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    a1 = ((0, 0, 1, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0))
    a2 = ((0, 0, 0, 1), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0))
    assert q.mul == (e1, e2, a1, a2)
    assert down((0, 0, 0, 0, 1)) == (0, 0, 1, 0)
    ideal = two_sided_closure(base, [(0, 0, 1, 0, 1)])
    echelon = echelon_presentation(ideal)
    smith = quotient_presentation(ideal.col_moduli, ideal.rows)
    assert echelon[0] == smith[0] and echelon[1:] != smith[1:]


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
                 if any(dense_el_mul(r, x, y) == r.one
                        and dense_el_mul(r, y, x) == r.one
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
    """A memoised fact is built on its first call with a key; a build
    that raises stores nothing, so the next call builds again.  The
    builds hand out 1, None (which raises) and 3 in turn."""
    ring = zmod(2)
    values, builds = iter([1, None, 3]), []

    @memoised(lambda ring, t: ("t", t))
    def fact(ring, t):
        x = next(values)
        builds.append(x)
        if x is None:
            raise InputError("no value")
        return x

    assert fact(ring, 1) == 1
    assert fact(ring, 1) == 1
    with pytest.raises(InputError):
        fact(ring, 2)
    assert fact(ring, 2) == 3
    assert builds == [1, None, 3]


# the functions that may name a cache: the fact that the memoised
# decorator returns, and the one constructor that creates a cache, the
# ring's
CACHE_OWNERS = {"memoised.decorate.fact", "FiniteRing.__init__"}


def _scopes(node, prefix=""):
    """(qualified name, first line, last line) of every def and class."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            name = prefix + child.name
            yield name, child.lineno, child.end_lineno
            yield from _scopes(child, name + ".")
        else:
            yield from _scopes(child, prefix)


def _scope_of(scopes, lineno):
    """The innermost def or class of _scopes holding line lineno."""
    inner = [s for s in scopes if s[1] <= lineno <= s[2]]
    return max(inner, key=lambda s: s[1])[0] if inner else "<module>"


def test_every_cache_goes_through_memo():
    src = Path(__file__).resolve().parent.parent / "src" / "ringscope"
    stray = []
    for path in sorted(src.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        scopes = list(_scopes(ast.parse(text)))
        for lineno, line in enumerate(text.splitlines(), 1):
            if not re.search(r"\b_cache\b", line):
                continue
            name = _scope_of(scopes, lineno)
            if name not in CACHE_OWNERS:
                stray.append(f"{path.name}:{lineno} ({name})")
    assert stray == []


def _memoised_defs(node, prefix=""):
    """(qualified name, def) of every def decorated by memoised(...)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            name = prefix + child.name
            if isinstance(child, ast.FunctionDef) and any(
                    isinstance(d, ast.Call) and getattr(d.func, "id", None)
                    == "memoised" for d in child.decorator_list):
                yield name, child
            yield from _memoised_defs(child, name + ".")


def test_memoised_facts_keep_their_names_and_docstrings():
    """Each fact decorated by memoised carries its own name, qualified
    name, module and docstring, and no __wrapped__: the tracer of the
    benchmark wraps module attributes and leaves none behind."""
    src = Path(__file__).resolve().parent.parent / "src" / "ringscope"
    facts = 0
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for qualname, node in _memoised_defs(tree):
            module = importlib.import_module(f"ringscope.{path.stem}")
            fact = module
            for part in qualname.split("."):
                fact = vars(fact)[part]
            doc = ast.get_docstring(node)
            assert fact.__name__ == node.name, qualname
            assert fact.__qualname__ == qualname, qualname
            assert fact.__module__ == module.__name__, qualname
            assert (fact.__doc__ and inspect.cleandoc(fact.__doc__)) == doc, \
                qualname
            assert not hasattr(fact, "__wrapped__"), qualname
            facts += 1
    assert facts >= 25


# the routes that present a quotient group, read in modules, which picks
# the echelon or the Smith form for every module quotient, and by
# quotient_ring, whose printed coordinates are the Smith form's
PRESENTATIONS = {"echelon_presentation", "quotient_presentation",
                 "_presentation"}
PRESENTATION_READERS = {("ring.py", "quotient_ring", "quotient_presentation")}


def test_presentations_are_read_only_in_modules():
    """Outside modules, only quotient_ring reads a presentation route, so
    modules alone decides which presentation a module quotient gets."""
    src = Path(__file__).resolve().parent.parent / "src" / "ringscope"
    reads = set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scopes = list(_scopes(tree))
        for node in ast.walk(tree):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else None)
            if name in PRESENTATIONS and isinstance(node.ctx, ast.Load):
                reads.add((path.name, _scope_of(scopes, node.lineno), name))
    assert {read for read in reads if read[0] != "modules.py"} \
        == PRESENTATION_READERS
    assert {read[2] for read in reads if read[0] == "modules.py"} \
        == PRESENTATIONS


def test_modules_and_ideal_contexts_hold_no_cache():
    """Every memo table is owned by a ring."""
    ring = zmod(4)
    assert not hasattr(regular_module(ring), "_cache")
    assert not hasattr(ideal_context(ring), "_cache")
