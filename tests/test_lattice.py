"""Lattice construction, N5/M3 detection, isomorphism, products, DOT."""

import math
import os
import subprocess
import sys

import pytest

from ringscope.errors import BoundExceededError, InputError, NotALatticeError
from ringscope.lattice import (
    FiniteLattice,
    are_isomorphic,
    build_lattice,
    lattice_product,
    structure_report,
    to_dot,
)


def chain(n):
    return build_lattice(list(range(n)), leq=lambda a, b: a <= b)


def pentagon():
    # 0 < a < b < 1 and 0 < c < 1 with c incomparable to a, b
    return build_lattice(["0", "a", "b", "c", "1"],
                         [("0", "a"), ("a", "b"), ("b", "1"),
                          ("0", "c"), ("c", "1")])


def diamond3():
    return build_lattice(["0", "x", "y", "z", "1"],
                         [("0", "x"), ("0", "y"), ("0", "z"),
                          ("x", "1"), ("y", "1"), ("z", "1")])


def test_chain_structure():
    rep = structure_report(chain(4))
    assert rep["chain"] and rep["modular"] and rep["distributive"]
    assert rep["length"] == 3
    assert rep["atomic"] and rep["coatomic"]
    assert len(rep["atoms"]) == len(rep["coatoms"]) == 1


def test_pentagon_flags_and_certificate():
    lat = pentagon()
    rep = structure_report(lat)
    assert not rep["modular"] and not rep["distributive"]
    wit = rep["pentagon"]
    assert len(set(wit)) == 5
    bot, x, y, c, top = wit
    # genuine sublattice: closed under the ambient meet and join
    sub = set(wit)
    for a in wit:
        for b in wit:
            assert lat.meet[a][b] in sub and lat.join[a][b] in sub
    # pentagon shape: a chain bot < x < y < top plus one incomparable c
    assert lat.le(bot, x) and lat.le(x, y) and lat.le(y, top)
    assert not lat.le(c, x) and not lat.le(x, c)


def test_diamond_flags_and_certificate():
    lat = diamond3()
    rep = structure_report(lat)
    assert rep["modular"] and not rep["distributive"]
    wit = rep["diamond"]
    assert len(set(wit)) == 5
    bot, x, y, z, top = wit
    for a, b in ((x, y), (x, z), (y, z)):
        assert lat.meet[a][b] == bot and lat.join[a][b] == top
    sub = set(wit)
    for a in wit:
        for b in wit:
            assert lat.meet[a][b] in sub and lat.join[a][b] in sub


def test_distributive_implies_modular():
    for lat in (chain(1), chain(5), lattice_product(chain(2), chain(3)),
                pentagon(), diamond3()):
        rep = structure_report(lat)
        if rep["distributive"]:
            assert rep["modular"]


def test_boolean_square():
    lat = lattice_product(chain(2), chain(2))
    rep = structure_report(lat)
    assert rep["size"] == 4 and not rep["chain"]
    assert rep["distributive"] and rep["length"] == 2
    assert len(rep["atoms"]) == 2


def test_isomorphism_and_anti_isomorphism():
    ok, mapping = are_isomorphic(chain(4), chain(4))
    assert ok and mapping == [0, 1, 2, 3]
    assert not are_isomorphic(chain(4), chain(3))[0]
    assert not are_isomorphic(lattice_product(chain(2), chain(2)), chain(4))[0]
    # the pentagon and diamond are self-dual
    for lat in (pentagon(), diamond3()):
        ok, mapping = are_isomorphic(lat, lat, anti=True)
        assert ok
        n = lat.size
        for a in range(n):
            for b in range(n):
                assert lat.le(a, b) == lat.le(mapping[b], mapping[a])
    assert not are_isomorphic(pentagon(), diamond3())[0]


def test_non_lattice_rejected_with_pair():
    # two minimal and two maximal elements, all cross-related: no joins
    with pytest.raises(NotALatticeError) as err:
        build_lattice(["a", "b", "c", "d"],
                      [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])
    assert set(err.value.pair) <= {"a", "b", "c", "d"}


def test_antisymmetry_violation_rejected():
    with pytest.raises(InputError):
        build_lattice([0, 1], [(0, 1), (1, 0)])


def test_intransitive_order_rejected():
    """Up-sets with 0 ≤ 1 and 1 ≤ 2 but not 0 ≤ 2 give no order."""
    with pytest.raises(InputError, match="not transitive on 0, 1, 2"):
        FiniteLattice(range(3), [0b011, 0b110, 0b100])


def test_size_guard():
    with pytest.raises(BoundExceededError):
        build_lattice(list(range(65)), leq=lambda a, b: a <= b)


def test_to_dot_edge_counts():
    assert to_dot(chain(3)).count("->") == 2
    assert to_dot(lattice_product(chain(2), chain(2))).count("->") == 4
    assert to_dot(diamond3()).count("->") == 6
    text = to_dot(chain(2), labels=["bottom", "top"])
    assert 'label="bottom"' in text and "rankdir=BT" in text


def test_meet_join_tables_consistent_with_order():
    lat = pentagon()
    n = lat.size
    for a in range(n):
        for b in range(n):
            m = lat.meet[a][b]
            assert lat.le(m, a) and lat.le(m, b)
            j = lat.join[a][b]
            assert lat.le(a, j) and lat.le(b, j)
            assert lat.le(a, b) == (lat.meet[a][b] == a)
            assert lat.le(a, b) == (lat.join[a][b] == b)
            # greatest lower bound, least upper bound
            for c in range(n):
                if lat.le(c, a) and lat.le(c, b):
                    assert lat.le(c, m)
                if lat.le(a, c) and lat.le(b, c):
                    assert lat.le(j, c)


def test_divisor_lattices():
    """Divisors of n under divisibility: meet is gcd and join is lcm, and
    the covering pairs closed transitively give the same order as the
    divisibility predicate."""
    for n in range(1, 65):
        divs = [d for d in range(1, n + 1) if n % d == 0]
        covering = [(d, d * p) for d in divs for p in range(2, n + 1)
                    if n % (d * p) == 0
                    and all(p % q for q in range(2, p))]
        by_pairs = build_lattice(divs, covering)
        by_leq = build_lattice(divs, leq=lambda a, b: b % a == 0)
        assert by_pairs.up == by_leq.up and by_pairs.down == by_leq.down
        pos = {d: i for i, d in enumerate(divs)}
        for lat in (by_pairs, by_leq):
            for i, a in enumerate(divs):
                for j, b in enumerate(divs):
                    assert lat.le(i, j) == (b % a == 0)
                    assert lat.meet[i][j] == pos[math.gcd(a, b)]
                    assert lat.join[i][j] == pos[math.lcm(a, b)]
        assert sorted(by_pairs.covers()) == sorted(
            (pos[a], pos[b]) for a, b in covering)


def test_import_loads_only_the_standard_library():
    """The package has no third-party runtime dependency.  The compiled
    kernel registers its own runtime shims, cython_runtime and
    _cython_<version>, which are accepted on that backend only."""
    code = ("import sys; before = set(sys.modules); import ringscope; "
            "print(ringscope.BACKEND, *sorted({m.split('.')[0] for m in "
            "set(sys.modules) - before} - set(sys.stdlib_module_names)))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True)
    backend, *names = done.stdout.split()
    if backend == "cython":
        names = [m for m in names
                 if m != "cython_runtime" and not m.startswith("_cython_")]
    assert names == ["ringscope"]
