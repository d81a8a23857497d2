"""A cyclic module R/L reads its submodules and quotients off the
right-ideal lattice of R: the submodules are the K/L for the right ideals
K ⊇ L, and (R/L)/(K/L) ≅ R/K.  Each route is compared with the general
one it stands in for: the submodule walk and quotient_module."""

import pytest

from ringscope import modules
from ringscope.cli import load_ring
from ringscope.ideals import ideals_in_radical
from ringscope.modules import (
    cyclic_modules_up_to_iso,
    cyclic_span,
    factor_module,
    is_isomorphic_modules,
    quotient_module,
    quotient_via_lattice,
    regular_module,
    submodules,
    zero_submodule,
)
from ringscope.profile import proj_fingerprint

from conftest import (DIFFERENTIAL_RINGS, RECIPE_RINGS, SMALL_CORPUS, corpus,
                      drawn_recipes, recipes_module)

# the rings profile_random draws at this seed
SEED = 7


@pytest.fixture(scope="module")
def builders():
    """(name, build) per ring covered; build() loads a fresh copy."""
    recipes = recipes_module()
    out = [(name, lambda name=name: load_ring(name))
           for name in SMALL_CORPUS + ("m2z4",)]
    out += [(name, lambda name=name: recipes.build(RECIPE_RINGS[name]))
            for name in RECIPE_RINGS]
    out += [(f"seed {SEED} #{i}", lambda r=r: recipes.build(r))
            for i, r in enumerate(drawn_recipes(SEED))]
    return out


@pytest.fixture(scope="module")
def rings(builders):
    """One copy of each ring, shared by the tests of this file; the
    corpus rings are the session's."""
    return [(name, corpus(name) if name in SMALL_CORPUS + ("m2z4",)
             else build()) for name, build in builders]


def _cyclics(ring):
    """The cyclic classes and the R/I of the profile nodes, one module per
    content, in a fixed order."""
    _, nodes = ideals_in_radical(ring)
    mods = (list(cyclic_modules_up_to_iso(ring))
            + [factor_module(ring, i)[0] for i in nodes])
    return list({m.key: m for m in mods}.values())


def test_cyclic_submodules_match_the_walk(rings):
    for name, ring in rings:
        for n in _cyclics(ring):
            assert modules.cyclic_origin(n) is not None, name
            listed = [s.gens for s in submodules(n)]
            assert listed == [s.gens for s in
                              modules._walk_submodules(n)[0]], name


def test_quotients_of_cyclic_modules_are_factor_modules(rings):
    """n/l by the lattice route is R/K: isomorphic to quotient_module's
    n/l, with a valid projection that is onto, kills l and is split by its
    section."""
    for name, ring in rings:
        for n in _cyclics(ring):
            for l in submodules(n):
                q, proj = quotient_via_lattice(n, l)
                assert is_isomorphic_modules(q, quotient_module(n, l)[0])[0]
                assert proj.is_valid(), name
                assert proj.image_span().span_size() == q.order(), name
                assert not any(x for r in l.gens.rows for x in proj.apply(r))
                assert [proj.apply(s) for s in proj.section] == \
                    [q.generator(j) for j in range(q.rank)], name


def test_proj_fingerprints_match_the_quotient_route(rings, builders,
                                                    monkeypatch):
    """A fresh ring with no cyclic module read off the lattice (every
    submodule list walked, every quotient from quotient_module) gives the
    same projectivity fingerprints."""
    for (name, ring), (_, build) in zip(rings, builders):
        lattice = [proj_fingerprint(m).members for m in _cyclics(ring)]
        with monkeypatch.context() as patched:
            patched.setattr(modules, "cyclic_origin", lambda m: None)
            forced = [proj_fingerprint(m).members
                      for m in _cyclics(build())]
        assert lattice == forced, name


@pytest.mark.parametrize("name, x", [("z8", (2,)), ("t2f2", (0, 1, 0)),
                                     ("m2z4", (0, 0, 0, 2))])
def test_cyclic_modules_built_before_the_right_ideals(name, x):
    """R/0, whose content can be the regular module's, and R/xR built by
    factor_module on a fresh ring, before any caller has asked for its
    right ideals: the build lists them by the regular module's own walk,
    which never reads the lattice it defines, and reading the submodules
    of R/0 and R/xR gives the walk's."""
    ring = load_ring(name)
    reg = regular_module(ring)
    whole, _ = factor_module(ring, zero_submodule(reg))
    part, _ = factor_module(ring, cyclic_span(reg, x))
    if name == "z8":
        assert whole.key == reg.key
    assert modules.cyclic_origin(part) is not None
    for n in (whole, part):
        assert 1 < n.order()
        assert [s.gens for s in submodules(n)] == \
            [s.gens for s in modules._walk_submodules(n)[0]]


@pytest.mark.parametrize("name, x", [("z8", (2,)), ("t2f2", (0, 1, 0)),
                                     ("f2xy_j2", (0, 1, 0))])
def test_an_origin_asked_for_before_the_build_is_recorded(name, x,
                                                          monkeypatch):
    """The content of R/L, built by quotient_module and asked for its
    origin on a fresh ring before factor_module builds R/L, has the origin
    of that build: a module of that content built afterwards reads its
    submodules off the lattice, and they are the walk's."""
    ring = load_ring(name)
    reg = regular_module(ring)
    l = cyclic_span(reg, x)
    early, _ = quotient_module(reg, l)
    assert modules.cyclic_origin(early) is None
    built, _ = factor_module(ring, l)
    assert built.key == early.key
    assert modules.cyclic_origin(early) is not None
    read = []
    lattice_route = modules._cyclic_submodules
    monkeypatch.setattr(modules, "_cyclic_submodules",
                        lambda n, *origin: read.append(n.key)
                        or lattice_route(n, *origin))
    fresh, _ = quotient_module(reg, l)
    assert [s.gens for s in submodules(fresh)] == \
        [s.gens for s in modules._walk_submodules(fresh)[0]]
    assert read == [fresh.key]


@pytest.mark.parametrize("group", DIFFERENTIAL_RINGS)
def test_every_cyclic_class_has_an_origin(group):
    """Each class R/L of cyclic_modules_up_to_iso has an origin, and
    factor_module of its L is a module of that content."""
    for ring in DIFFERENTIAL_RINGS[group]():
        reg = regular_module(ring)
        for c in cyclic_modules_up_to_iso(ring):
            origin = modules.cyclic_origin(c)
            assert origin is not None, (ring.label, c.label)
            q, _ = factor_module(ring, modules.Submodule(reg, origin[0].rows))
            assert q.key == c.key, (ring.label, c.label)
