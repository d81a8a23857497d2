"""Shared fixtures: bundled rings are loaded once per session so that
per-ring caches (ideal lists, hom groups) are reused across tests."""

import importlib.util
import sys
from functools import lru_cache
from pathlib import Path

import pytest

from ringscope import ring_from_spec
from ringscope.cli import load_ring

# the bundled rings small enough for exhaustive ideal/filter enumeration
SMALL_CORPUS = ("z8", "z4xf2", "t2f2", "m2f2", "quiver_f2",
                "f2xy_j2", "f2xy_x2y2")

RECIPES = Path(__file__).resolve().parents[1] / "perfbench" / "recipes.py"
# random-ring recipes of the benchmark; F2 × F3 is a product of fields,
# with J = 0
RECIPE_RINGS = {
    "t2f2xz2": {"kind": "pathz", "k": 2,
                "path": {"kind": "path", "p": 2, "vertices": 2,
                         "arrows": [[1, 2]], "cut": None}},
    "path3_cut_op": {"kind": "path", "p": 2, "vertices": 3,
                     "arrows": [[1, 2], [1, 3]], "cut": [0, 0, 0, 1, 0],
                     "op": True},
    "z3xz4": {"kind": "zprod", "ks": [3, 4]},
    "f2xf3": {"kind": "zprod", "ks": [2, 3]},
}


# rings with more right ideals than the filter guard once admitted (30),
# small enough for Tier-1: F2^5 (32 right ideals) and T3(F2), the upper
# triangular 3x3 matrices over F2 (40)
F2 = {"type": "zmod", "n": 2}
GUARD_RINGS = {
    "f2x5": {"type": "product", "factors": [F2] * 5},
    "t3f2": {"type": "path_algebra", "p": 2, "vertices": 3,
             "arrows": [[1, 2], [2, 3]]},
}

# T2(Z/4), the upper triangular 2x2 matrices over Z/4: t2f2's structure
# constants on generators of order 4 (26 right ideals)
TRIANGULAR_RINGS = {
    "t2z4": {"type": "table", "orders": [4, 4, 4],
             "mul": [[[1, 0, 0], [0, 1, 0], [0, 0, 0]],
                     [[0, 0, 0], [0, 0, 0], [0, 1, 0]],
                     [[0, 0, 0], [0, 0, 0], [0, 0, 1]]],
             "one": [1, 0, 1]},
}
SPEC_RINGS = {**GUARD_RINGS, **TRIANGULAR_RINGS}


@lru_cache(maxsize=None)
def corpus(name):
    """A bundled ring, or one of SPEC_RINGS, loaded once per session."""
    if name in SPEC_RINGS:
        return ring_from_spec({"construct": SPEC_RINGS[name], "label": name})
    return load_ring(name)


@lru_cache(maxsize=None)
def recipes_module():
    """perfbench/recipes.py, loaded from its place without writing
    bytecode next to it."""
    sys.dont_write_bytecode, saved = True, sys.dont_write_bytecode
    try:
        spec = importlib.util.spec_from_file_location("perfbench_recipes",
                                                      RECIPES)
        recipes = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(recipes)
    finally:
        sys.dont_write_bytecode = saved
    return recipes


@lru_cache(maxsize=None)
def recipe_ring(name):
    """The RECIPE_RINGS ring built by perfbench/recipes.py."""
    return recipes_module().build(RECIPE_RINGS[name])


@lru_cache(maxsize=None)
def drawn_recipes(seed):
    """The recipes perfbench/recipes.py draws for the profile_random
    workload at this seed (the draw screens candidates, so it is kept)."""
    return tuple(recipe for recipe, _ in recipes_module().draw_recipes(seed))


def drawn_rings(seed):
    """Fresh copies of the rings drawn at this seed."""
    recipes = recipes_module()
    return [recipes.build(recipe) for recipe in drawn_recipes(seed)]


# group -> its rings, for the differentials that compare a library route
# with its oracle: the small corpus and m2z4, the recipe rings, the rings
# drawn at seed 7, the guard rings and T2(Z/4)
DIFFERENTIAL_RINGS = {
    "corpus": lambda: [corpus(n) for n in SMALL_CORPUS + ("m2z4",)],
    "recipes": lambda: [recipe_ring(n) for n in RECIPE_RINGS],
    "drawn_7": lambda: drawn_rings(7),
    "guard": lambda: [corpus(n) for n in GUARD_RINGS],
    "triangular": lambda: [corpus(n) for n in TRIANGULAR_RINGS],
}


@pytest.fixture(scope="session")
def ring_of():
    return corpus


def simple_modules(ring):
    """One representative per isomorphism class of simple right modules,
    read off the semisimple module R/J."""
    from ringscope.ideals import jacobson_radical
    from ringscope.modules import (factor_module, is_isomorphic_modules,
                                   minimal_submodules, submodule_as_module)

    rj = factor_module(ring, jacobson_radical(ring))[0]
    reps = []
    for atom in minimal_submodules(rj):
        mod = submodule_as_module(atom)[0]
        if not any(is_isomorphic_modules(mod, r)[0] for r in reps):
            reps.append(mod)
    return reps
