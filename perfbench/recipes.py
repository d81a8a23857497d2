"""Seeded generator of small random rings for the profile_random workload.

A recipe is a JSON-able dict that names public ringscope constructors:

    {"kind": "path", "p": 2, "vertices": 3, "arrows": [[1, 2], [1, 3]],
     "cut": [0, 0, 0, 1, 1], "op": false}
    {"kind": "zprod", "ks": [2, 4]}
    {"kind": "pathz", "path": <path recipe>, "k": 3}

"cut" is one generator of a two-sided ideal to factor out (or null), and
"op" asks for the opposite ring.  Every random choice ranges over a finite
list, so `recipe_space()` can enumerate everything `draw_recipes` can
return; the reference answers in reference.json are keyed by recipe.
"""

from __future__ import annotations

import itertools
import json
import random

import ringscope

# The benchmark's own screening limits.  MAX_RIGHT_IDEALS deliberately does
# not follow ringscope.torsion.FILTER_IDEAL_GUARD, so the ring set stays put
# if the library moves its guard.
MIN_ORDER = 4
MAX_ORDER = 32
MAX_RIGHT_IDEALS = 30

ZMOD_KS = (2, 3, 4, 8, 9)
PRIMES = (2, 3)
OPPOSITE_SHARE = 1 / 3

# Strata by right-ideal count: (low, high, rings drawn).  The time of
# classify_report grows with the count (in pure Python about 0.1 s at 8,
# 0.4 s at 14, 0.7 s at 18, 1.5 s at 23 and 1.9 s at 28-29), so drawing a
# fixed number from each stratum keeps the work of one seed close to that
# of another.  The costliest rings dominate a run, so they get two strata
# and the most draws.
STRATA = ((1, 8, 6), (9, 14, 6), (15, 21, 6), (22, 25, 1),
          (26, MAX_RIGHT_IDEALS, 5))
RING_COUNT = sum(n for _, _, n in STRATA)


def key(recipe) -> str:
    """Canonical text of a recipe, used to look up its reference answer."""
    return json.dumps(recipe, sort_keys=True, separators=(",", ":"))


def _quivers(vertices):
    """Arrow lists of 1-3 arrows running from lower to higher vertex; every
    acyclic quiver is one of these after renumbering its vertices."""
    pairs = [(s, t) for s in range(1, vertices + 1)
             for t in range(s + 1, vertices + 1)]
    for n in (1, 2, 3):
        for arrows in itertools.combinations_with_replacement(pairs, n):
            yield [list(a) for a in arrows]


def _cuts(p, rank, vertices):
    """Ideal generators: each non-trivial path, and each sum of two of them
    with a nonzero second coefficient."""
    paths = range(vertices, rank)

    def vec(terms):
        v = [0] * rank
        for i, c in terms:
            v[i] = c
        return v

    out = [vec([(i, 1)]) for i in paths]
    for i, j in itertools.combinations(paths, 2):
        out.extend(vec([(i, 1), (j, c)]) for c in range(1, p))
    return out


def _path_space():
    out = []
    for p in PRIMES:
        for vertices in (2, 3):
            for arrows in _quivers(vertices):
                rank = ringscope.path_algebra(p, vertices, arrows).rank
                base = {"kind": "path", "p": p, "vertices": vertices,
                        "arrows": arrows}
                for cut in [None] + _cuts(p, rank, vertices):
                    out.append(dict(base, cut=cut))
    return out


def _zprod_space():
    return [{"kind": "zprod", "ks": list(ks)}
            for n in (2, 3)
            for ks in itertools.combinations_with_replacement(ZMOD_KS, n)]


def _pathz_space(paths):
    small = [r for r in paths if r["p"] == 2 and r["vertices"] == 2
             and r["cut"] is None]
    return [{"kind": "pathz", "path": r, "k": k} for r in small for k in ZMOD_KS]


def recipe_space():
    """Every recipe the generator can return, before screening, as three
    families: path algebras (cut or not), products of Z/k, and products of
    a small path algebra with Z/k."""
    paths = _path_space()
    return {"path": paths, "zprod": _zprod_space(), "pathz": _pathz_space(paths)}


def all_recipes():
    """recipe_space() flattened, with both values of the opposite flag on
    path algebras, as draw_recipes sets it."""
    space = recipe_space()
    out = []
    for family in sorted(space):
        for recipe in space[family]:
            if family == "path":
                out.extend(dict(recipe, op=op) for op in (False, True))
            else:
                out.append(recipe)
    return out


def build(recipe):
    """The ring of a recipe, from public constructors only."""
    kind = recipe["kind"]
    if kind == "path":
        ring = ringscope.path_algebra(recipe["p"], recipe["vertices"],
                                      recipe["arrows"])
        if recipe["cut"] is not None:
            ring, _, _ = ringscope.quotient_ring(ring, [recipe["cut"]])
    elif kind == "zprod":
        ring = ringscope.product_ring([ringscope.zmod(k) for k in recipe["ks"]])
    elif kind == "pathz":
        ring = ringscope.product_ring([build(recipe["path"]),
                                       ringscope.zmod(recipe["k"])])
    else:
        raise ValueError(f"unknown recipe kind {kind!r}")
    if recipe.get("op"):
        ring = ringscope.opposite_ring(ring)
    return ring


def screen(recipe):
    """Number of right ideals of the recipe's ring, or None when the ring
    falls outside the limits.  Works on its own copy of the ring, so the
    copy a timed operation gets starts with cold caches."""
    ring = build(recipe)
    if not MIN_ORDER <= ring.order() <= MAX_ORDER:
        return None
    try:
        n = len(ringscope.right_ideals(ring))
    except ringscope.BoundExceededError:
        return None
    return n if n <= MAX_RIGHT_IDEALS else None


def _stratum(n_ideals):
    for t, (low, high, _) in enumerate(STRATA):
        if low <= n_ideals <= high:
            return t
    raise ValueError(f"{n_ideals} right ideals fall in no stratum")


def stratum_name(n_ideals):
    low, high, _ = STRATA[_stratum(n_ideals)]
    return f"{low}-{high} right ideals"


def draw_recipes(seed: int, space=None):
    """RING_COUNT distinct screened recipes drawn from the seed, with the
    quota of each stratum met.  Returns [(recipe, right ideal count)]."""
    rng = random.Random(seed)
    space = space or recipe_space()
    families = sorted(space)
    quota = [n for _, _, n in STRATA]
    seen = set()
    out = []
    while any(quota):
        family = families[rng.randrange(len(families))]
        recipe = dict(space[family][rng.randrange(len(space[family]))])
        if family == "path":
            recipe["op"] = rng.random() < OPPOSITE_SHARE
        k = key(recipe)
        if k in seen:
            continue
        seen.add(k)
        n = screen(recipe)
        if n is None:
            continue
        t = _stratum(n)
        if quota[t]:
            quota[t] -= 1
            out.append((recipe, n))
    return out
