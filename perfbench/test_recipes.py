"""Checks on the profile_random ring generator.

    python3 -m pytest perfbench/test_recipes.py

Run from the root of a checkout.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import recipes  # noqa: E402


def test_same_seed_same_recipes():
    space = recipes.recipe_space()
    first = recipes.draw_recipes(7, space)
    assert first == recipes.draw_recipes(7, space)
    assert first != recipes.draw_recipes(8, space)


def test_draw_meets_the_limits_and_quotas():
    drawn = recipes.draw_recipes(3)
    assert len(drawn) == recipes.RING_COUNT
    assert len({recipes.key(r) for r, _ in drawn}) == recipes.RING_COUNT
    for low, high, quota in recipes.STRATA:
        assert sum(low <= n <= high for _, n in drawn) == quota
    for recipe, n in drawn:
        ring = recipes.build(recipe)
        assert recipes.MIN_ORDER <= ring.order() <= recipes.MAX_ORDER
        assert n <= recipes.MAX_RIGHT_IDEALS


def test_every_drawable_recipe_has_a_reference():
    with open(HERE / "reference.json") as fh:
        reference = json.load(fh)["profile_random"]
    for seed in range(3):
        for recipe, _ in recipes.draw_recipes(seed):
            assert recipes.key(recipe) in reference
