"""Time the V1-V16 checks, as `ringscope verify` runs them.

Each run builds a fresh ring, so nothing is memoised, and times
verify_suite(ring) whole.  Prints, for every corpus ring, the best of
--repeat runs, the number of relative injectivity and projectivity
tests that the fingerprints ask (profile._fingerprint) and the number
of RightModules built, counted in one more, untimed run: the classes
the domain's filter decides, semisimple ones included, are never
tested.

Run as: python benchmarks/bench_verify.py [--repeat 5]
"""

import argparse
import importlib
import time

from ringscope import _backend
from ringscope.classify import verify_suite
from ringscope.cli import load_ring
from ringscope.modules import RightModule

# the package re-exports the function profile(), which shadows the module
profile_mod = importlib.import_module("ringscope.profile")

CASES = ("z8", "z4xf2", "t2f2", "m2f2", "quiver_f2", "f2xy_j2",
         "f2xy_x2y2", "m2z4")


def bench(name, repeat):
    best = float("inf")
    for _ in range(repeat):
        ring = load_ring(name)
        t0 = time.perf_counter()
        verify_suite(ring)
        best = min(best, time.perf_counter() - t0)
    return best


def counts(name):
    """(injectivity, projectivity) tests the fingerprints make, and
    RightModules built, in one verify_suite run on a fresh ring."""
    made = {"RightModule": 0}
    saved = {}
    init = RightModule.__init__

    def counted_init(self, *args, **kwargs):
        made["RightModule"] += 1
        init(self, *args, **kwargs)

    for attr in ("is_relatively_injective", "is_relatively_projective"):
        relative = saved[attr] = getattr(profile_mod, attr)
        made[attr] = 0

        def counted(m, n, attr=attr, relative=relative):
            made[attr] += 1
            return relative(m, n)

        setattr(profile_mod, attr, counted)
    RightModule.__init__ = counted_init
    try:
        verify_suite(load_ring(name))
    finally:
        RightModule.__init__ = init
        for attr, relative in saved.items():
            setattr(profile_mod, attr, relative)
    return (made["is_relatively_injective"], made["is_relatively_projective"],
            made["RightModule"])


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args()

    print(f"kernel backend: {_backend.BACKEND}")
    print(f"{'ring':<10} {'inj tests':>10} {'proj tests':>10} "
          f"{'modules':>10} {'best':>10}")
    for name in CASES:
        inj, proj, built = counts(name)
        t = bench(name, args.repeat)
        print(f"{name:<10} {inj:>10} {proj:>10} {built:>10} {t:>9.3f}s")


if __name__ == "__main__":
    main()
