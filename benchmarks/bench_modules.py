"""Time listing the module classes at rank 2, as `ringscope modules` does.

Each run builds a fresh ring, so nothing is memoised, and times
enumerate_modules(ring, 2, max_order) whole: the cyclic classes, the walk
of R², the quotients and the isomorphism tests.  Prints the best of
--repeat runs and the number of classes for four cases: the CLI default
max_order 64 on t2f2, f2xy_j2 and m2f2, and 16 on quiver_f2, whose run at
64 takes seconds.

Run as: python benchmarks/bench_modules.py [--repeat 5]
"""

import argparse
import time

from ringscope import _backend
from ringscope.cli import load_ring
from ringscope.modules import enumerate_modules

# (ring, max_order)
CASES = (("t2f2", 64), ("f2xy_j2", 64), ("m2f2", 64), ("quiver_f2", 16))


def bench(name, max_order, repeat):
    best, count = float("inf"), 0
    for _ in range(repeat):
        ring = load_ring(name)
        t0 = time.perf_counter()
        count = len(enumerate_modules(ring, 2, max_order))
        best = min(best, time.perf_counter() - t0)
    return best, count


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args()

    print(f"kernel backend: {_backend.BACKEND}")
    print(f"{'case':<14} {'classes':>8} {'best':>10}")
    for name, max_order in CASES:
        t, count = bench(name, max_order, args.repeat)
        print(f"{name + '@' + str(max_order):<14} {count:>8} {t:>9.3f}s")


if __name__ == "__main__":
    main()
