"""Time building and axiom-checking rings given by structure constants.

Every constructor runs verify_ring_axioms, so a build's time includes
that check.  Prints the best of --repeat runs, each the mean of --count
builds, for five rings whose products are mostly zero or one basis
vector.

Run as: python benchmarks/bench_ring.py [--repeat 5] [--count 10]
"""

import argparse
import time

from ringscope import _backend
from ringscope.ring import matrix_ring, path_algebra, product_ring, zmod

RINGS = {
    "F2(1->2->3->4->5)": lambda: path_algebra(
        2, 5, [[1, 2], [2, 3], [3, 4], [4, 5]]),
    "F2(1->2->3->4)": lambda: path_algebra(2, 4, [[1, 2], [2, 3], [3, 4]]),
    "M2(F2 x F2)": lambda: matrix_ring(product_ring([zmod(2), zmod(2)]), 2),
    "F2(1->2, 1->3, 1->4)": lambda: path_algebra(
        2, 4, [[1, 2], [1, 3], [1, 4]]),
    "M2(Z/4)": lambda: matrix_ring(zmod(4), 2),
}


def bench(build, repeat, count):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        for _ in range(count):
            build()
        best = min(best, (time.perf_counter() - t0) / count)
    return best


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--count", type=int, default=10)
    args = parser.parse_args()

    print(f"kernel backend: {_backend.BACKEND}")
    print(f"{'ring':<22} {'rank':>5} {'build+check':>12}")
    for name, build in RINGS.items():
        rank = build().rank
        t = bench(build, args.repeat, args.count)
        print(f"{name:<22} {rank:>5} {t * 1e3:>10.3f}ms")


if __name__ == "__main__":
    main()
