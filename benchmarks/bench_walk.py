"""Time listing every submodule of a module that the walk by covers lists.

Each run builds a fresh ring, so nothing is memoised, builds the module
(the regular module R or R ⊕ R), and times submodules() alone.  Prints
the best of --repeat runs and the number of submodules for six cases:
the right ideals of two rings with many of them, and the submodules of R²
for four rings of order 64.  Z/64's R² has few submodules for its 4,096
elements, and the walk spans every element's cyclic submodule before it
starts, so it is the case the walk serves worst.

Run as: python benchmarks/bench_walk.py [--repeat 5]
"""

import argparse
import time

from ringscope import _backend
from ringscope.cli import load_ring
from ringscope.modules import direct_sum, regular_module, submodules
from ringscope.ring import path_algebra, product_ring, zmod

# name -> (fresh ring, rank of the free module walked)
CASES = {
    "F2(1->2->3->4), R": (
        lambda: path_algebra(2, 4, [[1, 2], [2, 3], [3, 4]]), 1),
    "F2^9, R": (lambda: product_ring([zmod(2)] * 9), 1),
    "quiver_f2, R^2": (lambda: load_ring("quiver_f2"), 2),
    "T3(F2), R^2": (lambda: path_algebra(2, 3, [[1, 2], [2, 3]]), 2),
    "Z/64, R^2": (lambda: zmod(64), 2),
    "Z/8 x Z/8, R^2": (lambda: product_ring([zmod(8), zmod(8)]), 2),
}


def free_module(ring, rank):
    reg = regular_module(ring)
    return reg if rank == 1 else direct_sum([reg] * rank, label="R^2")


def bench(build, rank, repeat):
    best, count = float("inf"), 0
    for _ in range(repeat):
        module = free_module(build(), rank)
        t0 = time.perf_counter()
        count = len(submodules(module))
        best = min(best, time.perf_counter() - t0)
    return best, count


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args()

    print(f"kernel backend: {_backend.BACKEND}")
    print(f"{'case':<20} {'order':>6} {'submodules':>11} {'best':>10}")
    for name, (build, rank) in CASES.items():
        order = build().order() ** rank
        t, count = bench(build, rank, args.repeat)
        print(f"{name:<20} {order:>6} {count:>11} {t:>9.3f}s")


if __name__ == "__main__":
    main()
