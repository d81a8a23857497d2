"""Compare the Howell kernels on random square matrices.

At every modulus the pure-Python kernel is timed against the compiled one,
when it is built.  At --modulus 2 the Python kernel takes its F_2 path, so
the xgcd elimination it uses for every other modulus (``_howell_general``)
is timed too, as the baseline.

Run as: python benchmarks/bench_howell.py [--sizes 8,16,32] [--repeat 5]
        [--modulus 2]
"""

import argparse
import random
import time

from ringscope import _backend
from ringscope._howell_py import _howell_general
from ringscope._howell_py import howell_mod as howell_py


def bench(kernel, mats, ncols, n, repeat):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        for m in mats:
            kernel([list(r) for r in m], ncols, n)
        best = min(best, time.perf_counter() - t0)
    return best


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--sizes", default="4,8,16,32")
    parser.add_argument("--count", type=int, default=200)
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--modulus", type=int, default=256)
    args = parser.parse_args()

    if args.modulus == 2:
        kernels = [("general", _howell_general), ("f2", howell_py)]
    else:
        kernels = [("python", howell_py)]
    if _backend.BACKEND == "cython":
        kernels.append(("compiled", _backend.howell_mod))
    else:
        print("compiled kernel unavailable; not timed")
    # speedups are against the first kernel
    print(f"{'size':>6}" + "".join(f" {name:>10}" for name, _ in kernels)
          + "".join(f" {name + ' speedup':>17}" for name, _ in kernels[1:]))
    rng = random.Random(12345)
    for size in map(int, args.sizes.split(",")):
        mats = [[[rng.randrange(args.modulus) for _ in range(size)]
                 for _ in range(size)]
                for _ in range(args.count)]
        times = [bench(kernel, mats, size, args.modulus, args.repeat)
                 for _, kernel in kernels]
        print(f"{size:>6}" + "".join(f" {t:>9.4f}s" for t in times)
              + "".join(f" {times[0] / t:>16.1f}x" for t in times[1:]))


if __name__ == "__main__":
    main()
