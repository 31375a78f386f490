#!/usr/bin/env python3
"""Time how the fill of a gap's blocks changes the cost of applying it.

    PYTHONPATH=src python3 tools/gap_block_fill.py [--repeats 7] [--seed 1] [--cpu N]

The KH kernel (leftfact.sweeps) applies each gap to a modulus as blocks of
at most cap = modulus bits - _SLACK_BITS, with the Barrett reduction
_apply does after each. This script applies the same total gap bits (ten
caps, about ln p caps at the primes near 10^5) as blocks filled to 1.0,
0.77 and 0.5 of the cap, to random odd moduli, and prints the median time
of each, in ms, as a markdown table. The fills take turns within each
repeat, and the reciprocal is computed before the timing starts, as it is
once per modulus in the kernel. --cpu pins the process to one core.
"""

from __future__ import annotations

import argparse
import os
import random
import statistics
import time

from leftfact.sweeps import _SLACK_BITS, _reducer

GAP_CAPS = 10
BITS = (4096, 16384, 77000)
FILLS = (1.0, 0.77, 0.5)


def apply_s(reduce, blocks: list[tuple[int, int]], v: int) -> float:
    # sweeps._apply without its _reducer(modulus) call, so that the
    # reciprocal stays out of the timing.
    t0 = time.perf_counter()
    for c, d in blocks:
        v = reduce(c + d * v)
    return time.perf_counter() - t0


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--repeats", type=int, default=7)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--cpu", type=int, help="pin this process to one core")
    args = ap.parse_args()
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    rng = random.Random(args.seed)
    print("| modulus | " + " | ".join(f"fill {f}" for f in FILLS) + " |")
    print("| --- |" + " --- |" * len(FILLS))
    for m in BITS:
        modulus = rng.getrandbits(m) | 1 << (m - 1) | 1
        reduce = _reducer(modulus)
        reduce(modulus * modulus - 1)  # computes the reciprocal
        v = rng.randrange(modulus)
        cap = m - _SLACK_BITS
        gaps = [
            [(rng.getrandbits(int(fill * cap)), rng.getrandbits(int(fill * cap)))
             for _ in range(round(GAP_CAPS / fill))]
            for fill in FILLS
        ]
        times: list[list[float]] = [[] for _ in gaps]
        for _ in range(args.repeats):
            for blocks, out in zip(gaps, times):
                out.append(apply_s(reduce, blocks, v))
        row = [f"{statistics.median(t) * 1e3:.3g} ms" for t in times]
        print(f"| {m} bits | " + " | ".join(row) + " |")


if __name__ == "__main__":
    main()
