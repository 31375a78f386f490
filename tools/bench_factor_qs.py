#!/usr/bin/env python3
"""Time the factoring of K(2..40) and the `oracles` benchmark on two
source trees, time the change's quadratic sieve by size of cofactor, and
write the comparison as JSON.

    python3 tools/bench_factor_qs.py PARENT CHANGE --out BENCH.json [--cpu N]

PARENT and CHANGE are checkouts, each with src/, perfbench/ and
BENCHMARK.json. The layer measured is the factoring of K(n).

- `factorize K(2..40)`: both trees' leftfact packages are loaded into this
  one process (under the names leftfact_parent and leftfact_change) and
  factor K(2), ..., K(40) in FACTOR_PAIRS pairs that alternate which tree
  goes first. sympy's factor_cache, which would hand a later run the
  factors an earlier one found, is cleared before every run. Each run also
  counts the sympy.factorint calls and their time.
- `sieve by size`: the change's _qs_divisor on seeded products of two
  primes of SIEVE_DIGITS digits, balanced (two halves) and unbalanced (a
  prime of UNBALANCED_DIGITS digits times the rest), SIEVE_REPEATS runs
  each; every run must return one of the two primes.
- `perfbench oracles`: OBENCH_PAIRS pairs of BENCHMARK.json's command on
  the `oracles` workload (seeds from SEED on, `--seconds 30`), then
  TRACE_PAIRS traced pairs for the factorint layer.
- `perfbench kh-sweep` and `perfbench kh-rerun`: KH_PAIRS pairs each. `kh`
  imports factorint but never factors, so these should not move.

Each row gives both sides' medians and quartiles and how many pairs the
change won. --cpu pins this process and its children to one core.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import math
import os
import platform
import random
import sys
import time
from pathlib import Path

import sympy
from bench_numpy_free_kh import SEED, pairs, perfbench, quartiles, summarize
from sympy.ntheory import factor_cache

LAYER = "factoring of K(n)"
FACTOR_NS = range(2, 41)
FACTOR_PAIRS = 6
SIEVE_DIGITS = (26, 30, 34, 38, 42, 46, 50)
UNBALANCED_DIGITS = 11
SIEVE_REPEATS = 3
OBENCH_PAIRS = 10
TRACE_PAIRS = 2
KH_PAIRS = 3
LAYERS = ("factorint.factorize_s", "factorint.sympy_s", "factorint.sympy_escalations",
          "factorint.own_s")
VALUES = [sum(math.factorial(i) for i in range(n)) for n in FACTOR_NS]


def load_factorint(tree: Path, alias: str):
    """tree's leftfact.factorint, imported as alias.factorint."""
    init = tree / "src" / "leftfact" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        alias, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[alias] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{alias}.factorint")


class Factoring:
    """factorize(K(n)) for every n in FACTOR_NS on one tree, timed, with
    sympy.factorint counted."""

    def __init__(self) -> None:
        self.calls: list[float] = []
        inner = sympy.factorint

        def counted(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                self.calls.append(time.perf_counter() - t0)

        # factorint looks sympy.factorint up at call time
        sympy.factorint = counted
        self.results: dict[str, list] = {}

    def run(self, module, side: str) -> dict[str, float]:
        factor_cache.cache_clear()
        self.calls.clear()
        t0 = time.perf_counter()
        got = [module.factorize(v).factors for v in VALUES]
        wall = time.perf_counter() - t0
        if self.results.setdefault(side, got) != got:
            raise SystemExit(f"{side}: factorizations changed between runs")
        return {"factor_s": wall, "sympy_s": sum(self.calls),
                "sympy_escalations": len(self.calls)}


def sieve_by_size(module) -> dict:
    """Seconds per _qs_divisor call on seeded products of two primes, by
    digits and balance: [q1, median, q3] of SIEVE_REPEATS runs."""
    rng = random.Random(SEED)
    out = {}
    for digits in SIEVE_DIGITS:
        for kind, small in (("balanced", digits // 2), ("unbalanced", UNBALANCED_DIGITS)):
            primes = [int(sympy.nextprime(rng.randrange(10 ** (d - 1), 10**d)))
                      for d in (small, digits - small)]
            n = primes[0] * primes[1]
            times = []
            for _ in range(SIEVE_REPEATS):
                t0 = time.perf_counter()
                d = module._qs_divisor(n)
                times.append(time.perf_counter() - t0)
                if d not in primes:
                    raise SystemExit(f"the sieve gave {d} for {primes}")
            out[f"{len(str(n))} digits {kind}"] = [round(t, 6) for t in quartiles(times)]
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--cpu", type=int, help="pin this process and its children to one core")
    args = ap.parse_args()
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    modules = {side: load_factorint(tree, f"leftfact_{side}") for side, tree in trees.items()}
    report: dict = {
        "host": {"nproc": os.cpu_count(), "pinned_cpu": args.cpu,
                 "python": platform.python_version(), "sympy": sympy.__version__,
                 "machine": platform.machine()},
        "trees": {side: tree.name for side, tree in trees.items()},
        "layer": LAYER,
        "options": {"factor_pairs": FACTOR_PAIRS, "sieve_digits": SIEVE_DIGITS,
                    "unbalanced_digits": UNBALANCED_DIGITS, "sieve_repeats": SIEVE_REPEATS,
                    "oracles_pairs": OBENCH_PAIRS, "trace_pairs": TRACE_PAIRS,
                    "kh_pairs": KH_PAIRS, "seed": SEED},
        "traced_layers": LAYERS,
        "rows": {},
    }

    def record(name: str, row: dict) -> None:
        report["rows"][name] = row
        print(name, json.dumps(row), flush=True)

    factoring = Factoring()
    rows = pairs(FACTOR_PAIRS, lambda side, _i: factoring.run(modules[side], side))
    if factoring.results["parent"] != factoring.results["change"]:
        raise SystemExit("the trees factor K(2..40) differently")
    record("factorize K(2..40)", summarize(rows))

    record("sieve by size", sieve_by_size(modules["change"]))

    rows = pairs(OBENCH_PAIRS, lambda side, i: perfbench(trees[side], "oracles", SEED + i, 0))
    record("perfbench oracles", summarize(rows))
    rows = pairs(TRACE_PAIRS, lambda side, i: perfbench(trees[side], "oracles", SEED + i, 1))
    rows = [{s: {k: r[s][k] for k in LAYERS} for s in r} for r in rows]
    record("perfbench oracles traced", summarize(rows))
    for workload in ("kh-sweep", "kh-rerun"):
        rows = pairs(KH_PAIRS, lambda side, i, w=workload: perfbench(trees[side], w, SEED + i, 0))
        record(f"perfbench {workload}", summarize(rows))
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
