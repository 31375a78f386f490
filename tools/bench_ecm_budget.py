#!/usr/bin/env python3
"""Time the factoring of K(2..40) and the `oracles` benchmark on two
source trees, and write the comparison as JSON.

    python3 tools/bench_ecm_budget.py PARENT CHANGE --out BENCH.json [--cpu N]

PARENT and CHANGE are checkouts, each with src/, perfbench/ and
BENCHMARK.json.

- `factorize K(2..40)`: both trees' leftfact packages are loaded into this
  one process (under the names leftfact_parent and leftfact_change) and
  factor K(2), ..., K(40) in FACTOR_PAIRS pairs that alternate which tree
  goes first. sympy's factor_cache, which would hand a later run the
  factors an earlier one found, and the change's cached ECM plan are
  cleared before every run. Each run also counts the sympy.factorint
  calls and their time: the layer this change moves.
- `sigma starts`: the change's factoring time with its curves started at
  Suyama's sigma = S, ..., S + 7 instead of 6, ..., 13, over the SIGMA_STARTS
  below (fixed before any run), as a ratio to the parent's median time; it
  shows whether sigma = 6 is a typical start or a lucky one. Every start
  must give the parent's factorizations.
- `perfbench oracles`: OBENCH_PAIRS pairs of BENCHMARK.json's command on
  the `oracles` workload (seeds from SEED on, `--seconds 30`), then
  TRACE_PAIRS traced pairs for the factorint layer.
- `perfbench kh-sweep` and `perfbench kh-rerun`: KH_PAIRS pairs each. `kh`
  imports factorint but never runs its curves, so these should not move.

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
import statistics
import sys
import time
from pathlib import Path

import sympy
from bench_numpy_free_kh import SEED, pairs, perfbench, summarize
from sympy.ntheory import factor_cache

FACTOR_NS = range(2, 41)
FACTOR_PAIRS = 6
SIGMA_STARTS = (6, 100, 1000, 10**4, 10**5, 10**6, 10**7, 31415926)
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
        if hasattr(module, "_ecm_plan"):
            module._ecm_plan.cache_clear()
        self.calls.clear()
        t0 = time.perf_counter()
        got = [module.factorize(v).factors for v in VALUES]
        wall = time.perf_counter() - t0
        if self.results.setdefault(side, got) != got:
            raise SystemExit(f"{side}: factorizations changed between runs")
        return {"factor_s": wall, "sympy_s": sum(self.calls),
                "sympy_escalations": len(self.calls)}


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
        "options": {"factor_pairs": FACTOR_PAIRS, "sigma_starts": SIGMA_STARTS,
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
    parent_s = statistics.median(r["parent"]["factor_s"] for r in rows)

    change = modules["change"]
    sigmas = {}
    for start in SIGMA_STARTS:
        change._ECM_SIGMA = start
        got = factoring.run(change, f"sigma {start}")
        if factoring.results[f"sigma {start}"] != factoring.results["parent"]:
            raise SystemExit(f"sigma start {start} changed a factorization")
        sigmas[str(start)] = {**{k: round(v, 6) for k, v in got.items()},
                              "ratio_to_parent": round(got["factor_s"] / parent_s, 4)}
    change._ECM_SIGMA = SIGMA_STARTS[0]
    ratios = sorted(s["ratio_to_parent"] for s in sigmas.values())
    record("sigma starts", {"parent_median_s": round(parent_s, 6), "starts": sigmas,
                            "ratio_min_median_max": [ratios[0], statistics.median(ratios),
                                                     ratios[-1]]})

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
