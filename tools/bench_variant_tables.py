#!/usr/bin/env python3
"""Time the KH-variant residues on two source trees, and the perfbench
workloads around them, and write the comparison as JSON.

    python3 tools/bench_variant_tables.py PARENT CHANGE --out BENCH.json [--cpu N]

PARENT and CHANGE are checkouts, each with src/, perfbench/ and
BENCHMARK.json. The layer measured is the variant residues
(`modular.kh_equivalent_residue`, perfbench's `modular.variant_s`).

- `variants to VARIANT_P_MAX`: bench_factor_qs's variant pass, in this
  process: both trees' six variants of every odd prime up to
  VARIANT_P_MAX, the calls the `oracles` plan makes, in VARIANT_PAIRS
  pairs; the values must agree.
- `perfbench W` and `perfbench W traced`: BENCHMARK.json's command on each
  workload W in PERFBENCH (seeds from SEED on, `--seconds 30`), untraced
  and traced, with the share of failed queries as `fail_ratio`. `kh`
  never loads `leftfact.modular`, so `kh-sweep` and `kh-rerun` should not
  move.

Pairs alternate which tree goes first. Each row gives both sides' medians
and quartiles and how many pairs the change won. --cpu pins this process
and its children to one core.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
from pathlib import Path

from bench_factor_qs import VARIANT_P_MAX, VARIANT_PAIRS, load, variant_pass
from bench_numpy_free_kh import pairs, perfbench, summarize

SEED = 301
# workload -> (untraced pairs, traced pairs)
PERFBENCH = {"oracles": (10, 3), "kh-sweep": (5, 2), "kh-rerun": (5, 2)}


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
    report: dict = {
        "host": {"nproc": os.cpu_count(), "pinned_cpu": args.cpu,
                 "python": platform.python_version(), "machine": platform.machine()},
        "trees": {side: tree.name for side, tree in trees.items()},
        "layer": "variant residues (modular.variant_s)",
        "options": {"variant_p_max": VARIANT_P_MAX, "variant_pairs": VARIANT_PAIRS,
                    "perfbench_pairs_untraced_traced": PERFBENCH, "seed": SEED},
        "rows": {},
    }

    def record(name: str, row: dict) -> None:
        report["rows"][name] = row
        print(name, json.dumps(row), flush=True)

    modular = {side: load(tree, f"leftfact_{side}", "modular")[0] for side, tree in trees.items()}
    record(f"variants to {VARIANT_P_MAX}", variant_pass(modular))
    for workload, counts in PERFBENCH.items():
        for trace, count in enumerate(counts):
            rows = pairs(count, lambda side, i, w=workload, t=trace:
                         perfbench(trees[side], w, SEED + i, t))
            record(f"perfbench {workload}" + (" traced" if trace else ""), summarize(rows))
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
