#!/usr/bin/env python3
"""Time the identity grid, `identity all`, the factoring of K(2..40), the
quadratic sieve and the perfbench workloads on two source trees, and write
the comparison as JSON.

    python3 tools/bench_identity_memo.py PARENT CHANGE --out BENCH.json [--cpu N]

PARENT and CHANGE are checkouts, each with src/, perfbench/ and
BENCHMARK.json. The layers measured are the identity suite (perfbench's
`exact.identity_s`) and the factoring of K(n) (`factorint.factorize_s`).

- `identity all --m 8 --n 1500 fresh`: PAIRS pairs of `python -m
  leftfact.cli identity all --m 8 --n 1500` in a new interpreter, its wall
  time and peak RSS; both trees must print the same lines. It runs before
  this process imports numpy: Linux starts a child's peak RSS at its
  parent's.
- `identity grid`: both trees' leftfact.exact loaded into this process
  evaluate criterion 06's grid (perfbench's `oracles.identity_grid()`) in
  PAIRS pairs. A memo on weighted_sum is cleared before every run, as in a
  fresh process; both trees' sides must agree.
- `factorize K(2..40)` and `sieve by size`: bench_factor_qs's rows, in
  PAIRS and bench_factor_qs.SIEVE_REPEATS pairs.
- `perfbench W`: BENCHMARK.json's command on each workload W (seeds from
  SEED on, `--seconds 30`) in PAIRS pairs, and `perfbench oracles traced`
  in TRACE_PAIRS traced pairs for LAYERS. `kh` evaluates no identity and
  factors nothing, so `kh-sweep` and `kh-rerun` should not move.

Pairs alternate which tree goes first. Each row gives both sides' medians
and quartiles and how many pairs the change won. --cpu pins this process
and its children to one core.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

from bench_factor_qs import Factoring, load, sieve_by_size
from bench_numpy_free_kh import pairs, perfbench, run, summarize

PAIRS = 10
TRACE_PAIRS = 3
SEED = 331
WORKLOADS = ("oracles", "kh-sweep", "kh-rerun")
# n = 2000 would exit 1: its sums pass the int-to-str digit limit (ROADMAP item 10)
IDENTITY_ALL = ["-m", "leftfact.cli", "identity", "all", "--m", "8", "--n", "1500"]
LAYERS = ("exact.identity_s", "exact.identity_calls", "factorint.factorize_s",
          "factorint.factorize_calls", "modular.variant_s", "analytic.k_continued_s")


def identity_all(trees: dict[str, Path]) -> dict:
    """Wall time and peak RSS of IDENTITY_ALL in a new interpreter per run."""
    outputs: dict[str, str] = {}

    def probe(side: str, _i: int) -> dict[str, float]:
        wall, rss, out = run(trees[side], [sys.executable, *IDENTITY_ALL], trees[side])
        if outputs.setdefault(side, out) != out:
            raise SystemExit(f"{side}: identity all printed different lines between runs")
        return {"wall_s": wall, "peak_rss_mb": rss}

    row = summarize(pairs(PAIRS, probe))
    if outputs["parent"] != outputs["change"]:
        raise SystemExit("the trees print different lines for identity all")
    return row


def identity_grid(modules: dict, perfbench_dir: Path) -> dict:
    """Seconds for criterion 06's grid on both trees, with the memo (if
    any) cleared first; the sides must agree."""
    sys.path.insert(0, str(perfbench_dir))
    import oracles

    grid = [(ident, {"n": n} if m is None else {"m": m, "n": n})
            for ident, m, n in oracles.identity_grid()]
    values: dict[str, list] = {}

    def probe(side: str, _i: int) -> dict[str, float]:
        exact = modules[side]
        if hasattr(exact.weighted_sum, "cache_clear"):
            exact.weighted_sum.cache_clear()
        t0 = time.perf_counter()
        got = [exact.evaluate_identity(ident, **params) for ident, params in grid]
        wall = time.perf_counter() - t0
        if values.setdefault(side, got) != got:
            raise SystemExit(f"{side}: identity values changed between runs")
        return {"grid_s": wall}

    rows = pairs(PAIRS, probe)
    if values["parent"] != values["change"]:
        raise SystemExit("the trees' identity sides differ")
    if any(lhs != rhs for lhs, rhs in values["change"]):
        raise SystemExit("an identity instance fails")
    return {"evaluations": len(grid), **summarize(rows)}


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
        "layers": ("identity suite (exact.identity_s)", "factoring of K(n) (factorint.factorize_s)"),
        "options": {"pairs": PAIRS, "trace_pairs": TRACE_PAIRS, "seed": SEED,
                    "identity_all": IDENTITY_ALL[2:]},
        "traced_layers": LAYERS,
        "rows": {},
    }

    def record(name: str, row: dict) -> None:
        report["rows"][name] = row
        print(name, json.dumps(row), flush=True)

    record("identity all --m 8 --n 1500 fresh", identity_all(trees))
    loaded = {side: load(tree, f"leftfact_{side}", "exact", "factorint")
              for side, tree in trees.items()}
    exact = {side: mods[0] for side, mods in loaded.items()}
    factorint = {side: mods[1] for side, mods in loaded.items()}
    record("identity grid", identity_grid(exact, trees["change"] / "perfbench"))

    factoring = Factoring()
    rows = pairs(PAIRS, lambda side, _i: factoring.run(factorint[side], side))
    if factoring.results["parent"] != factoring.results["change"]:
        raise SystemExit("the trees factor K(2..40) differently")
    record("factorize K(2..40)", summarize(rows))
    record("sieve by size", sieve_by_size(factorint))

    for workload in WORKLOADS:
        rows = pairs(PAIRS, lambda side, i, w=workload: perfbench(trees[side], w, SEED + i, 0))
        record(f"perfbench {workload}", summarize(rows))
    rows = pairs(TRACE_PAIRS, lambda side, i: perfbench(trees[side], "oracles", SEED + i, 1))
    rows = [{s: {k: r[s][k] for k in LAYERS} for s in r} for r in rows]
    record("perfbench oracles traced", summarize(rows))
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
