#!/usr/bin/env python3
"""Time the factoring of K(2..40), the quadratic sieve by size of
cofactor, the KH-variant residues, K(z) over the oracle plan and the
perfbench workloads on two source trees, and write the comparison as JSON.

    python3 tools/bench_factor_qs.py PARENT CHANGE --out BENCH.json [--cpu N]

PARENT and CHANGE are checkouts, each with src/, perfbench/ and
BENCHMARK.json. The layers measured are the factoring of K(n), primality,
the variant residues and the quadrature of K(z). perfbench has no span inside factoring, so the
`sieve by size` rows are where the sieve is told apart from the rest.

- `factorize K(2..40) fresh`: FRESH_PAIRS pairs of a new interpreter with
  PYTHONPATH=<tree>/src that imports the package and factors K(2), ...,
  K(40), taking its wall time and its peak RSS (os.wait4). This is the
  only row that sees what importing sympy costs, so it runs first, before
  this process imports sympy or numpy: Linux starts a child's peak RSS at
  its parent's. Each child reports whether it loaded sympy, and both
  trees' children must print the same factorizations.
- `factorize K(2..40)`: both trees' leftfact packages are loaded into this
  one process (under the names leftfact_parent and leftfact_change) and
  factor K(2), ..., K(40) in FACTOR_PAIRS pairs that alternate which tree
  goes first. sympy's factor_cache, which would hand a later run the
  factors an earlier one found, is cleared before every run. Each run also
  counts the sympy.factorint calls and their time.
- `sieve by size`: both trees' _qs_divisor on seeded products of two
  primes of SIEVE_DIGITS digits, balanced (two halves) and unbalanced (a
  prime of UNBALANCED_DIGITS digits times the rest), in SIEVE_REPEATS
  pairs each; every run must return one of the two primes.
- `variants to VARIANT_P_MAX`: both trees' kh_equivalent_residue for the
  six variants of every prime from 3 to VARIANT_P_MAX, the pass `oracles`
  makes, in VARIANT_PAIRS pairs; the values must agree.
- `k_continued over the oracle plan`: both trees' k_continued at z and
  z + 1 for every pair of perfbench's `oracles.make_plan(SEED)`, the calls
  `oracles` makes, in KZ_PAIRS pairs, each run with the quadrature's caches
  cleared as in a fresh pass. Both trees' values must agree within
  KZ_RTOL relative.
- `perfbench oracles`: OBENCH_PAIRS pairs of BENCHMARK.json's command on
  the `oracles` workload (seeds from SEED on, `--seconds 30`), then
  TRACE_PAIRS traced pairs for the factorint, modular, exact and analytic
  layers.
- `perfbench kh-sweep` and `perfbench kh-rerun`: KH_PAIRS pairs each. `kh`
  loads neither factorint nor sympy, so these should not move.

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

from bench_numpy_free_kh import SEED, pairs, perfbench, run, summarize

LAYERS_MOVED = ("factoring of K(n)", "primality", "quadrature")
FACTOR_NS = range(2, 41)
FRESH_PAIRS = 10
FRESH_CODE = (
    "import sys\n"
    "from leftfact import exact, factorint\n"
    f"got = [factorint.factorize(exact.left_factorial(n)).factors for n in {FACTOR_NS}]\n"
    "print('sympy' in sys.modules, got)\n"
)
FACTOR_PAIRS = 6
SIEVE_DIGITS = (26, 32, 38, 44, 50)
UNBALANCED_DIGITS = 11
SIEVE_REPEATS = 3
OBENCH_PAIRS = 10
TRACE_PAIRS = 2
KH_PAIRS = 5
VARIANT_P_MAX = 2000
VARIANT_PAIRS = 6
KZ_PAIRS = 10
KZ_RTOL = 2e-15
LAYERS = ("factorint.factorize_s", "factorint.sympy_s", "factorint.sympy_escalations",
          "factorint.own_s", "modular.variant_s", "modular.variant_calls",
          "exact.identity_s", "analytic.k_continued_s", "analytic.k_continued_p50_ms")
VALUES = [sum(math.factorial(i) for i in range(n)) for n in FACTOR_NS]


def fresh_factoring(trees: dict[str, Path]) -> dict:
    """Wall time and peak RSS of FRESH_CODE in a new interpreter per run,
    with which side loaded sympy."""
    outputs: dict[str, str] = {}

    def probe(side: str, _i: int) -> dict[str, float]:
        wall, rss, out = run(trees[side], [sys.executable, "-c", FRESH_CODE], trees[side])
        if outputs.setdefault(side, out) != out:
            raise SystemExit(f"{side}: factorizations changed between runs")
        return {"wall_s": wall, "peak_rss_mb": rss}

    row = summarize(pairs(FRESH_PAIRS, probe))
    loaded = {side: out.split(" ", 1) for side, out in outputs.items()}
    if loaded["parent"][1] != loaded["change"][1]:
        raise SystemExit("the trees factor K(2..40) differently in fresh processes")
    return {"sympy_loaded": {side: flag == "True" for side, (flag, _) in loaded.items()}, **row}


def load(tree: Path, alias: str, *names: str) -> list:
    """tree's leftfact submodules names, imported as alias.name."""
    init = tree / "src" / "leftfact" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        alias, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[alias] = package
    spec.loader.exec_module(package)
    return [importlib.import_module(f"{alias}.{name}") for name in names]


class Factoring:
    """factorize(K(n)) for every n in FACTOR_NS on one tree, timed, with
    sympy.factorint counted."""

    def __init__(self) -> None:
        import sympy

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
        from sympy.ntheory import factor_cache

        factor_cache.cache_clear()
        self.calls.clear()
        t0 = time.perf_counter()
        got = [module.factorize(v).factors for v in VALUES]
        wall = time.perf_counter() - t0
        if self.results.setdefault(side, got) != got:
            raise SystemExit(f"{side}: factorizations changed between runs")
        return {"factor_s": wall, "sympy_s": sum(self.calls),
                "sympy_escalations": len(self.calls)}


def sieve_by_size(modules: dict) -> dict:
    """Seconds per _qs_divisor call on seeded products of two primes, by
    digits and balance, on both trees, with the parent's median over the
    change's."""
    import sympy

    rng = random.Random(SEED)
    out = {}
    for digits in SIEVE_DIGITS:
        for kind, small in (("balanced", digits // 2), ("unbalanced", UNBALANCED_DIGITS)):
            primes = [int(sympy.nextprime(rng.randrange(10 ** (d - 1), 10**d)))
                      for d in (small, digits - small)]
            n = primes[0] * primes[1]

            def probe(side: str, _i: int, n=n, primes=primes) -> dict[str, float]:
                t0 = time.perf_counter()
                d = modules[side]._qs_divisor(n)
                wall = time.perf_counter() - t0
                if d not in primes:
                    raise SystemExit(f"{side}: the sieve gave {d} for {primes}")
                return {"qs_s": wall}

            row = summarize(pairs(SIEVE_REPEATS, probe))["qs_s"]
            row["parent_over_change"] = round(
                row["parent_q1_median_q3"][1] / row["change_q1_median_q3"][1], 3)
            out[f"{len(str(n))} digits {kind}"] = row
    return out


def variant_pass(modules: dict) -> dict:
    """Seconds for the six variants of every prime from 3 to VARIANT_P_MAX,
    on both trees, whose values must agree."""
    import sympy

    primes = [int(p) for p in sympy.primerange(3, VARIANT_P_MAX + 1)]
    values: dict[str, list] = {}

    def probe(side: str, _i: int) -> dict[str, float]:
        module = modules[side]
        if hasattr(module, "_tables"):  # start without the last prime's tables
            module._tables.cache_clear()
        t0 = time.perf_counter()
        got = [[module.kh_equivalent_residue(v, p) for v in module.VARIANTS] for p in primes]
        wall = time.perf_counter() - t0
        if values.setdefault(side, got) != got:
            raise SystemExit(f"{side}: variant values changed between runs")
        return {"variant_s": wall}

    rows = pairs(VARIANT_PAIRS, probe)
    if values["parent"] != values["change"]:
        raise SystemExit("the trees' variant values differ")
    return {"primes": len(primes), **summarize(rows)}


def k_continued_pass(modules: dict, perfbench_dir: Path) -> dict:
    """Seconds for k_continued at z and z + 1 over oracles.make_plan(SEED)
    on both trees, from cold caches; the values must agree within KZ_RTOL
    relative."""
    sys.path.insert(0, str(perfbench_dir))
    import oracles

    points = [complex(re, im) for re, im in oracles.make_plan(SEED)["points"]]
    values: dict[str, list] = {}

    def probe(side: str, _i: int) -> dict[str, float]:
        module = modules[side]
        module._k_integral_cached.cache_clear()
        module._panel_nodes.cache_clear()
        t0 = time.perf_counter()
        got = [module.k_continued(w) for z in points for w in (z, z + 1)]
        wall = time.perf_counter() - t0
        if values.setdefault(side, got) != got:
            raise SystemExit(f"{side}: k_continued values changed between runs")
        return {"k_continued_s": wall}

    rows = pairs(KZ_PAIRS, probe)
    worst = max(abs(a - b) / abs(a) for a, b in zip(values["parent"], values["change"]))
    if worst > KZ_RTOL:
        raise SystemExit(f"the trees' k_continued values differ by {worst:.3e} relative")
    return {"calls": len(values["change"]), "max_relative_difference": worst, **summarize(rows)}


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
    fresh = fresh_factoring(trees)
    import sympy

    loaded = {side: load(tree, f"leftfact_{side}", "factorint", "modular", "analytic")
              for side, tree in trees.items()}
    factorint = {side: mods[0] for side, mods in loaded.items()}
    modular = {side: mods[1] for side, mods in loaded.items()}
    analytic = {side: mods[2] for side, mods in loaded.items()}
    report: dict = {
        "host": {"nproc": os.cpu_count(), "pinned_cpu": args.cpu,
                 "python": platform.python_version(), "sympy": sympy.__version__,
                 "machine": platform.machine()},
        "trees": {side: tree.name for side, tree in trees.items()},
        "layers": LAYERS_MOVED,
        "options": {"fresh_pairs": FRESH_PAIRS, "factor_pairs": FACTOR_PAIRS, "sieve_digits": SIEVE_DIGITS,
                    "unbalanced_digits": UNBALANCED_DIGITS, "sieve_repeats": SIEVE_REPEATS,
                    "variant_p_max": VARIANT_P_MAX, "variant_pairs": VARIANT_PAIRS,
                    "kz_pairs": KZ_PAIRS, "kz_rtol": KZ_RTOL,
                    "oracles_pairs": OBENCH_PAIRS, "trace_pairs": TRACE_PAIRS,
                    "kh_pairs": KH_PAIRS, "seed": SEED},
        "traced_layers": LAYERS,
        "rows": {},
    }

    def record(name: str, row: dict) -> None:
        report["rows"][name] = row
        print(name, json.dumps(row), flush=True)

    record("factorize K(2..40) fresh", fresh)
    factoring = Factoring()
    rows = pairs(FACTOR_PAIRS, lambda side, _i: factoring.run(factorint[side], side))
    if factoring.results["parent"] != factoring.results["change"]:
        raise SystemExit("the trees factor K(2..40) differently")
    record("factorize K(2..40)", summarize(rows))

    record("sieve by size", sieve_by_size(factorint))
    record(f"variants to {VARIANT_P_MAX}", variant_pass(modular))
    record("k_continued over the oracle plan", k_continued_pass(analytic, trees["change"] / "perfbench"))

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
