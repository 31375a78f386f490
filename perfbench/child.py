"""One repetition of a workload in a fresh process, started by run.py.

    child.py oracles --plan P --out O
        one untraced pass of the oracle query set; answers go to O
    child.py oracles --plan P --out O --trace-out T --launched-ns N
        the same pass with every layer traced; spans go to T
    child.py kh --trace-out T --launched-ns N -- <leftfact kh arguments>
        the real CLI entry point, in-process, with every layer traced

The untraced kh repetition does not come here: it runs `python -m leftfact.cli`.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("kh", "oracles"))
    ap.add_argument("--plan")
    ap.add_argument("--out")
    ap.add_argument("--trace-out")
    ap.add_argument("--launched-ns", type=int, default=0,
                    help="the parent's perf_counter_ns() just before it started this process")
    argv = sys.argv[1:]
    cut = argv.index("--") if "--" in argv else len(argv)
    args = ap.parse_args(argv[:cut])
    cli_args = argv[cut + 1:]
    if args.mode == "kh" and not args.trace_out:
        ap.error("kh runs here only traced")

    if not args.trace_out:
        import oracles

        answers = oracles.run_pass(json.loads(Path(args.plan).read_text(encoding="utf-8")))
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(answers, fh)
        return 0

    from tracer import Tracer, install_cli, install_library

    tracer = Tracer()
    if args.launched_ns:
        # perf_counter is CLOCK_MONOTONIC on Linux, one clock for all processes
        tracer.record("python.start", args.launched_ns, time.perf_counter_ns())

    if args.mode == "kh":
        idx = tracer.begin("cli.import")
        import leftfact.cli

        tracer.end(idx)
        install_cli(tracer)
        idx = tracer.begin("cli.main")
        rc = leftfact.cli.main(cli_args)
        tracer.end(idx)
        tracer.dump(args.trace_out)
        return rc

    import oracles

    plan = json.loads(Path(args.plan).read_text(encoding="utf-8"))
    idx = tracer.begin("oracles.import")
    import leftfact

    tracer.end(idx)
    install_library(tracer)
    idx = tracer.begin("oracles.pass")
    answers = oracles.run_pass(plan)
    tracer.end(idx)
    info = leftfact.analytic._k_integral_cached.cache_info()
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(answers, fh)
    tracer.dump(args.trace_out, integral_cache_hits=info.hits, integral_cache_misses=info.misses)
    return 0


if __name__ == "__main__":
    sys.exit(main())
