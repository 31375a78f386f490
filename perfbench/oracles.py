"""The `oracles` query set: criteria 01, 05, 06 and 08 replayed through the library.

`make_plan` builds the inputs (only the analytic points depend on the seed)
and the references, `run_pass` sends every query to the library and returns
the raw answers, and `check_pass` judges those answers. The pass and the
checks run in separate child processes, so only the pass is timed.
"""

from __future__ import annotations

import math
import random

FACTOR_NS = range(2, 41)
# criterion 01: published factorizations of K(n)
FACTOR_TABLE = {
    7: [[2, 1], [19, 1], [23, 1]],
    12: [[2, 1], [19, 1], [31, 1], [37313, 1]],
    16: [[2, 1], [19, 1], [41, 1], [491, 1], [1832213, 1]],
    25: [[2, 1], [41, 1], [103, 1], [2875688099, 1], [26658285041, 1]],
}
GCD_NS = range(3, 201)
VARIANT_P_MAX = 2000
KH2_RANGE, KH2_N_MAX = (2, 1227), 1300
ANALYTIC_PAIRS = 500
ANALYTIC_TOLERANCE = 1e-8


def identity_grid() -> list[tuple[str, int | None, int]]:
    """Criterion 06's grid as (identity, m, n); m is None where unused."""
    grid: list[tuple[str, int | None, int]] = [("I221", None, n) for n in range(1, 61)]
    grid += [(ident, None, n) for ident in ("I222", "I223") for n in range(2, 61)]
    grid += [
        (ident, m, n)
        for ident in ("I224", "I225", "I226", "IDUAL")
        for m in range(0, 9)
        for n in range(0, 61)
    ]
    return grid


def reference_residues(p_max: int) -> dict[int, int]:
    """K(p) mod p for every odd prime p <= p_max, by trial division and the
    defining sum; no library code is involved."""
    out = {}
    for p in range(3, p_max + 1, 2):
        if any(p % d == 0 for d in range(3, math.isqrt(p) + 1, 2)):
            continue
        k, f = 0, 1
        for i in range(p):
            k = (k + f) % p
            f = f * (i + 1) % p
        out[p] = k
    return out


def make_plan(seed: int) -> dict:
    """The inputs of one pass and the residues to check it against.

    Only the analytic points come from the seed: criterion 08's sampling
    box, with points within 0.1 of 0, -1, ..., -10 redrawn so that neither
    z nor z + 1 sits on a pole of K.
    """
    rng = random.Random(seed)
    points: list[list[float]] = []
    while len(points) < ANALYTIC_PAIRS:
        z = complex(rng.uniform(-9, 9), rng.uniform(-4.5, 4.5))
        if min(abs(z + k) for k in range(0, 11)) < 0.1:
            continue
        points.append([z.real, z.imag])
    residues = {str(p): r for p, r in reference_residues(VARIANT_P_MAX).items()}
    return {"seed": seed, "points": points, "residues": residues}


def query_count(plan: dict) -> int:
    return (
        len(FACTOR_NS)
        + len(identity_grid())
        + len(GCD_NS)
        + len(plan["residues"])
        + 1  # the kh2 scan
        + len(plan["points"])
    )


def run_pass(plan: dict) -> dict:
    """Send every query of the plan to the library; return the raw answers.

    Library functions are looked up as module attributes at call time, so a
    tracer that rebinds them sees every call.
    """
    from leftfact import analytic, exact, factorint, modular, primes, sweeps

    factors = {}
    for n in FACTOR_NS:
        f = factorint.factorize(exact.left_factorial(n))
        factors[n] = {"factors": [list(pe) for pe in f.factors], "complete": f.complete}

    identity_mismatches = []
    for ident, m, n in identity_grid():
        params = {"n": n} if m is None else {"m": m, "n": n}
        lhs, rhs = exact.evaluate_identity(ident, **params)
        if lhs != rhs:
            identity_mismatches.append([ident, m, n])

    gcds = [exact.partial_sum_gcd(n) for n in GCD_NS]

    variants = {}
    for p in primes.build_sieve(VARIANT_P_MAX).primes_up_to(VARIANT_P_MAX).tolist():
        if p < 3:
            continue
        row = {v: modular.kh_equivalent_residue(v, p) for v in modular.VARIANTS}
        row["direct"] = modular.residue_direct(p, p).residue
        variants[p] = row

    kh2 = [list(hit) for hit in sweeps.kh2_scan(KH2_RANGE, KH2_N_MAX)]

    values = []
    for re, im in plan["points"]:
        z = complex(re, im)
        a, b = analytic.k_continued(z), analytic.k_continued(z + 1)
        values.append([a.real, a.imag, b.real, b.imag])

    return {
        "factors": factors,
        "identity_mismatches": identity_mismatches,
        "gcds": gcds,
        "variants": variants,
        "kh2": kh2,
        "analytic": values,
    }


def check_pass(plan: dict, answers: dict) -> tuple[int, list[str]]:
    """(queries attempted, one message per failed query) for one pass.

    Plan and answers arrive through JSON, so integer dict keys are strings.
    """
    import mpmath
    import sympy

    failures: list[str] = []

    factors = answers["factors"]
    for n in FACTOR_NS:
        got = factors.get(str(n))
        kn = sum(math.factorial(i) for i in range(n))
        ok = got is not None and got["complete"]
        if ok:
            pairs = got["factors"]
            ok = (
                all(a[0] < b[0] for a, b in zip(pairs, pairs[1:]))
                and all(sympy.isprime(p) for p, _ in pairs)
                and math.prod(p**e for p, e in pairs) == kn
                # criterion 05: !3 = 2^2 is the only square divisor for n <= 40
                and all(e == 1 or (p, n) == (2, 3) for p, e in pairs)
                and (n not in FACTOR_TABLE or pairs == FACTOR_TABLE[n])
            )
        if not ok:
            failures.append(f"factorize(K({n})) = {got}")

    failures += [f"identity {m} lhs != rhs" for m in answers["identity_mismatches"]]

    failures += [
        f"partial_sum_gcd({n}) = {g}"
        for n, g in zip(GCD_NS, answers["gcds"])
        if g != 2
    ]
    if len(answers["gcds"]) != len(GCD_NS):
        failures.append(f"{len(answers['gcds'])} partial-sum gcds, want {len(GCD_NS)}")

    variants = answers["variants"]
    for key, r in plan["residues"].items():
        p, row = int(key), variants.get(key)
        # relations stated in kh_equivalent_residue's docstring
        want = {
            "T21_2": r, "T21_4": r, "T21_5": -r % p, "T21_6": -r % p,
            "STANK": -r % p, "DERANGE": r, "direct": r,
        }
        if row != want:
            failures.append(f"variant residues at p = {p}: {row}, want {want}")
    failures += [f"unexpected prime {p} in variants" for p in variants if p not in plan["residues"]]

    if answers["kh2"] != [[2, 3]]:
        failures.append(f"kh2_scan{KH2_RANGE}, {KH2_N_MAX} = {answers['kh2']}")

    for (re, im), (ar, ai, br, bi) in zip(plan["points"], answers["analytic"]):
        z = mpmath.mpc(re, im)
        residual = abs(mpmath.mpc(ar, ai) - mpmath.mpc(br, bi) + mpmath.gamma(z + 1))
        if not residual < ANALYTIC_TOLERANCE:
            failures.append(f"functional equation at z = {re}+{im}j: residual {residual}")
    if len(answers["analytic"]) != len(plan["points"]):
        failures.append(f"{len(answers['analytic'])} analytic pairs, want {len(plan['points'])}")

    return query_count(plan), failures
