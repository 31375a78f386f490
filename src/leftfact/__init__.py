"""Left factorial arithmetic.

K(n) = !n = 0! + 1! + ... + (n-1)!, its summation identities, the prime
divisibility question gcd(!p, p!) = 2, the analytic extension K(z) with its
poles and closed form, and a family of prime-square sequence problems.
Exact integer work never round-trips through floats; float work always
carries an error estimate.

The public names load on first use: `import leftfact` imports no
submodule, and `leftfact.k_continued` (or `from leftfact import
k_continued`) imports leftfact.analytic then. So the `kh` command line
never loads the analytic or the factoring code, nor leftfact.modular,
dataclasses or fractions.
"""

from importlib import import_module

__version__ = "1.0.0"

# every public name, with the submodule that defines it, in __all__'s order
_NAMES = {
    name: module
    for module, names in (
        ("analytic", (
            "BridgeReport PoleError PoleInfo QuadratureConfig QuadratureError "
            "QuadratureResult asymptotic_ratio congruence_bridge euler_constant "
            "gamma k_continued k_integral k_integral_detailed k_slavic "
            "pole_residue slavic_constant_block"
        )),
        ("exact", (
            "IDENTITY_IDS StirlingTable alternating_factorial "
            "evaluate_identity gcd_pair iter_left_factorials left_factorial "
            "partial_sum_gcd pole_residue_fraction stirling_table weighted_sum"
        )),
        ("factorint", "Factorization factorize"),
        ("harness", (
            "CheckpointCorrupt CheckpointError CheckpointMismatch FileSink "
            "LedgerWriter canonical_lines write_checkpoint"
        )),
        ("modular", (
            "MAX_MODULUS VARIANTS CostModel ResidueResult VerificationRecord "
            "cost_model derangement_number floor_factorial_over_e "
            "kh_equivalent_residue residue_backward_s residue_direct "
            "residue_forward_t residue_forward_v residue_mod_p_squared"
        )),
        ("primes", (
            "GoodPrimeResult PrimeSieve SignStatistics TripletReport build_sieve "
            "count_pair_progressions good_prime_check is_probable_prime p_set "
            "pi_sequence s_sequence sign_statistics sum_inequality_scan"
        )),
        ("sweeps", (
            "CHUNK_PRIMES SPAN_PRIMES MAX_SWEEP_PRIME KhChunk "
            "a_set_scan alternating_divisor_hits batch_residues "
            "h4_witness_search kh2_scan kh_chunks kh_sweep residue_summatory"
        )),
    )
    for name in names.split()
}

__all__ = list(_NAMES)


def __getattr__(name: str):
    if name in _NAMES:
        value = getattr(import_module(f".{_NAMES[name]}", __name__), name)
    elif name in _NAMES.values():
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_NAMES})
