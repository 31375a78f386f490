"""The numpy step-by-step KH kernel, kept as a test-side reference.

This is the loop `leftfact.sweeps.batch_residues` ran before it became a
remainder tree: one vectorized step per index i for every live prime, so it
costs O(x^2 / log x) for all odd primes up to x. Its only use is as an
independent oracle for the tree in the tests.

Run as a script, it prints the digest (residue_digest) of every odd prime up
to X under each recurrence, with its time:

    PYTHONPATH=src python tests/stepper.py X
"""

from __future__ import annotations

import hashlib
import sys
import time

import numpy as np

from leftfact.sweeps import MAX_SWEEP_PRIME

_KERNEL_METHODS = ("forward_v", "forward_t", "backward_s")


def stepped_residues(primes: np.ndarray, method: str = "forward_v") -> np.ndarray:
    """rest(!q, q) for an ascending array of odd primes, vectorized.

    All three recurrences walk one shared index i while peeling finished
    primes off the sorted front (forward) or admitting them at the back
    (backward), so each prime sees exactly its own recurrence steps.
    """
    if method not in _KERNEL_METHODS:
        raise ValueError(f"method must be one of {_KERNEL_METHODS}, got {method!r}")
    q = np.ascontiguousarray(primes, dtype=np.int64)
    if q.size == 0:
        return np.zeros(0, dtype=np.int64)
    if q[0] < 3 or int(q.max()) > MAX_SWEEP_PRIME:
        raise ValueError(f"primes must lie in [3, {MAX_SWEEP_PRIME}]")
    if np.any(np.diff(q) <= 0):
        raise ValueError("primes must be strictly ascending")
    out = np.zeros(q.size, dtype=np.int64)
    top = int(q[-1])

    if method == "backward_s":
        # s_{q-1} = 0; s_i = 1 + i*s_{i+1} for i = q-2 .. 1; result s_1.
        # Prime q is active once i <= q-2.
        start = q.size
        for i in range(top - 2, 0, -1):
            while start > 0 and q[start - 1] >= i + 2:
                start -= 1
            vv = out[start:]
            np.multiply(vv, i, out=vv)
            np.add(vv, 1, out=vv)
            np.remainder(vv, q[start:], out=vv)
        return out

    # forward_v: v_1 = 0; v_i = 1 - i*v_{i-1};      result v_{q-1}
    # forward_t: t_1 = 0; t_i = (-1)^i + i*t_{i-1}; result t_{q-1}
    lo = 0  # primes q[:lo] are finished (q - 1 < i)
    for i in range(2, top):
        while lo < q.size and q[lo] <= i:
            lo += 1
        vv = out[lo:]
        if method == "forward_v":
            np.multiply(vv, -i, out=vv)
            np.add(vv, 1, out=vv)
        else:
            np.multiply(vv, i, out=vv)
            np.add(vv, 1 if i % 2 == 0 else -1, out=vv)
        np.remainder(vv, q[lo:], out=vv)
    return out


def residue_digest(primes, residues) -> str:
    """sha256 of the lines "p r" for each prime p and its residue r."""
    h = hashlib.sha256()
    for p, r in zip(np.asarray(primes).tolist(), np.asarray(residues).tolist()):
        h.update(f"{p} {r}\n".encode())
    return h.hexdigest()


if __name__ == "__main__":
    from leftfact.primes import build_sieve

    x = int(sys.argv[1])
    primes = build_sieve(x).primes_up_to(x)[1:]
    for method in _KERNEL_METHODS:
        t0 = time.perf_counter()
        digest = residue_digest(primes, stepped_residues(primes, method))
        dt = time.perf_counter() - t0
        print(f"{method} {primes.size} primes <= {x}: {digest} ({dt:.0f} s)", flush=True)
