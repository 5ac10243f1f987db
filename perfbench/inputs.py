"""Benchmark inputs, built by the benchmark's own code from the seed.

Nothing here imports signedfam: the library receives only what these
functions generate, and the checks compare its outputs against them.
A signed set is a tuple of (element, sign) pairs sorted by element.
"""

from __future__ import annotations

import hashlib
import itertools
import json

#: Exact-search ladder: (8,4,2) explores one node, so graph build and
#: relabel dominate; (9,3,3) and (9,4,2) spend their time in expansion.
ORACLE_LADDER = ((6, 3, 2), (7, 3, 3), (8, 4, 2), (8, 3, 3), (9, 3, 3), (9, 4, 2))
#: The only Bron-Kerbosch run; it sets the oracle's peak memory.
ENUMERATE_PARAMS = (6, 3, 2)
#: All 16,016 signed 5-sets over [16] that contain (2,1) and avoid 1.
INJECT_PARAMS = (16, 5, 2)
SAMPLE_PARAMS = ((8, 4, 2), (9, 3, 3), (9, 4, 2))
SAMPLE_SEEDS = 150


def universe(n: int, k: int, r: int) -> list[tuple]:
    """Every signed k-set over [n] with signs in [r], in sorted order."""
    signs = range(1, r + 1)
    return [
        tuple(zip(elems, vec))
        for elems in itertools.combinations(range(1, n + 1), k)
        for vec in itertools.product(signs, repeat=k)
    ]


def pinned_family(n: int, k: int, r: int) -> list[tuple]:
    """All signed k-sets containing (2, 1) and avoiding element 1, sorted.

    Every member avoids element 1, so the injection re-houses the whole
    family through the free class; the family is intersecting because
    every member carries (2, 1).
    """
    signs = range(1, r + 1)
    return [
        ((2, 1),) + tuple(zip(rest, vec))
        for rest in itertools.combinations(range(3, n + 1), k - 1)
        for vec in itertools.product(signs, repeat=k - 1)
    ]


def family_line(n: int, k: int, r: int, members) -> str:
    """One canonical family JSONL line, without the newline."""
    sets = [[[x, a] for x, a in m] for m in members]
    return json.dumps({"n": n, "k": k, "r": r, "sets": sets}, separators=(",", ":"))


def sample_seeds(seed: int, params: tuple, count: int) -> list[int]:
    """64-bit library seeds derived from the benchmark seed and the parameters."""
    n, k, r = params
    return [
        int.from_bytes(hashlib.sha256(f"{seed}/{n},{k},{r}/{i}".encode()).digest()[:8], "big")
        for i in range(count)
    ]


def params_key(params: tuple) -> str:
    return ",".join(map(str, params))
