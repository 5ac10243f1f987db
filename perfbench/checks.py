"""Independent checks of the library's outputs.

These use no signedfam code: they re-derive every property from the
JSON the library wrote, with their own arithmetic.  Each check returns
a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import json
from functools import reduce
from math import comb
from operator import or_

from inputs import universe


def _signed_set_problem(s, n: int, k: int, r: int) -> str | None:
    if not isinstance(s, (list, tuple)) or len(s) != k:
        return f"{s} does not have {k} pairs"
    last = 0
    for pair in s:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            return f"{s} holds a malformed pair"
        x, a = pair
        if type(x) is not int or type(a) is not int:
            return f"{s} holds a non-integer pair"
        if not last < x <= n:
            return f"{s} is not strictly element-sorted inside [1, {n}]"
        if not 1 <= a <= r:
            return f"{s} has a sign outside [1, {r}]"
        last = x
    return None


def _as_set(s) -> tuple:
    return tuple((x, a) for x, a in s)


def _is_intersecting(members: list[tuple]) -> bool:
    """Every two members share a pair: OR of slot masks covers the family."""
    holders: dict[tuple, int] = {}
    for i, m in enumerate(members):
        for pair in m:
            holders[pair] = holders.get(pair, 0) | (1 << i)
    full = (1 << len(members)) - 1
    return all(reduce(or_, (holders[p] for p in m), 0) == full for m in members)


def check_witness(result: dict, n: int, k: int, r: int) -> list[str]:
    """An exact-search answer: exhausted, formula-sized, valid and intersecting."""
    if not isinstance(result, dict):
        return ["search output is not a JSON object"]
    problems = []
    bound = r ** (k - 1) * comb(n - 1, k - 1)
    if result.get("exhausted") is not True:
        problems.append("search did not exhaust its tree")
    witness = result.get("witness")
    if not isinstance(witness, list):
        return problems + ["witness is not a list"]
    for s in witness:
        bad = _signed_set_problem(s, n, k, r)
        if bad:
            return problems + [f"witness member {bad}"]
    members = [_as_set(s) for s in witness]
    if len(set(members)) != len(members):
        problems.append("witness repeats a member")
    if len(members) != bound or result.get("max_size") != bound:
        problems.append(
            f"witness size {len(members)}, max_size {result.get('max_size')}, formula {bound}"
        )
    if not _is_intersecting(members):
        problems.append("witness has two members sharing no pair")
    return problems


def closed_neighbourhoods(n: int, k: int, r: int) -> list[int]:
    """For each universe vertex, the mask of vertices sharing a pair with it."""
    verts = universe(n, k, r)
    holders: dict[tuple, int] = {}
    for i, v in enumerate(verts):
        for pair in v:
            holders[pair] = holders.get(pair, 0) | (1 << i)
    return [reduce(or_, (holders[p] for p in v), 0) for v in verts]


def check_maximal_families(masks: list[int], n: int, k: int, r: int) -> list[str]:
    """Each family, as a mask over the sorted universe, is intersecting and maximal.

    The vertices adjacent to every member (closed neighbourhoods) contain
    the family iff it is intersecting, and equal it iff it is also maximal.
    """
    nbr = closed_neighbourhoods(n, k, r)
    problems = []
    if len(set(masks)) != len(masks):
        problems.append("a maximal family is listed twice")
    for idx, fam in enumerate(masks):
        if fam <= 0 or fam >> len(nbr):
            problems.append(f"family {idx} is empty or leaves the universe")
            continue
        common, rest = -1, fam
        while rest:
            low = rest & -rest
            common &= nbr[low.bit_length() - 1]
            rest ^= low
        if (common & fam) != fam:
            problems.append(f"family {idx} is not intersecting")
        elif common != fam:
            problems.append(f"family {idx} is not maximal")
        if len(problems) > 5:
            break
    return problems


def check_certificate(text: str, family, n: int, k: int, r: int) -> list[str]:
    """An injection certificate read back: total on the family, injective, into the star."""
    try:
        cert = json.loads(text)
        params = cert["params"]
        mapping = cert["map"]
        sources = [_as_set(e["from"]) for e in mapping]
        targets = [e["to"] for e in mapping]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"certificate does not read back: {exc!r}"]
    problems = []
    if params != {"n": n, "k": k, "r": r}:
        problems.append(f"certificate params {params} differ from ({n},{k},{r})")
    expected = set(family)
    if len(set(sources)) != len(sources) or set(sources) != expected:
        problems.append("certificate sources are not exactly the input family")
    for t in targets:
        bad = _signed_set_problem(t, n, k, r)
        if bad:
            return problems + [f"target {bad}"]
        if (1, 1) not in _as_set(t):
            return problems + [f"target {t} lacks (1, 1)"]
    if len({_as_set(t) for t in targets}) != len(targets):
        problems.append("two sources share a target")
    return problems
