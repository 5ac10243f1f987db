"""Shared builders, reference checks and the proof-step invariant checker."""

from __future__ import annotations

import functools
import itertools
import random

from signedfam import (
    Params,
    PlainFamily,
    SignedFamily,
    complements_in_tail,
    enumerate_maximal_intersecting,
    intersects,
    match_to_shadow,
    partition_family,
    shadow_to,
    shift_signs_family,
    signed_versions,
    strip_first,
    support,
    universe,
)


def pair_mask(sset, r: int) -> int:
    """Bit-packed encoding with one bit per (element, sign) slot.

    The reference encoding: two signed sets intersect iff their masks
    AND to a nonzero value.
    """
    m = 0
    for x, a in sset:
        m |= 1 << ((x - 1) * r + (a - 1))
    return m


def pairwise_intersecting(fam) -> bool:
    """The all-pairs reference for is_intersecting."""
    return all(intersects(a, b) for a, b in itertools.combinations(fam.members, 2))


#: (6,3,2) Hilton-Milner type: the (1,1) members meeting A, and A itself.
HM_A = ((2, 1), (3, 1), (4, 1))
HILTON_MILNER = SignedFamily(
    Params(6, 3, 2),
    tuple(
        m for m in universe(Params(6, 3, 2)).members if (1, 1) in m and intersects(m, HM_A)
    )
    + (HM_A,),
)

#: Families whose most common slot is held by two slots at once.
TIED_INTERSECTING = ((1, 1), (2, 1)), ((1, 1), (3, 1)), ((2, 1), (3, 1))
TIED_DISJOINT = ((1, 1), (2, 2)), ((1, 1), (3, 2)), ((2, 1), (4, 1)), ((4, 1), (5, 1))

RANDOM_PARAMS = [
    Params(*p)
    for p in [(3, 1, 1), (5, 1, 3), (4, 2, 1), (6, 3, 1)]
    + [(4, 2, 2), (5, 2, 3), (6, 3, 2), (7, 3, 2)]
]


@functools.cache
def intersecting_corpus() -> tuple[tuple[str, SignedFamily], ...]:
    """Labelled families on which is_intersecting meets its reference.

    Every maximal family at (4,2,2) and (5,2,2), each with one member
    removed and each with one outside member added; 300 seeded random
    subfamilies, half of them drawn around one random slot; the
    Hilton-Milner type family, which has no common slot; a lone empty
    member; and two families whose most common slot is tied.
    """
    out = []
    for p in (Params(4, 2, 2), Params(5, 2, 2)):
        pool = universe(p).members
        for i, fam in enumerate(enumerate_maximal_intersecting(p)):
            ms = fam.members
            out.append((f"{p} maximal {i}", fam))
            for j in range(len(ms)):
                less = SignedFamily(p, ms[:j] + ms[j + 1 :])
                out.append((f"{p} maximal {i} minus {j}", less))
            for extra in pool:
                if extra not in fam:
                    more = SignedFamily(p, ms + (extra,))
                    out.append((f"{p} maximal {i} plus {extra}", more))
    for seed in range(300):
        rng = random.Random(seed)
        p = RANDOM_PARAMS[seed % len(RANDOM_PARAMS)]
        pool = universe(p).members
        if seed % 2:
            picked = rng.sample(pool, rng.randint(2, min(8, len(pool))))
        else:
            slot = rng.choice(rng.choice(pool))
            held = [m for m in pool if slot in m]
            picked = rng.sample(held, rng.randint(1, len(held)))
            picked += rng.sample(pool, rng.randint(0, 2))
        out.append((f"random {seed} at {p}", SignedFamily(p, tuple(set(picked)))))
    out.append(("Hilton-Milner", HILTON_MILNER))
    out.append(("lone empty member", SignedFamily(Params(4, 2, 2), ((),))))
    out.append(("tied, intersecting", SignedFamily(Params(3, 2, 2), TIED_INTERSECTING)))
    out.append(("tied, disjoint", SignedFamily(Params(5, 2, 2), TIED_DISJOINT)))
    return tuple(out)


def sf(n, k, r, sets) -> SignedFamily:
    return SignedFamily(Params(n, k, r), tuple(tuple(s) for s in sets))


def pf(ground, sets) -> PlainFamily:
    return PlainFamily(ground, tuple(tuple(s) for s in sets))


def free_tails(fam: SignedFamily) -> PlainFamily:
    """The tail complements of fam's free class, as assemble_injection matches them."""
    return PlainFamily(fam.params.n, tuple(complements_in_tail(partition_family(fam).free)))


def proof_step_report(fam: SignedFamily) -> dict[str, bool]:
    """Re-derive the per-class facts the injection construction relies on.

    Returns one boolean per fact:
      class_bound      every support class of the free block has <= r^(k-1) members
      cross_intersect  stripped views of distinct blocks intersect pairwise
      pool_bound       |free block| <= r^(k-1) * |shadow of tail complements|
      blocks_disjoint  the shifted stripped blocks and the signed shadow pool
                       are pairwise disjoint
      matching_ok      the tail complements admit a perfect matching
    """
    p = fam.params
    part = partition_family(fam)
    stripped = [part.free] + [
        strip_first(part.anchored[i - 1], i) for i in range(1, p.r + 1)
    ]

    groups: dict[tuple, int] = {}
    for m in part.free.members:
        groups[support(m)] = groups.get(support(m), 0) + 1
    class_bound = all(g <= p.r ** (p.k - 1) for g in groups.values())

    masks = [[pair_mask(m, p.r) for m in f.members] for f in stripped]
    cross_intersect = True
    for i in range(len(stripped)):
        for j in range(i + 1, len(stripped)):
            for mi in masks[i]:
                for mj in masks[j]:
                    if not mi & mj:
                        cross_intersect = False

    tails = free_tails(fam)
    sh = shadow_to(tails, p.k - 1)
    pool_bound = len(part.free) <= p.r ** (p.k - 1) * len(sh)

    shifted = [stripped[1]] + [
        shift_signs_family(stripped[i], i - 1) for i in range(2, p.r + 1)
    ]
    pool = signed_versions(sh, p.r)
    side_sets = [f.member_set for f in shifted] + [pool.member_set]
    blocks_disjoint = True
    for a, b in itertools.combinations(side_sets, 2):
        if a & b:
            blocks_disjoint = False

    try:
        match_to_shadow(tails)
        matching_ok = True
    except Exception:
        matching_ok = False

    return {
        "class_bound": class_bound,
        "cross_intersect": cross_intersect,
        "pool_bound": pool_bound,
        "blocks_disjoint": blocks_disjoint,
        "matching_ok": matching_ok,
    }
