"""Shared builders, reference checks and the proof-step invariant checker.

The references further down are test code, not library code: the
derived-family helpers the proof-step checker needs, the certificate
writer's reference bytes, the member-by-member partition, block sizes
and support classes, the per-member shadow, and the
intersection-shadow (Katona) check that acceptance criterion 6 reports.  Plain sets are the sorted int
tuples the library's shadow_to and match_to_shadow take.
"""

from __future__ import annotations

import functools
import gc
import itertools
import json
import random
import re
from collections import Counter
from dataclasses import replace

import pytest

from signedfam import (
    InjectionCertificate,
    Params,
    SignedFamily,
    complements_in_tail,
    enumerate_maximal_intersecting,
    intersects,
    match_to_shadow,
    partition_family,
    shadow_to,
    shift_signs,
    support,
    universe,
)
from signedfam.errors import ContainsOne, Error


@pytest.fixture
def collector_state():
    """Leave the cyclic collector as the test found it, whatever the test sets."""
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


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


class MissingPair(Error):
    """A member lacks the common pair that was to be stripped."""


def strip_first(block: SignedFamily, i: int) -> tuple:
    """Remove the common pair (1, i) from every member, as sorted member tuples.

    Removal of a shared pair is injective, so the size is preserved.
    The members come out one pair short of k, so they are no family.
    """
    pair = (1, i)
    out = []
    for m in block.members:
        if pair not in m:
            raise MissingPair(f"member {m} lacks {pair}")
        out.append(tuple(p for p in m if p != pair))
    return tuple(sorted(out))


def signed_versions(shadow, r: int) -> tuple:
    """Every way of signing every plain set in shadow with signs from 1..r, sorted.

    The result has exactly r^(member size) * len(shadow) members, one
    pair short of k where the pipeline signs them.
    """
    signs = range(1, r + 1)
    return tuple(
        sorted(
            tuple(zip(m, vec))
            for m in shadow
            for vec in itertools.product(signs, repeat=len(m))
        )
    )


def shift_signs_family(members: tuple, q: int, r: int) -> tuple:
    """Member-wise cyclic sign shift; a bijection, so the size is kept."""
    return tuple(shift_signs(m, q, r) for m in members)


def reference_certificate_to_json(cert) -> str:
    """The certificate bytes with every pair rebuilt as a list, through json.dumps."""
    obj = {
        "params": {"n": cert.params.n, "k": cert.params.k, "r": cert.params.r},
        "map": [
            {"from": [[x, a] for x, a in s], "to": [[x, a] for x, a in t]}
            for s, t in cert.mapping
        ],
        "blocks": {"a0": cert.block_sizes[0], "a": list(cert.block_sizes[1:])},
    }
    return json.dumps(obj, separators=(",", ":"))


def assert_target_refused(cert, i: int, target) -> None:
    """cert with target i replaced by target cannot be built, directly or by replace()."""
    targets = cert.targets[:i] + (target,) + cert.targets[i + 1 :]
    source = cert.domain.members[i]
    message = f"target {target!r} of source {source} is not a tuple of integer pairs"
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        InjectionCertificate(cert.domain, targets)
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        replace(cert, targets=targets)


def reference_partition(fam: SignedFamily) -> tuple:
    """partition_family member by member, as (free, anchored) tuples of members.

    A member's first pair decides its block: (1, i) puts it in
    anchored[i - 1], any other pair in the free class.
    """
    free, anchored = [], [[] for _ in range(fam.params.r)]
    for m in fam.members:
        if m[0][0] == 1:
            anchored[m[0][1] - 1].append(m)
        else:
            free.append(m)
    return tuple(free), tuple(map(tuple, anchored))


def reference_block_sizes(fam: SignedFamily) -> tuple:
    """The partition class sizes, free class first, from a count of first pairs."""
    firsts = Counter(m[0] for m in fam.members)
    anchored = tuple(firsts[1, i] for i in range(1, fam.params.r + 1))
    return (len(fam) - sum(anchored),) + anchored


def reference_complements_in_tail(free: SignedFamily) -> dict:
    """complements_in_tail with one support() call per member.

    Classes keep the order in which their supports first occur, and a
    support holding element 1 raises as the library does.
    """
    by_support: dict = {}
    for m in free.members:
        by_support.setdefault(support(m), []).append(m)
    tail = range(2, free.params.n + 1)
    out = {}
    for sup, members in by_support.items():
        if 1 in sup:
            raise ContainsOne(f"member {members[0]} contains element 1")
        out[tuple(x for x in tail if x not in sup)] = members
    return out


def pairs_shared(sets) -> bool:
    """True when equal pairs across sets are one object: one tuple per distinct pair."""
    sets = list(sets)
    return len({id(p) for s in sets for p in s}) == len({p for s in sets for p in s})


def reference_shadow(members, s: int) -> tuple:
    """The s-shadow gathered member by member: each member's s-subsets, deduplicated, sorted.

    The reference for shadow_to, which shares no code with it.
    """
    out = set()
    for m in members:
        out.update(itertools.combinations(m, s))
    return tuple(sorted(out))


def min_pairwise_intersection(members) -> int:
    """Smallest |X & Y| over pairs of distinct members: the largest t
    for which they are t-intersecting.  Fewer than two members are
    t-intersecting up to the member size, which is returned.
    """
    sets = [set(m) for m in members]
    best = len(members[0])
    for i, si in enumerate(sets):
        for sj in sets[i + 1 :]:
            best = min(best, len(si & sj))
            if best == 0:
                return 0
    return best


def katona_holds(members, t: int) -> bool:
    """Katona's intersection-shadow inequality on t-intersecting plain s-sets.

    It is the theorem behind the matching's Hall condition: the
    (s - t)-shadow of a nonempty t-intersecting family of s-sets is at
    least as large as the family.  The hypothesis is asserted, so a
    False return is a fault in shadow_to.
    """
    assert 0 <= t <= min_pairwise_intersection(members), f"not {t}-intersecting"
    return len(shadow_to(members, len(members[0]) - t)) >= len(members)


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
    Hilton-Milner type family, which has no common slot; and two
    families whose most common slot is tied.
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
    out.append(("tied, intersecting", SignedFamily(Params(3, 2, 2), TIED_INTERSECTING)))
    out.append(("tied, disjoint", SignedFamily(Params(5, 2, 2), TIED_DISJOINT)))
    return tuple(out)


def sf(n, k, r, sets) -> SignedFamily:
    return SignedFamily(Params(n, k, r), tuple(tuple(s) for s in sets))


def plain(sets) -> tuple:
    """Plain sets as the library takes them: sorted int tuples, sorted."""
    return tuple(sorted(tuple(sorted(s)) for s in sets))


def free_tails(fam: SignedFamily) -> tuple:
    """The tail complements of fam's free class, sorted as assemble_injection matches them."""
    return tuple(sorted(complements_in_tail(partition_family(fam).free)))


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
    stripped = [part.free.members] + [
        strip_first(part.anchored[i - 1], i) for i in range(1, p.r + 1)
    ]

    groups: dict[tuple, int] = {}
    for m in part.free.members:
        groups[support(m)] = groups.get(support(m), 0) + 1
    class_bound = all(g <= p.r ** (p.k - 1) for g in groups.values())

    masks = [[pair_mask(m, p.r) for m in f] for f in stripped]
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
        shift_signs_family(stripped[i], i - 1, p.r) for i in range(2, p.r + 1)
    ]
    side_sets = [set(f) for f in shifted] + [set(signed_versions(sh, p.r))]
    blocks_disjoint = True
    for a, b in itertools.combinations(side_sets, 2):
        if a & b:
            blocks_disjoint = False

    try:
        match_to_shadow(tails, p.k)
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
