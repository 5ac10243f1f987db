"""Shadow operator, pairwise intersection floor, intersection-shadow check.

Plain sets are sorted int tuples, as the library's shadow_to takes them.
"""

import itertools
import math
import random
import re

import pytest
from conftest import (
    free_tails,
    katona_holds,
    min_pairwise_intersection,
    plain,
    reference_shadow,
    sf,
)

import signedfam.injection as injection
from signedfam import SplitMix64, shadow_to


def union_side(members, s) -> bool:
    """shadow_to's rule: list the union's s-subsets when that makes fewer tuples,
    and gathering member by member would make more than 1,000."""
    union = set().union(*members)
    total = sum(math.comb(len(m), s) for m in members) if s >= 0 else 0
    return total > 1_000 and math.comb(len(union), s) < total


def signed_through_2_1(n, k, top):
    """The signed k-sets at r = 2 that hold (2, 1) and lie in {2, ..., top - 1}."""
    return sf(
        n,
        k,
        2,
        [
            [(2, 1)] + list(zip(rest, vec))
            for rest in itertools.combinations(range(3, top), k - 1)
            for vec in itertools.product((1, 2), repeat=k - 1)
        ],
    )


def test_shadow_to_returns_sorted_distinct_subsets():
    assert shadow_to(((2, 4), (2, 3)), 1) == ((2,), (3,), (4,))
    assert shadow_to(((3, 4), (2, 3)), 2) == ((2, 3), (3, 4))
    assert shadow_to(((1, 2, 3), (2, 4, 5)), 3) == ((1, 2, 3), (2, 4, 5))
    assert shadow_to(((3,), (4,)), 0) == ((),)
    assert shadow_to((), 2) == ()


def test_shadow_monotone_and_composes():
    rng = SplitMix64(101)
    for _ in range(300):
        n = 4 + rng.below(3)
        s = 2 + rng.below(2)
        pool = list(itertools.combinations(range(1, n + 1), s + 1))
        rng.shuffle(pool)
        big = plain(pool[: 2 + rng.below(6)])
        small = big[: 1 + rng.below(len(big))]
        assert set(shadow_to(small, s)) <= set(shadow_to(big, s))
        s2 = rng.below(s + 1)
        assert shadow_to(shadow_to(big, s), s2) == shadow_to(big, s2)


def test_min_pairwise_examples():
    assert min_pairwise_intersection(((1, 2), (1, 3))) == 1
    assert min_pairwise_intersection(((1, 2), (3, 4))) == 0
    assert min_pairwise_intersection(((1, 2, 3), (1, 2, 4), (1, 3, 4))) == 2
    assert min_pairwise_intersection(((1, 2),)) == 2


def test_katona_triangle():
    triangle = ((1, 2), (1, 3), (2, 3))
    assert len(shadow_to(triangle, 1)) == 3
    assert katona_holds(triangle, 1)


def test_katona_single_member():
    assert len(shadow_to(((1, 2, 3),), 2)) == 3
    assert katona_holds(((1, 2, 3),), 1)


def test_katona_exhaustive_tiny():
    # every nonempty family of 2-subsets of [4], at every valid t
    pool = list(itertools.combinations(range(1, 5), 2))
    for mask in range(1, 1 << len(pool)):
        fam = plain(pool[i] for i in range(len(pool)) if mask >> i & 1)
        for t in range(min_pairwise_intersection(fam) + 1):
            assert katona_holds(fam, t)


def test_katona_on_sampled_subfamilies():
    # the inequality survives on every subfamily at the inherited floor
    rng = SplitMix64(202)
    pool = list(itertools.combinations(range(1, 8), 3))
    for _ in range(200):
        rng.shuffle(pool)
        fam = plain(pool[: 3 + rng.below(8)])
        t = min_pairwise_intersection(fam)
        members = list(fam)
        rng.shuffle(members)
        sub = plain(members[: 1 + rng.below(len(members))])
        sub_t = min_pairwise_intersection(sub)
        assert sub_t >= t
        assert katona_holds(sub, min(t, sub_t))


def random_collection(rng):
    """Plain sets over [1, n], of mixed sizes, the empty set among them.

    Most draws are up to six sets over n <= 9.  One in six is dense:
    300 to 1,200 sets over n <= 10, enough subsets in all to pass
    shadow_to's floor, and at s = 0 enough members.  No dense member
    holds both 1 and 2, so once the union holds both, its s-subsets
    that hold both (2 <= s) lie in no member, and the union side must
    drop them.
    """
    dense = rng.randrange(6) == 0
    n = rng.randint(1, 10 if dense else 9)
    members = [
        tuple(sorted(rng.sample(range(1, n + 1), rng.randint(0, n))))
        for _ in range(rng.randint(300, 1200) if dense else rng.randint(0, 6))
    ]
    if dense:
        members = [m[:1] + m[2:] if m[:2] == (1, 2) else m for m in members]
    return members


def test_shadow_to_matches_the_per_member_reference(monkeypatch):
    # shadow_to builds masks on the union side alone, so counting the
    # builds shows which side each case took
    builds = []
    slot_masks = injection._slot_masks
    monkeypatch.setattr(injection, "_slot_masks", lambda ms: builds.append(ms) or slot_masks(ms))
    seen = set()
    for seed in range(2400):
        rng = random.Random(seed)
        members = random_collection(rng)
        s = rng.randint(0, 10)
        builds.clear()
        # every fourth case hands shadow_to a generator of the members
        given = iter(members) if seed % 4 == 0 else members
        want = reference_shadow(members, s)
        assert shadow_to(given, s) == want, (seed, members, s)
        union = union_side(members, s)
        assert len(builds) == union, (seed, members, s)
        cases = {
            "any": True,
            "a candidate no member holds": len(want) < math.comb(len(set().union(*members)), s),
            "generator": seed % 4 == 0,
            "s = 0": s == 0,
            "an empty member": () in members,
            "s above every size": s > max(map(len, members), default=0),
            "the empty collection": not members,
        }
        seen.update((union, case) for case, holds in cases.items() if holds)
    # the last two make no tuple on either side, so the rule never lists the union
    assert seen == {(False, case) for case in cases} | {
        (True, case)
        for case in ("any", "a candidate no member holds", "generator", "s = 0", "an empty member")
    }


@pytest.mark.parametrize(
    ("n", "k", "top", "union"),
    [
        # (16,5,2): 1,001 union candidates against 210,210 per-member subsets
        (16, 5, 17, True),
        # n = 200: 15 tails of 196 elements, sparse in their union
        (200, 3, 9, True),
        # n = 2k: each tail is its own only (k-1)-subset
        (8, 4, 9, False),
    ],
)
def test_shadow_to_matches_the_reference_on_injection_tails(n, k, top, union):
    tails = free_tails(signed_through_2_1(n, k, top))
    assert union_side(tails, k - 1) == union
    assert shadow_to(tails, k - 1) == reference_shadow(tails, k - 1)


def test_shadow_of_one_long_tail_is_itself():
    tail = (tuple(range(10002, 20001)),)
    assert shadow_to(tail, 9999) == reference_shadow(tail, 9999) == tail


def test_negative_s_raises_as_the_reference_does():
    for members in (((1, 2),), ((),), ((1,), (2,), (1, 2))):
        with pytest.raises(ValueError) as want:
            reference_shadow(members, -1)
        with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
            shadow_to(members, -1)
    assert shadow_to((), -1) == reference_shadow((), -1) == ()
