"""Shadow operator, pairwise intersection floor, intersection-shadow check.

plain_shadow is the library's shadow_to over the plain-family reference,
so these tests run the library's shadow under the old range checks.
"""

import itertools

import pytest
from conftest import (
    NotTIntersecting,
    SizeExceedsMembers,
    TooFewMembers,
    katona_check,
    min_pairwise_intersection,
    pf,
    plain_shadow,
)

from signedfam import SplitMix64, shadow_to


def test_shadow_to_returns_sorted_distinct_subsets():
    assert shadow_to(((2, 4), (2, 3)), 1) == ((2,), (3,), (4,))
    assert shadow_to(((3, 4), (2, 3)), 2) == ((2, 3), (3, 4))
    assert shadow_to(((3,), (4,)), 0) == ((),)
    assert shadow_to((), 2) == ()


def test_shadow_basic_expansion():
    assert plain_shadow(pf(4, [[2, 3], [2, 4]]), 1).members == ((2,), (3,), (4,))


def test_shadow_equal_size_is_identity():
    fam = pf(5, [[1, 2, 3], [2, 4, 5]])
    assert plain_shadow(fam, 3) == fam


def test_shadow_to_zero_is_empty_set_family():
    assert plain_shadow(pf(4, [[3], [4]]), 0).members == ((),)


def test_shadow_of_empty_family():
    assert plain_shadow(pf(4, []), 2).members == ()


def test_shadow_of_empty_family_rejects_negative_size():
    with pytest.raises(SizeExceedsMembers, match=r"^shadow size -1 is negative$"):
        plain_shadow(pf(4, []), -1)


def test_shadow_size_errors():
    fam = pf(4, [[2, 3]])
    with pytest.raises(SizeExceedsMembers):
        plain_shadow(fam, 3)
    with pytest.raises(SizeExceedsMembers):
        plain_shadow(fam, -1)


def _random_uniform_family(rng, n, s, count):
    pool = list(itertools.combinations(range(1, n + 1), s))
    rng.shuffle(pool)
    return pf(n, pool[: max(1, count % (len(pool) + 1))])


def test_shadow_monotone_and_composes():
    rng = SplitMix64(101)
    for _ in range(300):
        n = 4 + rng.below(3)
        s = 2 + rng.below(2)
        pool = list(itertools.combinations(range(1, n + 1), s + 1))
        rng.shuffle(pool)
        big = pf(n, pool[: 2 + rng.below(6)])
        small = pf(n, big.members[: 1 + rng.below(len(big))])
        assert plain_shadow(small, s).member_set <= plain_shadow(big, s).member_set
        s2 = rng.below(s + 1)
        assert plain_shadow(plain_shadow(big, s), s2) == plain_shadow(big, s2)


def test_min_pairwise_examples():
    assert min_pairwise_intersection(pf(3, [[1, 2], [1, 3]])) == 1
    assert min_pairwise_intersection(pf(4, [[1, 2], [3, 4]])) == 0
    assert min_pairwise_intersection(pf(4, [[1, 2, 3], [1, 2, 4], [1, 3, 4]])) == 2


def test_min_pairwise_needs_two_members():
    with pytest.raises(TooFewMembers):
        min_pairwise_intersection(pf(3, [[1, 2]]))


def test_katona_triangle():
    rep = katona_check(pf(3, [[1, 2], [1, 3], [2, 3]]), 1)
    assert rep.shadow_size == 3
    assert rep.family_size == 3
    assert rep.holds


def test_katona_single_member():
    rep = katona_check(pf(3, [[1, 2, 3]]), 1)
    assert rep.shadow_size == 3
    assert rep.family_size == 1
    assert rep.holds


def test_katona_rejects_non_t_intersecting():
    with pytest.raises(NotTIntersecting):
        katona_check(pf(4, [[1, 2], [3, 4]]), 1)


def test_katona_t_larger_than_member_size():
    with pytest.raises(SizeExceedsMembers):
        katona_check(pf(3, [[1, 2]]), 3)


def test_katona_empty_family():
    rep = katona_check(pf(3, []), 1)
    assert rep.holds and rep.family_size == 0


def test_katona_exhaustive_tiny():
    # every nonempty family of 2-subsets of [4], at every valid t
    pool = list(itertools.combinations(range(1, 5), 2))
    for mask in range(1, 1 << len(pool)):
        fam = pf(4, [pool[i] for i in range(len(pool)) if mask >> i & 1])
        t_max = min_pairwise_intersection(fam) if len(fam) >= 2 else fam.size
        for t in range(t_max + 1):
            assert katona_check(fam, t).holds


def test_katona_on_sampled_subfamilies():
    # the inequality survives on every subfamily at the inherited floor
    rng = SplitMix64(202)
    pool = list(itertools.combinations(range(1, 8), 3))
    for _ in range(200):
        rng.shuffle(pool)
        fam = pf(7, pool[: 3 + rng.below(8)])
        t = min_pairwise_intersection(fam) if len(fam) >= 2 else fam.size
        members = list(fam.members)
        rng.shuffle(members)
        sub = pf(7, members[: 1 + rng.below(len(members))])
        sub_t = min_pairwise_intersection(sub) if len(sub) >= 2 else sub.size
        assert sub_t >= t
        assert katona_check(sub, min(t, sub_t)).holds
