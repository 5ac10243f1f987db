"""Shadow operator, pairwise intersection floor, intersection-shadow check.

Plain sets are sorted int tuples, as the library's shadow_to takes them.
"""

import itertools

from conftest import katona_holds, min_pairwise_intersection, plain

from signedfam import SplitMix64, shadow_to


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
