"""match_to_shadow against a recursive Kuhn reference, and deep augmenting paths."""

import hashlib
import itertools
import random

import pytest
from conftest import free_tails, plain, reference_shadow

from signedfam import (
    Params,
    SignedFamily,
    match_to_shadow,
    random_maximal_intersecting,
)
from signedfam.errors import NoPerfectMatching


def recursive_kuhn(tails, k):
    """Recursive augmenting-path matching: neighbours in combinations() order.

    Rows are looked up subset by subset, with no masks, in the shadow
    that reference_shadow gathers member by member.  Raises
    NoPerfectMatching naming the first member left unmatched.  Its
    recursion depth is the augmenting path length, so keep inputs
    small: at (16,5,2) the path length nears the interpreter's limit.
    """
    if not tails:
        return {}
    sh = reference_shadow(tails, k - 1)
    right_index = {m: i for i, m in enumerate(sh)}
    adjacency = [
        [right_index[sub] for sub in itertools.combinations(m, k - 1)] for m in tails
    ]
    match_left: dict[int, int] = {}
    match_right: dict[int, int] = {}

    def augment(u, seen):
        for v in adjacency[u]:
            if v in seen:
                continue
            seen.add(v)
            w = match_right.get(v)
            if w is None or augment(w, seen):
                match_right[v] = u
                match_left[u] = v
                return True
        return False

    for u in range(len(tails)):
        if not augment(u, set()):
            raise NoPerfectMatching(f"no injective shadow assignment covers {tails[u]}")
    return {tails[u]: sh[v] for u, v in match_left.items()}


def contains_2_1_avoids_1(p):
    """All signed k-sets over [n] that contain (2, 1) and avoid element 1."""
    signs = range(1, p.r + 1)
    members = tuple(
        ((2, 1),) + tuple(zip(rest, vec))
        for rest in itertools.combinations(range(3, p.n + 1), p.k - 1)
        for vec in itertools.product(signs, repeat=p.k - 1)
    )
    return SignedFamily(p, members)


@pytest.mark.parametrize("n,k,r", [(8, 4, 2), (9, 3, 3), (10, 4, 2)])
def test_matching_equals_recursive_reference_on_random_families(n, k, r):
    for seed in range(8):
        tails = free_tails(random_maximal_intersecting(Params(n, k, r), seed))
        got = match_to_shadow(tails, k)
        want = recursive_kuhn(tails, k)
        assert list(got.items()) == list(want.items())


def test_matching_equals_recursive_reference_on_pinned_family():
    tails = free_tails(contains_2_1_avoids_1(Params(12, 4, 3)))
    assert len(tails) == 120
    got = match_to_shadow(tails, 4)
    assert list(got.items()) == list(recursive_kuhn(tails, 4).items())


def test_matching_has_no_recursion_limit():
    # The tails of the (17,5,2) pinned family; the recursive search
    # needs augmenting paths deeper than the default recursion limit.
    tails = tuple(itertools.combinations(range(3, 18), 11))
    assignment = match_to_shadow(tails, 5)
    assert list(assignment) == list(tails)
    assert len(set(assignment.values())) == len(tails) == 1365
    for src, dst in assignment.items():
        assert len(dst) == 4 and set(dst) <= set(src)
    # the reference cannot reach this size, so a digest pins Kuhn's matching
    digest = hashlib.sha256(repr(list(assignment.items())).encode()).hexdigest()
    assert digest == "3854d9d6cd952dd599433068b9688d7e6a013aa8f13ffe0882de015e0bea4bc2"


def test_matching_equals_reference_where_the_search_backtracks():
    # the recursive reference meets 3 dead ends below the root here, each
    # of which must hand its shadow member back, and still matches all four
    tails = ((2, 3), (2, 4), (3, 4), (3, 5))
    want = {(2, 3): (2,), (2, 4): (4,), (3, 4): (3,), (3, 5): (5,)}
    assert recursive_kuhn(tails, 2) == want
    assert list(match_to_shadow(tails, 2).items()) == list(want.items())


def tails_in(ground, sets):
    """Sorted tails and their k: tail complements in {2, ..., ground} have size ground - 1 - k."""
    tails = plain(sets)
    return tails, ground - 1 - len(tails[0])


def outcome(match, tails, k):
    """The matching as a list of pairs, or the text of NoPerfectMatching."""
    try:
        return list(match(tails, k).items())
    except NoPerfectMatching as exc:
        return str(exc)


def random_uniform(rng, ground, size, pool):
    """A random nonempty family of size-subsets of the elements in pool, and its k."""
    subsets = list(itertools.combinations(pool, size))
    count = rng.randint(1, len(subsets))
    return tails_in(ground, rng.sample(subsets, count))


def test_matching_equals_recursive_reference_on_random_plain_families():
    rng = random.Random(20190)
    failures = matchings = 0
    for _ in range(300):
        ground = rng.randint(2, 9)
        # members of size m give k = ground - 1 - m >= 1 and a (k-1)-shadow
        # no larger than m, from s = m (the family itself) down to s = 0
        size = rng.randint((ground - 1) // 2, ground - 2)
        # leave some elements of the ground unused now and then
        pool = sorted(rng.sample(range(1, ground + 1), rng.randint(size, ground)))
        tails, k = random_uniform(rng, ground, size, pool)
        want = outcome(recursive_kuhn, tails, k)
        assert outcome(match_to_shadow, tails, k) == want
        if isinstance(want, str):
            failures += 1
        else:
            matchings += 1
    assert failures > 20 and matchings > 20


@pytest.mark.parametrize(
    "tails",
    [
        # s = m: the shadow is the family, each member matches itself
        tails_in(6, [[1, 2], [2, 5], [3, 4]]),
        tails_in(8, [[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4], [5, 6, 7]]),
        # the 0-shadow {()}: one member matches (), two cannot
        tails_in(5, [[1, 3, 5]]),
        tails_in(5, [[1, 3, 5], [2, 3, 4]]),
        # ground elements 1, 7, 8 and 9 appear in no member
        tails_in(9, [[2, 3, 4, 5], [2, 3, 4, 6], [3, 4, 5, 6]]),
        tails_in(9, [list(m) for m in itertools.combinations(range(2, 7), 4)]),
        tails_in(9, [list(m) for m in itertools.combinations(range(2, 8), 4)]),
        # wide tails at n = 2,000, k = 1,000: the odd elements from 3, the tail
        # complement of the even elements; then beside it the same with 1,999
        # swapped for 2,000, so each row strikes a mask of the other's
        tails_in(2000, [list(range(3, 2000, 2))]),
        tails_in(2000, [list(range(3, 2000, 2)), list(range(3, 1998, 2)) + [2000]]),
    ],
)
def test_matching_equals_recursive_reference_on_edge_cases(tails):
    assert outcome(match_to_shadow, *tails) == outcome(recursive_kuhn, *tails)


def test_edge_case_outcomes():
    assert match_to_shadow(((1, 2), (2, 5)), 3) == {(1, 2): (1, 2), (2, 5): (2, 5)}
    assert match_to_shadow(((1, 3, 5),), 1) == {(1, 3, 5): ()}
    with pytest.raises(NoPerfectMatching) as exc:
        match_to_shadow(((1, 3, 5), (2, 3, 4)), 1)
    assert str(exc.value) == "no injective shadow assignment covers (2, 3, 4)"
    # 15 four-subsets of {2..7} and their 20 three-subsets, as at (9,4,r)
    tails = tuple(itertools.combinations(range(2, 8), 4))
    assignment = match_to_shadow(tails, 4)
    assert len(set(assignment.values())) == 15
    assert all(set(dst) <= set(src) for src, dst in assignment.items())


def test_member_size_leaving_no_shadow_size_has_no_matching():
    # tails of size 2 in a ground of 3 leave k = 0, and no (k-1)-subsets
    message = r"^k=0 leaves no \(k-1\)-subsets to match to$"
    with pytest.raises(NoPerfectMatching, match=message):
        match_to_shadow(((1, 2),), 0)
    # an empty input is refused the same way, not matched vacuously
    with pytest.raises(NoPerfectMatching, match=message):
        match_to_shadow((), 0)
