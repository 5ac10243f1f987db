"""match_to_shadow against a recursive Kuhn reference, and deep augmenting paths."""

import itertools

import pytest
from conftest import pf

from signedfam import (
    Params,
    SignedFamily,
    build_supports,
    complements_in_tail,
    match_to_shadow,
    partition_family,
    random_maximal_intersecting,
    shadow_to,
)


def recursive_kuhn(tails):
    """Recursive augmenting-path matching: neighbours in combinations() order.

    Its recursion depth is the augmenting path length, so keep inputs
    small: at (16,5,2) the path length nears the interpreter's limit.
    """
    if not tails.members:
        return {}
    k = tails.ground - 1 - tails.size
    sh = shadow_to(tails, k - 1)
    right_index = {m: i for i, m in enumerate(sh.members)}
    adjacency = [
        [right_index[sub] for sub in itertools.combinations(m, k - 1)]
        for m in tails.members
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

    for u in range(len(tails.members)):
        assert augment(u, set())
    return {tails.members[u]: sh.members[v] for u, v in match_left.items()}


def free_tails(fam):
    return complements_in_tail(build_supports(partition_family(fam).free), fam.params.n)


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
        got = match_to_shadow(tails).assignment
        want = recursive_kuhn(tails)
        assert list(got.items()) == list(want.items())


def test_matching_equals_recursive_reference_on_pinned_family():
    tails = free_tails(contains_2_1_avoids_1(Params(12, 4, 3)))
    assert len(tails) == 120
    got = match_to_shadow(tails).assignment
    assert list(got.items()) == list(recursive_kuhn(tails).items())


def test_matching_has_no_recursion_limit():
    # The tails of the (17,5,2) pinned family; the recursive search
    # needs augmenting paths deeper than the default recursion limit.
    tails = pf(17, itertools.combinations(range(3, 18), 11))
    assignment = match_to_shadow(tails).assignment
    assert list(assignment) == list(tails.members)
    assert len(set(assignment.values())) == len(tails) == 1365
    for src, dst in assignment.items():
        assert len(dst) == 4 and set(dst) <= set(src)
