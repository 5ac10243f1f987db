"""Core types and operations: canonical forms, universes, shifts."""

import itertools
import random
import sys
import tracemalloc
from math import comb

import pytest
from conftest import (
    HILTON_MILNER,
    HM_A,
    TIED_DISJOINT,
    TIED_INTERSECTING,
    intersecting_corpus,
    pairs_shared,
    pairwise_intersecting,
    sf,
    shift_signs_family,
)

from signedfam import (
    Params,
    SignedFamily,
    SplitMix64,
    bound_value,
    intersects,
    is_intersecting,
    make_signed_set,
    mod_one_based,
    shift_signs,
    star,
    support,
    universe,
)
from signedfam.core import _shown, _signed_count
from signedfam.errors import (
    DuplicateElement,
    OutOfRange,
    TooLarge,
    WrongSize,
)


def test_params_validation():
    Params(3, 3, 1)
    with pytest.raises(ValueError):
        Params(1, 2, 1)
    with pytest.raises(ValueError):
        Params(3, 0, 2)
    with pytest.raises(ValueError):
        Params(3, 1, 0)


@pytest.mark.parametrize("args", [(4.0, 2, 2), (True, True, 2), (4, 2, 2.0), (4, 2, True)])
def test_params_refuse_non_integers(args):
    # each compares equal to valid integer parameters, and bool is an int subclass
    with pytest.raises(ValueError, match=r"^n, k and r must be integers, got Params\("):
        Params(*args)


def test_params_refusal_shows_long_values_shortened():
    # repr would print a long value whole, and recurse into a deep one
    # past the recursion limit
    deep = []
    for _ in range(sys.getrecursionlimit() + 10):
        deep = [deep]
    for value in ("x" * 10**6, deep):
        with pytest.raises(ValueError) as info:
            Params(4, value, 2)
        assert str(info.value).startswith("n, k and r must be integers, got Params(n=4, k=")
        assert len(str(info.value)) < 100


@pytest.mark.parametrize(
    "pairs, message",
    [
        (((1.0, 1), (2, 1)), "element 1.0 outside [1, 4]"),
        (((True, 1), (2, 1)), "element True outside [1, 4]"),
        (((1, 1), (2, True)), "sign True outside [1, 2]"),
        (((1, 1), (2, 1.0)), "sign 1.0 outside [1, 2]"),
    ],
)
def test_make_signed_set_refuses_non_integer_entries(pairs, message):
    # each pair equals an int pair, so a range check alone accepted them
    p = Params(4, 2, 2)
    with pytest.raises(OutOfRange) as exc:
        make_signed_set(pairs, p)
    assert str(exc.value) == message
    with pytest.raises(OutOfRange):
        SignedFamily(p, (pairs,))


def test_make_signed_set_canonicalizes():
    p = Params(3, 2, 2)
    assert make_signed_set([(2, 1), (1, 2)], p) == ((1, 2), (2, 1))


def test_make_signed_set_rejects_duplicate_element():
    with pytest.raises(DuplicateElement):
        make_signed_set([(1, 1), (1, 2)], Params(3, 2, 2))


def test_make_signed_set_rejects_out_of_range():
    with pytest.raises(OutOfRange):
        make_signed_set([(1, 3)], Params(2, 1, 2))
    with pytest.raises(OutOfRange):
        make_signed_set([(5, 1)], Params(2, 1, 2))


def test_make_signed_set_rejects_wrong_size():
    with pytest.raises(WrongSize):
        make_signed_set([(1, 1)], Params(3, 2, 2))


def test_make_signed_set_idempotent_on_canonical_form():
    p = Params(5, 3, 3)
    rng = SplitMix64(7)
    for _ in range(200):
        elems = sorted({1 + rng.below(5) for _ in range(10)})[:3]
        if len(elems) < 3:
            continue
        pairs = [(x, 1 + rng.below(3)) for x in elems]
        once = make_signed_set(pairs, p)
        assert make_signed_set(once, p) == once


def test_intersects_examples():
    assert intersects(((1, 1), (2, 2)), ((1, 1), (3, 1)))
    assert not intersects(((1, 1),), ((1, 2),))
    assert not intersects(((1, 1), (2, 1)), ((3, 1), (4, 1)))


def test_is_intersecting():
    assert is_intersecting(sf(4, 2, 2, []))
    assert is_intersecting(sf(4, 2, 2, [[(3, 1), (4, 2)]]))
    # a lone size-0 member is no signed 2-set, so it cannot be a member
    with pytest.raises(WrongSize):
        SignedFamily(Params(4, 2, 2), ((),))
    assert is_intersecting(star(Params(4, 2, 2)))
    assert not is_intersecting(sf(2, 1, 2, [[(1, 1)], [(2, 1)]]))


def test_is_intersecting_agrees_with_pairwise_reference():
    p = Params(5, 2, 3)
    pool = universe(p).members
    star_members = star(p).members
    outcomes = set()
    for seed in range(200):
        rng = random.Random(seed)
        if seed % 2:
            picked = rng.sample(pool, rng.randint(2, 6))
        else:
            # a star subfamily plus one arbitrary member: disjoint pairs are rare
            picked = rng.sample(star_members, rng.randint(1, 12)) + [rng.choice(pool)]
        fam = SignedFamily(p, tuple(set(picked)))
        want = pairwise_intersecting(fam)
        assert is_intersecting(fam) == want
        outcomes.add(want)
    assert outcomes == {True, False}


def test_is_intersecting_finds_disjoint_last_pair():
    a = ((4, 1), (5, 1), (6, 1))
    b = ((4, 2), (5, 2), (6, 2))
    shared = [((x, s), (4, 1), (5, 2)) for x in (1, 2, 3) for s in (1, 2)]
    fam = sf(6, 3, 2, shared + [a, b])
    assert fam.members[-2:] == (a, b)
    assert not is_intersecting(fam)
    assert not pairwise_intersecting(fam)
    assert is_intersecting(sf(6, 3, 2, shared + [a]))


def test_is_intersecting_matches_all_pairs_on_the_corpus():
    outcomes = set()
    for label, fam in intersecting_corpus():
        want = pairwise_intersecting(fam)
        assert is_intersecting(fam) == want, label
        outcomes.add(want)
    assert outcomes == {True, False}


def slot_counts(members):
    counts = {}
    for m in members:
        for p in m:
            counts[p] = counts.get(p, 0) + 1
    return counts


def test_is_intersecting_without_a_common_slot():
    # every member lacks some slot, so the core leaves a member to test
    fam = HILTON_MILNER
    assert max(slot_counts(fam.members).values()) < len(fam)
    assert is_intersecting(fam)
    assert pairwise_intersecting(fam)
    # a core member avoiding A: only A's row, outside the core, sees it
    b = ((1, 1), (5, 1), (6, 1))
    assert not intersects(b, HM_A)
    assert not is_intersecting(SignedFamily(fam.params, fam.members + (b,)))


@pytest.mark.parametrize(
    "members, want", [(TIED_INTERSECTING, True), (TIED_DISJOINT, False)]
)
def test_is_intersecting_with_tied_core_slots(members, want):
    counts = sorted(slot_counts(members).values(), reverse=True)
    assert counts[0] == counts[1]
    n = max(x for m in members for x, _ in m)
    fam = SignedFamily(Params(n, 2, 2), members)
    assert is_intersecting(fam) is want
    assert pairwise_intersecting(fam) is want


def test_universe_smallest_case_exact():
    fam = universe(Params(2, 1, 2))
    assert fam.members == (((1, 1),), ((1, 2),), ((2, 1),), ((2, 2),))


def test_universe_sizes():
    assert len(universe(Params(3, 2, 2))) == 12
    assert len(universe(Params(6, 3, 2))) == 160


def test_universe_matches_independent_enumeration():
    # oracle: pick any 3 of the 12 (element, sign) slots, keep those with
    # pairwise distinct elements
    p = Params(6, 3, 2)
    slots = [(x, a) for x in range(1, 7) for a in (1, 2)]
    oracle = {
        trip
        for trip in itertools.combinations(sorted(slots), 3)
        if len({x for x, _ in trip}) == 3
    }
    assert universe(p).member_set == oracle
    assert len(oracle) == 160


@pytest.mark.parametrize(
    "p",
    [Params(n, k, r) for n in range(1, 8) for k in range(1, n + 1) for r in range(1, 4)],
    ids=str,
)
def test_universe_and_star_equal_validated_families(p):
    # members come in combination-then-sign order, which is not sorted:
    # at (3,2,2) ((1,2),(2,2)) comes before ((1,1),(3,1))
    signs = range(1, p.r + 1)
    members = [
        tuple(zip(elems, vec))
        for elems in itertools.combinations(range(1, p.n + 1), p.k)
        for vec in itertools.product(signs, repeat=p.k)
    ]
    u, s = universe(p), star(p)
    assert u == SignedFamily(p, tuple(members))
    assert s == SignedFamily(p, tuple(m for m in members if m[0] == (1, 1)))
    # each builds one tuple per (element, sign) slot, shared by its sets
    assert pairs_shared(u.members)
    assert pairs_shared(s.members)


def test_star_of_one_pair_copies_no_ground():
    # k = 1: the star's one member is ((1, 1),), with no slot of [2, n] built
    tracemalloc.start()
    try:
        fam = star(Params(4_000_000, 1, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fam.members == (((1, 1),),)
    assert peak < 1_000_000


def test_star_smallest_case():
    assert star(Params(2, 1, 2)).members == (((1, 1),),)


@pytest.mark.parametrize("n,k,r,expected", [(4, 2, 2, 6), (6, 3, 2, 40)])
def test_star_equals_filtered_universe(n, k, r, expected):
    p = Params(n, k, r)
    filtered = frozenset(m for m in universe(p).members if (1, 1) in m)
    fam = star(p)
    assert fam.member_set == filtered
    assert len(fam) == expected == bound_value(p)


def test_star_is_intersecting_subfamily_of_universe():
    for p in (Params(4, 2, 2), Params(5, 2, 3), Params(4, 4, 2)):
        u, s = universe(p), star(p)
        assert s.member_set <= u.member_set
        assert is_intersecting(s)
        assert len(s) == bound_value(p)


def test_bound_value():
    assert bound_value(Params(4, 2, 2)) == 6
    assert bound_value(Params(6, 3, 2)) == 40
    for n in range(1, 8):
        for r in range(1, 5):
            assert bound_value(Params(n, 1, r)) == 1


def test_bound_value_large_inputs_exact():
    # arbitrary precision: a value far past 64 bits comes back exact
    from math import comb

    v = bound_value(Params(60, 20, 3))
    assert v == 3**19 * comb(59, 19)
    assert v > 2**64


def test_support():
    assert support(((2, 1), (5, 3))) == (2, 5)
    assert support(()) == ()
    assert support(((1, 1), (3, 2), (4, 2))) == (1, 3, 4)


def test_mod_one_based_examples():
    assert mod_one_based(2, 2) == 2
    assert mod_one_based(3, 2) == 1
    assert mod_one_based(6, 3) == 3
    with pytest.raises(ValueError):
        mod_one_based(1, 0)


def test_mod_one_based_range_and_congruence():
    for y in range(1, 9):
        for v in range(-3 * y, 3 * y + 1):
            m = mod_one_based(v, y)
            assert 1 <= m <= y
            assert (m - v) % y == 0


def test_shift_signs_examples():
    assert shift_signs(((1, 1), (2, 2)), 1, 2) == ((1, 2), (2, 1))
    assert shift_signs(((3, 1),), 2, 3) == ((3, 3),)


def test_shift_signs_inverse():
    rng = SplitMix64(11)
    for _ in range(100):
        r = 1 + rng.below(4)
        pairs = tuple((x, 1 + rng.below(r)) for x in sorted({1 + rng.below(6) for _ in range(3)}))
        q = rng.below(9) - 4
        assert shift_signs(shift_signs(pairs, q, r), -q, r) == pairs


def test_shift_signs_family_identity_and_cycle():
    members = star(Params(4, 2, 3)).members
    assert shift_signs_family(members, 0, 3) == members
    assert shift_signs_family(members, 3, 3) == members
    for q in range(1, 3):
        assert len(set(shift_signs_family(members, q, 3))) == len(members)


#: An int past str()'s default limit of 4,300 decimal digits.
HUGE = 10**5000


@pytest.mark.parametrize(
    "refuse, message",
    [
        (
            lambda: Params(HUGE, 2.0, 2),
            "n, k and r must be integers, got Params(n=<16610-bit int>, k=2.0, r=2)",
        ),
        (lambda: Params(3, HUGE, 2), "need 1 <= k <= n, got k=<16610-bit int>, n=3"),
        (lambda: Params(3, 2, -HUGE), "need r >= 1, got r=<negative 16610-bit int>"),
        (
            lambda: universe(Params(3, 1, 2), cap=-HUGE),
            "cap must be >= 0, got <negative 16610-bit int>",
        ),
        (lambda: SplitMix64(HUGE), "seed must be in [0, 2^64), got <16610-bit int>"),
    ],
    ids=["params-type", "params-k", "params-r", "cap", "seed"],
)
def test_refusals_word_their_rule_for_ints_too_long_to_print(refuse, message):
    # str() of such an int raises, and its text would name sys.set_int_max_str_digits
    with pytest.raises(ValueError) as info:
        refuse()
    assert str(info.value) == message


def test_refusals_shorten_long_ints():
    # a 902-digit count prints as reprlib shortens it, not whole
    with pytest.raises(TooLarge) as info:
        universe(Params(2000, 1000, 2))
    assert str(info.value) == (
        "universe has 219461209714179544...8160583062121349120 members, cap is 10000000"
    )


@pytest.mark.parametrize(
    "params, bits",
    # counts of some 451,540 digits, whose binomials took seconds to work
    # out, and of 477,122 digits, all in factors r past C(n, n) = 1
    [((10**6, 5 * 10**5, 2), 14289), ((10**6, 10**6, 3), 22643)],
)
def test_refusals_stop_counting_past_what_str_prints(params, bits):
    for build in (universe, star):
        with pytest.raises(TooLarge) as info:
            build(Params(*params))
        assert str(info.value) == (
            f"{build.__name__} has more than <{bits}-bit int> members, cap is 10000000"
        )


def test_signed_count_is_exact_or_a_strict_lower_bound(monkeypatch):
    # a 4-digit threshold in place of 4,300 digits, so small counts stop early too
    monkeypatch.setattr("signedfam.core._PRINTABLE", 10**3)
    early = 0
    for n in range(1, 30):
        for k, r in itertools.product(range(n + 1), (1, 2, 3, 2**40)):
            count = r**k * comb(n, k)
            for limit in (0, 5, count - 1, count, 10**6):
                got, shown = _signed_count(n, k, r, max(limit, 0))
                if shown.startswith("more than "):
                    early += 1
                    assert limit < got < count and got >= 10**3
                    assert shown == f"more than {_shown(got)}"
                else:
                    assert (got, shown) == (count, _shown(count))
    assert early > 1000


def test_universe_and_star_cap():
    with pytest.raises(TooLarge):
        universe(Params(30, 10, 3), cap=1000)
    with pytest.raises(TooLarge):
        star(Params(30, 10, 3), cap=10)


def test_universe_and_star_reject_negative_cap():
    for build in (universe, star):
        # TooLarge here would mean the members were counted first
        with pytest.raises(ValueError, match=r"^cap must be >= 0, got -1$"):
            build(Params(30, 10, 3), cap=-1)
        for cap in (2.0, 1.5, True):
            with pytest.raises(ValueError, match=rf"^cap must be an integer, got {cap}$"):
                build(Params(30, 10, 3), cap=cap)
        with pytest.raises(TooLarge):
            build(Params(3, 1, 2), cap=0)


def test_signed_family_holds_signed_k_sets_only():
    # members one pair short of k: a (4,2,2) star relabelled to k = 3, and
    # a 2-pair domain a certificate at (4,3,2) could otherwise carry
    with pytest.raises(WrongSize, match=r"^expected 3 pairs, got 2$"):
        SignedFamily(Params(4, 3, 2), star(Params(4, 2, 2)).members)
    with pytest.raises(WrongSize, match=r"^expected 3 pairs, got 2$"):
        SignedFamily(Params(4, 3, 2), (((2, 1), (3, 1)), ((2, 1), (4, 1))))


def test_family_validation():
    with pytest.raises(ValueError):
        sf(3, 2, 2, [[(1, 1), (2, 1)], [(2, 1), (1, 1)]])  # duplicate after canon
    with pytest.raises(WrongSize):
        sf(3, 2, 2, [[(1, 1), (2, 1)], [(1, 1)]])
    with pytest.raises(OutOfRange):
        sf(3, 2, 2, [[(1, 1), (4, 1)]])
    with pytest.raises(OutOfRange):
        sf(3, 2, 2, [[(1, 3), (2, 1)]])
    with pytest.raises(DuplicateElement, match=r"^element 1 appears in two pairs$"):
        sf(3, 2, 2, [[(1, 1), (1, 2)]])


def test_family_canonical_storage():
    fam = sf(3, 2, 2, [[(2, 2), (1, 1)], [(1, 1), (2, 1)]])
    assert fam.members == (((1, 1), (2, 1)), ((1, 1), (2, 2)))
    assert ((1, 1), (2, 2)) in fam
    assert len(fam) == 2
    assert fam == sf(3, 2, 2, [[(1, 1), (2, 1)], [(1, 1), (2, 2)]])
