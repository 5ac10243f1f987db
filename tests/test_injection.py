"""Injection pipeline: partition, strip, supports, matching, assembly."""

import pytest
from conftest import pf, proof_step_report, sf

from signedfam import (
    MatchingResult,
    Params,
    assemble_injection,
    build_supports,
    complements_in_tail,
    match_to_shadow,
    partition_family,
    sign_assign,
    signed_versions,
    star,
    strip_first,
    universe,
    verify_certificate,
)
from signedfam.errors import (
    ContainsOne,
    GroupOverflow,
    MissingPair,
    NoPerfectMatching,
    NotIntersecting,
    UnsupportedRange,
)


def six_sets_through_pair_2_1():
    """The (4,2,2) family of all six sets containing (2,1)."""
    p = Params(4, 2, 2)
    return sf(4, 2, 2, [m for m in universe(p).members if (2, 1) in m])


def test_partition_star_all_in_first_block():
    part = partition_family(star(Params(3, 2, 2)))
    assert len(part.free) == 0
    assert len(part.anchored[0]) == 4
    assert len(part.anchored[1]) == 0


def test_partition_free_only():
    fam = sf(3, 2, 2, [[(2, 1), (3, 1)]])
    part = partition_family(fam)
    assert part.free == fam
    assert all(len(b) == 0 for b in part.anchored)


def test_partition_classifies_and_reassembles():
    fam = six_sets_through_pair_2_1()
    part = partition_family(fam)
    # classify independently: by the sign carried on element 1, if any
    expect_free = {m for m in fam.members if all(x != 1 for x, _ in m)}
    assert part.free.member_set == expect_free
    assert len(part.free) == 4
    assert len(part.anchored[0]) == 1
    assert len(part.anchored[1]) == 1
    rebuilt = set()
    for block in (part.free,) + part.anchored:
        assert not (rebuilt & block.member_set)
        rebuilt |= block.member_set
    assert rebuilt == fam.member_set


def test_strip_first():
    out = strip_first(sf(3, 2, 2, [[(1, 1), (2, 2)]]), 1)
    assert out.members == (((2, 2),),)
    out = strip_first(sf(4, 2, 2, [[(1, 2), (3, 1)], [(1, 2), (4, 2)]]), 2)
    assert out.members == (((3, 1),), ((4, 2),))
    with pytest.raises(MissingPair):
        strip_first(sf(3, 2, 2, [[(2, 1), (3, 1)]]), 1)


def test_build_supports():
    fam = sf(3, 2, 2, [[(2, 1), (3, 1)], [(2, 2), (3, 2)]])
    assert build_supports(fam).members == ((2, 3),)
    assert build_supports(sf(3, 2, 2, [])).members == ()
    free = partition_family(six_sets_through_pair_2_1()).free
    assert build_supports(free).members == ((2, 3), (2, 4))


def test_complements_in_tail():
    assert complements_in_tail(pf(4, [[2, 3], [2, 4]]), 4).members == ((3,), (4,))
    assert complements_in_tail(pf(2, [[2]]), 2).members == ((),)
    with pytest.raises(ContainsOne):
        complements_in_tail(pf(4, [[1, 2]]), 4)


def test_signed_versions():
    out = signed_versions(pf(4, [[3], [4]]), 2)
    assert out.member_set == {((3, 1),), ((3, 2),), ((4, 1),), ((4, 2),)}
    assert signed_versions(pf(2, [[]]), 2).members == ((),)
    assert signed_versions(pf(2, []), 2).members == ()


def test_match_identity_at_equal_size():
    res = match_to_shadow(pf(4, [[3], [4]]))
    assert res.assignment == {(3,): (3,), (4,): (4,)}


def test_match_degenerate_empty_member():
    assert match_to_shadow(pf(2, [[]])).assignment == {(): ()}
    assert match_to_shadow(pf(5, [])).assignment == {}


def test_match_into_strict_shadow():
    # ground 5, member size 2, so targets are singletons
    tails = pf(5, [[2, 3], [2, 4], [3, 4]])
    res = match_to_shadow(tails)
    images = list(res.assignment.values())
    assert len(set(images)) == len(tails)
    for src, dst in res.assignment.items():
        assert set(dst) <= set(src)
        assert len(dst) == 1


def test_match_reports_infeasibility():
    # six 2-sets over a 4-element pool cannot inject into 4 singletons
    bad = pf(5, [[2, 3], [2, 4], [2, 5], [3, 4], [3, 5], [4, 5]])
    with pytest.raises(NoPerfectMatching):
        match_to_shadow(bad)


def test_sign_assign_hand_traced():
    free = sf(4, 2, 2, [[(2, 1), (3, 1)], [(2, 1), (3, 2)]])
    sigma = MatchingResult({(4,): (4,)})
    out = sign_assign(free, sigma)
    assert out == {
        ((2, 1), (3, 1)): ((4, 1),),
        ((2, 1), (3, 2)): ((4, 2),),
    }


def test_sign_assign_empty():
    assert sign_assign(sf(4, 2, 2, []), MatchingResult({})) == {}


def test_sign_assign_reports_uncovered_support_as_matching_fault():
    # supports (2,3) and (2,4) have tail complements (4,) and (3,); only one is matched
    free = sf(4, 2, 2, [[(2, 1), (3, 1)], [(2, 1), (4, 1)]])
    with pytest.raises(NoPerfectMatching):
        sign_assign(free, MatchingResult({(4,): (4,)}))


def test_sign_assign_group_overflow():
    # three members on one support cannot pairwise intersect when r=2, k=2
    free = sf(4, 2, 2, [[(2, 1), (3, 1)], [(2, 1), (3, 2)], [(2, 2), (3, 1)]])
    with pytest.raises(GroupOverflow):
        sign_assign(free, MatchingResult({(4,): (4,)}))


def test_assemble_star_is_fixed_point():
    fam = star(Params(4, 2, 2))
    cert = assemble_injection(fam)
    assert all(src == dst for src, dst in cert.mapping)
    assert cert.block_sizes == (0, 6, 0)
    assert verify_certificate(cert).ok


def test_assemble_worked_example_frozen():
    cert = assemble_injection(six_sets_through_pair_2_1())
    assert cert.mapping == (
        (((1, 1), (2, 1)), ((1, 1), (2, 1))),
        (((1, 2), (2, 1)), ((1, 1), (2, 2))),
        (((2, 1), (3, 1)), ((1, 1), (4, 1))),
        (((2, 1), (3, 2)), ((1, 1), (4, 2))),
        (((2, 1), (4, 1)), ((1, 1), (3, 1))),
        (((2, 1), (4, 2)), ((1, 1), (3, 2))),
    )
    assert cert.block_sizes == (4, 1, 1)
    assert verify_certificate(cert).ok


def test_assemble_k1_degenerate():
    cert = assemble_injection(sf(2, 1, 2, [[(2, 1)]]))
    assert cert.mapping == ((((2, 1),), ((1, 1),)),)


def test_assemble_empty_family():
    cert = assemble_injection(sf(4, 2, 2, []))
    assert cert.mapping == ()
    assert verify_certificate(cert).ok


def test_assemble_rejects_out_of_range():
    with pytest.raises(UnsupportedRange):
        assemble_injection(star(Params(5, 3, 2)))
    with pytest.raises(UnsupportedRange):
        assemble_injection(star(Params(4, 2, 1)))


def test_assemble_rejects_non_intersecting():
    with pytest.raises(NotIntersecting):
        assemble_injection(sf(4, 2, 2, [[(1, 1), (2, 1)], [(3, 1), (4, 1)]]))


def test_verify_certificate_flags_shared_target():
    cert = assemble_injection(six_sets_through_pair_2_1())
    first_target = cert.mapping[0][1]
    tampered = cert.mapping[:2] + tuple(
        (src, first_target) for src, _ in cert.mapping[2:3]
    ) + cert.mapping[3:]
    bad = type(cert)(
        params=cert.params,
        domain=cert.domain,
        mapping=tampered,
        block_sizes=cert.block_sizes,
    )
    rep = verify_certificate(bad)
    assert not rep.ok
    assert any("shared" in msg for msg in rep.problems)


def test_verify_certificate_flags_missing_anchor_pair():
    cert = assemble_injection(star(Params(4, 2, 2)))
    mapping = ((cert.mapping[0][0], ((2, 1), (3, 1))),) + cert.mapping[1:]
    bad = type(cert)(
        params=cert.params,
        domain=cert.domain,
        mapping=mapping,
        block_sizes=cert.block_sizes,
    )
    rep = verify_certificate(bad)
    assert not rep.ok
    assert any("(1, 1)" in msg for msg in rep.problems)


def test_proof_steps_on_enumerated_families():
    from signedfam import enumerate_maximal_intersecting

    for fam in enumerate_maximal_intersecting(Params(4, 2, 2)):
        report = proof_step_report(fam)
        assert all(report.values()), report
        cert = assemble_injection(fam)
        assert verify_certificate(cert).ok
