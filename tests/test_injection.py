"""Injection pipeline: partition, strip, supports, matching, assembly."""

import dataclasses
import functools
import itertools
import re

import pytest
from conftest import (
    MissingPair,
    assert_target_refused,
    intersecting_corpus,
    pairs_shared,
    pairwise_intersecting,
    plain,
    proof_step_report,
    reference_block_sizes,
    reference_certificate_to_json,
    reference_complements_in_tail,
    reference_partition,
    sf,
    signed_versions,
    strip_first,
)

from signedfam import (
    CertificateReport,
    InjectionCertificate,
    Params,
    SignedFamily,
    assemble_injection,
    complements_in_tail,
    match_to_shadow,
    partition_family,
    random_maximal_intersecting,
    sign_assign,
    star,
    support,
    universe,
    verify_certificate,
)
from signedfam.core import _canonical_family, bound_value, make_signed_set
from signedfam.errors import (
    ContainsOne,
    Error,
    GroupOverflow,
    NoPerfectMatching,
    NotIntersecting,
    UnsupportedRange,
)
from signedfam.jsonl import certificate_to_json


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
    assert out == (((2, 2),),)
    out = strip_first(sf(4, 2, 2, [[(1, 2), (3, 1)], [(1, 2), (4, 2)]]), 2)
    assert out == (((3, 1),), ((4, 2),))
    with pytest.raises(MissingPair):
        strip_first(sf(3, 2, 2, [[(2, 1), (3, 1)]]), 1)


def test_build_supports():
    # the free class is grouped by support: one class per distinct support
    def supports(fam):
        return tuple(sorted(support(ms[0]) for ms in complements_in_tail(fam).values()))

    fam = sf(3, 2, 2, [[(2, 1), (3, 1)], [(2, 2), (3, 2)]])
    assert supports(fam) == ((2, 3),)
    assert supports(sf(3, 2, 2, [])) == ()
    free = partition_family(six_sets_through_pair_2_1()).free
    assert supports(free) == ((2, 3), (2, 4))
    for members in complements_in_tail(free).values():
        assert {support(m) for m in members} == {support(members[0])}


def test_complements_in_tail():
    # one class per support, keyed by its complement within {2, ..., n}
    free = partition_family(six_sets_through_pair_2_1()).free
    classes = complements_in_tail(free)
    assert classes == {
        (4,): [((2, 1), (3, 1)), ((2, 1), (3, 2))],
        (3,): [((2, 1), (4, 1)), ((2, 1), (4, 2))],
    }
    assert plain(classes) == ((3,), (4,))
    pair = sf(3, 2, 2, [[(2, 1), (3, 1)], [(2, 2), (3, 2)]])
    assert complements_in_tail(pair) == {(): list(pair.members)}
    assert complements_in_tail(sf(2, 1, 2, [[(2, 1)]])) == {(): [((2, 1),)]}
    assert complements_in_tail(sf(3, 2, 2, [])) == {}
    with pytest.raises(ContainsOne):
        complements_in_tail(sf(4, 2, 2, [[(1, 1), (2, 1)]]))


def test_signed_versions():
    out = signed_versions(((3,), (4,)), 2)
    assert out == (((3, 1),), ((3, 2),), ((4, 1),), ((4, 2),))
    assert signed_versions(((),), 2) == ((),)
    assert signed_versions((), 2) == ()


def test_match_identity_at_equal_size():
    # (4,2,r) tails have one element, and k - 1 = 1
    assert match_to_shadow(((3,), (4,)), 2) == {(3,): (3,), (4,): (4,)}


def test_match_degenerate_empty_member():
    # at (2,1,r) the one tail is empty, and k - 1 = 0
    assert match_to_shadow(((),), 1) == {(): ()}
    assert match_to_shadow((), 2) == {}


def test_match_into_strict_shadow():
    # (5,2,r) tails have two elements, so targets are singletons
    tails = ((2, 3), (2, 4), (3, 4))
    assignment = match_to_shadow(tails, 2)
    images = list(assignment.values())
    assert len(set(images)) == len(tails)
    for src, dst in assignment.items():
        assert set(dst) <= set(src)
        assert len(dst) == 1


def test_match_reports_infeasibility():
    # six 2-sets over a 4-element pool cannot inject into 4 singletons
    bad = ((2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5))
    with pytest.raises(NoPerfectMatching) as exc:
        match_to_shadow(bad, 2)
    assert str(exc.value) == "no injective shadow assignment covers (3, 5)"


def test_sign_assign_hand_traced():
    classes = {(4,): [((2, 1), (3, 1)), ((2, 1), (3, 2))]}
    sigma = {(4,): (4,)}
    out = sign_assign(classes, sigma, 2)
    assert out == {
        ((2, 1), (3, 1)): ((4, 1),),
        ((2, 1), (3, 2)): ((4, 2),),
    }


def test_sign_assign_empty():
    assert sign_assign({}, {}, 2) == {}


def test_sign_assign_reports_uncovered_support_as_matching_fault():
    # supports (2,3) and (2,4) have tail complements (4,) and (3,); only one is matched
    classes = complements_in_tail(sf(4, 2, 2, [[(2, 1), (3, 1)], [(2, 1), (4, 1)]]))
    with pytest.raises(NoPerfectMatching) as exc:
        sign_assign(classes, {(4,): (4,)}, 2)
    assert str(exc.value) == "matching does not cover the tail complement (3,)"


def test_sign_assign_group_overflow():
    # three members on one support cannot pairwise intersect when r=2, k=2
    free = sf(4, 2, 2, [[(2, 1), (3, 1)], [(2, 1), (3, 2)], [(2, 2), (3, 1)]])
    with pytest.raises(GroupOverflow) as exc:
        sign_assign(complements_in_tail(free), {(4,): (4,)}, 2)
    assert str(exc.value) == (
        "support (2, 3) carries 3 members, more than the 2 that can pairwise intersect"
    )


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
    tampered = cert.targets[:2] + cert.targets[:1] + cert.targets[3:]
    bad = type(cert)(domain=cert.domain, targets=tampered)
    rep = verify_certificate(bad)
    assert not rep.ok
    assert any("shared" in msg for msg in rep.problems)


def test_verify_certificate_flags_missing_anchor_pair():
    cert = assemble_injection(star(Params(4, 2, 2)))
    bad = type(cert)(domain=cert.domain, targets=(((2, 1), (3, 1)),) + cert.targets[1:])
    rep = verify_certificate(bad)
    assert not rep.ok
    assert any("(1, 1)" in msg for msg in rep.problems)


@pytest.mark.parametrize("params", [Params(4, 2, 2), Params(5, 2, 3)])
def test_bound_needs_no_problem_of_its_own(params):
    # the whole universe mapped onto the star's members in turn: the domain
    # is over the bound, and the shared targets alone say so
    u, s = universe(params), star(params).members
    targets = tuple(itertools.islice(itertools.cycle(s), len(u)))
    rep = verify_certificate(InjectionCertificate(u, targets))
    assert len(u) > bound_value(params) == len(s)
    assert len(rep.problems) == len(s)
    assert all(re.fullmatch(r"target .* is shared by sources .*", p) for p in rep.problems)


def _relabelled(cert, params):
    """cert with its domain's members relabelled to params, targets kept.

    The members may not be signed k-sets for params, which the public
    constructor refuses, so the domain is built unchecked.
    """
    return InjectionCertificate(_canonical_family(params, cert.domain.members), cert.targets)


def test_verify_certificate_flags_relabelled_params():
    # params is the domain's, so relabelling the certificate relabels its domain,
    # and the targets are judged against the new params
    cert = assemble_injection(star(Params(4, 2, 2)))
    # at (5,2,2) the bound is 8 and the star's 6 targets are valid: nothing disagrees
    rep = verify_certificate(_relabelled(cert, Params(5, 2, 2)))
    assert rep.ok
    # at (4,3,2) every 2-pair target has the wrong size
    rep = verify_certificate(_relabelled(cert, Params(4, 3, 2)))
    assert not rep.ok
    assert rep.problems == tuple(
        f"target {t} of source {s} is invalid: expected 3 pairs, got 2"
        for s, t in cert.mapping
    )


def test_block_sizes_are_the_partition_class_sizes():
    # block_sizes is read off the domain by partition_family's rule, whatever the
    # targets, and agrees with a count of the members' first pairs
    families = [fam for _, fam in intersecting_corpus()] + list(cut_corpus())
    for fam in families:
        part = partition_family(fam)
        want = (len(part.free),) + tuple(len(b) for b in part.anchored)
        assert want == reference_block_sizes(fam), fam
        assert InjectionCertificate(fam, fam.members).block_sizes == want, fam
    cert = assemble_injection(star(Params(4, 2, 2)))
    with pytest.raises(TypeError, match="block_sizes"):
        dataclasses.replace(cert, block_sizes=(99, 0, 0))


@pytest.mark.parametrize("target", [((1, 1), [2, 1]), 7, ((1, 1), (2,))])
def test_verify_certificate_reports_misshapen_target(target):
    # not a tuple of integer pairs: the certificate cannot be built to be verified
    cert = assemble_injection(star(Params(4, 2, 2)))
    assert_target_refused(cert, 1, target)


class _PairSubclass(tuple):
    """A tuple subclass: its instances equal and hash as the plain pairs they hold."""


@pytest.mark.parametrize(
    "bad",
    [
        ((1.0, 1), (4, 1)),
        ((True, 1), (4, 1)),
        ((1, 1), (4, True)),
        (_PairSubclass((1, 1)), (4, 1)),
    ],
)
def test_verify_certificate_type_checks_every_entry(bad):
    # each bad target equals ((1, 1), (4, 1)), and the earlier targets hold an
    # int (1, 1), so a check of distinct pairs alone sees only int pairs
    p = Params(4, 2, 2)
    domain = SignedFamily(p, (((2, 1), (3, 1)), ((2, 1), (3, 2)), ((2, 1), (4, 1))))
    cert = InjectionCertificate(domain, (((1, 1), (2, 1)), ((1, 1), (3, 1)), ((1, 1), (4, 1))))
    assert verify_certificate(cert).ok
    assert_target_refused(cert, 2, bad)


def test_verify_certificate_reports_misshapen_targets_in_mapping_order():
    # the first misshapen target in domain order is the one refused; without
    # the misshapen targets, a real share is still reported
    cert = assemble_injection(star(Params(4, 2, 2)))
    s0, s1, s2 = cert.domain.members[:3]
    t0 = cert.targets[0]
    edited = (t0, 7, t0, 7) + cert.targets[4:]
    with pytest.raises(TypeError, match=rf"^target 7 of source {re.escape(str(s1))} is not"):
        dataclasses.replace(cert, targets=edited)
    shared = dataclasses.replace(cert, targets=(t0, cert.targets[1], t0) + cert.targets[3:])
    assert verify_certificate(shared).problems == (f"target {t0} is shared by sources {[s0, s2]}",)


def test_certificate_stores_its_targets_as_a_tuple():
    # a list of targets builds the same value: equal, equally hashed, written alike
    cert = assemble_injection(star(Params(4, 2, 2)))
    for listed in (
        InjectionCertificate(cert.domain, list(cert.targets)),
        dataclasses.replace(cert, targets=list(cert.targets)),
    ):
        assert type(listed.targets) is tuple
        assert listed == cert and hash(listed) == hash(cert)
        assert certificate_to_json(listed) == certificate_to_json(cert)


def in_range_corpus():
    """The intersecting_corpus() families that assemble_injection accepts."""
    for label, fam in intersecting_corpus():
        p = fam.params
        in_range = p.r >= 2 and 2 * p.k <= p.n and {len(m) for m in fam} <= {p.k}
        if in_range and pairwise_intersecting(fam):
            yield label, fam


def test_mapping_is_the_sorted_pairs_in_domain_order():
    # the old construction sorted the pairs; domain order must give the same tuple
    checked = 0
    for label, fam in in_range_corpus():
        cert = assemble_injection(fam)
        assert cert.mapping == tuple(sorted(cert.mapping)), label
        assert tuple(s for s, _ in cert.mapping) == fam.members, label
        checked += 1
    assert checked > 600


def test_proof_steps_on_enumerated_families():
    from signedfam import enumerate_maximal_intersecting

    for fam in enumerate_maximal_intersecting(Params(4, 2, 2)):
        report = proof_step_report(fam)
        assert all(report.values()), report
        cert = assemble_injection(fam)
        assert verify_certificate(cert).ok


def reference_verify_certificate(cert):
    """verify_certificate before its one-pass target check, kept as a test oracle.

    Targets are compared for sharing in canonical form.  Faults an
    InjectionCertificate cannot hold (UNSTATABLE) are not looked for,
    and neither is a domain over the bound: distinct valid targets are
    distinct star members, so such a domain always shows a shared or
    invalid target.
    """
    problems = []
    p = cert.params
    by_target = {}
    for s, t in cert.mapping:
        # one set listed in two pair orders is one target
        try:
            key = make_signed_set(t, p) if (1, 1) in t else t
        except Error:
            key = t
        by_target.setdefault(key, []).append(s)
    for t, srcs in sorted(by_target.items()):
        if len(srcs) > 1:
            problems.append(f"target {t} is shared by sources {srcs}")
    for s, t in cert.mapping:
        if (1, 1) not in t:
            problems.append(f"target {t} of source {s} misses the pair (1, 1)")
            continue
        try:
            make_signed_set(t, p)
        except Error as exc:
            problems.append(f"target {t} of source {s} is invalid: {exc}")
    return CertificateReport(tuple(problems))


SEEDED_CERTS = [
    assemble_injection(random_maximal_intersecting(p, seed))
    for p in (Params(8, 4, 2), Params(9, 3, 3), Params(9, 4, 2))
    for seed in range(20)
]


def reference_tail_complements(free):
    """The distinct supports of free, each complemented within {2, ..., n}, sorted."""
    tail = range(2, free.params.n + 1)
    supports = {support(m) for m in free.members}
    return plain(tuple(x for x in tail if x not in sup) for sup in supports)


def reference_sign_assign(free, matching):
    """Regroup the free class by support and sign each class over its matched target."""
    p = free.params
    groups = {}
    for m in free.members:
        groups.setdefault(support(m), []).append(m)
    out = {}
    for sup in sorted(groups):
        members = groups[sup]
        limit = p.r ** (len(sup) - 1)
        if len(members) > limit:
            raise GroupOverflow(f"support {sup} carries {len(members)} members")
        hidden = set(sup)
        target = matching[tuple(x for x in range(2, p.n + 1) if x not in hidden)]
        vectors = itertools.product(range(1, p.r + 1), repeat=len(target))
        for m, vec in zip(members, vectors):
            out[m] = tuple(zip(target, vec))
    return out


def test_free_class_images_match_reference():
    families = [fam for _, fam in in_range_corpus()] + [c.domain for c in SEEDED_CERTS]
    for fam in families:
        free = partition_family(fam).free
        tails = reference_tail_complements(free)
        want = reference_sign_assign(free, match_to_shadow(tails, fam.params.k))
        classes = complements_in_tail(free)
        assert plain(classes) == tails
        got = sign_assign(classes, match_to_shadow(tails, fam.params.k), fam.params.r)
        assert got == want
    assert len(families) > 660


def test_images_share_one_tuple_per_pair():
    # a builder that zipped fresh pairs would make one tuple per occurrence
    for cert in SEEDED_CERTS:
        fam, r = cert.domain, cert.params.r
        part = partition_family(fam)
        classes = complements_in_tail(part.free)
        housed = sign_assign(classes, match_to_shadow(tuple(sorted(classes)), fam.params.k), r)
        assert pairs_shared(housed.values())
        images = dict(cert.mapping)
        assert pairs_shared(images[m] for m in part.free)
        for block in part.anchored[1:]:
            assert pairs_shared(images[m] for m in block)
    assert sum(len(partition_family(c.domain).free) > 1 for c in SEEDED_CERTS) > 40
    assert sum(len(partition_family(c.domain).anchored[1]) > 1 for c in SEEDED_CERTS) > 40


def test_matching_calls_go_through_the_module_globals(monkeypatch):
    # perfbench/spans.py times each stage, and the shadow match_to_shadow
    # takes, by rebinding these names in signedfam.injection; a call that
    # bypassed them, or a stage folded into assemble_injection, would leave
    # its wrapper wrapping nothing
    import signedfam.injection as injection

    names = ("partition_family", "complements_in_tail", "match_to_shadow", "shadow_to",
             "sign_assign", "verify_certificate")
    results = {name: [] for name in names}
    for name, calls in results.items():

        def counted(*args, fn=getattr(injection, name), calls=calls):
            calls.append(fn(*args))
            return calls[-1]

        monkeypatch.setattr(injection, name, counted)
    fam = six_sets_through_pair_2_1()
    assert len(partition_family(fam).free) == 4
    injection.assemble_injection(fam)
    assert {name: len(calls) for name, calls in results.items()} == dict.fromkeys(results, 1)
    assert len(results["shadow_to"][0]) > 0


def through_2_1_avoiding_1_1():
    """The signed 3-sets at (9,3,3) that hold (2, 1) and not (1, 1).

    Its (1, 1) block is empty, so its targets start with a shifted block:
    block sizes a0 = 189, a = [0, 21, 21].
    """
    sets = [
        list(zip(c, v))
        for c in itertools.combinations(range(1, 10), 3)
        for v in itertools.product((1, 2, 3), repeat=3)
    ]
    return sf(9, 3, 3, [m for m in sets if (2, 1) in m and (1, 1) not in m])


@functools.cache
def cut_corpus():
    """Families whose blocks the canonical-order cuts must find.

    Every SEEDED_CERTS domain; ten seeded random maximal families at each
    of r = 2, 3 and 4; each of those with one partition class emptied, in
    turn; and a (9,3,3) family with an empty (1, 1) block.
    """
    families = [c.domain for c in SEEDED_CERTS]
    randoms = [
        random_maximal_intersecting(p, seed)
        for p in (Params(6, 3, 2), Params(7, 3, 3), Params(6, 3, 4))
        for seed in range(10)
    ]
    families += randoms
    for fam in randoms:
        firsts = [(0,)] + [(1, i) for i in range(1, fam.params.r + 1)]
        for first in firsts:
            # (0,) stands for the free class: members whose first pair is not (1, i)
            kept = [m for m in fam.members if (m[0] if m[0][0] == 1 else (0,)) != first]
            families.append(SignedFamily(fam.params, tuple(kept)))
    families.append(through_2_1_avoiding_1_1())
    return tuple(families)


def test_cut_corpus_has_empty_classes_at_every_position():
    shapes = [reference_block_sizes(fam) for fam in cut_corpus()]
    for r in (2, 3, 4):
        for i in range(r + 1):
            # class i empty while a later class, or an earlier one, is not
            assert any(len(a) == r + 1 and a[i] == 0 and sum(a) > 0 for a in shapes), (r, i)
    assert (189, 0, 21, 21) in shapes


def test_partition_matches_the_member_loop_reference():
    for fam in cut_corpus():
        part = partition_family(fam)
        free, anchored = reference_partition(fam)
        assert part.free.members == free
        assert tuple(b.members for b in part.anchored) == anchored
        assert {b.params for b in (part.free,) + part.anchored} == {fam.params}


def test_complements_in_tail_match_the_support_reference():
    for fam in cut_corpus():
        free = partition_family(fam).free
        # equal as dicts and in class order, which fixes the matching's input
        got = complements_in_tail(free)
        assert list(got.items()) == list(reference_complements_in_tail(free).items())
        if len(free) < len(fam):
            with pytest.raises(ContainsOne) as want:
                reference_complements_in_tail(fam)
            with pytest.raises(ContainsOne, match=f"^{re.escape(str(want.value))}$"):
                complements_in_tail(fam)


def test_targets_start_with_a_shifted_block_when_the_1_1_block_is_empty():
    fam = through_2_1_avoiding_1_1()
    cert = assemble_injection(fam)
    assert cert.block_sizes == (189, 0, 21, 21)
    assert fam.members[0] == ((1, 2), (2, 1), (3, 1))
    assert cert.targets[0] == ((1, 1), (2, 2), (3, 2))
    assert verify_certificate(cert).ok


def _with_last_pair(cert, indices, pair):
    """cert.targets with the last pair of each target in indices replaced by pair."""
    return tuple(t[:-1] + (pair,) if i in indices else t for i, t in enumerate(cert.targets))


#: Targets whose fault only the range or order part of the one-pass check can see.
BAD_PAIRS = {
    # element n + 1 still increases along the target
    "out-of-range pair in one target": lambda cert: InjectionCertificate(
        cert.domain, _with_last_pair(cert, {1}, (cert.params.n + 1, 1))
    ),
    "out-of-range pair object in several targets": lambda cert: InjectionCertificate(
        cert.domain, _with_last_pair(cert, {0, 2, 5}, (cert.params.n + 1, 1))
    ),
    # the last element repeats an earlier one, with a sign in range
    "elements out of order at the last position": lambda cert: InjectionCertificate(
        cert.domain,
        _with_last_pair(cert, {3}, (cert.targets[3][1][0], cert.targets[3][-1][1])),
    ),
    # a certificate already checked once: its distinct pairs must be gathered anew
    "bad pair brought in by replace": lambda cert: dataclasses.replace(
        cert, targets=_with_last_pair(cert, {4}, (cert.targets[4][-1][0], 0))
    ),
}


@pytest.mark.parametrize("name", list(BAD_PAIRS))
def test_verify_certificate_refuses_bad_pairs(name):
    for cert in SEEDED_CERTS[::4]:
        assert verify_certificate(cert).ok
        bad = BAD_PAIRS[name](cert)
        rep = verify_certificate(bad)
        assert not rep.ok
        assert rep == reference_verify_certificate(bad)


def test_verify_certificate_matches_reference_on_valid():
    for cert in SEEDED_CERTS:
        rep = verify_certificate(cert)
        assert rep == reference_verify_certificate(cert)
        assert rep.ok


def _retarget(i, new_target):
    """Corrupt target i."""

    def corrupt(cert):
        t = list(cert.targets)
        t[i] = new_target(cert.params, t[i])
        return dataclasses.replace(cert, targets=tuple(t))

    return corrupt


def _remap(edit):
    return lambda cert: dataclasses.replace(cert, targets=tuple(edit(list(cert.targets))))


def _without_anchor(p, t):
    return tuple((x, 1) for x in range(2, p.k + 2))


def _sign_above_range(p, t):
    return t[:-1] + ((t[-1][0], p.r + 1),)


_shared_target = _remap(lambda t: t[:2] + [t[0]] + t[3:])


def _universe_to_itself(cert):
    u = universe(cert.params)
    return InjectionCertificate(u, u.members)


CORRUPTIONS = {
    "shared target": _shared_target,
    "target without (1, 1)": _retarget(1, _without_anchor),
    "out-of-range element": _retarget(2, lambda p, t: t[:-1] + ((p.n + 1, 1),)),
    "element below range": _retarget(0, lambda p, t: t[:1] + ((0, 1),) + t[2:]),
    "out-of-range sign": _retarget(3, _sign_above_range),
    "sign zero": _retarget(-1, lambda p, t: t[:-1] + ((t[-1][0], 0),)),
    "repeated element": _retarget(4, lambda p, t: t[:-1] + ((t[-2][0], t[-1][1]),)),
    "wrong size": _retarget(5, lambda p, t: t[:-1]),
    "reordered target": _retarget(6, lambda p, t: t[::-1]),
    "one set in two pair orders": _remap(
        lambda t: t[:1] + [t[0][:-2] + t[0][:-3:-1]] + t[2:]
    ),
    "domain over the bound": _universe_to_itself,
    "relabelled params": lambda cert: _relabelled(
        cert, Params(cert.params.n, cert.params.k + 1, cert.params.r)
    ),
    "several faults": lambda cert: _retarget(4, _without_anchor)(
        _retarget(3, _sign_above_range)(_retarget(1, lambda p, t: t[:-1])(_shared_target(cert)))
    ),
}

#: Faults a certificate can no longer state: the sources are the domain's
#: members, params is the domain's and every target is a tuple of integer
#: pairs, so each is refused on construction.
UNSTATABLE = {
    "duplicate source": (
        lambda cert: InjectionCertificate(
            SignedFamily(cert.params, cert.domain.members[:1] * 2 + cert.domain.members[2:]),
            cert.targets,
        ),
        ValueError,
        "duplicate member",
    ),
    "missing source": (
        lambda cert: InjectionCertificate(cert.domain, cert.targets[:3] + cert.targets[4:]),
        ValueError,
        "targets for a domain of",
    ),
    "extra source": (
        lambda cert: InjectionCertificate(cert.domain, cert.targets + cert.targets[:1]),
        ValueError,
        "targets for a domain of",
    ),
    "relabelled params": (
        lambda cert: dataclasses.replace(
            cert, params=Params(cert.params.n + 1, cert.params.k, cert.params.r)
        ),
        TypeError,
        "params",
    ),
    "misshapen target": (
        lambda cert: dataclasses.replace(cert, targets=cert.targets[:1] + (7,) + cert.targets[2:]),
        TypeError,
        "^target 7 of source .* is not a tuple of integer pairs$",
    ),
    "float entry": (
        lambda cert: InjectionCertificate(
            cert.domain, (((1.0, 1),) + cert.targets[0][1:],) + cert.targets[1:]
        ),
        TypeError,
        r"^target \(\(1\.0, 1\), .* is not a tuple of integer pairs$",
    ),
}


@pytest.mark.parametrize("name", list(UNSTATABLE))
def test_unstatable_corruptions_cannot_be_built(name):
    build, error, text = UNSTATABLE[name]
    for cert in SEEDED_CERTS[::4]:
        with pytest.raises(error, match=text):
            build(cert)


@pytest.mark.parametrize("name", list(CORRUPTIONS))
def test_verify_certificate_matches_reference_on_corruptions(name):
    for cert in SEEDED_CERTS[::4]:
        bad = CORRUPTIONS[name](cert)
        rep = verify_certificate(bad)
        assert rep == reference_verify_certificate(bad)
        assert rep.ok is (name == "reordered target"), rep.problems


@pytest.mark.parametrize("name", list(CORRUPTIONS))
def test_certificate_bytes_match_reference_on_corruptions(name):
    # targets of the wrong size, range or order go through the same pair texts
    for cert in SEEDED_CERTS[::4]:
        bad = CORRUPTIONS[name](cert)
        assert certificate_to_json(bad) == reference_certificate_to_json(bad)
