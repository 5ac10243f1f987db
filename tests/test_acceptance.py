"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
happen.  All checks are exact; there are no tolerances to tune.
"""

import itertools

import pytest
from conftest import (
    katona_holds,
    min_pairwise_intersection,
    plain,
    proof_step_report,
    sf,
)

from signedfam import (
    Params,
    SplitMix64,
    assemble_injection,
    bound_value,
    enumerate_maximal_intersecting,
    intersects,
    max_intersecting_exact,
    mod_one_based,
    random_maximal_intersecting,
    shadow_to,
    shift_signs,
    support,
    universe,
    verify_certificate,
)
from signedfam.jsonl import certificate_to_json

EXHAUSTIVE_PARAMS = [Params(4, 2, 2), Params(5, 2, 2)]
RANDOMIZED_PARAMS = [
    Params(6, 2, 2),
    Params(6, 3, 2),
    Params(7, 3, 2),
    Params(8, 4, 2),
    Params(6, 2, 3),
    Params(6, 3, 3),
]
RANDOM_SEEDS = range(500)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")


@pytest.fixture(scope="module")
def enumerated_families():
    return {p: enumerate_maximal_intersecting(p) for p in EXHAUSTIVE_PARAMS}


@pytest.fixture(scope="module")
def randomized_families():
    return {
        p: [random_maximal_intersecting(p, seed) for seed in RANDOM_SEEDS]
        for p in RANDOMIZED_PARAMS
    }


def test_criterion_1_bound_equality():
    # formula values; the exact search must agree and prove optimality
    cases = [
        (Params(2, 1, 2), 1),
        (Params(3, 1, 3), 1),
        (Params(3, 2, 2), 4),
        (Params(4, 2, 2), 6),
        (Params(4, 2, 3), 9),
        (Params(5, 2, 2), 8),
        (Params(6, 2, 2), 10),
        (Params(6, 3, 2), 40),
        (Params(4, 3, 2), 12),
        (Params(4, 4, 2), 8),
    ]
    failures = []
    for params, expected in cases:
        res = max_intersecting_exact(params)
        if not (res.exhausted and res.max_size == bound_value(params) == expected):
            failures.append((params, res.max_size, bound_value(params), expected))
    ok = not failures
    _report(1, ok, f"exact search equals the formula on {len(cases)} parameter sets")
    assert ok, failures


def test_criterion_2_r1_boundary():
    low = max_intersecting_exact(Params(3, 2, 1))
    high = max_intersecting_exact(Params(5, 2, 1))
    ok = (
        low.exhausted
        and low.max_size == 3
        and low.max_size > bound_value(Params(3, 2, 1)) == 2
        and high.exhausted
        and high.max_size == 4 == bound_value(Params(5, 2, 1))
    )
    _report(2, ok, "formula fails at (3,2,1) and holds at (5,2,1), as expected for r=1")
    assert ok


def test_criterion_3_injection_exhaustive(enumerated_families):
    failures = []
    total = 0
    for params, families in enumerated_families.items():
        for fam in families:
            total += 1
            cert = assemble_injection(fam)
            if not verify_certificate(cert).ok:
                failures.append((params, fam.members))
    ok = not failures
    _report(3, ok, f"all {total} maximal families at (4,2,2) and (5,2,2) inject cleanly")
    assert ok, failures


def test_criterion_4_injection_randomized(randomized_families):
    failures = []
    total = 0
    for params, families in randomized_families.items():
        bound = bound_value(params)
        for fam in families:
            total += 1
            cert = assemble_injection(fam)
            rep = verify_certificate(cert)
            if not (rep.ok and len(fam) <= bound):
                failures.append((params, len(fam)))
    ok = not failures
    _report(4, ok, f"{total} seeded random maximal families all yield valid certificates")
    assert ok, failures


def test_criterion_5_proof_step_invariants(enumerated_families, randomized_families):
    failures = []
    total = 0
    pools = list(enumerated_families.values()) + list(randomized_families.values())
    for families in pools:
        for fam in families:
            total += 1
            report = proof_step_report(fam)
            if not all(report.values()):
                failures.append((fam.params, report))
    ok = not failures
    _report(5, ok, f"per-class invariants hold on all {total} generated families")
    assert ok, failures


def _exhaustive_uniform_families():
    for n in range(1, 6):
        for s in range(1, min(n, 4) + 1):
            pool = list(itertools.combinations(range(1, n + 1), s))
            for mask in range(1, 1 << len(pool)):
                yield plain(pool[i] for i in range(len(pool)) if mask >> i & 1)


def _random_t_intersecting(rng):
    n = 5 + rng.below(5)  # 5..9
    s = 2 + rng.below(min(n - 1, 4) - 1)  # 2..min(n-1,4)
    if rng.below(2):
        # arbitrary family; t is whatever floor it happens to have
        pool = list(itertools.combinations(range(1, n + 1), s))
        rng.shuffle(pool)
        fam = plain(pool[: 2 + rng.below(11)])
        return fam, min_pairwise_intersection(fam)
    # kernel-forced family: every member contains a fixed t-set
    t = 1 + rng.below(s - 1) if s > 1 else 0
    ground = list(range(1, n + 1))
    rng.shuffle(ground)
    kernel = sorted(ground[:t])
    rest = sorted(ground[t:])
    extensions = list(itertools.combinations(rest, s - t))
    rng.shuffle(extensions)
    members = {tuple(sorted(kernel + list(ext))) for ext in extensions[: 2 + rng.below(11)]}
    return plain(members), t


def test_criterion_6_katona_suite():
    failures = 0
    exhaustive = 0
    for fam in _exhaustive_uniform_families():
        for t in range(min_pairwise_intersection(fam) + 1):
            exhaustive += 1
            if not katona_holds(fam, t):
                failures += 1
    rng = SplitMix64(60_006)
    randomized = 10_000
    for _ in range(randomized):
        fam, t = _random_t_intersecting(rng)
        if not katona_holds(fam, t):
            failures += 1
    ok = failures == 0
    _report(
        6,
        ok,
        f"shadow inequality holds in {exhaustive} exhaustive and {randomized} random checks",
    )
    assert ok


def test_criterion_7_worked_example_lock():
    p = Params(4, 2, 2)
    fam = sf(4, 2, 2, [m for m in universe(p).members if (2, 1) in m])
    expected_mapping = (
        (((1, 1), (2, 1)), ((1, 1), (2, 1))),
        (((1, 2), (2, 1)), ((1, 1), (2, 2))),
        (((2, 1), (3, 1)), ((1, 1), (4, 1))),
        (((2, 1), (3, 2)), ((1, 1), (4, 2))),
        (((2, 1), (4, 1)), ((1, 1), (3, 1))),
        (((2, 1), (4, 2)), ((1, 1), (3, 2))),
    )
    texts = [certificate_to_json(assemble_injection(fam)) for _ in range(3)]
    cert = assemble_injection(fam)
    ok = (
        cert.mapping == expected_mapping
        and len({t.encode("utf-8") for t in texts}) == 1
    )
    _report(7, ok, "hand-traced (4,2,2) certificate is exact and byte-stable")
    assert ok


def test_criterion_8_property_suites():
    cases = 10_000
    rng = SplitMix64(88_008)
    failures = []

    def random_signed_set(n, k, r):
        pool = list(range(1, n + 1))
        rng.shuffle(pool)
        return tuple(sorted((x, 1 + rng.below(r)) for x in pool[:k]))

    for _ in range(cases):
        r = 2 + rng.below(3)
        n = 4 + rng.below(4)
        k = 1 + rng.below(3)
        a = random_signed_set(n, k, r)
        b = random_signed_set(n, k, r)
        q1 = rng.below(4 * r + 1) - 2 * r
        q2 = rng.below(4 * r + 1) - 2 * r
        if shift_signs(shift_signs(a, q1, r), q2, r) != shift_signs(a, q1 + q2, r):
            failures.append(("group law", a, q1, q2, r))
        if shift_signs(a, 0, r) != a or shift_signs(a, r, r) != a:
            failures.append(("identity", a, r))
        if support(shift_signs(a, q1, r)) != support(a):
            failures.append(("support", a, q1, r))
        if intersects(shift_signs(a, q1, r), shift_signs(b, q1, r)) != intersects(a, b):
            failures.append(("intersection", a, b, q1, r))

    for _ in range(cases):
        y = 1 + rng.below(12)
        v = rng.below(6 * y + 1) - 3 * y
        m = mod_one_based(v, y)
        if not (1 <= m <= y and (m - v) % y == 0):
            failures.append(("mod", v, y, m))

    for _ in range(cases):
        n = 4 + rng.below(3)
        msize = 3 + rng.below(2)
        pool = list(itertools.combinations(range(1, n + 1), msize))
        rng.shuffle(pool)
        big = plain(pool[: 2 + rng.below(7)])
        small = big[: 1 + rng.below(len(big))]
        s1 = rng.below(msize + 1)
        s2 = rng.below(s1 + 1)
        if not set(shadow_to(small, s1)) <= set(shadow_to(big, s1)):
            failures.append(("monotone", big, small, s1))
        if shadow_to(shadow_to(big, s1), s2) != shadow_to(big, s2):
            failures.append(("compose", big, s1, s2))

    ok = not failures
    _report(8, ok, f"algebraic properties hold over {cases} cases per suite")
    assert ok, failures[:5]
