"""Search oracles: exact maximum, maximal enumeration, seeded sampling."""

import sys
import threading
from collections import OrderedDict
from math import comb

import pytest
from conftest import pair_mask

from signedfam import (
    Params,
    SignedFamily,
    SplitMix64,
    bound_value,
    enumerate_maximal_intersecting,
    intersects,
    is_intersecting,
    max_intersecting_exact,
    partition_family,
    random_maximal_intersecting,
    universe,
)
from signedfam import search
from signedfam.cli import main
from signedfam.errors import CapExceeded, TooLarge


def test_splitmix64_reference_vector():
    # published first outputs of the standard sequence seeded with 0
    g = SplitMix64(0)
    assert [g.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_splitmix64_against_independent_reimplementation():
    def reference(seed, count):
        out = []
        state = seed
        for _ in range(count):
            state = (state + 0x9E3779B97F4A7C15) % 2**64
            z = state
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
            out.append(z ^ (z >> 31))
        return out

    g = SplitMix64(987654321)
    assert [g.next_u64() for _ in range(50)] == reference(987654321, 50)


def reference_shuffle(gen, items):
    """Fisher-Yates with one below() call per swap, the documented sequence."""
    for i in range(len(items) - 1, 0, -1):
        j = gen.below(i + 1)
        items[i], items[j] = items[j], items[i]


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1, 987654321])
@pytest.mark.parametrize("length", [0, 1, 2, 3, 160, 1120, 2016, 2268])
def test_shuffle_matches_below_driven_reference(seed, length):
    # 1120, 2016 and 2268 are the universes of (8,4,2), (9,4,2) and (9,3,3)
    ref, got = SplitMix64(seed), SplitMix64(seed)
    want = list(range(length))
    reference_shuffle(ref, want)
    items = list(range(length))
    got.shuffle(items)
    assert items == want
    assert got.next_u64() == ref.next_u64()


def test_consecutive_shuffles_carry_state():
    # lengths repeat and change, so the state must carry across shuffles
    # whether or not the per-length constants were already built
    search._lane_constants.cache_clear()
    ref, got = SplitMix64(2**64 - 3), SplitMix64(2**64 - 3)
    for length in (2268, 5, 2268, 1120, 0, 5, 1, 777, 1120):
        want = list(range(length))
        reference_shuffle(ref, want)
        items = list(range(length))
        got.shuffle(items)
        assert items == want
        assert got._state == ref._state
    assert got.next_u64() == ref.next_u64()
    info = search._lane_constants.cache_info()
    assert (info.hits, info.misses) == (3, 4)


def test_shuffle_moves_items_of_any_type():
    items = [(x, "s" * x) for x in range(40)]
    want = list(items)
    reference_shuffle(SplitMix64(11), want)
    SplitMix64(11).shuffle(items)
    assert items == want
    assert sorted(items) == [(x, "s" * x) for x in range(40)]


def test_exact_no_edges_case():
    res = max_intersecting_exact(Params(2, 1, 2))
    assert res.max_size == 1
    assert res.exhausted
    assert len(res.witness) == 1


def test_exact_matches_bound():
    for p in (Params(4, 2, 2), Params(4, 2, 3), Params(3, 2, 2)):
        res = max_intersecting_exact(p)
        assert res.exhausted
        assert res.max_size == bound_value(p)
        assert is_intersecting(res.witness)
        assert len(res.witness) == res.max_size


def test_exact_r1_violation():
    res = max_intersecting_exact(Params(3, 2, 1))
    assert res.exhausted
    assert res.max_size == 3
    assert res.max_size > bound_value(Params(3, 2, 1)) == 2


def test_exact_budget_exhaustion():
    res = max_intersecting_exact(Params(5, 2, 2), node_budget=1)
    assert not res.exhausted
    assert res.max_size >= 1
    assert is_intersecting(res.witness)


def test_enumerate_singleton_universes():
    fams = enumerate_maximal_intersecting(Params(2, 1, 2))
    assert len(fams) == 4
    assert all(len(f) == 1 for f in fams)
    fams = enumerate_maximal_intersecting(Params(3, 1, 2))
    assert len(fams) == 6
    assert all(len(f) == 1 for f in fams)


def test_enumerate_families_are_maximal():
    p = Params(4, 2, 2)
    everything = universe(p).members
    fams = enumerate_maximal_intersecting(p)
    assert len(fams) == len({f.members for f in fams})
    for fam in fams:
        assert is_intersecting(fam)
        for candidate in everything:
            if candidate in fam:
                continue
            assert not all(intersects(candidate, m) for m in fam.members)


def test_enumerate_deterministic_order():
    a = enumerate_maximal_intersecting(Params(4, 2, 2))
    b = enumerate_maximal_intersecting(Params(4, 2, 2))
    assert a == b


def test_enumerate_cap():
    with pytest.raises(CapExceeded) as info:
        enumerate_maximal_intersecting(Params(4, 2, 2), cap=5)
    assert len(info.value.partial) == 5
    assert all(is_intersecting(f) for f in info.value.partial)


def test_random_family_determinism():
    p = Params(4, 2, 2)
    assert random_maximal_intersecting(p, 7) == random_maximal_intersecting(p, 7)
    seeds = {random_maximal_intersecting(p, s).members for s in range(30)}
    assert len(seeds) > 1


def test_random_family_maximal_and_bounded():
    p = Params(4, 2, 2)
    everything = universe(p).members
    hit_bound = False
    for seed in range(1000):
        fam = random_maximal_intersecting(p, seed)
        assert is_intersecting(fam)
        assert len(fam) <= 6
        hit_bound = hit_bound or len(fam) == 6
        for candidate in everything:
            if candidate in fam:
                continue
            assert not all(intersects(candidate, m) for m in fam.members)
    assert hit_bound


def test_verify_bound_reports():
    res = max_intersecting_exact(Params(4, 2, 3))
    assert res.exhausted
    assert res.max_size == bound_value(Params(4, 2, 3)) == 9
    res = max_intersecting_exact(Params(6, 3, 2))
    assert res.exhausted
    assert res.max_size == bound_value(Params(6, 3, 2)) == 40
    res = max_intersecting_exact(Params(3, 2, 1))
    assert res.exhausted
    assert (res.max_size, bound_value(Params(3, 2, 1))) == (3, 2)
    res = max_intersecting_exact(Params(5, 2, 2), node_budget=1)
    assert not res.exhausted


def pairwise_graph(params):
    """The O(V^2) pair loop over pair_mask encodings: the reference rows."""
    verts = universe(params).members
    masks = [pair_mask(v, params.r) for v in verts]
    adj = [0] * len(verts)
    for i in range(len(verts)):
        for j in range(i + 1, len(verts)):
            if masks[i] & masks[j]:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return verts, tuple(adj)


SMALL_GRAPHS = [
    Params(n, k, r)
    for n in range(1, 8)
    for k in range(1, n + 1)
    for r in range(1, 4)
    if r**k * comb(n, k) <= 600
]


@pytest.mark.parametrize("params", SMALL_GRAPHS, ids=str)
def test_slot_mask_graph_matches_pairwise_reference(params):
    verts, adj = search._intersection_graph(params)
    ref_verts, ref_adj = pairwise_graph(params)
    assert verts == ref_verts
    assert adj == ref_adj
    # vertex-transitivity: one degree everywhere, so no reordering helps
    assert len({row.bit_count() for row in adj}) == 1


def test_search_families_are_canonical():
    # families built without re-validation equal their validated rebuilds
    def check(fam):
        assert fam == SignedFamily(fam.params, fam.members)

    fams = enumerate_maximal_intersecting(Params(5, 2, 2))
    for fam in fams:
        check(fam)
    assert [f.members for f in fams] == sorted(f.members for f in fams)
    p = Params(8, 4, 2)
    for seed in range(20):
        fam = random_maximal_intersecting(p, seed)
        check(fam)
        part = partition_family(fam)
        for block in (part.free,) + part.anchored:
            check(block)
    check(max_intersecting_exact(Params(7, 3, 3)).witness)


def all_root_exact(params):
    """The search before fixing vertex 0: every root candidate is branched on."""
    verts, adj = search._intersection_graph(params)
    best = search._greedy_clique(adj, range(len(verts)))
    cur = []

    def expand(p_mask):
        nonlocal best
        col_order, col_bound = [], []
        uncoloured, colour = p_mask, 0
        while uncoloured:
            colour += 1
            avail = uncoloured
            while avail:
                b = avail & -avail
                v = b.bit_length() - 1
                avail ^= b
                avail &= ~adj[v]
                uncoloured ^= b
                col_order.append(v)
                col_bound.append(colour)
        live = p_mask
        for i in range(len(col_order) - 1, -1, -1):
            if len(cur) + col_bound[i] <= len(best):
                return
            v = col_order[i]
            cur.append(v)
            if live & adj[v]:
                expand(live & adj[v])
            elif len(cur) > len(best):
                best = cur.copy()
            cur.pop()
            live ^= 1 << v

    if verts:
        expand((1 << len(verts)) - 1)
    return len(best), tuple(verts[v] for v in sorted(best))


# Neither search finishes (7,6,2) within millions of nodes, so it has no
# exhausted result to compare; every other small graph is compared.
@pytest.mark.parametrize(
    "params", [p for p in SMALL_GRAPHS if p != Params(7, 6, 2)], ids=str
)
def test_exact_fixed_vertex_matches_all_root_reference(params):
    res = max_intersecting_exact(params)
    assert res.exhausted
    assert (res.max_size, res.witness.members) == all_root_exact(params)


@pytest.mark.parametrize(
    "params, nodes",
    [
        (Params(6, 3, 2), 1),
        (Params(8, 4, 2), 1),
        (Params(7, 3, 3), 5),
        (Params(8, 3, 3), 5),
        (Params(9, 3, 3), 6),
        (Params(9, 4, 2), 70),
        (Params(10, 4, 2), 94),
    ],
    ids=str,
)
def test_exact_nodes_explored(params, nodes):
    res = max_intersecting_exact(params)
    assert res.exhausted
    assert res.max_size == bound_value(params)
    assert res.nodes_explored == nodes


def bit_indices(mask):
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def generator_pivot_cliques(params, cap, pivots=None):
    """Bron-Kerbosch with the full generator pivot scan, in discovery order.

    Returns the first cap + 1 maximal cliques as index tuples.  When a
    pivots list is given, the pivot of every call with at least two
    candidates is appended to it, in call order.
    """
    verts, adj = search._intersection_graph(params)
    found, cur = [], []

    def bk(p_mask, x_mask):
        if len(found) > cap:
            return
        if not p_mask and not x_mask:
            found.append(tuple(cur))
            return
        pivot, best = -1, -1
        for u in bit_indices(p_mask | x_mask):
            c = (p_mask & adj[u]).bit_count()
            if c > best:
                best, pivot = c, u
        if pivots is not None and p_mask.bit_count() >= 2:
            pivots.append(pivot)
        p, x = p_mask, x_mask
        for v in bit_indices(p_mask & ~adj[pivot]):
            cur.append(v)
            bk(p & adj[v], x & adj[v])
            cur.pop()
            p ^= 1 << v
            x |= 1 << v

    if verts:
        bk((1 << len(verts)) - 1, 0)
    return [tuple(verts[i] for i in sorted(c)) for c in found[: cap + 1]]


# (5,3,2), (4,3,3), (3,3,3) and (4,4,2) resolve many one-candidate
# children inline; (2,1,2) has only size-1 cliques, found with no candidate.
@pytest.mark.parametrize(
    "params",
    [
        Params(4, 2, 2),
        Params(5, 2, 2),
        Params(4, 2, 3),
        Params(6, 2, 2),
        Params(5, 3, 2),
        Params(4, 3, 3),
        Params(3, 3, 3),
        Params(4, 4, 2),
        Params(2, 1, 2),
    ],
    ids=str,
)
def test_enumerate_matches_generator_pivot_reference(params):
    fams = enumerate_maximal_intersecting(params)
    ref = generator_pivot_cliques(params, 10**7)
    assert [f.members for f in fams] == sorted(ref)


def test_enumerate_pivots_match_generator_pivot_reference(monkeypatch):
    # bk complements only its pivot's row, so rows that log their vertex
    # when complemented log the pivot of every call, in call order; the
    # listing and its order cannot see a pivot change that keeps them
    params = Params(5, 3, 2)
    want = []
    generator_pivot_cliques(params, 10**7, pivots=want)
    verts, adj = search._intersection_graph(params)
    got = []

    class LoggedRow(int):
        def __invert__(self):
            got.append(self.vertex)
            return ~int(self)

    rows = tuple(LoggedRow(row) for row in adj)
    for v, row in enumerate(rows):
        row.vertex = v
    monkeypatch.setattr(search, "_intersection_graph", lambda p: (verts, rows))
    fams = enumerate_maximal_intersecting(params)
    assert len(fams) == 3422
    assert len(got) == len(want) > 10_000
    assert got == want


#: maximal family counts of the cap grid's parameters
MAXIMAL_COUNTS = {
    Params(5, 2, 2): 90,
    Params(5, 3, 2): 3422,
    Params(4, 3, 3): 1632,
    Params(4, 4, 2): 256,
}


@pytest.mark.parametrize("cap", [0, 1, 2, 5, 17, 100, "count-1"])
def test_enumerate_cap_partial_matches_generator_pivot_reference(cap):
    for params, count in MAXIMAL_COUNTS.items():
        limit = count - 1 if cap == "count-1" else cap
        ref = generator_pivot_cliques(params, limit)
        if limit >= count:
            # no cap to exceed: the whole listing comes back
            assert len(ref) == count, params
            fams = enumerate_maximal_intersecting(params, cap=limit)
            assert [f.members for f in fams] == sorted(ref), params
            continue
        with pytest.raises(CapExceeded) as info:
            enumerate_maximal_intersecting(params, cap=limit)
        assert len(ref) == limit + 1, params
        assert [f.members for f in info.value.partial] == sorted(ref[:limit]), params


def test_verify_bound_10_5_2_in_one_node():
    res = max_intersecting_exact(Params(10, 5, 2))
    assert res.exhausted
    assert res.max_size == bound_value(Params(10, 5, 2)) == 2016
    assert res.nodes_explored == 1


def refuse_universe(*args, **kwargs):
    raise AssertionError("the universe was built")


def test_graph_preflight_refuses_before_building(monkeypatch):
    monkeypatch.setattr(search, "universe", refuse_universe)
    p = Params(20, 5, 2)  # V = 496,128: 2.5e11 adjacency bits
    with pytest.raises(TooLarge):
        max_intersecting_exact(p)
    with pytest.raises(TooLarge):
        random_maximal_intersecting(p, 0)
    with pytest.raises(TooLarge):
        enumerate_maximal_intersecting(p, cap=1)


def test_exact_rejects_negative_budget_before_building(monkeypatch):
    monkeypatch.setattr(search, "universe", refuse_universe)
    with pytest.raises(ValueError, match=r"^node budget must be >= 0, got -1$"):
        max_intersecting_exact(Params(20, 5, 2), node_budget=-1)
    for budget in (2.0, 1.5, True):
        with pytest.raises(ValueError, match=rf"^node budget must be an integer, got {budget}$"):
            max_intersecting_exact(Params(20, 5, 2), node_budget=budget)


def test_enumerate_rejects_negative_cap_before_building(monkeypatch):
    # cap 0 is a cap like any other: the first maximal family exceeds it
    with pytest.raises(CapExceeded) as info:
        enumerate_maximal_intersecting(Params(4, 2, 2), cap=0)
    assert info.value.partial == []
    monkeypatch.setattr(search, "universe", refuse_universe)
    with pytest.raises(ValueError, match=r"^cap must be >= 0, got -1$"):
        enumerate_maximal_intersecting(Params(20, 5, 2), cap=-1)
    for cap in (2.0, 1.5, True):
        with pytest.raises(ValueError, match=rf"^cap must be an integer, got {cap}$"):
            enumerate_maximal_intersecting(Params(20, 5, 2), cap=cap)


@pytest.mark.parametrize("seed", [-1, 2**64, -(2**64), 2.0, 1.5, True])
def test_out_of_range_seed_is_refused_before_building(monkeypatch, seed):
    # a float or bool seed would pass the range test, then fail mid-shuffle
    if type(seed) is int:
        text = rf"^seed must be in \[0, 2\^64\), got {seed}$"
    else:
        text = rf"^seed must be an integer, got {seed}$"
    with pytest.raises(ValueError, match=text):
        SplitMix64(seed)
    monkeypatch.setattr(search, "universe", refuse_universe)
    with pytest.raises(ValueError, match=text):
        random_maximal_intersecting(Params(20, 5, 2), seed)


def fresh_graph_cache(monkeypatch):
    """An empty graph cache for one test; returns the list of graph builds."""
    builds = []

    def counted_universe(params):
        builds.append(params)
        return universe(params)

    monkeypatch.setattr(search, "_graphs", OrderedDict())
    monkeypatch.setattr(search, "universe", counted_universe)
    return builds


def cached_bits():
    return sum(len(verts) ** 2 for verts, _ in search._graphs.values())


def test_graph_preflight_boundary(monkeypatch):
    # (3,1,2) has V = 6; the limit admits V^2 == MAX_GRAPH_BITS exactly
    builds = fresh_graph_cache(monkeypatch)
    monkeypatch.setattr(search, "MAX_GRAPH_BITS", 36)
    assert len(search._intersection_graph(Params(3, 1, 2))[0]) == 6
    assert builds == [Params(3, 1, 2)]
    search._graphs.clear()
    monkeypatch.setattr(search, "MAX_GRAPH_BITS", 35)
    monkeypatch.setattr(search, "universe", refuse_universe)
    with pytest.raises(TooLarge):
        search._intersection_graph(Params(3, 1, 2))
    assert not search._graphs


def test_cli_search_graph_too_large_exit_3(capsys, monkeypatch):
    monkeypatch.setattr(search, "universe", refuse_universe)
    code = main(["search", "-n", "20", "-k", "5", "-r", "2"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "adjacency bits" in captured.err


def test_graph_cache_keyed_on_params_alone(monkeypatch):
    builds = fresh_graph_cache(monkeypatch)
    p = Params(5, 2, 2)
    max_intersecting_exact(p)
    random_maximal_intersecting(p, 3)
    enumerate_maximal_intersecting(Params(5, 2, 2), cap=5000)  # an equal key, not p itself
    assert builds == [p]
    assert list(search._graphs) == [p]


def test_graph_cache_evicts_least_recently_used_within_the_limit(monkeypatch):
    builds = fresh_graph_cache(monkeypatch)
    monkeypatch.setattr(search, "MAX_GRAPH_BITS", 52)
    graph = search._intersection_graph
    a, b, c = Params(3, 1, 2), Params(2, 1, 2), Params(3, 1, 1)  # V = 6, 4, 3
    first_a = graph(a)
    graph(b)
    assert list(search._graphs) == [a, b]
    assert cached_bits() == 52
    graph(c)  # 52 + 9 bits: a, the least recently used, goes first
    assert list(search._graphs) == [b, c]
    assert cached_bits() == 25
    graph(b)  # a hit moves b to the recent end
    assert list(search._graphs) == [c, b]
    assert graph(a) == first_a  # 25 + 36 bits: c goes, b stays
    assert list(search._graphs) == [b, a]
    assert cached_bits() == 52
    assert builds == [a, b, c, a]
    # a refused graph leaves the cache as it was
    monkeypatch.setattr(search, "universe", refuse_universe)
    with pytest.raises(TooLarge):
        graph(Params(4, 1, 2))  # V = 8: 64 bits
    assert list(search._graphs) == [b, a]


def test_graph_cache_holds_the_sample_graphs_together(monkeypatch):
    # the three parameter sets the benchmark samples, about 10.4 M bits
    builds = fresh_graph_cache(monkeypatch)
    ps = [Params(8, 4, 2), Params(9, 3, 3), Params(9, 4, 2)]
    for _ in range(2):
        for p in ps:
            random_maximal_intersecting(p, 0)
    assert builds == ps
    assert cached_bits() == 1120**2 + 2268**2 + 2016**2 <= search.MAX_GRAPH_BITS


#: V = 24, 24, 25, 26, 27, 27: any two graphs fit in 2 * 27^2 bits, no three do.
RACE_PARAMS = [
    Params(4, 2, 2),
    Params(6, 1, 4),
    Params(5, 1, 5),
    Params(13, 1, 2),
    Params(3, 2, 3),
    Params(3, 3, 3),
]


def test_graph_cache_is_safe_across_threads(monkeypatch):
    # four threads share a cache that holds two graphs, so lookups race evictions
    fresh_graph_cache(monkeypatch)
    monkeypatch.setattr(search, "MAX_GRAPH_BITS", 2 * 27**2)
    orders = [RACE_PARAMS[t:] + RACE_PARAMS[:t] for t in range(4)]
    want = [[random_maximal_intersecting(p, t) for p in orders[t]] for t in range(4)]
    failures = []

    def run(t):
        try:
            if [random_maximal_intersecting(p, t) for p in orders[t]] != want[t]:
                failures.append(f"thread {t} drew other families")
        except Exception as exc:
            failures.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(100):
            threads = [threading.Thread(target=run, args=(t,)) for t in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
    finally:
        sys.setswitchinterval(interval)
    assert failures == []
    assert len(search._graphs) == 2


@pytest.mark.parametrize(
    "params",
    [Params(3, 2, 1), Params(4, 2, 1), Params(6, 3, 2), Params(7, 3, 3), Params(9, 4, 2)],
)
def test_exact_finds_maximum_from_a_one_vertex_incumbent(monkeypatch, params):
    # first-fit already yields a maximum clique, so the search never has
    # to improve on it; a one-vertex incumbent forces that update path
    want = max_intersecting_exact(params).max_size
    assert want > 1
    monkeypatch.setattr(search, "_greedy_clique", lambda adj, order: [0])
    res = max_intersecting_exact(params)
    assert res.exhausted
    assert res.max_size == want
    assert len(res.witness) == want
    assert is_intersecting(res.witness)


def test_exact_budget_aborts_mid_loop():
    res = max_intersecting_exact(Params(9, 4, 2), node_budget=5)
    assert (res.max_size, res.nodes_explored, res.exhausted) == (448, 5, False)
    assert len(res.witness) == 448
    assert is_intersecting(res.witness)


@pytest.mark.parametrize("budget", range(6))
def test_exact_aborted_search_spends_exactly_its_budget(budget):
    # the budget is checked before a node is counted, so it is never overrun
    res = max_intersecting_exact(Params(9, 4, 2), node_budget=budget)
    assert not res.exhausted
    assert res.nodes_explored == budget
