"""Brute-force oracles over the intersection graph of the universe.

Vertices are the signed k-sets of the universe in canonical order;
edges join intersecting pairs.  Adjacency lives in bitmask rows, one
arbitrary-precision integer per vertex: its cover row from
core._cover_rows (the OR of its k (element, sign) slot masks) minus
its own bit.  MAX_GRAPH_BITS is the graph's only size limit, and it
also bounds the per-Params cache, which drops least recently used
graphs to stay within it; one lock guards the cache, so concurrent
callers never see it mid-update.  On top of that graph:

- exact maximum intersecting family size by branch-and-bound maximum
  clique with greedy-colouring upper bounds, cut by two symmetry
  lemmas.  Transitivity at the root: S_r wr S_n permutes signs and
  elements and moves any vertex to vertex 0, so once the root colour
  bound beats the greedy incumbent only cliques through vertex 0 are
  searched.  The stabilizer at vertex 0: its orbits split N(0), and the
  vertex-0 node branches once per orbit, on the orbit's lowest vertex,
  dropping the whole orbit after its branch,
- enumeration of all maximal intersecting families by Bron-Kerbosch
  with pivoting; the pivot scan visits only X once a vertex covers
  |P| - 1 candidates and stops at the first vertex that covers every
  candidate, and a branch whose child would hold at most one candidate
  is decided in place, without a call; the listing runs with the
  cyclic garbage collector paused,
- reproducible random maximal intersecting families from a
  Fisher-Yates shuffle driven by SplitMix64; draw t is a fixed mix of
  seed + t * gamma, so a shuffle computes all its draws at once, one
  128-bit lane per draw of a single integer.

Everything is sequential and deterministic: identical inputs, budgets,
and seeds always produce identical outputs.  Seeds, caps and budgets
must be exact ints, as Params' n, k and r must: a bool or a float such
as 2.0 raises ValueError before any graph is built.
"""

from __future__ import annotations

import sys
import threading
from array import array
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from math import isqrt
from operator import itemgetter

from .core import (
    DEFAULT_CAP,
    DEFAULT_NODE_BUDGET,
    Params,
    SignedFamily,
    _canonical_family,
    _check_count,
    _collector_paused,
    _cover_rows,
    _shown,
    _signed_count,
    _slot_masks,
    universe,
)
from .errors import CapExceeded, TooLarge

#: Ceiling on the V^2 bits of intersection-graph adjacency rows (512 MB).
MAX_GRAPH_BITS = 2**32

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


@lru_cache(maxsize=8)
def _lane_constants(count: int) -> tuple[int, int, int]:
    """Per-lane constants for count draws, lane t in bits 128t..128t+127.

    Lane t holds (t + 1) * gamma mod 2^64, 1 and 2^64 - 1 in the three
    integers.  One entry per shuffle length; about 16 * count bytes each.
    """
    steps = b"".join(
        ((t * _GAMMA) & _MASK64).to_bytes(16, "little") for t in range(1, count + 1)
    )
    ones = (1).to_bytes(16, "little") * count
    low = _MASK64.to_bytes(16, "little") * count
    return tuple(int.from_bytes(b, "little") for b in (steps, ones, low))


class SplitMix64:
    """SplitMix64 sequence, fully specified so seeds reproduce anywhere.

    The state advances by 0x9E3779B97F4A7C15 modulo 2^64 per draw and
    the output is the new state passed through two xor-shift-multiply
    rounds: z ^= z >> 30; z *= 0xBF58476D1CE4E5B9; z ^= z >> 27;
    z *= 0x94D049BB133111EB; z ^= z >> 31 (all modulo 2^64).  The seed,
    the initial state, must be an int (not a bool or a float) in
    [0, 2^64); ValueError otherwise.
    """

    def __init__(self, seed: int) -> None:
        if type(seed) is not int:
            raise ValueError(f"seed must be an integer, got {_shown(seed)}")
        if not 0 <= seed <= _MASK64:
            raise ValueError(f"seed must be in [0, 2^64), got {_shown(seed)}")
        self._state = seed

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Draw from 0..bound-1 as next_u64() mod bound."""
        return self.next_u64() % bound

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates: j = below(i + 1) for i = len-1 down to 1.

        The len-1 draws are computed together: draw t, the mix of
        state + t * gamma, lives in 128-bit lane t-1 of one integer.
        Each xor-shift is masked back to the low 64 bits of every lane
        before its multiply, so no bits cross lanes and each 64 x 64-bit
        product fits its lane.  Items, swaps and the final state are
        those of len-1 calls to below().
        """
        count = len(items) - 1
        if count < 1:
            return
        steps, ones, low = _lane_constants(count)
        state = self._state
        z = (steps + ones * state) & low
        z = (((z ^ (z >> 30)) & low) * 0xBF58476D1CE4E5B9) & low
        z = (((z ^ (z >> 27)) & low) * 0x94D049BB133111EB) & low
        z ^= z >> 31  # bits shifted in from lane t+1 land above lane t's low word
        words = array("Q", z.to_bytes(16 * count, "little"))
        if sys.byteorder == "big":
            words.byteswap()
        for i, d in zip(range(count, 0, -1), words[::2]):
            j = d % (i + 1)
            items[i], items[j] = items[j], items[i]
        self._state = (state + count * _GAMMA) & _MASK64


@dataclass(frozen=True)
class SearchResult:
    """Outcome of an exact search.

    exhausted = True means the search tree was fully explored within
    the node budget and the witness is a maximum intersecting family;
    otherwise it is only the largest one found.
    """

    witness: SignedFamily
    nodes_explored: int
    exhausted: bool

    @property
    def max_size(self) -> int:
        return len(self.witness)


#: Cached graphs by Params, least recently used first; _graphs_lock guards it.
_graphs: OrderedDict[Params, tuple] = OrderedDict()
_graphs_lock = threading.Lock()


def _intersection_graph(params: Params):
    """Vertices (canonical order), bitmask adjacency rows and vertex 0's orbits.

    Each row is the vertex's cover row minus its own bit; the orbits are
    _orbits_below_0's, from the same slot masks.  Cached per params.  Raises
    TooLarge, before the universe is built, when the V^2 row bits would
    exceed MAX_GRAPH_BITS, the graph's only size limit.  The same limit
    bounds the cache: before a graph is built, least recently used
    graphs are dropped until the cached V^2 bits and the new graph's
    fit within it.  One lock is held over the lookup, the eviction, the
    build and the insert, so concurrent callers see a consistent cache.
    """
    with _graphs_lock:
        graph = _graphs.pop(params, None)
        if graph is None:
            nv, shown = _signed_count(params.n, params.k, params.r, isqrt(MAX_GRAPH_BITS))
            bits = nv * nv
            if bits > MAX_GRAPH_BITS:
                raise TooLarge(f"graph has {shown}^2 adjacency bits, limit is {MAX_GRAPH_BITS}")
            cached = sum(len(verts) ** 2 for verts, *_ in _graphs.values())
            while cached + bits > MAX_GRAPH_BITS:
                verts, *_ = _graphs.popitem(last=False)[1]
                cached -= len(verts) ** 2
            verts = universe(params).members
            slots = _slot_masks(verts)
            rows = _cover_rows(slots, verts)
            adj = tuple(row ^ (1 << i) for i, row in enumerate(rows))
            graph = verts, adj, _orbits_below_0(params, slots, adj[0])
        _graphs[params] = graph
        return graph


def _counts(masks, full: int) -> list[int]:
    """Per c, the mask of the vertices of full that lie in exactly c of masks."""
    counts = [full]
    for m in masks:
        counts = [c & ~m | below & m for c, below in zip(counts + [0], [0] + counts)]
    return counts


def _orbits_below_0(params: Params, slots: dict, nbrs: int) -> list[int]:
    """The orbits O(i, j) of H = Stab(0) on vertex 0's neighbours nbrs, as masks.

    Vertex 0 is {(1,1), ..., (k,1)}.  H permutes [k] and the other
    elements among themselves, keeps sign 1 on [k] and permutes the
    signs freely elsewhere, so a set's orbit is fixed by i, how many of
    its elements lie in [k], and j, how many of those carry sign 1.  The
    neighbours are the sets with j >= 1 but vertex 0, O(k, k) alone, and
    O(i, j) holds C(k,i) * C(n-k,k-i) * C(i,j) * (r-1)^(i-j) * r^(k-i)
    sets.  The masks come from the slot masks of (x, a), x in [k]: each
    count is a mask, updated for every x at once, so the orbits cost
    O(k^2) big-int operations and no pass over the vertices.  Nonempty
    orbits only, the one whose lowest vertex is highest first.
    """
    ks = range(1, params.k + 1)
    held = []
    for x in ks:
        mask = 0
        for a in range(1, params.r + 1):
            mask |= slots[x, a]
        held.append(mask)
    signed_one = _counts([slots[x, 1] for x in ks], nbrs)
    orbits = [oi & oj for oi in _counts(held, nbrs) for oj in signed_one]
    return sorted(filter(None, orbits), key=lambda o: o & -o, reverse=True)


def _greedy_clique(adj, order) -> list[int]:
    """First-fit clique along the given vertex order."""
    allowed = (1 << len(adj)) - 1
    chosen = []
    for v in order:
        if (allowed >> v) & 1:
            chosen.append(v)
            allowed &= adj[v]
    return chosen


def max_intersecting_exact(
    params: Params, node_budget: int = DEFAULT_NODE_BUDGET
) -> SearchResult:
    """Exact maximum intersecting family size by branch-and-bound.

    Vertices keep canonical order (the graph is vertex-transitive, so a
    degree order would be the identity), candidates are greedily
    coloured at every node, and branches whose colour bound cannot
    beat the incumbent are pruned.  Two symmetry lemmas cut the top of
    the tree:

    - transitivity at the root: the root colours the whole graph, and
      if that bound does not beat the greedy first-fit clique the search
      ends after one node; otherwise it branches on vertex 0 alone,
      bounded by the root colour count, since S_r wr S_n moves any
      vertex to vertex 0, so some maximum clique contains it;
    - the stabilizer at vertex 0: H = Stab(0) splits N(0) into the
      orbits O(i, j) of _orbits_below_0.  The vertex-0 node takes them
      in that fixed order; before each it recolours the live set and
      stops once the colour bound cannot beat the incumbent, otherwise
      it branches on the orbit's lowest vertex and drops the whole orbit
      from the live set.  The live set stays a union of H-orbits, so a
      largest clique through 0 in it that meets the orbit maps under H
      to one through that vertex.  Deeper nodes branch on every
      coloured vertex, last colour first.

    The incumbent is replaced only by a strictly larger clique.  Nodes
    are search-tree expansions; when the budget runs out the best clique
    so far is returned with exhausted = False and nodes_explored =
    node_budget.  A budget that is not an int >= 0 raises ValueError
    before the graph is built.
    """
    _check_count("node budget", node_budget)
    verts, adj, orbits = _intersection_graph(params)
    nv = len(verts)
    best_clique = _greedy_clique(adj, range(nv))
    best_size = len(best_clique)
    nodes = 0
    aborted = False
    cur: list[int] = []

    def colouring(p_mask: int) -> tuple[list[int], list[int]]:
        # greedy colouring; colour numbers bound any clique inside p_mask
        col_order: list[int] = []
        col_bound: list[int] = []
        uncoloured = p_mask
        colour = 0
        while uncoloured:
            colour += 1
            avail = uncoloured
            while avail:
                b = avail & -avail
                v = b.bit_length() - 1
                avail ^= b
                avail ^= avail & adj[v]
                uncoloured ^= b
                col_order.append(v)
                col_bound.append(colour)
        return col_order, col_bound

    def branch(v: int, live: int) -> None:
        nonlocal best_size, best_clique
        cur.append(v)
        nxt = live & adj[v]
        if nxt:
            expand(nxt)
        elif len(cur) > best_size:
            best_size = len(cur)
            best_clique = cur.copy()
        cur.pop()

    def expand(p_mask: int) -> None:
        nonlocal nodes, aborted
        if nodes >= node_budget:
            aborted = True
            return
        nodes += 1
        if len(cur) == 1:
            # vertex 0's node: one branch per orbit of its stabilizer
            live = p_mask
            for orbit in orbits:
                if aborted or len(cur) + colouring(live)[1][-1] <= best_size:
                    return
                branch((orbit & -orbit).bit_length() - 1, live)
                live ^= orbit
            return
        col_order, col_bound = colouring(p_mask)
        if not cur:
            # root: the graph is vertex-transitive, so some maximum clique
            # contains vertex 0; branch on it alone under the full bound
            col_order, col_bound = [0], col_bound[-1:]
        live = p_mask
        for i in range(len(col_order) - 1, -1, -1):
            if aborted:
                return
            if len(cur) + col_bound[i] <= best_size:
                return
            v = col_order[i]
            branch(v, live)
            live ^= 1 << v

    expand((1 << nv) - 1)
    return SearchResult(
        witness=_canonical_family(params, tuple(verts[v] for v in sorted(best_clique))),
        nodes_explored=nodes,
        exhausted=not aborted,
    )


def enumerate_maximal_intersecting(
    params: Params, cap: int = DEFAULT_CAP
) -> list[SignedFamily]:
    """All maximal intersecting families, in canonical family order.

    Bron-Kerbosch with pivoting (pivot maximizing candidate coverage,
    ties to the lowest vertex).  The pivot scan walks P | X upwards.  A
    vertex of P covers at most |P| - 1 candidates, so once some vertex
    covers that many the rest of the scan visits X alone, and it stops
    at the first vertex adjacent to every candidate, which no later
    vertex can beat; the pivot is that of a full scan.  A branch v whose
    child would hold at most one candidate is resolved without a call:
    with no candidate, cur + [v] is maximal iff no excluded vertex is
    adjacent to v; with one candidate w, cur + [v, w] is maximal iff no
    excluded vertex is adjacent to both.  Those are the child's own
    verdicts at the child's turn, so the discovery order is unchanged.
    Raises CapExceeded carrying the first cap families found, in
    canonical order, when there are more than cap maximal families, and
    ValueError before any work for a cap that is not an int >= 0.

    The listing, the CapExceeded partial included, runs with the cyclic
    garbage collector paused, and the collector's state is restored
    however it ends.  Its cliques and families are acyclic, so the
    passes it would trigger free nothing: at (6,3,2) the listing alone
    triggered 356 generation-0, 32 generation-1 and 3 full passes, the
    last over about 74,000 tracked objects.  The state is process-wide,
    so cycles made by other threads wait until the listing returns.
    """
    _check_count("cap", cap)
    verts, adj, _ = _intersection_graph(params)
    found: list[tuple[int, ...]] = []
    cur: list[int] = []

    def to_families(cliques) -> list[SignedFamily]:
        # verts is sorted, so sorting index tuples sorts the member tuples;
        # itemgetter of one index returns the bare member (k = 1 cliques)
        return [
            _canonical_family(
                params,
                itemgetter(*clique)(verts) if len(clique) > 1 else (verts[clique[0]],),
            )
            for clique in sorted(map(tuple, map(sorted, cliques)))
        ]

    def report(clique: tuple[int, ...]) -> None:
        if len(found) >= cap:
            raise CapExceeded(f"more than {cap} maximal families", to_families(found))
        found.append(clique)

    def bk(p_mask: int, x_mask: int) -> None:
        # pivot: most candidates covered, ties to the lowest vertex.  A vertex
        # of P covers at most |P| - 1, so once some vertex covers that many
        # only X is left to scan; a vertex covering all of P cannot be
        # beaten, so the scan stops there
        full = p_mask.bit_count()
        pivot = -1
        best = -1
        m = p_mask | x_mask
        while m:
            b = m & -m
            m ^= b
            u = b.bit_length() - 1
            c = (p_mask & adj[u]).bit_count()
            if c > best:
                best = c
                pivot = u
                if c >= full - 1:
                    if c == full:
                        break
                    m &= x_mask
        p, x = p_mask, x_mask
        m = p_mask & ~adj[pivot]
        while m:
            bv = m & -m
            m ^= bv
            v = bv.bit_length() - 1
            row = adj[v]
            pc = p & row
            # a child with at most one candidate w is decided here: it would
            # report cur + [v] (or cur + [v, w]) iff no vertex of X is
            # adjacent to v (or to both v and w)
            if pc & (pc - 1):
                cur.append(v)
                bk(pc, x & row)
                cur.pop()
            elif not pc:
                if not x & row:
                    report((*cur, v))
            elif not x & row & adj[pc.bit_length() - 1]:
                report((*cur, v, pc.bit_length() - 1))
            p ^= bv
            x |= bv

    with _collector_paused():
        bk((1 << len(verts)) - 1, 0)
        return to_families(found)


def random_maximal_intersecting(params: Params, seed: int) -> SignedFamily:
    """Seeded random maximal intersecting family; a pure function of its inputs.

    The universe is shuffled by a SplitMix64-driven Fisher-Yates pass,
    then scanned greedily: a set is kept whenever it intersects every
    set kept so far; the result is maximal.  A seed that is not an int
    in [0, 2^64) raises ValueError before the graph is built.
    """
    rng = SplitMix64(seed)
    verts, adj, _ = _intersection_graph(params)
    idx = list(range(len(verts)))
    rng.shuffle(idx)
    chosen = sorted(_greedy_clique(adj, idx))
    return _canonical_family(params, tuple(verts[i] for i in chosen))

