"""Shared builders, reference checks and the proof-step invariant checker.

The references further down are test code, not library code: the
derived-family helpers the proof-step checker needs, the plain-family
container with its shadow and JSONL codec, and the intersection-shadow
(Katona) check that acceptance criterion 6 reports.
"""

from __future__ import annotations

import functools
import itertools
import json
import random
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from signedfam import (
    Params,
    SignedFamily,
    complements_in_tail,
    enumerate_maximal_intersecting,
    intersects,
    match_to_shadow,
    partition_family,
    shadow_to,
    shift_signs,
    support,
    universe,
)
from signedfam.errors import DuplicateElement, Error, FormatError, OutOfRange
from signedfam.jsonl import compact_json


def pair_mask(sset, r: int) -> int:
    """Bit-packed encoding with one bit per (element, sign) slot.

    The reference encoding: two signed sets intersect iff their masks
    AND to a nonzero value.
    """
    m = 0
    for x, a in sset:
        m |= 1 << ((x - 1) * r + (a - 1))
    return m


def pairwise_intersecting(fam) -> bool:
    """The all-pairs reference for is_intersecting."""
    return all(intersects(a, b) for a, b in itertools.combinations(fam.members, 2))


class MissingPair(Error):
    """A member lacks the common pair that was to be stripped."""


class TooFewMembers(Error):
    """An operation needs at least two members to be meaningful."""


class NotTIntersecting(Error):
    """A family fails the pairwise intersection floor it was claimed to meet."""


class NonUniform(Error):
    """Plain-family members do not share a common size."""


class SizeExceedsMembers(Error):
    """A shadow size outside the valid range for the member size."""


@dataclass(frozen=True)
class PlainFamily:
    """Uniform-size plain subsets of [ground], duplicate-free and sorted.

    The plain-family codec, the shadow reference and the Katona
    reference build on it.
    """

    ground: int
    members: tuple

    def __post_init__(self) -> None:
        if self.ground < 1:
            raise ValueError(f"ground-set size must be >= 1, got {self.ground}")
        norm = [tuple(sorted(m)) for m in self.members]
        for m in norm:
            last = 0
            for x in m:
                if not 1 <= x <= self.ground:
                    raise OutOfRange(f"element {x} outside [1, {self.ground}]")
                if x <= last:
                    raise DuplicateElement(f"element {x} repeated in {m}")
                last = x
        if len(set(map(len, norm))) > 1:
            raise NonUniform("members must share a common size")
        norm.sort()
        for prev, m in itertools.pairwise(norm):
            if m == prev:
                raise ValueError(f"duplicate member {m}")
        object.__setattr__(self, "members", tuple(norm))

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, member) -> bool:
        return member in self.member_set

    @cached_property
    def member_set(self) -> frozenset:
        return frozenset(self.members)

    @property
    def size(self):
        """Common member size, or None for the empty family."""
        return len(self.members[0]) if self.members else None


def plain_shadow(fam: PlainFamily, s: int) -> PlainFamily:
    """The library's shadow_to over a plain family, with s range-checked.

    Containment is inclusive at equal size (the shadow of a family at its
    own member size is the family), and the 0-shadow of a nonempty
    family holds only the empty set.  The empty family's shadow is empty
    at any s >= 0.
    """
    if not fam.members:
        if s < 0:
            raise SizeExceedsMembers(f"shadow size {s} is negative")
    elif not 0 <= s <= fam.size:
        raise SizeExceedsMembers(f"shadow size {s} outside [0, {fam.size}]")
    return PlainFamily(fam.ground, shadow_to(fam.members, s))


def strip_first(block: SignedFamily, i: int) -> tuple:
    """Remove the common pair (1, i) from every member, as sorted member tuples.

    Removal of a shared pair is injective, so the size is preserved.
    The members come out one pair short of k, so they are no family.
    """
    pair = (1, i)
    out = []
    for m in block.members:
        if pair not in m:
            raise MissingPair(f"member {m} lacks {pair}")
        out.append(tuple(p for p in m if p != pair))
    return tuple(sorted(out))


def signed_versions(shadow, r: int) -> tuple:
    """Every way of signing every plain set in shadow with signs from 1..r, sorted.

    The result has exactly r^(member size) * len(shadow) members, one
    pair short of k where the pipeline signs them.
    """
    signs = range(1, r + 1)
    return tuple(
        sorted(
            tuple(zip(m, vec))
            for m in shadow
            for vec in itertools.product(signs, repeat=len(m))
        )
    )


def shift_signs_family(members: tuple, q: int, r: int) -> tuple:
    """Member-wise cyclic sign shift; a bijection, so the size is kept."""
    return tuple(shift_signs(m, q, r) for m in members)


def plain_family_to_json(fam: PlainFamily) -> str:
    """One plain-family JSONL line: {"n":5,"sets":[[2,3],[2,4]]}."""
    return compact_json({"n": fam.ground, "sets": fam.members})


def parse_plain_family(line: str, lineno: int = 1) -> PlainFamily:
    """Parse one plain-family line, as strictly as the signed-family reader."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise FormatError(lineno, f"not valid JSON: {exc}") from None
    except RecursionError:
        raise FormatError(lineno, "nested too deeply to parse") from None
    if not isinstance(obj, dict):
        raise FormatError(lineno, "expected a JSON object")
    if set(obj) != {"n", "sets"}:
        raise FormatError(lineno, f"expected keys n, sets; got {sorted(obj)}")
    if type(obj["n"]) is not int or obj["n"] < 1:
        raise FormatError(lineno, "n must be a positive integer")
    if not isinstance(obj["sets"], list):
        raise FormatError(lineno, "sets must be an array")
    members = []
    for si, raw in enumerate(obj["sets"]):
        if not isinstance(raw, list) or not all(type(x) is int for x in raw):
            raise FormatError(lineno, f"set {si} must be an array of integers")
        if any(raw[i] >= raw[i + 1] for i in range(len(raw) - 1)):
            raise FormatError(lineno, f"set {si} is not strictly sorted")
        members.append(tuple(raw))
    try:
        return PlainFamily(obj["n"], tuple(members))
    except (Error, ValueError) as exc:
        raise FormatError(lineno, str(exc)) from None


def parse_plain_families(lines) -> list[PlainFamily]:
    """Parse one plain family per line; blank lines are errors, numbered from 1."""
    out = []
    for lineno, line in enumerate(lines, start=1):
        text = line.rstrip("\n")
        if not text.strip():
            raise FormatError(lineno, "blank line")
        out.append(parse_plain_family(text, lineno))
    return out


def read_plain_families(path) -> list[PlainFamily]:
    with open(path, encoding="utf-8") as fh:
        return parse_plain_families(fh)


def write_plain_families(path, families) -> None:
    text = "".join(plain_family_to_json(f) + "\n" for f in families)
    Path(path).write_text(text, encoding="utf-8", newline="\n")


def min_pairwise_intersection(fam: PlainFamily) -> int:
    """Smallest |X & Y| over unordered pairs of distinct members.

    This is the largest t for which the family is t-intersecting.
    Families with fewer than two members are t-intersecting for every
    t up to the member size, so the caller decides; here that is an
    error.
    """
    if len(fam) < 2:
        raise TooFewMembers("need at least 2 members for a pairwise minimum")
    sets = [set(m) for m in fam.members]
    best = fam.size
    for i in range(len(sets)):
        si = sets[i]
        for j in range(i + 1, len(sets)):
            c = len(si & sets[j])
            if c < best:
                best = c
                if best == 0:
                    return 0
    return best


@dataclass(frozen=True)
class KatonaReport:
    shadow_size: int
    family_size: int
    holds: bool


def katona_check(fam: PlainFamily, t: int) -> KatonaReport:
    """Compare a t-intersecting family of s-sets against its (s-t)-shadow.

    The intersection-shadow inequality (Katona) behind the matching's
    Hall condition.  The precondition that every two members share at
    least t elements is checked (vacuous below two members); violating
    it is an error.  For valid inputs ``holds`` is a theorem, so a False
    value indicates a bug in shadow_to and test suites treat it as
    failure.
    """
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    if not fam.members:
        return KatonaReport(0, 0, True)
    s = fam.size
    if t > s:
        raise SizeExceedsMembers(f"t={t} exceeds member size {s}")
    if len(fam) >= 2 and min_pairwise_intersection(fam) < t:
        raise NotTIntersecting(f"family is not {t}-intersecting")
    sh = plain_shadow(fam, s - t)
    return KatonaReport(len(sh), len(fam), len(sh) >= len(fam))


#: (6,3,2) Hilton-Milner type: the (1,1) members meeting A, and A itself.
HM_A = ((2, 1), (3, 1), (4, 1))
HILTON_MILNER = SignedFamily(
    Params(6, 3, 2),
    tuple(
        m for m in universe(Params(6, 3, 2)).members if (1, 1) in m and intersects(m, HM_A)
    )
    + (HM_A,),
)

#: Families whose most common slot is held by two slots at once.
TIED_INTERSECTING = ((1, 1), (2, 1)), ((1, 1), (3, 1)), ((2, 1), (3, 1))
TIED_DISJOINT = ((1, 1), (2, 2)), ((1, 1), (3, 2)), ((2, 1), (4, 1)), ((4, 1), (5, 1))

RANDOM_PARAMS = [
    Params(*p)
    for p in [(3, 1, 1), (5, 1, 3), (4, 2, 1), (6, 3, 1)]
    + [(4, 2, 2), (5, 2, 3), (6, 3, 2), (7, 3, 2)]
]


@functools.cache
def intersecting_corpus() -> tuple[tuple[str, SignedFamily], ...]:
    """Labelled families on which is_intersecting meets its reference.

    Every maximal family at (4,2,2) and (5,2,2), each with one member
    removed and each with one outside member added; 300 seeded random
    subfamilies, half of them drawn around one random slot; the
    Hilton-Milner type family, which has no common slot; and two
    families whose most common slot is tied.
    """
    out = []
    for p in (Params(4, 2, 2), Params(5, 2, 2)):
        pool = universe(p).members
        for i, fam in enumerate(enumerate_maximal_intersecting(p)):
            ms = fam.members
            out.append((f"{p} maximal {i}", fam))
            for j in range(len(ms)):
                less = SignedFamily(p, ms[:j] + ms[j + 1 :])
                out.append((f"{p} maximal {i} minus {j}", less))
            for extra in pool:
                if extra not in fam:
                    more = SignedFamily(p, ms + (extra,))
                    out.append((f"{p} maximal {i} plus {extra}", more))
    for seed in range(300):
        rng = random.Random(seed)
        p = RANDOM_PARAMS[seed % len(RANDOM_PARAMS)]
        pool = universe(p).members
        if seed % 2:
            picked = rng.sample(pool, rng.randint(2, min(8, len(pool))))
        else:
            slot = rng.choice(rng.choice(pool))
            held = [m for m in pool if slot in m]
            picked = rng.sample(held, rng.randint(1, len(held)))
            picked += rng.sample(pool, rng.randint(0, 2))
        out.append((f"random {seed} at {p}", SignedFamily(p, tuple(set(picked)))))
    out.append(("Hilton-Milner", HILTON_MILNER))
    out.append(("tied, intersecting", SignedFamily(Params(3, 2, 2), TIED_INTERSECTING)))
    out.append(("tied, disjoint", SignedFamily(Params(5, 2, 2), TIED_DISJOINT)))
    return tuple(out)


def sf(n, k, r, sets) -> SignedFamily:
    return SignedFamily(Params(n, k, r), tuple(tuple(s) for s in sets))


def pf(ground, sets) -> PlainFamily:
    return PlainFamily(ground, tuple(tuple(s) for s in sets))


def free_tails(fam: SignedFamily) -> tuple:
    """The tail complements of fam's free class, sorted as assemble_injection matches them."""
    return tuple(sorted(complements_in_tail(partition_family(fam).free)))


def proof_step_report(fam: SignedFamily) -> dict[str, bool]:
    """Re-derive the per-class facts the injection construction relies on.

    Returns one boolean per fact:
      class_bound      every support class of the free block has <= r^(k-1) members
      cross_intersect  stripped views of distinct blocks intersect pairwise
      pool_bound       |free block| <= r^(k-1) * |shadow of tail complements|
      blocks_disjoint  the shifted stripped blocks and the signed shadow pool
                       are pairwise disjoint
      matching_ok      the tail complements admit a perfect matching
    """
    p = fam.params
    part = partition_family(fam)
    stripped = [part.free.members] + [
        strip_first(part.anchored[i - 1], i) for i in range(1, p.r + 1)
    ]

    groups: dict[tuple, int] = {}
    for m in part.free.members:
        groups[support(m)] = groups.get(support(m), 0) + 1
    class_bound = all(g <= p.r ** (p.k - 1) for g in groups.values())

    masks = [[pair_mask(m, p.r) for m in f] for f in stripped]
    cross_intersect = True
    for i in range(len(stripped)):
        for j in range(i + 1, len(stripped)):
            for mi in masks[i]:
                for mj in masks[j]:
                    if not mi & mj:
                        cross_intersect = False

    tails = free_tails(fam)
    sh = shadow_to(tails, p.k - 1)
    pool_bound = len(part.free) <= p.r ** (p.k - 1) * len(sh)

    shifted = [stripped[1]] + [
        shift_signs_family(stripped[i], i - 1, p.r) for i in range(2, p.r + 1)
    ]
    side_sets = [set(f) for f in shifted] + [set(signed_versions(sh, p.r))]
    blocks_disjoint = True
    for a, b in itertools.combinations(side_sets, 2):
        if a & b:
            blocks_disjoint = False

    try:
        match_to_shadow(tails, p.k)
        matching_ok = True
    except Exception:
        matching_ok = False

    return {
        "class_bound": class_bound,
        "cross_intersect": cross_intersect,
        "pool_bound": pool_bound,
        "blocks_disjoint": blocks_disjoint,
        "matching_ok": matching_ok,
    }
