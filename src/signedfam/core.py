"""Signed sets and the families that hold them.

A signed set is a size-k subset of [n] = {1, ..., n} with a sign from
[r] = {1, ..., r} attached to each element, stored canonically as a
tuple of (element, sign) pairs sorted by element.  Plain sets, such as
supports, are sorted tuples of distinct integers.  A family bundles a
duplicate-free, canonically sorted tuple of signed sets with the
parameters they live under, so equality, hashing, and iteration order
are all structural.

Two signed sets intersect when they share an identical (element, sign)
pair.  Sharing an element under different signs does not count.

Numbers must be exact ints: Params' n, k and r, a signed set's
elements and signs, and the caps of universe and star.  An equal bool
or float, such as True or 2.0, is refused.

Everything here is an immutable value; operations never mutate their
arguments and are safe to run concurrently on shared inputs.
"""

from __future__ import annotations

import contextlib
import gc
import itertools
import json
import reprlib
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from math import comb
from operator import itemgetter

from .errors import (
    DuplicateElement,
    OutOfRange,
    TooLarge,
    WrongSize,
)

Pair = tuple[int, int]
SignedSet = tuple[Pair, ...]
PlainSet = tuple[int, ...]

#: Default size cap for universe(), star() and enumerate_maximal_intersecting().
DEFAULT_CAP = 10_000_000

#: Default ceiling on branch-and-bound search tree nodes (search re-exports it).
DEFAULT_NODE_BUDGET = 10_000_000

#: Compact JSON text, the bytes of json.dumps(obj, separators=(",", ":")).
#: The cycle check is off: every object written is built fresh from
#: tuples, ints, strings and dicts, so none can contain itself, and the
#: check would only add an id-marker entry per container.
compact_json = json.JSONEncoder(separators=(",", ":"), check_circular=False).encode


@contextlib.contextmanager
def _collector_paused():
    """Run the block with the cyclic garbage collector off, then restore its state.

    The state is process-wide: while the block runs, no thread's cycles
    are collected.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


class _Shown(reprlib.Repr):
    """How error texts show a value: reprlib's shortened repr.

    A plain repr would print a long value whole, or recurse into a deep
    one past the recursion limit.  An int too long for str() (past
    sys.get_int_max_str_digits() digits) shows as its size in bits.
    """

    def repr_int(self, x, level):
        try:
            return super().repr_int(x, level)
        except ValueError:
            sign = "negative " if x < 0 else ""
            return f"<{sign}{x.bit_length()}-bit int>"


_shown = _Shown().repr


@dataclass(frozen=True)
class Params:
    """Problem parameters: ground-set size n, set size k, sign count r."""

    n: int
    k: int
    r: int

    def __post_init__(self) -> None:
        # bool is an int subclass, so the exact type is what is checked
        if {type(self.n), type(self.k), type(self.r)} != {int}:
            shown = ", ".join(f"{f}={_shown(getattr(self, f))}" for f in "nkr")
            raise ValueError(f"n, k and r must be integers, got Params({shown})")
        if not 1 <= self.k <= self.n:
            raise ValueError(f"need 1 <= k <= n, got k={_shown(self.k)}, n={_shown(self.n)}")
        if self.r < 1:
            raise ValueError(f"need r >= 1, got r={_shown(self.r)}")


def make_signed_set(pairs, params: Params) -> SignedSet:
    """Validate and canonicalize (element, sign) pairs into a signed set.

    Raises OutOfRange, DuplicateElement, or WrongSize when the input is
    not a well-formed member of the universe for ``params``.  Elements
    and signs must be ints, not bools or floats that compare equal.
    """
    canon: list[Pair] = []
    for x, a in pairs:
        if type(x) is not int or not 1 <= x <= params.n:
            raise OutOfRange(f"element {x!r} outside [1, {params.n}]")
        if type(a) is not int or not 1 <= a <= params.r:
            raise OutOfRange(f"sign {a!r} outside [1, {params.r}]")
        canon.append((x, a))
    elements = [x for x, _ in canon]
    if len(set(elements)) != len(elements):
        dup = next(x for i, x in enumerate(elements) if x in elements[:i])
        raise DuplicateElement(f"element {dup} appears in two pairs")
    if len(canon) != params.k:
        raise WrongSize(f"expected {params.k} pairs, got {len(canon)}")
    return tuple(sorted(canon))


def support(sset: SignedSet) -> PlainSet:
    """The set of first coordinates of a signed set."""
    return tuple(map(itemgetter(0), sset))


def mod_one_based(v: int, y: int) -> int:
    """Reduce v modulo y onto the representatives 1..y.

    Multiples of y map to y rather than 0.  Negative v is handled, so
    the result is always in [1, y] and congruent to v mod y.
    """
    if y < 1:
        raise ValueError(f"modulus must be >= 1, got {y}")
    return (v - 1) % y + 1


def shift_signs(sset: SignedSet, q: int, r: int) -> SignedSet:
    """Advance every sign cyclically by q within 1..r.

    The support is untouched, so the canonical pair order is preserved.
    Negative q undoes the corresponding positive shift.
    """
    return tuple((x, mod_one_based(a + q, r)) for x, a in sset)


def intersects(a: SignedSet, b: SignedSet) -> bool:
    """True when the two signed sets share an (element, sign) pair."""
    return not set(a).isdisjoint(b)


@dataclass(frozen=True)
class SignedFamily:
    """A duplicate-free collection of signed k-sets under common parameters.

    Every member passes make_signed_set, so it is a canonical signed
    k-set of the universe for params; members are stored sorted.
    """

    params: Params
    members: tuple[SignedSet, ...]

    def __post_init__(self) -> None:
        norm = sorted(make_signed_set(m, self.params) for m in self.members)
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


def _canonical_family(params: Params, members: tuple[SignedSet, ...]) -> SignedFamily:
    """A SignedFamily built without __post_init__'s sort and validation.

    Precondition, unchecked: members are distinct signed k-sets as
    make_signed_set returns them, sorted as __post_init__ leaves them.
    Internal callers use it only where that holds by construction, such
    as sorted index subsets of the universe or subsequences of a family.
    """
    fam = object.__new__(SignedFamily)
    object.__setattr__(fam, "params", params)
    object.__setattr__(fam, "members", members)
    return fam


def _slot_masks(members) -> dict:
    """Per slot (a signed pair, or a plain element), the bitmask of members holding it."""
    slots: dict = {}
    for i, m in enumerate(members):
        bit = 1 << i
        for p in m:
            slots[p] = slots.get(p, 0) | bit
    return slots


def _cover_rows(slots: dict, sets):
    """Yield, per set in sets, the OR of its slots' masks from _slot_masks.

    A row marks the members the set meets: bit j of member i's row is
    set iff members i and j share a slot, so a row covers member i
    itself.  O(|F| * k) big-int ORs for the masks and O(k) per row, in
    place of O(|F|^2) pair tests.  The intersection graph takes every
    member's row; is_intersecting takes only the rows of members
    outside its core slot.
    """
    for m in sets:
        row = 0
        for p in m:
            row |= slots[p]
        yield row


def is_intersecting(fam: SignedFamily) -> bool:
    """True when every two members share a signed pair (vacuous below 2).

    One C-level pass counts every (element, sign) slot, and the most
    common one is the core.  Members holding the core meet each other,
    so every disjoint pair has a member outside the core, and only those
    members are tested: one is met by every member iff its cover row is
    full.  A star costs the counting pass alone; slot masks are built
    only when some member lacks the core, and the scan stops at the
    first row that is not full.
    """
    members = fam.members
    if len(members) < 2:
        return True
    counts = Counter(itertools.chain.from_iterable(members))
    core = counts.most_common(1)[0][0]
    outside = [m for m in members if core not in m]
    if not outside:
        return True
    full = (1 << len(members)) - 1
    return all(row == full for row in _cover_rows(_slot_masks(members), outside))


def bound_value(params: Params) -> int:
    """The extremal size r^(k-1) * C(n-1, k-1), computed exactly."""
    return params.r ** (params.k - 1) * comb(params.n - 1, params.k - 1)


#: Counts below this, which str() prints in full by default, are worked out exactly.
_PRINTABLE = 10**4300


def _signed_count(n: int, k: int, r: int, limit: int) -> tuple[int, str]:
    """r^k * C(n, k), or a lower bound on it past limit, and how a refusal shows it.

    The count of signed k-sets on [n] with r signs is reached through
    the exact partial counts r^i * C(n, i), for i up to min(k, n - k),
    and then the factors r still missing; each one is a lower bound on
    the count.  The walk stops at the first that passes limit and has
    more than 4,300 digits, so a count too long to print costs no more
    than that.  The count is then shown as more than that bound; any
    other count is exact and shown as _shown shows it.
    """
    floor = max(limit, _PRINTABLE - 1)
    m = min(k, n - k)
    count = 1
    for i in range(m):
        if count > floor:
            return count, f"more than {_shown(count)}"
        count = count * r * (n - i) // (i + 1)
    if r > 1 and k > m:
        # r^j > floor once j * (r.bit_length() - 1) reaches floor's bit length
        j = floor.bit_length() // (r.bit_length() - 1) + 1
        if k - m > j:
            count *= r**j
            return count, f"more than {_shown(count)}"
        count *= r ** (k - m)
    return count, _shown(count)


def _check_count(name: str, value: int) -> None:
    """Refuse a cap or budget that is not an exact int >= 0 (2.0 and True included)."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {_shown(value)}")
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {_shown(value)}")


def _signed_sets(ground: range, j: int, r: int) -> list[SignedSet]:
    """Every signed j-set over ground with signs in [r], sorted.

    Each element's slots, its pairs (x, 1), ..., (x, r), are built once
    per call, and every set is a product over the slot lists of its
    elements: all sets share one tuple per pair, so a pair costs its
    memory once and equal pairs compare by identity.  The empty set
    needs no slots, and no copy of the ground.
    """
    if not j:
        return [()]
    slots = [tuple((x, a) for a in range(1, r + 1)) for x in ground]
    members = [
        sset
        for lists in itertools.combinations(slots, j)
        for sset in itertools.product(*lists)
    ]
    # canonical and distinct by construction, but not generated in order
    members.sort()
    return members


def universe(params: Params, cap: int = DEFAULT_CAP) -> SignedFamily:
    """All signed k-sets on [n] with signs in [r].

    Raises ValueError for a cap that is not an int >= 0, and TooLarge
    when the member count r^k * C(n, k) exceeds cap.
    """
    _check_count("cap", cap)
    total, shown = _signed_count(params.n, params.k, params.r, cap)
    if total > cap:
        raise TooLarge(f"universe has {shown} members, cap is {_shown(cap)}")
    members = _signed_sets(range(1, params.n + 1), params.k, params.r)
    return _canonical_family(params, tuple(members))


def star(params: Params, cap: int = DEFAULT_CAP) -> SignedFamily:
    """All members of the universe containing the pair (1, 1).

    This is the canonical extremal intersecting family; its size is
    exactly bound_value(params).  Raises ValueError for a cap that is
    not an int >= 0, and TooLarge when that size exceeds cap.
    """
    _check_count("cap", cap)
    # the star's members are (1, 1) and a signed (k-1)-set on {2, ..., n}
    total, shown = _signed_count(params.n - 1, params.k - 1, params.r, cap)
    if total > cap:
        raise TooLarge(f"star has {shown} members, cap is {_shown(cap)}")
    rests = _signed_sets(range(2, params.n + 1), params.k - 1, params.r)
    # (1, 1) leads every member, so the sorted rests keep the members sorted
    return _canonical_family(params, tuple(((1, 1),) + rest for rest in rests))
