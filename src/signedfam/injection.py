"""An explicit, verified injection of an intersecting family into the star.

The pipeline splits the input family by the pair it carries on element
1.  Members already containing (1, 1) map to themselves.  Members
containing (1, i) for i >= 2 lose that pair, have their remaining
signs cyclically advanced by i - 1, and gain (1, 1).  Members avoiding
element 1 entirely (the "free" class) are re-housed on fresh supports:
each support's tail complement is matched injectively to one of its
own (k-1)-subsets via augmenting paths, and the members of a support
class receive the sign vectors of the matched target in lexicographic
order.  Hall's condition for the matching follows from the
intersection-shadow inequality applied to subfamilies of the tail
complements, which inherit the pairwise intersection floor n - 2k.

The construction is only valid for r >= 2 and 2k <= n and refuses to
run outside that range.  It re-verifies every certificate it emits
instead of trusting its own reasoning, and it is deterministic: a
fixed input always produces a bit-identical certificate.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from functools import reduce
from math import comb
from operator import and_, itemgetter, lt, sub

from .core import (
    Params,
    PlainSet,
    SignedFamily,
    SignedSet,
    _canonical_family,
    _slot_masks,
    is_intersecting,
    make_signed_set,
    shift_signs,
    support,
)
from .errors import (
    ContainsOne,
    Error,
    GroupOverflow,
    NoPerfectMatching,
    NotIntersecting,
    UnsupportedRange,
    VerificationFailed,
)


@dataclass(frozen=True)
class Partition:
    """Split of a family by the pair it carries on element 1.

    free holds the members whose support avoids element 1; anchored[i-1]
    holds the members containing (1, i).  The blocks are disjoint and
    their union is the input family.
    """

    free: SignedFamily
    anchored: tuple[SignedFamily, ...]


def _cuts(members: tuple[SignedSet, ...], r: int) -> list[int]:
    """Where each of partition_family's blocks starts in canonical order.

    (1, a) < (x, b) for every x >= 2, so sorted members hold the (1, 1)
    block first, then (1, 2), ..., (1, r), then the free class: the
    (1, a) block runs from cuts[a - 1] to cuts[a], and the free class
    from cuts[r] to the end.
    """
    cuts = [bisect_left(members, ((1, a),)) for a in range(1, r + 1)]
    cuts.append(bisect_left(members, ((2,),)))
    return cuts


def partition_family(fam: SignedFamily) -> Partition:
    """Classify members by the sign attached to element 1, if any.

    Element 1, when present, leads a member's canonical form, so the
    blocks are contiguous runs of the sorted members: r + 1 binary
    searches find where they start, and each block is a slice.
    """
    p, members = fam.params, fam.members
    cuts = _cuts(members, p.r)
    # subsequences of an already canonical family need no re-validation
    return Partition(
        _canonical_family(p, members[cuts[-1] :]),
        tuple(_canonical_family(p, members[i:j]) for i, j in itertools.pairwise(cuts)),
    )


def complements_in_tail(free: SignedFamily) -> dict[PlainSet, list[SignedSet]]:
    """Group the free class by support, keyed by the tail complement.

    The tail complement is the support's complement within {2, ..., n},
    a bijection, so there is one key per distinct support.  Each class
    lists its members in canonical order.  Every support is read in one
    C-level pass: the members' first coordinates, flattened, cut into
    runs of k.
    """
    tail = range(2, free.params.n + 1)
    elements = map(itemgetter(0), itertools.chain.from_iterable(free.members))
    by_support: dict[PlainSet, list[SignedSet]] = {}
    for sup, m in zip(zip(*[elements] * free.params.k), free.members):
        by_support.setdefault(sup, []).append(m)
    classes = {}
    for sup, members in by_support.items():
        if 1 in sup:
            raise ContainsOne(f"member {members[0]} contains element 1")
        classes[tuple(x for x in tail if x not in sup)] = members
    return classes


#: Below this many per-member subsets, shadow_to gathers them whatever the union makes.
_UNION_FLOOR = 1_000


def shadow_to(members, s: int) -> tuple[PlainSet, ...]:
    """The s-shadow: every s-subset of a plain set in members, deduplicated and sorted.

    The s-shadow of s-sets is those sets, and the 0-shadow of any
    nonempty collection is ((),), so the matching degenerates cleanly
    at 2k = n and at k = 1.

    The enumeration follows exact counts.  Gathering the s-subsets of
    each member T makes sum C(|T|, s) tuples; listing those of the
    members' union U makes C(|U|, s).  When the union's count is
    smaller, each of its candidates is kept iff the member masks of its
    elements AND to a nonzero mask, that is, iff some member holds it
    whole, and the sorted union yields them already sorted.  Listing
    the union has fixed costs, the union, the masks and a reduce per
    candidate, which gathering a sum up to _UNION_FLOOR does not
    repay; past that sum, the union is only formed once the sum also
    exceeds C(max |T|, s), a lower bound on C(|U|, s), so an input that
    gathers per member builds nothing the size of the union.
    """
    members = tuple(members)
    if s >= 0:
        total = sum(comb(len(m), s) for m in members)
        if total > _UNION_FLOOR and total > comb(max(map(len, members)), s):
            union = set().union(*members)
            if comb(len(union), s) < total:
                holders = _slot_masks(members).__getitem__
                everyone = (1 << len(members)) - 1
                return tuple(
                    c
                    for c in itertools.combinations(sorted(union), s)
                    if reduce(and_, map(holders, c), everyone)
                )
    out: set[PlainSet] = set()
    for m in members:
        out.update(itertools.combinations(m, s))
    return tuple(sorted(out))


def match_to_shadow(tails: tuple[PlainSet, ...], k: int) -> dict[PlainSet, PlainSet]:
    """Match every member of tails injectively to one of its own (k-1)-subsets.

    tails is a sorted tuple of distinct plain sets, as assemble_injection
    passes the tail complements.  Augmenting-path search over the
    membership graph between tails and their (k-1)-shadow.  Each
    member's neighbours are a bitmask over the shadow, built from
    per-element masks: holds[x] marks the shadow members containing x,
    and a shadow member lies inside a member exactly when it avoids
    every element outside it.  The masks run over the shadow reversed,
    so a row's first unseen neighbour in combinations() order is its
    top bit, named by bit_length() alone.  The depth-first search runs
    without recursion, so no recursion limit applies however long a
    path grows.  It augments as it descends: taking a shadow member
    hands it to the member above and moves down to its old owner, and
    a dead end hands it back.  For families that arise from an
    intersecting input with 2k <= n, every subfamily inherits the
    pairwise intersection floor n - 2k, the intersection-shadow
    inequality then gives Hall's condition, and the matching always
    exists.  Failure therefore signals a precondition violation and is
    surfaced as NoPerfectMatching, never swallowed.
    """
    if k < 1:
        raise NoPerfectMatching(f"k={k} leaves no (k-1)-subsets to match to")
    sh = shadow_to(tails, k - 1)
    # shadow member sh[-v] owns bit v - 1, so bit[v] strikes it
    holds = _slot_masks(reversed(sh))
    bit = [0] + [1 << i for i in range(len(sh))]
    everything = (1 << len(sh)) - 1
    rows = []
    for m in tails:
        outside = 0
        for x, mask in holds.items():
            if x not in m:
                outside |= mask
        rows.append(everything & ~outside)
    owner = [-1] * len(bit)
    for u in range(len(rows)):
        # Kuhn's search from u.  path holds the shadow vertices taken,
        # each already handed to the member above it; w is the member
        # the walk stands on.  Certificates depend on the visiting
        # order: the search must pick the same matching as recursive
        # Kuhn (the reference in tests/test_matching.py).
        unseen = everything
        path: list[int] = []
        w = u
        while w >= 0:
            free = rows[w] & unseen
            if free:
                v = free.bit_length()
                unseen ^= bit[v]
                path.append(v)
            elif path:
                v = path.pop()
            else:
                raise NoPerfectMatching(f"no injective shadow assignment covers {tails[u]}")
            owner[v], w = w, owner[v]
    target = [None] * len(tails)
    for v, u in enumerate(owner):
        if u >= 0:
            target[u] = sh[-v]
    return dict(zip(tails, target))


def sign_assign(
    classes: dict[PlainSet, list[SignedSet]],
    matching: dict[PlainSet, PlainSet],
    r: int,
) -> dict[SignedSet, SignedSet]:
    """Injectively re-house the free class on matched shadow supports.

    The members of each class from complements_in_tail receive the sign
    vectors over their matched target support in lexicographic order
    (positions by ascending element).  Injectivity across classes
    follows from the matching being injective.  A class larger than
    r^(k-1) cannot be pairwise intersecting and is rejected.

    Each target element's slots, its pairs (x, 1), ..., (x, r), are
    built once per call, and an image is a product over the slot lists
    of its target, in the same order as the sign vectors: all images
    share one tuple per pair.
    """
    slots = {
        x: tuple((x, a) for a in range(1, r + 1))
        for x in set(itertools.chain.from_iterable(matching.values()))
    }
    out: dict[SignedSet, SignedSet] = {}
    for tail_complement, members in classes.items():
        try:
            target = matching[tail_complement]
        except KeyError:
            raise NoPerfectMatching(
                f"matching does not cover the tail complement {tail_complement}"
            ) from None
        limit = r ** len(target)
        if len(members) > limit:
            raise GroupOverflow(
                f"support {support(members[0])} carries {len(members)} members, "
                f"more than the {limit} that can pairwise intersect"
            )
        out.update(zip(members, itertools.product(*map(slots.__getitem__, target))))
    return out


@dataclass(frozen=True)
class InjectionCertificate:
    """Explicit injective map from a family into the star at (1, 1).

    targets[i] is the image of domain.members[i]: a tuple of pairs, each
    a tuple of two exact ints ((1.0, 1) and (True, 1) equal (1, 1) but
    are refused), of any length.  targets is stored as a tuple, whatever
    sequence it is given as.  Construction raises TypeError on any
    other target and ValueError on a count other than the domain's.
    The type check gathers the targets' distinct pair objects, and the
    certificate keeps them beside its fields for verify_certificate's
    range check; every construction, dataclasses.replace included,
    gathers them afresh.
    Everything else is read off the domain: params, the (source, target)
    mapping, and block_sizes, the partition class sizes (free class
    first, then one entry per sign), so none of it can disagree with the domain.
    """

    domain: SignedFamily
    targets: tuple[SignedSet, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "targets", tuple(self.targets))
        if len(self.targets) != len(self.domain):
            raise ValueError(
                f"{len(self.targets)} targets for a domain of {len(self.domain)} members"
            )
        pairs = _pair_tuples(self.targets)
        if pairs is None:
            for s, t in zip(self.domain.members, self.targets):
                if _pair_tuples((t,)) is None:
                    raise TypeError(
                        f"target {t!r} of source {s} is not a tuple of integer pairs"
                    )
        # not a field: eq, hash and repr see the domain and targets alone
        object.__setattr__(self, "_pairs", pairs)

    @property
    def params(self) -> Params:
        return self.domain.params

    @property
    def mapping(self) -> tuple[tuple[SignedSet, SignedSet], ...]:
        return tuple(zip(self.domain.members, self.targets))

    @property
    def block_sizes(self) -> tuple[int, ...]:
        # partition_family's cuts: the blocks are runs of the sorted domain
        cuts = _cuts(self.domain.members, self.params.r)
        return (len(self.domain) - cuts[-1],) + tuple(map(sub, cuts[1:], cuts))


@dataclass(frozen=True)
class CertificateReport:
    problems: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.problems


def assemble_injection(fam: SignedFamily) -> InjectionCertificate:
    """Build and re-verify the injection of an intersecting family into the star.

    Raises UnsupportedRange outside r >= 2, 2k <= n (the construction
    is unproven there and can genuinely fail), NotIntersecting for
    inputs with a disjoint pair, and propagates NoPerfectMatching or
    GroupOverflow, which cannot occur for valid in-range inputs.

    The images share their pairs: each anchored block's distinct pairs
    go through shift_signs once, and its images are built from the
    shifted pairs, as sign_assign builds the free class's images from
    one tuple per slot.
    """
    p = fam.params
    if p.r < 2 or 2 * p.k > p.n:
        raise UnsupportedRange(
            f"injection is only constructed for r >= 2 and 2k <= n, got {p}"
        )
    if not is_intersecting(fam):
        raise NotIntersecting("input family has a disjoint pair of members")
    part = partition_family(fam)
    # the blocks are runs of fam.members in this order, so the targets are too
    targets = list(part.anchored[0].members)
    for i in range(2, p.r + 1):
        block = part.anchored[i - 1].members
        # shift the block's distinct pairs once, so its images share them
        pairs = tuple(set(itertools.chain.from_iterable(m[1:] for m in block)))
        shifted = dict(zip(pairs, shift_signs(pairs, i - 1, p.r))).__getitem__
        # canonical m leads with (1, i); the shifted tail keeps its order
        targets.extend(((1, 1),) + tuple(map(shifted, m[1:])) for m in block)
    classes = complements_in_tail(part.free)
    # the sort fixes the Kuhn order, and so the certificate bytes
    matching = match_to_shadow(tuple(sorted(classes)), p.k)
    housed = sign_assign(classes, matching, p.r)
    # housed is sorted over elements >= 2, so (1, 1) goes first
    targets.extend(((1, 1),) + housed[m] for m in part.free.members)
    cert = InjectionCertificate(fam, targets)
    report = verify_certificate(cert)
    if not report.ok:
        raise VerificationFailed("; ".join(report.problems))
    return cert


def verify_certificate(cert: InjectionCertificate) -> CertificateReport:
    """Re-check a certificate from scratch, trusting nothing but its construction.

    Construction guarantees that the domain's members are signed k-sets
    for params, that the targets are tuples of integer pairs, one per
    member, and that the certificate holds the targets' distinct pair
    objects, gathered by its type check.
    Confirms the targets are distinct as sets, and each holds (1, 1) and
    is a valid signed k-set: distinct star members, which alone bounds
    the domain by the star's size.  Failures are report content and name
    the offending pairs; nothing is raised.
    """
    problems: list[str] = []
    p = cert.params
    sources = cert.domain.members
    targets = list(cert.targets)
    invalid: list[str] = []
    if not _all_targets_valid(targets, cert._pairs, p):
        # word each failing target's problem, in domain order; canonicalize the rest
        for i, (s, t) in enumerate(zip(sources, cert.targets)):
            if (1, 1) not in t:
                invalid.append(f"target {t} of source {s} misses the pair (1, 1)")
                continue
            try:
                targets[i] = make_signed_set(t, p)
            except Error as exc:
                invalid.append(f"target {t} of source {s} is invalid: {exc}")
    # canonical forms decide sharing: one set in two pair orders is one target
    if len(set(targets)) != len(targets):
        by_target: dict[SignedSet, list[SignedSet]] = {}
        for s, t in zip(sources, targets):
            by_target.setdefault(t, []).append(s)
        for t, srcs in sorted(by_target.items()):
            if len(srcs) > 1:
                problems.append(f"target {t} is shared by sources {srcs}")
    problems += invalid
    return CertificateReport(tuple(problems))


def _pair_tuples(targets) -> tuple | None:
    """The distinct pair objects of targets, or None unless each is a tuple of integer pairs.

    A pair must be a tuple of two exact ints.  Targets may share pair
    objects, as assemble_injection's do, so the pair checks run once
    per distinct object: pairs are told apart by identity, never by
    equality, which would let (True, 1) or (1.0, 1) pass as an int
    (1, 1) seen elsewhere.
    """
    flat = itertools.chain.from_iterable
    if not set(map(type, targets)) <= {tuple}:
        return None
    pairs = tuple(dict(zip(map(id, flat(targets)), flat(targets))).values())
    if (
        set(map(type, pairs)) <= {tuple}
        and set(map(len, pairs)) <= {2}
        and set(map(type, flat(pairs))) <= {int}
    ):
        return pairs
    return None


def _all_targets_valid(targets: list, pairs: tuple, p: Params) -> bool:
    """True when every target is a canonical signed k-set led by (1, 1).

    A sufficient test made of C-level passes over all targets at once,
    which InjectionCertificate holds as tuples of integer pairs, with
    pairs their distinct pair objects: each target is k pairs led by
    (1, 1), each distinct pair has two in-range entries, and elements
    strictly increase along each target, which k - 1 slices of the flat
    element list compare.  Every such target passes the per-target
    check; False only means that check must run.
    """
    n, k, r = p.n, p.k, p.r
    if not (
        set(map(len, targets)) <= {k}
        and set(map(itemgetter(0), targets)) <= {(1, 1)}
        and all(1 <= x <= n and 1 <= a <= r for x, a in pairs)
    ):
        return False
    # every target has k pairs, so position j of each is every k-th element from j
    elements = list(map(itemgetter(0), itertools.chain.from_iterable(targets)))
    return all(all(map(lt, elements[j::k], elements[j + 1 :: k])) for j in range(k - 1))
