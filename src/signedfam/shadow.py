"""Shadows of uniform plain families.

The s-shadow of a uniform family collects every s-subset of every
member.  Containment is read inclusively at equal size (the shadow of
a family at its own member size is the family itself), and the
0-shadow of a nonempty family is the one-member family holding the
empty set.  Both conventions are needed so the downstream pipeline
degenerates cleanly at 2k = n and at k = 1.  The injection's matching
runs between the tail complements and their (k-1)-shadow.
"""

from __future__ import annotations

import itertools

from .core import PlainFamily
from .errors import SizeExceedsMembers


def shadow_to(fam: PlainFamily, s: int) -> PlainFamily:
    """All s-subsets of members of fam, deduplicated."""
    if not fam.members:
        if s < 0:
            raise SizeExceedsMembers(f"shadow size {s} is negative")
        return PlainFamily(fam.ground, ())
    m = fam.size
    if s < 0 or s > m:
        raise SizeExceedsMembers(f"shadow size {s} outside [0, {m}]")
    if s == m:
        return fam
    out = set()
    for member in fam.members:
        out.update(itertools.combinations(member, s))
    return PlainFamily(fam.ground, tuple(out))
