"""Intersecting families of signed sets.

Canonical types and operations, an explicit verified injection of any
in-range intersecting family into the star at (1, 1), and exact
brute-force search oracles confirming the extremal bound
r^(k-1) * C(n-1, k-1) at desk scale.
"""

from .core import (
    DEFAULT_CAP,
    Pair,
    Params,
    PlainSet,
    SignedFamily,
    SignedSet,
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
from .injection import (
    CertificateReport,
    InjectionCertificate,
    Partition,
    assemble_injection,
    complements_in_tail,
    match_to_shadow,
    partition_family,
    shadow_to,
    sign_assign,
    verify_certificate,
)
from .search import (
    DEFAULT_NODE_BUDGET,
    SearchResult,
    SplitMix64,
    enumerate_maximal_intersecting,
    max_intersecting_exact,
    random_maximal_intersecting,
)
from . import errors, jsonl

__all__ = [
    "DEFAULT_CAP",
    "DEFAULT_NODE_BUDGET",
    "CertificateReport",
    "InjectionCertificate",
    "Pair",
    "Params",
    "Partition",
    "PlainSet",
    "SearchResult",
    "SignedFamily",
    "SignedSet",
    "SplitMix64",
    "assemble_injection",
    "bound_value",
    "complements_in_tail",
    "enumerate_maximal_intersecting",
    "errors",
    "intersects",
    "is_intersecting",
    "jsonl",
    "make_signed_set",
    "match_to_shadow",
    "max_intersecting_exact",
    "mod_one_based",
    "partition_family",
    "random_maximal_intersecting",
    "shadow_to",
    "shift_signs",
    "sign_assign",
    "star",
    "support",
    "universe",
    "verify_certificate",
]
