"""Intersecting families of signed sets.

Canonical types and operations, an explicit verified injection of any
in-range intersecting family into the star at (1, 1), and exact
brute-force search oracles confirming the extremal bound
r^(k-1) * C(n-1, k-1) at desk scale.

Submodules load on first use: ``import signedfam`` loads none of them,
and a name below imports its home module when it is first looked up.
"""

import importlib

#: The home module of each public name; the name of a module is the module.
_HOMES = {
    name: home
    for home, names in {
        "core": (
            "DEFAULT_CAP", "Pair", "Params", "PlainSet", "SignedFamily", "SignedSet",
            "bound_value", "intersects", "is_intersecting", "make_signed_set",
            "mod_one_based", "shift_signs", "star", "support", "universe",
        ),
        "injection": (
            "CertificateReport", "InjectionCertificate", "Partition", "assemble_injection",
            "complements_in_tail", "match_to_shadow", "partition_family", "shadow_to",
            "sign_assign", "verify_certificate",
        ),
        "search": (
            "DEFAULT_NODE_BUDGET", "SearchResult", "SplitMix64",
            "enumerate_maximal_intersecting", "max_intersecting_exact",
            "random_maximal_intersecting",
        ),
        "errors": ("errors",),
        "jsonl": ("jsonl",),
    }.items()
    for name in names
}

__all__ = sorted(_HOMES)


def __getattr__(name):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{home}")
    value = module if name == home else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
