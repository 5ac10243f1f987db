"""The public surface: what `signedfam` exports, and what it no longer does."""

import dataclasses
import importlib

import pytest

import signedfam

PUBLIC = [
    "CertificateReport",
    "DEFAULT_CAP",
    "DEFAULT_NODE_BUDGET",
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

#: Helpers only tests called.  The library must not define them; some live
#: on in tests/conftest.py as test references, the plain-family ones are gone.
TEST_ONLY = [
    "strip_first",
    "MissingPair",
    "signed_versions",
    "shift_signs_family",
    "plain_family_to_json",
    "parse_plain_family",
    "parse_plain_families",
    "read_plain_families",
    "write_plain_families",
    "katona_check",
    "min_pairwise_intersection",
    "KatonaReport",
    "TooFewMembers",
    "NotTIntersecting",
    "PlainFamily",
    "NonUniform",
    "SizeExceedsMembers",
    "plain_shadow",
]

#: Names the library dropped.  The exact search and bound_value say what
#: verify_bound and BoundReport said; _Family's container methods live in
#: SignedFamily, the one family type; InjectionCertificate refuses the
#: targets _is_pair_tuple and _exact_targets looked for.
REMOVED = ["verify_bound", "BoundReport", "_Family", "_is_pair_tuple", "_exact_targets"]

#: Modules the library dropped: shadow_to moved into injection.
REMOVED_MODULES = ["signedfam.shadow"]

MODULES = (
    ["signedfam"]
    + [f"signedfam.{name}" for name in ("core", "injection", "search", "jsonl", "errors", "cli")]
    + REMOVED_MODULES
)


def names_in(module, names):
    """The names module defines; a removed module must not import at all."""
    if module in REMOVED_MODULES:
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)
        return []
    mod = importlib.import_module(module)
    return [name for name in names if hasattr(mod, name)]


def test_all_lists_the_public_names():
    assert sorted(signedfam.__all__) == PUBLIC
    assert [name for name in PUBLIC if not hasattr(signedfam, name)] == []


@pytest.mark.parametrize("module", MODULES)
def test_test_only_names_are_not_in_the_library(module):
    assert names_in(module, TEST_ONLY) == []


@pytest.mark.parametrize("module", MODULES)
def test_removed_names_are_gone(module):
    assert names_in(module, REMOVED) == []



def test_certificate_holds_only_its_domain_and_targets():
    # params, mapping and block_sizes are read off the domain, so they cannot disagree
    fields = [f.name for f in dataclasses.fields(signedfam.InjectionCertificate)]
    assert fields == ["domain", "targets"]
    assert [f.name for f in dataclasses.fields(signedfam.CertificateReport)] == ["problems"]
    # the distinct pairs its type check gathers stay out of eq, hash and repr
    cert = signedfam.assemble_injection(signedfam.star(signedfam.Params(4, 2, 2)))
    assert repr(cert) == f"InjectionCertificate(domain={cert.domain!r}, targets={cert.targets!r})"
    fresh = [tuple((x, a) for x, a in t) for t in cert.targets]
    twin = signedfam.InjectionCertificate(cert.domain, fresh)
    assert twin == cert and hash(twin) == hash(cert)


def test_results_hold_only_what_they_found():
    # max_size and ok are read off the witness and the problems, so they cannot disagree
    fields = [f.name for f in dataclasses.fields(signedfam.SearchResult)]
    assert fields == ["witness", "nodes_explored", "exhausted"]
    res = signedfam.max_intersecting_exact(signedfam.Params(4, 2, 2))
    assert res.max_size == len(res.witness) == 6
    with pytest.raises(TypeError):
        dataclasses.replace(res, max_size=1)
    with pytest.raises(TypeError):
        signedfam.CertificateReport(ok=True, problems=())
    assert signedfam.CertificateReport(()).ok
    assert not signedfam.CertificateReport(("a problem",)).ok
