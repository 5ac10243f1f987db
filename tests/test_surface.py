"""The public surface: what `signedfam` exports, and what it no longer does."""

import dataclasses
import importlib
import os
import subprocess
import sys
from pathlib import Path

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


#: The module each public name that is not a module lives in.
HOMES = {
    "signedfam.core": [
        "DEFAULT_CAP", "Pair", "Params", "PlainSet", "SignedFamily", "SignedSet",
        "bound_value", "intersects", "is_intersecting", "make_signed_set", "mod_one_based",
        "shift_signs", "star", "support", "universe",
    ],
    "signedfam.injection": [
        "CertificateReport", "InjectionCertificate", "Partition", "assemble_injection",
        "complements_in_tail", "match_to_shadow", "partition_family", "shadow_to",
        "sign_assign", "verify_certificate",
    ],
    "signedfam.search": [
        "DEFAULT_NODE_BUDGET", "SearchResult", "SplitMix64", "enumerate_maximal_intersecting",
        "max_intersecting_exact", "random_maximal_intersecting",
    ],
}

#: What a fresh search or verify-bound process imports of the library.
SEARCH_MODULES = {"signedfam", "signedfam.core", "signedfam.errors", "signedfam.search"}


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


def test_star_import_binds_each_name_to_its_home_object():
    namespace = {}
    exec("from signedfam import *", namespace)
    del namespace["__builtins__"]
    expected = {
        name: getattr(importlib.import_module(module), name)
        for module, names in HOMES.items()
        for name in names
    }
    expected.update(errors=importlib.import_module("signedfam.errors"))
    expected.update(jsonl=importlib.import_module("signedfam.jsonl"))
    assert sorted(expected) == PUBLIC
    assert namespace.keys() == expected.keys()
    assert [name for name in PUBLIC if namespace[name] is not expected[name]] == []


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        signedfam.no_such_name


def loaded_modules(*args, cwd) -> set:
    """The signedfam modules a fresh `python -X importtime ARGS` imports."""
    env = dict(os.environ, PYTHONPATH=str(Path(signedfam.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    names = {
        line.rsplit("|", 1)[-1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }
    return {name for name in names if name.partition(".")[0] == "signedfam"}


def test_a_bare_import_loads_no_submodule(tmp_path):
    # dir() lists every public name before any submodule is loaded
    script = (
        "import sys, signedfam\n"
        "assert set(signedfam.__all__) <= set(dir(signedfam))\n"
        "assert [m for m in sys.modules if m.startswith('signedfam.')] == []\n"
    )
    assert loaded_modules("-c", script, cwd=tmp_path) == {"signedfam"}


@pytest.mark.parametrize(
    "argv, extra",
    [
        (["search", "-n", "4", "-k", "2", "-r", "2"], set()),
        (["search", "-n", "4", "-k", "2", "-r", "2", "--json"], set()),
        (["verify-bound", "-n", "4", "-k", "2", "-r", "2"], set()),
        (["verify-bound", "-n", "4", "-k", "2", "-r", "2", "--json"], set()),
        (["universe", "-n", "3", "-k", "1", "-r", "2"], {"signedfam.jsonl"}),
        (["star", "-n", "4", "-k", "2", "-r", "2", "--json"], {"signedfam.jsonl"}),
        (["random-family", "-n", "4", "-k", "2", "-r", "2", "--seed", "1", "-o", "f.jsonl"],
         {"signedfam.jsonl"}),
        (["inject", "f.jsonl", "--json"], {"signedfam.injection", "signedfam.jsonl"}),
    ],
    ids=["search", "search-json", "verify-bound", "verify-bound-json", "universe", "star",
         "random-family", "inject"],
)
def test_each_command_loads_only_the_modules_it_runs(tmp_path, argv, extra):
    (tmp_path / "f.jsonl").write_text('{"n":4,"k":2,"r":2,"sets":[[[1,1],[2,1]]]}\n')
    assert loaded_modules("-m", "signedfam.cli", *argv, cwd=tmp_path) == SEARCH_MODULES | extra


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
