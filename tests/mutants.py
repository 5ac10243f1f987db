"""Committed mutants that the tests must kill.

    python tests/mutants.py [NAME ...]

Run from the root of a checkout.  Each entry below replaces one exact
text in one module of a temporary copy of src/signedfam, then runs
pytest on the entry's test files against that copy.  A mutant is
killed when pytest fails.  The run fails, exit 1, if any mutant
survives or if an entry's old text is not found exactly once in its
module, so a refactor that moves a text has to update its entry on
purpose.  With names, only those entries run.

Stdlib only; pytest runs in a child process.  The file is not a test
module, so the tier-1 suite does not collect it.  The list only grows:
dropping or weakening an entry is a change to a check, and says why.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    module: str  # file name under src/signedfam
    old: str  # found exactly once in the module
    new: str
    tests: tuple[str, ...]  # pytest paths or node ids, relative to the root
    reason: str


ORBITAL = (
    "        if len(cur) == 1:\n"
    "            # vertex 0's node: one branch per orbit of its stabilizer\n"
    "            live = p_mask\n"
    "            for orbit in orbits:\n"
    "                if aborted or len(cur) + colouring(live)[1][-1] <= best_size:\n"
    "                    return\n"
    "                branch((orbit & -orbit).bit_length() - 1, live)\n"
    "                live ^= orbit\n"
)
EXACT_TESTS = (
    "tests/test_search.py::test_exact_nodes_explored",
    "tests/test_search.py::test_exact_exhausts_within_20000_nodes",
    "tests/test_search.py::test_exact_finds_maximum_from_a_one_vertex_incumbent",
)
PIVOT_TESTS = (
    "tests/test_search.py::test_enumerate_matches_generator_pivot_reference",
    "tests/test_search.py::test_enumerate_pivots_match_generator_pivot_reference",
    "tests/test_search.py::test_enumerate_cap_partial_matches_generator_pivot_reference",
)
COLLECTOR_TESTS = (
    "tests/test_search.py::test_enumerate_lists_with_the_collector_off",
    "tests/test_search.py::test_enumerate_restores_the_collector_state",
    "tests/test_cli.py::test_commands_run_with_the_collector_off",
    "tests/test_cli.py::test_main_restores_the_collector_state",
)
CLI_HEAD = "from .errors import Error, FormatError, NotIntersecting, TooLarge, UnsupportedRange\n"
LISTING = (
    "    with _collector_paused():\n"
    "        bk((1 << len(verts)) - 1, 0)\n"
    "        return to_families(found)\n"
)

MUTANTS = (
    Mutant(
        "orbit-dropped-unbranched",
        "search.py",
        ORBITAL,
        ORBITAL.replace(
            "                branch(",
            "                if orbit is not orbits[-1]:\n                    branch(",
        ),
        EXACT_TESTS,
        "the vertex-0 node must branch on every orbit it drops",
    ),
    Mutant(
        "orbit-branch-outside-its-orbit",
        "search.py",
        ORBITAL,
        ORBITAL.replace("branch((orbit & -orbit)", "branch((live & -live)"),
        EXACT_TESTS,
        "the vertex-0 node branches on the lowest vertex of the orbit it then drops",
    ),
    Mutant(
        "orbit-bound-check-skipped",
        "search.py",
        ORBITAL,
        ORBITAL.replace(
            "if aborted or len(cur) + colouring(live)[1][-1] <= best_size:", "if aborted:"
        ),
        EXACT_TESTS,
        "the live set is recoloured before each orbit, and a bound that cannot win stops",
    ),
    Mutant(
        "prune-strict",
        "search.py",
        "            if len(cur) + col_bound[i] <= best_size:",
        "            if len(cur) + col_bound[i] < best_size:",
        EXACT_TESTS,
        "a colour bound equal to the incumbent prunes",
    ),
    Mutant(
        "pivot-ties-to-last",
        "search.py",
        "            if c > best:\n                best = c\n                pivot = u",
        "            if c >= best:\n                best = c\n                pivot = u",
        PIVOT_TESTS,
        "pivot ties go to the lowest vertex, as the generator scan's do",
    ),
    Mutant(
        "two-candidate-shortcut-forgets-w",
        "search.py",
        "            elif not x & row & adj[pc.bit_length() - 1]:",
        "            elif not x & row:",
        PIVOT_TESTS,
        "cur + [v, w] is maximal iff no excluded vertex meets both v and w",
    ),
    Mutant(
        "listing-without-pause",
        "search.py",
        LISTING,
        LISTING.replace("with _collector_paused():", "if True:"),
        COLLECTOR_TESTS,
        "the maximal-family listing runs with the collector paused",
    ),
    Mutant(
        "pause-ends-before-to-families",
        "search.py",
        LISTING,
        LISTING.replace("        return to_families", "    return to_families"),
        COLLECTOR_TESTS,
        "the families are built, the CapExceeded partial too, with the collector paused",
    ),
    Mutant(
        "collector-always-re-enabled",
        "core.py",
        "        if enabled:\n            gc.enable()",
        "        gc.enable()",
        COLLECTOR_TESTS,
        "a caller that had the collector off keeps it off",
    ),
    Mutant(
        "collector-never-restored",
        "core.py",
        "        if enabled:\n            gc.enable()",
        "        pass",
        COLLECTOR_TESTS,
        "a caller that had the collector on gets it back on",
    ),
    Mutant(
        "is-intersecting-one-outside-row",
        "core.py",
        "_cover_rows(_slot_masks(members), outside))",
        "_cover_rows(_slot_masks(members), outside[:1]))",
        ("tests/test_core.py",),
        "every member outside the core slot must meet every member",
    ),
    Mutant(
        "eager-package-import",
        "__init__.py",
        "__all__ = sorted(_HOMES)\n",
        "__all__ = sorted(_HOMES)\nfor _home in set(_HOMES.values()):\n"
        "    importlib.import_module(f\"{__name__}.{_home}\")\n",
        ("tests/test_surface.py",),
        "import signedfam loads no submodule",
    ),
    Mutant(
        "no-package-dir",
        "__init__.py",
        "def __dir__():",
        "def _dir():",
        ("tests/test_surface.py",),
        "dir(signedfam) lists every public name before any submodule loads",
    ),
    Mutant(
        "lookup-returns-the-module",
        "__init__.py",
        "    value = module if name == home else getattr(module, name)",
        "    value = module",
        ("tests/test_surface.py",),
        "a public name binds its home object, not its home module",
    ),
    Mutant(
        "attribute-error-unnamed",
        "__init__.py",
        "has no attribute {name!r}",
        "has no such attribute",
        ("tests/test_surface.py",),
        "an unknown name's AttributeError names it",
    ),
    Mutant(
        "cli-imports-jsonl-at-the-top",
        "cli.py",
        CLI_HEAD,
        CLI_HEAD + "from . import jsonl  # noqa: F401\n",
        ("tests/test_surface.py::test_each_command_loads_only_the_modules_it_runs",),
        "search and verify-bound load no jsonl",
    ),
    Mutant(
        "cli-imports-search-at-the-top",
        "cli.py",
        CLI_HEAD,
        CLI_HEAD + "from . import search  # noqa: F401\n",
        ("tests/test_surface.py::test_each_command_loads_only_the_modules_it_runs",),
        "inject, universe and star load no search",
    ),
    Mutant(
        "union-filter-or",
        "injection.py",
        "if reduce(and_, map(holders, c), everyone)",
        "if reduce(or_, map(holders, c), 0)",
        ("tests/test_shadow.py",),
        "a union candidate is kept only if one member holds all of it",
    ),
    Mutant(
        "union-floor-dropped",
        "injection.py",
        "if total > _UNION_FLOOR and total > comb(",
        "if total > comb(",
        ("tests/test_shadow.py",),
        "small sums gather per member, where listing the union does not repay",
    ),
    Mutant(
        "kuhn-low-bit",
        "injection.py",
        "                v = free.bit_length()\n",
        "                v = (free & -free).bit_length()\n",
        ("tests/test_matching.py",),
        "the walk takes a row's first unseen neighbour, its top bit",
    ),
    Mutant(
        "range-guard-2k-ge-n",
        "injection.py",
        "    if 2 * p.k > p.n:",
        "    if 2 * p.k >= p.n:",
        ("tests/test_injection.py",),
        "the injection is constructed at 2k = n too",
    ),
    Mutant(
        "target-order-slices-dropped",
        "injection.py",
        "    return all(all(map(lt, elements[j::k], elements[j + 1 :: k])) for j in range(k - 1))",
        "    return True",
        ("tests/test_injection.py",),
        "a target whose elements do not increase is not canonical",
    ),
    Mutant(
        "class-size-limit-off-by-one",
        "injection.py",
        "        if len(members) > limit:",
        "        if len(members) > limit + 1:",
        ("tests/test_injection.py",),
        "a support class larger than r^(k-1) cannot pairwise intersect",
    ),
    Mutant(
        "compact-reader-skips-sign-range",
        "jsonl.py",
        "        if x > params.n or a > params.r:",
        "        if x > params.n:",
        ("tests/test_jsonl.py",),
        "the compact reader refuses a sign above r, as json.loads's path does",
    ),
)


def run(mutant: Mutant, work: Path) -> tuple[bool, str]:
    """Apply one mutant to a fresh copy of src and run its tests: (killed, how)."""
    src = work / "src"
    shutil.rmtree(src, ignore_errors=True)
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    path = src / "signedfam" / mutant.module
    text = path.read_text(encoding="utf-8")
    found = text.count(mutant.old)
    if found != 1:
        return False, f"old text found {found} times in {mutant.module}"
    text = text.replace(mutant.old, mutant.new)
    try:  # a mutant that does not compile would fail every test for nothing
        compile(text, str(path), "exec")
    except SyntaxError as exc:
        return False, f"mutated {mutant.module} does not compile: {exc}"
    path.write_text(text, encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant.tests],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    output = proc.stdout + proc.stderr
    summary = (output.strip().splitlines() or [""])[-1]
    # pytest exits 1 when a test fails, 2 when collecting one fails and 4
    # when the tests' conftest cannot import the mutant; 0 means the mutant
    # survived, and anything else (a bad test path, say) ran no test
    killed = proc.returncode in (1, 2) or (
        proc.returncode == 4 and "while loading conftest" in output
    )
    return killed, f"pytest exited {proc.returncode}: {summary}"


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        for mutant in MUTANTS:
            if names and mutant.name not in names:
                continue
            start = time.perf_counter()
            killed, how = run(mutant, Path(tmp))
            seconds = time.perf_counter() - start
            verdict = "killed" if killed else "NOT KILLED"
            print(f"{mutant.name}: {verdict}, {how} ({seconds:.1f} s)", flush=True)
            failures += not killed
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
