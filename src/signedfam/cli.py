"""Command-line entry point.

Subcommands: universe, star, inject, search, verify-bound,
random-family.  Families travel as JSONL (one family per line); with
--json stdout carries machine-readable JSON, otherwise human text.
--cap bounds the member count of universe and star; search,
verify-bound and random-family are bounded by the graph size limit alone.

Exit codes: 0 success, 2 invalid parameters or parse errors, 3 over
--cap or intersection graph too large, 4 input family not
intersecting, 5 parameters outside the constructed range (2k > n),
1 anything else: a certificate that fails verification, an internal
fault (recursion or memory exhausted) reported on one line, or a stdout
closed before all was written, with nothing on stderr.

Each command runs with the cyclic garbage collector paused.  What a
command builds (sets, families, certificates, masks) is held in acyclic
containers, so the collector's passes would rescan it without ever
freeing any of it; the garbage a run leaves in cycles is argparse's, a
few hundred objects whatever the input size.  main() restores the
collector's state on every exit, so a caller that had it on gets it
back on, and one that had it off keeps it off.  The state is
process-wide: while a command runs, other threads' cycles wait too.

A command imports only the modules it runs: search, injection and
jsonl load inside the commands that use them, so search and
verify-bound load core, errors and search alone, inject loads no
search, and universe and star load jsonl besides core and errors.
"""

from __future__ import annotations

import argparse
import contextlib
import sys

from .core import (
    DEFAULT_CAP,
    DEFAULT_NODE_BUDGET,
    Params,
    _collector_paused,
    bound_value,
    compact_json,
    star,
    universe,
)
from .errors import Error, FormatError, NotIntersecting, TooLarge, UnsupportedRange


def max_intersecting_exact(params: Params, node_budget: int):
    """search.max_intersecting_exact, with search loaded on the first call.

    It is a module attribute, not an import inside the commands, so that
    rebinding cli.max_intersecting_exact reaches both commands that
    search, as a tracer or a test may.
    """
    from .search import max_intersecting_exact

    return max_intersecting_exact(params, node_budget=node_budget)


def _format_set(sset) -> str:
    return "{" + ",".join(f"({x},{a})" for x, a in sset) + "}"


def _decimal(value: int) -> str:
    """A non-negative int in decimal, however many digits it has.

    str() refuses more digits than sys.get_int_max_str_digits(), so a
    longer value is written in chunks of that many.
    """
    width = sys.get_int_max_str_digits()
    chunk = 10**width
    parts = []
    while width and value >= chunk:
        value, low = divmod(value, chunk)
        parts.append(f"{low:0{width}d}")
    parts.append(str(value))
    return "".join(reversed(parts))


def _params(args) -> Params:
    return Params(args.n, args.k, args.r)


def _emit_family(fam, args) -> int:
    from .jsonl import signed_family_to_json, write_signed_families

    if args.out:
        write_signed_families(args.out, [fam])
        if args.json:
            print(compact_json({"size": len(fam), "path": args.out}))
        else:
            print(len(fam))
    elif args.json:
        print(signed_family_to_json(fam))
    else:
        for m in fam.members:
            print(_format_set(m))
    return 0


def _cmd_universe(args) -> int:
    return _emit_family(universe(_params(args), cap=args.cap), args)


def _cmd_star(args) -> int:
    return _emit_family(star(_params(args), cap=args.cap), args)


def _cmd_random_family(args) -> int:
    from .search import random_maximal_intersecting

    return _emit_family(random_maximal_intersecting(_params(args), args.seed), args)


def _cmd_inject(args) -> int:
    from .injection import assemble_injection
    from .jsonl import certificate_to_json, read_signed_families

    families = read_signed_families(args.family)
    if len(families) != 1:
        raise ValueError(f"expected exactly one family in {args.family}, found {len(families)}")
    # assemble_injection has verified the certificate; a failure raised
    # VerificationFailed, which exits 1.
    cert = assemble_injection(families[0])
    text = certificate_to_json(cert)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text + "\n")
        size, bound = len(cert.domain), _decimal(bound_value(cert.params))
        if args.json:  # compact_json's bytes, with a bound of any length
            print(f'{{"size":{size},"bound":{bound},"ok":true}}')
        else:
            print(f"mapped {size} sets into the star (bound {bound})")
    else:
        print(text)
    return 0


def _cmd_search(args) -> int:
    res = max_intersecting_exact(_params(args), node_budget=args.budget)
    if args.json:
        print(
            compact_json(
                {
                    "params": {"n": args.n, "k": args.k, "r": args.r},
                    "max_size": res.max_size,
                    "nodes_explored": res.nodes_explored,
                    "exhausted": res.exhausted,
                    "witness": res.witness.members,
                }
            )
        )
    else:
        state = "true" if res.exhausted else "false"
        print(f"max={res.max_size} nodes={res.nodes_explored} exhausted={state}")
    return 0


def _cmd_verify_bound(args) -> int:
    """Run the exact search and compare it with the formula bound.

    For r >= 2 the two agree on every feasible instance; for r = 1 and
    2k > n the search exceeds the formula, which is why the injection
    refuses 2k > n.  A spent node budget reports the run inconclusive,
    never wrong.
    """
    res = max_intersecting_exact(_params(args), node_budget=args.budget)
    size, bound = res.max_size, bound_value(_params(args))
    if args.json:
        print(
            compact_json(
                {
                    "params": {"n": args.n, "k": args.k, "r": args.r},
                    "max_size": size,
                    "bound": bound,
                    "matches": size == bound,
                    "conclusive": res.exhausted,
                    "nodes_explored": res.nodes_explored,
                }
            )
        )
    elif not res.exhausted:
        print(f"max>={size} bound={bound} inconclusive (node budget exhausted)")
    elif size == bound:
        print(f"max={size} bound={bound} ok")
    elif args.r == 1 and 2 * args.k > args.n:
        print(f"max={size} bound={bound} VIOLATION(expected: r=1 regime)")
    else:
        print(f"max={size} bound={bound} VIOLATION")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="signedfam",
        description="Intersecting families of signed sets: construction, "
        "exact search, and verified injections into the star.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_params(sp):
        sp.add_argument("-n", type=int, required=True, help="ground-set size")
        sp.add_argument("-k", type=int, required=True, help="set size")
        sp.add_argument("-r", type=int, required=True, help="number of signs")

    def add_json(sp):
        sp.add_argument("--json", action="store_true", help="machine-readable stdout")

    for name, func, text in (
        ("universe", _cmd_universe, "write all signed k-sets"),
        ("star", _cmd_star, "write all signed k-sets containing (1,1)"),
    ):
        sp = sub.add_parser(name, help=text)
        add_params(sp)
        sp.add_argument("-o", "--out", help="output JSONL path")
        sp.add_argument("--cap", type=int, default=DEFAULT_CAP, help="family member cap")
        add_json(sp)
        sp.set_defaults(func=func)

    sp = sub.add_parser("inject", help="map a family file into the star")
    sp.add_argument("family", help="input family JSONL (exactly one line)")
    sp.add_argument("-o", "--out", help="output certificate JSON path")
    add_json(sp)
    sp.set_defaults(func=_cmd_inject)

    for name, func, text in (
        ("search", _cmd_search, "exact maximum intersecting family size"),
        ("verify-bound", _cmd_verify_bound, "compare exact search against the formula"),
    ):
        sp = sub.add_parser(name, help=text)
        add_params(sp)
        sp.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET, help="search node budget")
        add_json(sp)
        sp.set_defaults(func=func)

    sp = sub.add_parser("random-family", help="seeded random maximal intersecting family")
    add_params(sp)
    sp.add_argument("--seed", type=int, required=True, help="64-bit seed (mandatory)")
    sp.add_argument("-o", "--out", help="output JSONL path")
    add_json(sp)
    sp.set_defaults(func=_cmd_random_family)

    return parser


#: Exit code per reported error type; the first type the error is an instance of wins.
_EXIT_CODES = {
    FormatError: 2,
    ValueError: 2,
    OSError: 2,
    TooLarge: 3,
    NotIntersecting: 4,
    UnsupportedRange: 5,
    Error: 1,
}


def main(argv=None) -> int:
    with _collector_paused():
        args = build_parser().parse_args(argv)
        try:
            code = args.func(args)
            print(end="", flush=True)  # a closed stdout is found here, not at shutdown
            return code
        except BrokenPipeError:
            # stdout's reader is gone: close it, dropping what it holds, so that
            # nothing is written there again; the file descriptor stays open
            with contextlib.suppress(BrokenPipeError):
                sys.stdout.close()
            return 1
        except tuple(_EXIT_CODES) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))
        except (RecursionError, MemoryError) as exc:
            detail = f"{type(exc).__name__}: {exc}" if str(exc) else type(exc).__name__
            print(f"error: internal: {detail}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
