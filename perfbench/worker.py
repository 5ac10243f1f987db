"""Set-up and fresh-process ops for the benchmark runner (run.py).

The runner runs this file with PYTHONPATH pointing at the checkout's
src directory:

    worker.py setup WORKLOAD WORKDIR SEED   import the library, build inputs
    worker.py search N K R SPANS            traced `signedfam search --json`
    worker.py inject FAMILY CERT SPANS      traced `signedfam inject FAMILY -o CERT --json`
    worker.py enumerate N K R OUT [SPANS]   enumerate maximal families into OUT

A traced command writes its spans and peak RSS to SPANS as JSON.
Untraced search and inject ops run the CLI directly, not this file.
"""

from __future__ import annotations

import importlib
import json
import resource
import sys
from pathlib import Path

import inputs
from spans import Tracer


def prepare(workload: str, workdir: Path, seed: int) -> dict:
    """Import the library and generate the workload's inputs.

    For sample this also builds the intersection graph of each parameter
    set once, so timed ops are warm; the cost is set-up time.
    """
    importlib.import_module("signedfam.cli")
    core = importlib.import_module("signedfam.core")
    search = importlib.import_module("signedfam.search")
    if workload == "inject_big":
        n, k, r = inputs.INJECT_PARAMS
        family = inputs.pinned_family(n, k, r)
        line = inputs.family_line(n, k, r, family)
        Path(workdir, "family.jsonl").write_text(line + "\n", encoding="utf-8")
        return {"family": family}
    if workload == "sample":
        seeds = {}
        for params in inputs.SAMPLE_PARAMS:
            seeds[params] = inputs.sample_seeds(seed, params, inputs.SAMPLE_SEEDS)
            search.random_maximal_intersecting(core.Params(*params), 0)
        return {"seeds": seeds}
    return {}


def _traced(spans_path: str, body) -> int:
    tracer = Tracer()
    tracer.install()
    try:
        code = body()
    finally:
        tracer.uninstall()
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        Path(spans_path).write_text(json.dumps({"spans": tracer.spans, "maxrss_kb": peak}))
    return code


def _search(n: str, k: str, r: str, spans_path: str) -> int:
    cli = importlib.import_module("signedfam.cli")
    core = importlib.import_module("signedfam.core")
    search = importlib.import_module("signedfam.search")

    def body() -> int:
        # A cold random family builds and caches the graph (search.graph_s);
        # the search that follows then times only the exact search.
        search.random_maximal_intersecting(core.Params(int(n), int(k), int(r)), 0)
        return cli.main(["search", "-n", n, "-k", k, "-r", r, "--json"])

    return _traced(spans_path, body)


def _inject(family: str, cert: str, spans_path: str) -> int:
    cli = importlib.import_module("signedfam.cli")
    return _traced(spans_path, lambda: cli.main(["inject", family, "-o", cert, "--json"]))


def _enumerate(n: str, k: str, r: str, out: str, spans_path: str | None = None) -> int:
    core = importlib.import_module("signedfam.core")
    search = importlib.import_module("signedfam.search")
    params = (int(n), int(k), int(r))

    def body() -> int:
        families = search.enumerate_maximal_intersecting(core.Params(*params))
        # Families leave as bitmasks over the benchmark's own sorted universe.
        index = {v: i for i, v in enumerate(inputs.universe(*params))}
        lines = []
        for fam in families:
            mask = 0
            for member in fam:
                mask |= 1 << index[member]
            lines.append(format(mask, "x"))
        Path(out).write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        return 0

    return _traced(spans_path, body) if spans_path else body()


def main(argv: list[str]) -> int:
    command, args = argv[0], argv[1:]
    if command == "setup":
        prepare(args[0], Path(args[1]), int(args[2]))
        return 0
    commands = {"search": _search, "inject": _inject, "enumerate": _enumerate}
    return commands[command](*args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
