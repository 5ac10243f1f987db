"""Spans around calls into signedfam's public functions.

The tracer rebinds public names in the library's module namespaces to
timing wrappers, so the calls the library makes to its own public
functions are timed as well; no library source changes, and with
tracing off nothing is rebound.  A span records its name, start, end,
parent span and op id.  Spans stay in memory until the run writes them.
"""

from __future__ import annotations

import functools
import importlib
from contextlib import contextmanager
from time import perf_counter

#: (module, public name, span name, counter name, counter of the result).
#: The CLI's second verify_certificate call is left unwrapped on purpose:
#: it shows up in cli.residual_s.
BINDINGS = (
    ("signedfam.search", "universe", "core.universe", "search.vertices", len),
    ("signedfam.search", "random_maximal_intersecting", "search.random", None, None),
    ("signedfam.search", "enumerate_maximal_intersecting", "search.enumerate",
     "search.maximal_families", len),
    ("signedfam.cli", "max_intersecting_exact", "search.exact", "search.nodes",
     lambda res: res.nodes_explored),
    ("signedfam.injection", "is_intersecting", "core.is_intersecting", None, None),
    ("signedfam.injection", "partition_family", "injection.partition",
     "injection.free_members", lambda part: len(part.free)),
    ("signedfam.injection", "build_supports", "injection.tails", None, None),
    ("signedfam.injection", "complements_in_tail", "injection.tails", "injection.tails", len),
    ("signedfam.injection", "match_to_shadow", "injection.match", None, None),
    ("signedfam.injection", "shadow_to", "shadow.shadow_to", "shadow.shadow_size", len),
    ("signedfam.injection", "sign_assign", "injection.sign_assign", None, None),
    ("signedfam.injection", "verify_certificate", "injection.verify", None, None),
    ("signedfam.injection", "assemble_injection", "injection.assemble", None, None),
    ("signedfam.cli", "assemble_injection", "injection.assemble", None, None),
    ("signedfam.jsonl", "signed_family_to_json", "jsonl.family_dump", None, None),
    ("signedfam.jsonl", "parse_signed_family", "jsonl.parse", None, None),
    ("signedfam.cli", "read_signed_families", "jsonl.parse", None, None),
    ("signedfam.jsonl", "certificate_to_json", "jsonl.cert_dump", "jsonl.cert_bytes", len),
    ("signedfam.cli", "certificate_to_json", "jsonl.cert_dump", "jsonl.cert_bytes", len),
)

#: Per-layer metric names, in the order they are reported.
TIME_METRICS = (
    "core.universe_s", "search.graph_s", "search.exact_s", "search.enumerate_s",
    "search.random_s", "core.is_intersecting_s", "injection.partition_s",
    "injection.tails_s", "injection.match_s", "shadow.shadow_to_s",
    "injection.sign_assign_s", "injection.assemble_s", "injection.verify_s",
    "jsonl.parse_s", "jsonl.family_dump_s", "jsonl.cert_dump_s",
)
COUNT_METRICS = (
    "search.nodes", "search.vertices", "search.maximal_families",
    "injection.free_members", "injection.tails", "shadow.shadow_size", "jsonl.cert_bytes",
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.op = None
        self._open: list[int] = []
        self._restore: list[tuple] = []

    def install(self) -> None:
        """Rebind every public name in BINDINGS that the library still has."""
        for modname, attr, name, counter, count in BINDINGS:
            module = importlib.import_module(modname)
            fn = getattr(module, attr, None)
            if callable(fn):
                self._restore.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, name, counter, count))

    def uninstall(self) -> None:
        while self._restore:
            module, attr, fn = self._restore.pop()
            setattr(module, attr, fn)

    def _wrap(self, fn, name, counter, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if counter:
                try:
                    span["count"] = {counter: count(result)}
                except (AttributeError, TypeError):
                    pass  # a changed return type loses the counter, not the op
            return result

        return traced

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        span = {"name": name, "start": perf_counter(), "end": None, "parent": parent, "op": self.op}
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        finally:
            span["end"] = perf_counter()
            self._open.pop()

    def record(self, name: str, start: float, end: float) -> int:
        """Add a finished root span, such as an op timed by the runner."""
        self.spans.append({"name": name, "start": start, "end": end, "parent": None, "op": self.op})
        return len(self.spans) - 1

    def adopt(self, spans: list[dict], parent: int) -> None:
        """Append a worker's spans under one of ours; perf_counter is system-wide."""
        base = len(self.spans)
        for s in spans:
            s["parent"] = parent if s["parent"] is None else base + s["parent"]
            s["op"] = self.op
            self.spans.append(s)


def _elapsed(start: float, end: float) -> float:
    return end - start


def layer_totals(spans: list[dict], op=None, duration=_elapsed) -> dict[str, float]:
    """Self time per layer (span time minus its children's) and summed counters.

    With `op`, only spans of that op count.  `duration(start, end)` gives
    a span's time.  A random_maximal_intersecting call that built the
    universe is the cold call that built the intersection graph: its
    self time is search.graph_s, not search.random_s.  Spans named
    "op:..." are ops, not layers.
    """
    child = [0.0] * len(spans)
    cold = set()
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += duration(s["start"], s["end"])
            if s["name"] == "core.universe":
                cold.add(s["parent"])
    out = dict.fromkeys(TIME_METRICS + COUNT_METRICS, 0)
    for i, s in enumerate(spans):
        name = s["name"]
        if name.startswith("op:") or op is not None and s["op"] != op:
            continue
        if name == "search.random" and i in cold:
            name = "search.graph"
        out[name + "_s"] = out.get(name + "_s", 0) + duration(s["start"], s["end"]) - child[i]
        for key, value in s.get("count", {}).items():
            out[key] = out.get(key, 0) + value
    return out


def root_time(spans: list[dict], parent: int, duration=_elapsed) -> float:
    """Summed duration of the spans directly under one span."""
    return sum(duration(s["start"], s["end"]) for s in spans if s["parent"] == parent)
