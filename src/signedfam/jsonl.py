"""Wire formats: family JSONL and certificate JSON.

Signed-family JSONL holds one family per line, pairs as two-element
[element, sign] arrays sorted by element:

    {"n":4,"k":2,"r":2,"sets":[[[1,1],[2,2]],[[1,1],[3,1]]]}

Certificate JSON:

    {"params":{"n":4,"k":2,"r":2},"map":[{"from":[[2,1],[3,1]],"to":[[1,1],[4,1]]}],"blocks":{"a0":1,"a":[0,0]}}

Readers are strict: non-canonical or invalid lines (unsorted pairs,
duplicate sets, wrong sizes, out-of-range values, unexpected keys) are
rejected with a FormatError carrying the 1-based line number.  Writers
emit compact UTF-8 with LF line endings, byte-stable for a fixed input,
all through compact_json.
"""

from __future__ import annotations

import json
from pathlib import Path

from .core import Params, SignedFamily, _canonical_family
from .errors import FormatError
from .injection import InjectionCertificate


#: Compact JSON text, the bytes of json.dumps(obj, separators=(",", ":")).
#: The cycle check is off: every object written is built fresh from
#: tuples, ints, strings and dicts, so none can contain itself, and the
#: check would only add an id-marker entry per container.
compact_json = json.JSONEncoder(separators=(",", ":"), check_circular=False).encode


def signed_family_to_json(fam: SignedFamily) -> str:
    obj = {
        "n": fam.params.n,
        "k": fam.params.k,
        "r": fam.params.r,
        "sets": fam.members,
    }
    return compact_json(obj)


def parse_signed_family(line: str, lineno: int = 1) -> SignedFamily:
    """Parse one family line, rejecting anything invalid or non-canonical."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise FormatError(lineno, f"not valid JSON: {exc}") from None
    except RecursionError:
        raise FormatError(lineno, "nested too deeply to parse") from None
    if not isinstance(obj, dict):
        raise FormatError(lineno, "expected a JSON object")
    if set(obj) != {"n", "k", "r", "sets"}:
        raise FormatError(lineno, f"expected keys n, k, r, sets; got {sorted(obj)}")
    # json.loads yields exact list and int objects (bool is its own type),
    # so type checks stand in for isinstance throughout
    for key in ("n", "k", "r"):
        if type(obj[key]) is not int:
            raise FormatError(lineno, f"{key} must be an integer")
    try:
        params = Params(obj["n"], obj["k"], obj["r"])
    except ValueError as exc:
        raise FormatError(lineno, str(exc)) from None
    if not isinstance(obj["sets"], list):
        raise FormatError(lineno, "sets must be an array")
    n, r = params.n, params.r
    members = []
    seen = set()
    for si, raw in enumerate(obj["sets"]):
        if type(raw) is not list:
            raise FormatError(lineno, f"set {si} must be an array of pairs")
        prev = 0
        for pr in raw:
            if (
                type(pr) is not list
                or len(pr) != 2
                or type(pr[0]) is not int
                or type(pr[1]) is not int
            ):
                raise FormatError(
                    lineno, f"set {si}: pairs must be [element, sign] integer arrays"
                )
            x, a = pr
            if x <= prev:
                raise FormatError(
                    lineno, f"set {si} is not strictly element-sorted at element {x}"
                )
            prev = x
            if x > n:  # and x >= 1, as x > prev >= 0
                raise FormatError(lineno, f"set {si}: element {x} outside [1, {n}]")
            if not 1 <= a <= r:
                raise FormatError(lineno, f"set {si}: sign {a} outside [1, {r}]")
        if len(raw) != params.k:
            raise FormatError(lineno, f"set {si} has {len(raw)} pairs, expected {params.k}")
        member = tuple(map(tuple, raw))
        if member in seen:
            raise FormatError(lineno, f"duplicate set {list(member)}")
        seen.add(member)
        members.append(member)
    # the checks above make every member canonical and distinct, as
    # _canonical_family requires; sort() on an in-order line is one linear scan
    members.sort()
    return _canonical_family(params, tuple(members))


def parse_signed_families(lines) -> list[SignedFamily]:
    """Parse one family per line; blank lines are errors, numbered from 1."""
    out = []
    for lineno, line in enumerate(lines, start=1):
        text = line.rstrip("\n")
        if not text.strip():
            raise FormatError(lineno, "blank line")
        out.append(parse_signed_family(text, lineno))
    return out


def read_signed_families(path) -> list[SignedFamily]:
    with open(path, encoding="utf-8") as fh:
        return parse_signed_families(fh)


def write_signed_families(path, families) -> None:
    text = "".join(signed_family_to_json(f) + "\n" for f in families)
    Path(path).write_text(text, encoding="utf-8", newline="\n")


def certificate_to_json(cert: InjectionCertificate) -> str:
    """Serialize a certificate; byte-identical for equal certificates."""
    blocks = cert.block_sizes
    obj = {
        "params": {"n": cert.params.n, "k": cert.params.k, "r": cert.params.r},
        "map": [{"from": s, "to": t} for s, t in zip(cert.domain.members, cert.targets)],
        "blocks": {"a0": blocks[0], "a": blocks[1:]},
    }
    return compact_json(obj)

