"""Wire formats: family JSONL and certificate JSON.

Signed-family JSONL holds one family per line, pairs as two-element
[element, sign] arrays sorted by element:

    {"n":4,"k":2,"r":2,"sets":[[[1,1],[2,2]],[[1,1],[3,1]]]}

Certificate JSON:

    {"params":{"n":4,"k":2,"r":2},"map":[{"from":[[2,1],[3,1]],"to":[[1,1],[4,1]]}],"blocks":{"a0":1,"a":[0,0]}}

Readers are strict: non-canonical or invalid lines (unsorted pairs,
duplicate sets, wrong sizes, out-of-range values, unexpected keys) are
rejected with a FormatError carrying the 1-based line number.  A line in
exactly the bytes signed_family_to_json writes is decoded without
json.loads; any other line, valid or not, goes through json.loads and
the general checks, which word every rejection.

Writers emit compact UTF-8 with LF line endings, byte-stable for a fixed
input: the bytes of compact_json.  certificate_to_json joins its map
from one text per distinct pair when every target is a tuple of k
tuples of exact ints; anything else goes through compact_json whole.
"""

from __future__ import annotations

import json
import re
import sys
from functools import partial
from itertools import chain, repeat
from operator import itemgetter, lt
from pathlib import Path

from .core import Params, SignedFamily, _canonical_family
from .errors import FormatError
from .injection import InjectionCertificate


#: Compact JSON text, the bytes of json.dumps(obj, separators=(",", ":")).
#: The cycle check is off: every object written is built fresh from
#: tuples, ints, strings and dicts, so none can contain itself, and the
#: check would only add an id-marker entry per container.
compact_json = json.JSONEncoder(separators=(",", ":"), check_circular=False).encode

_flat = chain.from_iterable
_POSITIVE = "([1-9][0-9]*)"
_COMPACT_HEAD = re.compile(rf'\{{"n":{_POSITIVE},"k":{_POSITIVE},"r":{_POSITIVE},"sets":\[')
_COMPACT_PAIR = re.compile(rf"{_POSITIVE},{_POSITIVE}")


def signed_family_to_json(fam: SignedFamily) -> str:
    obj = {
        "n": fam.params.n,
        "k": fam.params.k,
        "r": fam.params.r,
        "sets": fam.members,
    }
    return compact_json(obj)


def _parse_compact(line: str) -> SignedFamily | None:
    """The family of a valid line in signed_family_to_json's bytes, sets in any order.

    None, or a ValueError from int() or Params, for any other line.  Each
    distinct pair text is decoded once, so the work beyond C-level splits
    and maps grows with the distinct pairs, never with n * r.
    """
    head = _COMPACT_HEAD.match(line)
    if head is None or not line.endswith("]}"):
        return None
    params = Params(*map(int, head.groups()))
    body = line[head.end() : -2]
    if not body:
        return _canonical_family(params, ())
    if not (body.startswith("[[") and body.endswith("]]")):
        return None
    sets = list(map(str.split, body[2:-2].split("]],[["), repeat("],[")))
    k = params.k
    if set(map(len, sets)) != {k}:
        return None
    texts = list(_flat(sets))
    table = {}
    for text in set(texts):
        m = _COMPACT_PAIR.fullmatch(text)
        if m is None:
            return None
        x, a = int(m[1]), int(m[2])
        if x > params.n or a > params.r:
            return None
        table[text] = (x, a)
    pairs = list(map(table.__getitem__, texts))
    elements = list(map(itemgetter(0), pairs))
    for j in range(k - 1):
        if not all(map(lt, elements[j::k], elements[j + 1 :: k])):
            return None
    members = list(zip(*[iter(pairs)] * k))
    # strictly increasing members are sorted and distinct; a line from
    # signed_family_to_json is in order, so the sort seldom runs
    if not all(map(lt, members, members[1:])):
        members.sort()
        if not all(map(lt, members, members[1:])):
            return None
    return _canonical_family(params, tuple(members))


def parse_signed_family(line: str, lineno: int = 1) -> SignedFamily:
    """Parse one family line, rejecting anything invalid or non-canonical."""
    try:  # an over-long literal or a bad head is a miss too
        fam = _parse_compact(line)
    except ValueError:
        fam = None
    if fam is not None:
        return fam
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise FormatError(lineno, f"not valid JSON: {exc}") from None
    except ValueError:  # int() refuses a literal past the interpreter's digit limit
        limit = sys.get_int_max_str_digits()
        raise FormatError(
            lineno, f"not valid JSON: an integer literal has more than {limit} digits"
        ) from None
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


class _PairTexts(dict):
    """compact_json text of each pair, encoded on its first lookup."""

    def __missing__(self, pair):
        text = self[pair] = compact_json(pair)
        return text


def _exact_targets(targets, k: int) -> bool:
    """True when every target is a tuple of k tuples of exact ints.

    Only then is one text per distinct pair what compact_json writes:
    (1.0, 1) and (True, 1) equal (1, 1) and would be given its text.
    """
    return (
        set(map(type, targets)) <= {tuple}
        and set(map(len, targets)) <= {k}
        and set(map(type, _flat(targets))) <= {tuple}
        and set(map(type, _flat(_flat(targets)))) <= {int}
    )


def certificate_to_json(cert: InjectionCertificate) -> str:
    """Serialize a certificate; byte-identical for equal certificates."""
    params, blocks = cert.params, cert.block_sizes
    sources, targets = cert.domain.members, cert.targets
    k = params.k
    # sources need no guard: SignedFamily holds signed k-sets only
    if _exact_targets(targets, k):
        texts = _PairTexts().__getitem__
        columns = map(partial(map, texts), chain(zip(*sources), zip(*targets)))
        seps = ['{"from":['] + [","] * (k - 1) + ['],"to":['] + [","] * (k - 1)
        # one row per entry: each pair text after its separator, then the close
        rows = zip(*_flat(zip(map(repeat, seps), columns)), repeat("]},", len(sources)))
        map_text = f"[{''.join(_flat(rows))[:-1]}]"
    else:
        map_text = compact_json([{"from": s, "to": t} for s, t in zip(sources, targets)])
    head = compact_json({"n": params.n, "k": k, "r": params.r})
    tail = compact_json({"a0": blocks[0], "a": blocks[1:]})
    return f'{{"params":{head},"map":{map_text},"blocks":{tail}}}'
