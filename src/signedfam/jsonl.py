"""Wire formats: family JSONL and certificate JSON.

Signed-family JSONL holds one family per line, pairs as two-element
[element, sign] arrays sorted by element:

    {"n":4,"k":2,"r":2,"sets":[[[1,1],[2,2]],[[1,1],[3,1]]]}

Certificate JSON:

    {"params":{"n":4,"k":2,"r":2},"map":[{"from":[[2,1],[3,1]],"to":[[1,1],[4,1]]}],"blocks":{"a0":1,"a":[0,0]}}

Readers are strict: an invalid or non-canonical line is a FormatError
carrying its 1-based line number.  A line in exactly the bytes
signed_family_to_json writes is decoded without json.loads.  Any other
line goes through json.loads, and the reader itself checks only UTF-8,
JSON syntax and shape (four keys, arrays, pairs of two exact ints),
element order within a set and duplicate sets; Params words a bad n, k
or r, and make_signed_set a set's ranges, repeated elements and size.

Writers emit compact UTF-8 with LF line endings, byte-stable for a fixed
input: the bytes of compact_json.  certificate_to_json writes its map
one row per entry, and both sides of a row the way signed_family_to_json
writes a set, which InjectionCertificate makes sound: its targets, like
its sources, are tuples of exact-int pairs.

Set texts are kept across calls, per (n, k, r), in one table.  A tuple
key maps a set written, a family member or a certificate target, to its
full compact text, [] for an empty target; writers add these entries
only.  A str key maps an inner text the compact reader split, the set's
text without the outer "[[" and "]]", to the set the reader itself
decoded and checked; a str never equals a tuple, so no text a writer
kept answers a read, and a text kept under one (n, k, r) is never looked
up under a smaller n or r or another k.  MAX_TEXT_PAIRS bounds the table
over all params: past it the table starts over, and a call too large for
it bypasses it.  The table never changes a byte written or a line's
verdict.
"""

from __future__ import annotations

import json
import re
import sys
import threading
from functools import partial
from itertools import chain, pairwise, repeat
from operator import itemgetter, lt
from pathlib import Path

from .core import Params, SignedFamily, _canonical_family, make_signed_set
from .errors import Error, FormatError
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
#: What the surrogateescape error handler decodes a byte 0x80-0xff that is not UTF-8 to.
_UNDECODED = re.compile("[\udc80-\udcff]")

#: Ceiling on the set-text table, under 10 MB: an entry for a signed k-set
#: counts k, summed over all params.  Every set of (8,4,2), (9,3,3) and
#: (9,4,2), written and read, counts 38,696.  A call whose own entries would
#: pass it, such as one over the 16,016 5-sets the benchmark injects at
#: (16,5,2) (80,080), bypasses the table rather than flush it.
MAX_TEXT_PAIRS = 2**16

#: Per params, the text of each set written and the set of each inner text read.
_texts: dict[Params, dict] = {}
_tables_lock = threading.Lock()


class _PairTexts(dict):
    """compact_json text of each pair, encoded on its first lookup."""

    def __missing__(self, pair):
        text = self[pair] = compact_json(pair)
        return text


def _kept(params: Params, keys, make) -> list | None:
    """The value of each key under params: a set's text, or an inner text's set.

    Kept values are looked up; make maps the misses to their values in
    one call, or to None, which is returned.  The misses are kept, after
    the table starts over if they could pass MAX_TEXT_PAIRS.  Keys too
    many for the table bypass it.  Values are never empty, so a miss is
    the one falsy lookup.
    """
    k = params.k
    if len(keys) * k > MAX_TEXT_PAIRS:
        return make(keys)
    table = _texts.get(params)
    if table:
        found = list(map(table.get, keys))
        if None not in found:
            return found
        misses = [key for key, value in zip(keys, found) if value is None]
    else:
        found, misses = None, keys
    fresh = make(misses)
    if fresh is None:
        return None
    with _tables_lock:
        held = sum(len(kept) * p.k for p, kept in _texts.items())
        if held + len(misses) * k > MAX_TEXT_PAIRS:
            _texts.clear()
        _texts.setdefault(params, {}).update(zip(misses, fresh))
    if found is None:
        return fresh
    fresh = iter(fresh)
    return [value or next(fresh) for value in found]


def _encode_sets(members) -> list[str]:
    """Compact texts of signed sets, from one text per distinct pair."""
    texts = _PairTexts().__getitem__
    join = ",".join
    return [f"[{join(map(texts, s))}]" for s in members]


def signed_family_to_json(fam: SignedFamily) -> str:
    n, k, r = fam.params.n, fam.params.k, fam.params.r
    sets = ",".join(_kept(fam.params, fam.members, _encode_sets))
    return f'{{"n":{n},"k":{k},"r":{r},"sets":[{sets}]}}'


def _decode_sets(params: Params, texts: list[str]) -> list | None:
    """The signed sets of one or more inner texts, or None if any is not a
    canonical k-set under params.

    Each distinct pair text is decoded once, so the work beyond C-level
    splits and maps grows with the distinct pairs, never with n * r.
    """
    sets = list(map(str.split, texts, repeat("],[")))
    k = params.k
    if set(map(len, sets)) != {k}:
        return None
    pair_texts = list(_flat(sets))
    table = {}
    for text in set(pair_texts):
        m = _COMPACT_PAIR.fullmatch(text)
        if m is None:
            return None
        x, a = int(m[1]), int(m[2])
        if x > params.n or a > params.r:
            return None
        table[text] = (x, a)
    pairs = list(map(table.__getitem__, pair_texts))
    elements = list(map(itemgetter(0), pairs))
    for j in range(k - 1):
        if not all(map(lt, elements[j::k], elements[j + 1 :: k])):
            return None
    return list(zip(*[iter(pairs)] * k))


def _parse_compact(line: str) -> SignedFamily | None:
    """The family of a valid line in signed_family_to_json's bytes, sets in any order.

    None, or a ValueError from int() or Params, for any other line.  An
    inner text kept under the line's params gives the set the reader
    decoded from it before; only the others are decoded and checked,
    then kept.  The order and duplicate checks run on every line's sets,
    kept or not.
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
    texts = body[2:-2].split("]],[[")
    members = _kept(params, texts, partial(_decode_sets, params))
    if members is None:
        return None
    # strictly increasing members are sorted and distinct; a line from
    # signed_family_to_json is in order, but the benchmark's inject_big
    # line and CI's big.jsonl are not, so both take the sort on every run
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
    undecoded = _UNDECODED.search(line)  # a byte read_signed_families could not decode
    if undecoded:
        byte, column = ord(undecoded[0]) - 0xDC00, undecoded.start() + 1
        raise FormatError(lineno, f"not valid UTF-8: byte 0x{byte:02x} at column {column}")
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        why = "the line starts with a byte order mark" if line.startswith("\ufeff") else exc
        raise FormatError(lineno, f"not valid JSON: {why}") from None
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
    try:
        params = Params(obj["n"], obj["k"], obj["r"])
    except ValueError as exc:
        raise FormatError(lineno, str(exc)) from None
    if not isinstance(obj["sets"], list):
        raise FormatError(lineno, "sets must be an array")
    members = {}  # in line order, so that sorted() on an in-order line is one linear scan
    for si, raw in enumerate(obj["sets"]):
        # json.loads yields exact list and int objects (bool is its own
        # type), so type checks stand in for isinstance
        if type(raw) is not list:
            raise FormatError(lineno, f"set {si} must be an array of pairs")
        for pr in raw:
            if type(pr) is not list or list(map(type, pr)) != [int, int]:
                raise FormatError(
                    lineno, f"set {si}: pairs must be [element, sign] integer arrays"
                )
        member = tuple(map(tuple, raw))
        try:
            canon = make_signed_set(member, params)
        except Error as exc:
            raise FormatError(lineno, f"set {si}: {exc}") from None
        if canon != member:  # elements are distinct, so some pair follows a larger one
            x = next(b[0] for a, b in pairwise(member) if b[0] < a[0])
            raise FormatError(lineno, f"set {si} is not strictly element-sorted at element {x}")
        if member in members:
            raise FormatError(lineno, f"duplicate set {list(member)}")
        members[member] = None
    # every member is canonical and distinct, as _canonical_family requires
    return _canonical_family(params, tuple(sorted(members)))


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
    """Read a family file; a byte that is not UTF-8 is a FormatError naming its line."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        return parse_signed_families(fh)


def write_signed_families(path, families) -> None:
    text = "".join(signed_family_to_json(f) + "\n" for f in families)
    Path(path).write_text(text, encoding="utf-8", newline="\n")


def certificate_to_json(cert: InjectionCertificate) -> str:
    """Serialize a certificate; byte-identical for equal certificates.

    One row per entry.  Sources and targets both take their texts from
    the set-text table; a target, a tuple of exact-int pairs of any
    length, is written as a set is, and an empty one as [].
    """
    params, blocks = cert.params, cert.block_sizes
    sources = _kept(params, cert.domain.members, _encode_sets)
    targets = _kept(params, cert.targets, _encode_sets)
    rows = [f'{{"from":{s},"to":{t}}}' for s, t in zip(sources, targets)]
    head = compact_json({"n": params.n, "k": params.k, "r": params.r})
    tail = compact_json({"a0": blocks[0], "a": blocks[1:]})
    return f'{{"params":{head},"map":[{",".join(rows)}],"blocks":{tail}}}'
