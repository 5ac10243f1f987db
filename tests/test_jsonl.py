"""Wire format round-trips and strict rejection of invalid lines."""

import itertools
import json
import sys
import threading
from collections import namedtuple

import pytest
from conftest import assert_target_refused, reference_certificate_to_json, sf

from signedfam import (
    Params,
    SignedFamily,
    assemble_injection,
    random_maximal_intersecting,
    star,
    universe,
)
from signedfam import jsonl
from signedfam.errors import FormatError
from signedfam.injection import InjectionCertificate
from signedfam.jsonl import (
    certificate_to_json,
    compact_json,
    parse_signed_families,
    parse_signed_family,
    read_signed_families,
    signed_family_to_json,
    write_signed_families,
)


def test_signed_family_json_shape():
    fam = sf(4, 2, 2, [[(1, 1), (2, 2)], [(1, 1), (3, 1)]])
    assert (
        signed_family_to_json(fam)
        == '{"n":4,"k":2,"r":2,"sets":[[[1,1],[2,2]],[[1,1],[3,1]]]}'
    )


def test_signed_family_round_trip():
    for fam in (star(Params(4, 2, 2)), universe(Params(3, 2, 2)), sf(4, 2, 2, [])):
        assert parse_signed_family(signed_family_to_json(fam)) == fam


def test_file_round_trip(tmp_path):
    path = tmp_path / "fams.jsonl"
    fams = [star(Params(4, 2, 2)), star(Params(5, 2, 3))]
    write_signed_families(path, fams)
    assert read_signed_families(path) == fams


SIGNED_REJECTS = [
    ("not json", "not valid JSON"),
    ("[1,2]", "JSON object"),
    ('{"n":4,"k":2,"r":2}', "expected keys"),
    ('{"n":4,"k":2,"r":2,"sets":[],"x":1}', "expected keys"),
    ('{"n":4,"k":2.0,"r":2,"sets":[]}', "integer"),
    ('{"n":1,"k":2,"r":2,"sets":[]}', "1 <= k <= n"),
    ('{"n":4,"k":2,"r":2,"sets":[[[2,1],[1,2]]]}', "element-sorted"),
    ('{"n":4,"k":2,"r":2,"sets":[[[1,1],[1,2]]]}', "appears in two pairs"),
    ('{"n":4,"k":2,"r":2,"sets":[[[0,1],[2,1]]]}', "element 0 outside [1, 4]"),
    ('{"n":4,"k":2,"r":2,"sets":[[[1,1],[5,1]]]}', "outside"),
    ('{"n":4,"k":2,"r":2,"sets":[[[1,1],[2,3]]]}', "outside"),
    ('{"n":4,"k":2,"r":2,"sets":[[[1,1]]]}', "expected 2"),
    ('{"n":4,"k":2,"r":2,"sets":[[[1,1],[2,1]],[[1,1],[2,1]]]}', "duplicate"),
    ('{"n":4,"k":2,"r":2,"sets":[[[1,true],[2,1]]]}', "integer"),
]


@pytest.mark.parametrize("line,fragment", SIGNED_REJECTS)
def test_signed_family_rejects(line, fragment):
    with pytest.raises(FormatError) as info:
        parse_signed_family(line)
    assert fragment in str(info.value)
    assert str(info.value).startswith("line 1:")


@pytest.mark.parametrize("parse", [parse_signed_family])
def test_deeply_nested_line_is_a_format_error(parse):
    # json.loads raises RecursionError here; the reader reports the line instead
    with pytest.raises(FormatError) as info:
        parse("[" * 100_000 + "]" * 100_000, lineno=3)
    assert str(info.value) == "line 3: nested too deeply to parse"


def test_deeply_nested_parameter_is_a_format_error():
    # Params' message shows k; at some depths json.loads decodes, a full
    # repr of it would run past the recursion limit
    for depth in range(1, sys.getrecursionlimit() + 10):
        line = '{"n":4,"k":' + "[" * depth + "]" * depth + ',"r":2,"sets":[]}'
        with pytest.raises(FormatError) as info:
            parse_signed_family(line, lineno=2)
        assert info.value.line == 2


def test_line_numbers_reported():
    good = signed_family_to_json(star(Params(4, 2, 2)))
    with pytest.raises(FormatError) as info:
        parse_signed_families([good, "garbage"])
    assert info.value.line == 2
    with pytest.raises(FormatError) as info:
        parse_signed_families([good, "", good])
    assert info.value.line == 2


def test_certificate_json_shape():
    cert = assemble_injection(sf(2, 1, 2, [[(2, 1)]]))
    assert certificate_to_json(cert) == (
        '{"params":{"n":2,"k":1,"r":2},'
        '"map":[{"from":[[2,1]],"to":[[1,1]]}],'
        '"blocks":{"a0":1,"a":[0,0]}}'
    )


def test_empty_certificate_json_shape():
    cert = assemble_injection(sf(4, 2, 2, []))
    assert certificate_to_json(cert) == (
        '{"params":{"n":4,"k":2,"r":2},"map":[],"blocks":{"a0":0,"a":[0,0]}}'
    )


def test_certificate_json_deterministic():
    fam = sf(4, 2, 2, [m for m in universe(Params(4, 2, 2)).members if (2, 1) in m])
    texts = {certificate_to_json(assemble_injection(fam)) for _ in range(5)}
    assert len(texts) == 1


# Test-only codecs written without the library's shortcuts: no canonical
# tuples written directly, no compact reader and no call to
# make_signed_set.  The library must match them byte for byte and message
# for message.


def _reference_is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def reference_signed_family_to_json(fam):
    obj = {
        "n": fam.params.n,
        "k": fam.params.k,
        "r": fam.params.r,
        "sets": [[[x, a] for x, a in m] for m in fam.members],
    }
    return json.dumps(obj, separators=(",", ":"))


def reference_parse_signed_family(line, lineno=1):
    """The reader's checks in its order, make_signed_set left out.

    JSON shape first, then make_signed_set's rules in that function's
    order and words (element and sign range pair by pair, a repeated
    element, the size), then pair order, then duplicate sets.
    """
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise FormatError(lineno, f"not valid JSON: {exc}") from None
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise FormatError(
            lineno, f"not valid JSON: an integer literal has more than {limit} digits"
        ) from None
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
    members = []
    seen = set()
    for si, raw in enumerate(obj["sets"]):
        if not isinstance(raw, list):
            raise FormatError(lineno, f"set {si} must be an array of pairs")
        for pr in raw:
            if (
                not isinstance(pr, list)
                or len(pr) != 2
                or not _reference_is_int(pr[0])
                or not _reference_is_int(pr[1])
            ):
                raise FormatError(
                    lineno, f"set {si}: pairs must be [element, sign] integer arrays"
                )
        for x, a in raw:
            if not 1 <= x <= params.n:
                raise FormatError(lineno, f"set {si}: element {x} outside [1, {params.n}]")
            if not 1 <= a <= params.r:
                raise FormatError(lineno, f"set {si}: sign {a} outside [1, {params.r}]")
        elements = [x for x, _ in raw]
        for i, x in enumerate(elements):
            if x in elements[:i]:
                raise FormatError(lineno, f"set {si}: element {x} appears in two pairs")
        if len(raw) != params.k:
            raise FormatError(lineno, f"set {si}: expected {params.k} pairs, got {len(raw)}")
        for prev, x in zip(elements, elements[1:]):
            if x < prev:
                raise FormatError(
                    lineno, f"set {si} is not strictly element-sorted at element {x}"
                )
        member = tuple(map(tuple, raw))
        if member in seen:
            raise FormatError(lineno, f"duplicate set {list(member)}")
        seen.add(member)
        members.append(member)
    return SignedFamily(params, tuple(members))


SEEDED_PARAMS = [Params(8, 4, 2), Params(9, 3, 3), Params(9, 4, 2)]


def seeded_families():
    return [random_maximal_intersecting(p, seed) for p in SEEDED_PARAMS for seed in range(20)]


def test_encoders_match_reference_bytes():
    for fam in seeded_families():
        assert signed_family_to_json(fam) == reference_signed_family_to_json(fam)
        cert = assemble_injection(fam)
        assert certificate_to_json(cert) == reference_certificate_to_json(cert)


def test_parse_matches_reference_on_seeded_lines():
    for fam in seeded_families():
        line = signed_family_to_json(fam)
        back = parse_signed_family(line)
        assert back == reference_parse_signed_family(line) == fam
        assert type(back.members) is tuple
        # members out of order are accepted and sorted, as before
        obj = json.loads(line)
        obj["sets"].reverse()
        shuffled = json.dumps(obj)
        assert parse_signed_family(shuffled) == reference_parse_signed_family(shuffled) == fam


EXTRA_REJECTS = [
    '{"n":4,"k":2,"r":2,"sets":[[[1.0,1],[2,1]]]}',
    '{"n":4,"k":2,"r":2,"sets":[[[1,1,1],[2,1]]]}',
    '{"n":4,"k":2,"r":2,"sets":[[1,[2,1]]]}',
    '{"n":4,"k":2,"r":2,"sets":[[[1,1],[2,1.5]]]}',
    '{"n":4,"k":2,"r":2,"sets":[[[-1,1],[2,1]]]}',
    '{"n":4,"k":2,"r":2,"sets":[[[1,0],[2,1]]]}',
    '{"n":4,"k":2,"r":2,"sets":[[[1,1],[2,1],[3,1]]]}',
    '{"n":4,"k":2,"r":2,"sets":[[[1,1],[2,1]],[[1,1],[2,1]],[[1,1]]]}',
    '{"n":4,"k":2,"r":2,"sets":[[[1,1],[3,1]],[[1,1],[2,1]],[[1,1],[3,1]]]}',
    '{"n":4,"k":2,"r":2,"sets":[{"x":1}]}',
    '{"n":4,"k":2,"r":2,"sets":{}}',
    '{"n":true,"k":2,"r":2,"sets":[]}',
    '{"n":4,"k":2,"r":0,"sets":[]}',
    # compact lines, one per check of the compact path
    '{"n":4,"k":2,"r":2,"sets":[[[01,1],[2,1]]]}',
    '{"n":5,"k":3,"r":3,"sets":[[[1,1],[3,1],[2,1]]]}',
    '{"n":5,"k":3,"r":3,"sets":[[[1,1],[2,1]]]}',
    '{"n":5,"k":3,"r":3,"sets":[[[1,1],[2,1],[3,1],[4,1]]]}',
    '{"n":5,"k":3,"r":3,"sets":[[[1,1],[2,1],[6,1]]]}',
    '{"n":5,"k":3,"r":3,"sets":[[[1,1],[2,4],[3,1]]]}',
    '{"n":5,"k":3,"r":3,"sets":[[[1,1],[2,1],[3,0]]]}',
    '{"n":5,"k":3,"r":3,"sets":[[]]}',
    '{"n":2,"k":3,"r":3,"sets":[]}',
    '{"n":4,"k":2,"r":2,"sets":[[[1,1],[2,1]]]}]}',
    '{"n":4,"k":2,"r":2,"sets":[[[1,1],[2,1]]]]',
    '{"n":4,"k":2,"r":2,"sets":[ [1,1],[2,1] ]}',
]


@pytest.mark.parametrize("line", [line for line, _ in SIGNED_REJECTS] + EXTRA_REJECTS)
def test_parse_rejections_match_reference(line):
    with pytest.raises(FormatError) as want:
        reference_parse_signed_family(line, lineno=4)
    with pytest.raises(FormatError) as got:
        parse_signed_family(line, lineno=4)
    assert str(got.value) == str(want.value)
    assert got.value.line == want.value.line == 4


@pytest.mark.parametrize(
    "line",
    [
        '{"n":' + "9" * 5000 + ',"k":2,"r":2,"sets":[]}',
        '{"n":4,"k":2,"r":2,"sets":[[[1,1],[' + "9" * 5000 + ',1]]]}',
    ],
    ids=["head", "pair"],
)
def test_over_long_integer_literal_is_a_format_error(line):
    # int() refuses a literal past sys.get_int_max_str_digits() with ValueError
    with pytest.raises(FormatError) as want:
        reference_parse_signed_family(line, lineno=3)
    with pytest.raises(FormatError) as info:
        parse_signed_family(line, lineno=3)
    assert str(info.value) == str(want.value)
    assert str(info.value).startswith("line 3: not valid JSON: ")
    # a CLI user cannot call an interpreter function to raise the limit
    assert "sys." not in str(info.value)


FAMILY_BYTES = b'{"n":4,"k":2,"r":2,"sets":[[[1,1],[2,1]]]}'


def test_non_utf8_byte_is_a_format_error_naming_its_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    broken = FAMILY_BYTES[:5] + b"\xff" + FAMILY_BYTES[5:]
    path.write_bytes(FAMILY_BYTES + b"\r\n" + broken + b"\n")
    with pytest.raises(FormatError) as info:
        read_signed_families(path)
    assert str(info.value) == "line 2: not valid UTF-8: byte 0xff at column 6"
    assert info.value.line == 2


def test_files_keep_text_mode_newlines(tmp_path):
    # the reader decodes in text mode: CRLF and CR endings read as LF
    path = tmp_path / "crlf.jsonl"
    path.write_bytes(FAMILY_BYTES + b"\r\n" + FAMILY_BYTES + b"\r")
    fam = sf(4, 2, 2, [[(1, 1), (2, 1)]])
    assert read_signed_families(path) == [fam, fam]


def test_byte_order_mark_is_a_format_error(tmp_path):
    path = tmp_path / "bom.jsonl"
    path.write_bytes(b"\xef\xbb\xbf" + FAMILY_BYTES + b"\n")
    with pytest.raises(FormatError) as info:
        read_signed_families(path)
    assert str(info.value) == "line 1: not valid JSON: the line starts with a byte order mark"


def big_inject_line():
    """The (16,5,2) line the benchmark injects: every 5-set led by (2, 1) avoiding 1."""
    sets = [
        [[2, 1]] + [[x, a] for x, a in zip(rest, vec)]
        for rest in itertools.combinations(range(3, 17), 4)
        for vec in itertools.product((1, 2), repeat=4)
    ]
    return json.dumps({"n": 16, "k": 5, "r": 2, "sets": sets}, separators=(",", ":"))


def test_compact_lines_parse_without_json_loads(monkeypatch):
    lines = [signed_family_to_json(fam) for fam in seeded_families()]
    obj = json.loads(lines[0])
    obj["sets"].reverse()
    lines.append(json.dumps(obj, separators=(",", ":")))
    lines.append(big_inject_line())
    want = [reference_parse_signed_family(line) for line in lines]
    huge = 10**12
    huge_line = (
        f'{{"n":{huge},"k":2,"r":{huge},"sets":[[[1,1],[2,1]],[[1,{huge}],[{huge},1]]]}}'
    )
    huge_fam = SignedFamily(Params(huge, 2, huge), (((1, 1), (2, 1)), ((1, huge), (huge, 1))))

    def refuse(*args, **kwargs):
        raise AssertionError("json.loads called on a compact line")

    monkeypatch.setattr("signedfam.jsonl.json.loads", refuse)
    assert [parse_signed_family(line) for line in lines] == want
    # a table over [n] x [r] would not fit in memory here
    assert parse_signed_family(huge_line) == huge_fam
    assert parse_signed_family('{"n":4,"k":2,"r":2,"sets":[]}') == sf(4, 2, 2, [])


Pair = namedtuple("Pair", "x a")


REFUSED, WRITTEN = True, False


@pytest.mark.parametrize(
    "replace, refused",
    [
        pytest.param(lambda t: ((1.0, 1),) + t[1:], REFUSED, id="float"),
        pytest.param(lambda t: ((True, 1),) + t[1:], REFUSED, id="bool"),
        pytest.param(list, REFUSED, id="list-target"),
        pytest.param(lambda t: t[:1] + (list(t[1]),) + t[2:], REFUSED, id="list-pair"),
        pytest.param(lambda t: t[:1] + (t[1] + (1,),) + t[2:], REFUSED, id="3-entry-pair"),
        pytest.param(lambda t: (), WRITTEN, id="empty"),
        pytest.param(lambda t: (Pair(1, 1),) + t[1:], REFUSED, id="namedtuple-pair"),
        pytest.param(lambda t: (("1", 1),) + t[1:], REFUSED, id="str-entry"),
        pytest.param(lambda t: t[:-1] + ((99, 1),), WRITTEN, id="out-of-range"),
        pytest.param(lambda t: t + ((99, 1),), WRITTEN, id="k+1-pairs"),
        pytest.param(lambda t: t[:1] + ({2, 1},) + t[2:], REFUSED, id="set-pair"),
        pytest.param(frozenset, REFUSED, id="set-target"),
    ],
)
def test_certificate_bytes_for_odd_targets(replace, refused):
    # a target that is not a tuple of exact-int pairs never reaches the writer;
    # a tuple of such pairs of any size or range is written as the reference writes it
    cert = assemble_injection(random_maximal_intersecting(Params(9, 4, 2), 3))
    i = len(cert.targets) // 2
    target = replace(cert.targets[i])
    if refused:
        assert_target_refused(cert, i, target)
        return
    odd = InjectionCertificate(cert.domain, cert.targets[:i] + (target,) + cert.targets[i + 1 :])
    assert certificate_to_json(odd) == reference_certificate_to_json(odd)


# The set-text table kept across calls: it may change no byte written
# and no line accepted or refused, whatever it holds.


@pytest.fixture
def text_tables(monkeypatch):
    """An empty set-text table for one test; the module's own comes back after it."""
    monkeypatch.setattr(jsonl, "_texts", {})


def clear_text_tables():
    jsonl._texts.clear()


def held_pairs():
    """What the table holds, counted as MAX_TEXT_PAIRS counts it."""
    return sum(len(table) * p.k for p, table in jsonl._texts.items())


def kept(p, kind):
    """The entries kept under p whose keys are of kind: tuple (a set written) or str (a text read)."""
    return {key: value for key, value in jsonl._texts[p].items() if type(key) is kind}


def assert_round_trip_matches_reference(fam, cert):
    line = signed_family_to_json(fam)
    assert line == reference_signed_family_to_json(fam)
    assert parse_signed_family(line) == reference_parse_signed_family(line) == fam
    assert certificate_to_json(cert) == reference_certificate_to_json(cert)


def test_text_tables_keep_reference_bytes_cold_and_warm(text_tables):
    cases = [(fam, assemble_injection(fam)) for fam in seeded_families()]
    for fam, cert in cases:
        clear_text_tables()
        assert_round_trip_matches_reference(fam, cert)
    for fam, cert in cases:
        assert_round_trip_matches_reference(fam, cert)
    # the second pass found every set it wrote and every text it read, and kept nothing else
    for p in SEEDED_PARAMS:
        written = {s for fam, cert in cases if fam.params == p for s in (*fam, *cert.targets)}
        read = {compact_json(m)[2:-2] for fam, _ in cases if fam.params == p for m in fam}
        assert kept(p, tuple).keys() == written
        assert kept(p, str).keys() == read
    assert jsonl._texts.keys() == set(SEEDED_PARAMS)
    assert held_pairs() <= jsonl.MAX_TEXT_PAIRS


WARM_REUSE_REJECTS = [
    # texts of (9,3,3) sets, refused under a smaller n, a smaller r or another k
    '{"n":8,"k":3,"r":3,"sets":[[[1,1],[2,1],[9,1]]]}',
    '{"n":9,"k":3,"r":2,"sets":[[[1,1],[2,3],[3,1]]]}',
    '{"n":9,"k":2,"r":3,"sets":[[[1,1],[2,1],[3,1]]]}',
    '{"n":9,"k":4,"r":3,"sets":[[[1,1],[2,1],[3,1]]]}',
    '{"n":9,"k":3,"r":3,"sets":[[[1,1],[2,1],[3,1]],[[1,1],[2,1],[3,1]]]}',
]


def assert_refused_as_cold(line):
    with pytest.raises(FormatError) as want:
        reference_parse_signed_family(line, lineno=4)
    with pytest.raises(FormatError) as got:
        parse_signed_family(line, lineno=4)
    assert str(got.value) == str(want.value)
    assert got.value.line == want.value.line == 4


@pytest.mark.parametrize("line", EXTRA_REJECTS + WARM_REUSE_REJECTS)
def test_warm_text_tables_refuse_as_cold(text_tables, line):
    for p in (Params(4, 2, 2), Params(5, 3, 3), Params(9, 3, 3)):
        fam = universe(p)
        assert parse_signed_family(signed_family_to_json(fam)) == fam
    assert jsonl._texts[Params(9, 3, 3)]["1,1],[2,1],[3,1"] == ((1, 1), (2, 1), (3, 1))
    assert_refused_as_cold(line)


def test_writers_keep_no_text_to_set_entries(text_tables):
    fam = random_maximal_intersecting(Params(9, 4, 2), 3)
    cert = assemble_injection(fam)
    signed_family_to_json(fam)
    certificate_to_json(cert)
    written = {s: compact_json(s) for s in (*fam, *cert.targets)}
    assert jsonl._texts == {fam.params: written}
    # the reader keeps text -> set only, for the sets it decoded itself
    parse_signed_family(signed_family_to_json(fam))
    assert kept(fam.params, tuple) == written
    assert kept(fam.params, str) == {compact_json(m)[2:-2]: m for m in fam}


def test_warm_certificate_encodes_no_pair(text_tables, monkeypatch):
    cert = assemble_injection(random_maximal_intersecting(Params(9, 4, 2), 3))
    cold = certificate_to_json(cert)

    def refuse(self, pair):
        raise AssertionError(f"pair {pair} encoded on a warm call")

    monkeypatch.setattr(jsonl._PairTexts, "__missing__", refuse)
    assert certificate_to_json(cert) == cold == reference_certificate_to_json(cert)


def test_written_odd_target_is_refused_as_cold(text_tables):
    cert = assemble_injection(random_maximal_intersecting(Params(9, 4, 2), 3))
    i = len(cert.targets) // 2
    target = cert.targets[i][:-1] + ((99, 1),)  # the out-of-range odd target
    odd = InjectionCertificate(cert.domain, cert.targets[:i] + (target,) + cert.targets[i + 1 :])
    assert certificate_to_json(odd) == reference_certificate_to_json(odd)
    assert jsonl._texts[Params(9, 4, 2)][target] == compact_json(target)
    assert_refused_as_cold(f'{{"n":9,"k":4,"r":2,"sets":[{compact_json(target)}]}}')


@pytest.mark.parametrize("bound", [0, 600, 2000, 20000])
def test_text_tables_stay_within_their_bound(text_tables, monkeypatch, bound):
    monkeypatch.setattr(jsonl, "MAX_TEXT_PAIRS", bound)

    def snapshot():
        return {p: dict(table) for p, table in jsonl._texts.items()}

    for fam in seeded_families():
        before = snapshot()
        assert_round_trip_matches_reference(fam, assemble_injection(fam))
        assert held_pairs() <= bound
        if len(fam) * fam.params.k > bound:  # too many sets: the table is bypassed
            assert snapshot() == before

def test_text_tables_are_safe_across_threads(text_tables, monkeypatch):
    # the two params' sets pass the bound together, so lookups race start-overs
    monkeypatch.setattr(jsonl, "MAX_TEXT_PAIRS", 300)
    families = [
        random_maximal_intersecting(p, seed)
        for p in (Params(6, 3, 2), Params(6, 2, 3))
        for seed in range(3)
    ]
    certs = [assemble_injection(fam) for fam in families]
    want = [
        (reference_signed_family_to_json(fam), reference_certificate_to_json(cert))
        for fam, cert in zip(families, certs)
    ]
    orders = [list(range(t, len(certs))) + list(range(t)) for t in range(4)]
    failures = []

    def run(t):
        try:
            for i in orders[t]:
                line = signed_family_to_json(families[i])
                got = (line, certificate_to_json(certs[i]))
                if got != want[i] or parse_signed_family(line) != families[i]:
                    failures.append(f"thread {t} round-tripped family {i} to other bytes")
        except Exception as exc:
            failures.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(100):
            threads = [threading.Thread(target=run, args=(t,)) for t in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
    finally:
        sys.setswitchinterval(interval)
    assert failures == []
    assert held_pairs() <= 300
