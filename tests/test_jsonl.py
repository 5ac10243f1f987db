"""Wire format round-trips and strict rejection of invalid lines."""

import itertools
import json
import sys
from collections import namedtuple

import pytest
from conftest import (
    free_tails,
    parse_plain_families,
    parse_plain_family,
    pf,
    plain_family_to_json,
    read_plain_families,
    sf,
    write_plain_families,
)

from signedfam import (
    Params,
    SignedFamily,
    assemble_injection,
    partition_family,
    random_maximal_intersecting,
    star,
    support,
    universe,
)
from signedfam.errors import FormatError
from signedfam.injection import InjectionCertificate
from signedfam.jsonl import (
    certificate_to_json,
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
    ('{"n":4,"k":2,"r":2,"sets":[[[1,1],[1,2]]]}', "element-sorted"),
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


@pytest.mark.parametrize("parse", [parse_signed_family, parse_plain_family])
def test_deeply_nested_line_is_a_format_error(parse):
    # json.loads raises RecursionError here; the reader reports the line instead
    with pytest.raises(FormatError) as info:
        parse("[" * 100_000 + "]" * 100_000, lineno=3)
    assert str(info.value) == "line 3: nested too deeply to parse"


def test_line_numbers_reported():
    good = signed_family_to_json(star(Params(4, 2, 2)))
    with pytest.raises(FormatError) as info:
        parse_signed_families([good, "garbage"])
    assert info.value.line == 2
    with pytest.raises(FormatError) as info:
        parse_signed_families([good, "", good])
    assert info.value.line == 2


def test_plain_line_numbers_reported():
    good = plain_family_to_json(pf(5, [[2, 3], [2, 4]]))
    with pytest.raises(FormatError) as info:
        parse_plain_families([good, "garbage"])
    assert info.value.line == 2
    with pytest.raises(FormatError) as info:
        parse_plain_families([good, "", good])
    assert info.value.line == 2


def test_plain_family_round_trip():
    fam = pf(5, [[2, 3], [2, 4]])
    text = plain_family_to_json(fam)
    assert text == '{"n":5,"sets":[[2,3],[2,4]]}'
    assert parse_plain_family(text) == fam


@pytest.mark.parametrize(
    "line,fragment",
    [
        ('{"n":5}', "expected keys"),
        ('{"n":5,"sets":[[3,2]]}', "sorted"),
        ('{"n":5,"sets":[[2,2]]}', "sorted"),
        ('{"n":5,"sets":[[2,9]]}', "outside"),
        ('{"n":5,"sets":[[2,3],[2]]}', "common size"),
        ('{"n":5,"sets":[[2,3],[2,3]]}', "duplicate"),
    ],
)
def test_plain_family_rejects(line, fragment):
    with pytest.raises(FormatError) as info:
        parse_plain_family(line, lineno=3)
    assert fragment in str(info.value)
    assert info.value.line == 3


@pytest.mark.parametrize(
    "line,message",
    [
        ('{"n":true,"sets":[[2,3]]}', "n must be a positive integer"),
        ('{"n":5,"sets":[[2,true]]}', "set 0 must be an array of integers"),
        ('{"n":5,"sets":[[2,3],[2.0,4]]}', "set 1 must be an array of integers"),
    ],
)
def test_plain_family_rejects_non_integers(line, message):
    # bools and floats are not integers; text and line as the reader always gave
    good = plain_family_to_json(pf(5, [[2, 3], [2, 4]]))
    with pytest.raises(FormatError) as info:
        parse_plain_families([good, good, line])
    assert str(info.value) == f"line 3: {message}"
    assert info.value.line == 3


def test_plain_families_multi_line():
    fams = [pf(5, [[2, 3], [2, 4]]), pf(4, [[1], [2]])]
    lines = [plain_family_to_json(f) for f in fams]
    assert parse_plain_families(lines) == fams


def test_plain_family_file_round_trip(tmp_path):
    path = tmp_path / "plain.jsonl"
    fams = [pf(5, [[2, 3], [2, 4]]), pf(6, [[2, 3, 4]])]
    write_plain_families(path, fams)
    assert read_plain_families(path) == fams


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


# Test-only copies of the codecs before they wrote the canonical tuples
# directly and parsed in one pass; the library must match them byte for
# byte and message for message.


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


def reference_plain_family_to_json(fam):
    obj = {"n": fam.ground, "sets": [list(m) for m in fam.members]}
    return json.dumps(obj, separators=(",", ":"))


def reference_certificate_to_json(cert):
    obj = {
        "params": {"n": cert.params.n, "k": cert.params.k, "r": cert.params.r},
        "map": [
            {"from": [[x, a] for x, a in s], "to": [[x, a] for x, a in t]}
            for s, t in cert.mapping
        ],
        "blocks": {"a0": cert.block_sizes[0], "a": list(cert.block_sizes[1:])},
    }
    return json.dumps(obj, separators=(",", ":"))


def reference_parse_signed_family(line, lineno=1):
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
    for key in ("n", "k", "r"):
        if not _reference_is_int(obj[key]):
            raise FormatError(lineno, f"{key} must be an integer")
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
        prev = 0
        pairs = []
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
            x, a = pr
            if x <= prev:
                raise FormatError(
                    lineno, f"set {si} is not strictly element-sorted at element {x}"
                )
            prev = x
            if not 1 <= x <= params.n:
                raise FormatError(lineno, f"set {si}: element {x} outside [1, {params.n}]")
            if not 1 <= a <= params.r:
                raise FormatError(lineno, f"set {si}: sign {a} outside [1, {params.r}]")
            pairs.append((x, a))
        if len(pairs) != params.k:
            raise FormatError(lineno, f"set {si} has {len(pairs)} pairs, expected {params.k}")
        member = tuple(pairs)
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
        supports = pf(fam.params.n, {support(m) for m in partition_family(fam).free})
        for plain in (supports, pf(fam.params.n, free_tails(fam))):
            assert plain_family_to_json(plain) == reference_plain_family_to_json(plain)
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
    '{"n":4,"k":2,"r":2,"sets":[[[0,1],[2,1]]]}',
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


def compact_certificate_reference(cert):
    """The certificate bytes when every object went through compact_json."""
    blocks = cert.block_sizes
    obj = {
        "params": {"n": cert.params.n, "k": cert.params.k, "r": cert.params.r},
        "map": [{"from": s, "to": t} for s, t in zip(cert.domain.members, cert.targets)],
        "blocks": {"a0": blocks[0], "a": blocks[1:]},
    }
    return json.dumps(obj, separators=(",", ":"))


Pair = namedtuple("Pair", "x a")


@pytest.mark.parametrize(
    "replace",
    [
        lambda t: ((1.0, 1),) + t[1:],
        lambda t: ((True, 1),) + t[1:],
        list,
        lambda t: t[:1] + (list(t[1]),) + t[2:],
        lambda t: t[:1] + (t[1] + (1,),) + t[2:],
        lambda t: (),
        lambda t: (Pair(1, 1),) + t[1:],
        lambda t: (("1", 1),) + t[1:],
        lambda t: t[:-1] + ((99, 1),),
        lambda t: t + ((99, 1),),
        lambda t: t[:1] + ({2, 1},) + t[2:],
        frozenset,
    ],
    ids=[
        "float", "bool", "list-target", "list-pair", "3-entry-pair", "empty",
        "namedtuple-pair", "str-entry", "out-of-range", "k+1-pairs", "set-pair",
        "set-target",
    ],
)
def test_certificate_bytes_for_odd_targets(replace):
    cert = assemble_injection(random_maximal_intersecting(Params(9, 4, 2), 3))
    targets = list(cert.targets)
    targets[len(targets) // 2] = replace(targets[len(targets) // 2])
    odd = InjectionCertificate(cert.domain, tuple(targets))
    try:
        want = compact_certificate_reference(odd)
    except Exception as exc:  # the same type must escape the library
        with pytest.raises(type(exc)):
            certificate_to_json(odd)
    else:
        assert certificate_to_json(odd) == want
