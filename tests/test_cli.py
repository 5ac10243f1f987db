"""CLI behavior: exit codes, output shapes, round-trips, determinism."""

import gc
import io
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import signedfam
from signedfam import (
    CertificateReport,
    Params,
    SignedFamily,
    assemble_injection,
    star,
)
from signedfam.cli import _decimal, main
from signedfam.core import bound_value
from signedfam.errors import VerificationFailed
from signedfam.jsonl import read_signed_families, signed_family_to_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_star_writes_file_and_prints_size(capsys, tmp_path):
    out = tmp_path / "star.jsonl"
    code, stdout, _ = run(capsys, "star", "-n", "4", "-k", "2", "-r", "2", "-o", str(out))
    assert code == 0
    assert stdout.strip() == "6"
    assert read_signed_families(out) == [star(Params(4, 2, 2))]


def test_universe_human_mode_prints_one_member_per_line(capsys):
    code, stdout, _ = run(capsys, "universe", "-n", "2", "-k", "1", "-r", "2")
    assert code == 0
    assert stdout.splitlines() == ["{(1,1)}", "{(1,2)}", "{(2,1)}", "{(2,2)}"]


def test_star_json_mode_round_trips(capsys):
    code, stdout, _ = run(capsys, "star", "-n", "4", "-k", "2", "-r", "2", "--json")
    assert code == 0
    assert stdout.strip() == signed_family_to_json(star(Params(4, 2, 2)))


def test_invalid_params_exit_2(capsys):
    code, _, stderr = run(capsys, "star", "-n", "1", "-k", "2", "-r", "1")
    assert code == 2
    assert "error" in stderr


def test_cap_exit_3(capsys):
    code, _, stderr = run(
        capsys, "universe", "-n", "20", "-k", "10", "-r", "3", "--cap", "100"
    )
    assert code == 3
    assert "cap" in stderr.lower()


def test_inject_star_round_trip(capsys, tmp_path):
    fam_path = tmp_path / "fam.jsonl"
    cert_path = tmp_path / "cert.json"
    run(capsys, "star", "-n", "4", "-k", "2", "-r", "2", "-o", str(fam_path))
    code, stdout, _ = run(capsys, "inject", str(fam_path), "-o", str(cert_path))
    assert code == 0
    assert stdout == "mapped 6 sets into the star (bound 6)\n"
    code, stdout, _ = run(capsys, "inject", str(fam_path), "-o", str(cert_path), "--json")
    assert code == 0
    assert stdout == '{"size":6,"bound":6,"ok":true}\n'
    cert = json.loads(cert_path.read_text())
    assert cert["params"] == {"n": 4, "k": 2, "r": 2}
    assert cert["blocks"] == {"a0": 0, "a": [6, 0]}
    assert all(entry["from"] == entry["to"] for entry in cert["map"])


def test_inject_prints_certificate_without_out(capsys, tmp_path):
    fam_path = tmp_path / "fam.jsonl"
    run(capsys, "star", "-n", "4", "-k", "2", "-r", "2", "-o", str(fam_path))
    code, stdout, _ = run(capsys, "inject", str(fam_path))
    assert code == 0
    assert json.loads(stdout)["params"] == {"n": 4, "k": 2, "r": 2}


def test_inject_non_intersecting_exit_4(capsys, tmp_path):
    fam_path = tmp_path / "bad.jsonl"
    fam_path.write_text(
        '{"n":4,"k":2,"r":2,"sets":[[[1,1],[2,1]],[[3,1],[4,1]]]}\n'
    )
    code, _, stderr = run(capsys, "inject", str(fam_path))
    assert code == 4


def test_inject_out_of_range_exit_5(capsys, tmp_path):
    fam_path = tmp_path / "fam.jsonl"
    run(capsys, "star", "-n", "5", "-k", "3", "-r", "2", "-o", str(fam_path))
    code, _, _ = run(capsys, "inject", str(fam_path))
    assert code == 5


def test_inject_parse_error_exit_2(capsys, tmp_path):
    fam_path = tmp_path / "bad.jsonl"
    fam_path.write_text("not json\n")
    code, _, stderr = run(capsys, "inject", str(fam_path))
    assert code == 2
    assert "line 1" in stderr


def test_inject_deeply_nested_line_exit_2(capsys, tmp_path):
    fam_path = tmp_path / "deep.jsonl"
    fam_path.write_text("[" * 100_000 + "]" * 100_000 + "\n")
    code, stdout, stderr = run(capsys, "inject", str(fam_path))
    assert code == 2
    assert stdout == ""
    assert stderr == "error: line 1: nested too deeply to parse\n"


@pytest.mark.parametrize(
    "data, line",
    [
        (b'{"n":4,"k":1,"r":2,"sets":[[[1,1]]]}\r\n{"n":4,\xff}\r\n', 2),
        (b'\xef\xbb\xbf{"n":4,"k":1,"r":2,"sets":[[[1,1]]]}\n', 1),
    ],
    ids=["non-utf-8", "bom"],
)
def test_inject_undecodable_file_names_its_line_exit_2(capsys, tmp_path, data, line):
    fam_path = tmp_path / "bytes.jsonl"
    fam_path.write_bytes(data)
    code, stdout, stderr = run(capsys, "inject", str(fam_path))
    assert code == 2
    assert stdout == ""
    assert stderr.startswith(f"error: line {line}: ")
    # in words a CLI user can act on: no codec names
    assert "codec" not in stderr and "utf-8-sig" not in stderr


def test_inject_missing_file_exit_2(capsys, tmp_path):
    code, _, _ = run(capsys, "inject", str(tmp_path / "nope.jsonl"))
    assert code == 2


def test_verify_bound_ok_line(capsys):
    code, stdout, _ = run(capsys, "verify-bound", "-n", "4", "-k", "2", "-r", "2")
    assert code == 0
    assert stdout.strip() == "max=6 bound=6 ok"


def test_verify_bound_r1_violation_line(capsys):
    code, stdout, _ = run(capsys, "verify-bound", "-n", "3", "-k", "2", "-r", "1")
    assert code == 0
    assert stdout.strip() == "max=3 bound=2 VIOLATION(expected: r=1 regime)"


def test_verify_bound_json(capsys):
    code, stdout, _ = run(capsys, "verify-bound", "-n", "4", "-k", "2", "-r", "3", "--json")
    assert code == 0
    obj = json.loads(stdout)
    assert obj["max_size"] == obj["bound"] == 9
    assert obj["matches"] and obj["conclusive"]
    assert stdout == (
        '{"params":{"n":4,"k":2,"r":3},"max_size":9,"bound":9,'
        '"matches":true,"conclusive":true,"nodes_explored":2}\n'
    )


@pytest.mark.parametrize(
    "argv, line",
    [
        (
            ["-n", "3", "-k", "2", "-r", "1"],
            '{"params":{"n":3,"k":2,"r":1},"max_size":3,"bound":2,'
            '"matches":false,"conclusive":true,"nodes_explored":1}',
        ),
        (
            ["-n", "9", "-k", "4", "-r", "2", "--budget", "5"],
            '{"params":{"n":9,"k":4,"r":2},"max_size":448,"bound":448,'
            '"matches":true,"conclusive":false,"nodes_explored":5}',
        ),
    ],
)
def test_verify_bound_json_bytes(capsys, argv, line):
    # keys in this order; an aborted run reports exactly its budget of nodes
    code, stdout, _ = run(capsys, "verify-bound", *argv, "--json")
    assert code == 0
    assert stdout == line + "\n"


def test_search_human_and_json(capsys):
    code, stdout, _ = run(capsys, "search", "-n", "6", "-k", "3", "-r", "2")
    assert code == 0
    assert stdout.startswith("max=40 ")
    code, stdout, _ = run(capsys, "search", "-n", "4", "-k", "2", "-r", "2", "--json")
    obj = json.loads(stdout)
    assert obj["max_size"] == 6
    assert obj["exhausted"] is True
    assert len(obj["witness"]) == 6


def test_random_family_deterministic_bytes(capsys, tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for path in (a, b):
        code, _, _ = run(
            capsys, "random-family", "-n", "4", "-k", "2", "-r", "2",
            "--seed", "99", "-o", str(path),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_random_family_output_injects(capsys, tmp_path):
    fam_path = tmp_path / "rand.jsonl"
    run(
        capsys, "random-family", "-n", "6", "-k", "3", "-r", "2",
        "--seed", "5", "-o", str(fam_path),
    )
    code, _, _ = run(capsys, "inject", str(fam_path), "-o", str(tmp_path / "c.json"))
    assert code == 0


def test_random_family_requires_seed(capsys):
    with pytest.raises(SystemExit) as info:
        main(["random-family", "-n", "4", "-k", "2", "-r", "2"])
    assert info.value.code == 2


def raise_in_search(monkeypatch, fault):
    def fail(*args, **kwargs):
        raise fault

    monkeypatch.setattr("signedfam.cli.max_intersecting_exact", fail)


@pytest.mark.parametrize(
    "fault, line",
    [
        (RecursionError("maximum recursion depth exceeded"),
         "error: internal: RecursionError: maximum recursion depth exceeded"),
        (MemoryError(), "error: internal: MemoryError"),
    ],
)
def test_internal_fault_exit_1(capsys, monkeypatch, fault, line):
    raise_in_search(monkeypatch, fault)
    code, stdout, stderr = run(capsys, "search", "-n", "4", "-k", "2", "-r", "2")
    assert code == 1
    assert stdout == ""
    assert stderr == line + "\n"


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv",
    [
        ["universe", "-n", "10", "-k", "5", "-r", "2"],
        ["universe", "-n", "10", "-k", "5", "-r", "2", "--json"],
        ["search", "-n", "9", "-k", "4", "-r", "2", "--json"],
        ["star", "-n", "4", "-k", "2", "-r", "2"],
    ],
    ids=["universe", "universe-json", "search-json", "small-star"],
)
def test_closed_stdout_exit_1_saying_nothing(argv, buffered):
    # the reader closes the pipe first; a small output fails only at its flush
    src = str(Path(signedfam.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED="" if buffered else "1")
    proc = subprocess.Popen(
        [sys.executable, "-m", "signedfam.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert stderr == b""


def plant_failing_report(monkeypatch, problem):
    def verify(cert):
        return CertificateReport((problem,))

    monkeypatch.setattr("signedfam.injection.verify_certificate", verify)


def test_failed_verification_exit_1(capsys, monkeypatch, tmp_path):
    fam_path = tmp_path / "fam.jsonl"
    run(capsys, "star", "-n", "4", "-k", "2", "-r", "2", "-o", str(fam_path))
    plant_failing_report(monkeypatch, "planted problem")
    code, stdout, stderr = run(capsys, "inject", str(fam_path), "-o", str(tmp_path / "c.json"))
    assert code == 1
    assert stdout == ""
    assert stderr == "error: planted problem\n"
    assert not (tmp_path / "c.json").exists()


def test_assemble_raises_on_failed_verification(monkeypatch):
    plant_failing_report(monkeypatch, "planted problem")
    with pytest.raises(VerificationFailed, match=r"^planted problem$"):
        assemble_injection(star(Params(4, 2, 2)))


@pytest.mark.parametrize(
    "argv",
    [["search"], ["verify-bound"], ["random-family", "--seed", "1"]],
)
def test_graph_commands_take_no_cap(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv + ["-n", "4", "-k", "2", "-r", "2", "--cap", "5"])
    assert info.value.code == 2
    assert "unrecognized arguments: --cap 5" in capsys.readouterr().err


def test_star_cap_exit_3(capsys):
    code, stdout, stderr = run(capsys, "star", "-n", "4", "-k", "2", "-r", "2", "--cap", "5")
    assert code == 3
    assert stdout == ""
    assert stderr == "error: star has 6 members, cap is 5\n"


@pytest.mark.parametrize("command", ["universe", "star"])
def test_negative_cap_exit_2(capsys, command):
    code, stdout, stderr = run(capsys, command, "-n", "3", "-k", "1", "-r", "2", "--cap", "-1")
    assert code == 2
    assert stdout == ""
    assert stderr == "error: cap must be >= 0, got -1\n"


def test_zero_cap_exit_3(capsys):
    code, stdout, stderr = run(capsys, "universe", "-n", "3", "-k", "1", "-r", "2", "--cap", "0")
    assert code == 3
    assert stdout == ""
    assert stderr == "error: universe has 6 members, cap is 0\n"


@pytest.mark.parametrize(
    "command",
    [["universe"], ["star"], ["search"], ["verify-bound"], ["random-family", "--seed", "1"]],
)
def test_size_too_long_to_print_exit_3(capsys, command):
    # the member count has 9,029 digits, past str()'s default limit of 4,300
    code, stdout, stderr = run(capsys, *command, "-n", "20000", "-k", "10000", "-r", "2")
    assert code == 3
    assert stdout == ""
    assert stderr.startswith("error: ")
    assert "sys." not in stderr


@pytest.mark.parametrize(
    "flags, line",
    [
        ([], "mapped 1 sets into the star (bound {})\n"),
        (["--json"], '{{"size":1,"bound":{},"ok":true}}\n'),
    ],
    ids=["text", "json"],
)
def test_inject_prints_a_bound_past_the_digit_limit(capsys, tmp_path, flags, line):
    # one 10,000-pair set at n = 20,000: the bound has 9,029 digits, past str()'s limit of 4,300
    fam_path = tmp_path / "fam.jsonl"
    sets = [[[x, 1] for x in range(1, 10_001)]]
    fam_path.write_text(json.dumps({"n": 20_000, "k": 10_000, "r": 2, "sets": sets}) + "\n")
    out = tmp_path / "cert.json"
    code, stdout, stderr = run(capsys, "inject", str(fam_path), "-o", str(out), *flags)
    assert (code, stderr) == (0, "")
    assert out.stat().st_size == 177_881
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        bound = str(bound_value(Params(20_000, 10_000, 2)))
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(bound) == 9029
    assert stdout == line.format(bound)


@pytest.mark.parametrize("limit", [640, 4300, 0])
def test_decimal_writes_every_digit(limit):
    # chunk edges: a zero chunk, a chunk of nines, a value of exactly one chunk
    values = [0, 9, 10**640, 10**4300 - 1, 10**4300, 7 * 10**8600 + 1, 3**20_000]
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        got = [_decimal(v) for v in values]
        sys.set_int_max_str_digits(0)
        assert got == [str(v) for v in values]
    finally:
        sys.set_int_max_str_digits(old)


def test_huge_search_refused_at_a_lower_bound(capsys):
    # refused before r^k * C(n, k), 451,542 digits, is worked out
    code, stdout, stderr = run(capsys, "search", "-n", "1000000", "-k", "500000", "-r", "2")
    assert code == 3
    assert stdout == ""
    assert stderr == (
        "error: graph has more than <14289-bit int>^2 adjacency bits, limit is 4294967296\n"
    )


@pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
def test_out_of_range_seed_exit_2(capsys, seed):
    code, stdout, stderr = run(
        capsys, "random-family", "-n", "4", "-k", "2", "-r", "2", "--seed", seed
    )
    assert code == 2
    assert stdout == ""
    assert stderr == f"error: seed must be in [0, 2^64), got {seed}\n"


def test_verify_bound_inconclusive_line(capsys):
    code, stdout, _ = run(
        capsys, "verify-bound", "-n", "9", "-k", "4", "-r", "2", "--budget", "5"
    )
    assert code == 0
    assert stdout == "max>=448 bound=448 inconclusive (node budget exhausted)\n"


@pytest.mark.parametrize("lines", [[], ['{"n":4,"k":1,"r":2,"sets":[[[1,1]]]}'] * 2])
def test_inject_needs_exactly_one_family_exit_2(capsys, tmp_path, lines):
    fam_path = tmp_path / "fam.jsonl"
    fam_path.write_text("".join(line + "\n" for line in lines))
    code, stdout, stderr = run(capsys, "inject", str(fam_path))
    assert code == 2
    assert stdout == ""
    assert stderr == f"error: expected exactly one family in {fam_path}, found {len(lines)}\n"


@pytest.mark.parametrize(
    "argv, size",
    [
        (["universe", "-n", "3", "-k", "2", "-r", "2"], 12),
        (["star", "-n", "4", "-k", "2", "-r", "2"], 6),
        (["random-family", "-n", "5", "-k", "2", "-r", "2", "--seed", "3"], 3),
    ],
)
def test_out_with_json_prints_size_and_path(capsys, tmp_path, argv, size):
    out = tmp_path / "s.jsonl"
    code, stdout, _ = run(capsys, *argv, "-o", str(out), "--json")
    assert code == 0
    assert stdout == json.dumps({"size": size, "path": str(out)}, separators=(",", ":")) + "\n"
    assert len(read_signed_families(out)[0]) == size


@pytest.mark.parametrize("command", ["search", "verify-bound"])
def test_negative_budget_exit_2(capsys, command):
    code, stdout, stderr = run(capsys, command, "-n", "4", "-k", "2", "-r", "2", "--budget", "-3")
    assert code == 2
    assert stdout == ""
    assert stderr == "error: node budget must be >= 0, got -3\n"


def test_commands_run_with_the_collector_off(capsys, monkeypatch, collector_state):
    seen = []

    def command(args):
        seen.append(gc.isenabled())
        return 0

    monkeypatch.setattr("signedfam.cli._cmd_search", command)
    gc.enable()
    assert run(capsys, "search", "-n", "4", "-k", "2", "-r", "2") == (0, "", "")
    assert seen == [False]
    assert gc.isenabled()


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize(
    "argv, code, plant",
    [
        (["star", "-n", "4", "-k", "2", "-r", "2"], 0, None),
        (["star", "-n", "1", "-k", "2", "-r", "1"], 2, None),
        (["random-family", "-n", "4", "-k", "2", "-r", "2"], 2, "argparse"),
        (["universe", "-n", "20", "-k", "10", "-r", "3", "--cap", "100"], 3, None),
        (["search", "-n", "4", "-k", "2", "-r", "2"], 1, BrokenPipeError),
        (["search", "-n", "4", "-k", "2", "-r", "2"], 1, MemoryError),
    ],
    ids=["exit-0", "exit-2-params", "exit-2-argparse", "exit-3", "exit-1-closed-stdout",
         "exit-1-internal"],
)
def test_main_restores_the_collector_state(
    capsys, monkeypatch, collector_state, argv, code, plant, enabled
):
    if plant is BrokenPipeError:
        # the reader is gone: main closes stdout, here a stand-in
        monkeypatch.setattr(sys, "stdout", io.StringIO())
    if plant in (BrokenPipeError, MemoryError):
        raise_in_search(monkeypatch, plant())
    if enabled:
        gc.enable()
    else:
        gc.disable()
    if plant == "argparse":
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == code
    else:
        assert main(argv) == code
    assert gc.isenabled() is enabled


def test_cyclic_garbage_after_inject_does_not_grow_with_the_family(tmp_path):
    # with the collector off throughout, what one main() call leaves in
    # cycles is counted afterwards; a large family must leave no more
    small = tmp_path / "small.jsonl"
    small.write_text(signed_family_to_json(star(Params(4, 2, 2))) + "\n")
    sets = [
        ((2, 1),) + tuple(zip(rest, vec))
        for rest in itertools.combinations(range(3, 17), 4)
        for vec in itertools.product((1, 2), repeat=4)
    ]
    large = tmp_path / "large.jsonl"
    large.write_text(signed_family_to_json(SignedFamily(Params(16, 5, 2), sets)) + "\n")
    script = (
        "import gc, sys\n"
        "gc.disable()\n"
        "from signedfam.cli import main\n"
        "gc.collect()\n"
        "code = main(sys.argv[1:])\n"
        "print(code, gc.isenabled(), gc.collect(), file=sys.stderr)\n"
    )
    src = str(Path(signedfam.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    counts = []
    for fam in (small, large):
        proc = subprocess.run(
            [sys.executable, "-c", script, "inject", str(fam), "-o", str(tmp_path / "c.json")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        code, enabled, garbage = proc.stderr.split()
        assert (code, enabled) == ("0", "False")
        counts.append(int(garbage))
    assert len(sets) == 16_016
    assert counts[0] == counts[1]
