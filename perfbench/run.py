"""signedfam benchmark runner.

    python3 perfbench/run.py --workload {oracle,inject_big,sample} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it builds nothing and uses the
library in src/ as it stands.  It sets up, then repeats timed passes of
the workload's ops (one client, one op at a time: a closed loop) for
about S seconds, checks every output with the benchmark's own code, and
prints one JSON line last: end-to-end metrics with --trace 0, per-layer
metrics from a traced pass with --trace 1.  A record of the run, with
per-op times, exact-repeat counters and spans, goes to .bench_out/.
perfbench/README.md explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from math import comb
from pathlib import Path
from time import perf_counter

import checks
import inputs
import pace
import worker
from spans import COUNT_METRICS, TIME_METRICS, Tracer, layer_totals, root_time

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
PY = sys.executable
#: A run ends within this many seconds even if ops hang.
RUN_LIMIT_S = 150
#: Per-op timeouts; a timed-out op counts as failed and the run goes on.
OP_LIMIT_S = {"oracle": 60, "inject_big": 100, "sample": 20}
SETUP_REPEATS = 5
SETUP_BUDGET_S = 2.0
STARTUP_REPEATS = 3
#: Rounds of passes that always run, so every op has a median of several samples.
MIN_ROUNDS = 2
SEARCH_REPEATS = 3
SEARCH_SAMPLE_S = 2.0


@dataclass
class Op:
    name: str
    start: float
    end: float
    problems: list[str]
    rss_kb: int = 0
    cli: bool = False
    span: int | None = None  # index of the op's span in a traced pass
    exact: dict = field(default_factory=dict)  # outputs that must repeat exactly
    seconds: float = 0.0  # end - start in reference-speed seconds, set after the passes


class OpTimeout(Exception):
    pass


class Run:
    """State of one benchmark run: where it works and how long it may take."""

    def __init__(self, workload: str, seed: int, work: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.work = work
        self.deadline = perf_counter() + RUN_LIMIT_S
        self.meter = pace.Meter()
        self.tracer: Tracer | None = None
        self.inputs: dict = {}
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC)] + ([path] if path else [])))

    def op_limit(self) -> float:
        return min(OP_LIMIT_S[self.workload], self.deadline - perf_counter() - 5)

    def process(self, name: str, argv: list[str], cli: bool) -> tuple[Op, bytes]:
        """Run one op in a fresh process; in a traced pass, adopt its spans."""
        limit = self.op_limit()
        if limit <= 0:
            return not_started(name, cli), b""
        out, err = self.work / "op.out", self.work / "op.err"
        spans_file = self.work / "spans.json"
        spans_file.unlink(missing_ok=True)
        start, end, code, rss_kb = run_process([PY, *argv], out, err, limit, self.env, self.meter)
        op = Op(name, start, end, [], rss_kb, cli)
        if code is None:
            op.problems.append(f"timed out after {limit:.0f} s")
        elif code != 0:
            tail = err.read_text(errors="replace").strip().splitlines()[-1:]
            op.problems.append(f"exit code {code}: {' '.join(tail)}")
        if self.tracer is not None:
            self.tracer.op = name
            op.span = self.tracer.record(f"op:{name}", start, end)
            if code == 0 and spans_file.exists():
                traced = json.loads(spans_file.read_text())
                self.tracer.adopt(traced["spans"], op.span)
                op.rss_kb = traced["maxrss_kb"]
        return op, out.read_bytes()


def not_started(name: str, cli: bool = False) -> Op:
    now = perf_counter()
    return Op(name, now, now, ["not started: run time limit reached"], cli=cli)


def run_process(argv, out_path, err_path, limit, env, meter: pace.Meter):
    """Run a child to completion or timeout: (start, end, exit code or None, peak RSS KB).

    The child is reaped with wait4 so its own peak RSS is known, by a
    thread so that the wait can time out.  The meter reads the CPU's
    speed while the child runs.
    """
    with open(out_path, "wb") as out, open(err_path, "wb") as err, meter.running():
        start = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        done = {}

        def reap() -> None:
            _, status, usage = os.wait4(proc.pid, 0)
            done.update(end=perf_counter(), status=status, rss=usage.ru_maxrss)

        waiter = threading.Thread(target=reap)
        waiter.start()
        waiter.join(limit)
        timed_out = waiter.is_alive()
        if timed_out:
            proc.kill()
            waiter.join()
        proc.returncode = os.waitstatus_to_exitcode(done["status"])
    return start, done["end"], None if timed_out else proc.returncode, done["rss"]


def sha256(data) -> str:
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()


# --- workloads: each pass runs every op once and returns the Op records ---


def search_op(run: Run, params: tuple, argv: list[str]) -> Op:
    op, stdout = run.process(f"search {inputs.params_key(params)}", argv, cli=True)
    if not op.problems:
        try:
            result = json.loads(stdout)
        except ValueError:
            op.problems.append("search output is not JSON")
        else:
            op.problems += checks.check_witness(result, *params)
            witness = json.dumps(result.get("witness"), separators=(",", ":"))
            op.exact = {
                "max_size": result.get("max_size"),
                "nodes": result.get("nodes_explored"),
                "sha256": sha256(witness),
            }
    return op


def oracle_pass(run: Run, traced: bool) -> list[Op]:
    """The search ladder, then the enumeration.

    In an untraced pass a search runs again, up to SEARCH_REPEATS times,
    while its runs have taken under SEARCH_SAMPLE_S in all: op_p50_s
    falls on one of the short searches, and more samples steady it.  A
    traced pass runs each search once, so its counters repeat exactly.
    """
    ops = []
    spans = str(run.work / "spans.json")
    for params in inputs.ORACLE_LADDER:
        n, k, r = map(str, params)
        if traced:
            argv = [str(BENCH / "worker.py"), "search", n, k, r, spans]
        else:
            argv = ["-m", "signedfam.cli", "search", "-n", n, "-k", k, "-r", r, "--json"]
        spent = 0.0
        for _ in range(1 if traced else SEARCH_REPEATS):
            ops.append(search_op(run, params, argv))
            spent += ops[-1].end - ops[-1].start
            if spent >= SEARCH_SAMPLE_S:
                break

    params = inputs.ENUMERATE_PARAMS
    listing = run.work / "families.txt"
    listing.unlink(missing_ok=True)
    argv = [str(BENCH / "worker.py"), "enumerate", *map(str, params), str(listing)]
    op, _ = run.process(f"enumerate {inputs.params_key(params)}", argv + [spans] * traced, cli=False)
    if not op.problems:
        text = listing.read_text()
        masks = [int(line, 16) for line in text.split()]
        op.problems += checks.check_maximal_families(masks, *params)
        op.exact = {"families": len(masks), "sha256": sha256(text)}
    ops.append(op)
    return ops


def inject_pass(run: Run, traced: bool) -> list[Op]:
    n, k, r = inputs.INJECT_PARAMS
    family_path, cert_path = run.work / "family.jsonl", run.work / "cert.json"
    cert_path.unlink(missing_ok=True)
    if traced:
        argv = [str(BENCH / "worker.py"), "inject", str(family_path), str(cert_path),
                str(run.work / "spans.json")]
    else:
        argv = ["-m", "signedfam.cli", "inject", str(family_path), "-o", str(cert_path), "--json"]
    op, stdout = run.process(f"inject {inputs.params_key(inputs.INJECT_PARAMS)}", argv, cli=True)
    family = run.inputs["family"]
    if not op.problems:
        try:
            summary = json.loads(stdout)
        except ValueError:
            summary = None
        if summary != {"size": len(family), "bound": r ** (k - 1) * comb(n - 1, k - 1), "ok": True}:
            op.problems.append(f"unexpected inject summary {stdout[:200]!r}")
        try:
            data = cert_path.read_bytes()
        except OSError as exc:
            op.problems.append(f"no certificate written: {exc}")
        else:
            op.problems += checks.check_certificate(data.decode(), family, n, k, r)
            op.exact = {"members": len(family), "sha256": sha256(data)}
    return [op]


@contextmanager
def time_limit(seconds: float):
    """Raise OpTimeout in the main thread if the block runs too long."""

    def expire(signum, frame):
        raise OpTimeout(f"timed out after {seconds:.0f} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def sample_pass(run: Run, traced: bool) -> list[Op]:
    core = importlib.import_module("signedfam.core")
    search = importlib.import_module("signedfam.search")
    injection = importlib.import_module("signedfam.injection")
    jsonl = importlib.import_module("signedfam.jsonl")
    ops = []
    for params in inputs.SAMPLE_PARAMS:
        p = core.Params(*params)
        for seed in run.inputs["seeds"][params]:
            name = f"sample {inputs.params_key(params)} {seed}"
            limit = run.op_limit()
            if limit <= 0:
                ops.append(not_started(name))
                continue
            run.meter.tick()
            if run.tracer is not None:
                run.tracer.op = name
            start = perf_counter()
            try:
                with time_limit(limit):
                    # Module attributes are looked up per call so traced
                    # passes go through the tracer's wrappers.
                    fam = search.random_maximal_intersecting(p, seed)
                    line = jsonl.signed_family_to_json(fam)
                    back = jsonl.parse_signed_family(line)
                    cert = injection.assemble_injection(back)
                    report = injection.verify_certificate(cert)
                    text = jsonl.certificate_to_json(cert)
                end = perf_counter()
            except Exception as exc:  # op boundary: record the failure, run on
                end = perf_counter()
                ops.append(Op(name, start, end, [f"{type(exc).__name__}: {exc}"]))
                continue
            op = Op(name, start, end, [] if report.ok else list(report.problems[:3]))
            members = list(fam)
            op.problems += checks.check_certificate(text, members, *params)
            op.exact = {"size": len(members), "sha256": sha256(text)}
            if run.tracer is not None:
                op.span = run.tracer.record(f"op:{name}", start, end)
            ops.append(op)
    return ops


WORKLOADS = {
    "oracle": (oracle_pass, False),
    "inject_big": (inject_pass, False),
    "sample": (sample_pass, True),  # in the runner's own process
}


# --- measurement and reporting ---


def p90(values: list[float]) -> float:
    """The 90th percentile, interpolated; a single value is its own percentile."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def timed_setups(run: Run) -> list[float]:
    """Fresh-interpreter set-ups: import the library and generate inputs.

    At least SETUP_REPEATS of them, and more while they have taken under
    SETUP_BUDGET_S in all, so cheap set-ups get a steadier median.
    """
    times: list[float] = []
    argv = [str(BENCH / "worker.py"), "setup", run.workload, str(run.work), str(run.seed)]
    while len(times) < SETUP_REPEATS or (sum(times) < SETUP_BUDGET_S and len(times) < 15):
        start, end, code, _ = run_process([PY, *argv], run.work / "setup.out",
                                          run.work / "setup.err", 60, run.env, run.meter)
        if code != 0:
            raise RuntimeError(f"set-up failed: {(run.work / 'setup.err').read_text()[-500:]}")
        times.append(run.meter.normalise(start, end))
    return times


def startup_probe(run: Run) -> float:
    """Median time of a trivial CLI call, the fixed cost of every CLI op."""
    argv = [PY, "-m", "signedfam.cli", "verify-bound", "-n", "2", "-k", "1", "-r", "2"]
    times = []
    for _ in range(STARTUP_REPEATS):
        start, end, code, _ = run_process(argv, run.work / "probe.out", run.work / "probe.err",
                                          30, run.env, run.meter)
        if code != 0 or (run.work / "probe.out").read_text().strip() != "max=1 bound=1 ok":
            raise RuntimeError("the CLI start-up probe failed")
        times.append(run.meter.normalise(start, end))
    return statistics.median(times)


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, timeout=10,
                             capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def measure(run: Run, seconds: float, trace: bool) -> dict[bool, list[tuple[list[Op], Tracer | None]]]:
    """Repeat rounds of passes (untraced, then traced if asked) for about `seconds`.

    After MIN_ROUNDS rounds, a round starts only if one more round of
    the last round's length still fits in `seconds`.  Each op's time is
    then put in reference-speed seconds.
    """
    run_pass, in_process = WORKLOADS[run.workload]
    passes: dict[bool, list] = {False: [], True: []}
    began = perf_counter()
    while True:
        round_start = perf_counter()
        for traced in (False, True) if trace else (False,):
            run.tracer = Tracer() if traced else None
            if traced and in_process:
                run.tracer.install()
            try:
                passes[traced].append((run_pass(run, traced), run.tracer))
            finally:
                if traced and in_process:
                    run.tracer.uninstall()
                run.tracer = None
        took = perf_counter() - round_start
        now = perf_counter()
        rounds = len(passes[False])
        if (rounds >= MIN_ROUNDS and now - began + took > seconds) or now + 2 * took + 10 > run.deadline:
            break
    for kind in passes.values():
        for ops, _ in kind:
            for op in ops:
                op.seconds = run.meter.normalise(op.start, op.end)
    return passes


def op_medians(passes: list[list[Op]]) -> dict[str, float]:
    """Each op's median time over the passes."""
    by_name: dict[str, list[float]] = {}
    for ops in passes:
        for op in ops:
            by_name.setdefault(op.name, []).append(op.seconds)
    return {name: statistics.median(values) for name, values in by_name.items()}


def end_to_end(run: Run, untraced: list[list[Op]], setups: list[float]) -> dict:
    """End-to-end metrics from the untraced passes, in reference-speed seconds.

    Each op is taken at its median over the passes.
    """
    ops = [op for ops in untraced for op in ops]
    times = list(op_medians(untraced).values())
    if WORKLOADS[run.workload][1]:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        peak_kb = max(op.rss_kb for op in ops)
    return {
        "wall_s": (sum(times), "s"),
        "op_p50_s": (statistics.median(times), "s"),
        "op_p90_s": (p90(times), "s"),
        "success_rate": (sum(not op.problems for op in ops) / len(ops), "ratio"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }


def per_layer(run: Run, passes, setup_spans: list[dict], startup_s: float) -> dict:
    """Per-layer metrics: medians over traced passes of summed self times and counters."""
    rows = []
    duration = run.meter.normalise
    for ops, tracer in passes[True]:
        row = layer_totals(setup_spans, duration=duration)
        for key, value in layer_totals(tracer.spans, duration=duration).items():
            row[key] = row.get(key, 0) + value
        row["cli.residual_s"] = sum(
            op.seconds - root_time(tracer.spans, op.span, duration)
            for op in ops if op.cli and op.span is not None
        )
        rows.append(row)
    out = {}
    for key in rows[0]:
        values = [row[key] for row in rows]
        # Counters repeat exactly; the low median keeps them whole numbers.
        out[key] = statistics.median_low(values) if key in COUNT_METRICS else statistics.median(values)
    untraced, traced = (op_medians([ops for ops, _ in passes[kind]]) for kind in (False, True))
    out["search.nodes_per_s"] = out["search.nodes"] / out["search.exact_s"] if out["search.exact_s"] else 0
    out["cli.startup_s"] = startup_s
    out["trace.overhead_s"] = sum(traced[name] - untraced[name] for name in traced)
    units = {"search.nodes_per_s": "1/s", "jsonl.cert_bytes": "bytes"}
    return {
        key: (out[key], units.get(key, "count" if key in COUNT_METRICS else "s"))
        for key in TIME_METRICS + COUNT_METRICS
        + ("search.nodes_per_s", "cli.startup_s", "cli.residual_s", "trace.overhead_s")
    }


def exact_report(passes, reference: dict) -> tuple[dict, list[str]]:
    """Exact-repeat counters of the first pass, and notes on any that moved.

    A counter that differs between passes or from the reference is
    reported, never counted as a failure.
    """
    all_passes = [ops for kind in (False, True) for ops, _ in passes[kind]]
    first = {op.name: op.exact for op in all_passes[0]}
    notes = []
    for ops in all_passes[1:]:
        for op in ops:
            if op.exact and first.get(op.name) and op.exact != first[op.name]:
                notes.append(f"{op.name}: output differs between passes")
    for name, expected in reference.items():
        got = first.get(name)
        if got and got != expected:
            notes.append(f"{name}: {got} differs from reference {expected}")
    return first, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "signedfam" / "__init__.py").is_file():
        print(f"error: no signedfam sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        return bench(args, Run(args.workload, args.seed, work))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def bench(args, run: Run) -> int:
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(), "nproc": os.cpu_count(),
        "platform": platform.platform(), "commit": git_commit(), "cpu": pace.pin_to_one_cpu(),
    }
    print("run " + " ".join(f"{k}={v}" for k, v in info.items()))

    setups = timed_setups(run)
    setup_tracer = Tracer()
    if args.trace and WORKLOADS[run.workload][1]:
        setup_tracer.install()
        setup_tracer.op = "setup"
    run.meter.read()
    try:
        run.inputs = worker.prepare(run.workload, run.work, run.seed)
    finally:
        setup_tracer.uninstall()
    run.meter.read()
    if not Path(importlib.import_module("signedfam").__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError("signedfam was not imported from this checkout")

    passes = measure(run, args.seconds, bool(args.trace))
    ops = [op for kind in (False, True) for p, _ in passes[kind] for op in p]
    failed = [op for op in ops if op.problems]
    reference = json.loads((BENCH / "reference.json").read_text())
    exact, notes = exact_report(passes, reference.get(run.workload, {}))

    op_layers = {}
    if args.trace:
        startup = 0.0 if WORKLOADS[run.workload][1] else startup_probe(run)
        metrics = per_layer(run, passes, setup_tracer.spans, startup)
        first_ops, first_tracer = passes[True][0]
        for op in first_ops:
            totals = layer_totals(first_tracer.spans, op.name, run.meter.normalise)
            op_layers[op.name] = {k: v for k, v in totals.items() if v}
    else:
        metrics = end_to_end(run, [p for p, _ in passes[False]], setups)

    for op in failed[:20]:
        print(f"FAILED {op.name}: {'; '.join(op.problems)[:300]}")
    print(f"error_rate {len(failed)}/{len(ops)}")
    if run.workload != "sample":
        for name, values in exact.items():
            same = [op for p, _ in passes[False] for op in p if op.name == name]
            print(f"op {name} median_s={statistics.median(op.seconds for op in same):.4f} "
                  f"wall_median_s={statistics.median(op.end - op.start for op in same):.4f} "
                  + " ".join(f"{k}={v}" for k, v in values.items()))
            if name in op_layers:
                print("  layers " + " ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                                             for k, v in op_layers[name].items()))
    sizes = [values.get("size") for values in exact.values() if "size" in values]
    if sizes:
        print(f"exact sample families={len(sizes)} members={sum(sizes)} "
              f"sha256={sha256(json.dumps(exact, sort_keys=True))}")
    for note in notes:
        print(f"changed {note}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}" if isinstance(value, float) else f"metric {name} {value} {unit}")

    record = {
        "run": info,
        "setup_s": setups,
        "ops": [
            {"pass": i, "traced": kind, "name": op.name, "seconds": op.seconds,
             "start": op.start, "end": op.end, "ok": not op.problems, "problems": op.problems, "rss_kb": op.rss_kb}
            for kind in (False, True) for i, (p, _) in enumerate(passes[kind]) for op in p
        ],
        "exact": exact,
        "changed": notes,
        "op_layers": op_layers,
        "metrics": {name: value for name, (value, _) in metrics.items()},
        "meter": {"times": run.meter.times, "readings": run.meter.readings},
        "spans": {"setup": setup_tracer.spans,
                  "passes": [tracer.spans for _, tracer in passes[True]]},
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record))

    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
