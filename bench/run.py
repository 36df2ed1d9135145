#!/usr/bin/env python3
"""Benchmark: decide query pairs through the aggequiv CLI, in process.

    python3 bench/run.py --workload suite --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all        # every workload, one table

One client in a closed loop: each pair is decided by
``aggequiv.cli.main(argv)`` with ``--json``, and the next decision starts
only when the previous one has returned.  Forking a child per decision
was tried and rejected: its copy-on-write faults cost about 4 ms per
decision, more than most `suite` decisions take.

A run builds the program from the checkout's ``src/`` (pure Python, so
nothing is compiled), times fresh-interpreter imports of ``aggequiv.cli``
(``setup_s``), decides every pair once with one worker as an untraced
warm-up that keeps its reference answer, then decides whole passes over
the pairs, in an order shuffled by ``--seed``, until ``--seconds`` are
used.  The seed sets only that order.  Last, after the peak RSS has been
read, it decides every pair once more with tracing on, to record each
pair's plan (|BASE|, orderings, units); the tracer holds memory of its
own, so it never runs before the gated RSS is read.

Every decision is checked outside the timed call: exit code and status
against the expected answer in ``pairs.py``; counterexample facts are
re-parsed and both queries re-evaluated concretely, and the reported
values must reproduce and differ; with ``--workers 2`` the
counterexample must equal the one-worker answer from the same run.

Times are host-normalized.  The host is shared, and its speed drifts by
tens of percent over seconds to minutes, so the quartile spread of raw
wall-clock pass times over repeated runs was 22-27% on `refute` and
`search`, above the largest bound a metric may have.  Between decisions
(outside the timed calls) the benchmark times a fixed pure-Python loop,
the probe, at least PROBES_PER_PASS times per pass, and scales each
decision by PROBE_NOMINAL_S / (median of the probes just before and just
after it): times read as seconds on a host where the probe takes
PROBE_NOMINAL_S.  A coarser correction, one reference loop per run, was
tried first: it steadied `refute` (9% -> 5%) but made `search` worse
(1% -> 10%), so it was dropped.  The probe depends on the interpreter
only, never on aggequiv, so it scales two commits alike.  Raw wall-clock
times are printed too.  Set-up imports are normalized by a probe of
their own kind: each import is divided by the mean of the bare
interpreter starts (``python3 -c pass``) just before and just after it,
and reads as seconds on a host where a bare start takes BARE_NOMINAL_S.

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` passes alternate between traced and untraced and the last
line reports the per-layer metrics of the traced passes.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

EXIT_CODES = {"equivalent": 0, "not_equivalent": 1, "unsupported": 2}
SETUP_IMPORTS = 15        # fresh-interpreter imports timed per run
BARE_NOMINAL_S = 0.05     # setup_s reads as seconds at this bare start time
MIN_PASSES = 3            # untraced passes; a traced run also needs 2 traced
PROBE_LOOPS = 20000       # about 2 ms of pure-Python arithmetic
PROBE_NOMINAL_S = 0.002   # normalized times read as seconds at this probe time
PROBES_PER_PASS = 48      # at least this many per pass, between decisions
TAIL_BEYOND = 10          # samples a tail percentile must leave above it

if not (SRC / "aggequiv" / "cli.py").is_file():
    raise SystemExit(f"error: no aggequiv sources under {SRC}")
sys.path.insert(0, str(SRC))

from aggequiv import cli  # noqa: E402
from aggequiv.aggregation import FUNCTIONS, value_to_json  # noqa: E402
from aggequiv.model import AggregateTerm  # noqa: E402
from aggequiv.oracle import eval_concrete  # noqa: E402  (kept unwrapped)
from aggequiv.parsing import (  # noqa: E402
    ArityRegistry, parse_database, parse_queries,
)

from pairs import WORKLOADS  # noqa: E402
from tracing import Tracer  # noqa: E402

WORKLOAD_NAMES = tuple(WORKLOADS)


# ---------------------------------------------------------------------------
# Cases: one pair, its files, its parsed queries and what it measured
# ---------------------------------------------------------------------------

@dataclass
class Case:
    pair: dict
    files: tuple
    queries: tuple              # (q, q2) as the CLI parses them
    registry: ArityRegistry     # their predicate arities, for the facts
    times: list = field(default_factory=list)   # host-normalized seconds
    wall: list = field(default_factory=list)    # the same, raw wall clock
    base: Optional[int] = None
    orderings: Optional[int] = None
    units: int = 0
    reference: Optional[dict] = None   # one-worker counterexample
    failures: int = 0

    def argv(self, workers=None) -> list:
        p = self.pair
        argv = [p["command"], *self.files, "--json", "--domain", p["domain"]]
        if p["n"] is not None:
            argv += ["--n", str(p["n"])]
        workers = p["workers"] if workers is None else workers
        if workers > 1:
            argv += ["--workers", str(workers)]
        return argv


def make_cases(pairs, workdir: Path) -> list:
    cases = []
    for index, pair in enumerate(pairs):
        files = []
        registry = ArityRegistry()
        queries = []
        for side in ("a", "b"):
            path = workdir / f"{index:02d}{side}.q"
            path.write_text(pair[side] + "\n", encoding="utf-8")
            files.append(str(path))
            queries += parse_queries(pair[side], pair["domain"], registry)
        if pair["command"] == "bagset-equiv":
            # the CLI decides bag-set equivalence with count adjoined
            counted = AggregateTerm(FUNCTIONS["count"], ())
            queries = [replace(q, aggregate=counted) for q in queries]
        cases.append(Case(pair, tuple(files), tuple(queries), registry))
    return cases


# ---------------------------------------------------------------------------
# Deciding and checking
# ---------------------------------------------------------------------------

def decide(argv):
    """One CLI call; only `cli.main` itself is inside the timer.  Returns
    (exit code, stdout, seconds, traceback of a crash or None)."""
    out = io.StringIO()
    crash = None
    with contextlib.redirect_stdout(out):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:  # a crash is a failed decision, not a stopped run
            code, crash = None, traceback.format_exc()
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), elapsed, crash


def check(case: Case, code, output: str) -> tuple:
    """(failure reason or None, counterexample) for one decision."""
    expect = case.pair["expect"]
    payload = json.loads(output.strip().splitlines()[-1])
    ce = payload.get("counterexample")
    if payload.get("status") != expect:
        return f"status {payload.get('status')!r}, expected {expect!r}", ce
    if code != EXIT_CODES[expect]:
        return f"exit code {code}, expected {EXIT_CODES[expect]}", ce
    if (ce is None) != (expect != "not_equivalent"):
        return "counterexample present iff not equivalent", ce
    if ce is not None:
        reason = _reproduce(case, ce)
        if reason:
            return reason, ce
    if case.pair["workers"] > 1 and case.reference is not None \
            and ce != case.reference:
        return "counterexample differs from the one-worker answer", ce
    return None, ce


def _reproduce(case: Case, ce: dict) -> Optional[str]:
    q, q2 = case.queries
    db = parse_database("\n".join(ce["facts"]), case.pair["domain"],
                        case.registry)
    group = tuple(Fraction(v) for v in ce["grouping"])
    left = dict(eval_concrete(q, db)).get(group)
    right = dict(eval_concrete(q2, db)).get(group)
    if [value_to_json(left), value_to_json(right)] != ce["values"]:
        return "counterexample values do not reproduce"
    if left == right:
        return "counterexample does not separate the queries"
    return None


def run_case(case: Case, workers=None) -> tuple:
    """Decide and check one case; returns (seconds, ok, counterexample)."""
    code, output, elapsed, reason = decide(case.argv(workers))
    ce = None
    if reason is None:
        try:
            reason, ce = check(case, code, output)
        except (ValueError, KeyError, IndexError, TypeError):
            reason = "unreadable output:\n" + traceback.format_exc()
    if reason is not None:
        case.failures += 1
        if case.failures == 1:
            print(f"FAIL {case.pair['id']}: {reason}", file=sys.stderr)
    return elapsed, reason is None, ce


def probe() -> float:
    """Seconds a fixed pure-Python loop takes: the host's current speed."""
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i % 7
    return time.perf_counter() - start


@dataclass
class Pass:
    """One decision of every case, in decision order: (case index, wall
    seconds, factor that normalizes them to the nominal host speed)."""
    decisions: list
    failed: int

    @property
    def wall_s(self) -> float:
        return sum(wall for _, wall, _ in self.decisions)

    @property
    def seconds(self) -> float:
        return sum(wall * scale for _, wall, scale in self.decisions)


def run_pass(cases, order) -> Pass:
    """Decide every case once.  The host is probed between decisions, and
    each decision is normalized by the probes just before and after it."""
    per_decision = -(-PROBES_PER_PASS // len(order))  # ceiling division
    before = [probe() for _ in range(per_decision)]
    decisions = []
    failed = 0
    for i in order:
        elapsed, ok, _ = run_case(cases[i])
        after = [probe() for _ in range(per_decision)]
        decisions.append(
            (i, elapsed, PROBE_NOMINAL_S / statistics.median(before + after)))
        before = after
        failed += not ok
    return Pass(decisions, failed)


def reference_pass(cases) -> tuple:
    """The untimed warm-up: decide each case once with one worker, untraced,
    and keep its counterexample as the reference answer."""
    failed = 0
    for case in cases:
        _, ok, case.reference = run_case(case, workers=1)
        failed += not ok
    return len(cases), failed


def plan_pass(cases) -> tuple:
    """Decide each case once with one worker and tracing on, and record its
    plan (|BASE|, orderings, units) from the wrapped return values."""
    tracer = Tracer()
    failed = 0
    with tracer:
        for case in cases:
            first = len(tracer.scans)
            _, ok, _ = run_case(case, workers=1)
            failed += not ok
            scans = tracer.scans[first:]
            if scans:
                case.base = max(base for base, _ in scans)
                case.orderings = sum(count for _, count in scans)
                case.units = sum(2 ** base * count for base, count in scans)
    return len(cases), failed


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def measure_setup() -> float:
    """Median time of a fresh interpreter importing aggequiv.cli,
    host-normalized by the bare interpreter starts just before and just
    after each import."""
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def start(code) -> float:
        began = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                       check=True)
        return time.perf_counter() - began

    start("import aggequiv.cli")  # byte-compile
    bare = [start("pass")]
    ratios = []
    for _ in range(SETUP_IMPORTS):
        imported = start("import aggequiv.cli")
        bare.append(start("pass"))
        ratios.append(imported / statistics.fmean(bare[-2:]))
    return statistics.median(ratios) * BARE_NOMINAL_S


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child) / 1024.0   # ru_maxrss is in KiB on Linux


def tail(samples) -> Optional[tuple]:
    """(percentile, value): the highest percentile with at least
    TAIL_BEYOND samples above it, or None with too few samples."""
    ordered = sorted(samples)
    below = len(ordered) - TAIL_BEYOND
    if below < 1:
        return None
    return math.floor(100 * below / len(ordered)), ordered[below - 1]


def geomean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


#: per-layer metrics: (layer, field) pairs read straight off the tracer
LAYER_FIELDS = (
    [("cli.main", "self_ms")]
    + [(layer, f) for layer in (
        "parsing.parse_queries", "normalize.reduce_query",
        "quasilinear.find_isomorphism", "engine.build_base",
        "orderings.enumerate_complete_orderings", "orderings.entails",
        "engine.n_equivalent", "identity.decide",
        "identity.decide_shiftable", "identity.decide_sum",
        "identity.decide_prod", "orderings.satisfying_assignment",
        "oracle.eval_concrete")
       for f in ("calls", "ms")]
)
UNITS = {"calls": "count", "ms": "ms", "self_ms": "ms"}


def layer_snapshot(tracer: Tracer, scale: float) -> dict:
    """Per-layer metrics of one traced pass; times host-normalized."""
    values = {}
    for layer, f in LAYER_FIELDS:
        value = tracer.metric(layer, f)
        if value is not None and f != "calls":
            value *= scale
        values[f"{layer}.{f}"] = value
    self_ms = tracer.metric("engine.n_equivalent", "self_ms")
    values["engine.self_ms"] = None if self_ms is None else self_ms * scale
    values["orderings.count"] = (
        tracer.orderings
        if "orderings.enumerate_complete_orderings" in tracer.present
        else None)
    return values


def with_units(values: dict, units: int) -> dict:
    """A layer snapshot plus the metrics that need the planned units."""
    scan_ms = values["engine.n_equivalent.ms"]
    decides = values["identity.decide.calls"]
    return dict(values, **{
        "engine.units": units,
        "engine.us_per_unit": (scan_ms * 1000.0 / units
                               if scan_ms is not None and units else None),
        "engine.identity_share": (decides / units
                                  if decides is not None and units else None),
    })


PER_LAYER_UNITS = dict(
    {f"{layer}.{f}": UNITS[f] for layer, f in LAYER_FIELDS},
    **{"engine.self_ms": "ms", "orderings.count": "count",
       "engine.units": "count", "engine.us_per_unit": "us",
       "engine.identity_share": "ratio", "trace.overhead": "ratio"})


def median_or_none(values):
    """Median of a layer's values over the traced passes; counts stay
    whole numbers."""
    if any(v is None for v in values):
        return None
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    setup_s = measure_setup()
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as workdir:
        cases = make_cases(WORKLOADS[name], Path(workdir))
        attempted, failed = reference_pass(cases)
        order = list(range(len(cases)))
        if any(case.pair["workers"] > 1 for case in cases):
            warm = run_pass(cases, order)  # warm the parallel path
            attempted, failed = attempted + len(order), failed + warm.failed

        tracer = Tracer()
        rng = random.Random(seed)
        plain, traced_passes, snapshots = [], [], []
        started = time.perf_counter()
        while True:
            # traced runs alternate T U U T T U U T ... so that neither
            # kind always runs first
            trace_this = traced and len(plain + traced_passes) % 4 in (0, 3)
            rng.shuffle(order)
            gc.collect()
            if trace_this:
                tracer.reset()
                with tracer:
                    done = run_pass(cases, order)
                traced_passes.append(done)
                snapshots.append(layer_snapshot(tracer,
                                                done.seconds / done.wall_s))
            else:
                done = run_pass(cases, order)
                plain.append(done)
                for i, wall, scale in done.decisions:
                    cases[i].times.append(wall * scale)
                    cases[i].wall.append(wall)
            attempted, failed = attempted + len(order), failed + done.failed
            enough = len(plain) >= MIN_PASSES and (
                not traced or len(traced_passes) >= 2)
            typical = statistics.median(p.wall_s for p in plain + traced_passes)
            if enough and time.perf_counter() - started + typical > seconds:
                break

        # read before the traced plan pass, which holds more memory
        rss_mb = peak_rss_mb()
        planned, plan_failed = plan_pass(cases)
        attempted, failed = attempted + planned, failed + plan_failed
    with contextlib.suppress(OSError):
        WORK.rmdir()

    pass_s = statistics.median(p.seconds for p in plain)
    report = {
        "workload": name, "cases": cases, "plain": plain,
        "traced": traced_passes, "attempted": attempted, "failed": failed,
        "end_to_end": {
            "pass_s": (pass_s, "s"),
            "pair_ms.geomean": (geomean(
                statistics.median(c.times) * 1000.0 for c in cases), "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (rss_mb, "MB"),
        },
    }
    if traced:
        units = sum(case.units for case in cases)
        snapshots = [with_units(s, units) for s in snapshots]
        layers = {key: median_or_none([s[key] for s in snapshots])
                  for key in snapshots[0]}
        layers["trace.overhead"] = statistics.median(
            p.seconds for p in traced_passes) / pass_s
        report["per_layer"] = {key: (layers[key], PER_LAYER_UNITS[key])
                               for key in PER_LAYER_UNITS}
    return report


def print_report(report: dict, traced: bool):
    plain = report["plain"]
    print(f"workload {report['workload']}: "
          f"{len(report['cases'])} pairs, {len(plain)} untraced "
          f"and {len(report['traced'])} traced passes")
    print(f"{'pair':<18} {'median_ms':>10} {'wall_ms':>10} {'status':<15} "
          f"{'|BASE|':>6} {'orderings':>9} {'units':>10}")
    for case in report["cases"]:
        print(f"{case.pair['id']:<18} "
              f"{statistics.median(case.times) * 1000.0:>10.3f} "
              f"{statistics.median(case.wall) * 1000.0:>10.3f} "
              f"{case.pair['expect']:<15} "
              f"{'-' if case.base is None else case.base:>6} "
              f"{'-' if case.orderings is None else case.orderings:>9} "
              f"{case.units:>10}")
    share = report["failed"] / report["attempted"]
    print(f"fail_share {share:.6g} ratio "
          f"({report['failed']} of {report['attempted']} decisions)")
    passes = [p.seconds for p in plain]
    pass_tail = tail(passes)
    if pass_tail is None:
        print(f"pass_s tail: none ({len(passes)} passes, "
              f"need more than {TAIL_BEYOND})")
    else:
        print(f"pass_s p{pass_tail[0]} {pass_tail[1]:.6f} s "
              f"({len(passes)} passes)")
    print(f"pass_wall_s {statistics.median(p.wall_s for p in plain):.6g} s "
          f"(raw wall clock)")
    for key, (value, unit) in report["end_to_end"].items():
        print(f"{key} {value:.6g} {unit}")
    print("samples " + json.dumps({"pass_s": passes}))
    metrics = report["per_layer"] if traced else report["end_to_end"]
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()},
    }))


# ---------------------------------------------------------------------------
# Every workload in one command
# ---------------------------------------------------------------------------

def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    """Run one workload in its own process.  Returns its exit code, its
    result line (None if it printed none) and its pass-time samples."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    samples = [json.loads(line.split(" ", 1)[1])["pass_s"]
               for line in lines if line.startswith("samples ")]
    if not samples:
        return done.returncode, None, []
    return done.returncode, json.loads(lines[-1]), samples[0]


def run_all(seed: int, seconds: int, trace: int) -> int:
    status = 0
    rows = []
    for name in WORKLOAD_NAMES:
        code, result, _ = run_once(name, seed, seconds, trace)
        status |= code != 0
        if result is None:
            print(f"{name}: exit code {code}, no result")
            continue
        share = result["failed"] / result["attempted"]
        rows.append((name, "fail_share", share, "ratio"))
        rows += [(name, key, m["value"], m["unit"])
                 for key, m in result["metrics"].items()]
    for name, key, value, unit in rows:
        shown = "null" if value is None else f"{value:.6g}"
        print(f"{name:<9} {key:<45} {shown:>14} {unit}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    report = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    print_report(report, bool(args.trace))
    return 0 if report["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
