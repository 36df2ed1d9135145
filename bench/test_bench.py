"""Tests of the benchmark's own machinery: tracing and decision checks.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import tempfile
from pathlib import Path

import pytest

import expected
import run
import tracing
from pairs import WORKLOADS
from tracing import Tracer

from aggequiv import engine
from aggequiv.orderings import enumerate_complete_orderings


def _pair(pid):
    return next(p for pairs in WORKLOADS.values() for p in pairs
                if p["id"] == pid)


@pytest.fixture
def workdir():
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as path:
        yield Path(path)


def _verdict(output):
    payload = json.loads(output)
    payload.pop("timings")
    return payload


@pytest.mark.parametrize("pid", ["max_edge_neg.n3", "count_split.n4",
                                 "c5.04", "c7.02", "bagset.2"])
def test_traced_verdicts_equal_untraced(workdir, pid):
    case, = run.make_cases([_pair(pid)], workdir)
    code, output, _, crash = run.decide(case.argv())
    assert crash is None
    original = engine.n_equivalent
    tracer = Tracer()
    with tracer:
        traced_code, traced_output, _, crash = run.decide(case.argv())
    assert crash is None
    assert (traced_code, _verdict(traced_output)) == (code, _verdict(output))
    assert run.check(case, traced_code, traced_output)[0] is None
    assert engine.n_equivalent is original  # the wrappers are gone again
    assert tracer.calls["cli.main"] == 1


def test_ordering_wrapper_re_yields_the_same_sequence():
    terms, _ = engine.build_base(*run.parse_queries(
        "q(; max(Y)) :- p(Y), Y < 1. q(; max(Y)) :- p(Y), Y <= 0."), 3)
    expected = list(enumerate_complete_orderings(terms, "rat",
                                                 injective_only=True))
    tracer = Tracer()
    with tracer:
        traced = list(engine.enumerate_complete_orderings(
            terms, "rat", injective_only=True))
    assert traced == expected
    assert tracer.orderings == len(expected) == 60
    assert tracer.calls["orderings.enumerate_complete_orderings"] == 1


def test_plan_counts_come_from_wrapped_return_values(workdir):
    case, = run.make_cases([_pair("max_lt1.n5")], workdir)
    assert run.reference_pass([case]) == (1, 0)
    assert case.reference is not None
    assert case.base is None  # the untraced warm-up records no plan
    assert run.plan_pass([case]) == (1, 0)
    assert (case.base, case.orderings) == (7, 2520)
    assert case.units == 2 ** 7 * 2520


def test_missing_layer_is_reported_absent(monkeypatch):
    monkeypatch.delattr(engine, "entails")
    tracer = Tracer(dict(tracing.LAYERS,
                         **{"gone.module": (("aggequiv.no_such", "f"),)}))
    with tracer:
        pass
    assert tracer.metric("orderings.entails", "calls") is None
    assert tracer.metric("gone.module", "ms") is None
    assert tracer.metric("engine.build_base", "calls") == 0
    snapshot = run.with_units(run.layer_snapshot(tracer, scale=1.0), 10)
    assert snapshot["orderings.entails.calls"] is None
    assert snapshot["engine.units"] == 10
    assert not hasattr(engine, "entails")  # uninstall put nothing back


def test_check_counts_wrong_answers(workdir):
    case, = run.make_cases([_pair("max_lt1.n5")], workdir)
    code, output, _, _ = run.decide(case.argv())
    assert run.check(case, code, output)[0] is None
    payload = json.loads(output)

    wrong_status = dict(payload, status="equivalent")
    assert run.check(case, code, json.dumps(wrong_status))[0]
    assert run.check(case, 0, output)[0]

    ce = payload["counterexample"]
    swapped = dict(ce, values=ce["values"][::-1])
    assert run.check(case, code,
                     json.dumps(dict(payload, counterexample=swapped)))[0]

    parallel = run.Case(dict(case.pair, workers=2), case.files, case.queries,
                        case.registry, reference=dict(ce, facts=[]))
    assert run.check(parallel, code, output)[0] == \
        "counterexample differs from the one-worker answer"


def test_tail_needs_ten_samples_beyond_it():
    assert run.tail(range(10)) is None
    assert run.tail(range(1, 41)) == (75, 30)


def test_expected_answers_agree_with_the_brute_force_oracle(capsys):
    assert expected.main() == 0
    assert "MISMATCH" not in capsys.readouterr().out
