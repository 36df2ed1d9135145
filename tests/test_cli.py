import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import aggequiv
from aggequiv.cli import main


def write(tmp_path, name, content):
    path = tmp_path / name
    path.write_text(content, encoding="utf-8")
    return str(path)


@pytest.fixture
def count_pair(tmp_path):
    a = write(tmp_path, "a.q", "q(; count()) :- p(X)\n")
    b = write(tmp_path, "b.q", "q(; count()) :- p(X) | p(X)\n")
    return a, b


def test_equiv_exit_codes(tmp_path, capsys):
    a = write(tmp_path, "a.q", "q(X; sum(Y)) :- p(X, Y)\n")
    b = write(tmp_path, "b.q", "q(U; sum(V)) :- p(U, V)\n")
    assert main(["equiv", a, b, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "equivalent"
    assert payload["counterexample"] is None
    assert "total_s" in payload["timings"]


def test_nequiv_counterexample(count_pair, capsys, tmp_path):
    a, b = count_pair
    save = str(tmp_path / "ce.facts")
    code = main(["nequiv", a, b, "--n", "2", "--json",
                 "--save-counterexample", save])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "not_equivalent"
    assert payload["counterexample"]["facts"] == ["p(0)."]
    assert payload["counterexample"]["values"] == ["1", "2"]
    with open(save) as saved:
        assert saved.read().strip() == "p(0)."


def test_single_file_with_two_declarations(tmp_path):
    both = write(tmp_path, "both.q",
                 "q(; count()) :- p(X)\nq(; count()) :- p(Y)\n")
    assert main(["local-equiv", both]) == 0


def test_unsupported_exit_code(tmp_path):
    a = write(tmp_path, "a.q", "q(; avg(Y)) :- p(Y)\n")
    assert main(["equiv", a, a]) == 2


def test_parse_error_exit_code(tmp_path, capsys):
    bad = write(tmp_path, "bad.q", "q(; sum(Y)) :- p(Y), Y >\n")
    assert main(["equiv", bad, bad]) == 2
    err = capsys.readouterr().err
    assert "error" in err


def test_internal_error_is_not_a_verdict(count_pair, capsys, monkeypatch):
    from aggequiv import engine

    def broken(*args, **kwargs):
        raise AssertionError("counterexample failed concrete re-verification")
    monkeypatch.setattr(engine, "n_equivalent", broken)
    a, b = count_pair
    assert main(["nequiv", a, b, "--n", "1", "--json"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "internal_error"
    assert main(["nequiv", a, b, "--n", "1"]) == 2
    assert "internal error" in capsys.readouterr().err


def test_a_pool_that_breaks_twice_is_an_internal_error(count_pair, capsys,
                                                     monkeypatch):
    """The engine retries a decision once on a fresh pool; a second
    break is reported, never turned into a verdict."""
    from concurrent.futures.process import BrokenProcessPool

    from aggequiv import engine
    built = []

    class BreakingPool:
        def __init__(self, max_workers):
            built.append(self)

        def map(self, *args):
            raise BrokenProcessPool("a worker died")

        def shutdown(self):
            pass
    monkeypatch.setattr(engine, "ProcessPoolExecutor", BreakingPool)
    monkeypatch.setattr(engine, "_pool", None)
    monkeypatch.setattr(engine, "_pool_key", None)
    a, b = count_pair
    assert main(["nequiv", a, b, "--n", "1", "--workers", "2", "--json"]) == 2
    assert json.loads(capsys.readouterr().out)["status"] == "internal_error"
    assert len(built) == 2


def test_usage_errors():
    assert main(["nequiv"]) == 64
    assert main(["unknown-command"]) == 64


def test_usage_error_on_wrong_declaration_count(tmp_path):
    single = write(tmp_path, "one.q", "q(; count()) :- p(X)\n")
    assert main(["equiv", single]) == 64


def test_guardrail_and_force(tmp_path, capsys):
    a = write(tmp_path, "wide.q",
              "q(; count()) :- p(X, Y), r(X, Y), s(X, Y)\n")
    assert main(["nequiv", a, a, "--n", "3"]) == 2
    err = capsys.readouterr().err
    assert err == (
        "error: refusing a search over 2^27 atom subsets (|BASE| = 27, "
        "N = 3); the cost is doubly exponential. Pass --force to run "
        "anyway.\n")
    assert main(["nequiv", a, a, "--n", "6"]) == 2
    # small instance passes without force
    b = write(tmp_path, "small.q", "q(; count()) :- p(X)\n")
    assert main(["nequiv", b, b, "--n", "2"]) == 0


def test_quasilinear_command(tmp_path, capsys):
    a = write(tmp_path, "a.q", "q(X; max(Y)) :- p(X, Y)\n")
    b = write(tmp_path, "b.q", "q(U; max(V)) :- p(U, V)\n")
    assert main(["quasilinear", a, b]) == 0
    c = write(tmp_path, "c.q", "q(X; max(Y)) :- p(X, Y), !b(X)\n")
    assert main(["quasilinear", a, c]) == 1
    capsys.readouterr()


def test_bagset_command(tmp_path):
    a = write(tmp_path, "a.q", "q(X) :- p(X)\n")
    b = write(tmp_path, "b.q", "q(X) :- p(X) | p(X)\n")
    assert main(["bagset-equiv", a, b]) == 1
    assert main(["bagset-equiv", a, a]) == 0


def test_eval_command(tmp_path, capsys):
    q = write(tmp_path, "q.q", "q(X; sum(Y)) :- p(X, Y)\n")
    d = write(tmp_path, "d.facts", "p(1, 2).\np(1, 3/2).\np(4, 1).\n")
    assert main(["eval", q, "-d", d, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["results"] == [
        {"group": ["1"], "value": "7/2"},
        {"group": ["4"], "value": "1"},
    ]
    assert main(["eval", q, "-d", d]) == 0
    text = capsys.readouterr().out
    assert "(1) -> 7/2" in text


def test_check_decomposition_command(tmp_path, capsys):
    a = write(tmp_path, "a.q", "q(X; count()) :- e(X, Y)\n")
    b = write(tmp_path, "b.q", "q(X; count()) :- e(X, Y), !m(Y)\n")
    d = write(tmp_path, "d.facts", "e(1, 2).\ne(1, 3).\nm(3).\n")
    assert main(["check-decomposition", a, b, "-d", d, "--group", "1",
                 "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verified"] is True
    assert payload["databases"]


def test_check_identity_command(tmp_path, capsys):
    valid = write(tmp_path, "sum_valid.ident", """
        domain: int
        function: sum
        ordering: 0 < X < 2
        left: {X, X}
        right: {2}
    """)
    assert main(["check-identity", valid, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"valid": True, "witness": None}

    invalid = write(tmp_path, "sum_invalid.ident", """
        domain: rat
        function: sum
        ordering: 0 < X < 2
        left: {X, X}
        right: {2}
    """)
    assert main(["check-identity", invalid, "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["valid"] is False
    assert set(payload["witness"]) == {"0", "X", "2"}

    nullary = write(tmp_path, "count.ident", """
        function: count
        ordering: X < Y
        left: {(), ()}
        right: {(), ()}
    """)
    assert main(["check-identity", nullary]) == 0
    capsys.readouterr()

    bad = write(tmp_path, "bad.ident", """
        function: sum
        ordering: 2 < X < 1
        left: {X}
        right: {X}
    """)
    assert main(["check-identity", bad]) == 2


def test_main_is_reentrant(tmp_path, capsys, monkeypatch):
    """The parser is built once per process; later calls in the same
    process still answer exactly as a fresh process does, usage errors
    included, on the streams current at the call."""
    monkeypatch.setenv("COLUMNS", "80")  # the usage line wraps at this width
    a = write(tmp_path, "a.q", "q(; count()) :- p(X)\n")
    b = write(tmp_path, "b.q", "q(; count()) :- p(X) | p(X)\n")
    c = write(tmp_path, "c.q", "q(X; max(Y)) :- p(X, Y)\n")
    d = write(tmp_path, "d.q", "q(X; max(Y)) :- p(X, Y), !b(X)\n")
    ident = write(tmp_path, "sum.ident", """
        domain: rat
        function: sum
        ordering: 0 < X < 2
        left: {X, X}
        right: {2}
    """)
    calls = [
        ["nequiv"],
        ["nequiv", a, b, "--n", "2"],
        ["quasilinear", c, d],
        ["check-identity", ident],
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(aggequiv.__file__).parents[1]))
    answers = []
    for argv in calls:
        fresh = subprocess.run([sys.executable, "-m", "aggequiv.cli", *argv],
                               capture_output=True, text=True, env=env)
        answers.append((main(argv), *capsys.readouterr()))
        assert answers[-1] == (fresh.returncode, fresh.stdout,
                               fresh.stderr), argv
    assert [code for code, _, _ in answers] == [64, 1, 1, 1]
    assert answers[0][2].startswith("usage: aggequiv nequiv")
