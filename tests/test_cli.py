import json

import pytest

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
    assert open(save).read().strip() == "p(0)."


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
