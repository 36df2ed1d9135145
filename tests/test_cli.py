import ast
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import aggequiv
from aggequiv.aggregation import value_to_json
from aggequiv.cli import main
from aggequiv.oracle import eval_concrete
from aggequiv.parsing import ArityRegistry, parse_database, parse_queries


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


def test_a_failed_save_reports_only_its_error(count_pair, capsys, tmp_path):
    """The counterexample is saved before the verdict is printed, so a
    save that fails leaves the error alone, with its exit code."""
    a, b = count_pair
    save = str(tmp_path / "missing" / "ce.facts")
    argv = ["nequiv", a, b, "--n", "1", "--save-counterexample", save]
    assert main(argv + ["--json"]) == 2
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    assert json.loads(out)["status"] == "error"
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:")


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


_TRIANGLE = "p(X, Y), r(Y, Z), s(Z, X)"
_REFUSAL = ("error: refusing a search over 2^75 atom subsets (|BASE| = 75, "
            "N = 4); the cost is doubly exponential. Pass --force to run "
            "anyway.\n")


@pytest.mark.parametrize("func, domain, reason", [
    ("avg", "rat", "full equivalence for avg queries is not decided; "
                   "bounded equivalence (nequiv) remains available"),
    ("prod", "int", "equivalence of prod queries is only decided over the "
                    "rationals")])
def test_equiv_answers_a_pair_it_does_not_search_past_the_guardrail(
        tmp_path, capsys, func, domain, reason):
    """equiv reports avg, and prod over the integers, unsupported without
    a search, so a pair past the guardrail's size is answered, not
    refused; the decisions on the same pair that search still are."""
    a = write(tmp_path, "a1.q", f"q(; {func}(Y)) :- {_TRIANGLE}\n")
    b = write(tmp_path, "a2.q", f"q(; {func}(Y)) :- {_TRIANGLE}, Y > 0\n")
    assert main(["equiv", a, b, "--domain", domain]) == 2
    assert capsys.readouterr() == (
        f"status: unsupported\nreason: {reason}\n", "")
    assert main(["equiv", a, b, "--domain", domain, "--json"]) == 2
    payload = json.loads(capsys.readouterr().out)
    del payload["timings"]
    assert payload == {"status": "unsupported", "n_used": None,
                       "counterexample": None, "reason": reason}
    for argv in (["local-equiv", a, b], ["nequiv", a, b, "--n", "4"]):
        assert main([*argv, "--domain", domain]) == 2
        assert capsys.readouterr() == ("", _REFUSAL)


def test_the_guardrail_refuses_every_equiv_that_searches(tmp_path, capsys):
    """A decomposable function, prod over the rationals, differing heads
    and bag-set equivalence all search, so all are refused."""
    for head, head2, domain in (("q(; sum(Y))", "q(; sum(Y))", "int"),
                                ("q(; prod(Y))", "q(; prod(Y))", "rat"),
                                ("q(; avg(Y))", "q(; sum(Y))", "int"),
                                ("q(; avg(Y))", "q(Y; avg(X))", "rat")):
        a = write(tmp_path, "a1.q", f"{head} :- {_TRIANGLE}\n")
        b = write(tmp_path, "a2.q", f"{head2} :- {_TRIANGLE}, Y > 0\n")
        assert main(["equiv", a, b, "--domain", domain]) == 2, head2
        assert capsys.readouterr() == ("", _REFUSAL)
    a = write(tmp_path, "a1.q", f"q(X) :- {_TRIANGLE}\n")
    b = write(tmp_path, "a2.q", f"q(X) :- {_TRIANGLE}, Y > 0\n")
    assert main(["bagset-equiv", a, b]) == 2
    assert capsys.readouterr() == ("", _REFUSAL)


def test_quasilinear_command(tmp_path, capsys):
    a = write(tmp_path, "a.q", "q(X; max(Y)) :- p(X, Y)\n")
    b = write(tmp_path, "b.q", "q(U; max(V)) :- p(U, V)\n")
    assert main(["quasilinear", a, b]) == 0
    c = write(tmp_path, "c.q", "q(X; max(Y)) :- p(X, Y), !b(X)\n")
    assert main(["quasilinear", a, c]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("domain", ["rat", "int"])
def test_quasilinear_refutes_a_negated_atom_beside_a_comparison(
        tmp_path, capsys, domain):
    """θ is matched on the positive atoms alone, so the separating negated
    fact is found without the brute-force sweep and its cap."""
    texts = ("q(X; max(Y)) :- p(X, Y), r(Z)",
             "q(X; max(Y)) :- p(X, Y), r(Z), !b(X), Z != 0")
    assert_quasilinear_refutes(tmp_path, capsys, texts, domain)


def assert_quasilinear_refutes(tmp_path, capsys, texts, domain):
    """`quasilinear` exits 1 on the pair, and its counterexample reproduces
    the values it reports, which differ."""
    paths = [write(tmp_path, f"{side}.q", text + "\n")
             for side, text in zip("ab", texts)]
    assert main(["quasilinear", *paths, "--domain", domain, "--json"]) == 1
    ce = json.loads(capsys.readouterr().out)["counterexample"]
    registry = ArityRegistry()
    q, q2 = (parse_queries(text, domain, registry)[0] for text in texts)
    db = parse_database("\n".join(ce["facts"]), domain, registry)
    group = tuple(Fraction(v) for v in ce["grouping"])
    left = dict(eval_concrete(q, db)).get(group)
    right = dict(eval_concrete(q2, db)).get(group)
    assert [value_to_json(left), value_to_json(right)] == ce["values"]
    assert left != right


@pytest.mark.parametrize("texts, domain", [
    (("q(X; min(Y)) :- p(X, Y), r(Y), !b(X), X > 0",
      "q(X; min(Y)) :- p(X, Y), r(Y), !b(X)"), "int"),
    (("q(; min(Y)) :- p(X, Y), r(Z), !b(X)",
      "q(; min(Y)) :- p(X, Y), r(Z), !b(X), X >= 0"), "rat"),
    (("q(X; count()) :- p(X, Y), r(Z), !b(Y)",
      "q(X; count()) :- p(X, Y), r(Z), !b(Y), Y != 0"), "int"),
])
def test_quasilinear_refutes_wide_pairs_without_enumerating_databases(
        tmp_path, capsys, texts, domain):
    """Each side's instances place its variables against the other side's
    comparison terms: X at or below 0 in the first pair, for one, which no
    instance of the second query's own terms does.  These pairs once fell
    through to a database enumeration that exceeded its cap."""
    assert_quasilinear_refutes(tmp_path, capsys, texts, domain)


def test_quasilinear_places_one_variable_among_seven_constants(
        tmp_path, capsys):
    """Y != 1, ..., Y != 7 over the integers leaves 15 places for Y in the
    constants' chain, well inside the enumeration limit, though the
    system has eight terms.  `quasilinear` refutes the pair, and
    `nequiv` at N = 1 agrees: p(1) separates it."""
    holes = ", ".join(f"Y != {c}" for c in range(1, 8))
    texts = (f"q(; sum(Y)) :- p(Y), {holes}", "q(; sum(Y)) :- p(Y)")
    assert_quasilinear_refutes(tmp_path, capsys, texts, "int")
    paths = [str(tmp_path / name) for name in ("a.q", "b.q")]
    assert main(["nequiv", *paths, "--domain", "int", "--n", "1",
                 "--json"]) == 1
    assert json.loads(capsys.readouterr().out)["counterexample"] == {
        "facts": ["p(1)."], "grouping": [], "values": [None, "1"]}


def test_python_dash_m_runs_the_cli(count_pair):
    env = dict(os.environ, PYTHONPATH=str(Path(aggequiv.__file__).parents[1]))

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "aggequiv", *argv],
                              capture_output=True, text=True, env=env)
    shown = run("--help")
    assert shown.returncode == 0 and shown.stdout.startswith("usage:")
    decided = run("nequiv", *count_pair, "--n", "2")
    assert decided.returncode == 1
    assert decided.stdout.startswith("status: not_equivalent")


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


def test_rational_database_fact_in_the_integer_domain(tmp_path, capsys):
    q = write(tmp_path, "q.q", "q(; sum(Y)) :- p(Y)\n")
    d = write(tmp_path, "d.facts", "p(1).\np(1/2).\n")
    assert main(["eval", q, "-d", d, "--domain", "int"]) == 2
    assert capsys.readouterr().err == (
        "error: 2:3: rational constant 1/2 in an integer-domain database\n")


def test_check_decomposition_command(tmp_path, capsys):
    a = write(tmp_path, "a.q", "q(X; count()) :- e(X, Y)\n")
    b = write(tmp_path, "b.q", "q(X; count()) :- e(X, Y), !m(Y)\n")
    d = write(tmp_path, "d.facts", "e(1, 2).\ne(1, 3).\nm(3).\n")
    assert main(["check-decomposition", a, b, "-d", d, "--group", "1",
                 "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verified"] is True
    assert payload["databases"]


def test_check_decomposition_rejects_a_group_of_the_wrong_arity(
        tmp_path, capsys):
    """A --group with too few or too many values, or an empty one, is a
    usage error naming the head's arity, not an empty decomposition that
    verifies."""
    a = write(tmp_path, "a.q", "q(; count()) :- p(X)\n")
    b = write(tmp_path, "b.q", "q(; count()) :- p(X) | p(X)\n")
    c = write(tmp_path, "c.q", "q(X; count()) :- e(X, Y)\n")
    d = write(tmp_path, "d.facts", "p(1).\ne(1, 2).\n")
    for pair, group, arity in (((a, b), "1", 0), ((a, b), "1,,2", 0),
                               ((c, c), "", 1), ((c, c), "1,,2", 1),
                               ((c, c), "1,", 1), ((c, c), "1,2", 1)):
        assert main(["check-decomposition", *pair, "-d", d,
                     "--group", group]) == 64, (pair, group)
        out, err = capsys.readouterr()
        assert out == "" and err == (
            f"usage error: --group needs {arity} comma-separated grouping "
            f"constant(s), got {group!r}\n")
    assert main(["check-decomposition", a, b, "-d", d, "--group", ""]) == 0
    assert main(["check-decomposition", c, c, "-d", d, "--group", " 1 "]) == 0


def test_check_decomposition_rejects_a_group_value_outside_the_domain(
        tmp_path, capsys):
    """A --group value that does not parse as one constant of the
    domain, a rational over the integers among them, is a usage error
    naming it, not an empty decomposition that verifies or a parse
    error."""
    a = write(tmp_path, "g1.q", "q(X; count()) :- e(X, Y)\n")
    b = write(tmp_path, "g2.q", "q(X; count()) :- e(X, Y), Y > 0\n")
    d = write(tmp_path, "g.facts", "e(1, 2).\ne(1, 0).\n")
    for group, domain in (("1/2", "int"), ("1/0", "rat"), ("1/0", "int"),
                          ("1 2", "rat"), ("X", "rat"), ("p", "int")):
        assert main(["check-decomposition", a, b, "-d", d, "--domain",
                     domain, "--group", group]) == 64, (group, domain)
        assert capsys.readouterr() == ("", (
            f"usage error: grouping value {group!r} is not a constant of "
            f"the domain {domain!r}\n"))
    for group, domain, sizes in (("1", "int", [1, 1]), ("1/2", "rat", [])):
        assert main(["check-decomposition", a, b, "-d", d, "--domain",
                     domain, "--group", group]) == 0
        assert capsys.readouterr().out == (
            f"decomposition into {len(sizes)} database(s), sizes {sizes}\n"
            f"verified\n")


def test_check_decomposition_rejects_heads_of_different_grouping_arity(
        tmp_path, capsys):
    """No group of an ungrouped head is a group of a grouped one, in
    either file order: an error naming both arities, not a verified
    decomposition."""
    grouped = write(tmp_path, "g.q", "q(X; count()) :- e(X, Y)\n")
    ungrouped = write(tmp_path, "u.q", "q(; count()) :- e(X, Y)\n")
    d = write(tmp_path, "d.facts", "e(1, 2).\n")
    for pair, group, arities in (((grouped, ungrouped), "1", (1, 0)),
                                 ((ungrouped, grouped), "", (0, 1))):
        message = (f"the heads group by {arities[0]} and {arities[1]} "
                   f"column(s): no group is shared")
        argv = ["check-decomposition", *pair, "-d", d, "--group", group]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert main(argv + ["--json"]) == 2
        out, err = capsys.readouterr()
        assert json.loads(out) == {"status": "error", "reason": message}
        assert err == ""


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


def test_check_identity_rejects_an_empty_ordering_term(tmp_path, capsys):
    """`0 <= X` and `0 < < X` hold an empty term: neither is a strict
    ordering, and neither reads as `0 < X`."""
    for ordering in ("0 <= X", "0 < < X", "X = < 1"):
        ident = write(tmp_path, "le.ident", f"""
            function: sum
            ordering: {ordering}
            left: {{X}}
            right: {{0}}
        """)
        assert main(["check-identity", ident]) == 2, ordering
        assert "empty term in the ordering" in capsys.readouterr().err


def test_check_identity_rejects_a_bag_term_outside_the_ordering(
        tmp_path, capsys):
    """A bag term the ordering leaves out is an input error (exit 2), not
    an `invalid` identity (exit 1), in text and in --json output."""
    ident = write(tmp_path, "outside.ident", """
        function: max
        ordering: 0 < 1
        left: {X}
        right: {1}
    """)
    assert main(["check-identity", ident]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: bag term X not in the ordering\n"
    assert main(["check-identity", ident, "--json"]) == 2
    assert json.loads(capsys.readouterr().out) == {
        "status": "error", "reason": "bag term X not in the ordering"}


def test_check_identity_rejects_an_unknown_or_repeated_key(tmp_path, capsys):
    """A misspelled key is not dropped (`domian: int` would decide the
    identity over the rationals, where it is invalid), and a repeated key
    does not override the earlier one: both are input errors (exit 2)."""
    body = """
        function: prod
        ordering: 0 < X < 2
        left: {X}
        right: {X, X}
    """
    for header, reason in (
            ("domian: int", "unknown identity key 'domian'"),
            ("domain: int\ndomain: rat", "identity key 'domain' given twice"),
            ("domain: int\nDomain: int",
             "identity key 'domain' given twice")):
        ident = write(tmp_path, "keys.ident", header + body)
        assert main(["check-identity", ident]) == 2, header
        assert capsys.readouterr() == ("", f"error: {reason}\n")
        assert main(["check-identity", ident, "--json"]) == 2, header
        out, err = capsys.readouterr()
        assert json.loads(out) == {"status": "error", "reason": reason}
        assert err == ""
    ident = write(tmp_path, "int.ident", "domain: int" + body)
    assert main(["check-identity", ident]) == 0
    assert capsys.readouterr().out == "valid\n"


def test_check_identity_rejects_a_term_in_two_classes(tmp_path, capsys):
    """`X < Y < X` and `X < X` place X in two classes: no assignment
    satisfies them, so no identity over them is valid or invalid."""
    for ordering in ("X < Y < X", "X < X"):
        ident = write(tmp_path, "twice.ident", f"""
            function: max
            ordering: {ordering}
            left: {{X}}
            right: {{Y}}
        """)
        assert main(["check-identity", ident]) == 2, ordering
        assert capsys.readouterr().err == (
            "error: the ordering is not satisfiable over the domain\n")
        assert main(["check-identity", ident, "--json"]) == 2, ordering
        assert json.loads(capsys.readouterr().out)["status"] == "error"


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


def test_readme_library_snippet_runs_as_written():
    """README's "Library" snippet, run as written in a fresh interpreter,
    gives the value its comment states on each commented line."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("\n## Library\n")[1]
    snippet = section.split("```python\n")[1].split("```")[0]
    claims = [line.split("#") for line in snippet.splitlines() if "#" in line]
    assert len(claims) == 2
    shown = "".join(f"print(repr({expr.strip()}))\n" for expr, _ in claims)
    env = dict(os.environ, PYTHONPATH=str(Path(aggequiv.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", snippet + shown], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert [ast.literal_eval(line) for line in done.stdout.splitlines()] == [
        ast.literal_eval(comment.strip()) for _, comment in claims]
