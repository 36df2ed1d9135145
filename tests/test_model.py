import random
from fractions import Fraction

import pytest

from aggequiv.model import (
    Comparison, Const, Database, INTEGERS, RATIONALS, ValidationError, Var,
    term_size, term_size_pair, variable_size,
)
from aggequiv.normalize import reduce_query
from aggequiv.oracle import eval_concrete
from aggequiv.parsing import (
    ArityRegistry, ParseError, format_database, format_query, parse_database,
    parse_queries, parse_query, parse_term,
)

F = Fraction


def test_parse_basic_sum_query():
    q = parse_query("q(X; sum(Y)) :- p(X,Y), Y > 3")
    assert q.name == "q"
    assert q.grouping == (Var("X"),)
    assert q.aggregate.function.name == "sum"
    assert q.aggregate.args == (Var("Y"),)
    assert len(q.disjuncts) == 1
    assert q.disjuncts[0].comparisons == (Comparison(Var("Y"), ">", Const(F(3))),)


def test_parse_disjunctive_nullary():
    q = parse_query("q(; count()) :- p(X) | p(X), X != 0")
    assert q.grouping == ()
    assert q.aggregate.function.name == "count"
    assert q.aggregate.args == ()
    assert len(q.disjuncts) == 2


def test_parse_non_aggregate_query():
    q = parse_query("q(X) :- p(X), X != 0")
    assert q.aggregate is None
    assert q.grouping == (Var("X"),)


def test_unsafe_rejected():
    with pytest.raises(ValidationError, match="unsafe"):
        parse_query("q(X; sum(Y)) :- p(X)")
    with pytest.raises(ValidationError, match="unsafe"):
        # a variable equated only to a constant is not safe
        parse_query("q(; count()) :- p(X), Y = 3, X < Y")


def test_safety_through_equality_chain():
    q = parse_query("q(X; sum(Y)) :- p(X), Y = X")
    assert q.disjuncts[0].is_safe()


def test_head_variable_must_occur_in_every_disjunct():
    with pytest.raises(ValidationError, match="disjunct 2 is unsafe"):
        parse_query("q(X; count()) :- p(X) | r(Y)")


def test_grouping_aggregation_overlap_rejected():
    with pytest.raises(ValidationError, match="occur in the aggregate"):
        parse_query("q(X; sum(X)) :- p(X)")


def test_arity_registry():
    with pytest.raises(ParseError, match="arity"):
        parse_query("q(; count()) :- p(X), p(X, X)")
    registry = ArityRegistry()
    parse_query("q(; count()) :- p(X)", registry=registry)
    with pytest.raises(ParseError, match="arity"):
        parse_query("r(; count()) :- p(X, Y)", registry=registry)


def test_unknown_function_and_syntax_errors():
    with pytest.raises(ParseError, match="unknown aggregation function"):
        parse_query("q(; median(Y)) :- p(Y)")
    with pytest.raises(ParseError) as err:
        parse_query("q(X; sum(Y)) :- p(X,Y), Y >")
    assert err.value.line == 1 and err.value.column > 20
    with pytest.raises(ParseError, match="takes 1 argument"):
        parse_query("q(; sum()) :- p(Y)")
    with pytest.raises(ParseError, match="takes 0 argument"):
        parse_query("q(; count(Y)) :- p(Y)")


#: (parser, text, domain) -> (message, line, column) of the ParseError,
#: over multi-line input with comments: a position is that of the token
#: the error names, counted from 1 past newlines and comments
PARSE_ERRORS = [
    ("query", "# a comment\nq(X; sum(Y)) :- p(X, Y),\n   Y > 3 $ 4\n",
     RATIONALS, ("unexpected character '$'", 3, 10)),
    ("query", "q(X; sum(Y)) :- p(X, Y), Y >= -1\n\n\n   ?", RATIONALS,
     ("unexpected character '?'", 4, 4)),
    ("query", "q(X; sum(Y)) :- p(X, Y), Y < 1/2\r\n  | p(X, Y), Y < 0 @\n",
     RATIONALS, ("unexpected character '@'", 2, 20)),
    ("query", "q(X; sum(Y)) :- p(X, Y) # trailing\n  | p(X Y)\n", RATIONALS,
     ("expected ')', found 'Y'", 2, 9)),
    ("query", "q(X) :- p(X), !\n\tb(X\n", RATIONALS,
     ("expected ')', found 'eof'", 3, 1)),
    ("query", "", RATIONALS, ("expected 'ident', found 'eof'", 1, 1)),
    ("query", "q(X; sum(Y))\n  :- p(X, Y), Y > \n  # c\n  , 3\n", RATIONALS,
     ("expected a term (variable or number)", 4, 3)),
    ("query", "q(X; sum(Y)) :- p(X, Y), Y > 3 |\n", RATIONALS,
     ("expected a term (variable or number)", 2, 1)),
    ("query", "q(X; count()) :- p(X),\n  # c\n  X 3\n", RATIONALS,
     ("expected a comparison operator", 3, 5)),
    ("query", "q(X; count()) :- p(X),\n  X < 3/0\n", RATIONALS,
     ("zero denominator", 2, 9)),
    ("query", "q(X; count()) :- p(X),\n  # c\n  X < 3/2\n", INTEGERS,
     ("rational constant 3/2 in an integer-domain query", 3, 7)),
    ("database", "p(1, 2).\n# c\np(3/2, 1).\n", INTEGERS,
     ("rational constant 3/2 in an integer-domain database", 3, 3)),
    ("query", "q(X;\n  medianx(Y)) :- p(X, Y)\n", RATIONALS,
     ("unknown aggregation function 'medianx'", 2, 3)),
    ("query", "q(X; sum(Y, X)) :- p(X, Y)\n", RATIONALS,
     ("sum takes 1 argument(s), got 2", 1, 6)),
    ("query", "q(X; sum(Y)) :- p(X, Y) |\n  # c\n  p(X, Y, Y)\n", RATIONALS,
     ("predicate p used with arity 3, previously 2", 3, 3)),
    ("database", "p(1, 2).\n  # c\n  p(X, 1).\n", RATIONALS,
     ("database fact with variable X", 3, 3)),
    ("database", "p(1, 2) p(2, 3).", RATIONALS,
     ("expected '.', found 'p'", 1, 9)),
    ("one query", "q(X; sum(Y)) :- p(X, Y).\n  # c\n  extra\n", RATIONALS,
     ("trailing input after query", 3, 3)),
    ("term", "3/", RATIONALS, ("expected 'number', found 'eof'", 1, 3)),
    ("term", "X Y", RATIONALS, ("trailing input after term", 1, 3)),
]


@pytest.mark.parametrize("parser, text, domain, expected", PARSE_ERRORS)
def test_parse_error_positions(parser, text, domain, expected):
    parse = {"query": parse_queries, "one query": parse_query,
             "database": parse_database,
             "term": lambda text, domain: parse_term(text)}[parser]
    with pytest.raises(ParseError) as err:
        parse(text, domain)
    message, line, column = expected
    assert (err.value.line, err.value.column) == (line, column)
    assert str(err.value) == f"{line}:{column}: {message}"


def test_integer_domain_rejects_rationals():
    with pytest.raises(ParseError, match="integer-domain"):
        parse_query("q(; sum(Y)) :- p(Y), Y > 1/2", domain=INTEGERS)
    parse_query("q(; sum(Y)) :- p(Y), Y > 1/2", domain=RATIONALS)


def test_rationals_negatives_comments_and_periods():
    text = """
    # two declarations in one file
    q(X; sum(Y)) :- p(X, Y), Y >= -3/2.
    r(; count()) :- p(X, X), X != 0
    """
    queries = parse_queries(text)
    assert [q.name for q in queries] == ["q", "r"]
    cmp = queries[0].disjuncts[0].comparisons[0]
    assert cmp.rhs == Const(F(-3, 2))


def test_roundtrip_canonical_queries():
    samples = [
        "q(X; sum(Y)) :- p(X, Y), Y > 3",
        "q(; count()) :- p(X) | p(X), X != 0",
        "q(X, 3; max(Y)) :- e(X, Y), !b(X), Y >= 1/2 | e(X, Y), X = Y",
        "q(X) :- p(X)",
        "q(; top2(Y)) :- p(Y), Y < -2",
    ]
    for text in samples:
        q = parse_query(text)
        assert parse_query(format_query(q)) == q


def test_term_sizes():
    q = parse_query("q(X; sum(Y)) :- p(X,Y), Y > 3")
    assert term_size(q) == 3  # constants {3}, variables {X, Y}
    q2 = parse_query("q(; count()) :- p(X, Y) | p(X, Y), r(Z, W)")
    assert variable_size(q2) == 4
    assert term_size(q2) == 4
    a = parse_query("q(; sum(Y)) :- p(Y, X), Y > 3")
    b = parse_query("q(; sum(Y)) :- p(Y, X), r(Z, Y), Y > 3, Z < 7")
    assert term_size_pair(a, b) == 5  # constants {3, 7}, sizes 2 and 3


def test_term_size_pair_dominates_each_side_without_shared_constants():
    # constant-free pairs with equal variable sizes give exact equality
    a = parse_query("q(; count()) :- p(X, Y)")
    b = parse_query("q(; count()) :- p(U, V)")
    assert term_size_pair(a, b) == term_size(a) == term_size(b)
    # shared constants are counted once in the pair size
    c = parse_query("q(; sum(Y)) :- p(Y), Y > 3")
    d = parse_query("q(; sum(Y)) :- p(Y), Y > 3, Y < 7")
    assert term_size_pair(c, d) == 3
    assert term_size_pair(c, d) >= max(term_size(c), term_size(d)) - 1


def test_database_parse_and_format():
    registry = ArityRegistry()
    db = parse_database("p(1, 3/2).\np(0, 2).\n", registry=registry)
    assert len(db) == 2
    assert db.carrier() == {F(1), F(3, 2), F(0), F(2)}
    assert parse_database(format_database(db), registry=registry) == db
    with pytest.raises(ParseError):
        parse_database("p(X).")
    with pytest.raises(ParseError, match="arity"):
        parse_database("p(1, 2).\np(1).")


# ---------------------------------------------------------------------------
# reduce_query
# ---------------------------------------------------------------------------

def test_reduce_explicit_equality():
    q = parse_query("q(; count()) :- p(X), X = Y, r(Y)")
    reduced = reduce_query(q)
    cond = reduced.disjuncts[0]
    assert cond.variables() == {Var("X")}
    assert cond.comparisons == ()
    assert {a.predicate for a in cond.atoms} == {"p", "r"}


def test_reduce_integer_squeeze_introduces_head_constant():
    q = parse_query("q(X; count()) :- p(X), 0 < X, X < 2", domain=INTEGERS)
    reduced = reduce_query(q)
    assert reduced.grouping == (Const(F(1)),)
    assert reduced.disjuncts[0].atoms[0].args == (Const(F(1)),)
    assert reduced.disjuncts[0].comparisons == ()
    # same comparisons over the rationals pin nothing
    q_rat = parse_query("q(X; count()) :- p(X), 0 < X, X < 2")
    assert reduce_query(q_rat).grouping == (Var("X"),)


def test_reduce_integer_disequality_pins_a_value():
    # 0 < X < 3 leaves {1, 2}; X != 1 removes the hole's only other value
    q = parse_query("q(; count()) :- p(X), 0 < X, X < 3, X != 1",
                    domain=INTEGERS)
    reduced = reduce_query(q)
    assert reduced.disjuncts[0].atoms[0].args == (Const(F(2)),)
    assert reduced.disjuncts[0].comparisons == ()
    q = parse_query("q(; sum(Y)) :- p(X, Y), 0 < X, X < 3, X != 1, "
                    "Y <= X, X <= Y", domain=INTEGERS)
    reduced = reduce_query(q)
    assert reduced.aggregate.args == (Const(F(2)),)
    assert reduced.disjuncts[0].atoms[0].args == (Const(F(2)), Const(F(2)))
    assert reduced.disjuncts[0].comparisons == ()


def test_reduce_is_a_fixpoint():
    q = parse_query("q(X; max(Y)) :- p(X, Y), X < Y")
    assert reduce_query(q) == q
    assert reduce_query(reduce_query(q)) == reduce_query(q)


def test_reduce_represents_a_merged_group_by_a_head_variable():
    # X, Y and Z are forced equal; X comes first by name, but mapping the
    # grouping variable Z and the aggregation variable Y onto X would put
    # X in both head tuples
    q = parse_query("q(Z; min(Y)) :- s(Y, Z), Z = X, Y = X")
    reduced = reduce_query(q)
    assert reduced == parse_query("q(Z; min(Y)) :- s(Y, Z), Z = Y")
    assert reduce_query(reduced) == reduced


def test_reduce_drops_unsatisfiable_disjuncts():
    q = parse_query("q(; count()) :- p(X), X < 0, X > 0 | p(X), X > 5")
    reduced = reduce_query(q)
    assert len(reduced.disjuncts) == 1
    all_bad = parse_query("q(; count()) :- p(X), X < 0, X > 0")
    assert reduce_query(all_bad).is_unsatisfiable


def test_reduce_accepts_constant_only_comparisons():
    # comparisons between two constants are legal input; a false one just
    # kills its disjunct
    q = parse_query("q(; count()) :- p(X), 1 < 2 | p(X), 2 < 1")
    reduced = reduce_query(q)
    assert len(reduced.disjuncts) == 1
    assert reduced.disjuncts[0].comparisons == ()


def test_reduce_keeps_disjunctive_head_variables():
    q = parse_query(
        "q(X; count()) :- p(X), 0 < X, X < 2 | p(X), 2 < X, X < 4",
        domain=INTEGERS)
    reduced = reduce_query(q)
    # the two disjuncts pin X to different values, so X must survive
    assert reduced.grouping == (Var("X"),)
    assert all(Var("X") in d.variables() for d in reduced.disjuncts)


def test_reduce_preserves_semantics_on_random_databases():
    rng = random.Random(42)
    queries = [
        parse_query("q(X; sum(Y)) :- p(X, Y), X = Y | p(X, Y), Y > 1"),
        parse_query("q(; count()) :- p(X, Y), 0 < X, X < 2, Y >= X",
                    domain=INTEGERS),
        parse_query("q(X; max(Y)) :- p(X, Y), !b(X), X <= Y"),
        parse_query("q(; avg(Y)) :- p(X, Y), X = 2"),
        parse_query("q(; sum(Y)) :- p(X, Y), 0 < X, X < 3, X != 1, "
                    "Y <= X, X <= Y", domain=INTEGERS),
    ]
    for q in queries:
        reduced = reduce_query(q)
        for _ in range(40):
            pool = [F(v) for v in range(-1, 4)]
            facts = set()
            for _ in range(rng.randint(0, 5)):
                facts.add(("p", (rng.choice(pool), rng.choice(pool))))
            if "b" in q.predicates():
                for _ in range(rng.randint(0, 2)):
                    facts.add(("b", (rng.choice(pool),)))
            db = Database(frozenset(facts))
            assert eval_concrete(q, db) == eval_concrete(reduced, db)
