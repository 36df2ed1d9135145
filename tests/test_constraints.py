"""The comparison layer against a grid enumeration of its solutions."""

import itertools
import random
from fractions import Fraction

import pytest

from aggequiv.constraints import ComparisonSystem, TooHardError
from aggequiv.model import (
    Comparison, Const, INTEGERS, RATIONALS, Var, is_const,
)
from helpers import comparison_solutions

F = Fraction
OPS = ("<", "<=", "=", "!=", ">", ">=")
VARIABLES = [Var("x"), Var("y"), Var("z")]
CONSTANTS = {INTEGERS: [F(-1), F(0), F(2), F(3)],
             RATIONALS: [F(-1), F(0), F(1, 2), F(3)]}


def random_case(rng: random.Random, domain: str):
    """0-5 comparisons over 1-3 variables and 0-3 constants, plus a few
    entailment targets over the same variables and the domain's constants."""
    variables = VARIABLES[:rng.randint(1, 3)]
    constants = [Const(c) for c in rng.sample(CONSTANTS[domain],
                                              rng.randint(0, 3))]
    terms = variables + constants
    comparisons = [Comparison(rng.choice(terms), rng.choice(OPS),
                              rng.choice(terms))
                   for _ in range(rng.randint(0, 5))]
    pool = variables + [Const(c) for c in CONSTANTS[domain]]
    targets = [Comparison(rng.choice(variables), rng.choice(OPS),
                          rng.choice(pool))
               for _ in range(3)]
    return variables, comparisons, targets


def value_of(assignment, t):
    return t.value if is_const(t) else assignment[t]


@pytest.mark.parametrize("domain", [INTEGERS, RATIONALS])
def test_system_agrees_with_grid_enumeration(domain):
    rng = random.Random(8)
    integer_neq = 0
    for _ in range(300):
        variables, comparisons, targets = random_case(rng, domain)
        constants = {t.value for c in comparisons + targets
                     for t in c.terms() if is_const(t)}
        solutions = comparison_solutions(comparisons, variables, constants,
                                         domain)
        system = ComparisonSystem(comparisons, domain)
        context = f"{[str(c) for c in comparisons]} over {domain}"
        assert system.satisfiable() == bool(solutions), context
        integer_neq += domain == INTEGERS and any(c.op == "!=" for c in
                                                  comparisons)
        for target in targets:
            expected = all(target.holds(value_of(s, target.lhs),
                                        value_of(s, target.rhs))
                           for s in solutions)
            assert system.entails(target) == expected, (context, str(target))
        if not solutions:
            continue  # forced values and equalities of nothing are moot
        for v in variables:
            values = {s[v] for s in solutions}
            expected = values.pop() if len(values) == 1 else None
            assert system.forced_value(v) == expected, (context, str(v))
        for a, b in itertools.combinations(variables, 2):
            expected = all(s[a] == s[b] for s in solutions)
            assert system.forced_equal(a, b) == expected, (context, a, b)
    if domain == INTEGERS:
        assert integer_neq >= 50


def test_integer_disequality_pins_through_a_hole():
    x, y = Var("x"), Var("y")
    system = ComparisonSystem([Comparison(x, ">=", Const(F(0))),
                               Comparison(x, "<", Const(F(2))),
                               Comparison(x, "!=", Const(F(0))),
                               Comparison(y, ">", x)], INTEGERS)
    assert system.satisfiable()
    assert system.forced_value(x) == F(1)
    assert system.forced_value(y) is None
    assert system.entails(Comparison(y, ">=", Const(F(2))))
    rational = ComparisonSystem(system.comparisons, RATIONALS)
    assert rational.forced_value(x) is None


def test_unmentioned_terms_are_not_forced():
    x, y = Var("x"), Var("y")
    for domain in (INTEGERS, RATIONALS):
        system = ComparisonSystem([Comparison(x, "=", Const(F(1))),
                                   Comparison(x, "!=", Const(F(2)))], domain)
        assert system.forced_value(x) == F(1)
        assert system.forced_value(y) is None
        assert not system.forced_equal(x, y)
        assert not system.entails(Comparison(y, "=", Const(F(1))))


def test_integer_disequality_beyond_the_enumeration_limit():
    chain = [Var(f"v{i}") for i in range(8)]
    comparisons = [Comparison(a, "<", b) for a, b in zip(chain, chain[1:])]
    assert ComparisonSystem(comparisons, INTEGERS).satisfiable()
    hard = ComparisonSystem(
        comparisons + [Comparison(chain[0], "!=", chain[-1])], INTEGERS)
    # 1 * 3 * ... * 15 placement sequences for eight variables
    with pytest.raises(TooHardError, match=r"8 terms \(2027025 placement "
                       r"sequences\) exceeds the enumeration limit \(135135\)"):
        hard.satisfiable()
    # the rationals need no enumeration
    assert ComparisonSystem(hard.comparisons, RATIONALS).satisfiable()


def test_the_enumeration_limit_counts_placements_of_variables():
    """The constants form one chain, so seven of them and four variables
    (15 * 17 * 19 * 21 placement sequences) stay within the limit that
    eight variables exceed."""
    ys = [Var(f"y{i}") for i in range(4)]
    holes = [Comparison(y, "!=", Const(F(c))) for y in ys
             for c in range(1, 8)]
    chain = [Comparison(a, "<", b) for a, b in zip(ys, ys[1:])]
    system = ComparisonSystem(holes + chain, INTEGERS)
    assert system.satisfiable()
    assert system.entails(Comparison(ys[0], "!=", Const(F(4))))
    assert not system.entails(Comparison(ys[0], "<", Const(F(1))))


def test_disequality_entailment_stops_at_a_consistent_ordering():
    """Each negation piece of an integer system with a disequality needs
    one consistent ordering, not the list of them."""
    a, b, c, d, e, f = (Var(n) for n in "ABCDEF")
    zero = Const(F(0))
    system = ComparisonSystem([Comparison(a, "!=", f),
                               Comparison(b, ">=", zero),
                               Comparison(c, ">=", zero),
                               Comparison(d, "<=", e)], INTEGERS)
    assert not system.entails(Comparison(b, "<", c))
    assert system.entails(Comparison(b, ">=", zero))
