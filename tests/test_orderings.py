import itertools
import math
import random
from fractions import Fraction

import pytest

from aggequiv.model import Comparison, Const, INTEGERS, RATIONALS, Var
from aggequiv.orderings import (
    CompleteOrdering, consistent_orderings, enumerate_complete_orderings,
    entails, is_reduced, pinned_assignment, possible_value, reduce_terms,
    satisfying_assignment, witness_pair,
)
from helpers import (
    brute_force_weak_orders, ordering_as_classes, random_satisfying_assignment,
)

F = Fraction
x, y, z, w = Var("x"), Var("y"), Var("z"), Var("w")


def C(v):
    return Const(F(v))


def L(classes, domain=RATIONALS):
    return CompleteOrdering.of(classes, domain)


def test_ordered_bell_counts_match_brute_force():
    for n, expected in ((1, 1), (2, 3), (3, 13), (4, 75)):
        terms = [Var(f"v{i}") for i in range(n)]
        ours = {ordering_as_classes(o)
                for o in enumerate_complete_orderings(terms, RATIONALS)}
        brute = brute_force_weak_orders(terms)
        assert len(ours) == expected
        assert ours == brute


def test_enumeration_yields_each_order_once():
    terms = [x, y, z, C(1)]
    seen = list(enumerate_complete_orderings(terms, RATIONALS))
    assert len(seen) == len(set(seen))


def test_variable_against_two_constants():
    orders = {str(o)
              for o in enumerate_complete_orderings([x, C(1), C(2)], RATIONALS)}
    assert orders == {"x < 1 < 2", "1 = x < 2", "1 < x < 2",
                      "1 < 2 = x", "1 < 2 < x"}


def test_integer_room_filter():
    # no two distinct integers fit strictly between 0 and 2
    orders = [str(o) for o in
              enumerate_complete_orderings([x, y, C(0), C(2)], INTEGERS)]
    assert "0 < x < y < 2" not in orders
    assert "0 < x < y < 2" in [
        str(o) for o in enumerate_complete_orderings([x, y, C(0), C(2)],
                                                     RATIONALS)]
    assert "0 < x < 2" in [
        str(o) for o in enumerate_complete_orderings([x, C(0), C(2)],
                                                     INTEGERS)]


def rename(ordering, renaming):
    return L([[renaming.get(t, t) for t in cls] for cls in ordering.classes],
             ordering.domain)


CONSTANT_SETS = ([], [C(1)], [C(0), C(1)], [C(-1), C(2)], [C(0), C(2), C(5)])


def test_injective_orderings_give_one_per_renaming_orbit():
    """Every strict ordering is a renaming of the variables of exactly one
    injective-only ordering, and those keep the variables in order."""
    for domain in (RATIONALS, INTEGERS):
        for constants in CONSTANT_SETS:
            for n in range(5):
                variables = [Var(f"u{i}") for i in range(1, n + 1)]
                terms = constants + variables
                every = [o for o in enumerate_complete_orderings(terms, domain)
                         if o.is_injective()]
                leaders = list(enumerate_complete_orderings(
                    terms, domain, injective_only=True))
                assert len(set(leaders)) == len(leaders)
                assert set(leaders) == {
                    o for o in every
                    if [t for (t,) in o.classes if t in variables]
                    == variables}
                renamings = [dict(zip(variables, perm))
                             for perm in itertools.permutations(variables)]
                leader_set = set(leaders)
                for ordering in every:
                    images = {rename(ordering, r) for r in renamings}
                    assert len(images & leader_set) == 1


def test_injective_orderings_count_is_binomial():
    # over the rationals every interleaving is satisfiable, so the
    # lex-leaders are the C(c + n, n) choices of the variables' slots
    for constants in CONSTANT_SETS:
        for n in range(5):
            terms = constants + [Var(f"u{i}") for i in range(1, n + 1)]
            leaders = list(enumerate_complete_orderings(
                terms, RATIONALS, injective_only=True))
            assert len(leaders) == math.comb(len(constants) + n, n)


def test_entailment_examples():
    order = L([[x], [y], [z]])
    assert entails(order, Comparison(x, "<", z))
    assert entails(order, Comparison(x, "<=", z))
    assert entails(order, Comparison(z, ">", x))
    assert not entails(order, Comparison(z, "<", x))
    assert entails(order, Comparison(x, "!=", z))
    equal = L([[x, y]])
    assert entails(equal, Comparison(x, "<=", y))
    assert entails(equal, Comparison(x, "=", y))
    assert not entails(equal, Comparison(x, "<", y))


def test_integer_squeeze_entailment():
    # 0 < x < 2 squeezes x onto 1 over the integers only
    order = L([[C(0)], [x], [C(2)]], INTEGERS)
    assert order.class_bounds(order.position(x)) == (F(1), F(1))
    rational = L([[C(0)], [x], [C(2)]], RATIONALS)
    assert rational.class_bounds(rational.position(x)) == (F(0), F(2))
    # comparisons with a constant are read off positions, so the constant
    # is placed inside the ordering
    pinned = L([[C(0)], [x, C(1)], [C(2)], [C(5)]], INTEGERS)
    assert entails(pinned, Comparison(x, "=", C(1)))
    assert entails(pinned, Comparison(x, ">=", C(1)))
    assert entails(pinned, Comparison(x, "<", C(5)))
    assert entails(rational, Comparison(x, "<", C(2)))
    assert entails(rational, Comparison(x, "<=", C(2)))
    assert entails(rational, Comparison(x, "!=", C(2)))
    # over the rationals 0 < x < 2 leaves x on either side of 1
    squeezed = [Comparison(C(0), "<", x), Comparison(x, "<", C(2))]
    orders = list(consistent_orderings([x, C(0), C(1), C(2)], squeezed,
                                       RATIONALS))
    assert [str(o) for o in orders if entails(o, Comparison(x, "<", C(1)))] \
        == ["0 < x < 1 < 2"]
    assert len(orders) == 3


def test_unknown_term_rejected():
    with pytest.raises(KeyError, match="unknown term"):
        entails(L([[x]]), Comparison(x, "<", y))
    # a constant outside the ordering is unknown too
    with pytest.raises(KeyError, match="unknown term 5"):
        entails(L([[C(0)], [x]]), Comparison(x, "<", C(5)))
    assert entails(L([[x]]), Comparison(C(0), "<", C(5)))


def test_satisfying_assignment_examples():
    assignment = satisfying_assignment(L([[x], [y]]))
    assert assignment == {x: F(0), y: F(1)}
    assignment = satisfying_assignment(L([[C(0)], [x], [C(2)]], INTEGERS))
    assert assignment[x] == F(1)
    assignment = satisfying_assignment(L([[C(1)], [x], [C(2)]]))
    assert assignment[x] == F(3, 2)
    # beyond the extremes: integer steps
    assignment = satisfying_assignment(L([[x], [C(5)], [y]]))
    assert assignment[x] == F(4) and assignment[y] == F(6)


def test_every_enumerated_ordering_is_realized_by_its_assignment():
    rng = random.Random(3)
    term_sets = [
        [x, y, z],
        [x, y, C(1), C(3)],
        [x, C(-1), y, C(2), z][:4],
    ]
    for domain in (RATIONALS, INTEGERS):
        for terms in term_sets:
            for order in enumerate_complete_orderings(terms, domain):
                assignment = satisfying_assignment(order)
                if domain == INTEGERS:
                    assert all(v.denominator == 1 for v in assignment.values())
                for a, b in itertools.combinations(order.terms(), 2):
                    for op in ("<", "<=", "=", "!=", ">", ">="):
                        cmp = Comparison(a, op, b)
                        if entails(order, cmp):
                            assert cmp.holds(assignment[a], assignment[b])
                # random satisfying assignments agree with every entailment
                for _ in range(3):
                    sample = random_satisfying_assignment(rng, order)
                    for a, b in itertools.combinations(order.terms(), 2):
                        for op in ("<", "=", ">"):
                            cmp = Comparison(a, op, b)
                            if entails(order, cmp):
                                assert cmp.holds(sample[a], sample[b])


def test_reduce_terms_examples():
    order = L([[C(0)], [x], [C(2)]], RATIONALS)
    reduced, renaming = reduce_terms(order)
    assert reduced == order and renaming == {}
    order_z = L([[C(0)], [x], [C(2)]], INTEGERS)
    reduced, renaming = reduce_terms(order_z)
    assert renaming == {x: C(1)}
    assert str(reduced) == "0 < 1 < 2"
    merged, renaming = reduce_terms(L([[x, y]]))
    assert renaming == {y: x}
    assert str(merged) == "x"


def test_is_reduced():
    assert is_reduced(L([[C(0)], [x], [C(2)]], RATIONALS))
    assert not is_reduced(L([[C(0)], [x], [C(2)]], INTEGERS))
    assert not is_reduced(L([[x, y]]))


def test_possible_values_and_pinned_assignment():
    order = L([[C(0)], [x], [y]], RATIONALS)
    assert possible_value(order, x, F(1, 2))
    assert not possible_value(order, x, F(0))
    assert not possible_value(order, x, F(-3))
    pinned = pinned_assignment(order, x, F(7))
    assert pinned[x] == F(7) and pinned[y] > F(7)
    with pytest.raises(ValueError, match="not a possible value"):
        pinned_assignment(order, x, F(0))


def test_witness_pair_examples():
    order = L([[C(0)], [x]], RATIONALS)
    d1, d2 = witness_pair(order, x, F(1), F(2))
    assert d1[x] == F(1) and d2[x] == F(2)
    assert all(d1[t] == d2[t] for t in order.terms() if t != x)

    order = L([[C(0)], [x], [y]], RATIONALS)
    d1, d2 = witness_pair(order, x, F(1), F(2))
    assert d1[x] == F(1) and d2[x] == F(2)
    assert d1[y] == d2[y] and d1[y] > F(2)  # max-merge pushes y past both

    with pytest.raises(ValueError):
        witness_pair(order, x, F(1), F(0))


def test_witness_pair_satisfies_ordering_and_differs_only_at_x():
    rng = random.Random(11)
    for domain in (RATIONALS, INTEGERS):
        for terms in ([x, y, C(0)], [x, y, z], [x, C(1), y, C(4)]):
            for order in enumerate_complete_orderings(terms, domain):
                reduced, renaming = reduce_terms(order)
                the_vars = [t for t in reduced.terms() if t in (x, y, z)]
                if not the_vars:
                    continue
                var = the_vars[0]
                base = satisfying_assignment(reduced)[var]
                lo, hi = reduced.class_bounds(reduced.position(var))
                second = base + 1 if (hi is None or base + 1 <= hi or
                                      (domain == RATIONALS and base + 1 < hi)) \
                    else base - 1
                if not possible_value(reduced, var, second):
                    continue
                d1, d2 = witness_pair(reduced, var, base, second)
                assert d1[var] == base and d2[var] == second
                for t in reduced.terms():
                    if t != var:
                        assert d1[t] == d2[t]
                for assignment in (d1, d2):
                    for a, b in itertools.combinations(reduced.terms(), 2):
                        for op in ("<", "=", ">"):
                            cmp = Comparison(a, op, b)
                            if entails(reduced, cmp):
                                assert cmp.holds(assignment[a], assignment[b])


def test_consistent_orderings():
    comps = [Comparison(x, "<", y), Comparison(y, "<=", C(3))]
    orders = list(consistent_orderings([x, y, C(3)], comps, RATIONALS))
    assert all(entails(o, comps[0]) and entails(o, comps[1]) for o in orders)
    assert {str(o) for o in orders} == {"x < y < 3", "x < 3 = y"}
