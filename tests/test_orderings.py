import itertools
import math
import pickle
import random
from fractions import Fraction

import pytest

from aggequiv.model import (
    Comparison, Const, INTEGERS, RATIONALS, Var, is_const,
)
from aggequiv.orderings import (
    CompleteOrdering, enumerate_complete_orderings, entails, is_reduced,
    is_satisfiable_order, pinned_assignment, place_next_variable,
    satisfying_assignment, witness_pair,
)
from helpers import (
    brute_force_weak_orders, filtered_complete_orderings, ordering_as_classes,
    random_satisfying_assignment, reference_satisfiable_order,
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


def test_integer_count_with_three_constants():
    # 24,516 of the 545,835 ordered set partitions of 8 terms
    terms = [Var(f"v{i}") for i in range(5)] + [C(0), C(1), C(3)]
    assert sum(1 for _ in enumerate_complete_orderings(terms, INTEGERS)) \
        == 24516


OPS = ("<", "<=", "=", "!=", ">", ">=")


def test_pruned_generator_matches_the_filtered_reference():
    """The same orderings in the same order as building every candidate
    and filtering it: plain, and under comparisons (constant against
    constant among them)."""
    rng = random.Random(11)
    values = [F(-1), F(0), F(1, 2), F(1), F(2), F(3)]
    names = [Var(n) for n in "uvwxyz"]
    narrowed = 0  # cases whose comparisons keep some orders but not all
    for _ in range(150):
        domain = rng.choice((RATIONALS, INTEGERS))
        constants = [Const(v) for v in rng.sample(values, rng.randint(0, 3))]
        terms = constants + rng.sample(names,
                                       rng.randint(0, 6 - len(constants)))
        comparisons = [
            Comparison(rng.choice(terms), rng.choice(OPS), rng.choice(terms))
            if terms and rng.random() < 0.8 else
            Comparison(Const(rng.choice(values)), rng.choice(OPS),
                       Const(rng.choice(values)))
            for _ in range(rng.randint(0, 3))]
        found = {}
        for mode, kwargs in (("plain", {}),
                             ("constrained", {"comparisons": comparisons})):
            expected = list(filtered_complete_orderings(terms, domain,
                                                        **kwargs))
            assert list(enumerate_complete_orderings(terms, domain,
                                                     **kwargs)) == expected, \
                (mode, [str(t) for t in terms], domain,
                 [str(c) for c in comparisons])
            found[mode] = len(expected)
        narrowed += 0 < found["constrained"] < found["plain"]
    assert narrowed >= 30


def rename(ordering, renaming):
    return L([[renaming.get(t, t) for t in cls] for cls in ordering.classes],
             ordering.domain)


CONSTANT_SETS = ([], [C(1)], [C(0), C(1)], [C(-1), C(2)], [C(0), C(2), C(5)])


def lex_leaders(constants, variables, domain):
    """The lex-leaders as the level walk builds them: the constants' chain
    with the variables above it in order, then each variable in turn
    placed by `place_next_variable` from the gap after its
    predecessor's."""
    fresh = tuple((v,) for v in variables)
    level = [(-1, CompleteOrdering(chain.classes + fresh, domain))
             for chain in enumerate_complete_orderings(constants, domain)]
    for k in range(len(variables)):
        level = [placed for gap, ordering in level
                 for placed in place_next_variable(
                     ordering, len(constants) + k, gap + 1)]
    return [ordering for _, ordering in level]


def test_injective_orderings_give_one_per_renaming_orbit():
    """Every strict ordering is a renaming of the variables of exactly one
    lex-leader, and those keep the variables in order: the level walk
    builds the reference's interleavings, in its order."""
    for domain in (RATIONALS, INTEGERS):
        for constants in CONSTANT_SETS:
            for n in range(5):
                variables = [Var(f"u{i}") for i in range(1, n + 1)]
                terms = constants + variables
                every = [o for o in enumerate_complete_orderings(terms, domain)
                         if o.is_injective()]
                leaders = lex_leaders(constants, variables, domain)
                assert leaders == list(filtered_complete_orderings(
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
            variables = [Var(f"u{i}") for i in range(1, n + 1)]
            leaders = lex_leaders(constants, variables, RATIONALS)
            assert leaders == list(filtered_complete_orderings(
                constants + variables, RATIONALS, injective_only=True))
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
    orders = list(enumerate_complete_orderings(
        [x, C(0), C(1), C(2)], RATIONALS, comparisons=squeezed))
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


def test_reduction_examples():
    order = L([[C(0)], [x], [C(2)]], RATIONALS)
    reduced, renaming = order.reduction
    assert reduced == order and renaming == {}
    order_z = L([[C(0)], [x], [C(2)]], INTEGERS)
    reduced, renaming = order_z.reduction
    assert renaming == {x: C(1)}
    assert str(reduced) == "0 < 1 < 2"
    merged, renaming = L([[x, y]]).reduction
    assert renaming == {y: x}
    assert str(merged) == "x"


def test_is_reduced():
    assert is_reduced(L([[C(0)], [x], [C(2)]], RATIONALS))
    assert not is_reduced(L([[C(0)], [x], [C(2)]], INTEGERS))
    assert not is_reduced(L([[x, y]]))


def test_satisfying_assignment_is_a_fresh_dict():
    order = L([[C(0)], [x], [y]])
    first = satisfying_assignment(order)
    first[x] = F(7)
    first[z] = F(9)
    assert satisfying_assignment(order) == {C(0): F(0), x: F(1), y: F(2)}
    assert dict(order.canonical_assignment) == satisfying_assignment(order)
    with pytest.raises(TypeError):
        order.canonical_assignment[x] = F(7)


def test_reduction_is_cached_and_a_reduced_ordering_is_its_own():
    reduced = L([[C(0)], [x], [C(2)]], RATIONALS)
    assert reduced.reduction[0] is reduced and reduced.reduction[1] == {}
    pinned = L([[C(0)], [x], [C(2)]], INTEGERS)
    assert pinned.reduction is pinned.reduction
    assert pinned.reduction == (L([[C(0)], [C(1)], [C(2)]], INTEGERS),
                                {x: C(1)})
    with pytest.raises(TypeError):
        pinned.reduction[1][y] = x


@pytest.mark.parametrize("order", [
    L([[C(0)], [x], [C(2)]], RATIONALS),
    L([[C(0)], [x], [C(2)]], INTEGERS),
    L([[x, y], [C(3)], [z]], INTEGERS),
])
def test_an_ordering_through_pickle_keeps_its_reduction_and_assignment(order):
    """Parallel jobs carry orderings to other processes; the cached
    reduction and canonical assignment are rebuilt there, equal."""
    reduction, assignment = order.reduction, dict(order.canonical_assignment)
    copy = pickle.loads(pickle.dumps(order))
    assert copy == order and copy.terms() == order.terms()
    assert copy.reduction == reduction
    assert (copy.reduction[0] is copy) == (reduction[0] is order)
    assert dict(copy.canonical_assignment) == assignment


def test_possible_values_and_pinned_assignment():
    order = L([[C(0)], [x], [y]], RATIONALS)
    assert pinned_assignment(order, x, F(1, 2))[x] == F(1, 2)
    for impossible in (F(0), F(-3)):
        with pytest.raises(ValueError, match="not a possible value"):
            pinned_assignment(order, x, impossible)
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
                reduced, renaming = order.reduction
                the_vars = [t for t in reduced.terms() if t in (x, y, z)]
                if not the_vars:
                    continue
                var = the_vars[0]
                base = satisfying_assignment(reduced)[var]
                lo, hi = reduced.class_bounds(reduced.position(var))
                second = base + 1 if (hi is None or base + 1 <= hi or
                                      (domain == RATIONALS and base + 1 < hi)) \
                    else base - 1
                try:
                    pinned_assignment(reduced, var, second)
                except ValueError:
                    continue  # not a possible value of var
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
    orders = list(enumerate_complete_orderings([x, y, C(3)], RATIONALS,
                                               comparisons=comps))
    assert all(entails(o, comps[0]) and entails(o, comps[1]) for o in orders)
    assert {str(o) for o in orders} == {"x < y < 3", "x < 3 = y"}


def test_a_term_in_two_classes_is_not_satisfiable():
    """A term written in two classes would be less than itself; a term
    written twice in one class, or a constant as a class of its own,
    is no such conflict."""
    for domain in (RATIONALS, INTEGERS):
        assert not is_satisfiable_order([[x], [y], [x]], domain)
        assert not is_satisfiable_order([[x], [x]], domain)
        assert not is_satisfiable_order([[C(0)], [x, y], [C(2), y]], domain)
        assert is_satisfiable_order([[x, x], [y]], domain)
        assert is_satisfiable_order([[x], [C(1)], [y]], domain)


def test_the_order_check_matches_its_three_pass_definition():
    """Seeded random class lists, over both domains, with integral and
    rational constants (equal ones in one class too), terms repeated
    within and across classes, empty classes and empty lists."""
    rng = random.Random(28)
    pool = [x, y, z, C(0), C(1), C(1), C(2), C(4), C(F(1, 2)), C(F(-3, 2))]
    for domain in (RATIONALS, INTEGERS):
        seen = set()
        for _ in range(4000):
            classes = [[rng.choice(pool) for _ in range(rng.randint(0, 3))]
                       for _ in range(rng.randint(0, 5))]
            expected = reference_satisfiable_order(classes, domain)
            assert is_satisfiable_order(classes, domain) == expected, (
                classes, domain)
            seen.add((expected, any(is_const(t) and t.value.denominator > 1
                                    for cls in classes for t in cls)))
        assert seen == {(False, False), (False, True), (True, False)} | (
            {(True, True)} if domain == RATIONALS else set())
        assert is_satisfiable_order([], domain)
        assert is_satisfiable_order([[], [x]], domain)

