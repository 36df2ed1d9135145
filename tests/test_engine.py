import dataclasses
import itertools
import json
import math
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import (
    FUNCTION_NAMES, compile_all, differing_masks, filtered_complete_orderings,
    random_text, reference_prepare, reference_scan, reference_units,
    reference_views, subset_major_scan,
)

from aggequiv import engine, identity, oracle
from aggequiv.model import (
    Const, Database, INTEGERS, Var, merged_predicates, term_size_pair,
)
from aggequiv.normalize import reduce_query
from aggequiv.orderings import CompleteOrdering
from aggequiv.parsing import parse_query

F = Fraction


def verify_ce(q, q2, verdict):
    """A reported counterexample must reproduce concretely."""
    assert verdict.status == engine.NOT_EQUIVALENT
    ce = verdict.counterexample
    left = dict(oracle.eval_concrete(q, ce.database))
    right = dict(oracle.eval_concrete(q2, ce.database))
    assert left.get(ce.group) == ce.left_value
    assert right.get(ce.group) == ce.right_value
    assert ce.left_value != ce.right_value


def test_build_base_examples():
    q = parse_query("q(; count()) :- p(X)")
    terms, base = engine.build_base(q, q, 2)
    assert len(base) == 2 and terms == [Var("u1"), Var("u2")]

    q2 = parse_query("q(; count()) :- p(X), r(X, Y), X = 3")
    terms, base = engine.build_base(q2, q2, 1)
    assert len(terms) == 2 and Const(F(3)) in terms
    assert len(base) == 2 + 4

    terms, base = engine.build_base(q, q, 0)
    assert base == []

    # |BASE| without building it
    q3 = parse_query("q(X; sum(Y)) :- p(X, Y), Y > 3 | p(Y, X), !b(X)")
    q4 = parse_query("q(; count()) :- b(X), X = 1")
    for first, second in ((q, q), (q2, q2), (q, q2), (q3, q3), (q3, q4)):
        for n in range(4):
            assert engine.base_size(first, second, n) == len(
                engine.build_base(first, second, n)[1])


def collect_groups(q, ordering, subset):
    """The groups the (S, L) scan collects for `q` on one unit whose
    ordering holds only fresh variables, keys and items mapped back to
    terms."""
    plan = engine._plan(q, q, len(ordering.terms()))
    atom_bit = {atom: 1 << i for i, atom in enumerate(plan.base)}
    prepared = engine._prepare_assignments(
        compile_all(plan, 0), [ordering.position(t) for t in plan.terms])
    groups = engine._collect_groups(prepared,
                                    sum(atom_bit[atom] for atom in subset))
    terms = plan.terms
    return {as_terms(terms, key): [as_terms(terms, item) for item in bag]
            for key, bag in groups.items()}


def as_terms(terms, indexes):
    """A tuple of base-term indexes as the terms they stand for."""
    return tuple(terms[i] for i in indexes)


def test_evaluate_symbolic_counts_assignments():
    q = parse_query("q(; count()) :- p(X)")
    u1, u2 = Var("u1"), Var("u2")
    groups = collect_groups(q, CompleteOrdering.of([[u1], [u2]], "rat"),
                            {("p", (u1,)), ("p", (u2,))})
    assert groups == {(): [(), ()]}


def test_evaluate_symbolic_labeled_copies():
    q = parse_query("q(; count()) :- p(X) | p(X)")
    u1 = Var("u1")
    assert collect_groups(q, CompleteOrdering.of([[u1]], "rat"),
                          {("p", (u1,))}) == {(): [(), ()]}


def test_evaluate_symbolic_negation_blocks():
    q = parse_query("q(X; max(Y)) :- e(X, Y), !b(X)")
    u1, u2 = Var("u1"), Var("u2")
    assert collect_groups(q, CompleteOrdering.of([[u1], [u2]], "rat"),
                          {("e", (u1, u2)), ("b", (u1,))}) == {}


def test_compiled_preparation_matches_reference():
    """Random queries over both domains, with constants, every comparison
    operator, negation, grouping and repeated variables, N <= 3: on every
    lex-leader ordering each level's compiled preparation, mapped back to
    terms, is the concretely decided reference's assignments that use uk
    (at level 0, the constants only), as a multiset."""
    rng = random.Random(606)
    heads = ["q(; count()) :- ", "q(; sum(Y)) :- ", "q(X; max(Y)) :- ",
             "q(X; count()) :- "]
    ops = ["<", "<=", ">", ">=", "=", "!="]
    checked_orderings = 0
    for _ in range(150):
        domain = rng.choice([INTEGERS, "rat"])
        constants = rng.sample(["0", "1", "2"] if domain == INTEGERS
                               else ["0", "1/2", "2"], rng.randint(0, 2))

        def disjunct():
            lits = [rng.choice(["e(X, Y)", "e(Y, X)", "e(X, Y), p(Z)"]),
                    rng.choice(["", "e(X, X)", "p(Y)", "e(Y, Z)"])]
            if constants and rng.random() < 0.4:
                lits.append(f"e(X, {rng.choice(constants)})")
            if rng.random() < 0.5:
                lits.append(rng.choice(["!b(X)", "!b(Y)", "!e(Y, X)",
                                        "!p(X)"]))
            operands = ["X", "Y"] + constants + (
                ["Z"] if "Z" in "".join(lits) else [])
            for _ in range(rng.randint(0, 3)):
                lits.append(f"{rng.choice(operands)} {rng.choice(ops)} "
                            f"{rng.choice(operands)}")
            return ", ".join(lit for lit in lits if lit)
        q = parse_query(rng.choice(heads) + " | ".join(
            disjunct() for _ in range(rng.randint(1, 2))), domain=domain)
        n = rng.randint(0, 3)
        plan = engine._plan(q, q, n)
        terms = plan.terms
        atom_bit = {atom: 1 << i for i, atom in enumerate(plan.base)}
        levels = [engine._compile(plan, plan.programs[0], k)[0]
                  for k in range(n + 1)]
        for ordering in filtered_complete_orderings(terms, domain,
                                                    injective_only=True):
            position = [ordering.position(t) for t in terms]
            before = Counter()  # the reference over the earlier levels
            for k, compiled in enumerate(levels):
                reference = Counter(reference_prepare(
                    q, ordering, terms[:plan.constants + k], atom_bit))
                prepared = engine._prepare_assignments(compiled, position)
                assert Counter(
                    (positive, negated, as_terms(terms, key),
                     as_terms(terms, item))
                    for positive, negated, key, item in prepared) == \
                    reference - before, (str(q), str(ordering), k)
                before = reference
            checked_orderings += 1
    assert checked_orderings > 250


def test_group_keys_are_visited_in_term_order():
    """At N = 10 the fresh variable u10 sorts before u2 by name, so the
    one-sided group on u10, at 1, is the one reported, though u2 comes
    first in BASE."""
    q = parse_query("q(X; count()) :- p(X)")
    q2 = parse_query("q(X; count()) :- p(X), !b(X)")
    plan = engine._plan(q, q2, 10)
    terms = plan.terms
    atom_bit = {atom: 1 << i for i, atom in enumerate(plan.base)}
    u2, u10 = Var("u2"), Var("u10")
    subset = [("b", (u2,)), ("b", (u10,)), ("p", (u2,)), ("p", (u10,))]
    ordering = next(filtered_complete_orderings(terms, "rat",
                                                injective_only=True))
    position = [ordering.position(t) for t in terms]
    ce = engine._pair_counterexample(
        plan, sum(atom_bit[atom] for atom in subset), ordering,
        engine._prepare_assignments(compile_all(plan, 0), position),
        engine._prepare_assignments(compile_all(plan, 1), position))
    assert ce == engine.Counterexample(
        Database.of([("b", [1]), ("b", [2]), ("p", [1]), ("p", [2])]),
        (F(1),), 1, None)


def test_reflexivity():
    q = parse_query("q(X; sum(Y)) :- p(X, Y), Y > 3 | p(Y, X), !b(X)")
    assert engine.n_equivalent(q, q, 2).status == engine.EQUIVALENT


def test_count_duplicate_disjunct_counterexample():
    q = parse_query("q(; count()) :- p(X)")
    q2 = parse_query("q(; count()) :- p(X) | p(X)")
    verdict = engine.n_equivalent(q, q2, 1)
    verify_ce(q, q2, verdict)
    ce = verdict.counterexample
    assert ce.database == Database.of([("p", [0])])
    assert ce.group == ()
    assert (ce.left_value, ce.right_value) == (1, 2)


def test_max_subsumed_disjunct_is_n_equivalent():
    q = parse_query("q(; max(Y)) :- p(Y)")
    q2 = parse_query("q(; max(Y)) :- p(Y) | p(Y), Y > 3")
    for n in (2, 3):
        assert engine.n_equivalent(q, q2, n).status == engine.EQUIVALENT


def test_locally_equivalent_uses_term_size():
    q = parse_query("q(; count()) :- p(X)")
    verdict = engine.locally_equivalent(q, q)
    assert verdict.n_used == 1
    q2 = parse_query("q(; count()) :- p(X) | p(X)")
    assert engine.locally_equivalent(q, q2).status == engine.NOT_EQUIVALENT


def test_sum_disjoint_split_locally_equivalent():
    q = parse_query("q(; sum(Y)) :- p(Y)")
    q2 = parse_query("q(; sum(Y)) :- p(Y), Y <= 5 | p(Y), Y > 5")
    verdict = engine.locally_equivalent(q, q2)
    assert verdict.status == engine.EQUIVALENT


def test_equivalent_renamed_copies():
    q = parse_query("q(X; sum(Y)) :- p(X, Y), !b(X)")
    q2 = parse_query("q(U; sum(V)) :- p(U, V), !b(U)")
    assert engine.equivalent(q, q2).status == engine.EQUIVALENT


def test_equivalent_rejects_duplicate_disjunct_with_verified_ce():
    q = parse_query("q(; count()) :- p(X)")
    q2 = parse_query("q(; count()) :- p(X) | p(X)")
    verdict = engine.equivalent(q, q2)
    verify_ce(q, q2, verdict)


def test_avg_cntd_unsupported_for_full_equivalence():
    for name in ("avg", "cntd"):
        q = parse_query(f"q(; {name}(Y)) :- p(Y)")
        verdict = engine.equivalent(q, q)
        assert verdict.status == engine.UNSUPPORTED
        assert verdict.reason
        # bounded equivalence still works
        assert engine.n_equivalent(q, q, 2).status == engine.EQUIVALENT


def test_prod_full_equivalence_rationals_only():
    q = parse_query("q(; prod(Y)) :- p(Y)")
    assert engine.equivalent(q, q).status == engine.EQUIVALENT
    qz = parse_query("q(; prod(Y)) :- p(Y)", domain=INTEGERS)
    assert engine.equivalent(qz, qz).status == engine.UNSUPPORTED


def test_prod_detects_squared_disjunct():
    q = parse_query("q(; prod(Y)) :- p(Y), Y > 2")
    q2 = parse_query("q(; prod(Y)) :- p(Y), Y > 2 | p(Y), Y > 2")
    verdict = engine.equivalent(q, q2)
    verify_ce(q, q2, verdict)


def test_bagset_examples():
    q = parse_query("q(X) :- p(X)")
    q_same = parse_query("q(X) :- p(X), p(X)")
    q_dup = parse_query("q(X) :- p(X) | p(X)")
    assert engine.bagset_equivalent(q, q_same).status == engine.EQUIVALENT
    verdict = engine.bagset_equivalent(q, q_dup)
    assert verdict.status == engine.NOT_EQUIVALENT
    assert engine.bagset_equivalent(q, q).status == engine.EQUIVALENT
    with pytest.raises(ValueError):
        engine.bagset_equivalent(q, parse_query("q(; count()) :- p(X)"))


def test_not_n_equivalent_implies_not_equivalent():
    # the counterexample is a real database, so it refutes full
    # equivalence outright
    q = parse_query("q(; sum(Y)) :- p(Y)")
    q2 = parse_query("q(; sum(Y)) :- p(Y) | p(Y), Y > 0")
    verdict = engine.n_equivalent(q, q2, 1)
    verify_ce(q, q2, verdict)


def test_parity_duplicate_disjunct():
    q = parse_query("q(; parity()) :- p(X)")
    q2 = parse_query("q(; parity()) :- p(X) | p(X)")
    verdict = engine.locally_equivalent(q, q2)
    verify_ce(q, q2, verdict)
    # duplicating both sides restores parity equivalence
    q3 = parse_query("q(; parity()) :- p(X) | p(X) | p(X)")
    assert engine.locally_equivalent(q, q3).status == engine.EQUIVALENT


def test_head_mismatch():
    q = parse_query("q(; count()) :- p(X)")
    q2 = parse_query("q(; sum(Y)) :- p(Y)")
    verdict = engine.n_equivalent(q, q2, 2)
    assert verdict.status == engine.NOT_EQUIVALENT
    ce = verdict.counterexample
    left = dict(oracle.eval_concrete(q, ce.database))
    right = dict(oracle.eval_concrete(q2, ce.database))
    assert left != right
    # grouping arity mismatch
    q3 = parse_query("q(X; count()) :- p(X)")
    assert engine.n_equivalent(q, q3, 1).status == engine.NOT_EQUIVALENT
    assert engine.equivalent(q, q3).status in (engine.NOT_EQUIVALENT,
                                               engine.UNSUPPORTED)


def test_head_mismatch_counterexamples_are_pinned():
    """Differing heads are compared on the ordering's canonical instance;
    the first disagreement found is fixed.  No unit stands for another
    there: min and parity agree on {p(u1)} (at u1 = 0) but not on
    {p(u2)}, whose renaming onto u1 is {p(u1)}."""
    cases = [
        ("q(; count()) :- p(X)", "q(; sum(Y)) :- p(Y)", "rat", 2,
         {("p", (F(0),))}, (), 1, F(0)),
        ("q(; max(Y)) :- p(Y)", "q(; min(Y)) :- p(Y)", "rat", 3,
         {("p", (F(0),)), ("p", (F(1),))}, (), F(1), F(0)),
        ("q(X; max(Y)) :- e(X, Y)", "q(X; min(Y)) :- e(X, Y), !b(X)", "rat",
         2, {("b", (F(0),)), ("e", (F(0), F(0)))}, (F(0),), F(0), None),
        ("q(; min(Y)) :- p(Y), !b(Y)", "q(; parity()) :- p(Y) | p(Y)",
         INTEGERS, 3, {("p", (F(1),))}, (), F(1), 0),
    ]
    for text1, text2, domain, n, facts, group, left, right in cases:
        q = parse_query(text1, domain=domain)
        q2 = parse_query(text2, domain=domain)
        verdict = engine.n_equivalent(q, q2, n)
        verify_ce(q, q2, verdict)
        assert verdict.counterexample == engine.Counterexample(
            Database(frozenset(facts)), group, left, right)


def test_early_counterexamples_are_pinned():
    """The first counterexample of pairs with many orderings and an early
    hit, fixed across the lex-leader ordering filter and the idle-atom
    skip."""
    p, b, e = "p", "b", "e"
    cases = [
        ("q(; max(Y)) :- p(Y), Y < 1", "q(; max(Y)) :- p(Y), Y <= 0",
         "rat", 5, {(p, (F(1, 2),))}, (), F(1, 2), None),
        ("q(; cntd(Y)) :- p(Y), 0 < Y, Y < 3",
         "q(; cntd(Y)) :- p(Y), 0 < Y, Y < 2 | p(Y), 2 < Y, Y < 3",
         "rat", 4, {(p, (F(2),))}, (), 1, None),
        ("q(; sum(Y)) :- p(Y), Y > 2 | p(Y), Y < 0",
         "q(; sum(Y)) :- p(Y), Y != 1",
         "rat", 4, {(p, (F(0),))}, (), None, F(0)),
        ("q(; avg(Y)) :- p(Y)", "q(; avg(Y)) :- p(Y), Y > 0",
         "rat", 5, {(p, (F(0),))}, (), F(0), None),
        ("q(; prod(Y)) :- p(Y), Y > 1", "q(; prod(Y)) :- p(Y), Y >= 1",
         "rat", 4, {(p, (F(1),))}, (), None, F(1)),
        ("q(; top2(Y)) :- p(Y), Y > 1", "q(; top2(Y)) :- p(Y), Y >= 1",
         INTEGERS, 4, {(p, (F(1),))}, (), None, (F(1), None)),
        ("q(; count()) :- p(X), !b(X)", "q(; count()) :- p(X)",
         "rat", 4, {(b, (F(0),)), (p, (F(0),))}, (), None, 1),
        ("q(X; max(Y)) :- e(X, Y), !b(X)", "q(X; max(Y)) :- e(X, Y)",
         "rat", 3, {(b, (F(0),)), (e, (F(0), F(0)))}, (F(0),), None, F(0)),
    ]
    for text1, text2, domain, n, facts, group, left, right in cases:
        q = parse_query(text1, domain=domain)
        q2 = parse_query(text2, domain=domain)
        verdict = engine.n_equivalent(q, q2, n)
        verify_ce(q, q2, verdict)
        assert verdict.counterexample == engine.Counterexample(
            Database(frozenset(facts)), group, left, right)


def test_first_counterexample_is_the_first_canonical_failure():
    """A walk over every ordering fails first at u2 < u1 < 0 and reports
    {e(-1, -2)}; the lex-leader walk never visits that ordering and fails
    first at 0 < u1 < u2 on the same subset."""
    q = parse_query("q(; count()) :- e(X, Y), Y < X, X < 0"
                    " | e(X, Y), 0 < X, X < Y | e(X, X)")
    q2 = parse_query("q(; count()) :- e(X, X)")
    verdict = engine.n_equivalent(q, q2, 2)
    verify_ce(q, q2, verdict)
    assert verdict.counterexample == engine.Counterexample(
        Database(frozenset({("e", (F(1), F(2)))})), (), 1, None)


_SHAPES = {  # head, positive literals, other literals, compared variables
    "unary": ("q(; {agg}) :- ", ["p(Y)"], ["!b(Y)", "b(Y)"], ["Y"]),
    "binary": ("q(; {agg}) :- ", ["e(X, Y)"],
               ["!e(Y, X)", "e(Y, Y)", "!b(X)", "b(Y)"], ["X", "Y"]),
    "grouped": ("q(X; {agg}) :- ", ["e(X, Y)", "g(X), p(Y)"],
                ["!b(Y)", "b(X)"], ["X", "Y"]),
}
#: the wider shapes: a predicate repeated in one disjunct, and a second
#: unary atom on another variable
_WIDE_SHAPES = {
    "repeated": ("q(X; {agg}) :- ", ["p(X, Y)", "p(X, Y), p(Y, Y)"],
                 ["!r(Y)", "r(X)", "!p(Y, X)"], ["X", "Y"]),
    "two_unary": ("q(; {agg}) :- ", ["p(Y)", "p(Y), p(Z)"],
                  ["!b(Y)", "b(Y)", "b(Z)"], ["Y", "Z"]),
}
#: per shape, the atom a disjunct is split on: D against D, a | D, !a
_SPLIT = {"unary": "b(Y)", "binary": "b(Y)", "grouped": "b(X)",
          "repeated": "r(Y)", "two_unary": "b(Y)"}


def random_shape_pair(rng, wide=False):
    """A random pair `(text1, text2, domain, n)` whose BASE at N = n has
    at most 10 atoms: unary, binary or grouped queries sharing some
    disjuncts, with negation and comparisons with constants, matching or
    differing heads, both domains and n <= 3.  `wide` adds the shapes of
    `_WIDE_SHAPES`, comparisons between two variables, second queries
    that split one of the first query's disjuncts on an atom and its
    negation, unary avg, cntd and prod pairs over the integers with the
    constants 0 and 2, between which a variable is pinned to 1, and BASE
    up to 14 atoms."""
    shapes = {**_SHAPES, **_WIDE_SHAPES} if wide else _SHAPES

    def query(kind, func, disjuncts):
        agg = func + ("()" if func in ("count", "parity") else "(Y)")
        return shapes[kind][0].format(agg=agg) + " | ".join(disjuncts)

    def disjunct(kind, constants):
        _, positive, extra, variables = shapes[kind]
        lits = [rng.choice(positive)]
        if rng.random() < 0.4:
            lits.append(rng.choice(extra))
        # only variables of a positive literal (all are uppercase letters)
        variables = [v for v in variables if v in "".join(lits)]
        for _ in range(rng.choice((0, 1, 1, 2)) if constants else 0):
            op = rng.choice(["<", "<=", ">", ">=", "!=", "="])
            lits.append(f"{rng.choice(variables)} {op} "
                        f"{rng.choice(constants)}")
        if len(constants) > 1 and rng.random() < 0.4:
            # a run between the outer constants
            lits += [f"Y > {constants[0]}", f"Y < {constants[-1]}"]
        if wide and len(variables) > 1 and rng.random() < 0.3:
            first, second = rng.sample(variables, 2)
            op = rng.choice(["<", "<=", ">", ">=", "!=", "="])
            lits.append(f"{first} {op} {second}")
        return ", ".join(lits)

    while True:
        kind = rng.choice(list(shapes))
        domain = rng.choice([INTEGERS, "rat"])
        func = rng.choice(FUNCTION_NAMES)
        func2 = rng.choice(FUNCTION_NAMES) if rng.random() < 0.4 else func
        constants = rng.choice([(), ("0",), ("1",), ("0", "3"),
                                ("0", "1", "3")])
        if func2 != func and rng.random() < 0.5:
            # differing heads are compared on the canonical instance; with
            # no constant u1 is 0 there, where these functions can agree
            func, func2 = rng.sample(["sum", "prod", "min", "max", "parity"],
                                     2)
            constants = ()
        if rng.random() < 0.25:
            # between 0 and 3 one integer variable can pin another, and
            # prod {Y} = prod {Y, Y} holds at Y = 1 only
            kind, domain, constants = "unary", INTEGERS, ("0", "3")
            func = func2 = "prod"
            if wide and rng.random() < 0.5:
                # between 0 and 2 an integer variable is pinned to 1, which
                # prod ignores
                constants = ("0", "2")
                func = func2 = rng.choice(["avg", "cntd", "prod"])
        # shared disjuncts keep the first failure late or absent
        shared = [disjunct(kind, constants)
                  for _ in range(rng.randint(1, 2))]

        def extra():
            return rng.choice(shared + [disjunct(kind, constants)])
        disjuncts = shared + [extra()] * rng.randint(0, 1)
        text1 = query(kind, func, disjuncts)
        if wide and rng.random() < 0.3:
            # the first query's disjuncts, one of them split in two on an
            # atom, so that both hold the same databases, and maybe two
            # more copies of one
            split = disjuncts.pop(rng.randrange(len(disjuncts)))
            text2 = query(kind, func2, disjuncts + [
                f"{split}, {_SPLIT[kind]}", f"{split}, !{_SPLIT[kind]}"]
                + [rng.choice(shared)] * rng.choice((0, 0, 2)))
        else:
            text2 = query(kind, func2,
                          shared + [extra()] * rng.randint(0, 2))
        q = parse_query(text1, domain=domain)
        q2 = parse_query(text2, domain=domain)
        bound = 14 if wide else 10
        n = rng.randint(1, 3)
        while n > 1 and engine.base_size(q, q2, n) > bound:
            n -= 1
        if engine.base_size(q, q2, n) <= bound:
            return text1, text2, domain, n


def test_cached_views_equal_a_recomputation():
    """`variables()` and `constants()` of a Condition and of a Query are
    computed on first use and kept.  On seeded wide `random_shape_pair`
    draws, their `reduce_query` outputs and `dataclasses.replace`d
    queries, every condition's and query's views equal
    `helpers.reference_views`, on the first call and the next, and a
    replaced query does not keep the views of the one it came from.  The
    views are frozensets and the cache is no field anyone can assign, so
    no caller can change a kept view."""
    rng = random.Random(35)
    for _ in range(150):
        text1, text2, domain, _ = random_shape_pair(rng, wide=True)
        for text in (text1, text2):
            q = parse_query(text, domain=domain)
            q.variables(), q.constants()  # kept before the replacements
            queries = [q, reduce_query(q), dataclasses.replace(
                q, grouping=q.grouping + (Const(F(7, 2)),)),
                dataclasses.replace(q, disjuncts=q.disjuncts[:1])]
            for query in queries:
                for value in (query, *query.disjuncts):
                    expected = reference_views(value)
                    for _ in range(2):
                        views = (value.variables(), value.constants())
                        assert views == expected
                        assert all(type(view) is frozenset for view in views)
    assert Const(F(7, 2)) in queries[2].constants()
    assert Const(F(7, 2)) not in q.constants()
    for value in (q, q.disjuncts[0]):
        with pytest.raises(AttributeError):
            value.variables().add(Var("Z"))
        with pytest.raises(dataclasses.FrozenInstanceError):
            value._views = None


def test_nullary_atoms_belong_to_every_level():
    """An atom without arguments, like p(), uses no fresh variable, so it
    is an atom of every level, level 0 included, also when the pair has
    no constants: under count `p()` and `p() | p()` differ on {p()}.  The
    scan finds `reference_scan`'s first failing unit, and the verdicts
    match the brute-force oracle.  Pairs without atoms have one empty
    subset at level 0 and are decided on the empty database, with
    matching heads or not: count and parity agree there on one
    assignment, and not on two (1 against 0)."""
    pairs = [("q(; count()) :- p()", "q(; count()) :- p() | p()"),
             ("q(; sum(Y)) :- p(), e(Y)",
              "q(; sum(Y)) :- p(), e(Y) | e(Y), !p()"),
             ("q(; count()) :- p(), !b()", "q(; count()) :- p()"),
             ("q(; count()) :- 1 < 2", "q(; count()) :- 1 < 2 | 1 < 2"),
             ("q(1; count()) :- 1 < 2", "q(2; count()) :- 1 < 2"),
             ("q(; count()) :- 1 < 2", "q(; parity()) :- 1 < 2"),
             ("q(; count()) :- 1 < 2", "q(; parity()) :- 1 < 2 | 1 < 2"),
             ("q(; count()) :- 1 < 2", "q(1; count()) :- 1 < 2")]
    for text1, text2 in pairs:
        q, q2 = parse_query(text1), parse_query(text2)
        for n in range(3):
            hit = engine._scan(engine._plan(q, q2, n))
            assert hit == reference_scan(engine._plan(q, q2, n))
            found = oracle.brute_force_check(q, q2, pool=range(n))
            assert (hit is None) == (found is None), (text1, text2, n)
    for pair, facts, values in ((pairs[0], [("p", ())], (1, 2)),
                                (pairs[6], [], (1, 0))):
        ce = engine.n_equivalent(*map(parse_query, pair), 0).counterexample
        assert (ce.database, (ce.left_value, ce.right_value)) == (
            Database.of(facts), values)


def test_level_walk_keeps_the_first_failing_unit():
    """Random pairs (`random_shape_pair`), 200 plain draws and 300 wide
    ones whose BASE has at most 12 atoms: the scan, which plans each
    level when it reaches it, skips levels and drops orderings, finds
    the same first failing unit (level, index and counterexample) as
    the reference walk over every unit of every level, and the decision
    reports it too."""
    for wide, draws, seed in ((False, 200, 1996), (True, 300, 2024)):
        rng = random.Random(seed)
        outcomes = Counter()
        while outcomes.total() < draws:
            text1, text2, domain, n = random_shape_pair(rng, wide)
            q = parse_query(text1, domain=domain)
            q2 = parse_query(text2, domain=domain)
            if engine.base_size(q, q2, n) > 12:
                continue
            plan = engine._plan(q, q2, n)
            expected = reference_scan(plan)
            assert engine._scan(plan) == expected, (text1, text2, domain, n)
            verdict = engine.n_equivalent(q, q2, n)
            assert verdict.counterexample == (expected and expected[1])
            outcomes[plan.same_head, expected is None] += 1
        # (same head, equivalent): differing heads almost always fail
        assert min(outcomes[True, True], outcomes[True, False],
                   outcomes[False, False]) >= 10, outcomes


def test_level_walk_and_subset_major_walk_agree_on_every_verdict():
    """600 random pairs (`random_shape_pair`), both domains, matching and
    differing heads: the level walk fails exactly where the walk over
    every subset of BASE under every lex-leader ordering of all base
    terms fails."""
    outcomes = Counter()
    for seed in (11, 12, 13):
        rng = random.Random(seed)
        for _ in range(200):
            text1, text2, domain, n = random_shape_pair(rng)
            q = parse_query(text1, domain=domain)
            q2 = parse_query(text2, domain=domain)
            verdict = engine.n_equivalent(q, q2, n)
            failure = subset_major_scan(engine._plan(q, q2, n))
            assert verdict.equivalent == (failure is None), (
                text1, text2, domain, n)
            outcomes[engine._same_head(q, q2), verdict.equivalent] += 1
    assert min(outcomes.values()) >= 20 and len(outcomes) == 4, outcomes


def test_counterexamples_use_the_fewest_fresh_values():
    """Random pairs with matching heads (`random_shape_pair`): a
    counterexample whose database and group hold m values besides the
    query constants is found at level m, the first that fails, so the
    pair is not m-equivalent and, for m > 0, is (m - 1)-equivalent."""
    refuted = 0
    for seed in (1996, 6, 7, 8):
        rng = random.Random(seed)
        for _ in range(300):
            text1, text2, domain, n = random_shape_pair(rng)
            q = parse_query(text1, domain=domain)
            q2 = parse_query(text2, domain=domain)
            if not engine._same_head(q, q2):
                continue
            verdict = engine.n_equivalent(q, q2, n)
            if verdict.equivalent:
                continue
            refuted += 1
            ce = verdict.counterexample
            constants = {t.value for t in q.constants() | q2.constants()}
            values = {v for _, args in ce.database.facts for v in args}
            m = len((values | set(ce.group)) - constants)
            assert m <= n
            assert not engine.n_equivalent(q, q2, m).equivalent
            assert m == 0 or engine.n_equivalent(q, q2, m - 1).equivalent, (
                text1, text2, domain, n, ce)
    assert refuted > 400


@pytest.mark.parametrize("seed", [9, 10])
def test_equivalent_verdicts_survive_the_oracle(seed):
    """Random pairs with matching heads (`random_shape_pair`, wide): for
    every `equivalent` verdict at N = n, the concrete brute-force search
    finds no separating database over any n values of the default pool.
    n is lowered until that search meets at most 2,048 databases, over
    every pool; some BASEs still hold more than 10 atoms."""
    rng = random.Random(seed)
    draws = equivalent = wide = 0
    while draws < 75:
        text1, text2, domain, n = random_shape_pair(rng, wide=True)
        q = parse_query(text1, domain=domain)
        q2 = parse_query(text2, domain=domain)
        if not engine._same_head(q, q2):
            continue
        draws += 1
        pool = oracle.default_pool(q, q2)
        arities = merged_predicates(q, q2).values()
        while n > 1 and math.comb(len(pool), n) * 2 ** sum(
                n ** arity for arity in arities) > 2048:
            n -= 1
        wide += engine.base_size(q, q2, n) > 10
        if engine.n_equivalent(q, q2, n).status != engine.EQUIVALENT:
            continue
        equivalent += 1
        for values in itertools.combinations(pool, n):
            assert oracle.brute_force_check(q, q2, pool=values) is None, (
                text1, text2, domain, n, values)
    assert equivalent >= 20 and wide >= 5


@pytest.mark.xfail(strict=True, reason="differing heads are compared on "
                   "the canonical instance only, where prod {0, 0} = "
                   "min {0}; {p(2)} separates them")
def test_differing_heads_are_separated_off_the_canonical_instance():
    q = parse_query("q(; prod(Y)) :- p(Y) | p(Y)")
    q2 = parse_query("q(; min(Y)) :- p(Y)")
    assert engine.n_equivalent(q, q2, 1).status == engine.NOT_EQUIVALENT


def test_level_walk_keeps_the_first_failing_unit_at_ten_fresh_variables():
    """The levels place u1..uk in index order, though u10 sorts before u2
    by name.  At N = 9 and N = 10 over the integers the scan finds the
    reference walk's first failing unit, and at N = 10 the counterexample
    holds p(1) and p(2) alone: two values in (0, 3), on u1 and u2 at
    level 2."""
    run = "p(Y), Y > 0, Y < 3, p(Z), Z > 0, Z < 3, Z < Y"
    pairs = [
        (f"q(; max(Y)) :- {run}", f"q(; max(Y)) :- {run}, p(W), W > 3"),
        ("q(; count()) :- p(Y), Y > 0, Y < 3",
         "q(; count()) :- p(Y), Y > 0, Y < 3, p(Z), Z > 0, Z < 3"),
        ("q(; prod(Y)) :- p(Y), Y > 0, Y < 3",
         "q(; prod(Y)) :- p(Y), Y > 0, Y < 3, p(Z), Z > 3"),
    ]
    for text1, text2 in pairs:
        q = parse_query(text1, domain=INTEGERS)
        q2 = parse_query(text2, domain=INTEGERS)
        for n in (9, 10):
            plan = engine._plan(q, q2, n)
            expected = reference_scan(plan)
            assert expected is not None
            assert engine._scan(plan) == expected, (text1, text2, n)
    q = parse_query(pairs[0][0], domain=INTEGERS)
    q2 = parse_query(pairs[0][1], domain=INTEGERS)
    verdict = engine.n_equivalent(q, q2, 10)
    assert verdict.counterexample == engine.Counterexample(
        Database.of([("p", [1]), ("p", [2])]), (), 2, None)


@pytest.fixture
def checked(monkeypatch):
    """The units the scan checks: the arguments of every
    `_pair_counterexample` call in this process."""
    units = []
    pair_counterexample = engine._pair_counterexample

    def counting(*args):
        units.append(args)
        return pair_counterexample(*args)
    monkeypatch.setattr(engine, "_pair_counterexample", counting)
    return units


def test_idle_atoms_keep_verdicts_exact(checked):
    """Pairs whose comparisons leave atoms unread under some orderings:
    the scan skips units holding them, and its verdicts still match the
    concrete brute-force search over a pool with values around every
    constant."""
    pairs = [
        ("q(; max(Y)) :- p(Y), Y = 1", "q(; min(Y)) :- p(Y), Y = 1",
         "rat", 3),
        ("q(; max(Y)) :- p(Y), Y = 1", "q(; min(Y)) :- p(Y), Y = 2",
         "rat", 2),
        ("q(; sum(Y)) :- p(Y), Y > 1", "q(; sum(Y)) :- p(Y), 1 < Y",
         "rat", 3),
        ("q(; max(Y)) :- p(Y), Y < 1", "q(; max(Y)) :- p(Y), Y <= 0",
         INTEGERS, 3),
        ("q(; max(Y)) :- p(Y), Y < 1", "q(; max(Y)) :- p(Y), Y <= 0",
         "rat", 3),
        ("q(; sum(Y)) :- p(Y), 0 < Y, Y < 2", "q(; sum(Y)) :- p(Y), Y = 1",
         INTEGERS, 2),
        ("q(; sum(Y)) :- p(Y), 0 < Y, Y < 2", "q(; sum(Y)) :- p(Y), Y = 1",
         "rat", 2),
        ("q(; count()) :- p(X), X > 0, !b(X)", "q(; count()) :- p(X), X > 0",
         "rat", 2),
        ("q(; count()) :- p(X), X > 0, !b(X) | p(X), X > 0, b(X)",
         "q(; count()) :- p(X), 0 < X", "rat", 2),
        ("q(; count()) :- e(X, X)", "q(; count()) :- e(X, Y), X = Y",
         "rat", 2),
        ("q(; count()) :- e(X, X)", "q(; count()) :- e(X, Y), X <= Y",
         "rat", 2),
    ]
    for text1, text2, domain, n in pairs:
        q = parse_query(text1, domain=domain)
        q2 = parse_query(text2, domain=domain)
        checked.clear()
        verdict = engine.n_equivalent(q, q2, n)
        terms, base = engine.build_base(q, q2, n)
        units = 2 ** len(base) * len(list(filtered_complete_orderings(
            terms, domain, injective_only=True)))
        if verdict.status == engine.EQUIVALENT:
            assert len(checked) < units  # the scan skipped idle units
        constants = sorted(t.value for t in q.constants() | q2.constants())
        pool = {F(v) for v in range(-1, 7)} if domain == INTEGERS else {
            c + F(k, 2) for c in constants or [F(0)] for k in range(-2, 3)}
        if q.predicates().get("e") == 2:
            pool = {F(0), F(1)}
        found = oracle.brute_force_check(q, q2, pool=sorted(pool))
        assert (verdict.status == engine.EQUIVALENT) == (found is None), (
            text1, text2, domain)


def test_units_where_no_prepared_assignment_differs_are_not_checked(
        checked):
    """Both queries compile to the same assignments, so they prepare the
    same ones under every ordering: the walk has no level and no unit is
    checked."""
    reflexive = "q(X; sum(Y)) :- p(X, Y), Y > 3 | p(Y, X), !b(X)"
    pairs = [
        (reflexive, reflexive, 2),
        ("q(; count()) :- p(X)",
         "q(; count()) :- p(X), X != 0 | p(X), X = 0", 4),
    ]
    for text1, text2, n in pairs:
        q, q2 = parse_query(text1), parse_query(text2)
        assert list(engine._walked_levels(engine._plan(q, q2, n))) == []
        assert engine.n_equivalent(q, q2, n).status == engine.EQUIVALENT
    assert checked == []


def test_scan_stops_once_every_ordering_is_dropped(checked, monkeypatch):
    """The queries compile to different assignments, yet under every
    ordering each fresh variable satisfies exactly one of X > 0 and
    X <= 0, so both prepare the same ones and no ordering is kept.  The
    scan drops each ordering as it meets it and leaves each level once
    none is left, at its first subset: four subsets over levels 1 to 4
    (at level 0 both queries compile to X = 0 alone), of the 32 subsets
    of BASE."""
    walked = []
    subsets = engine._level_subsets

    def counting(*args):
        for subset in subsets(*args):
            walked.append(subset)
            yield subset
    for domain in ("rat", INTEGERS):
        q = parse_query("q(; count()) :- p(X), X > 0 | p(X), X <= 0",
                        domain=domain)
        q2 = parse_query("q(; count()) :- p(X)", domain=domain)
        plan = engine._plan(q, q2, 4)
        assert list(engine._walked_levels(plan)) == [1, 2, 3, 4]
        verdict = engine.n_equivalent(q, q2, 4)
        assert verdict.status == engine.EQUIVALENT
        assert checked == []
        walked.clear()
        with monkeypatch.context() as patch:
            patch.setattr(engine, "_level_subsets", counting)
            assert engine._scan(plan) is None
        assert len(walked) == 4


def test_early_hit_prepares_only_the_orderings_it_checks(monkeypatch):
    """The scan's first failure is {p(0)} at level 0, under its one
    ordering, so that ordering alone is prepared, once per query; level
    4 would hold 35 orderings, and no level after 0 is planned."""
    calls = []
    prepare_assignments = engine._prepare_assignments

    def counting(compiled, position):
        calls.append(position)
        return prepare_assignments(compiled, position)
    q = parse_query("q(; sum(Y)) :- p(Y), Y > 2 | p(Y), Y < 0")
    q2 = parse_query("q(; sum(Y)) :- p(Y), Y != 1")
    plan = engine._plan(q, q2, 4)
    states = []
    for k in range(5):
        states = engine._extend(plan, states, k)
    assert len(states) == 35
    monkeypatch.setattr(engine, "_prepare_assignments", counting)
    plan = engine._plan(q, q2, 4)
    monkeypatch.setattr(engine, "_plan", lambda *args: plan)
    verdict = engine.n_equivalent(q, q2, 4)
    assert len(calls) == 2 and calls[0] == calls[1]
    assert len(plan.compiled) == 1
    monkeypatch.undo()
    verify_ce(q, q2, verdict)
    assert verdict == engine.n_equivalent(q, q2, 4)


def test_differential_skip_is_sound():
    """Random pairs with matching heads: on every unit where no prepared
    assignment that one query has more often than the other fires, the
    full check of the unit finds no disagreement."""
    rng = random.Random(97)
    functions = ["count", "parity", "sum", "prod", "avg", "max", "min",
                 "cntd", "top2"]

    def random_disjunct(grouped):
        lits = ["p(Y)", "g(X)"] if grouped else ["p(Y)"]
        if rng.random() < 0.4:
            lits.append(rng.choice(["!b(Y)", "b(Y)"]))
        if rng.random() < 0.6:
            op = rng.choice(["<", "<=", ">", ">=", "!=", "="])
            lits.append(f"Y {op} {rng.choice(('0', '1'))}")
        return ", ".join(lits)

    skipped = partly_skipped = 0
    for func in functions * 6:
        domain = rng.choice([INTEGERS, "rat"])
        agg = func + ("()" if func in ("count", "parity") else "(Y)")
        grouped = rng.random() < 0.3
        head = f"q({'X' if grouped else ''}; {agg}) :- "
        # shared disjuncts make most prepared assignments agree
        shared = [random_disjunct(grouped)
                  for _ in range(rng.randint(1, 2))]
        q = parse_query(head + " | ".join(
            shared + [random_disjunct(grouped)] * rng.randint(0, 1)),
            domain=domain)
        q2 = parse_query(head + " | ".join(
            shared + [random_disjunct(grouped)] * rng.randint(0, 2)),
            domain=domain)
        n = 1 if grouped else rng.randint(1, 2)
        plan = engine._plan(q, q2, n)
        terms, base = plan.terms, plan.base
        compiled1, compiled2 = compile_all(plan, 0), compile_all(plan, 1)
        for ordering in filtered_complete_orderings(terms, domain,
                                                    injective_only=True):
            position = [ordering.position(t) for t in terms]
            prep1 = engine._prepare_assignments(compiled1, position)
            prep2 = engine._prepare_assignments(compiled2, position)
            differing = differing_masks(prep1, prep2)
            for mask in range(2 ** len(base)):
                subset = [atom for i, atom in enumerate(base)
                          if mask >> i & 1]
                if engine._fires(differing, mask):
                    continue
                skipped += 1
                partly_skipped += bool(differing)
                assert engine._pair_counterexample(
                    plan, mask, ordering, prep1, prep2) is None, (
                    str(q), str(q2), str(ordering), subset)
    assert partly_skipped > 0 and skipped > partly_skipped


def dropped_orderings(plan) -> set:
    """`(level, ordering)` of each ordering the scan drops, at each level
    it walks: prepared, it has no masks left to differ on."""
    dropped = set()
    for k in engine._walked_levels(plan):
        states = []
        for level in range(k + 1):
            states = engine._extend(plan, states, level)
        for state in states:
            if not (state.prepared or engine._prepare(plan, state, k))[3]:
                dropped.add((k, state.ordering))
    return dropped


def test_function_aware_skips_keep_every_failing_unit():
    """Random pairs with matching heads over the nine grammar functions,
    the constants 0 and 1 and duplicated disjuncts, and fixed pairs:
    no unit of a level `_walked_levels` skips, and no unit under an
    ordering the scan drops, fails under the reference walk
    (`reference_units`, with the exact-multiset skip).  Both skip units
    that walk checks, under every function but avg.  The fixed pairs:
    over the integers, a variable pinned to 1 between 0 and 2, which
    prod ignores, and one pinned to 2 between 1 and 3, which it does
    not; top2 with a second disjunct that needs Y > 1, whose cubes the
    first's cover with its literal free; and splits on b(Y) and !b(Y),
    which agree on every level, or under each ordering once a
    comparison sets them apart from a third disjunct."""
    rng = random.Random(31)

    def random_disjunct(grouped, constants):
        lits = ["p(Y)", "g(X)"] if grouped else ["p(Y)"]
        if rng.random() < 0.3:
            lits.append(rng.choice(["!b(Y)", "b(Y)"]))
        if rng.random() < 0.25:
            lits += ["p(Z)", rng.choice(["Y < Z", "Z < Y", "Z != 0"])]
        if rng.random() < 0.7:
            op = rng.choice(["<", ">", "!=", "=", "="])
            lits.append(f"Y {op} {rng.choice(constants)}")
        return ", ".join(lits)

    def random_disjuncts(shared, grouped, constants):
        # Y and Z swapped: the same atoms, with the other item
        disjuncts = [d.translate(str.maketrans("YZ", "ZY"))
                     if "Z" in d and rng.random() < 0.3 else d
                     for d in shared]
        disjuncts += [random_disjunct(grouped, constants)
                      for _ in range(rng.randint(0, 1))]
        # a copy of a disjunct adds each of its assignments once more
        return disjuncts + [rng.choice(disjuncts)] * rng.randint(0, 2)

    pairs = []
    for func in FUNCTION_NAMES * 40:
        domain = rng.choice([INTEGERS, "rat"])
        constants = rng.choice([("0",), ("1",), ("0", "1")])
        agg = func + ("()" if func in ("count", "parity") else "(Y)")
        grouped = rng.random() < 0.2
        head = f"q({'X' if grouped else ''}; {agg}) :- "
        shared = [random_disjunct(grouped, constants)
                  for _ in range(rng.randint(1, 2))]
        pairs.append([head + " | ".join(random_disjuncts(
            shared, grouped, constants)) for _ in range(2)] + [
            domain, 1 if grouped else rng.randint(1, 2)])
    split = "p(Y), Y > 0, b(Y) | p(Y), Y > 0, !b(Y)"
    for func in FUNCTION_NAMES:
        agg = func + ("()" if func in ("count", "parity") else "(Y)")
        pairs += [[f"q(; {agg}) :- p(Y)",
                   f"q(; {agg}) :- p(Y), b(Y) | p(Y), !b(Y)", "rat", 2],
                  [f"q(; {agg}) :- p(Y), Y != 0",
                   f"q(; {agg}) :- {split} | p(Y), Y < 0", "rat", 2]]
    for low, high in (("0", "2"), ("1", "3")):
        pairs.append(["q(; prod(Y)) :- p(Y)", "q(; prod(Y)) :- p(Y) | "
                      f"p(Y), Y > {low}, Y < {high}", INTEGERS, 2])
    pairs.append(["q(; top2(Y)) :- p(Y), r(Y)",
                  "q(; top2(Y)) :- p(Y), r(Y) | p(Y), r(Y), Y > 1", "rat", 2])
    levels, units = Counter(), Counter()
    for text1, text2, domain, n in pairs:
        q = parse_query(text1, domain=domain)
        q2 = parse_query(text2, domain=domain)
        func = q.aggregate.function.name
        plan = engine._plan(q, q2, n)
        walked = set(engine._walked_levels(plan))
        dropped = dropped_orderings(plan)
        for k, _, mask, ordering, prep1, prep2 in reference_units(plan):
            if k not in walked:
                levels[func] += 1
            elif (k, ordering) in dropped:
                units[func] += 1
            else:
                continue
            assert engine._pair_counterexample(
                plan, mask, ordering, prep1, prep2) is None, (
                text1, text2, domain, k, str(ordering), mask)
    refined = set(FUNCTION_NAMES) - {"avg"}
    assert set(levels) == set(units) == refined, (levels, units)


def test_the_ordering_drop_per_function(checked):
    """Pairs at N = 2, the verdict and the units checked.  The second
    query splits p(Y) on b(Y) and !b(Y): the ordering drop decides it
    under max (a cube cover, by Shannon expansion on b), count, sum and
    prod (the negated atom's polynomial 1 - b) and, with two more
    copies, parity (mod 2), so no unit is checked; avg walks 10 units.
    Under sum, the constants 1 and 2 as items on one side and three 1s
    on the same atoms on the other agree by the constants' values.  The
    other pairs are refuted: a negated atom narrows a cube, a group of
    zeros or of even size differs from no group, and under sum the
    constant 1 is no neutral item."""
    twice = "p(Y), p(Z), Y = 1, Z = 2"
    cases = [
        ("max(Y)", "p(Y)", "p(Y), b(Y) | p(Y), !b(Y)", True, 0),
        ("max(Y)", "p(Y)", "p(Y), !b(Y)", False, 2),
        ("count()", "p(Y)", "p(Y), b(Y) | p(Y), !b(Y)", True, 0),
        ("parity()", "p(Y)", "p(Y), b(Y) | p(Y), !b(Y) | p(Y) | p(Y)",
         True, 0),
        ("parity()", "p(Y) | p(Y)", "p(Y), b(Y) | p(Y), b(Y)", False, 1),
        ("sum(Y)", "p(Y)", "p(Y), Y != 0", False, 1),
        ("sum(Y)", f"{twice} | p(Y), p(Z), Y = 2, Z = 1",
         f"{twice} | {twice} | {twice}", True, 0),
        ("sum(Y)", "p(Y), Y = 1", "p(Y), Y = 1 | p(Y), Y = 1", False, 1),
        ("sum(Y)", "p(Y)", "p(Y), b(Y) | p(Y), !b(Y)", True, 0),
        ("avg(Y)", "p(Y)", "p(Y), b(Y) | p(Y), !b(Y)", True, 10),
        ("prod(Y)", "p(Y)", "p(Y), b(Y) | p(Y), !b(Y)", True, 0),
    ]
    for agg, body1, body2, equivalent, units in cases:
        q = parse_query(f"q(; {agg}) :- {body1}")
        q2 = parse_query(f"q(; {agg}) :- {body2}")
        checked.clear()
        verdict = engine.n_equivalent(q, q2, 2)
        assert (verdict.equivalent, len(checked)) == (equivalent, units), (
            agg, body1, body2)
        if not equivalent:
            verify_ce(q, q2, verdict)


def test_no_dropped_ordering_has_a_failing_unit():
    """Random pairs with matching heads (`random_shape_pair`, wide, BASE
    of at most 10 atoms): no ordering of a level the scan skips, and no
    ordering it drops at a level it walks, has a failing unit under the
    reference walk (`reference_units`).  That walk checks units of
    skipped levels under every function but avg, and of dropped
    orderings under prod over the integers, where a variable pinned to 1
    adds an item prod ignores."""
    rng = random.Random(1602)
    dropped_units = Counter()
    pairs = 0
    while pairs < 150:
        text1, text2, domain, n = random_shape_pair(rng, wide=True)
        q = parse_query(text1, domain=domain)
        q2 = parse_query(text2, domain=domain)
        if not engine._same_head(q, q2):
            continue
        while n > 1 and engine.base_size(q, q2, n) > 10:
            n -= 1
        if engine.base_size(q, q2, n) > 10:
            continue
        pairs += 1
        plan = engine._plan(q, q2, n)
        walked = set(engine._walked_levels(plan))
        dropped = dropped_orderings(plan)
        for k, _, mask, ordering, prep1, prep2 in reference_units(plan):
            if k not in walked or (k, ordering) in dropped:
                assert engine._pair_counterexample(
                    plan, mask, ordering, prep1, prep2) is None, (
                    text1, text2, domain, n, k, str(ordering), mask)
                dropped_units[q.aggregate.function.name, k in walked] += 1
    assert {func for func, _ in dropped_units} == set(FUNCTION_NAMES) - {
        "avg"} and dropped_units["prod", True], dropped_units


def test_prod_counterexample_beside_a_pinned_integer_slot():
    """At N = 2 the first failure is prod {u1, u1, u1} = prod {u1, u1}
    under 0 < u1 < 3 < u2, at u1 = 2.  The scan checks two units and
    fails on the second, before it meets the same bags under another
    ordering, so this pins the counterexample only: a verdict reused
    across orderings is caught by
    `test_a_verdict_that_needs_a_pinned_value_is_not_reused`."""
    q = parse_query("q(; prod(Y)) :- p(Y), Y < 3, Y != 0"
                    " | p(Y), Y > 0, Y != 3 | p(Y), Y < 3", domain=INTEGERS)
    q2 = parse_query("q(; prod(Y)) :- p(Y), Y != 3"
                     " | p(Y), p(Z), Y != 0, Y > 0, Z < 3 | p(Y), Y < 0, Y < 3",
                     domain=INTEGERS)
    verdict = engine.n_equivalent(q, q2, 2)
    verify_ce(q, q2, verdict)
    assert verdict.counterexample == engine.Counterexample(
        Database(frozenset({("p", (F(2),))})), (), F(8), F(4))


def test_a_verdict_that_needs_a_pinned_value_is_not_reused():
    """Over the integers with the constants 0 and 2, the unit {p(u1)}
    leaves prod {u1} = prod {u1, u1} under 0 < u1 < 2, valid only because
    u1 is pinned to 1, and then the same bags under 2 < u1, where u1 = 3
    fails them.  The ordering drop drops the first ordering, whose
    reduction makes u1 the constant 1, and keeps the second.  Reading u1
    as 1 under the second too, or reusing the first's verdict there,
    would find no failure at N = 1 (and a later database at N = 2)."""
    q = parse_query("q(; prod(Y)) :- p(Y), Y < 2 | p(Y), Y > 2",
                    domain=INTEGERS)
    q2 = parse_query("q(; prod(Y)) :- p(Y), Y < 2 | p(Y), Y > 2"
                     " | p(Y), Y > 0, Y != 2", domain=INTEGERS)
    for n in (1, 2):
        verdict = engine.n_equivalent(q, q2, n)
        verify_ce(q, q2, verdict)
        assert verdict.counterexample == engine.Counterexample(
            Database(frozenset({("p", (F(3),))})), (), F(3), F(9))


@pytest.fixture
def decided(monkeypatch):
    """The identities the scan decides: the argument of every
    `identity.decide` call in this process."""
    identities = []
    decide = identity.decide

    def counting(ident):
        identities.append(ident)
        return decide(ident)
    monkeypatch.setattr(identity, "decide", counting)
    return identities


def test_each_shape_is_checked_once(checked, decided):
    """Units checked and identities decided on four equivalent pairs.
    Under top2, cntd and max each compiled cube of the extra disjunct,
    with a literal for the order it needs (Y > 1 under top2), lies in the
    union of the first query's with the same (key, item), so no level is
    walked: they checked 4,156, 426 and 2,314 units under the
    exact-multiset skip.  The prod pair's extra disjunct needs
    0 < Y < 2, so its compiled cubes hold literals the first query's
    lack and its levels are walked, but under each ordering where it
    holds, Y is pinned to 1 over the integers, which prod ignores, so the
    ordering drop leaves no ordering to walk: it checked 544 units and
    decided 24 identities with a per-ordering memo of valid bags, 408
    without."""
    cases = [
        ("q(; top2(Y)) :- p(Y), r(Y)",
         "q(; top2(Y)) :- p(Y), r(Y) | p(Y), r(Y), Y > 1", "rat", 5, 0, 0),
        ("q(; cntd(Y)) :- p(X, Y)", "q(; cntd(Y)) :- p(X, Y) | p(Y, Y)",
         "rat", 3, 0, 0),
        ("q(X; max(Y)) :- p(X, Y), !r(Y)",
         "q(X; max(Y)) :- p(X, Y), !r(Y) | p(X, Y), p(Y, Y), !r(Y)", "rat",
         3, 0, 0),
        ("q(; prod(Y)) :- p(Y), r(Y)",
         "q(; prod(Y)) :- p(Y), r(Y) | p(Y), r(Y), Y > 0, Y < 2", INTEGERS,
         3, 0, 0),
    ]
    for text1, text2, domain, n, units, decisions in cases:
        checked.clear()
        decided.clear()
        verdict = engine.n_equivalent(parse_query(text1, domain=domain),
                                      parse_query(text2, domain=domain), n)
        assert verdict.status == engine.EQUIVALENT
        assert (len(checked), len(decided)) == (units, decisions)


def test_integer_vs_rational_domain_changes_the_verdict():
    # over the integers Y is squeezed onto {1}, so filtering on Y = 1 is
    # the same query; over the rationals it is not
    q = parse_query("q(; sum(Y)) :- p(Y), 0 < Y, Y < 2", domain=INTEGERS)
    q2 = parse_query("q(; sum(Y)) :- p(Y), Y = 1", domain=INTEGERS)
    assert engine.locally_equivalent(q, q2).status == engine.EQUIVALENT
    qr = parse_query("q(; sum(Y)) :- p(Y), 0 < Y, Y < 2")
    qr2 = parse_query("q(; sum(Y)) :- p(Y), Y = 1")
    verdict = engine.locally_equivalent(qr, qr2)
    verify_ce(qr, qr2, verdict)


def test_mixed_domain_rejected():
    q = parse_query("q(; count()) :- p(X)")
    qz = parse_query("q(; count()) :- p(X)", domain=INTEGERS)
    with pytest.raises(ValueError, match="domain"):
        engine.n_equivalent(q, qz, 1)


def test_engine_agrees_with_brute_force_on_small_pairs():
    rng = random.Random(6)
    pairs = [
        ("q(; count()) :- p(X)", "q(; count()) :- p(X), p(X)"),
        ("q(; max(Y)) :- p(Y)", "q(; max(Y)) :- p(Y), Y > 1 | p(Y)"),
        ("q(; sum(Y)) :- p(Y)", "q(; sum(Y)) :- p(Y), Y != 1 | p(Y), Y = 1"),
        ("q(X; count()) :- e(X, Y)", "q(X; count()) :- e(X, Y), !b(X)"),
        ("q(; min(Y)) :- p(Y) | p(Y), Y < 2", "q(; min(Y)) :- p(Y)"),
    ]
    for text1, text2 in pairs:
        q, q2 = parse_query(text1), parse_query(text2)
        n = min(term_size_pair(q, q2), 2)
        verdict = engine.n_equivalent(q, q2, n)
        if verdict.status == engine.NOT_EQUIVALENT:
            verify_ce(q, q2, verdict)
            pool = sorted(verdict.counterexample.database.carrier()
                          | {t.value for t in q.constants() | q2.constants()})
            while len(pool) < n:
                pool.append((max(pool) if pool else F(0)) + 1)
            assert oracle.brute_force_check(q, q2, pool=pool[:n]) is not None
        else:
            pool = [F(v) for v in range(n)]
            assert oracle.brute_force_check(q, q2, pool=pool) is None


def test_equivalent_verdicts_survive_a_four_constant_pool():
    """A full-equivalence claim for a decomposable function admits no
    counterexample among all concrete databases over a 4-constant pool."""
    pairs = [
        ("q(; count()) :- p(X)", "q(; count()) :- p(Y)"),
        ("q(; sum(Y)) :- p(Y)", "q(; sum(Y)) :- p(Y), Y <= 1 | p(Y), Y > 1"),
        ("q(; max(Y)) :- p(Y)", "q(; max(Y)) :- p(Y) | p(Y), Y > 1"),
        ("q(; parity()) :- p(X) | p(X) | p(X)", "q(; parity()) :- p(X)"),
    ]
    pool = [F(-1), F(0), F(1), F(2)]
    for text1, text2 in pairs:
        q, q2 = parse_query(text1), parse_query(text2)
        assert engine.equivalent(q, q2).status == engine.EQUIVALENT
        assert oracle.brute_force_check(q, q2, pool=pool) is None


def test_randomized_cross_validation_with_brute_force():
    """Random small pairs: engine verdicts survive concrete spot checks
    in both directions (counterexamples re-verify internally; equivalent
    verdicts admit no separating pool of the same size)."""
    rng = random.Random(424242)
    for _ in range(60):
        func = rng.choice(FUNCTION_NAMES)
        domain = rng.choice([INTEGERS, "rat"])
        q = parse_query(random_text(rng, func), domain=domain)
        q2 = parse_query(random_text(rng, func), domain=domain)
        n = min(term_size_pair(q, q2), 2)
        verdict = engine.n_equivalent(q, q2, n)
        if verdict.status == engine.NOT_EQUIVALENT:
            verify_ce(q, q2, verdict)
            assert len(verdict.counterexample.database.carrier()) <= n
        else:
            if domain == INTEGERS:
                pool = sorted(rng.sample(range(-3, 7), n))
            else:
                pool = sorted({F(rng.randint(-8, 12), rng.randint(1, 3))
                               for _ in range(8)})[:n]
                while len(pool) < n:
                    pool.append((pool[-1] if pool else F(0)) + 1)
            assert oracle.brute_force_check(q, q2, pool=pool) is None


# the first failure needs two fresh values, so it lies at level 2
TWO_VALUES = ("q(; count()) :- p(X), p(Y), X < Y",
              "q(; count()) :- p(X), p(Y), X != Y")
TWO_VALUES_CE = engine.Counterexample(
    Database(frozenset({("p", (F(0),)), ("p", (F(1),))})), (), 1, 2)
#: a pair whose first failure needs two fresh values and whose levels 2
#: to 4 hold 64,059 units at N = 4
EDGES = ("q(; count()) :- e(X, Y), X < Y", "q(; count()) :- e(X, Y), X != Y")
# avg of every p value, once and twice: the ordering drop does not decide
# avg, and each assignment of the first query is held twice by the
# second, so at N = 4 it walks every level, under 1 + 2 + 3 + 4 + 5
# orderings
AVG_TWICE = ("q(; avg(Y)) :- p(Y), Y != 1 | p(Y), Y = 1",
             "q(; avg(Y)) :- p(Y) | p(Y)")


def test_a_decision_prepares_each_ordering_once(monkeypatch):
    """`AVG_TWICE` at N = 4 is equivalent, and its decision prepares each
    of the 15 orderings it walks once."""
    prepared = []
    prepare = engine._prepare

    def counting(plan, state, k):
        prepared.append(k)
        return prepare(plan, state, k)
    monkeypatch.setattr(engine, "_prepare", counting)
    q, q2 = map(parse_query, AVG_TWICE)
    assert engine.n_equivalent(q, q2, 4).equivalent
    assert len(prepared) == 15


def test_a_large_walk_finds_its_first_failure_at_level_two():
    """`EDGES` holds 64,059 units past levels 0 and 1 at N = 4 (482 at
    N = 3), and its first failure is {e(1, 0)} at both sizes."""
    q, q2 = map(parse_query, EDGES)
    for n in (3, 4):
        assert engine.n_equivalent(q, q2, n).counterexample == \
            engine.Counterexample(
                Database(frozenset({("e", (F(1), F(0)))})), (), None, 1)


def test_differing_heads_keep_the_same_head_rule():
    """Differing heads walk level N alone: at N = 1 the failure is on
    {b(0), p(0)}, and the counterexamples at N = 1 and N = 2 separate the
    queries."""
    q = parse_query("q(; count()) :- p(X), b(X)")
    q2 = parse_query("q(; max(X)) :- p(X), b(X)")
    verdict = engine.n_equivalent(q, q2, 1)
    assert verdict.counterexample == engine.Counterexample(Database(
        frozenset({("b", (F(0),)), ("p", (F(0),))})), (), 1, F(0))
    verify_ce(q, q2, verdict)
    verify_ce(q, q2, engine.n_equivalent(q, q2, 2))


def test_two_fact_failure_is_found_past_the_head():
    """No unit of levels 0 and 1 fails, so the first failure lies at
    level 2, and it is the same at N = 2, 3 and 4."""
    q, q2 = map(parse_query, TWO_VALUES)
    for n in (2, 3, 4):
        assert engine.n_equivalent(q, q2, n).counterexample == TWO_VALUES_CE


#: modules that no search command loads: the quasilinear route and the
#: pool machinery that went with the worker processes
ROUTE_MODULES = ("aggequiv.quasilinear", "aggequiv.normalize",
                 "aggequiv.constraints", "multiprocessing", "concurrent")


def test_search_commands_leave_the_quasilinear_route_unloaded(tmp_path):
    """Importing `aggequiv.cli` and deciding `nequiv` at one worker or at
    two load none of `ROUTE_MODULES`; a `quasilinear` decision that
    follows loads the route and prints what a fresh process prints."""
    a, b = tmp_path / "a.q", tmp_path / "b.q"
    a.write_text(TWO_VALUES[0] + "\n")
    b.write_text(TWO_VALUES[1] + "\n")
    c, d = tmp_path / "c.q", tmp_path / "d.q"
    c.write_text("q(X; max(Y)) :- p(X, Y)\n")
    d.write_text("q(X; max(Y)) :- p(X, Y), !b(X)\n")
    route = ["quasilinear", str(c), str(d)]
    code = f"""
import sys
def loaded():
    print(sorted(name for name in {ROUTE_MODULES!r}
                 if any(m == name or m.startswith(name + ".")
                        for m in sys.modules)))
import aggequiv.cli
loaded()
argv = ["nequiv", {str(a)!r}, {str(b)!r}, "--n", "2", "--json"]
aggequiv.cli.main(argv)
loaded()
aggequiv.cli.main(argv + ["--workers", "2"])
loaded()
print(aggequiv.cli.main({route!r}))
loaded()
"""
    done = run_fresh(code)
    assert (done.returncode, done.stderr) == (0, "")
    lines = done.stdout.splitlines()
    assert lines[:1] + lines[2:3] + lines[4:5] == ["[]"] * 3
    one, two = (json.loads(line) for line in (lines[1], lines[3]))
    assert one["counterexample"] == {
        "facts": ["p(0).", "p(1)."], "grouping": [], "values": ["1", "2"]}
    assert two["counterexample"] == one["counterexample"]
    assert lines[-1] == str(sorted(ROUTE_MODULES[:3]))
    fresh = run_fresh("import sys; from aggequiv.cli import main; "
                      "sys.exit(main(sys.argv[1:]))", *route)
    assert (fresh.returncode, fresh.stderr) == (1, "")
    assert "\n".join(lines[5:-1]) + "\n" == fresh.stdout + "1\n"


#: `aggequiv.__all__` before the exports were loaded on first use
EXPORTS = [
    "AggregationFunction", "Atom", "Comparison", "CompleteOrdering",
    "Condition", "Const", "Counterexample", "Database", "FUNCTIONS",
    "Homomorphism", "IdentityVerdict", "Monoid", "OrderedIdentity", "Query",
    "Var", "Verdict", "aggregation", "apply", "apply_shifting",
    "bagset_equivalent", "brute_force_check", "build_base",
    "build_decomposition", "constraints", "decide", "engine", "entails",
    "enumerate_complete_orderings", "equivalent", "equivalent_quasilinear",
    "eval_concrete", "extend_database", "find_isomorphism",
    "format_database", "format_query", "identity",
    "inclusion_exclusion_check", "is_quasilinear", "locally_equivalent",
    "model", "n_equivalent", "normalize", "oracle", "orderings",
    "parse_database", "parse_queries", "parse_query", "parsing",
    "quasilinear", "reduce_query", "satisfying_assignment", "term_size",
    "term_size_pair", "verify_decomposition", "witness_pair",
]


def test_every_export_resolves_on_first_use():
    """`import aggequiv` loads no submodule; every name of `__all__`, the
    same list as before, resolves on first use, by attribute and by
    `from aggequiv import *` alike, a submodule's name to the submodule."""
    code = f"""
import sys, types
import aggequiv
print(sorted(m for m in sys.modules if m.startswith("aggequiv.")))
print(aggequiv.__all__ == {EXPORTS!r})
star = {{}}
exec("from aggequiv import *", star)
del star["__builtins__"]
print(sorted(star) == aggequiv.__all__)
for name in aggequiv.__all__:
    value = getattr(aggequiv, name)
    assert star[name] is value, name
    module = sys.modules.get("aggequiv." + name)
    assert value is module or not isinstance(value, types.ModuleType), name
print(set(aggequiv.__all__) <= set(dir(aggequiv)))
try:
    aggequiv.no_such_name
except AttributeError as exc:
    print(exc)
"""
    done = run_fresh(code)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines() == [
        "[]", "True", "True", "True",
        "module 'aggequiv' has no attribute 'no_such_name'"]


def run_fresh(code, *args):
    """Run `code` in a fresh interpreter that imports this checkout's
    package."""
    src = str(Path(engine.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)
