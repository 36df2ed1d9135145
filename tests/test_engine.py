import gc
import importlib.util
import itertools
import json
import multiprocessing
import os
import random
import signal
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import (
    FUNCTION_NAMES, compile_all, filtered_complete_orderings, random_text,
    reference_prepare, reference_scan, subset_major_scan,
)

from aggequiv import engine, identity, oracle
from aggequiv.aggregation import FUNCTIONS
from aggequiv.model import (
    AggregateTerm, Const, Database, INTEGERS, Var, term_size_pair,
)
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
        levels = [engine._compile(plan, plan.programs[0], k)
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
    sequential = engine.n_equivalent(q, q3, 1)
    assert sequential.status == engine.NOT_EQUIVALENT
    assert engine.n_equivalent(q, q3, 1, workers=2) == sequential
    assert engine.equivalent(q, q3).status in (engine.NOT_EQUIVALENT,
                                               engine.UNSUPPORTED)


def test_head_mismatch_counterexamples_are_pinned():
    """Differing heads are compared on the ordering's canonical instance;
    the first disagreement found is fixed, whatever the worker count.  No
    unit stands for another there: min and parity agree on {p(u1)} (at
    u1 = 0) but not on {p(u2)}, whose renaming onto u1 is {p(u1)}."""
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
        for workers in (1, 2):
            verdict = engine.n_equivalent(q, q2, n, workers=workers)
            verify_ce(q, q2, verdict)
            assert verdict.counterexample == engine.Counterexample(
                Database(frozenset(facts)), group, left, right)


def test_early_counterexamples_are_pinned():
    """The first counterexample of pairs with many orderings and an early
    hit, fixed across the lex-leader ordering filter and the idle-atom
    skip, whatever the worker count."""
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
        for workers in (1, 2):
            verdict = engine.n_equivalent(q, q2, n, workers=workers)
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
    for workers in (1, 2):
        verdict = engine.n_equivalent(q, q2, 2, workers=workers)
        verify_ce(q, q2, verdict)
        assert verdict.counterexample == engine.Counterexample(
            Database(frozenset({("e", (F(1), F(2)))})), (), 1, None)


def first_failure(scan, plan, workers):
    """The lowest-index failing unit over every stride of `scan`."""
    hits = [hit for hit in (scan(plan, offset, workers)
                            for offset in range(workers)) if hit]
    return min(hits, key=lambda hit: hit[0], default=None)


_SHAPES = {  # head, positive literals, other literals, compared variables
    "unary": ("q(; {agg}) :- ", ["p(Y)"], ["!b(Y)", "b(Y)"], ["Y"]),
    "binary": ("q(; {agg}) :- ", ["e(X, Y)"],
               ["!e(Y, X)", "e(Y, Y)", "!b(X)", "b(Y)"], ["X", "Y"]),
    "grouped": ("q(X; {agg}) :- ", ["e(X, Y)", "g(X), p(Y)"],
                ["!b(Y)", "b(X)"], ["X", "Y"]),
}


def random_shape_pair(rng):
    """A random pair `(text1, text2, domain, n)` whose BASE at N = n has
    at most 10 atoms: unary, binary or grouped queries sharing some
    disjuncts, with negation and comparisons with constants, matching or
    differing heads, both domains and n <= 3."""
    def query(kind, func, disjuncts):
        agg = func + ("()" if func in ("count", "parity") else "(Y)")
        return _SHAPES[kind][0].format(agg=agg) + " | ".join(disjuncts)

    def disjunct(kind, constants):
        _, positive, extra, variables = _SHAPES[kind]
        lits = [rng.choice(positive)]
        if rng.random() < 0.4:
            lits.append(rng.choice(extra))
        for _ in range(rng.choice((0, 1, 1, 2)) if constants else 0):
            op = rng.choice(["<", "<=", ">", ">=", "!=", "="])
            lits.append(f"{rng.choice(variables)} {op} "
                        f"{rng.choice(constants)}")
        if len(constants) > 1 and rng.random() < 0.4:
            # a run between the outer constants
            lits += [f"Y > {constants[0]}", f"Y < {constants[-1]}"]
        return ", ".join(lits)

    while True:
        kind = rng.choice(list(_SHAPES))
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
        # shared disjuncts keep the first failure late or absent
        shared = [disjunct(kind, constants)
                  for _ in range(rng.randint(1, 2))]

        def extra():
            return rng.choice(shared + [disjunct(kind, constants)])
        text1 = query(kind, func, shared + [extra()] * rng.randint(0, 1))
        text2 = query(kind, func2, shared + [extra()] * rng.randint(0, 2))
        q = parse_query(text1, domain=domain)
        q2 = parse_query(text2, domain=domain)
        n = rng.randint(1, 3)
        while n > 1 and engine.base_size(q, q2, n) > 10:
            n -= 1
        if engine.base_size(q, q2, n) <= 10:
            return text1, text2, domain, n


def test_level_walk_keeps_the_first_failing_unit():
    """Random pairs (`random_shape_pair`): the scan, which plans each
    level when it reaches it, skips levels and keeps a memo, finds the
    same first failing unit (level, index and counterexample) as the
    reference walk over every unit of every level, over one and two
    strides, and a decision on two pool workers reports it too."""
    rng = random.Random(1996)
    outcomes = Counter()
    for _ in range(200):
        text1, text2, domain, n = random_shape_pair(rng)
        q = parse_query(text1, domain=domain)
        q2 = parse_query(text2, domain=domain)
        plan = engine._plan(q, q2, n)
        for workers in (1, 2):
            expected = first_failure(reference_scan, plan, workers)
            assert first_failure(engine._scan, plan, workers) == expected, (
                text1, text2, domain, n, workers)
        verdict = engine.n_equivalent(q, q2, n, workers=2)
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
    """Random pairs with matching heads (`random_shape_pair`): for every
    `equivalent` verdict at N = n, the concrete brute-force search finds
    no separating database over any n values of the default pool."""
    rng = random.Random(seed)
    draws = equivalent = 0
    while draws < 75:
        text1, text2, domain, n = random_shape_pair(rng)
        q = parse_query(text1, domain=domain)
        q2 = parse_query(text2, domain=domain)
        if not engine._same_head(q, q2):
            continue
        draws += 1
        if engine.n_equivalent(q, q2, n).status != engine.EQUIVALENT:
            continue
        equivalent += 1
        for values in itertools.combinations(oracle.default_pool(q, q2), n):
            assert oracle.brute_force_check(q, q2, pool=values) is None, (
                text1, text2, domain, n, values)
    assert equivalent >= 20


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
    reference walk's first failing unit, over one and two strides, and at
    N = 10 the counterexample holds p(1) and p(2) alone: two values in
    (0, 3), on u1 and u2 at level 2."""
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
            for workers in (1, 2):
                expected = first_failure(reference_scan, plan, workers)
                assert expected is not None
                assert first_failure(engine._scan, plan, workers) == \
                    expected, (text1, text2, n, workers)
    q = parse_query(pairs[0][0], domain=INTEGERS)
    q2 = parse_query(pairs[0][1], domain=INTEGERS)
    verdict = engine.n_equivalent(q, q2, 10, workers=2)
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
        checked, monkeypatch):
    """Both queries compile to the same assignments, so they prepare the
    same ones under every ordering: the walk has no level, no unit is
    checked, and a two-worker decision never asks for workers."""
    def no_workers(strides):
        raise AssertionError("workers were asked for")
    monkeypatch.setattr(engine, "_workers", no_workers)
    reflexive = "q(X; sum(Y)) :- p(X, Y), Y > 3 | p(Y, X), !b(X)"
    pairs = [
        (reflexive, reflexive, 2),
        ("q(; count()) :- p(X)",
         "q(; count()) :- p(X), X != 0 | p(X), X = 0", 4),
    ]
    for text1, text2, n in pairs:
        q, q2 = parse_query(text1), parse_query(text2)
        assert list(engine._walked_levels(engine._plan(q, q2, n))) == []
        for workers in (1, 2):
            verdict = engine.n_equivalent(q, q2, n, workers=workers)
            assert verdict.status == engine.EQUIVALENT
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
        for workers in (1, 2):
            verdict = engine.n_equivalent(q, q2, 4, workers=workers)
            assert verdict.status == engine.EQUIVALENT
        assert checked == []
        walked.clear()
        # patched here only, so no worker process is forked with it
        with monkeypatch.context() as patch:
            patch.setattr(engine, "_level_subsets", counting)
            assert engine._scan(plan, 0, 1) is None
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
    assert verdict == engine.n_equivalent(q, q2, 4, workers=2)


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
            differing = engine._differing_masks(prep1, prep2)
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


def test_prod_counterexample_beside_a_pinned_integer_slot():
    """At N = 2 the first failure is prod {u1, u1, u1} = prod {u1, u1}
    under 0 < u1 < 3 < u2, at u1 = 2.  The same bags were valid earlier
    under 0 < u1 < u2 < 3, where u2 pins u1 to 1; a memo shared across
    orderings would take that verdict and report a later database."""
    q = parse_query("q(; prod(Y)) :- p(Y), Y < 3, Y != 0"
                    " | p(Y), Y > 0, Y != 3 | p(Y), Y < 3", domain=INTEGERS)
    q2 = parse_query("q(; prod(Y)) :- p(Y), Y != 3"
                     " | p(Y), p(Z), Y != 0, Y > 0, Z < 3 | p(Y), Y < 0, Y < 3",
                     domain=INTEGERS)
    for workers in (1, 2):
        verdict = engine.n_equivalent(q, q2, 2, workers=workers)
        verify_ce(q, q2, verdict)
        assert verdict.counterexample == engine.Counterexample(
            Database(frozenset({("p", (F(2),))})), (), F(8), F(4))


def test_a_verdict_that_needs_a_pinned_value_is_not_reused():
    """Over the integers with the constants 0 and 2, the unit {p(u1)}
    leaves prod {u1} = prod {u1, u1} under 0 < u1 < 2, valid only because
    u1 is pinned to 1, and then the same bags under 2 < u1, where u1 = 3
    fails them.  A set of valid bags shared across orderings would skip
    the second and find no failure at N = 1 (and a later database at
    N = 2)."""
    q = parse_query("q(; prod(Y)) :- p(Y), Y < 2 | p(Y), Y > 2",
                    domain=INTEGERS)
    q2 = parse_query("q(; prod(Y)) :- p(Y), Y < 2 | p(Y), Y > 2"
                     " | p(Y), Y > 0, Y != 2", domain=INTEGERS)
    for n in (1, 2):
        for workers in (1, 2):
            verdict = engine.n_equivalent(q, q2, n, workers=workers)
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
    """Units checked and identities decided on four equivalent pairs.  A
    walk over every unit the idle and differing skips leave checks 11,108,
    448 and 2,368 units on the first three.  Their valid identities hold
    under every ordering (`identity.holds_everywhere`), so none reaches a
    decider; before that rule they took 258, 184 and 19 decider calls.
    The last pair's valid identities hold only where u1 is pinned to 1,
    between 0 and 2 over the integers, so the decider sees them once per
    ordering: without the per-ordering memo it decides 408."""
    cases = [
        ("q(; top2(Y)) :- p(Y), r(Y)",
         "q(; top2(Y)) :- p(Y), r(Y) | p(Y), r(Y), Y > 1", "rat", 5, 4156,
         0),
        ("q(; cntd(Y)) :- p(X, Y)", "q(; cntd(Y)) :- p(X, Y) | p(Y, Y)",
         "rat", 3, 426, 0),
        ("q(X; max(Y)) :- p(X, Y), !r(Y)",
         "q(X; max(Y)) :- p(X, Y), !r(Y) | p(X, Y), p(Y, Y), !r(Y)", "rat",
         3, 2314, 0),
        ("q(; prod(Y)) :- p(Y), r(Y)",
         "q(; prod(Y)) :- p(Y), r(Y) | p(Y), r(Y), Y > 0, Y < 2", INTEGERS,
         3, 544, 24),
    ]
    for text1, text2, domain, n, units, decisions in cases:
        checked.clear()
        decided.clear()
        verdict = engine.n_equivalent(parse_query(text1, domain=domain),
                                      parse_query(text2, domain=domain), n)
        assert verdict.status == engine.EQUIVALENT
        assert (len(checked), len(decided)) == (units, decisions)


def enumerated_units(plan):
    """Each level's `(subsets, orderings)` as the walk builds them:
    `_level_subsets` counted on the levels it walks (every level with
    matching heads, level n alone with differing ones), `_extend`'s
    orderings on every level."""
    n, states, units = len(plan.terms) - plan.constants, [], []
    for k in range(n + 1):
        states = engine._extend(plan, states, k)
        walked = plan.same_head or k == n
        units.append((sum(1 for _ in engine._level_subsets(plan, k))
                      if walked else 0, len(states)))
    return units


def test_planned_units_match_the_walk_on_every_benchmark_pair():
    """`plan_units` counts each level's subsets and orderings as the walk
    enumerates them, on every pair of the benchmark, at its N (the term
    size for the front doors that pick it), plain queries with count
    adjoined; the 50-atom chain, whose BASE is far too large to
    enumerate, is left out."""
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", Path(__file__).resolve().parents[1] / "bench"
        / "pairs.py")
    pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pairs)
    counted = 0
    for pair in itertools.chain(*pairs.WORKLOADS.values()):
        q, q2 = (parse_query(pair[side], domain=pair["domain"])
                 for side in "ab")
        if q.aggregate is None:
            adjoined = AggregateTerm(FUNCTIONS["count"], ())
            q, q2 = (replace(query, aggregate=adjoined)
                     for query in (q, q2))
        n = pair["n"] if pair["n"] is not None else term_size_pair(q, q2)
        if engine.base_size(q, q2, n) > 16:
            continue
        counted += 1
        assert engine.plan_units(q, q2, n) == enumerated_units(
            engine._plan(q, q2, n)), pair["id"]
    assert counted == sum(map(len, pairs.WORKLOADS.values())) - 1


def test_planned_units_match_the_walk_on_random_pairs():
    """Seeded `random_shape_pair`s, both domains, matching and differing
    heads: `plan_units` equals the walk's own counts on every level."""
    rng = random.Random(12)
    kinds = Counter()
    for _ in range(150):
        text1, text2, domain, n = random_shape_pair(rng)
        q = parse_query(text1, domain=domain)
        q2 = parse_query(text2, domain=domain)
        plan = engine._plan(q, q2, n)
        assert engine.plan_units(q, q2, n) == enumerated_units(plan), (
            text1, text2, domain, n)
        kinds[domain, plan.same_head] += 1
    assert len(kinds) == 4 and min(kinds.values()) >= 10, kinds


def test_planned_units_of_the_reference_pairs():
    """The formula alone, on three pairs too large to enumerate quickly:
    the units of levels 0 to N before any skip."""
    cases = [
        ("q(; top2(Y)) :- p(Y), r(Y)",
         "q(; top2(Y)) :- p(Y), r(Y) | p(Y), r(Y), Y > 1", "rat", 6, 28432),
        ("q(X; max(Y)) :- p(X, Y), !r(Y)",
         "q(X; max(Y)) :- p(X, Y), !r(Y) | p(X, Y), p(Y, Y), !r(Y)", "rat",
         4, 1036537),
        ("q(; max(Y)) :- e(X, Y), X > 0, Y < 3",
         "q(; max(Y)) :- e(X, Y), X > 0, Y < 3 | e(Y, Y), Y < 3", INTEGERS,
         3, 300622768),
    ]
    for text1, text2, domain, n, units in cases:
        plan = engine.plan_units(parse_query(text1, domain=domain),
                                 parse_query(text2, domain=domain), n)
        assert sum(subsets * orderings for subsets, orderings in plan) \
            == units
    # over the integers the room between 0 and 3 holds two of u1..u3
    assert [orderings for _, orderings in plan] == [1, 3, 6, 9]


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


def test_workers_match_sequential():
    q = parse_query("q(; count()) :- p(X), !b(X)")
    q2 = parse_query("q(; count()) :- p(X)")
    sequential = engine.n_equivalent(q, q2, 1)
    parallel = engine.n_equivalent(q, q2, 1, workers=2)
    assert sequential == parallel
    same = engine.n_equivalent(q, q, 1, workers=2)
    assert same.status == engine.EQUIVALENT


def test_workers_must_be_positive():
    q = parse_query("q(; count()) :- p(X)")
    plain = parse_query("q() :- p(X)")
    for workers in (0, -3):
        for decide in (lambda: engine.n_equivalent(q, q, 1, workers=workers),
                       lambda: engine.equivalent(q, q, workers=workers),
                       lambda: engine.locally_equivalent(q, q,
                                                         workers=workers),
                       lambda: engine.bagset_equivalent(plain, plain,
                                                        workers=workers)):
            with pytest.raises(ValueError, match="workers"):
                decide()


def test_verdicts_do_not_depend_on_workers():
    """Seeded random pairs over all nine functions, both domains,
    negation and comparisons, some with differing functions, decided at
    1, 2 and 3 workers: every verdict is the same.  Each worker count
    decides all pairs in a row, so its workers are built once."""
    rng = random.Random(7)
    pairs = []
    for _ in range(60):
        func = rng.choice(FUNCTION_NAMES)
        func2 = func if rng.random() < 0.7 else rng.choice(FUNCTION_NAMES)
        domain = rng.choice([INTEGERS, "rat"])
        q = parse_query(random_text(rng, func), domain=domain)
        q2 = parse_query(random_text(rng, func2), domain=domain)
        pairs.append((q, q2, min(term_size_pair(q, q2), 2)))
    verdicts = {workers: [engine.n_equivalent(q, q2, n, workers=workers)
                          for q, q2, n in pairs]
                for workers in (1, 2, 3)}
    assert verdicts[2] == verdicts[1]
    assert verdicts[3] == verdicts[1]
    assert 0 < sum(v.status == engine.EQUIVALENT for v in verdicts[1]) < 60


@pytest.fixture
def started(monkeypatch):
    """The processes started during the test, recorded as they start.
    The workers of earlier decisions are dropped before the test, so its
    decisions build their own, and after it, so none built under its
    patches outlives it."""
    engine._drop_pool()
    processes = []
    start = multiprocessing.process.BaseProcess.start

    def recording(process):
        processes.append(process)
        start(process)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                        recording)
    yield processes
    engine._drop_pool()


@pytest.fixture
def no_process(monkeypatch):
    """Starting a process fails the test.  The workers of earlier
    decisions are dropped first, so a decision that reaches the workers
    has to start its own."""
    engine._drop_pool()

    def refuse(process):
        raise AssertionError("a worker process was started")
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)


@pytest.fixture
def scans(monkeypatch):
    """The (offset, workers, whether a dispatch hook is passed) of each
    `_scan` the caller runs; a forked worker records its own in its own
    copy of the list."""
    calls = []
    scan = engine._scan

    def recording(plan, offset=0, workers=1, dispatch=None):
        calls.append((offset, workers, dispatch is not None))
        return scan(plan, offset, workers, dispatch)
    monkeypatch.setattr(engine, "_scan", recording)
    return calls


# a worker forked by the engine runs the test's patched engine functions;
# one started from a fresh interpreter (spawn, forkserver) does not
FORKED_WORKERS = multiprocessing.get_all_start_methods()[0] == "fork"


def test_nothing_to_check_starts_no_process(no_process):
    """A decision with no unit to check starts no worker."""
    reflexive = "q(X; sum(Y)) :- p(X, Y), Y > 3 | p(Y, X), !b(X)"
    pairs = [
        (reflexive, reflexive, 2),
        ("q(; count()) :- p(X)",
         "q(; count()) :- p(X), X != 0 | p(X), X = 0", 4),
    ]
    for text1, text2, n in pairs:
        q, q2 = parse_query(text1), parse_query(text2)
        verdict = engine.n_equivalent(q, q2, n, workers=2)
        assert verdict.status == engine.EQUIVALENT


MAX_LT1 = ("q(; max(Y)) :- p(Y), Y < 1", "q(; max(Y)) :- p(Y), Y <= 0")
MAX_LT1_CE = engine.Counterexample(
    Database(frozenset({("p", (F(1, 2),))})), (), F(1, 2), None)
# the first failure needs two fresh values, so it lies past the head (the
# levels of no and one fresh value); its walk past the head is small, so a
# parallel decision reaches the workers only with `_DISPATCH_UNITS` at 0
TWO_VALUES = ("q(; count()) :- p(X), p(Y), X < Y",
              "q(; count()) :- p(X), p(Y), X != Y")
TWO_VALUES_CE = engine.Counterexample(
    Database(frozenset({("p", (F(0),)), ("p", (F(1),))})), (), 1, 2)


def test_one_fact_failure_starts_no_process(no_process, monkeypatch):
    """The first failure has one fact and one fresh value, so the caller
    finds it in the head and a parallel decision starts no worker; nor
    does a failure with one fresh value and two facts."""
    monkeypatch.setattr(engine, "_usable_cpus", lambda: 3)
    q, q2 = map(parse_query, MAX_LT1)
    for workers in (2, 3):
        verdict = engine.n_equivalent(q, q2, 5, workers=workers)
        assert verdict.counterexample == MAX_LT1_CE
    q, q2 = parse_query("q(; count()) :- p(X), !b(X)"), parse_query(
        "q(; count()) :- p(X)")
    assert engine.n_equivalent(q, q2, 4, workers=2).counterexample == \
        engine.Counterexample(Database(frozenset(
            {("b", (F(0),)), ("p", (F(0),))})), (), None, 1)


def test_a_failure_in_the_head_never_waits_for_the_workers(no_process,
                                                           monkeypatch):
    """The workers' lock is held elsewhere, yet a two-worker decision
    whose first failure lies in the head returns: the head is walked
    without the workers, so it takes no lock and starts no process."""
    monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)
    q, q2 = map(parse_query, MAX_LT1)
    verdicts = []
    decision = threading.Thread(target=lambda: verdicts.append(
        engine.n_equivalent(q, q2, 5, workers=2)), daemon=True)
    with engine._pool_lock:
        decision.start()
        decision.join(timeout=60)
        waiting = decision.is_alive()
    decision.join(timeout=60)
    assert not waiting
    assert [verdict.counterexample for verdict in verdicts] == [MAX_LT1_CE]


PROD_ONE = ("q(; prod(Y)) :- p(Y)", "q(; prod(Y)) :- p(Y) | p(Y), Y = 1")


def test_the_caller_prepares_each_head_ordering_once(started, monkeypatch):
    """A two-worker decision that reaches the workers walks the head and
    its own stride of the later levels in one pass, so the caller
    prepares as many orderings as a one-worker decision does (15), none
    of the head's twice."""
    monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(engine, "_DISPATCH_UNITS", 0)
    prepared = []
    prepare = engine._prepare

    def counting(plan, state, k):
        prepared.append(k)
        return prepare(plan, state, k)
    monkeypatch.setattr(engine, "_prepare", counting)
    q, q2 = map(parse_query, PROD_ONE)
    counts, verdicts = [], []
    for workers in (1, 2):
        prepared.clear()
        verdicts.append(engine.n_equivalent(q, q2, 4, workers=workers))
        counts.append(len(prepared))
    assert counts == [15, 15]
    assert len(started) == 1
    assert verdicts[0] == verdicts[1] and verdicts[0].equivalent


def test_a_small_walk_past_the_head_stays_in_the_caller():
    """`prod_one.n4` plans 24 units past the head, under
    `_DISPATCH_UNITS`, so at two workers on two usable CPUs the caller
    walks it all: it loads no `multiprocessing`, builds no workers, never
    takes their lock, and decides as one worker does."""
    code = f"""
import sys
from aggequiv import engine
from aggequiv.parsing import parse_query
class Refused:
    def acquire(self, *args):
        raise AssertionError("the workers' lock was taken")
    __enter__ = acquire
engine._pool_lock = Refused()
engine._usable_cpus = lambda: 2
q, q2 = map(parse_query, {PROD_ONE!r})
planned = engine.plan_units(q, q2, 4)[engine._HEAD_LEVELS:]
two = engine.n_equivalent(q, q2, 4, workers=2)
print(sum(s * o for s, o in planned) < engine._DISPATCH_UNITS,
      two == engine.n_equivalent(q, q2, 4), "multiprocessing" in sys.modules,
      engine._pool)
"""
    done = run_fresh(code)
    assert (done.returncode, done.stdout, done.stderr) == (
        0, "True True False []\n", "")


#: a pair whose first failure needs two fresh values and whose walk past
#: the head plans 64,059 units at N = 4 (482 at N = 3)
EDGES = ("q(; count()) :- e(X, Y), X < Y", "q(; count()) :- e(X, Y), X != Y")


def test_a_large_walk_past_the_head_reaches_the_workers(started,
                                                        monkeypatch):
    """At N = 4 the walk past the head plans at least `_DISPATCH_UNITS`
    units, so a two-worker decision asks for its workers once and
    reports the one-worker counterexample; at N = 3 it plans fewer and
    asks for none."""
    monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)
    asked = []
    workers_of = engine._workers

    def recording(strides):
        asked.append(strides)
        return workers_of(strides)
    monkeypatch.setattr(engine, "_workers", recording)
    q, q2 = map(parse_query, EDGES)
    for n, dispatched in ((4, [2]), (3, [])):
        planned = engine.plan_units(q, q2, n)[engine._HEAD_LEVELS:]
        assert (sum(subsets * orderings for subsets, orderings in planned)
                >= engine._DISPATCH_UNITS) == bool(dispatched)
        asked.clear()
        verdict = engine.n_equivalent(q, q2, n, workers=2)
        assert asked == dispatched
        assert verdict == engine.n_equivalent(q, q2, n)
        assert verdict.counterexample == engine.Counterexample(
            Database(frozenset({("e", (F(1), F(0)))})), (), None, 1)
    assert len(started) == 1


def test_one_usable_cpu_scans_in_process(no_process, scans, monkeypatch):
    """With one usable CPU a parallel decision runs one stride: the
    caller scans every level itself, head included, and starts no
    process."""
    monkeypatch.setattr(engine, "_usable_cpus", lambda: 1)
    q, q2 = map(parse_query, TWO_VALUES)
    for workers in (2, 10 ** 6):
        scans.clear()
        verdict = engine.n_equivalent(q, q2, 4, workers=workers)
        assert scans == [(0, 1, False)]
        assert verdict.counterexample == TWO_VALUES_CE


def test_differing_heads_keep_the_same_head_rule(started, monkeypatch):
    """Differing heads walk level N alone.  With two workers the caller
    walks levels 0 and 1, so at N = 1 it finds the failure on {b(0),
    p(0)} itself and starts no process, and at N = 2 level 2 is split
    between the caller and one worker; either way the counterexample is
    the one-worker one."""
    monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(engine, "_DISPATCH_UNITS", 0)
    q = parse_query("q(; count()) :- p(X), b(X)")
    q2 = parse_query("q(; max(X)) :- p(X), b(X)")
    verdict = engine.n_equivalent(q, q2, 1, workers=2)
    assert started == []
    assert verdict.counterexample == engine.Counterexample(Database(
        frozenset({("b", (F(0),)), ("p", (F(0),))})), (), 1, F(0))
    assert verdict == engine.n_equivalent(q, q2, 1)
    verdict = engine.n_equivalent(q, q2, 2, workers=2)
    assert len(started) == 1
    assert verdict == engine.n_equivalent(q, q2, 2)


def test_workers_beyond_the_usable_cpus_start_no_more_processes(
        started, scans, monkeypatch):
    """A decision asking for a million workers on three usable CPUs runs
    three strides: the caller scans stride 0, the head whole and its
    share of the levels after it, in one walk that dispatches the
    others, and two processes, no more, run strides 1 and 2.  It
    decides as one worker does."""
    monkeypatch.setattr(engine, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(engine, "_DISPATCH_UNITS", 0)
    q, q2 = map(parse_query, TWO_VALUES)
    verdict = engine.n_equivalent(q, q2, 3, workers=10 ** 6)
    assert scans == [(0, 3, True)]
    assert len(started) == 2
    assert verdict.counterexample == TWO_VALUES_CE
    assert verdict == engine.n_equivalent(q, q2, 3)


def test_two_fact_failure_is_found_in_the_pool(monkeypatch):
    """No unit of the head fails, so the strides after the head run in
    the caller and the workers and report the one-worker counterexample.
    Three CPUs are usable, whatever the host has, so three workers run
    three strides."""
    monkeypatch.setattr(engine, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(engine, "_DISPATCH_UNITS", 0)
    asked = []
    workers_of = engine._workers

    def recording(strides):
        asked.append(strides)
        return workers_of(strides)
    monkeypatch.setattr(engine, "_workers", recording)
    q, q2 = map(parse_query, TWO_VALUES)
    for workers in (2, 3):
        for n in (2, 4):
            assert engine.n_equivalent(q, q2, n).counterexample \
                == TWO_VALUES_CE
            asked.clear()
            verdict = engine.n_equivalent(q, q2, n, workers=workers)
            assert verdict.counterexample == TWO_VALUES_CE
            assert asked == [workers]


def test_broken_pool_is_replaced(started, monkeypatch):
    """Workers with a dead one among them are dropped, the dead one
    joined, and the decision runs on fresh ones."""
    monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(engine, "_DISPATCH_UNITS", 0)
    q, q2 = map(parse_query, TWO_VALUES)
    engine._workers(2)
    (dead, _), = engine._pool
    dead.kill()
    dead.join(timeout=60)
    assert dead.exitcode is not None
    verdict = engine.n_equivalent(q, q2, 4, workers=2)
    assert verdict == engine.n_equivalent(q, q2, 4)
    assert verdict.counterexample == TWO_VALUES_CE
    (fresh, _), = engine._pool
    assert started == [dead, fresh] and fresh.is_alive()


@pytest.mark.skipif(not FORKED_WORKERS, reason="needs forked workers")
def test_workers_that_die_twice_raise_a_runtime_error(started, monkeypatch):
    """A worker that dies mid-job is replaced once; when the fresh one
    dies too the decision raises `BrokenWorkers`, a RuntimeError (the CLI
    reports it as an internal error), and no worker is left."""
    monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(engine, "_DISPATCH_UNITS", 0)
    scan = engine._scan

    def dying(plan, offset=0, workers=1, dispatch=None):
        if offset:
            os._exit(1)
        return scan(plan, offset, workers, dispatch)
    monkeypatch.setattr(engine, "_scan", dying)
    q, q2 = map(parse_query, TWO_VALUES)
    with pytest.raises(engine.BrokenWorkers) as raised:
        engine.n_equivalent(q, q2, 4, workers=2)
    assert isinstance(raised.value, RuntimeError)
    assert len(started) == 2
    assert engine._pool == [] and multiprocessing.active_children() == []


@pytest.mark.skipif(not FORKED_WORKERS, reason="needs forked workers")
def test_a_worker_exception_is_raised_in_the_caller(started, monkeypatch):
    """An exception in a worker's stride comes back with its own type
    and is raised by the decision, never read as a verdict; the worker
    replied, so it is kept."""
    monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(engine, "_DISPATCH_UNITS", 0)
    scan = engine._scan

    def failing(plan, offset=0, workers=1, dispatch=None):
        if offset:
            raise LookupError(f"stride {offset} of {workers}")
        return scan(plan, offset, workers, dispatch)
    monkeypatch.setattr(engine, "_scan", failing)
    q, q2 = map(parse_query, TWO_VALUES)
    for _ in range(2):
        with pytest.raises(LookupError, match="stride 1 of 2"):
            engine.n_equivalent(q, q2, 4, workers=2)
    assert len(started) == 1 and started[0].is_alive()


def test_dropped_workers_leave_no_process(started, monkeypatch):
    """Dropping the workers sends each a stop and joins it: each exits
    cleanly, no child process is left and no pipe is leaked (a leak
    warns, and a warning fails the test run)."""
    monkeypatch.setattr(engine, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(engine, "_DISPATCH_UNITS", 0)
    q, q2 = map(parse_query, TWO_VALUES)
    verdict = engine.n_equivalent(q, q2, 4, workers=3)
    assert verdict.counterexample == TWO_VALUES_CE
    assert len(started) == 2
    assert sorted(multiprocessing.active_children(), key=id) == \
        sorted(started, key=id)
    engine._drop_pool()
    assert multiprocessing.active_children() == []
    assert [process.exitcode for process in started] == [0, 0]
    started.clear()
    gc.collect()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_builds_its_own_pool(monkeypatch):
    """A child forked while the parent holds workers cannot use the
    parent's; it builds its own and decides the same, and the parent's
    workers are left to the parent."""
    monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(engine, "_DISPATCH_UNITS", 0)
    q, q2 = map(parse_query, TWO_VALUES)
    assert engine.n_equivalent(q, q2, 4, workers=2).counterexample \
        == TWO_VALUES_CE
    pool = engine._pool
    pid = os.fork()
    if pid == 0:  # the child never returns into the test runner
        code = 1
        try:
            verdict = engine.n_equivalent(q, q2, 4, workers=2)
            own = engine._pool and engine._pool is not pool
            engine._drop_pool()
            code = 0 if own and verdict.counterexample == TWO_VALUES_CE else 3
        finally:
            os._exit(code)
    deadline = time.monotonic() + 120
    while (status := os.waitpid(pid, os.WNOHANG))[0] == 0:
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child did not finish")
        time.sleep(0.02)
    assert os.waitstatus_to_exitcode(status[1]) == 0
    assert engine._pool is pool
    assert engine.n_equivalent(q, q2, 4, workers=2).counterexample \
        == TWO_VALUES_CE


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_exits_quietly():
    """A child forked after a two-worker decision exits through
    `sys.exit` with status 0 and prints nothing: multiprocessing's exit
    handler in the child does not try to join the parent's workers, and
    the parent still decides with them afterwards."""
    code = f"""
import os, sys
from fractions import Fraction as F
from aggequiv import engine
from aggequiv.model import Database
from aggequiv.parsing import parse_query
engine._usable_cpus = lambda: 2
q, q2 = map(parse_query, {TWO_VALUES!r})
expected = engine.Counterexample(
    Database(frozenset({{("p", (F(0),)), ("p", (F(1),))}})), (), 1, 2)
assert engine.n_equivalent(q, q2, 4, workers=2).counterexample == expected
pid = os.fork()
if pid == 0:
    sys.exit(0)
_, status = os.waitpid(pid, 0)
print(os.waitstatus_to_exitcode(status),
      engine.n_equivalent(q, q2, 4, workers=2).counterexample == expected)
"""
    done = run_fresh(code)
    assert (done.returncode, done.stdout, done.stderr) == (0, "0 True\n", "")


def test_parallel_decision_under_spawn():
    """Workers started from a fresh interpreter (spawn, and forkserver
    where there is one) get everything a stride needs from its job."""
    methods = [m for m in ("spawn", "forkserver")
               if m in multiprocessing.get_all_start_methods()]
    code = f"""
import multiprocessing, sys
multiprocessing.set_start_method(sys.argv[1])
from fractions import Fraction as F
from aggequiv import engine
from aggequiv.model import Database
from aggequiv.parsing import parse_query
engine._usable_cpus = lambda: 2
engine._DISPATCH_UNITS = 0
q, q2 = map(parse_query, {TWO_VALUES!r})
verdict = engine.n_equivalent(q, q2, 4, workers=2)
print(verdict.counterexample == engine.Counterexample(
    Database(frozenset({{("p", (F(0),)), ("p", (F(1),))}})), (), 1, 2),
    len(multiprocessing.active_children()))
"""
    for method in methods:
        done = run_fresh(code, method)
        assert (done.returncode, done.stdout, done.stderr) == (
            0, "True 1\n", ""), method


def test_start_up_leaves_the_pool_machinery_unloaded(tmp_path):
    """Importing the package and deciding with one worker load neither
    `concurrent` nor `multiprocessing`; a two-worker decision in the
    same interpreter loads `multiprocessing` alone and starts a worker.
    At exit the worker is stopped: the interpreter exits 0, prints
    nothing after its last line and nothing to stderr, and leaves no
    process behind."""
    a, b = tmp_path / "a.q", tmp_path / "b.q"
    a.write_text(TWO_VALUES[0] + "\n")
    b.write_text(TWO_VALUES[1] + "\n")
    code = f"""
import sys
def loaded():
    return sorted({{name.split(".")[0] for name in sys.modules}}
                  & {{"concurrent", "multiprocessing"}})
import aggequiv
print(loaded())
from aggequiv import cli, engine
print(loaded())
engine._usable_cpus = lambda: 2
engine._DISPATCH_UNITS = 0
argv = ["nequiv", {str(a)!r}, {str(b)!r}, "--n", "2", "--json"]
cli.main(argv)
print(loaded())
cli.main(argv + ["--workers", "2"])
print(loaded())
import multiprocessing
print([process.pid for process in multiprocessing.active_children()])
"""
    done = run_fresh(code)
    assert (done.returncode, done.stderr) == (0, "")
    lines = done.stdout.splitlines()
    assert lines[:2] == ["[]", "[]"]
    assert lines[3] == "[]"
    assert lines[5] == "['multiprocessing']"
    one, two = (json.loads(line) for line in (lines[2], lines[4]))
    assert one["counterexample"] == {
        "facts": ["p(0).", "p(1)."], "grouping": [], "values": ["1", "2"]}
    assert two["counterexample"] == one["counterexample"]
    pids = json.loads(lines[6])
    assert len(lines) == 7 and len(pids) == 1
    for pid in pids:  # joined by the interpreter before it exited
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def test_workers_of_a_caller_that_dies_leave_quietly():
    """A caller that dies without stopping its workers (here by
    `os._exit`) leaves no process behind: each worker reads end of file
    and exits without a word.  The workers hold the interpreter's stdout
    and stderr until they exit, so the run returns only once every one
    has exited, and a worker left waiting would time it out."""
    code = f"""
import os
from aggequiv import engine
from aggequiv.parsing import parse_query
engine._usable_cpus = lambda: 3
engine._DISPATCH_UNITS = 0
q, q2 = map(parse_query, {TWO_VALUES!r})
engine.n_equivalent(q, q2, 4, workers=3)
print([process.pid for process, _ in engine._pool], flush=True)
os._exit(0)
"""
    done = run_fresh(code)
    assert (done.returncode, done.stderr) == (0, "")
    assert len(json.loads(done.stdout)) == 2


def run_fresh(code, *args):
    """Run `code` in a fresh interpreter that imports this checkout's
    package."""
    src = str(Path(engine.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)
