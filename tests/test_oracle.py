import random
from fractions import Fraction

import pytest

from helpers import compile_all

from aggequiv import engine
from aggequiv.aggregation import FUNCTIONS, apply
from aggequiv.model import Database, term_size_pair
from aggequiv.oracle import (
    brute_force_check, build_decomposition, default_pool, eval_concrete,
    extend_database, inclusion_exclusion_check, verify_decomposition,
)
from aggequiv.orderings import (
    assign_tuple, enumerate_complete_orderings, satisfying_assignment,
)
from aggequiv.parsing import parse_query

F = Fraction


def db(*facts):
    return Database.of(facts)


def test_eval_sum():
    q = parse_query("q(; sum(Y)) :- p(Y)")
    assert eval_concrete(q, db(("p", [1]), ("p", [2]))) == \
        frozenset({((), F(3))})


def test_eval_grouped_count():
    q = parse_query("q(X; count()) :- e(X, Y)")
    result = eval_concrete(q, db(("e", [1, 2]), ("e", [1, 3]), ("e", [2, 2])))
    assert result == frozenset({((F(1),), 2), ((F(2),), 1)})


def test_eval_labeled_copies():
    q = parse_query("q(; count()) :- p(X) | p(X)")
    assert eval_concrete(q, db(("p", [0]))) == frozenset({((), 2)})


def test_eval_negation_and_comparisons():
    q = parse_query("q(X; max(Y)) :- e(X, Y), !b(X)")
    result = eval_concrete(q, db(("e", [1, 2]), ("e", [3, 4]), ("b", [1])))
    assert result == frozenset({((F(3),), F(4))})
    q2 = parse_query("q(; count()) :- p(X), X > 1")
    assert eval_concrete(q2, db(("p", [1]), ("p", [2]))) == \
        frozenset({((), 1)})


def test_eval_constant_only_disjunct():
    q = parse_query("q(; count()) :- 1 < 2")
    assert eval_concrete(q, Database(frozenset())) == frozenset({((), 1)})


def test_eval_non_aggregate():
    q = parse_query("q(X) :- p(X), X != 0")
    assert eval_concrete(q, db(("p", [0]), ("p", [1]))) == \
        frozenset({(F(1),)})


def test_brute_force_identical_queries():
    q = parse_query("q(; sum(Y)) :- p(Y)")
    assert brute_force_check(q, q, pool=[0, 1, 2]) is None


def test_brute_force_finds_count_duplicate():
    q = parse_query("q(; count()) :- p(X)")
    q2 = parse_query("q(; count()) :- p(X) | p(X)")
    found = brute_force_check(q, q2, pool=[0])
    assert found == db(("p", [0]))


def test_brute_force_subsumed_max_disjunct():
    q = parse_query("q(; max(Y)) :- p(Y)")
    q2 = parse_query("q(; max(Y)) :- p(Y) | p(Y), Y > 3")
    assert brute_force_check(q, q2, pool=range(6)) is None


def test_brute_force_cap():
    q = parse_query("q(; count()) :- p(X, Y), r(X, Y)")
    with pytest.raises(ValueError, match="cap"):
        brute_force_check(q, q, pool=range(8), cap=2 ** 10)


def test_conflicting_predicate_arities_are_rejected():
    """A predicate read with two arities across the queries has no BASE
    and no database universe; the engine and the oracle both refuse."""
    q = parse_query("q(; count()) :- p(X)")
    q2 = parse_query("q(; count()) :- p(X, Y)")
    with pytest.raises(ValueError, match="predicate p has conflicting"):
        engine.n_equivalent(q, q2, 1)
    with pytest.raises(ValueError, match="predicate p has conflicting"):
        brute_force_check(q, q2, pool=[0])


def test_default_pool_spreads_around_constants():
    q = parse_query("q(; sum(Y)) :- p(Y), Y > 3, Y < 7")
    pool = default_pool(q)
    assert F(3) in pool and F(7) in pool
    assert any(p < 3 for p in pool)
    assert any(3 < p < 7 for p in pool)
    assert any(p > 7 for p in pool)


# ---------------------------------------------------------------------------
# extend_database
# ---------------------------------------------------------------------------

def test_extend_no_negated_atoms():
    q = parse_query("q(; count()) :- p(X)")
    d = db(("p", [1]), ("p", [2]))
    d0 = db(("p", [1]))
    assert extend_database(d0, q, q, d) == d0


def test_extend_adds_instantiated_negated_atom():
    q = parse_query("q(; count()) :- p(X), !b(X)")
    d = db(("p", [1]), ("b", [1]))
    d0 = db(("p", [1]))
    extended = extend_database(d0, q, q, d)
    assert extended == db(("p", [1]), ("b", [1]))


def test_extend_fixpoint_and_containment():
    rng = random.Random(13)
    q = parse_query("q(X; count()) :- p(X, Y), !b(Y) | p(X, X)")
    q2 = parse_query("q(X; count()) :- p(X, Y), !c(X)")
    for _ in range(60):
        facts = set()
        for _ in range(rng.randint(0, 6)):
            facts.add(("p", (F(rng.randint(0, 2)), F(rng.randint(0, 2)))))
        for pred in ("b", "c"):
            for _ in range(rng.randint(0, 2)):
                facts.add((pred, (F(rng.randint(0, 2)),)))
        d = Database(frozenset(facts))
        subset = frozenset(f for f in facts if rng.random() < 0.5)
        d0 = Database(subset)
        extended = extend_database(d0, q, q2, d)
        assert d0.issubset(extended) and extended.issubset(d)
        assert extend_database(extended, q, q2, d) == extended


# ---------------------------------------------------------------------------
# Decompositions
# ---------------------------------------------------------------------------

def test_decomposition_single_instantiated_disjunct():
    q = parse_query("q(X; count()) :- e(X, Y)")
    q2 = parse_query("q(X; count()) :- e(X, Y), X <= Y")
    d = db(("e", [1, 2]))
    family = build_decomposition(d, q, q2, (F(1),))
    assert family == [d]
    assert verify_decomposition(family, d, q, q2, (F(1),))


def test_decomposition_empty_assignments():
    q = parse_query("q(X; count()) :- e(X, Y)")
    d = db(("e", [1, 2]))
    family = build_decomposition(d, q, q, (F(9),))
    assert family == []
    assert verify_decomposition(family, d, q, q, (F(9),))


def test_decomposition_randomized():
    rng = random.Random(4)
    q = parse_query("q(X; sum(Y)) :- e(X, Y), !b(Y) | e(X, Y), Y >= 1")
    q2 = parse_query("q(X; sum(Y)) :- e(X, Y), e(Y, X) | e(X, X), e(X, Y)")
    for _ in range(50):
        facts = set()
        for _ in range(rng.randint(1, 6)):
            facts.add(("e", (F(rng.randint(0, 2)), F(rng.randint(0, 2)))))
        for _ in range(rng.randint(0, 2)):
            facts.add(("b", (F(rng.randint(0, 2)),)))
        d = Database(frozenset(facts))
        group = (F(rng.randint(0, 2)),)
        family = build_decomposition(d, q, q2, group)
        assert all(len(part.carrier()) <= term_size_pair(q, q2)
                   for part in family)
        assert verify_decomposition(family, d, q, q2, group)


# ---------------------------------------------------------------------------
# Inclusion-exclusion
# ---------------------------------------------------------------------------

def _assignment(vals):
    return {f"y{i}": F(v) for i, v in enumerate(vals)}


def test_count_inclusion_exclusion_is_classical():
    a = [{"y0": F(1)}, {"y0": F(2)}]
    b = [{"y0": F(2)}, {"y0": F(3)}]
    assert inclusion_exclusion_check(FUNCTIONS["count"], [a, b], ())
    union = {tuple(sorted(d.items())) for d in a + b}
    inter = {tuple(sorted(d.items())) for d in a} & \
        {tuple(sorted(d.items())) for d in b}
    assert len(union) == len(a) + len(b) - len(inter)


def test_inclusion_exclusion_randomized():
    rng = random.Random(21)
    y_vars = ("y0",)
    for name in ("count", "parity", "sum", "max", "min", "top2", "bot2"):
        func = FUNCTIONS[name]
        for _ in range(100):
            family = []
            for _ in range(rng.randint(1, 4)):
                block = [{"y0": F(rng.randint(-4, 4))}
                         for _ in range(rng.randint(0, 4))]
                family.append(block)
            vars_for = () if func.arity == 0 else y_vars
            assert inclusion_exclusion_check(func, family, vars_for)


def test_inclusion_exclusion_rejects_nondecomposable():
    with pytest.raises(ValueError):
        inclusion_exclusion_check(FUNCTIONS["prod"], [[{"y0": F(1)}]], ("y0",))
    with pytest.raises(ValueError):
        inclusion_exclusion_check(FUNCTIONS["avg"], [[{"y0": F(1)}]], ("y0",))


# ---------------------------------------------------------------------------
# The cross-check between the two independent evaluators
# ---------------------------------------------------------------------------

def test_symbolic_and_concrete_evaluators_agree():
    """The groups the (S, L) scan collects, instantiated under the
    ordering's canonical assignment, are the concrete evaluator's."""
    rng = random.Random(31)
    queries = [
        parse_query("q(X; sum(Y)) :- p(X, Y), Y > 0"),
        parse_query("q(; count()) :- p(X, Y), !b(X) | p(X, X)"),
        parse_query("q(X; max(Y)) :- p(X, Y), X <= Y | p(Y, X), b(Y)"),
        parse_query("q(; cntd(Y)) :- p(Y, Y) | b(Y), Y != 1"),
        parse_query("q(X; sum(Y)) :- p(X, Y), Y > 0 | p(Y, X), !b(X)"),
        parse_query("q(X; sum(Y)) :- p(X, Y), !b(Y), X != Y"),
    ]
    for q in queries:
        plan = engine._plan(q, q, 2)
        terms, base = plan.terms, plan.base
        atom_bit = {atom: 1 << i for i, atom in enumerate(base)}
        compiled = compile_all(plan, 0)
        orderings = [o for o in enumerate_complete_orderings(terms, q.domain)
                     if o.is_injective()]
        for _ in range(25):
            subset = frozenset(a for a in base if rng.random() < 0.5)
            ordering = rng.choice(orderings)
            prepared = engine._prepare_assignments(
                compiled, [ordering.position(t) for t in terms])
            symbolic = engine._collect_groups(
                prepared, sum(atom_bit[atom] for atom in subset))
            delta = satisfying_assignment(ordering)
            concrete = Database(frozenset(
                (pred, assign_tuple(delta, args)) for pred, args in subset))

            def instance(indexes):
                return assign_tuple(delta, tuple(terms[i] for i in indexes))
            expected = {}
            for key, bag in symbolic.items():
                values = [instance(t) for t in bag]
                expected[instance(key)] = apply(q.aggregate.function, values)
            assert dict(eval_concrete(q, concrete)) == expected
