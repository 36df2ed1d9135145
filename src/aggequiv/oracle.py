"""Ground-truth concrete semantics and small-model search.

This evaluator works directly on concrete databases with exact rational
values and shares no evaluation code with the symbolic engine; the two
are cross-checked against each other in the test suite.  It also houses
the database-extension fixpoint, decomposition construction and
verification, and the inclusion-exclusion identity check that back the
reduction of equivalence to local equivalence.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, Optional

from .aggregation import AggregationFunction, apply
from .model import (
    Condition, Database, Query, is_const, merged_predicates, term_size_pair,
    term_sort_key,
)


def _value(assignment: dict, term) -> Fraction:
    return term.value if is_const(term) else assignment[term]


def _satisfies(cond: Condition, assignment: dict, db: Database) -> bool:
    for atom in cond.atoms:
        fact = (atom.predicate,
                tuple(_value(assignment, t) for t in atom.args))
        if atom.positive != (fact in db):
            return False
    return all(c.holds(_value(assignment, c.lhs), _value(assignment, c.rhs))
               for c in cond.comparisons)


def _condition_assignments(cond: Condition, db: Database):
    """All assignments of the disjunct's variables into the carrier that
    satisfy it.  Safety makes the carrier sufficient: every variable is
    bound through a positive atom or an equality chain into one."""
    variables = sorted(cond.variables(), key=term_sort_key)
    carrier = sorted(db.carrier())
    for values in itertools.product(carrier, repeat=len(variables)):
        assignment = dict(zip(variables, values))
        if _satisfies(cond, assignment, db):
            yield assignment


def group_assignments(q: Query, db: Database, group: tuple) -> set:
    """The group of `group`: the satisfying assignments whose grouping
    tuple instantiates to it, each as `(disjunct index, sorted tuple of
    (variable, value) pairs)`."""
    out = set()
    for idx, cond in enumerate(q.disjuncts):
        for assignment in _condition_assignments(cond, db):
            if tuple(_value(assignment, t) for t in q.grouping) == group:
                out.add((idx, tuple(sorted(assignment.items()))))
    return out


def eval_concrete(q: Query, db: Database) -> frozenset:
    """Evaluate a query: a set of (grouping tuple, aggregate value) pairs,
    or a plain set of tuples for non-aggregate queries."""
    groups: dict = {}
    for idx, cond in enumerate(q.disjuncts):
        for assignment in _condition_assignments(cond, db):
            key = tuple(_value(assignment, t) for t in q.grouping)
            if q.aggregate is None:
                groups.setdefault(key, None)
                continue
            bag = groups.setdefault(key, [])
            bag.append(tuple(_value(assignment, t)
                             for t in q.aggregate.args))
    if q.aggregate is None:
        return frozenset(groups)
    func = q.aggregate.function
    return frozenset((key, apply(func, bag)) for key, bag in groups.items())


# ---------------------------------------------------------------------------
# Exhaustive small-model search
# ---------------------------------------------------------------------------

def default_pool(q: Query, q2: Optional[Query] = None) -> list:
    """Query constants plus a few fresh values spread below, between and
    above them, so every relative ordering is realizable."""
    constants = {t.value for t in q.constants()}
    if q2 is not None:
        constants |= {t.value for t in q2.constants()}
    consts = sorted(constants)
    if not consts:
        return [Fraction(0), Fraction(1), Fraction(2)]
    extras = [consts[0] - 1]
    for a, b in zip(consts, consts[1:]):
        if q.domain == "int":
            if b - a >= 2:
                extras.append(a + 1)
        else:
            extras.append((a + b) / 2)
    extras.append(consts[-1] + 1)
    extras.append(consts[-1] + 2)
    return sorted(set(consts) | set(extras))


def brute_force_check(q: Query, q2: Query, pool: Optional[Iterable] = None,
                      cap: int = 2 ** 20) -> Optional[Database]:
    """First database over the pool on which the two queries disagree.

    Enumerates every database whose facts combine the queries' predicates
    with pool constants, smallest first.  Raises when the candidate count
    exceeds `cap`.
    """
    values = sorted(Fraction(v) for v in (pool if pool is not None
                                          else default_pool(q, q2)))
    predicates = merged_predicates(q, q2)
    universe = [(pred, combo)
                for pred in sorted(predicates)
                for combo in itertools.product(values,
                                               repeat=predicates[pred])]
    if 2 ** len(universe) > cap:
        raise ValueError(
            f"database enumeration cap exceeded: 2^{len(universe)} candidates")
    for size in range(len(universe) + 1):
        for subset in itertools.combinations(universe, size):
            db = Database(frozenset(subset))
            if eval_concrete(q, db) != eval_concrete(q2, db):
                return db
    return None


# ---------------------------------------------------------------------------
# Database extension and decompositions
# ---------------------------------------------------------------------------

def extend_database(d0: Database, q: Query, q2: Query,
                    d: Database) -> Database:
    """Close `d0` under the negated atoms of both queries inside `d`.

    Repeatedly: while some assignment satisfies a disjunct over the
    current database but one of its negated atoms is instantiated inside
    `d`, add those instantiated atoms.  The scan order over disjuncts and
    assignments is fixed ascending, making the (otherwise ambiguous)
    result deterministic.  The output always stays inside `d`.
    """
    if not d0.issubset(d):
        raise ValueError("the database to extend must be a subset of d")
    current = set(d0.facts)
    while True:
        changed = False
        for query in (q, q2):
            additions = _first_extension(query, Database(frozenset(current)), d)
            if additions:
                current |= additions
                changed = True
        if not changed:
            return Database(frozenset(current))


def _first_extension(query: Query, current: Database,
                     d: Database) -> Optional[set]:
    for cond in query.disjuncts:
        for assignment in _condition_assignments(cond, current):
            additions = set()
            for atom in cond.negated_atoms():
                fact = (atom.predicate,
                        tuple(_value(assignment, t) for t in atom.args))
                if fact in d:
                    additions.add(fact)
            if additions:
                return additions
    return None


def build_decomposition(d: Database, q: Query, q2: Query,
                        group: tuple) -> list:
    """Closed sub-databases built from each satisfying assignment of the
    group, for both queries."""
    group = tuple(Fraction(v) for v in group)
    out = []
    seen = set()
    for query in (q, q2):
        for idx, assignment in sorted(group_assignments(query, d, group)):
            mapping = dict(assignment)
            base = Database(frozenset(
                (a.predicate, tuple(_value(mapping, t) for t in a.args))
                for a in query.disjuncts[idx].positive_atoms()))
            closed = extend_database(base, q, q2, d)
            if closed.facts not in seen:
                seen.add(closed.facts)
                out.append(closed)
    return out


def verify_decomposition(family: list, d: Database, q: Query, q2: Query,
                         group: tuple) -> bool:
    """Check the three defining properties of a decomposition by direct
    enumeration: small carriers, assignment-union equality, and
    intersection commutation over every subfamily."""
    group = tuple(Fraction(v) for v in group)
    bound = term_size_pair(q, q2)
    if any(len(db.carrier()) > bound for db in family):
        return False
    for query in (q, q2):
        over_d = group_assignments(query, d, group)
        per_db = [group_assignments(query, db, group) for db in family]
        union = set()
        for assignments in per_db:
            union |= assignments
        if union != over_d:
            return False
        for r in range(1, len(family) + 1):
            for sub in itertools.combinations(range(len(family)), r):
                inter_assignments = set(per_db[sub[0]])
                inter_db = family[sub[0]]
                for i in sub[1:]:
                    inter_assignments &= per_db[i]
                    inter_db = inter_db & family[i]
                if inter_assignments != group_assignments(query, inter_db,
                                                          group):
                    return False
    return True


# ---------------------------------------------------------------------------
# Decomposition principles for the aggregation functions themselves
# ---------------------------------------------------------------------------

def inclusion_exclusion_check(func: AggregationFunction, family: list,
                              y_vars: tuple) -> bool:
    """Evaluate both sides of the decomposition identity for a union of
    assignment sets and compare them, exactly.

    Idempotent functions: the aggregate of the union is the monoid sum of
    the per-set aggregates.  Group functions: the classical alternating
    inclusion-exclusion sum over all intersections.  Empty intersections
    contribute the monoid zero.
    """
    if not func.decomposable:
        raise ValueError(f"{func.name} is not decomposable")
    sets = [frozenset(tuple(sorted(a.items())) for a in block)
            for block in family]
    union = frozenset().union(*sets) if sets else frozenset()
    lhs = _fold_values(func, union, y_vars)
    monoid = func.monoid
    if monoid.idempotent:
        rhs = monoid.fold(_fold_values(func, block, y_vars)
                          for block in sets)
        return lhs == rhs
    acc = monoid.zero
    for r in range(1, len(sets) + 1):
        for combo in itertools.combinations(range(len(sets)), r):
            inter = sets[combo[0]]
            for i in combo[1:]:
                inter = inter & sets[i]
            term = _fold_values(func, inter, y_vars)
            if r % 2 == 1:
                acc = monoid.plus(acc, term)
            else:
                acc = monoid.plus(acc, monoid.inverse(term))
    return lhs == acc


def _fold_values(func: AggregationFunction, frozen_assignments, y_vars):
    bag = [tuple(dict(items)[y] for y in y_vars)
           for items in frozen_assignments]
    return func.monoid.fold(func.tuple_map(t) for t in bag)
