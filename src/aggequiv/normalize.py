"""Query reduction: drop unsatisfiable disjuncts, eliminate forced equalities.

A disjunct whose comparisons cannot be satisfied over the query's domain
contributes nothing and is removed.  Within a surviving disjunct, a
variable that every satisfying assignment makes equal to another term is
replaced by that term; over the integers this includes variables squeezed
onto a single value (``0 < X, X < 2`` forces ``X = 1``), which introduces
constants.  For conjunctive queries the substitution extends into the
head, as reduced heads may contain constants.  For disjunctive queries
only non-head variables are substituted, since different disjuncts may
force different values.

Every question about a disjunct's comparisons goes to one
`constraints.ComparisonSystem` per disjunct, which picks its own method.
"""

from __future__ import annotations

from dataclasses import replace

from .constraints import ComparisonSystem
from .model import (
    Atom, Comparison, Condition, Const, Query, is_const, is_var, term_sort_key,
)
from .orderings import rename_tuple


def _substitute_condition(subst: dict, cond: Condition) -> Condition:
    atoms = tuple(Atom(a.predicate, rename_tuple(subst, a.args), a.positive)
                  for a in cond.atoms)
    comparisons = []
    for c in cond.comparisons:
        lhs, rhs = rename_tuple(subst, (c.lhs, c.rhs))
        if lhs == rhs:
            if c.op in ("=", "<=", ">="):
                continue
            raise AssertionError("substitution produced a false comparison "
                                 "in a satisfiable disjunct")
        if is_const(lhs) and is_const(rhs):
            if c.holds(lhs.value, rhs.value):
                continue
            raise AssertionError("substitution produced a false comparison "
                                 "in a satisfiable disjunct")
        comparisons.append(Comparison(lhs, c.op, rhs))
    return Condition(atoms, tuple(comparisons))


def _entailed_substitution(system: ComparisonSystem, q: Query,
                           protected: bool) -> dict:
    """Map each comparison variable forced equal to another term onto a
    representative, a head variable of `q` where its group has one.  A
    grouping and an aggregation variable are never mapped onto each other:
    well-formedness keeps the two tuples variable-disjoint.  With
    `protected`, no head variable is mapped away."""
    grouping = q.grouping_variables()
    head = grouping | q.aggregation_variables()
    terms = {t for c in system.comparisons for t in c.terms()}
    variables = sorted((t for t in terms if is_var(t)), key=term_sort_key)

    subst = {}
    for x in variables:
        value = system.forced_value(x)
        if value is not None:
            subst[x] = Const(value)
    merged = set(subst)
    for i, x in enumerate(variables):
        if x in merged:
            continue
        group = [x]
        for y in variables[i + 1:]:
            if y not in merged and system.forced_equal(x, y):
                group.append(y)
        if len(group) > 1:
            merged.update(group)
            rep = next((v for v in group if v in head), group[0])
            for v in group:
                if v != rep and not (v in head and
                                     (v in grouping) != (rep in grouping)):
                    subst[v] = rep
    # a protected (head) variable keeps its name: different disjuncts could
    # force different values onto it
    return {k: v for k, v in subst.items()
            if not (protected and k in head)}


def reduce_query(q: Query) -> Query:
    """Equivalent query with no entailed equalities left in any disjunct
    but those between a grouping and an aggregation variable.

    Unsatisfiable disjuncts are dropped; if none survive, the returned
    query has an empty body and `is_unsatisfiable` is true.
    """
    conjunctive = q.is_conjunctive()
    grouping = q.grouping
    aggregate = q.aggregate

    new_disjuncts = []
    for cond in q.disjuncts:
        system = ComparisonSystem(cond.comparisons, q.domain)
        if not system.satisfiable():
            continue
        # head variables may be substituted only when there is a single
        # disjunct (the substitution must also rewrite the shared head)
        subst = _entailed_substitution(system, q, not conjunctive)
        if conjunctive:
            grouping = rename_tuple(subst, grouping)
            if aggregate is not None:
                aggregate = replace(aggregate,
                                    args=rename_tuple(subst, aggregate.args))
        new_disjuncts.append(_substitute_condition(subst, cond))

    return replace(q, grouping=grouping, aggregate=aggregate,
                   disjuncts=tuple(new_disjuncts)).validate()

