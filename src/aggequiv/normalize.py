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
"""

from __future__ import annotations

from dataclasses import replace

from .constraints import ComparisonSystem
from .model import (
    Atom, Comparison, Condition, Const, INTEGERS, Query, is_const, is_var,
    term_sort_key,
)
from .orderings import consistent_orderings


def _substitute_term(subst: dict, t):
    return subst.get(t, t)


def _substitute_condition(subst: dict, cond: Condition) -> Condition:
    atoms = tuple(
        Atom(a.predicate, tuple(_substitute_term(subst, t) for t in a.args),
             a.positive)
        for a in cond.atoms)
    comparisons = []
    for c in cond.comparisons:
        lhs = _substitute_term(subst, c.lhs)
        rhs = _substitute_term(subst, c.rhs)
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


def _entailed_substitution(cond: Condition, domain: str,
                           protected: set) -> dict:
    """Map each comparison variable forced equal to another term onto a
    representative; `protected` variables are never mapped away."""
    comparisons = list(cond.comparisons)
    if not comparisons:
        return {}
    terms = {t for c in comparisons for t in c.terms()}
    if domain == INTEGERS and any(c.op == "!=" for c in comparisons):
        # disequality holes can pin integer variables in ways the
        # difference-bound core cannot see; read both facts off the
        # consistent orderings instead
        orderings = list(consistent_orderings(terms, comparisons, domain))
        if not orderings:
            raise ValueError("unsatisfiable disjunct")

        def forced_value(x):
            bounds = {o.class_bounds(o.position(x)) for o in orderings}
            lo, hi = bounds.pop()
            return lo if not bounds and lo is not None and lo == hi else None

        def forced_equal(x, y):
            return all(o.position(x) == o.position(y) for o in orderings)
    else:
        system = ComparisonSystem(comparisons, domain)
        forced_value, forced_equal = system.forced_value, system.forced_equal
    variables = sorted((t for t in terms if is_var(t)), key=term_sort_key)

    subst = {}
    for x in variables:
        value = forced_value(x)
        if value is not None:
            subst[x] = Const(value)
    merged = set(subst)
    for i, x in enumerate(variables):
        if x in merged:
            continue
        group = [x]
        for y in variables[i + 1:]:
            if y not in merged and forced_equal(x, y):
                group.append(y)
        if len(group) > 1:
            merged.update(group)
            protected_members = [v for v in group if v in protected]
            rep = protected_members[0] if protected_members else group[0]
            for v in group:
                if v != rep:
                    subst[v] = rep
    # a protected (head) variable keeps its name: different disjuncts could
    # force different values onto it
    return {k: v for k, v in subst.items() if k not in protected}


def condition_satisfiable(cond: Condition, domain: str) -> bool:
    """Are the disjunct's comparisons satisfiable over the domain?"""
    if not cond.comparisons:
        return True
    return ComparisonSystem(list(cond.comparisons), domain).satisfiable()


def reduce_query(q: Query) -> Query:
    """Equivalent query with no entailed equalities left in any disjunct.

    Unsatisfiable disjuncts are dropped; if none survive, the returned
    query has an empty body and `is_unsatisfiable` is true.
    """
    conjunctive = q.is_conjunctive()
    grouping = q.grouping
    aggregate = q.aggregate
    head_vars = q.grouping_variables() | q.aggregation_variables()

    new_disjuncts = []
    for cond in q.disjuncts:
        if not condition_satisfiable(cond, q.domain):
            continue
        # head variables may be substituted only when there is a single
        # disjunct (the substitution must also rewrite the shared head)
        protected = set() if conjunctive else set(head_vars)
        subst = _entailed_substitution(cond, q.domain, protected)
        if conjunctive:
            subst = _drop_head_conflicts(subst, q)
            grouping = tuple(_substitute_term(subst, t) for t in grouping)
            if aggregate is not None:
                aggregate = replace(
                    aggregate,
                    args=tuple(_substitute_term(subst, t)
                               for t in aggregate.args))
        new_disjuncts.append(_substitute_condition(subst, cond))

    return replace(q, grouping=grouping, aggregate=aggregate,
                   disjuncts=tuple(new_disjuncts)).validate()


def _drop_head_conflicts(subst: dict, q: Query) -> dict:
    """Never rewrite a grouping variable into an aggregation variable or
    vice versa: well-formedness keeps the two tuples variable-disjoint."""
    grouping = q.grouping_variables()
    aggregation = q.aggregation_variables()
    out = {}
    for var, rep in subst.items():
        if is_var(rep):
            if var in grouping and rep in aggregation:
                continue
            if var in aggregation and rep in grouping:
                continue
        out[var] = rep
    return out
