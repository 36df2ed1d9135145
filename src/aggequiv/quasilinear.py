"""Polynomial equivalence for quasilinear conjunctive queries.

A conjunctive query is quasilinear when no predicate occurring in a
positive literal occurs anywhere else: positive atoms are then matched
by predicate alone, so testing for an isomorphism is a handful of forced
unifications instead of a search.  For singleton-determining functions
(everything here except cntd) two satisfiable reduced quasilinear
queries are equivalent exactly when they are isomorphic; cntd gets the
same treatment under its special conditions (only <= and >= comparisons,
and rational domain or no constants) and is otherwise not supported.

A pair with one unsatisfiable side, or a non-isomorphic pair, is refuted
by one procedure: canonical instantiations of each satisfiable side over
both sides' terms, alone, with one negated fact, or (cntd) two at once,
are checked concretely, and only a verified disagreement is reported.
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from fractions import Fraction
from typing import Optional

from . import oracle
from .aggregation import Value
from .constraints import ComparisonSystem
from .engine import Counterexample, EQUIVALENT, NOT_EQUIVALENT, UNSUPPORTED, Verdict
from .model import (
    Comparison, Condition, Database, Query, RATIONALS, is_const, is_var,
    term_sort_key,
)
from .normalize import reduce_query
from .orderings import (
    CompleteOrdering, assign_tuple, enumerate_complete_orderings,
    satisfying_assignment, witness_pair_at,
)


class Homomorphism(Value):
    """A variable substitution from one query into another."""

    __slots__ = _fields = ("substitution",)

    def __init__(self, substitution: dict):
        self._init(substitution)

    def term(self, t):
        return self.substitution.get(t, t)

    def tuple(self, terms):
        return tuple(self.term(t) for t in terms)

    def atom_key(self, atom):
        return (atom.predicate, self.tuple(atom.args))

    def inverse(self) -> "Homomorphism":
        return Homomorphism({v: k for k, v in self.substitution.items()})


def is_quasilinear(q: Query) -> bool:
    """No predicate of a positive literal occurs more than once."""
    if not q.is_conjunctive():
        raise ValueError("quasilinearity is defined for conjunctive queries")
    cond = q.disjuncts[0]
    positive = [a.predicate for a in cond.positive_atoms()]
    negated = {a.predicate for a in cond.negated_atoms()}
    if len(positive) != len(set(positive)):
        return False
    return not (set(positive) & negated)


def find_isomorphism(q: Query, q2: Query) -> Optional[Homomorphism]:
    """A bijective variable mapping from `q2` into `q` whose inverse is
    also a homomorphism, or None.

    For quasilinear inputs the positive atoms force the mapping and the
    search is linear; general conjunctive inputs fall back to trying the
    per-predicate atom matchings.
    """
    if not q.is_conjunctive() or not q2.is_conjunctive():
        raise ValueError("isomorphism matching needs conjunctive queries")
    cond, cond2 = q.disjuncts[0], q2.disjuncts[0]
    vars1 = sorted(cond.variables(), key=term_sort_key)
    vars2 = sorted(cond2.variables(), key=term_sort_key)
    if len(vars1) != len(vars2):
        return None
    by_pred = _atoms_by_predicate(cond)
    by_pred2 = _atoms_by_predicate(cond2)
    if set(by_pred) != set(by_pred2):
        return None
    if any(len(by_pred[p]) != len(by_pred2[p]) for p in by_pred):
        return None

    predicates = sorted(by_pred)
    matchings = itertools.product(*(itertools.permutations(by_pred[p])
                                    for p in predicates))
    for matching in matchings:
        pairs = []
        for p, permuted in zip(predicates, matching):
            pairs.extend(zip(by_pred2[p], permuted))
        theta = _unify_pairs(pairs)
        if theta is None:
            continue
        candidate = Homomorphism(theta)
        if _is_isomorphism(candidate, q, q2, vars1, vars2):
            return candidate
    return None


def _atoms_by_predicate(cond: Condition) -> dict:
    out: dict = {}
    for atom in cond.positive_atoms():
        out.setdefault(atom.predicate, []).append(atom)
    return out


def _unify_pairs(pairs) -> Optional[dict]:
    theta: dict = {}
    for atom2, atom1 in pairs:
        for t2, t1 in zip(atom2.args, atom1.args):
            if is_const(t2):
                if t2 != t1:
                    return None
            else:
                if is_const(t1):
                    return None  # a variable-to-constant map cannot invert
                if theta.setdefault(t2, t1) != t1:
                    return None
    return theta


def _is_isomorphism(theta: Homomorphism, q: Query, q2: Query,
                    vars1, vars2) -> bool:
    subst = theta.substitution
    if set(subst) != set(vars2):
        return False
    if sorted(set(subst.values()), key=term_sort_key) != vars1:
        return False
    if theta.tuple(q2.grouping) != q.grouping:
        return False
    if (q.aggregate is None) != (q2.aggregate is None):
        return False
    if q.aggregate is not None:
        if q.aggregate.function.name != q2.aggregate.function.name:
            return False
        if theta.tuple(q2.aggregate.args) != q.aggregate.args:
            return False
    cond, cond2 = q.disjuncts[0], q2.disjuncts[0]
    negated = {(a.predicate, a.args) for a in cond.negated_atoms()}
    negated2_mapped = {theta.atom_key(a) for a in cond2.negated_atoms()}
    if negated != negated2_mapped:
        return False
    # each side's comparisons entail the other side's, mapped across
    for source, target, mapping, domain in (
            (cond, cond2, theta, q.domain),
            (cond2, cond, theta.inverse(), q2.domain)):
        system = ComparisonSystem(source.comparisons, domain)
        for c in target.comparisons:
            mapped = Comparison(mapping.term(c.lhs), c.op,
                                mapping.term(c.rhs))
            if not system.entails(mapped):
                return False
    return True


# ---------------------------------------------------------------------------
# The decision procedure
# ---------------------------------------------------------------------------

def equivalent_quasilinear(q: Query, q2: Query) -> Verdict:
    """Equivalence of two quasilinear conjunctive queries with the same
    aggregation function, decided through reduction and isomorphism."""
    if q.domain != q2.domain:
        raise ValueError("queries range over different domains")
    if q.aggregate is None or q2.aggregate is None:
        raise ValueError("aggregate queries expected")
    func = q.aggregate.function
    if func.name != q2.aggregate.function.name:
        raise ValueError("queries use different aggregation functions")
    if not is_quasilinear(q) or not is_quasilinear(q2):
        raise ValueError("both queries must be quasilinear")

    qr, q2r = reduce_query(q), reduce_query(q2)
    if qr.is_unsatisfiable and q2r.is_unsatisfiable:
        return Verdict(EQUIVALENT)
    if not (qr.is_unsatisfiable or q2r.is_unsatisfiable):
        if not func.singleton_determining and \
                not _cntd_conditions_hold(qr, q2r):
            return Verdict(UNSUPPORTED, reason=(
                "cntd equivalence is decided only for queries whose "
                "comparisons use <= and >= and that range over the "
                "rationals or are constant-free"))
        if find_isomorphism(qr, q2r) is not None:
            return Verdict(EQUIVALENT)
    ce = _refute(qr, q2r)
    if ce is not None:
        return Verdict(NOT_EQUIVALENT, counterexample=ce)
    if _head_equality(qr) or _head_equality(q2r):
        return Verdict(UNSUPPORTED, reason=(
            "a grouping variable is forced equal to an aggregation "
            "variable, which reduction keeps apart, and no candidate "
            "database separates the queries"))
    raise RuntimeError("no separating database found for a pair that is "
                       "not equivalent")


def _head_equality(q: Query) -> bool:
    """Does the reduced query force a grouping and an aggregation variable
    equal?  Two such queries can be equivalent but not isomorphic."""
    return any(ComparisonSystem(cond.comparisons, q.domain).forced_equal(g, a)
               for cond in q.disjuncts for g in q.grouping_variables()
               for a in q.aggregation_variables())


def _cntd_conditions_hold(qr: Query, q2r: Query) -> bool:
    for query in (qr, q2r):
        for cond in query.disjuncts:
            if any(c.op not in ("<=", ">=") for c in cond.comparisons):
                return False
    if qr.domain == RATIONALS:
        return True
    return not (qr.constants() or q2r.constants())


def _canonical_instantiations(q: Query, terms: set):
    """`(ordering, assignment)` per consistent ordering of `terms` and the
    query's comparison terms, injective first; the query's other variables
    sit above them, each in a class of its own."""
    cond = q.disjuncts[0]
    terms = terms | {t for c in cond.comparisons for t in c.terms()}
    free_vars = sorted(cond.variables() - terms, key=term_sort_key)
    orderings = list(enumerate_complete_orderings(
        terms, q.domain, comparisons=cond.comparisons))
    orderings.sort(key=lambda o: 0 if o.is_injective() else 1)
    for ordering in orderings:
        assignment = satisfying_assignment(ordering)
        top = max(assignment.values(), default=Fraction(0))
        for i, v in enumerate(free_vars, start=1):
            assignment[v] = top + i
        yield (CompleteOrdering(ordering.classes + tuple(
            (v,) for v in free_vars), q.domain), assignment)


def _instantiate(atoms, *assignments) -> Database:
    return Database(frozenset((a.predicate, assign_tuple(d, a.args))
                              for d in assignments for a in atoms))


def _differing(q: Query, q2: Query, db) -> Optional[Counterexample]:
    left = dict(oracle.eval_concrete(q, db))
    right = dict(oracle.eval_concrete(q2, db))
    if left == right:
        return None
    key = min(k for k in set(left) | set(right)
              if left.get(k) != right.get(k))
    return Counterexample(db, key, left.get(key), right.get(key))


def _refute(qr: Query, q2r: Query) -> Optional[Counterexample]:
    """A counterexample for a reduced pair with one side unsatisfiable, or
    with both satisfiable and not isomorphic, or None.

    Each satisfiable side is instantiated under every consistent ordering
    of its own comparison terms, both sides' constants and, when the
    positive parts are isomorphic under a variable mapping θ, the other
    side's comparison terms mapped through θ.  The candidate databases
    come stage by stage over both sides (`_stage`), each is evaluated
    concretely, and the first on which the two queries disagree is
    returned; no database is enumerated.  None is left only for reduced
    queries that keep a grouping and an aggregation variable equal.
    """
    pair = (qr, q2r)
    theta = None
    if not (qr.is_unsatisfiable or q2r.is_unsatisfiable):
        theta = find_isomorphism(_positive_part(qr), _positive_part(q2r))
    sides = []
    for i, source in enumerate(pair):
        if source.is_unsatisfiable:
            continue
        terms = qr.constants() | q2r.constants()
        if theta is not None:
            mapping = theta.inverse() if i else theta
            terms |= {mapping.term(t) for c in pair[1 - i].disjuncts[0]
                      .comparisons for t in c.terms()}
        sides.append((source, list(_canonical_instantiations(source,
                                                             terms))))
    stages = 2 if qr.aggregate.function.singleton_determining else 3
    found = (_differing(qr, q2r, db) for stage in range(stages)
             for source, instances in sides
             for ordering, assignment in instances
             for db in _stage(stage, source, ordering, assignment))
    return next(filter(None, found), None)


def _stage(stage: int, q: Query, ordering: CompleteOrdering,
           assignment: dict):
    """The candidates of one instantiation at `stage`: 0, its positive
    atoms; 1, those plus one of the query's negated atoms, instantiated
    alike; 2 (for cntd, which is not singleton-determining), under an
    injective ordering and per aggregate argument it leaves free to move,
    the union of the two instantiations `witness_pair_at` gives there."""
    cond = q.disjuncts[0]
    positive = cond.positive_atoms()
    if stage == 0:
        yield _instantiate(positive, assignment)
    elif stage == 1:
        for atom in cond.negated_atoms():
            yield _instantiate(positive + [atom], assignment)
    elif ordering.is_injective():
        reduced, renaming = ordering.reduction
        for x in sorted(q.aggregation_variables(), key=term_sort_key):
            if is_var(u := renaming.get(x, x)):
                yield _instantiate(positive, *(
                    {t: d[renaming.get(t, t)] for t in ordering.terms()}
                    for d in witness_pair_at(reduced, u)))


def _positive_part(q: Query) -> Query:
    """The query's positive atoms alone, without its negated atoms and
    comparisons: the variable mapping is matched on those atoms, and the
    negated atoms and comparisons are what the refutation varies."""
    cond = q.disjuncts[0]
    return replace(q, disjuncts=(Condition(tuple(cond.positive_atoms()),
                                           ()),))
