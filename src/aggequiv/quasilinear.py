"""Polynomial equivalence for quasilinear conjunctive queries.

A conjunctive query is quasilinear when no predicate occurring in a
positive literal occurs anywhere else: positive atoms are then matched
by predicate alone, so testing for an isomorphism is a handful of forced
unifications instead of a search.  For singleton-determining functions
(everything here except cntd) two satisfiable reduced quasilinear
queries are equivalent exactly when they are isomorphic; cntd gets the
same treatment under its special conditions (only <= and >= comparisons,
and rational domain or no constants) and is otherwise not supported.

Non-isomorphic pairs are refuted constructively: candidate databases are
built from canonical instantiations of either query (and, for a
negated-atom mismatch, that instantiation plus the separating negated
fact), checked concretely, and only a verified disagreement is reported.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

from . import oracle
from .constraints import ComparisonSystem
from .engine import Counterexample, EQUIVALENT, NOT_EQUIVALENT, UNSUPPORTED, Verdict
from .model import (
    Condition, Query, RATIONALS, is_const, term_sort_key,
)
from .normalize import reduce_query
from .orderings import consistent_orderings, satisfying_assignment


@dataclass(frozen=True)
class Homomorphism:
    """A variable substitution from one query into another."""

    substitution: dict

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
            mapped = replace(c, lhs=mapping.term(c.lhs),
                             rhs=mapping.term(c.rhs))
            if not system.entails(mapped):
                return False
    return True


# ---------------------------------------------------------------------------
# The decision procedure
# ---------------------------------------------------------------------------

def equivalent_quasilinear(q: Query, q2: Query,
                           cap: int = 2 ** 20) -> Verdict:
    """Equivalence of two quasilinear conjunctive queries with the same
    aggregation function, decided through reduction and isomorphism.

    `cap` bounds the exhaustive fallback that refutes non-isomorphic
    pairs whose difference needs overlapping facts.
    """
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
    if qr.is_unsatisfiable or q2r.is_unsatisfiable:
        source = q2r if qr.is_unsatisfiable else qr
        for db in _candidate_databases(source):
            ce = _differing(qr, q2r, db)
            if ce is not None:
                return Verdict(NOT_EQUIVALENT, counterexample=ce)
        raise AssertionError("satisfiable query produced no separating database")

    if func.name == "cntd" and not _cntd_conditions_hold(qr, q2r):
        return Verdict(UNSUPPORTED, reason=(
            "cntd equivalence is decided only for queries whose comparisons "
            "use <= and >= and that range over the rationals or are "
            "constant-free"))

    if find_isomorphism(qr, q2r) is not None:
        return Verdict(EQUIVALENT)
    return Verdict(NOT_EQUIVALENT,
                   counterexample=_refute_nonisomorphic(qr, q2r, cap))


def _cntd_conditions_hold(qr: Query, q2r: Query) -> bool:
    for query in (qr, q2r):
        for cond in query.disjuncts:
            if any(c.op not in ("<=", ">=") for c in cond.comparisons):
                return False
    if qr.domain == RATIONALS:
        return True
    return not (qr.constants() or q2r.constants())


def _canonical_instantiations(q: Query):
    """Assignments of the query's variables satisfying its comparisons,
    one per consistent ordering of the comparison terms, injective
    orderings first; variables free of comparisons spread out above."""
    cond = q.disjuncts[0]
    comp_terms = {t for c in cond.comparisons for t in c.terms()}
    comp_terms |= {t for t in q.constants()}
    free_vars = sorted(cond.variables() - comp_terms, key=term_sort_key)
    orderings = list(consistent_orderings(comp_terms, cond.comparisons,
                                          q.domain))
    orderings.sort(key=lambda o: 0 if o.is_injective() else 1)
    for ordering in orderings:
        assignment = satisfying_assignment(ordering)
        top = max(assignment.values(), default=Fraction(0))
        for i, v in enumerate(free_vars, start=1):
            assignment[v] = top + i
        yield assignment


def _instantiate_positive(q: Query, assignment: dict):
    from .model import Database

    cond = q.disjuncts[0]
    facts = set()
    for atom in cond.positive_atoms():
        facts.add((atom.predicate,
                   tuple(t.value if is_const(t) else assignment[t]
                         for t in atom.args)))
    return Database(frozenset(facts))


def _candidate_databases(q: Query):
    for assignment in _canonical_instantiations(q):
        yield _instantiate_positive(q, assignment)


def _differing(q: Query, q2: Query, db) -> Optional[Counterexample]:
    left = dict(oracle.eval_concrete(q, db))
    right = dict(oracle.eval_concrete(q2, db))
    if left == right:
        return None
    keys = sorted(k for k in set(left) | set(right)
                  if left.get(k) != right.get(k))
    key = keys[0]
    return Counterexample(db, key, left.get(key), right.get(key))


def _refute_nonisomorphic(qr: Query, q2r: Query,
                          cap: int = 2 ** 20) -> Counterexample:
    """Constructive counterexample for a non-isomorphic satisfiable pair:
    canonical instantiations of either query, then (for a negated-atom
    mismatch) the instantiation extended with the separating fact, then a
    brute-force small-model sweep."""
    for source in (qr, q2r):
        for db in _candidate_databases(source):
            ce = _differing(qr, q2r, db)
            if ce is not None:
                return ce

    pos1 = _positive_part(qr)
    pos2 = _positive_part(q2r)
    theta = find_isomorphism(pos1, pos2)
    if theta is not None:
        inverse = theta.inverse()
        plans = [(qr, _mapped_difference(qr, q2r, theta)),
                 (q2r, _mapped_difference(q2r, qr, inverse))]
        for source, extra_atoms in plans:
            for assignment in _canonical_instantiations(source):
                base = _instantiate_positive(source, assignment)
                for pred, args in extra_atoms:
                    fact = (pred, tuple(
                        t.value if is_const(t) else assignment[t]
                        for t in args))
                    db = base | type(base)(frozenset([fact]))
                    ce = _differing(qr, q2r, db)
                    if ce is not None:
                        return ce

    found = oracle.brute_force_check(qr, q2r, cap=cap)
    if found is not None:
        ce = _differing(qr, q2r, found)
        if ce is not None:
            return ce
    raise RuntimeError(
        "no separating database found for a non-isomorphic pair")


def _positive_part(q: Query) -> Query:
    cond = q.disjuncts[0]
    return replace(q, disjuncts=(Condition(tuple(cond.positive_atoms()),
                                           cond.comparisons),))


def _mapped_difference(target: Query, other: Query,
                       mapping: Homomorphism) -> list:
    """Negated atoms of `target` not hit by mapping the other side's."""
    own = {(a.predicate, a.args) for a in target.disjuncts[0].negated_atoms()}
    mapped = {(a.predicate, mapping.tuple(a.args))
              for a in other.disjuncts[0].negated_atoms()}
    return sorted(own - mapped)
