"""The bounded-equivalence engine and the full-equivalence front doors.

N-equivalence of two queries is decided by a finite search: build BASE,
the set of every atom formable from the queries' predicates over their
constants plus N fresh variables, then walk all pairs of a subset S of
BASE and a complete ordering L of the terms.  Each pair stands for the
infinitely many concrete databases obtained by instantiating S with an
assignment satisfying L; the queries are evaluated symbolically over it
and each shared group leaves an ordered identity for the identity
deciders.  No identity relates two different heads (function or grouping
arity), so those are compared on the instance of the ordering's canonical
assignment instead.  The first failure is instantiated into a concrete
counterexample database and re-verified against the concrete evaluator
before being reported.

Orderings that equate two distinct terms are skipped: any database they
describe is also described by a smaller subset with an injective
ordering, and injectivity is what makes symbolic group keys and negated
atoms behave like their concrete counterparts.

Three more kinds of unit are skipped because a unit the scan checks
anyway stands for them, or because no check of theirs can fail:

- Only orderings with the fresh variables in increasing order
  (u1 < u2 < ... < uN) are walked.  The queries never mention the fresh
  variables, so renaming them maps BASE onto itself, and (S, L) has the
  same groups and identities as (pi S, pi L) for the renaming pi that
  puts L's fresh variables in order; both describe the same concrete
  databases.  This is lex-leader symmetry breaking.  It keeps every
  verdict, but not always the counterexample: a walk over all orderings
  can fail first at a non-canonical (S, L), whose canonical renaming
  comes later, so the first canonical failure may be another database.
- Under one ordering, an atom that occurs in no prepared assignment of
  either query (say p(u1) when both queries read p(Y) only with Y = 1) is
  idle: a subset S holding it has the same groups and identities as S
  without it.  That smaller subset comes earlier in the scan, so units
  whose subset holds an idle atom are skipped, their global index still
  counted.  This skip changes neither the first counterexample nor the
  lowest-index merge of a parallel scan.
- When the heads match, a unit can separate the queries only if some
  prepared assignment that one query has more often than the other
  fires on S (its positive atoms in S, its negated atoms not).  On any
  other unit both queries collect the same multiset of bags per group,
  so every identity holds; those units are skipped with their global
  index counted, and an ordering under which both queries prepare the
  same assignments is dropped.  Differing heads are never skipped this
  way: equal bags can still disagree under two functions (max and min).

Across subsets and orderings the same bags recur over the same order of
the terms they mention, so one scan keeps the identities it has decided
valid under a key (`_identity_key`: the function, the domain, the
ordering projected onto the constants and the fresh variables the bags
mention, and the renamed bags) and does not decide them again.  Over the
integers a fresh variable the bags do not mention still holds its place
in the key when it lies between two constants, since it can pin its
neighbours.  Only valid verdicts are kept: a failing identity is always
decided on its unit's own ordering, so the counterexample is the one the
scan would report without the memo.

Full equivalence reduces to N-equivalence at the pair's term size for
the decomposable functions (count, sum, max, min, parity, top2) and for
prod over the rationals; avg and cntd are reported unsupported.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Optional

from . import identity, oracle
from .aggregation import FUNCTIONS, apply
from .model import (
    INTEGERS, Comparison, Database, Query, RATIONALS, Var, is_const,
    term_size_pair, term_sort_key,
)
from .orderings import (
    Assignment, CompleteOrdering, assign_tuple, enumerate_complete_orderings,
    entails, satisfying_assignment,
)

EQUIVALENT = "equivalent"
NOT_EQUIVALENT = "not_equivalent"
UNSUPPORTED = "unsupported"

#: functions whose equivalence problem reduces to local equivalence
DECOMPOSABLE = ("count", "parity", "sum", "max", "min", "top2", "bot2")


@dataclass(frozen=True)
class Counterexample:
    database: Database
    group: tuple
    left_value: object
    right_value: object


@dataclass(frozen=True)
class Verdict:
    status: str
    counterexample: Optional[Counterexample] = None
    n_used: Optional[int] = None
    reason: Optional[str] = None

    @property
    def equivalent(self) -> bool:
        return self.status == EQUIVALENT


# ---------------------------------------------------------------------------
# BASE
# ---------------------------------------------------------------------------

def merged_predicates(q: Query, q2: Query) -> dict:
    predicates = dict(q.predicates())
    for pred, arity in q2.predicates().items():
        if predicates.setdefault(pred, arity) != arity:
            raise ValueError(f"predicate {pred} has conflicting arities")
    return predicates


def fresh_variables(n: int) -> list:
    # lowercase names cannot collide with parsed query variables
    return [Var(f"u{i}") for i in range(1, n + 1)]


def _base_terms(q: Query, q2: Query, n: int) -> list:
    """The query constants in order, then n fresh variables."""
    constants = sorted(q.constants() | q2.constants(), key=term_sort_key)
    return constants + fresh_variables(n)


def base_size(q: Query, q2: Query, n: int) -> int:
    """|BASE| without building it: one atom per predicate and tuple of
    terms."""
    terms = len(_base_terms(q, q2, n))
    return sum(terms ** arity for arity in merged_predicates(q, q2).values())


def build_base(q: Query, q2: Query, n: int):
    """Terms (query constants plus n fresh variables) and all atoms over
    them, deterministically ordered."""
    terms = _base_terms(q, q2, n)
    predicates = merged_predicates(q, q2)
    atoms = [(pred, combo)
             for pred in sorted(predicates)
             for combo in itertools.product(terms, repeat=predicates[pred])]
    return terms, atoms


# ---------------------------------------------------------------------------
# The (S, L) search
# ---------------------------------------------------------------------------

def _subsets(atoms: list) -> Iterator[tuple]:
    for size in range(len(atoms) + 1):
        yield from itertools.combinations(atoms, size)


def _prepare_assignments(q: Query, ordering: CompleteOrdering, terms: list,
                         atom_bit: dict) -> list:
    """Satisfying assignments of `q` over the full BASE under one ordering,
    with their positive and negated atoms as bitmasks.

    Comparisons depend only on the ordering, so they are settled here once;
    per subset S only the two mask tests remain.
    """
    prepared = []
    for cond in q.disjuncts:
        variables = sorted(cond.variables(), key=term_sort_key)
        comparisons = cond.comparisons
        for values in itertools.product(terms, repeat=len(variables)):
            gamma = dict(zip(variables, values))
            if not all(entails(ordering,
                               Comparison(gamma.get(c.lhs, c.lhs), c.op,
                                          gamma.get(c.rhs, c.rhs)))
                       for c in comparisons):
                continue
            positive = negated = 0
            for atom in cond.atoms:
                bit = atom_bit[(atom.predicate,
                                tuple(gamma.get(t, t) for t in atom.args))]
                if atom.positive:
                    positive |= bit
                else:
                    negated |= bit
            if positive & negated:
                continue  # an atom required both present and absent
            key = tuple(gamma.get(t, t) for t in q.grouping)
            item = (tuple(gamma.get(t, t) for t in q.aggregate.args)
                    if q.aggregate is not None else ())
            prepared.append((positive, negated, key, item))
    return prepared


def _collect_groups(prepared: list, mask: int) -> dict:
    groups: dict = {}
    for positive, negated, key, item in prepared:
        if positive & mask == positive and not negated & mask:
            groups.setdefault(key, []).append(item)
    return groups


def _pair_counterexample(q: Query, q2: Query, subset, mask: int,
                         ordering: CompleteOrdering,
                         witness: Callable[[], Assignment],
                         prep1: list, prep2: list,
                         same_head: Optional[bool] = None,
                         memo: Optional[tuple] = None
                         ) -> Optional[Counterexample]:
    """Check one (S, L) unit of work; None means no disagreement.

    `witness()` returns the ordering's canonical satisfying assignment;
    it is called only for differing heads and for one-sided groups.
    `memo`, when given, is `(valid, key)`: the keys of the identities the
    scan has decided valid, and this ordering's `key(left, right)`.  An
    identity whose key is in `valid` is not decided again; one that fails
    is always decided on the unit's own ordering, so the counterexample
    does not depend on the memo.
    """
    groups1 = _collect_groups(prep1, mask)
    groups2 = _collect_groups(prep2, mask)
    func = q.aggregate.function
    if same_head is None:
        same_head = _same_head(q, q2)
    if same_head and groups1 == groups2:
        return None  # the same bags in the same order: no identity can fail
    keys1, keys2 = set(groups1), set(groups2)
    if not same_head:
        # no identity relates different heads: compare the instance of the
        # ordering's canonical assignment, one-sided groups first, each set
        # in the order of its concrete keys
        assignment = witness()

        def concrete(key):
            return assign_tuple(assignment, key)
        keys = sorted(keys1 ^ keys2, key=concrete) or [
            key for key in sorted(keys1, key=concrete)
            if _value(q, groups1[key], assignment)
            != _value(q2, groups2[key], assignment)]
        if keys:
            return _materialize(q, q2, subset, keys[0], groups1, groups2,
                                assignment)
        return None
    if keys1 != keys2:
        key = min(keys1 ^ keys2, key=lambda k: tuple(term_sort_key(t) for t in k))
        return _materialize(q, q2, subset, key, groups1, groups2, witness())
    for key in sorted(keys1, key=lambda k: tuple(term_sort_key(t) for t in k)):
        left, right = groups1[key], groups2[key]
        if Counter(left) == Counter(right):
            continue
        if memo is not None:
            valid, identity_key = memo
            known = identity_key(left, right)
            if known in valid:
                continue
        verdict = identity.decide(identity.OrderedIdentity(
            ordering, tuple(left), tuple(right), func))
        if not verdict.valid:
            return _materialize(q, q2, subset, key, groups1, groups2,
                                verdict.witness)
        if memo is not None:
            valid.add(known)
    return None


def _projection(ordering: CompleteOrdering, index: dict) -> tuple:
    """A strict ordering as (base-term index, constant, slot) triples,
    lowest term first, for `_identity_key`.

    `slot` marks an integer variable between two constants: it takes up
    one of the finitely many integers there and can pin its neighbours
    (0 < u1 < u2 < 3 forces u2 = 2, 0 < u2 < 3 does not).
    """
    terms = [cls[0] for cls in ordering.classes]
    anchors = [p for p, t in enumerate(terms) if is_const(t)]
    bounded = (range(anchors[0] + 1, anchors[-1])
               if anchors and ordering.domain == INTEGERS else range(0))
    return tuple((index[t], is_const(t), p in bounded)
                 for p, t in enumerate(terms))


def _identity_key(function: str, domain: str, projection: tuple,
                  index: dict, left, right) -> tuple:
    """A key under which the ordered identities of one scan share their
    verdict.

    The ordering is projected onto the constants and the fresh variables
    the bags mention, the variables renamed in their order there; a
    variable the bags do not mention stays as an anonymous placeholder
    only where `_projection` marks a slot.  The scan's orderings are
    strict, and renaming terms keeps a verdict.  A dropped rational
    variable always fits into its dense gap.  A dropped integer variable
    outside the constants only narrows a gap that is unbounded anyway:
    shiftable verdicts depend on the order of the terms alone, and the
    sum, avg and prod identities are polynomial identities, which hold on
    an unbounded integer cone only if they hold identically.  Terms are
    base-term indexes, so the key hashes ints.
    """
    left = [tuple(index[t] for t in tup) for tup in left]
    right = [tuple(index[t] for t in tup) for tup in right]
    used = {i for tup in left + right for i in tup}
    names: dict = {}
    chain = []
    for i, constant, slot in projection:
        if constant:
            chain.append(i)
        elif i in used:
            names[i] = len(index) + len(names)  # apart from every base index
            chain.append(names[i])
        elif slot:
            chain.append(None)

    def bag(tuples):
        return tuple(sorted(tuple(names.get(i, i) for i in tup)
                            for tup in tuples))
    return function, domain, tuple(chain), bag(left), bag(right)


def _same_head(q: Query, q2: Query) -> bool:
    """Same aggregate function and grouping arity."""
    return (q.aggregate.function.name == q2.aggregate.function.name
            and len(q.grouping) == len(q2.grouping))


def _differing_masks(prep1: list, prep2: list) -> set:
    """(positive, negated) masks of the prepared assignments that one
    query prepares more often than the other."""
    balance = Counter(prep1)
    balance.subtract(prep2)
    return {(positive, negated)
            for (positive, negated, _, _), surplus in balance.items()
            if surplus}


def _fires(masks, mask: int) -> bool:
    """Does an assignment with one of `masks` fire on the subset `mask`?"""
    return any(positive & mask == positive and not negated & mask
               for positive, negated in masks)


def _value(q: Query, bag: list, witness: Assignment):
    return apply(q.aggregate.function,
                 [assign_tuple(witness, t) for t in bag])


def _materialize(q: Query, q2: Query, subset, key, groups1, groups2,
                 witness: Assignment) -> Counterexample:
    database = Database(frozenset(
        (pred, assign_tuple(witness, args)) for pred, args in subset))
    left = _value(q, groups1[key], witness) if key in groups1 else None
    right = _value(q2, groups2[key], witness) if key in groups2 else None
    counterexample = Counterexample(database, assign_tuple(witness, key),
                                    left, right)
    _verify_counterexample(q, q2, counterexample)
    return counterexample


def _verify_counterexample(q: Query, q2: Query, ce: Counterexample):
    """Re-evaluate both queries concretely; the reported disagreement must
    reproduce exactly."""
    left = dict(oracle.eval_concrete(q, ce.database))
    right = dict(oracle.eval_concrete(q2, ce.database))
    if left.get(ce.group) != ce.left_value or right.get(ce.group) != ce.right_value:
        raise AssertionError("counterexample failed concrete re-verification")
    if left.get(ce.group) == right.get(ce.group):
        raise AssertionError("counterexample does not separate the queries")


def n_equivalent(q: Query, q2: Query, n: int, workers: int = 1) -> Verdict:
    """Do the queries agree on every database with at most `n` constants?"""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if q.domain != q2.domain:
        raise ValueError("queries range over different domains")
    if q.aggregate is None or q2.aggregate is None:
        raise ValueError("n_equivalent expects aggregate queries")
    if workers > 1:
        ce = _parallel_scan(q, q2, n, workers)
    else:
        hit = _scan_chunk((q, q2, n, 1, 0))
        ce = hit[1] if hit is not None else None
    if ce is not None:
        return Verdict(NOT_EQUIVALENT, counterexample=ce, n_used=n)
    return Verdict(EQUIVALENT, n_used=n)


def _scan_chunk(args):
    """One worker's stride over the (S, L) stream, in the global order."""
    q, q2, n, workers, offset = args
    base_terms, base = build_base(q, q2, n)
    atom_bit = {atom: 1 << i for i, atom in enumerate(base)}
    every_atom = (1 << len(base)) - 1
    same_head = _same_head(q, q2)
    index = {t: i for i, t in enumerate(base_terms)}
    valid: set = set()  # keys of the identities this scan decided valid
    preps = []
    orderings = enumerate_complete_orderings(base_terms, q.domain,
                                             injective_only=True)
    for position, ordering in enumerate(orderings):
        prep1 = _prepare_assignments(q, ordering, base_terms, atom_bit)
        prep2 = _prepare_assignments(q2, ordering, base_terms, atom_bit)
        differing = _differing_masks(prep1, prep2) if same_head else None
        if differing is not None and not differing:
            continue  # both queries collect the same bags on every subset
        used = 0
        for positive, negated, _, _ in prep1 + prep2:
            used |= positive | negated
        # the canonical assignment is built when a unit first needs it
        witness = functools.cache(functools.partial(satisfying_assignment,
                                                    ordering))
        memo = (valid, functools.partial(
            _identity_key, q.aggregate.function.name, q.domain,
            _projection(ordering, index), index))
        preps.append((position, ordering, witness, prep1, prep2,
                      every_atom & ~used, differing, memo))
    if not preps:
        return None
    per_subset = position + 1  # units per subset, dropped orderings too
    for first, subset in zip(itertools.count(0, per_subset), _subsets(base)):
        mask = sum(atom_bit[atom] for atom in subset)
        for (position, ordering, witness, prep1, prep2, idle, differing,
             memo) in preps:
            unit = first + position
            if (unit % workers != offset or mask & idle
                    or differing is not None and not _fires(differing, mask)):
                continue
            ce = _pair_counterexample(q, q2, subset, mask, ordering,
                                      witness, prep1, prep2, same_head, memo)
            if ce is not None:
                return unit, ce
    return None


def _parallel_scan(q: Query, q2: Query, n: int,
                   workers: int) -> Optional[Counterexample]:
    jobs = [(q, q2, n, workers, w) for w in range(workers)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        results = [r for r in pool.map(_scan_chunk, jobs) if r is not None]
    if not results:
        return None
    # the lowest global index wins, so scheduling cannot change the output
    return min(results, key=lambda r: r[0])[1]


# ---------------------------------------------------------------------------
# Local and full equivalence
# ---------------------------------------------------------------------------

def locally_equivalent(q: Query, q2: Query, workers: int = 1) -> Verdict:
    """N-equivalence at the pair's term size."""
    return n_equivalent(q, q2, term_size_pair(q, q2), workers=workers)


def equivalent(q: Query, q2: Query, workers: int = 1) -> Verdict:
    """Full equivalence, via the reduction to local equivalence.

    Sound and complete for the decomposable functions and for prod over
    the rationals; avg and cntd (and prod over the integers) are open and
    reported unsupported.
    """
    if q.aggregate is None or q2.aggregate is None:
        raise ValueError("equivalent expects aggregate queries; "
                         "use bagset_equivalent for plain ones")
    func = q.aggregate.function
    if not _same_head(q, q2):
        # the local-equivalence reduction needs matching heads; a local
        # counterexample still disproves equivalence outright
        verdict = locally_equivalent(q, q2, workers=workers)
        if verdict.status == NOT_EQUIVALENT:
            return verdict
        return Verdict(UNSUPPORTED, reason=(
            "queries have different head signatures; equivalence is only "
            "decided for matching heads"))
    if func.name in DECOMPOSABLE:
        return locally_equivalent(q, q2, workers=workers)
    if func.prod_special:
        if q.domain == RATIONALS:
            return locally_equivalent(q, q2, workers=workers)
        return Verdict(UNSUPPORTED, reason=(
            "equivalence of prod queries is only decided over the rationals"))
    return Verdict(UNSUPPORTED, reason=(
        f"full equivalence for {func.name} queries is not decided; "
        f"bounded equivalence (nequiv) remains available"))


def bagset_equivalent(q: Query, q2: Query, workers: int = 1) -> Verdict:
    """Bag-set equivalence of two non-aggregate queries: equivalence of
    the queries with count adjoined to their heads."""
    if q.aggregate is not None or q2.aggregate is not None:
        raise ValueError("bagset_equivalent expects non-aggregate queries")
    from .model import AggregateTerm
    counted = AggregateTerm(FUNCTIONS["count"], ())
    return equivalent(replace(q, aggregate=counted),
                      replace(q2, aggregate=counted), workers=workers)
