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
assignment instead, which the ordering builds once and keeps.  The first
failure is instantiated into a concrete counterexample database and
re-verified against the concrete evaluator before being reported.

Orderings that equate two distinct terms are skipped: any database they
describe is also described by a smaller subset with an injective
ordering, and injectivity is what makes symbolic group keys and negated
atoms behave like their concrete counterparts.

Four more kinds of unit are skipped because a unit the scan checks
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
- When the heads match, each database shape is checked once.  Every
  assignment that fires on S maps the query variables to terms of S or
  to constants (a variable is safe through a positive atom or an = chain
  to one, and = between distinct terms is false), so the groups of
  (S, L) depend only on S and on the order L puts S's terms and the
  constants in.  If S's fresh variables are not exactly u1..uk, rename
  the ones it uses onto u1..uk in their L order and put the others above
  every term: the renamed subset comes earlier, and its unit collects
  the renamed groups.  Over the rationals that unit has the same
  verdict; over the integers it describes more databases (an unused
  variable between two constants can pin a used one), so a failure of
  (S, L) is a failure of it too.  If S's fresh variables are exactly
  u1..uk, orderings that agree on the constants, on u1..uk and on the
  integer slots the other variables take between two constants
  (`_shape_key`) collect the same groups on S, and each identity has
  one verdict under all of them: the other variables fit into any
  rational gap, and an integer one outside the constants only narrows a
  gap that is unbounded anyway, where shiftable verdicts depend on the
  order alone and the sum, avg and prod identities, being polynomial
  identities, hold only if they hold identically.  So only the first
  ordering of each class is checked.  Either way the unit that
  stands for a skipped one comes earlier in the global order, so the
  first failure is never skipped and the counterexample is unchanged.
  Differing heads are compared on the canonical instance of the whole
  ordering, so this skip does not apply to them.  Nor does it apply from
  N = 10 on: the walked orderings keep the fresh variables in name order
  (u1 < u10 < u2 < ...), so u1..uk is no longer the lowest k of them in
  L, and a renaming onto u1..uk can leave the walked orderings or land on
  a later subset.

Under one ordering the same bags recur across subsets, so each stride
of a scan keeps, per ordering, the sorted bags it has decided valid and
does not decide them again.  Only valid verdicts are kept, and a failing
identity ends the stride, so the memo changes no verdict and no
counterexample.

Preparation is compiled once per decision (`_compile`): every assignment
of a query's variables to base terms, with its atoms as bitmasks and its
group key and aggregate item as tuples of base-term indexes.  The
comparisons no strict ordering can change are settled there: a term
against itself, two constants, and = or != between distinct terms.  Each
other comparison becomes a pair of terms the ordering must put in that
order, so per ordering preparation is a filter on term positions.
Groups, bags and the memo hold ints; terms come back only for the
identity deciders, for a counterexample and for comparing differing
heads.

Parallel scan: a decision is planned once, by the caller (`_plan`:
BASE, the compiled queries, and each ordering with its shape classes),
and one loop (`_scan`) walks the plan's units in the global order,
subset first and ordering second.  The loop prepares an ordering (its
prepared assignments, idle and differing masks) the first time it
checks a unit under it and keeps it for the rest of its walk, so a scan
that fails early prepares only the orderings it reached.  One worker
runs it in process over every unit, in one walk.  With K workers the
caller first runs it over the head, the units whose subset holds at
most one atom; they come first in the global order, so a failure there
is the first failure and no process is involved.  Otherwise K workers
run it in the processes of a pool over the units after the head, each
over those whose global index is its stride number modulo K, and each
stride prepares only what it checks; of the strides' first failures the
lowest index wins, so the output is the one-worker output.  Skipped
units keep their global index, so the strides do not depend on the
skips.  When the heads match and both queries compile to
the same assignments, no ordering can separate them: the plan has no
ordering and never reaches a process.  Otherwise a scan whose
orderings have all been dropped stops.  The pool is built by the first
parallel decision that reaches it and kept for later ones
(`_shared_pool`); a forked child or another K builds a new one, and a
pool whose worker died is dropped and the decision run once more on a
fresh pool.  The pool machinery (`concurrent.futures` and
`multiprocessing`) is imported by that first decision too, so importing
the package and deciding with one worker never load it, and the pool is
shut down at exit, before interpreter teardown clears those modules.  A
job carries the compiled queries and the orderings, so workers need no
state inherited by fork.

Full equivalence reduces to N-equivalence at the pair's term size for
the decomposable functions (count, sum, max, min, parity, top2) and for
prod over the rationals; avg and cntd are reported unsupported.
"""

from __future__ import annotations

import atexit
import itertools
import math
import os
import threading
from collections import Counter
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterator, NamedTuple, Optional

from . import identity, oracle
from .aggregation import FUNCTIONS, apply
from .model import (
    INTEGERS, AggregateTerm, Comparison, Database, Query, RATIONALS, Var,
    is_const, merged_predicates, term_size_pair, term_sort_key,
)
from .orderings import (
    Assignment, CompleteOrdering, assign_tuple, enumerate_complete_orderings,
    satisfying_assignment,
)
# not called here: bench/tracing.py traces the comparison layer under the
# name engine.entails, so it stays importable (and reads 0 calls)
from .orderings import entails  # noqa: F401

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

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

def _subsets(atoms: list, weights: list, sizes: range) -> Iterator[tuple]:
    """Every subset of `atoms` with a size in `sizes` as `(atoms,
    weight)`, smallest first, where the weight sums the `weights` of its
    atoms (atom i weighing 1 << i makes it the subset's mask)."""
    for size in sizes:
        yield from zip(itertools.combinations(atoms, size),
                       map(sum, itertools.combinations(weights, size)))


def _shape_weights(base: list, terms: list, n: int) -> tuple:
    """`(weights, add, tops, shapes)`: per atom of BASE its weight for
    `_subsets`, and how to read a subset's weight.

    The last n terms are the fresh variables u1..un.  An atom weighs its
    bit plus, above the atom bits, one count field per fresh variable it
    mentions, so a subset's weight holds its mask and, per fresh
    variable, how many of its atoms mention it.  A count stays below the
    top bit of its field, so `(weight + add) & tops` has the top bit of
    exactly the fields of the variables S uses, and `shapes` maps that
    to 1 << k when they are u1..uk.
    """
    width = len(base).bit_length() + 1
    count = {}  # per fresh variable's name, the lowest bit of its field
    add = tops = 0
    shapes = {0: 1}
    for j, u in enumerate(terms[len(terms) - n:]):
        low = 1 << (len(base) + width * j)
        top = low << (width - 1)
        count[u.name] = low
        add += top - low
        tops += top
        shapes[tops] = 2 << j
    weights = [(1 << i) + sum({count.get(t.name, 0) for t in combo
                               if not is_const(t)})
               for i, (_, combo) in enumerate(base)]
    return weights, add, tops, shapes


def _settle(terms: list, comparison: Comparison, a: int, b: int):
    """`comparison` with base terms `a` and `b` for its sides, under every
    strict ordering of BASE: True or False where no ordering can change
    it, else the pair (x, y) of terms it needs x before y."""
    op = comparison.op
    if a == b:
        return op in ("=", "<=", ">=")
    if is_const(terms[a]) and is_const(terms[b]):
        return comparison.holds(terms[a].value, terms[b].value)
    if op in ("=", "!="):
        return op == "!="  # distinct terms are never equal in a strict order
    return (a, b) if op in ("<", "<=") else (b, a)


def _compile(q: Query, terms: list, atom_bit: dict) -> list:
    """The assignments of `q`'s variables to base terms, as
    `(before, prepared)` in the scan's order; those failing a comparison
    no ordering can change, or needing an atom both present and absent,
    are left out.

    `prepared` is `(positive, negated, key, item)`: the positive and
    negated atoms as bitmasks, the group key and the aggregate item as
    tuples of base-term indexes.  `before` holds the pairs (a, b) of
    indexes an ordering must put a before b; every other comparison is
    settled here, once per scan.
    """
    index = {t: i for i, t in enumerate(terms)}
    compiled = []
    for cond in q.disjuncts:
        variables = sorted(cond.variables(), key=term_sort_key)
        for values in itertools.product(terms, repeat=len(variables)):
            gamma = dict(zip(variables, values))

            def at(t):
                return index[gamma.get(t, t)]
            settled = [_settle(terms, c, at(c.lhs), at(c.rhs))
                       for c in cond.comparisons]
            if False in settled:
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
            before = tuple(sorted({s for s in settled if s is not True}))
            key = tuple(at(t) for t in q.grouping)
            item = (tuple(at(t) for t in q.aggregate.args)
                    if q.aggregate is not None else ())
            compiled.append((before, (positive, negated, key, item)))
    return compiled


def _prepare_assignments(compiled: list, position: list) -> list:
    """The compiled assignments of one query that hold under the ordering
    that puts base term i at `position[i]`, in the compiled order.

    The comparisons left to the ordering are settled here, once per
    ordering; per subset S only the two mask tests remain.
    """
    return [prepared for before, prepared in compiled
            if all(position[a] < position[b] for a, b in before)]


def _collect_groups(prepared: list, mask: int) -> dict:
    groups: dict = {}
    for positive, negated, key, item in prepared:
        if positive & mask == positive and not negated & mask:
            groups.setdefault(key, []).append(item)
    return groups


def _pair_counterexample(q: Query, q2: Query, terms: list, rank: list,
                         subset, mask: int, ordering: CompleteOrdering,
                         prep1: list, prep2: list,
                         same_head: Optional[bool] = None,
                         memo: Optional[set] = None
                         ) -> Optional[Counterexample]:
    """Check one (S, L) unit of work; None means no disagreement.

    Group keys and items are base-term indexes into `terms`; `rank` is
    each base term's place in `term_sort_key` order, by which group keys
    are visited.  Differing heads and one-sided groups are instantiated
    under the ordering's canonical satisfying assignment.  `memo`, when
    given, holds the sorted `(left, right)` bags this ordering has
    decided valid, which are not decided again; a failing identity ends
    the scan, so the counterexample does not depend on the memo.
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
        assignment = satisfying_assignment(ordering)

        def concrete(key):
            return _instance(terms, assignment, key)
        keys = sorted(keys1 ^ keys2, key=concrete) or [
            key for key in sorted(keys1, key=concrete)
            if _value(q, terms, groups1[key], assignment)
            != _value(q2, terms, groups2[key], assignment)]
        if keys:
            return _materialize(q, q2, terms, subset, keys[0], groups1,
                                groups2, assignment)
        return None

    def by_rank(key):
        return [rank[i] for i in key]
    if keys1 != keys2:
        return _materialize(q, q2, terms, subset,
                            min(keys1 ^ keys2, key=by_rank), groups1, groups2,
                            satisfying_assignment(ordering))
    for key in sorted(keys1, key=by_rank):
        left, right = groups1[key], groups2[key]
        bags = (tuple(sorted(left)), tuple(sorted(right)))
        if bags[0] == bags[1] or memo is not None and bags in memo:
            continue
        verdict = identity.decide(identity.OrderedIdentity.unchecked(
            ordering, _as_terms(terms, left), _as_terms(terms, right), func))
        if not verdict.valid:
            return _materialize(q, q2, terms, subset, key, groups1, groups2,
                                verdict.witness)
        if memo is not None:
            memo.add(bags)
    return None


def _as_terms(terms: list, bag: list) -> tuple:
    return tuple(tuple(terms[i] for i in tup) for tup in bag)


def _instance(terms: list, assignment: Assignment, tup: tuple) -> tuple:
    return assign_tuple(assignment, tuple(terms[i] for i in tup))


def _ranks(terms: list) -> list:
    """Each base term's place in `term_sort_key` order (u10 before u2)."""
    order = sorted(range(len(terms)), key=lambda i: term_sort_key(terms[i]))
    rank = [0] * len(terms)
    for place, i in enumerate(order):
        rank[i] = place
    return rank


def _shape_key(gaps: tuple, k: int, bound: int) -> tuple:
    """The class of a lex-leader ordering for the subsets whose fresh
    variables are exactly u1..uk.

    `gaps` holds each fresh variable's gap, the number of constants below
    it; `bound` is the number of constants over the integers and 0 over
    the rationals.  The class is the gaps of u1..uk and the gaps of the
    other variables that lie between two constants (0 < gap < bound),
    where an unused integer variable takes up a slot and can pin its
    neighbours.  Orderings of one class collect the same groups on such a
    subset, and each identity has one verdict under all of them.
    """
    if not bound:
        return gaps[:k]
    return gaps[:k] + tuple(gap for gap in gaps[k:] if 0 < gap < bound)


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


def _value(q: Query, terms: list, bag: list, witness: Assignment):
    return apply(q.aggregate.function,
                 [_instance(terms, witness, t) for t in bag])


def _materialize(q: Query, q2: Query, terms: list, subset, key, groups1,
                 groups2, witness: Assignment) -> Counterexample:
    database = Database(frozenset(
        (pred, assign_tuple(witness, args)) for pred, args in subset))
    left = (_value(q, terms, groups1[key], witness)
            if key in groups1 else None)
    right = (_value(q2, terms, groups2[key], witness)
             if key in groups2 else None)
    counterexample = Counterexample(database,
                                    _instance(terms, witness, key),
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


#: the subset sizes a parallel decision scans in the caller: the empty
#: subset and the |BASE| subsets of one atom
_HEAD = range(2)


def n_equivalent(q: Query, q2: Query, n: int, workers: int = 1) -> Verdict:
    """Do the queries agree on every database with at most `n` constants?

    With `workers` > 1 the caller first scans the head, the subsets of at
    most one atom, which come first in the global order; only when no
    unit there fails are the later units split across that many
    processes of a pool that outlives the decision.  The verdict and
    counterexample do not depend on `workers`.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    if q.domain != q2.domain:
        raise ValueError("queries range over different domains")
    if q.aggregate is None or q2.aggregate is None:
        raise ValueError("n_equivalent expects aggregate queries")
    plan = _plan(q, q2, n)
    if not plan.orderings:
        hit = None  # no unit to check
    elif workers == 1:
        hit = _scan(plan)
    else:
        # most inequivalent pairs fail on one fact, and a failure in the
        # head is the first failure: it needs no pool round trip
        hit = _scan(plan, sizes=_HEAD)
        tail = range(_HEAD.stop, len(plan.base) + 1)
        if hit is None and tail:
            hit = _scan_in_pool(plan, workers, tail)
    if hit is None:
        return Verdict(EQUIVALENT, n_used=n)
    return Verdict(NOT_EQUIVALENT, n_used=n, counterexample=hit[1])


class _Plan(NamedTuple):
    """What every stride of one decision's scan shares, built once by
    the caller and sent to each worker.

    `compiled1` and `compiled2` are the queries compiled against BASE
    (`_compile`).  `orderings` holds, per ordering, `(position, ordering,
    firsts)`: its place in the lex-leader enumeration, the ordering, and
    the mask of the k (bit k) at which it is the first ordering of its
    `_shape_key` class.  With matching heads and compiled queries that
    are equal as multisets, no ordering can separate the queries and
    `orderings` is empty.  A stride prepares an ordering (`_prepare`)
    the first time it checks a unit under it.

    `shaped` is the number of fresh variables the shape skip reads: n
    with matching heads and at most nine fresh variables, else 0.  The
    scan then checks a unit (S, L) only if S's fresh variables are
    exactly u1..uk for some k and L is the first ordering of its class at
    k; every other unit has one that stands for it earlier in the global
    order, so the first failure is never skipped.  With `shaped` 0 every
    subset is read as k = 0 and every ordering is first there.
    """
    q: Query
    q2: Query
    terms: list
    base: list
    rank: list
    same_head: bool
    compiled1: list
    compiled2: list
    orderings: tuple
    shaped: int


def _plan(q: Query, q2: Query, n: int) -> _Plan:
    terms, base = build_base(q, q2, n)
    atom_bit = {atom: 1 << i for i, atom in enumerate(base)}
    same_head = _same_head(q, q2)
    compiled1 = _compile(q, terms, atom_bit)
    compiled2 = _compile(q2, terms, atom_bit)
    constants = len(terms) - n
    fresh = terms[constants:]
    # walked orderings keep the fresh variables in name order, which is
    # their index order only up to u9 (u10 sorts before u2)
    shaped = (n if same_head and fresh == sorted(fresh, key=term_sort_key)
              else 0)
    bound = constants if q.domain == INTEGERS else 0
    classes = [set() for _ in range(shaped)]  # per k, the keys seen so far
    orderings = []
    if not same_head or Counter(compiled1) != Counter(compiled2):
        for position, ordering in enumerate(enumerate_complete_orderings(
                terms, q.domain, injective_only=True)):
            # at k = shaped each ordering is a class of its own
            firsts = 1 << shaped
            if shaped:
                gaps = _gaps(ordering)
                # two orderings of one class at k share their classes
                # below k, so the new classes end at the first one seen
                # before
                for k in reversed(range(shaped)):
                    key = _shape_key(gaps, k, bound)
                    if key in classes[k]:
                        break
                    classes[k].add(key)
                    firsts |= 1 << k
            orderings.append((position, ordering, firsts))
    return _Plan(q, q2, terms, base, _ranks(terms), same_head, compiled1,
                 compiled2, tuple(orderings), shaped)


def _gaps(ordering: CompleteOrdering) -> tuple:
    """Each fresh variable's gap, the number of constants below it, in
    the order the injective `ordering` puts the variables in."""
    gaps = []
    below = 0
    for (term,) in ordering.classes:
        if is_const(term):
            below += 1
        else:
            gaps.append(below)
    return tuple(gaps)


def _prepare(plan: _Plan, ordering: CompleteOrdering):
    """`(prep1, prep2, idle, differing, memo)` for one ordering: both
    queries' prepared assignments, the mask of the atoms neither reads,
    the masks of the prepared assignments the queries disagree on (None
    for differing heads) and an empty memo of the bags decided valid; or
    None when both queries prepare the same assignments."""
    position = [ordering.position(t) for t in plan.terms]
    prep1 = _prepare_assignments(plan.compiled1, position)
    prep2 = _prepare_assignments(plan.compiled2, position)
    differing = _differing_masks(prep1, prep2) if plan.same_head else None
    if differing is not None and not differing:
        return None  # both queries collect the same bags on every subset
    used = 0
    for positive, negated, _, _ in prep1 + prep2:
        used |= positive | negated
    idle = ((1 << len(plan.base)) - 1) & ~used
    return prep1, prep2, idle, differing, set()


def _scan(plan: _Plan, offset: int = 0, workers: int = 1,
          sizes: Optional[range] = None):
    """The stride `offset` of `workers` over the plan's (S, L) units whose
    subset has a size in `sizes` (by default every unit), in the global
    order (subset first, ordering second): its first failing unit as
    `(unit index, counterexample)`, or None.  Unit indexes are global, so
    the strides of one range and the scans of consecutive ranges merge
    by the lowest index.

    An ordering is prepared when the scan first checks a unit under it,
    and kept for the rest of the scan; one whose queries prepare the
    same assignments leaves the walk, and a scan with no ordering left
    stops."""
    q, q2 = plan.q, plan.q2
    # per ordering, [position, ordering, firsts, its `_prepare` or None]
    walk = [[*entry, None] for entry in plan.orderings]
    every_atom = (1 << len(plan.base)) - 1
    weights, add, tops, shapes = _shape_weights(plan.base, plan.terms,
                                                plan.shaped)
    sizes = range(len(plan.base) + 1) if sizes is None else sizes
    # the units of every smaller subset come first
    start = len(plan.orderings) * sum(math.comb(len(plan.base), size)
                                      for size in range(sizes.start))
    for first, (subset, weight) in zip(
            itertools.count(start, len(plan.orderings)),
            _subsets(plan.base, weights, sizes)):
        shape = shapes.get((weight + add) & tops)
        if shape is None:
            continue  # S renamed onto u1..uk comes earlier
        mask = weight & every_atom
        for entry in walk:
            position, ordering, firsts, prepared = entry
            unit = first + position
            if unit % workers != offset or not firsts & shape:
                continue
            if prepared is None:
                prepared = entry[3] = _prepare(plan, ordering)
                if prepared is None:
                    walk = [other for other in walk if other is not entry]
                    if not walk:
                        return None  # no ordering can separate the queries
                    continue
            prep1, prep2, idle, differing, memo = prepared
            if mask & idle or differing is not None \
                    and not _fires(differing, mask):
                continue
            ce = _pair_counterexample(q, q2, plan.terms, plan.rank, subset,
                                      mask, ordering, prep1, prep2,
                                      plan.same_head, memo)
            if ce is not None:
                return unit, ce
    return None


# The process's worker pool: built by the first parallel decision that has
# units to check, kept for later ones, rebuilt after a fork or for another
# worker count, and shut down at exit.  The lock keeps two threads from
# sharing it mid-decision.
_pool_lock = threading.Lock()
_pool_key: Optional[tuple] = None  # (pid, workers) of _pool
_pool: Optional[ProcessPoolExecutor] = None


def _shared_pool(workers: int) -> ProcessPoolExecutor:
    """This process's pool of `workers` processes."""
    global _pool, _pool_key
    key = (os.getpid(), workers)
    if _pool_key != key:
        _drop_pool()
        # imported here: it makes up a fifth of the package's import time,
        # and only a decision that reaches the pool uses it
        from concurrent.futures import ProcessPoolExecutor
        _pool, _pool_key = ProcessPoolExecutor(max_workers=workers), key
        # the executor module, imported after this one, is cleared first at
        # interpreter teardown, so the pool must be shut down before that;
        # unregistering first keeps one registration
        atexit.unregister(_drop_pool)
        atexit.register(_drop_pool)
    return _pool


def _drop_pool() -> None:
    """Forget the pool, shutting it down if this process built it (a
    forked child holds only a copy of its parent's)."""
    global _pool, _pool_key
    if _pool_key is not None and _pool_key[0] == os.getpid():
        _pool.shutdown()
    _pool = _pool_key = None


def _scan_in_pool(plan: _Plan, workers: int, sizes: range):
    """The lowest-index failure of the units with a subset size in
    `sizes`, one stride per pool process, or None.

    A broken pool is dropped, never reused.  Decisions are pure, so the
    decision runs once more on a fresh pool; a second break propagates.
    """
    from concurrent.futures.process import BrokenProcessPool
    with _pool_lock:
        for retry in (False, True):
            try:
                hits = list(_shared_pool(workers).map(
                    _scan, itertools.repeat(plan, workers), range(workers),
                    itertools.repeat(workers, workers),
                    itertools.repeat(sizes, workers)))
                break
            except BrokenProcessPool:
                _drop_pool()
                if retry:
                    raise
    # the lowest global index wins, so scheduling cannot change the output
    return min(filter(None, hits), key=lambda hit: hit[0], default=None)


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
    counted = AggregateTerm(FUNCTIONS["count"], ())
    return equivalent(replace(q, aggregate=counted),
                      replace(q2, aggregate=counted), workers=workers)
