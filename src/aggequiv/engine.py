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

The walk goes level by level, in the global order (level, subset,
ordering).  Level k holds the subsets that use exactly the fresh
variables u1..uk, under the orderings of the constants and u1..uk that
keep u1 < ... < uk, with u(k+1)..un above every term.  Every other unit
has one there that stands for it.  The queries never mention the fresh
variables, so (S, L) has the groups of (pi S, pi L) for the renaming pi
that puts L's fresh variables in order (lex-leader symmetry breaking).
With matching heads, every assignment that fires on S maps the query
variables to terms of S or to constants (a variable is safe through a
positive atom or an = chain to one, and = between distinct terms is
false), so the groups depend only on S and on the order L puts S's
terms and the constants in: rename S's k fresh variables onto u1..uk in
L order, the others above every term, and that unit of level k collects
the renamed groups.  Over the rationals it has the same verdict; over
the integers it describes more databases (an unused variable between
two constants can pin a used one, one above every term pins nothing),
so a failure of (S, L) fails it too.  So verdicts are kept, and the
first counterexample has the fewest fresh values: a pair that fails
first at level k is (k - 1)-equivalent.  Differing heads are compared
on the canonical instance of the whole ordering, which the projection
does not keep, so their walk is level n alone, every subset of BASE.

Units are skipped, their index still counted, where an earlier unit
stands for them or no check can fail, so the first failure is kept:

- Under one ordering, an atom in no prepared assignment of either query
  (say p(u1) when both read p(Y) only with Y = 1) is idle: S holding it
  has the groups of S without it, an earlier unit.
- With matching heads, a unit can separate the queries only if some
  prepared assignment that one query has more often than the other
  fires on S (its positive atoms in S, its negated atoms not); so a
  level is skipped where neither query has an assignment using uk or
  both have the same ones so far, and an ordering where both prepare
  the same ones leaves the level's walk.  Equal bags can still disagree
  under two functions (max and min): differing heads are not skipped.

Each stride decides no identity twice, by two sets of sorted bags: one
per decision of those whose sides are the same function of the same
terms (`identity.holds_everywhere`), valid under every ordering, and one
per ordering of those decided valid under it.  A failing identity ends
the stride, so neither changes a counterexample.  A level is planned
when reached: `_compile` holds each query's assignments to its terms
that use uk, by index arithmetic built once per disjunct (`_program`),
and settles the comparisons no strict ordering can change, each other
one a pair of terms the ordering must put in that order, so preparing
an ordering filters on term positions.  A level's orderings place uk
into the previous level's (`orderings.place_next_variable`), and each
is prepared from its parent's prepared assignments plus the level's
own, a parent not yet prepared being prepared first; only level 0
starts from none.  An ordering whose uk stays above every term is its
parent's, memo included.

Parallel scan: one loop (`_scan`) walks a decision's plan (`_plan`) in
the global order, once per process.  A walk past the head that plans
fewer than `_DISPATCH_UNITS` units (`plan_units`) costs less in the
caller than the round trip, so the caller walks it all as the only
stride and touches no process, pipe or lock.  Otherwise, with K workers
and s = min(K, usable CPUs) strides, stride 0 walks the head, levels 0
and 1, whole (differing heads walk level n alone, so all of it when
n <= 1, none otherwise), and from level 2 on stride i walks the units
whose index within their level is i modulo s.  The caller runs stride
0, so a failure in the head, where most inequivalent pairs fail,
involves no process.  As its walk first passes the head it sends the
plan, pickled once, down a pipe to each of s - 1 worker processes,
which skip the head and run the other strides, compiling the levels the
plan lacks.  The caller then reads their replies; the lowest (level,
index) of the first failures wins, so the output is the one-worker
output.  The workers, and `multiprocessing`, come with the first
parallel decision that reaches them and are kept for later ones
(`_workers`); at exit each is sent a stop and joined, and one whose
caller died without a stop leaves at end of file.  They start by the
default start method, so a program with threads can choose `spawn` or
`forkserver`; a job carries the plan, so workers need no state
inherited by fork.

Full equivalence reduces to N-equivalence at the pair's term size for
the decomposable functions (count, sum, max, min, parity, top2) and for
prod over the rationals; avg and cntd are reported unsupported.
"""

from __future__ import annotations

import atexit
import contextlib
import itertools
import math
import os
import threading
from dataclasses import dataclass, replace
from typing import Iterator, NamedTuple, Optional

from . import identity, oracle
from .aggregation import FUNCTIONS, apply
from .model import (
    AggregateTerm, Database, Query, RATIONALS, Var,
    merged_predicates, term_size_pair, term_sort_key,
)
from .orderings import (
    Assignment, CompleteOrdering, assign_tuple, count_lex_leaders,
    enumerate_complete_orderings, place_next_variable, satisfying_assignment,
)
# not called here: bench/tracing.py traces the comparison layer under the
# name engine.entails, so it stays importable (and reads 0 calls)
from .orderings import entails  # noqa: F401

EQUIVALENT = "equivalent"
NOT_EQUIVALENT = "not_equivalent"
UNSUPPORTED = "unsupported"

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

def _program(terms: list, constants: int, offsets: dict, q: Query) -> list:
    """`q`'s disjuncts as index arithmetic: an assignment is a tuple of
    term indexes, one per variable, and an operand indexes it followed by
    every constant's index.  Per disjunct: its variable count; per atom
    its sign, its BASE index with each variable at term 0 and the step
    per variable; per comparison its operands, whether it holds between
    a term and itself, and its kind (0 =, 1 !=, 2 < <=, 3 > >=); the
    operands of the group key and of the aggregate item."""
    index = {t: i for i, t in enumerate(terms[:constants])}
    kinds = {"=": 0, "!=": 1, "<": 2, "<=": 2, ">": 3, ">=": 3}
    program = []
    for cond in q.disjuncts:
        slot = {v: i for i, v in enumerate(sorted(cond.variables(),
                                                  key=term_sort_key))}

        def operand(t):
            return slot[t] if t in slot else len(slot) + index[t]
        atoms = []
        for atom in cond.atoms:
            at, steps = offsets[atom.predicate], []
            for place, t in enumerate(reversed(atom.args)):
                if t in slot:
                    steps.append((slot[t], len(terms) ** place))
                else:
                    at += index[t] * len(terms) ** place
            atoms.append((atom.positive, at, steps))
        args = q.aggregate.args if q.aggregate is not None else ()
        program.append((
            len(slot), atoms,
            [(operand(c.lhs), operand(c.rhs), c.op in ("=", "<=", ">="),
              kinds[c.op]) for c in cond.comparisons],
            [operand(t) for t in q.grouping], [operand(t) for t in args]))
    return program


def _compile(plan: "_Plan", program: list, k: int) -> list:
    """The assignments of a query's variables (its `_program`) to the
    terms of level k, the constants and u1..uk, that use uk (at level 0,
    to the constants), as `(before, prepared)`; those failing a
    comparison no ordering can change, or needing an atom both present
    and absent, are left out.

    `prepared` is `(positive, negated, key, item)`: the atoms as bitmasks
    over BASE, group key and aggregate item as term indexes.  `before`
    holds the pairs (a, b) an ordering must put a before b; the other
    comparisons are settled: a term against itself, two constants (their
    indexes are in value order), = or != between distinct terms.
    """
    constants, top = plan.constants, plan.constants + k
    tail = tuple(range(constants))
    compiled = []
    for variables, atoms, comparisons, key, item in program:
        for values in itertools.product(range(top), repeat=variables):
            if k and top - 1 not in values:
                continue  # an assignment of an earlier level
            row = values + tail
            before = set()
            for a, b, reflexive, kind in comparisons:
                x, y = row[a], row[b]
                if x != y and kind > 1 and max(x, y) >= constants:
                    before.add((x, y) if kind == 2 else (y, x))
                elif not (reflexive if x == y else kind == 1 if kind < 2
                          else (x < y) == (kind == 2)):
                    break
            else:
                positive = negated = 0
                for sign, at, steps in atoms:
                    for s, step in steps:
                        at += row[s] * step
                    if sign:
                        positive |= 1 << at
                    else:
                        negated |= 1 << at
                if not positive & negated:
                    compiled.append((tuple(sorted(before)), (
                        positive, negated, tuple([row[o] for o in key]),
                        tuple([row[o] for o in item]))))
    return compiled


def _prepare_assignments(compiled: list, position: list) -> list:
    """The compiled assignments of one query that hold under the ordering
    that puts base term i at `position[i]`, in the compiled order.

    The comparisons left to the ordering are settled here, once per
    ordering; per subset S only the two mask tests remain.
    """
    return [prepared for before, prepared in compiled
            if not before
            or all(position[a] < position[b] for a, b in before)]


def _collect_groups(prepared: list, mask: int) -> dict:
    groups: dict = {}
    for positive, negated, key, item in prepared:
        if positive & mask == positive and not negated & mask:
            groups.setdefault(key, []).append(item)
    return groups


def _pair_counterexample(plan: "_Plan", mask: int,
                         ordering: CompleteOrdering, prep1: list, prep2: list,
                         memo: Optional[set] = None,
                         everywhere: Optional[set] = None
                         ) -> Optional[Counterexample]:
    """Check the unit (S, L), S the atoms in `mask`; None: no disagreement.

    The queries, base terms, ranks and head match are read from `plan`.
    Group keys and items are base-term indexes into `plan.terms`;
    `plan.rank` is each base term's place in `term_sort_key` order, by
    which group keys are visited.  Differing heads and one-sided groups
    are instantiated under the ordering's canonical satisfying
    assignment.  `memo`, when given, holds the sorted `(left, right)`
    bags this ordering has decided valid, and `everywhere` those of the
    decision that `identity.holds_everywhere` (valid under every
    ordering); neither is decided again.  A failing identity ends the
    scan, so the counterexample depends on neither.
    """
    q, q2, terms, rank = plan.q, plan.q2, plan.terms, plan.rank
    groups1 = _collect_groups(prep1, mask)
    groups2 = _collect_groups(prep2, mask)
    func = q.aggregate.function
    if plan.same_head and groups1 == groups2:
        return None  # the same bags in the same order: no identity can fail
    keys1, keys2 = set(groups1), set(groups2)
    if not plan.same_head:
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
            return _materialize(plan, mask, keys[0], groups1, groups2,
                                assignment)
        return None

    def by_rank(key):
        return [rank[i] for i in key]
    if keys1 != keys2:
        return _materialize(plan, mask, min(keys1 ^ keys2, key=by_rank),
                            groups1, groups2, satisfying_assignment(ordering))
    for key in sorted(keys1, key=by_rank):
        left, right = groups1[key], groups2[key]
        bags = (tuple(sorted(left)), tuple(sorted(right)))
        if (everywhere is not None and bags in everywhere
                or memo is not None and bags in memo):
            continue
        left, right = _as_terms(terms, left), _as_terms(terms, right)
        if identity.holds_everywhere(func, left, right):
            if everywhere is not None:
                everywhere.add(bags)
            continue
        verdict = identity.decide(identity.OrderedIdentity.unchecked(
            ordering, left, right, func))
        if not verdict.valid:
            return _materialize(plan, mask, key, groups1, groups2,
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
    rank = [0] * len(terms)
    for place, i in enumerate(sorted(range(len(terms)),
                                     key=lambda i: term_sort_key(terms[i]))):
        rank[i] = place
    return rank


def _same_head(q: Query, q2: Query) -> bool:
    """Same aggregate function and grouping arity."""
    return (q.aggregate.function.name == q2.aggregate.function.name
            and len(q.grouping) == len(q2.grouping))


def _differing_masks(prep1: list, prep2: list) -> set:
    """(positive, negated) masks of the prepared assignments that one
    query prepares more often than the other."""
    balance: dict = {}
    for prepared in prep1:
        balance[prepared] = balance.get(prepared, 0) + 1
    for prepared in prep2:
        balance[prepared] = balance.get(prepared, 0) - 1
    return {prepared[:2] for prepared, surplus in balance.items() if surplus}


def _fires(masks, mask: int) -> bool:
    """Does an assignment with one of `masks` fire on the subset `mask`?"""
    return any(positive & mask == positive and not negated & mask
               for positive, negated in masks)


def _value(q: Query, terms: list, bag: list, witness: Assignment):
    return apply(q.aggregate.function,
                 [_instance(terms, witness, t) for t in bag])


def _materialize(plan: "_Plan", mask: int, key, groups1, groups2,
                 witness: Assignment) -> Counterexample:
    database = Database(frozenset(
        (pred, assign_tuple(witness, args))
        for i, (pred, args) in enumerate(plan.base) if mask >> i & 1))
    left, right = (
        _value(query, plan.terms, groups[key], witness) if key in groups
        else None for query, groups in ((plan.q, groups1), (plan.q2, groups2)))
    counterexample = Counterexample(
        database, _instance(plan.terms, witness, key), left, right)
    _verify_counterexample(plan.q, plan.q2, counterexample)
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


#: the head: the levels below this one (no fresh value and one)
_HEAD_LEVELS = 2
#: the fewest units planned past the head that are sent to the workers;
#: a smaller walk costs less in the caller than the round trip
_DISPATCH_UNITS = 40000


def n_equivalent(q: Query, q2: Query, n: int, workers: int = 1) -> Verdict:
    """Do the queries agree on every database with at most `n` constants?

    With `workers` > 1 a walk past the head of at least `_DISPATCH_UNITS`
    planned units is split into min(`workers`, usable CPUs) strides, the
    caller's and those of worker processes that outlive the decision; the
    output does not depend on `workers`.
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
    strides = 1 if workers == 1 else min(workers, _usable_cpus())
    hit = _scan(plan) if strides == 1 else _parallel_scan(plan, strides)
    if hit is None:
        return Verdict(EQUIVALENT, n_used=n)
    return Verdict(NOT_EQUIVALENT, n_used=n, counterexample=hit[1])


def plan_units(q: Query, q2: Query, n: int) -> list:
    """Each level's `(subsets, orderings)` before any skip, without
    walking: with matching heads the subsets of level k's atoms that use
    each of u1..uk (inclusion-exclusion over those left unused), with
    differing heads every subset of BASE at level n and none below; the
    orderings are the lex-leaders of the constants and u1..uk."""
    values = sorted(t.value for t in q.constants() | q2.constants())
    arities, c = merged_predicates(q, q2).values(), len(values)
    # the subsets of the atoms over m terms, for every m up to BASE's terms
    every = [2 ** sum(m ** arity for arity in arities)
             for m in range(c + n + 1)]
    levels = []
    for k, orderings in enumerate(count_lex_leaders(values, n, q.domain)):
        if _same_head(q, q2):
            subsets = sum((-1) ** j * math.comb(k, j) * every[c + k - j]
                          for j in range(k + 1))
        else:
            subsets = every[c + n] if k == n else 0
        levels.append((subsets, orderings))
    return levels


class _Plan(NamedTuple):
    """What every stride of a decision shares: BASE over `terms` (the
    constants, then u1..un), both queries' `_program`, per atom its level
    and weight and the largest arity (`weights`), and per level both
    queries' `_compile`, filled as the walk goes."""
    q: Query
    q2: Query
    terms: list
    constants: int
    base: list
    rank: list
    same_head: bool
    programs: tuple
    weights: tuple
    compiled: list


def _plan(q: Query, q2: Query, n: int) -> _Plan:
    terms, base = build_base(q, q2, n)
    predicates = merged_predicates(q, q2)
    names, constants = sorted(predicates), len(terms) - n
    offsets = dict(zip(names, itertools.accumulate(
        (len(terms) ** predicates[pred] for pred in names), initial=0)))
    # per atom of BASE, its level (that of the last fresh variable in it, 0
    # for none) and its weight: its bit plus, above the atom bits, one
    # count field per fresh variable it mentions
    field = len(base).bit_length() + 1
    low = [0] * constants + [1 << (len(base) + field * j) for j in range(n)]
    levels, weights = [], []
    for pred in names:
        for combo in itertools.product(range(len(terms)),
                                       repeat=predicates[pred]):
            levels.append(max(max(combo, default=0) - constants + 1, 0))
            weights.append((1 << len(weights))
                           + sum(map(low.__getitem__, set(combo))))
    return _Plan(q, q2, terms, constants, base, _ranks(terms),
                 _same_head(q, q2),
                 tuple(_program(terms, constants, offsets, query)
                       for query in (q, q2)),
                 (levels, weights, max(predicates.values(), default=0)), [])


def _walked_levels(plan: _Plan) -> Iterator[int]:
    """The levels the scan walks, each compiled first (with those before
    it): with differing heads level n, with matching heads each level but
    those skipped whole (assignments of different levels differ, so the
    multisets so far are equal when every level's are)."""
    n = len(plan.terms) - plan.constants
    differ = False
    for k in range(n + 1):
        if len(plan.compiled) == k:
            plan.compiled.append(tuple(_compile(plan, program, k)
                                       for program in plan.programs))
        new1, new2 = plan.compiled[k]
        if plan.same_head:
            differ = differ or sorted(new1) != sorted(new2)
            if differ and (new1 or new2):
                yield k
        elif k == n:
            yield k


class _Ordering:
    """An ordering of a level: the gap its last variable took, its parent
    until prepared, then each term's `position` and `prepared`: both
    queries' prepared assignments, the mask of the atoms neither reads,
    the masks they disagree on ({(0, 0)} for differing heads), the memo."""
    __slots__ = ("ordering", "gap", "parent", "prepared", "position")

    def __init__(self, ordering: CompleteOrdering, gap: int, parent):
        self.ordering, self.gap, self.parent = ordering, gap, parent
        self.prepared = self.position = None


def _extend(plan: _Plan, states: list, k: int) -> list:
    """The orderings of level k: the constants in order, then uk placed
    into each gap above u(k-1) of each ordering of level k-1; the last
    gap, above every term, keeps its parent's ordering."""
    if k == 0:
        fresh = tuple((u,) for u in plan.terms[plan.constants:])
        return [_Ordering(CompleteOrdering(chain.classes + fresh,
                                           plan.q.domain), -1, None)
                for chain in enumerate_complete_orderings(
                    plan.terms[:plan.constants], plan.q.domain)]
    return [_Ordering(ordering, gap, parent) for parent in states
            for gap, ordering in place_next_variable(
                parent.ordering, plan.constants + k - 1, parent.gap + 1)]


def _prepare(plan: _Plan, state: _Ordering, k: int) -> tuple:
    """Prepare `state`, an ordering of level k: its parent's prepared
    state (those assignments hold under `state` too), the parent prepared
    first if it is not, plus level k's assignments that hold under
    `state`.  Only an ordering of level 0, which has no parent, starts
    from none."""
    parent = state.parent
    if parent is None:
        prep1, prep2, idle, differing, memo = (
            [], [], (1 << len(plan.base)) - 1, set(), set())
        position = [state.ordering.position(t) for t in plan.terms]
    else:
        prep1, prep2, idle, differing, memo = (
            parent.prepared or _prepare(plan, parent, k - 1))
        if state.ordering is not parent.ordering:
            memo = set()
        placed, gap = plan.constants + k - 1, state.gap
        position = parent.position
        if gap < placed:  # uk moves down, and the terms it passes move up
            position = [p + 1 if gap <= p < placed else p for p in position]
            position[placed] = gap
    new1, new2 = (_prepare_assignments(plan.compiled[k][side], position)
                  for side in (0, 1))
    for positive, negated, _, _ in new1 + new2:
        idle &= ~(positive | negated)
    differing = (differing | _differing_masks(new1, new2) if plan.same_head
                 else {(0, 0)})  # fires on every subset
    state.prepared = (prep1 + new1, prep2 + new2, idle, differing, memo)
    state.position, state.parent = position, None
    return state.prepared


def _level_subsets(plan: _Plan, k: int) -> Iterator[int]:
    """The subsets of level k, smallest first, as masks over BASE: with
    matching heads those of BASE_k (the atoms over the constants and
    u1..uk) that use each of u1..uk, with differing heads every subset of
    BASE.  A subset's weight holds its mask in its low bits; a count stays
    below its field's top bit, which adding `add` sets in the used ones."""
    levels, weights, widest = plan.weights
    weights = list(itertools.compress(weights, map(k.__ge__, levels)))
    fresh, field = k if plan.same_head else 0, len(plan.base).bit_length() + 1
    low = sum(1 << (len(plan.base) + field * j) for j in range(fresh))
    tops = low << (field - 1)  # the top bit of each field
    add = tops - low
    every_atom = (1 << len(plan.base)) - 1
    smallest = -(-fresh // (widest or 1))  # atoms needed to use them all
    for size in range(smallest, len(weights) + 1):
        summed = map(sum, itertools.combinations(weights, size))
        if tops:  # keep the subsets that use every fresh variable
            summed, counted = itertools.tee(summed)
            summed = itertools.compress(summed, map(
                tops.__eq__, map(tops.__and__, map(add.__add__, counted))))
        yield from map(every_atom.__and__, summed)


def _scan(plan: _Plan, offset: int = 0, workers: int = 1, dispatch=None):
    """Stride `offset` of `workers`: its first failing unit as `((level,
    index within it), counterexample)`, or None.  Stride 0 walks the
    head whole and the others skip it; past it, each walks the units
    whose index in their level is its offset modulo `workers`, and
    `dispatch`, if given, is called as the walk first passes it and
    returns the strides the rest is walked in (1: this one alone)."""
    states, built, everywhere = [], -1, set()
    for k in _walked_levels(plan):
        head = k < _HEAD_LEVELS
        if head and offset:
            continue  # the head is stride 0's
        if not head and dispatch is not None:
            workers, dispatch = dispatch(), None
        step = 1 if head else workers
        while built < k:
            built += 1
            states = _extend(plan, states, built)
        walk = list(enumerate(states))
        for first, mask in zip(itertools.count(0, len(states)),
                               _level_subsets(plan, k)):
            for position, state in walk:
                unit = first + position
                if unit % step != offset:
                    continue
                prep1, prep2, idle, differing, memo = (
                    state.prepared or _prepare(plan, state, k))
                if not differing:
                    # both queries collect the same bags on every subset
                    walk = [entry for entry in walk if entry[1] is not state]
                    continue
                if mask & idle or not _fires(differing, mask):
                    continue
                ce = _pair_counterexample(plan, mask, state.ordering,
                                          prep1, prep2, memo, everywhere)
                if ce is not None:
                    return (k, unit), ce
            if not walk:
                break  # no ordering of this level can separate the queries
    return None


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class BrokenWorkers(RuntimeError):
    """A worker process died during a decision, and again on fresh
    workers."""


# The process's workers, one (process, connection) per stride after the
# caller's: built by the first parallel decision that has units past the
# head, kept for later ones, rebuilt after a fork or for another stride
# count, and stopped at exit.  The lock keeps two threads from sharing
# them mid-decision.
_pool_lock = threading.Lock()
_pool_key: Optional[tuple] = None  # (pid, strides) of _pool
_pool: list = []


def _work(connection, callers_end, offset: int, strides: int) -> None:
    """A worker: scan stride `offset` of `strides` of each plan received,
    compiling the levels the caller has not, and send back its first
    failure or the exception it raised, until a stop (None) arrives, or
    end of file when the caller died without sending one.  Interrupts
    are the caller's to handle: it kills a worker it leaves mid-job."""
    import signal
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # a copy of the caller's end of the pipe, held here, would keep end of
    # file from ever arriving
    callers_end.close()
    with contextlib.suppress(EOFError):
        while (plan := connection.recv()) is not None:
            try:
                reply = _scan(plan, offset, strides), None
            except Exception as exc:
                reply = None, exc
            connection.send(reply)


def _workers(strides: int) -> list:
    """This process's connections to the workers of strides 1 to
    `strides` - 1."""
    global _pool_key
    key = (os.getpid(), strides)
    if _pool_key != key:
        _drop_pool()
        # imported here: only a decision that reaches the workers uses it
        import multiprocessing
        _pool_key = key  # a worker is dropped with the others once started
        for offset in range(1, strides):
            mine, theirs = multiprocessing.Pipe()
            process = multiprocessing.Process(
                target=_work, args=(theirs, mine, offset, strides))
            process.start()
            theirs.close()
            _pool.append((process, mine))
        # registered after multiprocessing's own exit handler, which joins
        # every child, so the workers get their stop first; unregistering
        # first keeps one registration
        atexit.unregister(_drop_pool)
        atexit.register(_drop_pool)
    return [connection for _, connection in _pool]


def _drop_pool(stop: bool = True) -> None:
    """Forget the workers.  Those this process started are sent a stop,
    or killed when they may be mid-job (`stop` false), and joined; a
    forked child closes its copies of its parent's connections and takes
    the parent's workers off the children that multiprocessing's exit
    handler joins, which only their parent may do."""
    global _pool, _pool_key
    own = _pool_key is not None and _pool_key[0] == os.getpid()
    for process, connection in _pool:
        if own:
            if stop:
                with contextlib.suppress(OSError):
                    connection.send(None)
            else:
                process.kill()
            process.join()
        else:
            import multiprocessing.process  # loaded with the workers
            multiprocessing.process._children.discard(process)
        connection.close()
    _pool, _pool_key = [], None


def _parallel_scan(plan: _Plan, strides: int):
    """The lowest-index failure of the walk: stride 0 in the caller,
    strides 1 to `strides` - 1 in the workers, or None.

    As stride 0 first passes the head, `dispatch` takes the workers and
    sends them the plan, pickled once, if the walk past the head plans at
    least `_DISPATCH_UNITS` units; before that, or else, no worker is
    touched and stride 0 walks on alone.
    A worker's exception is raised here once every worker has replied.
    Workers with a dead one among them are dropped, never reused: the
    decision, being pure, reruns on fresh ones; a second break raises
    `BrokenWorkers`."""
    connections = None  # the workers', once dispatched

    def dispatch():
        nonlocal connections
        planned = plan_units(plan.q, plan.q2, len(plan.terms) - plan.constants)
        if sum(subsets * orderings for subsets, orderings
               in planned[_HEAD_LEVELS:]) < _DISPATCH_UNITS:
            return 1
        import pickle
        if connections is None:
            _pool_lock.acquire()
            connections = ()  # a failure from here on drops them
        connections = _workers(strides)
        job = pickle.dumps(plan, pickle.HIGHEST_PROTOCOL)
        for connection in connections:
            connection.send_bytes(job)
        return strides
    try:
        for retry in (False, True):
            try:
                hits = [_scan(plan, 0, strides, dispatch)]
                if connections is None:
                    return hits[0]  # no worker was involved
                replies = [connection.recv() for connection in connections]
                break
            except (EOFError, ConnectionError) as exc:  # from the pipes
                _drop_pool(stop=False)
                if retry:
                    raise BrokenWorkers("a worker process died") from exc
            except BaseException:
                if connections is not None:
                    _drop_pool(stop=False)  # the workers may be mid-job
                raise
    finally:
        if connections is not None:
            _pool_lock.release()
    for hit, error in replies:
        if error is not None:
            raise error
        hits.append(hit)
    # the lowest global index wins, so scheduling cannot change the output
    return min(filter(None, hits), key=lambda hit: hit[0], default=None)


# ---------------------------------------------------------------------------
# Local and full equivalence
# ---------------------------------------------------------------------------

def locally_equivalent(q: Query, q2: Query, workers: int = 1) -> Verdict:
    """N-equivalence at the pair's term size."""
    return n_equivalent(q, q2, term_size_pair(q, q2), workers=workers)


def unsupported_verdict(q: Query, q2: Query) -> Optional[Verdict]:
    """What `equivalent` reports without a search, or None when it
    searches: matching heads of avg, cntd, or prod over the integers,
    are open."""
    if q.aggregate is None or q2.aggregate is None:
        raise ValueError("equivalent expects aggregate queries; "
                         "use bagset_equivalent for plain ones")
    func = q.aggregate.function
    if not _same_head(q, q2) or func.decomposable or (
            func.prod_special and q.domain == RATIONALS):
        return None
    return Verdict(UNSUPPORTED, reason=(
        "equivalence of prod queries is only decided over the rationals"
        if func.prod_special else
        f"full equivalence for {func.name} queries is not decided; "
        f"bounded equivalence (nequiv) remains available"))


def equivalent(q: Query, q2: Query, workers: int = 1) -> Verdict:
    """Full equivalence, via the reduction to local equivalence: sound
    and complete for the decomposable functions and for prod over the
    rationals; `unsupported_verdict` reports the rest."""
    verdict = unsupported_verdict(q, q2)
    if verdict is None:
        verdict = locally_equivalent(q, q2, workers=workers)
        # the reduction needs matching heads; a local counterexample
        # still disproves equivalence outright
        if verdict.status != NOT_EQUIVALENT and not _same_head(q, q2):
            verdict = Verdict(UNSUPPORTED, reason=(
                "queries have different head signatures; equivalence is "
                "only decided for matching heads"))
    return verdict


def bagset_equivalent(q: Query, q2: Query, workers: int = 1) -> Verdict:
    """Bag-set equivalence of two non-aggregate queries: equivalence of
    the queries with count adjoined to their heads."""
    if q.aggregate is not None or q2.aggregate is not None:
        raise ValueError("bagset_equivalent expects non-aggregate queries")
    counted = AggregateTerm(FUNCTIONS["count"], ())
    return equivalent(replace(q, aggregate=counted),
                      replace(q2, aggregate=counted), workers=workers)
