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
- With matching heads, a unit can separate the queries only if an
  assignment one query holds more often than the other fires on S (its
  positive atoms in S, its negated atoms not; `_differing_masks`).
- With matching heads, a level is skipped before any ordering is built,
  and an ordering leaves its level's walk as it is prepared, where the
  agreement rule below holds: on the compiled assignments of the level
  and every earlier one, or on the ordering's prepared assignments.
  Equal bags can still disagree under two functions (max and min):
  differing heads are not skipped.

Agreement (`_agree_on_every_subset`): do the queries take the same value
on every group of every subset?  An assignment fires on the subsets of
its cube: those holding its positive atoms and none of its negated ones.
Under max, min, top2, bot2 and cntd a group's value is a function of its
set of items, which a strict ordering keeps apart, so it is enough that
each (key, item) fires on the same subsets on both sides: each cube of
one side lies in the union of the other side's (Shannon expansion on an
atom).  Under count, parity, sum and prod each key must fire on the same
subsets, and per item symbol a group counts a weight per firing
assignment (under prod, the item's power): a polynomial in the atoms,
and the sides agree where the difference is 0 (mod 2 for parity).  Under
an ordering over the integers an item is first renamed by its reduction,
so a variable pinned to 1 weighs nothing under prod.  A compiled
assignment's `before` pairs join its cube as literals, read as free
booleans, so agreement there holds under every ordering; a group's value
adds up over the assignments of the levels, so each level is compared on
its own.  Then every group is on both sides or neither, and every
identity holds under every assignment that satisfies the ordering, so
the first failure is kept.  The orderings placed into a dropped one
start from its agreeing assignments, so only their own level's
assignments told apart can separate the queries.  avg stays on the walk:
a common factor per key does not add up over the levels.

The walk decides no identity whose sides are the same function of the
same terms (`identity.holds_everywhere`) twice: one set of sorted bags
per decision holds them.  A level is planned when reached: `_compile`
holds each query's assignments to its terms that use uk, by index
arithmetic built once per disjunct (`_program`), and settles the
comparisons no strict ordering can change, each other one a pair of
terms the ordering must put in that order, so preparing an ordering
filters on term positions.  A level's orderings place uk into the
previous level's (`orderings.place_next_variable`), and each is prepared
from its parent's prepared assignments plus the level's own, a parent
not yet prepared being prepared first; only level 0 starts from none.
An ordering whose uk stays above every term is its parent's.

Full equivalence reduces to N-equivalence at the pair's term size for
the decomposable functions (count, sum, max, min, parity, top2) and for
prod over the rationals; avg and cntd are reported unsupported.
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from typing import Iterator, Optional

from . import identity, oracle
from .aggregation import FUNCTIONS, Value, _set, apply
from .model import (
    AggregateTerm, Database, INTEGERS, Query, RATIONALS, Var, is_const,
    merged_predicates, term_size_pair, term_sort_key,
)
from .orderings import (
    Assignment, CompleteOrdering, assign_tuple, enumerate_complete_orderings,
    place_next_variable, satisfying_assignment,
)
# not called here: bench/tracing.py traces the comparison layer under the
# name engine.entails, so it stays importable (and reads 0 calls)
from .orderings import entails  # noqa: F401

EQUIVALENT = "equivalent"
NOT_EQUIVALENT = "not_equivalent"
UNSUPPORTED = "unsupported"

class Counterexample(Value):
    __slots__ = _fields = ("database", "group", "left_value", "right_value")

    def __init__(self, database: Database, group: tuple, left_value: object,
                 right_value: object):
        _set(self, "_key", (database, group, left_value, right_value))
        _set(self, "database", database)
        _set(self, "group", group)
        _set(self, "left_value", left_value)
        _set(self, "right_value", right_value)


class Verdict(Value):
    __slots__ = _fields = ("status", "counterexample", "n_used", "reason")

    def __init__(self, status: str,
                 counterexample: Optional[Counterexample] = None,
                 n_used: Optional[int] = None, reason: Optional[str] = None):
        _set(self, "_key", (status, counterexample, n_used, reason))
        _set(self, "status", status)
        _set(self, "counterexample", counterexample)
        _set(self, "n_used", n_used)
        _set(self, "reason", reason)

    @property
    def equivalent(self) -> bool:
        return self.status == EQUIVALENT


# ---------------------------------------------------------------------------
# BASE
# ---------------------------------------------------------------------------

def _base_terms(q: Query, q2: Query, n: int) -> list:
    """The query constants in order, then n fresh variables u1..un, whose
    lowercase names cannot collide with parsed query variables."""
    constants = sorted(q.constants() | q2.constants(), key=term_sort_key)
    return constants + [Var(f"u{i}") for i in range(1, n + 1)]


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


def _compile(plan: "_Plan", program: list, k: int) -> tuple:
    """The assignments of a query's variables (its `_program`) to the
    terms of level k, the constants and u1..uk, that use uk (at level 0,
    to the constants), as a list of `(before, prepared)` and the list of
    their cubes; those failing a comparison no ordering can change, or
    needing an atom both present and absent, are left out.

    `prepared` is `(positive, negated, key, item)`: the atoms as bitmasks
    over BASE, group key and aggregate item as term indexes.  `before`
    holds the pairs (a, b) an ordering must put a before b; the other
    comparisons are settled: a term against itself, two constants (their
    indexes are in value order), = or != between distinct terms.  A cube
    is `prepared` with one literal bit per pair of `before`, above BASE,
    among its positive atoms: it fires where the assignment holds and
    fires, reading each literal as a free boolean.
    """
    constants, top = plan.constants, plan.constants + k
    tail = tuple(range(constants))
    compiled, cubes = [], []
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
                    prepared = (positive, negated,
                                tuple([row[o] for o in key]),
                                tuple([row[o] for o in item]))
                    compiled.append((tuple(sorted(before)), prepared))
                    for a, b in before:  # a literal bit each, above BASE
                        positive |= 1 << (len(plan.base)
                                          + a * len(plan.terms) + b)
                    cubes.append((positive, *prepared[1:]) if before
                                 else prepared)
    return compiled, cubes


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
                         everywhere: Optional[set] = None
                         ) -> Optional[Counterexample]:
    """Check the unit (S, L), S the atoms in `mask`; None: no disagreement.

    The queries, base terms, ranks and head match are read from `plan`.
    Group keys and items are base-term indexes into `plan.terms`;
    `plan.rank` is each base term's place in `term_sort_key` order, by
    which group keys are visited.  Differing heads and one-sided groups
    are instantiated under the ordering's canonical satisfying
    assignment.  `everywhere`, when given, holds the sorted `(left,
    right)` bags of the decision that `identity.holds_everywhere` (valid
    under every ordering), which are not decided again.  A failing
    identity ends the scan, so the counterexample does not depend on it.
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
        if everywhere is not None and bags in everywhere:
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
    """(positive, negated) masks of the assignments, prepared or compiled
    cubes, that one query holds more often than the other: a subset on
    which none of them fires gives both queries the same groups."""
    if prep1 == prep2:
        return set()  # the same assignments in the same order
    balance: dict = {}
    for sign, prepared in ((1, prep1), (-1, prep2)):
        for entry in prepared:
            balance[entry] = balance.get(entry, 0) + sign
    return {entry[:2] for entry, surplus in balance.items() if surplus}


def _fires(masks, mask: int) -> bool:
    """Does an assignment with one of `masks` fire on the subset `mask`?"""
    return any(positive & mask == positive and not negated & mask
               for positive, negated in masks)


def _agree_on_every_subset(plan: "_Plan", prep1: list, prep2: list,
                           ordering: Optional[CompleteOrdering] = None
                           ) -> bool:
    """Do the queries, with matching heads, take the same value on every
    group and every subset S, given their assignments prepared under
    `ordering`, or compiled cubes when it is None?  An assignment fires on
    the subsets of its cube: those holding its positive atoms and none of
    its negated ones.  max, min, top2, bot2 and cntd read the set of
    items, so each `(key, item)` must fire on the same subsets
    (`_same_supports`); under count, parity, sum and prod each key must
    (a group of zeros, ones or of even size still differs from none),
    and then each group's value must be the same polynomial
    (`_same_sums`).  avg is not decided here."""
    func = plan.q.aggregate.function
    if func.name == "cntd" or func.monoid and func.monoid.idempotent:
        return _same_supports(prep1, prep2, True)  # a set of items
    return (func.name != "avg" and _same_supports(prep1, prep2, False)
            and _same_sums(plan, prep1, prep2, ordering))


def _same_supports(prep1: list, prep2: list, items: bool) -> bool:
    """Does each `(key, item)`, or each key when not `items`, fire on the
    same subsets under both lists of prepared assignments?  Each cube of
    one side that the other lacks must lie in the union of the other
    side's cubes with its `(key, item)`."""
    first, second = set(prep1), set(prep2)
    for mine, theirs in ((first, second), (second, first)):
        missing = mine - theirs
        if missing:
            cubes: dict = {}
            for positive, negated, key, item in theirs:
                cubes.setdefault((key, item) if items else key, []).append(
                    (positive, negated))
            for positive, negated, key, item in missing:
                if not _covered(positive, negated, cubes.get(
                        (key, item) if items else key, ())):
                    return False
    return True


def _covered(positive: int, negated: int, cubes) -> bool:
    """Does one of `cubes`, as `(positive, negated)` masks, fire on each
    subset of the cube (`positive`, `negated`)?  Shannon expansion: a
    cube firing on all of it covers it, none firing on any of it leaves
    it uncovered, and otherwise both halves of a split on an atom one of
    them reads must be covered."""
    live = []
    for p, n in cubes:
        if p & negated or n & positive:
            continue  # fires on none of it
        if not (p & ~positive or n & ~negated):
            return True  # fires on all of it
        live.append((p, n))
    if not live:
        return False
    p, n = live[0]
    free = (p | n) & ~(positive | negated)
    atom = free & -free
    return (_covered(positive | atom, negated, live)
            and _covered(positive, negated | atom, live))


def _same_sums(plan: "_Plan", prep1: list, prep2: list,
               ordering: Optional[CompleteOrdering]) -> bool:
    """Does each key take the same count, parity, sum or prod under both
    lists of assignments, prepared under `ordering` or compiled (None),
    on every subset?  A cube's indicator is the polynomial in the atoms
    sum over T within its negated atoms of (-1)^|T| x^(positive | T), so
    a key's value is a polynomial whose coefficients are the items'
    weights, per symbol: 1 under count and parity; under sum the item's
    value, a constant's or the term itself as a symbol; under prod the
    item's class as a symbol, counting its power.  Over the integers an
    item is first renamed by the ordering's reduction, so a variable
    pinned to a value weighs as that constant.  An item of 0 under sum,
    or of 1 under prod, weighs nothing.  The two sides agree when their
    difference is 0 (mod 2 under parity)."""
    func = plan.q.aggregate.function.name
    renaming = (ordering.reduction[1] if ordering is not None
                and ordering.domain == INTEGERS else {})
    difference: dict = {}
    for sign, prepared in ((1, prep1), (-1, prep2)):
        for positive, negated, key, item in prepared:
            symbol, weight = None, sign
            if func in ("sum", "prod"):
                symbol = plan.terms[item[0]]
                symbol = renaming.get(symbol, symbol)
                if is_const(symbol):
                    if symbol.value == (0 if func == "sum" else 1):
                        continue  # the item the monoid ignores
                    if func == "sum":
                        symbol, weight = None, sign * symbol.value
            subset = negated
            while True:
                monomial = (key, symbol, positive | subset)
                difference[monomial] = difference.get(monomial, 0) + (
                    -weight if subset.bit_count() & 1 else weight)
                if not subset:
                    break
                subset = (subset - 1) & negated
    if func == "parity":
        return not any(value % 2 for value in difference.values())
    return not any(difference.values())


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


def n_equivalent(q: Query, q2: Query, n: int) -> Verdict:
    """Do the queries agree on every database with at most `n` constants?"""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if q.domain != q2.domain:
        raise ValueError("queries range over different domains")
    if q.aggregate is None or q2.aggregate is None:
        raise ValueError("n_equivalent expects aggregate queries")
    hit = _scan(_plan(q, q2, n))
    if hit is None:
        return Verdict(EQUIVALENT, n_used=n)
    return Verdict(NOT_EQUIVALENT, n_used=n, counterexample=hit[1])


class _Plan:
    """What a decision's walk reads: BASE over `terms` (the constants,
    then u1..un) and its `predicates`, both queries' `_program`, and per
    level both queries' `_compile` and, with matching heads, the masks of
    the compiled cubes one query holds more often than the other
    (`_differing_masks`), none where `_agree_on_every_subset` holds on
    them, filled as the walk goes."""
    __slots__ = ("q", "q2", "terms", "constants", "base", "predicates",
                 "rank", "same_head", "programs", "compiled")

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values):
            setattr(self, name, value)


def _plan(q: Query, q2: Query, n: int) -> _Plan:
    terms, base = build_base(q, q2, n)
    predicates = merged_predicates(q, q2)
    names, constants = sorted(predicates), len(terms) - n
    offsets = dict(zip(names, itertools.accumulate(
        (len(terms) ** predicates[pred] for pred in names), initial=0)))
    return _Plan(q, q2, terms, constants, base, predicates, _ranks(terms),
                 _same_head(q, q2),
                 tuple(_program(terms, constants, offsets, query)
                       for query in (q, q2)), [])


def _walked_levels(plan: _Plan) -> Iterator[int]:
    """The levels the scan walks, each compiled first (with those before
    it): with differing heads level n, with matching heads each level but
    those skipped whole, where the queries agree on every subset under
    every ordering on the compiled cubes of it and of every earlier
    level.  Each level is compared on its own: assignments of different
    levels have different atoms, and a group's value, as a set of items,
    a support or a polynomial, adds up over them."""
    n = len(plan.terms) - plan.constants
    differ = False
    for k in range(n + 1):
        if len(plan.compiled) == k:
            (new1, cubes1), (new2, cubes2) = (_compile(plan, program, k)
                                              for program in plan.programs)
            masks = None
            if plan.same_head:
                masks = set()
                if new1 != new2 and not _agree_on_every_subset(
                        plan, cubes1, cubes2):
                    masks = _differing_masks(cubes1, cubes2)
            plan.compiled.append((new1, new2, masks))
        new1, new2, masks = plan.compiled[k]
        if plan.same_head:
            differ = differ or bool(masks)
            if differ and (new1 or new2):
                yield k
        elif k == n:
            yield k


class _Ordering:
    """An ordering of a level: the gap its last variable took, its parent
    until prepared, then each term's `position` and `prepared`: both
    queries' prepared assignments, the mask of the atoms neither reads,
    the masks they disagree on ({(0, 0)} for differing heads, none once
    `_agree_on_every_subset` holds)."""
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
        prep1, prep2, idle = [], [], (1 << len(plan.base)) - 1
        position = [state.ordering.position(t) for t in plan.terms]
    else:
        prep1, prep2, idle, differing = (
            parent.prepared or _prepare(plan, parent, k - 1))
        placed, gap = plan.constants + k - 1, state.gap
        position = parent.position
        if gap < placed:  # uk moves down, and the terms it passes move up
            position = [p + 1 if gap <= p < placed else p for p in position]
            position[placed] = gap
    new1, new2 = (_prepare_assignments(plan.compiled[k][side], position)
                  for side in (0, 1))
    for positive, negated, _, _ in new1 + new2:
        idle &= ~(positive | negated)
    prep1, prep2 = prep1 + new1, prep2 + new2
    if not plan.same_head:
        differing = {(0, 0)}  # fires on every subset
    elif parent is None:  # level 0's cubes, decided as they were compiled
        differing = plan.compiled[0][2]
    else:
        differing = differing | _differing_masks(new1, new2)
        if differing and _agree_on_every_subset(plan, prep1, prep2,
                                                state.ordering):
            differing = set()  # no unit under it can fail
    state.prepared = (prep1, prep2, idle, differing)
    state.position, state.parent = position, None
    return state.prepared


def _level_subsets(plan: _Plan, k: int) -> Iterator[int]:
    """The subsets of level k, smallest first, as masks over BASE: with
    matching heads those of BASE_k (the atoms over the constants and
    u1..uk) that use each of u1..uk, with differing heads every subset of
    BASE.  An atom's weight is its bit plus, above the atom bits, one
    count field per fresh variable it mentions, and a subset's the sum of
    its atoms'; a count stays below its field's top bit, which adding
    `add` sets in the used ones.  Only a walked level builds them."""
    atoms, predicates = len(plan.base), plan.predicates
    fresh, field = k if plan.same_head else 0, atoms.bit_length() + 1
    count = [0] * plan.constants + [1 << (atoms + field * j)
                                    for j in range(k)]
    combos = itertools.chain.from_iterable(
        itertools.product(range(len(plan.terms)), repeat=predicates[pred])
        for pred in sorted(predicates))
    weights = [(1 << bit) + sum(map(count.__getitem__, set(combo)))
               for bit, combo in enumerate(combos)
               if max(combo, default=-1) < len(count)]  # an atom of BASE_k
    low = sum(count[plan.constants:plan.constants + fresh])
    tops = low << (field - 1)  # the top bit of each field
    add = tops - low
    every_atom = (1 << atoms) - 1
    # the atoms needed to use every fresh variable
    smallest = -(-fresh // (max(predicates.values(), default=0) or 1))
    for size in range(smallest, len(weights) + 1):
        summed = map(sum, itertools.combinations(weights, size))
        if tops:  # keep the subsets that use every fresh variable
            summed, counted = itertools.tee(summed)
            summed = itertools.compress(summed, map(
                tops.__eq__, map(tops.__and__, map(add.__add__, counted))))
        yield from map(every_atom.__and__, summed)


def _scan(plan: _Plan):
    """The walk's first failing unit as `((level, index within it),
    counterexample)`, or None."""
    states, built, everywhere = [], -1, set()
    for k in _walked_levels(plan):
        while built < k:
            built += 1
            states = _extend(plan, states, built)
        walk = list(enumerate(states))
        for first, mask in zip(itertools.count(0, len(states)),
                               _level_subsets(plan, k)):
            for position, state in walk:
                prep1, prep2, idle, differing = (
                    state.prepared or _prepare(plan, state, k))
                if not differing:
                    # both queries take the same values on every subset
                    walk = [entry for entry in walk if entry[1] is not state]
                    continue
                if mask & idle or not _fires(differing, mask):
                    continue
                ce = _pair_counterexample(plan, mask, state.ordering,
                                          prep1, prep2, everywhere)
                if ce is not None:
                    return (k, first + position), ce
            if not walk:
                break  # no ordering of this level can separate the queries
    return None


# ---------------------------------------------------------------------------
# Local and full equivalence
# ---------------------------------------------------------------------------

def locally_equivalent(q: Query, q2: Query) -> Verdict:
    """N-equivalence at the pair's term size."""
    return n_equivalent(q, q2, term_size_pair(q, q2))


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


def equivalent(q: Query, q2: Query) -> Verdict:
    """Full equivalence, via the reduction to local equivalence: sound
    and complete for the decomposable functions and for prod over the
    rationals; `unsupported_verdict` reports the rest."""
    verdict = unsupported_verdict(q, q2)
    if verdict is None:
        verdict = locally_equivalent(q, q2)
        # the reduction needs matching heads; a local counterexample
        # still disproves equivalence outright
        if verdict.status != NOT_EQUIVALENT and not _same_head(q, q2):
            verdict = Verdict(UNSUPPORTED, reason=(
                "queries have different head signatures; equivalence is "
                "only decided for matching heads"))
    return verdict


def bagset_equivalent(q: Query, q2: Query) -> Verdict:
    """Bag-set equivalence of two non-aggregate queries: equivalence of
    the queries with count adjoined to their heads."""
    if q.aggregate is not None or q2.aggregate is not None:
        raise ValueError("bagset_equivalent expects non-aggregate queries")
    counted = AggregateTerm(FUNCTIONS["count"], ())
    return equivalent(replace(q, aggregate=counted),
                      replace(q2, aggregate=counted))
