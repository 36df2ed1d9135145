"""Complete orderings of finite term sets over the integers or rationals.

A complete ordering is a satisfiable weak order: a sequence of classes of
terms, classes strictly increasing left to right, members of one class
equal.  It decides <, = or > for every pair of terms, which is what lets
the engine collapse infinitely many concrete databases into finitely many
symbolic ones.

Integer-domain subtleties are concentrated here.  Constants anchor their
classes; a variable class squeezed between anchors with no integer room
makes the order unsatisfiable (never built), and one with exactly one
integer slot is pinned to that value (`class_bounds` reports lo == hi).
"""

from __future__ import annotations

import functools
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Iterator, Optional

from .aggregation import Value
from .model import (
    INTEGERS, Comparison, Const, Term, is_const, is_var, term_sort_key,
)

#: an assignment maps every term of an ordering to a constant;
#: constants map to themselves
Assignment = dict

_NO_RENAMING = MappingProxyType({})


class CompleteOrdering(Value):
    """Equivalence classes of terms in strictly increasing order.

    No `__slots__`: the cached properties live in the instance dict, and
    neither compare nor pickle."""

    _fields = ("classes", "domain")

    def __init__(self, classes: tuple, domain: str):
        # classes: tuple of tuples of Term, each inner tuple sorted
        self._init(classes, domain)

    @staticmethod
    def of(classes: Iterable, domain: str) -> "CompleteOrdering":
        canon = tuple(tuple(sorted(c, key=term_sort_key)) for c in classes)
        return CompleteOrdering(canon, domain)

    def terms(self):
        """The ordering's terms, as a read-only set-like view."""
        return self._positions.keys()

    def position(self, t: Term) -> int:
        try:
            return self._positions[t]
        except KeyError:
            raise KeyError(f"term {t} not in ordering") from None

    @functools.cached_property
    def _positions(self) -> dict:
        """Class index of every term, built once per ordering."""
        return {t: i for i, cls in enumerate(self.classes) for t in cls}

    def class_constant(self, i: int) -> Optional[Fraction]:
        for t in self.classes[i]:
            if is_const(t):
                return t.value
        return None

    @functools.cached_property
    def anchors(self) -> tuple:
        """(position, value) of every class containing a constant, built
        once per ordering."""
        return tuple((i, v) for i in range(len(self.classes))
                     if (v := self.class_constant(i)) is not None)

    def is_injective(self) -> bool:
        return all(len(cls) == 1 for cls in self.classes)

    def class_bounds(self, i: int):
        """Possible values of class `i` as (lo, hi); None encodes infinity.

        Over the rationals the interval is open at finite ends; over the
        integers it is closed.  Anchored classes give (value, value).
        """
        v = self.class_constant(i)
        if v is not None:
            return (v, v)
        lo = hi = None
        for p, a in self.anchors:
            if p < i:
                lo = a + (i - p) if self.domain == INTEGERS else a
            elif p > i:
                hi = a - (p - i) if self.domain == INTEGERS else a
                break
        return (lo, hi)

    @functools.cached_property
    def canonical_assignment(self) -> MappingProxyType:
        """The deterministic concrete assignment realizing the ordering,
        read-only and built once per ordering; `satisfying_assignment`
        returns a copy to change."""
        values = _class_values(self)
        return MappingProxyType({t: values[i]
                                 for i, cls in enumerate(self.classes)
                                 for t in cls})

    @property
    def reduction(self) -> tuple:
        """`(reduced ordering, renaming)`, built once per ordering: equal
        terms merged and, over the integers, a variable class with a
        single possible value replaced by that constant.

        The read-only renaming maps every eliminated term to its
        representative; representatives prefer constants, then the least
        variable name.  An ordering already reduced is its own reduction,
        with an empty renaming.
        """
        return self._reduction or (self, _NO_RENAMING)

    @functools.cached_property
    def _reduction(self) -> Optional[tuple]:
        """The reduction, or None for an ordering already reduced (caching
        the ordering on itself would make a reference cycle)."""
        renaming: dict = {}
        new_classes = []
        for i, cls in enumerate(self.classes):
            const = next((t for t in cls if is_const(t)), None)
            if const is not None:
                rep = const
            else:
                lo, hi = self.class_bounds(i)
                if lo is not None and lo == hi:
                    rep = Const(lo)
                else:
                    rep = min(cls, key=term_sort_key)
            for t in cls:
                if t != rep:
                    renaming[t] = rep
            new_classes.append((rep,))
        if not renaming:
            return None
        reduced = CompleteOrdering(tuple(new_classes), self.domain)
        return reduced, MappingProxyType(renaming)

    def __str__(self):
        return " < ".join(" = ".join(str(t) for t in cls)
                          for cls in self.classes)


def _integer_room(classes) -> bool:
    """Each run of variable classes between two anchors must fit."""
    prev_pos = prev_val = None
    for i, cls in enumerate(classes):
        vals = [t.value for t in cls if is_const(t)]
        if not vals:
            continue
        if prev_pos is not None and vals[0] - prev_val < i - prev_pos:
            return False
        prev_pos, prev_val = i, vals[0]
    return True


def is_satisfiable_order(classes, domain: str) -> bool:
    """Can the weak order `classes` be realized over `domain`: no term in
    two classes, constants strictly increasing and, over the integers,
    integral and with room for every variable class between them?"""
    seen: set = set()
    last = None
    for cls in classes:
        if not seen.isdisjoint(cls):
            return False
        seen.update(cls)
        values = {t.value for t in cls if is_const(t)}
        if values:
            value = values.pop()
            if (values or (last is not None and value <= last)
                    or (domain == INTEGERS and value.denominator != 1)):
                return False
            last = value
    return domain != INTEGERS or _integer_room(classes)


def enumerate_complete_orderings(terms: Iterable[Term], domain: str,
                                 comparisons: Iterable[Comparison] = ()
                                 ) -> Iterator[CompleteOrdering]:
    """All satisfiable weak orders on `terms` entailing every comparison in
    `comparisons`, each exactly once.

    The constants start as one chain in numeric order; each variable is then
    placed in `term_sort_key` order (so every class stays sorted), first
    merged into each class, then as a class of its own in each gap.  A
    placement is extended only if over the integers a new class leaves room
    between its anchors, and every comparison whose later sorted term is the
    variable just placed holds.  Later placements keep both true: no
    unsatisfiable order is built, and the orders come as if every ordered
    set partition were built and filtered.  A comparison with a term outside
    `terms` raises KeyError, unless both sides are constants.  With no
    variables the only order is the constants' chain.  The strict orders
    that keep the variables in sorted order, one per orbit under renaming
    them (the lex-leaders), come from `place_next_variable` instead.
    """
    items = sorted(set(terms), key=term_sort_key)
    classes = [[t] for t in items if is_const(t)]
    variables = [t for t in items if is_var(t)]
    if not is_satisfiable_order(classes, domain):
        return
    checks: dict = {v: [] for v in variables}
    for cmp in comparisons:
        if is_const(cmp.lhs) and is_const(cmp.rhs):
            if not cmp.holds(cmp.lhs.value, cmp.rhs.value):
                return
            continue
        checks[max(cmp.lhs, cmp.rhs, key=term_sort_key)].append(cmp)
    squeezable = domain == INTEGERS and len(classes) > 1

    def holds(v) -> bool:
        if not checks[v]:
            return True
        where = {t: i for i, cls in enumerate(classes) for t in cls}
        return all(_positions_imply(where[c.lhs], where[c.rhs], c.op)
                   for c in checks[v])

    def place(k: int) -> Iterator[CompleteOrdering]:
        if k == len(variables):
            yield CompleteOrdering(tuple(map(tuple, classes)), domain)
            return
        v = variables[k]
        for _ in _placements(classes, v, 0, True, squeezable):
            if holds(v):
                yield from place(k + 1)

    yield from place(0)


def _placements(classes: list, v: Term, first_gap: int, merge: bool,
                squeezable: bool) -> Iterator[Optional[int]]:
    """Place `v` into `classes`, undone after each yield: with `merge`
    into each class (yielding None), then alone into each gap from
    `first_gap` on (yielding it) that, if `squeezable`, leaves integer
    room between its anchors."""
    if merge:
        for cls in classes:
            cls.append(v)
            yield None
            cls.pop()
    for gap in range(first_gap, len(classes) + 1):
        classes.insert(gap, [v])
        if not squeezable or _integer_room(classes):
            yield gap
        del classes[gap]


def place_next_variable(ordering: CompleteOrdering, placed: int,
                        first_gap: int) -> Iterator[tuple]:
    """The lex-leaders one variable at a time: in the strict `ordering`,
    whose classes from `placed` on are variables above every other term,
    move the variable of class `placed` into each gap from `first_gap` on
    below it, as `(gap, ordering)`; the last gap leaves it, and yields
    `ordering` itself.  Starting from the constants' chain with the
    variables in sorted order above it, and placing each variable from
    the gap after the one its predecessor took, gives every strict order
    that keeps the variables sorted, one per orbit under renaming them,
    each once; over the integers a gap left without room is skipped."""
    below = list(ordering.classes[:placed])
    squeezable = ordering.domain == INTEGERS and len(ordering.anchors) > 1
    for gap in _placements(below, ordering.classes[placed][0], first_gap,
                           False, squeezable):
        yield gap, (ordering if gap == placed else CompleteOrdering(
            tuple(map(tuple, below)) + ordering.classes[placed + 1:],
            ordering.domain))


def entails(ordering: CompleteOrdering, cmp: Comparison) -> bool:
    """True iff every assignment satisfying the ordering satisfies `cmp`.

    Both sides must be terms of the ordering, unless both are constants.
    """
    lhs, rhs = cmp.lhs, cmp.rhs
    if is_const(lhs) and is_const(rhs):
        return cmp.holds(lhs.value, rhs.value)
    positions = ordering._positions
    for t in (lhs, rhs):
        if t not in positions:
            raise KeyError(f"unknown term {t}")
    return _positions_imply(positions[lhs], positions[rhs], cmp.op)


def _positions_imply(i: int, j: int, op: str) -> bool:
    """Does every term of class `i` stand in relation `op` to every term
    of class `j`, whatever values the classes take?"""
    if i < j:
        return op in ("<", "<=", "!=")
    if i > j:
        return op in (">", ">=", "!=")
    return op in ("=", "<=", ">=")


# ---------------------------------------------------------------------------
# Canonical satisfying assignments
# ---------------------------------------------------------------------------

def _class_values(ordering: CompleteOrdering,
                  extra_anchor: Optional[tuple] = None) -> list:
    """Canonical value per class: anchors at constants, free classes at
    integer steps beyond the extremes, dyadic midpoints (rationals) or
    leftmost integers between anchors."""
    n = len(ordering.classes)
    anchors = ordering.anchors
    if extra_anchor is not None:
        anchors = sorted(set(anchors) | {extra_anchor})
    values: list = [None] * n
    for p, v in anchors:
        values[p] = v
    if not anchors:
        return [Fraction(i) for i in range(n)]
    first_pos, first_val = anchors[0]
    for i in range(first_pos - 1, -1, -1):
        values[i] = first_val - (first_pos - i)
    last_pos, last_val = anchors[-1]
    for i in range(last_pos + 1, n):
        values[i] = last_val + (i - last_pos)
    for (p, a), (np_, b) in zip(anchors, anchors[1:]):
        if ordering.domain == INTEGERS:
            for i in range(p + 1, np_):
                values[i] = a + (i - p)
        else:
            prev = a
            for i in range(p + 1, np_):
                prev = (prev + b) / 2
                values[i] = prev
    return values


def satisfying_assignment(ordering: CompleteOrdering) -> Assignment:
    """A deterministic concrete assignment realizing the ordering, as a
    fresh dict the caller may change."""
    return dict(ordering.canonical_assignment)


def pinned_assignment(ordering: CompleteOrdering, x: Term,
                      value: Fraction) -> Assignment:
    """Canonical satisfying assignment with `x` pinned to `value`."""
    i = ordering.position(x)
    lo, hi = ordering.class_bounds(i)
    if not _value_possible(ordering.domain, lo, hi, value):
        raise ValueError(f"{value} is not a possible value for {x}")
    values = _class_values(ordering, extra_anchor=(i, Fraction(value)))
    return {t: values[j]
            for j, cls in enumerate(ordering.classes) for t in cls}


def _value_possible(domain: str, lo, hi, value: Fraction) -> bool:
    if domain == INTEGERS:
        if value.denominator != 1:
            return False
        return (lo is None or value >= lo) and (hi is None or value <= hi)
    if lo is not None and hi is not None and lo == hi:
        return value == lo
    return (lo is None or value > lo) and (hi is None or value < hi)


# ---------------------------------------------------------------------------
# Reduction and the two-witness construction
# ---------------------------------------------------------------------------

def rename_tuple(renaming: dict, tup: tuple) -> tuple:
    return tuple(renaming.get(t, t) for t in tup)


def is_reduced(ordering: CompleteOrdering) -> bool:
    return ordering._reduction is None


def witness_pair(ordering: CompleteOrdering, x: Term,
                 c1: Fraction, c2: Fraction):
    """Two satisfying assignments equal everywhere except at `x`.

    Requires a reduced ordering and two possible values for `x`; returns
    (d1, d2) with d1[x] == c1 and d2[x] == c2, built by the min/max merge
    of two pinned assignments.
    """
    if not is_reduced(ordering):
        raise ValueError("ordering must be reduced")
    da = pinned_assignment(ordering, x, c1)
    db = pinned_assignment(ordering, x, c2)
    px = ordering.position(x)
    positions = ordering._positions
    low, high = {}, {}
    for t in ordering.terms():
        lo_side = positions[t] <= px
        low[t] = min(da[t], db[t]) if lo_side else max(da[t], db[t])
        high[t] = min(da[t], db[t]) if positions[t] < px else max(da[t], db[t])
    return (low, high) if c1 <= c2 else (high, low)


def witness_pair_at(ordering: CompleteOrdering, x: Term):
    """`witness_pair` at the canonical value of `x` and a second possible
    one: the midpoint towards a bound above over the rationals, else one
    up, or over the integers one down at the top of its room."""
    first = ordering.canonical_assignment[x]
    _, hi = ordering.class_bounds(ordering.position(x))
    second = first + 1
    if hi is not None and ordering.domain != INTEGERS:
        second = (first + hi) / 2
    elif hi is not None and second > hi:
        second = first - 1
    return witness_pair(ordering, x, first, second)


def assign_tuple(assignment: Assignment, tup: tuple) -> tuple:
    """Instantiate a tuple of terms under an assignment."""
    out = []
    for t in tup:
        if is_const(t):
            out.append(t.value)
        else:
            out.append(assignment[t])
    return tuple(out)
