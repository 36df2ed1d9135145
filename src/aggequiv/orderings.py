"""Complete orderings of finite term sets over the integers or rationals.

A complete ordering is a satisfiable weak order: a sequence of classes of
terms, classes strictly increasing left to right, members of one class
equal.  It decides <, = or > for every pair of terms, which is what lets
the engine collapse infinitely many concrete databases into finitely many
symbolic ones.

Integer-domain subtleties are concentrated here.  Constants anchor their
classes; a variable class squeezed between anchors with no integer room
makes the order unsatisfiable (filtered out), and one with exactly one
integer slot is pinned to that value (`class_bounds` reports lo == hi).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional

from .model import (
    INTEGERS, Comparison, Const, Term, is_const, is_var, term_sort_key,
)

#: an assignment maps every term of an ordering to a constant;
#: constants map to themselves
Assignment = dict


@dataclass(frozen=True)
class CompleteOrdering:
    """Equivalence classes of terms in strictly increasing order."""

    classes: tuple  # tuple of tuples of Term, each inner tuple sorted
    domain: str

    @staticmethod
    def of(classes: Iterable, domain: str) -> "CompleteOrdering":
        canon = tuple(tuple(sorted(c, key=term_sort_key)) for c in classes)
        return CompleteOrdering(canon, domain)

    def terms(self) -> set:
        return set(self._positions)

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

    def __str__(self):
        return " < ".join(" = ".join(str(t) for t in cls)
                          for cls in self.classes)


def _constants_consistent(classes) -> bool:
    seen = []
    for cls in classes:
        values = sorted({t.value for t in cls if is_const(t)})
        if len(values) > 1:
            return False
        if values:
            if seen and values[0] <= seen[-1]:
                return False
            seen.append(values[0])
    return True


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
    if not _constants_consistent(classes):
        return False
    if domain == INTEGERS:
        vals = [t.value for cls in classes for t in cls if is_const(t)]
        if any(v.denominator != 1 for v in vals):
            return False
        return _integer_room(classes)
    return True


def _ordered_set_partitions(items: list) -> Iterator[list]:
    """All ordered set partitions, each exactly once, deterministically."""
    if not items:
        yield []
        return
    *init, last = items
    for p in _ordered_set_partitions(init):
        for i in range(len(p)):
            yield p[:i] + [p[i] + [last]] + p[i + 1:]
        for i in range(len(p) + 1):
            yield p[:i] + [[last]] + p[i:]


def enumerate_complete_orderings(terms: Iterable[Term], domain: str,
                                 injective_only: bool = False
                                 ) -> Iterator[CompleteOrdering]:
    """All satisfiable weak orders on `terms`, each exactly once.

    Constants keep their numeric order and never share a class; over the
    integers, orders without enough room between constants are dropped.
    With `injective_only` every class is a single term and the variables
    keep their sorted order too: one strict order per orbit under renaming
    the variables (the lex-leader).  The bounded-equivalence search uses
    it, where merged variables are redundant and the fresh variables are
    interchangeable.
    """
    items = sorted(set(terms), key=term_sort_key)
    if injective_only:
        constants = [t for t in items if is_const(t)]
        variables = [t for t in items if is_var(t)]
        for order in _injective_interleavings(constants, variables):
            classes = [[t] for t in order]
            if is_satisfiable_order(classes, domain):
                yield CompleteOrdering.of(classes, domain)
        return
    for p in _ordered_set_partitions(items):
        if is_satisfiable_order(p, domain):
            yield CompleteOrdering.of(p, domain)


def _injective_interleavings(constants: list, variables: list):
    """All strict orders keeping both `constants` and `variables` in their
    given order."""
    n = len(constants) + len(variables)
    for var_positions in itertools.combinations(range(n), len(variables)):
        # variables take the chosen slots in order, constants fill the rest
        order: list = [None] * n
        for t, p in zip(variables, var_positions):
            order[p] = t
        it = iter(constants)
        for i in range(n):
            if order[i] is None:
                order[i] = next(it)
        yield order


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
    i, j = positions[lhs], positions[rhs]
    rel = "=" if i == j else ("<" if i < j else ">")
    return _relation_implies(rel, cmp.op)


def _relation_implies(rel: str, op: str) -> bool:
    return {
        "<": op in ("<", "<=", "!="),
        ">": op in (">", ">=", "!="),
        "=": op in ("=", "<=", ">="),
    }[rel]


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
    """A deterministic concrete assignment realizing the ordering."""
    values = _class_values(ordering)
    return {t: values[i]
            for i, cls in enumerate(ordering.classes) for t in cls}


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


def possible_value(ordering: CompleteOrdering, x: Term,
                   value: Fraction) -> bool:
    """Can some assignment satisfying the ordering map `x` to `value`?"""
    lo, hi = ordering.class_bounds(ordering.position(x))
    return _value_possible(ordering.domain, lo, hi, value)


# ---------------------------------------------------------------------------
# Reduction and the two-witness construction
# ---------------------------------------------------------------------------

def reduce_terms(ordering: CompleteOrdering):
    """Merge equal terms and pin integer-forced variables to constants.

    Returns (reduced ordering, renaming).  The renaming maps every
    eliminated term to its representative; representatives prefer
    constants, then the least variable name.  Over the integers a
    variable class with a single possible value becomes that constant.
    """
    renaming: dict = {}
    new_classes = []
    for i, cls in enumerate(ordering.classes):
        const = next((t for t in cls if is_const(t)), None)
        if const is not None:
            rep = const
        else:
            lo, hi = ordering.class_bounds(i)
            if lo is not None and lo == hi:
                rep = Const(lo)
            else:
                rep = min(cls, key=term_sort_key)
        for t in cls:
            if t != rep:
                renaming[t] = rep
        new_classes.append((rep,))
    reduced = CompleteOrdering(tuple(new_classes), ordering.domain)
    return reduced, renaming


def rename_tuple(renaming: dict, tup: tuple) -> tuple:
    return tuple(renaming.get(t, t) for t in tup)


def is_reduced(ordering: CompleteOrdering) -> bool:
    for i, cls in enumerate(ordering.classes):
        if len(cls) > 1:
            return False
        if is_var(cls[0]):
            lo, hi = ordering.class_bounds(i)
            if lo is not None and lo == hi:
                return False
    return True


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


# ---------------------------------------------------------------------------
# Orderings constrained by comparison conjunctions
# ---------------------------------------------------------------------------

def consistent_orderings(terms: Iterable[Term], comparisons, domain: str
                         ) -> Iterator[CompleteOrdering]:
    """Complete orderings of `terms` entailing every given comparison."""
    for ordering in enumerate_complete_orderings(terms, domain):
        if all(entails(ordering, c) for c in comparisons):
            yield ordering


def assign_tuple(assignment: Assignment, tup: tuple) -> tuple:
    """Instantiate a tuple of terms under an assignment."""
    out = []
    for t in tup:
        if is_const(t):
            out.append(t.value)
        else:
            out.append(assignment[t])
    return tuple(out)
