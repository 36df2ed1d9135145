"""Deciding ordered identities: does L force alpha(B) = alpha(B')?

Given a complete ordering L of a term set and two bags of term tuples,
the question is whether every assignment satisfying L makes the two
aggregates equal.  One rule decides every supported function.

`_form` reads each side's value as `(constant, powers)` on the reduced
ordering of L, where equal terms are merged and, over the integers, a
variable class with one possible value is replaced by that constant:

* a shiftable function (count, parity, cntd, max, min, top2, bot2) gives
  a fixed form of the bag's class positions and no powers: its size, its
  size mod 2, its number of distinct classes, its highest or lowest
  class, or its two highest or lowest distinct classes.  Every
  assignment satisfying L gives distinct classes distinct values and a
  higher class a higher one;
* sum gives a constant plus a linear form, c + sum of c_v * v, and avg
  that form divided by |B|;
* prod gives a constant times a monomial, c * prod of v^e_v.

On the reduced ordering every variable can move alone.  So equal forms
mean equal aggregates under every assignment, and `_decide` answers
valid.  Unequal forms of any function but prod are refuted: by the
canonical assignment when the powers agree, else by one of the two
assignments of `orderings.witness_pair_at` at the least variable whose
power differs (`_first_difference`).  Two empty sides agree, and a
group on one side only is refuted by the canonical assignment.

prod alone needs one more step, since 0 can annihilate a side.  When the
forms differ, the rule runs again on each conservative way of slotting
the constant 0 into L (`_zero_extensions`).  The identity fails on the
first branch where the forms differ and are not both 0, with that
branch's witness.

Some identities need no ordering at all: `holds_everywhere` recognises
two sides that are the same function of the same terms, which agree
under every assignment.

Every witness is pulled back to the identity's own terms and re-checked
by direct evaluation before it is returned.  The reduction and the
canonical assignment of an ordering are built once per ordering
(`CompleteOrdering.reduction`, `.canonical_assignment`) and shared by
every identity decided on it.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from types import MappingProxyType
from typing import Optional

from .aggregation import AggregationFunction, Value, apply
from .model import Const, is_const, term_sort_key
from .orderings import (
    Assignment, CompleteOrdering, assign_tuple, is_satisfiable_order,
    rename_tuple, witness_pair_at,
)


class OrderedIdentity(Value):
    __slots__ = _fields = ("ordering", "left", "right", "function")

    def __init__(self, ordering: CompleteOrdering, left: tuple, right: tuple,
                 function: AggregationFunction):
        # each side is a bag of k-tuples of terms, multiplicity by repetition
        terms = ordering.terms()
        for bag in (left, right):
            for tup in bag:
                if len(tup) != function.arity:
                    raise ValueError(
                        f"{function.name} expects "
                        f"{function.arity}-tuples, got {tup!r}")
                for t in tup:
                    if t not in terms:
                        raise KeyError(f"bag term {t} not in the ordering")
        self._init(ordering, left, right, function)

    @classmethod
    def unchecked(cls, ordering: CompleteOrdering, left: tuple, right: tuple,
                  function: AggregationFunction) -> "OrderedIdentity":
        """The identity without `__init__`'s checks, for a caller that
        builds both bags from the ordering's own terms in tuples of the
        function's arity."""
        ident = object.__new__(cls)
        ident._init(ordering, left, right, function)
        return ident


class IdentityVerdict(Value):
    __slots__ = _fields = ("valid", "witness")

    def __init__(self, valid: bool, witness: Optional[Assignment] = None):
        self._init(valid, witness)


def instantiate_bag(assignment: Assignment, bag) -> list:
    return [assign_tuple(assignment, tup) for tup in bag]


def _refutes(ident: OrderedIdentity, assignment: Assignment) -> bool:
    if not ident.left or not ident.right:
        # a group on one side only disagrees under every assignment
        return True
    lhs = apply(ident.function, instantiate_bag(assignment, ident.left))
    rhs = apply(ident.function, instantiate_bag(assignment, ident.right))
    return lhs != rhs


# ---------------------------------------------------------------------------
# The one rule: compare the sides' forms, refute where they differ
# ---------------------------------------------------------------------------

_VALID = IdentityVerdict(True)


def _decide(ident: OrderedIdentity) -> IdentityVerdict:
    """The one rule: empty sides first, then the sides' forms, then for
    prod the forms under every placement of 0."""
    function, ordering = ident.function, ident.ordering
    left, right = ident.left, ident.right
    if not (left and right):
        return _refuted(ident, ordering, None) if left or right else _VALID
    form = _form(function, left, ordering)
    other = _form(function, right, ordering)
    if form == other:
        return _VALID
    if function.name != "prod":
        return _refuted(ident, ordering, _first_difference(form[1], other[1]))
    # 0 can annihilate a side: refute on the first placement of 0 where the
    # sides are different polynomials and not both 0
    reduced, renaming = ordering.reduction
    left = tuple(rename_tuple(renaming, tup) for tup in left)
    right = tuple(rename_tuple(renaming, tup) for tup in right)
    for extension in _zero_extensions(reduced):
        (c, powers), (d, other_powers) = (_form(function, left, extension),
                                          _form(function, right, extension))
        if c == d and (c == 0 or powers == other_powers):
            continue
        return _refuted(ident, extension,
                        _first_difference(powers, other_powers), renaming)
    return _VALID


#: each shiftable function's value as a form of its bag's class positions
#: (`pos` maps a term to its class)
_POSITION_FORMS = {
    "count": lambda bag, pos: len(bag),
    "parity": lambda bag, pos: len(bag) % 2,
    "cntd": lambda bag, pos: len({pos(t) for (t,) in bag}),
    "max": lambda bag, pos: max(pos(t) for (t,) in bag),
    "min": lambda bag, pos: min(pos(t) for (t,) in bag),
    "top2": lambda bag, pos: sorted({pos(t) for (t,) in bag})[-2:],
    "bot2": lambda bag, pos: sorted({pos(t) for (t,) in bag})[:2],
}

#: no powers (of a shiftable form) or no renaming, shared and read-only
_EMPTY = MappingProxyType({})
_ZERO, _ONE = Fraction(0), Fraction(1)


def _form(function: AggregationFunction, bag,
          ordering: CompleteOrdering) -> tuple:
    """`function`'s value on a non-empty `bag` as `(constant, powers)` on
    the reduced ordering of `ordering`: a class-position form and no
    powers for a shiftable function, a constant plus a linear form for
    sum (divided by |B| for avg), a constant times a monomial for prod."""
    if function.shiftable:
        return _POSITION_FORMS[function.name](bag, ordering.position), _EMPTY
    _, renaming = ordering.reduction
    if renaming:
        bag = [rename_tuple(renaming, tup) for tup in bag]
    return _polynomial(function, bag)


def _polynomial(function: AggregationFunction, bag) -> tuple:
    """sum's, avg's or prod's value on a non-empty `bag` as `(constant,
    powers)` in the bag's own terms."""
    product = function.name == "prod"
    constant = _ONE if product else _ZERO
    powers = Counter()
    for (t,) in bag:
        if not is_const(t):
            powers[t] += 1
        elif product:
            constant *= t.value
        else:
            constant += t.value
    if function.name == "avg":
        n = len(bag)
        return constant / n, {t: Fraction(k, n) for t, k in powers.items()}
    return constant, powers


def holds_everywhere(function: AggregationFunction, left, right) -> bool:
    """Are the two sides the same function of the same terms, and so equal
    under every assignment, whatever the ordering?  count: equal sizes;
    parity: sizes of equal parity; the other shiftable functions: equal
    supports; sum, avg and prod: the same polynomial in the terms as they
    are, or for prod two sides whose constant part is 0.  Two empty sides
    agree, one empty side does not."""
    if not (left and right):
        return not (left or right)
    if function.name == "count":
        return len(left) == len(right)
    if function.name == "parity":
        return len(left) % 2 == len(right) % 2
    if function.shiftable:
        return set(left) == set(right)
    form, other = _polynomial(function, left), _polynomial(function, right)
    return form == other or function.name == "prod" and form[0] == other[0] == 0


def _first_difference(left, right):
    """The least variable whose coefficient (or exponent) differs between
    the two sides, or None when only the constants differ."""
    return next((t for t in sorted(left.keys() | right.keys(),
                                   key=term_sort_key)
                 if left.get(t, 0) != right.get(t, 0)), None)


def _refuted(ident: OrderedIdentity, ordering: CompleteOrdering, u,
             via=_EMPTY) -> IdentityVerdict:
    """The invalid verdict for sides whose forms on the reduced ordering of
    `ordering` differ first in `u`; `via` renames the identity's terms
    onto `ordering`'s.

    With `u` None only the constants differ, or one side is empty, and
    the canonical assignment refutes.  Otherwise the sides differ as polynomials in `u`, which can
    take two values c1, c2 with every other term fixed (the ordering is
    reduced).  For sum and avg the difference of the sides changes by
    c_u * (c1 - c2) between them; for prod both values lie on one side of
    the anchor 0, where a power of `u` takes each value once.  Either way
    one of the pair refutes.  Each candidate is pulled back to the
    identity's own terms and re-checked there.
    """
    reduced, renaming = ordering.reduction
    candidates = ((reduced.canonical_assignment,) if u is None
                  else witness_pair_at(reduced, u))
    for candidate in candidates:
        witness = {}
        for t in ident.ordering.terms():
            rep = via.get(t, t)
            rep = renaming.get(rep, rep)
            witness[t] = rep.value if is_const(rep) else candidate[rep]
        if _refutes(ident, witness):
            return IdentityVerdict(False, witness)
    raise AssertionError("no candidate witness refutes the identity")


def _zero_extensions(ordering: CompleteOrdering):
    """Complete orderings of T plus the constant 0 that preserve all
    relations among the original terms; finitely many, possibly merging 0
    into a variable class."""
    zero = Const(Fraction(0))
    if zero in ordering.terms():
        yield ordering
        return
    classes = [list(cls) for cls in ordering.classes]
    for i in range(len(classes) + 1):
        candidate = classes[:i] + [[zero]] + classes[i:]
        if is_satisfiable_order(candidate, ordering.domain):
            yield CompleteOrdering.of(candidate, ordering.domain)
    for i, cls in enumerate(classes):
        if any(is_const(t) for t in cls):
            continue
        candidate = classes[:i] + [cls + [zero]] + classes[i + 1:]
        if is_satisfiable_order(candidate, ordering.domain):
            yield CompleteOrdering.of(candidate, ordering.domain)


# ---------------------------------------------------------------------------
# Dispatch: each route checks its functions, then applies the one rule
# ---------------------------------------------------------------------------

def decide_shiftable(ident: OrderedIdentity) -> IdentityVerdict:
    if not ident.function.shiftable:
        raise ValueError(f"{ident.function.name} is not shiftable")
    return _decide(ident)


def decide_sum(ident: OrderedIdentity) -> IdentityVerdict:
    if ident.function.name not in ("sum", "avg"):
        raise ValueError(f"decide_sum cannot handle {ident.function.name}")
    return _decide(ident)


def decide_prod(ident: OrderedIdentity) -> IdentityVerdict:
    if ident.function.name != "prod":
        raise ValueError(f"decide_prod cannot handle {ident.function.name}")
    return _decide(ident)


def decide(ident: OrderedIdentity) -> IdentityVerdict:
    """Decide an ordered identity for any supported aggregation function."""
    func = ident.function
    if func.shiftable:
        return decide_shiftable(ident)
    if func.name in ("sum", "avg"):
        return decide_sum(ident)
    if func.name == "prod":
        return decide_prod(ident)
    raise ValueError(f"unsupported aggregation function {func.name}")
