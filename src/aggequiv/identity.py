"""Deciding ordered identities: does L force alpha(B) = alpha(B')?

Given a complete ordering L of a term set and two bags of term tuples,
the question is whether every assignment satisfying L makes the two
aggregates equal.  Three routes cover all supported functions:

* shiftable functions (count, parity, cntd, max, min, top2, bot2) take
  a value that is a fixed form of the bag's class positions in L: its
  size, its size mod 2, its number of distinct classes, its highest or
  lowest class, or its two highest or lowest distinct classes.  Every
  assignment satisfying L gives distinct classes distinct values and a
  higher class a higher one, so equal forms mean equal aggregates
  everywhere, and unequal forms differ under the canonical assignment,
  which is the witness.  No bag is rewritten or instantiated unless the
  identity fails;
* sum (and avg, after scaling multiplicities by the opposite bag's
  cardinality) is a polynomial identity: once equal terms are merged and
  pinned integer variables replaced by their value, every variable can
  move alone, so the identity holds exactly when the bag difference,
  written as constant + sum of c_v * v, has every coefficient and the
  constant zero;
* prod is a polynomial identity too, but 0 can annihilate a side: when
  the constant factors and the variable exponent vectors of the two
  sides already agree on the reduced ordering, the sides are one
  polynomial and the identity holds; otherwise branch over the
  conservative ways of slotting the constant 0 into L, reduce each
  branch, and compare the sides' factors and exponent vectors there.

Every route answers an empty side the same way: two empty bags agree,
and a group on one side only is refuted by the canonical assignment.
The reduction and the canonical assignment of an ordering are built
once per ordering (`CompleteOrdering.reduction`, `.canonical_assignment`)
and shared by every identity decided on it.

Invalid identities come with a concrete witness assignment that is
re-checked by direct evaluation before being returned.  Sum, avg and
prod share one witness: the canonical assignment when only the
constants differ, else whichever of two assignments differing only in
the least variable whose coefficient differs refutes.
"""

from __future__ import annotations

import functools
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .aggregation import AggregationFunction, apply
from .model import Const, is_const, term_sort_key
from .orderings import (
    Assignment, CompleteOrdering, assign_tuple, is_satisfiable_order,
    rename_tuple, witness_pair_at,
)


@dataclass(frozen=True)
class OrderedIdentity:
    ordering: CompleteOrdering
    left: tuple    # bag of k-tuples of terms, multiplicity by repetition
    right: tuple
    function: AggregationFunction

    def __post_init__(self):
        terms = self.ordering.terms()
        for bag in (self.left, self.right):
            for tup in bag:
                if len(tup) != self.function.arity:
                    raise ValueError(
                        f"{self.function.name} expects "
                        f"{self.function.arity}-tuples, got {tup!r}")
                for t in tup:
                    if t not in terms:
                        raise KeyError(f"bag term {t} not in the ordering")

    @classmethod
    def unchecked(cls, ordering: CompleteOrdering, left: tuple, right: tuple,
                  function: AggregationFunction) -> "OrderedIdentity":
        """The identity without `__post_init__`'s checks, for a caller that
        builds both bags from the ordering's own terms in tuples of the
        function's arity."""
        ident = object.__new__(cls)
        vars(ident).update(ordering=ordering, left=left, right=right,
                           function=function)
        return ident


@dataclass(frozen=True)
class IdentityVerdict:
    valid: bool
    witness: Optional[Assignment] = None


def instantiate_bag(assignment: Assignment, bag) -> list:
    return [assign_tuple(assignment, tup) for tup in bag]


def _refutes(ident: OrderedIdentity, assignment: Assignment) -> bool:
    if not ident.left or not ident.right:
        # a group on one side only disagrees under every assignment
        return True
    lhs = apply(ident.function, instantiate_bag(assignment, ident.left))
    rhs = apply(ident.function, instantiate_bag(assignment, ident.right))
    return lhs != rhs


def _invalid(ident: OrderedIdentity, renaming: dict,
             witness: Assignment) -> IdentityVerdict:
    """The invalid verdict, with a witness on reduced terms pulled back to
    the identity's own terms and re-checked."""
    witness = _translate_witness(ident.ordering.terms(), renaming, witness)
    if not _refutes(ident, witness):
        raise AssertionError("witness fails to refute the identity")
    return IdentityVerdict(False, witness)


def _canonicalize(ident: OrderedIdentity):
    """Merge equal terms so no two distinct terms of the ordering coincide."""
    reduced, renaming = ident.ordering.reduction
    if reduced is ident.ordering:
        return ident, renaming
    left = tuple(rename_tuple(renaming, tup) for tup in ident.left)
    right = tuple(rename_tuple(renaming, tup) for tup in ident.right)
    return OrderedIdentity(reduced, left, right, ident.function), renaming


def _translate_witness(terms, renaming: dict,
                       witness: Assignment) -> Assignment:
    """Pull a witness on reduced terms back to the original `terms`."""
    out = {}
    for t in terms:
        rep = renaming.get(t, t)
        out[t] = rep.value if is_const(rep) else witness[rep]
    return out


# ---------------------------------------------------------------------------
# Shiftable functions: the value forms of the class positions decide
# ---------------------------------------------------------------------------

#: each shiftable function's value as a form of its bag's class positions
#: (`pos` maps a term to its class); distinct classes take distinct
#: values, a higher class a higher one, under every assignment
_VALUE_FORMS = {
    "count": lambda bag, pos: len(bag),
    "parity": lambda bag, pos: len(bag) % 2,
    "cntd": lambda bag, pos: len({pos(t) for (t,) in bag}),
    "max": lambda bag, pos: max(pos(t) for (t,) in bag),
    "min": lambda bag, pos: min(pos(t) for (t,) in bag),
    "top2": lambda bag, pos: sorted({pos(t) for (t,) in bag})[-2:],
    "bot2": lambda bag, pos: sorted({pos(t) for (t,) in bag})[:2],
}


def decide_shiftable(ident: OrderedIdentity) -> IdentityVerdict:
    if not ident.function.shiftable:
        raise ValueError(f"{ident.function.name} is not shiftable")
    if (verdict := _empty_side(ident)) is not None:
        return verdict
    form, pos = _VALUE_FORMS[ident.function.name], ident.ordering.position
    if form(ident.left, pos) == form(ident.right, pos):
        return IdentityVerdict(True)
    return _canonical_refutation(ident)


# ---------------------------------------------------------------------------
# Sum and average: a zero test of the bag difference's coefficients
# ---------------------------------------------------------------------------

def decide_sum(ident: OrderedIdentity) -> IdentityVerdict:
    if ident.function.name not in ("sum", "avg"):
        raise ValueError(f"decide_sum cannot handle {ident.function.name}")
    if (verdict := _empty_side(ident)) is not None:
        return verdict
    reduced, renaming = _canonicalize(ident)
    left, right = reduced.left, reduced.right
    if ident.function.name == "avg":
        # avg(B) = avg(B') iff sum of B scaled by |B'| equals sum of B
        # scaled by |B|: compare the multiplicity-scaled bags as sums
        left, right = left * len(right), right * len(left)
    c, coeffs_left = _linear_form(left)
    d, coeffs_right = _linear_form(right)
    if c == d and coeffs_left == coeffs_right:
        return IdentityVerdict(True)
    u = _first_difference(coeffs_left, coeffs_right)
    return _invalid(ident, renaming, _witness(reduced, u))


def _constant_and_powers(combine, constant, bag):
    """Fold the bag's constants into `constant` with `combine`, and count
    each variable: sum(bag) as a constant plus a linear form, or prod(bag)
    as a constant times a monomial."""
    powers = Counter()
    for (t,) in bag:
        if is_const(t):
            constant = combine(constant, t.value)
        else:
            powers[t] += 1
    return constant, powers


_linear_form = functools.partial(_constant_and_powers, operator.add,
                                 Fraction(0))
_factor = functools.partial(_constant_and_powers, operator.mul, Fraction(1))


def _first_difference(left: Counter, right: Counter):
    """The least variable whose coefficient (or exponent) differs between
    the two sides, or None when only the constants differ."""
    return next((t for t in sorted(set(left) | set(right), key=term_sort_key)
                 if left[t] != right[t]), None)


def _witness(ident: OrderedIdentity, u) -> Assignment:
    """A refuting assignment for an invalid identity on a reduced ordering.

    With `u` None only the constant parts differ, and the canonical
    assignment refutes.  Otherwise the sides differ as polynomials in
    `u`, which can take two values c1, c2 with every other term fixed (the
    ordering is reduced).  For sum and avg the difference of the sides
    changes by c_u * (c1 - c2) between them; for prod both values lie on
    one side of the anchor 0, where a power of `u` takes each value once.
    Either way one of the pair refutes.
    """
    if u is None:
        return ident.ordering.canonical_assignment
    for candidate in witness_pair_at(ident.ordering, u):
        if _refutes(ident, candidate):
            return candidate
    raise AssertionError("neither paired assignment refutes the identity")


# ---------------------------------------------------------------------------
# Product: conservative zero extensions, reduction, exponent comparison
# ---------------------------------------------------------------------------

def decide_prod(ident: OrderedIdentity) -> IdentityVerdict:
    if ident.function.name != "prod":
        raise ValueError(f"decide_prod cannot handle {ident.function.name}")
    if (verdict := _empty_side(ident)) is not None:
        return verdict
    canon, renaming0 = _canonicalize(ident)
    c, exps_left = _factor(canon.left)
    d, exps_right = _factor(canon.right)
    if c == d and exps_left == exps_right:
        # the same polynomial on both sides: equal under every assignment,
        # so no branch below could refute
        return IdentityVerdict(True)
    for extension in _zero_extensions(canon.ordering):
        reduced, renaming1 = extension.reduction
        left = tuple(rename_tuple(renaming1, tup) for tup in canon.left)
        right = tuple(rename_tuple(renaming1, tup) for tup in canon.right)
        c, exps_left = _factor(left)
        d, exps_right = _factor(right)
        if c == d == 0:
            continue
        if c == d and exps_left == exps_right:
            continue
        branch = OrderedIdentity(reduced, left, right, ident.function)
        witness = _witness(branch, _first_difference(exps_left, exps_right))
        # back through the branch's renaming, then the canonical one
        witness = _translate_witness(canon.ordering.terms(), renaming1,
                                     witness)
        return _invalid(ident, renaming0, witness)
    return IdentityVerdict(True)


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
# Dispatch
# ---------------------------------------------------------------------------

def _empty_side(ident: OrderedIdentity) -> Optional[IdentityVerdict]:
    """The verdict when a bag is empty, else None: valid when both are; a
    group on one side only disagrees under every assignment, and the
    canonical one shows it."""
    if ident.left and ident.right:
        return None
    if not ident.left and not ident.right:
        return IdentityVerdict(True)
    return _canonical_refutation(ident)


def _canonical_refutation(ident: OrderedIdentity) -> IdentityVerdict:
    """The invalid verdict witnessed by the reduced ordering's canonical
    assignment, for an identity that assignment refutes."""
    reduced, renaming = _canonicalize(ident)
    return _invalid(ident, renaming, _witness(reduced, None))


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
