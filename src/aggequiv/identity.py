"""Deciding ordered identities: does L force alpha(B) = alpha(B')?

Given a complete ordering L of a term set and two bags of term tuples,
the question is whether every assignment satisfying L makes the two
aggregates equal.  Three routes cover all supported functions:

* shiftable functions (count, parity, cntd, max, min, top2, bot2) are
  evaluated on a single canonical assignment; equality there settles the
  identity because any two order-preserving injections differ by a
  strictly increasing reshaping of the values;
* sum (and avg, after scaling multiplicities by the opposite bag's
  cardinality) reduces to exact linear feasibility of L with the bag
  difference strictly positive or strictly negative;
* prod follows a dedicated pipeline: branch over the conservative ways
  of slotting the constant 0 into L, reduce each branch, and compare the
  constant factor and the variable exponent vectors of both sides.

Invalid identities come with a concrete witness assignment that is
re-checked by direct evaluation before being returned.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .aggregation import AggregationFunction, apply
from .model import INTEGERS, Const, is_const, term_sort_key
from .orderings import (
    Assignment, CompleteOrdering, assign_tuple, is_reduced, is_satisfiable_order,
    reduce_terms, rename_tuple, satisfying_assignment, witness_pair,
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


@dataclass(frozen=True)
class IdentityVerdict:
    valid: bool
    witness: Optional[Assignment] = None


def instantiate_bag(assignment: Assignment, bag) -> list:
    return [assign_tuple(assignment, tup) for tup in bag]


def _refutes(ident: OrderedIdentity, assignment: Assignment) -> bool:
    lhs = apply(ident.function, instantiate_bag(assignment, ident.left))
    rhs = apply(ident.function, instantiate_bag(assignment, ident.right))
    return lhs != rhs


def _invalid(ident: OrderedIdentity, witness: Assignment) -> IdentityVerdict:
    if ident.left and ident.right and not _refutes(ident, witness):
        raise AssertionError("witness fails to refute the identity")
    return IdentityVerdict(False, witness)


def _canonicalize(ident: OrderedIdentity):
    """Merge equal terms so no two distinct terms of the ordering coincide."""
    if is_reduced(ident.ordering):
        return ident, {}
    reduced, renaming = reduce_terms(ident.ordering)
    left = tuple(rename_tuple(renaming, tup) for tup in ident.left)
    right = tuple(rename_tuple(renaming, tup) for tup in ident.right)
    return OrderedIdentity(reduced, left, right, ident.function), renaming


def _translate_witness(ident: OrderedIdentity, renaming: dict,
                       witness: Assignment) -> Assignment:
    """Pull a witness on reduced terms back to the original term set."""
    if not renaming:
        return witness
    out = {}
    for t in ident.ordering.terms():
        rep = renaming.get(t, t)
        out[t] = rep.value if is_const(rep) else witness[rep]
    return out


# ---------------------------------------------------------------------------
# Shiftable functions: one canonical evaluation decides
# ---------------------------------------------------------------------------

def decide_shiftable(ident: OrderedIdentity) -> IdentityVerdict:
    if not ident.function.shiftable:
        raise ValueError(f"{ident.function.name} is not shiftable")
    reduced, renaming = _canonicalize(ident)
    assignment = satisfying_assignment(reduced.ordering)
    lhs = apply(reduced.function, instantiate_bag(assignment, reduced.left))
    rhs = apply(reduced.function, instantiate_bag(assignment, reduced.right))
    if lhs == rhs:
        return IdentityVerdict(True)
    return _invalid(ident, _translate_witness(ident, renaming, assignment))


# ---------------------------------------------------------------------------
# Sum and average: exact linear feasibility along the ordering chain
# ---------------------------------------------------------------------------

def decide_sum(ident: OrderedIdentity) -> IdentityVerdict:
    if ident.function.name not in ("sum", "avg"):
        raise ValueError(f"decide_sum cannot handle {ident.function.name}")
    reduced, renaming = _canonicalize(ident)
    left, right = list(reduced.left), list(reduced.right)
    if ident.function.name == "avg":
        # avg(B) = avg(B') iff sum of B scaled by |B'| equals sum of B
        # scaled by |B|: compare the multiplicity-scaled bags as sums
        left, right = left * len(right), right * len(left)

    ordering = reduced.ordering
    coeffs = Counter()
    constant = Fraction(0)
    for tup in left:
        coeffs[ordering.position(tup[0])] += 1
    for tup in right:
        coeffs[ordering.position(tup[0])] -= 1
    positions = dict(coeffs)
    # anchored classes contribute outright; variable classes stay symbolic
    var_coeffs = {}
    for pos, coef in positions.items():
        value = ordering.class_constant(pos)
        if value is not None:
            constant += coef * value
        elif coef:
            var_coeffs[pos] = coef

    witness_values = _strictly_positive(ordering, var_coeffs, constant)
    if witness_values is None:
        negated = {p: -c for p, c in var_coeffs.items()}
        witness_values = _strictly_positive(ordering, negated, -constant)
    if witness_values is None:
        return IdentityVerdict(True)
    witness = {t: witness_values[i]
               for i, cls in enumerate(ordering.classes) for t in cls}
    return _invalid(ident, _translate_witness(ident, renaming, witness))


def _segments(ordering: CompleteOrdering):
    """Maximal runs of variable classes with their bounding anchor values."""
    runs = []
    current = []
    prev_anchor = None
    for i in range(len(ordering.classes)):
        value = ordering.class_constant(i)
        if value is not None:
            if current:
                runs.append((prev_anchor, current, value))
                current = []
            prev_anchor = value
        else:
            current.append(i)
    if current:
        runs.append((prev_anchor, current, None))
    return runs


def _strictly_positive(ordering: CompleteOrdering, var_coeffs: dict,
                       constant: Fraction) -> Optional[list]:
    """A satisfying class-value vector making the linear form positive.

    The form is `constant + sum(var_coeffs[i] * value(class i))`.  Returns
    class values (indexed by position) or None when the form is <= 0 under
    every assignment satisfying the ordering.  Exact over both domains:
    each run of variable classes is packed against its anchors (the
    linear optimum sits at such packings) and unbounded runs get a sign
    analysis of prefix/suffix coefficient sums.
    """
    integer = ordering.domain == INTEGERS
    base = _class_value_vector(ordering)
    total_sup = constant
    vertex = list(base)
    pushes = []  # (positions to shift, step direction, rate) for sup = +inf

    for low, run, high in _segments(ordering):
        coefs = [var_coeffs.get(i, 0) for i in run]
        k = len(run)
        if low is not None and high is not None:
            best_value, best_config = None, None
            for j in range(k + 1):
                if integer:
                    values = [low + (i + 1) if i < j else high - (k - i)
                              for i in range(k)]
                else:
                    values = [low if i < j else high for i in range(k)]
                value = sum(c * v for c, v in zip(coefs, values))
                if best_value is None or value > best_value:
                    best_value, best_config = value, values
            total_sup += best_value
            for pos, v in zip(run, best_config):
                vertex[pos] = v
        elif low is None and high is None:
            sigma = sum(coefs)
            if sigma != 0:
                pushes.append((tuple(run), 1 if sigma > 0 else -1, abs(sigma)))
                continue
            suffix = 0
            found = False
            for j in range(k - 1, 0, -1):
                suffix += coefs[j]
                if suffix > 0:
                    pushes.append((tuple(run[j:]), 1, suffix))
                    found = True
                    break
            if found:
                continue
            if integer:
                # packed at unit gaps; base already uses consecutive values
                total_sup += sum(c * base[pos] for c, pos in zip(coefs, run))
            else:
                # gaps shrink toward a common point: contribution sum is
                # sigma * t = 0 plus nonpositive gap terms, so sup is t-free
                total_sup += Fraction(0)
                for pos in run:
                    vertex[pos] = Fraction(0)
        elif high is not None:
            # unbounded below: shifting the j lowest classes down by one
            # adds -(prefix sum) to the form
            prefix = 0
            found = False
            for j in range(k):
                prefix += coefs[j]
                if prefix < 0:
                    pushes.append((tuple(run[:j + 1]), -1, -prefix))
                    found = True
                    break
            if found:
                continue
            if integer:
                values = [high - (k - i) for i in range(k)]
                total_sup += sum(c * v for c, v in zip(coefs, values))
                for pos, v in zip(run, values):
                    vertex[pos] = v
            else:
                total_sup += sum(coefs) * high
                for pos in run:
                    vertex[pos] = high
        else:
            # unbounded above: shifting the classes from j upward by one
            # adds the suffix sum to the form
            suffix_sums = list(_suffix_sums(coefs))
            found = False
            for j in range(k):
                if suffix_sums[j] > 0:
                    pushes.append((tuple(run[j:]), 1, suffix_sums[j]))
                    found = True
                    break
            if found:
                continue
            if integer:
                values = [low + (i + 1) for i in range(k)]
                total_sup += sum(c * v for c, v in zip(coefs, values))
                for pos, v in zip(run, values):
                    vertex[pos] = v
            else:
                total_sup += sum(coefs) * low
                for pos in run:
                    vertex[pos] = low

    if pushes:
        positions, direction, rate = pushes[0]
        values = list(base)
        current = constant + sum(c * values[p]
                                 for p, c in var_coeffs.items() if c)
        steps = 0
        if current <= 0:
            steps = int((-current) // rate) + 1
        for p in positions:
            values[p] += direction * steps
        return values

    if integer:
        if total_sup < 1:
            return None
        return vertex
    if total_sup <= 0:
        return None
    # rational witness: slide from the canonical interior point toward the
    # (possibly degenerate) packing, where the form is total_sup > 0.  The
    # form is affine along the slide, so the first lam = 1 - 2**-k past its
    # zero lam0 has k = bit length of floor(1 / (1 - lam0)).
    at_base = constant + sum(c * base[p] for p, c in var_coeffs.items())
    if at_base > 0:
        return base
    at_vertex = constant + sum(c * vertex[p] for p, c in var_coeffs.items())
    lam0 = Fraction(-at_base) / (at_vertex - at_base)
    k = max(1, int(1 / (1 - lam0)).bit_length())
    lam = 1 - Fraction(1, 2 ** k)
    return [b + lam * (v - b) for b, v in zip(base, vertex)]


def _class_value_vector(ordering: CompleteOrdering) -> list:
    assignment = satisfying_assignment(ordering)
    return [assignment[cls[0]] for cls in ordering.classes]


def _suffix_sums(coefs):
    total = 0
    out = []
    for c in reversed(coefs):
        total += c
        out.append(total)
    return list(reversed(out))


# ---------------------------------------------------------------------------
# Product: conservative zero extensions, reduction, exponent comparison
# ---------------------------------------------------------------------------

def decide_prod(ident: OrderedIdentity) -> IdentityVerdict:
    if ident.function.name != "prod":
        raise ValueError(f"decide_prod cannot handle {ident.function.name}")
    canon, renaming0 = _canonicalize(ident)
    for extension in _zero_extensions(canon.ordering):
        reduced, renaming1 = reduce_terms(extension)
        left = tuple(rename_tuple(renaming1, tup) for tup in canon.left)
        right = tuple(rename_tuple(renaming1, tup) for tup in canon.right)
        c, exps_left = _factor(left)
        d, exps_right = _factor(right)
        if c == d == 0:
            continue
        if c == d and exps_left == exps_right:
            continue
        witness = _prod_witness(reduced, c, d, exps_left, exps_right,
                                left, right)
        # map the branch witness back through both renamings
        witness = {t: (renaming1.get(t, t).value
                       if is_const(renaming1.get(t, t))
                       else witness[renaming1.get(t, t)])
                   for t in extension.terms()}
        witness = {t: witness[t] for t in canon.ordering.terms()}
        return _invalid(ident, _translate_witness(ident, renaming0, witness))
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


def _factor(bag):
    """Write prod(bag) as constant * product of variables with exponents."""
    constant = Fraction(1)
    exponents = Counter()
    if not bag:
        return constant, exponents
    for tup in bag:
        t = tup[0]
        if is_const(t):
            constant *= t.value
        else:
            exponents[t] += 1
    return constant, +exponents


def _prod_witness(ordering: CompleteOrdering, c, d, exps_left, exps_right,
                  left, right) -> Assignment:
    if exps_left == exps_right:
        # equal exponents, different constants: any satisfying assignment
        # works since no variable can take the value 0
        return satisfying_assignment(ordering)
    mismatched = sorted((set(exps_left) | set(exps_right)),
                        key=term_sort_key)
    u = next(t for t in mismatched if exps_left[t] != exps_right[t])
    base = satisfying_assignment(ordering)
    c1 = base[u]
    lo, hi = ordering.class_bounds(ordering.position(u))
    c2 = _second_possible_value(ordering.domain, lo, hi, c1)
    d1, d2 = witness_pair(ordering, u, c1, c2)
    for candidate in (d1, d2):
        lhs = apply_prod(instantiate_bag(candidate, left))
        rhs = apply_prod(instantiate_bag(candidate, right))
        if lhs != rhs:
            return candidate
    raise AssertionError("neither paired assignment refutes the product")


def _second_possible_value(domain: str, lo, hi, first: Fraction) -> Fraction:
    if domain == INTEGERS:
        candidate = first + 1
        if hi is None or candidate <= hi:
            return candidate
        return first - 1
    if hi is not None and first < hi:
        return (first + hi) / 2
    return first + 1


def apply_prod(values) -> Fraction:
    out = Fraction(1)
    for tup in values:
        out *= tup[0]
    return out


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

def decide(ident: OrderedIdentity) -> IdentityVerdict:
    """Decide an ordered identity for any supported aggregation function."""
    if not ident.left and not ident.right:
        return IdentityVerdict(True)
    if not ident.left or not ident.right:
        # a group exists on one side only; any satisfying assignment shows
        # the disagreement
        reduced, renaming = _canonicalize(ident)
        witness = satisfying_assignment(reduced.ordering)
        return _invalid(ident, _translate_witness(ident, renaming, witness))
    func = ident.function
    if func.shiftable:
        return decide_shiftable(ident)
    if func.name in ("sum", "avg"):
        return decide_sum(ident)
    if func.name == "prod":
        return decide_prod(ident)
    raise ValueError(f"unsupported aggregation function {func.name}")
