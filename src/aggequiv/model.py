"""Core syntax: terms, atoms, comparisons, conditions, queries, databases.

Queries are Datalog-style rules with one optional aggregate term in the
head and a disjunctive body.  Everything here is immutable and hashable
so values can be shared freely across threads and used as dict keys.

Constants are exact rationals (`fractions.Fraction`); queries over the
integer domain only admit constants with denominator 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Union

from .aggregation import AggregationFunction

INTEGERS = "int"
RATIONALS = "rat"
DOMAINS = (INTEGERS, RATIONALS)

COMPARISON_OPS = ("<", "<=", ">", ">=", "!=", "=")

#: op -> python test
_OP_EVAL = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "!=": lambda a, b: a != b,
    "=": lambda a, b: a == b,
}


class ValidationError(ValueError):
    """A structurally well-formed query that violates an invariant."""


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------

@dataclass(frozen=True, order=True)
class Var:
    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True, order=True)
class Const:
    value: Fraction

    def __post_init__(self):
        if not isinstance(self.value, Fraction):
            object.__setattr__(self, "value", Fraction(self.value))

    def __str__(self):
        v = self.value
        return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


Term = Union[Var, Const]


def term_sort_key(t: Term):
    """Deterministic order: constants by value, then variables by name."""
    if isinstance(t, Const):
        return (0, t.value, "")
    return (1, 0, t.name)


def is_var(t: Term) -> bool:
    return isinstance(t, Var)


def is_const(t: Term) -> bool:
    return isinstance(t, Const)


# ---------------------------------------------------------------------------
# Atoms, comparisons, conditions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Atom:
    predicate: str
    args: tuple
    positive: bool = True

    def variables(self):
        return [a for a in self.args if is_var(a)]

    def __str__(self):
        body = f"{self.predicate}({', '.join(str(a) for a in self.args)})"
        return body if self.positive else "!" + body


@dataclass(frozen=True)
class Comparison:
    lhs: Term
    op: str
    rhs: Term

    def __post_init__(self):
        if self.op not in COMPARISON_OPS:
            raise ValueError(f"bad comparison operator {self.op!r}")

    def holds(self, a: Fraction, b: Fraction) -> bool:
        return _OP_EVAL[self.op](a, b)

    def variables(self):
        return [t for t in (self.lhs, self.rhs) if is_var(t)]

    def terms(self):
        return (self.lhs, self.rhs)

    def __str__(self):
        return f"{self.lhs} {self.op} {self.rhs}"


@dataclass(frozen=True)
class Condition:
    """One disjunct: a conjunction of literals."""

    atoms: tuple = ()
    comparisons: tuple = ()

    def positive_atoms(self):
        return [a for a in self.atoms if a.positive]

    def negated_atoms(self):
        return [a for a in self.atoms if not a.positive]

    def variables(self) -> set:
        out = set()
        for a in self.atoms:
            out.update(a.variables())
        for c in self.comparisons:
            out.update(c.variables())
        return out

    def constants(self) -> set:
        out = set()
        for a in self.atoms:
            out.update(t for t in a.args if is_const(t))
        for c in self.comparisons:
            out.update(t for t in c.terms() if is_const(t))
        return out

    def is_safe(self) -> bool:
        """Every variable occurs in a positive atom or is `=`-linked to one."""
        return not self.unsafe_variables()

    def unsafe_variables(self) -> set:
        safe = set()
        for a in self.positive_atoms():
            safe.update(a.variables())
        # propagate through chains of = comparisons between variables
        changed = True
        while changed:
            changed = False
            for c in self.comparisons:
                if c.op != "=":
                    continue
                l, r = c.lhs, c.rhs
                if is_var(l) and is_var(r):
                    if l in safe and r not in safe:
                        safe.add(r)
                        changed = True
                    elif r in safe and l not in safe:
                        safe.add(l)
                        changed = True
        return self.variables() - safe

    def __str__(self):
        parts = [str(a) for a in self.atoms] + [str(c) for c in self.comparisons]
        return ", ".join(parts)


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AggregateTerm:
    function: AggregationFunction
    args: tuple  # tuple of Term, length == function.arity

    def __str__(self):
        return f"{self.function.name}({', '.join(str(a) for a in self.args)})"


@dataclass(frozen=True)
class Query:
    """A non-recursive disjunctive query, optionally aggregated.

    `grouping` is the tuple of head terms before the aggregate term;
    reduced queries may carry constants there.  `aggregate` is None for
    plain non-aggregate queries (used by the bag-set front end).  A query
    with no disjuncts is unsatisfiable (the body is the empty disjunction).
    """

    name: str
    grouping: tuple
    aggregate: Optional[AggregateTerm]
    disjuncts: tuple
    domain: str = RATIONALS

    def __post_init__(self):
        if self.domain not in DOMAINS:
            raise ValueError(f"unknown domain {self.domain!r}")

    # -- derived views ------------------------------------------------------

    def grouping_variables(self) -> set:
        return {t for t in self.grouping if is_var(t)}

    def aggregation_variables(self) -> set:
        if self.aggregate is None:
            return set()
        return {t for t in self.aggregate.args if is_var(t)}

    def variables(self) -> set:
        out = set()
        for d in self.disjuncts:
            out.update(d.variables())
        return out

    def constants(self) -> set:
        out = {t for t in self.grouping if is_const(t)}
        if self.aggregate is not None:
            out.update(t for t in self.aggregate.args if is_const(t))
        for d in self.disjuncts:
            out.update(d.constants())
        return out

    def predicates(self) -> dict:
        """predicate name -> arity, over all disjuncts."""
        out = {}
        for d in self.disjuncts:
            for a in d.atoms:
                out[a.predicate] = len(a.args)
        return out

    @property
    def is_unsatisfiable(self) -> bool:
        return not self.disjuncts

    def is_conjunctive(self) -> bool:
        return len(self.disjuncts) == 1

    def validate(self) -> "Query":
        """Check head discipline, safety, and domain constraints."""
        for t in self.constants():
            if self.domain == INTEGERS and t.value.denominator != 1:
                raise ValidationError(
                    f"constant {t} is not an integer but the query ranges over integers")
        head_vars = self.grouping_variables() | self.aggregation_variables()
        if self.aggregate is not None:
            overlap = self.grouping_variables() & self.aggregation_variables()
            if overlap:
                names = ", ".join(sorted(v.name for v in overlap))
                raise ValidationError(
                    f"grouping variable(s) {names} occur in the aggregate term")
        for i, d in enumerate(self.disjuncts, 1):
            # a head variable absent from the disjunct surfaces as a safety
            # violation: it occurs in no positive atom of that disjunct
            unsafe = d.unsafe_variables() | (head_vars - d.variables())
            if unsafe:
                names = ", ".join(sorted(v.name for v in unsafe))
                raise ValidationError(
                    f"disjunct {i} is unsafe: variable(s) {names} "
                    f"occur in no positive atom")
        return self

    def __str__(self):
        from .parsing import format_query  # local import to avoid a cycle
        return format_query(self)


# ---------------------------------------------------------------------------
# Term sizes and predicates of a pair
# ---------------------------------------------------------------------------

def variable_size(q: Query) -> int:
    """Maximum number of distinct variables in any single disjunct."""
    return max((len(d.variables()) for d in q.disjuncts), default=0)


def term_size(q: Query) -> int:
    """Distinct constants in the query plus its variable size."""
    return len(q.constants()) + variable_size(q)


def term_size_pair(q: Query, q2: Query) -> int:
    """Constants occurring in either query plus the larger variable size."""
    consts = q.constants() | q2.constants()
    return len(consts) + max(variable_size(q), variable_size(q2))


def merged_predicates(q: Query, q2: Query) -> dict:
    """predicate name -> arity over both queries; a predicate used with
    two arities raises ValueError."""
    predicates = dict(q.predicates())
    for pred, arity in q2.predicates().items():
        if predicates.setdefault(pred, arity) != arity:
            raise ValueError(f"predicate {pred} has conflicting arities")
    return predicates


# ---------------------------------------------------------------------------
# Databases
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Database:
    """A finite set of ground positive atoms, stored as (pred, values)."""

    facts: frozenset = field(default_factory=frozenset)

    @staticmethod
    def of(facts: Iterable) -> "Database":
        """Build from (predicate, values) pairs; values become Fractions."""
        out = set()
        for pred, values in facts:
            out.add((pred, tuple(Fraction(v) for v in values)))
        return Database(frozenset(out))

    def carrier(self) -> set:
        return {v for _, values in self.facts for v in values}

    def __contains__(self, fact) -> bool:
        return fact in self.facts

    def __len__(self):
        return len(self.facts)

    def __and__(self, other: "Database") -> "Database":
        return Database(self.facts & other.facts)

    def issubset(self, other: "Database") -> bool:
        return self.facts <= other.facts

    def sorted_facts(self):
        return sorted(self.facts)

    def __str__(self):
        from .parsing import format_database
        return format_database(self)
