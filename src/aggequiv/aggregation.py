"""Abelian monoids and the aggregation functions built on top of them.

An aggregation function maps a nonempty multiset (bag) of k-tuples of
numbers to a single value.  Most of the functions here are *monoid*
aggregation functions: each tuple is sent into an abelian monoid by a
per-tuple map and the images are folded with the monoid operation.  The
monoid being idempotent (max, min, top2) or a group (count, sum, parity,
product without zero) is what the equivalence machinery exploits, so the
descriptors record those properties explicitly.

Values are kept exact throughout: rationals are `fractions.Fraction`,
counts and parity bits are ints, and top2/bot2 results are pairs
``(best, second)`` where ``second`` may be ``None`` when the bag holds a
single distinct value.  The monoid-internal bottom element (``None`` in
both slots) never leaves this module because query groups are nonempty.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from fractions import Fraction
from typing import Callable, Iterable, Optional


Number = Fraction  # exact scalar carried by bags


class EmptyBagError(ValueError):
    """Raised when an aggregation function is applied to an empty group."""


# ---------------------------------------------------------------------------
# Immutable values
# ---------------------------------------------------------------------------

class Value:
    """Base of the package's immutable value types.

    A subclass names its fields, in order, in `_fields`, declares the
    same names as `__slots__` unless a cached property needs an instance
    dict, and stores them from its own `__init__`, with their tuple as
    `_key`, through `_init` (or directly, as `model` does for speed).
    Equality, hash, `repr` and pickling read that tuple, as those of a
    frozen dataclass read the fields, but no method is generated when a
    class is defined.  Values of different classes are never equal, and
    assigning or deleting an attribute raises
    `dataclasses.FrozenInstanceError`.
    """

    __slots__ = ("_key",)
    _fields: tuple = ()

    def _init(self, *values):
        object.__setattr__(self, "_key", values)
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(self._fields, self._key))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._key

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class OrderedValue(Value):
    """A value ordered by its field tuple against values of its class."""

    __slots__ = ()

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return self._key < other._key
        return NotImplemented

    def __le__(self, other):
        if other.__class__ is self.__class__:
            return self._key <= other._key
        return NotImplemented

    def __gt__(self, other):
        if other.__class__ is self.__class__:
            return self._key > other._key
        return NotImplemented

    def __ge__(self, other):
        if other.__class__ is self.__class__:
            return self._key >= other._key
        return NotImplemented


# ---------------------------------------------------------------------------
# Monoids
# ---------------------------------------------------------------------------

class Monoid(Value):
    """An abelian monoid: commutative associative `plus` with neutral `zero`.

    `inverse` is present exactly for groups.  `idempotent` marks a + a = a.
    """

    __slots__ = _fields = ("name", "plus", "zero", "idempotent", "inverse")

    def __init__(self, name: str, plus: Callable, zero: object,
                 idempotent: bool = False, inverse: Optional[Callable] = None):
        self._init(name, plus, zero, idempotent, inverse)

    @property
    def is_group(self) -> bool:
        return self.inverse is not None

    def fold(self, items: Iterable):
        acc = self.zero
        for item in items:
            acc = self.plus(acc, item)
        return acc


def _two_plus(reverse: bool) -> Callable:
    """top2's plus (`reverse`) or bot2's: the two greatest, or least,
    different elements among the (up to four) components, None-padded."""
    def plus(p, q):
        vals = sorted({v for v in (*p, *q) if v is not None}, reverse=reverse)
        return (*vals, None, None)[:2]
    return plus


def _extreme_plus(choose: Callable) -> Callable:
    """max's plus (`choose` is `max`) or min's: the other value when one
    is the zero None, else the chosen one."""
    def plus(a, b):
        return b if a is None else a if b is None else choose(a, b)
    return plus


RAT_ADD = Monoid("rationals with addition", lambda a, b: a + b, Fraction(0),
                 inverse=lambda a: -a)
INT_ADD = Monoid("integers with addition", lambda a, b: a + b, 0,
                 inverse=lambda a: -a)
Z2_ADD = Monoid("two-element parity group", lambda a, b: (a + b) % 2, 0,
                inverse=lambda a: a)
RATNZ_MUL = Monoid("nonzero rationals with multiplication",
                   lambda a, b: a * b, Fraction(1),
                   inverse=lambda a: 1 / a)
MAX_MONOID = Monoid("rationals with maximum", _extreme_plus(max), None,
                    idempotent=True)
MIN_MONOID = Monoid("rationals with minimum", _extreme_plus(min), None,
                    idempotent=True)
TOP2_MONOID = Monoid("two greatest distinct rationals", _two_plus(True),
                     (None, None), idempotent=True)
BOT2_MONOID = Monoid("two least distinct rationals", _two_plus(False),
                     (None, None), idempotent=True)


# ---------------------------------------------------------------------------
# Aggregation function descriptors
# ---------------------------------------------------------------------------

class AggregationFunction(Value):
    """Descriptor bundling a function's arity and abstract properties.

    `tuple_map` sends a bag element (a k-tuple) into the monoid; it is
    None for the two functions (cntd, avg) that are not monoid folds and
    are computed directly.  `prod_special` marks prod, whose monoid only
    covers the nonzero rationals and whose zero case is handled apart.
    `singleton_determining` holds iff distinct singleton bags always yield
    distinct values.
    """

    __slots__ = _fields = (
        "name", "arity", "monoid", "tuple_map", "shiftable",
        "singleton_determining", "decomposable", "prod_special")

    def __init__(self, name: str, arity: int, monoid: Optional[Monoid] = None,
                 tuple_map: Optional[Callable] = None, shiftable: bool = False,
                 singleton_determining: bool = True,
                 decomposable: bool = False, prod_special: bool = False):
        self._init(name, arity, monoid, tuple_map, shiftable,
                   singleton_determining, decomposable, prod_special)

    def __repr__(self):
        return f"AggregationFunction({self.name!r})"

    def __reduce__(self):
        # descriptors are singletons; pickle them by registry name so the
        # callables inside never cross process boundaries
        return (_registered_function, (self.name,))


def _registered_function(name: str) -> "AggregationFunction":
    return FUNCTIONS[name]


COUNT = AggregationFunction(
    "count", 0, monoid=INT_ADD, tuple_map=lambda t: 1,
    shiftable=True, decomposable=True)
PARITY = AggregationFunction(
    "parity", 0, monoid=Z2_ADD, tuple_map=lambda t: 1,
    shiftable=True, decomposable=True)
SUM = AggregationFunction(
    "sum", 1, monoid=RAT_ADD, tuple_map=lambda t: t[0],
    decomposable=True)
PROD = AggregationFunction(
    "prod", 1, monoid=RATNZ_MUL, tuple_map=lambda t: t[0],
    prod_special=True)
AVG = AggregationFunction("avg", 1)
MAX = AggregationFunction(
    "max", 1, monoid=MAX_MONOID, tuple_map=lambda t: t[0],
    shiftable=True, decomposable=True)
MIN = AggregationFunction(
    "min", 1, monoid=MIN_MONOID, tuple_map=lambda t: t[0],
    shiftable=True, decomposable=True)
CNTD = AggregationFunction(
    "cntd", 1, shiftable=True, singleton_determining=False)
TOP2 = AggregationFunction(
    "top2", 1, monoid=TOP2_MONOID, tuple_map=lambda t: (t[0], None),
    shiftable=True, decomposable=True)
# mirror of top2; exposed through the API but not part of the query grammar
BOT2 = AggregationFunction(
    "bot2", 1, monoid=BOT2_MONOID, tuple_map=lambda t: (t[0], None),
    shiftable=True, decomposable=True)

FUNCTIONS = {f.name: f for f in
             (COUNT, PARITY, SUM, PROD, AVG, MAX, MIN, CNTD, TOP2, BOT2)}

#: names admitted by the query grammar
GRAMMAR_FUNCTIONS = ("count", "parity", "sum", "prod", "avg",
                     "max", "min", "cntd", "top2")


# ---------------------------------------------------------------------------
# Applying a function to a concrete bag
# ---------------------------------------------------------------------------

def apply(func: AggregationFunction, bag) -> object:
    """Evaluate `func` on a bag (iterable of constant tuples), exactly.

    Raises EmptyBagError on an empty bag: query groups are nonempty by
    construction, so an empty bag signals a caller bug.
    """
    bag = list(bag)
    if not bag:
        raise EmptyBagError(f"empty group passed to {func.name}")
    for t in bag:
        if len(t) != func.arity:
            raise ValueError(
                f"{func.name} expects {func.arity}-tuples, got {t!r}")
    if func.name == "cntd":
        return len(set(bag))
    if func.name == "avg":
        return Fraction(sum(t[0] for t in bag), len(bag))
    if func.name == "prod" and any(t[0] == 0 for t in bag):
        return Fraction(0)
    return func.monoid.fold(func.tuple_map(t) for t in bag)


def apply_shifting(phi: dict, bag) -> list:
    """Map a strictly increasing partial function over a bag, elementwise.

    `phi` must be defined on every constant occurring in the bag and be
    strictly increasing on its domain.
    """
    items = sorted(phi.items())
    for (a, fa), (b, fb) in zip(items, items[1:]):
        if not fa < fb:
            raise ValueError(f"not strictly increasing: {a}->{fa}, {b}->{fb}")
    out = []
    for t in bag:
        try:
            out.append(tuple(phi[v] for v in t))
        except KeyError as exc:
            raise ValueError(f"shifting undefined on {exc.args[0]}") from exc
    return out


def format_value(value) -> str:
    """Render an aggregate value for reports and counterexample files."""
    if value is None:
        return "-"
    if isinstance(value, tuple):
        return "(" + ", ".join("_" if v is None else format_value(v)
                               for v in value) + ")"
    if isinstance(value, Fraction) and value.denominator != 1:
        return f"{value.numerator}/{value.denominator}"
    return str(int(value)) if isinstance(value, (int, Fraction)) else str(value)


def value_to_json(value):
    """JSON-friendly form of an aggregate value (exact, as strings)."""
    if value is None:
        return None
    if isinstance(value, tuple):
        return [value_to_json(v) for v in value]
    return format_value(value)
