"""The value types' contract: immutable classes that construct, compare,
hash, print, pickle and copy as the frozen dataclasses they replace did.
`Query` alone is still a dataclass, so `dataclasses.replace` works on it.
"""

import copy
import dataclasses
import operator
import pickle
from fractions import Fraction

import pytest

from aggequiv.aggregation import FUNCTIONS, AggregationFunction, Monoid
from aggequiv.engine import Counterexample, Verdict
from aggequiv.identity import IdentityVerdict, OrderedIdentity
from aggequiv.model import (
    AggregateTerm, Atom, Comparison, Condition, Const, Database, Var,
)
from aggequiv.orderings import CompleteOrdering
from aggequiv.parsing import parse_query
from aggequiv.quasilinear import Homomorphism

F = Fraction
X, Y = Var("X"), Var("Y")
ORDERING = CompleteOrdering(((X,), (Y,)), "rat")
DB = Database(frozenset({("p", (F(1),))}))

#: (class, its fields in order with one value each, the fields that have
#: a default with that default, the dataclass repr of the value)
SPECS = [
    (Monoid,
     dict(name="m", plus=operator.add, zero=0, idempotent=True,
          inverse=operator.neg),
     dict(idempotent=False, inverse=None),
     "Monoid(name='m', plus=<built-in function add>, zero=0, "
     "idempotent=True, inverse=<built-in function neg>)"),
    (AggregationFunction,
     dict(name="avg", arity=1, monoid=None, tuple_map=None, shiftable=False,
          singleton_determining=True, decomposable=False,
          prod_special=False),
     dict(monoid=None, tuple_map=None, shiftable=False,
          singleton_determining=True, decomposable=False,
          prod_special=False),
     "AggregationFunction('avg')"),
    (Var, dict(name="X"), {}, "Var(name='X')"),
    (Const, dict(value=F(1, 2)), {}, "Const(value=Fraction(1, 2))"),
    (Atom, dict(predicate="p", args=(Y,), positive=False),
     dict(positive=True),
     "Atom(predicate='p', args=(Var(name='Y'),), positive=False)"),
    (Comparison, dict(lhs=X, op="<", rhs=Const(2)), {},
     "Comparison(lhs=Var(name='X'), op='<', "
     "rhs=Const(value=Fraction(2, 1)))"),
    (Condition, dict(atoms=(Atom("p", (X,)),),
                     comparisons=(Comparison(X, "!=", Y),)),
     dict(atoms=(), comparisons=()),
     "Condition(atoms=(Atom(predicate='p', args=(Var(name='X'),), "
     "positive=True),), comparisons=(Comparison(lhs=Var(name='X'), "
     "op='!=', rhs=Var(name='Y')),))"),
    (AggregateTerm, dict(function=FUNCTIONS["sum"], args=(Y,)), {},
     "AggregateTerm(function=AggregationFunction('sum'), "
     "args=(Var(name='Y'),))"),
    (Database, dict(facts=DB.facts), dict(facts=frozenset()),
     "Database(facts=frozenset({('p', (Fraction(1, 1),))}))"),
    (CompleteOrdering, dict(classes=((X,), (Y,)), domain="int"), {},
     "CompleteOrdering(classes=((Var(name='X'),), (Var(name='Y'),)), "
     "domain='int')"),
    (OrderedIdentity,
     dict(ordering=ORDERING, left=((X,),), right=((Y,),),
          function=FUNCTIONS["max"]), {},
     "OrderedIdentity(ordering=CompleteOrdering(classes=((Var(name='X'),), "
     "(Var(name='Y'),)), domain='rat'), left=((Var(name='X'),),), "
     "right=((Var(name='Y'),),), function=AggregationFunction('max'))"),
    (IdentityVerdict, dict(valid=False, witness=None), dict(witness=None),
     "IdentityVerdict(valid=False, witness=None)"),
    (Counterexample,
     dict(database=DB, group=(F(0),), left_value=1, right_value=None), {},
     "Counterexample(database=Database(facts=frozenset({('p', "
     "(Fraction(1, 1),))})), group=(Fraction(0, 1),), left_value=1, "
     "right_value=None)"),
    (Verdict,
     dict(status="not_equivalent", counterexample=Counterexample(
         Database(), (), 1, 2), n_used=2, reason="why"),
     dict(counterexample=None, n_used=None, reason=None),
     "Verdict(status='not_equivalent', counterexample=Counterexample("
     "database=Database(facts=frozenset()), group=(), left_value=1, "
     "right_value=2), n_used=2, reason='why')"),
    (Homomorphism, dict(substitution={X: Y}), {},
     "Homomorphism(substitution={Var(name='X'): Var(name='Y')})"),
]
PARAMS = [pytest.param(*spec, id=spec[0].__name__) for spec in SPECS]


@pytest.mark.parametrize("cls, fields, defaults, text", PARAMS)
def test_construction_repr_and_hash(cls, fields, defaults, text):
    value = cls(*fields.values())
    assert value == cls(**fields)
    assert [getattr(value, name) for name in fields] == list(fields.values())
    assert repr(value) == text
    required = {k: v for k, v in fields.items() if k not in defaults}
    plain = cls(**required)
    assert {k: getattr(plain, k) for k in defaults} == defaults
    if cls is Homomorphism:  # its substitution is a dict
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(tuple(fields.values()))


@pytest.mark.parametrize("cls, fields, defaults, text", PARAMS)
def test_immutable_and_equal_within_its_class_only(cls, fields, defaults,
                                                    text):
    value = cls(**fields)
    name = next(iter(fields))
    for attempt in (lambda: setattr(value, name, None),
                    lambda: setattr(value, "other", None),
                    lambda: delattr(value, name)):
        with pytest.raises(AttributeError):
            attempt()
    assert getattr(value, name) == fields[name]
    assert value != tuple(fields.values())
    for other_cls, other_fields, _, _ in SPECS:
        if other_cls is not cls:
            assert value != other_cls(**other_fields)
    if cls not in (Var, Const):
        with pytest.raises(TypeError):
            value < value


def test_vars_and_consts_order_by_their_field():
    assert Var("X") < Var("Y") <= Var("Y") and Var("b") > Var("a") >= Var("a")
    assert Const(-1) < Const(F(1, 2)) <= Const(1) and not Const(1) < Const(1)
    assert sorted([Var("Z"), Var("A"), Var("M")]) == [
        Var("A"), Var("M"), Var("Z")]
    assert Const(3) == Const(F(3)) and Const(3).value.__class__ is Fraction
    with pytest.raises(TypeError):
        Var("X") < Const(1)


@pytest.mark.parametrize("cls, fields, defaults, text", PARAMS)
def test_pickle_copy_and_deepcopy_round_trip(cls, fields, defaults, text):
    value = cls(**fields)
    copies = [pickle.loads(pickle.dumps(value, protocol))
              for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1)]
    copies += [copy.copy(value), copy.deepcopy(value)]
    for twin in copies:
        assert type(twin) is cls and twin == value
        assert repr(twin) == repr(value)
        if cls is AggregationFunction:
            assert twin is FUNCTIONS["avg"]


def test_an_ordering_pickles_without_its_caches():
    ordering = CompleteOrdering(((Const(0), X), (Y,)), "int")
    assert ordering.position(Y) == 1 and ordering.reduction[1]
    twin = pickle.loads(pickle.dumps(ordering))
    assert twin == ordering and vars(twin) == {
        "classes": ordering.classes, "domain": "int"}
    assert twin.reduction == ordering.reduction


def test_registered_functions_survive_pickling_as_singletons():
    for function in FUNCTIONS.values():
        assert pickle.loads(pickle.dumps(function)) is function
        assert copy.deepcopy(function) is function


def test_construction_checks_still_run():
    with pytest.raises(ValueError, match="bad comparison operator"):
        Comparison(X, "<>", Y)
    with pytest.raises(ValueError, match=r"got \(Var\(name='X'\), "
                                         r"Var\(name='X'\)\)"):
        OrderedIdentity(ORDERING, ((X, X),), ((X,),), FUNCTIONS["sum"])


def test_replace_still_works_on_a_query():
    """`Query` alone is still a dataclass."""
    assert not any(dataclasses.is_dataclass(cls) for cls, *_ in SPECS)
    q = parse_query("q(X; sum(Y)) :- p(X, Y)")
    counted = AggregateTerm(FUNCTIONS["count"], ())
    replaced = dataclasses.replace(q, aggregate=counted)
    assert dataclasses.is_dataclass(q) and replaced.aggregate == counted
    assert replaced.disjuncts == q.disjuncts
    assert str(replaced) == "q(X; count()) :- p(X, Y)"
