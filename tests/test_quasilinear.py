import random
import time
from fractions import Fraction

import pytest

from aggequiv import engine, oracle
from aggequiv.model import INTEGERS, Var
from aggequiv.normalize import reduce_query
from aggequiv.parsing import parse_query
from aggequiv.quasilinear import (
    equivalent_quasilinear, find_isomorphism, is_quasilinear,
)

from helpers import random_quasilinear_pair

F = Fraction


def verify_ce(q, q2, verdict):
    assert verdict.status == engine.NOT_EQUIVALENT
    ce = verdict.counterexample
    left = dict(oracle.eval_concrete(q, ce.database))
    right = dict(oracle.eval_concrete(q2, ce.database))
    assert left.get(ce.group) == ce.left_value
    assert right.get(ce.group) == ce.right_value
    assert ce.left_value != ce.right_value


def test_is_quasilinear():
    assert is_quasilinear(parse_query(
        "q(X; max(Y)) :- p(X), r(X, Y), !s(X)"))
    assert not is_quasilinear(parse_query("q(; count()) :- p(X), p(Y)"))
    assert not is_quasilinear(parse_query(
        "q(; count()) :- r(X), !p(X), p(Y), X < Y"))
    # repeating a predicate only in negated literals is fine
    assert is_quasilinear(parse_query(
        "q(X; count()) :- r(X, Y), !p(X), !p(Y)"))
    with pytest.raises(ValueError):
        is_quasilinear(parse_query("q(; count()) :- p(X) | r(X)"))


def test_isomorphism_by_renaming():
    q = parse_query("q(X; sum(Y)) :- p(X, Y)")
    q2 = parse_query("q(U; sum(V)) :- p(U, V)")
    iso = find_isomorphism(q, q2)
    assert iso is not None
    assert iso.substitution == {Var("U"): Var("X"), Var("V"): Var("Y")}


def test_isomorphism_entailment_based_comparisons():
    q = parse_query("q(; max(Y)) :- p(X, Y), X < Y")
    q2 = parse_query("q(; max(V)) :- p(U, V), V > U")
    assert find_isomorphism(q, q2) is not None
    q3 = parse_query("q(; max(V)) :- p(U, V), V >= U")
    assert find_isomorphism(q, q3) is None  # strictly weaker comparison


def test_isomorphism_negated_atom_mismatch():
    q = parse_query("q(X; sum(Y)) :- p(X, Y), !s(X)")
    q2 = parse_query("q(U; sum(V)) :- p(U, V), !t(U)")
    assert find_isomorphism(q, q2) is None


def test_isomorphism_of_query_with_itself_is_identity():
    q = reduce_query(parse_query(
        "q(X; max(Y)) :- p(X, Y), r(X), !s(X), X < Y"))
    iso = find_isomorphism(q, q)
    assert iso is not None
    assert all(k == v for k, v in iso.substitution.items())


def test_isomorphism_is_symmetric():
    pairs = [
        ("q(X; sum(Y)) :- p(X, Y)", "q(U; sum(V)) :- p(U, V)"),
        ("q(X; sum(Y)) :- p(X, Y), !s(X)", "q(U; sum(V)) :- p(U, V), !t(U)"),
        ("q(; count()) :- p(X), r(X)", "q(; count()) :- p(X), r(Y), X = Y"),
    ]
    for text1, text2 in pairs:
        q = reduce_query(parse_query(text1))
        q2 = reduce_query(parse_query(text2))
        assert (find_isomorphism(q, q2) is None) == \
            (find_isomorphism(q2, q) is None)


def test_isomorphism_backtracks_on_general_conjunctive_queries():
    q = parse_query("q(; count()) :- e(X, Y), e(Y, Z)")
    q2 = parse_query("q(; count()) :- e(B, C), e(A, B)")
    iso = find_isomorphism(q, q2)
    assert iso is not None
    assert iso.substitution == {Var("A"): Var("X"), Var("B"): Var("Y"),
                                Var("C"): Var("Z")}


def test_equivalent_quasilinear_accepts_renaming():
    q = parse_query("q(X; max(Y)) :- p(X, Y)")
    q2 = parse_query("q(U; max(V)) :- p(U, V)")
    assert equivalent_quasilinear(q, q2).status == engine.EQUIVALENT


def test_equivalent_quasilinear_negated_difference():
    q = parse_query("q(X; sum(Y)) :- p(X, Y), !s(X)")
    q2 = parse_query("q(U; sum(V)) :- p(U, V), !t(U)")
    verdict = equivalent_quasilinear(q, q2)
    verify_ce(q, q2, verdict)


def test_equivalent_quasilinear_grouping_constant_mismatch():
    q = parse_query("q(1; max(Y)) :- p(Y)")
    q2 = parse_query("q(2; max(Y)) :- p(Y)")
    verdict = equivalent_quasilinear(q, q2)
    verify_ce(q, q2, verdict)


def test_equivalent_quasilinear_aggregate_argument_swap():
    # same positive shape, different aggregate argument: single-fact
    # databases cannot tell cntd apart, so the refutation's cntd stage
    # joins two instances that differ only at the aggregate argument
    q = parse_query("q(; cntd(X)) :- p(X, Y)")
    q2 = parse_query("q(; cntd(Y)) :- p(X, Y)")
    verdict = equivalent_quasilinear(q, q2)
    verify_ce(q, q2, verdict)
    assert len(verdict.counterexample.database) > 1


def test_equivalent_quasilinear_sum_argument_swap():
    q = parse_query("q(; sum(X)) :- p(X, Y)")
    q2 = parse_query("q(; sum(Y)) :- p(X, Y)")
    verdict = equivalent_quasilinear(q, q2)
    verify_ce(q, q2, verdict)


def test_unsatisfiable_handling():
    dead = parse_query("q(; count()) :- p(X), X < 0, X > 0")
    dead2 = parse_query("q(; count()) :- p(X), X < -1, X > 1")
    live = parse_query("q(; count()) :- p(X)")
    assert equivalent_quasilinear(dead, dead2).status == engine.EQUIVALENT
    verdict = equivalent_quasilinear(dead, live)
    verify_ce(dead, live, verdict)
    verdict = equivalent_quasilinear(live, dead)
    verify_ce(live, dead, verdict)


def test_grouping_and_aggregation_variables_equal_through_a_third():
    # reduction represents {X, Y, Z} by a head variable, so the grouping
    # variable Z and the aggregation variable Y stay apart
    q = parse_query("q(Z; min(Y)) :- s(Y, Z), Z = X, Y = X")
    q2 = parse_query("q(Z; min(Y)) :- s(Y, Z), Z = Y")
    assert equivalent_quasilinear(q, q2).status == engine.EQUIVALENT
    assert equivalent_quasilinear(q2, q).status == engine.EQUIVALENT


def test_a_kept_head_equality_is_refuted_or_unsupported():
    """A grouping variable forced equal to an aggregation variable stays in
    the reduced query, so non-isomorphic pairs can be equivalent: they are
    refuted where a candidate separates them, and unsupported otherwise."""
    q = parse_query("q(X; max(Y)) :- p(X, Y), X <= Y, Y <= X")
    swapped = parse_query("q(X; max(Y)) :- p(Y, X), X = Y")
    plain = parse_query("q(X; max(Y)) :- p(X, Y)")
    assert equivalent_quasilinear(q, swapped).status == engine.UNSUPPORTED
    verify_ce(q, plain, equivalent_quasilinear(q, plain))


def test_refutation_needs_no_database_enumeration(monkeypatch):
    """300 random quasilinear pairs (`random_quasilinear_pair`): every
    call answers without the brute-force sweep, and every counterexample
    re-verifies.  Refuting some of them needs the other side's comparison
    terms mapped into the instance, some a negated fact, and some cntd
    pairs two facts."""
    def no_sweep(*args, **kwargs):
        raise AssertionError("the refutation enumerated databases")
    monkeypatch.setattr(oracle, "brute_force_check", no_sweep)
    rng = random.Random(1)
    statuses = []
    for _ in range(300):
        text1, text2, domain = random_quasilinear_pair(rng)
        q = parse_query(text1, domain=domain)
        q2 = parse_query(text2, domain=domain)
        verdict = equivalent_quasilinear(q, q2)
        statuses.append(verdict.status)
        if verdict.status == engine.NOT_EQUIVALENT:
            verify_ce(q, q2, verdict)
    assert set(statuses) == {engine.EQUIVALENT, engine.NOT_EQUIVALENT,
                             engine.UNSUPPORTED}


def test_cntd_gate():
    strict = parse_query("q(; cntd(Y)) :- p(X, Y), X < Y")
    assert equivalent_quasilinear(strict, strict).status == \
        engine.UNSUPPORTED
    weak = parse_query("q(; cntd(Y)) :- p(X, Y), X <= Y")
    assert equivalent_quasilinear(weak, weak).status == engine.EQUIVALENT
    # integer domain with constants is outside the gate
    consts_int = parse_query("q(; cntd(Y)) :- p(Y), Y >= 3", domain=INTEGERS)
    assert equivalent_quasilinear(consts_int, consts_int).status == \
        engine.UNSUPPORTED
    # integer domain without constants is fine
    free_int = parse_query("q(; cntd(Y)) :- p(X, Y), X <= Y", domain=INTEGERS)
    assert equivalent_quasilinear(free_int, free_int).status == \
        engine.EQUIVALENT
    # rational domain with constants is fine
    consts_rat = parse_query("q(; cntd(Y)) :- p(Y), Y >= 3")
    assert equivalent_quasilinear(consts_rat, consts_rat).status == \
        engine.EQUIVALENT


def test_input_validation():
    q = parse_query("q(; count()) :- p(X), p(Y)")
    with pytest.raises(ValueError, match="quasilinear"):
        equivalent_quasilinear(q, q)
    a = parse_query("q(; sum(Y)) :- p(Y)")
    b = parse_query("q(; max(Y)) :- p(Y)")
    with pytest.raises(ValueError, match="different aggregation"):
        equivalent_quasilinear(a, b)


def test_paper_non_singleton_determining_cntd_pair():
    # cntd has colliding singleton bags, so these two queries return the
    # same results everywhere yet are not isomorphic; they are not
    # quasilinear (p occurs twice positively), keeping the fast path out
    q = parse_query("q(; cntd(1)) :- p(1), p(2)")
    q2 = parse_query("q(; cntd(2)) :- p(1), p(2)")
    assert not is_quasilinear(q)
    assert find_isomorphism(q, q2) is None
    assert engine.n_equivalent(q, q2, 3).status == engine.EQUIVALENT
    with pytest.raises(ValueError, match="quasilinear"):
        equivalent_quasilinear(q, q2)


def test_agreement_with_engine_on_quasilinear_pairs():
    pairs = [
        ("q(X; max(Y)) :- p(X, Y)", "q(U; max(V)) :- p(U, V)"),
        ("q(X; sum(Y)) :- p(X, Y), !b(X)", "q(U; sum(V)) :- p(U, V), !b(U)"),
        ("q(; count()) :- p(X), X > 1", "q(; count()) :- p(Y), Y > 1"),
        ("q(; count()) :- p(X), X > 1", "q(; count()) :- p(Y), Y >= 1"),
        ("q(; min(Y)) :- p(Y), !b(Y)", "q(; min(V)) :- p(V), !c(V)"),
        ("q(; top2(Y)) :- p(Y), Y > 0", "q(; top2(V)) :- p(V), 0 < V"),
        ("q(; parity()) :- p(X, Y), X <= Y", "q(; parity()) :- p(A, B), B >= A"),
        ("q(; sum(Y)) :- p(Y), r(Y)", "q(; sum(Y)) :- r(Y), p(Y)"),
    ]
    for text1, text2 in pairs:
        q, q2 = parse_query(text1), parse_query(text2)
        fast = equivalent_quasilinear(q, q2)
        full = engine.equivalent(q, q2)
        assert fast.status == full.status, (text1, text2)
        if fast.status == engine.NOT_EQUIVALENT:
            verify_ce(q, q2, fast)


def test_fifty_atom_pair_is_fast():
    atoms1, atoms2 = [], []
    for i in range(50):
        atoms1.append(f"p{i}(X{i}, X{i + 1})")
        atoms2.append(f"p{i}(V{i}, V{i + 1})")
    body1 = ", ".join(atoms1) + ", !s(X0), X0 < X50"
    body2 = ", ".join(atoms2) + ", !s(V0), V0 < V50"
    q = parse_query(f"q(X0; sum(X50)) :- {body1}")
    q2 = parse_query(f"q(V0; sum(V50)) :- {body2}")
    started = time.monotonic()
    verdict = equivalent_quasilinear(q, q2)
    elapsed = time.monotonic() - started
    assert verdict.status == engine.EQUIVALENT
    assert elapsed < 1.0
