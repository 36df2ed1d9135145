import random
from fractions import Fraction

import pytest

from aggequiv.aggregation import (
    BOT2_MONOID, EmptyBagError, FUNCTIONS, MAX_MONOID, MIN_MONOID, RAT_ADD,
    RATNZ_MUL, TOP2_MONOID, Z2_ADD, apply, apply_shifting, format_value,
)

F = Fraction


def bag(*values):
    return [(F(v),) for v in values]


def test_sum_and_count_and_parity():
    assert apply(FUNCTIONS["sum"], bag(2, 2)) == 4
    assert apply(FUNCTIONS["sum"], bag(4)) == 4
    assert apply(FUNCTIONS["count"], [(), (), ()]) == 3
    # 1 + 1 = 0 in the two-element group
    assert apply(FUNCTIONS["parity"], [(), ()]) == 0
    assert apply(FUNCTIONS["parity"], [(), (), ()]) == 1


def test_top2_monoid_examples():
    plus = TOP2_MONOID.plus
    assert plus((F(5), None), (F(2), F(1))) == (F(5), F(2))
    assert plus((F(5), F(2)), (F(5), F(1))) == (F(5), F(2))
    assert plus((F(5), None), (F(5), None)) == (F(5), None)
    assert TOP2_MONOID.zero == (None, None)


def test_top2_fold_takes_two_greatest_distinct():
    assert apply(FUNCTIONS["top2"], bag(5, 2, 1)) == (F(5), F(2))
    assert apply(FUNCTIONS["top2"], bag(7, 7)) == (F(7), None)
    rng = random.Random(7)
    for _ in range(300):
        values = [F(rng.randint(-9, 9)) for _ in range(rng.randint(1, 6))]
        expected_distinct = sorted(set(values), reverse=True)
        expected = (expected_distinct[0],
                    expected_distinct[1] if len(expected_distinct) > 1 else None)
        assert apply(FUNCTIONS["top2"], [(v,) for v in values]) == expected


def test_min_and_bot2_mirror_max_and_top2():
    assert apply(FUNCTIONS["min"], bag(5, 2, 9)) == 2
    assert apply(FUNCTIONS["max"], bag(5, 2, 9)) == 9
    assert apply(FUNCTIONS["bot2"], bag(5, 2, 9)) == (F(2), F(5))
    assert apply(FUNCTIONS["bot2"], bag(3, 3)) == (F(3), None)


def test_avg_and_cntd_and_prod():
    assert apply(FUNCTIONS["avg"], bag(1, 2)) == F(3, 2)
    assert apply(FUNCTIONS["avg"], bag(1, 1, 1)) == 1
    assert apply(FUNCTIONS["cntd"], bag(1, 1, 2)) == 2
    assert apply(FUNCTIONS["prod"], bag(2, 3)) == 6
    # zero annihilates even though the product monoid excludes it
    assert apply(FUNCTIONS["prod"], bag(0, 5, -2)) == 0
    assert apply(FUNCTIONS["prod"], bag(F(1, 2), 4)) == 2


def test_empty_bag_rejected():
    with pytest.raises(EmptyBagError):
        apply(FUNCTIONS["sum"], [])


def test_arity_mismatch_rejected():
    with pytest.raises(ValueError):
        apply(FUNCTIONS["count"], bag(1))
    with pytest.raises(ValueError):
        apply(FUNCTIONS["sum"], [()])


def test_apply_shifting():
    phi = {F(2): F(3), F(4): F(5)}
    assert apply_shifting(phi, bag(2, 2)) == bag(3, 3)
    identity = {F(1): F(1), F(2): F(2)}
    assert apply_shifting(identity, bag(1, 2, 2)) == bag(1, 2, 2)
    phi2 = {F(1): F(10), F(2): F(20)}
    assert apply_shifting(phi2, bag(1, 2, 2)) == bag(10, 20, 20)
    with pytest.raises(ValueError):
        apply_shifting({F(1): F(5), F(2): F(5)}, bag(1))
    with pytest.raises(ValueError):
        apply_shifting({F(1): F(5)}, bag(2))


def test_singleton_determining_classification():
    assert FUNCTIONS["max"].singleton_determining
    assert FUNCTIONS["top2"].singleton_determining
    assert FUNCTIONS["sum"].singleton_determining
    assert FUNCTIONS["prod"].singleton_determining
    assert FUNCTIONS["avg"].singleton_determining
    # nullary functions have a single-point domain, hence trivially so
    assert FUNCTIONS["count"].singleton_determining
    assert FUNCTIONS["parity"].singleton_determining
    assert not FUNCTIONS["cntd"].singleton_determining


def test_property_table():
    shiftable = {n for n, f in FUNCTIONS.items() if f.shiftable}
    assert shiftable == {"count", "parity", "cntd", "max", "min",
                         "top2", "bot2"}
    decomposable = {n for n, f in FUNCTIONS.items() if f.decomposable}
    assert decomposable == {"count", "parity", "sum", "max", "min",
                            "top2", "bot2"}
    assert FUNCTIONS["prod"].prod_special
    # decomposable functions are exactly those with an idempotent or
    # group monoid, product excepted
    for name, f in FUNCTIONS.items():
        if f.monoid is None:
            assert not f.decomposable
        elif name != "prod":
            assert f.decomposable == (f.monoid.idempotent or f.monoid.is_group)


def test_sum_prod_not_shiftable_on_paper_witness():
    b1, b2 = bag(2, 2), bag(4)
    phi = {F(2): F(3), F(4): F(5)}
    for name in ("sum", "prod"):
        func = FUNCTIONS[name]
        assert apply(func, b1) == apply(func, b2) == 4
        shifted1 = apply(func, apply_shifting(phi, b1))
        shifted2 = apply(func, apply_shifting(phi, b2))
        assert shifted1 != shifted2
    assert apply(FUNCTIONS["sum"], apply_shifting(phi, b1)) == 6
    assert apply(FUNCTIONS["prod"], apply_shifting(phi, b1)) == 9
    assert apply(FUNCTIONS["sum"], apply_shifting(phi, b2)) == 5


def _monoid_samples(rng, monoid, count):
    if monoid is Z2_ADD:
        return [rng.randint(0, 1) for _ in range(count)]
    if monoid in (MAX_MONOID, MIN_MONOID):
        return [F(rng.randint(-50, 50)) for _ in range(count)]
    if monoid in (TOP2_MONOID, BOT2_MONOID):
        out = []
        for _ in range(count):
            a, b = sorted((rng.randint(-20, 20), rng.randint(-20, 20)),
                          reverse=monoid is TOP2_MONOID)
            out.append((F(a), F(b)) if a != b else (F(a), None))
        return out
    if monoid is RATNZ_MUL:
        return [F(rng.choice([v for v in range(-9, 10) if v]),
                  rng.randint(1, 9)) for _ in range(count)]
    return [F(rng.randint(-100, 100), rng.randint(1, 10))
            for _ in range(count)]


@pytest.mark.parametrize("monoid", [RAT_ADD, Z2_ADD, RATNZ_MUL, MAX_MONOID,
                                    MIN_MONOID, TOP2_MONOID, BOT2_MONOID])
def test_monoid_laws_sampled(monoid):
    rng = random.Random(hash(monoid.name) % 100000)
    xs = _monoid_samples(rng, monoid, 200)
    for a, b, c in zip(xs, xs[1:], xs[2:]):
        assert monoid.plus(monoid.plus(a, b), c) == \
            monoid.plus(a, monoid.plus(b, c))
        assert monoid.plus(a, b) == monoid.plus(b, a)
        assert monoid.plus(a, monoid.zero) == a
        if monoid.idempotent:
            assert monoid.plus(a, a) == a
        if monoid.is_group:
            assert monoid.plus(a, monoid.inverse(a)) == monoid.zero


def test_format_value():
    assert format_value(F(3)) == "3"
    assert format_value(F(3, 2)) == "3/2"
    assert format_value((F(5), None)) == "(5, _)"
    assert format_value(None) == "-"
