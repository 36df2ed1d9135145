import random
from collections import Counter
from fractions import Fraction

import pytest

from aggequiv.aggregation import AggregationFunction, FUNCTIONS, apply
from aggequiv import identity as identity_module
from aggequiv.identity import (
    IdentityVerdict, OrderedIdentity, _refutes, decide, decide_prod,
    decide_shiftable, decide_sum, instantiate_bag,
)
from aggequiv.model import Comparison, Const, INTEGERS, RATIONALS, Var
from aggequiv.orderings import CompleteOrdering, entails
from helpers import (
    branch_only_decide_prod, canonical_decide_shiftable,
    int_sum_identity_box_refutation, random_bag,
    random_ordering, random_satisfying_assignment, sum_identity_valid_by_fm,
)

F = Fraction
x, y, z, u, v = (Var(n) for n in "xyzuv")


def C(val):
    return Const(F(val))


def L(classes, domain=RATIONALS):
    return CompleteOrdering.of(classes, domain)


def ident(ordering, left, right, name):
    return OrderedIdentity(ordering, tuple(left), tuple(right),
                           FUNCTIONS[name])


def assert_witness_refutes(identity, verdict):
    assert not verdict.valid
    witness = verdict.witness
    # the witness satisfies the ordering ...
    for a in identity.ordering.terms():
        for b in identity.ordering.terms():
            if a == b:
                continue
            for op in ("<", "=", ">"):
                cmp = Comparison(a, op, b)
                if entails(identity.ordering, cmp):
                    assert cmp.holds(witness[a], witness[b])
    # ... and produces different aggregates
    func = identity.function
    left = apply(func, instantiate_bag(witness, identity.left))
    right = apply(func, instantiate_bag(witness, identity.right))
    assert left != right


# ---------------------------------------------------------------------------
# Shiftable route
# ---------------------------------------------------------------------------

def test_count_cardinality():
    order = L([[x], [y]])
    assert decide(ident(order, [(), ()], [(), ()], "count")).valid
    assert not decide(ident(order, [()], [(), ()], "count")).valid


def test_max_single_witness():
    order = L([[x], [y]])
    assert decide(ident(order, [(x,), (y,)], [(y,)], "max")).valid
    bad = ident(order, [(x,)], [(y,)], "max")
    assert_witness_refutes(bad, decide(bad))


def test_cntd_paper_example():
    order = L([[C(1)], [C(2)], [u], [v], [C(7)], [C(8)]])
    identity = ident(order, [(C(1),), (C(2),), (u,)],
                     [(v,), (v,), (C(7),), (C(8),)], "cntd")
    assert decide(identity).valid


def test_top2_disagreement():
    order = L([[x], [y], [z]])
    identity = ident(order, [(x,), (z,)], [(x,), (y,), (z,)], "top2")
    assert_witness_refutes(identity, decide(identity))
    assert decide(ident(order, [(y,), (z,)], [(y,), (z,), (y,)],
                        "top2")).valid


def test_parity_cardinality_mod_two():
    order = L([[x]])
    assert decide(ident(order, [(), (), (), ()], [(), ()], "parity")).valid
    assert not decide(ident(order, [(), ()], [()], "parity")).valid


def test_shiftable_merges_equal_terms_first():
    order = L([[x, y], [z]])
    # x and y are the same value, so cntd sees one distinct element
    identity = ident(order, [(x,), (y,)], [(x,)], "cntd")
    assert decide(identity).valid


def test_decide_shiftable_rejects_nonshiftable():
    with pytest.raises(ValueError):
        decide_shiftable(ident(L([[x]]), [(x,)], [(x,)], "sum"))


# ---------------------------------------------------------------------------
# Sum and average
# ---------------------------------------------------------------------------

def test_sum_permutation_valid():
    order = L([[x], [y], [z]])
    assert decide(ident(order, [(x,), (z,), (y,)], [(y,), (x,), (z,)],
                        "sum")).valid


def test_sum_integer_forcing_vs_rational_freedom():
    identity_z = ident(L([[C(0)], [x], [C(2)]], INTEGERS),
                       [(x,), (x,)], [(C(2),)], "sum")
    assert decide(identity_z).valid
    identity_q = ident(L([[C(0)], [x], [C(2)]], RATIONALS),
                       [(x,), (x,)], [(C(2),)], "sum")
    verdict = decide(identity_q)
    assert_witness_refutes(identity_q, verdict)
    # deterministic: the same witness every time
    assert decide(identity_q).witness == verdict.witness


def test_avg_scaling():
    order = L([[C(0)], [x], [y]])
    assert decide(ident(order, [(x,), (y,)],
                        [(x,), (x,), (y,), (y,)], "avg")).valid
    bad = ident(order, [(x,), (y,)], [(y,), (y,)], "avg")
    assert_witness_refutes(bad, decide(bad))


def test_sum_unbounded_direction():
    order = L([[C(0)], [x], [y]])
    # sum x+y vs 2x: y > x makes the difference positive, always refutable
    identity = ident(order, [(x,), (y,)], [(x,), (x,)], "sum")
    assert_witness_refutes(identity, decide(identity))


def test_sum_rational_witness_close_to_the_boundary():
    # x + y < 2 - 2**-80 holds almost everywhere on 0 < x < y < 1, so the
    # sum passes the bound only within 2**-80 of x = y = 1; the identity
    # fails off the line x + y = 2 - 2**-80 as well, and the witness may
    # sit anywhere off it
    bound = C(2 - F(1, 2 ** 80))
    order = L([[C(0)], [x], [y], [C(1)], [bound]])
    identity = ident(order, [(x,), (y,)], [(bound,)], "sum")
    verdict = decide(identity)
    assert_witness_refutes(identity, verdict)
    assert _refutes(identity, verdict.witness)


def test_sum_no_constants_balanced():
    order = L([[x], [y]], INTEGERS)
    identity = ident(order, [(x,), (y,)], [(y,), (x,)], "sum")
    assert decide(identity).valid
    unbalanced = ident(order, [(x,)], [(y,)], "sum")
    assert_witness_refutes(unbalanced, decide(unbalanced))


def test_sum_matches_fm_oracle_randomized():
    rng = random.Random(2024)
    for _ in range(400):
        order = random_ordering(rng, RATIONALS, max_vars=3, max_consts=2)
        left = random_bag(rng, order, 1)
        right = random_bag(rng, order, 1)
        identity = ident(order, left, right, "sum")
        verdict = decide(identity)
        assert verdict.valid == sum_identity_valid_by_fm(order, left, right)
        if not verdict.valid:
            assert_witness_refutes(identity, verdict)


def test_sum_integer_agrees_with_box_search():
    rng = random.Random(77)
    for _ in range(300):
        order = random_ordering(rng, INTEGERS, max_vars=3, max_consts=2)
        left = random_bag(rng, order, 1)
        right = random_bag(rng, order, 1)
        identity = ident(order, left, right, "sum")
        verdict = decide(identity)
        refutation = int_sum_identity_box_refutation(order, left, right)
        if verdict.valid:
            assert refutation is None
        else:
            assert_witness_refutes(identity, verdict)


def test_sum_integer_bounded_orderings_agree_exactly():
    """With every variable class squeezed between anchors the value box is
    the whole feasible region, so box search is a complete oracle.  The
    tight pair 0 < x < y < 4 leaves room for exactly one shift."""
    from aggequiv.orderings import enumerate_complete_orderings

    def mean(values):
        return F(sum(values), len(values))

    rng = random.Random(123)
    for lo, hi in ((C(-2), C(9)), (C(0), C(4))):
        terms = [lo, hi, x, y]
        bounded = [o for o in enumerate_complete_orderings(terms, INTEGERS)
                   if o.classes[0] == (lo,) and o.classes[-1] == (hi,)]
        for name, aggregate in (("sum", sum), ("avg", mean)):
            for order in bounded:
                for _ in range(10):
                    left = random_bag(rng, order, 1, max_len=3)
                    right = random_bag(rng, order, 1, max_len=3)
                    identity = ident(order, left, right, name)
                    verdict = decide(identity)
                    refutation = int_sum_identity_box_refutation(
                        order, left, right, radius=12, aggregate=aggregate)
                    assert verdict.valid == (refutation is None)
                    if not verdict.valid:
                        assert_witness_refutes(identity, verdict)


def test_sum_invalid_where_the_canonical_assignment_agrees():
    # both sides agree at the canonical assignment (x = 0; x = 1, y = 2),
    # so only moving a variable shows that the identity fails
    for domain in (RATIONALS, INTEGERS):
        identity = ident(L([[x]], domain), [(x,)], [(x,), (x,)], "sum")
        assert_witness_refutes(identity, decide(identity))
    identity = ident(L([[C(0)], [x], [y], [C(4)]], INTEGERS),
                     [(y,)], [(x,), (x,)], "sum")
    assert_witness_refutes(identity, decide(identity))


# ---------------------------------------------------------------------------
# Product
# ---------------------------------------------------------------------------

def test_prod_syntactic_identity():
    order = L([[C(2)], [x], [y]])
    assert decide(ident(order, [(x,), (C(2),), (y,)],
                        [(y,), (x,), (C(2),)], "prod")).valid


def test_prod_zero_annihilates_both_sides():
    order = L([[C(0)], [x], [y]])
    assert decide(ident(order, [(C(0),), (x,)], [(C(0),), (y,)],
                        "prod")).valid


def test_prod_square_vs_single():
    order = L([[C(2)], [x]])
    identity = ident(order, [(x,), (x,)], [(x,)], "prod")
    verdict = decide(identity)
    assert_witness_refutes(identity, verdict)
    assert verdict.witness[x] == F(3)  # canonical two-value construction


def test_prod_sign_split_catches_zero():
    # x ranges over both signs: x*x = x only fails off {0, 1}; the zero
    # extension must still find the refutation
    order = L([[x]], RATIONALS)
    identity = ident(order, [(x,), (x,)], [(x,)], "prod")
    assert_witness_refutes(identity, decide(identity))


def test_prod_merged_zero_branch():
    # over the integers -1 < x < 1 forces x = 0
    order = L([[C(-1)], [x], [C(1)]], INTEGERS)
    assert decide(ident(order, [(x,), (x,)], [(x,)], "prod")).valid


def test_prod_randomized_never_refuted_by_sampling():
    rng = random.Random(5)
    checked_valid = 0
    for _ in range(250):
        order = random_ordering(rng, RATIONALS, max_vars=3, max_consts=1)
        left = random_bag(rng, order, 1, max_len=3)
        right = random_bag(rng, order, 1, max_len=3)
        identity = ident(order, left, right, "prod")
        verdict = decide(identity)
        if verdict.valid:
            checked_valid += 1
            for _ in range(30):
                sample = random_satisfying_assignment(rng, order)
                assert apply(FUNCTIONS["prod"],
                             instantiate_bag(sample, identity.left)) == \
                    apply(FUNCTIONS["prod"],
                          instantiate_bag(sample, identity.right))
        else:
            assert_witness_refutes(identity, verdict)
    assert checked_valid > 10


def test_identical_prod_polynomials_skip_the_zero_branches(monkeypatch):
    """Sides that differ only in order, by constant-1 factors or by terms
    the ordering merges or pins are one polynomial: valid before any
    branch that slots 0 into the ordering is built."""
    def no_branches(ordering):
        raise AssertionError("zero extensions built for equal polynomials")
    monkeypatch.setattr(identity_module, "_zero_extensions", no_branches)
    cases = [
        (L([[x], [y]]), [(x,), (y,)], [(y,), (x,)]),
        (L([[C(1)], [x], [y]]), [(x,), (y,)], [(y,), (C(1),), (x,)]),
        (L([[x], [C(1)]], INTEGERS), [(x,), (C(1),), (C(1),)], [(x,)]),
        (L([[C(0)], [x]]), [(C(0),), (x,)], [(x,), (C(0),)]),
        (L([[x, y], [C(1)]]), [(x,), (x,)], [(y,), (x,), (C(1),)]),
        (L([[C(0)], [x], [C(2)]], INTEGERS), [(x,), (C(2),)], [(C(2),)]),
    ]
    for order, left, right in cases:
        assert decide(ident(order, left, right, "prod")).valid
        assert decide(ident(order, right, left, "prod")).valid


def test_prod_matches_the_branch_only_reference():
    """Random prod identities over 1 and sometimes 0, in both domains:
    the verdict and witness of `decide` are those of deciding every
    identity through the zero-extension branches."""
    rng = random.Random(11)
    kinds = Counter()
    for _ in range(600):
        domain = rng.choice([RATIONALS, INTEGERS])
        order = random_ordering(rng, domain, max_vars=3, max_consts=1,
                                include=rng.choice([(1,), (0, 1)]))
        left = random_bag(rng, order, 1)
        kind = rng.choice(["padded", "constants", "random"])
        if kind == "padded":
            # the same polynomial: reordered, with factors of 1 added
            right = (tuple(rng.sample(left, len(left)))
                     + ((C(1),),) * rng.randint(0, 2))
        elif kind == "constants":
            # the same variables, other constant factors
            constants = [t for t in order.terms() if isinstance(t, Const)]
            right = tuple(tup if isinstance(tup[0], Var)
                          else (rng.choice(constants),) for tup in left)
        else:
            right = random_bag(rng, order, 1)
        identity = ident(order, left, right, "prod")
        verdict = decide(identity)
        assert verdict == branch_only_decide_prod(identity), (
            str(order), left, right)
        kinds[kind, verdict.valid] += 1
        if not verdict.valid:
            assert_witness_refutes(identity, verdict)
    assert kinds["padded", True] > 100 and kinds["padded", False] == 0
    assert kinds["constants", False] > 20 and kinds["random", False] > 50


SHIFTABLE = ["count", "parity", "cntd", "max", "min", "top2", "bot2"]


def _shiftable_bags(rng, order, func):
    """Two bags of one kind: both random, the same support with other
    multiplicities, terms swapped for others of their class, or one side
    empty."""
    left = random_bag(rng, order, func.arity, max_len=5)
    kind = rng.choice(["random", "support", "class", "empty"])
    if kind == "random":
        right = random_bag(rng, order, func.arity, max_len=5)
    elif kind == "support":
        # every element at least as often, some more often, reordered
        right = left + tuple(rng.choices(left, k=rng.randint(0, 3)))
        right = tuple(rng.sample(right, len(right)))
    elif kind == "class":
        classes = {t: cls for cls in order.classes for t in cls}
        right = tuple(tup if not tup else (rng.choice(classes[tup[0]]),)
                      for tup in left)
    else:
        right = ()
    if rng.random() < 0.5:
        left, right = right, left
    return kind, left, right


def test_shiftable_forms_match_the_canonical_evaluation():
    """Random shiftable identities in both domains, on orderings with
    merged classes and (over the integers) variables pinned between two
    constants: comparing the sides' class-position forms gives the
    verdict and witness of evaluating both bags under the canonical
    assignment."""
    rng = random.Random(21)
    seen = Counter()
    for i in range(700):
        name = SHIFTABLE[i % len(SHIFTABLE)]
        func = FUNCTIONS[name]
        domain = rng.choice([RATIONALS, INTEGERS])
        include = rng.choice([(), (0, 2), (1, 3)])
        order = random_ordering(rng, domain, max_vars=3, max_consts=1,
                                include=include)
        kind, left, right = _shiftable_bags(rng, order, func)
        identity = ident(order, left, right, name)
        verdict = decide_shiftable(identity)
        assert verdict == canonical_decide_shiftable(identity), (
            name, str(order), left, right)
        assert decide(identity) == verdict
        seen[name, verdict.valid] += 1
        seen[domain] += 1
        seen["merged"] += not order.is_injective()
        free = [order.class_bounds(i) for i in range(len(order.classes))
                if order.class_constant(i) is None]
        seen["pinned"] += any(lo is not None and lo == hi for lo, hi in free)
        seen[kind] += 1
    for name in SHIFTABLE:
        assert seen[name, True] > 15 and seen[name, False] > 15, name
    assert seen[RATIONALS] > 250 and seen[INTEGERS] > 250
    assert seen["merged"] > 200 and seen["pinned"] > 20
    assert min(seen[k] for k in ("random", "support", "class", "empty")) > 100


# ---------------------------------------------------------------------------
# Dispatch and edge cases
# ---------------------------------------------------------------------------

def test_dispatch_routes_by_function():
    order = L([[x], [y]])
    assert decide(ident(order, [(x,)], [(x,)], "sum")).valid
    assert decide(ident(order, [(x,)], [(x,)], "prod")).valid
    assert decide(ident(order, [(x,)], [(x,)], "avg")).valid
    assert decide(ident(order, [(x,)], [(x,)], "min")).valid
    assert decide(ident(order, [(x,)], [(x,)], "bot2")).valid


def test_unsupported_function_rejected():
    median = AggregationFunction("median", 1)
    identity = OrderedIdentity.__new__(OrderedIdentity)
    object.__setattr__(identity, "ordering", L([[x]]))
    object.__setattr__(identity, "left", ((x,),))
    object.__setattr__(identity, "right", ((x,),))
    object.__setattr__(identity, "function", median)
    with pytest.raises(ValueError, match="unsupported"):
        decide(identity)


def test_bag_terms_must_come_from_the_ordering():
    """Public construction checks the bags; `unchecked`, for callers that
    build them from the ordering's terms, builds the same identity."""
    with pytest.raises(KeyError):
        ident(L([[x]]), [(y,)], [(x,)], "sum")
    with pytest.raises(ValueError, match="1-tuples"):
        ident(L([[x]]), [(x, x)], [(x,)], "sum")
    order = L([[x], [y]])
    checked = ident(order, [(x,), (y,)], [(y,)], "sum")
    unchecked = OrderedIdentity.unchecked(order, ((x,), (y,)), ((y,),),
                                          FUNCTIONS["sum"])
    assert unchecked == checked and hash(unchecked) == hash(checked)
    assert decide(unchecked) == decide(checked)


def test_empty_bag_conventions():
    order = L([[x]])
    assert decide(ident(order, [], [], "sum")).valid
    verdict = decide(ident(order, [], [(x,)], "max"))
    assert not verdict.valid and verdict.witness is not None


@pytest.mark.parametrize("name, route", [
    ("sum", decide_sum), ("avg", decide_sum), ("prod", decide_prod),
    ("max", decide_shiftable)])
def test_every_route_answers_an_empty_side_like_decide(name, route):
    """A group on one side only is refuted by the canonical assignment,
    whichever route is asked; two empty sides agree."""
    order = L([[x]])
    for left, right in (([], [(x,)]), ([(x,)], [])):
        identity = ident(order, left, right, name)
        expected = IdentityVerdict(False, {x: F(0)})
        assert route(identity) == expected
        assert decide(identity) == expected
    assert route(ident(order, [], [], name)) == IdentityVerdict(True)


def test_valid_verdicts_survive_random_assignments():
    rng = random.Random(99)
    functions = ["count", "parity", "sum", "prod", "avg", "max", "min",
                 "cntd", "top2"]
    survivors = 0
    for name in functions:
        func = FUNCTIONS[name]
        for _ in range(60):
            domain = rng.choice([RATIONALS, INTEGERS])
            order = random_ordering(rng, domain, max_vars=3, max_consts=1)
            left = random_bag(rng, order, func.arity)
            right = (tuple(rng.sample(left, len(left)))
                     if rng.random() < 0.5 else
                     random_bag(rng, order, func.arity))
            identity = ident(order, left, right, name)
            verdict = decide(identity)
            if verdict.valid:
                survivors += 1
                for _ in range(25):
                    sample = random_satisfying_assignment(rng, order)
                    assert apply(func, instantiate_bag(sample, left)) == \
                        apply(func, instantiate_bag(sample, right))
            else:
                assert_witness_refutes(identity, verdict)
    assert survivors > 50
