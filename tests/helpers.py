"""Independent oracles and random generators for the test suite.

Nothing here shares code with the library's decision paths: weak orders
are enumerated through canonical rank maps, rational feasibility goes
through a from-scratch Fourier-Motzkin elimination, integer feasibility
through plain enumeration of a value box, and comparison conjunctions
through enumeration of a value grid.  Where a test
freezes an expected value, one of these oracles computed it.  Four
references are exceptions: `branch_only_decide_prod`, for the prod
decider's shortcut, and `canonical_decide_shiftable`, for the shiftable
decider's value forms, build their witnesses by the library's rule;
`filtered_complete_orderings`, for the pruned ordering generator and
the lex-leaders of `place_next_variable`, keeps orders with the
library's `is_satisfiable_order` and `entails`; and
`reference_scan` and `reference_units`, for the scan's level planning,
level skips and ordering drop, and `subset_major_scan`, a verdict
reference for the level walk, compile and prepare with the library's
`_compile` and `_prepare_assignments` and check each unit with the
library's `_pair_counterexample`; their differing skip is
`differing_masks`, the exact-multiset rule, and they neither skip a
level nor drop an ordering by the agreement rule.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from fractions import Fraction

from aggequiv import engine
from aggequiv.model import (
    Const, INTEGERS, Query, Var, is_const, is_var, term_sort_key,
)
from aggequiv.orderings import (
    CompleteOrdering, entails, is_satisfiable_order, rename_tuple,
    satisfying_assignment, witness_pair_at,
)


# ---------------------------------------------------------------------------
# Views of conditions and queries, recomputed
# ---------------------------------------------------------------------------

def reference_views(value) -> tuple:
    """`(variables, constants)` of a `Condition` or a `Query` as sets,
    recomputed from its fields on every call: a condition's are those of
    its atoms' arguments and its comparisons' operands, a query's
    variables those of its disjuncts and its constants also those of its
    head."""
    if isinstance(value, Query):
        views = [reference_views(d) for d in value.disjuncts]
        head = value.grouping + (value.aggregate.args
                                 if value.aggregate is not None else ())
        return (set().union(*(variables for variables, _ in views)),
                {t for t in head if is_const(t)}.union(
                    *(constants for _, constants in views)))
    terms = [t for a in value.atoms for t in a.args]
    terms += [t for c in value.comparisons for t in (c.lhs, c.rhs)]
    return {t for t in terms if is_var(t)}, {t for t in terms if is_const(t)}


# ---------------------------------------------------------------------------
# Weak orders via surjective rank maps
# ---------------------------------------------------------------------------

def brute_force_weak_orders(terms):
    """Every weak order on `terms` as a tuple of frozen classes, derived
    from surjective maps onto an initial segment of the naturals."""
    items = sorted(terms, key=str)
    n = len(items)
    out = set()
    if n == 0:
        return {()}
    for ranks in itertools.product(range(n), repeat=n):
        k = max(ranks) + 1
        if set(ranks) != set(range(k)):
            continue
        classes = tuple(frozenset(items[i] for i in range(n)
                                  if ranks[i] == level)
                        for level in range(k))
        out.add(classes)
    return out


def ordering_as_classes(ordering: CompleteOrdering):
    return tuple(frozenset(cls) for cls in ordering.classes)


# ---------------------------------------------------------------------------
# Fourier-Motzkin elimination over exact rationals
# ---------------------------------------------------------------------------

def fm_feasible(constraints, variables) -> bool:
    """Is a conjunction of strict linear inequalities satisfiable over Q?

    Each constraint is (coeffs, const) read as
    sum(coeffs[v] * v) + const > 0.
    """
    rows = [dict(coeffs, _const=const) for coeffs, const in constraints]
    for var in variables:
        lowers, uppers, rest = [], [], []
        for row in rows:
            coef = row.get(var, Fraction(0))
            if coef > 0:
                lowers.append(row)
            elif coef < 0:
                uppers.append(row)
            else:
                rest.append(row)
        new_rows = rest
        for low in lowers:
            for up in uppers:
                scale_l = low[var]
                scale_u = -up[var]
                combined = {"_const": low["_const"] * scale_u
                            + up["_const"] * scale_l}
                for key in set(low) | set(up):
                    if key in ("_const", var):
                        continue
                    combined[key] = (low.get(key, Fraction(0)) * scale_u
                                     + up.get(key, Fraction(0)) * scale_l)
                new_rows.append(combined)
        rows = [{k: v for k, v in row.items() if k == "_const" or v != 0}
                for row in new_rows]
    # all variables eliminated: each surviving row is a constant constraint
    assert all(len(row) == 1 for row in rows)
    return all(row["_const"] > 0 for row in rows)


def sum_identity_valid_by_fm(ordering: CompleteOrdering, left, right) -> bool:
    """Independent verdict for a rational sum identity: valid iff neither
    the positive nor the negative strict difference is feasible."""
    representative = {}
    for cls in ordering.classes:
        rep = next((t for t in cls if is_const(t)), cls[0])
        for t in cls:
            representative[t] = rep
    coeffs = {}
    const = Fraction(0)
    for bag, sign in ((left, 1), (right, -1)):
        for (raw,) in bag:
            term = representative.get(raw, raw)
            if is_const(term):
                const += sign * term.value
            else:
                coeffs[term] = coeffs.get(term, Fraction(0)) + sign
    chain = _chain_constraints(ordering)
    variables = [t for cls in ordering.classes for t in cls if is_var(t)]
    positive = chain + [(dict(coeffs), const)]
    negative = chain + [({t: -c for t, c in coeffs.items()}, -const)]
    return not fm_feasible(positive, variables) and \
        not fm_feasible(negative, variables)


def _chain_constraints(ordering: CompleteOrdering):
    """The ordering as strict constraints rep_{i+1} - rep_i > 0, with
    anchored classes folded to their constant values."""
    out = []
    reps = []
    for cls in ordering.classes:
        const = next((t for t in cls if is_const(t)), None)
        reps.append(const if const is not None else cls[0])
    for a, b in zip(reps, reps[1:]):
        coeffs = {}
        const = Fraction(0)
        if is_const(b):
            const += b.value
        else:
            coeffs[b] = coeffs.get(b, Fraction(0)) + 1
        if is_const(a):
            const -= a.value
        else:
            coeffs[a] = coeffs.get(a, Fraction(0)) - 1
        out.append((coeffs, const))
    return out


# ---------------------------------------------------------------------------
# Integer feasibility by box enumeration
# ---------------------------------------------------------------------------

def int_sum_identity_box_refutation(ordering: CompleteOrdering, left, right,
                                    radius: int = 4, aggregate=sum):
    """Search integer assignments near the canonical one for a point where
    `aggregate` of the two bags' values (the sums by default) differs;
    returns such an assignment or None."""
    from aggequiv.orderings import satisfying_assignment

    base = satisfying_assignment(ordering)
    class_reps = [cls[0] for cls in ordering.classes]
    anchored = [next((t.value for t in cls if is_const(t)), None)
                for cls in ordering.classes]
    spans = []
    for rep, anchor in zip(class_reps, anchored):
        if anchor is not None:
            spans.append([anchor])
        else:
            center = base[rep]
            spans.append([center + d for d in range(-radius, radius + 1)])
    for values in itertools.product(*spans):
        if any(b <= a for a, b in zip(values, values[1:])):
            continue
        assignment = {}
        for cls, value in zip(ordering.classes, values):
            for t in cls:
                assignment[t] = value
        def total(bag):
            return aggregate([t.value if is_const(t) else assignment[t]
                              for (t,) in bag])
        if total(left) != total(right):
            return assignment
    return None


# ---------------------------------------------------------------------------
# Comparison conjunctions, decided on a finite grid
# ---------------------------------------------------------------------------

def comparison_grid(constants, k: int, domain: str) -> list:
    """Candidate values for `k` variables ordered against `constants`.

    Only the order of the values relative to each other and to the
    constants matters, so a grid realizing every such order (with one
    spare slot, so a variable that is not pinned shows two values) is
    exhaustive.  Over the integers that is the box [min c - k - 1,
    max c + k + 1]; over the rationals, the constants plus k + 1 points in
    every gap between them and beyond each end.
    """
    cs = sorted({Fraction(c) for c in constants})
    if domain == INTEGERS:
        lo, hi = (cs[0], cs[-1]) if cs else (0, 0)
        return [Fraction(v) for v in range(int(lo) - k - 1, int(hi) + k + 2)]
    if not cs:
        return [Fraction(i) for i in range(k + 1)]
    steps = range(1, k + 2)
    grid = [cs[0] - i for i in steps] + [cs[-1] + i for i in steps]
    for a, b in zip(cs, cs[1:]):
        grid.extend(a + (b - a) * Fraction(i, k + 2) for i in steps)
    return sorted(grid + cs)


def comparison_solutions(comparisons, variables, constants,
                         domain: str) -> list:
    """Every assignment of `variables` on the grid of `constants` that
    satisfies every comparison."""
    variables = list(variables)
    grid = comparison_grid(constants, len(variables), domain)
    solutions = []
    for values in itertools.product(grid, repeat=len(variables)):
        assignment = dict(zip(variables, values))

        def value(t):
            return t.value if is_const(t) else assignment[t]
        if all(c.holds(value(c.lhs), value(c.rhs)) for c in comparisons):
            solutions.append(assignment)
    return solutions


# ---------------------------------------------------------------------------
# Prepared assignments, decided concretely
# ---------------------------------------------------------------------------

def reference_prepare(q, ordering: CompleteOrdering, terms, atom_bit) -> list:
    """Every assignment of `q`'s variables to `terms` whose comparisons hold
    under the strict `ordering`, as (positive mask, negated mask, group key,
    aggregate item) over terms, in disjunct-then-product order.

    Comparisons are evaluated on the values of the ordering's canonical
    assignment: a strict ordering fixes every relation between two
    distinct terms, so that one instance decides each of them.
    """
    delta = satisfying_assignment(ordering)

    def value(t):
        return t.value if is_const(t) else delta[t]
    prepared = []
    for cond in q.disjuncts:
        variables = sorted(cond.variables(), key=term_sort_key)
        for values in itertools.product(terms, repeat=len(variables)):
            gamma = dict(zip(variables, values))

            def at(t):
                return gamma.get(t, t)
            if not all(c.holds(value(at(c.lhs)), value(at(c.rhs)))
                       for c in cond.comparisons):
                continue
            positive = negated = 0
            for atom in cond.atoms:
                bit = atom_bit[(atom.predicate,
                                tuple(at(t) for t in atom.args))]
                if atom.positive:
                    positive |= bit
                else:
                    negated |= bit
            if positive & negated:
                continue
            key = tuple(at(t) for t in q.grouping)
            item = (tuple(at(t) for t in q.aggregate.args)
                    if q.aggregate is not None else ())
            prepared.append((positive, negated, key, item))
    return prepared


# ---------------------------------------------------------------------------
# The (S, L) walk without the level planning or the agreement skips
# ---------------------------------------------------------------------------

def compile_all(plan, side: int) -> list:
    """The plan's first (`side` 0) or second query's assignments to every
    base term, compiled level by level."""
    n = len(plan.terms) - plan.constants
    return [c for k in range(n + 1)
            for c in engine._compile(plan, plan.programs[side], k)[0]]


def reference_scan(plan):
    """`engine._scan` without the lazy planning, the level skips or the
    ordering drop: the first failing unit of `reference_units`, deciding
    every identity it meets, as `((level, unit index), counterexample)`,
    or None."""
    for k, unit, mask, ordering, prep1, prep2 in reference_units(plan):
        ce = engine._pair_counterexample(plan, mask, ordering, prep1, prep2)
        if ce is not None:
            return (k, unit), ce
    return None


def reference_units(plan):
    """The plan's units in the order (level, subset, ordering), but for
    those the idle and the exact-multiset differing skips leave out, as
    `(level, unit index, mask, ordering, prep1, prep2)`.

    Level k holds the subsets of the atoms over the constants and
    u1..uk that use every one of u1..uk, under each strict order of the
    constants and u1..uk with the fresh variables in index order and
    u(k+1)..un above every term; with differing heads only level n is
    walked, over every subset of BASE.  Each level compiles both queries
    up to it and prepares every ordering before its walk."""
    q = plan.q
    constants = plan.terms[:plan.constants]
    fresh = plan.terms[plan.constants:]
    bit = {atom: 1 << i for i, atom in enumerate(plan.base)}
    n = len(fresh)
    for k in range(n + 1) if plan.same_head else [n]:
        compiled1, compiled2 = (
            [c for j in range(k + 1)
             for c in engine._compile(plan, program, j)[0]]
            for program in plan.programs)
        orderings = []
        for order in _injective_interleavings(constants, fresh[:k]):
            classes = [[t] for t in order + fresh[k:]]
            if is_satisfiable_order(classes, q.domain):
                orderings.append(CompleteOrdering.of(classes, q.domain))
        walk = _prepare_all(plan, orderings, compiled1, compiled2)
        level = set(constants) | set(fresh[:k])
        atoms = [a for a in plan.base if set(a[1]) <= level]
        subsets = [s for size in range(len(atoms) + 1)
                   for s in itertools.combinations(atoms, size)
                   if not plan.same_head
                   or {t for _, args in s for t in args} >= set(fresh[:k])]
        for number, subset in enumerate(subsets):
            mask = sum(bit[atom] for atom in subset)
            for position, (ordering, prep1, prep2, used, differing) in \
                    enumerate(walk):
                if not (mask & ~used or differing is not None
                        and not engine._fires(differing, mask)):
                    yield (k, number * len(walk) + position, mask, ordering,
                           prep1, prep2)


def differing_masks(prep1: list, prep2: list) -> set:
    """(positive, negated) masks of the prepared assignments that one
    query prepares more often than the other: the exact-multiset rule,
    blind to the aggregate function, written apart from the engine's
    `_differing_masks`."""
    balance = Counter(prep1)
    balance.subtract(prep2)
    return {prepared[:2] for prepared, surplus in balance.items() if surplus}


def _prepare_all(plan, orderings, compiled1, compiled2) -> list:
    """Per ordering `(ordering, prep1, prep2, used, differing)`: both
    queries' prepared assignments, the mask of the atoms they read and,
    with matching heads, the masks they disagree on."""
    walk = []
    for ordering in orderings:
        position = [ordering.position(t) for t in plan.terms]
        prep1 = engine._prepare_assignments(compiled1, position)
        prep2 = engine._prepare_assignments(compiled2, position)
        differing = (differing_masks(prep1, prep2)
                     if plan.same_head else None)
        used = 0
        for positive, negated, _, _ in prep1 + prep2:
            used |= positive | negated
        walk.append((ordering, prep1, prep2, used, differing))
    return walk


def subset_major_scan(plan):
    """The first failing unit of the walk over every subset of BASE (by
    size) and, per subset, every lex-leader ordering of all base terms,
    with only the idle and differing unit skips, as `(unit index,
    counterexample)`, or None.  Its counterexample can differ from the
    level walk's, never its verdict."""
    walk = _prepare_all(plan, filtered_complete_orderings(
        plan.terms, plan.q.domain, injective_only=True),
        compile_all(plan, 0), compile_all(plan, 1))
    unit = 0
    for size in range(len(plan.base) + 1):
        for subset in itertools.combinations(range(len(plan.base)), size):
            mask = sum(1 << i for i in subset)
            atoms = tuple(plan.base[i] for i in subset)
            for ordering, prep1, prep2, used, differing in walk:
                unit += 1
                if mask & ~used or differing is not None \
                        and not engine._fires(differing, mask):
                    continue
                ce = engine._pair_counterexample(
                    plan, mask, ordering, prep1, prep2)
                if ce is not None:
                    return unit - 1, ce
    return None


# ---------------------------------------------------------------------------
# Product identities through the zero-extension branches alone
# ---------------------------------------------------------------------------

def branch_only_decide_prod(ident):
    """`identity.decide_prod` without its identical-polynomial shortcut:
    every identity goes through the branches that slot the constant 0 into
    its reduced ordering, and the first branch where the two sides differ
    as polynomials (and are not both 0) refutes it.  Witnesses follow the
    library's rule, so they compare equal to the decider's."""
    from aggequiv import identity

    canon, renaming0 = ident.ordering.reduction
    canon_left = tuple(rename_tuple(renaming0, tup) for tup in ident.left)
    canon_right = tuple(rename_tuple(renaming0, tup) for tup in ident.right)
    for extension in _zero_slots(canon):
        reduced, renaming1 = extension.reduction
        left = tuple(rename_tuple(renaming1, tup) for tup in canon_left)
        right = tuple(rename_tuple(renaming1, tup) for tup in canon_right)
        c, exps_left = _polynomial(left)
        d, exps_right = _polynomial(right)
        if c == d and (c == 0 or exps_left == exps_right):
            continue
        differing = [t for t in set(exps_left) | set(exps_right)
                     if exps_left[t] != exps_right[t]]
        u = min(differing, key=term_sort_key, default=None)
        branch = identity.OrderedIdentity(reduced, left, right,
                                          ident.function)
        witness = _pull_back(canon.terms(), renaming1,
                             _reduced_witness(branch, u))
        return _refutation(ident, _pull_back(ident.ordering.terms(),
                                             renaming0, witness))
    return identity.IdentityVerdict(True)


def _reduced_witness(ident, u):
    """The library's witness on a reduced ordering: its canonical
    assignment when `u` is None, else whichever of the pair of
    `witness_pair_at` at `u` refutes."""
    from aggequiv import identity

    if u is None:
        return ident.ordering.canonical_assignment
    return next(candidate for candidate in witness_pair_at(ident.ordering, u)
                if identity._refutes(ident, candidate))


def _pull_back(terms, renaming, assignment):
    """An assignment of reduced terms as one of the original `terms`."""
    return {t: rep.value if is_const(rep := renaming.get(t, t))
            else assignment[rep] for t in terms}


def _refutation(ident, witness):
    """The invalid verdict, once `witness` is checked to refute."""
    from aggequiv import identity

    assert identity._refutes(ident, witness), "witness fails to refute"
    return identity.IdentityVerdict(False, witness)


def _zero_slots(ordering: CompleteOrdering):
    """The orderings of the terms plus 0 that keep every relation among
    the terms: 0 in a class of its own in each gap, then 0 merged into
    each class without a constant (the ordering itself if it holds 0)."""
    zero = Const(Fraction(0))
    if zero in ordering.terms():
        yield ordering
        return
    classes = [list(cls) for cls in ordering.classes]
    candidates = [classes[:i] + [[zero]] + classes[i:]
                  for i in range(len(classes) + 1)]
    candidates += [classes[:i] + [cls + [zero]] + classes[i + 1:]
                   for i, cls in enumerate(classes)
                   if not any(is_const(t) for t in cls)]
    for candidate in candidates:
        if is_satisfiable_order(candidate, ordering.domain):
            yield CompleteOrdering.of(candidate, ordering.domain)


def _polynomial(bag):
    """prod(bag) as (constant factor, Counter of variable exponents)."""
    constant = Fraction(1)
    exponents = Counter()
    for (t,) in bag:
        if is_const(t):
            constant *= t.value
        else:
            exponents[t] += 1
    return constant, exponents


# ---------------------------------------------------------------------------
# Shiftable identities evaluated under the canonical assignment
# ---------------------------------------------------------------------------

def canonical_decide_shiftable(ident):
    """`identity.decide_shiftable` by evaluation instead of value forms:
    both bags are rewritten onto the reduced ordering, instantiated under
    its canonical assignment and folded through the function; equal
    aggregates there settle the identity.  Two empty bags agree, and the
    canonical assignment refutes a group on one side only, as the
    library's rule has it."""
    from aggequiv import identity
    from aggequiv.aggregation import apply

    if not ident.function.shiftable:
        raise ValueError(f"{ident.function.name} is not shiftable")
    if not ident.left and not ident.right:
        return identity.IdentityVerdict(True)
    reduced, renaming = ident.ordering.reduction
    assignment = reduced.canonical_assignment
    if ident.left and ident.right:
        sides = [apply(ident.function, identity.instantiate_bag(
                     assignment, [rename_tuple(renaming, tup) for tup in bag]))
                 for bag in (ident.left, ident.right)]
        if sides[0] == sides[1]:
            return identity.IdentityVerdict(True)
    return _refutation(ident, _pull_back(ident.ordering.terms(), renaming,
                                         assignment))


# ---------------------------------------------------------------------------
# Satisfiable weak orders, one property per pass
# ---------------------------------------------------------------------------

def reference_satisfiable_order(classes, domain: str) -> bool:
    """`is_satisfiable_order` as three separate passes: no term in two
    classes; at most one constant value per class, the values strictly
    increasing; over the integers, room for every run of variable classes
    between two anchors, and every constant integral."""
    seen: set = set()
    for cls in classes:
        if not seen.isdisjoint(set(cls)):
            return False
        seen |= set(cls)
    last = []
    for cls in classes:
        values = sorted({t.value for t in cls if is_const(t)})
        if len(values) > 1 or (values and last and values[0] <= last[-1]):
            return False
        last += values
    if domain != INTEGERS:
        return True
    prev_pos = prev_val = None
    for i, cls in enumerate(classes):
        values = [t.value for t in cls if is_const(t)]
        if not values:
            continue
        if prev_pos is not None and values[0] - prev_val < i - prev_pos:
            return False
        prev_pos, prev_val = i, values[0]
    return all(t.value.denominator == 1 for cls in classes for t in cls
               if is_const(t))


# ---------------------------------------------------------------------------
# Orderings built whole, then filtered
# ---------------------------------------------------------------------------

def filtered_complete_orderings(terms, domain: str,
                                injective_only: bool = False,
                                comparisons=()):
    """The complete orderings `enumerate_complete_orderings` yields, in
    the order it yields them, found by building every ordered set
    partition and keeping those that pass `is_satisfiable_order` and
    entail every comparison.  With `injective_only`, the lex-leaders the
    level walk builds with `place_next_variable`, in its order: every
    interleaving of the sorted constants and sorted variables that
    passes."""
    items = sorted(set(terms), key=term_sort_key)
    if injective_only:
        constants = [t for t in items if is_const(t)]
        variables = [t for t in items if is_var(t)]
        candidates = ([[t] for t in order]
                      for order in _injective_interleavings(constants,
                                                            variables))
    else:
        candidates = _ordered_set_partitions(items)
    for classes in candidates:
        if is_satisfiable_order(classes, domain):
            ordering = CompleteOrdering.of(classes, domain)
            if all(entails(ordering, c) for c in comparisons):
                yield ordering


def _ordered_set_partitions(items: list):
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


# ---------------------------------------------------------------------------
# Random generators (all driven by a seeded Random instance)
# ---------------------------------------------------------------------------

FUNCTION_NAMES = ["count", "parity", "sum", "prod", "avg", "max", "min",
                  "cntd", "top2"]


def random_text(rng: random.Random, func: str) -> str:
    """A query over p/1 aggregating `func`: one or two disjuncts, each
    with an optional b(Y) or !b(Y) and an optional comparison of Y with
    0, 1 or 2."""
    disjuncts = []
    for _ in range(rng.randint(1, 2)):
        lits = ["p(Y)"]
        if rng.random() < 0.4:
            lits.append(rng.choice(["!b(Y)", "b(Y)"]))
        if rng.random() < 0.6:
            op = rng.choice(["<", "<=", ">", ">=", "!=", "="])
            lits.append(f"Y {op} {rng.choice(('0', '1', '2'))}")
        disjuncts.append(", ".join(lits))
    agg = func + ("()" if func in ("count", "parity") else "(Y)")
    return f"q(; {agg}) :- " + " | ".join(disjuncts)


def random_quasilinear_pair(rng: random.Random):
    """Two quasilinear conjunctive queries `(text1, text2, domain)` with
    one function of all nine, over the integers or the rationals: p(X, Y)
    beside an optional r/1 and s/1 or s/2 atom, an optional grouping
    variable X, and literals drawn from negated b/1 and c/1 atoms and
    comparisons of a variable with 0, 1 or 3 or with another variable.
    The second query drops or adds up to two literals, may swap p's
    arguments or move the aggregate argument, and may rename X, Y and Z to
    U, V and W, so that some pairs are isomorphic and most are not."""
    func = rng.choice(FUNCTION_NAMES)
    domain = rng.choice([INTEGERS, "rat"])
    atoms = ["p(X, Y)"] + [a for a in (rng.choice(["r(Y)", "r(Z)", None]),
                                       rng.choice(["s(X, Z)", "s(Z)", None]))
                           if a is not None]
    variables = sorted({v for a in atoms for v in "XYZ" if v in a})
    group = rng.choice(["", "X"])
    free = [v for v in variables if v != group]

    def literal():
        v = rng.choice(variables)
        if rng.random() < 0.4:
            return f"!{rng.choice('bc')}({v})"
        op = rng.choice(["<", "<=", ">", ">=", "!=", "="])
        others = [w for w in variables if w != v]
        if others and rng.random() < 0.4:
            return f"{v} {op} {rng.choice(others)}"
        return f"{v} {op} {rng.choice(('0', '1', '3'))}"

    def text(body, argument):
        return f"q({group}; {func}({argument})) :- " + ", ".join(body)

    argument = "" if func in ("count", "parity") else rng.choice(free)
    lits = [literal() for _ in range(rng.randint(0, 3))]
    lits2 = list(lits)
    for _ in range(rng.choice((0, 1, 1, 2))):
        if lits2 and rng.random() < 0.5:
            lits2.pop(rng.randrange(len(lits2)))
        else:
            lits2.insert(rng.randint(0, len(lits2)), literal())
    atoms2 = (["p(Y, X)"] + atoms[1:]) if rng.random() < 0.15 else atoms
    argument2 = (rng.choice(free) if argument and rng.random() < 0.15
                 else argument)
    text2 = text(atoms2 + lits2, argument2)
    if rng.random() < 0.3:
        text2 = text2.translate(str.maketrans("XYZ", "UVW"))
    return text(atoms + lits, argument), text2, domain


def random_ordering(rng: random.Random, domain: str, max_vars: int = 4,
                    max_consts: int = 2, include=()) -> CompleteOrdering:
    """A random complete ordering of up to `max_vars` variables, the
    constants with the values in `include` and up to `max_consts` others."""
    from aggequiv.orderings import enumerate_complete_orderings

    n_vars = rng.randint(1, max_vars)
    n_consts = rng.randint(0, max_consts)
    variables = [Var(name) for name in ["x", "y", "z", "w"][:n_vars]]
    pool = [v for v in range(-3, 8) if v not in include]
    constants = [Const(Fraction(v))
                 for v in [*include, *rng.sample(pool, n_consts)]]
    options = list(enumerate_complete_orderings(variables + constants, domain))
    return rng.choice(options)


def random_bag(rng: random.Random, ordering: CompleteOrdering, arity: int,
               max_len: int = 4) -> tuple:
    terms = sorted(ordering.terms(), key=str)
    length = rng.randint(1, max_len)
    if arity == 0:
        return tuple(() for _ in range(length))
    return tuple((rng.choice(terms),) for _ in range(length))


def random_satisfying_assignment(rng: random.Random,
                                 ordering: CompleteOrdering) -> dict:
    """A random (not canonical) assignment satisfying the ordering."""
    values = []
    classes = ordering.classes
    anchors = [(i, ordering.class_constant(i)) for i in range(len(classes))]
    anchors = [(i, v) for i, v in anchors if v is not None]
    integer = ordering.domain == INTEGERS

    def random_step():
        if integer:
            return Fraction(rng.randint(1, 3))
        return Fraction(rng.randint(1, 300), rng.randint(80, 100))

    if not anchors:
        current = Fraction(rng.randint(-5, 5))
        for _ in classes:
            values.append(current)
            current = current + random_step()
    else:
        values = [None] * len(classes)
        for i, v in anchors:
            values[i] = v
        first_pos, first_val = anchors[0]
        current = first_val
        for i in range(first_pos - 1, -1, -1):
            current = current - random_step()
            values[i] = current
        last_pos, last_val = anchors[-1]
        current = last_val
        for i in range(last_pos + 1, len(classes)):
            current = current + random_step()
            values[i] = current
        for (p, a), (np_, b) in zip(anchors, anchors[1:]):
            gap = np_ - p - 1
            if gap <= 0:
                continue
            if integer:
                picks = sorted(rng.sample(range(int(a) + 1, int(b)), gap))
                picks = [Fraction(v) for v in picks]
            else:
                picks = sorted(a + (b - a) * Fraction(rng.randint(1, 9999), 10000)
                               for _ in range(gap))
                while len(set(picks)) < gap:
                    picks = sorted(a + (b - a)
                                   * Fraction(rng.randint(1, 9999), 10000)
                                   for _ in range(gap))
            for offset, value in enumerate(picks, start=1):
                values[p + offset] = value
    assignment = {}
    for cls, value in zip(classes, values):
        for t in cls:
            assignment[t] = value
    return assignment
