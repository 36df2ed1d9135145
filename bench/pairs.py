"""The query pairs each benchmark workload decides, with expected answers.

A pair is decided through the CLI as
``aggequiv <command> a.q b.q --json [--domain D] [--n N] [--workers K]``.
``expect`` is the status the CLI must print; its exit code follows from
it (0 equivalent, 1 not_equivalent, 2 unsupported).  The expected
statuses were set up with ``oracle.brute_force_check`` as acceptance
criterion 5 does; ``python3 bench/expected.py`` re-derives and checks
them.  Counterexamples are never pinned here: a later change to the
search order may legitimately return a different one, so the benchmark
checks that the returned one reproduces instead.
"""

EQ, NE, UN = "equivalent", "not_equivalent", "unsupported"
INT, RAT = "int", "rat"


def _pair(pid, command, a, b, expect, domain=RAT, n=None, workers=1,
          why=""):
    return {"id": pid, "command": command, "a": a, "b": b,
            "expect": expect, "domain": domain, "n": n,
            "workers": workers, "why": why}


# -- suite ------------------------------------------------------------------
# Cheap decisions through every front door.  Each one finishes in a few
# milliseconds, so this workload weighs the per-call overhead: argument
# parsing, file reads, query parsing, build_base, normalization and the
# quasilinear isomorphism test.

# Acceptance criterion 5: every function, both domains, negation, via
# local-equiv (N = the pair's term size, at most 3).
_CRITERION_5 = [
    ("q(; count()) :- p(X)", "q(; count()) :- p(X) | p(X)", RAT, NE),
    ("q(; count()) :- p(X)", "q(; count()) :- p(Y)", RAT, EQ),
    ("q(; count()) :- p(X)", "q(; count()) :- p(X), p(X)", RAT, EQ),
    ("q(X; count()) :- e(X, Y)", "q(X; count()) :- e(X, Y), !b(X)", RAT, NE),
    ("q(; count()) :- p(X) | b(X)", "q(; count()) :- b(Y) | p(Y)", RAT, EQ),
    ("q(; parity()) :- p(X)", "q(; parity()) :- p(X) | p(X)", RAT, NE),
    ("q(; parity()) :- p(X) | p(X) | p(X)", "q(; parity()) :- p(X)", RAT,
     EQ),
    ("q(; sum(Y)) :- p(Y)", "q(; sum(Y)) :- p(Y), Y <= 1 | p(Y), Y > 1",
     RAT, EQ),
    ("q(; sum(Y)) :- p(Y)", "q(; sum(Y)) :- p(Y) | p(Y)", RAT, NE),
    ("q(; sum(Y)) :- p(Y)", "q(; sum(Y)) :- p(Y), Y != 1 | p(Y), Y = 1",
     RAT, EQ),
    ("q(; sum(Y)) :- p(Y), 0 < Y, Y < 1", "q(; sum(Y)) :- p(Y), Y < 0, Y > 0",
     INT, EQ),
    ("q(; sum(Y)) :- p(Y), 0 < Y, Y < 1", "q(; sum(Y)) :- p(Y), Y < 0, Y > 0",
     RAT, NE),
    ("q(; sum(Y)) :- p(Y), Y > 1", "q(; sum(Y)) :- p(Y), 1 < Y", RAT, EQ),
    ("q(; prod(Y)) :- p(Y)", "q(; prod(Y)) :- p(Y) | p(Y)", RAT, NE),
    ("q(; prod(Y)) :- p(Y)", "q(; prod(Y)) :- p(Y), Y != 0 | p(Y), Y = 0",
     RAT, EQ),
    ("q(; prod(Y)) :- p(Y), Y > 1", "q(; prod(V)) :- p(V), 1 < V", RAT, EQ),
    ("q(; avg(Y)) :- p(Y)", "q(; avg(Y)) :- p(Y) | p(Y)", RAT, EQ),
    ("q(; avg(Y)) :- p(Y)", "q(; avg(Y)) :- p(Y), Y > 0", RAT, NE),
    ("q(; max(Y)) :- p(Y)", "q(; max(Y)) :- p(Y) | p(Y), Y > 1", RAT, EQ),
    ("q(; max(Y)) :- p(Y)", "q(; max(Y)) :- p(Y), Y > 1", RAT, NE),
    ("q(; max(Y)) :- p(Y) | p(Y)", "q(; max(Y)) :- p(Y)", RAT, EQ),
    ("q(; max(Y)) :- p(Y), Y < 1", "q(; max(Y)) :- p(Y), Y <= 0", INT, EQ),
    ("q(; max(Y)) :- p(Y), Y < 1", "q(; max(Y)) :- p(Y), Y <= 0", RAT, NE),
    ("q(; min(Y)) :- p(Y) | p(Y), Y < 1", "q(; min(Y)) :- p(Y)", RAT, EQ),
    ("q(; min(Y)) :- p(Y), Y < 1", "q(; min(Y)) :- p(Y)", RAT, NE),
    ("q(; cntd(Y)) :- p(Y)", "q(; cntd(Y)) :- p(Y) | p(Y)", RAT, EQ),
    ("q(; cntd(Y)) :- p(Y)", "q(; cntd(Y)) :- p(Y), Y > 0", RAT, NE),
    ("q(; cntd(Y)) :- p(Y) | b(Y)", "q(; cntd(Y)) :- b(Y) | p(Y)", RAT, EQ),
    ("q(; top2(Y)) :- p(Y)", "q(; top2(Y)) :- p(Y) | p(Y)", RAT, EQ),
    ("q(; top2(Y)) :- p(Y)", "q(; top2(Y)) :- p(Y), Y > 0", RAT, NE),
    ("q(; top2(Y)) :- p(Y) | p(Y), Y > 1", "q(; top2(Y)) :- p(Y)", RAT, EQ),
    ("q(; count()) :- p(X), !b(X)", "q(; count()) :- p(X)", RAT, NE),
    ("q(; sum(Y)) :- p(Y), !b(Y) | p(Y), b(Y)", "q(; sum(Y)) :- p(Y)", RAT,
     EQ),
]

# Acceptance criterion 6 through full equivalence, plus the two
# front-door refusals: avg has no full-equivalence procedure, and max/min
# heads only admit a local counterexample (there is none at N = 1).
_CRITERION_6 = [
    ("q(X; sum(Y)) :- p(X, Y), !b(X)", "q(U; sum(V)) :- p(U, V), !b(U)", EQ),
    ("q(; max(Y)) :- p(Y), Y > 1 | p(Y), Y < 0",
     "q(; max(Y)) :- p(Y), Y < 0 | p(Y), Y > 1", EQ),
    ("q(; count()) :- p(X), X >= 2", "q(; count()) :- p(X), 2 <= X", EQ),
    ("q(; sum(Y)) :- p(Y)", "q(; sum(Y)) :- p(Y), Y <= 1 | p(Y), Y > 1", EQ),
    ("q(; count()) :- p(X)", "q(; count()) :- p(X), X != 0 | p(X), X = 0",
     EQ),
    ("q(; max(Y)) :- p(Y)", "q(; max(Y)) :- p(Y) | p(Y), Y > 3", EQ),
    ("q(; count()) :- p(X)", "q(; count()) :- p(X) | p(X)", NE),
    ("q(; sum(Y)) :- p(Y)", "q(; sum(Y)) :- p(Y) | p(Y)", NE),
    ("q(; parity()) :- p(X)", "q(; parity()) :- p(X) | p(X)", NE),
    ("q(; count()) :- p(X), !b(X)", "q(; count()) :- p(X)", NE),
    ("q(X; max(Y)) :- e(X, Y), !b(X)", "q(X; max(Y)) :- e(X, Y)", NE),
    ("q(; avg(Y)) :- p(Y)", "q(; avg(Y)) :- p(Y)", UN),
    ("q(; max(Y)) :- p(Y)", "q(; min(Y)) :- p(Y)", UN),
]

# Acceptance criterion 7: the quasilinear fast path, including the
# 50-atom chain that must stay polynomial.
_CHAIN_A = ", ".join(f"p{i}(X{i}, X{i + 1})" for i in range(50))
_CHAIN_B = ", ".join(f"p{i}(V{i}, V{i + 1})" for i in range(50))
_CRITERION_7 = [
    ("q(X; max(Y)) :- p(X, Y)", "q(U; max(V)) :- p(U, V)", EQ),
    ("q(X; max(Y)) :- p(X, Y)", "q(U; max(V)) :- p(V, U)", NE),
    ("q(; sum(Y)) :- p(Y), !b(Y)", "q(; sum(V)) :- p(V), !b(V)", EQ),
    ("q(; sum(Y)) :- p(Y), !b(Y)", "q(; sum(V)) :- p(V), !c(V)", NE),
    ("q(; count()) :- p(X), X > 1", "q(; count()) :- p(Y), 1 < Y", EQ),
    ("q(; count()) :- p(X), X > 1", "q(; count()) :- p(Y), Y >= 1", NE),
    ("q(; min(Y)) :- p(Y), Y < 2", "q(; min(V)) :- p(V), 2 > V", EQ),
    ("q(; parity()) :- p(X, Y), X <= Y", "q(; parity()) :- p(A, B), B >= A",
     EQ),
    ("q(; top2(Y)) :- p(Y), Y > 0", "q(; top2(V)) :- p(V), V > 0", EQ),
    ("q(; top2(Y)) :- p(Y), Y > 0", "q(; top2(V)) :- p(V), V < 0", NE),
    (f"q(X0; sum(X50)) :- {_CHAIN_A}, !s(X0), X0 < X50",
     f"q(V0; sum(V50)) :- {_CHAIN_B}, !s(V0), V0 < V50", EQ),
]

# Bag-set equivalence of plain queries (count adjoined to the heads).
_BAGSET = [
    ("q(X) :- p(X)", "q(X) :- p(X), p(X)", EQ),
    ("q(X) :- p(X)", "q(X) :- p(X) | p(X)", NE),
]

SUITE = (
    [_pair(f"c5.{i:02d}", "local-equiv", a, b, expect, domain=domain,
           why="acceptance criterion 5")
     for i, (a, b, domain, expect) in enumerate(_CRITERION_5, 1)]
    + [_pair(f"c6.{i:02d}", "equiv", a, b, expect,
             why="acceptance criterion 6 / equiv front door")
       for i, (a, b, expect) in enumerate(_CRITERION_6, 1)]
    + [_pair(f"c7.{i:02d}", "quasilinear", a, b, expect,
             why="acceptance criterion 7")
       for i, (a, b, expect) in enumerate(_CRITERION_7, 1)]
    + [_pair(f"bagset.{i}", "bagset-equiv", a, b, expect,
             why="bag-set front door")
       for i, (a, b, expect) in enumerate(_BAGSET, 1)]
)

# -- search -----------------------------------------------------------------
# Equivalent pairs: the engine must walk the whole (S, L) space, so the
# cost is units x per-unit cost.  Each pair leans on a different part of
# the scan.
_REFLEXIVE = "q(X; sum(Y)) :- p(X, Y), Y > 3 | p(Y, X), !b(X)"
_PROD_A, _PROD_B = "q(; prod(Y)) :- p(Y)", "q(; prod(Y)) :- p(Y) | p(Y), Y = 1"
SEARCH = [
    _pair("reflexive.n2", "nequiv", _REFLEXIVE, _REFLEXIVE, EQ, n=2,
          why="identical groups on every unit: pure scan cost, no decider "
              "calls; the largest BASE (p/2 and b/1 over 3 terms)"),
    _pair("max_subsumed.n4", "nequiv", "q(; max(Y)) :- p(Y)",
          "q(; max(Y)) :- p(Y) | p(Y), Y > 3", EQ, n=4,
          why="duplicate elements reach the shiftable decider"),
    _pair("top2_int.n4", "nequiv", "q(; top2(Y)) :- p(Y) | p(Y), Y > 1",
          "q(; top2(Y)) :- p(Y)", EQ, domain=INT, n=4,
          why="shiftable decider over the integers"),
    _pair("sum_zero.n4", "nequiv", "q(; sum(Y)) :- p(Y)",
          "q(; sum(Y)) :- p(Y) | p(Y), Y = 0", EQ, n=4,
          why="sum decider: the extra element is pinned to 0"),
    _pair("prod_one.n4", "nequiv", _PROD_A, _PROD_B, EQ, n=4,
          why="prod decider: the extra element is pinned to 1"),
    _pair("avg_dup.n5", "nequiv", "q(; avg(Y)) :- p(Y)",
          "q(; avg(Y)) :- p(Y) | p(Y)", EQ, n=5,
          why="avg route of the sum decider, at the CLI's largest N"),
    _pair("count_split.n4", "nequiv", "q(; count()) :- p(X)",
          "q(; count()) :- p(X), X != 0 | p(X), X = 0", EQ, n=4,
          why="comparisons settled per ordering, groups always match: "
              "scan with comparisons and no identities"),
    _pair("max_min_eq1.n4", "nequiv", "q(; max(Y)) :- p(Y), Y = 1",
          "q(; min(Y)) :- p(Y), Y = 1", EQ, n=4,
          why="different heads: the concrete _head_mismatch loop, "
              "one eval_concrete pair per unit"),
]

# -- refute -----------------------------------------------------------------
# Inequivalent pairs with many orderings and an early first
# counterexample: the cost is enumerating orderings and preparing their
# assignments, not scanning subsets.
_MAX_LT1 = ("q(; max(Y)) :- p(Y), Y < 1", "q(; max(Y)) :- p(Y), Y <= 0")
_SUM_SPLIT = ("q(; sum(Y)) :- p(Y), Y > 2 | p(Y), Y < 0",
              "q(; sum(Y)) :- p(Y), Y != 1")
REFUTE = [
    _pair("max_lt1.n5", "nequiv", *_MAX_LT1, NE, n=5,
          why="2520 orderings (2 constants, 5 fresh variables)"),
    _pair("cntd_gap.n4", "nequiv", "q(; cntd(Y)) :- p(Y), 0 < Y, Y < 3",
          "q(; cntd(Y)) :- p(Y), 0 < Y, Y < 2 | p(Y), 2 < Y, Y < 3", NE, n=4,
          why="840 orderings (3 constants); the split drops Y = 2"),
    _pair("sum_split.n4", "nequiv", *_SUM_SPLIT, NE, n=4,
          why="840 orderings; misses values in [0, 2] other than 1"),
    _pair("avg_pos.n5", "nequiv", "q(; avg(Y)) :- p(Y)",
          "q(; avg(Y)) :- p(Y), Y > 0", NE, n=5,
          why="avg refuted through the sum decider's witness"),
    _pair("prod_ge1.n4", "nequiv", "q(; prod(Y)) :- p(Y), Y > 1",
          "q(; prod(Y)) :- p(Y), Y >= 1", NE, n=4,
          why="a group on one side only"),
    _pair("top2_ge1.n4", "nequiv", "q(; top2(Y)) :- p(Y), Y > 1",
          "q(; top2(Y)) :- p(Y), Y >= 1", NE, domain=INT, n=4,
          why="shiftable refutation over the integers"),
    _pair("count_neg.n4", "nequiv", "q(; count()) :- p(X), !b(X)",
          "q(; count()) :- p(X)", NE, n=4,
          why="negation, no constants: few orderings, larger BASE"),
    _pair("max_edge_neg.n3", "nequiv", "q(X; max(Y)) :- e(X, Y), !b(X)",
          "q(X; max(Y)) :- e(X, Y)", NE, n=3,
          why="binary predicate with grouping and negation"),
]

# -- parallel ---------------------------------------------------------------
# The only workload that runs _parallel_scan (--workers 2, the core
# count of the machine the baseline was recorded on).  Two early-hit
# pairs, where every worker still prepares every ordering, and two full
# scans, where the split pays off.
_BY_ID = {p["id"]: p for p in SEARCH + REFUTE}
PARALLEL = [
    dict(_BY_ID[pid], workers=2, why=f"--workers 2 on {pid}: {reason}")
    for pid, reason in (
        ("max_lt1.n5", "early hit, orderings prepared per worker"),
        ("sum_split.n4", "early hit"),
        ("reflexive.n2", "full scan split across workers"),
        ("prod_one.n4", "full scan with decider calls"),
    )
]

WORKLOADS = {
    "suite": SUITE,
    "search": SEARCH,
    "refute": REFUTE,
    "parallel": PARALLEL,
}
