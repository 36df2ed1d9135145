"""Reasoning about conjunctions of comparisons: one system answers
satisfiability, entailment, forced values and forced equalities.

The system picks its method from the input.  By default a conjunction
over variables and constants is encoded as a difference-constraint graph
(nodes: variables, one node per constant value, plus an implicit
origin).  All-pairs strongest bounds come from a Floyd-Warshall pass
with exact weights; over the integers strict edges are tightened to
weight -1, which makes squeezing effects like ``0 < x < 2 entails x = 1``
fall out of the path weights.  Disequalities are easy over the rationals
(a conjunction is satisfiable iff the core is and no disequal pair is
forced equal).

Over the integers a disequality can pin a variable through a hole the
bounds cannot see, and makes satisfiability hard in general.  An integer
system containing ``!=`` therefore answers from its consistent complete
orderings (bounds it entails still settle a forced value or equality
first): satisfiability stops at the first, the rest build their list
once, and all refuse beyond a bound on the enumeration rather than
answer approximately.  `entails` is the same for every system: the
negated target makes the conjunction unsatisfiable.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Iterable, Optional

from .model import Comparison, INTEGERS, is_const
from .orderings import enumerate_complete_orderings

#: placement sequences beyond this are never enumerated: with c constants
#: in one chain, variable i has 2(c + i) + 1 places (7 variables, c = 0)
ENUMERATION_LIMIT = 135135


class TooHardError(ValueError):
    """Integer disequality reasoning beyond the enumeration limit."""


_WEAK = 1
_STRICT = 0  # sorts before weak: a strict bound of equal weight is stronger


class ComparisonSystem:
    """A conjunction of comparisons over a domain: strongest entailed
    bounds between every pair of terms, and, for an integer system with a
    disequality, its consistent orderings."""

    def __init__(self, comparisons: Iterable[Comparison], domain: str):
        self.domain = domain
        self.comparisons = list(comparisons)
        self._contradiction = False
        self._neq: list = []
        nodes: dict = {}

        def node(term):
            key = ("c", term.value) if is_const(term) else ("v", term.name)
            if key not in nodes:
                nodes[key] = len(nodes)
            return nodes[key]

        edges = []
        for cmp in self.comparisons:
            if is_const(cmp.lhs) and is_const(cmp.rhs):
                if not cmp.holds(cmp.lhs.value, cmp.rhs.value):
                    self._contradiction = True
                continue
            u, v = node(cmp.lhs), node(cmp.rhs)
            if cmp.op == "=":
                edges.append((u, v, Fraction(0), _WEAK))
                edges.append((v, u, Fraction(0), _WEAK))
            elif cmp.op in ("<", "<="):
                edges.append(self._ordered_edge(u, v, cmp.op == "<"))
            elif cmp.op in (">", ">="):
                edges.append(self._ordered_edge(v, u, cmp.op == ">"))
            else:
                self._neq.append((u, v))
        self._nodes = nodes
        self._values = {idx: key[1] for key, idx in nodes.items()
                        if key[0] == "c"}
        n = len(nodes)
        # anchor constant nodes pairwise so their numeric gaps are known
        consts = sorted(self._values.items(), key=lambda kv: kv[1])
        for (i, a), (j, b) in zip(consts, consts[1:]):
            edges.append((i, j, a - b, _WEAK))
            edges.append((j, i, b - a, _WEAK))

        INF = (None, _WEAK)
        dist = [[INF] * n for _ in range(n)]
        for i in range(n):
            dist[i][i] = (Fraction(0), _WEAK)
        for u, v, w, s in edges:
            candidate = (w, s)
            if self._better(candidate, dist[u][v]):
                dist[u][v] = candidate
        for k in range(n):
            for i in range(n):
                dik = dist[i][k]
                if dik[0] is None:
                    continue
                for j in range(n):
                    dkj = dist[k][j]
                    if dkj[0] is None:
                        continue
                    candidate = (dik[0] + dkj[0], min(dik[1], dkj[1]))
                    if self._better(candidate, dist[i][j]):
                        dist[i][j] = candidate
        self._dist = dist
        for i in range(n):
            w, s = dist[i][i]
            if w is not None and (w < 0 or (w == 0 and s == _STRICT)):
                self._contradiction = True

    def _ordered_edge(self, u, v, strict: bool):
        # u (<|<=) v  becomes  u - v <= w
        if strict and self.domain == INTEGERS:
            return (u, v, Fraction(-1), _WEAK)
        return (u, v, Fraction(0), _STRICT if strict else _WEAK)

    @staticmethod
    def _better(a, b) -> bool:
        if b[0] is None:
            return a[0] is not None
        if a[0] is None:
            return False
        return a < b

    # -- lookups --------------------------------------------------------------

    def _node_of(self, term) -> Optional[int]:
        key = ("c", term.value) if is_const(term) else ("v", term.name)
        return self._nodes.get(key)

    def _forced_equal_nodes(self, u: int, v: int) -> bool:
        duv, dvu = self._dist[u][v], self._dist[v][u]
        return (duv[0] == 0 and duv[1] == _WEAK
                and dvu[0] == 0 and dvu[1] == _WEAK)

    def _consistent_orderings(self):
        """The consistent complete orderings of an integer system with a
        disequality, generated lazily; None for every other system."""
        if not (self._neq and self.domain == INTEGERS):
            return None
        if self._contradiction:
            return iter(())
        terms = {t for c in self.comparisons for t in c.terms()}
        first = 2 * sum(map(is_const, terms)) + 1  # places of variable 0
        tries = math.prod(range(first, 2 * len(terms), 2))
        if tries > ENUMERATION_LIMIT:
            raise TooHardError(
                f"integer disequality reasoning over {len(terms)} terms "
                f"({tries} placement sequences) exceeds the enumeration limit "
                f"({ENUMERATION_LIMIT})")
        return enumerate_complete_orderings(terms, self.domain,
                                            comparisons=self.comparisons)

    @functools.cached_property
    def _orderings(self) -> Optional[list]:
        """`_consistent_orderings` as a list, built on first use."""
        orderings = self._consistent_orderings()
        return None if orderings is None else list(orderings)

    def satisfiable(self) -> bool:
        """Does some assignment over the domain satisfy every comparison?"""
        orderings = self._consistent_orderings()
        if orderings is not None:
            return next(orderings, None) is not None
        return not self._contradiction and not any(
            self._forced_equal_nodes(u, v) for u, v in self._neq)

    def entails(self, target: Comparison) -> bool:
        """Conjunction entails `target`: the negation is unsatisfiable."""
        pieces = {
            "<": [Comparison(target.rhs, "<=", target.lhs)],
            "<=": [Comparison(target.rhs, "<", target.lhs)],
            ">": [Comparison(target.lhs, "<=", target.rhs)],
            ">=": [Comparison(target.lhs, "<", target.rhs)],
            "=": [Comparison(target.lhs, "<", target.rhs),
                  Comparison(target.rhs, "<", target.lhs)],
            "!=": [Comparison(target.lhs, "=", target.rhs)],
        }[target.op]
        return not any(
            ComparisonSystem(self.comparisons + [piece],
                             self.domain).satisfiable()
            for piece in pieces)

    def forced_equal(self, a, b) -> bool:
        """Are two terms equal under every satisfying assignment?"""
        u, v = self._node_of(a), self._node_of(b)
        if u is None or v is None:
            return False
        if self._forced_equal_nodes(u, v):
            return True
        # disequality holes can pin both terms to one value
        return bool(self._orderings) and all(
            o.position(a) == o.position(b) for o in self._orderings)

    def bounds(self, term):
        """(lo, lo_strict, hi, hi_strict) entailed for a term; None ends
        are unbounded.  Bounds are relative to the constant nodes."""
        u = self._node_of(term)
        lo = hi = None
        lo_strict = hi_strict = False
        if u is None:
            return (lo, lo_strict, hi, hi_strict)
        for v, value in self._values.items():
            w, s = self._dist[u][v]
            if w is not None:
                candidate = value + w
                if hi is None or candidate < hi or (
                        candidate == hi and s == _STRICT):
                    hi, hi_strict = candidate, s == _STRICT
            w, s = self._dist[v][u]
            if w is not None:
                candidate = value - w
                if lo is None or candidate > lo or (
                        candidate == lo and s == _STRICT):
                    lo, lo_strict = candidate, s == _STRICT
        return (lo, lo_strict, hi, hi_strict)

    def forced_value(self, term) -> Optional[Fraction]:
        """The single value a term can take, if there is exactly one."""
        lo, lo_strict, hi, hi_strict = self.bounds(term)
        if lo is not None and lo == hi and not lo_strict and not hi_strict:
            return lo
        if self._node_of(term) is None or not self._orderings:
            return None
        # a disequality hole can pin a range the bounds leave open
        ranges = {o.class_bounds(o.position(term)) for o in self._orderings}
        lo, hi = ranges.pop()
        return lo if not ranges and lo is not None and lo == hi else None
