"""Textual syntax for queries and databases.

Queries::

    q(X; sum(Y)) :- p(X, Y), Y > 3 | p(X, Y), !b(X), Y = 4.

    emp(X) :- p(X), X != 0.          # non-aggregate head (bag-set front end)

Variables are capitalized identifiers, predicates and function names are
lowercase, rationals are written ``a/b``.  A declaration may end with an
optional ``.``; several declarations can share a file.  '#' starts a
comment that runs to the end of the line.

Databases are newline-separated ground atoms: ``p(1, 3/2).``
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Optional

from .aggregation import FUNCTIONS, GRAMMAR_FUNCTIONS
from .model import (
    INTEGERS, RATIONALS, AggregateTerm, Atom, Comparison, Condition, Const,
    Database, Query, Var, is_const,
)


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class ArityRegistry:
    """Predicate arities, fixed at first occurrence within a run."""

    def __init__(self):
        self._arities: dict[str, int] = {}

    def check(self, predicate: str, arity: int, line=0, column=0):
        known = self._arities.setdefault(predicate, arity)
        if known != arity:
            raise ParseError(
                f"predicate {predicate} used with arity {arity}, "
                f"previously {known}", line, column)


_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+|\#[^\n]*)
  | (?P<number>-?\d+)
  | (?P<ident>[a-z][A-Za-z0-9_]*)
  | (?P<var>[A-Z_][A-Za-z0-9_]*)
  | (?P<punct>:-|<=|>=|!=|[(),;|!.<>=/])
""", re.VERBOSE)


def _tokenize(text: str):
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        value = m.group()
        if kind != "ws":
            tokens.append((kind, value, line, col))
        newlines = value.count("\n")
        if newlines:
            line += newlines
            col = len(value) - value.rfind("\n")
        else:
            col += len(value)
        pos = m.end()
    tokens.append(("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str, domain: str, registry: ArityRegistry,
                 what: str = "query"):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.domain = domain
        self.registry = registry
        self.what = what  # what the text holds, for error messages

    # -- token plumbing ------------------------------------------------------

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def at(self, kind, value=None) -> bool:
        k, v, _, _ = self.peek()
        return k == kind and (value is None or v == value)

    def expect(self, kind, value=None):
        k, v, line, col = self.peek()
        if k != kind or (value is not None and v != value):
            want = value if value is not None else kind
            raise ParseError(f"expected {want!r}, found {v or k!r}", line, col)
        return self.next()

    def error(self, message):
        _, v, line, col = self.peek()
        raise ParseError(message, line, col)

    # -- grammar -------------------------------------------------------------

    def number(self) -> Fraction:
        _, num, line, col = self.expect("number")
        value = Fraction(int(num))
        if self.at("punct", "/"):
            self.next()
            _, den, dline, dcol = self.expect("number")
            if int(den) == 0:
                raise ParseError("zero denominator", dline, dcol)
            value = Fraction(int(num), int(den))
        if self.domain == INTEGERS and value.denominator != 1:
            raise ParseError(f"rational constant {value} in an "
                             f"integer-domain {self.what}", line, col)
        return value

    def term(self):
        if self.at("var"):
            return Var(self.next()[1])
        if self.at("number"):
            return Const(self.number())
        self.error("expected a term (variable or number)")

    def term_list(self):
        terms = []
        if self.at("punct", ")") or self.at("punct", ";"):
            return tuple(terms)
        terms.append(self.term())
        while self.at("punct", ","):
            self.next()
            terms.append(self.term())
        return tuple(terms)

    def atom(self, positive: bool) -> Atom:
        kind, name, line, col = self.expect("ident")
        self.expect("punct", "(")
        args = self.term_list()
        self.expect("punct", ")")
        self.registry.check(name, len(args), line, col)
        return Atom(name, args, positive)

    def literal(self):
        if self.at("punct", "!"):
            self.next()
            return self.atom(positive=False)
        if self.at("ident"):
            return self.atom(positive=True)
        lhs = self.term()
        k, op, line, col = self.peek()
        if k == "punct" and op in ("<", "<=", ">", ">=", "!=", "="):
            self.next()
        else:
            raise ParseError("expected a comparison operator", line, col)
        rhs = self.term()
        return Comparison(lhs, op, rhs)

    def disjunct(self) -> Condition:
        atoms, comparisons = [], []
        lit = self.literal()
        (atoms if isinstance(lit, Atom) else comparisons).append(lit)
        while self.at("punct", ","):
            self.next()
            lit = self.literal()
            (atoms if isinstance(lit, Atom) else comparisons).append(lit)
        return Condition(tuple(atoms), tuple(comparisons))

    def aggregate(self) -> AggregateTerm:
        kind, name, line, col = self.expect("ident")
        if name not in GRAMMAR_FUNCTIONS:
            raise ParseError(f"unknown aggregation function {name!r}", line, col)
        func = FUNCTIONS[name]
        self.expect("punct", "(")
        args = self.term_list()
        self.expect("punct", ")")
        if len(args) != func.arity:
            raise ParseError(
                f"{name} takes {func.arity} argument(s), got {len(args)}",
                line, col)
        return AggregateTerm(func, args)

    def query(self) -> Query:
        _, name, _, _ = self.expect("ident")
        self.expect("punct", "(")
        grouping = self.term_list()
        aggregate = None
        if self.at("punct", ";"):
            self.next()
            aggregate = self.aggregate()
        self.expect("punct", ")")
        self.expect("punct", ":-")
        disjuncts = [self.disjunct()]
        while self.at("punct", "|"):
            self.next()
            disjuncts.append(self.disjunct())
        if self.at("punct", "."):
            self.next()
        return Query(name, grouping, aggregate, tuple(disjuncts),
                     self.domain).validate()

    def query_file(self):
        queries = [self.query()]
        while not self.at("eof"):
            queries.append(self.query())
        return queries

    def database(self) -> Database:
        facts = set()
        while not self.at("eof"):
            _, _, line, col = self.peek()
            fact = self.atom(positive=True)
            self.expect("punct", ".")
            bad = [a for a in fact.args if not is_const(a)]
            if bad:
                raise ParseError(f"database fact with variable {bad[0]}", line, col)
            facts.add((fact.predicate, tuple(a.value for a in fact.args)))
        return Database(frozenset(facts))


def parse_query(text: str, domain: str = RATIONALS,
                registry: Optional[ArityRegistry] = None) -> Query:
    """Parse exactly one query declaration."""
    parser = _Parser(text, domain, registry or ArityRegistry())
    q = parser.query()
    if not parser.at("eof"):
        parser.error("trailing input after query")
    return q


def parse_queries(text: str, domain: str = RATIONALS,
                  registry: Optional[ArityRegistry] = None) -> list:
    """Parse a file of one or more query declarations."""
    return _Parser(text, domain, registry or ArityRegistry()).query_file()


def parse_database(text: str, domain: str = RATIONALS,
                   registry: Optional[ArityRegistry] = None) -> Database:
    """Parse newline-separated ground facts like ``p(1, 3/2).``"""
    return _Parser(text, domain, registry or ArityRegistry(),
                   what="database").database()


def parse_term(text: str):
    """Parse a single term; used by the ordered-identity front end."""
    parser = _Parser(text, RATIONALS, ArityRegistry())
    t = parser.term()
    if not parser.at("eof"):
        parser.error("trailing input after term")
    return t


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

def format_query(q: Query) -> str:
    head_terms = ", ".join(str(t) for t in q.grouping)
    if q.aggregate is not None:
        head = f"{q.name}({head_terms}; {q.aggregate})"
    else:
        head = f"{q.name}({head_terms})"
    if q.is_unsatisfiable:
        # canonical unsatisfiable body: a single contradictory comparison
        return f"{head} :- 0 != 0"
    body = " | ".join(str(d) for d in q.disjuncts)
    return f"{head} :- {body}"


def format_fact(fact) -> str:
    pred, values = fact
    return f"{pred}({', '.join(str(Const(v)) for v in values)})."


def format_database(db: Database) -> str:
    return "\n".join(format_fact(f) for f in db.sorted_facts())
