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
    COMPARISON_OPS, INTEGERS, RATIONALS, AggregateTerm, Atom, Comparison,
    Condition, Const, Database, Query, Var, is_const,
)


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


def _error(message: str, text: str, offset: int) -> ParseError:
    """A ParseError at `offset` of `text`, as its line and column: only
    an error reads them, so no token keeps them."""
    line = text.count("\n", 0, offset) + 1
    return ParseError(message, line, offset - text.rfind("\n", 0, offset))


class ArityRegistry:
    """Predicate arities, fixed at first occurrence within a run."""

    def __init__(self):
        self._arities: dict[str, int] = {}

    def setdefault(self, predicate: str, arity: int) -> int:
        """`predicate`'s arity, fixed to `arity` at its first use."""
        return self._arities.setdefault(predicate, arity)


_TOKEN_RE = re.compile(r"""
    \s+|\#[^\n]*
  | (?P<number>-?\d+)
  | (?P<ident>[a-z][A-Za-z0-9_]*)
  | (?P<var>[A-Z_][A-Za-z0-9_]*)
  | (?P<punct>:-|<=|>=|!=|[(),;|!.<>=/])
  | (?P<bad>.)
""", re.VERBOSE)


def _tokenize(text: str) -> list:
    """`text`'s tokens as `(kind, value, offset)`, then an `eof` one, in
    one scan; whitespace and comments match no group and are skipped.  A
    punctuation token's kind is its value, so one comparison tells any
    token apart."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind is not None:
            value = m.group()
            if kind == "bad":
                raise _error(f"unexpected character {value!r}", text,
                             m.start())
            tokens.append((value if kind == "punct" else kind, value,
                           m.start()))
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent over `_tokenize`'s list: `pos` indexes the next
    token, and a rule reads `tokens[pos]` itself."""

    def __init__(self, text: str, domain: str, registry: ArityRegistry,
                 what: str = "query"):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.domain = domain
        self.registry = registry
        self.what = what  # what the text holds, for error messages

    def expect(self, kind: str) -> str:
        """The next token's value, consumed; it must be of `kind`."""
        token = self.tokens[self.pos]
        if token[0] != kind:
            self.error(f"expected {kind!r}, found {token[1] or token[0]!r}")
        self.pos += 1
        return token[1]

    def error(self, message: str, offset: Optional[int] = None):
        """Raise a ParseError at `offset`, by default the next token's."""
        if offset is None:
            offset = self.tokens[self.pos][2]
        raise _error(message, self.text, offset)

    # -- grammar -------------------------------------------------------------

    def number(self) -> Fraction:
        offset = self.tokens[self.pos][2]
        num = int(self.expect("number"))
        value = Fraction(num)
        if self.tokens[self.pos][0] == "/":
            self.pos += 1
            denominator = self.tokens[self.pos][2]
            den = int(self.expect("number"))
            if den == 0:
                self.error("zero denominator", denominator)
            value = Fraction(num, den)
        if self.domain == INTEGERS and value.denominator != 1:
            self.error(f"rational constant {value} in an "
                       f"integer-domain {self.what}", offset)
        return value

    def term(self):
        kind, value, _ = self.tokens[self.pos]
        if kind == "var":
            self.pos += 1
            return Var(value)
        if kind == "number":
            return Const(self.number())
        self.error("expected a term (variable or number)")

    def term_list(self):
        if self.tokens[self.pos][0] in (")", ";"):
            return ()
        terms = [self.term()]
        while self.tokens[self.pos][0] == ",":
            self.pos += 1
            terms.append(self.term())
        return tuple(terms)

    def atom(self, positive: bool) -> Atom:
        offset = self.tokens[self.pos][2]
        name = self.expect("ident")
        self.expect("(")
        args = self.term_list()
        self.expect(")")
        known = self.registry.setdefault(name, len(args))
        if known != len(args):
            self.error(f"predicate {name} used with arity {len(args)}, "
                       f"previously {known}", offset)
        return Atom(name, args, positive)

    def literal(self):
        kind = self.tokens[self.pos][0]
        if kind == "!":
            self.pos += 1
            return self.atom(positive=False)
        if kind == "ident":
            return self.atom(positive=True)
        lhs = self.term()
        op = self.tokens[self.pos][0]
        if op not in COMPARISON_OPS:
            self.error("expected a comparison operator")
        self.pos += 1
        return Comparison(lhs, op, self.term())

    def disjunct(self) -> Condition:
        atoms, comparisons = [], []
        while True:
            lit = self.literal()
            (atoms if isinstance(lit, Atom) else comparisons).append(lit)
            if self.tokens[self.pos][0] != ",":
                return Condition(tuple(atoms), tuple(comparisons))
            self.pos += 1

    def aggregate(self) -> AggregateTerm:
        offset = self.tokens[self.pos][2]
        name = self.expect("ident")
        if name not in GRAMMAR_FUNCTIONS:
            self.error(f"unknown aggregation function {name!r}", offset)
        func = FUNCTIONS[name]
        self.expect("(")
        args = self.term_list()
        self.expect(")")
        if len(args) != func.arity:
            self.error(f"{name} takes {func.arity} argument(s), "
                       f"got {len(args)}", offset)
        return AggregateTerm(func, args)

    def query(self) -> Query:
        name = self.expect("ident")
        self.expect("(")
        grouping = self.term_list()
        aggregate = None
        if self.tokens[self.pos][0] == ";":
            self.pos += 1
            aggregate = self.aggregate()
        self.expect(")")
        self.expect(":-")
        disjuncts = [self.disjunct()]
        while self.tokens[self.pos][0] == "|":
            self.pos += 1
            disjuncts.append(self.disjunct())
        if self.tokens[self.pos][0] == ".":
            self.pos += 1
        return Query(name, grouping, aggregate, tuple(disjuncts),
                     self.domain).validate()

    def query_file(self):
        queries = [self.query()]
        while self.tokens[self.pos][0] != "eof":
            queries.append(self.query())
        return queries

    def database(self) -> Database:
        facts = set()
        while self.tokens[self.pos][0] != "eof":
            offset = self.tokens[self.pos][2]
            fact = self.atom(positive=True)
            self.expect(".")
            bad = [a for a in fact.args if not is_const(a)]
            if bad:
                self.error(f"database fact with variable {bad[0]}", offset)
            facts.add((fact.predicate, tuple(a.value for a in fact.args)))
        return Database(frozenset(facts))

    def end(self, what: str):
        if self.tokens[self.pos][0] != "eof":
            self.error(f"trailing input after {what}")


def parse_query(text: str, domain: str = RATIONALS,
                registry: Optional[ArityRegistry] = None) -> Query:
    """Parse exactly one query declaration."""
    parser = _Parser(text, domain, registry or ArityRegistry())
    q = parser.query()
    parser.end("query")
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
    parser.end("term")
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
