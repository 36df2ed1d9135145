"""Command-line front end for the equivalence decision procedures.

Exit codes: 0 equivalent (or valid / verified), 1 not equivalent (a
counterexample was emitted), 2 error, internal error or unsupported
input, 64 usage.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from typing import Optional

from . import engine, identity, oracle
from .aggregation import FUNCTIONS, format_value, value_to_json
from .model import (
    Const, INTEGERS, Query, RATIONALS, ValidationError, term_size_pair,
)
from .orderings import CompleteOrdering, is_satisfiable_order
from .parsing import (
    ArityRegistry, ParseError, format_database, format_fact, parse_database,
    parse_queries, parse_term,
)

USAGE_EXIT = 64
MAX_BASE = 24
MAX_N = 5


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built on first use and kept for the process:
    building it costs more than most decisions."""
    parser = _Parser(prog="aggequiv", description=__doc__)
    # every command reads the same fields; these cover the flags it lacks
    parser.set_defaults(domain=RATIONALS, n=None, force=False,
                        json_output=False, workers=1,
                        save_counterexample=None)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, queries=2):
        p.add_argument("queries", nargs="+" if queries == 2 else 1,
                       metavar="QUERYFILE",
                       help="two query files, or one file holding two "
                            "declarations" if queries == 2 else "query file")
        p.add_argument("--domain", choices=[INTEGERS, RATIONALS],
                       default=RATIONALS,
                       help="numeric domain the comparisons range over")
        p.add_argument("--json", action="store_true", dest="json_output",
                       help="machine-readable output on stdout")

    def engine_flags(p):
        p.add_argument("--force", action="store_true",
                       help="run even past the search-size guardrail")
        p.add_argument("--workers", type=int, default=1,
                       help="accepted for earlier scripts; the search "
                            "runs in this process whatever its value")
        p.add_argument("--save-counterexample", metavar="FILE",
                       help="write the counterexample database here")

    p = sub.add_parser("equiv", help="full equivalence")
    common(p); engine_flags(p)

    p = sub.add_parser("nequiv", help="N-bounded equivalence")
    p.add_argument("--n", type=int, required=True,
                   help="database carrier bound")
    common(p); engine_flags(p)

    p = sub.add_parser("local-equiv",
                       help="equivalence over term-size-bounded databases")
    common(p); engine_flags(p)

    p = sub.add_parser("quasilinear",
                       help="polynomial fast path for quasilinear queries")
    common(p)
    p.add_argument("--save-counterexample", metavar="FILE")

    p = sub.add_parser("bagset-equiv",
                       help="bag-set equivalence of non-aggregate queries")
    common(p); engine_flags(p)

    p = sub.add_parser("eval", help="evaluate a query over a database")
    common(p, queries=1)
    p.add_argument("-d", "--database", required=True, metavar="DBFILE")

    p = sub.add_parser("check-decomposition",
                       help="build and verify a database decomposition")
    common(p)
    p.add_argument("-d", "--database", required=True, metavar="DBFILE")
    p.add_argument("--group", required=True,
                   help="comma-separated grouping constants, e.g. '1,3/2'")

    p = sub.add_parser("check-identity",
                       help="decide an ordered identity from a file")
    p.add_argument("identity_file", metavar="IDENTITYFILE")
    p.add_argument("--json", action="store_true", dest="json_output")

    return parser


# ---------------------------------------------------------------------------
# Input loading
# ---------------------------------------------------------------------------

def _load(paths, domain, count: int):
    """The `count` query declarations the files hold, and their arities."""
    registry = ArityRegistry()
    queries = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            queries.extend(parse_queries(handle.read(), domain, registry))
    if len(queries) != count:
        wanted = ("one query declaration" if count == 1
                  else "two query declarations")
        raise UsageError(f"expected exactly {wanted}, found {len(queries)}")
    return queries, registry


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------

def _counterexample_json(ce) -> Optional[dict]:
    if ce is None:
        return None
    return {
        "facts": [format_fact(f) for f in ce.database.sorted_facts()],
        "grouping": [format_value(v) for v in ce.group],
        "values": [value_to_json(ce.left_value), value_to_json(ce.right_value)],
    }


def _report_verdict(verdict, args, started: float) -> int:
    # saved first, so a failed write reports only its error, not a verdict
    # that the exit code then contradicts
    if verdict.counterexample is not None and args.save_counterexample:
        with open(args.save_counterexample, "w", encoding="utf-8") as out:
            out.write(format_database(verdict.counterexample.database) + "\n")
    payload = {
        "status": verdict.status,
        "n_used": verdict.n_used,
        "counterexample": _counterexample_json(verdict.counterexample),
        "timings": {"total_s": round(time.monotonic() - started, 6)},
    }
    if verdict.reason:
        payload["reason"] = verdict.reason
    if args.json_output:
        print(json.dumps(payload))
    else:
        print(f"status: {verdict.status}")
        if verdict.n_used is not None:
            print(f"n_used: {verdict.n_used}")
        if verdict.reason:
            print(f"reason: {verdict.reason}")
        if verdict.counterexample is not None:
            ce = verdict.counterexample
            print("counterexample database:")
            text = format_database(ce.database)
            print("  " + text.replace("\n", "\n  ") if text else "  (empty)")
            group = ", ".join(format_value(v) for v in ce.group)
            print(f"grouping tuple: ({group})")
            print(f"left value:  {format_value(ce.left_value)}")
            print(f"right value: {format_value(ce.right_value)}")
    if verdict.status == engine.EQUIVALENT:
        return 0
    if verdict.status == engine.NOT_EQUIVALENT:
        return 1
    return 2


def _guardrail(q: Query, q2: Query, n: int, args):
    size = engine.base_size(q, q2, n)
    if not args.force and (size > MAX_BASE or n > MAX_N):
        raise ValueError(
            f"refusing a search over 2^{size} atom subsets "
            f"(|BASE| = {size}, N = {n}); the cost is doubly "
            f"exponential. Pass --force to run anyway.")


def _fail(message: str, args, status: str = "error") -> int:
    if args.json_output:
        print(json.dumps({"status": status, "reason": message}))
    else:
        print(f"{status.replace('_', ' ')}: {message}", file=sys.stderr)
    return 2


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_pairwise(args) -> int:
    started = time.monotonic()
    (q, q2), _ = _load(args.queries, args.domain, 2)
    if args.command == "quasilinear":
        # loaded here, so that no search command loads quasilinear,
        # normalize or constraints
        from .quasilinear import equivalent_quasilinear
        verdict = equivalent_quasilinear(q, q2)
    elif args.command == "nequiv":
        _guardrail(q, q2, args.n, args)
        verdict = engine.n_equivalent(q, q2, args.n, workers=args.workers)
    else:
        # equiv's unsupported routes search nothing, so pass no guardrail
        verdict = (engine.unsupported_verdict(q, q2)
                   if args.command == "equiv" else None)
        if verdict is None:
            _guardrail(q, q2, term_size_pair(q, q2), args)
            decide = {"equiv": engine.equivalent,
                      "local-equiv": engine.locally_equivalent,
                      "bagset-equiv": engine.bagset_equivalent}[args.command]
            verdict = decide(q, q2, workers=args.workers)
    return _report_verdict(verdict, args, started)


def _cmd_eval(args) -> int:
    (q,), registry = _load(args.queries, args.domain, 1)
    with open(args.database, encoding="utf-8") as handle:
        db = parse_database(handle.read(), args.domain, registry)
    results = sorted(oracle.eval_concrete(q, db))
    if args.json_output:
        if q.aggregate is None:
            payload = [{"group": [format_value(v) for v in key]}
                       for key in results]
        else:
            payload = [{"group": [format_value(v) for v in key],
                        "value": value_to_json(value)}
                       for key, value in results]
        print(json.dumps({"results": payload}))
    else:
        for item in results:
            if q.aggregate is None:
                print("(" + ", ".join(format_value(v) for v in item) + ")")
            else:
                key, value = item
                group = ", ".join(format_value(v) for v in key)
                print(f"({group}) -> {format_value(value)}")
    return 0


def _cmd_check_decomposition(args) -> int:
    (q, q2), registry = _load(args.queries, args.domain, 2)
    with open(args.database, encoding="utf-8") as handle:
        db = parse_database(handle.read(), args.domain, registry)
    if len(q.grouping) != len(q2.grouping):
        raise ValueError(f"the heads group by {len(q.grouping)} and "
                         f"{len(q2.grouping)} column(s): no group is shared")
    chunks = [chunk.strip() for chunk in args.group.split(",")]
    if chunks == [""]:
        chunks = []  # the empty tuple of an ungrouped head
    if len(chunks) != len(q.grouping) or "" in chunks:
        raise UsageError(f"--group needs {len(q.grouping)} comma-separated "
                         f"grouping constant(s), got {args.group!r}")
    group = []
    for chunk in chunks:
        try:
            term = parse_term(chunk)
        except ParseError:
            term = None
        if not isinstance(term, Const) or (
                args.domain == INTEGERS and term.value.denominator != 1):
            raise UsageError(f"grouping value {chunk!r} is not a constant "
                             f"of the domain {args.domain!r}")
        group.append(term.value)
    family = oracle.build_decomposition(db, q, q2, tuple(group))
    ok = oracle.verify_decomposition(family, db, q, q2, tuple(group))
    if args.json_output:
        print(json.dumps({
            "databases": [len(part) for part in family],
            "verified": ok,
        }))
    else:
        print(f"decomposition into {len(family)} database(s), "
              f"sizes {[len(part) for part in family]}")
        print("verified" if ok else "verification FAILED")
    return 0 if ok else 1


def _cmd_check_identity(args) -> int:
    with open(args.identity_file, encoding="utf-8") as handle:
        ident = _parse_identity(handle.read())
    verdict = identity.decide(ident)
    witness = None if verdict.witness is None else {
        str(t): format_value(v) for t, v in sorted(
            verdict.witness.items(), key=lambda kv: str(kv[0]))}
    if args.json_output:
        print(json.dumps({"valid": verdict.valid, "witness": witness}))
    else:
        print("valid" if verdict.valid else "invalid")
        for t, v in (witness or {}).items():
            print(f"  {t} = {v}")
    return 0 if verdict.valid else 1


def _parse_identity(text: str):
    """Ordered-identity file format::

        domain: int
        function: sum
        ordering: 0 < X < Y = Z < 7
        left: {X, X, Y}
        right: {7, Z}

    The ordering chains terms with ``<`` and ``=`` only.  Nullary
    functions write bag elements as ``()``.
    """
    fields = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ValueError(f"bad identity line: {line!r}")
        key, value = line.split(":", 1)
        key = key.strip().lower()
        if key not in ("domain", "function", "ordering", "left", "right"):
            raise ValueError(f"unknown identity key {key!r}")
        if key in fields:
            raise ValueError(f"identity key {key!r} given twice")
        fields[key] = value.strip()
    for required in ("function", "ordering", "left", "right"):
        if required not in fields:
            raise ValueError(f"identity file is missing {required!r}")
    domain = fields.get("domain", RATIONALS)
    if domain not in (INTEGERS, RATIONALS):
        raise ValueError(f"unknown domain {domain!r}")
    name = fields["function"]
    if name not in FUNCTIONS:
        raise ValueError(f"unknown aggregation function {name!r}")
    func = FUNCTIONS[name]

    classes = []
    for chunk in fields["ordering"].split("<") if fields["ordering"] else ():
        parts = [part.strip() for part in chunk.split("=")]
        if "" in parts:
            # `<=` leaves an empty term before its `=`: no strict ordering
            raise ValueError(f"empty term in the ordering "
                             f"{fields['ordering']!r}; write it with < "
                             f"and = only")
        classes.append([parse_term(part) for part in parts])
    if not is_satisfiable_order(classes, domain):
        raise ValueError("the ordering is not satisfiable over the domain")
    ordering = CompleteOrdering.of(classes, domain)

    def bag(source: str):
        source = source.strip()
        if not (source.startswith("{") and source.endswith("}")):
            raise ValueError("bags are written {t1, t2, ...}")
        inner = source[1:-1].strip()
        if not inner:
            return ()
        items = []
        for part in inner.split(","):
            part = part.strip()
            if part == "()":
                items.append(())
            else:
                items.append((parse_term(part),))
        return tuple(items)

    try:
        return identity.OrderedIdentity(ordering, bag(fields["left"]),
                                        bag(fields["right"]), func)
    except KeyError as exc:
        # a bag term the ordering leaves out is an input error
        raise ValueError(exc.args[0]) from None


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.n is not None and args.n < 0:
            raise UsageError("--n must be nonnegative")
        if args.workers < 1:
            raise UsageError("--workers must be at least 1")
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT

    try:
        if args.command in ("equiv", "nequiv", "local-equiv",
                            "quasilinear", "bagset-equiv"):
            return _cmd_pairwise(args)
        if args.command == "eval":
            return _cmd_eval(args)
        if args.command == "check-decomposition":
            return _cmd_check_decomposition(args)
        if args.command == "check-identity":
            return _cmd_check_identity(args)
        raise AssertionError(args.command)  # pragma: no cover
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (ParseError, ValidationError, ValueError, OSError) as exc:
        return _fail(str(exc), args)
    except (AssertionError, RuntimeError) as exc:
        # a broken invariant is no verdict: keep it off exit code 1
        return _fail(str(exc), args, status="internal_error")


if __name__ == "__main__":
    sys.exit(main())
