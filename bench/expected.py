#!/usr/bin/env python3
"""Re-derive the expected answers in pairs.py with the brute-force oracle.

    python3 bench/expected.py

For each pair, as acceptance criterion 5 does: decide it with the
library, build a value pool from the query constants (plus the
counterexample's carrier when there is one), pad it to N values, and
search every database over the pool with `oracle.brute_force_check`.
A database that separates the queries must go with `not_equivalent`;
none must go with `equivalent`, or with `unsupported` when the library
refuses the question.  Pairs whose database space exceeds the oracle's
cap (the 50-atom chain) keep their recorded answer, which acceptance
criterion 7 asserts.  Exits 1 on any disagreement.
"""

from __future__ import annotations

import sys
import tempfile
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import WORK, make_cases  # noqa: E402  (sets up the import path)

from aggequiv import engine, oracle  # noqa: E402
from aggequiv.model import term_size_pair  # noqa: E402
from aggequiv.quasilinear import equivalent_quasilinear  # noqa: E402
from pairs import WORKLOADS  # noqa: E402


def library_verdict(pair, q, q2):
    command = pair["command"]
    if command == "nequiv":
        return engine.n_equivalent(q, q2, pair["n"])
    if command == "quasilinear":
        return equivalent_quasilinear(q, q2)
    if command == "local-equiv":
        return engine.locally_equivalent(q, q2)
    return engine.equivalent(q, q2)  # equiv, and bagset with count adjoined


def pool_for(pair, q, q2, verdict) -> list:
    n = pair["n"] if pair["n"] is not None else term_size_pair(q, q2)
    pool = {t.value for t in q.constants() | q2.constants()}
    if verdict.counterexample is not None:
        pool |= verdict.counterexample.database.carrier()
    pool = sorted(pool)
    filler = Fraction(0)
    while len(pool) < n:
        if filler not in pool:
            pool.append(filler)
            pool.sort()
        filler += 1
    return pool[:max(n, 1)]


def main() -> int:
    seen = {}
    for pairs in WORKLOADS.values():
        for pair in pairs:
            seen.setdefault(pair["id"], pair)
    WORK.mkdir(exist_ok=True)
    status = 0
    with tempfile.TemporaryDirectory(dir=WORK) as workdir:
        cases = make_cases(list(seen.values()), Path(workdir))
        for case in cases:
            pair = case.pair
            q, q2 = case.queries
            verdict = library_verdict(pair, q, q2)
            try:
                found = oracle.brute_force_check(
                    q, q2, pool=pool_for(pair, q, q2, verdict))
                oracle_says = ("not_equivalent" if found is not None
                               else "equivalent")
            except ValueError:
                oracle_says = "too large"
            if oracle_says == "too large":
                ok = verdict.status == pair["expect"]
            elif pair["expect"] == "unsupported":
                ok = verdict.status == "unsupported"
            else:
                ok = oracle_says == pair["expect"]
            status |= not ok
            print(f"{pair['id']:<18} expect {pair['expect']:<15} "
                  f"library {verdict.status:<15} oracle {oracle_says:<15} "
                  f"{'ok' if ok else 'MISMATCH'}", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
