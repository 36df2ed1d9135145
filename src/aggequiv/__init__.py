"""Equivalence decision procedures for disjunctive aggregate queries
with negation, constants and order comparisons."""

from .aggregation import (
    FUNCTIONS, AggregationFunction, Monoid, apply, apply_shifting,
)
from .engine import (
    Counterexample, Verdict, bagset_equivalent, build_base, equivalent,
    locally_equivalent, n_equivalent,
)
from .identity import IdentityVerdict, OrderedIdentity, decide
from .model import (
    Atom, Comparison, Condition, Const, Database, Query, Var,
    term_size, term_size_pair,
)
from .normalize import reduce_query
from .oracle import (
    brute_force_check, build_decomposition, eval_concrete, extend_database,
    inclusion_exclusion_check, verify_decomposition,
)
from .orderings import (
    CompleteOrdering, enumerate_complete_orderings, entails,
    satisfying_assignment, witness_pair,
)
from .parsing import (
    format_database, format_query, parse_database, parse_queries, parse_query,
)
from .quasilinear import (
    Homomorphism, equivalent_quasilinear, find_isomorphism, is_quasilinear,
)

__all__ = [name for name in dir() if not name.startswith("_")]
