"""Equivalence decision procedures for disjunctive aggregate queries
with negation, constants and order comparisons.

Every name in `__all__` is loaded on first use (PEP 562): `import
aggequiv` loads no submodule, and `aggequiv.n_equivalent` loads `engine`
and what it imports, not `quasilinear`.
"""

import sys

#: submodule -> the names the package exports from it
_EXPORTS = {
    "aggregation": ("FUNCTIONS", "AggregationFunction", "Monoid", "apply",
                    "apply_shifting"),
    "engine": ("Counterexample", "Verdict", "bagset_equivalent",
               "build_base", "equivalent", "locally_equivalent",
               "n_equivalent"),
    "identity": ("IdentityVerdict", "OrderedIdentity", "decide"),
    "model": ("Atom", "Comparison", "Condition", "Const", "Database",
              "Query", "Var", "term_size", "term_size_pair"),
    "normalize": ("reduce_query",),
    "oracle": ("brute_force_check", "build_decomposition", "eval_concrete",
               "extend_database", "inclusion_exclusion_check",
               "verify_decomposition"),
    "orderings": ("CompleteOrdering", "enumerate_complete_orderings",
                  "entails", "satisfying_assignment", "witness_pair"),
    "parsing": ("format_database", "format_query", "parse_database",
                "parse_queries", "parse_query"),
    "quasilinear": ("Homomorphism", "equivalent_quasilinear",
                    "find_isomorphism", "is_quasilinear"),
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names}

#: the exported names and, as attributes, the submodules that hold them
#: and `constraints`
__all__ = sorted([*_HOME, *_EXPORTS, "constraints"])


def _submodule(name):
    # the import statement's own path, unlike importlib.import_module's,
    # shows in `python -X importtime`
    __import__(f"{__name__}.{name}")
    return sys.modules[f"{__name__}.{name}"]


def __getattr__(name):
    if name in _HOME:
        value = getattr(_submodule(_HOME[name]), name)
    elif name in __all__:
        value = _submodule(name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
