"""Growing binary trees: enumeration, boundary geometry, uniform sampling.

A growing binary tree starts as a single anchor; each step every anchor
either dies or branches into an internal node with two fresh anchors. The
package computes the exact big-integer count tables of the process and their
Catalan column sums (enumeration), the meta-Fibonacci sequences and cell
regions that bound the tables (sequences), leaf-profile arithmetic with the
Kraft-McMillan validity test (profiles), entropy-frugal uniform sampling of
trees with a fixed profile (sampler), the growth model itself with JSON and
DOT serialization (tree_core), and brute-force cross-check enumerators
(oracle). The growingtrees console script fronts all of it.
"""

# Each public name, listed once under the submodule that defines it. The
# package imports a submodule on the first access to one of its names
# (PEP 562), so `import growingtrees` and each CLI command load only what
# they use.
_EXPORTS = {
    "enumeration": (
        "CountTable", "PolySeries", "ProbeResult", "catalan", "cumulative_anchor_series",
        "fixed_point_probe", "iterate_p", "mandelbrot", "t_height_table", "t_table",
    ),
    "profiles": (
        "Profile", "count_trees", "internal_profile", "is_valid", "kraft_sum",
        "truncate_profile",
    ),
    "sampler": ("BitSource", "entropy_bound", "rank_tree", "samples", "unrank_merge"),
    "sequences": (
        "CellSet", "a_hat_seq", "a_seq", "b_formula", "b_seq", "gamma", "lambda_upper",
        "ruler", "s_area_formula", "s_domain", "scaling_limit_deviation",
    ),
    "tree_core": (
        "GrowthChoice", "NodeKind", "Tree", "TreeStats", "freeze", "from_json",
        "grow_history", "grow_step", "new_seed", "profile", "stats", "to_dot", "to_json",
        "unfreeze", "validate_growing",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"
__all__ = sorted(_OWNER)


def __getattr__(name: str):
    """Import the submodule that defines `name` and keep the value here, so
    later lookups find it without calling this again."""
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_OWNER[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
