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

from .enumeration import (
    CountTable,
    PolySeries,
    ProbeResult,
    catalan,
    catalan_column_check,
    cumulative_anchor_series,
    fixed_point_probe,
    iterate_p,
    mandelbrot,
    t_height_table,
    t_table,
)
from .profiles import (
    Profile,
    count_trees,
    internal_profile,
    is_valid,
    kraft_sum,
    truncate_profile,
)
from .sampler import (
    BitSource,
    draw_below,
    entropy_bound,
    rank_tree,
    samples,
    unrank_merge,
)
from .sequences import (
    CellSet,
    a_gf_check,
    a_hat_seq,
    a_seq,
    a_seq_meta,
    b_formula,
    b_seq,
    gamma,
    lambda_upper,
    ruler,
    s_area_formula,
    s_domain,
    scaling_limit_deviation,
)
from .tree_core import (
    GrowthChoice,
    NodeKind,
    Tree,
    TreeStats,
    freeze,
    from_json,
    grow_history,
    grow_step,
    new_seed,
    profile,
    stats,
    to_dot,
    to_json,
    unfreeze,
    validate_growing,
)

__version__ = "0.1.0"

__all__ = [
    "BitSource",
    "CellSet",
    "CountTable",
    "GrowthChoice",
    "NodeKind",
    "PolySeries",
    "ProbeResult",
    "Profile",
    "Tree",
    "TreeStats",
    "a_gf_check",
    "a_hat_seq",
    "a_seq",
    "a_seq_meta",
    "b_formula",
    "b_seq",
    "catalan",
    "catalan_column_check",
    "count_trees",
    "cumulative_anchor_series",
    "draw_below",
    "entropy_bound",
    "fixed_point_probe",
    "freeze",
    "from_json",
    "gamma",
    "grow_history",
    "grow_step",
    "internal_profile",
    "is_valid",
    "iterate_p",
    "kraft_sum",
    "lambda_upper",
    "mandelbrot",
    "new_seed",
    "profile",
    "rank_tree",
    "ruler",
    "s_area_formula",
    "s_domain",
    "samples",
    "scaling_limit_deviation",
    "stats",
    "t_height_table",
    "t_table",
    "to_dot",
    "to_json",
    "truncate_profile",
    "unfreeze",
    "unrank_merge",
    "validate_growing",
]
