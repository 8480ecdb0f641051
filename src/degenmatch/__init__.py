"""Maximum r-degenerate matchings in chordal graphs and r-degenerate edge colorings."""

__version__ = "0.1.0"

from .graphs import (
    Graph,
    Matching,
    degeneracy,
    induced_subgraph,
)
from .chordal import (
    EliminationOrder,
    NiceTreeDecomposition,
    NotChordalError,
    build_nice_decomposition,
    is_chordal,
    mcs_order,
)
from .dp import solve
from .coloring import (
    ColoringInvariantError,
    EdgeColoring,
    greedy_color,
    palette_size,
    verify_coloring,
)
from .oracles import (
    LimitsExceededError,
    OracleLimits,
    brute_chromatic_index_r,
    brute_degenerate_states,
    brute_nu_r,
    brute_nu_variants,
)
from .formats import ParseError, load_graph, parse_graph6, serialize_graph6
from .generate import Rng, generate

__all__ = [
    "Graph", "Matching", "degeneracy", "induced_subgraph",
    "EliminationOrder", "NiceTreeDecomposition", "NotChordalError",
    "build_nice_decomposition", "is_chordal", "mcs_order",
    "solve",
    "ColoringInvariantError", "EdgeColoring", "greedy_color",
    "palette_size", "verify_coloring",
    "LimitsExceededError", "OracleLimits", "brute_chromatic_index_r",
    "brute_degenerate_states", "brute_nu_r", "brute_nu_variants",
    "ParseError", "load_graph", "parse_graph6", "serialize_graph6",
    "Rng", "generate",
]
