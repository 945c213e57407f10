"""dpar: deterministic parallel graph algorithms.

Derandomized building blocks (polynomial color reduction, defective
coloring, conditional-expectation rounding, bucketed potential sampling)
and the algorithms assembled from them (hitting sets, maximal matching,
maximal independent set), with work accounting and verification oracles.
"""

from .coloring import Coloring, color_delta_squared, defective_coloring
from .generate import (
    complete_graph,
    gnm_graph,
    grid_graph,
    powerlaw_graph,
    star_graph,
)
from .graph import Graph, compact_subgraph, read_csr, read_edgelist, sort_edges_to_csr, write_csr
from .hitting import (
    BipartiteInstance,
    HittingResult,
    ParamSet,
    hitting_set,
    read_hset,
    write_hset,
)
from .losses import LossSchedule, iterative_loss_bound
from .matching import MatchingResult, maximal_matching
from .mis import (
    EdgeBucketing,
    MisAuxInstance,
    MisResult,
    core_mis_hitting,
    edge_buckets,
    independentish_set,
    luby_mis_baseline,
    maximal_independent_set,
)
from .ntheory import NumberTheoryTables, precompute_tables, prime_in_range
from .rounding import CliqueGroup, CutResult, RoundingInstance, local_round, max_cut_half
from .workcount import WorkCounter

__all__ = [
    "BipartiteInstance",
    "CliqueGroup",
    "Coloring",
    "CutResult",
    "EdgeBucketing",
    "Graph",
    "HittingResult",
    "LossSchedule",
    "MatchingResult",
    "MisAuxInstance",
    "MisResult",
    "NumberTheoryTables",
    "ParamSet",
    "RoundingInstance",
    "WorkCounter",
    "color_delta_squared",
    "compact_subgraph",
    "complete_graph",
    "core_mis_hitting",
    "defective_coloring",
    "edge_buckets",
    "gnm_graph",
    "grid_graph",
    "hitting_set",
    "independentish_set",
    "iterative_loss_bound",
    "local_round",
    "luby_mis_baseline",
    "max_cut_half",
    "maximal_independent_set",
    "maximal_matching",
    "powerlaw_graph",
    "precompute_tables",
    "prime_in_range",
    "read_csr",
    "read_edgelist",
    "read_hset",
    "sort_edges_to_csr",
    "star_graph",
    "write_csr",
    "write_hset",
]
