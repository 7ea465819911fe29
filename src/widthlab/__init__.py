"""widthlab: exact graph width parameters, independence variants, modulators,
and a per-graph verification harness."""

from .config import Budgets, DEFAULT_BUDGETS
from .decomp import (
    CostKind,
    PathDecomposition,
    RootedForest,
    TreeDecomposition,
    chordal_clique_tree,
    cost,
    tree_decomp_from_fvs,
    validate_path_decomposition,
    validate_tree_decomposition,
    validate_treedepth_decomposition,
)
from .graphs import (
    BudgetExceededError,
    Graph,
    complete_bipartite,
    complete_graph,
    copies,
    cycle_graph,
    enumerate_graphs,
    named_graph,
    path_graph,
    random_graph,
    star,
)
from .invariants import (
    chromatic_number,
    clique_number,
    contains_induced,
    independence_number,
    is_bipartite,
    is_chordal,
    local_independence_number,
    max_degree,
    max_matching_size,
)
from .modulators import (
    ModulatorSpec,
    binding_f,
    feedback_vertex_number,
    modulator_number,
    oct_number,
    ramsey_property_check,
    ramsey_upper,
    vertex_cover_number,
)
from .mwis import (
    FlowNetwork,
    MwisResult,
    WeightedGraph,
    find_oct_with_bounded_alpha,
    mwis_bipartite,
    mwis_exact,
    mwis_via_oct,
)
from .widths import (
    WidthResult,
    alpha_chromatic,
    degeneracy,
    lambda_pathwidth,
    lambda_pw_at_most,
    lambda_td_at_most,
    lambda_treedepth,
    lambda_treewidth,
)
from .constructions import SubstitutionKind, gamma_family, subdivided_claw, substitute

__all__ = [name for name in dir() if not name.startswith("_")]
