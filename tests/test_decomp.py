"""Decomposition validation, costs, and the constructive transforms: fvs ->
tree decomposition, chordal clique tree, and the test helpers treedepth ->
path and vertex cover -> treedepth."""

import hashlib

import pytest

from oracles import forest_depth, path_decomp_from_treedepth, td_decomp_from_vertex_cover

from widthlab.decomp import (
    CostKind,
    InvalidDecompositionError,
    RootedForest,
    TreeDecomposition,
    chordal_clique_tree,
    cost,
    tree_decomp_from_fvs,
    validate_tree_decomposition,
    validate_treedepth_decomposition,
)
from widthlab.graphs import Graph, complete_graph, copies, cycle_graph, mask_of, path_graph
from widthlab.invariants import SubsetAlpha
from widthlab.modulators import feedback_vertex_number, vertex_cover_number
from widthlab.widths import lambda_treedepth
from widthlab.constructions import gamma_family

CARD = CostKind.CARDINALITY
ALPHA = CostKind.INDEPENDENCE


def test_validate_tree_decomposition_ok():
    g = complete_graph(3)
    td = TreeDecomposition((0b111,), ())
    assert validate_tree_decomposition(g, td) == []
    g = path_graph(3)
    td = TreeDecomposition((0b011, 0b110), ((0, 1),))
    assert validate_tree_decomposition(g, td) == []


def test_validate_reports_each_violation_kind():
    g = path_graph(3)
    bad_edge = TreeDecomposition((0b001, 0b110), ((0, 1),))
    kinds = {v.kind for v in validate_tree_decomposition(g, bad_edge)}
    assert "edge-uncovered" in kinds

    missing_vertex = TreeDecomposition((0b011,), ())
    kinds = {v.kind for v in validate_tree_decomposition(g, missing_vertex)}
    assert "vertex-uncovered" in kinds

    disconnected_occurrence = TreeDecomposition(
        (0b011, 0b010, 0b111), ((0, 1), (1, 2))
    )
    g2 = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    td = TreeDecomposition((0b011, 0b110, 0b101), ((0, 1), (1, 2)))
    kinds = {v.kind for v in validate_tree_decomposition(g2, td)}
    assert "occurrence-disconnected" in kinds

    not_tree = TreeDecomposition((0b111, 0b111), ())
    kinds = {v.kind for v in validate_tree_decomposition(g2, not_tree)}
    assert "tree-not-tree" in kinds


def test_validate_treedepth_decomposition():
    g = complete_graph(3)
    chain = RootedForest((None, 0, 1))
    assert validate_treedepth_decomposition(g, chain) == []
    g = path_graph(3)
    fork = RootedForest((1, None, 1))
    assert validate_treedepth_decomposition(g, fork) == []
    g = copies(2, complete_graph(2))
    bad = RootedForest((None, None, None, None))
    kinds = {v.kind for v in validate_treedepth_decomposition(g, bad)}
    assert kinds == {"edge-endpoints-incomparable"}
    cyclic = RootedForest((1, 0, None))
    kinds = {v.kind for v in validate_treedepth_decomposition(g.induced(0b111)[0], cyclic)}
    assert "forest-cycle" in kinds


def test_forest_closure_depth_and_hyperedges():
    chain = RootedForest((None, 0, 1))
    assert forest_depth(chain) == 3
    assert chain.root_to_leaf_sets() == (0b111,)

    two_roots = RootedForest((None, None))
    assert forest_depth(two_roots) == 1

    fork = RootedForest((None, 0, 0))
    assert forest_depth(fork) == 2
    assert fork.root_to_leaf_sets() == (0b011, 0b101)


def test_cost():
    g = complete_graph(3)
    td = TreeDecomposition((0b111,), ())
    assert cost(g, td, CARD) == 3
    assert cost(g, td, ALPHA) == 1
    c4 = cycle_graph(4)
    single = TreeDecomposition((0b1111,), ())
    assert cost(c4, single, ALPHA) == 2
    with pytest.raises(InvalidDecompositionError):
        cost(c4, TreeDecomposition((0b0111,), ()), CARD)
    assert cost(Graph(0, ()), TreeDecomposition((), ()), CARD) == 0


def test_cardinality_cost_dominates_alpha(small_graphs):
    for g in small_graphs[:40]:
        td = TreeDecomposition((g.full_mask,), ())
        assert cost(g, td, ALPHA) <= cost(g, td, CARD)


def test_path_decomp_from_treedepth():
    g = complete_graph(3)
    chain = RootedForest((None, 0, 1))
    pd = path_decomp_from_treedepth(g, chain)
    assert pd.bags == (0b111,)

    g = path_graph(3)
    fork = RootedForest((1, None, 1))
    pd = path_decomp_from_treedepth(g, fork)
    assert pd.bags == (0b011, 0b110)

    with pytest.raises(InvalidDecompositionError):
        path_decomp_from_treedepth(copies(2, complete_graph(2)), RootedForest((None,) * 4))


def test_path_from_treedepth_never_costs_more(small_graphs):
    for g in small_graphs:
        result = lambda_treedepth(g, ALPHA)
        forest = result.witness
        pd = path_decomp_from_treedepth(g, forest)
        for kind in (CARD, ALPHA):
            assert cost(g, pd, kind) <= cost(g, forest, kind)


def test_td_decomp_from_vertex_cover():
    g = path_graph(3)
    f = td_decomp_from_vertex_cover(g, mask_of([1]))
    assert validate_treedepth_decomposition(g, f) == []
    assert forest_depth(f) == 2

    g = complete_graph(3)
    f = td_decomp_from_vertex_cover(g, mask_of([0, 1]))
    assert forest_depth(f) == 3

    g = cycle_graph(5)
    f = td_decomp_from_vertex_cover(g, mask_of([0, 2, 4]))
    assert validate_treedepth_decomposition(g, f) == []
    assert forest_depth(f) == 4

    with pytest.raises(ValueError):
        td_decomp_from_vertex_cover(path_graph(3), mask_of([0]))


def test_td_decomp_from_cover_witnesses():
    # Solver-produced covers yield valid forests of depth |C| + 1, and the
    # DFS path decomposition never costs more than the forest.
    from widthlab.graphs import enumerate_graphs

    for n in range(1, 8):
        for g in enumerate_graphs(n):
            _, cover = vertex_cover_number(g)
            forest = td_decomp_from_vertex_cover(g, mask_of(cover))
            assert validate_treedepth_decomposition(g, forest) == []
            if len(cover) < g.n:
                assert forest_depth(forest) == len(cover) + 1
            pd = path_decomp_from_treedepth(g, forest)
            for kind in (CARD, ALPHA):
                assert cost(g, pd, kind, check=False) <= cost(g, forest, kind, check=False)


def test_s2_cover_forest_example():
    s2 = gamma_family(2)
    _, cover = vertex_cover_number(s2)
    forest = td_decomp_from_vertex_cover(s2, mask_of(cover))
    assert validate_treedepth_decomposition(s2, forest) == []
    pd = path_decomp_from_treedepth(s2, forest)
    assert cost(s2, pd, CARD) <= forest_depth(forest)


def test_tree_decomp_from_fvs():
    c5 = cycle_graph(5)
    td = tree_decomp_from_fvs(c5, mask_of([0]))
    assert validate_tree_decomposition(c5, td) == []
    assert cost(c5, td, ALPHA) <= 2

    forest = copies(2, path_graph(3))
    td = tree_decomp_from_fvs(forest, 0)
    assert validate_tree_decomposition(forest, td) == []
    assert cost(forest, td, ALPHA) == 1

    k4 = complete_graph(4)
    td = tree_decomp_from_fvs(k4, mask_of([0, 1]))
    assert validate_tree_decomposition(k4, td) == []

    with pytest.raises(ValueError):
        tree_decomp_from_fvs(c5, 0)


def test_tree_decomp_from_fvs_bound_all_small():
    from widthlab.graphs import enumerate_graphs

    for n in range(1, 8):
        for g in enumerate_graphs(n):
            _, fvs = feedback_vertex_number(g)
            s = mask_of(fvs)
            td = tree_decomp_from_fvs(g, s)
            assert validate_tree_decomposition(g, td) == []
            assert cost(g, td, ALPHA, check=False) <= SubsetAlpha(g)(s) + 1


# sha256 over the repr of tree_decomp_from_fvs(g, S + v), S the minimum fvs
# witness, for every v of every graph with n <= 6: larger than minimum sets,
# which WITNESS_DIGEST does not cover.
FVS_PLUS_ONE_DIGEST = "92f2ea99e0d6ec15242fd55bdb9ad2a52e96708ca81dd83190cfba22c6d880f7"


def test_tree_decomp_from_fvs_plus_one_vertex_pinned():
    from widthlab.graphs import enumerate_graphs

    lines = []
    for n in range(7):
        for g in enumerate_graphs(n):
            s = mask_of(feedback_vertex_number(g)[1])
            lines.extend(repr(tree_decomp_from_fvs(g, s | 1 << v)) for v in range(g.n))
    assert len(lines) == 1167
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == FVS_PLUS_ONE_DIGEST


def test_chordal_clique_tree():
    s2 = gamma_family(2)
    td = chordal_clique_tree(s2)
    assert validate_tree_decomposition(s2, td) == []
    assert cost(s2, td, ALPHA) == 1

    k4 = complete_graph(4)
    assert chordal_clique_tree(k4).bags == (0b1111,)

    p4 = path_graph(4)
    td = chordal_clique_tree(p4)
    assert sorted(td.bags) == [0b0011, 0b0110, 0b1100]
    assert validate_tree_decomposition(p4, td) == []

    with pytest.raises(ValueError):
        chordal_clique_tree(cycle_graph(4))


def test_chordal_clique_tree_all_small(small_graphs):
    from widthlab.invariants import is_chordal

    for g in small_graphs:
        ok, _ = is_chordal(g)
        if not ok:
            continue
        td = chordal_clique_tree(g)
        assert validate_tree_decomposition(g, td) == []
        if g.n:
            assert cost(g, td, ALPHA) == 1

