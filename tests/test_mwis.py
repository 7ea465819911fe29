"""MWIS solvers: exact oracle, bipartite min-cut route, OCT route, max flow."""

import hashlib
import random

import pytest

from oracles import bipartite_mwis_reference, brute_mwis

from widthlab.checks import _random_bipartite, default_params, instances_for
from widthlab.config import DEFAULT_BUDGETS
from widthlab.decomp import CostKind
from widthlab.formats import from_graph6
from widthlab.graphs import (
    Graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    enumerate_graphs,
    mask_of,
    path_graph,
    random_graph,
)
from widthlab.invariants import SubsetAlpha, is_bipartite
from widthlab.modulators import ModulatorSpec, modulator_number, vertex_cover_number
from widthlab.mwis import (
    FlowNetwork,
    MwisResult,
    WeightedGraph,
    _bipartite_value,
    _oct_layout,
    find_oct_with_bounded_alpha,
    mwis_bipartite,
    mwis_exact,
    mwis_via_oct,
)


def _assert_independent(g: Graph, vertices):
    picked = mask_of(vertices)
    for v in vertices:
        assert not g.adj[v] & picked


def test_flow_network_basics():
    net = FlowNetwork(3, 0, 2)
    net.add_arc(0, 1, 3)
    net.add_arc(1, 2, 3)
    assert net.max_flow() == 3

    net = FlowNetwork(4, 0, 3)
    net.add_arc(0, 1, 1)
    net.add_arc(1, 3, 1)
    net.add_arc(0, 2, 1)
    net.add_arc(2, 3, 1)
    assert net.max_flow() == 2


def test_flow_network_validation():
    net = FlowNetwork(3, 0, 2)
    with pytest.raises(ValueError):
        net.add_arc(1, 0, 1)  # into the source
    with pytest.raises(ValueError):
        net.add_arc(2, 1, 1)  # out of the sink
    with pytest.raises(ValueError):
        net.add_arc(0, 1, -2)
    with pytest.raises(ValueError):
        FlowNetwork(2, 0, 0)


def test_mwis_exact_known():
    wg = WeightedGraph(path_graph(3), (2, 1, 2))
    result = mwis_exact(wg)
    assert result == MwisResult(4, (0, 2))
    assert mwis_exact(WeightedGraph(complete_graph(4), (5, 1, 1, 1))).weight == 5
    assert mwis_exact(WeightedGraph(Graph(3, (0, 0, 0)), (1, 2, 3))).weight == 6


def test_mwis_exact_against_bruteforce(small_graphs):
    rng = random.Random(7)
    for g in small_graphs:
        weights = tuple(rng.randint(0, 20) for _ in range(g.n))
        wg = WeightedGraph(g, weights)
        result = mwis_exact(wg)
        assert result.weight == brute_mwis(g, weights)
        _assert_independent(g, result.vertices)
        assert sum(weights[v] for v in result.vertices) == result.weight
        assert all(weights[v] > 0 for v in result.vertices)


def test_mwis_bipartite_known():
    wg = WeightedGraph(complete_bipartite(3, 3), (1, 1, 1, 2, 2, 2))
    assert mwis_bipartite(wg) == MwisResult(6, (3, 4, 5))
    wg = WeightedGraph(cycle_graph(4), (1, 1, 1, 1))
    assert mwis_bipartite(wg).weight == 2
    wg = WeightedGraph(complete_graph(2), (7, 7))
    assert mwis_bipartite(wg) == MwisResult(7, (0,))
    with pytest.raises(ValueError):
        mwis_bipartite(WeightedGraph(cycle_graph(5), (1,) * 5))


def test_mwis_bipartite_against_exact_random():
    count = 0
    for seed in range(300):
        rng = random.Random(seed)
        n = rng.randint(2, 12)
        left = rng.randint(1, n - 1)
        edges = [
            (u, v)
            for u in range(left)
            for v in range(left, n)
            if rng.random() < 0.5
        ]
        g = Graph.from_edges(n, edges)
        weights = tuple(rng.randint(0, 50) for _ in range(n))
        wg = WeightedGraph(g, weights)
        got = mwis_bipartite(wg)
        assert got.weight == mwis_exact(wg).weight
        _assert_independent(g, got.vertices)
        count += 1
    assert count == 300


def test_bipartite_kernel_matches_flow_network_reference():
    # The mask kernel against a Dinic network per cut and a self-reduction
    # of one cut per vertex: on every rest the OCT route finishes for the
    # graphs with n <= 7, and on seeded random bipartite graphs of 2 to 40
    # vertices, whose small weight ranges make zero weights and ties common.
    rng = random.Random(25)
    cases = []
    for g in _graphs_upto_7():
        weights = tuple(rng.randint(0, 9) for _ in range(g.n))
        colour, parts = _oct_layout(g, g.n, DEFAULT_BUDGETS)
        cases.extend((g, weights, colour, rest) for _, rest in parts)
    for i in range(400):
        g = _random_bipartite(40, 2500 + i)
        colour = is_bipartite(g)[1]
        for top in (1, 3, 100, 10**6):
            weights = tuple(rng.randint(0, top) for _ in range(g.n))
            cases.append((g, weights, colour, g.full_mask))
    for g, weights, colour, mask in cases:
        expected = bipartite_mwis_reference(g, weights, colour, mask)
        got = _bipartite_value(g, weights, colour, mask, witness=True)
        assert got == expected, (g.adj, weights, mask)
        assert _bipartite_value(g, weights, colour, mask) == expected[0]
    assert len(cases) == 5181


def test_koenig_duality_unit_weights():
    # On bipartite unit-weight inputs: MWIS size + min vertex cover = n.
    for seed in range(60):
        rng = random.Random(1000 + seed)
        n = rng.randint(2, 10)
        left = rng.randint(1, n - 1)
        edges = [
            (u, v)
            for u in range(left)
            for v in range(left, n)
            if rng.random() < 0.5
        ]
        g = Graph.from_edges(n, edges)
        wg = WeightedGraph(g, (1,) * n)
        assert mwis_bipartite(wg).weight + vertex_cover_number(g)[0] == n


def test_find_oct_known():
    assert find_oct_with_bounded_alpha(cycle_graph(5), 1) == (0,)
    assert find_oct_with_bounded_alpha(complete_bipartite(3, 3), 0) == ()
    # K5 needs 3 deletions; they form a clique, so alpha(S) = 1 <= 1.
    s = find_oct_with_bounded_alpha(complete_graph(5), 1)
    assert s is not None and len(s) == 3
    alpha = SubsetAlpha(complete_graph(5))
    assert alpha(mask_of(s)) == 1
    assert find_oct_with_bounded_alpha(cycle_graph(5), -1) is None


def _graphs_upto_7():
    return [g for n in range(8) for g in enumerate_graphs(n)]


def test_find_oct_attains_minimum_alpha():
    # With an unconstrained bound, the search returns a transversal whose
    # independence number equals the alpha-variant of the OCT modulator
    # number (the minimum is attained on an inclusion-minimal transversal).
    # The two least-alpha OCT searches are coded independently: odd-cycle
    # branching over a SubsetAlpha oracle here, a lexicographic DFS over the
    # dense alpha table in modulator_number.  Past the n <= 7 enumeration
    # they meet on the seeded random graphs (n <= 14) of the default
    # mwis-equivalence family.
    params = default_params("mwis-equivalence")
    insts = [i for i in instances_for("mwis-equivalence", params) if i["mode"] == "oct"]
    randoms = [from_graph6(i["g6"]) for i in insts[-params["random_count"]:]]
    assert len(randoms) == 200
    for g in _graphs_upto_7() + randoms:
        s = find_oct_with_bounded_alpha(g, g.n)
        alpha = SubsetAlpha(g)
        expected = modulator_number(g, ModulatorSpec("chi", 2), CostKind.INDEPENDENCE)[0]
        assert alpha(mask_of(s)) == expected, g.adj


def test_find_oct_same_for_every_admissible_k():
    # mwis-equivalence calls the OCT route once, at k = n; that stands for
    # every k only while each k at or above the minimum alpha a gives the
    # same transversal and each k below a gives none.
    rng = random.Random(2026)
    graphs = _graphs_upto_7() + [random_graph(n, 0.5, 300 + n) for n in range(8, 15)]
    for g in graphs:
        s = find_oct_with_bounded_alpha(g, g.n)
        a = SubsetAlpha(g)(mask_of(s))
        for k in range(a):
            assert find_oct_with_bounded_alpha(g, k) is None
        for k in range(a, g.n):
            assert find_oct_with_bounded_alpha(g, k) == s
        wg = WeightedGraph(g, tuple(rng.randint(0, 9) for _ in range(g.n)))
        assert mwis_via_oct(wg, a) == mwis_via_oct(wg, g.n)


def test_mwis_network_cut_value():
    # Total weight 9 minus the K_{3,3} MWIS weight 6 leaves a cut of 3.
    g = complete_bipartite(3, 3)
    weights = (1, 1, 1, 2, 2, 2)
    net = FlowNetwork(8, 6, 7)
    for v in range(3):
        net.add_arc(6, v, weights[v])
    for v in range(3, 6):
        net.add_arc(v, 7, weights[v])
    for u, v in g.edges():
        net.add_arc(u, v, sum(weights) + 1)
    assert net.max_flow() == 3


def test_find_oct_respects_alpha_bound(small_graphs):
    for g in small_graphs[:40]:
        alpha = SubsetAlpha(g)
        s = find_oct_with_bounded_alpha(g, 1)
        if s is None:
            continue
        rest, _ = g.induced(g.full_mask & ~mask_of(s))
        assert is_bipartite(rest)[0]
        assert alpha(mask_of(s)) <= 1


def test_mwis_via_oct_known():
    wg = WeightedGraph(cycle_graph(5), (1,) * 5)
    assert mwis_via_oct(wg, 1).weight == 2
    wg = WeightedGraph(complete_graph(4), (5, 1, 1, 1))
    assert mwis_via_oct(wg, 1).weight == 5
    with pytest.raises(ValueError):
        mwis_via_oct(WeightedGraph(complete_graph(5), (1,) * 5), 0)


def test_mwis_via_oct_with_k0_matches_bipartite():
    wg = WeightedGraph(complete_bipartite(2, 3), (3, 1, 2, 2, 2))
    assert mwis_via_oct(wg, 0).weight == mwis_bipartite(wg).weight


def test_mwis_via_oct_equals_exact_all_small(small_graphs):
    rng = random.Random(11)
    for g in small_graphs:
        weights = tuple(rng.randint(0, 30) for _ in range(g.n))
        wg = WeightedGraph(g, weights)
        k = 0
        while find_oct_with_bounded_alpha(g, k) is None:
            k += 1
        result = mwis_via_oct(wg, k)
        assert result.weight == mwis_exact(wg).weight
        _assert_independent(g, result.vertices)


def test_weighted_graph_validation():
    with pytest.raises(ValueError):
        WeightedGraph(path_graph(2), (1,))
    with pytest.raises(ValueError):
        WeightedGraph(path_graph(2), (1, -1))


def test_results_deterministic():
    g = random_graph(10, 0.4, 99)
    wg = WeightedGraph(g, tuple(range(10)))
    a = mwis_exact(wg)
    b = mwis_exact(wg)
    assert a == b
    k = 0
    while find_oct_with_bounded_alpha(g, k) is None:
        k += 1
    assert mwis_via_oct(wg, k) == mwis_via_oct(wg, k)


# sha256 of _mwis_outputs(), recorded from the solvers that built an induced
# Graph for every branch and every independent subset of the transversal:
# transversals and MWIS witnesses must not change, ties included (the small
# weights make many).
MWIS_DIGEST = "f17c4877c616f5e6ca0e666ae8ea1ac249f768fdd133745b80b5726ef9848387"


def _mwis_outputs() -> str:
    rng = random.Random(2025)
    lines = []
    for n in range(8):
        for g in enumerate_graphs(n):
            wg = WeightedGraph(g, tuple(rng.randint(0, 9) for _ in range(n)))
            k = 0
            while (s := find_oct_with_bounded_alpha(g, k)) is None:
                k += 1
            out = [s, find_oct_with_bounded_alpha(g, n), mwis_via_oct(wg, k)]
            if is_bipartite(g)[0]:
                out.append(mwis_bipartite(wg))
            lines.append(repr(out))
    return "\n".join(lines)


def test_mwis_witnesses_pinned():
    assert hashlib.sha256(_mwis_outputs().encode()).hexdigest() == MWIS_DIGEST


def test_weightings_of_one_graph_share_one_oct_search(monkeypatch):
    import widthlab.mwis as mwis

    calls = []
    real = mwis.find_oct_with_bounded_alpha
    monkeypatch.setattr(
        mwis, "find_oct_with_bounded_alpha", lambda *args: calls.append(args) or real(*args)
    )
    mwis._oct_layout.cache_clear()
    g = random_graph(9, 0.5, 17)
    rng = random.Random(3)
    for _ in range(3):
        wg = WeightedGraph(g, tuple(rng.randint(0, 9) for _ in range(g.n)))
        assert mwis_via_oct(wg, g.n).weight == mwis_exact(wg).weight
    assert len(calls) == 1


def test_oct_layout_follows_the_graph():
    # Alternating two graphs on the same n gives the results of calls made
    # with an empty memo: no layout of one graph serves the other.
    import widthlab.mwis as mwis

    rng = random.Random(4)
    graphs = [random_graph(8, 0.6, 40), cycle_graph(8)]
    calls = [
        (WeightedGraph(g, tuple(rng.randint(0, 9) for _ in range(g.n))), k)
        for k in (8, 1)
        for _ in range(2)
        for g in graphs
    ]
    warm = [mwis_via_oct(wg, k) for wg, k in calls]
    fresh = []
    for wg, k in calls:
        mwis._oct_layout.cache_clear()
        fresh.append(mwis_via_oct(wg, k))
    assert warm == fresh
    assert [result.weight for result in warm] == [mwis_exact(wg).weight for wg, _ in calls]
