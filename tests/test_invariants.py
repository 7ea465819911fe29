"""Base parameters against brute-force oracles, plus structural predicates."""

from itertools import combinations

from hypothesis import given, settings, strategies as st

from oracles import (
    brute_alpha,
    brute_chi,
    brute_matching,
    brute_omega,
    delete,
    has_edge,
    mask_is_bipartite,
    max_independent_set_reference,
)

from widthlab.graphs import (
    Graph,
    complete_bipartite,
    complete_graph,
    copies,
    cycle_graph,
    enumerate_graphs,
    path_graph,
    random_graph,
    star,
)
from widthlab.invariants import (
    SubsetAlpha,
    chromatic_number,
    clique_number,
    contains_induced,
    independence_number,
    is_bipartite,
    is_chordal,
    local_independence_number,
    max_degree,
    max_independent_set,
    max_matching_size,
    odd_cycle,
)
from widthlab.constructions import gamma_family


def test_base_parameters_against_oracles(small_graphs):
    for g in small_graphs:
        assert independence_number(g) == brute_alpha(g)
        assert clique_number(g) == brute_omega(g)
        assert chromatic_number(g) == brute_chi(g)
        assert max_matching_size(g) == brute_matching(g)


def test_known_values(zoo):
    assert independence_number(zoo["C5"]) == 2
    assert independence_number(zoo["K33"]) == 3
    assert independence_number(copies(4, complete_graph(2))) == 4
    assert clique_number(zoo["K4"]) == 4
    assert clique_number(complete_bipartite(4, 4)) == 2
    assert chromatic_number(zoo["C5"]) == 3
    assert chromatic_number(zoo["K33"]) == 2
    assert chromatic_number(zoo["K5"]) == 5
    assert max_degree(star(5)) == 5
    assert max_degree(zoo["C7"]) == 2
    assert max_degree(zoo["K1"]) == 0
    assert max_matching_size(copies(3, complete_graph(2))) == 3
    assert max_matching_size(zoo["P4"]) == 2
    assert max_matching_size(zoo["K1"]) == 0


def test_null_graph_conventions(zoo):
    g = zoo["null"]
    assert independence_number(g) == 0
    assert clique_number(g) == 0
    assert chromatic_number(g) == 0
    assert max_degree(g) == 0
    assert is_bipartite(g) == (True, ())
    assert is_chordal(g)[0]


def test_max_independent_set_is_lexmin_witness():
    # The first maximum independent set in itertools.combinations order,
    # which is lexicographic, on every graph with n <= 7.
    for g in (g for n in range(8) for g in enumerate_graphs(n)):
        first = next(
            c
            for r in range(g.n, -1, -1)
            for c in combinations(range(g.n), r)
            if not any(has_edge(g, u, v) for u, v in combinations(c, 2))
        )
        assert max_independent_set(g) == first, g.adj
    assert max_independent_set(cycle_graph(5)) == (0, 2)


def test_max_independent_set_matches_the_self_reduction():
    # The inline probe loop against the self-reduction of oracles.py over
    # SubsetAlpha: every graph with n <= 7, one seeded G(n, p) for each
    # n = 8..24, S_1 to S_4 (up to 79 vertices) and sparse G(n, p) on 40 to
    # 80 vertices.
    graphs = [g for n in range(8) for g in enumerate_graphs(n)]
    graphs += [random_graph(n, (0.15, 0.3, 0.5)[n % 3], n) for n in range(8, 25)]
    graphs += [gamma_family(i) for i in range(1, 5)]
    graphs += [random_graph(n, 2 / n, n) for n in range(40, 81, 10)]
    for g in graphs:
        assert max_independent_set(g) == max_independent_set_reference(g), g.adj


def test_local_independence():
    assert local_independence_number(star(3)) == 3
    assert local_independence_number(complete_graph(4)) == 1
    assert local_independence_number(cycle_graph(5)) == 2
    assert local_independence_number(Graph(0, ())) == 0


def test_local_independence_matches_bruteforce(small_graphs):
    for g in small_graphs:
        expected = max(brute_alpha(g, g.adj[v]) for v in range(g.n))
        assert local_independence_number(g) == expected


def test_is_bipartite():
    ok, colouring = is_bipartite(cycle_graph(4))
    assert ok
    assert all(colouring[u] != colouring[v] for u, v in cycle_graph(4).edges())
    assert is_bipartite(cycle_graph(5)) == (False, None)


def test_is_chordal():
    assert is_chordal(gamma_family(3))[0]
    assert not is_chordal(cycle_graph(4))[0]
    assert is_chordal(path_graph(6))[0]
    ok, peo = is_chordal(complete_graph(4))
    assert ok and len(peo) == 4


def test_chordal_agrees_with_long_induced_cycles():
    for n in range(1, 8):
        for g in enumerate_graphs(n):
            has_hole = any(
                contains_induced(g, cycle_graph(k)) for k in range(4, g.n + 1)
            )
            assert is_chordal(g)[0] == (not has_hole)


def test_contains_induced():
    assert contains_induced(cycle_graph(5), path_graph(4))
    assert not contains_induced(gamma_family(3), path_graph(6))
    assert not contains_induced(complete_graph(3), complete_graph(4))
    assert contains_induced(star(3), complete_bipartite(1, 2))
    assert not contains_induced(complete_graph(4), path_graph(3))
    # the null pattern is an induced subgraph of anything
    assert contains_induced(Graph(0, ()), Graph(0, ()))


def test_subset_alpha_consistency(small_graphs):
    for g in small_graphs[:30]:
        alpha = SubsetAlpha(g)
        for mask in range(1 << g.n):
            assert alpha(mask) == brute_alpha(g, mask)


@given(st.integers(1, 6), st.integers(0, 5000), st.integers(0, 5000))
@settings(max_examples=50, deadline=None)
def test_parameters_isomorphism_invariant(n, gseed, pseed):
    from widthlab.graphs import random_permutation

    g = random_graph(n, 0.5, gseed)
    h = g.relabel(random_permutation(n, pseed))
    assert independence_number(g) == independence_number(h)
    assert clique_number(g) == clique_number(h)
    assert chromatic_number(g) == chromatic_number(h)
    assert max_matching_size(g) == max_matching_size(h)


def test_monotone_under_vertex_deletion(small_graphs):
    for g in small_graphs:
        for v in range(g.n):
            h, _ = delete(g, [v])
            assert independence_number(h) <= independence_number(g)
            assert clique_number(h) <= clique_number(g)
            assert chromatic_number(h) <= chromatic_number(g)


def test_alpha_at_most_cardinality(small_graphs):
    for g in small_graphs[:40]:
        alpha = SubsetAlpha(g)
        for mask in range(1 << g.n):
            assert alpha(mask) <= mask.bit_count()


def test_alpha_scales_to_gamma_family():
    g = gamma_family(4)  # 79 vertices
    assert g.n == 79
    # alpha(s(G)) = 3 alpha(G) + 1 along the family: 1, 4, 13, 40.
    assert independence_number(g) == 40
    assert clique_number(g) == 4


def _all_masks():
    for n in range(7):
        for g in enumerate_graphs(n):
            for mask in range(1 << n):
                yield g, mask


def test_clique_number_within_matches_induced():
    for g, mask in _all_masks():
        assert clique_number(g, within=mask) == clique_number(g.induced(mask)[0])


def test_odd_cycle_within_matches_induced():
    for g, mask in _all_masks():
        sub, old = g.induced(mask)
        cycle = odd_cycle(sub)
        expected = None if cycle is None else tuple(old[x] for x in cycle)
        assert odd_cycle(g, within=mask) == expected


def test_two_colouring_within_matches_oracle():
    for g, mask in _all_masks():
        ok, colour = is_bipartite(g, within=mask)
        cycle = odd_cycle(g, within=mask)
        assert ok == mask_is_bipartite(g, mask) == (cycle is None)
        if ok:
            sub, old = g.induced(mask)
            assert is_bipartite(sub)[1] == tuple(colour[v] for v in old)
            assert all(colour[v] == -1 for v in range(g.n) if not mask >> v & 1)
            assert all(colour[old[u]] != colour[old[v]] for u, v in sub.edges())
            # The smallest vertex of each component is coloured 0, which
            # fixes the colouring that is_bipartite has always returned.
            assert all(colour[(comp & -comp).bit_length() - 1] == 0
                       for comp in g.components(mask))
        else:
            assert len(cycle) % 2 == 1 and len(set(cycle)) == len(cycle)
            assert all(mask >> v & 1 for v in cycle)
            assert all(has_edge(g, cycle[i - 1], cycle[i]) for i in range(len(cycle)))
