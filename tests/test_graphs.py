"""Graph type, named families, enumeration, canonical forms, and the budget
guard of the exact solvers."""

import dataclasses
import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    are_isomorphic,
    brute_automorphism_count,
    brute_canonical_code,
    burnside_graph_count,
    delete,
    generated_group_order,
)

from widthlab.config import DEFAULT_BUDGETS
from widthlab.decomp import CostKind
from widthlab.graphs import (
    BudgetExceededError,
    Graph,
    _canonical_classes,
    _canonical_codes,
    _canonical_search,
    bits,
    canonical_form,
    complete_bipartite,
    complete_graph,
    copies,
    cycle_graph,
    disjoint_union,
    enumerate_graphs,
    graph_from_triangle_code,
    named_graph,
    path_graph,
    random_graph,
    random_permutation,
    star,
)
from widthlab.modulators import (
    ModulatorSpec,
    feedback_vertex_number,
    minimum_modulators,
    modulator_number,
    oct_number,
    vertex_cover_number,
)
from widthlab.mwis import WeightedGraph, find_oct_with_bounded_alpha, mwis_exact
from widthlab.widths import (
    alpha_chromatic,
    lambda_pathwidth,
    lambda_pw_at_most,
    lambda_td_at_most,
    lambda_treedepth,
    lambda_treewidth,
)

CARD = CostKind.CARDINALITY
ALPHA = CostKind.INDEPENDENCE


def test_graph_validation_rejects_loops_and_asymmetry():
    with pytest.raises(ValueError):
        Graph(2, (1 << 0, 0))  # self-loop at 0
    with pytest.raises(ValueError):
        Graph(2, (1 << 1, 0))  # 0->1 without 1->0
    with pytest.raises(ValueError):
        Graph(1, (1 << 3,))  # out of range
    with pytest.raises(ValueError, match="neighbour of 1 out of range"):
        Graph(2, (0, -1))  # a negative mask has bits at every position
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 0)])


def test_named_families():
    assert path_graph(3).edges() == [(0, 1), (1, 2)]
    assert cycle_graph(4).num_edges() == 4
    assert complete_graph(5).num_edges() == 10
    assert complete_bipartite(2, 3).num_edges() == 6
    assert star(5).degree(0) == 5
    assert copies(2, complete_graph(2)).edges() == [(0, 1), (2, 3)]
    assert named_graph("3K2").num_edges() == 3
    assert named_graph("K2,3").n == 5
    assert named_graph("P7").n == 7
    assert named_graph("S2").n == 7
    with pytest.raises(ValueError):
        named_graph("Q5")


def test_random_graph_deterministic():
    a = random_graph(5, 0.5, seed=1)
    b = random_graph(5, 0.5, seed=1)
    assert a == b
    assert random_graph(8, 0.0, 3).num_edges() == 0
    assert random_graph(8, 1.0, 3).num_edges() == 28


def test_delete_returns_old_to_new_map():
    g = path_graph(4)
    h, remap = delete(g, [1])
    assert h.n == 3
    assert remap == {0: 0, 2: 1, 3: 2}
    assert h.edges() == [(1, 2)]  # old edge 2-3


def test_induced_subgraph():
    g = cycle_graph(5)
    sub, old = g.induced(0b01011)  # vertices 0,1,3
    assert old == (0, 1, 3)
    assert sub.edges() == [(0, 1)]


def _bits_reference(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def test_bits_matches_generator_reference():
    # Masks below 1 << 10 come from a table; larger ones from a generator.
    rng = random.Random(11)
    masks = list(range(1 << 11)) + [rng.getrandbits(30) for _ in range(1000)]
    for mask in masks:
        assert list(bits(mask)) == list(_bits_reference(mask)), mask
    for mask in (1, 0b1010, 1023, 1024, 1025, 0b110 << 9, 1 << 29):
        it = bits(mask)
        assert next(it) == next(_bits_reference(mask)), mask
        assert list(it) == list(_bits_reference(mask))[1:], mask
    assert next(bits(0), None) is None


def test_components():
    g = copies(3, complete_graph(2))
    assert g.components() == [0b11, 0b1100, 0b110000]


@pytest.mark.parametrize("n,count", [(0, 1), (1, 1), (2, 2), (3, 4), (4, 11), (5, 34), (6, 156), (7, 1044), (8, 12346)])
def test_enumeration_counts_match_burnside(n, count):
    assert len(list(enumerate_graphs(n))) == count
    if n <= 6:
        assert burnside_graph_count(n) == count


# sha256 of the comma-joined decimal codes, recorded from the enumeration
# that canonicalised every one-vertex extension and deduplicated; the
# representatives, and so every enumerated Graph.adj, must not change.
CODE_DIGESTS = {
    0: "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9",
    1: "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9",
    2: "83b97b859aa5f81b2f0f86ba2a675efaf515ad2d5e2b8652cf2de7e1c2267350",
    3: "e07a92fb5aaa979553ff4952bd4597b190f6f37b327b065caeb0272ef00c4a82",
    4: "ee8879922ff2981c1ef94a44feef8f72d7beb0c9cad9d539f0d678d3877a7d26",
    5: "0590bd47e8dd07dcaf48fca66c863cb1cb934329d93ef0563b96122174383eec",
    6: "2d01f5d8a4feb13139b83e7c225a2c04568935848b620cae2d28194fa2b246e8",
    7: "409cc39ac8b2a97b4cb375d79e3658bf2f447a0ea1f3fd5bc580ddb505f502ac",
    8: "c343647ca62cc9e3626209fdb8a4eb5789ec794f31882e64e77498ea4bbb5dca",
}


@pytest.mark.parametrize("n", sorted(CODE_DIGESTS))
def test_canonical_codes_pinned(n):
    text = ",".join(map(str, _canonical_codes(n)))
    assert hashlib.sha256(text.encode()).hexdigest() == CODE_DIGESTS[n]


def test_codes_match_networkx_atlas():
    nx = pytest.importorskip("networkx")
    by_n = {}
    for h in nx.graph_atlas_g():  # one graph per class, n <= 7
        g = Graph.from_edges(h.number_of_nodes(), h.edges())
        by_n.setdefault(g.n, []).append(canonical_form(g))
    assert sorted(by_n) == list(range(8))
    for n, codes in by_n.items():
        assert sorted(codes) == list(_canonical_codes(n))


def _symmetric_graphs():
    for n in range(8):
        yield Graph(n, (0,) * n)
    for n in range(1, 8):
        yield complete_graph(n)
    for p in range(1, 4):
        for q in range(p, 8 - p):
            yield complete_bipartite(p, q)
    for r in range(1, 4):
        yield copies(r, complete_graph(2))
    yield copies(2, cycle_graph(3))
    yield disjoint_union([cycle_graph(3), complete_graph(2)])
    for s in range(3, 8):
        yield cycle_graph(s)
    for q in range(1, 7):
        yield star(q)


@pytest.mark.parametrize(
    "g",
    list(_symmetric_graphs())
    + [random_graph(n, p, seed) for n in (5, 6, 7) for p in (0.3, 0.5, 0.7) for seed in (1, 2)],
)
def test_canonical_form_matches_brute_force(g):
    assert canonical_form(g) == brute_canonical_code(g)
    code, order, gens = _canonical_search(g.adj)
    assert sorted(order) == list(range(g.n))
    for perm in gens:
        assert g.relabel(perm) == g
    assert generated_group_order(g.n, gens) == brute_automorphism_count(g)


def test_class_generators_generate_the_automorphism_group():
    # The orbit test of the augmentation and _subset_orbit_reps need the
    # whole group, from the search and from the generators each class stores.
    for n in range(7):
        for code, stored in _canonical_classes(n).items():
            g = graph_from_triangle_code(n, code)
            order = brute_automorphism_count(g)
            assert generated_group_order(n, _canonical_search(g.adj)[2]) == order, (n, code)
            assert generated_group_order(n, stored) == order, (n, code)


def test_enumeration_budget():
    with pytest.raises(BudgetExceededError):
        list(enumerate_graphs(9))


def test_enumeration_pairwise_non_isomorphic():
    graphs = list(enumerate_graphs(5))
    for i in range(len(graphs)):
        for j in range(i + 1, len(graphs)):
            assert not are_isomorphic(graphs[i], graphs[j])


def test_enumeration_deterministic_order():
    first = [g.adj for g in enumerate_graphs(5)]
    second = [g.adj for g in enumerate_graphs(5)]
    assert first == second


@given(st.integers(0, 6), st.integers(0, 10_000), st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_canonical_form_is_isomorphism_invariant(n, gseed, pseed):
    g = random_graph(n, 0.5, gseed)
    perm = random_permutation(n, pseed)
    assert canonical_form(g) == canonical_form(g.relabel(perm))


def test_canonical_form_is_isomorphism_invariant_at_n8():
    rng = random.Random(8)
    for code in _canonical_codes(8)[::50]:
        g = graph_from_triangle_code(8, code)
        for _ in range(2):
            assert canonical_form(g.relabel(rng.sample(range(8), 8))) == code


def test_canonical_form_separates_non_isomorphic():
    assert canonical_form(path_graph(4)) != canonical_form(star(3))


# Each guarded entry point: its name in the error, the Budgets field that
# limits it, and a call on (g, budgets).
TW1 = ModulatorSpec("tw", 1)
GUARDED = [
    ("lambda_treewidth", "width_exact", lambda g, b: lambda_treewidth(g, CARD, b)),
    ("lambda_treewidth", "width_exact", lambda g, b: lambda_treewidth(g, ALPHA, b)),
    ("lambda_pathwidth", "width_exact", lambda g, b: lambda_pathwidth(g, CARD, b)),
    ("lambda_pw_at_most", "pw_decision", lambda g, b: lambda_pw_at_most(g, CARD, 1, b)),
    ("lambda_treedepth", "width_exact", lambda g, b: lambda_treedepth(g, CARD, b)),
    ("lambda_td_at_most", "td_decision", lambda g, b: lambda_td_at_most(g, CARD, 1, b)),
    ("alpha_chromatic", "alpha_chromatic", alpha_chromatic),
    ("modulator_number", "width_exact", lambda g, b: modulator_number(g, TW1, ALPHA, b)),
    ("minimum_modulators", "width_exact", lambda g, b: minimum_modulators(g, TW1, b)),
    ("vertex_cover_number", "cover_solvers", vertex_cover_number),
    ("feedback_vertex_number", "cover_solvers", feedback_vertex_number),
    ("oct_number", "cover_solvers", oct_number),
    ("mwis_exact", "mwis_exact", lambda g, b: mwis_exact(WeightedGraph(g, (1,) * g.n), b)),
    ("find_oct_with_bounded_alpha", "oct_alpha", lambda g, b: find_oct_with_bounded_alpha(g, 1, b)),
]


# pytest numbers the two lambda_treewidth ids: 0 is card, 1 is alpha.
@pytest.mark.parametrize("op, field, call", GUARDED, ids=[f"{op}-{f}" for op, f, _ in GUARDED])
def test_budget_guard_message(op, field, call):
    budgets = dataclasses.replace(DEFAULT_BUDGETS, **{field: 2})
    call(path_graph(2), budgets)  # at the limit: runs
    with pytest.raises(BudgetExceededError) as info:
        call(path_graph(3), budgets)
    assert str(info.value) == f"{op}: n=3 exceeds budget 2"
