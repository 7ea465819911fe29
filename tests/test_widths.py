"""Width solvers against independently formulated oracles.

The treewidth solver minimises over elimination orderings (chordal
completions); the guard oracle branches on root bags and separated blocks
instead, and tiny instances are additionally checked against exhaustive
enumeration of decompositions.
"""

import gc
import hashlib
import random
import subprocess
import sys

import pytest

from oracles import (
    alpha_chromatic_by_functions,
    alpha_treedepth_reference,
    boundary_bag,
    degeneracy_maxmin_induced,
    degeneracy_maxmin_subgraphs,
    elimination_bag,
    pw_at_most_reference,
    pw_by_all_decompositions,
    pw_by_orderings,
    subset_dp_reference,
    subset_dp_table,
    td_at_most_reference,
    td_by_all_forests,
    tw_by_all_decompositions,
    tw_by_separator_branching,
)

from widthlab.checks import DEFAULT_SEED
from widthlab.config import DEFAULT_BUDGETS, Budgets
from widthlab import widths
from widthlab.decomp import CostKind, RootedForest, cost, validate
from widthlab.formats import from_graph6, to_graph6
from widthlab.graphs import (
    BudgetExceededError,
    Graph,
    bits,
    canonical_form,
    complete_bipartite,
    complete_graph,
    component_table,
    components,
    copies,
    cycle_graph,
    enumerate_graphs,
    path_graph,
    random_graph,
    reach_table,
    star,
)
from widthlab.constructions import SubstitutionKind, gamma_family, substitute
from widthlab.invariants import (
    SubsetAlpha,
    alpha_table,
    independent_subsets,
    is_chordal,
)
from widthlab.widths import (
    _AlphaTreedepth,
    _TdFeasible,
    _grow_boundary,
    _one_bits,
    _subset_dp,
    _treedepth_table,
    alpha_chromatic,
    degeneracy,
    lambda_pathwidth,
    lambda_pw_at_most,
    lambda_td_at_most,
    lambda_treedepth,
    lambda_treewidth,
)
from widthlab.modulators import (
    ModulatorSpec,
    feedback_vertex_number,
    modulator_number,
    oct_number,
    parameter,
    vertex_cover_number,
)

CARD = CostKind.CARDINALITY
ALPHA = CostKind.INDEPENDENCE
BOTH = (CARD, ALPHA)


# ---------------------------------------------------------------------------
# Cross-oracle agreement


def test_treewidth_agrees_with_separator_oracle_n5(small_graphs):
    for g in small_graphs:
        for kind in BOTH:
            assert (
                lambda_treewidth(g, kind).value == tw_by_separator_branching(g, kind)
            ), g.edges()


def test_treewidth_agrees_with_separator_oracle_n6():
    for g in enumerate_graphs(6):
        for kind in BOTH:
            assert lambda_treewidth(g, kind).value == tw_by_separator_branching(g, kind)


def test_widths_agree_with_exhaustive_decompositions_n4():
    for n in range(1, 5):
        for g in enumerate_graphs(n):
            for kind in BOTH:
                assert lambda_treewidth(g, kind).value == tw_by_all_decompositions(g, kind)
                assert lambda_pathwidth(g, kind).value == pw_by_all_decompositions(g, kind)


def test_pathwidth_agrees_with_ordering_oracle(small_graphs):
    for g in small_graphs:
        for kind in BOTH:
            assert lambda_pathwidth(g, kind).value == pw_by_orderings(g, kind)


def test_pathwidth_agrees_with_ordering_oracle_n6():
    for g in enumerate_graphs(6):
        for kind in BOTH:
            assert lambda_pathwidth(g, kind).value == pw_by_orderings(g, kind)


def test_dense_alpha_table_matches_subset_alpha():
    for n in (9, 10, 11, 12):
        g = random_graph(n, 0.35, 700 + n)
        oracle = SubsetAlpha(g)
        assert alpha_table(g.adj) == [oracle(s) for s in range(1 << n)]


def test_table_kernels_match_bfs_references():
    # On every subset: the pathwidth boundary reach[full - s] & s and the
    # component table's entry (the lowest vertex's component) equal the
    # breadth-first searches they replace.  The treewidth bags are compared
    # by the subset DP tests against the generic reference.
    graphs = [g for n in range(1, 7) for g in enumerate_graphs(n)]
    graphs += [random_graph(12, p, 60 + seed) for p in (0.2, 0.45) for seed in range(2)]
    for g in graphs:
        reach = reach_table(g.adj)
        comp = component_table(g.adj)
        assert len(comp) == len(reach) and comp[0] == 0
        closed = [nb | 1 << v for v, nb in enumerate(g.adj)]
        full = g.full_mask
        boundary = [0] * (full + 1)
        for s in range(1, full + 1):
            low = s & -s
            boundary[s] = _grow_boundary(closed, boundary[s ^ low], s, low)
            assert reach[full ^ s] & s == boundary[s], (g.adj, s)
            assert comp[s] == components(g.adj, s)[0], (g.adj, s)


def test_per_graph_tables_are_isolated():
    # The reach, component and alpha tables keep one graph each:
    # interleaving graphs of one size gives the results of fresh calls, and
    # no solver writes into the shared alpha table.
    a, b = random_graph(8, 0.4, 31), random_graph(8, 0.4, 32)
    solvers = (lambda_treewidth, lambda_pathwidth, lambda_treedepth)

    def fresh(g):
        reach_table.cache_clear()
        component_table.cache_clear()
        alpha_table.cache_clear()
        return [repr(f(g, kind)) for f in solvers for kind in BOTH]

    expected = {g: fresh(g) for g in (a, b)}
    for g in (a, b, a):
        assert [repr(f(g, kind)) for f in solvers for kind in BOTH] == expected[g]
        oracle = SubsetAlpha(g)
        assert alpha_table(g.adj) == [oracle(s) for s in range(1 << g.n)]


def _dp_against_reference(g, bag_rules):
    # Both kinds under both bag rules: the same optimum, ordering and bags.
    for kind in BOTH:
        for treewidth, bag in bag_rules:
            expected = subset_dp_reference(g, kind, bag)
            assert _subset_dp(g, kind, treewidth) == expected, (g.adj, kind, treewidth)


def test_subset_dp_matches_generic_reference():
    graphs = [g for n in range(8) for g in enumerate_graphs(n)]
    graphs += [random_graph(n, p, 40 + n) for n in range(8, 13) for p in (0.2, 0.4, 0.6)]
    for g in graphs:
        adj = g.adj
        bag_rules = (
            (True, lambda placed, low: elimination_bag(adj, placed, low)),
            (False, lambda placed, low: boundary_bag(adj, placed, low)),
        )
        _dp_against_reference(g, bag_rules)


def test_subset_dp_matches_generic_reference_at_width_exact():
    # The reach-table boundary equals the breadth-first one on every subset
    # (test_table_kernels_match_bfs_references) and takes half the time here.
    n = DEFAULT_BUDGETS.width_exact
    for g in (random_graph(n, 0.3, 161), random_graph(n, 0.6, 162)):
        adj = g.adj
        reach = reach_table(adj)
        full = g.full_mask
        bag_rules = (
            (True, lambda placed, low: elimination_bag(adj, placed, low)),
            (False, lambda placed, low: reach[full ^ placed] & placed | low),
        )
        _dp_against_reference(g, bag_rules)


def test_subset_dp_floors_hold_on_the_reference_table():
    # The DP's min-scans stop at a floor that every candidate pays, so each
    # floor must be at most f(s) of the generic DP with no early exit.  On a
    # connected s every elimination bag is v + N(s) - s: the floor is
    # |N(s) - s| + 1 under cardinality and alpha(N(s) - s) under alpha.  For
    # pathwidth B(s) lies inside B(s - v) + v for every v in s, with B the
    # boundary: the floor is |B(s)| or alpha(B(s)).
    graphs = [g for n in range(8) for g in enumerate_graphs(n)]
    graphs += [random_graph(n, p, 40 + n) for n in range(8, 13) for p in (0.2, 0.4, 0.6)]
    for g in graphs:
        adj = g.adj
        full = g.full_mask
        reach = reach_table(adj)
        comp = component_table(adj)
        alpha = alpha_table(adj)
        boundary = [reach[full ^ s] & s for s in range(full + 1)]
        for s in range(1, full + 1):
            for v in bits(s):
                assert boundary[s] & ~(boundary[s ^ 1 << v] | 1 << v) == 0, (adj, s, v)
        for kind in BOTH:
            bag_cost = int.bit_count if kind is CARD else alpha.__getitem__
            tw, _ = subset_dp_table(g, kind, lambda placed, low: elimination_bag(adj, placed, low))
            pw, _ = subset_dp_table(g, kind, lambda placed, low: boundary_bag(adj, placed, low))
            for s in range(1, full + 1):
                assert bag_cost(boundary[s]) <= pw[s], (adj, kind, s)
                if comp[s] == s:
                    nb = reach[s] & ~s
                    floor = nb.bit_count() + 1 if kind is CARD else alpha[nb]
                    assert floor <= tw[s], (adj, kind, s)


def test_mask_tables_grow_in_place(monkeypatch):
    # The table for n is a prefix of the one for n + 1: growing keeps the
    # list and every entry already built, and asking for less shrinks nothing.
    monkeypatch.setattr(widths, "_ONE_BITS", [()])
    small = _one_bits(3)
    entries = list(small)
    table = _one_bits(10)
    assert table is small and len(table) == 1 << 10
    assert all(a is b for a, b in zip(entries, table))
    assert _one_bits(5) is table and len(table) == 1 << 10
    for s in range(1 << 10):
        assert _one_bits(10)[s] == tuple(1 << v for v in bits(s))


def test_alternating_sizes_match_fresh_processes():
    # A 16-vertex solve, an 8-vertex one and the 16-vertex one again, in one
    # process, give what a fresh process gives for each graph alone.
    code = (
        "import sys\n"
        "from widthlab.decomp import CostKind\n"
        "from widthlab.formats import from_graph6\n"
        "from widthlab.widths import lambda_pathwidth, lambda_treedepth, lambda_treewidth\n"
        "g = from_graph6(sys.argv[1])\n"
        "for f in (lambda_treewidth, lambda_pathwidth, lambda_treedepth):\n"
        "    for kind in CostKind:\n"
        "        print(repr(f(g, kind)))\n"
    )

    def outputs(g):
        return "".join(
            repr(f(g, kind)) + "\n"
            for f in (lambda_treewidth, lambda_pathwidth, lambda_treedepth)
            for kind in CostKind
        )

    big, small = random_graph(16, 0.3, 163), random_graph(8, 0.5, 83)
    fresh = {
        g: subprocess.run(
            [sys.executable, "-c", code, to_graph6(g)], capture_output=True, text=True, check=True
        ).stdout
        for g in (big, small)
    }
    for g in (big, small, big):
        assert outputs(g) == fresh[g]


def test_treedepth_agrees_with_forest_enumeration():
    for n in range(1, 5):
        for g in enumerate_graphs(n):
            for kind in BOTH:
                assert lambda_treedepth(g, kind).value == td_by_all_forests(g, kind)


def test_treedepth_agrees_with_forest_enumeration_n5():
    for g in enumerate_graphs(5):
        for kind in BOTH:
            assert lambda_treedepth(g, kind).value == td_by_all_forests(g, kind)


# sha256 of _treedepth_outputs(), recorded from the solver that memoised
# every (component, ancestor set) pair and tried every root: the forests are
# part of the output (CLI JSON), so values and tie-breaking must not change.
TD_DIGEST = "540c287c843f1d4ca4805080cf3f513585e9c2d7689a16c9949144df80ada50d"


def _treedepth_outputs() -> str:
    graphs = [g for n in range(8) for g in enumerate_graphs(n)]
    graphs += [
        random_graph(n, p, seed) for n in range(8, 14) for p in (0.25, 0.5) for seed in range(2)
    ]
    return "\n".join(repr(lambda_treedepth(g, kind)) for g in graphs for kind in BOTH)


def test_treedepth_witnesses_pinned():
    assert hashlib.sha256(_treedepth_outputs().encode()).hexdigest() == TD_DIGEST


# sha256 of _tw_pw_outputs(), recorded from the subset DP that found each
# elimination bag by breadth-first search and kept a boundary table: the
# decompositions are part of the output, so tie-breaking must not change.
TW_PW_DIGEST = "8797995e92d14c59fceb11daa3ad62cbdc2bfacb2e8818b20862511a8c48aecf"


def _tw_pw_outputs() -> str:
    graphs = [g for n in range(8) for g in enumerate_graphs(n)]
    graphs += [
        random_graph(n, p, seed) for n in range(8, 11) for p in (0.25, 0.5) for seed in range(2)
    ]
    solvers = (lambda_treewidth, lambda_pathwidth)
    return "\n".join(repr(f(g, kind)) for g in graphs for f in solvers for kind in BOTH)


def test_tw_pw_witnesses_pinned():
    assert hashlib.sha256(_tw_pw_outputs().encode()).hexdigest() == TW_PW_DIGEST


def test_alpha_treedepth_cuts_keep_the_reference_states():
    # Each component of every graph with n <= 7 and of seeded G(9..13, p) is
    # solved at every cut from 1 to n + 1 by a fresh recursion.  Its exact
    # entries are the uncut recursion's (value, lowest optimal root) for
    # that state, and its lower bounds are at most the uncut value.
    graphs = [g for n in range(1, 8) for g in enumerate_graphs(n)]
    graphs += [random_graph(n, p, 960 + n) for n in range(9, 14) for p in (0.25, 0.5)]
    for g in graphs:
        n = g.n
        full = g.full_mask
        reference = alpha_treedepth_reference(g.adj)
        for cut in range(1, n + 2):
            solve = _AlphaTreedepth(g.adj)
            for comp in g.components():
                value = solve._solve(comp, 0, comp, cut)
                exact = reference(comp, 0)[0]
                assert value == exact if exact < cut else value >= cut, (g.adj, cut)
            for key, entry in solve.memo.items():
                assert entry == reference(key & full, key >> n), (g.adj, cut, key)
            for key, bound in solve.lower.items():
                assert bound <= reference(key & full, key >> n)[0], (g.adj, cut, key)


def test_treedepth_table_on_every_subset():
    # Every entry, not only the full vertex set: the height of each mask is
    # the treedepth of the subgraph it induces, and the independent decision
    # form accepts that height and rejects one less.
    for n in (8, 9, 10):
        for p in (0.3, 0.6):
            g = random_graph(n, p, 900 + n)
            height = _treedepth_table(g.adj)
            for mask in range(1 << n):
                sub = g.induced(mask)[0]
                k = height[mask]
                assert k == lambda_treedepth(sub, CARD).value, (g.adj, mask)
                assert lambda_td_at_most(sub, CARD, k), (g.adj, mask)
                assert not lambda_td_at_most(sub, CARD, k - 1), (g.adj, mask)


def test_treedepth_matches_decision_pair_up_to_td_exact():
    for n in range(12, DEFAULT_BUDGETS.width_exact + 1):
        for p in (0.2, 0.4):
            g = random_graph(n, p, 950 + n)
            k = lambda_treedepth(g, CARD).value
            assert lambda_td_at_most(g, CARD, k), (n, p)
            assert not lambda_td_at_most(g, CARD, k - 1), (n, p)


def test_degeneracy_matches_maxmin_bruteforce(small_graphs):
    for g in small_graphs:
        for kind in BOTH:
            assert degeneracy(g, kind).value == degeneracy_maxmin_induced(g, kind)


def test_degeneracy_subgraph_maxmin_attained_on_induced():
    for n in range(1, 5):
        for g in enumerate_graphs(n):
            for kind in BOTH:
                assert degeneracy_maxmin_subgraphs(g, kind) == degeneracy_maxmin_induced(
                    g, kind
                )


def test_alpha_chromatic_matches_function_enumeration():
    for n in range(1, 5):
        for g in enumerate_graphs(n):
            assert alpha_chromatic(g).value == alpha_chromatic_by_functions(g)


# sha256 of _alpha_chromatic_outputs(), recorded from the colouring search
# whose rainbow bound ran its own branch and bound over the colour classes:
# the colouring is part of the output (CLI JSON), so values and tie-breaking
# must not change.
ALPHA_CHI_DIGEST = "4482bb4f43439063c1a7a77ec6768297c23975d1983c61b1fcb0a5f76347fe6c"


def _alpha_chromatic_outputs() -> str:
    graphs = [g for n in range(8) for g in enumerate_graphs(n)]
    graphs += [
        random_graph(n, p, seed) for n in (8, 9) for p in (0.25, 0.5, 0.75) for seed in range(2)
    ]
    return "\n".join(repr(alpha_chromatic(g)) for g in graphs)


def test_alpha_chromatic_colourings_pinned():
    assert hashlib.sha256(_alpha_chromatic_outputs().encode()).hexdigest() == ALPHA_CHI_DIGEST


# ---------------------------------------------------------------------------
# Known values


def test_sclaw_alpha_pathwidth_witness_pinned():
    # Witnesses are part of the output (CLI JSON, check logs), so the subset
    # DP's tie-breaking is pinned on one 16-vertex s-claw instance.
    result = lambda_pathwidth(substitute(path_graph(4), SubstitutionKind.S_CLAW), ALPHA)
    assert result.value == 2
    assert result.witness.bags == (
        16384, 18432, 19456, 17920, 17152, 49152, 40960, 45056,
        12416, 12480, 12384, 12336, 4104, 4108, 4102, 4099,
    )


def test_treewidth_known(zoo):
    assert lambda_treewidth(zoo["K5"], CARD).value == 5
    assert lambda_treewidth(zoo["P4"], CARD).value == 2
    assert lambda_treewidth(zoo["C4"], ALPHA).value == 2
    assert lambda_treewidth(zoo["null"], CARD).value == 0


def test_chordal_graphs_have_alpha_treewidth_one(small_graphs):
    for g in small_graphs:
        if is_chordal(g)[0]:
            assert lambda_treewidth(g, ALPHA).value == 1


def test_classical_treewidth_plus_one_convention():
    for s in range(1, 7):
        assert lambda_treewidth(complete_graph(s), CARD).value == s
    for n in (2, 4, 7):
        assert lambda_treewidth(star(n), CARD).value == 2
        assert lambda_treewidth(path_graph(n + 1), CARD).value == 2
    for n in range(4, 9):
        assert lambda_treewidth(cycle_graph(n), CARD).value == 3


def test_pathwidth_known(zoo):
    assert lambda_pathwidth(zoo["K1"], ALPHA).value == 1
    assert lambda_pathwidth(zoo["P5"], CARD).value == 2
    from widthlab.constructions import gamma_family

    assert lambda_pathwidth(gamma_family(2), ALPHA).value == 2


def test_treedepth_known(zoo):
    assert lambda_treedepth(path_graph(7), CARD).value == 3
    for s in range(1, 7):
        assert lambda_treedepth(complete_graph(s), CARD).value == s
    from widthlab.constructions import gamma_family

    assert lambda_treedepth(gamma_family(2), ALPHA).value == 2


def test_degeneracy_known(zoo):
    assert degeneracy(zoo["C5"], CARD).value == 2
    assert degeneracy(zoo["C5"], ALPHA).value == 2
    from widthlab.constructions import gamma_family

    for idx in (2, 3):
        assert degeneracy(gamma_family(idx), ALPHA).value == 1


def test_chordal_alpha_degeneracy_one(small_graphs):
    # Peeling simplicial vertices keeps the cost at 1; edgeless graphs have
    # empty neighbourhoods and land at 0.
    for g in small_graphs:
        if g.n and is_chordal(g)[0]:
            expected = 1 if g.num_edges() else 0
            assert degeneracy(g, ALPHA).value == expected


def test_alpha_chromatic_known():
    for s in range(1, 6):
        assert alpha_chromatic(complete_graph(s)).value == 1
    assert alpha_chromatic(copies(2, complete_graph(2))).value == 2
    assert alpha_chromatic(copies(3, complete_graph(3))).value >= 3
    assert alpha_chromatic(Graph(0, ())).value == 0


# ---------------------------------------------------------------------------
# Decision procedures


def test_decision_forms_match_exact(small_graphs):
    for g in small_graphs[:40]:
        for kind in BOTH:
            pw = lambda_pathwidth(g, kind).value
            td = lambda_treedepth(g, kind).value
            for k in range(0, g.n + 2):
                assert lambda_pw_at_most(g, kind, k) == (pw <= k)
                assert lambda_td_at_most(g, kind, k) == (td <= k)


def test_decision_forms_match_exact_random_medium():
    for seed in range(40):
        import random as _random

        rng = _random.Random(seed)
        n = rng.randint(6, 9)
        g = random_graph(n, rng.uniform(0.15, 0.7), 4000 + seed)
        for kind in BOTH:
            pw = lambda_pathwidth(g, kind).value
            td = lambda_treedepth(g, kind).value
            for k in (pw - 1, pw, td - 1, td):
                assert lambda_pw_at_most(g, kind, k) == (pw <= k)
                assert lambda_td_at_most(g, kind, k) == (td <= k)


def test_decision_pairs_match_exact_on_substitutions():
    # sclaw-increment settles alpha-pw / alpha-td of the substituted graphs
    # (5 to 16 vertices) by the decision pair at v - 1 and v, past the sizes
    # the tests above reach.
    bases = [g for n in range(1, 4) for g in enumerate_graphs(n)]
    bases += [random_graph(4, 0.5, DEFAULT_SEED + i) for i in range(3)]
    for g in bases:
        for sub_kind, exact, at_most in (
            (SubstitutionKind.S_CLAW, lambda_pathwidth, lambda_pw_at_most),
            (SubstitutionKind.NET, lambda_pathwidth, lambda_pw_at_most),
            (SubstitutionKind.P5, lambda_treedepth, lambda_td_at_most),
        ):
            h = substitute(g, sub_kind)
            v = exact(h, ALPHA).value
            assert at_most(h, ALPHA, v) and not at_most(h, ALPHA, v - 1), (g.adj, sub_kind)


def _seeded_graphs():
    """150 seeded random graphs on 1 to 11 vertices."""
    for seed in range(150):
        rng = random.Random(seed)
        yield random_graph(rng.randint(1, 11), rng.uniform(0.1, 0.8), 9000 + seed)


def _substitution_bases():
    """Three random graphs each on 5 and 6 vertices, whose substitutions
    have 13 to 22 vertices."""
    for n in (5, 6):
        for i in range(3):
            yield random_graph(n, 0.5, DEFAULT_SEED + 100 * n + i)


def test_decision_forms_match_reference_at_every_k():
    # The forms read one bag cost per state; the references read one per
    # (state, vertex).  Every k from -1 to n + 1, both kinds.
    for g in _seeded_graphs():
        for kind in BOTH:
            for k in range(-1, g.n + 2):
                assert lambda_pw_at_most(g, kind, k) == pw_at_most_reference(g, kind, k)
                assert lambda_td_at_most(g, kind, k) == td_at_most_reference(g, kind, k)


def test_td_decision_form_stops_at_a_tight_state_that_a_vertex_cannot_join(monkeypatch):
    # A tight state has cost(above) = k.  When some vertex v of comp has no
    # neighbour in above, or alpha(above - N(v)) >= k, the path through v
    # costs k + 1: the state is False before any root's components are
    # built.  Every such state of every graph with n <= 6, with |comp| >= 2;
    # each graph's answers at every k match the reference.
    built = []
    grow = widths.components

    def recording(adj, mask):
        built.append(mask)
        return grow(adj, mask)

    monkeypatch.setattr(widths, "components", recording)
    stops = 0
    for n in range(3, 7):
        for g in enumerate_graphs(n):
            alpha = SubsetAlpha(g)
            for above in range(1, g.full_mask):
                k = alpha(above)
                for comp in grow(g.adj, g.full_mask & ~above):
                    blocked = [
                        v
                        for v in bits(comp)
                        if not g.adj[v] & above or alpha(above & ~g.adj[v]) >= k
                    ]
                    if comp.bit_count() < 2 or not blocked:
                        continue
                    built.clear()
                    assert not _TdFeasible(g.adj, alpha, k, False)(comp, above), (g.adj, above)
                    assert built == [], (g.adj, above, comp)
                    stops += 1
            for k in range(-1, n + 2):
                assert lambda_td_at_most(g, ALPHA, k) == td_at_most_reference(g, ALPHA, k)
    assert stops > 0


def test_pw_decision_form_pushes_the_reference_states_in_order(monkeypatch):
    # Every push grows one boundary, so wrapping _grow_boundary records the
    # placed sets the form pushes; they and their order match the
    # reference's at every k from -1 to n + 1, both kinds.
    pushed = []
    grow = widths._grow_boundary

    def recording(closed, b, s, low):
        pushed.append(s)
        return grow(closed, b, s, low)

    monkeypatch.setattr(widths, "_grow_boundary", recording)
    graphs = list(_seeded_graphs())
    graphs += [
        substitute(g, sub_kind)
        for g in _substitution_bases()
        for sub_kind in (SubstitutionKind.S_CLAW, SubstitutionKind.NET)
    ]
    cases = [(g, kind, k) for g in graphs for kind in BOTH for k in range(-1, g.n + 2)]
    # S_3, the `substitution` benchmark's hottest instance: its tight
    # boundaries recur, so most of its tight states read a stored fit mask
    # (7,969 pushes at alpha k = 2).
    s3 = gamma_family(3)
    cases += [(s3, ALPHA, k) for k in range(1, 5)] + [(s3, CARD, k) for k in range(1, 4)]
    for g, kind, k in cases:
        pushed.clear()
        expected = []
        assert lambda_pw_at_most(g, kind, k) == pw_at_most_reference(g, kind, k, expected)
        assert pushed == expected, (g.adj, kind, k)


def test_fit_mask_matches_its_definition():
    # At a tight boundary B, alpha(B) = k, the fit mask holds exactly the v
    # outside B with N(v) meeting B and alpha(B - N(v)) < k.  Every B of
    # every graph with n <= 7, then random B of seeded G(n, p), n = 8..14.
    def definition(g, alpha, b):
        k = alpha(b)
        return sum(
            1 << v
            for v in range(g.n)
            if not b >> v & 1 and g.adj[v] & b and alpha(b & ~g.adj[v]) < k
        )

    pairs = [(g, b) for n in range(1, 8) for g in enumerate_graphs(n) for b in range(1, 1 << n)]
    rng = random.Random(DEFAULT_SEED)
    for n in range(8, 15):
        for i in range(4):
            g = random_graph(n, rng.uniform(0.2, 0.8), DEFAULT_SEED + 100 * n + i)
            pairs += [(g, rng.randrange(1, 1 << n)) for _ in range(50)]
    oracles = {}
    for g, b in pairs:
        alpha = oracles.get(g.adj)
        if alpha is None:
            alpha = oracles[g.adj] = SubsetAlpha(g)
        expected = definition(g, alpha, b)
        assert widths._fit_mask(g.adj, SubsetAlpha(g), b, alpha(b)) == expected, (g.adj, b)


def test_decision_pairs_match_reference_past_exact_budget():
    # The s-claw and net substitutions of 5- and 6-vertex graphs have 18 to
    # 22 vertices, past width_exact; v = lambda(G) + 1 is settled by the
    # pair at v - 1 and v, and each answer matches the reference.
    for g in _substitution_bases():
        for sub_kind, exact, at_most, reference in (
            (SubstitutionKind.S_CLAW, lambda_pathwidth, lambda_pw_at_most, pw_at_most_reference),
            (SubstitutionKind.NET, lambda_pathwidth, lambda_pw_at_most, pw_at_most_reference),
            (SubstitutionKind.P5, lambda_treedepth, lambda_td_at_most, td_at_most_reference),
        ):
            h = substitute(g, sub_kind)
            v = exact(g, ALPHA).value + 1
            for k, expected in ((v - 1, False), (v, True)):
                assert at_most(h, ALPHA, k) == reference(h, ALPHA, k) == expected, (g.adj, sub_kind)


def test_budgets_are_enforced():
    big = random_graph(17, 0.3, 7)
    with pytest.raises(BudgetExceededError):
        lambda_treewidth(big, ALPHA)
    tiny_budget = Budgets(width_exact=5)
    with pytest.raises(BudgetExceededError):
        lambda_pathwidth(random_graph(6, 0.5, 1), CARD, tiny_budget)
    with pytest.raises(BudgetExceededError):
        alpha_chromatic(random_graph(10, 0.5, 1))


# ---------------------------------------------------------------------------
# Up to width_exact: past every brute-force oracle, so the values pinned
# here are closed forms and inequalities that do not come from the DP.


def _solve_checked(solver, g, kind):
    result = solver(g, kind)
    assert validate(g, result.witness) == [], (solver.__name__, g.adj)
    assert cost(g, result.witness, kind, check=False) == result.value, (solver.__name__, g.adj)
    return result.value


def _grid(rows, cols):
    edges = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    edges += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return Graph.from_edges(rows * cols, edges)


def _random_chordal(n, seed):
    # Each new vertex joins a clique of the graph so far, so it is simplicial
    # when it arrives and the graph stays chordal.
    rng = random.Random(seed)
    adj = [0]
    for v in range(1, n):
        clique = 1 << rng.randrange(v)
        for u in rng.sample(range(v), v):
            if adj[u] & clique == clique and rng.random() < 0.6:
                clique |= 1 << u
        for u in range(v):
            if clique >> u & 1:
                adj[u] |= 1 << v
        adj.append(clique)
    return Graph(n, tuple(adj))


CLOSED_FORMS = {  # name: (graph, tw, pw, td); td None where it is not pinned
    "K16": (complete_graph(16), 16, 16, 16),
    "K8,8": (complete_bipartite(8, 8), 9, 9, 9),
    "grid4x4": (_grid(4, 4), 5, 5, None),
    "C16": (cycle_graph(16), 3, 3, 5),
    "P16": (path_graph(16), 2, 2, 5),
}


@pytest.mark.parametrize("g, tw, pw, td", CLOSED_FORMS.values(), ids=CLOSED_FORMS)
def test_cardinality_closed_forms_at_width_exact(g, tw, pw, td):
    assert g.n == DEFAULT_BUDGETS.width_exact
    assert _solve_checked(lambda_treewidth, g, CARD) == tw
    assert _solve_checked(lambda_pathwidth, g, CARD) == pw
    if td is not None:
        assert _solve_checked(lambda_treedepth, g, CARD) == td


def test_alpha_treewidth_of_chordal_graphs_past_eleven_vertices():
    # Every bag of a clique tree is a clique, so alpha-tw = 1.
    for n in range(11, DEFAULT_BUDGETS.width_exact + 1):
        g = _random_chordal(n, 1100 + n)
        assert is_chordal(g)[0] and g.num_edges() < n * (n - 1) // 2, n
        assert _solve_checked(lambda_treewidth, g, ALPHA) == 1, n


def test_alpha_widths_are_ordered_past_eleven_vertices():
    for n in range(11, DEFAULT_BUDGETS.width_exact + 1):
        g = random_graph(n, 0.3, 1200 + n)
        tw, pw, td = (
            _solve_checked(solver, g, ALPHA)
            for solver in (lambda_treewidth, lambda_pathwidth, lambda_treedepth)
        )
        assert tw <= pw <= td, (n, tw, pw, td)


DISJOINT_UNIONS = {  # name: (graph, tw, pw, td), each as (cardinality, alpha)
    "C5+P4+K3": (from_graph6("Khc?GC@???_B"), (3, 2), (3, 2), (4, 2)),
    "3C5": (copies(3, cycle_graph(5)), (3, 2), (3, 2), (4, 2)),
}


@pytest.mark.parametrize("g, tw, pw, td", DISJOINT_UNIONS.values(), ids=DISJOINT_UNIONS)
def test_disjoint_unions_take_the_largest_component(g, tw, pw, td):
    # The tw DP and the td table split every disconnected set by components.
    solvers = (lambda_treewidth, lambda_pathwidth, lambda_treedepth)
    for solver, expected in zip(solvers, (tw, pw, td)):
        assert tuple(_solve_checked(solver, g, kind) for kind in BOTH) == expected, solver.__name__


def test_width_searches_leave_no_reference_cycle():
    # Every solver and decision form frees its memo and oracle by reference
    # counting alone: with the collector off, nothing is left unreachable.
    g = random_graph(12, 0.4, 3)
    calls = (
        lambda kind: lambda_treewidth(g, kind),
        lambda kind: lambda_pathwidth(g, kind),
        lambda kind: lambda_treedepth(g, kind),
        lambda kind: lambda_pw_at_most(g, kind, 3),
        lambda kind: lambda_td_at_most(g, kind, 3),
        lambda kind: degeneracy(g, kind),
    )
    gc.collect()
    gc.disable()
    try:
        for kind in BOTH:
            for i, call in enumerate(calls):
                call(kind)
                assert gc.collect() == 0, (i, kind)
    finally:
        gc.enable()


def test_colouring_choice_and_modulator_searches_leave_no_reference_cycle():
    # The alpha-chi partition search and the rainbow branch and bound under
    # it, the alpha modulator search, the independent-subset walk, the
    # root-to-leaf walk, the three cover solvers, fvs and oct each one
    # branch and bound, and the canonical-form branch and bound keep no
    # recursive closure: with the collector off, a finished call leaves
    # nothing unreachable.
    g7, g12 = random_graph(7, 0.4, 3), random_graph(12, 0.4, 3)
    calls = {
        "canonical_form": lambda: canonical_form(g12),
        "alpha_chromatic": lambda: alpha_chromatic(g7),
        "modulator_number": lambda: modulator_number(g12, ModulatorSpec.parse("tw:2"), ALPHA),
        "independent_subsets": lambda: independent_subsets(g12, g12.full_mask),
        "root_to_leaf_sets": lambda: RootedForest((None, 0, 0, 1, 1, None, 5)).root_to_leaf_sets(),
        "vertex_cover_number": lambda: vertex_cover_number(g12),
        "feedback_vertex_number": lambda: feedback_vertex_number(g12),
        "oct_number": lambda: oct_number(g12),
    }
    gc.collect()
    gc.disable()
    try:
        for name, call in calls.items():
            call()
            assert gc.collect() == 0, name
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# Witnesses and invariants


def test_witnesses_validate_and_match_value(small_graphs):
    for g in small_graphs:
        for kind in BOTH:
            for solver in (lambda_treewidth, lambda_pathwidth, lambda_treedepth):
                result = solver(g, kind)
                assert validate(g, result.witness) == []
                assert cost(g, result.witness, kind, check=False) == result.value


def test_chain_inequality_small(small_graphs):
    for g in small_graphs:
        for kind in BOTH:
            tw = lambda_treewidth(g, kind).value
            pw = lambda_pathwidth(g, kind).value
            td = lambda_treedepth(g, kind).value
            vc = parameter("vc", kind)(g, DEFAULT_BUDGETS)[0]
            assert tw <= pw <= td <= vc + 1


def test_alpha_width_never_exceeds_cardinality_width(small_graphs):
    for g in small_graphs:
        assert lambda_treewidth(g, ALPHA).value <= lambda_treewidth(g, CARD).value
        assert lambda_pathwidth(g, ALPHA).value <= lambda_pathwidth(g, CARD).value
        assert lambda_treedepth(g, ALPHA).value <= lambda_treedepth(g, CARD).value
