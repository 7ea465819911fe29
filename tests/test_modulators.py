"""Modulator numbers, cover solvers, Ramsey bounds, and the lemma checks."""

import hashlib
import random

import pytest

from oracles import (
    brute_modulator,
    brute_ramsey,
    cover_reference,
    delete,
    mask_is_acyclic,
    mask_is_bipartite,
    mask_is_cover,
    vertex_cover_reference,
)

from widthlab.config import DEFAULT_BUDGETS
from widthlab.decomp import CostKind, tree_decomp_from_fvs
from widthlab.graphs import (
    BudgetExceededError,
    Graph,
    complete_bipartite,
    complete_graph,
    copies,
    cycle_graph,
    enumerate_graphs,
    mask_of,
    path_graph,
    random_graph,
    star,
)
from widthlab.invariants import (
    chromatic_number,
    clique_number,
    max_degree,
    max_independent_set,
)
from widthlab import modulators
from widthlab.modulators import (
    PARAMETERS,
    ModulatorSpec,
    binding_f,
    check_modulator_minimality,
    feedback_vertex_number,
    minimum_modulators,
    modulator_number,
    oct_number,
    parameter,
    predicate,
    ramsey_property_check,
    ramsey_upper,
    rho_at_most,
    slack_failure,
    vertex_cover_number,
)
from widthlab.mwis import WeightedGraph, mwis_exact
from widthlab.widths import (
    lambda_pathwidth,
    lambda_td_at_most,
    lambda_treedepth,
    lambda_treewidth,
)

CARD = CostKind.CARDINALITY
ALPHA = CostKind.INDEPENDENCE


def target_names() -> list[str]:
    """The modulator-target rows of the table as it stands, so a row added
    by monkeypatch is among them."""
    return [name for name, row in PARAMETERS.items() if row.target]


def test_modulator_spec_parsing():
    spec = ModulatorSpec.parse("tw:1")
    assert spec.rho == "tw" and spec.c == 1
    assert str(ModulatorSpec.parse("delta:0")) == "delta:0"
    with pytest.raises(ValueError, match="unknown target parameter 'nope'"):
        ModulatorSpec.parse("nope:1")
    with pytest.raises(ValueError, match="modulator threshold must be non-negative"):
        ModulatorSpec.parse("tw:-1")
    with pytest.raises(ValueError, match="expected 'rho:c'"):
        ModulatorSpec.parse("tw")


def test_modulator_known_values():
    assert modulator_number(complete_graph(4), ModulatorSpec("tw", 1))[0] == 3
    assert modulator_number(cycle_graph(5), ModulatorSpec("chi", 2))[0] == 1
    assert modulator_number(star(5), ModulatorSpec("delta", 0))[0] == 1
    value, witness = modulator_number(path_graph(4), ModulatorSpec("tw", 2))
    assert value == 0 and witness == ()


def test_modulator_identities_small(small_graphs):
    for g in small_graphs:
        vc = vertex_cover_number(g)[0]
        assert modulator_number(g, ModulatorSpec("tw", 1))[0] == vc
        assert modulator_number(g, ModulatorSpec("td", 1))[0] == vc
        assert modulator_number(g, ModulatorSpec("tw", 2))[0] == feedback_vertex_number(g)[0]
        assert modulator_number(g, ModulatorSpec("chi", 2))[0] == oct_number(g)[0]


def test_cover_solvers_against_bruteforce(small_graphs):
    for g in small_graphs:
        assert vertex_cover_number(g)[0] == brute_modulator(
            g, lambda rest: mask_is_cover(g, rest), CARD
        )
        assert feedback_vertex_number(g)[0] == brute_modulator(
            g, lambda rest: mask_is_acyclic(g, rest), CARD
        )
        assert oct_number(g)[0] == brute_modulator(
            g, lambda rest: mask_is_bipartite(g, rest), CARD
        )


def test_alpha_modulators_against_bruteforce(small_graphs):
    for g in small_graphs[:40]:
        assert parameter("vc", ALPHA)(g, DEFAULT_BUDGETS)[0] == brute_modulator(
            g, lambda rest: mask_is_cover(g, rest), ALPHA
        )
        got = modulator_number(g, ModulatorSpec("chi", 2), ALPHA)[0]
        assert got == brute_modulator(g, lambda rest: mask_is_bipartite(g, rest), ALPHA)


def test_mask_tests_match_oracles():
    # Every mask of every graph with n <= 6, then 200 seeded masks of each
    # seeded random graph with n = 11..16, past the 1,024-entry ``bits``
    # table and up to ``width_exact``.
    pairs = (
        (modulators._is_edgeless, mask_is_cover),
        (modulators._is_acyclic, mask_is_acyclic),
        (modulators._is_bipartite, mask_is_bipartite),
    )
    cases = [(g, m) for n in range(7) for g in enumerate_graphs(n) for m in range(1 << n)]
    rng = random.Random(32)
    for n in range(11, 17):
        for p in (0.15, 0.3, 0.5):
            g = random_graph(n, p, n)
            cases += [(g, rng.getrandbits(n)) for _ in range(200)]
    for g, mask in cases:
        for test, oracle in pairs:
            assert test(g, mask, DEFAULT_BUDGETS) == oracle(g, mask), (test.__name__, g.adj, mask)


def test_caterpillar_forest_test_matches_pathwidth():
    # The pw c = 2 target against the exact cardinality pathwidth of G[mask]:
    # every mask of every graph with n <= 6, then 200 seeded masks of each
    # seeded sparse graph with n = 12..16.
    cases = [(g, m) for n in range(7) for g in enumerate_graphs(n) for m in range(1 << n)]
    rng = random.Random(33)
    for n in range(12, 17):
        for p in (0.1, 0.2, 0.3):
            g = random_graph(n, p, 100 + n)
            cases += [(g, rng.getrandbits(n)) for _ in range(200)]
    seen = set()
    for g, mask in cases:
        expected = lambda_pathwidth(g.induced(mask)[0], CARD).value <= 2
        assert modulators._is_caterpillar_forest(g, mask, DEFAULT_BUDGETS) == expected, (g.adj, mask)
        seen.add((g.n > 6, expected))
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


def test_vertex_cover_walk_matches_reference_at_the_budget(monkeypatch):
    # At the cover_solvers budget of 30 the walk reads only states of its
    # one _MaxWeight solve, at most 2^16 - 1 of them.
    made = []

    class Recorded(modulators._MaxWeight):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(modulators, "_MaxWeight", Recorded)
    n = DEFAULT_BUDGETS.cover_solvers
    graphs = [
        complete_bipartite(n // 2, n // 2),
        copies(n // 2, complete_graph(2)),
        Graph.from_edges(n, [(i, i + n // 2) for i in range(n // 2)]),
    ]
    graphs += [random_graph(n, p, 32) for p in (0.05, 0.1, 0.2, 0.5)]
    for g in graphs:
        made.clear()
        assert vertex_cover_number(g) == vertex_cover_reference(g), g.adj
        assert len(made) == 1 and len(made[0].memo) <= 65535, g.adj


def test_fvs_and_oct_match_the_self_reduction():
    # One search each against the largest-choice value and one re-solve per
    # vertex tried: every graph with n <= 7, every 12th class at n = 8 and
    # one seeded G(n, p) for each n = 12..24.
    graphs = [g for n in range(8) for g in enumerate_graphs(n)]
    graphs += list(enumerate_graphs(8))[::12]
    graphs += [random_graph(n, (0.15, 0.3, 0.5)[n % 3], n) for n in range(12, 25)]
    for solver, good in (
        (feedback_vertex_number, modulators._is_acyclic),
        (oct_number, modulators._is_bipartite),
    ):
        for g in graphs:
            expected = cover_reference(g, lambda g, mask: good(g, mask, DEFAULT_BUDGETS))
            assert solver(g) == expected, (solver.__name__, g.adj)


def test_cover_witnesses():
    value, witness = vertex_cover_number(copies(3, complete_graph(2)))
    assert value == 3 and witness == (0, 2, 4)
    for n in range(1, 6):
        assert vertex_cover_number(copies(n, complete_graph(2)))[0] == n
        assert vertex_cover_number(complete_bipartite(n, n))[0] == n
    value, witness = feedback_vertex_number(cycle_graph(5))
    assert value == 1 and witness == (0,)
    assert feedback_vertex_number(path_graph(6))[0] == 0
    value, witness = oct_number(complete_graph(4))
    assert value == 2 and witness == (0, 1)
    assert oct_number(complete_bipartite(3, 4))[0] == 0


def test_witnesses_are_lexicographically_smallest(small_graphs):
    from itertools import combinations

    for g in small_graphs[:25]:
        value, witness = vertex_cover_number(g)
        candidates = [
            c
            for c in combinations(range(g.n), value)
            if mask_is_cover(g, g.full_mask & ~sum(1 << v for v in c))
        ]
        assert witness == min(candidates)


def test_ramsey_upper_and_binding():
    assert ramsey_upper(3, 3) == 6
    assert ramsey_upper(3, 2) == 3
    assert ramsey_upper(1, 1) == 1
    assert binding_f(2, 1) == 2
    assert binding_f(1, 1) == 1
    with pytest.raises(ValueError):
        ramsey_upper(0, 3)


def test_ramsey_property_check():
    assert ramsey_property_check(6, 3, 3) is True
    assert ramsey_property_check(5, 3, 3) is False
    assert ramsey_property_check(1, 1, 5) is True
    assert ramsey_property_check(2, 2, 2) is True
    with pytest.raises(BudgetExceededError):
        ramsey_property_check(9, 3, 3)


def test_ramsey_property_check_on_seven_vertices():
    assert ramsey_property_check(7, 3, 3) is True
    assert ramsey_property_check(7, 3, 4) is False  # R(3, 4) = 9


def test_ramsey_property_check_agrees_with_labelled_graphs():
    for n in range(7):
        for a in range(8):
            for b in range(8):
                assert ramsey_property_check(n, a, b) == brute_ramsey(n, a, b), (n, a, b)


def test_ramsey_binding_per_graph_n4():
    from widthlab.widths import lambda_treewidth
    from widthlab.invariants import clique_number

    for n in range(1, 5):
        for g in enumerate_graphs(n):
            omega = clique_number(g)
            for kind_pair in (
                (vertex_cover_number(g)[0], parameter("vc", ALPHA)(g, DEFAULT_BUDGETS)[0]),
                (
                    lambda_treewidth(g, CARD).value,
                    lambda_treewidth(g, ALPHA).value,
                ),
            ):
                plain, alpha_variant = kind_pair
                assert plain <= binding_f(omega, alpha_variant)


def test_check_modulator_minimality():
    assert check_modulator_minimality(copies(2, complete_graph(3)), ModulatorSpec("tw", 2)) is None
    assert check_modulator_minimality(cycle_graph(5), ModulatorSpec("chi", 2)) is None
    assert check_modulator_minimality(Graph(3, (0, 0, 0)), ModulatorSpec("tw", 1)) is None


def _slack(g: Graph, spec: ModulatorSpec, kind: CostKind) -> str | None:
    lhs = parameter(spec.rho, kind)(g, DEFAULT_BUDGETS)[0]
    return slack_failure(spec, kind, lhs, modulator_number(g, spec, kind))


def test_check_modulator_slack_known():
    assert _slack(cycle_graph(5), ModulatorSpec("tw", 2), ALPHA) is None
    assert _slack(complete_graph(4), ModulatorSpec("tw", 1), CARD) is None
    assert _slack(path_graph(4), ModulatorSpec("td", 1), CARD) is None


def test_slack_fails_for_max_degree_on_stars():
    # The paper's non-inheritability witness: stars have mu_{delta,0} = 1
    # but unbounded maximum degree.
    for q in range(2, 9):
        detail = _slack(star(q), ModulatorSpec("delta", 0), CARD)
        assert detail is not None


def test_rho_at_most_shortcuts_match_values(small_graphs):
    for g in small_graphs[:30]:
        for rho in ("tw", "pw", "td", "chi", "omega", "delta"):
            value = parameter(rho)(g, DEFAULT_BUDGETS)[0]
            for c in range(0, 4):
                assert rho_at_most(g, rho, c) == (value <= c)
    # Every target row from its closed form at c = 2 into its fallback:
    # pw asks its decision form, td its exact table, tw the subset DP, chi
    # the colouring search and omega the clique search on the mask.
    for n in range(7):
        for g in enumerate_graphs(n):
            for rho in target_names():
                value = parameter(rho)(g, DEFAULT_BUDGETS)[0]
                for c in range(2, 6):
                    assert rho_at_most(g, rho, c) == (value <= c), (g.adj, rho, c)


# The closed forms of ``predicate``: every rho at c <= 1, every rho but
# delta at c = 2, and delta at every c up to the largest degree at n = 7.
CLOSED_FORMS = (
    [(rho, c) for rho in target_names() for c in (0, 1)]
    + [(rho, 2) for rho in target_names()]
    + [("delta", c) for c in range(3, 7)]
)


def _exact_values(sub: Graph) -> dict[str, int]:
    return {
        "tw": lambda_treewidth(sub, CARD).value,
        "pw": lambda_pathwidth(sub, CARD).value,
        "td": lambda_treedepth(sub, CARD).value,
        "chi": chromatic_number(sub),
        "omega": clique_number(sub),
        "delta": max_degree(sub),
    }


def test_predicate_closed_forms_match_exact_solvers():
    # Every mask of every graph with n <= 7: the induced subgraphs are
    # solved once per distinct adjacency.
    exact: dict[tuple[int, ...], dict[str, int]] = {}
    forms = [(rho, c, predicate(rho, c)) for rho, c in CLOSED_FORMS]
    for n in range(8):
        for g in enumerate_graphs(n):
            for mask in range(1 << n):
                sub, _ = g.induced(mask)
                values = exact.get(sub.adj)
                if values is None:
                    values = exact[sub.adj] = _exact_values(sub)
                for rho, c, good in forms:
                    assert good(g, mask, DEFAULT_BUDGETS) == (values[rho] <= c), (
                        g.adj, mask, rho, c
                    )


def test_predicate_is_resolved_once_per_spec():
    assert predicate("pw", 2) is predicate("pw", 2)
    with pytest.raises(ValueError):
        predicate("nope", 2)
    # rho of the empty graph is 0, so no threshold below 0 holds anywhere.
    for rho in target_names():
        assert not rho_at_most(Graph(0, ()), rho, -1)
        assert not rho_at_most(cycle_graph(5), rho, -1, within=0)
        assert rho_at_most(cycle_graph(5), rho, 0, within=0)


def test_td_fallback_reads_table_within_td_exact():
    # Above c = 2 the td test reads the exact table up to width_exact vertices
    # and the decision form above; both must agree where they overlap.
    graphs = [g for n in range(8) for g in enumerate_graphs(n)]
    graphs.append(random_graph(14, 0.4, 964))
    for g in graphs:
        value = lambda_treedepth(g, CARD).value
        for c in range(3, 6):
            assert lambda_td_at_most(g, CARD, c) == (value <= c), (g.adj, c)
            assert rho_at_most(g, "td", c) == (value <= c), (g.adj, c)
    # The decision pair at td = 9 is pinned in test_widths.
    assert rho_at_most(g, "td", value) and not rho_at_most(g, "td", value - 1)
    # Past width_exact only the decision form answers: td(P_n) is the bit
    # length of n.
    for n in range(DEFAULT_BUDGETS.width_exact + 1, 21):
        for c in range(3, 7):
            assert rho_at_most(path_graph(n), "td", c) == (n.bit_length() <= c), (n, c)


def test_lambda_rho_dispatch(zoo):
    def lambda_rho(g, rho, kind):
        return parameter(rho, kind)(g, DEFAULT_BUDGETS)[0]

    assert lambda_rho(zoo["C5"], "tw", ALPHA) == 2
    assert lambda_rho(zoo["K4"], "omega", CARD) == 4
    assert lambda_rho(zoo["K4"], "omega", ALPHA) == 1
    assert lambda_rho(star(3), "delta", ALPHA) == 3
    assert lambda_rho(zoo["C5"], "chi", CARD) == 3


def test_modulator_budget():
    from widthlab.graphs import random_graph

    with pytest.raises(BudgetExceededError):
        modulator_number(random_graph(17, 0.5, 0), ModulatorSpec("tw", 1))


def test_modulator_monotone_under_induced_subgraphs(small_graphs):
    for g in small_graphs[:30]:
        for rho, c in (("tw", 1), ("chi", 2), ("omega", 1)):
            base = modulator_number(g, ModulatorSpec(rho, c))[0]
            for v in range(g.n):
                sub, _ = delete(g, [v])
                assert modulator_number(sub, ModulatorSpec(rho, c))[0] <= base


def test_rho_at_most_within_matches_induced():
    for n in range(7):
        for g in enumerate_graphs(n):
            for mask in range(1 << n):
                sub, _ = g.induced(mask)
                for rho in target_names():
                    for c in range(4):
                        assert rho_at_most(g, rho, c, within=mask) == rho_at_most(
                            sub, rho, c
                        ), (g.adj, mask, rho, c)
                for c in range(4):
                    assert rho_at_most(g, "omega", c, within=mask) == (
                        clique_number(g, mask) <= c
                    ), (g.adj, mask, c)


PINNED_SPECS = ("tw:1", "tw:2", "td:2", "pw:2", "chi:2", "omega:2")
# sha256 of _modulator_outputs(), recorded from the solvers that built an
# induced Graph for every candidate modulator: values and witnesses are part
# of the output (check logs), so both must not change.
MODULATOR_DIGEST = "0fd0b914b8c57f8828e7eeae857a046d4661c7e029cf871eb8b039814e20c7f4"


def _modulator_outputs() -> str:
    lines = []
    for n in range(7):
        for g in enumerate_graphs(n):
            for text in PINNED_SPECS:
                spec = ModulatorSpec.parse(text)
                lines.append(repr((
                    modulator_number(g, spec, CARD),
                    modulator_number(g, spec, ALPHA),
                    minimum_modulators(g, spec),
                )))
    return "\n".join(lines)


def test_modulator_witnesses_pinned():
    digest = hashlib.sha256(_modulator_outputs().encode()).hexdigest()
    assert digest == MODULATOR_DIGEST


# sha256 of _alpha_modulator_outputs(), recorded from the alpha search that
# read alpha(S) from a memoised SubsetAlpha oracle: it carries the witness
# pin past n = 6, where MODULATOR_DIGEST stops.
ALPHA_MODULATOR_DIGEST = "57d7fc142a633cd4114359454a9f851da1200fabc275e0699443922281f05187"


def _alpha_modulator_outputs() -> str:
    graphs = list(enumerate_graphs(7))
    graphs += [
        random_graph(n, p, seed) for n in range(8, 13) for p in (0.25, 0.5) for seed in range(2)
    ]
    specs = [ModulatorSpec.parse(t) for t in ("tw:1", "tw:2", "chi:2")]
    return "\n".join(repr(modulator_number(g, spec, ALPHA)) for g in graphs for spec in specs)


def test_alpha_modulator_witnesses_pinned():
    digest = hashlib.sha256(_alpha_modulator_outputs().encode()).hexdigest()
    assert digest == ALPHA_MODULATOR_DIGEST


# sha256 of _witness_outputs(), recorded from the solvers that ran one
# hand-written self-reduction loop each: the witnesses of the cover solvers,
# the maximum (weight) independent sets, the decomposition built on the fvs
# witness and the exchange-step verdicts must not change.
WITNESS_DIGEST = "76d77d31af9b507caa4ecc36cef566e3fe2ec059de5f8540b7d280d3f2e2c8e9"
EXCHANGE_SPECS = ("tw:1", "tw:2", "chi:2", "pw:2", "omega:2")


def _witness_outputs() -> str:
    rng = random.Random(2026)
    graphs = [g for n in range(8) for g in enumerate_graphs(n)]
    graphs += [
        random_graph(n, p, seed) for n in range(8, 15) for p in (0.25, 0.5) for seed in range(2)
    ]
    lines = []
    for g in graphs:
        fvs = feedback_vertex_number(g)
        out = [
            vertex_cover_number(g),
            fvs,
            oct_number(g),
            max_independent_set(g),
            mwis_exact(WeightedGraph(g, tuple(rng.randint(0, 9) for _ in range(g.n)))),
            mwis_exact(WeightedGraph(g, (1,) * g.n)),
            tree_decomp_from_fvs(g, mask_of(fvs[1])),
        ]
        if g.n <= 6:
            out += [check_modulator_minimality(g, ModulatorSpec.parse(t)) for t in EXCHANGE_SPECS]
        lines.append(repr(out))
    return "\n".join(lines)


def test_cover_and_independent_set_witnesses_pinned():
    assert hashlib.sha256(_witness_outputs().encode()).hexdigest() == WITNESS_DIGEST
