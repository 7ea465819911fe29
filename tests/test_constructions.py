"""Substitutions and the iterated s-claw family."""

import hashlib

import pytest

from oracles import are_isomorphic

from widthlab.constructions import (
    SubstitutionKind,
    gamma_family,
    subdivided_claw,
    substitute,
)
from widthlab.decomp import CostKind
from widthlab.graphs import (
    BudgetExceededError,
    Graph,
    complete_graph,
    cycle_graph,
    enumerate_graphs,
    path_graph,
    random_graph,
)
from widthlab.invariants import clique_number, contains_induced, is_chordal
from widthlab.widths import lambda_pathwidth, lambda_treedepth

ALPHA = CostKind.INDEPENDENCE
K1 = Graph(1, (0,))


def test_substitution_orders():
    for n in range(0, 4):
        g = random_graph(n, 0.5, n)
        assert substitute(g, SubstitutionKind.S_CLAW).n == 3 * n + 4
        assert substitute(g, SubstitutionKind.P5).n == 2 * n + 3
        assert substitute(g, SubstitutionKind.NET).n == 3 * n + 3


def test_substitute_k1_shapes():
    s2 = substitute(K1, SubstitutionKind.S_CLAW)
    assert s2.n == 7
    assert sorted(s2.degree(v) for v in range(7)) == [1, 1, 1, 2, 2, 2, 3]
    assert are_isomorphic(substitute(K1, SubstitutionKind.P5), path_graph(5))
    net = substitute(K1, SubstitutionKind.NET)
    assert net.n == 6
    assert sorted(net.degree(v) for v in range(6)) == [1, 1, 1, 3, 3, 3]
    assert clique_number(net) == 3


def test_substitution_kind_parse():
    assert SubstitutionKind.parse("s-claw") is SubstitutionKind.S_CLAW
    assert SubstitutionKind.parse("sclaw") is SubstitutionKind.S_CLAW
    assert SubstitutionKind.parse("NET") is SubstitutionKind.NET
    with pytest.raises(ValueError):
        SubstitutionKind.parse("hexagon")


def test_gamma_family_basics():
    assert gamma_family(1) == K1
    assert gamma_family(2).n == 7
    assert gamma_family(3).n == 25
    assert gamma_family(4).n == 79
    with pytest.raises(ValueError):
        gamma_family(0)
    with pytest.raises(BudgetExceededError):
        gamma_family(6)


def test_gamma_family_structure():
    for idx in (1, 2, 3):
        g = gamma_family(idx)
        assert clique_number(g) == idx
        assert is_chordal(g)[0]
        for k in (4, 5, 6):
            assert not contains_induced(g, cycle_graph(k))
        assert not contains_induced(g, path_graph(6))


def test_clique_number_of_substitution(small_graphs):
    for g in small_graphs[:20]:
        s = substitute(g, SubstitutionKind.S_CLAW)
        assert clique_number(s) == max(clique_number(g) + 1, 2)


def test_alpha_pathwidth_increment_small():
    for n in range(1, 4):
        for g in enumerate_graphs(n):
            base = lambda_pathwidth(g, ALPHA).value
            assert (
                lambda_pathwidth(substitute(g, SubstitutionKind.S_CLAW), ALPHA).value
                == base + 1
            )


def test_alpha_treedepth_increment_p5_small():
    for n in range(1, 4):
        for g in enumerate_graphs(n):
            base = lambda_treedepth(g, ALPHA).value
            assert (
                lambda_treedepth(substitute(g, SubstitutionKind.P5), ALPHA).value
                == base + 1
            )


def test_subdivided_claw():
    g = subdivided_claw()
    assert g.n == 7
    assert sorted((g.degree(v) for v in range(7)), reverse=True) == [3, 2, 2, 2, 1, 1, 1]
    assert not contains_induced(g, complete_graph(3))
    # The s-claw substitution of K1 is exactly this graph.
    assert are_isomorphic(g, substitute(K1, SubstitutionKind.S_CLAW))


def test_deterministic_labeling():
    a = substitute(cycle_graph(4), SubstitutionKind.S_CLAW)
    b = substitute(cycle_graph(4), SubstitutionKind.S_CLAW)
    assert a == b


# sha256 of _gadget_layouts(), recorded from the substitution that built each
# gadget in its own branch: the vertex layout is documented output (the
# ``construct`` command prints it), so it must not change.
GADGET_DIGEST = "02ed50f71ecf419d213eb6b8e1dee0491642627ccdfda03027258954e1ccc127"


def _gadget_layouts() -> str:
    lines = [
        repr(substitute(g, kind))
        for n in range(6)
        for g in enumerate_graphs(n)
        for kind in SubstitutionKind
    ]
    lines += [repr(gamma_family(index).adj) for index in range(1, 5)]
    return "\n".join(lines)


def test_gadget_layouts_pinned():
    assert hashlib.sha256(_gadget_layouts().encode()).hexdigest() == GADGET_DIGEST
