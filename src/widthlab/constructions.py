"""Graph substitutions and the iterated s-claw family.

The s-claw substitution plugs three copies of a graph into the leaves of the
once-subdivided claw; it raises alpha-pathwidth by exactly one.  The P5
variant uses two copies and raises alpha-treedepth by one; the net variant
substitutes into the three degree-1 vertices of the net (the line graph of
the subdivided claw).  Vertex layout is deterministic: the copies come
first, block by block, then the new vertices in ascending order.
"""

from __future__ import annotations

import enum

from .config import Budgets, DEFAULT_BUDGETS
from .graphs import BudgetExceededError, Graph


class SubstitutionKind(enum.Enum):
    S_CLAW = "s-claw"
    P5 = "p5"
    NET = "net"

    @staticmethod
    def parse(text: str) -> "SubstitutionKind":
        key = text.strip().lower().replace("_", "-")
        for kind in SubstitutionKind:
            if kind.value == key:
                return kind
        if key in ("sclaw", "claw"):
            return SubstitutionKind.S_CLAW
        raise ValueError(f"unknown substitution kind {text!r}")


def substitute(g: Graph, kind: SubstitutionKind) -> Graph:
    n = g.n
    base_edges = g.edges()

    def copy_edges(count: int):
        out = []
        for i in range(count):
            off = i * n
            out.extend((u + off, v + off) for u, v in base_edges)
        return out

    if kind is SubstitutionKind.S_CLAW:
        v1, v2, v3, w = 3 * n, 3 * n + 1, 3 * n + 2, 3 * n + 3
        edges = copy_edges(3)
        for i, hub in enumerate((v1, v2, v3)):
            edges.extend((hub, i * n + x) for x in range(n))
        edges += [(w, v1), (w, v2), (w, v3)]
        return Graph.from_edges(3 * n + 4, edges)
    if kind is SubstitutionKind.P5:
        v1, v2, mid = 2 * n, 2 * n + 1, 2 * n + 2
        edges = copy_edges(2)
        for i, hub in enumerate((v1, v2)):
            edges.extend((hub, i * n + x) for x in range(n))
        edges += [(mid, v1), (mid, v2)]
        return Graph.from_edges(2 * n + 3, edges)
    if kind is SubstitutionKind.NET:
        x1, x2, x3 = 3 * n, 3 * n + 1, 3 * n + 2
        edges = copy_edges(3)
        for i, hub in enumerate((x1, x2, x3)):
            edges.extend((hub, i * n + x) for x in range(n))
        edges += [(x1, x2), (x1, x3), (x2, x3)]
        return Graph.from_edges(3 * n + 3, edges)
    raise ValueError(f"unknown substitution kind {kind!r}")


def check_gamma_budget(index: int, budgets: Budgets) -> None:
    """Raise unless S_index is within the ``gamma_max_index`` budget."""
    if index > budgets.gamma_max_index:
        raise BudgetExceededError(
            f"gamma_family: index {index} exceeds budget {budgets.gamma_max_index}"
        )


def gamma_family(index: int, budgets: Budgets = DEFAULT_BUDGETS) -> Graph:
    """S_1 = K_1 and S_n = s(S_{n-1}): chordal, omega = n, alpha-pw = n."""
    if index < 1:
        raise ValueError("gamma family index starts at 1")
    check_gamma_budget(index, budgets)
    g = Graph(1, (0,))
    for _ in range(index - 1):
        g = substitute(g, SubstitutionKind.S_CLAW)
    return g


def subdivided_claw() -> Graph:
    """The claw with every edge subdivided once: centre 0, middles 1..3,
    leaves 4..6."""
    return Graph.from_edges(
        7, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (3, 6)]
    )
