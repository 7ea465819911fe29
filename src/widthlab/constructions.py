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


# Per kind: the number of copies of G, the number of new vertices, and the
# edges among the new vertices.  New vertex i < copies is the hub of copy i,
# joined to all of it.
_GADGETS = {
    SubstitutionKind.S_CLAW: (3, 4, ((3, 0), (3, 1), (3, 2))),
    SubstitutionKind.P5: (2, 3, ((2, 0), (2, 1))),
    SubstitutionKind.NET: (3, 3, ((0, 1), (0, 2), (1, 2))),
}


def substitution_order(n: int, kind: SubstitutionKind) -> int:
    """The vertex count of the substitution into a graph on n vertices."""
    count, new, _ = _GADGETS[kind]
    return count * n + new


def substitute(g: Graph, kind: SubstitutionKind) -> Graph:
    count, new, gadget = _GADGETS[kind]
    n, base = g.n, count * g.n
    edges = [(u + i * n, v + i * n) for u, v in g.edges() for i in range(count)]
    edges += [(base + i, i * n + x) for i in range(count) for x in range(n)]
    edges += [(base + a, base + b) for a, b in gadget]
    return Graph.from_edges(base + new, edges)


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
