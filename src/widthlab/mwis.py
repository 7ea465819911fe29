"""Maximum Weight Independent Set solvers.

Three routes: an exact branch-and-bound oracle, the bipartite min-cut
reduction served by a Dinic max-flow core, and the odd-cycle-transversal
algorithm that enumerates independent sets inside an OCT of bounded
independence number and finishes each on the remaining bipartite part.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .config import Budgets, DEFAULT_BUDGETS
from .graphs import Graph, bits, check_budget, mask_of
from .invariants import SubsetAlpha, independent_subsets, is_bipartite, lex_min_witness, odd_cycle


@dataclass(frozen=True)
class WeightedGraph:
    graph: Graph
    weights: tuple[int, ...]

    def __post_init__(self):
        if len(self.weights) != self.graph.n:
            raise ValueError("weight vector length does not match vertex count")
        if any(w < 0 for w in self.weights):
            raise ValueError("weights must be non-negative")

    @property
    def n(self) -> int:
        return self.graph.n

    def weight_of(self, vertices) -> int:
        return sum(self.weights[v] for v in vertices)


@dataclass(frozen=True)
class MwisResult:
    weight: int
    vertices: tuple[int, ...]


# ---------------------------------------------------------------------------
# Dinic max flow


class FlowNetwork:
    """Integer-capacity flow network; the source takes no in-arcs and the
    sink no out-arcs."""

    def __init__(self, num_nodes: int, source: int, sink: int):
        if not (0 <= source < num_nodes and 0 <= sink < num_nodes):
            raise ValueError("source/sink out of range")
        if source == sink:
            raise ValueError("source and sink must differ")
        self.num_nodes = num_nodes
        self.source = source
        self.sink = sink
        self.head: list[int] = []
        self.cap: list[int] = []
        self.nxt: list[list[int]] = [[] for _ in range(num_nodes)]

    def add_arc(self, u: int, v: int, capacity: int):
        if capacity < 0:
            raise ValueError("negative capacity")
        if not (0 <= u < self.num_nodes and 0 <= v < self.num_nodes):
            raise ValueError("arc endpoint out of range")
        if v == self.source:
            raise ValueError("arc into the source")
        if u == self.sink:
            raise ValueError("arc out of the sink")
        self.nxt[u].append(len(self.head))
        self.head.append(v)
        self.cap.append(capacity)
        self.nxt[v].append(len(self.head))
        self.head.append(u)
        self.cap.append(0)

    def max_flow(self) -> int:
        total = 0
        while True:
            level = self._levels()
            if level[self.sink] < 0:
                return total
            it = [0] * self.num_nodes
            while True:
                pushed = self._augment(self.source, None, level, it)
                if not pushed:
                    break
                total += pushed

    def _levels(self) -> list[int]:
        level = [-1] * self.num_nodes
        level[self.source] = 0
        queue = [self.source]
        head = 0
        while head < len(queue):
            v = queue[head]
            head += 1
            for e in self.nxt[v]:
                if self.cap[e] > 0 and level[self.head[e]] < 0:
                    level[self.head[e]] = level[v] + 1
                    queue.append(self.head[e])
        return level

    def _augment(self, v, limit, level, it) -> int:
        if v == self.sink:
            return limit
        while it[v] < len(self.nxt[v]):
            e = self.nxt[v][it[v]]
            u = self.head[e]
            if self.cap[e] > 0 and level[u] == level[v] + 1:
                step = self.cap[e] if limit is None else min(limit, self.cap[e])
                pushed = self._augment(u, step, level, it)
                if pushed:
                    self.cap[e] -= pushed
                    self.cap[e ^ 1] += pushed
                    return pushed
            it[v] += 1
        level[v] = -1
        return 0


# ---------------------------------------------------------------------------
# Exact oracle


def mwis_exact(wg: WeightedGraph, budgets: Budgets = DEFAULT_BUDGETS) -> MwisResult:
    check_budget("mwis_exact", wg.n, budgets.mwis_exact)
    g, weights = wg.graph, wg.weights
    memo: dict[int, int] = {0: 0}

    def solve(mask: int) -> int:
        cached = memo.get(mask)
        if cached is not None:
            return cached
        best_v, best_deg = -1, -1
        for v in bits(mask):
            d = (g.adj[v] & mask).bit_count()
            if d > best_deg:
                best_v, best_deg = v, d
        if best_deg == 0:
            value = sum(weights[v] for v in bits(mask))
        else:
            v = best_v
            value = max(
                solve(mask & ~(1 << v)),
                weights[v] + solve(mask & ~(g.adj[v] | 1 << v)),
            )
        memo[mask] = value
        return value

    # Zero-weight vertices never help; dropping them up front makes the
    # witness canonical (no zero-weight members) and lexicographically
    # smallest among such optima.
    positive = mask_of(v for v in range(g.n) if weights[v] > 0)
    total = solve(positive)
    return MwisResult(total, lex_min_witness(positive, total, solve, _take(g, weights)))


# ---------------------------------------------------------------------------
# Bipartite solver via min cut


def _bipartite_value(g: Graph, weights, colour, mask: int) -> int:
    """MWIS weight of G[mask], which ``colour`` 2-colours: its total weight
    minus a minimum s-t cut.  Flow nodes are the vertex ids of g."""
    total = sum(weights[v] for v in bits(mask))
    if not any(g.adj[v] & mask for v in bits(mask)):
        return total  # edgeless: the cut is empty
    source, sink = g.n, g.n + 1
    net = FlowNetwork(g.n + 2, source, sink)
    for v in bits(mask):
        if colour[v] == 0:
            net.add_arc(source, v, weights[v])
            for u in bits(g.adj[v] & mask):
                net.add_arc(v, u, total + 1)
        else:
            net.add_arc(v, sink, weights[v])
    return total - net.max_flow()


def _take(g: Graph, weights):
    """The take step of ``lex_min_witness``: v joins the independent set."""
    return lambda v, m: (weights[v], m & ~(g.adj[v] | 1 << v))


def _forced_witness(g: Graph, weights, colour, mask: int, value: int) -> tuple[int, ...]:
    """The lexicographically smallest independent set of G[mask] of weight
    ``value`` (its MWIS weight) with no zero-weight member."""
    return lex_min_witness(
        mask, value, lambda m: _bipartite_value(g, weights, colour, m), _take(g, weights)
    )


def mwis_bipartite(wg: WeightedGraph, budgets: Budgets = DEFAULT_BUDGETS) -> MwisResult:
    """MWIS on a bipartite graph: total weight minus a minimum s-t cut."""
    g = wg.graph
    ok, colour = is_bipartite(g)
    if not ok:
        raise ValueError("mwis_bipartite needs a bipartite input")
    value = _bipartite_value(g, wg.weights, colour, g.full_mask)
    return MwisResult(value, _forced_witness(g, wg.weights, colour, g.full_mask, value))


# ---------------------------------------------------------------------------
# The OCT route


def find_oct_with_bounded_alpha(
    g: Graph, k: int, budgets: Budgets = DEFAULT_BUDGETS
) -> tuple[int, ...] | None:
    """An odd cycle transversal S with alpha(G[S]) <= k, or None.

    Branches on the vertices of an odd cycle of the current graph; the
    alpha(G[S]) <= k constraint is monotone, so partial sets exceeding k
    are pruned.  The result attains the minimum alpha(G[S]) over all odd
    cycle transversals; among the transversals of that alpha which the
    branching reaches, it is the lexicographically smallest.  It need not
    be the smallest of all such transversals: on a triangle 1-2-3 with a
    pendant 0 on 3 it is (1,), though (0, 3) also has alpha 1.  Pruning
    only ever cuts on alpha, which grows along a branch, so every k at or
    above that minimum returns the same set, and every k below it None.
    """
    check_budget("find_oct_with_bounded_alpha", g.n, budgets.oct_alpha)
    if k < 0:
        return None
    alpha = SubsetAlpha(g)
    best: tuple[int, tuple[int, ...]] | None = None

    def rec(s_mask: int, forbidden: int):
        nonlocal best
        a = alpha(s_mask)
        if a > k:
            return
        if best is not None and a > best[0]:
            return
        cycle = odd_cycle(g, g.full_mask & ~s_mask)
        if cycle is None:
            witness = tuple(bits(s_mask))
            cand = (a, witness)
            if best is None or cand < best:
                best = cand
            return
        blocked = forbidden
        for v in cycle:
            if blocked >> v & 1:
                continue
            rec(s_mask | 1 << v, blocked)
            blocked |= 1 << v

    rec(0, 0)
    return best[1] if best is not None else None


@lru_cache(maxsize=1)
def _oct_layout(
    g: Graph, k: int, budgets: Budgets
) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]] | None:
    """The weight-independent half of ``mwis_via_oct``, or None when G has
    no odd cycle transversal S with alpha(G[S]) <= k: the 2-colouring of
    G - S, and every independent set I inside S (as a mask, lexicographic
    order) with its rest (V - S) - N(I).  One slot is enough, because a
    caller that weights one graph several times does so in a row."""
    s = find_oct_with_bounded_alpha(g, k, budgets)
    if s is None:
        return None
    s_mask = mask_of(s)
    outside = g.full_mask & ~s_mask
    colour = is_bipartite(g, outside)[1]
    parts = tuple(
        (i_mask, outside & ~g.neighbourhood(i_mask)) for i_mask in independent_subsets(g, s_mask)
    )
    return colour, parts


def mwis_via_oct(
    wg: WeightedGraph, k: int, budgets: Budgets = DEFAULT_BUDGETS
) -> MwisResult:
    """MWIS through an odd cycle transversal of independence number <= k.

    For every independent set I inside the transversal S, the rest of any
    optimal solution lies in the bipartite graph G[V - S] - N(I); the best
    I + I' over all I is optimal.  S, the 2-colouring of G - S and the sets
    I with their rests do not depend on the weights: they are built once
    per (graph, k, budgets) and reused while the same graph is weighted
    again.  The I are then visited in decreasing order of the bound
    w(I) + w(rest), and the visit stops at the first bound below the best
    weight found, since no later I can reach it.  Every visited I gets only
    its min-cut value; the witness I' is forced only for the I that reach
    the top weight, and of those the lexicographically smallest I + I'
    wins.
    """
    g, weights = wg.graph, wg.weights
    layout = _oct_layout(g, k, budgets)
    if layout is None:
        raise ValueError(f"no odd cycle transversal with independence number <= {k}")
    colour, parts = layout
    bounded = []
    for i_mask, rest in parts:
        w_i = wg.weight_of(bits(i_mask))
        bounded.append((w_i + wg.weight_of(bits(rest)), w_i, i_mask, rest))
    bounded.sort(key=lambda item: item[0], reverse=True)
    top, tied = -1, []
    for bound, w_i, i_mask, rest in bounded:
        if bound < top:
            break
        inner = _bipartite_value(g, weights, colour, rest)
        if w_i + inner > top:
            top, tied = w_i + inner, []
        if w_i + inner == top:
            tied.append((i_mask, rest, inner))
    vertices = min(
        tuple(sorted([*bits(i_mask), *_forced_witness(g, weights, colour, rest, inner)]))
        for i_mask, rest, inner in tied
    )
    return MwisResult(top, vertices)
