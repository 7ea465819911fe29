"""Maximum Weight Independent Set solvers.

Three routes: an exact oracle, the bipartite min-cut reduction, and the
odd-cycle-transversal algorithm that enumerates independent sets inside an
OCT of bounded independence number and finishes each on the remaining
bipartite part with one min cut.  The exact oracle and the transversal
search's alpha share ``invariants._MaxWeight``: a memoised recursion on the
lowest vertex of a mask, with at most 2^(n/2 + 1) states, whose memo the
exact oracle walks for its witness, as vertex cover does.  The min cut runs
on vertex masks, by augmenting paths grown as bitmask layers, and every
call also reads its lexicographically smallest witness from the residual
graph of that maximum flow.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .config import Budgets, DEFAULT_BUDGETS
from .graphs import Graph, bits, check_budget, mask_of
from .invariants import _MaxWeight, independent_subsets, is_bipartite, odd_cycle


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
    sink no out-arcs.

    No solver path uses it: the bipartite min cut runs on vertex masks in
    ``_bipartite_mwis``.  It stays exported as a general max-flow core and
    the reference of the tests, and because the traced benchmark run
    (``perfbench/layers.py``) counts ``max_flow`` calls.
    """

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
    """An MWIS by ``_MaxWeight``; the witness is the lexicographically
    smallest optimum with no zero-weight member.

    Zero-weight vertices never help; dropping them up front makes the
    witness canonical.  The witness is a walk down the memo of the one
    solve, from the lowest vertex v of the mask m: v is kept when w(v) plus
    the optimum of m - N[v] is the optimum of m, so some optimum of G[m]
    holds v, as the smallest must; else no optimum does, and v is dropped.
    Both masks are the recursion's branches at m, so the walk reads only
    memoised values and the state bound holds for the whole call.
    """
    check_budget("mwis_exact", wg.n, budgets.mwis_exact)
    g, weights = wg.graph, wg.weights
    solve = _MaxWeight(g.adj, weights)
    m = mask_of(v for v in range(g.n) if weights[v] > 0)
    total, memo, witness = solve(m), solve.memo, []
    while m:
        low = m & -m
        v = low.bit_length() - 1
        take = m & ~(g.adj[v] | low)
        if weights[v] + memo[take] == memo[m]:
            witness.append(v)
            m = take
        else:
            m ^= low
    return MwisResult(total, tuple(witness))


# ---------------------------------------------------------------------------
# Bipartite solver via min cut


def _bipartite_mwis(g: Graph, weights, colour, mask: int) -> tuple[int, tuple[int, ...]]:
    """MWIS of G[mask], which ``colour`` 2-colours, as ``(weight, vertices)``:
    the total weight minus a minimum s-t cut, and the lexicographically
    smallest optimum with no zero-weight member, the set ``mwis_exact``'s
    memo walk would build.

    The network has an arc s -> v of capacity w(v) for each left (colour 0)
    vertex v, an arc v -> t of capacity w(v) for each right vertex v, and an
    uncapped arc l -> r for each edge.  A source side X with a finite cut is
    the independent set I = (X & left) | (right - X), and the cut costs
    w(mask) - w(I).  No network object is built: ``res[v]`` is the residual
    capacity of v's arc to s or t, ``free`` the vertices where it is
    positive, ``flow`` the flow on each edge (l, r) and ``carried[v]`` the
    partners of v along edges that carry flow.  Paths of one edge are
    saturated first; then shortest augmenting paths are grown as bitmask
    layers, a left vertex reaching every right neighbour and a right vertex
    the left vertices whose edge to it carries flow.

    The witness.  The optimal independent sets correspond one to one to the
    minimum cuts, and by Picard and Queyranne (Math. Programming Study 13,
    1980) these are exactly the sets X that hold s, miss t and are closed
    under the residual arcs of a maximum flow.  So some optimum holds a
    vertex set F exactly when some such X holds the left members of F and
    misses the right ones.  Every such X contains ``inside``, the residual
    closure of s and the left members of F, which is closed itself; so one
    exists exactly when ``inside`` misses ``outside``: the right members of
    F and the right vertices with residual capacity to t, whose arc would
    pull t in.  The closure of s alone is the ``seen`` mask of the last
    path search: it starts from the left vertices s still reaches, follows
    every residual arc but those into t, and finds no path, so it stops
    only once no residual arc leaves it.  The vertices of positive weight
    are visited lowest first, and v joins F when that test still passes.
    That is the test of ``mwis_exact``'s walk: it keeps v when w(v) > 0 and
    w(v) plus the optimum of the positive vertices above v, less N(v) and the
    neighbours of the kept vertices, is the weight still missing, which says
    that some optimum holds v and the vertices kept so far.  F only grows,
    so both take the same vertices.
    """
    adj = g.adj
    total = left = free = touched = 0
    for v in bits(mask):
        total += weights[v]
        if weights[v]:
            free |= 1 << v
        if not colour[v]:
            left |= 1 << v
            touched |= adj[v]
    if not touched & mask:  # edgeless: the cut is empty
        return total, tuple(bits(free))
    right = mask & ~left
    res = list(weights)
    flow: dict[tuple[int, int], int] = {}
    carried = [0] * g.n
    cut = 0
    for l in bits(left & free):
        for r in bits(adj[l] & right & free):
            delta = min(res[l], res[r])
            res[l] -= delta
            res[r] -= delta
            flow[l, r] = delta
            carried[l] |= 1 << r
            carried[r] |= 1 << l
            cut += delta
            if not res[r]:
                free &= ~(1 << r)
            if not res[l]:
                free &= ~(1 << l)
                break
    while True:
        parent: dict[int, int] = {}
        frontier = seen = left & free
        end = -1
        while frontier and end < 0:
            reached = 0
            for v in bits(frontier):
                step = (adj[v] & mask if left >> v & 1 else carried[v]) & ~seen
                if step:
                    seen |= step
                    reached |= step
                    for u in bits(step):
                        parent[u] = v
                    if step & right & free:
                        end = (step & right & free).bit_length() - 1
                        break
            frontier = reached
        if end < 0:
            break
        path = [end]  # right, left, right, ..., left: the path read backwards
        while path[-1] in parent:
            path.append(parent[path[-1]])
        # Each (l, r, sign): +1 runs forward along edge lr, -1 back along it.
        edges = [
            (path[i], path[i - 1], 1) if i % 2 else (path[i - 1], path[i], -1)
            for i in range(1, len(path))
        ]
        delta = min([res[end], res[path[-1]]] + [flow[l, r] for l, r, sign in edges if sign < 0])
        for v in (end, path[-1]):
            res[v] -= delta
            if not res[v]:
                free &= ~(1 << v)
        for l, r, sign in edges:
            f = flow[l, r] = flow.get((l, r), 0) + sign * delta
            if f:
                carried[l] |= 1 << r
                carried[r] |= 1 << l
            else:
                carried[l] &= ~(1 << r)
                carried[r] &= ~(1 << l)
        cut += delta

    def close(reach: int, frontier: int) -> int:
        # Left vertices follow the edges of G, right ones the edges that
        # carry flow.
        while frontier:
            step = 0
            for v in bits(frontier):
                step |= adj[v] & mask if left >> v & 1 else carried[v]
            frontier = step & ~reach
            reach |= frontier
        return reach

    inside, outside = seen, right & free
    chosen = []
    for v in bits(mask):
        if not weights[v]:
            continue
        bit = 1 << v
        if left & bit:
            grown = close(inside | bit, bit & ~inside)
            if not grown & outside:
                inside = grown
                chosen.append(v)
        elif not inside & bit:
            outside |= bit
            chosen.append(v)
    return total - cut, tuple(chosen)


def mwis_bipartite(wg: WeightedGraph, budgets: Budgets = DEFAULT_BUDGETS) -> MwisResult:
    """MWIS on a bipartite graph: total weight minus a minimum s-t cut, with
    the witness read from the residual graph of the maximum flow."""
    g = wg.graph
    ok, colour = is_bipartite(g)
    if not ok:
        raise ValueError("mwis_bipartite needs a bipartite input")
    return MwisResult(*_bipartite_mwis(g, wg.weights, colour, g.full_mask))


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
    best = _least_alpha_oct(g, k, _MaxWeight(g.adj, (1,) * g.n), 0, 0, None)
    return best[1] if best is not None else None


def _least_alpha_oct(g: Graph, k: int, alpha: _MaxWeight, s_mask: int, forbidden: int, best):
    """The branching of ``find_oct_with_bounded_alpha`` below the partial
    transversal ``s_mask``: the better of ``best`` and the least
    ``(alpha, vertices)`` it reaches, vertices in ``forbidden`` never
    joining.  Its state comes in as arguments, so a finished search leaves
    no reference cycle behind."""
    a = alpha(s_mask)
    if a > k or best is not None and a > best[0]:
        return best
    cycle = odd_cycle(g, g.full_mask & ~s_mask)
    if cycle is None:
        cand = (a, tuple(bits(s_mask)))
        return cand if best is None or cand < best else best
    blocked = forbidden
    for v in cycle:
        if blocked >> v & 1:
            continue
        best = _least_alpha_oct(g, k, alpha, s_mask | 1 << v, blocked, best)
        blocked |= 1 << v
    return best


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
    weight found, since no later I can reach it.  Each visited I takes one
    min cut, which gives both the weight and the witness I' of its rest;
    the heaviest I + I' wins, and of equal weights the lexicographically
    smallest vertex tuple.
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
    top, vertices = -1, ()
    for bound, w_i, i_mask, rest in bounded:
        if bound < top:
            break
        inner, found = _bipartite_mwis(g, weights, colour, rest)
        if w_i + inner >= top:
            cand = tuple(sorted([*bits(i_mask), *found]))
            if w_i + inner > top or cand < vertices:
                top, vertices = w_i + inner, cand
    return MwisResult(top, vertices)
