"""Exact solvers for the base graph parameters.

Everything here is exact and deterministic.  The independence-number engine
doubles as the bag-cost oracle of the width solvers, so it memoises per
vertex-subset and splits into connected components before branching: that is
what keeps sparse 80-vertex instances (iterated s-claw graphs) fast.  Each
witness is read from the solve that gives its value: ``max_independent_set``
probes one ``SubsetAlpha``, and the callers of ``_MaxWeight`` walk its memo.
"""

from __future__ import annotations

from functools import lru_cache

from .graphs import Graph, bits, components, mask_of


class SubsetAlpha:
    """Memoised exact independence number of induced subgraphs.

    alpha(mask) branches on a maximum-degree vertex v of the component:
    either v is excluded, or v is taken and N[v] is removed.  Components
    with maximum degree <= 2 are paths and cycles and get closed forms.
    """

    def __init__(self, g: Graph):
        self.adj = g.adj
        self.memo: dict[int, int] = {0: 0}

    def __call__(self, mask: int) -> int:
        cached = self.memo.get(mask)
        if cached is not None:
            return cached
        total = 0
        for comp in components(self.adj, mask):
            total += self._component(comp)
        self.memo[mask] = total
        return total

    def _component(self, comp: int) -> int:
        cached = self.memo.get(comp)
        if cached is not None:
            return cached
        size = comp.bit_count()
        if size <= 2:
            value = 1
        else:
            best_v, best_deg = -1, -1
            for v in bits(comp):
                d = (self.adj[v] & comp).bit_count()
                if d > best_deg:
                    best_v, best_deg = v, d
            if best_deg <= 2:
                # Connected with max degree <= 2: a path or a cycle.
                edges = sum((self.adj[v] & comp).bit_count() for v in bits(comp)) // 2
                value = size // 2 if edges == size else (size + 1) // 2
            else:
                without = self(comp & ~(1 << best_v))
                with_v = 1 + self(comp & ~(self.adj[best_v] | 1 << best_v))
                value = max(without, with_v)
        self.memo[comp] = value
        return value


@lru_cache(maxsize=1)
def alpha_table(adj: tuple[int, ...]) -> list[int]:
    """alpha of the subgraph induced on every subset, indexed by bitmask: the
    dense form of ``SubsetAlpha`` for callers that visit most subsets.

    The subsets with highest vertex v follow all subsets below v, so each
    vertex doubles the table: s + v either avoids v, or takes v and nothing
    of N(v), and both of those subsets lie below v.  One slot, like
    ``graphs.reach_table``: the callers ask for one graph several times in a
    row.  The list is shared between callers and must be treated as
    read-only.
    """
    alpha = [0]
    for nb in adj:
        outside = ~nb
        take = [alpha[s & outside] + 1 for s in range(len(alpha))]
        alpha += [a if a > t else t for a, t in zip(alpha, take)]
    return alpha


class _MaxWeight:
    """Memoised maximum weight of an independent set inside a vertex mask,
    ``self(mask)``; under unit weights, the independence number.

    The recursion branches on the lowest vertex v of the mask.  When v has
    no neighbour left in the mask it is taken; otherwise the value is the
    better of leaving v out and taking v with N(v) removed.  There is no
    component split and no degree scan: a state costs one lookup.

    The state bound.  Below the lowest vertex u of a state reached from the
    root R, every vertex of R was either left out or taken, and taking a
    vertex removes only its neighbours; so the state is R & [u, n) minus
    N(J) for some independent J inside R & [0, u).  There are at most 2^u
    such J, and the state is u plus a subset of (u, n), which leaves
    2^(n - u - 1) choices; so at most min(2^u, 2^(n - u - 1)) states have
    lowest vertex u.  With the empty mask that is 2^(n/2 + 1) - 1 states
    for even n (3 * 2^((n - 1)/2) - 1 for odd n): 65,535 at n = 30, the
    ``mwis_exact`` and ``cover_solvers`` budgets, and 2,047 per call at
    n = 20, the ``oct_alpha`` budget.  Within those budgets the component
    split of ``SubsetAlpha`` buys nothing this bound does not already give,
    and it costs a search on every state.  ``SubsetAlpha`` keeps it for the
    sparse 25 to 80-vertex decision forms, where components keep the memo
    small and this bound would not.

    The OCT search's alpha reads optimum values only, which do not depend on
    the choice of v.  ``mwis.mwis_exact`` and ``vertex_cover_number`` read
    their witnesses by walking the memo down along the lowest vertex, so
    they need this rule: each mask they read is a state the recursion
    already holds, and ``self.memo[mask]`` never grows the memo.
    """

    def __init__(self, adj: tuple[int, ...], weights):
        self.adj = adj
        self.weights = weights
        self.memo: dict[int, int] = {0: 0}

    def __call__(self, mask: int) -> int:
        value = self.memo.get(mask)
        return self._solve(mask) if value is None else value

    def _solve(self, mask: int) -> int:
        # A mask not yet in the memo; each branch looks its mask up before
        # it recurses, which saves a call on every memo hit.
        memo = self.memo
        low = mask & -mask
        v = low.bit_length() - 1
        near = self.adj[v] & mask
        rest = mask ^ low
        value = memo.get(rest)
        if value is None:
            value = self._solve(rest)
        if near:
            rest &= ~near
            take = memo.get(rest)
            if take is None:
                take = self._solve(rest)
            take += self.weights[v]
            if take > value:
                value = take
        else:
            value += self.weights[v]
        memo[mask] = value
        return value


def independence_number(g: Graph) -> int:
    """alpha(G), the maximum size of an independent set."""
    return SubsetAlpha(g)(g.full_mask)


def max_independent_set(g: Graph) -> tuple[int, ...]:
    """A maximum independent set; lexicographically smallest among optima.

    The vertices are probed in increasing order: v joins when 1 plus alpha
    of the mask less N[v] is the alpha still missing, and the search goes on
    in that mask.  A rejected vertex stays in the mask, in no optimum of it.
    """
    alpha, mask, chosen = SubsetAlpha(g), g.full_mask, []
    value = alpha(mask)
    for v in bits(g.full_mask):
        rest = mask & ~(g.adj[v] | 1 << v)
        if value and mask >> v & 1 and 1 + alpha(rest) == value:
            chosen.append(v)
            value, mask = value - 1, rest
    return tuple(chosen)


def independent_subsets(g: Graph, mask: int) -> list[int]:
    """All independent subsets of mask (including the empty set), as masks,
    in the lexicographic order of their sorted vertex tuples."""
    adj = g.adj
    out = []
    stack = [(mask, 0)]  # (vertices that may still join, the set so far)
    while stack:
        rest, chosen = stack.pop()
        out.append(chosen)
        m, above = rest, 0  # pushed highest vertex first, so the lowest pops next
        while m:
            v = m.bit_length() - 1
            m ^= 1 << v
            stack.append((above & ~adj[v], chosen | 1 << v))
            above |= 1 << v
    return out


def clique_number(g: Graph, within: int | None = None) -> int:
    """omega(G[within]) (all of G by default) by branch and bound with a
    greedy colouring upper bound."""
    mask = g.full_mask if within is None else within
    if not mask:
        return 0
    adj = g.adj
    best = 1

    def colour_bound(mask: int) -> list[tuple[int, int]]:
        # Greedy colouring of G[mask]; returns (vertex, colour) sorted by
        # colour so the strongest candidates are branched last.
        colours = []
        classes: list[int] = []
        for v in bits(mask):
            for c, cls in enumerate(classes):
                if not adj[v] & cls:
                    classes[c] |= 1 << v
                    colours.append((v, c + 1))
                    break
            else:
                classes.append(1 << v)
                colours.append((v, len(classes)))
        colours.sort(key=lambda vc: vc[1])
        return colours

    def expand(size: int, mask: int):
        nonlocal best
        order = colour_bound(mask)
        while order:
            v, c = order.pop()
            if size + c <= best:
                return
            if size + 1 > best:
                best = size + 1
            expand(size + 1, mask & adj[v])
            mask &= ~(1 << v)

    expand(0, mask)
    return best


def max_degree(g: Graph) -> int:
    return max((nb.bit_count() for nb in g.adj), default=0)


def local_independence_number(g: Graph) -> int:
    """Maximum number of leaves of an induced star: max_v alpha(G[N(v)]),
    0 on the empty graph."""
    alpha = SubsetAlpha(g)
    return max((alpha(nb) for nb in g.adj), default=0)


def is_k_colourable(g: Graph, k: int) -> bool:
    if g.n == 0:
        return True
    if k <= 0:
        return False
    return all(_colour_component(g, comp, k) for comp in g.components())


def _colour_component(g: Graph, comp: int, k: int) -> bool:
    vertices = sorted(bits(comp), key=lambda v: -(g.adj[v] & comp).bit_count())
    colour = {}

    def assign(i: int, used: int) -> bool:
        if i == len(vertices):
            return True
        v = vertices[i]
        taken = {colour[u] for u in bits(g.adj[v] & comp) if u in colour}
        limit = min(k, used + 1)
        for c in range(limit):
            if c in taken:
                continue
            colour[v] = c
            if assign(i + 1, max(used, c + 1)):
                return True
            del colour[v]
        return False

    return assign(0, 0)


def chromatic_number(g: Graph) -> int:
    if g.n == 0:
        return 0
    lb = clique_number(g)
    k = lb
    while not is_k_colourable(g, k):
        k += 1
    return k


def is_bipartite(
    g: Graph, within: int | None = None
) -> tuple[bool, tuple[int, ...] | None]:
    """Bipartiteness of G[within] (all of G by default) with a witness
    2-colouring: a colour per vertex of G, -1 outside ``within``.  Each
    component's smallest vertex gets colour 0, which fixes the colouring."""
    colour, clash = _two_colour(g.adj, g.full_mask if within is None else within)
    return (True, tuple(colour)) if clash is None else (False, None)


def odd_cycle(g: Graph, within: int | None = None) -> tuple[int, ...] | None:
    """Vertices of some induced-by-BFS-tree odd cycle of G[within] (all of
    G by default), or None if it is bipartite."""
    clash = _two_colour(g.adj, g.full_mask if within is None else within)[1]
    return None if clash is None else _tree_cycle(*clash)


def _two_colour(adj, mask: int) -> tuple[list[int], tuple[list[int], int, int] | None]:
    """BFS 2-colouring of the subgraph induced on ``mask``.

    Components are taken in order of smallest member, each rooted there
    with colour 0, and neighbours are scanned in increasing order.  Returns
    ``(colour, None)`` with ``colour[v] == -1`` outside ``mask``, or, at the
    first edge uv joining two vertices of one colour, ``(colour, (parent,
    u, v))``: the BFS tree and the edge that closes an odd cycle in it.
    Callers that need only the answer test the second item for None.
    """
    colour = [-1] * len(adj)
    parent = [-1] * len(adj)
    todo = mask
    while todo:
        root = (todo & -todo).bit_length() - 1
        colour[root] = 0
        order = [root]
        for v in order:  # the list grows while it is walked: a FIFO queue
            todo &= ~(1 << v)
            for u in bits(adj[v] & mask):
                if colour[u] == -1:
                    colour[u] = 1 - colour[v]
                    parent[u] = v
                    order.append(u)
                elif colour[u] == colour[v]:
                    return colour, (parent, u, v)
    return colour, None


def _tree_cycle(parent, u: int, v: int) -> tuple[int, ...]:
    # Adjacent u and v of one colour share a BFS depth: their tree paths
    # climb in step to the meeting vertex, and the cycle runs u .. meet .. v.
    path_u, path_v = [u], [v]
    while path_u[-1] != path_v[-1]:
        path_u.append(parent[path_u[-1]])
        path_v.append(parent[path_v[-1]])
    return tuple(path_u + path_v[-2::-1])


def is_chordal(g: Graph) -> tuple[bool, tuple[int, ...] | None]:
    """Chordality via maximum cardinality search.

    Returns (True, perfect elimination order) or (False, None).  The order
    lists vertices in elimination order: each vertex's later neighbours form
    a clique.
    """
    n = g.n
    if n == 0:
        return True, ()
    weight = [0] * n
    placed = 0
    order = []  # reverse elimination order
    for _ in range(n):
        v = max(
            (v for v in range(n) if not placed >> v & 1),
            key=lambda v: (weight[v], -v),
        )
        order.append(v)
        placed |= 1 << v
        for u in bits(g.adj[v] & ~placed):
            weight[u] += 1
    peo = order[::-1]
    pos = {v: i for i, v in enumerate(peo)}
    for i, v in enumerate(peo):
        later = [u for u in bits(g.adj[v]) if pos[u] > i]
        if not later:
            continue
        w = min(later, key=lambda u: pos[u])
        others = mask_of(u for u in later if u != w)
        if others & ~g.adj[w]:
            return False, None
    return True, tuple(peo)


def maximal_cliques_chordal(g: Graph, peo) -> list[int]:
    """Maximal cliques of a chordal graph from a perfect elimination order:
    the maximal ones of the candidates v + later N(v), which are distinct,
    each having its own first vertex in the order."""
    candidates = []
    placed = 0
    for v in peo:
        candidates.append(g.adj[v] & ~placed | 1 << v)
        placed |= 1 << v
    return [c for c in candidates if not any(c != d and c & d == c for d in candidates)]


def contains_induced(g: Graph, h: Graph) -> bool:
    """Does g contain an induced subgraph isomorphic to h?

    Backtracking over pattern vertices ordered to keep each new vertex
    anchored to the already-mapped ones, with degree pruning.
    """
    if h.n == 0:
        return True
    if h.n > g.n:
        return False
    order = _pattern_order(h)
    g_deg = [g.degree(v) for v in range(g.n)]
    h_deg = [h.degree(v) for v in range(h.n)]

    def extend(i: int, image: dict[int, int], used: int) -> bool:
        if i == len(order):
            return True
        p = order[i]
        wanted = [(q, image[q]) for q in bits(h.adj[p]) if q in image]
        unwanted = [image[q] for q in image if not h.adj[p] >> q & 1]
        for v in range(g.n):
            if used >> v & 1 or g_deg[v] < h_deg[p]:
                continue
            if any(not g.adj[v] >> w & 1 for _, w in wanted):
                continue
            if any(g.adj[v] >> w & 1 for w in unwanted):
                continue
            image[p] = v
            if extend(i + 1, image, used | 1 << v):
                return True
            del image[p]
        return False

    return extend(0, {}, 0)


def _pattern_order(h: Graph) -> list[int]:
    order = []
    placed = 0
    for _ in range(h.n):
        best = max(
            (v for v in range(h.n) if not placed >> v & 1),
            key=lambda v: ((h.adj[v] & placed).bit_count(), h.degree(v), -v),
        )
        order.append(best)
        placed |= 1 << best
    return order


def max_matching_size(g: Graph) -> int:
    """Maximum matching cardinality (memoised branching; desk scale)."""
    adj = g.adj
    memo: dict[int, int] = {0: 0}

    def solve(mask: int) -> int:
        cached = memo.get(mask)
        if cached is not None:
            return cached
        v = next(bits(mask))
        rest = mask & ~(1 << v)
        nbs = adj[v] & mask
        # Some maximum matching covers v if it has a neighbour u: a matching
        # that misses v matches u to some w, and swapping uw for uv keeps
        # its size.
        if not nbs:
            value = solve(rest)
        else:
            value = 1 + max(solve(rest & ~(1 << u)) for u in bits(nbs))
        memo[mask] = value
        return value

    return solve(g.full_mask)
