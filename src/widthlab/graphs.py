"""Bitset-backed simple undirected graphs.

Vertices are the integers ``0 .. n-1`` and every vertex subset is an ``int``
bitmask, which keeps the exponential-state solvers in this package fast and
allocation-free.  Graphs are immutable; operations that "modify" a graph
(vertex deletion, relabelling) return a new one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations


class BudgetExceededError(RuntimeError):
    """An exact solver was asked for an instance above its configured budget."""


def bits(mask: int):
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


@dataclass(frozen=True)
class Graph:
    """A finite simple undirected graph on vertices ``0 .. n-1``.

    ``adj[v]`` is the neighbourhood of ``v`` as a bitmask.  The adjacency
    relation is validated on construction: symmetric, loop-free, in range.
    """

    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be non-negative")
        if len(self.adj) != self.n:
            raise ValueError("adjacency length does not match vertex count")
        full = (1 << self.n) - 1
        for v, nb in enumerate(self.adj):
            if nb & ~full:
                raise ValueError(f"neighbour of {v} out of range")
            if nb >> v & 1:
                raise ValueError(f"self-loop at {v}")
        for v, nb in enumerate(self.adj):
            for u in bits(nb):
                if not self.adj[u] >> v & 1:
                    raise ValueError(f"asymmetric adjacency between {u} and {v}")

    @staticmethod
    def from_edges(n: int, edges) -> "Graph":
        adj = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return Graph(n, tuple(adj))

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def vertices(self):
        return range(self.n)

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in bits(self.adj[u]) if u < v]

    def num_edges(self) -> int:
        return sum(nb.bit_count() for nb in self.adj) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def neighbourhood(self, s: int) -> int:
        """Bitmask of vertices outside ``s`` with a neighbour in ``s``."""
        nb = 0
        for v in bits(s):
            nb |= self.adj[v]
        return nb & ~s

    def induced(self, mask: int) -> tuple["Graph", tuple[int, ...]]:
        """Induced subgraph on the set ``mask``.

        Returns the subgraph together with the tuple of original vertex ids,
        indexed by the new ids (new id ``i`` is old id ``old[i]``).
        """
        old = tuple(bits(mask))
        index = {v: i for i, v in enumerate(old)}
        adj = []
        for v in old:
            adj.append(mask_of(index[u] for u in bits(self.adj[v] & mask)))
        return Graph(len(old), tuple(adj)), old

    def delete(self, vertices) -> tuple["Graph", dict[int, int]]:
        """Delete a set of vertices, re-indexing the rest.

        Returns the smaller graph and the old-to-new id map for the
        surviving vertices.
        """
        drop = mask_of(vertices) if not isinstance(vertices, int) else vertices
        keep = self.full_mask & ~drop
        sub, old = self.induced(keep)
        return sub, {v: i for i, v in enumerate(old)}

    def relabel(self, perm) -> "Graph":
        """Apply the permutation ``perm`` (old id -> new id)."""
        adj = [0] * self.n
        for v in range(self.n):
            adj[perm[v]] = mask_of(perm[u] for u in bits(self.adj[v]))
        return Graph(self.n, tuple(adj))

    def components(self, within: int | None = None) -> list[int]:
        """Connected components (as bitmasks) of the subgraph induced on
        ``within`` (defaults to all vertices), in order of smallest member."""
        return components(self.adj, self.full_mask if within is None else within)


def components(adj, mask: int) -> list[int]:
    """Connected components of the subgraph induced on ``mask`` by the
    adjacency masks ``adj``, as bitmasks in order of smallest member."""
    comps = []
    while mask:
        comp = frontier = mask & -mask
        while frontier:
            grow = 0
            while frontier:
                low = frontier & -frontier
                grow |= adj[low.bit_length() - 1]
                frontier ^= low
            frontier = grow & mask & ~comp
            comp |= frontier
        comps.append(comp)
        mask ^= comp
    return comps


# ---------------------------------------------------------------------------
# Named constructions


def path_graph(s: int) -> Graph:
    return Graph.from_edges(s, [(i, i + 1) for i in range(s - 1)])


def cycle_graph(s: int) -> Graph:
    if s < 3:
        raise ValueError("cycles need at least 3 vertices")
    return Graph.from_edges(s, [(i, (i + 1) % s) for i in range(s)])


def complete_graph(s: int) -> Graph:
    return Graph.from_edges(s, [(i, j) for i in range(s) for j in range(i + 1, s)])


def complete_bipartite(p: int, q: int) -> Graph:
    return Graph.from_edges(p + q, [(i, p + j) for i in range(p) for j in range(q)])


def star(q: int) -> Graph:
    """The star K_{1,q}: centre 0 with q leaves."""
    return complete_bipartite(1, q)


def disjoint_union(graphs) -> Graph:
    n = 0
    edges = []
    for g in graphs:
        edges.extend((u + n, v + n) for u, v in g.edges())
        n += g.n
    return Graph.from_edges(n, edges)


def copies(r: int, h: Graph) -> Graph:
    """The disjoint union rH of r copies of h."""
    if r < 0:
        raise ValueError("negative number of copies")
    return disjoint_union([h] * r)


def named_graph(name: str) -> Graph:
    """Parse compact family names: P5, C6, K4, K2,3, star4, S3, 3K2, 2C4.

    A leading integer denotes that many disjoint copies of the base graph.
    S_n is the iterated s-claw family.
    """
    name = name.strip()
    i = 0
    while i < len(name) and name[i].isdigit():
        i += 1
    reps = int(name[:i]) if i > 0 else 1
    base = name[i:]
    if not base:
        raise ValueError(f"bad graph name {name!r}")
    try:
        if base.startswith("star"):
            g = star(int(base[4:]))
        elif base[0] == "P":
            g = path_graph(int(base[1:]))
        elif base[0] == "C":
            g = cycle_graph(int(base[1:]))
        elif base[0] == "K" and "," in base:
            p, q = base[1:].split(",")
            g = complete_bipartite(int(p), int(q))
        elif base[0] == "K":
            g = complete_graph(int(base[1:]))
        elif base[0] == "S":
            from .constructions import gamma_family

            g = gamma_family(int(base[1:]))
        else:
            raise ValueError
    except ValueError:
        raise ValueError(f"bad graph name {name!r}") from None
    return copies(reps, g) if reps != 1 else g


def random_graph(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p), deterministic in the seed."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("edge probability must lie in [0, 1]")
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def random_permutation(n: int, seed: int) -> list[int]:
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    return perm


# ---------------------------------------------------------------------------
# Canonical forms and exhaustive enumeration

ENUMERATION_MAX_N = 8


def _triangle_code(g: Graph, order) -> int:
    """Encode the upper triangle, column-major (the graph6 bit order), as an
    int whose most significant bit is the pair (0,1) of the relabelled graph."""
    code = 0
    for j in range(1, g.n):
        vj = order[j]
        for i in range(j):
            code = code << 1 | (g.adj[order[i]] >> vj & 1)
    return code


def canonical_form(g: Graph) -> int:
    """Lexicographically minimal adjacency bitstring over all relabellings.

    Branch-and-bound over partial vertex orderings: placing position j fixes
    the next j bits of the column-major code, so prefixes are comparable and
    branches that exceed the best known code are cut.
    """
    n = g.n
    if n <= 1:
        return 0
    total_bits = n * (n - 1) // 2

    # Greedy seed: always take the candidate with the smallest next block.
    order: list[int] = []
    rest = set(range(n))
    while rest:
        placed = order
        best_v, best_block = None, None
        for v in sorted(rest):
            block = 0
            for u in placed:
                block = block << 1 | (g.adj[u] >> v & 1)
            if best_block is None or block < best_block:
                best_v, best_block = v, block
        order.append(best_v)
        rest.remove(best_v)
    best = _triangle_code(g, order)

    bits_after = [total_bits - (j + 1) * j // 2 for j in range(n)]

    def search(order: list[int], used: int, acc: int, nbits: int):
        nonlocal best
        j = len(order)
        if j == n:
            if acc < best:
                best = acc
            return
        blocks = []
        for v in range(n):
            if used >> v & 1:
                continue
            block = 0
            for u in order:
                block = block << 1 | (g.adj[u] >> v & 1)
            blocks.append((block, v))
        blocks.sort()
        for block, v in blocks:
            acc2 = acc << j | block
            # Compare the fixed prefix against the best full code.
            if acc2 > best >> bits_after[j]:
                break  # blocks are sorted; later ones only get bigger
            order.append(v)
            search(order, used | 1 << v, acc2, nbits + j)
            order.pop()

    search([], 0, 0, 0)
    return best


def graph_from_triangle_code(n: int, code: int) -> Graph:
    edges = []
    pos = n * (n - 1) // 2
    for j in range(1, n):
        for i in range(j):
            pos -= 1
            if code >> pos & 1:
                edges.append((i, j))
    return Graph.from_edges(n, edges)


@lru_cache(maxsize=None)
def _canonical_codes(n: int) -> tuple[int, ...]:
    if n == 0:
        return (0,)
    seen = set()
    for parent_code in _canonical_codes(n - 1):
        parent = graph_from_triangle_code(n - 1, parent_code)
        base = [nb for nb in parent.adj]
        for nbhood in range(1 << (n - 1)):
            adj = base + [nbhood]
            for v in bits(nbhood):
                adj[v] |= 1 << (n - 1)
            child = Graph(n, tuple(adj))
            seen.add(canonical_form(child))
    return tuple(sorted(seen))


def enumerate_graphs(n: int):
    """All graphs on n vertices, one canonical representative per
    isomorphism class, in deterministic (code) order."""
    if not 0 <= n <= ENUMERATION_MAX_N:
        raise BudgetExceededError(
            f"graph enumeration supports 0 <= n <= {ENUMERATION_MAX_N}, got {n}"
        )
    for code in _canonical_codes(n):
        yield graph_from_triangle_code(n, code)


def count_isomorphism_classes(n: int) -> int:
    return len(_canonical_codes(n))


def are_isomorphic(g: Graph, h: Graph) -> bool:
    """Plain permutation-search isomorphism test (small n only)."""
    if g.n != h.n or g.num_edges() != h.num_edges():
        return False
    if sorted(map(g.degree, g.vertices())) != sorted(map(h.degree, h.vertices())):
        return False
    gm = {frozenset(e) for e in g.edges()}
    for perm in permutations(range(g.n)):
        if all(frozenset((perm[u], perm[v])) in gm for u, v in h.edges()) and len(
            gm
        ) == h.num_edges():
            return True
    return False
