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


class BudgetExceededError(RuntimeError):
    """An exact solver was asked for an instance above its configured budget."""


def check_budget(op: str, n: int, limit: int) -> None:
    """Raise unless ``op`` may run on n vertices under its budget ``limit``."""
    if n > limit:
        raise BudgetExceededError(f"{op}: n={n} exceeds budget {limit}")


def _bit_positions(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _positions_table(width: int) -> tuple[tuple[int, ...], ...]:
    """The set bit positions of every mask below 1 << width.  The masks
    with v as their highest bit come right after all masks below it, so
    each position doubles the table."""
    table = [()]
    for v in range(width):
        table += [t + (v,) for t in table]
    return tuple(table)


# The small masks that the solvers iterate in their inner loops cost one
# lookup.  A 2^12 table brought no further speed and added to peak memory.
_SMALL_BITS = _positions_table(10)


def bits(mask: int):
    """An iterator over the set bit positions of the non-negative ``mask``,
    in increasing order."""
    if mask < 1024:
        return iter(_SMALL_BITS[mask])
    return _bit_positions(mask)


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
        for v, nb in enumerate(self.adj):
            if nb >> self.n:  # a bit at n or above, or a negative mask
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

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in bits(self.adj[u]) if u < v]

    def num_edges(self) -> int:
        return sum(nb.bit_count() for nb in self.adj) // 2

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


@lru_cache(maxsize=1)
def reach_table(adj: tuple[int, ...]) -> list[int]:
    """``reach[s]``, the union of the neighbourhoods of the vertices in s,
    for every subset s of the vertices of ``adj``.

    The subsets containing vertex v as their highest one come right after
    all subsets below it, so each vertex doubles the table.  One slot is
    enough: the exact width solvers ask for one graph several times in a
    row.  The list is shared between callers and must be treated as
    read-only.
    """
    reach = [0]
    for nb in adj:
        reach += [r | nb for r in reach]
    return reach


@lru_cache(maxsize=1)
def component_table(adj: tuple[int, ...]) -> list[int]:
    """``comp[s]``, the component of the lowest vertex of s in the subgraph
    induced on s, for every subset s of the vertices of ``adj`` (0 for the
    empty set), each grown from ``reach_table(adj)``.

    For the passes that visit every subset; cached and read-only like
    ``reach_table``.
    """
    reach = reach_table(adj)
    table = [0] * len(reach)
    for s in range(1, len(reach)):
        comp, grow = 0, s & -s
        while grow != comp:
            comp = grow
            grow = reach[comp] & s | comp
        table[s] = comp
    return table


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
    int whose most significant bit is the pair (0,1) of the relabelled graph.

    The pair (i, j), i < j, of the relabelled graph is character
    j(j - 1)/2 + i of a bit string that ``int`` reads once, so no int grows
    one pair at a time."""
    n = g.n
    position = [0] * n
    for i, v in enumerate(order):
        position[v] = i
    text = bytearray(b"0" * (n * (n - 1) // 2))
    for v, nb in enumerate(g.adj):
        j = position[v]
        column = j * (j - 1) // 2
        for u in bits(nb):
            i = position[u]
            if i < j:
                text[column + i] = 49  # "1"
    return int(text, 2) if text else 0


def _twin_below(adj) -> list[int]:
    """``out[v]`` is the largest ``u < v`` with ``N(u) - {v} == N(v) - {u}``,
    or -1.  Twinship is an equivalence relation, so these links chain each
    twin class in increasing order, and swapping twins is an automorphism."""
    out = []
    for v, av in enumerate(adj):
        twin = -1
        for u in range(v):
            if adj[u] & ~(1 << v) == av & ~(1 << u):
                twin = u
        out.append(twin)
    return out


def _canonical_search(adj) -> tuple[int, list[int], list[list[int]]]:
    """Lexicographically minimal column-major code over all relabellings.

    Branch-and-bound over partial vertex orderings: placing position j fixes
    the next j bits of the code, the block of adjacencies to the j vertices
    already placed, so prefixes are comparable and branches whose prefix
    exceeds the best known code are cut.  Of unplaced twins only the
    smallest is branched on, since swapping two twins maps one subtree onto
    the other.

    Only candidates with the least block are branched on.  A prefix no
    larger than the best code's always completes to a leaf no larger than
    the best code, so once the least block is explored the best code's
    prefix is at most that block's, and any larger block would be cut.
    Those candidates come from a mask filter, with no per-vertex list:
    going through the placed vertices in order, keep the candidates not
    adjacent to the next one if any exist (block bit 0), else keep them all
    (block bit 1).

    Returns the code, the first ordering reaching it (position -> vertex),
    and generators of the automorphism group as vertex maps: every other
    ordering reaching the code, set against the first, plus the
    transpositions of consecutive twins.
    """
    n = len(adj)
    twin = _twin_below(adj)
    # A twin may be placed once its next smaller twin is: placing u makes
    # released[u] ready.
    released = [0] * n
    ready = 0
    for v, u in enumerate(twin):
        if u >= 0:
            released[u] = 1 << v
        else:
            ready |= 1 << v
    total_bits = n * (n - 1) // 2
    bits_after = [total_bits - (j + 1) * j // 2 for j in range(n)]
    best = 1 << total_bits  # above every code
    found: list[list[int]] = []
    order: list[int] = []
    # Non-neighbourhoods of the placed vertices, in order.
    apart: list[int] = []

    def search(ready: int, acc: int):
        nonlocal best
        j = len(order)
        if j == n:
            if acc < best:
                best = acc
                found.clear()
            found.append(order[:])
            return
        ties = ready
        for far in apart:
            acc <<= 1
            if ties & far:
                ties &= far
            else:
                acc |= 1
        for v in bits(ties):
            if acc > best >> bits_after[j]:
                return
            order.append(v)
            apart.append(~adj[v])
            search(ready & ~(1 << v) | released[v], acc)
            order.pop()
            apart.pop()

    search(ready, 0)
    first = found[0]
    gens = []
    for other in found[1:]:
        perm = [0] * n
        for a, b in zip(first, other):
            perm[a] = b
        gens.append(perm)
    for v, u in enumerate(twin):
        if u >= 0:
            perm = list(range(n))
            perm[u], perm[v] = v, u
            gens.append(perm)
    return best, first, gens


def canonical_form(g: Graph) -> int:
    """Lexicographically minimal adjacency bitstring over all relabellings
    (the column-major upper triangle, as an int)."""
    return _canonical_search(g.adj)[0]


def graph_from_triangle_code(n: int, code: int) -> Graph:
    """The graph on n vertices whose upper triangle is ``code`` (the layout
    of ``_triangle_code``)."""
    return graph_from_triangle_bits(n, format(code, "0%db" % (n * (n - 1) // 2)))


def graph_from_triangle_bits(n: int, text: str) -> Graph:
    """``graph_from_triangle_code`` from the code's n(n - 1)/2 binary digits,
    most significant first.  Column j, the pairs (i, j) for i < j, is the j
    digits after the first j(j - 1)/2; read backwards it is the mask of the
    neighbours of j below j.  So each column costs one ``int``, where a
    shift of the whole code per pair made the read quadratic in the pairs."""
    backwards = text[::-1]
    adj = [0] * n
    stop = len(backwards)
    for j in range(1, n):
        start = stop - j
        below = int(backwards[start:stop], 2)
        stop = start
        adj[j] = below
        for i in bits(below):
            adj[i] |= 1 << j
    return Graph(n, tuple(adj))


def _subset_orbit_reps(n: int, gens) -> list[int]:
    """The smallest member of each orbit of the subsets of ``range(n)``
    under the group generated by the vertex maps ``gens``."""
    root = list(range(1 << n))

    def find(s: int) -> int:
        while root[s] != s:
            root[s] = root[root[s]]
            s = root[s]
        return s

    image = [0] * (1 << n)
    for perm in gens:
        for s in range(1, 1 << n):
            low = s & -s
            image[s] = image[s ^ low] | 1 << perm[low.bit_length() - 1]
        for s in range(1 << n):
            a, b = find(s), find(image[s])
            if a != b:  # the smaller root wins, so a root is its set's minimum
                root[max(a, b)] = min(a, b)
    return [s for s in range(1 << n) if root[s] == s]


def _orbit(v: int, gens) -> int:
    """The orbit of vertex ``v`` under the group generated by ``gens``, as a
    bitmask."""
    orbit = frontier = 1 << v
    while frontier:
        grow = 0
        for u in bits(frontier):
            for perm in gens:
                grow |= 1 << perm[u]
        frontier = grow & ~orbit
        orbit |= frontier
    return orbit


@lru_cache(maxsize=None)
def _canonical_codes(n: int) -> tuple[int, ...]:
    """The canonical codes of all graphs on n vertices, sorted."""
    return tuple(sorted(_canonical_classes(n)))


@lru_cache(maxsize=None)
def _canonical_classes(n: int) -> dict[int, list[list[int]] | tuple[()]]:
    """Each class on n vertices: its canonical code -> generators of its
    automorphism group, as vertex maps of ``graph_from_triangle_code(n, code)``
    (none for n = ENUMERATION_MAX_N, whose classes are never extended).

    Canonical augmentation (McKay, J. Algorithms 1998): each class on n - 1
    vertices gets a new vertex n - 1 joined to one neighbourhood per orbit of
    its automorphism group, and a child is kept only if the new vertex lies
    in the orbit of its canonical deletion vertex.  That vertex has the
    largest (degree, sum of neighbour degrees), ties going to the earliest
    position in the canonical ordering.  Every class is then produced once,
    and the search that accepts it already yields its generators.
    """
    if n == 0:
        return {0: []}
    new = n - 1
    classes = {}
    for parent_code, parent_gens in _canonical_classes(n - 1).items():
        base = list(graph_from_triangle_code(n - 1, parent_code).adj)
        for nbhood in _subset_orbit_reps(n - 1, parent_gens):
            adj = base + [nbhood]
            for v in bits(nbhood):
                adj[v] |= 1 << new
            deg = [nb.bit_count() for nb in adj]
            if deg[new] < max(deg):
                continue  # degree alone keeps the new vertex out
            key = [(deg[v], sum(deg[u] for u in bits(adj[v]))) for v in range(n)]
            top = max(key)
            if key[new] < top:
                continue  # the new vertex cannot be in the deletion orbit
            code, order, gens = _canonical_search(adj)
            delete = next(v for v in order if key[v] == top)
            if _orbit(delete, gens) >> new & 1:
                # Vertex i of the code's graph is vertex order[i] of adj.
                pos = [0] * n
                for i, v in enumerate(order):
                    pos[v] = i
                classes[code] = (
                    [[pos[perm[v]] for v in order] for perm in gens]
                    if n < ENUMERATION_MAX_N
                    else ()
                )
    return classes


def check_enumeration(n: int) -> None:
    """Raise unless ``enumerate_graphs`` supports n vertices: one guard, in
    the ``check_budget`` format, for every enumeration request."""
    if n < 0:
        raise ValueError(f"enumerate_graphs: negative n={n}")
    check_budget("enumerate_graphs", n, ENUMERATION_MAX_N)


def enumerate_graphs(n: int):
    """All graphs on n vertices, one canonical representative per
    isomorphism class, in deterministic (code) order."""
    check_enumeration(n)
    for code in _canonical_codes(n):
        yield graph_from_triangle_code(n, code)
