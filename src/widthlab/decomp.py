"""Decomposition witnesses: data types, validation, costs, and transforms.

Bags and hyperedges are vertex bitmasks of the host graph.  Validators
return structured violation lists (empty means valid), so tests can assert
exactly which condition broke.  The constructive transforms build a tree
decomposition from a feedback vertex set and a clique tree of a chordal
graph.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .graphs import Graph, bits, components
from .invariants import SubsetAlpha, is_chordal, maximal_cliques_chordal


class CostKind(enum.Enum):
    """The annotated bag cost: plain cardinality or independence number."""

    CARDINALITY = "card"
    INDEPENDENCE = "alpha"

    @staticmethod
    def parse(text: str) -> "CostKind":
        key = text.strip().lower()
        if key in ("card", "cardinality"):
            return CostKind.CARDINALITY
        if key in ("alpha", "independence"):
            return CostKind.INDEPENDENCE
        raise ValueError(f"unknown cost kind {text!r}")


@dataclass(frozen=True)
class Violation:
    kind: str
    detail: str

    def __str__(self):
        return f"{self.kind}: {self.detail}"


class InvalidDecompositionError(ValueError):
    def __init__(self, violations):
        super().__init__("; ".join(map(str, violations)))
        self.violations = list(violations)


@dataclass(frozen=True)
class TreeDecomposition:
    """Bags indexed by node id 0..len(bags)-1, plus tree edges."""

    bags: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    def hyperedges(self) -> tuple[int, ...]:
        return self.bags

    def to_json(self) -> dict:
        return {
            "nodes": list(range(len(self.bags))),
            "edges": [list(e) for e in self.edges],
            "bags": [sorted(bits(b)) for b in self.bags],
        }


@dataclass(frozen=True)
class PathDecomposition:
    """An ordered bag sequence; the underlying tree is the implicit path."""

    bags: tuple[int, ...]

    def hyperedges(self) -> tuple[int, ...]:
        return self.bags

    def as_tree(self) -> TreeDecomposition:
        edges = tuple((i, i + 1) for i in range(len(self.bags) - 1))
        return TreeDecomposition(self.bags, edges)

    def to_json(self) -> dict:
        return {"bags": [sorted(bits(b)) for b in self.bags]}


@dataclass(frozen=True)
class RootedForest:
    """parent[v] is the parent vertex, or None for roots; covers V(G)."""

    parent: tuple[int | None, ...]

    @property
    def n(self) -> int:
        return len(self.parent)

    def roots(self) -> tuple[int, ...]:
        return tuple(v for v, p in enumerate(self.parent) if p is None)

    def children(self) -> list[list[int]]:
        kids: list[list[int]] = [[] for _ in range(self.n)]
        for v, p in enumerate(self.parent):
            if p is not None:
                kids[p].append(v)
        return kids

    def ancestors_mask(self, v: int) -> int:
        m = 0
        p = self.parent[v]
        while p is not None:
            m |= 1 << p
            p = self.parent[p]
        return m

    def root_to_leaf_sets(self) -> tuple[int, ...]:
        """Vertex sets of the root-to-leaf paths, in DFS leaf order.

        Children and roots are visited in ascending vertex order, which makes
        the derived path decomposition reproducible.
        """
        kids = self.children()
        sets = []
        stack = [(r, 0) for r in reversed(self.roots())]  # popped lowest first
        while stack:
            v, above = stack.pop()
            here = above | 1 << v
            if kids[v]:
                stack += [(c, here) for c in reversed(kids[v])]
            else:
                sets.append(here)
        return tuple(sets)

    def hyperedges(self) -> tuple[int, ...]:
        return self.root_to_leaf_sets()

    def to_json(self) -> dict:
        return {"parent": list(self.parent)}


Decomposition = TreeDecomposition | PathDecomposition | RootedForest


# ---------------------------------------------------------------------------
# Validation


def validate_tree_decomposition(g: Graph, td: TreeDecomposition) -> list[Violation]:
    out = []
    k = len(td.bags)
    for i, bag in enumerate(td.bags):
        if bag & ~g.full_mask:
            out.append(Violation("bag-out-of-range", f"bag {i} has vertices >= {g.n}"))
    for a, b in td.edges:
        if not (0 <= a < k and 0 <= b < k) or a == b:
            out.append(Violation("tree-bad-edge", f"edge ({a},{b})"))
            return out
    # The tree must be acyclic and connected (vacuously fine when empty).
    nbrs: list[list[int]] = [[] for _ in range(k)]
    for a, b in td.edges:
        nbrs[a].append(b)
        nbrs[b].append(a)
    if len(td.edges) != max(k - 1, 0):
        out.append(
            Violation("tree-not-tree", f"{k} nodes but {len(td.edges)} edges")
        )
    else:
        seen = set()
        stack = [0] if k else []
        while stack:
            x = stack.pop()
            if x in seen:
                continue
            seen.add(x)
            stack.extend(nbrs[x])
        if len(seen) != k:
            out.append(Violation("tree-not-tree", "tree is disconnected"))
    covered = 0
    for bag in td.bags:
        covered |= bag
    for v in bits(g.full_mask & ~covered):
        out.append(Violation("vertex-uncovered", f"vertex {v} in no bag"))
    for u, v in g.edges():
        need = 1 << u | 1 << v
        if not any(bag & need == need for bag in td.bags):
            out.append(Violation("edge-uncovered", f"edge {u}-{v} in no bag"))
    # Connected occurrence of every vertex.
    if not any(v.kind == "tree-not-tree" for v in out):
        for v in bits(covered & g.full_mask):
            nodes = [i for i, bag in enumerate(td.bags) if bag >> v & 1]
            seen = {nodes[0]}
            stack = [nodes[0]]
            want = set(nodes)
            while stack:
                x = stack.pop()
                for y in nbrs[x]:
                    if y in want and y not in seen:
                        seen.add(y)
                        stack.append(y)
            if seen != want:
                out.append(
                    Violation(
                        "occurrence-disconnected",
                        f"vertex {v} occurs in a disconnected node set",
                    )
                )
    return out


def validate_path_decomposition(g: Graph, pd: PathDecomposition) -> list[Violation]:
    return validate_tree_decomposition(g, pd.as_tree())


def validate_treedepth_decomposition(g: Graph, f: RootedForest) -> list[Violation]:
    out = []
    if f.n != g.n:
        return [Violation("forest-domain", f"forest on {f.n} vertices, graph has {g.n}")]
    for v, p in enumerate(f.parent):
        if p is not None and not 0 <= p < f.n:
            return [Violation("forest-domain", f"parent of {v} out of range")]
    # Acyclicity of the parent relation.
    state = [0] * f.n  # 0 unseen, 1 on path, 2 done
    for v in range(f.n):
        path = []
        x = v
        while x is not None and state[x] == 0:
            state[x] = 1
            path.append(x)
            x = f.parent[x]
        if x is not None and state[x] == 1:
            return [Violation("forest-cycle", f"parent cycle through {x}")]
        for y in path:
            state[y] = 2
    for u, v in g.edges():
        anc_u = f.ancestors_mask(u)
        anc_v = f.ancestors_mask(v)
        if not (anc_u >> v & 1 or anc_v >> u & 1):
            out.append(
                Violation(
                    "edge-endpoints-incomparable",
                    f"edge {u}-{v} joins incomparable vertices",
                )
            )
    return out


def validate(g: Graph, d: Decomposition) -> list[Violation]:
    if isinstance(d, TreeDecomposition):
        return validate_tree_decomposition(g, d)
    if isinstance(d, PathDecomposition):
        return validate_path_decomposition(g, d)
    if isinstance(d, RootedForest):
        return validate_treedepth_decomposition(g, d)
    raise TypeError(f"not a decomposition: {d!r}")


# ---------------------------------------------------------------------------
# Costs


def cost(g: Graph, d: Decomposition, kind: CostKind, *, check: bool = True) -> int:
    """max over hyperedges X of lambda(G, X); 0 for an empty decomposition."""
    if check:
        violations = validate(g, d)
        if violations:
            raise InvalidDecompositionError(violations)
    hyperedges = d.hyperedges()
    if not hyperedges:
        return 0
    if kind is CostKind.CARDINALITY:
        return max(h.bit_count() for h in hyperedges)
    alpha = SubsetAlpha(g)
    return max(alpha(h) for h in hyperedges)


# ---------------------------------------------------------------------------
# Constructive transforms


def tree_decomp_from_fvs(g: Graph, s: int) -> TreeDecomposition:
    """Clique bags of the forest g - s, with s added to every bag.  On masks
    of g: g - s is a forest exactly when its degrees sum to 2(|V - s| -
    #trees)."""
    adj = g.adj
    rest = g.full_mask & ~s
    trees = components(adj, rest)
    if sum((adj[v] & rest).bit_count() for v in bits(rest)) != 2 * (rest.bit_count() - len(trees)):
        raise ValueError("g - s is not acyclic")
    bags = []
    edges = []
    node_of = [0] * g.n  # the bag that put each vertex in; a root's is its tree's first
    tree_entries = []  # each tree's first bag; its bags are contiguous
    for tree in trees:
        tree_entries.append(len(bags))
        root = tree & -tree
        if tree == root:
            bags.append(root | s)
            continue
        # One bag per forest edge, attached along a DFS of the tree.
        seen = root
        stack = [root.bit_length() - 1]
        node_of[stack[0]] = len(bags)
        while stack:
            v = stack.pop()
            new = adj[v] & rest & ~seen
            seen |= new
            for u in bits(new):
                node = len(bags)
                bags.append(1 << v | 1 << u | s)
                if node != node_of[v]:  # all but the root's first edge
                    edges.append((node_of[v], node))
                node_of[u] = node
                stack.append(u)
    if not bags:
        return TreeDecomposition((s,) if s else (), ())
    # Join the per-tree subtrees into one tree.
    for a, b in zip(tree_entries, tree_entries[1:]):
        edges.append((a, b))
    return TreeDecomposition(tuple(bags), tuple(edges))


def chordal_clique_tree(g: Graph) -> TreeDecomposition:
    """A clique tree of a chordal graph (every bag is a maximal clique)."""
    ok, peo = is_chordal(g)
    if not ok:
        raise ValueError("graph is not chordal")
    if g.n == 0:
        return TreeDecomposition((), ())
    cliques = maximal_cliques_chordal(g, peo)
    k = len(cliques)
    # Maximum-weight spanning tree on intersection sizes (Prim) yields a
    # junction tree; ties resolved toward smaller node ids.
    in_tree = 1  # a mask of node ids
    edges = []
    for _ in range(k - 1):
        _, a, b = max(
            ((cliques[a] & cliques[b]).bit_count(), -a, -b)
            for a in range(k) if in_tree >> a & 1
            for b in range(k) if not in_tree >> b & 1
        )
        in_tree |= 1 << -b
        edges.append((-a, -b))
    return TreeDecomposition(tuple(cliques), tuple(edges))
