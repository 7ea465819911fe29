"""Exact solvers for the annotated width parameters.

Each solver minimises the maximum bag cost lambda over a decomposition
family, for lambda either bag cardinality or the independence number of the
bag.  Values come with validated witnesses.

Algorithms (all exact for monotone bag costs):

* treewidth and pathwidth share one dynamic program over vertex subsets
  (Bodlaender, Fomin, Koster, Kratsch & Thilikos, "On exact algorithms for
  treewidth", ACM TALG 2012): f(S) is the least possible maximum bag cost
  over the orderings that place S first, and f(S) = min over v in S of
  max(f(S - v), cost(bag(S - v, v))).  Only the bag function differs.
  - treewidth: the bag of v is v plus the unplaced vertices it reaches
    through placed ones, i.e. the elimination bag.  Any tree decomposition
    refines to the clique tree of a chordal completion, and the completions
    reachable by vertex elimination include all minimal ones, so the DP
    minimum equals the decomposition minimum.
  - pathwidth: the bag of v is the boundary of the placed set (its vertices
    with a neighbour outside it) plus v; a first-appearance ordering of any
    path decomposition produces bags inside the original ones.
  The DP reads bag costs from a dense table over all 2^n subsets (popcounts,
  or alpha filled in one pass).
* pathwidth decision form: a pruned depth-first search over feasible
  prefixes.  Each bag is the boundary B of a prefix plus one vertex v
  outside B, so |B + v| = |B| + 1 and alpha(B + v) = max(alpha(B),
  1 + alpha(B - N(v))).  B lies inside the bag that admitted the prefix, so
  cost(B) <= k, and the search reads cost(B) once per state: below k every
  vertex fits, at k only (under alpha) a v with alpha(B - N(v)) < k.  One
  lowest-first pass per state; the first fitting vertex with no unplaced
  neighbour is the only branch.  The treedepth form takes B = the ancestors.
* treedepth under cardinality: one pass over all 2^n subsets in numeric
  order (the O*(2^n) baseline of Fomin, Giannopoulou & Pilipczuk,
  "Computing tree-depth faster than 2^n", Algorithmica 2015).  A
  disconnected s takes the larger height of its lowest vertex's component
  and the rest; a connected s takes 1 + min over v of td(s - v), with the
  lowest such v as its root.  The forest is rebuilt from the root table.
* treedepth under alpha: recursion on a connected component below its
  ancestor set, choosing the component's root; a root-to-leaf path costs
  alpha of the ancestors plus the path, so the memo keys on (component,
  ancestor set).  Every path pays at least floor = max over v of
  alpha(ancestors + v), so the root loop stops at the first root that
  reaches floor; if alpha(ancestors + component) is already floor, every
  root reaches it and the lowest one is taken without recursing.
* degeneracy: greedy peeling of a vertex with the cheapest closed
  neighbourhood cost; exact because the cost is monotone under subsets.

The exact tw, pw and td solvers keep 2^n-entry tables, within one budget,
``width_exact``.  The subset DP reads at most n * 2^(n-1) bag costs, one per
pair (s, v in s), and builds n more bags for the witness.  They share two
per-graph tables, each cached for the last graph asked and read-only to
every caller: ``graphs.reach_table``, the union of the neighbourhoods of
every subset, and ``invariants.alpha_table``, alpha of every subset.  reach
answers their connectivity questions by lookups instead of searches.  The tw
loop grows low's component in s inline with ``reach[comp] & s``, and only
for the pairs that survive the ``f(s - v) >= best`` prune.  The pw loop reads
the boundary of placed, ``reach[full - placed] & placed``, from a list filled
once per set, not once per pair.  The td components come from
``graphs.reach_components``.  The bag functions build only the witness bags.
The tw, pw and td loops over the vertices of s read its one-bit masks from
``_one_bits``, one module-level table grown by doubling: the table for n is a
prefix of the one for n + 1, so alternating sizes extend it and never
rebuild it.  At n = 16 it holds 65,536 tuples, about 7 MB, built in about
0.1 s.  ``_popcounts`` grows the same way.  The decision forms, which run
past those sizes, and degeneracy visit a sparse family of subsets and keep
the breadth-first ``graphs.components`` and the memoised ``SubsetAlpha``
oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .config import Budgets, DEFAULT_BUDGETS
from .decomp import (
    CostKind,
    PathDecomposition,
    RootedForest,
    TreeDecomposition,
)
from .graphs import Graph, bits, check_budget, components, reach_components, reach_table
from .invariants import SubsetAlpha, alpha_table, largest_choice


@dataclass(frozen=True)
class WidthResult:
    value: int
    witness: Any
    kind: CostKind


def _bag_cost_fn(g: Graph, kind: CostKind):
    if kind is CostKind.CARDINALITY:
        return int.bit_count
    return SubsetAlpha(g)


# ---------------------------------------------------------------------------
# The subset DP shared by treewidth and pathwidth

# Per-mask tables over all n: the masks with v as their highest bit come
# right after all masks below it, so each vertex doubles a table, and the
# table for n is a prefix of the one for n + 1.  Each is grown on demand,
# never rebuilt, and read-only to callers.
_POPCOUNTS = [0]
_ONE_BITS: list[tuple[int, ...]] = [()]


def _popcounts(n: int) -> list[int]:
    """The cardinality bag costs: ``_popcounts(n)[s]`` is |s| for s < 2^n."""
    table = _POPCOUNTS
    while len(table) < 1 << n:
        table += [c + 1 for c in table]
    return table


def _one_bits(n: int) -> list[tuple[int, ...]]:
    """``_one_bits(n)[s]`` is the one-bit masks of s in increasing order,
    for s < 2^n."""
    table = _ONE_BITS
    while len(table) < 1 << n:
        bit = len(table)  # 1 << v for the next vertex v
        table += [t + (bit,) for t in table]
    return table


def _subset_dp(g: Graph, kind: CostKind, treewidth: bool) -> tuple[int, list[int], list[int]]:
    """Minimise the largest bag cost over the orderings of all vertices, with
    the elimination bags of treewidth or the boundary bags of pathwidth.

    Returns the optimum, an optimal ordering and its bags.  Every proper
    subset of s is numerically smaller than s, so plain numeric order solves
    it first; trying vertices in increasing order with a strict improvement
    test fixes which optimal ordering is returned.
    """
    n = g.n
    full = (1 << n) - 1
    bag_cost = _popcounts(n) if kind is CostKind.CARDINALITY else alpha_table(g.adj)
    reach = reach_table(g.adj)
    one_bits = _one_bits(n)
    worst = n + 1  # above every bag cost
    f = [worst] * (full + 1)
    choice = [0] * (full + 1)  # the one-bit mask placed last among s
    f[0] = 0
    if treewidth:
        for s in range(1, full + 1):
            best = worst
            out = full ^ s
            for low in one_bits[s]:
                sub = f[s ^ low]
                if sub >= best:
                    continue
                # The bag: low plus the neighbours outside s of low's
                # component in s.
                comp, grow = low, reach[low] & s | low
                while grow != comp:
                    comp = grow
                    grow = reach[comp] & s | comp
                value = bag_cost[reach[comp] & out | low]
                if value < sub:
                    value = sub
                if value < best:
                    best, pick = value, low
            f[s] = best
            choice[s] = pick
        bag = _elimination_bags(reach)
    else:
        # The boundary of every set: its vertices with a neighbour outside.
        boundary = [reach[full ^ s] & s for s in range(full + 1)]
        for s in range(1, full + 1):
            best = worst
            for low in one_bits[s]:
                prev = s ^ low
                sub = f[prev]
                if sub >= best:
                    continue
                value = bag_cost[boundary[prev] | low]
                if value < sub:
                    value = sub
                if value < best:
                    best, pick = value, low
            f[s] = best
            choice[s] = pick

        def bag(placed: int, low: int) -> int:
            return boundary[placed] | low

    order = []
    s = full
    while s:
        order.append(choice[s].bit_length() - 1)
        s ^= choice[s]
    order.reverse()
    bags = []
    placed = 0
    for v in order:
        bags.append(bag(placed, 1 << v))
        placed |= 1 << v
    return f[full], order, bags


def _grow_boundary(closed, b: int, s: int, low: int) -> int:
    """The boundary of s (its vertices with a neighbour outside s), given the
    boundary b of s minus the vertex ``low``.

    Only ``low`` and its neighbours can change status; u in s stays on the
    boundary while its closed neighbourhood meets the outside of s.
    """
    b |= low
    m = b & closed[low.bit_length() - 1]
    while m:
        u = m & -m
        m ^= u
        if not closed[u.bit_length() - 1] & ~s:
            b ^= u
    return b


# ---------------------------------------------------------------------------
# Treewidth


def _elimination_bags(reach: list[int]):
    """The treewidth bag function over ``reach = reach_table(adj)``."""

    def elimination_bag(placed: int, low: int) -> int:
        # low plus the unplaced vertices reachable from it through placed:
        # the neighbours outside s of low's component in s.
        s = placed | low
        comp, grow = 0, low
        while grow != comp:
            comp = grow
            grow = reach[comp] & s | comp
        return reach[comp] & ~s | low

    return elimination_bag


def lambda_treewidth(
    g: Graph, kind: CostKind, budgets: Budgets = DEFAULT_BUDGETS
) -> WidthResult:
    check_budget("lambda_treewidth", g.n, budgets.width_exact)
    if g.n == 0:
        return WidthResult(0, TreeDecomposition((), ()), kind)
    value, order, bags = _subset_dp(g, kind, treewidth=True)
    position = {v: i for i, v in enumerate(order)}
    edges = []
    loose = []
    for i, v in enumerate(order):
        rest = bags[i] & ~(1 << v)
        if rest:
            j = min(position[u] for u in bits(rest))
            edges.append((i, j))
        else:
            loose.append(i)
    # Bags that finished a component become roots; chain them into one tree.
    for a, b in zip(loose, loose[1:]):
        edges.append((a, b))
    witness = TreeDecomposition(tuple(bags), tuple(edges))
    return WidthResult(value, witness, kind)


# ---------------------------------------------------------------------------
# Pathwidth


def lambda_pathwidth(
    g: Graph, kind: CostKind, budgets: Budgets = DEFAULT_BUDGETS
) -> WidthResult:
    check_budget("lambda_pathwidth", g.n, budgets.width_exact)
    if g.n == 0:
        return WidthResult(0, PathDecomposition(()), kind)
    value, _, bags = _subset_dp(g, kind, treewidth=False)
    return WidthResult(value, PathDecomposition(tuple(bags)), kind)


def lambda_pw_at_most(
    g: Graph, kind: CostKind, k: int, budgets: Budgets = DEFAULT_BUDGETS
) -> bool:
    """Decide lambda-pw(g) <= k by pruned search over placed prefixes.

    A vertex whose whole neighbourhood is already placed is taken greedily
    whenever its bag fits the budget: moving it forward only shrinks later
    bags, so restricting the branching preserves completeness.

    Every bag is the boundary B of the placed set plus one vertex v outside
    B, so |B + v| = |B| + 1 and alpha(B + v) = max(alpha(B), 1 + alpha(B -
    N(v))).  B lies inside the bag that admitted the placed set, so cost(B)
    <= k.  The search reads cost(B) once per state: below k every bag fits;
    at k no bag fits under cardinality, and under alpha v fits exactly when
    N(v) meets B and alpha(B - N(v)) < k.
    """
    check_budget("lambda_pw_at_most", g.n, budgets.pw_decision)
    n = g.n
    if n == 0:
        return k >= 0
    if k <= 0:
        return False
    bag_cost = _bag_cost_fn(g, kind)
    by_size = kind is CostKind.CARDINALITY
    adj = g.adj
    closed = [nb | 1 << v for v, nb in enumerate(adj)]
    full = (1 << n) - 1

    # Stack entries are (placed set, its boundary).
    seen = {0}
    stack = [(0, 0)]
    while stack:
        s, boundary = stack.pop()
        if s == full:
            return True
        tight = bag_cost(boundary) == k
        if tight and by_size:
            continue  # every bag costs k + 1
        rest = full & ~s
        # The vertices that fit, lowest first; the first finished one is the only branch.
        fits = []
        m = rest
        while m:
            low = m & -m
            m ^= low
            nb = adj[low.bit_length() - 1]
            if tight and not (nb & boundary and bag_cost(boundary & ~nb) < k):
                continue
            if not nb & rest:
                fits = [low]
                break
            fits.append(low)
        # Push from the highest vertex down: the lowest is expanded first.
        for low in reversed(fits):
            t = s | low
            if t not in seen:
                seen.add(t)
                stack.append((t, _grow_boundary(closed, boundary, t, low)))
    return False


# ---------------------------------------------------------------------------
# Treedepth


def _treedepth_table(adj) -> tuple[list[int], list[int]]:
    """td of the subgraph induced on every subset and, for the connected
    ones, the lowest root that attains it, indexed by bitmask.

    With c the component of s that holds its lowest vertex, td(s) is
    max(td(c), td(s - c)) when c != s, and 1 + min over v in s of td(s - v)
    when s is connected.  Both read only proper subsets of s, which are
    numerically smaller, so one pass in numeric order fills the table.
    """
    reach = reach_table(adj)
    one_bits = _one_bits(len(adj))
    size = len(reach)
    height = [0] * size
    root = [0] * size
    for s in range(1, size):
        comp, grow = 0, s & -s
        while grow != comp:
            comp = grow
            grow = reach[comp] & s | comp
        if comp != s:
            a, b = height[comp], height[s ^ comp]
            height[s] = a if a > b else b
            continue
        best = size
        for low in one_bits[s]:
            h = height[s ^ low]
            if h < best:
                best, best_root = h, low
        height[s] = best + 1
        root[s] = best_root.bit_length() - 1
    return height, root


def _alpha_treedepth(adj):
    """solve(comp, above): the least alpha cost of a forest on the connected
    component comp below the ancestor set above, and its lowest optimal root.
    """
    n = len(adj)
    cost = alpha_table(adj)
    reach = reach_table(adj)
    one_bits = _one_bits(n)
    memo: dict[int, tuple[int, int]] = {}

    def solve(comp: int, above: int) -> tuple[int, int]:
        if comp & (comp - 1) == 0:
            return cost[above | comp], comp.bit_length() - 1
        key = comp | above << n
        cached = memo.get(key)
        if cached is not None:
            return cached
        roots = []  # (cost(above + v), v as a one-bit mask)
        floor = 0  # every root-to-leaf path pays at least this
        for low in one_bits[comp]:
            here = cost[above | low]
            roots.append((here, low))
            if here > floor:
                floor = here
        if cost[above | comp] == floor:  # every root reaches floor
            best, best_root = floor, (comp & -comp).bit_length() - 1
        else:
            best, best_root = n + 1, -1
            for here, low in roots:
                if here >= best:
                    continue
                value = here
                below = above | low
                for sub in reach_components(reach, comp ^ low):
                    # A single vertex is one leaf: no call needed.
                    h = cost[below | sub] if sub & (sub - 1) == 0 else solve(sub, below)[0]
                    if h > value:
                        value = h
                        if value >= best:
                            break
                if value < best:
                    best, best_root = value, low.bit_length() - 1
                    if best == floor:
                        break
        memo[key] = (best, best_root)
        return best, best_root

    return solve


def lambda_treedepth(
    g: Graph, kind: CostKind, budgets: Budgets = DEFAULT_BUDGETS
) -> WidthResult:
    check_budget("lambda_treedepth", g.n, budgets.width_exact)
    if g.n == 0:
        return WidthResult(0, RootedForest(()), kind)
    adj = g.adj
    if kind is CostKind.CARDINALITY:
        height, roots = _treedepth_table(adj)

        def solve(comp: int, above: int) -> tuple[int, int]:
            return height[comp], roots[comp]

    else:
        solve = _alpha_treedepth(adj)
    reach = reach_table(adj)
    parent: list[int | None] = [None] * g.n

    def build(comp: int, above: int, parent_vertex: int | None):
        root = solve(comp, above)[1]
        parent[root] = parent_vertex
        for sub in reach_components(reach, comp & ~(1 << root)):
            build(sub, above | 1 << root, root)

    value = 0
    for comp in reach_components(reach, g.full_mask):
        value = max(value, solve(comp, 0)[0])
        build(comp, 0, None)
    return WidthResult(value, RootedForest(tuple(parent)), kind)


def lambda_td_at_most(
    g: Graph, kind: CostKind, k: int, budgets: Budgets = DEFAULT_BUDGETS
) -> bool:
    """Decide lambda-td(g) <= k via the component recursion with pruning.

    A root v of a component below the ancestor set A makes the path A + v,
    and v is outside A, so |A + v| = |A| + 1 and alpha(A + v) = max(alpha(A),
    1 + alpha(A - N(v))).  A itself is a path that was admitted, so cost(A)
    <= k.  The recursion reads cost(A) once per state: below k every root
    fits; at k no root fits under cardinality, and under alpha v fits
    exactly when N(v) meets A and alpha(A - N(v)) < k.
    """
    check_budget("lambda_td_at_most", g.n, budgets.td_decision)
    if g.n == 0:
        return k >= 0
    if k <= 0:
        return False
    adj = g.adj
    bag_cost = _bag_cost_fn(g, kind)
    # Under cardinality the cost of a subtree only depends on the stack
    # height, so the ancestor set collapses to its size in the memo key.
    by_height = kind is CostKind.CARDINALITY
    memo: dict[tuple[int, int], bool] = {}

    def feasible(comp: int, above: int) -> bool:
        if comp & (comp - 1) == 0:  # a single vertex: one leaf bag
            return bag_cost(above | comp) <= k
        key = (comp, above.bit_count() if by_height else above)
        cached = memo.get(key)
        if cached is not None:
            return cached
        tight = bag_cost(above) == k
        ranked = []
        m = 0 if tight and by_height else comp  # under cardinality every root costs k + 1
        while m:
            low = m & -m
            m ^= low
            if tight:
                nb = adj[low.bit_length() - 1]
                if not nb & above or bag_cost(above & ~nb) >= k:
                    continue
            subs = components(adj, comp ^ low)
            largest = max((c.bit_count() for c in subs), default=0)
            ranked.append((largest, low, subs))
        # Kept eager: lazy lowest-first roots were 100x slower (BENCH_22.json).
        ranked.sort()  # the distinct masks low break every tie
        ok = any(all(feasible(sub, above | low) for sub in subs) for _, low, subs in ranked)
        memo[key] = ok
        return ok

    return all(feasible(comp, 0) for comp in g.components())


# ---------------------------------------------------------------------------
# Degeneracy and its independence variant


def degeneracy(g: Graph, kind: CostKind) -> WidthResult:
    """Greedy peeling; the witness is the peeling order."""
    bag_cost = _bag_cost_fn(g, kind)
    adj = g.adj
    remaining = g.full_mask
    order = []
    value = 0
    while remaining:
        best_v, best_c = -1, None
        for v in bits(remaining):
            c = bag_cost(adj[v] & remaining & ~(1 << v))
            if best_c is None or c < best_c:
                best_v, best_c = v, c
        value = max(value, best_c)
        order.append(best_v)
        remaining &= ~(1 << best_v)
    return WidthResult(value, tuple(order), kind)


# ---------------------------------------------------------------------------
# alpha-chromatic number


def alpha_chromatic(g: Graph, budgets: Budgets = DEFAULT_BUDGETS) -> WidthResult:
    """Minimum over proper colourings of the largest rainbow independent set.

    Colourings are enumerated as partitions into independent sets in
    first-occurrence order.  For any colouring, the maximum of alpha over
    rainbow sets equals the maximum size of an independent set with pairwise
    distinct colours, since independent subsets of rainbow sets are rainbow.
    That size is ``invariants.largest_choice`` over the colour classes,
    smallest first, with independence as the rule: one vertex or none per
    class.  A partial colouring is dropped once its value, which only grows
    as vertices are added, reaches the best complete one; the witness is the
    first colouring found at the minimum.
    """
    check_budget("alpha_chromatic", g.n, budgets.alpha_chromatic)
    n = g.n
    if n == 0:
        return WidthResult(0, (), CostKind.INDEPENDENCE)
    adj = g.adj
    best = n + 1
    best_blocks: tuple[int, ...] = ()

    def fits(chosen: int, v: int) -> bool:  # a rainbow set stays independent
        return not adj[v] & chosen

    blocks: list[int] = []  # the colour classes of the vertices below v, none empty

    def assign(v: int):
        nonlocal best, best_blocks
        if best == 1:
            return
        value = largest_choice(sorted(blocks, key=int.bit_count), fits)
        if value >= best:
            return
        if v == n:
            best = value
            best_blocks = tuple(blocks)
            return
        for b in range(len(blocks)):
            if not adj[v] & blocks[b]:
                blocks[b] |= 1 << v
                assign(v + 1)
                blocks[b] &= ~(1 << v)
        blocks.append(1 << v)
        assign(v + 1)
        blocks.pop()

    assign(0)
    colouring = [0] * n
    for c, block in enumerate(best_blocks):
        for v in bits(block):
            colouring[v] = c
    return WidthResult(best, tuple(colouring), CostKind.INDEPENDENCE)
