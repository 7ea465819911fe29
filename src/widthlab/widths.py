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
    minimum equals the decomposition minimum.  The DP splits by components:
    f(A + B) = max(f(A), f(B)) when no edge joins A and B, and on a
    connected S every bag is v + N(S) - S (proof in ``_subset_dp``).
  - pathwidth: the bag of v is the boundary of the placed set (its vertices
    with a neighbour outside it) plus v; a first-appearance ordering of any
    path decomposition produces bags inside the original ones.  Under
    cardinality that bag has |boundary(S - v)| + 1 vertices for every v, so
    max(f(T), |boundary(T)| + 1) is kept once per set T.
  Each min-scan over v stops at a floor that every candidate pays, once the
  best so far reaches it, so every f value is the full minimum:
  - treewidth on a connected S, with N = N(S) - S: every bag is v + N, so
    under cardinality f(S) = max(min f(S - v), |N| + 1) and the scan stops
    at |N| + 1; under alpha every candidate costs at least alpha(N).
  - pathwidth: B(S) lies inside B(S - v) + v for every v in S, with B the
    boundary, since a vertex of S - v with a neighbour outside S has one
    outside S - v.  So every candidate pays |B(S)| under cardinality (h(S -
    v) >= |B(S - v)| + 1 >= |B(S)|) and alpha(B(S)) under alpha.
  The DP counts bits or reads alpha from a dense table over all 2^n subsets.
  It keeps no choice per set: the witness ordering and its bags are read
  backwards along the optimal path, n sets, each placing last its lowest v
  that attains f(S).  The tree edges join each bag to the bag of its first
  later member in the ordering.
* pathwidth decision form: a pruned depth-first search over feasible
  prefixes.  Each bag is the boundary B of a prefix plus one vertex v
  outside B, so |B + v| = |B| + 1 and alpha(B + v) = max(alpha(B),
  1 + alpha(B - N(v))).  B lies inside the bag that admitted the prefix, so
  cost(B) <= k, and the search reads cost(B) once per state: below k every
  vertex fits, at k only (under alpha) a v with alpha(B - N(v)) < k.  One
  lowest-first pass per state; the first fitting vertex with no unplaced
  neighbour is the only branch.  At k that fit set names only B, v and k,
  so it depends on B alone: a tight B met again scans the unplaced
  vertices of its fit mask, built once at the second meeting, and skips
  exactly the vertices the test would skip, so the same states are pushed
  in the same order.  The treedepth form takes B = the ancestors,
  and at k it first tests every vertex of the component: one that does not
  fit lies on a path with all of B, so the state fails before any root is
  tried.
* treedepth under cardinality: one pass over all 2^n subsets in numeric
  order (the O*(2^n) baseline of Fomin, Giannopoulou & Pilipczuk,
  "Computing tree-depth faster than 2^n", Algorithmica 2015).  A
  disconnected s takes the larger height of its lowest vertex's component
  and the rest; a connected s takes 1 + min over v of td(s - v).  The table
  holds heights only: the forest is built top-down, and each component on
  the way takes as its root its lowest v with td(c - v) = td(c) - 1.  Under
  either cost the components below each root, and at the top, are grown
  from the reach table, lowest vertex first.
* treedepth under alpha: recursion on a connected component below its
  ancestor set, choosing the component's root; a root-to-leaf path costs
  alpha of the ancestors plus the path, so the memo keys on (component,
  ancestor set).  Every root reaches at most alpha(ancestors + component),
  so each state starts there with its lowest root and keeps a later root
  only if it does strictly better.  Every path pays at least floor = max
  over v of alpha(ancestors + v), so the root loop stops at the first root
  that reaches floor, and is skipped when the starting bound is floor.  A
  root must beat min(best so far, the caller's cut), so each component
  below it is solved only up to that cut: the exact value below the cut, a
  lower bound at or above it.  The memo keeps exact entries apart from
  lower bounds, and the forest walk reads only exact ones.
* degeneracy: greedy peeling of a vertex with the cheapest closed
  neighbourhood cost; exact because the cost is monotone under subsets.

The exact tw, pw and td solvers keep 2^n-entry tables, within one budget,
``width_exact``.  The subset DP reads at most n * 2^(n-1) bag costs, one per
pair (s, v in s), and builds the n witness bags inline.  They share three
per-graph tables, each cached for the last graph asked and read-only to
every caller: ``graphs.reach_table``, the union of the neighbourhoods of
every subset; ``graphs.component_table``, the component of the lowest
vertex of every subset; and ``invariants.alpha_table``, alpha of every
subset.  Only the two dense passes, the tw DP and the cardinality td table,
read the component table.  The alpha-td recursion and the td forest walk
grow the components below a root inline from reach, and the decision forms
never build a 2^n table: they visit sparse states on up to 25 vertices.  The pw loop reads
the boundary of a set, ``reach[full - s] & s``, once per set, not once per
pair.  The tw, pw and td loops over the vertices of s read its one-bit
masks from ``_one_bits``, one module-level table grown by doubling: the
table for n is a prefix of the one for n + 1, so alternating sizes extend
it and never rebuild it.  At n = 16 it holds 65,536 tuples, about 7 MB,
built in about 0.1 s.  The decision forms and degeneracy keep the
breadth-first ``graphs.components`` and the memoised ``SubsetAlpha``
oracle.  The recursive searches keep their state in small objects
(``_AlphaTreedepth``, ``_TdFeasible``), and the forest is built from an
explicit stack, so a finished call leaves no reference cycle for the
collector.
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
from .graphs import (
    Graph,
    bits,
    check_budget,
    component_table,
    components,
    reach_table,
)
from .invariants import SubsetAlpha, alpha_table


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

# A per-mask table over all n: the masks with v as their highest bit come
# right after all masks below it, so each vertex doubles the table, and the
# table for n is a prefix of the one for n + 1.  It is grown on demand,
# never rebuilt, and read-only to callers.
_ONE_BITS: list[tuple[int, ...]] = [()]


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
    it first.  The ordering is read backwards from the full set: each set on
    the path places last the lowest v with max(f(s - v), cost(bag(s - v,
    v))) = f(s), the vertex that trying vertices in increasing order with a
    strict improvement test would keep.  The walk builds each bag inline.

    Treewidth splits by components.  f(s) is the least, over the orderings
    of s, of the largest elimination bag cost, and the bag of v after the
    prefix p is v + N(C) - p - v, with C the component of v in G[p + v].
    Let no edge join A and B.  For v in A, C lies inside (p & A) + v and
    N(C) misses B, so v gets the bag it gets after p & A alone.  Hence every
    ordering of A + B costs at least max(f(A), f(B)), and an optimal
    ordering of A followed by one of B costs exactly that: f(A + B) =
    max(f(A), f(B)).  With c the component of the lowest vertex of s
    (``graphs.component_table``), a disconnected s takes max(f(c), f(s -
    c)).  For connected s, the component of every v in s is s itself, so
    every bag is v + N(s) - s: under cardinality f(s) = max(min over v of
    f(s - v), |N(s) - s| + 1), and under alpha the loop over v reads
    alpha(N(s) - s + v).

    Pathwidth under cardinality places v after t = s - v in a bag of
    |boundary(t)| + 1 vertices whatever v is, so h(t) = max(f(t),
    |boundary(t)| + 1) is kept once per set and f(s) = min over v of h(s -
    v).

    Each scan over v stops once the best so far reaches a floor that every
    candidate pays, so f(s) is still the full minimum, and the walk, which
    reads only f, is unchanged.  Treewidth on connected s, with nb = N(s) -
    s: under cardinality, best <= |nb| + 1 already gives f(s) = |nb| + 1;
    under alpha, every candidate is at least alpha(nb + v) >= alpha(nb).
    Pathwidth: a vertex of s - v with a neighbour outside s has one outside
    s - v, so boundary(s) lies inside boundary(s - v) + v.  Under
    cardinality h(s - v) >= |boundary(s - v)| + 1 >= |boundary(s)|, so the
    scan stops once best <= |boundary(s)|; under alpha every candidate is at
    least alpha(boundary(s - v) + v) >= alpha(boundary(s)).
    """
    n = g.n
    full = (1 << n) - 1
    by_size = kind is CostKind.CARDINALITY
    alpha = None if by_size else alpha_table(g.adj)
    reach = reach_table(g.adj)
    one_bits = _one_bits(n)
    worst = n + 1  # above every bag cost
    f = [worst] * (full + 1)
    f[0] = 0
    if treewidth:
        comp = component_table(g.adj)
        for s in range(1, full + 1):
            c = comp[s]
            if c != s:
                a, b = f[c], f[s ^ c]
                f[s] = a if a > b else b
            elif by_size:
                size = (reach[s] & ~s).bit_count() + 1
                best = worst
                for low in one_bits[s]:
                    sub = f[s ^ low]
                    if sub < best:
                        best = sub
                        if best <= size:
                            break
                f[s] = best if best > size else size
            else:
                nb = reach[s] & ~s
                floor = alpha[nb]
                best = worst
                for low in one_bits[s]:
                    sub = f[s ^ low]
                    if sub >= best:
                        continue
                    value = alpha[nb | low]
                    if value < sub:
                        value = sub
                    if value < best:
                        best = value
                        if best == floor:
                            break
                f[s] = best
    elif by_size:
        h = [1] * (full + 1)
        for s in range(1, full + 1):
            size = (reach[full ^ s] & s).bit_count() + 1
            best = worst
            for low in one_bits[s]:
                value = h[s ^ low]
                if value < best:
                    best = value
                    if best < size:
                        break
            f[s] = best
            h[s] = best if best > size else size
    else:
        # The boundary of every set: its vertices with a neighbour outside.
        boundary = [reach[full ^ s] & s for s in range(full + 1)]
        for s in range(1, full + 1):
            floor = alpha[boundary[s]]
            best = worst
            for low in one_bits[s]:
                prev = s ^ low
                sub = f[prev]
                if sub >= best:
                    continue
                value = alpha[boundary[prev] | low]
                if value < sub:
                    value = sub
                if value < best:
                    best = value
                    if best == floor:
                        break
            f[s] = best

    order = []
    bags = []
    s = full
    while s:
        target = f[s]
        for low in one_bits[s]:
            placed = s ^ low
            if f[placed] > target:
                continue
            if treewidth:
                # low plus the unplaced vertices it reaches through placed
                # ones: the neighbours outside s of low's component in s.
                reached, grow = 0, low
                while grow != reached:
                    reached = grow
                    grow = reach[reached] & s | reached
                last = reach[reached] & ~s | low
            else:
                last = reach[full ^ placed] & placed | low
            if (last.bit_count() if by_size else alpha[last]) <= target:
                break
        order.append(low.bit_length() - 1)
        bags.append(last)
        s = placed
    order.reverse()
    bags.reverse()
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


def lambda_treewidth(
    g: Graph, kind: CostKind, budgets: Budgets = DEFAULT_BUDGETS
) -> WidthResult:
    """The bags are the DP's elimination bags, in placement order.  The bag
    of order[i] holds it and unplaced vertices only, so each other member is
    placed later: the tree edge of bag i goes to the bag of its first later
    member, found by a forward scan of the ordering.  A bag with no other
    member finishes a component, and those bags are chained into one
    tree."""
    check_budget("lambda_treewidth", g.n, budgets.width_exact)
    if g.n == 0:
        return WidthResult(0, TreeDecomposition((), ()), kind)
    value, order, bags = _subset_dp(g, kind, treewidth=True)
    edges = []
    loose = []
    for i, v in enumerate(order):
        rest = bags[i] & ~(1 << v)
        if rest:
            j = i + 1
            while not rest >> order[j] & 1:
                j += 1
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

    That condition reads only B, v and k, so the fit set of a tight B is the
    same at every state with boundary B.  The first visit tests each vertex
    as the scan reaches it, reading the oracle's memo before calling it.
    The second visit builds the fit mask of B once (``_fit_mask``), and
    every visit from then on scans rest & mask, lowest first.  That scan
    meets the fitting vertices of rest in the order the test would, so it
    breaks at the same finished vertex and pushes the same states in the
    same order.  A B met only once builds no mask.
    """
    check_budget("lambda_pw_at_most", g.n, budgets.pw_decision)
    n = g.n
    if n == 0:
        return k >= 0
    if k <= 0:
        return False
    bag_cost = _bag_cost_fn(g, kind)
    by_size = kind is CostKind.CARDINALITY
    memo = None if by_size else bag_cost.memo
    adj = g.adj
    closed = [nb | 1 << v for v, nb in enumerate(adj)]
    full = (1 << n) - 1
    # A tight boundary maps to None after its first visit and to its fit
    # mask from its second on.
    fit_of: dict[int, int | None] = {}

    # Stack entries are (placed set, its boundary).
    seen = {0}
    stack = [(0, 0)]
    while stack:
        s, boundary = stack.pop()
        if s == full:
            return True
        rest = m = full & ~s
        test = False  # whether the scan reads each vertex's fit
        if by_size:
            if boundary.bit_count() == k:
                continue  # every bag costs k + 1
        # alpha is 0 only at the empty set, which the memo holds.
        elif (memo.get(boundary) or bag_cost(boundary)) == k:
            if boundary not in fit_of:
                fit_of[boundary] = None
                test = True
            else:
                fit = fit_of[boundary]
                if fit is None:
                    fit = fit_of[boundary] = _fit_mask(adj, bag_cost, boundary, k)
                m &= fit
        # The vertices that fit, lowest first; the first finished one is the only branch.
        fits = []
        while m:
            low = m & -m
            m ^= low
            nb = adj[low.bit_length() - 1]
            if test:
                if not nb & boundary:
                    continue
                left = memo.get(boundary & ~nb)
                if left is None:
                    left = bag_cost(boundary & ~nb)
                if left >= k:
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


def _fit_mask(adj, alpha: SubsetAlpha, boundary: int, k: int) -> int:
    """The vertices outside a boundary B with alpha(B) = k whose bag B + v
    still costs k: those v with N(v) meeting B and alpha(B - N(v)) < k.
    Reads the oracle's memo before calling it."""
    memo = alpha.memo
    fit = 0
    m = ((1 << len(adj)) - 1) & ~boundary
    while m:
        low = m & -m
        m ^= low
        nb = adj[low.bit_length() - 1]
        if nb & boundary:
            left = memo.get(boundary & ~nb)
            if left is None:
                left = alpha(boundary & ~nb)
            if left < k:
                fit |= low
    return fit


# ---------------------------------------------------------------------------
# Treedepth


def _treedepth_table(adj) -> list[int]:
    """td of the subgraph induced on every subset, indexed by bitmask.

    With c the component of s that holds its lowest vertex
    (``graphs.component_table``), td(s) is max(td(c), td(s - c)) when c != s,
    and 1 + min over v in s of td(s - v) when s is connected.  Both read only
    proper subsets of s, which are numerically smaller, so one pass in
    numeric order fills the table.
    """
    comp = component_table(adj)
    one_bits = _one_bits(len(adj))
    size = len(comp)
    height = [0] * size
    for s in range(1, size):
        c = comp[s]
        if c != s:
            a, b = height[c], height[s ^ c]
            height[s] = a if a > b else b
        else:
            best = size
            for low in one_bits[s]:
                h = height[s ^ low]
                if h < best:
                    best = h
            height[s] = best + 1
    return height


class _AlphaTreedepth:
    """``self(comp, above)``: the least alpha cost of a forest on the
    connected component comp below the ancestor set above, and its lowest
    optimal root.

    A root-to-leaf path costs alpha of the ancestors plus the path, and every
    path lies inside above + comp, so every root reaches at most cost(above +
    comp).  Each state starts from that bound with the lowest root, and a
    root replaces it only by a strict improvement; so when no root beats the
    bound the lowest root is the answer.  Every path pays at least floor =
    max over v of cost(above + v), so the loop stops at the first root that
    reaches floor, and it is skipped when the bound is already floor.  The
    components below a root are grown inline from ``graphs.reach_table``.

    ``_solve`` takes a cut: it returns the exact value when that is below the
    cut, and otherwise a lower bound that is at least the cut.  A root is
    kept only if it beats target = min(best so far, cut), so each component
    below it is solved with the cut target: one that reaches target rules
    the root out whatever its exact value.  If opt < cut, every root before
    the lowest optimal one is ruled out or improves best exactly, and that
    root's components all lie below target, so they come back exact and it
    is kept.  If opt >= cut, no root beats the cut and best stays at
    cost(above + comp) >= cut.  A state with floor >= cut stops at once,
    with the lower bound floor.  ``memo`` holds the exact (value, root) of
    the states solved below their cut and ``lower`` the bounds of the
    others, keyed on (component, ancestor set).  The forest walk calls with
    no cut, so it reads only exact entries.
    """

    def __init__(self, adj):
        self.n = len(adj)
        self.cost = alpha_table(adj)
        self.reach = reach_table(adj)
        self.one_bits = _one_bits(self.n)
        self.memo: dict[int, tuple[int, int]] = {}
        self.lower: dict[int, int] = {}

    def __call__(self, comp: int, above: int) -> tuple[int, int]:
        if comp & (comp - 1) == 0:
            return self.cost[above | comp], comp.bit_length() - 1
        key = comp | above << self.n
        cached = self.memo.get(key)
        if cached is None:
            self._solve(comp, above, key, self.n + 1)  # above every alpha: exact
            cached = self.memo[key]
        return cached

    def _solve(self, comp: int, above: int, key: int, cut: int) -> int:
        # A state not yet in the memo; each component below a root looks its
        # state up before it recurses, which saves a call on every memo hit.
        n, cost, reach, memo, lower = self.n, self.cost, self.reach, self.memo, self.lower
        roots = self.one_bits[comp]
        floor = 0
        for low in roots:
            here = cost[above | low]
            if here > floor:
                floor = here
        if floor >= cut:
            lower[key] = floor
            return floor
        best, best_root = cost[above | comp], comp & -comp
        target = best if best < cut else cut
        if best > floor:
            for low in roots:
                value = cost[above | low]
                if value >= target:
                    continue
                below = above | low
                rest = comp ^ low
                while rest:
                    sub, grow = 0, rest & -rest
                    while grow != sub:
                        sub = grow
                        grow = reach[sub] & rest | sub
                    rest ^= sub
                    if sub & (sub - 1) == 0:  # a single vertex is one leaf
                        h = cost[below | sub]
                    else:
                        sub_key = sub | below << n
                        got = memo.get(sub_key)
                        if got is not None:
                            h = got[0]
                        else:
                            h = lower.get(sub_key, 0)
                            if h < target:
                                h = self._solve(sub, below, sub_key, target)
                    if h > value:
                        value = h
                        if value >= target:
                            break
                if value < target:
                    best = target = value
                    best_root = low
                    if best == floor:
                        break
        if best < cut:
            memo[key] = best, best_root.bit_length() - 1
            return best
        lower[key] = cut
        return cut


def lambda_treedepth(
    g: Graph, kind: CostKind, budgets: Budgets = DEFAULT_BUDGETS
) -> WidthResult:
    """The forest is built top-down from an explicit stack, one component
    below its ancestor set at a time.  Under cardinality the root of a
    component c is read from the table: the lowest v with td(c - v) = td(c)
    - 1, the vertex a strict improvement test in increasing order keeps.
    The components of the graph, and those of c minus its root, are grown
    from ``graphs.reach_table``, lowest vertex first, the order of
    ``graphs.components``, with no breadth-first search per forest node."""
    check_budget("lambda_treedepth", g.n, budgets.width_exact)
    if g.n == 0:
        return WidthResult(0, RootedForest(()), kind)
    adj = g.adj
    if kind is CostKind.CARDINALITY:
        height = _treedepth_table(adj)
        one_bits = _one_bits(g.n)

        def solve(comp: int, above: int) -> tuple[int, int]:
            target = height[comp] - 1
            for low in one_bits[comp]:
                if height[comp ^ low] == target:
                    return target + 1, low.bit_length() - 1

    else:
        solve = _AlphaTreedepth(adj)
    reach = reach_table(adj)
    parent: list[int | None] = [None] * g.n
    value = 0
    # Entries are (a set, its ancestors, the deepest of them): the lowest
    # component of the set is split off and solved, and the set's other
    # components wait below it on the stack.
    stack = [(g.full_mask, 0, None)]
    while stack:
        rest, above, parent_vertex = stack.pop()
        comp, grow = 0, rest & -rest
        while grow != comp:
            comp = grow
            grow = reach[comp] & rest | comp
        if comp != rest:
            stack.append((rest ^ comp, above, parent_vertex))
        top, root = solve(comp, above)
        if not above and top > value:
            value = top
        parent[root] = parent_vertex
        if comp & (comp - 1):
            stack.append((comp ^ 1 << root, above | 1 << root, root))
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
    exactly when N(v) meets A and alpha(A - N(v)) < k.  Every vertex of the
    component lies on some path with all of A, so at k one vertex that does
    not fit makes the state fail (``_TdFeasible``).
    """
    check_budget("lambda_td_at_most", g.n, budgets.td_decision)
    if g.n == 0:
        return k >= 0
    if k <= 0:
        return False
    feasible = _TdFeasible(g.adj, _bag_cost_fn(g, kind), k, kind is CostKind.CARDINALITY)
    return all(feasible(comp, 0) for comp in g.components())


class _TdFeasible:
    """``self(comp, above)``: whether the connected component comp has a
    forest below the ancestor set above whose every path costs at most k.

    At a tight state, cost(above) = k, every vertex v of comp is tested
    before any root's components are built.  v lies on some root-to-leaf
    path together with all of above, and that path costs at least cost(above
    + v), which is k + 1 when v does not fit (always under cardinality;
    under alpha when N(v) misses above or alpha(above - N(v)) >= k).  So one
    such v makes the state False, and otherwise every vertex fits as a root.
    """

    def __init__(self, adj, bag_cost, k: int, by_height: bool):
        self.adj = adj
        self.bag_cost = bag_cost
        self.k = k
        # Under cardinality the cost of a subtree only depends on the stack
        # height, so the ancestor set collapses to its size in the memo key.
        self.by_height = by_height
        self.memo: dict[tuple[int, int], bool] = {}

    def __call__(self, comp: int, above: int) -> bool:
        bag_cost, k = self.bag_cost, self.k
        if comp & (comp - 1) == 0:  # a single vertex: one leaf bag
            return bag_cost(above | comp) <= k
        by_height = self.by_height
        key = (comp, above.bit_count() if by_height else above)
        cached = self.memo.get(key)
        if cached is not None:
            return cached
        adj = self.adj
        if bag_cost(above) == k:
            # Tight: one vertex that cannot join above (none can under
            # cardinality) fails every forest; otherwise every root fits.
            m = comp
            while m:
                low = m & -m
                m ^= low
                nb = adj[low.bit_length() - 1]
                if by_height or not nb & above or bag_cost(above & ~nb) >= k:
                    self.memo[key] = False
                    return False
        ranked = []
        m = comp
        while m:
            low = m & -m
            m ^= low
            subs = components(adj, comp ^ low)
            ranked.append((max(map(int.bit_count, subs), default=0), low, subs))
        # Kept eager: lazy lowest-first roots were 100x slower (BENCH_22.json).
        ranked.sort()  # the distinct masks low break every tie
        ok = False
        for _, low, subs in ranked:  # the first root whose every subtree fits
            below = above | low
            for sub in subs:
                if not self(sub, below):
                    break
            else:
                ok = True
                break
        self.memo[key] = ok
        return ok


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
    ``_rainbow`` finds that size by branch and bound over the colour classes,
    smallest first.  A partial colouring is dropped once its value, which
    only grows as vertices are added, reaches the best complete one; the
    witness is the first colouring found at the minimum.
    """
    check_budget("alpha_chromatic", g.n, budgets.alpha_chromatic)
    n = g.n
    if n == 0:
        return WidthResult(0, (), CostKind.INDEPENDENCE)
    best, best_blocks = _assign_colours(g.adj, 0, [], n + 1, ())
    colouring = [0] * n
    for c, block in enumerate(best_blocks):
        for v in bits(block):
            colouring[v] = c
    return WidthResult(best, tuple(colouring), CostKind.INDEPENDENCE)


def _assign_colours(adj, v: int, blocks: list[int], best: int, best_blocks: tuple):
    """``alpha_chromatic``'s search below a partial colouring: ``blocks``
    holds the colour classes of the vertices below v, none empty.  Returns
    the better of (``best``, ``best_blocks``) and the best completion.
    Module level, so a finished search leaves no cycle."""
    value = _rainbow(adj, sorted(blocks, key=int.bit_count), 0, 0, 0, 0)
    if value >= best:
        return best, best_blocks
    if v == len(adj):
        return value, tuple(blocks)
    for b in range(len(blocks)):
        if not adj[v] & blocks[b]:
            blocks[b] |= 1 << v
            best, best_blocks = _assign_colours(adj, v + 1, blocks, best, best_blocks)
            blocks[b] &= ~(1 << v)
    blocks.append(1 << v)
    best, best_blocks = _assign_colours(adj, v + 1, blocks, best, best_blocks)
    blocks.pop()
    return best, best_blocks


def _rainbow(adj, classes: list[int], i: int, chosen: int, size: int, best: int) -> int:
    """The larger of ``best`` and the size of the largest independent set
    that extends ``chosen`` (``size`` vertices) by one vertex or none of
    each of classes[i:]; a branch stops once its size plus the classes left
    is no better than ``best``."""
    if size + len(classes) - i <= best:
        return best
    if i == len(classes):
        return size
    for v in bits(classes[i]):
        if not adj[v] & chosen:
            best = _rainbow(adj, classes, i + 1, chosen | 1 << v, size + 1, best)
    return _rainbow(adj, classes, i + 1, chosen, size, best)
