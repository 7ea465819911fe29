"""Independent brute-force oracles used to pin expected test values.

These deliberately avoid the package's algorithms: widths are minimised
over explicitly enumerated decompositions or orderings, counts come from
Burnside's lemma, and the base parameters from raw subset enumeration.
``subset_dp_reference`` is the exception: the generic form of the tw/pw
subset DP, which the package's specialised kernels must reproduce exactly;
``subset_dp_table`` is its table, with no early exit, against which the
kernels' floors are checked.
So are ``pw_at_most_reference`` and ``td_at_most_reference``: the decision
forms with one bag-cost call per (state, vertex), whose answers the
package's forms, which read one per state, must reproduce (the td form
also stops at once at a tight state that some vertex cannot join);
``alpha_treedepth_reference``: the exact alpha-td recursion that solves
every sub-component exactly, whose values and roots the package's
recursion with cutoffs must reproduce on every state it solves exactly;
and
``bipartite_mwis_reference``: a Dinic flow network per min cut and one cut
per vertex for the witness, which the package's mask kernel, reading its
witness from one residual graph, must reproduce.  So is
``oct_route_reference``: the OCT route with no bound and
``bipartite_mwis_reference`` on every rest, whose top weight and tie rule
``mwis_via_oct`` must reproduce.

``lex_min_witness`` is the generic self-reduction, with one callback for
the optimum and one for the step, that the package's witnesses once came
from.  Four references keep those routes, and each witness the package now
reads inline must reproduce its reference:
``max_independent_set_reference``, the take step over ``SubsetAlpha``,
against the inline probe loop of ``max_independent_set``;
``mwis_exact_reference``, the take step over ``_MaxWeight``, against the
memo walk of ``mwis_exact``; ``vertex_cover_reference``, the delete step
over ``SubsetAlpha``, against the memo walk of ``vertex_cover_number``; and
``cover_reference``, the largest-choice branch and bound with the delete
step, against the single searches of ``feedback_vertex_number`` and
``oct_number``.

The last section holds plain helpers over the package's types that only
tests use.
"""

from __future__ import annotations

from itertools import combinations, permutations, product
from math import factorial

from widthlab.decomp import (
    CostKind,
    InvalidDecompositionError,
    PathDecomposition,
    RootedForest,
    validate_treedepth_decomposition,
)
from widthlab.graphs import Graph, _triangle_code, bits, components, mask_of
from widthlab.invariants import SubsetAlpha, _MaxWeight, alpha_table
from widthlab.mwis import FlowNetwork, MwisResult, WeightedGraph, find_oct_with_bounded_alpha


def subsets(iterable):
    items = list(iterable)
    for r in range(len(items) + 1):
        yield from combinations(items, r)


def brute_alpha(g: Graph, subset=None) -> int:
    verts = list(bits(subset)) if subset is not None else list(range(g.n))
    best = 0
    for cand in subsets(verts):
        if all(not has_edge(g, u, v) for u, v in combinations(cand, 2)):
            best = max(best, len(cand))
    return best


def brute_omega(g: Graph) -> int:
    best = 0
    for cand in subsets(range(g.n)):
        if all(has_edge(g, u, v) for u, v in combinations(cand, 2)):
            best = max(best, len(cand))
    return best


def brute_chi(g: Graph) -> int:
    if g.n == 0:
        return 0
    for k in range(1, g.n + 1):
        for colouring in product(range(k), repeat=g.n):
            if set(colouring) != set(range(k)):
                continue
            if all(colouring[u] != colouring[v] for u, v in g.edges()):
                return k
    raise AssertionError


def brute_matching(g: Graph) -> int:
    edges = g.edges()
    best = 0
    for cand in subsets(edges):
        used = set()
        ok = True
        for u, v in cand:
            if u in used or v in used:
                ok = False
                break
            used.update((u, v))
        if ok:
            best = max(best, len(cand))
    return best


def _cost(g: Graph, mask: int, kind: CostKind) -> int:
    if kind is CostKind.CARDINALITY:
        return mask.bit_count()
    return brute_alpha(g, mask)


def pw_by_orderings(g: Graph, kind: CostKind) -> int:
    """min over vertex orderings of max over steps of cost(boundary + next)."""
    if g.n == 0:
        return 0
    full = g.full_mask
    best = None
    for order in permutations(range(g.n)):
        placed = 0
        worst = 0
        for v in order:
            boundary = 0
            for u in bits(placed):
                if g.adj[u] & ~placed & full:
                    boundary |= 1 << u
            worst = max(worst, _cost(g, boundary | 1 << v, kind))
            if best is not None and worst >= best:
                break
            placed |= 1 << v
        if best is None or worst < best:
            best = worst
    return best


def elimination_bag(adj, placed: int, low: int) -> int:
    """The treewidth bag of the one-bit mask ``low`` placed after ``placed``:
    low plus the unplaced vertices it reaches through placed ones, by
    breadth-first search over the adjacency masks."""
    comp = frontier = low
    outside = 0
    while frontier:
        grow = 0
        while frontier:
            u = frontier & -frontier
            grow |= adj[u.bit_length() - 1]
            frontier ^= u
        grow &= ~comp
        outside |= grow & ~placed
        frontier = grow & placed
        comp |= frontier
    return outside | low


def boundary_bag(adj, placed: int, low: int) -> int:
    """The pathwidth bag of the one-bit mask ``low`` placed after ``placed``:
    low plus the placed vertices with a neighbour outside placed."""
    full = (1 << len(adj)) - 1
    return mask_of(u for u in bits(placed) if adj[u] & full & ~placed) | low


def subset_dp_reference(g: Graph, kind: CostKind, bag) -> tuple[int, list[int], list[int]]:
    """The tw/pw subset DP in its generic form, with the bag rule passed in:
    ``bag(placed, low)`` is the bag that placing the one-bit mask ``low``
    after the set ``placed`` creates.

    f(S) = min over v in S of max(f(S - v), cost(bag(S - v, v))), solved in
    numeric order of S, trying v in increasing order with a strict
    improvement test (``subset_dp_table``).  Returns the optimum, an optimal
    ordering and its bags.  The package's specialised kernels must reproduce
    all three.
    """
    f, choice = subset_dp_table(g, kind, bag)
    full = g.full_mask
    order = []
    s = full
    while s:
        order.append(choice[s])
        s ^= 1 << choice[s]
    order.reverse()
    bags = []
    placed = 0
    for v in order:
        bags.append(bag(placed, 1 << v))
        placed |= 1 << v
    return f[full], order, bags


def subset_dp_table(g: Graph, kind: CostKind, bag) -> tuple[list[int], list[int]]:
    """The table f of ``subset_dp_reference`` over every subset, with no
    early exit, and the v each set keeps."""
    full = g.full_mask
    bag_cost = int.bit_count if kind is CostKind.CARDINALITY else alpha_table(g.adj).__getitem__
    worst = g.n + 1
    f = [worst] * (full + 1)
    choice = [0] * (full + 1)
    f[0] = 0
    for s in range(1, full + 1):
        best = worst
        for v in bits(s):
            low = 1 << v
            prev = s ^ low
            sub = f[prev]
            if sub >= best:
                continue
            value = max(sub, bag_cost(bag(prev, low)))
            if value < best:
                best = value
                choice[s] = v
        f[s] = best
    return f, choice


def pw_at_most_reference(g: Graph, kind: CostKind, k: int, trace: list | None = None) -> bool:
    """lambda-pw(g) <= k by the prefix search with one bag-cost call per
    (state, vertex): the form the package's decision search must agree
    with.

    A vertex whose whole neighbourhood is placed is taken greedily whenever
    its bag fits; otherwise every unplaced vertex whose bag fits is a
    branch.  Each pushed placed set is appended to ``trace`` when given.
    """
    n = g.n
    if n == 0:
        return k >= 0
    if k <= 0:
        return False
    bag_cost = int.bit_count if kind is CostKind.CARDINALITY else SubsetAlpha(g)
    adj = g.adj
    full = (1 << n) - 1
    seen = {0}
    stack = [(0, 0)]
    while stack:
        s, boundary = stack.pop()
        if s == full:
            return True
        rest = full & ~s
        safe = 0
        for v in bits(rest):
            if not adj[v] & rest and bag_cost(boundary | 1 << v) <= k:
                safe = 1 << v
                break
        if safe:
            t = s | safe
            if t not in seen:
                seen.add(t)
                stack.append((t, boundary_bag(adj, t, 0)))
                if trace is not None:
                    trace.append(t)
            continue
        candidates = []
        for v in bits(rest):
            t = s | 1 << v
            if t in seen:
                continue
            if bag_cost(boundary | 1 << v) <= k:
                candidates.append(((boundary | 1 << v).bit_count(), 1 << v, t))
        candidates.sort(reverse=True)
        for _, low, t in candidates:
            seen.add(t)
            stack.append((t, boundary_bag(adj, t, 0)))
            if trace is not None:
                trace.append(t)
    return False


def td_at_most_reference(g: Graph, kind: CostKind, k: int) -> bool:
    """lambda-td(g) <= k by the component recursion with one bag-cost call
    per (state, vertex): the form the package's decision recursion must
    agree with.

    A connected component below the ancestor set ``above`` is feasible when
    some root v with cost(above + v) <= k leaves only feasible components.
    """
    if g.n == 0:
        return k >= 0
    if k <= 0:
        return False
    adj = g.adj
    bag_cost = int.bit_count if kind is CostKind.CARDINALITY else SubsetAlpha(g)
    by_height = kind is CostKind.CARDINALITY
    memo: dict[tuple[int, int], bool] = {}

    def feasible(comp: int, above: int) -> bool:
        if comp & (comp - 1) == 0:
            return bag_cost(above | comp) <= k
        key = (comp, above.bit_count() if by_height else above)
        cached = memo.get(key)
        if cached is not None:
            return cached
        ranked = []
        for v in bits(comp):
            low = 1 << v
            if bag_cost(above | low) > k:
                continue
            subs = components(adj, comp ^ low)
            largest = max((c.bit_count() for c in subs), default=0)
            ranked.append((largest, low, subs))
        ranked.sort(key=lambda t: (t[0], t[1]))
        ok = any(all(feasible(sub, above | low) for sub in subs) for _, low, subs in ranked)
        memo[key] = ok
        return ok

    return all(feasible(comp, 0) for comp in g.components())


def alpha_treedepth_reference(adj):
    """The exact alpha-td recursion with no cut, which the package's cut
    recursion must reproduce on every state it solves exactly: returns
    ``solve(comp, above)``, the least alpha cost of a forest on the
    connected component comp below the ancestor set above and its lowest
    optimal root, memoised on (component, ancestor set).

    Every sub-component below a root is solved exactly.  Each state starts
    from the bound alpha(above + comp) with its lowest root, a later root
    replaces it only by a strict improvement, and the root loop stops at
    the first root that reaches floor = max over v of alpha(above + v).
    """
    n = len(adj)
    cost = alpha_table(adj)
    memo: dict[int, tuple[int, int]] = {}

    def solve(comp: int, above: int) -> tuple[int, int]:
        if comp & (comp - 1) == 0:
            return cost[above | comp], comp.bit_length() - 1
        key = comp | above << n
        cached = memo.get(key)
        if cached is not None:
            return cached
        roots = [1 << v for v in bits(comp)]
        floor = max(cost[above | low] for low in roots)
        best, best_root = cost[above | comp], comp & -comp
        if best > floor:
            for low in roots:
                value = cost[above | low]
                if value >= best:
                    continue
                below = above | low
                for sub in components(adj, comp ^ low):
                    value = max(value, solve(sub, below)[0])
                    if value >= best:
                        break
                if value < best:
                    best, best_root = value, low
                    if best == floor:
                        break
        memo[key] = best, best_root.bit_length() - 1
        return memo[key]

    return solve


def _valid_tree_decomposition(g: Graph, bags, tree_edges) -> bool:
    covered = 0
    for b in bags:
        covered |= b
    if covered != g.full_mask:
        return False
    for u, v in g.edges():
        need = 1 << u | 1 << v
        if not any(b & need == need for b in bags):
            return False
    nbrs = {i: [] for i in range(len(bags))}
    for a, b in tree_edges:
        nbrs[a].append(b)
        nbrs[b].append(a)
    for v in range(g.n):
        nodes = [i for i, b in enumerate(bags) if b >> v & 1]
        if not nodes:
            return False
        seen = {nodes[0]}
        stack = [nodes[0]]
        while stack:
            x = stack.pop()
            for y in nbrs[x]:
                if y in set(nodes) and y not in seen:
                    seen.add(y)
                    stack.append(y)
        if seen != set(nodes):
            return False
    return True


def _all_trees(k: int):
    """All trees on nodes 0..k-1 as edge tuples."""
    if k == 1:
        yield ()
        return
    all_edges = list(combinations(range(k), 2))
    for cand in combinations(all_edges, k - 1):
        parent = list(range(k))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        ok = True
        for a, b in cand:
            ra, rb = find(a), find(b)
            if ra == rb:
                ok = False
                break
            parent[ra] = rb
        if ok:
            yield cand


def tw_by_all_decompositions(g: Graph, kind: CostKind) -> int:
    """min-max over every tree decomposition with at most n distinct bags."""
    if g.n == 0:
        return 0
    nonempty = [m for m in range(1, 1 << g.n)]
    best = None
    for k in range(1, g.n + 1):
        for bags in combinations(nonempty, k):
            worst = max(_cost(g, b, kind) for b in bags)
            if best is not None and worst >= best:
                continue
            for tree in _all_trees(k):
                if _valid_tree_decomposition(g, bags, tree):
                    best = worst
                    break
    return best


def pw_by_all_decompositions(g: Graph, kind: CostKind) -> int:
    """min-max over every path decomposition (bag sequences, <= n bags)."""
    if g.n == 0:
        return 0
    nonempty = [m for m in range(1, 1 << g.n)]
    best = None
    for k in range(1, g.n + 1):
        for bags in combinations(nonempty, k):
            worst = max(_cost(g, b, kind) for b in bags)
            if best is not None and worst >= best:
                continue
            path = tuple((i, i + 1) for i in range(k - 1))
            for seq in permutations(range(k)):
                if _valid_tree_decomposition(g, [bags[i] for i in seq], path):
                    best = worst
                    break
    return best


def td_by_all_forests(g: Graph, kind: CostKind) -> int:
    """min-max over every treedepth decomposition (all parent functions)."""
    if g.n == 0:
        return 0
    best = None
    for parents in product(range(-1, g.n), repeat=g.n):
        if any(parents[v] == v for v in range(g.n)):
            continue
        # acyclic parent relation
        ok = True
        for v in range(g.n):
            seen = set()
            x = v
            while x != -1:
                if x in seen:
                    ok = False
                    break
                seen.add(x)
                x = parents[x]
            if not ok:
                break
        if not ok:
            continue

        def ancestors(v):
            m = 0
            x = parents[v]
            while x != -1:
                m |= 1 << x
                x = parents[x]
            return m

        anc = [ancestors(v) for v in range(g.n)]
        if any(
            not (anc[u] >> v & 1 or anc[v] >> u & 1) for u, v in g.edges()
        ):
            continue
        children = [False] * g.n
        for v in range(g.n):
            if parents[v] != -1:
                children[parents[v]] = True
        leaves = [v for v in range(g.n) if not children[v]]
        worst = max(_cost(g, anc[v] | 1 << v, kind) for v in leaves)
        if best is None or worst < best:
            best = worst
    return best


def tw_by_separator_branching(g: Graph, kind: CostKind) -> int:
    """Exact lambda-treewidth by recursing on root bags and the blocks they
    leave behind; the second, independent solver guarding the
    triangulation-based one."""
    if g.n == 0:
        return 0
    memo: dict[tuple[int, int], int] = {}

    def components(mask: int):
        comps = []
        todo = mask
        while todo:
            comp = todo & -todo
            frontier = comp
            while frontier:
                grow = 0
                for v in bits(frontier):
                    grow |= g.adj[v]
                frontier = grow & todo & ~comp
                comp |= frontier
            comps.append(comp)
            todo &= ~comp
        return comps

    def neighbourhood(mask: int) -> int:
        nb = 0
        for v in bits(mask):
            nb |= g.adj[v]
        return nb & ~mask

    def block(sep: int, comp: int) -> int:
        key = (sep, comp)
        if key in memo:
            return memo[key]
        best = None
        inner = list(bits(comp))
        for extra in subsets(inner):
            if not extra:
                continue
            bag = sep | mask_of(extra)
            value = _cost(g, bag, kind)
            if best is not None and value >= best:
                continue
            for sub in components((sep | comp) & ~bag):
                value = max(value, block(neighbourhood(sub) & (sep | comp), sub))
                if best is not None and value >= best:
                    break
            if best is None or value < best:
                best = value
        memo[key] = best
        return best

    best = None
    for root in range(1, 1 << g.n):
        value = _cost(g, root, kind)
        if best is not None and value >= best:
            continue
        for sub in components(g.full_mask & ~root):
            value = max(value, block(neighbourhood(sub), sub))
            if best is not None and value >= best:
                break
        if best is None or value < best:
            best = value
    return best


def degeneracy_maxmin_induced(g: Graph, kind: CostKind) -> int:
    """max over nonempty induced subgraphs of min closed-neighbourhood cost."""
    best = 0
    for w in range(1, 1 << g.n):
        best = max(
            best,
            min(_cost(g, g.adj[v] & w, kind) for v in bits(w)),
        )
    return best


def degeneracy_maxmin_subgraphs(g: Graph, kind: CostKind) -> int:
    """Same, but over all (not only induced) subgraphs; tiny n only."""
    edges = g.edges()
    best = 0
    for w in range(1, 1 << g.n):
        for kept in subsets([e for e in edges if w >> e[0] & 1 and w >> e[1] & 1]):
            adj = [0] * g.n
            for u, v in kept:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            best = max(best, min(_cost(g, adj[v] & w, kind) for v in bits(w)))
    return best


def alpha_chromatic_by_functions(g: Graph) -> int:
    """min over proper colour functions of the largest independent set with
    pairwise distinct colours."""
    if g.n == 0:
        return 0
    best = None
    for colouring in product(range(g.n), repeat=g.n):
        if any(colouring[u] == colouring[v] for u, v in g.edges()):
            continue
        top = 0
        for cand in subsets(range(g.n)):
            if len({colouring[v] for v in cand}) != len(cand):
                continue
            if any(has_edge(g, u, v) for u, v in combinations(cand, 2)):
                continue
            top = max(top, len(cand))
        if best is None or top < best:
            best = top
    return best


def brute_modulator(g: Graph, is_ok, kind: CostKind) -> int:
    """min lambda(G, S) over S whose removal satisfies is_ok(remaining mask)."""
    best = None
    for s in range(1 << g.n):
        if not is_ok(g.full_mask & ~s):
            continue
        value = _cost(g, s, kind)
        if best is None or value < best:
            best = value
    return best


def mask_is_cover(g: Graph, rest: int) -> bool:
    return all((1 << u | 1 << v) & ~rest for u, v in g.edges())


def mask_is_acyclic(g: Graph, rest: int) -> bool:
    sub_edges = sum(
        1 for u, v in g.edges() if rest >> u & 1 and rest >> v & 1
    )
    comps = 0
    todo = rest
    while todo:
        comp = todo & -todo
        frontier = comp
        while frontier:
            grow = 0
            for v in bits(frontier):
                grow |= g.adj[v]
            frontier = grow & todo & ~comp
            comp |= frontier
        comps += 1
        todo &= ~comp
    return sub_edges == rest.bit_count() - comps


def mask_two_colouring(g: Graph, rest: int) -> dict[int, int] | None:
    """A proper 0/1 colouring of G[rest] by depth-first search, or None."""
    colour = {}
    for v in bits(rest):
        if v in colour:
            continue
        colour[v] = 0
        stack = [v]
        while stack:
            x = stack.pop()
            for u in bits(g.adj[x] & rest):
                if u not in colour:
                    colour[u] = 1 - colour[x]
                    stack.append(u)
                elif colour[u] == colour[x]:
                    return None
    return colour


def mask_is_bipartite(g: Graph, rest: int) -> bool:
    return mask_two_colouring(g, rest) is not None


def lex_min_witness(mask: int, value: int, opt, step) -> tuple[int, ...]:
    """The lexicographically smallest optimal witness, by self-reduction.

    ``opt(m)`` is the optimum on the vertex set m and ``value`` is
    ``opt(mask)``.  The vertices of ``mask`` are tried in increasing order;
    ``step(v, m)`` returns ``(gain, rest)``, and v joins the witness exactly
    when ``gain`` is non-zero and ``gain + opt(rest) == value``, after which
    the search goes on in ``rest`` for ``value - gain``.  A rejected vertex
    stays in the mask.  The *take* step ``(w[v], m - N[v])`` builds a
    maximum (weight) independent set; the *delete* step ``(1, m - v)``
    builds a minimum cover with ``opt(m) = |m| - keep(m)``.
    """
    chosen = []
    for v in bits(mask):
        if not value:
            break
        if not mask >> v & 1:
            continue
        gain, rest = step(v, mask)
        if gain and gain + opt(rest) == value:
            chosen.append(v)
            value -= gain
            mask = rest
    return tuple(chosen)


def max_independent_set_reference(g: Graph) -> tuple[int, ...]:
    """The lexicographically smallest maximum independent set:
    ``lex_min_witness`` with the take step over one ``SubsetAlpha``."""
    alpha = SubsetAlpha(g)
    return lex_min_witness(
        g.full_mask, alpha(g.full_mask), alpha, lambda v, m: (1, m & ~(g.adj[v] | 1 << v))
    )


def mwis_exact_reference(wg: WeightedGraph) -> MwisResult:
    """The MWIS weight and the lexicographically smallest optimum with no
    zero-weight member: ``lex_min_witness`` with the take step over one
    ``_MaxWeight``, each probe also dropping the vertices below v."""
    g, weights = wg.graph, wg.weights
    solve = _MaxWeight(g.adj, weights)
    positive = mask_of(v for v in range(g.n) if weights[v] > 0)
    total = solve(positive)
    witness = lex_min_witness(
        positive, total, solve, lambda v, m: (weights[v], m & ~(g.adj[v] | (2 << v) - 1))
    )
    return MwisResult(total, witness)


def vertex_cover_reference(g: Graph) -> tuple[int, tuple[int, ...]]:
    """vc(G) and its lexicographically smallest witness: ``lex_min_witness``
    with the delete step over n - ``SubsetAlpha``, one solve per vertex it
    tries, each split into components."""
    alpha = SubsetAlpha(g)

    def cover(m: int) -> int:
        return m.bit_count() - alpha(m)

    value = cover(g.full_mask)
    return value, lex_min_witness(g.full_mask, value, cover, lambda v, m: (1, m & ~(1 << v)))


def cover_reference(g: Graph, good) -> tuple[int, tuple[int, ...]]:
    """n - keep(V) and the lexicographically smallest minimum cover, where
    keep(m) is the size of the largest subset F of m with good(g, F) for a
    hereditary ``good``: a branch and bound over the single vertices of m,
    and ``lex_min_witness`` with the delete step, one search per vertex it
    tries."""

    def fits(chosen: int, v: int) -> bool:
        return good(g, chosen | 1 << v)

    def cover(m: int) -> int:
        return m.bit_count() - _choose_most([1 << v for v in bits(m)], fits, 0, 0, 0, 0)

    value = cover(g.full_mask)
    return value, lex_min_witness(g.full_mask, value, cover, lambda v, m: (1, m & ~(1 << v)))


def _choose_most(groups: list[int], fits, i: int, chosen: int, size: int, best: int) -> int:
    """The most vertices that can be chosen, one or none from each of
    groups[i:], on top of ``chosen`` (``size`` vertices), with ``fits(chosen,
    v)`` true each time v joins; the larger of that and ``best``.  Each
    vertex of a group is tried before the group is skipped, and a branch
    stops once its size plus the groups left is no better than ``best``."""
    if size + len(groups) - i <= best:
        return best
    if i == len(groups):
        return size
    for v in bits(groups[i]):
        if fits(chosen, v):
            best = _choose_most(groups, fits, i + 1, chosen | 1 << v, size + 1, best)
    return _choose_most(groups, fits, i + 1, chosen, size, best)


def brute_mwis(g: Graph, weights) -> int:
    best = 0
    for cand in subsets(range(g.n)):
        if any(has_edge(g, u, v) for u, v in combinations(cand, 2)):
            continue
        best = max(best, sum(weights[v] for v in cand))
    return best


def bipartite_mwis_reference(
    g: Graph, weights, colour, mask: int
) -> tuple[int, tuple[int, ...]]:
    """MWIS weight of G[mask], which ``colour`` 2-colours, and the
    lexicographically smallest optimum with no zero-weight member.  The
    weight is w(mask) minus a Dinic max flow from s through the colour-0
    vertices and the uncapped edges to the colour-1 vertices and t; the
    witness comes from ``lex_min_witness``, one such flow per vertex."""

    def value(m: int) -> int:
        source, sink = g.n, g.n + 1
        net = FlowNetwork(g.n + 2, source, sink)
        total = sum(weights[v] for v in bits(m))
        for v in bits(m):
            if colour[v] == 0:
                net.add_arc(source, v, weights[v])
                for u in bits(g.adj[v] & m):
                    net.add_arc(v, u, total + 1)
            else:
                net.add_arc(v, sink, weights[v])
        return total - net.max_flow()

    def take(v: int, m: int) -> tuple[int, int]:
        return weights[v], m & ~(g.adj[v] | 1 << v)

    best = value(mask)
    return best, lex_min_witness(mask, best, value, take)


def oct_route_reference(wg: WeightedGraph, k: int) -> tuple[int, tuple[int, ...]]:
    """The OCT route with no bound: every independent I inside the
    transversal S = ``find_oct_with_bounded_alpha(g, k)`` is finished by
    ``bipartite_mwis_reference`` on G - S - N(I); of the heaviest I + I',
    the result is the top weight and the lexicographically smallest
    ``sorted(I + I')``."""
    g, weights = wg.graph, wg.weights
    s = find_oct_with_bounded_alpha(g, k)
    outside = g.full_mask & ~mask_of(s)
    colour = mask_two_colouring(g, outside)
    best = None
    for chosen in subsets(s):
        if any(has_edge(g, u, v) for u, v in combinations(chosen, 2)):
            continue
        rest = outside
        for v in chosen:
            rest &= ~g.adj[v]
        inner, found = bipartite_mwis_reference(g, weights, colour, rest)
        key = (-sum(weights[v] for v in chosen) - inner, tuple(sorted(chosen + found)))
        if best is None or key < best:
            best = key
    return -best[0], best[1]


def burnside_graph_count(n: int) -> int:
    """Number of isomorphism classes of graphs on n vertices, by counting
    orbits of the pair action of S_n on edge sets."""
    if n == 0:
        return 1
    pairs = list(combinations(range(n), 2))
    index = {p: i for i, p in enumerate(pairs)}
    total = 0
    for perm in permutations(range(n)):
        seen = [False] * len(pairs)
        cycles = 0
        for i, (a, b) in enumerate(pairs):
            if seen[i]:
                continue
            cycles += 1
            j = i
            while not seen[j]:
                seen[j] = True
                a, b = pairs[j]
                na, nb = perm[a], perm[b]
                j = index[(na, nb) if na < nb else (nb, na)]
        total += 1 << cycles
    return total // factorial(n)


def brute_canonical_code(g: Graph) -> int:
    """The minimum column-major triangle code over all n! vertex orderings."""
    return min(_triangle_code(g, order) for order in permutations(range(g.n)))


def brute_automorphism_count(g: Graph) -> int:
    """The number of vertex permutations that map every edge to an edge."""
    return sum(
        all(g.adj[perm[v]] == mask_of(perm[u] for u in bits(g.adj[v])) for v in range(g.n))
        for perm in permutations(range(g.n))
    )


def generated_group_order(n: int, gens) -> int:
    """The order of the permutation group on ``range(n)`` generated by the
    vertex maps ``gens``, by closing the identity under them."""
    group = {tuple(range(n))}
    frontier = list(group)
    while frontier:
        grown = []
        for elem in frontier:
            for perm in gens:
                prod = tuple(perm[v] for v in elem)
                if prod not in group:
                    group.add(prod)
                    grown.append(prod)
        frontier = grown
    return len(group)


def brute_ramsey(n: int, a: int, b: int) -> bool:
    """Does every labelled graph on n vertices, one per edge set, have a
    clique of size a or an independent set of size b?"""
    pairs = list(combinations(range(n), 2))
    index = {pair: t for t, pair in enumerate(pairs)}

    def pair_mask(subset) -> int:
        return sum(1 << index[pair] for pair in combinations(subset, 2))

    clique_masks = [pair_mask(s) for s in combinations(range(n), a)]
    indep_masks = [pair_mask(s) for s in combinations(range(n), b)]
    return all(
        any(code & m == m for m in clique_masks) or any(code & m == 0 for m in indep_masks)
        for code in range(1 << len(pairs))
    )


# ---------------------------------------------------------------------------
# Test-only helpers


def has_edge(g: Graph, u: int, v: int) -> bool:
    return bool(g.adj[u] >> v & 1)


def are_isomorphic(g: Graph, h: Graph) -> bool:
    """Isomorphism test by brute-force canonical codes."""
    return g.n == h.n and brute_canonical_code(g) == brute_canonical_code(h)


def delete(g: Graph, vertices) -> tuple[Graph, dict[int, int]]:
    """G minus ``vertices``, re-indexed, and the old-to-new id map of the
    surviving vertices."""
    sub, old = g.induced(g.full_mask & ~mask_of(vertices))
    return sub, {v: i for i, v in enumerate(old)}


def forest_depth(f: RootedForest) -> int:
    """Maximum number of vertices on a root-to-leaf path."""
    return max((1 + f.ancestors_mask(v).bit_count() for v in range(f.n)), default=0)


def path_decomp_from_treedepth(g: Graph, f: RootedForest) -> PathDecomposition:
    """Bags are the root-to-leaf vertex sets in DFS leaf order."""
    violations = validate_treedepth_decomposition(g, f)
    if violations:
        raise InvalidDecompositionError(violations)
    return PathDecomposition(f.root_to_leaf_sets())


def td_decomp_from_vertex_cover(g: Graph, cover: int) -> RootedForest:
    """A chain on the cover (ascending ids) with everything else as leaves."""
    outside = g.full_mask & ~cover
    if any(g.adj[v] & outside for v in bits(outside)):
        raise ValueError("the given set is not a vertex cover")
    chain = sorted(bits(cover))
    parent: list[int | None] = [None] * g.n
    for prev, nxt in zip(chain, chain[1:]):
        parent[nxt] = prev
    for v in bits(outside):
        parent[v] = chain[-1] if chain else None
    return RootedForest(tuple(parent))
