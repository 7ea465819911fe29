"""Modulator numbers, cover-type solvers, the parameter table, and the
Ramsey binding function.

``PARAMETERS`` holds one ``Parameter`` record per name: its entries, its
decision form and its modulator-target test, each read from that row.

A (rho, c)-modulator of G is a vertex set S with rho(G - S) <= c; its
cardinality and independence variants minimise |S| and alpha(G[S]).  With
the bag-cardinality width convention used throughout, (tw,1)- and
(td,1)-modulators are the vertex covers, (tw,2)-modulators the feedback
vertex sets, and (chi,2)-modulators the odd cycle transversals.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial
from math import comb
from itertools import combinations
from collections.abc import Callable

from .config import Budgets, DEFAULT_BUDGETS
from .decomp import CostKind
from .graphs import Graph, bits, check_budget, enumerate_graphs, mask_of
from .invariants import (
    _MaxWeight,
    alpha_table,
    chromatic_number,
    clique_number,
    independence_number,
    independent_subsets,
    is_k_colourable,
    local_independence_number,
    max_degree,
    max_independent_set,
    max_matching_size,
)
from . import widths

CARD = CostKind.CARDINALITY
ALPHA = CostKind.INDEPENDENCE


@dataclass(frozen=True)
class ModulatorSpec:
    rho: str
    c: int

    def __post_init__(self):
        predicate(self.rho, self.c)  # checks rho against the table
        if self.c < 0:
            raise ValueError("modulator threshold must be non-negative")

    @staticmethod
    def parse(text: str) -> "ModulatorSpec":
        """``rho:c``.  Malformed text says so; a well-formed spec with an
        unknown rho or a negative c says which."""
        try:
            rho, c = text.split(":")
            c = int(c)
        except ValueError:
            raise ValueError(f"bad modulator spec {text!r}, expected 'rho:c'") from None
        return ModulatorSpec(rho.strip(), c)

    def __str__(self):
        return f"{self.rho}:{self.c}"


# ---------------------------------------------------------------------------
# Target parameter evaluation


def rho_at_most(
    g: Graph,
    rho: str,
    c: int,
    budgets: Budgets = DEFAULT_BUDGETS,
    within: int | None = None,
) -> bool:
    """rho(G[within]) <= c, ``within`` defaulting to all of V (c >= 0 on
    the empty set).

    A thin wrapper over ``predicate(rho, c)``: the modulator searches
    resolve that test once per spec and call it on vertex masks directly.
    Below c = 3 it reads ``g.adj`` alone; pw <= 2, for one, holds exactly
    when every component is a caterpillar.
    """
    return predicate(rho, c)(g, g.full_mask if within is None else within, budgets)


Good = Callable[[Graph, int, Budgets], bool]


@cache
def predicate(rho: str, c: int) -> Good:
    """The test good(g, mask, budgets) of rho(G[mask]) <= c, resolved once
    per (rho, c) from the ``target`` of the row ``rho``.

    Every width here counts bag cardinality, so every rho but delta is at
    least 1 on a non-empty graph and at least 2 once it has an edge: c = 0
    leaves the empty mask and c = 1 the edgeless ones, the same two tests
    for every such row (``_threshold``).  delta is a degree test at every
    c.  The c = 2 thresholds that the modulator searches hammer on are
    decided on ``g.adj`` too: triangle-free (omega), a forest (tw), a
    forest of caterpillars (pw), a star forest (td), bipartite (chi).
    Above c = 2, omega runs the clique search on the mask and the rest
    build the induced subgraph: pw asks its decision form, td reads the
    exact table, tw runs the exact subset DP and chi the colouring search.
    The modulator searches stay within ``budgets.width_exact`` vertices, so
    only ``rho_at_most`` on a larger graph sends td to its decision form.
    """
    row = PARAMETERS.get(rho)
    if row is None or row.target is None:
        raise ValueError(f"unknown target parameter {rho!r}")
    return row.target(c) if c >= 0 else _never


def _never(g: Graph, mask: int, budgets: Budgets) -> bool:
    return False


def _is_empty(g: Graph, mask: int, budgets: Budgets) -> bool:
    return not mask


def _max_degree_at_most(c: int, g: Graph, mask: int, budgets: Budgets) -> bool:
    adj = g.adj
    return all((adj[v] & mask).bit_count() <= c for v in bits(mask))


def _is_edgeless(g: Graph, mask: int, budgets: Budgets) -> bool:
    adj = g.adj
    m = mask
    while m:
        low = m & -m
        if adj[low.bit_length() - 1] & mask:
            return False
        m ^= low
    return True


def _is_triangle_free(g: Graph, mask: int, budgets: Budgets) -> bool:
    # A triangle shows as an edge among the neighbours above its lowest vertex.
    adj = g.adj
    m = mask
    while m:
        low = m & -m
        m ^= low
        nb = rest = adj[low.bit_length() - 1] & m
        while rest:
            u = rest & -rest
            if adj[u.bit_length() - 1] & nb:
                return False
            rest ^= u
    return True


def _is_acyclic(g: Graph, mask: int, budgets: Budgets) -> bool:
    # A forest has |mask| - components edges; the degrees count each twice.
    adj = g.adj
    degrees = count = 0
    todo = mask
    while todo:
        frontier = todo & -todo
        count += 1
        while frontier:
            low = frontier & -frontier
            todo ^= low
            nb = adj[low.bit_length() - 1] & mask
            degrees += nb.bit_count()
            frontier = (frontier ^ low) | nb & todo
    return degrees == 2 * (mask.bit_count() - count)


def _is_caterpillar_forest(g: Graph, mask: int, budgets: Budgets) -> bool:
    # Pathwidth (bag cardinality) <= 2: a forest in which removing the
    # leaves leaves paths, so no vertex has three neighbours of degree >= 2.
    if not _is_acyclic(g, mask, budgets):
        return False
    adj = g.adj
    m = mask
    inner = 0
    while m:
        low = m & -m
        nb = adj[low.bit_length() - 1] & mask
        if nb & (nb - 1):
            inner |= low
        m ^= low
    m = inner
    while m:
        low = m & -m
        if (adj[low.bit_length() - 1] & inner).bit_count() > 2:
            return False
        m ^= low
    return True


def _is_star_forest(g: Graph, mask: int, budgets: Budgets) -> bool:
    # Every edge has an end of degree 1: no two vertices of degree >= 2
    # (``inner``, gathered in increasing order) are adjacent.
    adj = g.adj
    m = mask
    inner = 0
    while m:
        low = m & -m
        nb = adj[low.bit_length() - 1] & mask
        if nb & (nb - 1):
            if nb & inner:
                return False
            inner |= low
        m ^= low
    return True


def _is_bipartite(g: Graph, mask: int, budgets: Budgets) -> bool:
    # BFS layers alternate between two sides, ``side`` holding the frontier's.
    # An odd cycle shows as a frontier neighbour on its own side.
    adj = g.adj
    todo = mask
    while todo:
        frontier = side = todo & -todo
        other = 0
        while frontier:
            reach = 0
            while frontier:
                low = frontier & -frontier
                reach |= adj[low.bit_length() - 1]
                frontier ^= low
            if reach & side:
                return False
            frontier = reach & mask & ~other
            side, other = other | frontier, side
        todo &= ~(side | other)
    return True


def _threshold(two: Good, above: Callable[..., bool]) -> Callable[[int], Good]:
    """The ``target`` of a row that is 0 only on the empty mask and 1 only
    on edgeless ones: ``two`` at c = 2, ``above(c, g, mask, budgets)`` above."""

    def target(c: int) -> Good:
        return (_is_empty, _is_edgeless, two)[c] if c <= 2 else partial(above, c)

    return target


def _induced(g: Graph, mask: int) -> Graph:
    return g if mask == g.full_mask else g.induced(mask)[0]


def _td_above(c: int, g: Graph, mask: int, budgets: Budgets) -> bool:
    sub = _induced(g, mask)
    if sub.n <= budgets.width_exact:
        return widths.lambda_treedepth(sub, CARD, budgets).value <= c
    return widths.lambda_td_at_most(sub, CARD, c, budgets)


# ---------------------------------------------------------------------------
# Generic modulator solver


def _least_modulators(g: Graph, spec: ModulatorSpec, budgets: Budgets, within: int):
    """The (rho, c)-modulators of G[within] of the least size, lazily and in
    lexicographic order; S = within is always one, so there is a first."""
    good = predicate(spec.rho, spec.c)
    vertices = tuple(bits(within))
    for k in range(len(vertices) + 1):
        found = False
        for combo in combinations(vertices, k):
            if good(g, within & ~mask_of(combo), budgets):
                found = True
                yield combo
        if found:
            return


def modulator_number(
    g: Graph,
    spec: ModulatorSpec,
    kind: CostKind = CostKind.CARDINALITY,
    budgets: Budgets = DEFAULT_BUDGETS,
) -> tuple[int, tuple[int, ...]]:
    """Exact lambda-mu_{rho,c}: minimum lambda(G, S) over modulators S.

    Returns (value, witness), the witness lexicographically smallest among
    the optima.  Every graph has at least the trivial modulator S = V.
    """
    check_budget("modulator_number", g.n, budgets.width_exact)
    if kind is CostKind.CARDINALITY:
        witness = next(_least_modulators(g, spec, budgets, g.full_mask))
        return len(witness), witness

    # Depth-first over masks S, each grown only above its highest vertex, so
    # in lexicographic order.  alpha only grows along a branch, so a branch
    # ends once alpha(S) is no better than the incumbent or S is a modulator;
    # the first optimum found is the lexicographically smallest.  Many sets
    # are visited, so alpha comes from the dense table (n <= width_exact).
    alpha = alpha_table(g.adj)
    good = predicate(spec.rho, spec.c)
    full = g.full_mask
    best, witness = g.n + 1, 0
    stack = [0]  # explicit, so a finished search leaves no reference cycle
    while stack:
        s_mask = stack.pop()
        a = alpha[s_mask]
        if a >= best:
            continue
        if good(g, full & ~s_mask, budgets):
            best, witness = a, s_mask
            continue
        for v in range(g.n - 1, s_mask.bit_length() - 1, -1):  # pushed so the lowest pops first
            child = s_mask | 1 << v
            if alpha[child] < best:  # checked again when popped: best may have fallen
                stack.append(child)
    return best, tuple(bits(witness))


# ---------------------------------------------------------------------------
# Dedicated cover-type solvers (vertex cover, FVS, OCT)


def _cover_number(g: Graph, good: Good, budgets: Budgets, name: str) -> tuple[int, tuple[int, ...]]:
    """n - |F| and the cover V - F, for the first largest F with good(g, F)
    that ``_largest_kept`` meets; ``good`` must be hereditary.

    The search decides the vertices in increasing order, each put in the
    cover before it is kept, and prunes a branch once |kept| plus the
    vertices left is no larger than the best F so far.  So the cover is the
    lexicographically smallest minimum one.  The search meets the covers of
    one size in lexicographic order: if C < C', the two agree below some v
    in C - C', and the branch that puts v in the cover comes first.  And it
    reaches the first largest F: good holds on every prefix of F, and every
    branch on the way down has |kept| + vertices left >= |F| > best.
    """
    check_budget(name, g.n, budgets.cover_solvers)
    size, kept = _largest_kept(g, good, budgets, 0, 0, 0, 0, 0)
    return g.n - size, tuple(bits(g.full_mask ^ kept))


def _largest_kept(g: Graph, good, budgets, v: int, kept: int, size: int, best: int, best_kept: int):
    """``_cover_number``'s search below a branch that keeps ``kept``
    (``size`` vertices) of the vertices below v: the better of (``best``,
    ``best_kept``) and the best completion.  Module level, so a finished
    search leaves no cycle."""
    if v == g.n:
        return size, kept  # reached only above best
    if size + g.n - v - 1 > best:  # v joins the cover
        best, best_kept = _largest_kept(g, good, budgets, v + 1, kept, size, best, best_kept)
    kept |= 1 << v
    if size + g.n - v > best and good(g, kept, budgets):
        best, best_kept = _largest_kept(g, good, budgets, v + 1, kept, size + 1, best, best_kept)
    return best, best_kept


def vertex_cover_number(
    g: Graph, budgets: Budgets = DEFAULT_BUDGETS
) -> tuple[int, tuple[int, ...]]:
    """vc(G) = n - alpha(G), with the lexicographically smallest witness.

    A walk down the memo of one unit-weight ``_MaxWeight`` solve, from the
    lowest vertex v of the mask m: if alpha(m - v) = alpha(m), some minimum
    cover of G[m] holds v, and v joins the cover, as the smallest cover
    must; else every maximum independent set of G[m] holds v, so v is taken
    and N(v) joins the cover.  Both masks are the recursion's branches at m.
    """
    check_budget("vertex_cover_number", g.n, budgets.cover_solvers)
    adj, m, taken = g.adj, g.full_mask, 0
    alpha = _MaxWeight(adj, (1,) * g.n)
    value, memo = g.n - alpha(m), alpha.memo
    while m:
        low = m & -m
        if memo[m ^ low] == memo[m]:
            m ^= low
        else:
            taken |= low
            m &= ~(adj[low.bit_length() - 1] | low)
    return value, tuple(bits(g.full_mask ^ taken))


def feedback_vertex_number(
    g: Graph, budgets: Budgets = DEFAULT_BUDGETS
) -> tuple[int, tuple[int, ...]]:
    return _cover_number(g, _is_acyclic, budgets, "feedback_vertex_number")


def oct_number(
    g: Graph, budgets: Budgets = DEFAULT_BUDGETS
) -> tuple[int, tuple[int, ...]]:
    return _cover_number(g, _is_bipartite, budgets, "oct_number")


# ---------------------------------------------------------------------------
# Parameter table
#
# An entry takes (g, budgets) and returns (value, witness or None).  Entries
# and decision forms look their solvers up by module global at call time,
# so a solver replaced on its module is the one that runs.

Entry = Callable[[Graph, Budgets], tuple[int, object]]


@dataclass(frozen=True)
class Parameter:
    """One row of ``PARAMETERS``: the entries ``card`` and ``alpha``, the
    decision form ``at_most(g, kind, k, budgets)`` of lambda-rho(G) <= k,
    and ``target(c)``, the test of rho(G[mask]) <= c for c >= 0 that makes
    the row a modulator target.  A field the row lacks is None."""

    card: Entry
    alpha: Entry | None = None
    at_most: Callable[[Graph, CostKind, int, Budgets], bool] | None = None
    target: Callable[[int], Good] | None = None


def _pair(result) -> tuple[int, object]:
    return result.value, result.witness


def _independent_set(g: Graph, budgets: Budgets) -> tuple[int, tuple[int, ...]]:
    witness = max_independent_set(g)
    return len(witness), witness


def _local_alpha(g: Graph, budgets: Budgets) -> tuple[int, None]:
    return local_independence_number(g), None


def _alpha_modulator(rho: str, c: int) -> Entry:
    # The spec is built per call: ``ModulatorSpec`` reads the table.
    return lambda g, b: modulator_number(g, ModulatorSpec(rho, c), ALPHA, b)


PARAMETERS: dict[str, Parameter] = {
    "order": Parameter(lambda g, b: (g.n, None)),
    "alpha": Parameter(_independent_set),
    # alpha-omega is max over cliques X of alpha(G[X]): any vertex gives 1.
    "omega": Parameter(
        lambda g, b: (clique_number(g), None),
        lambda g, b: (1 if g.n else 0, None),
        target=_threshold(_is_triangle_free, lambda c, g, m, b: clique_number(g, m) <= c),
    ),
    "chi": Parameter(
        lambda g, b: (chromatic_number(g), None),
        lambda g, b: _pair(widths.alpha_chromatic(g, b)),
        target=_threshold(_is_bipartite, lambda c, g, m, b: is_k_colourable(_induced(g, m), c)),
    ),
    "delta": Parameter(
        lambda g, b: (max_degree(g), None),
        _local_alpha,
        target=lambda c: partial(_max_degree_at_most, c),
    ),
    "local-alpha": Parameter(_local_alpha),
    "matching": Parameter(lambda g, b: (max_matching_size(g), None)),
    "degeneracy": Parameter(
        lambda g, b: _pair(widths.degeneracy(g, CARD)),
        lambda g, b: _pair(widths.degeneracy(g, ALPHA)),
    ),
    "tw": Parameter(
        lambda g, b: _pair(widths.lambda_treewidth(g, CARD, b)),
        lambda g, b: _pair(widths.lambda_treewidth(g, ALPHA, b)),
        target=_threshold(
            _is_acyclic,
            lambda c, g, m, b: widths.lambda_treewidth(_induced(g, m), CARD, b).value <= c,
        ),
    ),
    "pw": Parameter(
        lambda g, b: _pair(widths.lambda_pathwidth(g, CARD, b)),
        lambda g, b: _pair(widths.lambda_pathwidth(g, ALPHA, b)),
        at_most=lambda g, kind, k, b: widths.lambda_pw_at_most(g, kind, k, b),
        target=_threshold(
            _is_caterpillar_forest,
            lambda c, g, m, b: widths.lambda_pw_at_most(_induced(g, m), CARD, c, b),
        ),
    ),
    "td": Parameter(
        lambda g, b: _pair(widths.lambda_treedepth(g, CARD, b)),
        lambda g, b: _pair(widths.lambda_treedepth(g, ALPHA, b)),
        at_most=lambda g, kind, k, b: widths.lambda_td_at_most(g, kind, k, b),
        target=_threshold(_is_star_forest, _td_above),
    ),
    "vc": Parameter(lambda g, b: vertex_cover_number(g, b), _alpha_modulator("tw", 1)),
    "fvs": Parameter(lambda g, b: feedback_vertex_number(g, b), _alpha_modulator("tw", 2)),
    "oct": Parameter(lambda g, b: oct_number(g, b), _alpha_modulator("chi", 2)),
}


def parameter(name: str, kind: CostKind = CARD) -> Entry:
    """The table entry of ``name`` under ``kind``."""
    if name not in PARAMETERS:
        raise ValueError(f"unknown parameter {name!r}")
    row = PARAMETERS[name]
    entry = row.alpha if kind is ALPHA else row.card
    if entry is None:
        raise ValueError(f"{name!r} has no alpha-variant")
    return entry


# ---------------------------------------------------------------------------
# Ramsey binding


def ramsey_upper(a: int, b: int) -> int:
    """The binomial upper bound C(a+b-2, a-1) on the Ramsey number R(a, b)."""
    if a < 1 or b < 1:
        raise ValueError("Ramsey arguments must be positive")
    return comb(a + b - 2, a - 1)


def binding_f(p: int, k: int) -> int:
    """The per-graph binding function R(p+1, k+1) - 1, with R replaced by
    its binomial upper bound."""
    return ramsey_upper(p + 1, k + 1) - 1


def ramsey_property_check(n: int, a: int, b: int) -> bool:
    """Does every graph on n vertices have a clique of size a or an
    independent set of size b?  Both sizes are isomorphism invariants, so
    one graph per class settles it; n is limited by the enumeration."""
    return all(clique_number(g) >= a or independence_number(g) >= b for g in enumerate_graphs(n))


# ---------------------------------------------------------------------------
# Per-graph lemma checks


def minimum_modulators(g: Graph, spec: ModulatorSpec, budgets: Budgets = DEFAULT_BUDGETS):
    """All minimum-cardinality (rho, c)-modulators, lexicographic order."""
    check_budget("minimum_modulators", g.n, budgets.width_exact)
    found = list(_least_modulators(g, spec, budgets, g.full_mask))
    return len(found[0]), found


def check_modulator_minimality(
    g: Graph, spec: ModulatorSpec, budgets: Budgets = DEFAULT_BUDGETS
) -> str | None:
    """The exchange step behind heaviness: for every minimum (rho, c)-
    modulator S and every maximum independent set I of G[S], the graph
    G' = G[(V - S) + I] still needs a modulator of size at least |I|.

    Returns None when the invariant holds, else a counterexample detail.
    """
    _, mods = minimum_modulators(g, spec, budgets)
    for s in mods:
        s_mask = mask_of(s)
        subsets = independent_subsets(g, s_mask)
        size_i = max(i_mask.bit_count() for i_mask in subsets)
        for i_mask in subsets:
            if i_mask.bit_count() < size_i:
                continue
            keep = (g.full_mask & ~s_mask) | i_mask
            inner = len(next(_least_modulators(g, spec, budgets, keep)))
            if inner < size_i:
                return (
                    f"S={sorted(s)} I={sorted(bits(i_mask))}: "
                    f"mu({spec}) of exchanged graph is {inner} < |I|={size_i}"
                )
    return None


def slack_failure(
    spec: ModulatorSpec, kind: CostKind, lhs: int, modulator: tuple[int, tuple[int, ...]]
) -> str | None:
    """The slack inequality with both sides given, lambda-rho(G) = ``lhs``
    and ``modulator`` = (lambda-mu_{rho,c}(G), its witness): None when
    ``lhs`` <= lambda-mu_{rho,c}(G) + c, else the failure."""
    mu, witness = modulator
    if lhs <= mu + spec.c:
        return None
    return (
        f"{kind.value}-{spec.rho}={lhs} exceeds {kind.value}-mu[{spec}]={mu} "
        f"+ c={spec.c} (witness S={list(witness)})"
    )


@cache
def empirical_h(rho: str, c: int, budgets: Budgets = DEFAULT_BUDGETS) -> int:
    """max omega(G) over graphs with rho(G) <= c, n <= 6.

    With the bag-cardinality width convention, omega <= tw holds exactly,
    so h is the identity for treewidth; for other targets this empirical
    value is reporting-only.
    """
    if rho == "tw":
        return c
    graphs = (g for n in range(7) for g in enumerate_graphs(n))
    return max((clique_number(g) for g in graphs if rho_at_most(g, rho, c, budgets)), default=0)
