"""Modulator numbers, cover-type solvers, the parameter table, and the
Ramsey binding function.

A (rho, c)-modulator of G is a vertex set S with rho(G - S) <= c; its
cardinality and independence variants minimise |S| and alpha(G[S]).  With
the bag-cardinality width convention used throughout, (tw,1)- and
(td,1)-modulators are the vertex covers, (tw,2)-modulators the feedback
vertex sets, and (chi,2)-modulators the odd cycle transversals.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from itertools import combinations
from collections.abc import Callable

from .config import Budgets, DEFAULT_BUDGETS
from .decomp import CostKind
from .graphs import BudgetExceededError, Graph, bits, mask_of
from .invariants import (
    SubsetAlpha,
    chromatic_number,
    clique_number,
    is_bipartite,
    is_k_colourable,
    local_independence_number,
    max_degree,
    max_independent_set,
    max_matching_size,
)
from . import widths

CARD = CostKind.CARDINALITY
ALPHA = CostKind.INDEPENDENCE
RHO_NAMES = ("tw", "pw", "td", "chi", "omega", "delta")


@dataclass(frozen=True)
class ModulatorSpec:
    rho: str
    c: int

    def __post_init__(self):
        if self.rho not in RHO_NAMES:
            raise ValueError(f"unknown target parameter {self.rho!r}")
        if self.c < 0:
            raise ValueError("modulator threshold must be non-negative")

    @staticmethod
    def parse(text: str) -> "ModulatorSpec":
        try:
            rho, c = text.split(":")
            return ModulatorSpec(rho.strip(), int(c))
        except ValueError:
            raise ValueError(f"bad modulator spec {text!r}, expected 'rho:c'") from None

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
    """rho(G[within]) <= c, ``within`` defaulting to all of V.

    The small thresholds that the modulator solver hammers on are decided on
    ``g.adj`` directly; only the exact fallbacks (pw at c >= 2, tw and td at
    c >= 3, chi at c >= 3) build the induced subgraph.
    """
    adj = g.adj
    mask = g.full_mask if within is None else within
    if not mask:
        return c >= 0
    if rho == "omega":
        return clique_number(g, mask) <= c
    if rho == "delta":
        return max((adj[v] & mask).bit_count() for v in bits(mask)) <= c
    if c <= 0 and rho in ("tw", "pw", "td", "chi"):
        return False
    if c == 1 and rho in ("tw", "pw", "td", "chi"):
        return not any(adj[v] & mask for v in bits(mask))
    if c == 2 and rho == "tw":
        return _mask_is_acyclic(g, mask)
    if c == 2 and rho == "td":
        # Star forest: every edge has an end of degree 1, so a vertex of
        # degree >= 2 is the centre of a star whose leaves see only it.
        for v in bits(mask):
            nb = adj[v] & mask
            if nb & (nb - 1) and any(adj[u] & mask != 1 << v for u in bits(nb)):
                return False
        return True
    if c == 2 and rho == "chi":
        return is_bipartite(g, mask)[0]
    sub = g if mask == g.full_mask else g.induced(mask)[0]
    if rho == "chi":
        return is_k_colourable(sub, c)
    return parameter(rho)(sub, budgets)[0] <= c


# ---------------------------------------------------------------------------
# Generic modulator solver


def _subsets_lex(n: int):
    """All subsets of range(n) as sorted tuples in lexicographic order."""

    def rec(prefix: tuple[int, ...], start: int):
        yield prefix
        for v in range(start, n):
            yield from rec(prefix + (v,), v + 1)

    yield from rec((), 0)


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
    if g.n > budgets.modulator:
        raise BudgetExceededError(
            f"modulator_number: n={g.n} exceeds budget {budgets.modulator}"
        )
    is_mod_cache: dict[int, bool] = {}

    def is_modulator(s_mask: int) -> bool:
        cached = is_mod_cache.get(s_mask)
        if cached is None:
            cached = rho_at_most(g, spec.rho, spec.c, budgets, within=g.full_mask & ~s_mask)
            is_mod_cache[s_mask] = cached
        return cached

    if kind is CostKind.CARDINALITY:
        for k in range(g.n + 1):
            for combo in combinations(range(g.n), k):
                if is_modulator(mask_of(combo)):
                    return k, combo
        raise AssertionError("S = V(G) is always a modulator")

    alpha = SubsetAlpha(g)
    best = None
    witness: tuple[int, ...] = ()
    for subset in _subsets_lex(g.n):
        a = alpha(mask_of(subset))
        if best is not None and a >= best:
            continue
        if is_modulator(mask_of(subset)):
            best = a
            witness = subset
            if best == 0:
                break
    return best, witness


# ---------------------------------------------------------------------------
# Dedicated cover-type solvers (vertex cover, FVS, OCT)


def _mask_is_acyclic(g: Graph, mask: int) -> bool:
    edges = sum((g.adj[v] & mask).bit_count() for v in bits(mask)) // 2
    return edges == mask.bit_count() - len(g.components(mask))


def _max_induced(g: Graph, good, within: int) -> int:
    """Largest subset F of ``within`` with good(F), by branch and bound."""
    order = sorted(bits(within))
    best = 0

    def rec(i: int, chosen: int, size: int):
        nonlocal best
        if size + len(order) - i <= best:
            return
        if i == len(order):
            best = max(best, size)
            return
        v = order[i]
        if good(chosen | 1 << v):
            rec(i + 1, chosen | 1 << v, size + 1)
        rec(i + 1, chosen, size)

    rec(0, 0, 0)
    return best


def vertex_cover_number(
    g: Graph, budgets: Budgets = DEFAULT_BUDGETS
) -> tuple[int, tuple[int, ...]]:
    """vc(G) = n - alpha(G), with the lexicographically smallest witness."""
    if g.n > budgets.cover_solvers:
        raise BudgetExceededError(
            f"vertex_cover_number: n={g.n} exceeds budget {budgets.cover_solvers}"
        )
    alpha = SubsetAlpha(g)
    target = g.n - alpha(g.full_mask)
    chosen: list[int] = []
    deleted = 0
    for v in range(g.n):
        if len(chosen) == target:
            break
        trial = deleted | 1 << v
        rest = g.full_mask & ~trial
        if (rest.bit_count() - alpha(rest)) <= target - len(chosen) - 1:
            chosen.append(v)
            deleted = trial
    return target, tuple(chosen)


def _cover_type_number(g, good, budget_n, budgets, name):
    if g.n > budget_n:
        raise BudgetExceededError(f"{name}: n={g.n} exceeds budget {budget_n}")
    keep = _max_induced(g, good, g.full_mask)
    target = g.n - keep
    chosen: list[int] = []
    deleted = 0
    for v in range(g.n):
        if len(chosen) == target:
            break
        trial = deleted | 1 << v
        if _max_induced(g, good, g.full_mask & ~trial) >= g.n - target:
            chosen.append(v)
            deleted = trial
    return target, tuple(chosen)


def feedback_vertex_number(
    g: Graph, budgets: Budgets = DEFAULT_BUDGETS
) -> tuple[int, tuple[int, ...]]:
    return _cover_type_number(
        g,
        lambda m: _mask_is_acyclic(g, m),
        budgets.cover_solvers,
        budgets,
        "feedback_vertex_number",
    )


def oct_number(
    g: Graph, budgets: Budgets = DEFAULT_BUDGETS
) -> tuple[int, tuple[int, ...]]:
    return _cover_type_number(
        g,
        lambda m: is_bipartite(g, m)[0],
        budgets.cover_solvers,
        budgets,
        "oct_number",
    )


# ---------------------------------------------------------------------------
# Parameter table
#
# Each parameter maps to its cardinality entry and its alpha-variant (None
# where it has none).  An entry takes (g, budgets) and returns (value,
# witness or None).  Entries look their solvers up by module global at call
# time, so a solver replaced on its module is the one that runs.

Entry = Callable[[Graph, Budgets], tuple[int, object]]


def _pair(result) -> tuple[int, object]:
    return result.value, result.witness


def _independent_set(g: Graph, budgets: Budgets) -> tuple[int, tuple[int, ...]]:
    witness = max_independent_set(g)
    return len(witness), witness


def _alpha_modulator(rho: str, c: int) -> Entry:
    spec = ModulatorSpec(rho, c)
    return lambda g, b: modulator_number(g, spec, ALPHA, b)


PARAMETERS: dict[str, tuple[Entry, Entry | None]] = {
    "order": (lambda g, b: (g.n, None), None),
    "alpha": (_independent_set, None),
    # alpha-omega is max over cliques X of alpha(G[X]): any vertex gives 1.
    "omega": (lambda g, b: (clique_number(g), None), lambda g, b: (1 if g.n else 0, None)),
    "chi": (
        lambda g, b: (chromatic_number(g), None),
        lambda g, b: _pair(widths.alpha_chromatic(g, b)),
    ),
    "delta": (
        lambda g, b: (max_degree(g), None),
        lambda g, b: (local_independence_number(g) if g.n else 0, None),
    ),
    "local-alpha": (lambda g, b: (local_independence_number(g), None), None),
    "matching": (lambda g, b: (max_matching_size(g), None), None),
    "degeneracy": (
        lambda g, b: _pair(widths.degeneracy(g, CARD)),
        lambda g, b: _pair(widths.degeneracy(g, ALPHA)),
    ),
    "tw": (
        lambda g, b: _pair(widths.lambda_treewidth(g, CARD, b)),
        lambda g, b: _pair(widths.lambda_treewidth(g, ALPHA, b)),
    ),
    "pw": (
        lambda g, b: _pair(widths.lambda_pathwidth(g, CARD, b)),
        lambda g, b: _pair(widths.lambda_pathwidth(g, ALPHA, b)),
    ),
    "td": (
        lambda g, b: _pair(widths.lambda_treedepth(g, CARD, b)),
        lambda g, b: _pair(widths.lambda_treedepth(g, ALPHA, b)),
    ),
    "vc": (lambda g, b: vertex_cover_number(g, b), _alpha_modulator("tw", 1)),
    "fvs": (lambda g, b: feedback_vertex_number(g, b), _alpha_modulator("tw", 2)),
    "oct": (lambda g, b: oct_number(g, b), _alpha_modulator("chi", 2)),
}


def parameter(name: str, kind: CostKind = CARD) -> Entry:
    """The table entry of ``name`` under ``kind``."""
    if name not in PARAMETERS:
        raise ValueError(f"unknown parameter {name!r}")
    card, alpha = PARAMETERS[name]
    entry = alpha if kind is ALPHA else card
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


RAMSEY_CHECK_MAX_N = 6


def ramsey_property_check(n: int, a: int, b: int) -> bool:
    """Does every graph on n vertices have a clique of size a or an
    independent set of size b?  Exhaustive over all labelled graphs."""
    if n > RAMSEY_CHECK_MAX_N:
        raise BudgetExceededError(
            f"ramsey_property_check: n={n} exceeds budget {RAMSEY_CHECK_MAX_N}"
        )
    if a <= 1 or b <= 1:
        # A K_1 or a single-vertex independent set exists whenever n >= 1;
        # size-0 witnesses exist vacuously.
        return n >= 1 or a <= 0 or b <= 0
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    index = {pair: t for t, pair in enumerate(pairs)}

    def pair_mask(subset) -> int:
        m = 0
        for x, y in combinations(subset, 2):
            m |= 1 << index[(x, y)]
        return m

    clique_masks = [pair_mask(s) for s in combinations(range(n), a)]
    indep_masks = [pair_mask(s) for s in combinations(range(n), b)]
    for code in range(1 << len(pairs)):
        if any(code & m == m for m in clique_masks):
            continue
        if any(code & m == 0 for m in indep_masks):
            continue
        return False
    return True


# ---------------------------------------------------------------------------
# Per-graph lemma checks


def minimum_modulators(
    g: Graph,
    spec: ModulatorSpec,
    budgets: Budgets = DEFAULT_BUDGETS,
    cap: int = 100_000,
):
    """All minimum-cardinality (rho, c)-modulators, lexicographic order."""
    value, _ = modulator_number(g, spec, CostKind.CARDINALITY, budgets)
    out = []
    for combo in combinations(range(g.n), value):
        if rho_at_most(g, spec.rho, spec.c, budgets, within=g.full_mask & ~mask_of(combo)):
            out.append(combo)
            if len(out) >= cap:
                break
    return value, out


def _maximum_independent_subsets(g: Graph, s_mask: int):
    """All maximum independent sets of G[s_mask], as masks."""
    alpha = SubsetAlpha(g)
    target = alpha(s_mask)
    found = []

    def rec(rest: int, chosen: int, size: int):
        if size == target:
            found.append(chosen)
            return
        if size + alpha(rest) < target:
            return
        v = next(bits(rest))
        rec(rest & ~(g.adj[v] | 1 << v), chosen | 1 << v, size + 1)
        rec(rest & ~(1 << v), chosen, size)

    rec(s_mask, 0, 0)
    return target, found


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
        size_i, max_inds = _maximum_independent_subsets(g, s_mask)
        for i_mask in max_inds:
            keep = (g.full_mask & ~s_mask) | i_mask
            sub, _ = g.induced(keep)
            inner, _ = modulator_number(sub, spec, CostKind.CARDINALITY, budgets)
            if inner < size_i:
                return (
                    f"S={sorted(s)} I={sorted(bits(i_mask))}: "
                    f"mu({spec}) of exchanged graph is {inner} < |I|={size_i}"
                )
    return None


def check_modulator_slack(
    g: Graph,
    spec: ModulatorSpec,
    kind: CostKind,
    budgets: Budgets = DEFAULT_BUDGETS,
) -> str | None:
    """lambda-rho(G) <= lambda-mu_{rho,c}(G) + c; None when it holds."""
    lhs = parameter(spec.rho, kind)(g, budgets)[0]
    mu, witness = modulator_number(g, spec, kind, budgets)
    if lhs <= mu + spec.c:
        return None
    return (
        f"{kind.value}-{spec.rho}={lhs} exceeds {kind.value}-mu[{spec}]={mu} "
        f"+ c={spec.c} (witness S={list(witness)})"
    )


_EMPIRICAL_H_CACHE: dict[tuple[str, int], int] = {}


def empirical_h(rho: str, c: int, budgets: Budgets = DEFAULT_BUDGETS) -> int:
    """max omega(G) over graphs with rho(G) <= c, n <= 6.

    With the bag-cardinality width convention, omega <= tw holds exactly,
    so h is the identity for treewidth; for other targets this empirical
    value is reporting-only.
    """
    if rho == "tw":
        return c
    key = (rho, c)
    if key not in _EMPIRICAL_H_CACHE:
        from .graphs import enumerate_graphs

        best = 0
        for n in range(0, 7):
            for g in enumerate_graphs(n):
                if rho_at_most(g, rho, c, budgets):
                    best = max(best, clique_number(g))
        _EMPIRICAL_H_CACHE[key] = best
    return _EMPIRICAL_H_CACHE[key]
