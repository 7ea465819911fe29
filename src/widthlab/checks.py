"""Named verification suites over generated graph families.

Each registered check evaluates one per-graph fact on every member of its
family and reports structured failures.  ``CHECKS`` holds one ``Check`` per
name, whose ``defaults`` are all the settings the check has: its family
sizes and seed, overridden by a run's params (``CheckSpec.params``, the CLI
flags, or the ``checks`` section of ``--config``).  Checks are
deterministic under a fixed seed; a failing instance always carries a
graph6 string that reproduces the problem through the ``param`` CLI.
"""

from __future__ import annotations

import copy
import json
import os
import random
import time
from functools import lru_cache
from collections.abc import Callable
from dataclasses import dataclass, field

from .config import Budgets, DEFAULT_BUDGETS
from .constructions import SubstitutionKind, check_gamma_budget, gamma_family, gamma_order
from .constructions import substitute, substitution_order
from .decomp import CostKind, chordal_clique_tree, cost, tree_decomp_from_fvs
from .formats import FormatError, from_graph6, graph6_from_code, to_graph6
from .graphs import (
    Graph,
    _canonical_codes,
    check_budget,
    check_enumeration,
    complete_bipartite,
    complete_graph,
    copies,
    mask_of,
    named_graph,
    path_graph,
    random_graph,
    random_permutation,
    star,
)
from .invariants import SubsetAlpha, contains_induced, is_chordal
from . import modulators
from .modulators import (
    PARAMETERS,
    ModulatorSpec,
    binding_f,
    check_modulator_minimality,
    empirical_h,
    parameter,
    predicate,
    ramsey_property_check,
    rho_at_most,
    slack_failure,
)
from .mwis import WeightedGraph, mwis_bipartite, mwis_exact, mwis_via_oct

CARD = CostKind.CARDINALITY
ALPHA = CostKind.INDEPENDENCE
# The default seed of every seeded check and of the CLI's random: family.
DEFAULT_SEED = 20250810


@dataclass(frozen=True)
class CheckSpec:
    name: str
    params: dict = field(default_factory=dict)


@dataclass
class CheckReport:
    name: str
    instances_tested: int
    failures: list[tuple[str, str]]
    elapsed_ms: int
    meta: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self, include_timing: bool = True) -> dict:
        data = {
            "name": self.name,
            "instances_tested": self.instances_tested,
            "failures": [list(f) for f in self.failures],
            "pass": self.passed,
        }
        if self.meta:
            data["meta"] = self.meta
        if include_timing:
            data["elapsed_ms"] = self.elapsed_ms
        return data


# ---------------------------------------------------------------------------
# Families


def enumerated_graph6(max_n: int, min_n: int = 1) -> list[str]:
    """The graph6 string of every graph on min_n .. max_n vertices, by order
    and then canonical code, encoded straight from the canonical codes with
    no ``Graph`` built.  An over-budget max_n fails before any smaller n is
    enumerated."""
    check_enumeration(max_n)
    return [
        graph6_from_code(n, code) for n in range(min_n, max_n + 1) for code in _canonical_codes(n)
    ]


def _seeded_weights(n: int, seed: int, weight_max: int) -> tuple[int, ...]:
    rng = random.Random(seed)
    return tuple(rng.randint(0, weight_max) for _ in range(n))


def _random_bipartite(n_max: int, seed: int) -> Graph:
    rng = random.Random(seed)
    n = rng.randint(2, n_max)
    left = rng.randint(1, n - 1)
    p = rng.uniform(0.2, 0.8)
    edges = [
        (u, v)
        for u in range(left)
        for v in range(left, n)
        if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


def _graph_family(params: dict) -> list[str]:
    """The ``graphs`` param, else every graph on 1 .. max_n vertices.  A
    ``graphs`` entry that is not graph6 fails, named, before any member is
    evaluated."""
    if "graphs" not in params:
        return enumerated_graph6(params["max_n"])
    for i, g6 in enumerate(params["graphs"]):
        try:
            from_graph6(g6)
        except FormatError as exc:
            raise FormatError(f"graphs[{i}] {g6!r} is not graph6: {exc}") from None
    return list(params["graphs"])


def _per_graph(params: dict, budgets: Budgets) -> list[dict]:
    return [{"g6": g6} for g6 in _graph_family(params)]


def _td_path_instances(params: dict, budgets: Budgets) -> list[dict]:
    """P_1 .. P_max_n; P_max_n must fit the td decision form."""
    check_budget("lambda_td_at_most", params["max_n"], budgets.td_decision)
    return [{"n": n} for n in range(1, params["max_n"] + 1)]


def _nk2_knn_instances(params: dict, budgets: Budgets) -> list[dict]:
    """n = 1 .. max_n; K_{max_n,max_n} must fit the cover solvers."""
    check_budget("vertex_cover_number", 2 * params["max_n"], budgets.cover_solvers)
    return [{"n": n} for n in range(1, params["max_n"] + 1)]


def _star_instances(params: dict, budgets: Budgets) -> list[dict]:
    """K_1,q for q = q_min .. q_max; K_1,q_max must fit the modulator search."""
    check_budget("modulator_number", params["q_max"] + 1, budgets.width_exact)
    return [{"q": q} for q in range(params["q_min"], params["q_max"] + 1)]


def _ramsey_instances(params: dict, budgets: Budgets) -> list[dict]:
    return _per_graph(params, budgets) + [
        {"fact": [6, 3, 3], "expect": True},
        {"fact": [5, 3, 3], "expect": False},
    ]


def _sclaw_instances(params: dict, budgets: Budgets) -> list[dict]:
    """The graph family, then the seeded random graphs.  A member whose
    s-claw substitution exceeds ``pw_decision``, or whose P5 substitution
    exceeds ``td_decision``, fails before any member is evaluated; the net
    substitution is never larger than the s-claw one."""
    if "graphs" in params:
        orders = [from_graph6(g6).n for g6 in _graph_family(params)]
    else:
        orders = [params["max_n"]]
        check_enumeration(orders[0])  # an enumeration range error is reported first
        if params["random_count"]:
            orders.append(params["random_n"])
    _sclaw_orders(orders, budgets)
    out = _per_graph(params, budgets)
    if "graphs" not in params:
        seed = params["seed"]
        for i in range(params["random_count"]):
            g = random_graph(params["random_n"], 0.5, seed + i)
            out.append({"g6": to_graph6(g)})
    return out


def _sclaw_orders(orders: list[int], budgets: Budgets) -> None:
    """Raise unless the largest of the orders fits the s-claw substitution to
    ``pw_decision`` and the P5 one to ``td_decision``."""
    n = max(orders, default=0)
    sclaw, p5 = SubstitutionKind.S_CLAW, SubstitutionKind.P5
    check_budget("lambda_pw_at_most", substitution_order(n, sclaw), budgets.pw_decision)
    check_budget("lambda_td_at_most", substitution_order(n, p5), budgets.td_decision)


def _slack_instances(params: dict, budgets: Budgets) -> list[dict]:
    """Every (graph, rho, c, kind); a bad override raises before any graph is
    read."""
    for rho in params["rhos"]:
        for c in params["cs"]:
            ModulatorSpec(rho, c)
    for kind in params["kinds"]:
        CostKind.parse(kind)
    return [
        {"g6": g6, "rho": rho, "c": c, "kind": kind}
        for g6 in _graph_family(params)
        for rho in params["rhos"]
        for c in params["cs"]
        for kind in params["kinds"]
    ]


def _minimality_instances(params: dict, budgets: Budgets) -> list[dict]:
    return [{"g6": g6, "spec": spec} for g6 in _graph_family(params) for spec in params["specs"]]


def _mwis_instances(params: dict, budgets: Budgets) -> list[dict]:
    """The weighted graphs on 1 .. max_n vertices, the random graphs and the
    random bipartite graphs, or the ``graphs`` param.  ``random_max_n`` and
    the order of each ``graphs`` member must fit ``mwis_exact`` and then
    ``oct_alpha``, ``bipartite_max_n`` must fit ``mwis_exact``: the budgets
    the evaluator would hit first, checked before any member is built."""
    if "graphs" in params:
        family = _graph_family(params)
        _mwis_orders([from_graph6(g6).n for g6 in family], budgets)
        return [
            {"g6": g6, "wseed": params["seed"] + i, "mode": "oct"}
            for i, g6 in enumerate(family)
        ]
    if params["random_count"]:
        _mwis_orders([params["random_max_n"]], budgets)
    if params["bipartite_count"]:
        check_budget("mwis_exact", params["bipartite_max_n"], budgets.mwis_exact)
    out = []
    seed = params["seed"]
    for idx, g6 in enumerate(enumerated_graph6(params["max_n"])):
        for s in range(params["weight_seeds"]):
            out.append({"g6": g6, "wseed": seed + 1000 * s + idx, "mode": "oct"})
    for i in range(params["random_count"]):
        rng = random.Random(seed + 500_000 + i)
        n = rng.randint(1, params["random_max_n"])
        g = random_graph(n, rng.uniform(0.1, 0.9), seed + 600_000 + i)
        out.append({"g6": to_graph6(g), "wseed": seed + 700_000 + i, "mode": "oct"})
    for i in range(params["bipartite_count"]):
        g = _random_bipartite(params["bipartite_max_n"], seed + 800_000 + i)
        out.append({"g6": to_graph6(g), "wseed": seed + 900_000 + i, "mode": "bipartite"})
    return out


def _mwis_orders(orders: list[int], budgets: Budgets) -> None:
    """Raise unless each order, in turn, fits ``mwis_exact`` and then
    ``oct_alpha``."""
    for n in orders:
        check_budget("mwis_exact", n, budgets.mwis_exact)
        check_budget("find_oct_with_bounded_alpha", n, budgets.oct_alpha)


def _alpha_chi_instances(params: dict, budgets: Budgets) -> list[dict]:
    """K_1 .. K_max_s, 2K2 and 3K3, the largest of which must fit
    ``alpha_chromatic``."""
    check_budget("alpha_chromatic", max(params["max_s"], 9), budgets.alpha_chromatic)
    out = [{"graph": f"K{s}", "expect": 1} for s in range(1, params["max_s"] + 1)]
    out.append({"graph": "2K2", "expect": 2})
    out.append({"graph": "3K3", "expect_at_least": 3})
    return out


def _gamma_instances(params: dict, budgets: Budgets) -> list[dict]:
    """S_1 .. S_max_n.  An over-budget max_n fails before any S_n is built."""
    check_gamma_budget(params["max_n"], budgets)
    return [{"index": i} for i in range(1, params["max_n"] + 1)]


def _iso_instances(params: dict, budgets: Budgets) -> list[dict]:
    return [
        {"g6": g6, "relabelings": params["relabelings"], "seed": params["seed"]}
        for g6 in _graph_family(params)
    ]


# ---------------------------------------------------------------------------
# Per-graph profile


class _Profile:
    """One labelled graph and the table entries and modulator numbers
    evaluated on it so far."""

    def __init__(self, graph: Graph, budgets: Budgets):
        self.graph = graph
        self.budgets = budgets
        self._entries: dict[tuple[str, CostKind], tuple[int, object]] = {}
        self._modulators: dict[tuple[modulators.Good, CostKind], tuple[int, tuple[int, ...]]] = {}

    def parameter(self, name: str, kind: CostKind = CARD) -> tuple[int, object]:
        """``parameter(name, kind)(graph, budgets)``, evaluated once."""
        key = (name, kind)
        if key not in self._entries:
            self._entries[key] = parameter(name, kind)(self.graph, self.budgets)
        return self._entries[key]

    def modulator(self, spec: ModulatorSpec, kind: CostKind = CARD) -> tuple[int, tuple[int, ...]]:
        """``modulator_number(graph, spec, kind, budgets)``, searched once per
        test that ``predicate(spec.rho, spec.c)`` resolves to: the search
        reads nothing else of the spec, and every rho shares the c = 0 and
        c = 1 tests."""
        key = (predicate(spec.rho, spec.c), kind)
        if key not in self._modulators:
            self._modulators[key] = modulators.modulator_number(
                self.graph, spec, kind, self.budgets
            )
        return self._modulators[key]

    def table(self) -> dict[str, int]:
        """Every entry of ``PARAMETERS``, under each kind it has, by the
        name the ``param`` CLI reads (``tw``, ``alpha-tw``, ...)."""
        return {
            name if kind is CARD else f"alpha-{name}": self.parameter(name, kind)[0]
            for name, row in PARAMETERS.items()
            for kind, entry in ((CARD, row.card), (ALPHA, row.alpha))
            if entry is not None
        }


@lru_cache(maxsize=1)
def _graph_profile(g6: str, budgets: Budgets) -> _Profile:
    """The profile of the labelled graph ``g6``: the only way a family check
    sees its graph and its table values.

    A family builder emits a graph's instances contiguously, so one slot
    serves them all; under ``--jobs`` each worker keeps its own.  The key is
    the labelled graph6 string, never a canonical form, so a relabelling is
    always solved afresh: ``iso-invariance`` builds a fresh ``_Profile`` for
    each one.
    """
    return _Profile(from_graph6(g6), budgets)


# ---------------------------------------------------------------------------
# Evaluators: each returns None when its fact holds on the instance, else a
# failure detail.  The docstring states the fact.


def _eval_chain(inst, params, budgets) -> str | None:
    """tw <= pw <= td <= vc + 1 for both cost kinds."""
    profile = _graph_profile(inst["g6"], budgets)
    for kind in (CARD, ALPHA):
        tw, pw, td, vc = (profile.parameter(name, kind)[0] for name in ("tw", "pw", "td", "vc"))
        if not (tw <= pw <= td <= vc + 1):
            return f"{kind.value}: tw={tw} pw={pw} td={td} vc={vc}"
    return None


def _eval_ramsey_binding(inst, params, budgets) -> str | None:
    """rho <= C(omega + alpha-rho, omega) - 1 for every parameter row with an
    alpha-variant, omega included (it binds trivially: alpha-omega = 1 and
    f(omega, 1) = omega); plus exact R(3,3) facts."""
    if "fact" in inst:
        n, a, b = inst["fact"]
        got = ramsey_property_check(n, a, b)
        if got != inst["expect"]:
            return f"ramsey_property_check({n},{a},{b}) = {got}, expected {inst['expect']}"
        return None
    profile = _graph_profile(inst["g6"], budgets)
    if not profile.graph.n:
        return None  # f needs omega >= 1; the empty graph binds nothing
    omega = profile.parameter("omega")[0]
    for rho in (name for name, row in PARAMETERS.items() if row.alpha):
        plain, alpha_variant = (profile.parameter(rho, kind)[0] for kind in (CARD, ALPHA))
        bound = binding_f(omega, alpha_variant)
        if plain > bound:
            return f"{rho}={plain} > f(omega={omega}) = {bound} with alpha-{rho}={alpha_variant}"
    return None


def _decide_value(h, name, kind, value, shown, label, budgets) -> str | None:
    """Settle lambda-``name``(h) == value under ``kind`` by the decision
    pair of that row's ``at_most`` at value - 1 and value; ``shown`` is how
    the failure text writes the expected value."""
    at_most = PARAMETERS[name].at_most
    if at_most(h, kind, value - 1, budgets):
        return f"{label} <= {value - 1}, expected {shown}"
    if not at_most(h, kind, value, budgets):
        return f"{label} > {shown}, expected {shown}"
    return None


def _eval_sclaw(inst, params, budgets) -> str | None:
    """the s-claw / P5 / net substitutions raise alpha-pw / alpha-td / alpha-pw by
    exactly 1."""
    profile = _graph_profile(inst["g6"], budgets)
    for kind, name, label in (
        (SubstitutionKind.S_CLAW, "pw", "alpha-pw(s(G))"),
        (SubstitutionKind.P5, "td", "alpha-td(p5(G))"),
        (SubstitutionKind.NET, "pw", "alpha-pw(net(G))"),
    ):
        k = profile.parameter(name, ALPHA)[0]
        h = substitute(profile.graph, kind)
        detail = _decide_value(h, name, ALPHA, k + 1, f"{k}+1", label, budgets)
        if detail:
            return detail
    return None


_P6 = path_graph(6)


def _eval_gamma(inst, params, budgets) -> str | None:
    """the iterated s-claw family: omega = n; chordal by a perfect
    elimination order, hence {C4,C5,C6}-free; alpha-tw = 1 by its clique
    tree; P6-free by an induced search; td <= 2 omega and alpha-pw(S_n) = n
    by decision forms."""
    index = inst["index"]
    g = gamma_family(index, budgets)
    expected_order = gamma_order(index, budgets)
    if g.n != expected_order:
        return f"|V(S_{index})| = {g.n}, expected {expected_order}"
    omega = parameter("omega")(g, budgets)[0]
    if omega != index:
        return f"omega(S_{index}) = {omega}, expected {index}"
    ok, _ = is_chordal(g)
    if not ok:
        return f"S_{index} is not chordal"
    clique_tree = chordal_clique_tree(g)
    alpha_tw_cost = cost(g, clique_tree, ALPHA)
    if alpha_tw_cost != 1:
        return f"clique tree of S_{index} has independence cost {alpha_tw_cost}"
    if contains_induced(g, _P6):
        return f"S_{index} contains an induced P6"
    if g.n <= budgets.td_decision:
        if not PARAMETERS["td"].at_most(g, CARD, 2 * omega, budgets):
            return f"td(S_{index}) > 2*omega = {2 * omega}"
    if g.n <= budgets.pw_decision:
        label = f"alpha-pw(S_{index})"
        return _decide_value(g, "pw", ALPHA, index, index, label, budgets)
    return None


def _eval_modulator_slack(inst, params, budgets) -> str | None:
    """lambda-rho <= lambda-mu[rho:c] + c."""
    profile = _graph_profile(inst["g6"], budgets)
    spec = ModulatorSpec(inst["rho"], inst["c"])
    kind = CostKind.parse(inst["kind"])
    lhs = profile.parameter(spec.rho, kind)[0]
    return slack_failure(spec, kind, lhs, profile.modulator(spec, kind))


def _eval_modulator_minimality(inst, params, budgets) -> str | None:
    """the exchange step: swapping a maximum independent set into a minimum
    modulator cannot shrink it."""
    g = _graph_profile(inst["g6"], budgets).graph
    spec = ModulatorSpec.parse(inst["spec"])
    return check_modulator_minimality(g, spec, budgets)


def _eval_modulator_identities(inst, params, budgets) -> str | None:
    """mu[tw:1] = mu[td:1] = vc, mu[tw:2] = fvs, mu[chi:2] = oct."""
    profile = _graph_profile(inst["g6"], budgets)
    g = profile.graph
    vc, vc_witness = profile.parameter("vc")
    fvs = profile.parameter("fvs")[0]
    oct_ = profile.parameter("oct")[0]
    pairs = [
        ("tw:1", vc),
        ("tw:2", fvs),
        ("chi:2", oct_),
        ("td:1", vc),
    ]
    for spec_text, expected in pairs:
        spec = ModulatorSpec.parse(spec_text)
        got, witness = profile.modulator(spec)
        if got != expected:
            return f"mu[{spec_text}] = {got}, dedicated solver says {expected}"
        if not rho_at_most(g, spec.rho, spec.c, budgets, within=g.full_mask & ~mask_of(witness)):
            return f"mu[{spec_text}] witness {witness} is not a modulator"
    uncovered = [
        (u, v) for u, v in g.edges() if u not in vc_witness and v not in vc_witness
    ]
    if uncovered:
        return f"vertex cover witness misses edge {uncovered[0]}"
    return None


def _mwis_witness_failure(wg: WeightedGraph, label: str, result) -> str | None:
    """None when ``result.vertices`` is independent in G and weighs
    ``result.weight``, else the failure."""
    picked = mask_of(result.vertices)
    if any(wg.graph.adj[v] & picked for v in result.vertices):
        return f"{label} witness {result.vertices} not independent"
    if result.weight != sum(wg.weights[v] for v in result.vertices):
        return f"{label} witness weight mismatch"
    return None


def _eval_mwis(inst, params, budgets) -> str | None:
    """OCT-based and bipartite MWIS agree with the exact oracle."""
    g = _graph_profile(inst["g6"], budgets).graph
    wg = WeightedGraph(g, _seeded_weights(g.n, inst["wseed"], params["weight_max"]))
    exact = mwis_exact(wg, budgets)
    detail = _mwis_witness_failure(wg, "exact", exact)
    if detail:
        return detail
    if inst["mode"] == "bipartite":
        other = mwis_bipartite(wg, budgets)
    else:
        # alpha(G[S]) <= |S| <= n, so k = n never cuts the search, and the
        # search returns the same minimum-alpha transversal for every k at
        # or above that minimum.  The weightings of one graph share its
        # transversal: mwis_via_oct keeps the last graph's layout.
        other = mwis_via_oct(wg, g.n, budgets)
    detail = _mwis_witness_failure(wg, inst["mode"], other)
    if detail:
        return detail
    if other.weight != exact.weight:
        return f"{inst['mode']} weight {other.weight} != exact {exact.weight}"
    return None


def _eval_fvs_alpha_tw(inst, params, budgets) -> str | None:
    """alpha-tw <= alpha(G[S]) + 1 for a minimum feedback vertex set S."""
    profile = _graph_profile(inst["g6"], budgets)
    g = profile.graph
    s_mask = mask_of(profile.parameter("fvs")[1])
    alpha_s = SubsetAlpha(g)(s_mask)
    decomposition = tree_decomp_from_fvs(g, s_mask)
    built_cost = cost(g, decomposition, ALPHA)
    if built_cost > alpha_s + 1:
        return f"fvs decomposition cost {built_cost} > alpha(G[S])+1 = {alpha_s + 1}"
    alpha_tw = profile.parameter("tw", ALPHA)[0]
    if alpha_tw > alpha_s + 1:
        return f"alpha-tw = {alpha_tw} > alpha(G[S])+1 = {alpha_s + 1}"
    return None


def _eval_delta_not_inheritable(inst, params, budgets) -> str | None:
    """stars violate the slack inequality for (delta, 0): the one direction
    that genuinely fails."""
    q = inst["q"]
    g = star(q)
    spec = ModulatorSpec("delta", 0)
    delta = parameter("delta")(g, budgets)[0]
    modulator = modulators.modulator_number(g, spec, CARD, budgets)
    if slack_failure(spec, CARD, delta, modulator) is None:
        return (
            f"K_1,{q}: slack Delta <= mu[delta:0] + 0 unexpectedly holds "
            f"(Delta={delta}, mu={modulator[0]})"
        )
    return None


def _eval_td_path(inst, params, budgets) -> str | None:
    """td(P_n) = ceil(log2(n+1))."""
    n = inst["n"]
    k = n.bit_length()  # ceil(log2(n+1)) for n >= 1
    return _decide_value(path_graph(n), "td", CARD, k, k, f"td(P_{n})", budgets)


def _eval_nk2_knn(inst, params, budgets) -> str | None:
    """nK2 and K_{n,n} have clique number 2 and vertex cover number n."""
    n = inst["n"]
    for label, g in ((f"{n}K2", copies(n, complete_graph(2))), (f"K_{n},{n}", complete_bipartite(n, n))):
        vc = parameter("vc")(g, budgets)[0]
        if vc != n:
            return f"vc({label}) = {vc}, expected {n}"
        omega = parameter("omega")(g, budgets)[0]
        if omega != 2:
            return f"omega({label}) = {omega}, expected 2"
    return None


def _eval_alpha_chi(inst, params, budgets) -> str | None:
    """alpha-chi(K_s) = 1, alpha-chi(2K2) = 2, alpha-chi(3K3) >= 3."""
    g = named_graph(inst["graph"])
    value = parameter("chi", ALPHA)(g, budgets)[0]
    if "expect" in inst and value != inst["expect"]:
        return f"alpha-chi({inst['graph']}) = {value}, expected {inst['expect']}"
    if "expect_at_least" in inst and value < inst["expect_at_least"]:
        return (
            f"alpha-chi({inst['graph']}) = {value}, expected >= {inst['expect_at_least']}"
        )
    return None


def _eval_iso_invariance(inst, params, budgets) -> str | None:
    """every parameter of the table, under each kind it has, is invariant
    under seeded relabelings."""
    profile = _graph_profile(inst["g6"], budgets)
    g = profile.graph
    base = profile.table()
    for i in range(inst["relabelings"]):
        perm = random_permutation(g.n, inst["seed"] + 31 * i)
        other = _Profile(g.relabel(perm), budgets).table()
        if other != base:
            diffs = {k: (base[k], other[k]) for k in base if base[k] != other.get(k)}
            return f"parameters changed under relabeling {perm}: {diffs}"
    return None


# ---------------------------------------------------------------------------
# The registry


@dataclass(frozen=True)
class Check:
    """One registered check.

    ``defaults`` is its params dict, the only settings it reads: a run's
    params override it key by key.  ``instances`` builds its instance family
    from the params, failing before any member is built when the family
    exceeds a budget; ``evaluate`` decides one instance and states the
    asserted fact in its docstring; ``meta``, when set, adds report
    metadata.  A check with ``family`` also reads a ``graphs`` param, a list
    of graph6 strings that replaces its enumerated family.  ``orders``, when
    set, raises unless the orders of such a family's members, in family
    order, fit the budgets the check holds them to before any work;
    ``instances`` calls it, and so does ``verify --family`` before it
    builds any member.
    """

    defaults: dict
    instances: Callable[[dict, Budgets], list[dict]]
    evaluate: Callable[[dict, dict, Budgets], str | None]
    family: bool = False
    meta: Callable[[dict, Budgets], dict] | None = None
    orders: Callable[[list[int], Budgets], None] | None = None


def _minimality_meta(params: dict, budgets: Budgets) -> dict:
    h = {}
    for text in params["specs"]:
        spec = ModulatorSpec.parse(text)
        h[text] = empirical_h(spec.rho, spec.c, budgets)
    return {"h": h}


def _gamma_meta(params: dict, budgets: Budgets) -> dict:
    """Per fact that ``_eval_gamma`` decides only within a decision budget,
    the indices whose S_n exceeds that budget."""
    skipped = {}
    for fact, limit in (
        ("td <= 2 omega", budgets.td_decision),
        ("alpha-pw(S_n) = n", budgets.pw_decision),
    ):
        over = [i for i in range(1, params["max_n"] + 1) if gamma_order(i, budgets) > limit]
        if over:
            skipped[fact] = over
    return {"skipped": skipped} if skipped else {}


CHECKS: dict[str, Check] = {
    "chain-inequality": Check({"max_n": 7}, _per_graph, _eval_chain, family=True),
    "ramsey-binding": Check({"max_n": 6}, _ramsey_instances, _eval_ramsey_binding, family=True),
    "sclaw-increment": Check(
        {"max_n": 3, "random_n": 4, "random_count": 20, "seed": DEFAULT_SEED},
        _sclaw_instances,
        _eval_sclaw,
        family=True,
        orders=_sclaw_orders,
    ),
    "gamma-witness": Check({"max_n": 3}, _gamma_instances, _eval_gamma, meta=_gamma_meta),
    "modulator-slack": Check(
        {
            "max_n": 6,
            "rhos": ["omega", "chi", "tw", "pw", "td"],
            "cs": [0, 1, 2],
            "kinds": ["card", "alpha"],
        },
        _slack_instances,
        _eval_modulator_slack,
        family=True,
    ),
    "modulator-minimality": Check(
        {"max_n": 6, "specs": ["tw:1", "tw:2", "chi:2"]},
        _minimality_instances,
        _eval_modulator_minimality,
        family=True,
        meta=_minimality_meta,
    ),
    "modulator-identities": Check(
        {"max_n": 6}, _per_graph, _eval_modulator_identities, family=True
    ),
    "mwis-equivalence": Check(
        {
            "max_n": 7,
            "weight_seeds": 3,
            "random_count": 200,
            "random_max_n": 14,
            "bipartite_count": 200,
            "bipartite_max_n": 16,
            "weight_max": 100,
            "seed": DEFAULT_SEED,
        },
        _mwis_instances,
        _eval_mwis,
        family=True,
        orders=_mwis_orders,
    ),
    "fvs-alpha-tw-bound": Check({"max_n": 6}, _per_graph, _eval_fvs_alpha_tw, family=True),
    "delta-not-inheritable": Check(
        {"q_min": 2, "q_max": 8}, _star_instances, _eval_delta_not_inheritable
    ),
    "td-path-formula": Check({"max_n": 15}, _td_path_instances, _eval_td_path),
    "nk2-knn-witness": Check({"max_n": 5}, _nk2_knn_instances, _eval_nk2_knn),
    "alpha-chi-nkn": Check({"max_s": 5}, _alpha_chi_instances, _eval_alpha_chi),
    "iso-invariance": Check(
        {"max_n": 6, "relabelings": 5, "seed": DEFAULT_SEED},
        _iso_instances,
        _eval_iso_invariance,
        family=True,
    ),
}

CHECK_NAMES = tuple(sorted(CHECKS))


def _check(name: str) -> Check:
    if name not in CHECKS:
        raise KeyError(f"unknown check {name!r}")
    return CHECKS[name]


def default_params(name: str) -> dict:
    """A fresh copy of the check's default params: no run edits the table."""
    return copy.deepcopy(_check(name).defaults)


def instances_for(name: str, params: dict, budgets: Budgets = DEFAULT_BUDGETS) -> list[dict]:
    return _check(name).instances(params, budgets)


def _instance_id(inst: dict) -> str:
    if "g6" in inst:
        extras = {k: v for k, v in inst.items() if k != "g6"}
        return inst["g6"] + (f" {extras}" if extras else "")
    return json.dumps(inst, sort_keys=True)


def _eval_one(args):
    name, inst, params, budgets = args
    try:
        detail = CHECKS[name].evaluate(inst, params, budgets)
    except Exception as exc:  # surfaced as a failure, not a crash
        detail = f"evaluator error: {type(exc).__name__}: {exc}"
    return detail


def run_check(
    spec: CheckSpec,
    budgets: Budgets = DEFAULT_BUDGETS,
    jobs: int = 1,
    log_path: str | None = None,
) -> CheckReport:
    """Build the family of ``spec`` and evaluate the check on every member.

    ``jobs`` > 1 spreads the members over that many worker processes, at
    most one per member and per CPU; ``concurrent.futures`` is imported
    only for a pool, so a ``jobs=1`` run never loads ``multiprocessing``.
    The report does not depend on ``jobs``.
    ``log_path`` gets one JSONL row per member, written after the run."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    check = _check(spec.name)
    params = default_params(spec.name)
    declared = set(params) | ({"graphs"} if check.family else set())
    undeclared = sorted(set(spec.params) - declared)
    if undeclared:
        raise KeyError(
            f"check {spec.name!r} reads no param {', '.join(undeclared)} "
            f"(it reads {', '.join(sorted(declared))})"
        )
    params.update(spec.params)
    _graph_profile.cache_clear()  # no run reads entries solved before it started
    start = time.perf_counter()
    instances = instances_for(spec.name, params, budgets)
    if not instances:
        raise ValueError(f"check {spec.name!r} has no instances at {spec.params}")
    tasks = [(spec.name, inst, params, budgets) for inst in instances]
    if log_path:  # an unwritable log fails before any instance is evaluated
        try:
            open(log_path, "a").close()  # append: an earlier log stays until the rows are written
        except OSError as exc:
            raise ValueError(f"cannot write log {log_path}: {exc}") from None
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # loaded only for a pool

        with ProcessPoolExecutor(max_workers=workers) as pool:
            details = list(pool.map(_eval_one, tasks, chunksize=8))
    else:
        details = [_eval_one(t) for t in tasks]
    failures = [
        (_instance_id(inst), detail)
        for inst, detail in zip(instances, details)
        if detail is not None
    ]
    elapsed_ms = int((time.perf_counter() - start) * 1000)
    meta = check.meta(params, budgets) if check.meta else {}
    report = CheckReport(spec.name, len(instances), failures, elapsed_ms, meta)
    if log_path:
        with open(log_path, "w") as fh:
            for idx, (inst, detail) in enumerate(zip(instances, details)):
                row = {
                    "check": spec.name,
                    "index": idx,
                    "instance": _instance_id(inst),
                    "ok": detail is None,
                    "detail": detail,
                }
                fh.write(json.dumps(row, sort_keys=True) + "\n")
    return report
