"""Acceptance suite: every criterion at its stated tolerance.

Each test runs one numbered criterion end to end (exact integer equality
unless stated otherwise) and prints a single pass/fail line.  Time limits
are asserted against the wall-clock budgets the criteria state.
"""

import time

from widthlab.checks import DEFAULT_SEED, CheckSpec, run_check
from widthlab.decomp import CostKind, cost, validate
from widthlab.formats import from_graph6, to_graph6
from widthlab.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    enumerate_graphs,
    path_graph,
    random_graph,
    star,
)
from widthlab.widths import (
    lambda_pathwidth,
    lambda_treedepth,
    lambda_treewidth,
)

CARD = CostKind.CARDINALITY
ALPHA = CostKind.INDEPENDENCE


def _announce(number: int, name: str, ok: bool, elapsed: float, extra: str = ""):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {number:02d} {name}: {status} ({elapsed:.1f}s{extra})"
    print(line)
    assert ok, line


def _run(number: int, name: str, budget_s: float, params: dict | None = None):
    start = time.perf_counter()
    report = run_check(CheckSpec(name, params or {}))
    elapsed = time.perf_counter() - start
    extra = f", {report.instances_tested} instances"
    if report.failures:
        extra += f", first failure: {report.failures[0]}"
    _announce(number, name, report.passed and elapsed <= budget_s, elapsed, extra)
    return report


def test_criterion_01_chain_inequality():
    report = _run(1, "chain-inequality", budget_s=600, params={"max_n": 7})
    assert report.instances_tested == 1252


def test_criterion_02_gamma_witness():
    _run(2, "gamma-witness", budget_s=300, params={"max_n": 3})


def test_criterion_03_sclaw_increment():
    report = _run(3, "sclaw-increment", budget_s=600)
    # all graphs on 1..3 vertices plus 20 seeded random graphs on 4
    assert report.instances_tested == 7 + 20


def test_criterion_04_ramsey_binding():
    _run(4, "ramsey-binding", budget_s=600, params={"max_n": 6})


def test_criterion_05_modulator_suite():
    start = time.perf_counter()
    reports = [
        run_check(CheckSpec("modulator-identities", {"max_n": 6})),
        run_check(
            CheckSpec(
                "modulator-slack",
                {
                    "max_n": 6,
                    "rhos": ["omega", "chi", "tw", "pw", "td"],
                    "cs": [0, 1, 2],
                    "kinds": ["card", "alpha"],
                },
            )
        ),
        run_check(
            CheckSpec("modulator-minimality", {"max_n": 6, "specs": ["tw:1", "tw:2", "chi:2"]})
        ),
        run_check(CheckSpec("delta-not-inheritable", {"q_min": 2, "q_max": 8})),
    ]
    elapsed = time.perf_counter() - start
    ok = all(r.passed for r in reports) and elapsed <= 900
    detail = ", ".join(f"{r.name}={r.instances_tested}" for r in reports)
    _announce(5, "modulator-suite", ok, elapsed, ", " + detail)


def test_criterion_06_mwis_equivalence():
    report = _run(6, "mwis-equivalence", budget_s=600)
    assert report.instances_tested == 1252 * 3 + 200 + 200


def test_criterion_07_formula_checks():
    start = time.perf_counter()
    ok = run_check(CheckSpec("td-path-formula", {"max_n": 15})).passed
    ok &= run_check(CheckSpec("nk2-knn-witness", {"max_n": 5})).passed
    for s in range(1, 9):
        ok &= lambda_treewidth(complete_graph(s), CARD).value == s
    for seed in range(5):
        n = 4 + seed
        tree = Graph.from_edges(
            n, [(i, __import__("random").Random(seed * 97 + i).randrange(i)) for i in range(1, n)]
        )
        ok &= lambda_treewidth(tree, CARD).value == 2
    ok &= lambda_treewidth(star(7), CARD).value == 2
    ok &= lambda_treewidth(path_graph(9), CARD).value == 2
    for n in range(4, 11):
        ok &= lambda_treewidth(cycle_graph(n), CARD).value == 3
    _announce(7, "formula-checks", ok, time.perf_counter() - start)


def test_criterion_08_fvs_alpha_tw_bound():
    _run(8, "fvs-alpha-tw-bound", budget_s=600, params={"max_n": 6})


def test_criterion_09_alpha_chi_nkn():
    _run(9, "alpha-chi-nkn", budget_s=300, params={"max_s": 5})


def test_criterion_10_infrastructure():
    start = time.perf_counter()
    ok = True

    # graph6 round trip over every graph with at most 6 vertices
    for n in range(0, 7):
        for g in enumerate_graphs(n):
            ok &= from_graph6(to_graph6(g)) == g

    # isomorphism invariance: 5 seeded relabelings per graph, n <= 6
    report = run_check(
        CheckSpec("iso-invariance", {"max_n": 6, "relabelings": 5, "seed": DEFAULT_SEED})
    )
    ok &= report.passed

    # every width-solver witness validates and realises the value
    for n in range(0, 7):
        for g in enumerate_graphs(n):
            for kind in (CARD, ALPHA):
                for solver in (lambda_treewidth, lambda_pathwidth, lambda_treedepth):
                    result = solver(g, kind)
                    ok &= validate(g, result.witness) == []
                    ok &= cost(g, result.witness, kind, check=False) == result.value

    # determinism: identical reports (modulo timing) across two runs
    for name, params in (
        ("chain-inequality", {"max_n": 4}),
        ("mwis-equivalence", {"graphs": [to_graph6(random_graph(8, 0.4, s)) for s in range(10)]}),
        ("td-path-formula", {"max_n": 10}),
    ):
        first = run_check(CheckSpec(name, params)).to_json(include_timing=False)
        second = run_check(CheckSpec(name, params)).to_json(include_timing=False)
        ok &= first == second

    _announce(10, "infrastructure", ok, time.perf_counter() - start)
