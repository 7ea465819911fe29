"""The check registry and the command-line interface."""

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from widthlab.checks import (
    CHECK_NAMES,
    CHECKS,
    CheckSpec,
    default_params,
    instances_for,
    run_check,
)
from widthlab.config import DEFAULT_BUDGETS
from widthlab.formats import FORMATS, emit, to_graph6
from widthlab.graphs import Graph, cycle_graph, path_graph, star
from widthlab.modulators import PARAMETERS


def run_cli(*args, stdin: str | None = None):
    proc = subprocess.run(
        [sys.executable, "-m", "widthlab.cli", *args],
        capture_output=True,
        text=True,
        input=stdin,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_registered_checks_complete():
    expected = {
        "chain-inequality",
        "ramsey-binding",
        "sclaw-increment",
        "gamma-witness",
        "modulator-slack",
        "modulator-minimality",
        "modulator-identities",
        "mwis-equivalence",
        "fvs-alpha-tw-bound",
        "delta-not-inheritable",
        "td-path-formula",
        "nk2-knn-witness",
        "alpha-chi-nkn",
        "iso-invariance",
    }
    assert set(CHECK_NAMES) == expected
    for name in CHECK_NAMES:
        default_params(name)
    with pytest.raises(KeyError):
        default_params("unknown-check")


def test_default_params_are_pinned():
    seed = 20250810
    assert {name: default_params(name) for name in CHECK_NAMES} == {
        "alpha-chi-nkn": {"max_s": 5},
        "chain-inequality": {"max_n": 7},
        "delta-not-inheritable": {"q_min": 2, "q_max": 8},
        "fvs-alpha-tw-bound": {"max_n": 6},
        "gamma-witness": {"max_n": 3},
        "iso-invariance": {"max_n": 6, "relabelings": 5, "seed": seed},
        "modulator-identities": {"max_n": 6},
        "modulator-minimality": {"max_n": 6, "specs": ["tw:1", "tw:2", "chi:2"]},
        "modulator-slack": {
            "max_n": 6,
            "rhos": ["omega", "chi", "tw", "pw", "td"],
            "cs": [0, 1, 2],
            "kinds": ["card", "alpha"],
        },
        "mwis-equivalence": {
            "max_n": 7,
            "weight_seeds": 3,
            "random_count": 200,
            "random_max_n": 14,
            "bipartite_count": 200,
            "bipartite_max_n": 16,
            "weight_max": 100,
            "seed": seed,
        },
        "nk2-knn-witness": {"max_n": 5},
        "ramsey-binding": {"max_n": 6},
        "sclaw-increment": {"max_n": 3, "random_n": 4, "random_count": 20, "seed": seed},
        "td-path-formula": {"max_n": 15},
    }
    # Each call is a fresh copy: editing one leaves the table as it was.
    default_params("modulator-slack")["rhos"].clear()
    assert CHECKS["modulator-slack"].defaults["rhos"] == ["omega", "chi", "tw", "pw", "td"]


def test_run_check_small_pass():
    report = run_check(CheckSpec("chain-inequality", {"max_n": 4}))
    assert report.passed
    assert report.instances_tested == 18  # 1 + 2 + 4 + 11
    assert report.failures == []
    data = report.to_json()
    assert data["pass"] is True and data["instances_tested"] == 18


def test_run_check_failure_carries_graph6():
    # Slack for maximum degree with c=0 fails on stars; run the slack check
    # on that family and expect structured counterexamples.
    stars = [to_graph6(star(q)) for q in (2, 3)]
    report = run_check(
        CheckSpec(
            "modulator-slack",
            {"graphs": stars, "rhos": ["delta"], "cs": [0], "kinds": ["card"]},
        )
    )
    assert not report.passed
    assert len(report.failures) == 2
    g6, detail = report.failures[0]
    assert g6.split()[0] in stars
    assert "delta" in detail


def test_sclaw_increment_failure_paths(monkeypatch):
    # Each decision of the pair must be able to fail: a substitution that
    # adds nothing trips the lower one, one applied twice the upper one.
    import widthlab.checks as checks

    real = checks.substitute
    monkeypatch.setattr(checks, "substitute", lambda g, kind: g)
    report = run_check(CheckSpec("sclaw-increment", {"graphs": ["@", "Bw"]}))
    assert [detail for _, detail in report.failures] == ["alpha-pw(s(G)) <= 1, expected 1+1"] * 2
    monkeypatch.setattr(checks, "substitute", lambda g, kind: real(real(g, kind), kind))
    report = run_check(CheckSpec("sclaw-increment", {"graphs": ["@"]}))
    assert [detail for _, detail in report.failures] == ["alpha-pw(s(G)) > 1+1, expected 1+1"]


def test_mwis_equivalence_checks_the_oct_witness_weight(monkeypatch):
    # An OCT route that reports the right weight with an empty witness is
    # independent and agrees with the oracle on the value; only the witness
    # weight test can catch it.
    import widthlab.checks as checks
    from widthlab.mwis import MwisResult, mwis_exact

    monkeypatch.setattr(
        checks, "mwis_via_oct", lambda wg, k, budgets: MwisResult(mwis_exact(wg).weight, ())
    )
    report = run_check(CheckSpec("mwis-equivalence", {"max_n": 4}))
    assert not report.passed
    assert report.failures
    assert {detail for _, detail in report.failures} == {"oct witness weight mismatch"}


def test_sclaw_increment_beyond_exact_pathwidth_budget():
    # Random G on 5 vertices give s-claw substitutions on 19 vertices, past
    # the exact alpha-pw budget but inside the decision budget.
    report = run_check(
        CheckSpec("sclaw-increment", {"random_n": 5, "random_count": 3, "seed": 20250810})
    )
    assert report.instances_tested == 10
    assert report.passed, report.failures


def test_gamma_witness_reports_facts_past_decision_budgets():
    # S_4 has 79 vertices, past td_decision and pw_decision: the report
    # still passes, and its meta names the facts left undecided there.
    report = run_check(CheckSpec("gamma-witness", {"max_n": 4}))
    assert report.passed, report.failures
    assert report.to_json(include_timing=False)["meta"] == {
        "skipped": {"td <= 2 omega": [4], "alpha-pw(S_n) = n": [4]}
    }
    # Up to S_3 every fact is decided and the report carries no meta.
    assert "meta" not in run_check(CheckSpec("gamma-witness")).to_json()


def test_run_check_deterministic_and_parallel_identical():
    spec = CheckSpec("td-path-formula", {"max_n": 8})
    a = run_check(spec).to_json(include_timing=False)
    b = run_check(spec).to_json(include_timing=False)
    assert a == b
    c = run_check(spec, jobs=2).to_json(include_timing=False)
    assert a == c


def test_run_check_jsonl_log(tmp_path):
    log = tmp_path / "out.jsonl"
    report = run_check(CheckSpec("td-path-formula", {"max_n": 5}), log_path=str(log))
    lines = [json.loads(line) for line in log.read_text().splitlines()]
    assert len(lines) == report.instances_tested == 5
    assert all(line["ok"] for line in lines)


def test_cli_unwritable_log_fails_before_evaluation(tmp_path, monkeypatch, capsys):
    from widthlab import checks
    from widthlab.cli import main

    evaluated = []
    monkeypatch.setattr(checks, "_eval_one", evaluated.append)
    log = tmp_path / "missing" / "x.jsonl"
    assert main(["verify", "td-path-formula", "--max-n", "3", "--log", str(log)]) == 2
    assert evaluated == []
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: cannot write log {log}: ")
    assert "Traceback" not in err



def test_run_check_keeps_an_earlier_log_when_a_run_stops(tmp_path, monkeypatch):
    from widthlab import checks

    def stopped(task):
        raise RuntimeError("stopped")

    log = tmp_path / "out.jsonl"
    log.write_text("earlier\n")
    monkeypatch.setattr(checks, "_eval_one", stopped)
    with pytest.raises(RuntimeError, match="stopped"):
        run_check(CheckSpec("td-path-formula", {"max_n": 3}), log_path=str(log))
    assert log.read_text() == "earlier\n"

class _ClosedPipe(io.StringIO):
    """A standard output whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize(
    "argv, status",
    [
        (["list-checks"], 0),
        (["verify", "td-path-formula", "--max-n", "3"], 0),
        (["verify", "modulator-slack", "--rho", "delta", "--c", "0", "--family", "stars:2-8"], 1),
        (["construct", "net", "--iterate", "2"], 0),
    ],
)
def test_cli_closed_stdout_returns_the_command_status(argv, status, capsys, monkeypatch):
    # capsys comes first, so monkeypatch hands stdout back to it before it
    # restores the real one.
    from widthlab.cli import main

    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert main(argv) == status
    assert capsys.readouterr().err == ""


def test_cli_closed_pipe_in_a_process_prints_no_traceback():
    # A pipe whose read end is already closed: every write fails with EPIPE.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "widthlab.cli", "list-checks"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_cli_param(tmp_path):
    path = tmp_path / "c5.g6"
    path.write_text(to_graph6(cycle_graph(5)) + "\n")
    code, out, _ = run_cli("param", "alpha-tw", "--input", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["value"] == 2 and data["kind"] == "alpha"

    code, out, _ = run_cli("param", "tw", "--kind", "alpha", "--input", str(path))
    assert json.loads(out)["value"] == 2

    code, out, _ = run_cli("param", "alpha", "--input", str(path), "--witness")
    data = json.loads(out)
    assert data["value"] == 2 and data["witness"] == [0, 2]


def test_cli_param_reaches_width_exact(tmp_path, capsys):
    from widthlab.cli import main

    # The 16-vertex wheel: deleting the hub leaves C15, of treewidth 3.
    wheel = tmp_path / "wheel.g6"
    wheel.write_text("O|eKKE@_K?o@_@_?o?M?@\n")
    assert main(["param", "tw:3", "--input", str(wheel), "--witness"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["value"] == 1 and data["witness"] == [0]
    k17 = tmp_path / "k17.g6"
    k17.write_text("P~~~~~~~~~~~~~~~~~~~~~~{\n")
    assert main(["param", "alpha-tw", "--input", str(k17)]) == 2
    assert capsys.readouterr() == ("", "error: lambda_treewidth: n=17 exceeds budget 16\n")
    assert main(["verify", "fvs-alpha-tw-bound", "--family", "random:12,0.3,5"]) == 0
    assert json.loads(capsys.readouterr().out)["instances_tested"] == 5


def test_cli_param_alpha_pw_k1():
    code, out, _ = run_cli("param", "alpha-pw", "--input", "-", stdin="@\n")
    assert code == 0
    assert json.loads(out)["value"] == 1


def test_cli_param_modulator_spec(tmp_path):
    path = tmp_path / "k4.g6"
    from widthlab.graphs import complete_graph

    path.write_text(to_graph6(complete_graph(4)) + "\n")
    code, out, _ = run_cli("param", "tw:1", "--input", str(path), "--witness")
    assert code == 0
    data = json.loads(out)
    assert data["value"] == 3 and data["witness"] == [0, 1, 2]
    code, out, _ = run_cli("param", "mu:chi:2", "--input", str(path))
    assert json.loads(out)["value"] == 2


@pytest.mark.parametrize(
    "spec, message",
    [
        ("mu:zz:2", "unknown target parameter 'zz'"),
        ("tw:-1", "modulator threshold must be non-negative"),
        ("tw:x", "bad modulator spec 'tw:x', expected 'rho:c'"),
        ("mu:tw:1:2", "bad modulator spec 'tw:1:2', expected 'rho:c'"),
    ],
)
def test_cli_param_bad_modulator_spec_exits_2(tmp_path, capsys, spec, message):
    # Malformed text is told the form; a well-formed spec is told what is
    # wrong with its rho or its threshold.
    from widthlab.cli import main

    path = tmp_path / "k3.g6"
    path.write_text("Bw\n")
    assert main(["param", spec, "--input", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("parameter", ["chi", "matching"])
def test_cli_param_too_deep_for_the_recursion_exits_2(tmp_path, capsys, parameter):
    # No budget bounds these searches, which recurse once per vertex: on a
    # long path they exceed the recursion limit, reported as one line.  The
    # path is an edge list, which reads in linear time.
    from widthlab.cli import main
    from widthlab.formats import to_edge_list
    from widthlab.graphs import path_graph

    path = tmp_path / "p1500.txt"
    path.write_text(to_edge_list(path_graph(1500)))
    assert main(["param", parameter, "--input", str(path), "--format", "edges"]) == 2
    line = f"error: param {parameter}: the input is too deep for the recursive search\n"
    assert capsys.readouterr() == ("", line)


def test_family_all_exact_count():
    # "all:5" resolves to exactly the 34 graphs on five vertices.
    from widthlab.cli import _resolve_family

    graphs = _resolve_family("all:5", seed=None)
    assert len(graphs) == 34
    report = run_check(CheckSpec("chain-inequality", {"graphs": graphs}))
    assert report.passed and report.instances_tested == 34
    # K0 is a family member like any other: every table entry is defined on it.
    report = run_check(CheckSpec("iso-invariance", {"graphs": ["?"]}))
    assert report.passed and report.instances_tested == 1


def test_cli_param_errors(tmp_path):
    bad = tmp_path / "bad.g6"
    bad.write_text("not graph6 at all\n")
    code, _, err = run_cli("param", "alpha", "--input", str(bad))
    assert code == 2
    code, _, err = run_cli("param", "nonsense-param", "--input", "-", stdin="@\n")
    assert code == 2
    code, _, _ = run_cli("param", "alpha", "--input", str(tmp_path / "missing.g6"))
    assert code == 2


def test_cli_verify_exit_codes(tmp_path):
    code, out, _ = run_cli("verify", "td-path-formula", "--max-n", "6")
    assert code == 0
    assert json.loads(out)["pass"] is True

    code, _, _ = run_cli("verify", "no-such-check")
    assert code == 2

    # Slack with rho=delta, c=0 on stars: violations exist, exit 1.
    code, out, _ = run_cli(
        "verify",
        "modulator-slack",
        "--rho",
        "delta",
        "--c",
        "0",
        "--kind",
        "card",
        "--family",
        "stars:2-4",
    )
    assert code == 1
    data = json.loads(out)
    assert data["pass"] is False and data["failures"]

    # The registered inverted check passes because the violation exists.
    code, out, _ = run_cli("verify", "delta-not-inheritable")
    assert code == 0


def test_enumerated_families_equal_the_encoded_graphs():
    # Families encoded straight from the canonical codes read exactly as
    # to_graph6 of the enumerated graphs, in the same order.
    from widthlab.checks import enumerated_graph6
    from widthlab.cli import _resolve_family
    from widthlab.graphs import enumerate_graphs

    per_order = [[to_graph6(g) for g in enumerate_graphs(n)] for n in range(8)]
    assert enumerated_graph6(0) == []
    for n in range(8):
        upto = [g6 for graphs in per_order[1 : n + 1] for g6 in graphs]
        assert enumerated_graph6(n) == upto
        assert _resolve_family(f"all:{n}", seed=None) == per_order[n]
        if n:
            assert _resolve_family(f"upto:{n}", seed=None) == upto


def test_cli_over_budget_enumeration_fails_fast(capsys):
    # Exit 2 before enumerating the smaller n: the cache stays untouched.
    from widthlab.cli import main
    from widthlab.graphs import _canonical_codes

    before = _canonical_codes.cache_info()
    line = "error: enumerate_graphs: n=9 exceeds budget 8\n"
    for argv in (["--max-n", "9"], ["--family", "upto:9"], ["--family", "all:9"]):
        assert main(["verify", "chain-inequality", *argv]) == 2, argv
        assert capsys.readouterr().err == line, argv
    # A negative n reads the same from --family as from --max-n.
    line = "error: enumerate_graphs: negative n=-1\n"
    for argv in (["--max-n", "-1"], ["--family", "upto:-1"], ["--family", "all:-1"]):
        assert main(["verify", "chain-inequality", *argv]) == 2, argv
        assert capsys.readouterr().err == line, argv
    assert _canonical_codes.cache_info() == before


def test_cli_over_budget_gamma_witness_fails_fast(tmp_path, monkeypatch, capsys):
    # Exit 2 before any S_n is built, also under a --config budget.
    import widthlab.checks
    from widthlab.cli import main

    calls = []
    real = widthlab.checks.gamma_family

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(widthlab.checks, "gamma_family", counted)
    assert main(["verify", "gamma-witness", "--max-n", "6"]) == 2
    assert "gamma_family: index 6 exceeds budget 5" in capsys.readouterr().err
    path = tmp_path / "settings.json"
    path.write_text('{"budgets": {"gamma_max_index": 2}}')
    assert main(["verify", "gamma-witness", "--max-n", "3", "--config", str(path)]) == 2
    assert "gamma_family: index 3 exceeds budget 2" in capsys.readouterr().err
    assert calls == []


def test_cli_over_budget_sclaw_increment_fails_fast(tmp_path, monkeypatch, capsys):
    # A random 8-vertex graph has a 28-vertex s-claw substitution, past
    # pw_decision: exit 2 before any substitution is built, whether the
    # graph comes from the check's configured params or from --family.
    import widthlab.checks
    from widthlab.cli import main

    calls = []
    monkeypatch.setattr(widthlab.checks, "substitute", lambda *args: calls.append(args))
    path = tmp_path / "sclaw8.json"
    path.write_text('{"checks": {"sclaw-increment": {"random_n": 8, "random_count": 2}}}')
    line = "error: lambda_pw_at_most: n=28 exceeds budget 25\n"
    for argv in (["--config", str(path)], ["--family", "random:8,0.5,1"]):
        assert main(["verify", "sclaw-increment", *argv]) == 2, argv
        assert capsys.readouterr() == ("", line), argv
    # A P5 substitution (2n + 3 vertices) past td_decision reads the same way.
    path.write_text('{"budgets": {"td_decision": 10}}')
    assert main(["verify", "sclaw-increment", "--config", str(path)]) == 2
    assert capsys.readouterr() == ("", "error: lambda_td_at_most: n=11 exceeds budget 10\n")
    assert calls == []


@pytest.mark.parametrize(
    "check, argv, config, line",
    [
        ("td-path-formula", ["--max-n", "31"], None, "lambda_td_at_most: n=31 exceeds budget 30"),
        ("nk2-knn-witness", ["--max-n", "16"], None, "vertex_cover_number: n=32 exceeds budget 30"),
        (
            "delta-not-inheritable",
            [],
            {"checks": {"delta-not-inheritable": {"q_max": 16}}},
            "modulator_number: n=17 exceeds budget 16",
        ),
        (
            "alpha-chi-nkn",
            [],
            {"checks": {"alpha-chi-nkn": {"max_s": 12}}},
            "alpha_chromatic: n=12 exceeds budget 9",
        ),
        # 3K3, on 9 vertices, is the family's largest member at the default max_s.
        (
            "alpha-chi-nkn",
            [],
            {"budgets": {"alpha_chromatic": 8}},
            "alpha_chromatic: n=9 exceeds budget 8",
        ),
    ],
)
def test_cli_over_budget_per_order_checks_fail_fast(
    tmp_path, monkeypatch, capsys, check, argv, config, line
):
    # The largest member of the family is held to its budget before any
    # instance is evaluated.
    import dataclasses

    import widthlab.checks
    from widthlab.cli import main

    def never(*args):
        raise AssertionError("evaluated an instance")

    registered = widthlab.checks.CHECKS[check]
    monkeypatch.setitem(widthlab.checks.CHECKS, check, dataclasses.replace(registered, evaluate=never))
    if config is not None:
        path = tmp_path / "settings.json"
        path.write_text(json.dumps(config))
        argv = [*argv, "--config", str(path)]
    assert main(["verify", check, *argv]) == 2
    assert capsys.readouterr() == ("", f"error: {line}\n")


def test_td_path_formula_names_the_failing_side_of_the_pair(monkeypatch):
    # A td decision form that answers "<= k" exactly for k >= 2 puts P_1
    # above its value and P_4 at or below one less than its value.  The td
    # row's decision form looks the solver up on ``widths`` when called.
    import widthlab.widths

    monkeypatch.setattr(widthlab.widths, "lambda_td_at_most", lambda g, kind, k, budgets: k >= 2)
    report = run_check(CheckSpec("td-path-formula", {"max_n": 4}))
    assert report.failures == [
        ('{"n": 1}', "td(P_1) > 1, expected 1"),
        ('{"n": 4}', "td(P_4) <= 2, expected 3"),
    ]


def test_cli_construct():
    code, out, _ = run_cli("construct", "s-claw", "--iterate", "2")
    assert code == 0
    from widthlab.formats import from_graph6
    from widthlab.constructions import gamma_family

    assert from_graph6(out.strip()) == gamma_family(3)
    assert from_graph6(out.strip()).n == 25

    code, out, _ = run_cli("construct", "net", "--iterate", "1")
    assert from_graph6(out.strip()).n == 6

    code, out, _ = run_cli("construct", "gamma", "--n", "2", "--format", "dimacs")
    assert code == 0 and out.startswith("p edge 7")

    # 79 vertices need the multi-byte graph6 size header.
    code, out, _ = run_cli("construct", "gamma", "--n", "4")
    assert code == 0
    assert from_graph6(out.strip()) == gamma_family(4)
    assert from_graph6(out.strip()).n == 79
    code, out, _ = run_cli("param", "alpha", "--input", "-", stdin=out)
    assert code == 0 and json.loads(out)["value"] == 40


def test_cli_mwis(tmp_path):
    path = tmp_path / "c5.g6"
    path.write_text(to_graph6(cycle_graph(5)) + "\n")
    code, out, _ = run_cli(
        "mwis", "--input", str(path), "--algorithm", "oct", "--k", "1"
    )
    assert code == 0
    assert json.loads(out)["weight"] == 2

    weights = tmp_path / "w.txt"
    weights.write_text("5\n1\n1\n1\n1\n")
    code, out, _ = run_cli(
        "mwis", "--input", str(path), "--weights", str(weights), "--algorithm", "exact"
    )
    assert json.loads(out)["weight"] == 6  # vertices 1 and 3? no: 5 + 1

    code, _, _ = run_cli(
        "mwis", "--input", str(path), "--algorithm", "bipartite"
    )
    assert code == 2  # C5 is not bipartite


@pytest.mark.parametrize(
    "argv, weights, message",
    [
        (["--algorithm", "bipartite"], None, "mwis_bipartite needs a bipartite input"),
        (
            ["--algorithm", "oct", "--k", "0"],
            None,
            "no odd cycle transversal with independence number <= 0",
        ),
        ([], "1\n2\n", "weight vector length does not match vertex count"),
    ],
)
def test_cli_mwis_errors(tmp_path, capsys, argv, weights, message):
    from widthlab.cli import main

    path = tmp_path / "k3.g6"
    path.write_text("Bw\n")
    if weights is not None:
        (tmp_path / "w.txt").write_text(weights)
        argv = [*argv, "--weights", str(tmp_path / "w.txt")]
    assert main(["mwis", "--input", str(path), *argv]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


def test_cli_list_checks():
    code, out, _ = run_cli("list-checks")
    assert code == 0
    assert set(out.split()) == set(CHECK_NAMES)


def test_cli_usage_error_exit_2():
    code, _, _ = run_cli("param")  # missing required args
    assert code == 2


def _param(tmp_path, g6: str, *argv: str):
    """In-process ``widthlab param``: (exit code, JSON without elapsed_ms)."""
    from widthlab.cli import main

    path = tmp_path / "g.g6"
    path.write_text(g6 + "\n")
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["param", *argv, "--input", str(path), "--witness"])
    data = json.loads(out.getvalue()) if code == 0 else {}
    data.pop("elapsed_ms", None)
    return code, data


def test_param_alpha_kind_rule(tmp_path, capsys):
    from widthlab.cli import main

    # Under kind alpha, chi / omega / delta give their lambda-variants:
    # alpha-chi, 1, and the local independence number.
    for g6, chi, omega, delta in (("Dhc", 2, 1, 2), ("C~", 1, 1, 1)):  # C5, K4
        for form in (("--kind", "alpha"), ()):
            for name, expected in (("chi", chi), ("omega", omega), ("delta", delta)):
                argv = (name, *form) if form else (f"alpha-{name}",)
                code, data = _param(tmp_path, g6, *argv)
                assert code == 0 and data["value"] == expected and data["kind"] == "alpha", argv
        # A parameter without an alpha-variant is a usage error under kind alpha.
        for argv in (("alpha-alpha",), ("alpha-matching",), ("order", "--kind", "alpha"),
                     ("local-alpha", "--kind", "alpha")):
            assert _param(tmp_path, g6, *argv)[0] == 2, argv
    assert main(["param", "alpha-alpha", "--input", str(tmp_path / "g.g6")]) == 2
    assert "error: 'alpha' has no alpha-variant" in capsys.readouterr().err


# K0, C5, K4, K_{1,3} and the net, as graph6.
PIN_GRAPHS = ("?", "Dhc", "C~", "Cs", "ECSw")
PIN_NAMES = (
    "order", "n", "alpha", "omega", "chi", "delta", "max-degree", "local-alpha", "matching",
    "degeneracy", "tw", "pw", "td", "vc", "fvs", "oct", "alpha-chi", "tw:1", "mu:chi:2",
)
# Rows that changed on purpose: each name's value under kind alpha on
# PIN_GRAPHS; None where the name has no alpha-variant and exits 2.
KIND_RULE = {
    "chi": (0, 2, 1, 1, 2),
    "omega": (0, 1, 1, 1, 1),
    "delta": (0, 2, 1, 3, 2),
    "max-degree": (0, 2, 1, 3, 2),
    **{name: None for name in ("order", "n", "alpha", "matching", "local-alpha")},
}


def test_param_json_pinned(tmp_path):
    from widthlab.modulators import PARAMETERS

    assert set(PARAMETERS) <= set(PIN_NAMES)
    lines = []
    for i, g6 in enumerate(PIN_GRAPHS):
        for name in PIN_NAMES:
            forms = [(name,), (name, "--kind", "alpha")]
            if not name.startswith("alpha-"):
                forms.append((f"alpha-{name}",))
            for argv in forms:
                code, data = _param(tmp_path, g6, *argv)
                if (g6, argv) == ("?", ("local-alpha",)):
                    # Changed on purpose: local-alpha of K0 is 0, as alpha-delta.
                    assert (code, data.get("value")) == (0, 0)
                    continue
                if name in KIND_RULE and argv != (name,):
                    expected = KIND_RULE[name]
                    assert (code, data.get("value")) == (
                        (2, None) if expected is None else (0, expected[i])
                    ), (g6, argv)
                    if name == "chi":
                        assert data["witness"] == _param(tmp_path, g6, "alpha-chi")[1]["witness"]
                    continue
                lines.append(f"{g6} {' '.join(argv)} {code} {json.dumps(data, sort_keys=True)}")
    # Every other row is byte-identical to the output before the parameter
    # table existed (189 rows).
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert len(lines) == 189
    assert digest == "200b8f648ea45bd171892cfb8b4f661ed9923106a8080ee2272cc7ad0f2f3165"


def test_a_new_parameter_row_needs_no_other_edit(monkeypatch, tmp_path):
    # One row, the edge count with a cardinality entry and a target test,
    # reaches the param CLI, the profile table and the modulator searches.
    import widthlab.checks as checks
    from widthlab.config import DEFAULT_BUDGETS
    from widthlab.graphs import bits, complete_graph
    from widthlab.modulators import PARAMETERS, ModulatorSpec, Parameter, predicate

    def edges(g, mask):
        return sum((g.adj[v] & mask).bit_count() for v in bits(mask)) // 2

    row = Parameter(
        lambda g, b: (edges(g, g.full_mask), None),
        target=lambda c: lambda g, mask, b: edges(g, mask) <= c,
    )
    monkeypatch.setitem(PARAMETERS, "edges", row)
    try:
        k4 = "C~"
        assert _param(tmp_path, k4, "edges") == (
            0, {"kind": "card", "parameter": "edges", "value": 6}
        )
        assert _param(tmp_path, k4, "alpha-edges")[0] == 2
        assert checks._Profile(complete_graph(4), DEFAULT_BUDGETS).table()["edges"] == 6
        # K4 less its first vertex is K3, with three edges.
        assert ModulatorSpec.parse("edges:3") == ModulatorSpec("edges", 3)
        assert predicate("edges", 3)(complete_graph(4), 0b1110, DEFAULT_BUDGETS)
        assert _param(tmp_path, k4, "edges:3") == (
            0, {"kind": "card", "parameter": "edges:3", "value": 1, "witness": [0]}
        )
        # A row whose alpha entry is deliberately false: alpha-liar = 0 puts
        # the binding bound at 0, so ramsey-binding fails on every graph with
        # an edge, naming the row, while the row without an alpha entry is
        # not read.
        liar = Parameter(row.card, lambda g, b: (0, None))
        monkeypatch.setitem(PARAMETERS, "liar", liar)
        report = run_check(CheckSpec("ramsey-binding", {"max_n": 3}))
        assert report.failures == [
            ("A_", "liar=1 > f(omega=2) = 0 with alpha-liar=0"),
            ("BG", "liar=1 > f(omega=2) = 0 with alpha-liar=0"),
            ("BW", "liar=2 > f(omega=2) = 0 with alpha-liar=0"),
            ("Bw", "liar=3 > f(omega=3) = 0 with alpha-liar=0"),
        ]
    finally:
        predicate.cache_clear()  # no later test resolves the removed row


def test_run_check_rejects_undeclared_params():
    with pytest.raises(KeyError, match="bogus"):
        run_check(CheckSpec("td-path-formula", {"bogus": 1}))
    with pytest.raises(KeyError, match="graphs"):
        run_check(CheckSpec("td-path-formula", {"graphs": ["@"]}))


def test_cli_verify_rejects_flags_a_check_ignores(capsys):
    from widthlab.cli import main

    for argv in (
        ["td-path-formula", "--family", "stars:2-4"],
        ["alpha-chi-nkn", "--max-n", "2"],
        ["td-path-formula", "--rho", "tw"],
    ):
        assert main(["verify", *argv]) == 2, argv
        assert capsys.readouterr().err.startswith("error: check ")
    # --seed also seeds a random: family, so a seedless check accepts it.
    assert main(["verify", "td-path-formula", "--max-n", "3", "--seed", "1"]) == 0


def _no_eval(task):
    raise AssertionError("evaluated an instance")


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--rho", "zz", "unknown target parameter 'zz'"),
        ("--c", "-1", "modulator threshold must be non-negative"),
        ("--kind", "bogus", "unknown cost kind 'bogus'"),
    ],
)
def test_cli_bad_slack_override_exits_2(monkeypatch, capsys, flag, value, message):
    import widthlab.checks
    from widthlab.cli import main

    monkeypatch.setattr(widthlab.checks, "_eval_one", _no_eval)
    assert main(["verify", "modulator-slack", "--max-n", "3", flag, value]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    param = {"--rho": "rhos", "--c": "cs", "--kind": "kinds"}[flag]
    override = int(value) if flag == "--c" else value
    with pytest.raises(ValueError, match=message):
        run_check(CheckSpec("modulator-slack", {"max_n": 3, param: [override]}))


@pytest.mark.parametrize("family", ["stars:5-2", "paths:5-2", "random:5,0.5,-2", "file:"])
def test_cli_family_without_graphs_exits_2(tmp_path, capsys, family):
    from widthlab.cli import main

    if family == "file:":
        path = tmp_path / "empty.g6"
        path.write_text("\n")
        family += str(path)
    assert main(["verify", "chain-inequality", "--family", family]) == 2
    assert capsys.readouterr() == ("", f"error: bad family {family!r}: no graphs\n")


_FAMILY_CHECKS = [name for name in CHECK_NAMES if CHECKS[name].family]


@pytest.mark.parametrize("name", _FAMILY_CHECKS)
def test_cli_malformed_family_member_exits_2_before_any_evaluation(
    tmp_path, monkeypatch, capsys, name
):
    # The second line is not graph6: every family check names it and
    # exits 2 before its evaluator sees the first, valid member.
    import dataclasses

    import widthlab.checks
    from widthlab.cli import main

    calls = []
    registered = widthlab.checks.CHECKS[name]
    monkeypatch.setitem(
        widthlab.checks.CHECKS,
        name,
        dataclasses.replace(registered, evaluate=lambda *args: calls.append(args)),
    )
    path = tmp_path / "family.g6"
    path.write_text("Dhc\nzzz\n")
    assert main(["verify", name, "--family", f"file:{path}"]) == 2
    line = "error: graphs[1] 'zzz' is not graph6: graph6 body has 2 chars, expected 286 for n=59\n"
    assert capsys.readouterr() == ("", line)
    assert calls == []
    assert len(_FAMILY_CHECKS) == 9


@pytest.mark.parametrize(
    "argv, config, line",
    [
        (
            [],
            {"checks": {"mwis-equivalence": {"random_max_n": 21}}},
            "find_oct_with_bounded_alpha: n=21 exceeds budget 20",
        ),
        ([], {"budgets": {"mwis_exact": 13}}, "mwis_exact: n=14 exceeds budget 13"),
        # No random graphs: their order is not held to a budget.
        (
            [],
            {
                "checks": {
                    "mwis-equivalence": {"random_count": 0, "random_max_n": 99, "bipartite_max_n": 31}
                }
            },
            "mwis_exact: n=31 exceeds budget 30",
        ),
        (["--family", "random:21,0.3,1"], None, "find_oct_with_bounded_alpha: n=21 exceeds budget 20"),
        (["--family", "named:K3,K31"], None, "mwis_exact: n=31 exceeds budget 30"),
    ],
)
def test_cli_over_budget_mwis_equivalence_fails_fast(tmp_path, monkeypatch, capsys, argv, config, line):
    # The largest random and bipartite orders, and each --family member,
    # meet the budgets the evaluator would hit first before any member is
    # built.
    import widthlab.checks
    from widthlab.cli import main

    built = []
    monkeypatch.setattr(widthlab.checks, "random_graph", lambda *args: built.append(args))
    monkeypatch.setattr(widthlab.checks, "_eval_one", _no_eval)
    if config is not None:
        path = tmp_path / "settings.json"
        path.write_text(json.dumps(config))
        argv = [*argv, "--config", str(path)]
    assert main(["verify", "mwis-equivalence", *argv]) == 2
    assert capsys.readouterr() == ("", f"error: {line}\n")
    assert built == []


_HUGE_ORDER = 10**30 - 1


def _over_cap(order: int, cap: int = 30) -> str:
    return f"a member has {order} vertices, above every budget of the run (at most {cap})"


@pytest.mark.parametrize(
    "check, family, line",
    [
        ("chain-inequality", "stars:1-2000", _over_cap(31)),
        ("chain-inequality", "paths:0-2000", _over_cap(31)),
        ("chain-inequality", "named:K3,K2000", _over_cap(2000)),
        ("chain-inequality", "random:2000,0.5,1", _over_cap(2000)),
        ("chain-inequality", f"stars:{_HUGE_ORDER}-{_HUGE_ORDER}", _over_cap(_HUGE_ORDER + 1)),
        ("chain-inequality", f"named:{_HUGE_ORDER}K2", _over_cap(2 * _HUGE_ORDER)),
        ("fvs-alpha-tw-bound", f"random:{_HUGE_ORDER},0.5,3", _over_cap(_HUGE_ORDER)),
        # A check that holds its members' orders to its own budgets says so first.
        ("mwis-equivalence", "named:K2000", "mwis_exact: n=2000 exceeds budget 30"),
        ("mwis-equivalence", "stars:1-2000", "find_oct_with_bounded_alpha: n=21 exceeds budget 20"),
        ("sclaw-increment", "stars:1-2000", "lambda_pw_at_most: n=97 exceeds budget 25"),
    ],
)
def test_cli_family_above_every_budget_exits_2_before_any_member_is_built(
    monkeypatch, capsys, check, family, line
):
    # Each member's order is read from the family's parameters; a member
    # above the largest budget of the run (30 by default) exits 2 before any
    # member is built.
    import widthlab.cli
    from widthlab.cli import main

    built = []
    monkeypatch.setattr(widthlab.cli, "named_graph", lambda *args: built.append(args))
    monkeypatch.setattr(widthlab.cli, "random_graph", lambda *args: built.append(args))
    assert main(["verify", check, "--max-n", "3", "--family", family]) == 2
    if line.startswith("a member"):
        line = f"bad family {family!r}: {line}"
    assert capsys.readouterr() == ("", f"error: {line}\n")
    assert built == []


def test_cli_family_cap_follows_the_run_budgets(tmp_path, capsys):
    # The cap is the largest field of the run's budgets: with one raised to
    # 40 by --config, a 31-vertex member is built and fails on the budget it
    # meets, and a 41-vertex one exits 2.
    from widthlab.cli import main

    path = tmp_path / "settings.json"
    path.write_text('{"budgets": {"oct_alpha": 40}}')
    argv = ["verify", "chain-inequality", "--config", str(path), "--family"]
    assert main([*argv, "paths:31-31"]) == 1
    failures = json.loads(capsys.readouterr().out)["failures"]
    assert failures[0][1] == "evaluator error: BudgetExceededError: lambda_treewidth: n=31 exceeds budget 16"
    assert main([*argv, "paths:41-41"]) == 2
    assert capsys.readouterr().err == f"error: bad family 'paths:41-41': {_over_cap(41, 40)}\n"


@pytest.mark.parametrize("name", _FAMILY_CHECKS)
def test_every_family_check_fails_a_member_above_every_budget(name):
    # The family cap refuses only what every family check fails anyway: with
    # a member one vertex above the largest budget, the check either raises
    # before any work or fails every instance of that member, each on a
    # budget.
    from widthlab.graphs import BudgetExceededError

    member = to_graph6(path_graph(max(dataclasses.astuple(DEFAULT_BUDGETS)) + 1))
    params = {"graphs": [member]}
    try:
        report = run_check(CheckSpec(name, params))
    except BudgetExceededError as exc:
        assert "exceeds budget" in str(exc)
        return
    own = [detail for inst, detail in report.failures if inst.split()[0] == member]
    instances = instances_for(name, default_params(name) | params)
    assert len(own) == sum(inst.get("g6") == member for inst in instances) > 0, report.failures
    assert all(detail.startswith("evaluator error: BudgetExceededError: ") for detail in own)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["construct", "s-claw", "--iterate", "-3"], "--iterate must be non-negative, got -3"),
        (["verify", "td-path-formula", "--max-n", "3", "--jobs", "0"], "--jobs must be at least 1, got 0"),
        (["verify", "td-path-formula", "--max-n", "3", "--jobs", "-2"], "--jobs must be at least 1, got -2"),
    ],
)
def test_cli_negative_counts_exit_2(capsys, argv, message):
    from widthlab.cli import main

    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("name", ["chain-inequality", "td-path-formula"])
def test_cli_empty_family_exits_2_before_any_evaluation(monkeypatch, capsys, name):
    # chain-inequality checks a graph family, td-path-formula one instance
    # per order; --max-n 0 leaves each with nothing to check.
    import widthlab.checks
    from widthlab.cli import main

    monkeypatch.setattr(widthlab.checks, "_eval_one", _no_eval)
    assert main(["verify", name, "--max-n", "0"]) == 2
    assert capsys.readouterr() == ("", f"error: check {name!r} has no instances at {{'max_n': 0}}\n")
    with pytest.raises(ValueError, match="no instances"):
        run_check(CheckSpec("gamma-witness", {"max_n": 0}))


@pytest.mark.parametrize("jobs", [0, -2])
def test_run_check_rejects_jobs_below_one(monkeypatch, jobs):
    import widthlab.checks

    def no_instances(*args):
        raise AssertionError("built the instances")

    monkeypatch.setattr(widthlab.checks, "instances_for", no_instances)
    with pytest.raises(ValueError, match=f"jobs must be at least 1, got {jobs}"):
        run_check(CheckSpec("td-path-formula", {"max_n": 3}), jobs=jobs)


@pytest.mark.parametrize("cpus, started", [(64, [4]), (3, [3]), (None, [])])
def test_run_check_starts_no_more_workers_than_members_or_cpus(monkeypatch, cpus, started):
    # A pool starts all its workers at once, so a huge --jobs is clamped to
    # the members and the CPUs.  The fake pool records what it is asked for
    # and runs the members in-process.
    import concurrent.futures

    asked = []

    class FakePool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    spec = CheckSpec("td-path-formula", {"max_n": 4})
    report = run_check(spec, jobs=100_000).to_json(include_timing=False)
    assert asked == started
    assert report == run_check(spec).to_json(include_timing=False)


def test_cli_construct_zero_iterations_is_k1(capsys):
    from widthlab.cli import main

    assert main(["construct", "s-claw", "--iterate", "0"]) == 0
    assert capsys.readouterr().out == "@\n"


@pytest.mark.parametrize("kind, last", [("s-claw", 10), ("p5", 15), ("net", 10)])
def test_cli_construct_past_the_readers_cap_exits_2(monkeypatch, capsys, kind, last):
    # ``last`` substitutions from K1 stay within GRAPH6_MAX_N vertices, the
    # most any reader takes; one more, or a huge count, exits 2 unbuilt.
    from widthlab import cli
    from widthlab.constructions import SubstitutionKind, substitution_order
    from widthlab.formats import GRAPH6_MAX_N

    sub = SubstitutionKind.parse(kind)
    n = 1
    for _ in range(last):
        n = substitution_order(n, sub)
    assert n <= GRAPH6_MAX_N < substitution_order(n, sub)
    monkeypatch.setattr(cli, "substitute", None)  # any build would raise TypeError
    for count in (last + 1, 10**30):
        assert cli.main(["construct", kind, "--iterate", str(count)]) == 2
        assert capsys.readouterr().err == (
            f"error: --iterate {count} passes {GRAPH6_MAX_N} vertices, more than any reader takes\n"
        )


@pytest.mark.parametrize(
    "content",
    [
        None,
        "[1, 2]",
        '{"budgets": {"width_exactt": 3}}',
        # The retired suite section is rejected, not read.
        '{"suite": {"sclaw_random_n": 5}}',
        '{"checks": {"td-path-formula": {"max_n": "4"}}}',
        '{"budgets": {"width_exact": "x"}}',
        '{"budgets": {"width_exact": true}}',
        '{"budgets": {"modulator": 16}}',
        '{"checks": {"td-path": {"max_n": 4}}}',
        '{"checks": {"td-path-formula": {"max_s": 4}}}',
        '{"checks": {"modulator-slack": {"rhos": ["tw"]}}}',
        '{"checks": {"td-path-formula": {"max_n": -1}}}',
        '{"checks": {"td-path-formula": {"max_n": true}}}',
        '{"checks": {"td-path-formula": 4}}',
        '{"checks": ["td-path-formula"]}',
        b"",
        b"not json",
        b'{"budgets": {"width_exact": 3}',
        b'{"budgets": {}}\xff',
        b"\xff\xfe{}",
    ],
    ids=[
        "missing",
        "json-list",
        "unknown-budget",
        "unknown-suite",
        "string-param",
        "string-budget",
        "bool-budget",
        "replaced-budget",
        "unknown-check",
        "undeclared-param",
        "list-param",
        "negative-param",
        "bool-param",
        "param-not-object",
        "checks-not-object",
        "empty",
        "not-json",
        "truncated",
        "trailing-byte",
        "not-utf8",
    ],
)
def test_cli_bad_config_exits_2(tmp_path, capsys, content):
    from widthlab.cli import main

    path = tmp_path / "settings.json"
    if content is not None:
        path.write_bytes(content if isinstance(content, bytes) else content.encode())
    assert main(["verify", "td-path-formula", "--max-n", "3", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: bad config {path}: ") and "Traceback" not in err


# Any JSON value, with keys that reach every branch of load_config (its
# sections, the budgets, the checks and their params, next to keys that
# name nothing), and config-shaped objects, which load more often.
_BUDGET_KEYS = sorted(dataclasses.asdict(DEFAULT_BUDGETS))
_PARAM_KEYS = sorted({key for check in CHECKS.values() for key in check.defaults})
_CONFIG_KEYS = st.sampled_from(
    sorted({"budgets", "checks", "suite", "modulator", *_BUDGET_KEYS, *CHECKS, *_PARAM_KEYS})
) | st.text(max_size=3)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_CONFIG_KEYS, inner, max_size=3),
    max_leaves=12,
)
_SIZES = st.integers(-2, 40) | _JSON_VALUES
_SHAPED_CONFIGS = st.fixed_dictionaries(
    {},
    optional={
        "budgets": st.dictionaries(st.sampled_from(_BUDGET_KEYS), _SIZES, max_size=3),
        "checks": st.dictionaries(
            st.sampled_from(sorted(CHECKS)),
            st.dictionaries(st.sampled_from(_PARAM_KEYS), _SIZES, max_size=2),
            max_size=3,
        ),
    },
)


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("config") / "settings.json"


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(_JSON_VALUES | _SHAPED_CONFIGS)
def test_load_config_loads_or_raises_value_error(config_path, value):
    from widthlab.config import Budgets, load_config

    config_path.write_text(json.dumps(value))
    defaults = {name: check.defaults for name, check in CHECKS.items()}
    try:
        budgets, configured = load_config(str(config_path), defaults)
    except ValueError as exc:
        assert str(exc).startswith(f"bad config {config_path}: ")
        return
    assert isinstance(budgets, Budgets) and set(configured) <= set(defaults)


# argv for ``cli.main`` from a small grammar: every subcommand, its known
# flags, unknown flags and stray tokens, and values that are negative, huge
# or not numbers.  Graphs are tiny and come on stdin.  --jobs is 1 or 2.
# The sizes of the stars:, paths:, random: and named: families are drawn
# from the same values: each member's order is read before it is built, and
# one above every budget exits 2.  The random: counts stay small.
_HUGE = "9" * 30
_VALUE = st.sampled_from(["-1", "0", "1", "2", "3", "-" + _HUGE, _HUGE, "x", "1.5", ""])
_SMALL = st.sampled_from(["-1", "0", "1", "2", "3", "x"])
_FORMAT = st.sampled_from([*FORMATS, "bogus"])
_KIND = st.sampled_from(["card", "alpha", "bogus"])
_TINY_GRAPHS = [Graph(0, ()), Graph(1, (0,)), path_graph(3), cycle_graph(5), star(3)]
_INPUT = st.sampled_from(["-", "{missing}"])
_STRAY = st.lists(st.sampled_from(["--bogus", "-z", "extra", "--max-n", "--witness"]), max_size=1)


def _flags(**options):
    """Each option flag with its value, or left out."""
    pairs = [st.just([]) | value.map(lambda v, f=flag: [f, v]) for flag, value in options.items()]
    return st.tuples(*pairs).map(lambda chosen: [token for pair in chosen for token in pair])


_PARAM_NAMES = sorted(PARAMETERS)
_PARAM = st.tuples(
    st.just(["param"]),
    st.sampled_from([*_PARAM_NAMES, *("alpha-" + name for name in _PARAM_NAMES), "n", "bogus"]).map(
        lambda name: [name]
    )
    | st.tuples(st.sampled_from(["tw", "chi", "delta", "mu:pw", "bogus"]), _VALUE).map(
        lambda spec: [":".join(spec)]
    ),
    _flags(**{"--input": _INPUT, "--format": _FORMAT, "--kind": _KIND}),
    st.lists(st.just("--witness"), max_size=1),
)
_FAMILY = st.one_of(
    st.tuples(st.sampled_from(["all:", "upto:"]), _VALUE),
    st.tuples(st.sampled_from(["stars:", "paths:"]), _VALUE, st.just("-"), _VALUE),
    st.tuples(st.just("random:"), _VALUE, st.sampled_from([",0.5,", ",2,", ",x,"]), _SMALL),
    st.tuples(
        st.just("named:"),
        st.sampled_from(
            ["K3", "P4,C5", "star3", "S2", "2K2", "Q", "K-1", f"K{_HUGE}", f"{_HUGE}K2", f"S{_HUGE}"]
        ),
    ),
    st.sampled_from([("file:{graphs}",), ("file:{missing}",), ("bogus",)]),
).map("".join)
_VERIFY = st.tuples(
    st.just(["verify"]),
    st.sampled_from([*CHECK_NAMES, "bogus"]).map(lambda name: [name]),
    # Always an --max-n: several checks take seconds at their defaults.
    _VALUE.map(lambda v: ["--max-n", v]),
    _flags(
        **{
            "--seed": _VALUE,
            "--jobs": st.sampled_from(["1", "2"]),
            "--rho": st.sampled_from(["omega", "tw", "bogus"]),
            "--c": _VALUE,
            "--kind": _KIND,
            "--family": _FAMILY,
            "--config": st.sampled_from(["{config}", "{missing}"]),
            "--log": st.sampled_from(["{log}", "{missing}/log.jsonl"]),
        }
    ),
)
_CONSTRUCT = st.tuples(
    st.just(["construct"]),
    st.sampled_from(["s-claw", "p5", "net", "gamma", "subdivided-claw", "bogus"]).map(
        lambda kind: [kind]
    ),
    _flags(**{"--iterate": _VALUE, "--n": _VALUE, "--format": _FORMAT}),
)
_MWIS = st.tuples(
    st.just(["mwis"]),
    _flags(
        **{
            "--input": _INPUT,
            "--format": _FORMAT,
            "--weights": st.sampled_from(["{weights}", "{bad-weights}", "{missing}"]),
            "--algorithm": st.sampled_from(["exact", "bipartite", "oct", "bogus"]),
            "--k": _VALUE,
        }
    ),
)
_OTHER = st.sampled_from([(["list-checks"],), (["bogus"],), ([],), (["--help"],)])
_ARGV = st.tuples(st.one_of(_PARAM, _VERIFY, _CONSTRUCT, _MWIS, _OTHER), _STRAY).map(
    lambda drawn: [token for part in drawn[0] for token in part] + drawn[1]
)


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    files = {"missing": root / "missing", "log": root / "run.jsonl", "config": root / "config.json"}
    files["config"].write_text('{"checks": {"td-path-formula": {"max_n": 4}}}')
    files["graphs"] = root / "graphs.g6"
    files["graphs"].write_text("@\nBw\n")
    files["weights"] = root / "weights.txt"
    files["weights"].write_text("2 1 1 2 1\n")
    files["bad-weights"] = root / "bad-weights.txt"
    files["bad-weights"].write_text("-1 x\n")
    return {name: str(path) for name, path in files.items()}


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(_ARGV, st.sampled_from(_TINY_GRAPHS), st.sampled_from(sorted(FORMATS)))
def test_cli_main_exits_0_1_or_2_without_a_traceback(cli_files, argv, g, stdin_format):
    from widthlab.cli import main

    argv = [token.format_map(cli_files) for token in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        stdin, sys.stdin = sys.stdin, io.StringIO(emit(g, stdin_format))
        try:
            code = main(argv)
        finally:
            sys.stdin = stdin
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv


def test_config_overrides_apply(tmp_path, capsys):
    from widthlab.cli import main
    from widthlab.config import load_config

    defaults = {name: check.defaults for name, check in CHECKS.items()}
    path = tmp_path / "settings.json"
    path.write_text(
        '{"budgets": {"width_exact": 3}, "checks": {"td-path-formula": {"max_n": 4}, '
        '"sclaw-increment": {"seed": -7}}}'
    )
    budgets, configured = load_config(str(path), defaults)
    assert budgets.width_exact == 3
    assert configured == {"td-path-formula": {"max_n": 4}, "sclaw-increment": {"seed": -7}}
    # The file sets the run's params, and a flag overrides the file.
    assert main(["verify", "td-path-formula", "--config", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["instances_tested"] == 4
    assert main(["verify", "td-path-formula", "--config", str(path), "--max-n", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["instances_tested"] == 2


def test_readme_lists_registered_checks():
    from widthlab.checks import CHECKS

    readme = (Path(__file__).parent.parent / "README.md").read_text()
    section = readme.split("## Registered checks", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1:3] for line in section.splitlines() if line.startswith("| ")]
    table = {name.strip(): fact.strip() for name, fact in rows[2:]}  # after the header
    assert sorted(table) == sorted(CHECK_NAMES)
    for name, fact in table.items():
        doc = " ".join(CHECKS[name].evaluate.__doc__.split())
        assert doc.rstrip(".") == fact, name


def test_gamma_witness_rejects_an_induced_cycle_as_not_chordal(monkeypatch):
    # The chordality test is the only step that looks for induced cycles:
    # a stand-in for S_2 with its order and clique number but an induced C5
    # must fail there.
    import widthlab.checks as checks
    from widthlab.graphs import Graph

    real = checks.gamma_family
    c5_and_two = Graph.from_edges(7, [(i, (i + 1) % 5) for i in range(5)])
    monkeypatch.setattr(
        checks,
        "gamma_family",
        lambda index, budgets: c5_and_two if index == 2 else real(index, budgets),
    )
    report = run_check(CheckSpec("gamma-witness", {"max_n": 2}))
    assert report.failures == [('{"index": 2}', "S_2 is not chordal")]


_MEMO_RUNS = [
    ("chain-inequality", {"max_n": 4}),
    ("ramsey-binding", {"max_n": 4}),
    ("sclaw-increment", {"graphs": ["Dhc"]}),
    ("modulator-identities", {"max_n": 4}),
    ("modulator-slack", {"max_n": 4}),
    ("modulator-slack", {"max_n": 4, "cs": [3]}),
    ("modulator-minimality", {"max_n": 4}),
    ("mwis-equivalence", {"max_n": 4, "random_count": 4, "bipartite_count": 4}),
    ("fvs-alpha-tw-bound", {"max_n": 4}),
    ("iso-invariance", {"max_n": 3, "relabelings": 2}),
]


@pytest.mark.parametrize(
    "name, params",
    _MEMO_RUNS,
    ids=[name + "".join(f"-c{c}" for c in params.get("cs", ())) for name, params in _MEMO_RUNS],
)
def test_graph_memos_are_invisible(name, params):
    # A serial run, a run over two workers, and every instance evaluated
    # with both memos emptied first give the same report.
    import widthlab.checks as checks
    import widthlab.mwis as mwis
    from widthlab.config import DEFAULT_BUDGETS

    serial = run_check(CheckSpec(name, params)).to_json(include_timing=False)
    parallel = run_check(CheckSpec(name, params), jobs=2).to_json(include_timing=False)
    full = {**default_params(name), **params}
    instances = checks.instances_for(name, full)
    failures = []
    for inst in instances:
        checks._graph_profile.cache_clear()
        mwis._oct_layout.cache_clear()
        detail = checks.CHECKS[name].evaluate(inst, full, DEFAULT_BUDGETS)
        if detail is not None:
            failures.append((checks._instance_id(inst), detail))
    meta = checks.CHECKS[name].meta(full, DEFAULT_BUDGETS) if checks.CHECKS[name].meta else {}
    fresh = checks.CheckReport(name, len(instances), failures, 0, meta)
    assert serial == parallel == fresh.to_json(include_timing=False)
    assert serial["pass"] and serial["instances_tested"] > 0


def test_serial_run_loads_no_process_pool():
    """A cold ``jobs=1`` run, CLI import included, never loads the process
    pool machinery.  ``test_graph_memos_are_invisible`` shows that ``jobs=2``
    gives the same report."""
    code = (
        "import sys\n"
        "import widthlab.cli\n"
        "from widthlab.checks import CheckSpec, run_check\n"
        "assert run_check(CheckSpec('chain-inequality', {'max_n': 3}), jobs=1).passed\n"
        "print(sorted({'concurrent.futures.process', 'multiprocessing'} & set(sys.modules)))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def _count_calls(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_slack_instances_of_one_graph_share_their_left_hand_sides(monkeypatch):
    # 5 targets x 3 thresholds x 2 kinds: one treewidth per kind.
    import widthlab.widths as widths
    from widthlab.decomp import CostKind

    calls = _count_calls(monkeypatch, widths, "lambda_treewidth")
    report = run_check(CheckSpec("modulator-slack", {"graphs": ["Dhc"]}))
    assert report.instances_tested == 30 and report.passed
    assert [kind for _, kind, _ in calls] == [CostKind.CARDINALITY, CostKind.INDEPENDENCE]


@pytest.mark.parametrize("name, searches", [("modulator-slack", 14), ("modulator-identities", 3)])
def test_modulator_searches_are_shared_per_resolved_test(monkeypatch, name, searches):
    # Every rho resolves c = 0 and c = 1 to one test, so on one graph slack
    # searches (1 + 1 + 5) tests x 2 kinds, not 5 targets x 3 thresholds x
    # 2 kinds, and identities reuses the tw:1 search for td:1.
    import widthlab.modulators as modulators

    calls = _count_calls(monkeypatch, modulators, "modulator_number")
    report = run_check(CheckSpec(name, {"graphs": ["Dhc"]}))
    assert report.passed
    assert len(calls) == searches


def test_profile_modulator_matches_a_fresh_search():
    # Two specs share a memo entry only when they resolve to the same test,
    # so the memo returns a fresh search's value and witness; c = 3 reaches
    # the per-spec fallback tests and delta the degree tests.
    import widthlab.checks as checks
    from widthlab.config import DEFAULT_BUDGETS
    from widthlab.decomp import CostKind
    from widthlab.graphs import enumerate_graphs
    from widthlab.modulators import PARAMETERS, ModulatorSpec, modulator_number

    for g in (g for n in range(1, 6) for g in enumerate_graphs(n)):
        profile = checks._Profile(g, DEFAULT_BUDGETS)
        for rho in (name for name, row in PARAMETERS.items() if row.target):
            for c in range(4):
                spec = ModulatorSpec(rho, c)
                for kind in CostKind:
                    fresh = modulator_number(g, spec, kind, DEFAULT_BUDGETS)
                    assert profile.modulator(spec, kind) == fresh, (to_graph6(g), spec, kind)


@pytest.mark.parametrize(
    "name, expected",
    [
        ("sclaw-increment", {"lambda_pathwidth": 1}),
        ("fvs-alpha-tw-bound", {"lambda_treewidth": 1, "feedback_vertex_number": 1}),
        ("modulator-identities", {"feedback_vertex_number": 1}),
    ],
)
def test_family_checks_reach_solvers_through_the_table(monkeypatch, name, expected):
    # A solver replaced on its own module is the one a family check runs:
    # the check reaches it through PARAMETERS and the profile, once.
    import widthlab.modulators as modulators
    import widthlab.widths as widths

    counts = {
        solver: _count_calls(monkeypatch, module, solver)
        for module, solver in (
            (widths, "lambda_pathwidth"),
            (widths, "lambda_treewidth"),
            (modulators, "feedback_vertex_number"),
        )
    }
    report = run_check(CheckSpec(name, {"graphs": ["Dhc"]}))
    assert report.passed and report.instances_tested == 1
    assert {solver: len(calls) for solver, calls in counts.items()} == {
        **dict.fromkeys(counts, 0),
        **expected,
    }


def test_graph_profile_follows_the_labelled_graph():
    # Alternating two labelled graphs on the same n reads each one's own
    # values, never the other's.
    import widthlab.checks as checks
    from widthlab.config import DEFAULT_BUDGETS
    from widthlab.decomp import CostKind
    from widthlab.formats import from_graph6
    from widthlab.modulators import parameter

    path, triangle = "Bg", "Bw"  # P3 and K3
    for g6 in (path, triangle, path, triangle):
        profile = checks._graph_profile(g6, DEFAULT_BUDGETS)
        assert profile.graph == from_graph6(g6)
        for kind in CostKind:
            fresh = parameter("tw", kind)(profile.graph, DEFAULT_BUDGETS)
            assert profile.parameter("tw", kind) == fresh


def test_iso_invariance_solves_every_relabelling(monkeypatch):
    # The profile is keyed on the labelled graph: iso-invariance reads the
    # given labelling's profile and builds a fresh one for each relabelling,
    # so each labelling runs each width solver under both kinds.
    import widthlab.widths as widths

    counts = {
        name: _count_calls(monkeypatch, widths, name)
        for name in ("lambda_treewidth", "lambda_pathwidth", "lambda_treedepth")
    }
    report = run_check(CheckSpec("iso-invariance", {"graphs": ["Dhc"], "relabelings": 3}))
    assert report.passed
    solved = {name: len(calls) for name, calls in counts.items()}
    assert solved == dict.fromkeys(counts, 2 * (1 + 3))
