"""The check registry and the command-line interface."""

import json
import subprocess
import sys

import pytest

from widthlab.checks import CHECK_NAMES, CheckSpec, default_params, run_check
from widthlab.formats import to_graph6
from widthlab.graphs import cycle_graph, star


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


def test_family_all_exact_count():
    # "all:5" resolves to exactly the 34 graphs on five vertices.
    from widthlab.cli import _resolve_family

    graphs = _resolve_family("all:5", seed=None)
    assert len(graphs) == 34
    report = run_check(CheckSpec("chain-inequality", {"graphs": graphs}))
    assert report.passed and report.instances_tested == 34


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


def test_cli_over_budget_enumeration_fails_fast(capsys):
    # Exit 2 before enumerating the smaller n: the cache stays untouched.
    from widthlab.cli import main
    from widthlab.graphs import _canonical_codes

    before = _canonical_codes.cache_info()
    assert main(["verify", "chain-inequality", "--max-n", "9"]) == 2
    assert main(["verify", "chain-inequality", "--family", "upto:9"]) == 2
    assert _canonical_codes.cache_info() == before
    assert "n <= 8" in capsys.readouterr().err


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


def test_cli_list_checks():
    code, out, _ = run_cli("list-checks")
    assert code == 0
    assert set(out.split()) == set(CHECK_NAMES)


def test_cli_usage_error_exit_2():
    code, _, _ = run_cli("param")  # missing required args
    assert code == 2
