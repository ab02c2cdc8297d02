"""Command-line interface: dispatch, report shape, determinism, exit codes."""

import json
import subprocess
import sys

from compresslab import ToyLanguage
from compresslab.cli import main


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, [json.loads(line) for line in out.strip().splitlines()]


def test_verify_lemma_pinsker(capsys):
    code, lines = _run(
        capsys, "verify-lemma", "pinsker", "--t", "8", "--m", "2", "--trials", "20", "--seed", "7"
    )
    assert code == 0
    *reports, summary = lines
    assert len(reports) == 20
    for rep in reports:
        assert rep["lemma"] == "PINSKER_SENS"
        assert rep["slack"] >= -1e-9
        assert set(rep) == {"lemma", "lhs", "rhs", "slack", "witness", "params"}
    assert summary["failures"] == 0
    assert summary["config"]["seed"] == 7


def test_verify_lemma_kl_and_vajda(capsys):
    code, lines = _run(capsys, "verify-lemma", "kl", "--t", "3", "--m", "2", "--trials", "10")
    assert code == 0 and lines[-1]["failures"] == 0
    code, lines = _run(
        capsys, "verify-lemma", "vajda", "--t", "2", "--m", "1", "--sigma", "3", "--trials", "10"
    )
    assert code == 0 and lines[-1]["failures"] == 0


def test_report_determinism(capsys):
    args = ("verify-lemma", "pinsker", "--t", "6", "--m", "1", "--trials", "5", "--seed", "3")
    main(list(args))
    first = capsys.readouterr().out
    main(list(args))
    second = capsys.readouterr().out
    assert first == second


def test_reduce_audit(capsys):
    code, lines = _run(
        capsys,
        "reduce", "--language", "builtin:single-yes", "--compression", "ideal-or",
        "--t", "4", "--audit",
    )
    assert code == 0
    report = lines[0]
    assert report["agreement"] == 1.0
    assert set(report["query_tags"]) == {"yes", "no", "gap"}
    assert report["config"]["command"] == "reduce"


def test_reduce_single_input(capsys):
    code, lines = _run(
        capsys,
        "reduce", "--language", "builtin:single-yes", "--compression", "ideal-or",
        "--t", "4", "--input", "111",
    )
    assert code == 0
    assert lines[0]["accept"] is True and lines[0]["member"] is True
    # the query distributions round-trip through the serialization format
    from compresslab import FiniteDistribution, statistical_distance

    for q in lines[0]["queries"]:
        left = FiniteDistribution.from_json(q["left"])
        right = FiniteDistribution.from_json(q["right"])
        assert float(statistical_distance(left, right)) == q["distance"] == 1.0


def test_reduce_noisy_audit(capsys):
    code, lines = _run(
        capsys,
        "reduce", "--language", "builtin:random", "--n", "5", "--seed", "4",
        "--compression", "noisy-or:1/8,1/8", "--t", "16", "--audit",
    )
    assert code == 0 and lines[0]["agreement"] == 1.0


def test_reduce_tlogt_audit(capsys):
    code, lines = _run(
        capsys,
        "reduce", "--language", "builtin:single-yes", "--compression", "ideal-or",
        "--t", "2", "--mode", "tlogt", "--sigma", "2", "--delta", "0.5", "--audit",
    )
    assert code == 0 and lines[0]["agreement"] == 1.0


def test_reduce_from_files(tmp_path, capsys):
    lang = ToyLanguage(4, {"1111", "0110"})
    lang_file = tmp_path / "lang.json"
    lang_file.write_text(json.dumps(lang.to_json()))
    comp_file = tmp_path / "comp.json"
    comp_file.write_text(json.dumps({"kind": "or", "es": [1, 8], "ec": [1, 8], "coin_bits": 3}))
    code, lines = _run(
        capsys,
        "reduce", "--language", str(lang_file), "--compression", str(comp_file),
        "--t", "8", "--audit",
    )
    assert code == 0 and lines[0]["agreement"] == 1.0


def test_tournament_random(capsys):
    code, lines = _run(capsys, "tournament", "--random", "--num-vertices", "16", "--t", "3", "--seed", "2")
    assert code == 0
    obj = lines[0]
    assert obj["dominates"] is True
    assert set(obj) >= {"t", "n", "elements", "trace"}


def test_tournament_from_language(capsys):
    code, lines = _run(
        capsys, "tournament", "--language", "builtin:single-yes", "--n", "4",
        "--compression", "ideal-or", "--t", "3",
    )
    assert code == 0 and lines[0]["dominates"] is True


def test_fcomp_and(capsys):
    code, lines = _run(capsys, "fcomp", "--f", "builtin:and", "--t", "4", "--audit")
    assert code == 0
    obj = lines[0]
    assert obj["view"] == "1-f(t-i)" and obj["i"] == 0
    assert obj["t_prime"] == 4 and obj["audit_agreement"] == 1.0


def test_fcomp_bitstring(capsys):
    code, lines = _run(capsys, "fcomp", "--f", "00101", "--audit")
    assert code == 0 and lines[0]["audit_agreement"] == 1.0


def test_out_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["reduce", "--language", "builtin:parity", "--n", "3", "--compression",
                 "ideal-or", "--t", "4", "--audit", "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out == ""
    obj = json.loads(out.read_text())
    assert obj["agreement"] == 1.0


def test_usage_errors_exit_2(capsys):
    assert main(["reduce", "--language", "builtin:nope", "--audit"]) == 2
    assert main(["reduce", "--language", "builtin:single-yes"]) == 2  # no --audit/--input
    assert main(["verify-lemma", "pinsker", "--sigma", "3"]) == 2
    capsys.readouterr()


def test_budget_exit_3(capsys, monkeypatch):
    monkeypatch.setenv("COMPLAB_BUDGET", "64")
    assert main(["verify-lemma", "pinsker", "--t", "10", "--m", "1", "--trials", "1"]) == 3
    capsys.readouterr()


def test_selector_failure_exit_1(capsys):
    # a negative threshold disqualifies every candidate
    code = main(["tournament", "--language", "builtin:single-yes", "--n", "3",
                 "--compression", "ideal-or", "--t", "3", "--delta", "-0.5"])
    assert code == 1
    capsys.readouterr()


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "compresslab.cli", "fcomp", "--f", "builtin:or"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["view"] == "f"


def test_greedy_edge_scan_is_budget_guarded(capsys, monkeypatch):
    # C(32, 4) = 35,960 edges in the first greedy step
    monkeypatch.setenv("COMPLAB_BUDGET", "1000")
    assert main(["tournament", "--random", "--num-vertices", "32", "--t", "4"]) == 3
    err = capsys.readouterr().err
    assert json.loads(err)["kind"] == "budget" and "greedy edge scan" in err


def test_malformed_language_file_exit_2(tmp_path):
    for name, obj in (("no-n", {"yes": ["1"]}), ("no-yes", {"n": 3}), ("bad-n", {"n": None, "yes": []})):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(obj))
        proc = subprocess.run(
            [sys.executable, "-m", "compresslab.cli", "reduce", "--language", str(path), "--audit"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2, (name, proc.stderr)
        assert "Traceback" not in proc.stderr
        assert json.loads(proc.stderr)["kind"] == "usage"


def test_guardrails_hold_under_python_O():
    # assert statements vanish under -O; the invariant errors must not
    script = """
import sys
from compresslab import InvariantError, ToyLanguage, ideal_or_compression
from compresslab import reduction
from compresslab.reduction import Advice, build_advice
from compresslab.tournament import DominatingSet

assert False, "assert statements are live"
try:
    Advice(3, "DOMSET", 3).elements
except InvariantError:
    pass
else:
    sys.exit("DOMSET advice without members passed")
big = DominatingSet(3, 3, tuple(("000", "001") for _ in range(50)), (8, 0))
reduction.greedy_dominating_set = lambda tournament: big
lang = ToyLanguage(3, {"111"})
try:
    build_advice(lang, ideal_or_compression(lang, 3))
except InvariantError:
    sys.exit(0)
sys.exit("oversized advice passed")
"""
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
