"""Command-line interface: dispatch, report shape, determinism, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import compresslab
from compresslab import ToyLanguage
from compresslab import cli as cli_module
from compresslab.cli import main

# the directory holding the package this suite imported, for child interpreters
_PACKAGE_ROOT = str(Path(compresslab.__file__).resolve().parent.parent)


def _python(*args):
    """Run a child interpreter that imports the same compresslab as the suite."""
    path = os.pathsep.join(p for p in (_PACKAGE_ROOT, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}
    )


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
    from compresslab import statistical_distance
    from reference_routes import distribution_from_json

    for q in lines[0]["queries"]:
        left = distribution_from_json(q["left"])
        right = distribution_from_json(q["right"])
        assert float(statistical_distance(left, right)) == q["distance"] == 1.0


def test_reduce_input_must_be_an_n_bit_string(capsys):
    # --input is parsed into an n-bit id before any decision; anything else
    # is a usage error with a one-line JSON report
    for text in ("0a1", "012", "11", "1111", "", "-11", " 111", "0b1", "1_1"):
        assert main(["reduce", "--n", "3", "--input", text]) == 2, text
        captured = capsys.readouterr()
        assert captured.out == "", text
        assert "Traceback" not in captured.err, text
        assert json.loads(captured.err)["kind"] == "usage", text
    # the report echoes the input as typed
    code, [line] = _run(capsys, "reduce", "--n", "3", "--input", "011")
    assert code == 0 and line["input"] == "011"
    assert line["accept"] is False and line["member"] is False


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
    lang = ToyLanguage(4, {0b1111, 0b0110})
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


def test_tournament_random_with_k_near_the_vertex_count(capsys):
    # the binomials C(|R|, j) that rank greedy candidates pass int64 for j
    # near |R| / 2; the steps stay exhaustive and unrank in Python ints
    for num_vertices, t in ((100, 98), (200, 200)):
        code = main(["tournament", "--random", "--num-vertices", str(num_vertices), "--t", str(t), "--seed", "1"])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        assert json.loads(captured.out)["dominates"] is True


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
    # options that no command read are gone; argparse rejects them
    for argv in (
        ["reduce", "--audit", "--arithmetic", "float"],
        ["verify-lemma", "pinsker", "--arithmetic", "exact"],
        ["fcomp", "--f", "builtin:or", "--seed", "1"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        err = capsys.readouterr().err
        assert exc.value.code == 2, argv
        assert err.startswith("usage:"), argv
        assert "Traceback" not in err, argv


def test_input_with_empty_promise_gap_exits_2(capsys):
    # FULL_V advice (3 no-instances, t = 4) asks no query for --input 00
    argv = ["reduce", "--language", "builtin:single-yes", "--n", "2", "--t", "4"]
    for gap in (["--Delta", "0.3", "--delta", "0.5"], ["--delta", "1.5"], ["--delta", "-0.5"], ["--Delta", "nan"]):
        for mode in (["--input", "00"], ["--audit"]):
            assert main([*argv, *gap, *mode]) == 2, (gap, mode)
            err = capsys.readouterr().err
            assert json.loads(err)["kind"] == "usage", (gap, mode)
            assert "empty promise gap" in err, (gap, mode)


def test_input_with_empty_promise_gap_exits_2_on_domset_advice(capsys):
    # five no-instances, t = 2: DOMSET advice, whose selector would run at the
    # threshold; the gap is checked before the advice is built
    argv = ["reduce", "--language", "builtin:random", "--n", "3", "--t", "2"]
    for gap in (["--delta", "-0.5"], ["--delta", "nan"], ["--Delta", "0.3", "--delta", "0.5"]):
        for mode in (["--input", "101"], ["--audit"]):
            assert main([*argv, *gap, *mode]) == 2, (gap, mode)
            err = capsys.readouterr().err
            assert json.loads(err)["kind"] == "usage", (gap, mode)
            assert "empty promise gap" in err, (gap, mode)


def test_block_size_below_two_exits_2(capsys):
    # the full language has no no-instance, so no selector ever partitions an edge
    for language, n in (("builtin:full", "2"), ("builtin:single-yes", "3")):
        argv = ["reduce", "--language", language, "--n", n, "--t", "2", "--mode", "tlogt"]
        assert main([*argv, "--sigma", "1", "--delta", "0.5", "--audit"]) == 2, argv
        assert "blocks need at least two elements" in capsys.readouterr().err, argv


def test_builtin_languages_format_only_what_they_read(monkeypatch):
    # every builtin is built on ids, so the command line formats no string
    # for any of them; full, parity and majority must match their rules on
    # the bit strings, kept here as the reference
    formatted = []

    def counting_format(value, spec=""):
        formatted.append(spec)
        return format(value, spec)

    monkeypatch.setattr(cli_module, "format", counting_format, raising=False)
    n = 6
    universe = [format(i, f"0{n}b") for i in range(2**n)]
    assert cli_module._build_language("builtin:random", n, 2) == ToyLanguage.random(n, 2)
    assert cli_module._build_language("builtin:single-yes", n, 2) == ToyLanguage(n, {2**n - 1})
    assert cli_module._build_language("builtin:empty", n, 2) == ToyLanguage(n, ())
    for name, member in (
        ("full", lambda v: True),
        ("parity", lambda v: v.count("1") % 2 == 1),
        ("majority", lambda v: v.count("1") * 2 > n),
    ):
        yes = [int(v, 2) for v in universe if member(v)]
        assert cli_module._build_language(f"builtin:{name}", n, 2) == ToyLanguage(n, yes)
    assert formatted == []
    with pytest.raises(ValueError, match="unknown builtin"):
        cli_module._build_language("builtin:nope", n, 2)


def test_budget_exit_3(capsys, monkeypatch):
    monkeypatch.setenv("COMPLAB_BUDGET", "64")
    assert main(["verify-lemma", "pinsker", "--t", "10", "--m", "1", "--trials", "1"]) == 3
    capsys.readouterr()


def test_output_codes_exit_3_or_2(capsys, monkeypatch):
    # 2**31 and 2**29 codes are past the default budget, checked before any
    # count vector is allocated; past 32 bits the code width is a usage error
    monkeypatch.delenv("COMPLAB_BUDGET", raising=False)
    for argv, code, kind in (
        (["pinsker", "--t", "1", "--m", "31"], 3, "budget"),
        (["kl", "--t", "2", "--m", "29"], 3, "budget"),
        (["pinsker", "--t", "1", "--m", "64"], 2, "usage"),
    ):
        assert main(["verify-lemma", *argv, "--trials", "1"]) == code, argv
        captured = capsys.readouterr()
        assert captured.out == "" and json.loads(captured.err)["kind"] == kind, argv


def test_selector_failure_exit_1(capsys):
    # a negative threshold disqualifies every candidate
    code = main(["tournament", "--language", "builtin:single-yes", "--n", "3",
                 "--compression", "ideal-or", "--t", "3", "--delta", "-0.5"])
    assert code == 1
    capsys.readouterr()


def test_tournament_threshold_has_no_promise_gap(capsys):
    # a selector threshold at or above Delta, or above 1, leaves an empty
    # promise gap, but the tournament command asks no query and needs none
    argv = ["tournament", "--language", "builtin:random", "--n", "5", "--seed", "1",
            "--compression", "noisy-or:1/4,1/4", "--t", "3"]
    for delta in ("0.6", "1.0", "1.5"):
        assert main([*argv, "--delta", delta]) == 0, delta
        line = json.loads(capsys.readouterr().out)
        assert line["dominates"] is True and line["config"]["delta"] == float(delta)


def test_nan_selector_threshold_exits_2(capsys):
    # reduce and fcomp refuse a NaN threshold through the promise gap; the
    # tournament command has no gap and refuses it before the selector runs
    code = main(["tournament", "--language", "builtin:single-yes", "--n", "3",
                 "--compression", "ideal-or", "--t", "3", "--delta", "nan"])
    assert code == 2
    report = json.loads(capsys.readouterr().err)
    assert report["kind"] == "usage" and "nan" in report["error"]


def test_verify_lemma_trials_at_least_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify-lemma", "pinsker", "--trials", "-1"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("usage:")
    code, [summary] = _run(capsys, "verify-lemma", "pinsker", "--trials", "0")
    assert code == 0
    assert (summary["instances"], summary["failures"]) == (0, 0)


def test_console_entry_point():
    proc = _python("-m", "compresslab.cli", "fcomp", "--f", "builtin:or")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["view"] == "f"


def test_greedy_edge_scan_is_budget_guarded(capsys, monkeypatch):
    # C(32, 4) = 35,960 edges in the first greedy step
    monkeypatch.setenv("COMPLAB_BUDGET", "1000")
    assert main(["tournament", "--random", "--num-vertices", "32", "--t", "4"]) == 3
    err = capsys.readouterr().err
    assert json.loads(err)["kind"] == "budget" and "greedy edge scan" in err


@pytest.mark.parametrize(
    "num_vertices, t, what",
    [
        ("1500", "3", "greedy edge scan"),  # C(1500, 3) = 561,375,500 edges
        ("28", "20", "greedy candidate lookups"),  # 20 * C(28, 19) = 138,138,000 lookups, C(28, 20) edges fit
        ("1000000000000", "3", "random-tournament vertices"),  # refused before any key is drawn
    ],
)
def test_greedy_step_past_the_budget_exits_3(capsys, num_vertices, t, what):
    # a greedy step is counted exactly or refused; nothing is sampled
    assert main(["tournament", "--random", "--num-vertices", num_vertices, "--t", t, "--seed", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    report = json.loads(captured.err)
    assert report["kind"] == "budget" and what in report["error"]


def test_greedy_counts_every_candidate_near_the_budget(capsys):
    # C(72, 5) = 13,991,544 edges and 5 * C(72, 4) = 5,153,220 lookups both
    # fit the default budget, so every step is exact
    code, [line] = _run(capsys, "tournament", "--random", "--num-vertices", "72", "--t", "5", "--seed", "1")
    assert code == 0
    assert line["dominates"] is True and line["undominated"] == []
    assert len(line["elements"]) == 4 and line["trace"] == [72, 36, 15, 3, 0]


def test_audit_past_the_edge_scan_wall(capsys):
    # C(4095, 4) edges are far past 2**24; the first-vertex greedy step
    # takes its closed-form member, with no edge scan and no budget stop
    code, [line] = _run(capsys, "reduce", "--audit", "--t", "4", "--n", "12", "--seed", "1")
    assert code == 0
    assert line["agreement"] == 1.0 and line["advice_mode"] == "DOMSET"


def test_malformed_language_file_exit_2(tmp_path):
    for name, obj in (
        ("no-n", {"yes": ["1"]}),
        ("no-yes", {"n": 3}),
        ("bad-n", {"n": None, "yes": []}),
        ("yes-string", {"n": 3, "yes": "07"}),
        ("fractional-n", {"n": 3.9, "yes": ["7"]}),
        ("string-n", {"n": "3", "yes": ["7"]}),
        ("hex-prefix", {"n": 3, "yes": ["0x7"]}),
        ("hex-blanks-underscore", {"n": 3, "yes": [" 0_5 "]}),
        ("hex-sign", {"n": 3, "yes": ["+3"]}),
    ):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(obj))
        proc = _python("-m", "compresslab.cli", "reduce", "--language", str(path), "--audit")
        assert proc.returncode == 2, (name, proc.stderr)
        assert "Traceback" not in proc.stderr
        assert json.loads(proc.stderr)["kind"] == "usage"


def test_malformed_coin_bits_exit_2(tmp_path):
    # a negative coin count used to crash the OR constructor with a
    # traceback, and a fractional one was truncated
    for name, coin_bits in (("negative-coins", -1), ("fractional-coins", 1.5)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"kind": "or", "coin_bits": coin_bits}))
        proc = _python("-m", "compresslab.cli", "reduce", "--compression", str(path), "--audit")
        assert proc.returncode == 2, (name, proc.stderr)
        assert "Traceback" not in proc.stderr
        assert json.loads(proc.stderr)["kind"] == "usage"


def test_guardrails_hold_under_python_O():
    # assert statements vanish under -O; the invariant errors must not
    script = """
import sys
from compresslab import InvariantError, ToyLanguage, ideal_or_compression
from compresslab import reduction
from compresslab.reduction import build_advice
from compresslab.tournament import DominatingSet

assert False, "assert statements are live"
big = DominatingSet(3, 3, tuple((0b000, 0b001) for _ in range(50)), (8, 0))
reduction.greedy_dominating_set = lambda tournament: big
lang = ToyLanguage(3, {0b111})
try:
    build_advice(lang, ideal_or_compression(lang, 3))
except InvariantError:
    sys.exit(0)
sys.exit("oversized advice passed")
"""
    proc = _python("-O", "-c", script)
    assert proc.returncode == 0, proc.stderr


def _fuzz_files(tmp_path):
    files = {
        "truncated": '{"n": 3, "yes": ["07"',
        "list": "[1, 2]",
        "null": "null",
        "yes-int": '{"n": 3, "yes": 5}',
        "bad-hex": '{"n": 3, "yes": ["zz"]}',
        "too-wide": '{"n": 3, "yes": ["fff"]}',
        "negative-n": '{"n": -2, "yes": []}',
        "huge-n": '{"n": 40, "yes": []}',
        "dict-yes": '{"n": "3", "yes": {"a": 1}}',
        "bad-kind": '{"kind": "xor"}',
        "bad-es": '{"kind": "or", "es": "ab"}',
        "zero-denominator": '{"kind": "or", "es": [1, 0]}',
        "negative-coins": '{"kind": "or", "coin_bits": -1}',
        "fractional-coins": '{"kind": "or", "coin_bits": 1.5}',
    }
    paths = []
    for name, text in files.items():
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        paths.append(str(path))
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe")
    directory = tmp_path / "directory.json"
    directory.mkdir()
    return paths + [str(binary), str(directory), str(tmp_path / "missing.json")]


def test_cli_fuzz_exit_codes_without_traceback(tmp_path, capsys, monkeypatch):
    # every malformed file and bad flag ends in a contract exit code, with a
    # usage message or a one-line JSON error, never an uncaught exception
    monkeypatch.setenv("COMPLAB_BUDGET", "200000")
    files = _fuzz_files(tmp_path)
    argvs = []
    for path in files:
        argvs += [
            ["reduce", "--audit", "--language", path],
            ["tournament", "--language", path],
            ["reduce", "--audit", "--compression", path],
        ]
    bad_flags = [
        ["--t", "0"], ["--t", "-1"], ["--t", "x"], ["--n", "0"], ["--n", "-3"], ["--m", "0"],
        ["--r", "-1"], ["--num-vertices", "0"], ["--delta", "nan"], ["--delta", "-1"],
        ["--Delta", "0"], ["--sigma", "0"], ["--compression", "noisy-or:1/0,1/8"],
        ["--compression", "noisy-or:1/3,1/8"], ["--compression", "noisy-or:1/8"],
        ["--language", "builtin:nope"], ["--out", str(tmp_path / "no" / "such" / "dir")],
        ["--bogus"],
    ]
    commands = [
        ["verify-lemma", "pinsker", "--trials", "2"], ["tournament", "--random"], ["tournament"],
        ["reduce", "--audit"], ["reduce", "--input", "101"], ["fcomp", "--f", "0101", "--audit"],
    ]
    argvs += [cmd + flags for cmd in commands for flags in bad_flags]
    for argv in argvs:
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the flags
            code = exc.code
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3), (argv, code, err)
        assert "Traceback" not in err, argv
        if code and not err.startswith("usage:"):
            assert json.loads(err)["kind"] in {"invariant", "usage", "budget"}, argv
