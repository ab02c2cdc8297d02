"""The benchmark's own tests: every output check passes a real report and
rejects a deliberately corrupted copy of it; the tracer restores what it
patches; the inputs have the make-up the README states.

Run from the root of a checkout:

    python3 -m pytest bench -q
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import compresslab.cli  # noqa: E402
import compresslab.tournament  # noqa: E402
from checks import check_item, lemma_terms, map_table  # noqa: E402
from compresslab.fcompression import SymmetricFunction, find_pivot_view  # noqa: E402
from tracing import PER_LAYER, Tracer  # noqa: E402
from workloads import Item, make_rounds, pivot_view, random_language, write_language  # noqa: E402


def run_cli(argv) -> list[dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert compresslab.cli.main(list(argv)) == 0
    return [json.loads(line) for line in out.getvalue().splitlines()]


def problems_after(item: Item, lines: list[dict], corrupt) -> list[str]:
    bad = json.loads(json.dumps(lines))
    corrupt(bad)
    return check_item(item, "\n".join(json.dumps(line) for line in bad) + "\n")


# ---------------------------------------------------------------------------
# lemma-corpus
# ---------------------------------------------------------------------------

LEMMA_SMALL = [("pinsker", 6, 2, 1, 2), ("kl", 4, 2, 1, 3), ("vajda", 3, 2, 0, 4)]


def lemma_item(lemma, t, m, r, sigma, seed=12345, trials=2) -> Item:
    argv = ["verify-lemma", lemma, "--t", str(t), "--m", str(m), "--r", str(r), "--sigma", str(sigma),
            "--trials", str(trials), "--seed", str(seed)]
    expect = {"lemma": lemma, "t": t, "m": m, "r": r, "sigma": sigma, "trials": trials, "seed": seed}
    return Item(lemma, tuple(argv), expect)


def _shift(field: str, delta: float):
    def corrupt(lines):
        rep = lines[0]
        rep[field] += delta
        rep["slack"] = rep["rhs"] - rep["lhs"]

    return corrupt


def _weakest_witness(item: Item):
    e = item.expect
    terms, _ = lemma_terms(map_table(e["seed"], 0, e["t"], e["m"], e["r"], e["sigma"]), e["t"], e["m"], e["sigma"], e["lemma"])
    flat = int(np.argmin(terms))

    def corrupt(lines):
        if terms.ndim == 1:
            lines[0]["witness"] = {"j": flat, "x": None}
        else:
            lines[0]["witness"] = {"j": flat // terms.shape[1], "x": flat % terms.shape[1]}

    assert terms.min() < terms.max() - 1e-6, "map too regular to test the witness check"
    return corrupt


LEMMA_CORRUPTIONS = {
    "negative slack": (lambda lines: lines[0].update(slack=-1e-3), "below"),
    "rhs off the closed form": (_shift("rhs", 1e-6), "closed form"),
    "lhs off the table": (_shift("lhs", -1e-6), "recomputed"),
    "summary counts a failure": (lambda lines: lines[-1].update(failures=1), "summary line"),
    "a trial missing": (lambda lines: lines.pop(0), "reports for"),
    "report of another trial": (lambda lines: lines[0]["params"].update(trial=7), "report is for"),
    "a field missing": (lambda lines: lines[0].pop("lhs"), "lacks a field"),
}


@pytest.mark.parametrize("spec", LEMMA_SMALL, ids=lambda s: s[0])
def test_lemma_checks(spec):
    item = lemma_item(*spec)
    lines = run_cli(item.argv)
    assert check_item(item, "\n".join(json.dumps(x) for x in lines)) == []
    for name, (corrupt, message) in LEMMA_CORRUPTIONS.items():
        found = problems_after(item, lines, corrupt)
        assert any(message in p for p in found), (name, found)
    found = problems_after(item, lines, _weakest_witness(item))
    assert any("below the largest" in p for p in found), found


# ---------------------------------------------------------------------------
# random tournaments
# ---------------------------------------------------------------------------

DOMSET_ITEM = Item("k3", ("tournament", "--random", "--num-vertices", "24", "--t", "3", "--seed", "5"),
                   {"k": 3, "num_vertices": 24, "seed": 5})


def _trace_set(index, value):
    return lambda lines: lines[-1]["trace"].__setitem__(index, value)


DOMSET_CORRUPTIONS = {
    "member dropped": (lambda lines: lines[-1]["elements"].pop(0), "not dominated"),
    "too many members": (lambda lines: lines[-1]["elements"].extend(lines[-1]["elements"][:1] * 14), "exceed"),
    "member of the wrong size": (lambda lines: lines[-1]["elements"][0].pop(), "(k-1)-subset"),
    "trace above the shrinkage bound": (_trace_set(1, 24), "exceeds"),
    "trace not ending at 0": (_trace_set(-1, 1), "does not run"),
    "report says undominated": (lambda lines: lines[-1].update(dominates=False), "report says"),
}


def test_domset_checks():
    lines = run_cli(DOMSET_ITEM.argv)
    assert check_item(DOMSET_ITEM, json.dumps(lines[-1])) == []
    for name, (corrupt, message) in DOMSET_CORRUPTIONS.items():
        found = problems_after(DOMSET_ITEM, lines, corrupt)
        assert any(message in p for p in found), (name, found)


# ---------------------------------------------------------------------------
# audits
# ---------------------------------------------------------------------------


def _tags(**update):
    def corrupt(lines):
        audit = lines[-1].get("audit", lines[-1])
        audit["query_tags"].update({k: audit["query_tags"][k] + v for k, v in update.items()})

    return corrupt


def _audit_set(**update):
    return lambda lines: lines[-1].get("audit", lines[-1]).update(update)


AUDIT_CORRUPTIONS = {
    "agreement below 1": (_audit_set(agreement=0.96875), "agreement"),
    "a mismatch": (_audit_set(mismatches=["00000"]), "agreement"),
    "advice too large": (_audit_set(advice_size=100), "advice size"),
    "FULL_V advice": (_audit_set(advice_mode="FULL_V"), "advice mode"),
    "a gap query": (_tags(gap=1), "promise gap"),
    "a missing YES tag": (_tags(yes=-1), "YES tags"),
    "audit of another size": (_audit_set(n=4), "audit of n="),
}


@pytest.mark.parametrize("n,t,comp", [(5, 4, "ideal-or"), (6, 16, "noisy-or:1/8,1/8")])
def test_audit_or_checks(tmp_path, n, t, comp):
    members = random_language(n, 2 ** (n - 1), np.random.default_rng(3))
    path = tmp_path / "lang.json"
    write_language(path, n, members)
    item = Item(comp, ("reduce", "--language", str(path), "--compression", comp, "--t", str(t), "--audit"),
                {"n": n, "t": t, "yes": len(members), "no": 2**n - len(members)})
    lines = run_cli(item.argv)
    assert check_item(item, json.dumps(lines[-1])) == []
    for name, (corrupt, message) in AUDIT_CORRUPTIONS.items():
        found = problems_after(item, lines, corrupt)
        assert any(message in p for p in found), (name, found)


SYMMETRIC_ITEM = Item("t3-n5", ("fcomp", "--f", "0110", "--t", "3", "--n", "5", "--audit"),
                      {"values": "0110", "t": 3, "n": 5, "yes": 16, "no": 16})


def test_symmetric_checks():
    lines = run_cli(SYMMETRIC_ITEM.argv)
    assert check_item(SYMMETRIC_ITEM, json.dumps(lines[-1])) == []
    corruptions = dict(AUDIT_CORRUPTIONS)
    corruptions["another view"] = (lambda lines: lines[-1].update(view="1-f"), "pivot view")
    corruptions["another pivot"] = (lambda lines: lines[-1].update(i=1), "pivot view")
    corruptions["top-level agreement"] = (lambda lines: lines[-1].update(audit_agreement=0.5), "audit_agreement")
    for name, (corrupt, message) in corruptions.items():
        found = problems_after(SYMMETRIC_ITEM, lines, corrupt)
        assert any(message in p for p in found), (name, found)


# ---------------------------------------------------------------------------
# inputs and tracer
# ---------------------------------------------------------------------------


def test_pivot_view_matches_the_program():
    for t in range(1, 6):
        for bits in itertools.product((0, 1), repeat=t + 1):
            if len(set(bits)) == 2:
                view = find_pivot_view(SymmetricFunction(bits))
                assert pivot_view(bits) == (view.view, view.pivot), bits


def test_inputs_are_seeded_and_fixed_in_make_up(tmp_path):
    a = make_rounds("tournament-audit", 7, tmp_path)
    b = make_rounds("tournament-audit", 7, tmp_path / "again")
    other = make_rounds("tournament-audit", 8, tmp_path / "other")
    assert [[i.argv for i in row] for row in a] != [[i.argv for i in row] for row in other]
    for mine, again, theirs in zip(a, b, other):
        assert [i.cls for i in mine] == [i.cls for i in again] == [i.cls for i in theirs]
        for x, y in zip(mine, again):
            assert x.argv[0] == y.argv[0]
            if x.argv[0] == "reduce":
                lang = json.loads(Path(x.argv[2]).read_text())
                assert lang == json.loads(Path(y.argv[2]).read_text())
                assert len(lang["yes"]) == x.expect["yes"]
            else:
                assert x.argv == y.argv


def test_tracer_counts_and_restores():
    originals = (compresslab.tournament.greedy_dominating_set, compresslab.cli.greedy_dominating_set,
                 vars(compresslab.tournament.HypergraphTournament)["__init__"])
    tracer = Tracer()
    with contextlib.redirect_stdout(io.StringIO()):
        assert tracer.run_item(compresslab.cli.main, list(DOMSET_ITEM.argv)) == 0
    assert originals == (compresslab.tournament.greedy_dominating_set, compresslab.cli.greedy_dominating_set,
                         vars(compresslab.tournament.HypergraphTournament)["__init__"])
    metrics = tracer.metrics(report_bytes=100, overhead_pct=0.0)
    assert set(metrics) == {name for name, _, _ in PER_LAYER}
    assert metrics["tournament.greedy_steps"] >= 2
    assert 0 < metrics["tournament.edges_scanned"] < metrics["tournament.selector_calls"]
    assert metrics["tournament.greedy_self_ms"] < metrics["tournament.greedy_ms"]
    spans = tracer.dump()["spans"]
    names = {s[3]: s for s in spans}
    assert names["tournament.greedy"][1] == names["cli.main"][0]  # parent is the item span
    assert not tracer.missing
