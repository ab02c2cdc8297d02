"""Output checks for benchmark items.

Each check recomputes what it can apart from the program (closed forms,
the truth tables rebuilt from the seed with numpy, the pivot view from the
value vector) or tests what the method guarantees (domination, the greedy
shrinkage bound, exact agreement of the reduction).  Nothing is compared
against output recorded from an earlier run.  A check returns a list of
problems; an empty list means the item passed.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

from workloads import Item, pivot_view

TOL = 1e-9
LEMMA_NAMES = {"pinsker": "PINSKER_SENS", "kl": "KL_BOUND", "vajda": "VAJDA_SENS"}


def parse_ndjson(stdout: str) -> list[dict[str, Any]]:
    return [json.loads(line) for line in stdout.splitlines() if line.strip()]


def check_item(item: Item, stdout: str) -> list[str]:
    try:
        lines = parse_ndjson(stdout)
    except json.JSONDecodeError as exc:
        return [f"output is not NDJSON: {exc}"]
    if not lines:
        return ["no output"]
    check = {
        "verify-lemma": check_lemma,
        "tournament": check_domset,
        "reduce": check_audit_or,
        "fcomp": check_symmetric,
    }[item.argv[0]]
    try:
        return check(item.expect, lines)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return [f"report lacks a field or has a malformed one: {exc!r}"]


# ---------------------------------------------------------------------------
# lemma-corpus
# ---------------------------------------------------------------------------


def map_table(seed: int, trial: int, t: int, m: int, r: int, sigma: int) -> np.ndarray:
    """The truth table `verify-lemma --seed seed` draws for one trial."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, trial]))
    return rng.integers(0, 2**m, size=(sigma**t, 2**r), dtype=np.int64)


def _entropy_bits(p: np.ndarray) -> np.ndarray:
    safe = np.where(p > 0, p, 1.0)
    return -(np.where(p > 0, p * np.log2(safe), 0.0)).sum(axis=-1)


def lemma_terms(table: np.ndarray, t: int, m: int, sigma: int, lemma: str) -> tuple[np.ndarray, float]:
    """Per-term left-side values, shape (t,) or (t, sigma), and I(output:input) in bits."""
    n_rows, n_coins = table.shape
    codes = 2**m
    idx = np.arange(n_rows)
    # one coordinate at a time keeps the check's arrays at table size, so the
    # check does not set the process's peak memory
    cond = np.empty((t, sigma, codes), dtype=np.int64)
    for j in range(t):
        digit = (idx // sigma ** (t - 1 - j)) % sigma
        keyed = digit[:, None] * codes + table
        cond[j] = np.bincount(keyed.ravel(), minlength=sigma * codes).reshape(sigma, codes)
    full = np.bincount(table.ravel(), minlength=codes)
    n_full = n_rows * n_coins
    n_cond = n_full // sigma
    h_given_input = 0.0  # deterministic maps have no coin entropy
    if n_coins > 1:
        row_keyed = idx[:, None] * codes + table
        per_row = np.bincount(row_keyed.ravel(), minlength=n_rows * codes).reshape(n_rows, codes) / n_coins
        h_given_input = float(_entropy_bits(per_row).mean())
    info = max(float(_entropy_bits(full / n_full)) - h_given_input, 0.0)
    if lemma == "pinsker":
        terms = np.abs(cond[:, 0] - cond[:, 1]).sum(axis=1) / (2 * n_cond)
    elif lemma == "kl":
        p = cond / n_cond
        q = (full / n_full)[None, None, :]
        terms = np.where(p > 0, p * np.log2(np.where(p > 0, p, 1.0) / q), 0.0).sum(axis=2)
    else:
        n_ne = n_full - n_cond
        ne = full[None, None, :] - cond
        terms = np.abs(ne * n_cond - cond * n_ne).sum(axis=2) / (2 * n_ne * n_cond)
    return terms, info


def check_lemma(expect: dict[str, Any], lines: list[dict[str, Any]]) -> list[str]:
    lemma, t, m, r, sigma = (expect[k] for k in ("lemma", "t", "m", "r", "sigma"))
    problems = []
    reports, final = lines[:-1], lines[-1]
    if len(reports) != expect["trials"]:
        problems.append(f"{len(reports)} reports for {expect['trials']} trials")
    if final.get("instances") != expect["trials"] or final.get("failures") != 0:
        problems.append(f"summary line {final.get('instances')} instances, {final.get('failures')} failures")
    for trial, rep in enumerate(reports):
        where = f"trial {trial}"
        params = rep.get("params", {})
        want = {"t": t, "m": m, "r": r, "sigma": sigma, "seed": expect["seed"], "trial": trial}
        if {k: params.get(k) for k in want} != want or rep.get("lemma") != LEMMA_NAMES[lemma]:
            problems.append(f"{where}: report is for {rep.get('lemma')} {params}")
            continue
        lhs, rhs, slack = rep["lhs"], rep["rhs"], rep["slack"]
        if not slack >= -TOL:
            problems.append(f"{where}: slack {slack} below -{TOL}")
        if abs(slack - (rhs - lhs)) > TOL:
            problems.append(f"{where}: slack {slack} is not rhs - lhs")
        terms, info = lemma_terms(map_table(expect["seed"], trial, t, m, r, sigma), t, m, sigma, lemma)
        if lemma == "pinsker":
            closed = math.sqrt(2 * math.log(2) * m / t)
        elif lemma == "kl":
            closed = info / t
        else:
            closed = 1.0 - 2.0 ** (-math.log2(math.e) - info / t) + 1.0 / sigma
        if abs(rhs - closed) > TOL:
            problems.append(f"{where}: rhs {rhs} != closed form {closed}")
        if abs(lhs - float(terms.mean())) > TOL:
            problems.append(f"{where}: lhs {lhs} != recomputed {float(terms.mean())}")
        w = rep.get("witness", {})
        try:
            witness_term = terms[w["j"]] if lemma == "pinsker" else terms[w["j"], w["x"]]
        except (KeyError, IndexError, TypeError):
            problems.append(f"{where}: witness {w} is not a coordinate of the map")
            continue
        if lemma == "pinsker" and w.get("x") is not None:
            problems.append(f"{where}: pinsker witness names a symbol {w['x']}")
        if witness_term < terms.max() - TOL:
            problems.append(f"{where}: witness {w} term {witness_term} below the largest {terms.max()}")
    return problems


# ---------------------------------------------------------------------------
# random tournaments
# ---------------------------------------------------------------------------


def check_domset(expect: dict[str, Any], lines: list[dict[str, Any]]) -> list[str]:
    from compresslab.tournament import random_tournament

    k, nv = expect["k"], expect["num_vertices"]
    line = lines[-1]
    problems = []
    if not line.get("dominates") or line.get("undominated"):
        problems.append(f"report says dominates={line.get('dominates')}, undominated={line.get('undominated')}")
    width = int(line["n"])
    members = [tuple(format(int(h, 16), f"0{width}b") for h in g) for g in line["elements"]]
    trace = line["trace"]
    bound = k * math.log2(nv)
    if len(members) > bound:
        problems.append(f"{len(members)} members exceed k*log2|V| = {bound:.3f}")
    if any(len(set(g)) != k - 1 for g in members):
        return problems + ["a member is not a (k-1)-subset"]
    if len(trace) != len(members) + 1 or trace[0] != nv or trace[-1] != 0:
        problems.append(f"trace {trace} does not run from |V|={nv} to 0 over {len(members)} members")
    for i, left in enumerate(trace):
        if left > (1 - 1 / k) ** i * nv + TOL:
            problems.append(f"trace[{i}]={left} exceeds (1-1/k)^{i}*|V|")
    tour = random_tournament(nv, k, expect["seed"])
    for v in tour.vertices:
        if not any(v in g or tour.select(g + (v,)) == v for g in members):
            problems.append(f"vertex {v} is not dominated")
            break
    return problems


# ---------------------------------------------------------------------------
# audits
# ---------------------------------------------------------------------------


def _check_audit(audit: dict[str, Any], n: int, t: int, yes: int, no: int) -> list[str]:
    problems = []
    if audit.get("agreement") != 1.0 or audit.get("mismatches"):
        problems.append(f"agreement {audit.get('agreement')}, mismatches {audit.get('mismatches')}")
    if audit.get("n") != n or audit.get("t") != t:
        problems.append(f"audit of n={audit.get('n')}, t={audit.get('t')}; expected n={n}, t={t}")
    size = audit.get("advice_size")
    if audit.get("advice_mode") != "DOMSET":
        problems.append(f"advice mode {audit.get('advice_mode')}, expected DOMSET")
    elif not (1 <= size <= t * math.log2(no)):
        problems.append(f"advice size {size} outside [1, t*log2(#no)={t * math.log2(no):.3f}]")
    tags = audit.get("query_tags", {})
    if tags.get("gap") != 0:
        problems.append(f"{tags.get('gap')} queries fell in the promise gap")
    if tags.get("yes") != yes * size:
        problems.append(f"{tags.get('yes')} YES tags, expected |yes|*advice = {yes}*{size}")
    return problems


def check_audit_or(expect: dict[str, Any], lines: list[dict[str, Any]]) -> list[str]:
    return _check_audit(lines[-1], expect["n"], expect["t"], expect["yes"], expect["no"])


def check_symmetric(expect: dict[str, Any], lines: list[dict[str, Any]]) -> list[str]:
    line = lines[-1]
    values = tuple(int(b) for b in expect["values"])
    view, pivot = pivot_view(values)
    problems = []
    if (line.get("view"), line.get("i"), line.get("t_prime")) != (view, pivot, expect["t"] - pivot):
        problems.append(
            f"pivot view {line.get('view')}/{line.get('i')}/{line.get('t_prime')}, "
            f"expected {view}/{pivot}/{expect['t'] - pivot}"
        )
    if line.get("audit_agreement") != 1.0:
        problems.append(f"audit_agreement {line.get('audit_agreement')}")
    audit = line.get("audit")
    if not isinstance(audit, dict):
        return problems + ["no audit in the report"]
    return problems + _check_audit(audit, expect["n"], expect["t"] - pivot, expect["yes"], expect["no"])
