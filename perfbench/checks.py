"""Output checks for one operation.

Every check holds for any correct layout of the random draws, so a change
to how the bootstrap or the designs consume randomness cannot trip them.
Each returns a list of violations; an empty list means the output passed.
"""
from __future__ import annotations

import math

import jsonschema
import numpy as np


def _number(v) -> float:
    """A document number; non-finite floats are written as strings."""
    if isinstance(v, bool) or not isinstance(v, (int, float, str)):
        raise ValueError(f"not a number: {v!r}")
    return float(v)


def _check_selection(selected, k: int, d: int, where: str) -> list[str]:
    if len(selected) != k:
        return [f"{where}: {len(selected)} features selected, expected {k}"]
    if len(set(selected)) != k or not all(isinstance(i, int) and 0 <= i < d for i in selected):
        return [f"{where}: selected indices not distinct in [0, {d}): {selected}"]
    return []


def check_report(doc: dict, schema: dict, k: int, d: int, alpha: float) -> list[str]:
    """An ``mmd-test`` / ``hsic-test`` document."""
    try:
        jsonschema.validate(doc, schema)
    except jsonschema.ValidationError as exc:
        return [f"schema: {exc.message}"]
    res = doc["results"]
    selected, scores, pvals = res["selected"], res["scores"], res["p_values"]
    problems = _check_selection(selected, k, d, "selected")
    if len(scores) != len(selected) or len(pvals) != len(selected):
        return problems + ["scores / p_values do not match selected in length"]
    # The k largest scores in score order, ties to the lower index.
    for a in range(len(selected) - 1):
        sa, sb = _number(scores[a]), _number(scores[a + 1])
        if sa < sb or (sa == sb and selected[a] > selected[a + 1]):
            problems.append(f"selected out of score order at rank {a}")
    ps = [_number(p) for p in pvals]
    problems += [f"p-value {p!r} not finite in [0, 1]" for p in ps if not (math.isfinite(p) and 0.0 <= p <= 1.0)]
    if res["rejected"] != [p < alpha for p in ps]:
        problems.append("rejected differs from p < alpha")
    if res["method"].startswith("Multi"):
        for p, diag in zip(ps, res["diagnostics"]):
            if "beta0" not in diag:
                continue
            beta0 = _number(diag["beta0"])
            naive = 0.5 * math.erfc(beta0 / math.sqrt(2.0))
            if math.isnan(beta0) or p < naive * (1.0 - 1e-9):
                problems.append(f"feature {diag.get('feature')}: p {p!r} below naive {naive!r}")
    return problems


def check_scores(doc: dict, scores: np.ndarray) -> list[str]:
    """The selection against the full score vector (traced operations only,
    where the statistic is captured at the layer boundary)."""
    res = doc["results"]
    k = len(res["selected"])
    top = [int(i) for i in np.argsort(-scores, kind="stable")[:k]]
    return [] if top == res["selected"] else [f"selected {res['selected']} is not the top-{k} {top}"]


def check_simulation(doc: dict, schema: dict, trials: int, methods, k: int, d: int) -> list[str]:
    """A ``simulate`` document: trials x methods per-trial records."""
    try:
        jsonschema.validate(doc, schema)
    except jsonschema.ValidationError as exc:
        return [f"schema: {exc.message}"]
    res = doc["results"]
    records = res["per_trial"]
    problems = []
    if len(records) != trials * len(methods):
        problems.append(f"{len(records)} per_trial records, expected {trials * len(methods)}")
    if sorted(s["method"] for s in res["summaries"]) != sorted(methods):
        problems.append("summaries do not cover the methods run")
    by_trial: dict[int, list] = {}
    for rec in records:
        where = f"{rec.get('method')} trial {rec.get('trial')}"
        problems += _check_selection(rec["selected"], k, d, where)
        if not 0 <= rec["n_rejected"] <= k:
            problems.append(f"{where}: n_rejected {rec['n_rejected']} outside [0, {k}]")
        for key in ("tpr", "fpr"):
            v = _number(rec[key])
            if not (math.isnan(v) or 0.0 <= v <= 1.0):
                problems.append(f"{where}: {key} {v!r} outside [0, 1]")
        by_trial.setdefault(rec["trial"], []).append(rec["selected"])
    if sorted(by_trial) != list(range(trials)):
        problems.append(f"trial indices {sorted(by_trial)} are not 0..{trials - 1}")
    # Methods share one statistic per trial, so their selections coincide.
    problems += [f"trial {t}: methods selected different features" for t, sels in by_trial.items()
                 if any(s != sels[0] for s in sels)]
    return problems
