"""Synthetic problems, fake-feature benchmarks, and multi-trial harnesses."""
from __future__ import annotations

import math
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .config import METHODS, RunConfig
from .core import DataShapeError, derive_rng, derive_seed
from .hsic import JointSample
from .selective import SelectiveReport, _report, _warn_unconstraining, statistic

_STREAM_TRIAL_DATA = 2
_STREAM_TRIAL_TEST = 3


@dataclass(frozen=True)
class ProblemSpec:
    """A synthetic generating process for one family of experiments.

    mean-shift: two Gaussian samples whose first ``informative`` coordinates
    of the second sample are shifted by ``shift``.
    logistic: Gaussian covariates with a Bernoulli response whose log-odds
    are the sum of the first ``informative`` covariates.
    """

    kind: str
    n: int
    d: int
    shift: float = 0.5
    informative: int = 10

    def __post_init__(self) -> None:
        if self.kind not in ("mean-shift", "logistic"):
            raise ValueError("kind must be 'mean-shift' or 'logistic'")
        if self.n < 4 or self.d < 1:
            raise ValueError("need n >= 4 and d >= 1")
        if not 0 <= self.informative <= self.d:
            raise ValueError("informative count must lie in [0, d]")

    @property
    def family(self) -> str:
        """The statistic family of the problem's methods: "mmd" or "hsic"."""
        return "mmd" if self.kind == "mean-shift" else "hsic"

    def truth_positive(self) -> set[int]:
        if self.kind == "mean-shift" and self.shift == 0.0:
            return set()
        return set(range(self.informative))


def family_methods(family: str, requested: list[str] | None = None) -> list[str]:
    """Every method of ``family`` ("mmd" or "hsic") when ``requested`` is
    None, else ``requested`` once each of its methods is checked to be one."""
    allowed = [m for m in METHODS if m.endswith(f"-{family}")]
    if requested is None:
        return allowed
    if not requested:
        raise ValueError("at least one method is required")
    for m in requested:
        if m not in allowed:
            raise ValueError(f"method {m!r} does not apply to {family} problems")
    return list(requested)


def gen_mean_shift(n: int, d: int, shift: float, m: int, rng: np.random.Generator):
    """Two n x d Gaussian samples; the second has mean ``shift`` on the first m features."""
    if not 0 <= m <= d:
        raise DataShapeError("informative count m must lie in [0, d]")
    X = rng.standard_normal((n, d))
    Y = rng.standard_normal((n, d))
    Y[:, :m] += shift
    return X, Y


def gen_logistic(n: int, d: int, m: int, rng: np.random.Generator) -> JointSample:
    """Gaussian covariates with y ~ Bernoulli(logistic(sum of first m features))."""
    if not 0 <= m <= d:
        raise DataShapeError("informative count m must lie in [0, d]")
    X = rng.standard_normal((n, d))
    score = X[:, :m].sum(axis=1) if m > 0 else np.zeros(n)
    prob = 1.0 / (1.0 + np.exp(-score))
    y = (rng.random(n) < prob).astype(float)
    return JointSample(X, y[:, None])


def augment_fake_features(X: np.ndarray, n_fake: int, rng: np.random.Generator) -> np.ndarray:
    """Append n_fake independent standard-Gaussian noise columns."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if n_fake < 0:
        raise ValueError("n_fake must be >= 0")
    if n_fake == 0:
        return X.copy()
    return np.hstack([X, rng.standard_normal((X.shape[0], n_fake))])


def tpr_fpr(report: SelectiveReport, truth_positive: set[int], alpha: float) -> tuple[float, float]:
    """Per-trial rejection ratios over the selected truly-positive and
    truly-null features; an empty denominator yields NaN (excluded upstream)."""
    selected = set(report.selected)
    rejected = {i for i, p in zip(report.selected, report.p_values) if p < alpha}
    pos = selected & set(truth_positive)
    neg = selected - set(truth_positive)
    tpr = len(pos & rejected) / len(pos) if pos else math.nan
    fpr = len(neg & rejected) / len(neg) if neg else math.nan
    return tpr, fpr


@dataclass
class TrialSummary:
    """Aggregated TPR/FPR for one method over repeated trials.

    Rates are means of per-trial ratios; trials whose denominator set was
    empty are excluded from the corresponding mean, and the _trials fields
    count how many trials actually contributed.  ``fallbacks`` counts the
    selected-feature tests of all trials that fell back, by reason.
    """

    method: str
    tpr: float
    fpr: float
    tpr_se: float
    fpr_se: float
    trials: int
    tpr_trials: int
    fpr_trials: int
    fallbacks: dict[str, int] = field(default_factory=dict)
    config: dict = field(default_factory=dict)
    records: list[dict] = field(default_factory=list)


def _trial_reports(methods: list[str], data, config: RunConfig) -> dict[str, SelectiveReport]:
    """One report per method, computing the shared statistic only once; the
    trial pool issues the fallback warning."""
    stat = statistic(data, replace(config, method=methods[0]))
    return {m: _report(stat, replace(config, method=m)) for m in methods}


def _nan_mean_se(values: list[float]) -> tuple[float, float, int]:
    arr = np.array(values, dtype=float)
    used = arr[~np.isnan(arr)]
    if used.size == 0:
        return math.nan, math.nan, 0
    se = float(used.std(ddof=1) / np.sqrt(used.size)) if used.size > 1 else math.nan
    return float(used.mean()), se, int(used.size)


def _summarize(method: str, records: list[dict], config: RunConfig) -> TrialSummary:
    tpr, tpr_se, n_tpr = _nan_mean_se([r["tpr"] for r in records])
    fpr, fpr_se, n_fpr = _nan_mean_se([r["fpr"] for r in records])
    fallbacks = sum((Counter(r["fallbacks"]) for r in records), Counter())
    return TrialSummary(
        method=method,
        tpr=tpr,
        fpr=fpr,
        tpr_se=tpr_se,
        fpr_se=fpr_se,
        trials=len(records),
        tpr_trials=n_tpr,
        fpr_trials=n_fpr,
        fallbacks=dict(fallbacks),
        config=replace(config, method=method).snapshot(),
        records=records,
    )


def _trial_record(trial: int, seed: int, report: SelectiveReport, truth: set[int], alpha: float) -> dict:
    tpr, fpr = tpr_fpr(report, truth, alpha)
    reasons = Counter(d["fallback"] for d in report.diagnostics if "fallback" in d)
    return {
        "trial": trial,
        "seed": seed,
        "tpr": tpr,
        "fpr": fpr,
        "n_rejected": sum(report.rejected(alpha)),
        "selected": list(report.selected),
        "fallbacks": dict(reasons),
    }


def _run_trial_pool(
    make_data: Callable[[np.random.Generator], object],
    family: str,
    methods: list[str],
    trials: int,
    default_k: int,
    config: RunConfig,
    truth: set[int],
) -> list[TrialSummary]:
    """Run every trial of ``family``'s ``methods`` on ``config.threads``
    threads (the calling one alone when 1) and summarize, selecting
    ``default_k`` features when ``config.k`` is None.  If any Multi test
    took its selection event as unconstraining, one `ScalesDroppedWarning`
    gives the count over all trials, at the line that called `run_trials`
    or `benchmark_trials`.

    Trial t draws its data with ``make_data`` from stream (seed, DATA, t)
    and tests with seed (seed, TEST, t), seed being ``config.seed``; records
    are gathered in trial order, so results do not depend on the thread
    count.  Only records outlive a trial.
    """
    methods = family_methods(family, methods)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    config = replace(config, k=config.k or default_k)

    def one_trial(trial: int) -> dict[str, dict]:
        data = make_data(derive_rng(config.seed, _STREAM_TRIAL_DATA, trial))
        trial_seed = derive_seed(config.seed, _STREAM_TRIAL_TEST, trial)
        reports = _trial_reports(methods, data, replace(config, seed=trial_seed))
        return {m: _trial_record(trial, trial_seed, r, truth, config.alpha) for m, r in reports.items()}

    with ThreadPoolExecutor(max_workers=config.threads) as pool:
        # A fresh worker thread per call made a warm CLI call's page faults vary from 20 to 740.
        per_trial = list((pool.map if config.threads > 1 else map)(one_trial, range(trials)))
    summaries = [_summarize(m, [records[m] for records in per_trial], config) for m in methods]
    _warn_unconstraining(sum(s.fallbacks.get("selection-unconstraining", 0) for s in summaries),
                         sum(len(r["selected"]) for s in summaries if s.method.startswith("multi-")
                             for r in s.records), stacklevel=3)
    return summaries


def run_trials(
    problem: ProblemSpec,
    methods: list[str],
    trials: int,
    config: RunConfig,
) -> list[TrialSummary]:
    """Repeat the problem with fresh data and seeds derived from
    ``config.seed``; aggregate rates.  ``config.k`` None selects d // 2
    features (at least 1).

    All methods see identical data and identical test seeds within a trial,
    so selection sets coincide across methods that share a statistic.
    """
    def make_data(rng: np.random.Generator):
        if problem.kind == "mean-shift":
            return gen_mean_shift(problem.n, problem.d, problem.shift, problem.informative, rng)
        return gen_logistic(problem.n, problem.d, problem.informative, rng)

    return _run_trial_pool(make_data, problem.family, methods, trials, max(1, problem.d // 2), config,
                           problem.truth_positive())


def _subsample(rows: np.ndarray, size: int, rng: np.random.Generator) -> np.ndarray:
    if not 1 <= size <= rows.shape[0]:
        raise DataShapeError(f"cannot draw {size} rows from {rows.shape[0]}")
    idx = rng.choice(rows.shape[0], size=size, replace=False)
    return rows[idx]


def benchmark_trials(
    features: np.ndarray,
    split: np.ndarray,
    mode: str,
    methods: list[str],
    trials: int,
    config: RunConfig,
    n: int | None,
    n_fake: int,
) -> list[TrialSummary]:
    """Fake-feature rediscovery benchmark on a real labeled dataset.

    mode 'mmd': ``split`` is a binary class label; each trial subsamples n
    rows per class, appends n_fake Gaussian noise columns, and asks the
    two-sample tests to rediscover the original columns.
    mode 'hsic': ``split`` is the response; each trial subsamples n rows and
    asks the dependence tests to rediscover the original columns.
    Original columns are scored as true positives, fakes as true nulls.
    ``n`` None takes every row (per class), and ``config.k`` None selects
    as many features as there are original columns.
    """
    features = np.atleast_2d(np.asarray(features, dtype=float))
    split = np.asarray(split, dtype=float).ravel()
    if features.shape[0] != split.shape[0]:
        raise DataShapeError("features and split column must have equal rows")
    if mode not in ("mmd", "hsic"):
        raise ValueError("mode must be 'mmd' or 'hsic'")
    d_true = features.shape[1]
    if d_true == 0:
        raise DataShapeError("need at least one feature column")
    if mode == "mmd":
        classes = np.unique(split)
        if classes.size != 2:
            raise DataShapeError(f"mmd benchmark needs a binary label, got {classes.size} classes")
        group_a = features[split == classes[0]]
        group_b = features[split == classes[1]]
        n = n if n is not None else min(len(group_a), len(group_b))

        def make_data(rng: np.random.Generator):
            xa = _subsample(group_a, n, rng)
            xb = _subsample(group_b, n, rng)
            return augment_fake_features(xa, n_fake, rng), augment_fake_features(xb, n_fake, rng)
    else:
        n = n if n is not None else features.shape[0]

        def make_data(rng: np.random.Generator):
            idx = _subsample(np.arange(features.shape[0]), n, rng)
            return JointSample(augment_fake_features(features[idx], n_fake, rng), split[idx][:, None])

    return _run_trial_pool(make_data, mode, methods, trials, d_true, config, set(range(d_true)))
