"""Synthetic problems, fake-feature benchmarks, and multi-trial harnesses."""
from __future__ import annotations

import math
import warnings
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .config import RunConfig
from .core import DataShapeError, derive_rng, derive_seed
from .hsic import JointSample
from .multiscale import ScalesDroppedWarning
from .selective import SelectiveReport, hsic_stat, mmd_stat, report_for_method

_STREAM_TRIAL_DATA = 2
_STREAM_TRIAL_TEST = 3

MMD_METHODS = ("multi-mmd", "poly-mmd")
HSIC_METHODS = ("multi-hsic", "poly-hsic")


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

    def truth_positive(self) -> set[int]:
        if self.kind == "mean-shift" and self.shift == 0.0:
            return set()
        return set(range(self.informative))


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


def _trial_reports(methods: list[str], data, k: int, config: RunConfig) -> dict[str, SelectiveReport]:
    """One report per method, computing the shared statistic only once."""
    if isinstance(data, JointSample):
        stat, n = hsic_stat(data, config), data.n
    else:
        stat, n = mmd_stat(data[0], data[1], config), data[0].shape[0]
    return {m: report_for_method(m, stat, n, k, config) for m in methods}


def _nan_mean_se(values: list[float]) -> tuple[float, float, int]:
    arr = np.array(values, dtype=float)
    used = arr[~np.isnan(arr)]
    if used.size == 0:
        return math.nan, math.nan, 0
    se = float(used.std(ddof=1) / np.sqrt(used.size)) if used.size > 1 else math.nan
    return float(used.mean()), se, int(used.size)


def _summarize(method: str, records: list[dict], config: RunConfig, k: int) -> TrialSummary:
    tpr, tpr_se, n_tpr = _nan_mean_se([r["tpr"] for r in records])
    fpr, fpr_se, n_fpr = _nan_mean_se([r["fpr"] for r in records])
    fallbacks = sum((Counter(r["fallbacks"]) for r in records), Counter())
    snap = replace(config, k=k, method=method).snapshot()
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
        config=snap,
        records=records,
    )


def _check_methods(methods, allowed, problem_kind: str) -> None:
    for m in methods:
        if m not in allowed:
            raise ValueError(f"method {m!r} does not apply to {problem_kind} problems")


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
    methods: list[str],
    trials: int,
    master_seed: int,
    config: RunConfig,
    k: int,
    truth: set[int],
) -> list[TrialSummary]:
    """Run every trial on ``config.threads`` worker threads and summarize.

    Trial t draws its data with ``make_data`` from stream (master, DATA, t)
    and tests with seed (master, TEST, t); records are gathered in trial
    order, so results do not depend on the thread count.  Only records
    outlive a trial.
    """

    def one_trial(trial: int) -> dict[str, dict]:
        data = make_data(derive_rng(master_seed, _STREAM_TRIAL_DATA, trial))
        trial_seed = derive_seed(master_seed, _STREAM_TRIAL_TEST, trial)
        reports = _trial_reports(methods, data, k, replace(config, seed=trial_seed))
        return {m: _trial_record(trial, trial_seed, r, truth, config.alpha) for m, r in reports.items()}

    # The filter is process-wide state, so it is set here, never in a worker.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ScalesDroppedWarning)
        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            per_trial = list(pool.map(one_trial, range(trials)))
    return [_summarize(m, [records[m] for records in per_trial], config, k) for m in methods]


def run_trials(
    problem: ProblemSpec,
    methods: list[str],
    trials: int,
    master_seed: int,
    config: RunConfig,
) -> list[TrialSummary]:
    """Repeat the problem with fresh data and derived seeds; aggregate rates.

    All methods see identical data and identical test seeds within a trial,
    so selection sets coincide across methods that share a statistic.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    allowed = MMD_METHODS if problem.kind == "mean-shift" else HSIC_METHODS
    _check_methods(methods, allowed, problem.kind)
    k = config.k if config.k is not None else max(1, problem.d // 2)

    def make_data(rng: np.random.Generator):
        if problem.kind == "mean-shift":
            return gen_mean_shift(problem.n, problem.d, problem.shift, problem.informative, rng)
        return gen_logistic(problem.n, problem.d, problem.informative, rng)

    return _run_trial_pool(make_data, methods, trials, master_seed, config, k, problem.truth_positive())


def _subsample(rows: np.ndarray, size: int, rng: np.random.Generator) -> np.ndarray:
    if size > rows.shape[0]:
        raise DataShapeError(f"cannot draw {size} rows from {rows.shape[0]}")
    idx = rng.choice(rows.shape[0], size=size, replace=False)
    return rows[idx]


def benchmark_trials(
    features: np.ndarray,
    split: np.ndarray,
    mode: str,
    methods: list[str],
    trials: int,
    master_seed: int,
    config: RunConfig,
    n: int | None = None,
    n_fake: int = 30,
) -> list[TrialSummary]:
    """Fake-feature rediscovery benchmark on a real labeled dataset.

    mode 'mmd': ``split`` is a binary class label; each trial subsamples n
    rows per class, appends n_fake Gaussian noise columns, and asks the
    two-sample tests to rediscover the original columns.
    mode 'hsic': ``split`` is the response; each trial subsamples n rows and
    asks the dependence tests to rediscover the original columns.
    Original columns are scored as true positives, fakes as true nulls.
    """
    features = np.atleast_2d(np.asarray(features, dtype=float))
    split = np.asarray(split, dtype=float).ravel()
    if features.shape[0] != split.shape[0]:
        raise DataShapeError("features and split column must have equal rows")
    if mode not in ("mmd", "hsic"):
        raise ValueError("mode must be 'mmd' or 'hsic'")
    _check_methods(methods, MMD_METHODS if mode == "mmd" else HSIC_METHODS, f"{mode} benchmark")
    d_true = features.shape[1]
    k = config.k if config.k is not None else d_true
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
            idx = rng.choice(features.shape[0], size=n, replace=False)
            return JointSample(augment_fake_features(features[idx], n_fake, rng), split[idx][:, None])

    return _run_trial_pool(make_data, methods, trials, master_seed, config, k, set(range(d_true)))
