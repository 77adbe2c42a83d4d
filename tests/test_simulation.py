import math
import re
from dataclasses import replace

import numpy as np
import pytest

from selkern import (
    DataShapeError,
    ProblemSpec,
    RunConfig,
    ScalesDroppedWarning,
    SelectiveReport,
    augment_fake_features,
    benchmark_trials,
    derive_rng,
    gen_logistic,
    gen_mean_shift,
    run_trials,
    tpr_fpr,
)
from selkern.selective import _report as _selective_report
from selkern.simulation import family_methods


def test_mean_shift_null_shapes():
    X, Y = gen_mean_shift(50, 7, 0.0, 0, derive_rng(0))
    assert X.shape == Y.shape == (50, 7)


def test_mean_shift_column_means():
    n = 100_000
    _, Y = gen_mean_shift(n, 12, 0.5, 4, derive_rng(1))
    band = 4.0 / np.sqrt(n)
    means = Y.mean(axis=0)
    assert np.abs(means[:4] - 0.5).max() <= band
    assert np.abs(means[4:]).max() <= band


def test_mean_shift_validates_m():
    with pytest.raises(Exception):
        gen_mean_shift(10, 3, 0.5, 4, derive_rng(2))


def test_logistic_balanced_at_zero_score():
    Z = gen_logistic(100_000, 3, 0, derive_rng(3))
    # m = 0: success probability is logistic(0) = 0.5 for every row.
    assert abs(Z.Y.mean() - 0.5) <= 4 * 0.5 / np.sqrt(100_000)


def test_logistic_monotone_in_score():
    Z = gen_logistic(100_000, 12, 10, derive_rng(4))
    score = Z.X[:, :10].sum(axis=1)
    hi = Z.Y[score > 2.0].mean()
    lo = Z.Y[score < -2.0].mean()
    assert hi > lo


def test_logistic_response_is_binary():
    Z = gen_logistic(500, 4, 2, derive_rng(5))
    assert set(np.unique(Z.Y)) <= {0.0, 1.0}


def test_augment_zero_is_copy():
    rng = derive_rng(6)
    X = rng.standard_normal((20, 3))
    out = augment_fake_features(X, 0, rng)
    assert np.array_equal(out, X) and out is not X


def test_augment_width_and_originals():
    rng = derive_rng(7)
    X = rng.standard_normal((30, 4))
    out = augment_fake_features(X, 5, rng)
    assert out.shape == (30, 9)
    assert np.array_equal(out[:, :4], X)


def test_augment_fakes_uncorrelated():
    rng = derive_rng(8)
    X = rng.standard_normal((500, 3))
    out = augment_fake_features(X, 6, rng)
    corr = np.corrcoef(out, rowvar=False)
    cross = corr[:3, 3:]
    assert np.abs(cross).max() < 0.15


def _report(selected, p_values, d):
    scores = np.zeros(d)
    return SelectiveReport(
        method="MultiMMD",
        selected=tuple(selected),
        scores=scores,
        feature_names=[f"f{i}" for i in range(d)],
        p_values=list(p_values),
        diagnostics=[{} for _ in selected],
    )


def test_tpr_fpr_worked_example():
    # Selected {1,2,3}; truth positives {1,2}; rejected {1,3}.
    report = _report([1, 2, 3], [0.01, 0.5, 0.01], d=5)
    tpr, fpr = tpr_fpr(report, {1, 2}, alpha=0.05)
    assert tpr == 0.5
    assert fpr == 1.0


def test_tpr_fpr_no_rejections():
    report = _report([1, 2, 3], [0.5, 0.5, 0.5], d=5)
    tpr, fpr = tpr_fpr(report, {1, 2}, alpha=0.05)
    assert tpr == 0.0 and fpr == 0.0


def test_tpr_fpr_undefined_denominator():
    report = _report([0, 1], [0.01, 0.01], d=4)
    tpr, fpr = tpr_fpr(report, {0, 1}, alpha=0.05)
    assert tpr == 1.0
    assert math.isnan(fpr)


def test_run_trials_single_trial_matches_record():
    problem = ProblemSpec(kind="mean-shift", n=60, d=5, shift=0.6, informative=2)
    config = RunConfig(seed=5, k=2, replicates_per_scale=300)
    (summary,) = run_trials(problem, ["multi-mmd"], trials=1, config=config)
    assert summary.trials == 1
    rec = summary.records[0]
    if not math.isnan(rec["tpr"]):
        assert summary.tpr == rec["tpr"]
    if not math.isnan(rec["fpr"]):
        assert summary.fpr == rec["fpr"]


def test_run_trials_reproducible():
    # A summary's config snapshot names the seed every trial derives from; it
    # leaves out the thread count, which the records do not depend on.
    problem = ProblemSpec(kind="mean-shift", n=60, d=5, shift=0.4, informative=2)
    config = RunConfig(seed=9, k=2, replicates_per_scale=300, threads=2)
    a = run_trials(problem, ["multi-mmd", "poly-mmd"], 3, config=config)
    b = run_trials(problem, ["multi-mmd", "poly-mmd"], 3, config=RunConfig(**a[0].config))
    assert a[0].config["seed"] == 9
    for sa, sb in zip(a, b):
        assert sa.records == sb.records
        assert (sa.tpr, sa.fpr) == (sb.tpr, sb.fpr) or (
            math.isnan(sa.tpr) and math.isnan(sb.tpr)
        )


def test_trial_harnesses_do_not_depend_on_threads():
    problem = ProblemSpec(kind="mean-shift", n=60, d=5, shift=0.4, informative=2)
    rng = derive_rng(13)
    features = rng.standard_normal((80, 3))
    labels = (np.arange(80) % 2).astype(float)
    runs = []
    for threads in (1, 2):
        config = RunConfig(seed=9, k=3, replicates_per_scale=300, threads=threads)
        runs.append(
            run_trials(problem, ["multi-mmd", "poly-mmd"], 3, config=config)
            + benchmark_trials(features, labels, "mmd", ["multi-mmd", "poly-mmd"], 3,
                               replace(config, seed=4), None, 3)
        )
    for serial, threaded in zip(*runs):
        assert serial.records == threaded.records
        assert serial.fallbacks == threaded.fallbacks
        assert serial.config == threaded.config
        for key in ("tpr", "fpr", "tpr_se", "fpr_se"):
            a, b = getattr(serial, key), getattr(threaded, key)
            assert a == b or (math.isnan(a) and math.isnan(b))


def test_trial_summary_counts_fallbacks():
    # With k = d every feature is always selected, so the selection event
    # never constrains and every Multi test falls back.
    problem = ProblemSpec(kind="mean-shift", n=60, d=2, shift=0.4, informative=1)
    config = RunConfig(seed=2, k=2, replicates_per_scale=200)
    with pytest.warns(ScalesDroppedWarning, match="for 6 of 6 selected features"):
        multi, poly = run_trials(problem, ["multi-mmd", "poly-mmd"], 3, config=config)
    assert multi.fallbacks == {"selection-unconstraining": 6}
    assert [rec["fallbacks"] for rec in multi.records] == [{"selection-unconstraining": 2}] * 3
    assert poly.fallbacks == {}


def test_trial_harnesses_warn_once_at_the_caller():
    # With k = d every Multi test of every trial falls back.  The worker
    # threads stay silent; the harness warns once with the total, at the
    # line that called it.
    problem = ProblemSpec(kind="mean-shift", n=60, d=2, shift=0.4, informative=1)
    config = RunConfig(seed=2, k=2, replicates_per_scale=200, threads=2)
    X, Y = gen_mean_shift(40, 2, 0.4, 1, derive_rng(4))
    labels = np.repeat([0.0, 1.0], 40)
    for run in (lambda: run_trials(problem, ["multi-mmd", "poly-mmd"], 3, config),
                lambda: benchmark_trials(np.vstack([X, Y]), labels, "mmd", ["multi-mmd", "poly-mmd"], 3,
                                         config, 30, 0)):
        with pytest.warns(ScalesDroppedWarning) as rec:
            run()
        assert len(rec) == 1 and rec[0].filename == __file__
        assert "for 6 of 6 selected features" in str(rec[0].message)


def test_run_trials_null_calibration_smoke():
    problem = ProblemSpec(kind="mean-shift", n=200, d=8, shift=0.0, informative=0)
    config = RunConfig(seed=77, k=4, replicates_per_scale=500)
    summaries = run_trials(problem, ["multi-mmd", "poly-mmd"], 60, config=config)
    # 3 binomial standard errors around alpha with trials * k null feature tests.
    band = 3 * math.sqrt(0.05 * 0.95 / (60 * 4))
    for s in summaries:
        assert abs(s.fpr - 0.05) <= band + 1e-9, (s.method, s.fpr)


def test_run_trials_high_dimensional_null_calibration(monkeypatch):
    # d = 500 features from l = 100 tuples: Sigma has rank below d, and the
    # Multi bootstrap must still draw from it exactly.  A fixed bandwidth
    # keeps the 40 trials to a few seconds.
    reports = []

    def recording_report(*args, **kwargs):
        reports.append(_selective_report(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr("selkern.simulation._report", recording_report)
    problem = ProblemSpec(kind="mean-shift", n=100, d=500, shift=0.0, informative=0)
    config = RunConfig(seed=1, k=10, bandwidth=1.0, replicates_per_scale=1000)
    (summary,) = run_trials(problem, ["multi-mmd"], 40, config=config)
    assert len(reports) == 40
    assert all(0.0 <= p <= 1.0 for r in reports for p in r.p_values)
    assert summary.fallbacks == {}
    assert summary.fpr <= 0.05 + 3 * math.sqrt(0.05 * 0.95 / (40 * 10)), summary.fpr


def test_run_trials_rejects_mismatched_method():
    problem = ProblemSpec(kind="mean-shift", n=40, d=4, shift=0.0, informative=0)
    config = RunConfig(seed=1, k=2)
    with pytest.raises(ValueError):
        run_trials(problem, ["multi-hsic"], 1, config=config)


def test_problem_spec_validation():
    with pytest.raises(ValueError):
        ProblemSpec(kind="bogus", n=50, d=5)
    with pytest.raises(ValueError):
        ProblemSpec(kind="logistic", n=50, d=5, informative=9)


def test_benchmark_mmd_mode():
    rng = derive_rng(10)
    n_rows = 160
    labels = (rng.random(n_rows) < 0.5).astype(float)
    features = rng.standard_normal((n_rows, 3))
    features[labels == 1, 0] += 1.5  # first column separates the classes
    config = RunConfig(seed=3, k=4, replicates_per_scale=300)
    # Two of the twelve Multi tests fall back; the harness warns once with the count.
    with pytest.warns(ScalesDroppedWarning, match="for 2 of 12 selected features"):
        summaries = benchmark_trials(
            features, labels, "mmd", ["multi-mmd"], trials=3, config=config, n=None, n_fake=4
        )
    s = summaries[0]
    assert s.trials == 3
    assert 0.0 <= s.fpr <= 1.0
    assert all(0 <= i < 7 for rec in s.records for i in rec["selected"])


def test_benchmark_hsic_mode():
    rng = derive_rng(11)
    n_rows = 150
    X = rng.standard_normal((n_rows, 3))
    y = X[:, 0] + 0.3 * rng.standard_normal(n_rows)
    config = RunConfig(seed=4, k=4, replicates_per_scale=300)
    summaries = benchmark_trials(
        X, y, "hsic", ["poly-hsic"], trials=2, config=config, n=None, n_fake=4
    )
    assert summaries[0].trials == 2


def test_benchmark_requires_binary_label():
    rng = derive_rng(12)
    features = rng.standard_normal((30, 2))
    labels = np.arange(30) % 3
    config = RunConfig(seed=0, k=2)
    with pytest.raises(Exception):
        benchmark_trials(features, labels, "mmd", ["multi-mmd"], 1, config, None, 30)


@pytest.mark.parametrize("call, error, message", [
    (lambda: ProblemSpec("mean-shift", n=3, d=2), ValueError, "need n >= 4 and d >= 1"),
    (lambda: family_methods("mmd", []), ValueError, "at least one method is required"),
    (lambda: gen_logistic(10, 3, 4, derive_rng(0)), DataShapeError, "informative count m must lie in [0, d]"),
    (lambda: augment_fake_features(np.zeros((3, 2)), -1, derive_rng(0)), ValueError, "n_fake must be >= 0"),
    (lambda: benchmark_trials(np.zeros((5, 2)), np.zeros(4), "mmd", ["multi-mmd"], 1, RunConfig(seed=1), None, 0),
     DataShapeError, "features and split column must have equal rows"),
    (lambda: benchmark_trials(np.zeros((4, 2)), np.zeros(4), "lasso", ["multi-mmd"], 1, RunConfig(seed=1), None, 0),
     ValueError, "mode must be 'mmd' or 'hsic'"),
], ids=["problem-n", "no-methods", "logistic-m", "negative-fakes", "benchmark-rows", "benchmark-mode"])
def test_input_checks(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
