"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live; the
whole suite takes roughly 20-30 minutes, dominated by the trial harnesses.
"""
import json
import warnings

import numpy as np
import pytest
from scipy.stats import kstest, kurtosis, skew

import oracles
import selkern as sk
from selkern.cli import cli_main, save_csv
from selkern.multiscale import fit_bootstrap_probabilities


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}", flush=True)
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# 1. Oracle equivalence: incomplete estimators on complete designs.
# ---------------------------------------------------------------------------
def test_c1_oracle_equivalence():
    worst_mmd = 0.0
    for i in range(50):
        rng = sk.derive_rng(1001, i)
        n = int(rng.integers(5, 31))
        d = int(rng.integers(1, 4))
        X = rng.standard_normal((n, d))
        Y = rng.standard_normal((n, d)) + rng.normal(scale=0.5)
        spec = sk.KernelSpec(bandwidth=float(rng.random() + 0.5))
        diff = abs(
            oracles.mmd_incomplete(X, Y, spec, oracles.complete_pair_design(n))
            - oracles.mmd_u(X, Y, spec)
        )
        worst_mmd = max(worst_mmd, diff)

    worst_hsic = 0.0
    for i in range(50):
        rng = sk.derive_rng(1002, i)
        n = int(rng.integers(5, 11))
        Z = sk.JointSample(rng.standard_normal((n, 2)), rng.standard_normal(n))
        spec_x = sk.KernelSpec(bandwidth=float(rng.random() + 0.5))
        spec_y = sk.KernelSpec(bandwidth=float(rng.random() + 0.5))
        diff = abs(
            oracles.hsic_incomplete(Z, spec_x, spec_y, oracles.complete_quad_design(n))
            - oracles.hsic_u(Z, spec_x, spec_y)
        )
        worst_hsic = max(worst_hsic, diff)

    ok = worst_mmd <= 1e-12 and worst_hsic <= 1e-10
    _report(
        "criterion 1 (oracle equivalence)",
        ok,
        f"max |mmd_inc - mmd_u| = {worst_mmd:.2e} (tol 1e-12), "
        f"max |hsic_inc - hsic_u| = {worst_hsic:.2e} (tol 1e-10)",
    )


# ---------------------------------------------------------------------------
# 2. Block estimator equals the incomplete estimator on the block design.
# ---------------------------------------------------------------------------
def test_c2_block_identity():
    configs = []
    for B in (4, 5, 6, 7, 8):
        for mult in (1, 2, 3, 4, 5):
            configs.append((B * mult, B))
            configs.append((B * mult + B // 2, B))
    assert len(configs) == 50
    assert any(n == B for n, B in configs) and any(n == 4 * B for n, B in configs)

    worst = 0.0
    for i, (n, B) in enumerate(configs):
        rng = sk.derive_rng(1003, i)
        Z = sk.JointSample(rng.standard_normal((n, 1)), rng.standard_normal(n))
        spec_x = sk.KernelSpec(bandwidth=1.0)
        spec_y = sk.KernelSpec(bandwidth=0.8)
        blocked = oracles.hsic_block(Z, spec_x, spec_y, B)
        incomplete = oracles.hsic_incomplete(Z, spec_x, spec_y, oracles.block_design(n, B))
        worst = max(worst, abs(blocked - incomplete))
    ok = worst <= 1e-12
    _report(
        "criterion 2 (block = incomplete on block design)",
        ok,
        f"max diff over {len(configs)} (n, B) configs = {worst:.2e} (tol 1e-12)",
    )


# ---------------------------------------------------------------------------
# 3. Null normality of the scaled incomplete estimators, as the pipeline
#    computes them: with r = 1, t[0] = sqrt(n) * the estimate on n tuples.
# ---------------------------------------------------------------------------
def test_c3_null_normality():
    reps, n = 2000, 500

    vals = np.empty(reps)
    for i in range(reps):
        rng = sk.derive_rng(1004, i)
        x = rng.standard_normal((n, 1))
        y = rng.standard_normal((n, 1))
        vals[i] = sk.mmd_stat(x, y, sk.RunConfig(seed=i)).t[0]
    std = (vals - vals.mean()) / vals.std(ddof=1)
    mmd_skew, mmd_kurt = float(skew(std)), float(kurtosis(std))

    vals = np.empty(reps)
    for i in range(reps):
        rng = sk.derive_rng(1005, i)
        x = rng.standard_normal((n, 1))
        y = rng.standard_normal((n, 1))
        vals[i] = sk.hsic_stat(sk.JointSample(x, y), sk.RunConfig(seed=i, method="multi-hsic")).t[0]
    std = (vals - vals.mean()) / vals.std(ddof=1)
    hsic_skew, hsic_kurt = float(skew(std)), float(kurtosis(std))

    ok = (
        abs(mmd_skew) < 0.25
        and abs(mmd_kurt) < 0.6
        and abs(hsic_skew) < 0.25
        and abs(hsic_kurt) < 0.6
    )
    _report(
        "criterion 3 (null normality)",
        ok,
        f"mmd skew {mmd_skew:+.3f} exkurt {mmd_kurt:+.3f}; "
        f"hsic skew {hsic_skew:+.3f} exkurt {hsic_kurt:+.3f} "
        f"(|skew| < 0.25, |exkurt| < 0.6, {reps} replications)",
    )


# ---------------------------------------------------------------------------
# 4. Scaling-law recovery on an analytic half-space.
# ---------------------------------------------------------------------------
def test_c4_scaling_law_recovery():
    replicates = 10_000
    scales = sk.default_scales(1000, sk.RunConfig(seed=0, replicates_per_scale=replicates))
    details = []
    ok = True
    for s in (-1.0, 0.0, 1.0):
        # Fraction of N((s, 0), gamma^2 I) draws in the half-space {y_0 <= 0}.
        bps = []
        for idx, gamma2 in enumerate(scales):
            z = sk.derive_rng(1006, int(10 * s) + 20, idx).standard_normal((replicates, 2))
            bps.append(float(np.mean(s + np.sqrt(gamma2) * z[:, 0] <= 0)))
        # The fitted line at gamma^2 = 0 is its intercept.
        fit = fit_bootstrap_probabilities(bps, scales, replicates)
        value, slope = fit["fit_beta0"], fit["fit_beta1"]
        details.append(f"s={s:+.0f}: phi(0)={value:+.4f} slope={slope:+.4f}")
        ok = ok and abs(value - s) < 0.05 and abs(slope) < 0.05
    _report("criterion 4 (scaling-law recovery)", ok, "; ".join(details) + " (tol 0.05)")


# ---------------------------------------------------------------------------
# 5. FPR control on global nulls.
# ---------------------------------------------------------------------------
def test_c5_fpr_control():
    mean_shift = sk.ProblemSpec(kind="mean-shift", n=400, d=20, shift=0.0, informative=0)
    mmd_summaries = sk.run_trials(
        mean_shift, ["multi-mmd", "poly-mmd"], trials=200, config=sk.RunConfig(seed=1007, k=10)
    )
    logistic = sk.ProblemSpec(kind="logistic", n=400, d=20, informative=0)
    hsic_summaries = sk.run_trials(
        logistic, ["multi-hsic", "poly-hsic"], trials=200, config=sk.RunConfig(seed=1008, k=10)
    )
    details = []
    ok = True
    for s in mmd_summaries + hsic_summaries:
        details.append(f"{s.method} fpr={s.fpr:.3f}")
        ok = ok and 0.01 <= s.fpr <= 0.10
    _report(
        "criterion 5 (FPR control)",
        ok,
        ", ".join(details) + " (band [0.01, 0.10], 200 trials each, alpha 0.05)",
    )


# ---------------------------------------------------------------------------
# 6. Power dominance of minimal conditioning.
# ---------------------------------------------------------------------------
def test_c6_power_dominance():
    mean_shift = sk.ProblemSpec(kind="mean-shift", n=500, d=50, shift=0.5, informative=10)
    mmd_summaries = {
        s.method: s
        for s in sk.run_trials(
            mean_shift, ["multi-mmd", "poly-mmd"], trials=100, config=sk.RunConfig(seed=1009, k=30)
        )
    }
    multi, poly = mmd_summaries["multi-mmd"], mmd_summaries["poly-mmd"]
    mmd_ok = (
        multi.tpr >= poly.tpr + 0.05
        and 0.01 <= multi.fpr <= 0.10
        and 0.01 <= poly.fpr <= 0.10
    )
    mmd_detail = (
        f"mmd tpr multi={multi.tpr:.3f} poly={poly.tpr:.3f} "
        f"fpr multi={multi.fpr:.3f} poly={poly.fpr:.3f}"
    )

    hsic_tpr = {}
    hsic_ok = True
    hsic_details = []
    for n in (200, 400, 800):
        logistic = sk.ProblemSpec(kind="logistic", n=n, d=50, informative=10)
        summaries = {
            s.method: s
            for s in sk.run_trials(
                logistic, ["multi-hsic", "poly-hsic"], trials=100, config=sk.RunConfig(seed=1010 + n, k=30)
            )
        }
        m, p = summaries["multi-hsic"], summaries["poly-hsic"]
        hsic_tpr[n] = m.tpr
        hsic_ok = hsic_ok and m.tpr >= p.tpr - 0.02
        hsic_details.append(f"n={n}: multi={m.tpr:.3f} poly={p.tpr:.3f}")
    rising = (
        hsic_tpr[400] >= hsic_tpr[200] - 0.05
        and hsic_tpr[800] >= hsic_tpr[400] - 0.05
        and hsic_tpr[800] > hsic_tpr[200]
    )
    ok = mmd_ok and hsic_ok and rising
    _report(
        "criterion 6 (power dominance)",
        ok,
        mmd_detail + " | hsic " + "; ".join(hsic_details) + f" rising={rising}",
    )


# ---------------------------------------------------------------------------
# 7. Selective p-values are uniform under the global null.
# ---------------------------------------------------------------------------
def test_c7_p_value_uniformity():
    runs, n, d, k = 500, 200, 10, 5
    pvals = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", sk.ScalesDroppedWarning)
        for run in range(runs):
            rng = sk.derive_rng(1011, run)
            X, Y = sk.gen_mean_shift(n, d, 0.0, 0, rng)
            config = sk.RunConfig(seed=sk.derive_seed(1011, run), k=k)
            report = sk.select_and_test((X, Y), config)
            pvals.extend(report.p_values)
    stat = kstest(np.array(pvals), "uniform").statistic
    ok = stat < 0.1
    _report(
        "criterion 7 (selective p uniformity)",
        ok,
        f"KS distance = {stat:.4f} over {len(pvals)} pooled p-values from {runs} runs (tol 0.1)",
    )


# ---------------------------------------------------------------------------
# 8. Polyhedral law vs a rejection-sampling oracle.
# ---------------------------------------------------------------------------
def test_c8_polyhedral_rejection_oracle():
    rng = sk.derive_rng(1012)
    raw = rng.standard_normal((3_200_000, 3))
    selected = (raw[:, 0] > raw[:, 1]) & (raw[:, 0] > raw[:, 2])
    acc = raw[selected][:1_000_000]
    assert len(acc) == 1_000_000
    vminus = np.maximum(acc[:, 1], acc[:, 2])
    # The conditional law of t0 given selection and the nuisance values is the
    # truncated normal on [max(t1, t2), inf); its CDF transform of t0 must be
    # uniform, and poly_p's survival formula is 1 minus that transform.
    sf = sk.poly_p(acc[:, 0], 1.0, vminus, np.inf)
    pivot = 1.0 - sf
    grid = np.linspace(0.0, 1.0, 2001)
    ecdf = np.searchsorted(np.sort(pivot), grid, side="right") / len(pivot)
    sup = float(np.abs(ecdf - grid).max())

    # Spot-check that the vectorized pivot matches the scalar operation.
    for row, sf_row in zip(acc[:5], sf[:5]):
        vm, vp = (v[0] for v in sk.poly_truncation_intervals(row, np.eye(3), sk.select_top_k(row, 1)))
        assert vm == pytest.approx(max(row[1], row[2]), abs=1e-12) and vp == np.inf
        assert sk.poly_p(row[0], 1.0, vm, vp) == pytest.approx(sf_row, abs=1e-14)

    ok = sup < 0.01
    _report(
        "criterion 8 (polyhedral law vs rejection sampling)",
        ok,
        f"sup distance = {sup:.5f} over 1e6 accepted samples (tol 0.01)",
    )


# ---------------------------------------------------------------------------
# 9. CLI determinism across thread counts.
# ---------------------------------------------------------------------------
def test_c9_cli_determinism(tmp_path, capsys):
    rng = sk.derive_rng(1013)
    x = rng.standard_normal((50, 5))
    y = rng.standard_normal((50, 5))
    y[:, 0] += 0.8
    xp, yp = tmp_path / "x.csv", tmp_path / "y.csv"
    save_csv(xp, x, [f"c{i}" for i in range(5)])
    save_csv(yp, y, [f"c{i}" for i in range(5)])

    joint = np.hstack([x, (x[:, 0] > 0).astype(float)[:, None]])
    zp = tmp_path / "z.csv"
    save_csv(zp, joint, ["c0", "c1", "c2", "c3", "c4", "resp"])

    labels = (np.arange(50) % 2).astype(float)
    bench = np.hstack([x, labels[:, None]])
    bp = tmp_path / "bench.csv"
    save_csv(bp, bench, ["c0", "c1", "c2", "c3", "c4", "cls"])

    invocations = {
        "mmd-test": ["mmd-test", "--x", str(xp), "--y", str(yp), "--k", "3", "--seed", "5"],
        "hsic-test": ["hsic-test", "--data", str(zp), "--response", "resp", "--k", "2", "--seed", "5"],
        "simulate": ["simulate", "--problem", "mean-shift", "--n", "60", "--d", "6",
                     "--shift", "0.0", "--informative", "0", "--trials", "2", "--seed", "5",
                     "--k", "3", "--replicates", "400"],
        "benchmark": ["benchmark", "--data", str(bp), "--mode", "mmd", "--label", "cls",
                      "--fakes", "3", "--trials", "2", "--seed", "5", "--k", "3",
                      "--replicates", "400"],
    }
    results = []
    for name, argv in invocations.items():
        docs = []
        for threads in ("1", "4"):
            out = tmp_path / f"{name}-{threads}.json"
            code = cli_main(argv + ["--threads", threads, "--out", str(out)])
            assert code == 0, name
            docs.append(out.read_bytes())
        identical = docs[0] == docs[1]
        json.loads(docs[0])  # well-formed
        results.append((name, identical))
    capsys.readouterr()
    ok = all(identical for _, identical in results)
    _report(
        "criterion 9 (CLI determinism across threads)",
        ok,
        ", ".join(f"{name}: {'identical' if same else 'DIFFER'}" for name, same in results),
    )
