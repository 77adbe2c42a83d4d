"""Reference implementations that the tests compare the shipped estimators against.

These are the direct, quadratic- or quartic-cost forms of each statistic:
scalar and Gram-matrix kernels, the kernel on index pairs as out-of-place
array expressions, the complete U-statistics, the incomplete
estimators read from Gram matrices, the per-block HSIC as a mean of complete
U-statistics, the complete and block index designs and the two random
design samplers written out slot by slot; and the scaling-law
fit of one feature at a time by `np.linalg.lstsq`; and the selective
report built one feature at a time through a per-feature callback.  C1, C2
and the loop-oracle tests in `test_mmd.py`, `test_hsic.py`,
`test_designs.py`, `test_kernels.py`, `test_multiscale.py` and
`test_selective.py` check the package against them.

They live here, not in `selkern`, because the selection pipeline never
calls them: the package ships one linear-in-n estimator per statistic
(`mmd_stat`, `hsic_stat`) and one closed-form fit for every selected
feature at once, and these are only the yardsticks for them.  They still
build on the shipped primitives (`pair_kernel`, `_pair_h`,
`_check_two_sample`, `JointSample`, `Design`, `ndtri`), so a test that
compares the two checks the shipped code against an independent summation.
"""
from __future__ import annotations

from itertools import permutations

import numpy as np

from selkern.core import DataShapeError, Design, InsufficientScalesError
from selkern.hsic import _PAIRS, JointSample, _h_from_pairs
from selkern.kernels import GAUSSIAN, KernelSpec, _squared_distances, pair_kernel
from selkern.mmd import _check_two_sample, _pair_h
from selkern.config import METHODS
from selkern.multiscale import default_scales, fit_bootstrap_probabilities as fit_block, ndtri
from selkern.selective import SelectiveReport, _selection_fractions, poly_p, poly_truncation_intervals, select_top_k


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------
def pair_kernel_out_of_place(spec: KernelSpec | list[KernelSpec], A: np.ndarray, i,
                             B: np.ndarray, j) -> np.ndarray:
    """`pair_kernel` with every step a new array: the squares, the zeros of the
    infinite bandwidths, the negation, the quotient and the exp, or the offset
    sum and its power.  The shipped kernel takes the same steps in place."""
    specs = [spec] if isinstance(spec, KernelSpec) else spec
    with np.errstate(over="ignore"):
        if isinstance(spec, KernelSpec):
            sq = _squared_distances(A[i], B[j])[..., None]
        else:
            sq = (A[i] - B[j]) ** 2
        if specs[0].family == GAUSSIAN:
            bandwidth = np.array([s.bandwidth for s in specs])
            K = np.exp(-np.where(np.isinf(bandwidth), 0.0, sq) / (2.0 * bandwidth ** 2))
        else:
            K = (np.array([s.offset for s in specs]) ** 2 + sq) ** -0.5
    return K[..., 0] if isinstance(spec, KernelSpec) else K


def kernel_eval(spec: KernelSpec, x, y) -> float:
    """Evaluate the kernel on a single pair of points (scalars or vectors)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if x.shape != y.shape:
        raise DataShapeError(f"point dimensions differ: {x.shape} vs {y.shape}")
    return float(pair_kernel(spec, x, ..., y, ...))


def gram_matrix(spec: KernelSpec, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Kernel matrix with entry (i, j) = K(A[i], B[j])."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if A.shape[1] != B.shape[1]:
        raise DataShapeError(f"column counts differ: {A.shape[1]} vs {B.shape[1]}")
    return pair_kernel(spec, A, np.s_[:, None], B, np.s_[None])


# ---------------------------------------------------------------------------
# Designs
# ---------------------------------------------------------------------------
def block_design(n: int, block_size: int) -> Design:
    """All ordered distinct 4-tuples inside each of the floor(n/B) disjoint blocks."""
    if block_size < 4:
        raise DataShapeError("block size must be >= 4")
    if n < block_size:
        raise DataShapeError("need at least one full block")
    blocks = n // block_size
    base = np.array(list(permutations(range(block_size), 4)), dtype=np.intp)
    offsets = np.arange(blocks, dtype=np.intp)[:, None, None] * block_size
    tuples = (base[None, :, :] + offsets).reshape(-1, 4)
    return Design(tuples, n)


def complete_pair_design(n: int) -> Design:
    """All n(n-1) ordered distinct pairs."""
    if n < 2:
        raise DataShapeError("need n >= 2")
    i, j = np.nonzero(~np.eye(n, dtype=bool))
    return Design(np.column_stack([i, j]), n)


def complete_quad_design(n: int) -> Design:
    """All n(n-1)(n-2)(n-3) ordered distinct 4-tuples; O(n^4), small n only."""
    if n < 4:
        raise DataShapeError("need n >= 4")
    idx = np.indices((n, n, n, n)).reshape(4, -1).T
    distinct = (
        (idx[:, 0] != idx[:, 1])
        & (idx[:, 0] != idx[:, 2])
        & (idx[:, 0] != idx[:, 3])
        & (idx[:, 1] != idx[:, 2])
        & (idx[:, 1] != idx[:, 3])
        & (idx[:, 2] != idx[:, 3])
    )
    return Design(idx[distinct], n)


def pair_design_two_draws(n: int, l: int, rng: np.random.Generator) -> Design:
    """The pair sampler written out: i from [0, n), j from [0, n - 1) shifted past i."""
    if n < 2:
        raise DataShapeError("need n >= 2 to form index pairs")
    if l < 1:
        raise DataShapeError("design size must be >= 1")
    i = rng.integers(0, n, size=l)
    j = rng.integers(0, n - 1, size=l)
    j += j >= i
    return Design(np.column_stack([i, j]), n)


def quad_design_four_draws(n: int, l: int, rng: np.random.Generator) -> Design:
    """The quadruple sampler written out slot by slot: each later slot is drawn
    from the remaining values and shifted past the used indices in ascending order."""
    if n < 4:
        raise DataShapeError("need n >= 4 to form index quadruples")
    if l < 1:
        raise DataShapeError("design size must be >= 1")
    a = rng.integers(0, n, size=l)
    b = rng.integers(0, n - 1, size=l)
    b += b >= a
    c = rng.integers(0, n - 2, size=l)
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    c += c >= lo
    c += c >= hi
    e = rng.integers(0, n - 3, size=l)
    used = np.sort(np.column_stack([a, b, c]), axis=1)
    for col in range(3):
        e += e >= used[:, col]
    return Design(np.column_stack([a, b, c, e]), n)


# ---------------------------------------------------------------------------
# MMD
# ---------------------------------------------------------------------------
def mmd_h(x, xp, y, yp, spec: KernelSpec) -> float:
    """Pairwise U-statistic kernel K(x,x') + K(y,y') - K(x',y) - K(x,y')."""
    return (
        kernel_eval(spec, x, xp)
        + kernel_eval(spec, y, yp)
        - kernel_eval(spec, xp, y)
        - kernel_eval(spec, x, yp)
    )


def _offdiag_sum(M: np.ndarray) -> float:
    return float(M.sum() - np.trace(M))


def mmd_u(X: np.ndarray, Y: np.ndarray, spec: KernelSpec) -> float:
    """Unbiased complete U-statistic (1/(n(n-1))) sum_{i != j} h(z_i, z_j)."""
    X, Y = _check_two_sample(X, Y)
    n = X.shape[0]
    if n < 2:
        raise DataShapeError("need n >= 2")
    kxx = gram_matrix(spec, X, X)
    kyy = gram_matrix(spec, Y, Y)
    kxy = gram_matrix(spec, X, Y)
    return (_offdiag_sum(kxx) + _offdiag_sum(kyy) - 2.0 * _offdiag_sum(kxy)) / (n * (n - 1))


def mmd_incomplete(X: np.ndarray, Y: np.ndarray, spec: KernelSpec, design: Design) -> float:
    """Incomplete estimator (1/|D|) sum_{(i,j) in D} h(z_i, z_j)."""
    X, Y = _check_two_sample(X, Y)
    if design.tuples.shape[1] != 2:
        raise DataShapeError("pair design required")
    if design.tuples.max() >= X.shape[0]:
        raise DataShapeError("design indices exceed sample size")
    return float(_pair_h(X, Y, *design.tuples.T, spec).mean())


# ---------------------------------------------------------------------------
# HSIC
# ---------------------------------------------------------------------------
def hsic_h(Kmat: np.ndarray, Lmat: np.ndarray, quad) -> float:
    """Order-4 U-statistic kernel: the average of K_st * (L_st + L_uv - 2 L_su)
    over all 24 permutations (s, t, u, v) of the quadruple."""
    quad = np.asarray(quad, dtype=np.intp)
    if quad.shape != (4,):
        raise DataShapeError("quad must contain exactly 4 indices")
    if len(set(quad.tolist())) != 4:
        raise DataShapeError("quad indices must be distinct")
    return float(_h_quad_values(Kmat, Lmat, quad[None, :])[0])


def _h_quad_values(K: np.ndarray, L: np.ndarray, quads: np.ndarray) -> np.ndarray:
    """(l,) h values for an (l, 4) array of index quadruples, read from Gram matrices."""
    a, b = quads[:, _PAIRS].transpose(2, 0, 1)
    return _h_from_pairs(K[a, b], L[a, b])


def hsic_u(Z: JointSample, specX: KernelSpec, specY: KernelSpec) -> float:
    """Unbiased complete U-statistic: average of h over all ordered distinct
    4-tuples.  Quartic in n; intended as an oracle for small samples (n <~ 40).

    Every ordering of each index set appears exactly once in the complete
    enumeration, so averaging the raw integrand K_st (L_st + L_uv - 2 L_su)
    equals averaging the permutation-symmetrized kernel.
    """
    if Z.n < 4:
        raise DataShapeError("need n >= 4")
    K = gram_matrix(specX, Z.X, Z.X)
    L = gram_matrix(specY, Z.Y, Z.Y)
    s, t, u, v = complete_quad_design(Z.n).tuples.T
    return float((K[s, t] * (L[s, t] + L[u, v] - 2.0 * L[s, u])).mean())


def hsic_incomplete(Z: JointSample, specX: KernelSpec, specY: KernelSpec, design: Design) -> float:
    """Design-averaged estimator (1/|D|) sum_{(i,j,q,r) in D} h(i,j,q,r)."""
    if design.tuples.shape[1] != 4:
        raise DataShapeError("quadruple design required")
    if design.tuples.max() >= Z.n:
        raise DataShapeError("design indices exceed sample size")
    K = gram_matrix(specX, Z.X, Z.X)
    L = gram_matrix(specY, Z.Y, Z.Y)
    return float(_h_quad_values(K, L, design.tuples).mean())


def hsic_block(Z: JointSample, specX: KernelSpec, specY: KernelSpec, block_size: int) -> float:
    """Mean of complete U-statistics over disjoint blocks of ``block_size`` rows.

    Trailing rows that do not fill a block are discarded.  Agrees with
    `hsic_incomplete` run on `block_design` up to rounding.
    """
    if block_size < 4:
        raise DataShapeError("block size must be >= 4")
    if Z.n < block_size:
        raise DataShapeError("need at least one full block")
    blocks = Z.n // block_size
    vals = []
    for b in range(blocks):
        rows = slice(b * block_size, (b + 1) * block_size)
        vals.append(hsic_u(JointSample(Z.X[rows], Z.Y[rows]), specX, specY))
    return float(np.mean(vals))


# ---------------------------------------------------------------------------
# Multiscale bootstrap
# ---------------------------------------------------------------------------
def fit_scaling_law(gamma2, psi, weights) -> tuple[float, float, dict]:
    """Weighted least-squares line psi ~ beta0 + gamma^2 * beta1.

    Returns beta0, beta1 and the fit's diagnostics: the number of points
    and the residuals.  Callers tracking bootstrap noise pass the inverse
    delta-method variance of each psi, so the extrapolation is stabilized by
    the better-resolved scales.
    """
    x = np.asarray(gamma2, dtype=float)
    y = np.asarray(psi, dtype=float)
    w = np.asarray(weights, dtype=float)
    if x.ndim != 1 or y.shape != x.shape:
        raise ValueError("need one psi per gamma^2")
    if x.size < 3:
        raise InsufficientScalesError(f"need >= 3 usable points, got {x.size}")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("scaling-law points must be finite")
    if w.shape != x.shape or (w <= 0).any():
        raise ValueError("weights must be positive, one per point")
    sw = np.sqrt(w)
    design = np.column_stack([np.ones_like(x), x]) * sw[:, None]
    coef, *_ = np.linalg.lstsq(design, y * sw, rcond=None)
    beta0, beta1 = float(coef[0]), float(coef[1])
    resid = y - (beta0 + beta1 * x)
    return beta0, beta1, {
        "points": int(x.size),
        "weighted_rss": float(np.sum(w * resid**2)),
        "rmse": float(np.sqrt(np.mean(resid**2))),
        "max_abs_residual": float(np.max(np.abs(resid))),
    }


def fit_bootstrap_probabilities(bps, gamma2, replicates: int) -> dict:
    """Fit the scaling law to one bootstrap probability per scale gamma^2,
    each the fraction of ``replicates`` draws; return the fit's diagnostics.

    An interior probability gives psi = gamma * z with z = -ndtri(BP), and
    the delta-method variance gamma^2 BP (1 - BP) / (B phi(z)^2) of psi
    weights its point.  Scales whose bootstrap probability hits 0 or 1
    carry an infinite psi and are dropped.  The diagnostics report the
    per-scale bootstrap probabilities and psi values and which scales were
    dropped.  When at least 3 scales survive they also hold the fitted line,
    ``fit_beta0`` and ``fit_beta1``, and `fit_scaling_law`'s diagnostics
    under ``fit_`` keys; otherwise there is no fit and the caller decides the
    fallback.
    """
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    points: list[tuple[float, float, float]] = []
    psis: list[float] = []
    dropped: list[float] = []
    for g2, bp in zip(gamma2, bps, strict=True):
        if 0.0 < bp < 1.0:
            z = -ndtri(bp)
            psi = float(np.sqrt(g2) * z)
            density = np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi)
            points.append((g2, psi, 1.0 / (g2 * bp * (1.0 - bp) / (replicates * density**2))))
        else:
            psi = np.inf if bp <= 0.0 else -np.inf
            dropped.append(g2)
        psis.append(psi)
    diag = {
        "bootstrap_probabilities": [float(bp) for bp in bps],
        "psi": psis,
        "scales_dropped": len(dropped),
        "dropped_gamma2": dropped,
    }
    if len(points) >= 3:
        beta0, beta1, fit = fit_scaling_law(*zip(*points))
        diag.update({f"fit_{key}": value for key, value in {"beta0": beta0, "beta1": beta1, **fit}.items()})
    return diag


# ---------------------------------------------------------------------------
# Selective report
# ---------------------------------------------------------------------------
def _report(stat, selected, config, feature_test) -> SelectiveReport:
    """The report on the ``selected`` features.  Each one's diagnostics hold
    its index, name and beta0 = t_i / sqrt(Sigma_ii), and
    ``feature_test(j, diag)`` gives the (t, variance, lower end, upper end)
    of the truncated normal whose survival at t, `poly_p`, is the p-value of
    ``selected[j]``, adding to ``diag``; one `poly_p` call takes them all.
    A feature of zero variance is flagged and gets the conservative p = 1
    instead, before any test runs."""
    tested = stat.variances[list(selected)] > 0
    tests, diagnostics = [], []
    for j, i in enumerate(selected):
        diag: dict = {"feature": i, "name": stat.feature_names[i]}
        if tested[j]:
            diag["beta0"] = float(stat.t[i] / np.sqrt(stat.variances[i]))
            tests.append(feature_test(j, diag))
        else:
            diag.update({"error": f"feature {i} has non-positive variance", "fallback": "degenerate-variance"})
        diagnostics.append(diag)
    p_values = np.ones(len(selected))
    if tests:
        p_values[tested] = poly_p(*np.array(tests).T)
    return SelectiveReport(method=METHODS[config.method], selected=selected, scores=stat.t,
                           feature_names=stat.feature_names, p_values=p_values.tolist(),
                           diagnostics=diagnostics, config=config.snapshot())


def _multiscale_feature_test(diag: dict, fit: dict):
    diag.update(fit)
    if "fit_beta0" not in diag:
        diag.update({"phi_s0": -np.inf, "fallback": "selection-unconstraining"})
    else:
        diag.update({"phi_s0_raw": diag["fit_beta0"], "phi_s0": min(diag["fit_beta0"], 0.0)})
    return diag["beta0"], 1.0, diag["beta0"] + diag["phi_s0"], np.inf


def _poly_feature_test(stat, i: int, vminus: float, vplus: float, diag: dict):
    vminus, vplus = float(vminus), float(vplus)
    t_i = float(stat.t[i])
    inside = min(max(t_i, vminus), vplus)
    if inside != t_i and abs(inside - t_i) <= 1e-9 * max(1.0, abs(t_i)):
        t_i = inside
        diag["clamped"] = True
    diag.update({"vminus": vminus, "vplus": vplus})
    return t_i, float(stat.variances[i]), vminus, vplus


def report(stat, config) -> SelectiveReport:
    """``config.method``'s report on the top ``config.k`` features of
    ``stat``, one feature at a time: Multi's truncation at beta0 + phi_S(0)
    from each feature's scaling-law fit, or Poly's polyhedral interval."""
    sel = select_top_k(stat.t, config.k)
    if config.method.startswith("multi-"):
        gamma2, replicates = default_scales(stat.n, config), config.replicates_per_scale
        fractions = _selection_fractions(stat.t, stat.factor, len(sel), gamma2, replicates, config.seed)
        fits = fit_block(fractions[:, sel], gamma2, replicates)
        return _report(stat, sel, config, lambda j, diag: _multiscale_feature_test(diag, fits[j]))
    vminus, vplus = poly_truncation_intervals(stat.t, stat.factor, sel)
    return _report(stat, sel, config, lambda j, diag: _poly_feature_test(stat, sel[j], vminus[j], vplus[j], diag))
