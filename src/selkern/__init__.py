"""Selective kernel hypothesis tests for feature selection.

Selects the top-k features by per-feature MMD or HSIC scores, then reports
post-selection p-values: either minimally conditioned via parametric
multiscale bootstrap (the multi-* methods) or conditioned on the whole
selected set via the polyhedral truncated-normal baseline (the poly-*
methods).  `select_and_test` runs the method named by `RunConfig.method`.
"""
from .config import RunConfig
from .core import (
    DataFormatError,
    DataShapeError,
    DegenerateFeatureError,
    DegenerateSampleError,
    Design,
    InsufficientScalesError,
    MultiStat,
    derive_rng,
    derive_seed,
)
from .designs import sample_pair_design, sample_quad_design
from .hsic import JointSample
from .kernels import KernelSpec, median_heuristic
from .multiscale import ScalesDroppedWarning, default_scales
from .selective import (
    SelectiveReport,
    hsic_stat,
    mmd_stat,
    poly_p,
    poly_truncation_intervals,
    select_and_test,
    select_top_k,
    selective_report,
)
from .simulation import (
    ProblemSpec,
    TrialSummary,
    augment_fake_features,
    benchmark_trials,
    gen_logistic,
    gen_mean_shift,
    run_trials,
    tpr_fpr,
)

__version__ = "0.1.0"

__all__ = [
    "RunConfig",
    "DataFormatError",
    "DataShapeError",
    "DegenerateFeatureError",
    "DegenerateSampleError",
    "Design",
    "InsufficientScalesError",
    "MultiStat",
    "derive_rng",
    "derive_seed",
    "sample_pair_design",
    "sample_quad_design",
    "JointSample",
    "KernelSpec",
    "median_heuristic",
    "ScalesDroppedWarning",
    "default_scales",
    "SelectiveReport",
    "hsic_stat",
    "mmd_stat",
    "poly_p",
    "poly_truncation_intervals",
    "select_and_test",
    "select_top_k",
    "selective_report",
    "ProblemSpec",
    "TrialSummary",
    "augment_fake_features",
    "benchmark_trials",
    "gen_logistic",
    "gen_mean_shift",
    "run_trials",
    "tpr_fpr",
]
