"""Run configuration shared by the library entry points and the CLI."""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass

# The paper's four methods: a statistic family (MMD or HSIC) crossed with the
# conditioning of the selective p-value (Multi: minimal, Poly: polyhedral).
METHODS = {
    "multi-mmd": "MultiMMD",
    "poly-mmd": "PolyMMD",
    "multi-hsic": "MultiHSIC",
    "poly-hsic": "PolyHSIC",
}
ESTIMATORS = ("incomplete", "block")


@dataclass(frozen=True)
class RunConfig:
    """Everything a test run depends on, minus the data.

    ``method`` is a key of `METHODS`; ``k`` is the number of features to
    select and must be set before a report is made.
    ``threads`` is the number of worker threads that run the trials of
    `run_trials` and `benchmark_trials`; single tests ignore it.  It is
    excluded from serialized snapshots because results do not depend on it.
    """

    seed: int
    method: str = "multi-mmd"
    k: int | None = None
    alpha: float = 0.05
    r: float = 1.0
    estimator: str = "incomplete"
    block_size: int = 5
    scale_count: int = 10
    scale_low: float = 0.5
    scale_high: float = 2.0
    replicates_per_scale: int = 2000
    kernel_family: str = "gaussian"
    bandwidth: float | None = None
    imq_offset: float = 1.0
    shared_bandwidth: bool = False
    threads: int = 1

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {tuple(METHODS)}")
        if self.estimator not in ESTIMATORS:
            raise ValueError(f"estimator must be one of {ESTIMATORS}")
        if self.estimator == "block" and self.family == "mmd":
            raise ValueError("the block estimator applies to the HSIC methods only")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if not 0 < self.r < math.inf:
            raise ValueError("r must be positive and finite")
        if self.block_size < 4:
            raise ValueError("block_size must be >= 4")
        if self.scale_count < 3:
            raise ValueError("scale_count must be >= 3")
        if not 0 < self.scale_low < self.scale_high < math.inf:
            raise ValueError("scale range must satisfy 0 < low < high < inf")
        if self.replicates_per_scale < 1:
            raise ValueError("replicates_per_scale must be >= 1")
        if self.kernel_family not in ("gaussian", "imq"):
            raise ValueError("kernel_family must be 'gaussian' or 'imq'")
        if self.bandwidth is not None and not 0 < self.bandwidth < math.inf:
            raise ValueError("bandwidth override must be positive and finite")
        # Each would otherwise be ignored while the snapshot still records it.
        if self.bandwidth is not None and self.kernel_family == "imq":
            raise ValueError("a fixed bandwidth applies to the Gaussian kernel only")
        if self.shared_bandwidth and (self.bandwidth is not None or self.kernel_family == "imq"):
            raise ValueError("a shared bandwidth applies to the median-heuristic Gaussian kernel only")
        if not 0 < self.imq_offset < math.inf:
            raise ValueError("imq_offset must be positive and finite")
        if self.k is not None and self.k < 1:
            raise ValueError("k must be >= 1")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be an unsigned 64-bit integer")

    @property
    def family(self) -> str:
        """The statistic family of the method: "mmd" or "hsic"."""
        return self.method.split("-")[1]

    def snapshot(self) -> dict:
        snap = asdict(self)
        del snap["threads"]
        return snap
