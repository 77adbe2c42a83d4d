"""The benchmark's workloads.

Each workload makes its inputs from the workload seed with the benchmark's
own numpy code (not with ``selkern.gen_*``, so a library change cannot
silently change them) and names the ``selkern`` CLI invocation one
operation runs.  ``simulate-logistic-trials`` is the exception: its data is
drawn inside the library by ``selkern simulate``, which is the traffic it
measures.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

D = 50
INFORMATIVE = 10
SHIFT = 0.5
K_TEST = 10
K_SIMULATE = 30
SIM_TRIALS = 4
SIM_METHODS = ("multi-hsic", "poly-hsic")
ALPHA = 0.05


@dataclass(frozen=True)
class Operation:
    """One selkern CLI invocation and what its document must satisfy."""

    argv: list[str]
    out: Path
    kind: str  # "report" (mmd-test / hsic-test) or "simulation"
    k: int
    d: int
    trials: int = 0
    methods: tuple[str, ...] = ()


def _write_csv(path: Path, values: np.ndarray, names: list[str]) -> None:
    # 17 significant digits round-trip every float64 exactly.
    np.savetxt(path, values, fmt="%.17g", delimiter=",", header=",".join(names), comments="")


def _names(d: int) -> list[str]:
    return [f"f{i}" for i in range(d)]


def _mmd_test(rng: np.random.Generator, workdir: Path, full: bool, seed: int) -> Operation:
    n = 2000 if full else 60
    x = rng.standard_normal((n, D))
    y = rng.standard_normal((n, D))
    y[:, :INFORMATIVE] += SHIFT
    _write_csv(workdir / "x.csv", x, _names(D))
    _write_csv(workdir / "y.csv", y, _names(D))
    out = workdir / "doc.json"
    argv = ["mmd-test", "--x", str(workdir / "x.csv"), "--y", str(workdir / "y.csv"),
            "--method", "multi", "--k", str(K_TEST), "--alpha", str(ALPHA), "--threads", "1",
            "--seed", str(seed), "--out", str(out)]
    return Operation(argv, out, "report", K_TEST, D)


def _hsic_block(rng: np.random.Generator, workdir: Path, full: bool, seed: int) -> Operation:
    n = 800 if full else 64
    x = rng.standard_normal((n, D))
    prob = 1.0 / (1.0 + np.exp(-x[:, :INFORMATIVE].sum(axis=1)))
    y = (rng.random(n) < prob).astype(float)
    _write_csv(workdir / "data.csv", np.column_stack([x, y]), _names(D) + ["y"])
    out = workdir / "doc.json"
    argv = ["hsic-test", "--data", str(workdir / "data.csv"), "--response", "y",
            "--estimator", "block", "--block-size", "8",
            "--method", "multi", "--k", str(K_TEST), "--alpha", str(ALPHA), "--threads", "1",
            "--seed", str(seed), "--out", str(out)]
    return Operation(argv, out, "report", K_TEST, D)


def _simulate(rng: np.random.Generator, workdir: Path, full: bool, seed: int) -> Operation:
    n, trials = (400, SIM_TRIALS) if full else (40, 1)
    out = workdir / "doc.json"
    argv = ["simulate", "--problem", "logistic", "--n", str(n), "--d", str(D),
            "--informative", str(INFORMATIVE), "--k", str(K_SIMULATE),
            "--trials", str(trials), "--methods", *SIM_METHODS, "--threads", "2",
            "--seed", str(seed), "--out", str(out)]
    return Operation(argv, out, "simulation", K_SIMULATE, D, trials, SIM_METHODS)


# name -> maker(rng, workdir, full, seed); a warm-up operation (full=False)
# runs the same code paths on a tiny input.
WORKLOADS = {
    "mmd-test-n2000": _mmd_test,
    "hsic-block-b8": _hsic_block,
    "simulate-logistic-trials": _simulate,
}


def prepare(name: str, seed: int, workdir: Path) -> tuple[Operation, Operation]:
    """Write the inputs of one workload; return (warm-up, measured) operations.

    The warm-up operation runs the same code paths on a tiny input so that
    lazy imports and first-call costs are paid before timing starts.
    """
    make = WORKLOADS[name]
    rng = np.random.default_rng([seed, list(WORKLOADS).index(name)])
    warm_dir = workdir / "warmup"
    main_dir = workdir / "main"
    warm_dir.mkdir(parents=True, exist_ok=True)
    main_dir.mkdir(parents=True, exist_ok=True)
    return make(rng, warm_dir, False, seed), make(rng, main_dir, True, seed)
