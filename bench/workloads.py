"""The benchmark workloads: their inputs, command lines and accuracy scores.

Each workload turns the benchmark seed into input files and one ``surveymc``
command line.  The program sees only those files and arguments.  Accuracy is
scored by the benchmark itself from the files the command writes, against
the simulated truth, so a speed-up that changes the estimates shows in
``rel_error``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# benchmark._data_rng seeds replicate r with base_seed ^ r.  Program seeds are
# multiples of 2**20, so two benchmark seeds (and the program's default seed 1)
# never share a replicate dataset while replicate ids stay below 2**20.
SEED_SHIFT = 20

DEFAULT_GRID = "2^-15..2^-1,1,2"
METHODS = ("ipw", "collective_unweighted", "soft_impute", "hot_deck")


def program_seed(seed: int) -> int:
    """Seed handed to the program for benchmark seed `seed` (>= 0)."""
    if seed < 0:
        raise ValueError(f"benchmark seed must be >= 0, got {seed}")
    return (seed + 1) << SEED_SHIFT


def nproc() -> int:
    return len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class Design:
    """Survey design flags shared by `simulate` and `benchmark`."""

    strata: int
    m1: int
    m2: int
    blocks: str
    xi: float = 0.3

    def flags(self) -> list[str]:
        return ["--strata", str(self.strata), "--m1", str(self.m1), "--m2", str(self.m2),
                "--blocks", self.blocks, "--xi", repr(self.xi)]


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    `command` writes the inputs for a program seed into `inputs` and returns
    the argv of one op; `score` returns the op's rel_error; `check` returns
    extra correctness problems found in the op's output directory.
    """

    name: str
    design: Design
    command: Callable[["Workload", int, Path, Path], list[str]]
    score: Callable[[Path, Path], float]
    check: Callable[[Path], list[str]] = lambda out: []
    iterations: int = 200
    grid: str = DEFAULT_GRID
    replicates: int = 6


def run_cli(main, argv: list[str]) -> int:
    """Call the CLI entry point with its console output captured."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def simulate(design: Design, seed: int, inputs: Path) -> tuple[Path, Path]:
    """Write data.csv, schema.json and truth_z.csv for the design into `inputs`."""
    from surveymc.cli import main
    rc = run_cli(main, ["simulate", *design.flags(), "--seed", str(seed), "--out", str(inputs)])
    if rc != 0:
        raise RuntimeError(f"simulate exited with code {rc}")
    return inputs / "data.csv", inputs / "schema.json"


def _fit_command(w: Workload, seed: int, inputs: Path, out: Path) -> list[str]:
    data, schema = simulate(w.design, seed, inputs)
    return ["fit", "--data", str(data), "--schema", str(schema), "--tau", repr(2.0**-10),
            "--iterations", str(w.iterations), "--out", str(out)]


def _benchmark_command(w: Workload, seed: int, inputs: Path, out: Path) -> list[str]:
    return ["benchmark", *w.design.flags(), "--methods", ",".join(METHODS),
            "--replicates", str(w.replicates), "--grid", w.grid,
            "--iterations", str(w.iterations), "--threads", str(nproc()),
            "--seed", str(seed), "--out", str(out)]


def _matrix(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _fit_score(inputs: Path, out: Path) -> float:
    """||Z_hat - truth_Z||_F / ||truth_Z||_F."""
    truth = _matrix(inputs / "truth_z.csv")
    return float(np.linalg.norm(_matrix(out / "z_hat.csv") - truth) / np.linalg.norm(truth))


def _overall_re(out: Path) -> dict[str, float]:
    with open(out / "summary.csv", encoding="utf-8", newline="") as fh:
        return {row["method"]: float(row["mean_re"]) for row in csv.DictReader(fh)
                if row["block"] == "overall"}


def _benchmark_score(inputs: Path, out: Path) -> float:
    """Mean overall relative error of ipw across the replicates."""
    return _overall_re(out)["ipw"]


def _benchmark_check(out: Path) -> list[str]:
    re = _overall_re(out)
    missing = [m for m in METHODS if m not in re]
    if missing:
        return [f"summary.csv has no overall row for {missing}"]
    best = min(re, key=re.get)
    return [] if best == "ipw" else [f"{best} beats ipw on overall RE: {re}"]


WORKLOADS = {w.name: w for w in (
    Workload(
        # the one large fit: the linalg/SVD layer does most of the work
        name="fit_acceptance",
        design=Design(strata=9, m1=5, m2=20, blocks="gaussian:30,poisson:30,bernoulli:30"),
        command=_fit_command, score=_fit_score),
    Workload(
        # the only workload running the simulator, baselines and threaded replicates
        name="benchmark_mc",
        design=Design(strata=4, m1=5, m2=10, blocks="gaussian:10,poisson:10,bernoulli:10"),
        command=_benchmark_command, score=_benchmark_score, check=_benchmark_check),
)}
