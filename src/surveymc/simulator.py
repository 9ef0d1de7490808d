"""Synthetic stratified two-stage cluster populations with informative
missingness.

Population: stratum h draws a_h ~ Ex(1) and holds M_h = 5 Po(a_h) + 20
clusters; cluster i draws b_hi ~ Ex(1) and holds M_hi = 5 Po(a_h + b_hi) + 30
elements.  Within a cluster the covariate block is Ex(1) normalized by its
largest entry, and each response block's natural parameters are X W^(s) with
W^(s) ~ U(0, 2), again normalized by the block's largest entry, so every
natural parameter lies in [0, 1] and each cluster block attains 1; the
exponential family (domain z < 0) is therefore not simulated.

Sampling: stage one draws m1 clusters per stratum with replacement,
proportional to cluster size; stage two draws m2 elements per drawn cluster
without replacement.  Every sampled element in stratum h carries inclusion
probability m1 m2 / N_h.  A cluster drawn twice contributes two independent
element sets, and repeated rows are kept.

Missingness: each (column j, stratum h) has its own logistic coefficient
vector zeta with intercept ~ N(xi, 0.1^2) and slopes ~ N(0.3, 0.1^2); element
i responds to column j with probability expit((1, x_i) zeta).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dataset import MixedDataset
from .errors import (DegenerateTruth, DesignError, InvalidInput, check_int, check_real,
                     check_rng)
from .families import CategoryLayout, expit

__all__ = ["PopulationSpec", "SyntheticTruth", "SampledData",
           "generate_population", "draw_sample",
           "impose_responses_and_missingness", "simulate_survey"]


@dataclass(frozen=True)
class PopulationSpec:
    """Design sizes plus the response layout and missingness location xi."""

    n_strata: int
    m1: int
    m2: int
    layout: CategoryLayout
    xi: float
    n_covariates: int = 3

    def __post_init__(self):
        for name in ("n_strata", "m1", "m2", "n_covariates"):
            check_int(name, getattr(self, name), 1)
        check_real("xi", self.xi)
        if not isinstance(self.layout, CategoryLayout):
            raise InvalidInput(f"layout must be a CategoryLayout, got {self.layout!r}")
        if any(b.family.kind == "exponential" for b in self.layout.blocks):
            raise InvalidInput("simulated natural parameters lie in [0, 1], outside the "
                               "exponential family's domain z < 0")


@dataclass(frozen=True)
class SyntheticTruth:
    """Finite population with known natural parameters and missingness model."""

    X_pop: np.ndarray            # N x D, entries in [0, 1]
    Z_pop: np.ndarray            # N x L, entries in [0, 1]
    stratum_of_row: np.ndarray   # N, labels 1..H
    cluster_of_row: np.ndarray   # N, global cluster index
    cluster_sizes: list          # per stratum, array of M_hi
    stratum_sizes: np.ndarray    # H, N_h
    a: np.ndarray                # H stratum rates
    zeta: np.ndarray             # H x L x (D+1), intercept first

    @property
    def n_population(self) -> int:
        return self.X_pop.shape[0]


@dataclass(frozen=True)
class SampledData:
    """One drawn sample; dataset.Y is all-missing until responses are imposed."""

    dataset: MixedDataset
    truth_Z: np.ndarray
    true_p: np.ndarray
    pop_rows: np.ndarray


def generate_population(spec: PopulationSpec, rng: np.random.Generator) -> SyntheticTruth:
    """Realize one finite population for the given design.

    RNG call order is fixed: stratum rates, cluster counts, then per stratum
    the cluster rates and sizes, then per cluster the covariate block and one
    weight matrix per response block, then the missingness coefficients.
    """
    check_rng(rng)
    H, D, L = spec.n_strata, spec.n_covariates, spec.layout.n_cols
    a = rng.exponential(size=H)
    M_h = 5 * rng.poisson(a) + 20
    cluster_sizes = []
    for h in range(H):
        b = rng.exponential(size=M_h[h])
        cluster_sizes.append(5 * rng.poisson(a[h] + b) + 30)
    stratum_sizes = np.array([int(sz.sum()) for sz in cluster_sizes])

    N = int(stratum_sizes.sum())
    X_pop = np.empty((N, D))
    Z_pop = np.empty((N, L))
    stratum_of_row = np.empty(N, dtype=np.int64)
    cluster_of_row = np.empty(N, dtype=np.int64)

    row = 0
    cluster_id = 0
    slices = spec.layout.slices()
    for h in range(H):
        for size in cluster_sizes[h]:
            size = int(size)
            X0 = rng.exponential(size=(size, D))
            sup = X0.max()
            if sup == 0.0:
                raise DegenerateTruth("covariate block is identically zero")
            X = X0 / sup
            block = slice(row, row + size)
            X_pop[block] = X
            for fam, sl in slices:
                W = rng.uniform(0.0, 2.0, size=(D, sl.stop - sl.start))
                Zt = X @ W
                sup = Zt.max()
                if sup == 0.0:
                    raise DegenerateTruth("natural-parameter block is identically zero")
                Z_pop[block, sl] = Zt / sup
            stratum_of_row[block] = h + 1
            cluster_of_row[block] = cluster_id
            cluster_id += 1
            row += size

    zeta = np.empty((H, L, D + 1))
    zeta[:, :, 0] = rng.normal(spec.xi, 0.1, size=(H, L))
    zeta[:, :, 1:] = rng.normal(0.3, 0.1, size=(H, L, D))
    return SyntheticTruth(X_pop=X_pop, Z_pop=Z_pop, stratum_of_row=stratum_of_row,
                          cluster_of_row=cluster_of_row, cluster_sizes=cluster_sizes,
                          stratum_sizes=stratum_sizes, a=a, zeta=zeta)


def draw_sample(truth: SyntheticTruth, spec: PopulationSpec,
                rng: np.random.Generator) -> SampledData:
    """Two-stage draw: PPS with replacement over clusters, then SRSWOR."""
    check_rng(rng)
    H = spec.n_strata
    if truth.stratum_sizes.shape[0] != H:
        raise DesignError(f"population has {truth.stratum_sizes.shape[0]} strata, spec says {H}")
    # population row offset of each cluster, in global cluster order
    all_sizes = np.concatenate([np.asarray(sz) for sz in truth.cluster_sizes])
    offsets = np.concatenate([[0], np.cumsum(all_sizes)[:-1]])
    first_cluster = np.concatenate([[0], np.cumsum([len(sz) for sz in truth.cluster_sizes])[:-1]])

    rows = []
    strata = []
    pis = []
    for h in range(H):
        sizes = np.asarray(truth.cluster_sizes[h], dtype=np.float64)
        if spec.m1 * spec.m2 > truth.stratum_sizes[h]:
            raise DesignError(f"m1*m2={spec.m1 * spec.m2} exceeds stratum size {truth.stratum_sizes[h]}")
        drawn = rng.choice(sizes.size, size=spec.m1, replace=True, p=sizes / sizes.sum())
        for i in drawn:
            size = int(sizes[i])
            if spec.m2 > size:
                raise DesignError(f"m2={spec.m2} exceeds cluster size {size}")
            elems = rng.choice(size, size=spec.m2, replace=False)
            rows.append(offsets[first_cluster[h] + i] + elems)
        strata.append(np.full(spec.m1 * spec.m2, h + 1, dtype=np.int64))
        pis.append(np.full(spec.m1 * spec.m2, spec.m1 * spec.m2 / truth.stratum_sizes[h]))

    pop_rows = np.concatenate(rows)
    strata = np.concatenate(strata)
    pi = np.concatenate(pis)
    n = pop_rows.size
    L = spec.layout.n_cols

    X = truth.X_pop[pop_rows]
    truth_Z = truth.Z_pop[pop_rows]
    # eta[i, j] = zeta[h_i, j, 0] + x_i . zeta[h_i, j, 1:]
    zeta_rows = truth.zeta[strata - 1]                       # n x L x (D+1)
    eta = zeta_rows[:, :, 0] + np.einsum("id,ijd->ij", X, zeta_rows[:, :, 1:])
    true_p = expit(eta)

    dataset = MixedDataset(Y=np.full((n, L), np.nan), X=X, strata=strata, pi=pi,
                           layout=spec.layout, population_size=float(truth.n_population))
    return SampledData(dataset=dataset, truth_Z=truth_Z, true_p=true_p, pop_rows=pop_rows)


def impose_responses_and_missingness(sample: SampledData, truth: SyntheticTruth,
                                     rng: np.random.Generator) -> SampledData:
    """Draw responses from the true natural parameters and blank nonresponses.

    Duplicate rows (a cluster drawn twice can repeat elements across draws)
    receive independent response and missingness realizations.
    """
    if not np.array_equal(sample.truth_Z, truth.Z_pop[sample.pop_rows]):
        raise InvalidInput("sample does not originate from this population")
    ds = sample.dataset
    Y = np.empty_like(sample.truth_Z)
    for fam, sl in ds.layout.slices():
        Y[:, sl] = fam.sample(sample.truth_Z[:, sl], rng)
    R = rng.random(Y.shape) < sample.true_p
    return replace(sample, dataset=replace(ds, Y=np.where(R, Y, np.nan)))


def simulate_survey(spec: PopulationSpec, rng: np.random.Generator):
    """Population, sample, and observed data in one call.

    Returns (truth, sample) with responses and missingness already imposed.
    """
    truth = generate_population(spec, rng)
    sample = draw_sample(truth, spec, rng)
    return truth, impose_responses_and_missingness(sample, truth, rng)
