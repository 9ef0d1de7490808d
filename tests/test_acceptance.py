"""Acceptance battery.

One test per shipped guarantee.  Each prints a single [PASS]/[FAIL] line with
the measured quantities (run pytest with -s to see them) and enforces the
stated wall-clock budget.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

import surveymc as smc
import surveymc.cli as cli
from helpers import (LD, build_missingness_dataset, fd_gradient, random_problem,
                     mixed_layout, trace_is_monotone)

GPB_SMALL = smc.CategoryLayout.of(("gaussian", 10), ("poisson", 10),
                                  ("bernoulli", 10))
BENCH_LAYOUT = smc.CategoryLayout.of(("gaussian", 30), ("poisson", 30),
                                     ("bernoulli", 30))
BENCH_SPEC = smc.PopulationSpec(n_strata=9, m1=5, m2=20, layout=BENCH_LAYOUT,
                                xi=0.3, n_covariates=3)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_01_gradient_matches_finite_differences():
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(25):
        rng = np.random.default_rng(1000 + i)
        ds, probs, _ = random_problem(rng, n=20, layout=GPB_SMALL,
                                      pi_lo=0.05, p_lo=0.2)
        Z = rng.uniform(-2.0, 2.0, ds.Y.shape)
        G = smc.gradient(Z, ds, probs)
        N = float(np.sum(1.0 / ds.pi))
        G_fd = fd_gradient(Z, ds.Y, ds.R, ds.pi, probs.p_hat, ds.layout, N)
        worst = max(worst, np.abs(G - G_fd).max() / np.abs(G_fd).max())
    elapsed = time.perf_counter() - t0
    report("criterion 01 gradient vs central differences",
           worst < 1e-6 and elapsed < 10.0,
           f"25 mixed 20x30 instances, max rel err {worst:.3e} (< 1e-6), "
           f"{elapsed:.1f}s (< 10s)")


def test_criterion_02_svt_spectrum_and_prox_optimality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst_sv = 0.0
    optimal = True

    def prox_obj(M, A, tau):
        return 0.5 * np.sum((A - M) ** 2) + tau * smc.nuclear_norm(M)

    for _ in range(50):
        A = rng.normal(size=(6, 4))
        s = np.linalg.svd(A, compute_uv=False)
        for tau in (0.0, 0.1, 1.0, 5.0):
            M = smc.svt(A, tau)
            got = np.linalg.svd(M, compute_uv=False)
            worst_sv = max(worst_sv, np.abs(got - np.maximum(s - tau, 0.0)).max())
            base = prox_obj(M, A, tau)
            for scale in (1e-3, 1e-2, 1e-1):
                for _ in range(10):
                    cand = M + scale * rng.normal(size=M.shape)
                    if base > prox_obj(cand, A, tau) + 1e-10:
                        optimal = False
    elapsed = time.perf_counter() - t0
    report("criterion 02 singular value thresholding",
           worst_sv < 1e-10 and optimal and elapsed < 5.0,
           f"50 random 6x4, tau in {{0,0.1,1,5}}: max sv err {worst_sv:.2e} "
           f"(< 1e-10), prox objective minimal vs perturbations, "
           f"{elapsed:.1f}s (< 5s)")


def test_criterion_03_all_traces_exactly_nonincreasing():
    runs = []
    for seed, layout, kwargs in [
            (0, mixed_layout(), dict(tau=2.0**-6)),
            (1, mixed_layout(), dict(tau=0.5)),
            (2, GPB_SMALL, dict(tau=2.0**-10)),
            (3, GPB_SMALL, dict(tau=2.0**-8)),
            (4, mixed_layout(), dict(tau=2.0**-8, clamp=3.0)),
            (5, GPB_SMALL, dict(tau=2.0**-8)),
            (6, smc.CategoryLayout.of(("gaussian", 6)), dict(tau=2.0**-40)),
            (7, GPB_SMALL, dict(tau=2.0**-12))]:
        rng = np.random.default_rng(seed)
        ds, probs, _ = random_problem(rng, n=40, layout=layout)
        config = smc.SolverConfig(iterations=80, **kwargs)
        for data in (replace(ds, X=np.empty((ds.n, 0))), ds):
            runs.append(smc.fit_completion(data, probs, config))
    ok = all(trace_is_monotone(r) for r in runs)
    accepted = sum(int(np.sum(r.accepted)) for r in runs)
    steps = sum(r.iterations_run for r in runs)
    report("criterion 03 objective traces nonincreasing",
           ok, f"{len(runs)} fits, {accepted}/{steps} accepted steps, every "
               f"trace exactly nonincreasing")


def test_criterion_04_solver_convergence_rate():
    t0 = time.perf_counter()
    _, sample = smc.simulate_survey(BENCH_SPEC, np.random.default_rng([0, 0]))
    probs = smc.estimate_response_probs(sample.dataset, p_floor=0.01)
    config = smc.SolverConfig(tau=2.0**-10, iterations=2000)
    result = smc.fit_completion(sample.dataset, probs, config)
    f = np.asarray(result.objective_trace)
    # the loop stops at a fixed point, where every later iteration would
    # record f[-1] again: the trace past the stop is f[-1]
    gaps = {k: f[min(k, len(f) - 1)] - f[-1] for k in (25, 50, 100, 200)}
    ratios = [(gaps[2 * k], gaps[k]) for k in (25, 50, 100)]
    ok = (all(g2 <= 0.6 * g1 for g2, g1 in ratios)
          and result.diagnostics["stop"] == "fixed_point")
    elapsed = time.perf_counter() - t0
    shown = ", ".join(f"gap({2*k})/gap({k})="
                      f"{(gaps[2*k] / gaps[k] if gaps[k] > 0 else 0.0):.3f}"
                      for k in (25, 50, 100))
    report("criterion 04 geometric objective decay",
           ok and elapsed < 120.0,
           f"K_ref=2000 benchmark instance: {shown} (all <= 0.6), stopped at a "
           f"fixed point after {result.iterations_run} iterations, {elapsed:.0f}s (< 120s)")


def test_criterion_05_design_inclusion_and_weighted_total():
    t0 = time.perf_counter()
    lay = smc.CategoryLayout.of(("gaussian", 2), ("poisson", 2), ("bernoulli", 2))
    spec = smc.PopulationSpec(n_strata=3, m1=3, m2=10, layout=lay, xi=0.3,
                              n_covariates=2)
    truth = smc.generate_population(spec, np.random.default_rng(42))
    N = truth.n_population
    pi_true = np.empty(N)
    for h in range(1, spec.n_strata + 1):
        pi_true[truth.stratum_of_row == h] = \
            spec.m1 * spec.m2 / truth.stratum_sizes[h - 1]

    draws = 10_000
    counts = np.zeros(N)
    col = truth.Z_pop[:, 0]
    ht = np.empty(draws)
    for d in range(draws):
        s = smc.draw_sample(truth, spec, np.random.default_rng(d))
        np.add.at(counts, s.pop_rows, 1.0)
        ht[d] = np.sum(col[s.pop_rows] / s.dataset.pi)
    se = np.sqrt(pi_true * (1.0 - pi_true) / draws)
    frac = float(np.mean(np.abs(counts / draws - pi_true) <= 3.0 * se))
    ht_z = abs(ht.mean() - col.sum()) / (ht.std(ddof=1) / np.sqrt(draws))
    elapsed = time.perf_counter() - t0
    report("criterion 05 design frequencies and weighted total",
           frac >= 0.99 and ht_z <= 3.0 and elapsed < 120.0,
           f"{draws} draws over N={N}: {frac:.2%} of elements within 3 SE "
           f"(>= 99%), weighted total at {ht_z:.2f} SE (<= 3), "
           f"{elapsed:.0f}s (< 120s)")


def test_criterion_06_response_model_recovery():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    H, L, D, n_h = 3, 30, 3, 2000
    strata = np.repeat(np.arange(1, H + 1), n_h)
    X = rng.normal(0.0, 1.5, size=(H * n_h, D))
    zeta = np.concatenate([rng.normal(0.3, 0.1, size=(H, L, 1)),
                           rng.normal(0.3, 0.1, size=(H, L, D))], axis=2)
    ds, p_true = build_missingness_dataset(zeta, strata, X, rng)
    model = smc.estimate_response_probs(ds, p_floor=0.01)
    ok_cells = sum(
        int(np.all(np.abs(model.coefficients[h - 1, j] - zeta[h - 1, j]) <= 0.1))
        for h in range(1, H + 1) for j in range(L))
    frac = ok_cells / (H * L)
    mae = float(np.mean(np.abs(model.p_hat - p_true)))
    elapsed = time.perf_counter() - t0
    report("criterion 06 response probability recovery",
           frac >= 0.90 and mae < 0.03 and elapsed < 60.0,
           f"{ok_cells}/{H * L} cells within 0.1 componentwise (>= 90%), "
           f"mean |p_hat - p| = {mae:.4f} (< 0.03), {elapsed:.0f}s (< 60s)")


def test_criterion_07_weighted_method_wins_benchmark():
    t0 = time.perf_counter()
    methods = ("ipw", "collective_unweighted", "soft_impute", "hot_deck")
    config = smc.SolverConfig(tau=2.0**-10, iterations=200)
    taus = smc.tune_benchmark_taus(BENCH_SPEC, methods, base_seed=1,
                                   config=config, p_floor=0.01)
    summary = smc.run_benchmark(BENCH_SPEC, methods, n_replicates=20, taus=taus,
                                base_seed=1, config=config, p_floor=0.01)
    means = {m: summary.aggregate[m]["overall"][0] for m in methods}
    others = {m: v for m, v in means.items() if m != "ipw"}
    ok = all(means["ipw"] < v for v in others.values())
    elapsed = time.perf_counter() - t0
    shown = ", ".join(f"{m}={v:.4f}" for m, v in means.items())
    report("criterion 07 benchmark ordering",
           ok and elapsed < 900.0,
           f"20 replicates, overall RE: {shown} (ipw strictly smallest), "
           f"{elapsed:.0f}s (< 900s)")


def test_criterion_08_family_forms_and_samplers():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    worst = 0.0

    def closed(kind, z, sigma):
        z = np.asarray(z, dtype=LD)
        if kind == "bernoulli":
            g = np.where(z > 0, z, 0) + np.log1p(np.exp(-np.abs(z)))
            p = 1.0 / (1.0 + np.exp(-z))
            return g, p, p * (1.0 - p)
        if kind == "poisson":
            e = np.exp(z)
            return e, e, e
        if kind == "gaussian":
            s2 = LD(sigma) ** 2
            return s2 * z * z / 2.0, s2 * z, np.full_like(z, s2)
        return -np.log(-z), -1.0 / z, 1.0 / (z * z)

    cases = [("bernoulli", 1.0, (-30.0, 30.0)), ("poisson", 1.0, (-5.0, 5.0)),
             ("gaussian", 1.7, (-8.0, 8.0)), ("exponential", 1.0, (-10.0, -0.01))]
    for kind, sigma, (lo, hi) in cases:
        fam = smc.Family(kind, sigma)
        z = rng.uniform(lo, hi, 1000)
        for got, want in zip((fam.g(z), fam.g_prime(z), fam.g_double_prime(z)),
                             closed(kind, z, sigma)):
            diff = np.abs(got - want.astype(np.float64))
            worst = max(worst, float((diff / np.maximum(1.0, np.abs(want))).max()))

    n = 100_000
    sampler_ok = True
    points = {"bernoulli": (-1.2, 0.4, 2.0), "poisson": (-1.0, 0.7, 2.0),
              "gaussian": (-2.0, 0.5, 3.0), "exponential": (-3.0, -0.8)}
    for kind, sigma, _ in cases:
        fam = smc.Family(kind, sigma)
        for z0 in points[kind]:
            draws = fam.sample(np.full((n, 1), z0), rng).ravel()
            mean_se = np.sqrt(fam.g_double_prime(z0) / n)
            sampler_ok &= abs(draws.mean() - fam.g_prime(z0)) <= 3.0 * mean_se
            s2 = draws.var(ddof=1)
            m4 = np.mean((draws - draws.mean()) ** 4)
            var_se = np.sqrt(max(m4 - s2 * s2, 0.0) / n)
            sampler_ok &= abs(s2 - fam.g_double_prime(z0)) <= 3.0 * var_se
    elapsed = time.perf_counter() - t0
    report("criterion 08 cumulants and samplers",
           worst < 1e-12 and sampler_ok and elapsed < 30.0,
           f"4 families x 1000 points: max rel err {worst:.2e} (< 1e-12), "
           f"sampler mean/variance within 3 SE at {n} draws, "
           f"{elapsed:.0f}s (< 30s)")


def test_criterion_09_reruns_bit_identical(tmp_path):
    design = ["--strata", "3", "--m1", "3", "--m2", "8",
              "--blocks", "gaussian:4,poisson:4,bernoulli:4",
              "--covariates", "2"]
    sims = [tmp_path / "s1", tmp_path / "s2"]
    for d in sims:
        assert cli.main(["simulate", *design, "--seed", "3", "--out", str(d)]) == 0
    same = all((sims[0] / f).read_bytes() == (sims[1] / f).read_bytes()
               for f in ("data.csv", "schema.json", "truth_z.csv", "truth_p.csv"))

    fits = [tmp_path / "f1", tmp_path / "f2"]
    for d in fits:
        assert cli.main(["fit", "--data", str(sims[0] / "data.csv"),
                         "--schema", str(sims[0] / "schema.json"),
                         "--tau", "0.00390625", "--iterations", "40",
                         "--out", str(d)]) == 0
    same &= all((fits[0] / f).read_bytes() == (fits[1] / f).read_bytes()
                for f in ("z_hat.csv", "p_hat.csv", "trace.csv"))

    benches = [tmp_path / "b1", tmp_path / "b2"]
    for d in benches:
        assert cli.main(["benchmark", *design, "--methods", "ipw,hot_deck",
                         "--replicates", "2", "--seed", "11",
                         "--tau", "0.00390625", "--iterations", "40",
                         "--out", str(d)]) == 0
    same &= all((benches[0] / f).read_bytes() == (benches[1] / f).read_bytes()
                for f in ("summary.csv", "replicates.csv"))
    report("criterion 09 seeded reruns bit identical", same,
           "simulate, fit, and benchmark outputs byte-equal across reruns")
