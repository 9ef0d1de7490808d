"""Tests of the benchmark itself, on tiny inputs.

Run from the repository root: PYTHONPATH=src python3 -m pytest -q bench/tests
"""

import json
import sys
import threading
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from bench import run, tracing  # noqa: E402
from bench.workloads import WORKLOADS, Design, program_seed  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = Design(strata=2, m1=5, m2=5, blocks="gaussian:5,poisson:5,bernoulli:5")


def tiny(name):
    return replace(WORKLOADS[name], design=TINY, iterations=50, grid="2^-6,2^-3,1",
                   replicates=2)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_smoke_run(name, trace, tmp_path):
    result, lines = run.run_workload(tiny(name), 0, 0, trace, tmp_path, blas1=False)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= (2 if trace else run.MIN_OPS)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    if trace:
        del expected["solver.fit_s.blas1"]  # measured in a child process, off here
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] is not None for v in result["metrics"].values())


def test_layer_metrics_are_per_op(tmp_path):
    w = tiny("fit_acceptance")
    result, _ = run.run_workload(w, 0, 2, True, tmp_path, blas1=False)
    assert result["correct"] and result["attempted"] >= 4
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["solver.fits"] == 1
    assert metrics["linalg.svt_calls"] == w.iterations
    assert metrics["linalg.nuclear_norm_calls"] == w.iterations + 1


def test_span_self_times_sum_to_traced_wall(tmp_path):
    bench_run = run.Run(tiny("fit_acceptance"), 0, tmp_path)
    tracer = tracing.Tracer()
    with tracer.installed():
        wall = bench_run.op(tracer=tracer)
    assert bench_run.failed == 0
    spans = [s for s in tracer.spans if s.op == 1]
    roots = [s for s in spans if s.parent is None]
    assert [s.name for s in roots] == ["cli.main"]
    assert {"solver.fit_completion", "linalg.svt", "families.g"} <= {s.name for s in spans}
    own = tracing.self_times(spans)
    assert sum(own.values()) == pytest.approx(roots[0].end - roots[0].start, rel=1e-9)
    assert sum(own.values()) == pytest.approx(wall, rel=0.01, abs=1e-3)
    assert all(t >= 0 for t in own.values())


def test_tracing_restores_every_binding(tmp_path):
    import surveymc.cli
    import surveymc.solver
    from surveymc.families import Family
    before = (surveymc.cli.fit_completion, surveymc.solver.svt, vars(Family)["g"])
    with tracing.Tracer().installed():
        assert surveymc.cli.fit_completion is not before[0]
        assert surveymc.cli.fit_completion is surveymc.solver.fit_completion
    assert (surveymc.cli.fit_completion, surveymc.solver.svt, vars(Family)["g"]) == before


def test_tracer_loses_no_span_or_count_across_threads():
    tracer = tracing.Tracer()
    traced = tracer.wrap(lambda: tracer.count("calls"), "stress.call")
    n_threads, n_calls = 8, 2000

    def worker():
        for _ in range(n_calls):
            traced()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with tracer.op(1):
            threads = [threading.Thread(target=worker) for _ in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(tracer.spans) == n_threads * n_calls
    assert len({s.sid for s in tracer.spans}) == n_threads * n_calls
    assert tracer.counts[1]["calls"] == n_threads * n_calls


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_seed_changes_inputs_and_only_the_seed_argument(name, tmp_path):
    w = tiny(name)
    inputs, out = tmp_path / "inputs", tmp_path / "out"
    argvs, files = [], []
    for seed in (0, 1):
        inputs.mkdir()
        argvs.append(w.command(w, program_seed(seed), inputs, out))
        files.append({p.name: p.read_bytes() for p in sorted(inputs.iterdir())})
        run.shutil.rmtree(inputs)
    seeds = (str(program_seed(0)), str(program_seed(1)))
    assert len(argvs[0]) == len(argvs[1])
    changed = {(a, b) for a, b in zip(*argvs) if a != b}
    assert changed == ({seeds} if seeds[0] in argvs[0] else set())
    if files[0]:
        assert files[0].keys() == files[1].keys()
        assert files[0]["data.csv"] != files[1]["data.csv"]
    else:  # no input files: the seed argument is the whole input
        assert changed


def test_seeds_never_share_replicate_streams():
    # the program seeds replicate r of base seed s with s ^ r; id 0 is validation
    def streams(base):
        return {base ^ r for r in range(64)}
    seen = streams(1)  # the program's default seed
    for seed in range(32):
        mine = streams(program_seed(seed))
        assert not mine & seen
        seen |= mine
