"""Run one benchmark workload through ``surveymc.cli.main`` and print its metrics.

    python3 bench/run.py --workload fit_acceptance --seed 0 --seconds 55 --trace 0

``--trace 0`` times ops (one op is one CLI command) with tracing off and
prints the end-to-end metrics.  ``--trace 1`` runs untraced ops, then traced
ops, then one op in a child process with single-threaded BLAS, and prints the
per-layer metrics.  BLAS threading is left at the library default and only
recorded.  Every op is checked; a failed check fails the op, and any failed
op makes the command exit with code 1.  The last line of standard output is
the JSON result.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import ExitStack
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(ROOT)]

from bench.tracing import Tracer, layer_metrics, wrap_everywhere  # noqa: E402
from bench.workloads import WORKLOADS, nproc, program_seed, run_cli  # noqa: E402

RUNS = ROOT / ".bench_runs"
MIN_OPS = 3           # a median of three survives one stalled op
SETUP_REPEATS = 5

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Timed in a fresh interpreter: import surveymc, then load the workload's inputs.
_SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import surveymc, surveymc.io
if len(sys.argv) > 2:
    surveymc.io.load_dataset(sys.argv[2], sys.argv[3])
print(time.perf_counter() - t0)
"""


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref):
            return line.split()[0]
    return f"unknown ({ref})"


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": nproc(),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        **{var: os.environ.get(var, "unset") for var in BLAS_ENV},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
    }


def steal_seconds() -> float:
    """CPU time the hypervisor gave to other guests, summed over CPUs (Linux)."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()  # cpu user nice system idle iowait irq softirq steal
    except OSError:
        return math.nan
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def _with_units(values: dict, kind: str) -> dict:
    """The metrics of BENCHMARK.json section `kind` that `values` has, in its order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec[kind] if m["name"] in values}


def _digest(out: Path) -> dict[str, str]:
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


class Run:
    """Ops of one workload on fixed inputs, with the checks on every op."""

    def __init__(self, workload, seed: int, workdir: Path):
        self.workload = workload
        self.inputs = workdir / "inputs"
        self.out = workdir / "out"
        self.inputs.mkdir(parents=True)
        self.argv = workload.command(workload, program_seed(seed), self.inputs, self.out)
        self.walls: list[float] = []
        self.failed = 0
        self.rel_error: float | None = None
        self._digest: dict[str, str] | None = None
        self._trace_problems: list[str] = []

    def checked_fits(self):
        """Context manager failing the op of any fit whose objective trace rises."""
        from surveymc import solver

        def checker(fn):
            @functools.wraps(fn)
            def checked(*args, **kwargs):
                result = fn(*args, **kwargs)
                if np.any(np.diff(result.objective_trace) > 0):
                    self._trace_problems.append("objective trace increased in a fit")
                return result
            return checked
        return wrap_everywhere(solver.fit_completion, checker)

    def op(self, tracer=None) -> float:
        """Run one op; return its wall time.  Problems are reported on stderr.

        With a tracer, the op's spans carry op id len(walls) + 1.
        """
        import surveymc.cli
        shutil.rmtree(self.out, ignore_errors=True)
        del self._trace_problems[:]
        problems = []
        with ExitStack() as stack:
            if tracer is not None:
                stack.enter_context(tracer.op(len(self.walls) + 1))
            start = time.perf_counter()
            try:
                rc = run_cli(surveymc.cli.main, self.argv)
            except Exception:
                rc = None
                problems.append("exception escaped:\n" + traceback.format_exc())
            wall = time.perf_counter() - start
        if rc is not None and rc != 0:
            problems.append(f"exit code {rc}")
        problems += self._trace_problems
        if not problems:
            problems += self._check_outputs()
        if problems:
            self.failed += 1
            print(f"op {len(self.walls) + 1} failed: " + "; ".join(problems), file=sys.stderr)
        self.walls.append(wall)
        return wall

    def _check_outputs(self) -> list[str]:
        problems = []
        digest = _digest(self.out)
        if self._digest is None:
            self._digest = digest
        elif digest != self._digest:
            problems.append("output files differ from the first op's")
        try:
            rel_error = self.workload.score(self.inputs, self.out)
            problems += self.workload.check(self.out)
        except (OSError, KeyError, ValueError) as exc:
            return problems + [f"cannot score outputs: {exc!r}"]
        if not math.isfinite(rel_error):
            problems.append(f"rel_error is not finite: {rel_error}")
        self.rel_error = rel_error
        return problems

    def ops_until(self, deadline: float, min_ops: int, tracer=None) -> list[float]:
        """Run ops until the next one would end past `deadline` (perf_counter)."""
        walls = []
        while True:
            walls.append(self.op(tracer))
            if (len(walls) >= min_ops
                    and time.perf_counter() + statistics.median(walls) > deadline):
                return walls


def setup_seconds(run: Run) -> float:
    """Median over fresh interpreters of importing surveymc and loading the inputs."""
    data, schema = run.inputs / "data.csv", run.inputs / "schema.json"
    extra = [str(data), str(schema)] if data.is_file() else []
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", _SETUP_PROBE, str(SRC), *extra],
                              capture_output=True, text=True, timeout=60, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def blas1_fit_seconds(workload: str, seed: int) -> tuple[float | None, bool]:
    """solver.fit_s of one traced op in a child with single-threaded BLAS."""
    env = dict(os.environ, **{var: "1" for var in BLAS_ENV})
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", "1", "--blas1"]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=120)
    except subprocess.TimeoutExpired:
        print("blas1 child timed out", file=sys.stderr)
        return None, False
    if done.returncode != 0:
        print(f"blas1 child failed:\n{done.stderr}", file=sys.stderr)
        return None, False
    return json.loads(done.stdout.strip().splitlines()[-1])["solver.fit_s"], True


def run_workload(workload, seed: int, seconds: float, trace: bool, workdir: Path,
                 blas1: bool = True) -> tuple[dict, list[str]]:
    """Run one workload; return the JSON result and the human-readable lines."""
    run = Run(workload, seed, workdir)
    lines = []
    child_ops = child_failed = 0
    with run.checked_fits():
        if not trace:
            setup_s = setup_seconds(run)
            start, steal = time.perf_counter(), steal_seconds()
            run.ops_until(start + seconds, MIN_OPS)
            steal = steal_seconds() - steal
            metrics = {"wall_s": statistics.median(run.walls), "setup_s": setup_s,
                       "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                       "rel_error": run.rel_error}
            metrics = _with_units(metrics, "end_to_end")
            lines.append(f"wall_s: median of {len(run.walls)} ops, "
                         f"min {min(run.walls):.4f} s, max {max(run.walls):.4f} s")
            lines.append(f"setup_s: median of {SETUP_REPEATS} fresh interpreters")
            lines.append(f"cpu steal while timing: {steal:.2f} s "
                         f"over {time.perf_counter() - start:.1f} s of wall time")
        else:
            start = time.perf_counter()
            untraced = run.ops_until(start + seconds / 2, 1)
            tracer = Tracer()
            with tracer.installed():
                traced = run.ops_until(start + seconds, 1, tracer=tracer)
            tracer.write(workdir / "spans.json.gz")
            values = layer_metrics(tracer)
            values["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
            if blas1:
                values["solver.fit_s.blas1"], ok = blas1_fit_seconds(workload.name, seed)
                child_ops, child_failed = 1, int(not ok)
            metrics = _with_units(values, "per_layer")
            lines.append(f"traced {len(traced)} ops after {len(untraced)} untraced ops; "
                         f"spans in {workdir / 'spans.json.gz'}")
    attempted, failed = len(run.walls) + child_ops, run.failed + child_failed
    lines.append(f"failed_frac: {failed / attempted:g} ({failed} of {attempted} ops)")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--blas1", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "surveymc" / "__init__.py").is_file():
        print(f"no surveymc sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS or args.seed < 0:
        print(f"unknown workload or negative seed; workloads: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-blas1" if args.blas1 else "")
    workdir = RUNS / tag
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        if args.blas1:
            run = Run(WORKLOADS[args.workload], args.seed, workdir)
            tracer = Tracer()
            with run.checked_fits(), tracer.installed():
                run.op(tracer=tracer)
            print(json.dumps({"solver.fit_s": layer_metrics(tracer)["solver.fit_s"]}))
            return 1 if run.failed else 0
        env = environment()
        result, lines = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                                     bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir / "inputs", ignore_errors=True)
        shutil.rmtree(workdir / "out", ignore_errors=True)

    print("env " + json.dumps(env, sort_keys=True))
    for name, metric in result["metrics"].items():
        value = "n/a" if metric["value"] is None else format(metric["value"], ".6g")
        print(f"{name:36s} {value:>14s} {metric['unit']}")
    for line in lines:
        print(line)
    (workdir / "result.json").write_text(
        json.dumps({"env": env, "workload": args.workload, "seed": args.seed,
                    "trace": args.trace, **result}, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
