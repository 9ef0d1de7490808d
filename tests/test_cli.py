"""End-to-end command line runs, config handling, and exit codes."""

import argparse
import csv
import json
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import surveymc.baselines
import surveymc.benchmark
import surveymc.cli as cli
import surveymc.errors
import surveymc.simulator
import surveymc.solver
from surveymc.errors import NumericalFailure
from surveymc.io import load_dataset, load_matrix_csv, parse_tau_grid, save_dataset
from surveymc.response_model import estimate_response_probs
from surveymc.solver import DEFAULT_TAU_GRID

TINY_DESIGN = ["--strata", "3", "--m1", "3", "--m2", "8",
               "--blocks", "gaussian:4,poisson:4,bernoulli:4",
               "--covariates", "2"]


def run(argv):
    return cli.main(argv)


def simulate_into(d, seed="0"):
    assert run(["simulate", *TINY_DESIGN, "--seed", seed, "--out", str(d)]) == 0
    return d


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    return simulate_into(tmp_path_factory.mktemp("sim"))


def fit_args(sim_dir, out, extra=()):
    return ["fit", "--data", str(sim_dir / "data.csv"),
            "--schema", str(sim_dir / "schema.json"),
            "--tau", "0.00390625", "--iterations", "40",
            *extra, "--out", str(out)]


def test_simulate_writes_expected_files(sim_dir):
    for name in ("data.csv", "schema.json", "truth_z.csv", "truth_p.csv",
                 "meta.json"):
        assert (sim_dir / name).is_file()
    meta = json.loads((sim_dir / "meta.json").read_text())
    assert meta["seed"] == 0 and meta["n_rows"] > 0
    assert 0.0 < meta["response_rate"] < 1.0


def test_simulate_reruns_byte_identical(sim_dir, tmp_path):
    other = simulate_into(tmp_path / "again")
    for name in ("data.csv", "schema.json", "truth_z.csv", "truth_p.csv"):
        assert (sim_dir / name).read_bytes() == (other / name).read_bytes()


def test_fit_outputs_and_determinism(sim_dir, tmp_path):
    out1, out2 = tmp_path / "f1", tmp_path / "f2"
    assert run(fit_args(sim_dir, out1)) == 0
    assert run(fit_args(sim_dir, out2)) == 0
    for name in ("z_hat.csv", "p_hat.csv", "trace.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    metas = [json.loads((o / "meta.json").read_text()) for o in (out1, out2)]
    for m in metas:
        m.pop("out")
    assert metas[0] == metas[1]
    trace = (out1 / "trace.csv").read_text().splitlines()
    assert trace[0] == "k,objective,accepted"
    objs = [float(ln.split(",")[1]) for ln in trace[1:]]
    assert all(b <= a for a, b in zip(objs, objs[1:]))
    Z = load_matrix_csv(out1 / "z_hat.csv")
    assert Z.shape[1] == 12 and not np.isnan(Z).any()


@pytest.mark.parametrize("iterations, stop", [("3", "cap"), ("5000", "fixed_point")])
def test_fit_reports_how_it_stopped(sim_dir, tmp_path, capsys, iterations, stop):
    out = tmp_path / "f"
    argv = fit_args(sim_dir, out)
    argv[argv.index("--iterations") + 1] = iterations
    assert run(argv) == 0
    diag = json.loads((out / "meta.json").read_text())["diagnostics"]
    assert diag["stop"] == stop and diag["restarts"] >= 0
    k = len((out / "trace.csv").read_text().splitlines()) - 2
    assert (k == 3) == (stop == "cap") and k < 5000
    said = {"cap": "the cap", "fixed_point": "a fixed point"}[stop]
    assert capsys.readouterr().out.endswith(f"after {k} iterations, stopped at {said}\n")


def test_fit_is_byte_identical_across_blas_thread_counts(tmp_path):
    # the default design (900 x 90 plus 3 covariates) is large enough for
    # OpenBLAS to split its products across threads
    sim = tmp_path / "sim"
    assert run(["simulate", "--seed", "2", "--out", str(sim)]) == 0
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}"
        proc = subprocess.run([sys.executable, "-m", "surveymc", "fit",
                               "--data", str(sim / "data.csv"),
                               "--schema", str(sim / "schema.json"),
                               "--tau", "0.0009765625", "--iterations", "40",
                               "--out", str(out)],
                              env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outs.append(out)
    for name in ("z_hat.csv", "p_hat.csv", "trace.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    metas = [json.loads((o / "meta.json").read_text()) for o in outs]
    for m in metas:
        m.pop("out")
    assert metas[0] == metas[1]


def test_fit_reads_a_schema_data_and_config_that_start_with_a_bom(sim_dir, tmp_path):
    # Excel's "CSV UTF-8" and some editors put a UTF-8 byte-order mark first
    bom = b"\xef\xbb\xbf"
    marked = tmp_path / "marked"
    marked.mkdir()
    for name in ("data.csv", "schema.json"):
        (marked / name).write_bytes(bom + (sim_dir / name).read_bytes())
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(bom + b'{"clamp": 30}')
    assert run(fit_args(sim_dir, tmp_path / "plain")) == 0
    assert run(["--config", str(cfg), *fit_args(marked, tmp_path / "f")]) == 0
    for name in ("z_hat.csv", "p_hat.csv", "trace.csv"):
        assert (tmp_path / "f" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()


@pytest.mark.parametrize("command", ["fit", "impute", "tune"])
def test_meta_counts_the_stage_one_cells(sim_dir, tmp_path, command):
    # a covariate split makes stratum 1's first column separated, and its
    # second column all observed
    ds = load_dataset(sim_dir / "data.csv", sim_dir / "schema.json")
    R, in1 = ds.R.copy(), ds.strata == 1
    R[in1, 0] = ds.X[in1, 0] > np.median(ds.X[in1, 0])
    R[in1, 1] = True
    data = tmp_path / "data.csv"
    save_dataset(replace(ds, Y=np.where(R, np.nan_to_num(ds.Y, nan=1.0), np.nan)),
                 data, tmp_path / "schema.json")
    probs = estimate_response_probs(load_dataset(data, tmp_path / "schema.json"))
    argv = fit_args(tmp_path, tmp_path / "out")
    argv[0] = command
    if command == "tune":
        argv[argv.index("--tau"):argv.index("--tau") + 2] = ["--grid", "2^-8,2^-6"]
    assert run(argv) == 0
    stage_one = json.loads((tmp_path / "out" / "meta.json").read_text())["stage_one"]
    assert stage_one == {"degenerate_cells": len(probs.degenerate_cells),
                         "fallback_cells": len(probs.fallback_cells),
                         "nonconverged_cells": len(probs.nonconverged_cells)}
    assert stage_one["degenerate_cells"] >= 1 and stage_one["fallback_cells"] >= 1


def test_impute_preserves_observed_and_fills_missing(sim_dir, tmp_path):
    out = tmp_path / "imp"
    argv = ["impute", "--data", str(sim_dir / "data.csv"),
            "--schema", str(sim_dir / "schema.json"),
            "--tau", "0.00390625", "--iterations", "40", "--out", str(out)]
    assert run(argv) == 0
    imputed = load_matrix_csv(out / "imputed.csv")
    assert not np.isnan(imputed).any()
    # observed entries pass through unchanged
    from surveymc.io import load_dataset
    ds = load_dataset(sim_dir / "data.csv", sim_dir / "schema.json")
    np.testing.assert_array_equal(imputed[ds.R], ds.Y[ds.R])


def test_impute_standardize_writes_the_data_files_observed_tokens(sim_dir, tmp_path):
    # under --standardize the fitted means map back to the file's scale, and
    # the observed entries are the file's own values, not standardized ones
    out = tmp_path / "imp"
    assert run(["impute", *fit_args(sim_dir, out, ["--standardize"])[1:]]) == 0
    with open(sim_dir / "data.csv", newline="", encoding="utf-8") as fh:
        data = list(csv.reader(fh))
    with open(out / "imputed.csv", newline="", encoding="utf-8") as fh:
        imputed = list(csv.reader(fh))
    width = len(imputed[0])
    pairs = [(d, i) for drow, irow in zip(data[1:], imputed[1:], strict=True)
             for d, i in zip(drow[-width:], irow) if d != "NA"]
    assert pairs and all(d == i for d, i in pairs)


@pytest.mark.parametrize("extra", [[], ["--standardize", "--design-weighted",
                                         "--population-size", "1000"]])
def test_fit_and_impute_share_one_fit(sim_dir, tmp_path, extra):
    # impute runs fit's one output step, then writes imputed.csv
    outs = {command: tmp_path / command for command in ("fit", "impute")}
    for command, out in outs.items():
        assert run([command, *fit_args(sim_dir, out, extra)[1:]]) == 0
    for name in ("z_hat.csv", "p_hat.csv", "trace.csv"):
        assert (outs["fit"] / name).read_bytes() == (outs["impute"] / name).read_bytes()
    fit, impute = (json.loads((out / "meta.json").read_text()) for out in outs.values())
    assert (fit.pop("command"), impute.pop("command")) == ("fit", "impute")
    # each names its own --out directory
    assert (fit.pop("out"), impute.pop("out")) == (str(outs["fit"]), str(outs["impute"]))
    assert json.dumps(fit) == json.dumps(impute)


_STAGE_TWO = {"diagnostics", "iterations_run", "stage_one"}
META_RUNS = {  # each command's argv less its inputs and --out, and the entries it adds
    "simulate": (["simulate", *TINY_DESIGN], {"n_rows", "response_rate"}),
    "fit": (["fit", "--tau", "0.00390625", "--iterations", "10"], _STAGE_TWO),
    "impute": (["impute", "--tau", "0.00390625", "--iterations", "10"], _STAGE_TWO),
    "tune": (["tune", "--grid", "2^-6..2^-4", "--folds", "2", "--iterations", "10"],
             {"best_tau", "stage_one"}),
    "benchmark": (["benchmark", *TINY_DESIGN, "--methods", "ipw,hot_deck", "--replicates",
                   "2", "--tau", "0.00390625", "--iterations", "10"],
                  {"taus", "n_failures", "failures"}),
}


@pytest.mark.parametrize("command", sorted(META_RUNS))
def test_meta_json_holds_the_parsed_flags_and_the_commands_entries(sim_dir, tmp_path,
                                                                   command):
    head, entries = META_RUNS[command]
    data = ["--data", str(sim_dir / "data.csv"), "--schema", str(sim_dir / "schema.json")]
    argv = [*head, *(data if command in ("fit", "impute", "tune") else []),
            "--out", str(tmp_path / "o")]
    assert run(argv) == 0
    meta = json.loads((tmp_path / "o" / "meta.json").read_text())
    flags = {k: v for k, v in vars(cli.build_parser().parse_args(argv)).items()
             if k not in ("func", "config")}
    assert set(meta) == set(flags) | entries and not set(flags) & entries
    assert {k: meta[k] for k in flags} == flags


def test_a_command_that_fails_after_a_data_file_leaves_no_meta_json(sim_dir, tmp_path):
    out = tmp_path / "imp"
    (out / "imputed.csv").mkdir(parents=True)
    assert run(["impute", *fit_args(sim_dir, out)[1:]]) == 3
    assert (out / "z_hat.csv").is_file() and not (out / "meta.json").exists()


def test_permuting_the_data_files_rows_permutes_z_hats_rows(sim_dir, tmp_path):
    header, *rows = (sim_dir / "data.csv").read_bytes().splitlines(keepends=True)
    perm = np.random.default_rng(3).permutation(len(rows))
    (tmp_path / "data.csv").write_bytes(header + b"".join(rows[i] for i in perm))
    (tmp_path / "schema.json").write_bytes((sim_dir / "schema.json").read_bytes())
    outs = (tmp_path / "base", tmp_path / "moved")
    assert run(fit_args(sim_dir, outs[0])) == 0 and run(fit_args(tmp_path, outs[1])) == 0
    iterations = [json.loads((out / "meta.json").read_text())["iterations_run"] for out in outs]
    assert iterations[0] == iterations[1]
    base, moved = (load_matrix_csv(out / "z_hat.csv") for out in outs)
    # a permutation reorders sums, so the two agree to round-off
    assert np.linalg.norm(moved - base[perm]) <= 1e-10 * np.linalg.norm(base)


def test_tune_writes_scores(sim_dir, tmp_path):
    out = tmp_path / "tune"
    argv = ["tune", "--data", str(sim_dir / "data.csv"),
            "--schema", str(sim_dir / "schema.json"),
            "--grid", "2^-12..2^-2", "--folds", "2", "--iterations", "25",
            "--out", str(out)]
    assert run(argv) == 0
    lines = (out / "tau_scores.csv").read_text().splitlines()
    assert lines[0] == "tau,score"
    # the scan from 2^-2 down stopped before 2^-12: the file holds the grid's
    # largest taus, ascending, and the best of them
    grid = [2.0**k for k in range(-12, -1)]
    taus = [float(line.split(",")[0]) for line in lines[1:]]
    assert 2 <= len(taus) < len(grid) and taus == grid[len(grid) - len(taus):]
    assert json.loads((out / "meta.json").read_text())["best_tau"] in taus


def test_config_supplies_defaults_and_flags_override(sim_dir, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"iterations": 30, "tau": 0.25,
                               "out": str(tmp_path / "ignored")}))
    out = tmp_path / "cfged"
    argv = ["--config", str(cfg), "fit",
            "--data", str(sim_dir / "data.csv"),
            "--schema", str(sim_dir / "schema.json"),
            "--tau", "0.125", "--out", str(out)]
    assert run(argv) == 0
    meta = json.loads((out / "meta.json").read_text())
    assert meta["iterations"] == 30      # from the config file
    assert meta["tau"] == 0.125          # explicit flag wins
    assert meta["out"] == str(out)


def test_config_equals_path_applies_the_file(sim_dir, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"iterations": 3}))
    out = tmp_path / "cfged"
    argv = [f"--config={cfg}", "fit", "--data", str(sim_dir / "data.csv"),
            "--schema", str(sim_dir / "schema.json"), "--tau", "0.125", "--out", str(out)]
    assert run(argv) == 0
    assert json.loads((out / "meta.json").read_text())["iterations"] == 3


@pytest.mark.parametrize("doc, code", [({"iterations": False}, 2), ({"nonsense": False}, 2),
                                       ({"original_scale": False}, 2),  # a removed flag
                                       ({"standardize": False}, 0)])
def test_config_false_only_leaves_an_on_off_flag_off(sim_dir, tmp_path, capsys, doc, code):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "f"
    assert run(["--config", str(cfg), *fit_args(sim_dir, out)]) == code
    if code:
        assert repr(next(iter(doc))) in capsys.readouterr().err
    else:
        assert json.loads((out / "meta.json").read_text())["standardize"] is False


def test_abbreviated_config_flag_exits_via_argparse(sim_dir, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"iterations": 3}))
    with pytest.raises(SystemExit) as exc:
        run(["--conf", str(cfg), *fit_args(sim_dir, tmp_path / "f")])
    assert exc.value.code == 2


def test_bad_block_token_is_usage_error(tmp_path):
    code = run(["simulate", "--blocks", "gauss;3", "--out", str(tmp_path / "x")])
    assert code == 2


@pytest.mark.parametrize("command", ["simulate", "benchmark"])
def test_exponential_blocks_are_usage_error_before_any_draw(tmp_path, capsys, monkeypatch,
                                                            command):
    def no_draw(*args, **kwargs):
        raise AssertionError("drew a population")
    monkeypatch.setattr(surveymc.simulator, "generate_population", no_draw)
    code = run([command, "--blocks", "gaussian:2,exponential:2", "--out", str(tmp_path / "x")])
    assert code == 2
    assert "exponential family's domain" in capsys.readouterr().err


def test_fit_runs_on_a_dataset_without_covariates(sim_dir, tmp_path):
    # drop the covariate columns x1, x2 from the simulated CSV and its schema
    schema = json.loads((sim_dir / "schema.json").read_text())
    keep = [i for i, c in enumerate(schema["columns"]) if c["role"] != "covariate"]
    schema["columns"] = [schema["columns"][i] for i in keep]
    (tmp_path / "schema.json").write_text(json.dumps(schema))
    lines = (sim_dir / "data.csv").read_text().splitlines()
    (tmp_path / "data.csv").write_text("\n".join(
        ",".join(line.split(",")[i] for i in keep) for line in lines) + "\n")
    data = ["--data", str(tmp_path / "data.csv"), "--schema", str(tmp_path / "schema.json")]
    assert run(["fit", *data, "--tau", "0.00390625", "--iterations", "40",
                "--out", str(tmp_path / "f")]) == 0
    assert run(["impute", *data, "--tau", "0.00390625", "--iterations", "40",
                "--standardize", "--out", str(tmp_path / "i")]) == 0
    meta = json.loads((tmp_path / "f" / "meta.json").read_text())
    assert meta["diagnostics"]["rank_estimate"] >= 1


def test_missing_config_is_usage_error(tmp_path):
    code = run(["--config", str(tmp_path / "none.json"), "simulate",
                "--out", str(tmp_path / "x")])
    assert code == 2


def test_missing_data_file_is_data_error(sim_dir, tmp_path):
    argv = ["fit", "--data", str(tmp_path / "nope.csv"),
            "--schema", str(sim_dir / "schema.json"),
            "--tau", "0.1", "--out", str(tmp_path / "x")]
    assert run(argv) == 3


def test_schema_mismatch_is_data_error(sim_dir, tmp_path):
    bad = tmp_path / "bad.json"
    doc = json.loads((sim_dir / "schema.json").read_text())
    doc["columns"] = doc["columns"][::-1]
    bad.write_text(json.dumps(doc))
    argv = ["fit", "--data", str(sim_dir / "data.csv"), "--schema", str(bad),
            "--tau", "0.1", "--out", str(tmp_path / "x")]
    assert run(argv) == 3


@pytest.mark.parametrize("col, token", [(-1, b"nan"), (2, b"inf"), (3, b"\xff"),
                                        (3, b"1" * 131073)],
                         ids=["nan-response", "inf-covariate", "non-utf8", "long-field"])
def test_non_finite_or_unreadable_data_is_data_error(sim_dir, tmp_path, col, token):
    lines = (sim_dir / "data.csv").read_bytes().split(b"\r\n")
    fields = lines[1].split(b",")
    fields[col] = token
    lines[1] = b",".join(fields)
    data = tmp_path / "bad.csv"
    data.write_bytes(b"\r\n".join(lines))
    argv = ["fit", "--data", str(data), "--schema", str(sim_dir / "schema.json"),
            "--tau", "0.1", "--out", str(tmp_path / "x")]
    assert run(argv) == 3


@pytest.mark.parametrize("grid", ["2^2000", "2^-3..2^1100"])
def test_overflowing_tau_grid_is_usage_error(sim_dir, tmp_path, grid):
    argv = ["tune", "--data", str(sim_dir / "data.csv"),
            "--schema", str(sim_dir / "schema.json"),
            "--grid", grid, "--out", str(tmp_path / "x")]
    assert run(argv) == 2


def test_numerical_failure_exit_code(sim_dir, tmp_path, monkeypatch):
    def boom(*a, **k):
        raise NumericalFailure("synthetic blow-up")
    monkeypatch.setattr(cli, "fit_completion", boom)
    assert run(fit_args(sim_dir, tmp_path / "x")) == 4


@pytest.mark.parametrize("error", [*surveymc.errors.SurveyMCError.__subclasses__(),
                                   FileNotFoundError, PermissionError],
                         ids=lambda e: e.__name__)
def test_each_error_exits_with_its_code_and_label(tmp_path, monkeypatch, capsys, error):
    def boom(*a, **k):
        raise error("synthetic")
    monkeypatch.setattr(cli, "simulate_survey", boom)
    code = run(["simulate", *TINY_DESIGN, "--out", str(tmp_path / "x")])
    want = {surveymc.errors.InvalidInput: (2, "usage error: synthetic\n"),
            surveymc.errors.NumericalFailure: (4, "numerical failure: NumericalFailure: synthetic\n"),
            surveymc.errors.DomainError: (4, "numerical failure: DomainError: synthetic\n")}
    assert (code, capsys.readouterr().err) == want.get(
        error, (3, f"data error: {error.__name__}: synthetic\n"))


def with_population_size(sim_dir, tmp_path, size):
    """A copy of the simulated schema that stores `size` as its population size."""
    schema = tmp_path / f"schema_{size}.json"
    doc = json.loads((sim_dir / "schema.json").read_text())
    doc["population_size"] = size
    schema.write_text(json.dumps(doc))
    return schema


COMMAND_ARGS = {"fit": ["--tau", "0.00390625", "--iterations", "40"],
                "impute": ["--tau", "0.00390625", "--iterations", "40"],
                "tune": ["--grid", "2^-8,2^-4", "--folds", "2", "--iterations", "20"]}


@pytest.mark.parametrize("command", sorted(COMMAND_ARGS))
def test_population_size_flag_writes_what_the_schema_size_writes(sim_dir, tmp_path,
                                                                 command):
    stored = json.loads((sim_dir / "schema.json").read_text())["population_size"]
    size = 2.5 * stored
    outs = {}
    for name, schema, extra in [("flag", sim_dir / "schema.json", ["--population-size", str(size)]),
                                ("schema", with_population_size(sim_dir, tmp_path, size), []),
                                ("stored", sim_dir / "schema.json", [])]:
        outs[name] = tmp_path / name
        assert run([command, "--data", str(sim_dir / "data.csv"), "--schema", str(schema),
                    *COMMAND_ARGS[command], *extra, "--out", str(outs[name])]) == 0
    names = sorted(p.name for p in outs["flag"].iterdir() if p.name != "meta.json")
    assert names == sorted(p.name for p in outs["schema"].iterdir() if p.name != "meta.json")
    for name in names:
        assert (outs["flag"] / name).read_bytes() == (outs["schema"] / name).read_bytes()
    # the size moves the weights (tune's scores, the others' fits)
    assert any((outs["flag"] / name).read_bytes() != (outs["stored"] / name).read_bytes()
               for name in names)
    if command != "tune":
        metas = [json.loads((outs[k] / "meta.json").read_text())["diagnostics"]
                 for k in ("flag", "schema", "stored")]
        assert metas[0] == metas[1] and metas[0]["population_size"] == size
        assert metas[2]["population_size"] == stored


@pytest.mark.parametrize("size, code", [("inf", 2), ("-inf", 2), ("nan", 2), ("0", 2),
                                        ("1e308", 4)])
def test_bad_population_size_flag_exit_code(sim_dir, tmp_path, size, code):
    # at 1e308, N * L overflows and every weight is 0: no finite step size
    assert run(fit_args(sim_dir, tmp_path / "x", [f"--population-size={size}"])) == code


@pytest.mark.parametrize("size", ["5e-324", "1e-310"])
def test_population_size_that_overflows_a_weight_names_n(sim_dir, tmp_path, capsys, size):
    assert run(fit_args(sim_dir, tmp_path / "x", [f"--population-size={size}"])) == 4
    assert f"population size N={float(size)!r}" in capsys.readouterr().err


def test_default_grid_text_is_the_default_tau_grid():
    # the --grid defaults are pinned in FLAG_DEFAULTS below
    assert parse_tau_grid(cli.DEFAULT_GRID) == DEFAULT_TAU_GRID


@pytest.mark.parametrize("change", [{"sigma": 1e200}, {"sigma": 1e-200},
                                    {"family": "gamma"}])
def test_bad_response_family_in_schema_is_data_error(sim_dir, tmp_path, capsys, change):
    schema = json.loads((sim_dir / "schema.json").read_text())
    col = next(c for c in schema["columns"] if c.get("family") == "gaussian")
    col.update(change)
    (tmp_path / "schema.json").write_text(json.dumps(schema))
    argv = ["fit", "--data", str(sim_dir / "data.csv"),
            "--schema", str(tmp_path / "schema.json"),
            "--tau", "0.1", "--out", str(tmp_path / "x")]
    assert run(argv) == 3
    assert capsys.readouterr().err.startswith("data error:")


def test_non_finite_schema_population_size_is_data_error(sim_dir, tmp_path):
    schema = tmp_path / "s.json"
    schema.write_text((sim_dir / "schema.json").read_text().replace(
        '"population_size": ', '"population_size": Infinity, "was": '))
    argv = ["fit", "--data", str(sim_dir / "data.csv"), "--schema", str(schema),
            "--tau", "0.1", "--out", str(tmp_path / "x")]
    assert run(argv) == 3


def test_boolean_schema_population_size_is_data_error(sim_dir, tmp_path, capsys):
    doc = json.loads((sim_dir / "schema.json").read_text())
    doc["population_size"] = True
    (tmp_path / "s.json").write_text(json.dumps(doc))
    argv = ["fit", "--data", str(sim_dir / "data.csv"), "--schema", str(tmp_path / "s.json"),
            "--tau", "0.1", "--out", str(tmp_path / "x")]
    assert run(argv) == 3
    assert "population_size must be a JSON number" in capsys.readouterr().err


def test_unknown_flag_exits_via_argparse():
    with pytest.raises(SystemExit) as exc:
        run(["fit", "--frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("flag, value", [("--step-size", "0.5"),
                                         ("--step-mode", "as_printed")])
def test_removed_step_flags_exit_via_argparse(sim_dir, tmp_path, flag, value):
    with pytest.raises(SystemExit) as exc:
        run(fit_args(sim_dir, tmp_path / "f", [flag, value]))
    assert exc.value.code == 2


def test_config_with_removed_step_key_exits_via_argparse(sim_dir, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"step_size": 0.5}))
    with pytest.raises(SystemExit) as exc:
        run(["--config", str(cfg), *fit_args(sim_dir, tmp_path / "f")])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["simulate", "tune"])
def test_negative_seed_is_usage_error(sim_dir, tmp_path, command):
    data = ["--data", str(sim_dir / "data.csv"), "--schema", str(sim_dir / "schema.json")]
    head = {"simulate": ["simulate", *TINY_DESIGN], "tune": ["tune", *data]}[command]
    assert run([*head, "--seed", "-1", "--out", str(tmp_path / "o")]) == 2


def test_benchmark_fixed_tau_and_determinism(tmp_path):
    # --threads is checked and recorded, and cannot change a result
    outs = [tmp_path / "b1", tmp_path / "b3"]
    for out, threads in zip(outs, ("1", "3")):
        argv = ["benchmark", *TINY_DESIGN, "--methods", "ipw,hot_deck",
                "--replicates", "2", "--seed", "11", "--tau", "0.00390625",
                "--iterations", "30", "--threads", threads, "--out", str(out)]
        assert run(argv) == 0
        assert json.loads((out / "meta.json").read_text())["threads"] == int(threads)
    for name in ("summary.csv", "replicates.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    header = (outs[0] / "summary.csv").read_text().splitlines()[0]
    assert header == "method,scenario,block,mean_re,se_re,n_replicates,n_failures"


def test_benchmark_names_each_failure_and_prints_a_lone_standard_error_as_na(
        tmp_path, monkeypatch, capsys):
    calls, hot_deck = [], surveymc.benchmark.hot_deck

    def first_only(ds, rng, clamp):
        calls.append(1)
        if len(calls) > 1:
            raise NumericalFailure("synthetic")
        return hot_deck(ds, rng, clamp=clamp)
    monkeypatch.setattr(surveymc.benchmark, "hot_deck", first_only)
    out = tmp_path / "b"
    assert run(["benchmark", *TINY_DESIGN, "--methods", "hot_deck", "--replicates", "3",
                "--tau", "0.01", "--out", str(out)]) == 0
    assert "+/- NA (1 replicates)" in capsys.readouterr().out
    meta = json.loads((out / "meta.json").read_text())
    assert meta["n_failures"] == {"hot_deck": 2}
    assert meta["failures"] == {"hot_deck": {"2": "NumericalFailure: synthetic",
                                             "3": "NumericalFailure: synthetic"}}


def test_benchmark_csvs_list_eleven_blocks_in_layout_order(tmp_path):
    blocks = ",".join(f"{('gaussian', 'poisson')[i % 2]}:1" for i in range(11))
    argv = ["benchmark", "--strata", "3", "--m1", "3", "--m2", "4", "--covariates", "1",
            "--blocks", blocks, "--methods", "hot_deck", "--replicates", "2",
            "--tau", "0.1", "--out", str(tmp_path / "b")]
    assert run(argv) == 0
    labels = [ln.split(",")[2] for ln in
              (tmp_path / "b" / "summary.csv").read_text().splitlines()[1:]]
    assert labels == (["overall"] + [f"block{i + 1}_{('gaussian', 'poisson')[i % 2]}"
                                     for i in range(11)] + ["overall_mean_scale"])


def test_module_entry_point_help():
    proc = subprocess.run([sys.executable, "-m", "surveymc", "--help"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert "simulate" in proc.stdout and "benchmark" in proc.stdout


def test_import_loads_numpy_but_no_scipy():
    # nor concurrent.futures: the benchmark runs its replicates in one thread
    src = os.path.dirname(os.path.dirname(surveymc.solver.__file__))
    code = ("import sys, surveymc; print(sorted({m.split('.')[0] for m in sys.modules}"
            " & {'numpy', 'scipy'}), 'concurrent.futures' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['numpy'] False"


# an unknown or repeated method, one replicate, zero threads (ignored, but
# still checked), a negative seed or a tau out of range fail before tuning and
# before the replicates
@pytest.mark.parametrize("extra", [["--methods", "ipw,nope"], ["--replicates", "1"],
                                   ["--threads", "0"],
                                   ["--threads", "0", "--tau", "0.1"],
                                   ["--tau", "0"], ["--tau", "nan"],
                                   ["--seed", "-1"],
                                   ["--methods", "hot_deck,hot_deck"]])
def test_benchmark_bad_arguments_fail_before_any_fit(tmp_path, monkeypatch, extra):
    def boom(*a, **k):
        raise AssertionError("fit_completion called")
    for module in (surveymc.solver, surveymc.benchmark, surveymc.baselines):
        monkeypatch.setattr(module, "fit_completion", boom)
    argv = ["benchmark", *TINY_DESIGN, "--replicates", "2", "--iterations", "5",
            "--grid", "2^-4", *extra, "--out", str(tmp_path / "b")]
    assert run(argv) == 2


_SOLVER = {"--iterations": 200, "--clamp": 30.0}
_DATA = {"--data": None, "--schema": None, "--standardize": False, "--p-floor": 0.01,
         "--design-weighted": False}
_DESIGN = {"--strata": 9, "--m1": 5, "--m2": 20, "--covariates": 3,
           "--blocks": "gaussian:30,poisson:30,bernoulli:30", "--sigma": 1.0, "--xi": 0.3}
_FIT = {**_DATA, "--tau": None, **_SOLVER, "--population-size": None, "--out": None}
FLAG_DEFAULTS = {
    "simulate": {**_DESIGN, "--seed": 0, "--out": None},
    "fit": _FIT,
    "impute": _FIT,
    "tune": {**_DATA, "--grid": "2^-15..2^-1,1,2", "--folds": 5, "--seed": 0, **_SOLVER,
             "--population-size": None, "--out": None},
    "benchmark": {**_DESIGN, "--methods": "ipw,collective_unweighted,soft_impute,hot_deck",
                  "--replicates": 20, "--seed": 1, "--tau": None,
                  "--grid": "2^-15..2^-1,1,2", **_SOLVER, "--p-floor": 0.01,
                  "--threads": 1, "--out": None},
}
REQUIRED = {"simulate": {"--out"}, "fit": {"--data", "--schema", "--tau", "--out"},
            "impute": {"--data", "--schema", "--tau", "--out"},
            "tune": {"--data", "--schema", "--out"}, "benchmark": {"--out"}}


@pytest.mark.parametrize("command", sorted(FLAG_DEFAULTS))
def test_subcommand_flags_and_defaults(command):
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
    actions = [a for a in subparsers.choices[command]._actions
               if a.option_strings and a.dest != "help"]
    assert {a.option_strings[0]: a.default for a in actions} == FLAG_DEFAULTS[command]
    assert {a.option_strings[0] for a in actions if a.required} == REQUIRED[command]
    assert not any(a.choices for a in actions)
