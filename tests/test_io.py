"""Schema and CSV round trips, result writers, and tau grid parsing."""

import json
import math
from dataclasses import replace
from itertools import groupby

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import surveymc as smc
from surveymc.benchmark import BenchmarkSummary, ReplicationReport
from surveymc.errors import InvalidInput, SchemaViolation, SurveyMCError
from surveymc.families import FAMILY_NAMES, Block
from surveymc.io import (ColumnSpec, SchemaFile, _write_csv, default_schema, fmt,
                         load_dataset, load_matrix_csv, load_schema,
                         parse_tau_grid, save_dataset, save_matrix_csv,
                         write_benchmark_csvs, write_meta_json, write_trace_csv)
from surveymc.simulator import PopulationSpec, simulate_survey

from helpers import nan_masks, random_problem

GPB = smc.CategoryLayout.of(("gaussian", 2), ("poisson", 2), ("bernoulli", 2))


@pytest.mark.parametrize("x", [0.1, 1.0 / 3.0, np.pi, 1e-300, 5e-324,
                               -2.5e17, 0.0, -0.0, 1.0 + 2**-52])
def test_fmt_round_trips_float64(x):
    assert float(fmt(x)) == x


def small_dataset(rng):
    spec = PopulationSpec(n_strata=3, layout=GPB, m1=3, m2=8,
                          xi=0.3, n_covariates=2)
    _, sample = simulate_survey(spec, rng)
    return sample.dataset


def test_save_load_round_trip_bit_exact(tmp_path):
    ds = small_dataset(np.random.default_rng(7))
    data, schema = tmp_path / "d.csv", tmp_path / "s.json"
    save_dataset(ds, data, schema)
    back = load_dataset(data, schema)
    npt.assert_array_equal(back.Y, ds.Y)           # NaN pattern included
    npt.assert_array_equal(back.R, ds.R)
    npt.assert_array_equal(back.X, ds.X)
    npt.assert_array_equal(back.strata, ds.strata)
    npt.assert_array_equal(back.pi, ds.pi)
    assert back.layout == ds.layout
    assert back.population_size == ds.population_size


def test_round_trip_covers_exponential_columns(tmp_path):
    ds, _, _ = random_problem(np.random.default_rng(11))
    data, schema = tmp_path / "d.csv", tmp_path / "s.json"
    save_dataset(ds, data, schema)
    back = load_dataset(data, schema)
    npt.assert_array_equal(back.Y, ds.Y)
    assert back.layout == ds.layout
    assert any(fam.kind == "exponential" for fam, _ in back.layout.slices())


def test_save_load_twice_identical_bytes(tmp_path):
    ds = small_dataset(np.random.default_rng(8))
    paths = [(tmp_path / f"d{i}.csv", tmp_path / f"s{i}.json") for i in (0, 1)]
    for data, schema in paths:
        save_dataset(ds, data, schema)
    assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
    assert paths[0][1].read_bytes() == paths[1][1].read_bytes()


@pytest.mark.parametrize("bad", ["data", "schema"])
def test_save_dataset_that_fails_leaves_no_file(tmp_path, bad):
    # the bad path names a directory that does not exist
    ds = small_dataset(np.random.default_rng(9))
    paths = {"data": tmp_path / "d.csv", "schema": tmp_path / "s.json"}
    paths[bad] = tmp_path / "no_such_dir" / paths[bad].name
    with pytest.raises(FileNotFoundError):
        save_dataset(ds, paths["data"], paths["schema"])
    assert list(tmp_path.iterdir()) == []


def make_cols(**over):
    cols = [ColumnSpec("stratum", "stratum"), ColumnSpec("pi", "weight"),
            ColumnSpec("x1", "covariate"),
            ColumnSpec("y1", "response", family="gaussian"),
            ColumnSpec("y2", "response", family="bernoulli")]
    return tuple(over.get(c.name, c) for c in cols)


def test_schema_rejects_duplicate_names():
    cols = make_cols(y2=ColumnSpec("y1", "response", family="bernoulli"))
    with pytest.raises(SchemaViolation):
        SchemaFile(columns=cols)


def test_schema_rejects_two_stratum_columns():
    cols = make_cols(x1=ColumnSpec("x1", "stratum"))
    with pytest.raises(SchemaViolation):
        SchemaFile(columns=cols)


def test_schema_rejects_family_on_covariate():
    cols = make_cols(x1=ColumnSpec("x1", "covariate", family="gaussian"))
    with pytest.raises(SchemaViolation):
        SchemaFile(columns=cols)


def test_schema_rejects_unknown_role_and_family():
    with pytest.raises(SchemaViolation):
        SchemaFile(columns=make_cols(x1=ColumnSpec("x1", "feature")))
    with pytest.raises(SchemaViolation):
        SchemaFile(columns=make_cols(y1=ColumnSpec("y1", "response", family="beta")))


def test_schema_rejects_missing_required_roles():
    cols = make_cols()
    for role in ("weight", "response"):
        with pytest.raises(SchemaViolation):
            SchemaFile(columns=tuple(c for c in cols if c.role != role))
    # covariates are optional
    assert SchemaFile(columns=tuple(c for c in cols if c.role != "covariate"))


def test_schema_rejects_bad_delimiter_and_population_size():
    with pytest.raises(SchemaViolation):
        SchemaFile(columns=make_cols(), delimiter=";;")
    for size in (0.0, float("inf"), float("nan")):
        with pytest.raises(SchemaViolation):
            SchemaFile(columns=make_cols(), population_size=size)


def test_schema_rejects_bad_sigma_and_non_string_delimiter():
    # 1e200 and 1e-200 are finite, but sigma^2 leaves float64
    for sigma in (0.0, -1.0, float("nan"), float("inf"), 1e200, 1e-200):
        with pytest.raises(SchemaViolation, match="'y1'"):
            SchemaFile(columns=make_cols(y1=ColumnSpec("y1", "response",
                                                       family="gaussian", sigma=sigma)))
    with pytest.raises(SchemaViolation, match="'y1'"):  # a response without a family
        SchemaFile(columns=make_cols(y1=ColumnSpec("y1", "response")))
    with pytest.raises(SchemaViolation):
        SchemaFile(columns=make_cols(), delimiter=[","])


@pytest.mark.parametrize("column", [ColumnSpec("x1", "covariate", sigma=7.0),
                                    ColumnSpec("y2", "response", family="bernoulli", sigma=3.0),
                                    ColumnSpec("pi", "weight", sigma=2.0)])
def test_schema_rejects_a_sigma_off_a_gaussian_response(column):
    with pytest.raises(SchemaViolation, match=repr(column.name)):
        SchemaFile(columns=make_cols(**{column.name: column}))
    # a sigma of 1 is every other column's own
    SchemaFile(columns=make_cols(**{column.name: replace(column, sigma=1.0)}))


def test_load_rejects_the_sigma_of_a_poisson_response(tmp_path):
    ds = small_dataset(np.random.default_rng(7))
    data, schema = tmp_path / "d.csv", tmp_path / "s.json"
    save_dataset(ds, data, schema)
    doc = json.loads(schema.read_text())
    poisson = next(c for c in doc["columns"] if c.get("family") == "poisson")
    poisson["sigma"] = 3
    schema.write_text(json.dumps(doc))
    with pytest.raises(SchemaViolation, match=repr(poisson["name"])) as err:
        load_dataset(data, schema)
    assert err.value.exit_code == 3


def test_schema_layout_merges_consecutive_same_family():
    cols = (ColumnSpec("stratum", "stratum"), ColumnSpec("pi", "weight"),
            ColumnSpec("x1", "covariate"),
            ColumnSpec("g1", "response", family="gaussian", sigma=2.0),
            ColumnSpec("g2", "response", family="gaussian", sigma=2.0),
            ColumnSpec("g3", "response", family="gaussian", sigma=0.5),
            ColumnSpec("b1", "response", family="bernoulli"),
            ColumnSpec("b2", "response", family="bernoulli"),
            ColumnSpec("p1", "response", family="poisson"))
    lay = SchemaFile(columns=cols).layout()
    kinds = [(b.family.kind, b.family.sigma, b.count) for b in lay.blocks]
    assert kinds == [("gaussian", 2.0, 2), ("gaussian", 0.5, 1),
                     ("bernoulli", 1.0, 2), ("poisson", 1.0, 1)]


def write_small_csv(tmp_path, rows, header="stratum,pi,x1,y1,y2"):
    schema = tmp_path / "s.json"
    schema.write_text(json.dumps({
        "columns": [{"name": "stratum", "role": "stratum"},
                    {"name": "pi", "role": "weight"},
                    {"name": "x1", "role": "covariate"},
                    {"name": "y1", "role": "response", "family": "gaussian"},
                    {"name": "y2", "role": "response", "family": "bernoulli"}],
    }))
    data = tmp_path / "d.csv"
    data.write_text("\n".join([header] + rows) + "\n")
    return data, schema


def test_load_dataset_header_mismatch(tmp_path):
    data, schema = write_small_csv(tmp_path, ["1,0.5,0.1,2.0,1"],
                                   header="stratum,pi,x1,y2,y1")
    with pytest.raises(SchemaViolation):
        load_dataset(data, schema)


def test_load_dataset_rejects_na_outside_responses(tmp_path):
    data, schema = write_small_csv(tmp_path, ["1,0.5,NA,2.0,1"])
    with pytest.raises(SchemaViolation):
        load_dataset(data, schema)


def test_load_dataset_rejects_non_integer_strata(tmp_path):
    data, schema = write_small_csv(tmp_path, ["1.5,0.5,0.1,2.0,1"])
    with pytest.raises(SchemaViolation):
        load_dataset(data, schema)


def test_load_dataset_rejects_ragged_row(tmp_path):
    data, schema = write_small_csv(tmp_path, ["1,0.5,0.1,2.0,1,9"])
    with pytest.raises(SchemaViolation):
        load_dataset(data, schema)


def test_load_dataset_rejects_bad_float(tmp_path):
    data, schema = write_small_csv(tmp_path, ["1,0.5,zap,2.0,1"])
    with pytest.raises(SchemaViolation):
        load_dataset(data, schema)


@pytest.mark.parametrize("row", [
    "1,0.5,0.1,nan,1",                  # a literal nan is not the NA marker
    "1,0.5,0.1,2.0,NaN",
    "1,0.5,inf,2.0,1",
    "1,-Infinity,0.1,2.0,1",
    "1,0.5,0.1,1e999,1",
    "1,0.5,0.1,2.0,\x00",
    "1,0.5,0.1," + "1" * 131073 + ",1",  # over the csv module's field limit
], ids=["nan", "NaN", "inf", "-Infinity", "1e999", "NUL", "long-field"])
def test_load_dataset_rejects_non_finite_and_unreadable_tokens(tmp_path, row):
    data, schema = write_small_csv(tmp_path, [row])
    with pytest.raises(SchemaViolation):
        load_dataset(data, schema)


def test_load_dataset_and_schema_reject_non_utf8(tmp_path):
    data, schema = write_small_csv(tmp_path, ["1,0.5,0.1,2.0,1"])
    data.write_bytes(b"stratum,pi,x1,y1,y2\n1,0.5,\xff,2.0,1\n")
    with pytest.raises(SchemaViolation):
        load_dataset(data, schema)
    schema.write_bytes(b'{"columns": "\xff"}')
    with pytest.raises(SchemaViolation):
        load_schema(schema)


def test_load_dataset_rejects_a_blank_line_between_rows(tmp_path):
    # blank lines after the last row are dropped; one between rows is a row
    data, schema = write_small_csv(tmp_path, ["1,0.5,0.1,2.0,1", "", "2,0.25,0.3,NA,0", ""])
    with pytest.raises(SchemaViolation, match="row 3 has 0 fields"):
        load_dataset(data, schema)


def test_load_dataset_rejects_empty_body(tmp_path):
    data, schema = write_small_csv(tmp_path, [])
    with pytest.raises(SchemaViolation):
        load_dataset(data, schema)


def test_load_dataset_missing_file(tmp_path):
    data, schema = write_small_csv(tmp_path, ["1,0.5,0.1,2.0,1"])
    with pytest.raises(SchemaViolation):
        load_dataset(tmp_path / "nope.csv", schema)


def test_load_dataset_relabels_strata_sorted(tmp_path):
    data, schema = write_small_csv(tmp_path, ["30,0.5,0.1,2.0,1",
                                              "10,0.5,0.2,NA,0",
                                              "30,0.5,0.3,1.0,1"])
    ds = load_dataset(data, schema)
    npt.assert_array_equal(ds.strata, [2, 1, 2])


def test_load_dataset_standardize_and_inverse(tmp_path):
    rng = np.random.default_rng(5)
    rows = []
    raw = []
    for i in range(40):
        x = rng.normal(3.0, 2.0)
        g = rng.normal(-1.0, 4.0) if i % 3 else None
        b = int(rng.random() < 0.5)
        raw.append((x, g, b))
        rows.append(f"1,0.5,{x!r},{'NA' if g is None else repr(g)},{b}")
    data, schema = write_small_csv(tmp_path, rows)
    ds = load_dataset(data, schema, standardize=True)
    assert abs(ds.X[:, 0].mean()) < 1e-12 and abs(ds.X[:, 0].std() - 1.0) < 1e-12
    obs = ds.R[:, 0]
    assert abs(ds.Y[obs, 0].mean()) < 1e-12
    # bernoulli column is untouched
    npt.assert_array_equal(ds.Y[:, 1], [b for _, _, b in raw])
    # recorded transforms reproduce the original values
    mean, scale = ds.standardization[0]
    got = ds.Y[obs, 0] * scale + mean
    npt.assert_allclose(got, [g for _, g, _ in raw if g is not None], rtol=1e-12)


@pytest.mark.parametrize("column", ["x1", "y1"])
def test_standardize_rejects_a_column_whose_spread_overflows(tmp_path, column):
    # finite values whose standard deviation overflows float64; dividing by
    # it would turn the column into zeros
    huge = ["1e308", "-1e308", "1.7e308"]
    rows = [f"1,0.5,{v if column == 'x1' else '0.5'},{v if column == 'y1' else '0.5'},1"
            for v in huge]
    data, schema = write_small_csv(tmp_path, rows)
    load_dataset(data, schema)  # loads unstandardized
    with pytest.raises(SchemaViolation, match=repr(column)):
        load_dataset(data, schema, standardize=True)


def test_default_schema_names_and_population_size():
    ds = small_dataset(np.random.default_rng(9))
    schema = default_schema(ds)
    assert schema.names("stratum") == ["stratum"]
    assert schema.names("weight") == ["pi"]
    assert schema.names("covariate") == [f"x{d+1}" for d in range(ds.n_covariates)]
    assert schema.names("response") == [f"y{j+1}" for j in range(ds.n_responses)]
    assert schema.population_size == ds.population_size
    assert schema.layout() == ds.layout


def test_matrix_csv_round_trip_with_nan(tmp_path):
    M = np.array([[0.1, np.nan], [1.0 / 3.0, -2.5e17]])
    path = tmp_path / "m.csv"
    save_matrix_csv(M, path)
    back = load_matrix_csv(path)
    npt.assert_array_equal(back, M)
    assert path.read_text().splitlines()[0] == "c1,c2"


@pytest.mark.parametrize("value", [np.inf, -np.inf])
def test_save_matrix_csv_rejects_an_infinity(tmp_path, value):
    # load_matrix_csv rejects the token an infinity would write
    path = tmp_path / "m.csv"
    with pytest.raises(InvalidInput, match="infinite"):
        save_matrix_csv(np.array([[0.1, np.nan], [value, 1.0]]), path)
    assert not path.exists()


@pytest.mark.parametrize("body", ["c1,c2\n0.1,zap\n", "c1,c2\n0.1,inf\n",
                                  "c1,c2\n0.1\n", "c1,c2\n0.1,2,3\n", "c1,c2\n", "", None],
                         ids=["junk", "inf", "short-row", "long-row", "no-rows", "empty",
                              "missing"])
def test_load_matrix_csv_rejects_bad_files(tmp_path, body):
    path = tmp_path / "m.csv"
    if body is not None:
        path.write_text(body)
    with pytest.raises(SchemaViolation):
        load_matrix_csv(path)


def test_write_trace_csv_header_and_flags(tmp_path):
    result = smc.CompletionResult(Z_hat=np.zeros((1, 1)),
                                  objective_trace=np.array([3.0, 2.5, 2.5, 2.0]),
                                  accepted=np.array([True, False, True]),
                                  diagnostics={})
    path = tmp_path / "t.csv"
    write_trace_csv(result, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "k,objective,accepted"
    assert lines[1] == "0,3,1"
    assert [ln.split(",")[2] for ln in lines[1:]] == ["1", "1", "0", "1"]
    assert [float(ln.split(",")[1]) for ln in lines[1:]] == [3.0, 2.5, 2.5, 2.0]


def tiny_summary():
    spec = PopulationSpec(n_strata=3, layout=GPB, m1=3, m2=8,
                          xi=0.3, n_covariates=2)
    reports = (
        ReplicationReport(replicate=1, seed=10, response_rate=0.6, wall_time=1.23,
                          re={"ipw": {"overall": 0.5, "gaussian:3": 0.4,
                                      "overall_mean_scale": 0.45}},
                          failures={}),
        ReplicationReport(replicate=2, seed=9, response_rate=0.7, wall_time=4.56,
                          re={"ipw": {"overall": 0.7, "gaussian:3": 0.6,
                                      "overall_mean_scale": 0.65}},
                          failures={}),
    )
    return BenchmarkSummary(spec=spec, methods=("ipw",), reports=reports)


def test_write_benchmark_csvs_structure(tmp_path):
    summary = tiny_summary()
    sp, rp = tmp_path / "summary.csv", tmp_path / "replicates.csv"
    write_benchmark_csvs(summary, sp, rp)
    slines = sp.read_text().splitlines()
    assert slines[0] == "method,scenario,block,mean_re,se_re,n_replicates,n_failures"
    blocks = [ln.split(",")[2] for ln in slines[1:]]
    assert blocks == ["overall", "gaussian:3", "overall_mean_scale"]
    assert all("wall" not in ln for ln in slines)
    rlines = rp.read_text().splitlines()
    assert rlines[0] == "replicate,seed,response_rate,method,scenario,block,re"
    # the scenario is read from the run's spec
    assert {ln.split(",")[1] for ln in slines[1:]} == {"xi=0.3"}
    assert {ln.split(",")[4] for ln in rlines[1:]} == {"xi=0.3"}
    assert [ln.split(",")[0] for ln in rlines[1:]] == ["1"] * 3 + ["2"] * 3
    assert "1.23" not in rp.read_text() and "4.56" not in rp.read_text()


def test_write_meta_json_sorted_and_stable(tmp_path):
    path = tmp_path / "meta.json"
    write_meta_json({"zeta": 1, "alpha": [1, 2], "mid": {"b": 2, "a": 1}}, path)
    text = path.read_text()
    assert text == ('{\n  "alpha": [\n    1,\n    2\n  ],\n  "mid": {\n'
                    '    "a": 1,\n    "b": 2\n  },\n  "zeta": 1\n}\n')


def test_parse_tau_grid_forms():
    assert parse_tau_grid("2^-3..2^-1") == (0.125, 0.25, 0.5)
    grid = parse_tau_grid("2^-15..2^-1,1,2")
    assert len(grid) == 17 and grid[0] == 2.0**-15 and grid[-2:] == (1.0, 2.0)
    assert parse_tau_grid(" 0.5 , 2^3 ") == (0.5, 8.0)
    assert parse_tau_grid("1e-4") == (1e-4,)
    assert parse_tau_grid("2^-1074,2^1023") == (5e-324, 2.0**1023)


@pytest.mark.parametrize("text", ["", "1,", "foo", "3..5", "2^a..2^b",
                                  "2^5..2^1", "2^x", "2^3..", "2^2000", "2^-3..2^1100",
                                  "2^1024", "2^-1075", "2^-1075..2^0",
                                  "2^-3000000000..2^0"])
def test_parse_tau_grid_rejects(text):
    with pytest.raises(InvalidInput):
        parse_tau_grid(text)


# -- generated inputs ---------------------------------------------------------

SMALL_SCHEMA = {"columns": [{"name": "stratum", "role": "stratum"},
                            {"name": "pi", "role": "weight"},
                            {"name": "x1", "role": "covariate"},
                            {"name": "y1", "role": "response", "family": "gaussian"},
                            {"name": "y2", "role": "response", "family": "bernoulli"}]}

TOKENS = st.one_of(
    st.floats(0.01, 1.0).map(fmt),
    st.integers(-3, 3).map(str),
    st.floats().map(repr),                      # nan, inf and huge values too
    st.sampled_from(["NA", "nan", "inf", "-inf", "", "zap", " 1", "1_0", '"',
                     "1,5", "\x00", "1" * 131073]),
    st.text(max_size=3),
)

# a stray byte spliced into the encoded file: none, undecodable or NUL
STRAY_BYTES = st.sampled_from([b"", b"", b"\xff", b"\xc3", b"\x00"])

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=8)


@st.composite
def csv_bodies(draw):
    header = draw(st.one_of(st.just("stratum,pi,x1,y1,y2"), st.text(max_size=12)))
    rows = draw(st.lists(st.lists(TOKENS, min_size=3, max_size=7), max_size=4))
    text = "\n".join([header] + [",".join(row) for row in rows]) + "\n"
    raw = text.encode("utf-8")
    at = draw(st.integers(0, len(raw)))
    return raw[:at] + draw(STRAY_BYTES) + raw[at:]


@st.composite
def schema_files(draw):
    doc = json.loads(json.dumps(SMALL_SCHEMA))
    for _ in range(draw(st.integers(0, 3))):
        key = draw(st.sampled_from(["columns", "delimiter", "na_marker", "population_size",
                                    "name", "role", "family", "sigma"]))
        # numbers also come as booleans and as strings that parse as numbers
        value = draw(st.one_of(JSON_VALUES, st.booleans(), st.floats(0.1, 1e4).map(str)))
        cols = doc.get("columns")
        if key in ("name", "role", "family", "sigma") and isinstance(cols, list) and cols:
            col = cols[draw(st.integers(0, len(cols) - 1))]
            if isinstance(col, dict):
                col[key] = value
        else:
            doc[key] = value
    raw = json.dumps(doc).encode("utf-8")
    return draw(st.one_of(st.just(raw), st.binary(max_size=40),
                          st.integers(0, len(raw)).map(lambda k: raw[:k]),
                          st.just(b"[" * 100000)))


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("generated")


@settings(max_examples=300, deadline=None)
@given(body=csv_bodies(), standardize=st.booleans())
def test_loaders_raise_only_package_errors_on_generated_csv(scratch, body, standardize):
    data, schema = scratch / "d.csv", scratch / "s.json"
    data.write_bytes(body)
    schema.write_text(json.dumps(SMALL_SCHEMA))
    for load in (lambda: load_dataset(data, schema, standardize=standardize),
                 lambda: load_matrix_csv(data)):
        try:
            load()
        except SurveyMCError:
            pass


def _sets_a_bool_or_string_number(raw: bytes) -> bool:
    """Whether a schema's population_size, or a column's sigma, is a JSON
    boolean or string."""
    try:
        doc = json.loads(raw)
    except (ValueError, RecursionError):
        return False
    if not isinstance(doc, dict):
        return False
    cols = doc.get("columns")
    values = [doc.get("population_size")] + [
        c.get("sigma") for c in (cols if isinstance(cols, list) else []) if isinstance(c, dict)]
    return any(isinstance(v, (bool, str)) for v in values)


@settings(max_examples=300, deadline=None)
@given(raw=schema_files())
def test_loaders_raise_only_package_errors_on_generated_schema(scratch, raw):
    # and a population_size or sigma that is a boolean or a string never loads
    data, schema = scratch / "d.csv", scratch / "s.json"
    data.write_text("stratum,pi,x1,y1,y2\n1,0.5,0.1,2.0,1\n2,0.25,0.3,NA,0\n")
    schema.write_bytes(raw)
    for load in (lambda: load_schema(schema), lambda: load_dataset(data, schema)):
        try:
            load()
        except SurveyMCError:
            continue
        assert not _sets_a_bool_or_string_number(raw)


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def datasets(draw):
    n = draw(st.integers(1, 6))
    kinds = draw(st.lists(st.sampled_from(FAMILY_NAMES), min_size=1, max_size=3))
    layout = smc.CategoryLayout.of(*[(k, draw(st.integers(1, 2))) for k in kinds],
                                   sigma=draw(st.floats(0.1, 10.0)))
    L, D = layout.n_cols, draw(st.integers(0, 3))
    Y = draw(arrays(np.float64, (n, L), elements=FINITE))
    Y[draw(nan_masks((n, L)))] = np.nan
    labels = draw(arrays(np.int64, n, elements=st.integers(0, 3)))
    pop = draw(st.one_of(st.none(), st.floats(1.0, 1e9)))
    return smc.MixedDataset(
        Y=Y, X=draw(arrays(np.float64, (n, D), elements=FINITE)),
        strata=np.unique(labels, return_inverse=True)[1] + 1,
        pi=draw(arrays(np.float64, n, elements=st.floats(0.0, 1.0, exclude_min=True))),
        layout=layout, population_size=pop)


def assert_same_bits(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype
    nan = np.isnan(a)
    npt.assert_array_equal(nan, np.isnan(b))
    assert a[~nan].tobytes() == b[~nan].tobytes()


@settings(max_examples=150, deadline=None)
@given(ds=datasets(), bom=st.booleans(), blank_lines=st.integers(0, 2))
def test_save_load_dataset_round_trips_generated(scratch, ds, bom, blank_lines):
    # also with a UTF-8 byte-order mark before each file and blank lines
    # after the last row, as editors and spreadsheets write them
    data, schema = scratch / "rt.csv", scratch / "rt.json"
    save_dataset(ds, data, schema)
    mark = b"\xef\xbb\xbf" if bom else b""
    data.write_bytes(mark + data.read_bytes() + b"\r\n" * blank_lines)
    schema.write_bytes(mark + schema.read_bytes())
    back = load_dataset(data, schema)
    for name in ("Y", "X", "pi"):
        assert_same_bits(getattr(ds, name), getattr(back, name))
    npt.assert_array_equal(back.R, ds.R)
    npt.assert_array_equal(back.strata, ds.strata)
    # the file keeps each column's family, so adjacent blocks of one family
    # reload as one block
    merged = tuple(Block(fam, sum(b.count for b in run))
                   for fam, run in groupby(ds.layout.blocks, key=lambda b: b.family))
    assert back.layout == smc.CategoryLayout(merged)


@settings(max_examples=150, deadline=None)
@given(M=st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(
    lambda shape: arrays(np.float64, shape, elements=st.floats(allow_infinity=False))))
def test_save_load_matrix_round_trips_generated(scratch, M):
    path = scratch / "m.csv"
    save_matrix_csv(M, path)
    assert_same_bits(M, load_matrix_csv(path))


# values whose formatting has edge cases: NaN, signed zero, subnormals, the
# float64 extremes and infinities
EDGE_FLOATS = st.sampled_from([np.nan, -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                               1e308, -1e308, 1.7976931348623157e308, np.inf, -np.inf])


def _token(x: float) -> str:
    """A value as the reference writer puts it in CSV: NA for NaN, else fmt."""
    return "NA" if math.isnan(x) else fmt(x)


@settings(max_examples=150, deadline=None)
@given(M=st.tuples(st.integers(0, 5), st.integers(0, 5)).flatmap(
    lambda shape: arrays(np.float64, shape, elements=st.one_of(st.floats(), EDGE_FLOATS))),
    ds=datasets())
def test_save_matrix_csv_writes_the_bytes_of_one_token_per_value(scratch, M, ds):
    fast, slow = scratch / "fast.csv", scratch / "slow.csv"
    if np.isinf(M).any():  # refused: load_matrix_csv would reject its token
        with pytest.raises(InvalidInput):
            save_matrix_csv(M, fast, prefix="m")
        M = np.where(np.isinf(M), np.nan, M)
    save_matrix_csv(M, fast, prefix="m")
    _write_csv(slow, [f"m{j + 1}" for j in range(M.shape[1])],
               ([_token(v) for v in row] for row in M))
    assert fast.read_bytes() == slow.read_bytes()
    # save_dataset writes its integer strata labels as str(int(label))
    save_dataset(ds, fast, scratch / "schema.json")
    _write_csv(slow, [c.name for c in default_schema(ds).columns],
               ([str(int(s)), fmt(p)] + [fmt(v) for v in x] + [_token(v) for v in y]
                for s, p, x, y in zip(ds.strata, ds.pi, ds.X, ds.Y)))
    assert fast.read_bytes() == slow.read_bytes()
