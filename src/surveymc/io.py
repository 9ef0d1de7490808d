"""File formats: schema JSON, dataset CSV, and result CSV writers.

A dataset is a CSV with one header row plus a JSON schema assigning each
column a role: exactly one stratum column, one weight column (first-order
inclusion probabilities), zero or more covariates, and at least one response
column tagged with its family.  Consecutive response columns sharing a family
form the column blocks of the layout.

Floats are written with 17 significant digits so that save followed by load
reproduces every value bit for bit; missing responses are written as NA.
Writers never embed timestamps, which keeps reruns with identical seeds
byte-identical.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .dataset import MixedDataset, Standardization
from .errors import InvalidInput, SchemaViolation, check_type, real_array
from .families import Block, CategoryLayout, Family

__all__ = ["ColumnSpec", "SchemaFile", "load_schema", "load_dataset",
           "save_dataset", "save_matrix_csv", "load_matrix_csv",
           "write_trace_csv", "write_tau_scores", "write_benchmark_csvs",
           "write_meta_json", "parse_tau_grid", "fmt"]

_ROLES = ("stratum", "weight", "covariate", "response")
NA = "NA"  # a missing value in every file written, and the schema's default marker


def fmt(x: float) -> str:
    """17-significant-digit decimal form; round-trips float64 exactly."""
    return format(float(x), ".17g")


@dataclass(frozen=True)
class ColumnSpec:
    name: str
    role: str
    family: str | None = None
    sigma: float = 1.0


@dataclass(frozen=True)
class SchemaFile:
    columns: tuple[ColumnSpec, ...]
    delimiter: str = ","
    na_marker: str = NA
    population_size: float | None = None

    def __post_init__(self):
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise SchemaViolation("duplicate column names in schema")
        roles = [c.role for c in self.columns]
        for c in self.columns:
            if c.role not in _ROLES:
                raise SchemaViolation(f"unknown role {c.role!r} for column {c.name!r}")
            if c.role == "response":
                try:
                    Family(c.family, c.sigma)
                except InvalidInput as exc:
                    raise SchemaViolation(f"column {c.name!r}: {exc}") from exc
            elif c.family is not None:
                raise SchemaViolation(f"column {c.name!r} with role {c.role!r} must not set a family")
        if roles.count("stratum") != 1 or roles.count("weight") != 1:
            raise SchemaViolation("schema needs exactly one stratum and one weight column")
        if roles.count("response") < 1:
            raise SchemaViolation("schema needs at least one response column")
        if self.population_size is not None and not (math.isfinite(self.population_size)
                                                     and self.population_size > 0):
            raise SchemaViolation("population_size must be positive and finite when present")
        if not isinstance(self.delimiter, str) or len(self.delimiter) != 1:
            raise SchemaViolation("delimiter must be a single character")

    def layout(self) -> CategoryLayout:
        """Blocks from consecutive response columns sharing (family, sigma)."""
        blocks: list[Block] = []
        for c in self.columns:
            if c.role != "response":
                continue
            fam = Family(c.family, c.sigma)
            if blocks and blocks[-1].family == fam:
                blocks[-1] = Block(fam, blocks[-1].count + 1)
            else:
                blocks.append(Block(fam, 1))
        return CategoryLayout(tuple(blocks))

    def names(self, role: str) -> list[str]:
        return [c.name for c in self.columns if c.role == role]


def _json_number(value, key: str) -> float:
    """A JSON number (not a boolean or a string) as a float, else a SchemaViolation."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaViolation(f"{key} must be a JSON number, got {value!r}")
    return float(value)


def load_schema(path) -> SchemaFile:
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            raw = json.load(fh)
    # ValueError covers undecodable bytes, bad JSON and over-long integers
    except (OSError, ValueError, RecursionError) as exc:
        raise SchemaViolation(f"cannot read schema {path}: {exc}") from exc
    try:
        cols = tuple(ColumnSpec(name=c["name"], role=c["role"], family=c.get("family"),
                                sigma=_json_number(c.get("sigma", 1.0),
                                                   f"column {c['name']!r}: sigma"))
                     for c in raw["columns"])
        pop = raw.get("population_size")
        return SchemaFile(columns=cols, delimiter=raw.get("delimiter", ","),
                          na_marker=raw.get("na_marker", NA),
                          population_size=None if pop is None else
                          _json_number(pop, "population_size"))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SchemaViolation(f"malformed schema {path}: {exc}") from exc


def _read_rows(path, delimiter: str) -> tuple[list[str], list[list[str]]]:
    """Header and rows of a CSV with at least one row, each as wide as the
    header, less a UTF-8 byte-order mark and the blank lines after the last row."""
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh, delimiter=delimiter)
            header = next(reader, None)
            rows = list(reader)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise SchemaViolation(f"cannot read {path}: {exc}") from exc
    while rows and not rows[-1]:
        rows.pop()
    if not rows:
        raise SchemaViolation(f"{path} has no data rows")
    for r, row in enumerate(rows):
        if len(row) != len(header):
            raise SchemaViolation(f"row {r + 2} has {len(row)} fields, expected {len(header)}")
    return header, rows


def _parse_column(tokens, name: str, na_marker: str, na_ok: bool) -> np.ndarray:
    """One column's tokens as finite floats; the NA marker is NaN where na_ok."""
    values = []
    for r, token in enumerate(tokens):
        if token == na_marker:
            if not na_ok:
                raise SchemaViolation(f"column {name!r}, row {r + 2}: "
                                      "NA is only allowed in response columns")
            values.append(math.nan)
            continue
        try:
            v = float(token)
        except ValueError:
            v = math.nan
        if not math.isfinite(v):
            raise SchemaViolation(f"column {name!r}, row {r + 2}: "
                                  f"{token!r} is not a finite number")
        values.append(v)
    return np.array(values, dtype=np.float64)


def _standardize(column: np.ndarray, name: str) -> tuple[float, float]:
    """Center and scale a column in place to unit variance over its non-NaN
    entries (a constant column is only centered); return (mean, scale).

    Raises SchemaViolation, naming the column, when the mean or the standard
    deviation overflows float64.
    """
    obs = column[~np.isnan(column)]
    with np.errstate(over="ignore", invalid="ignore"):
        mean, scale = float(obs.mean()), float(obs.std())
    if not (math.isfinite(mean) and math.isfinite(scale)):
        raise SchemaViolation(f"column {name!r}: mean {mean} or standard deviation "
                              f"{scale} is not finite, so it cannot be standardized")
    scale = scale if scale > 0 else 1.0
    column[:] = (column - mean) / scale
    return mean, scale


def load_dataset(data_path, schema_path, standardize: bool = False) -> MixedDataset:
    """Read a CSV against its schema; header order must match the schema.

    Every token parses as a finite float except the schema's NA marker, which
    marks a missing response and is allowed only in response columns.
    Strata labels are relabeled to 1..H by sorted original value.  A schema
    without covariate columns gives an n x 0 X.  With
    standardize=True, covariates and gaussian responses are centered and
    scaled to unit variance (responses on observed entries only) and the
    transforms are retained on the dataset for inverse mapping.
    """
    schema = load_schema(schema_path)
    expected = [c.name for c in schema.columns]
    header, rows = _read_rows(data_path, schema.delimiter)
    if header != expected:
        raise SchemaViolation(f"header {header} does not match schema columns {expected}")

    by_role: dict[str, list[np.ndarray]] = {role: [] for role in _ROLES}
    for c, tokens in zip(schema.columns, zip(*rows)):
        by_role[c.role].append(_parse_column(tokens, c.name, schema.na_marker,
                                             na_ok=c.role == "response"))
    (strata_raw,), (pi,) = by_role["stratum"], by_role["weight"]
    cov_cols = by_role["covariate"]
    X = np.column_stack(cov_cols) if cov_cols else np.empty((len(rows), 0))
    Y = np.column_stack(by_role["response"])

    if np.any(strata_raw != np.round(strata_raw)):
        raise SchemaViolation("stratum labels must be integers")
    uniq = np.unique(strata_raw)
    strata = np.searchsorted(uniq, strata_raw) + 1

    standardization = None
    if standardize:
        covariates = schema.names("covariate")
        responses = [c for c in schema.columns if c.role == "response"]
        standardization = Standardization(
            covariate={d: _standardize(X[:, d], covariates[d]) for d in range(X.shape[1])},
            response={j: _standardize(Y[:, j], c.name) for j, c in enumerate(responses)
                      if c.family == "gaussian" and not np.isnan(Y[:, j]).all()})

    return MixedDataset(Y=Y, X=X, strata=strata, pi=pi, layout=schema.layout(),
                        population_size=schema.population_size,
                        standardization=standardization)


def default_schema(dataset: MixedDataset) -> SchemaFile:
    """Generated column names: stratum, pi, x1..xD, y1..yL."""
    cols = [ColumnSpec("stratum", "stratum"), ColumnSpec("pi", "weight")]
    cols += [ColumnSpec(f"x{d + 1}", "covariate") for d in range(dataset.n_covariates)]
    j = 0
    for fam, sl in dataset.layout.slices():
        for _ in range(sl.stop - sl.start):
            j += 1
            cols.append(ColumnSpec(f"y{j}", "response", family=fam.kind, sigma=fam.sigma))
    return SchemaFile(columns=tuple(cols), population_size=dataset.population_size)


def _write_csv(path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def save_dataset(dataset: MixedDataset, data_path, schema_path) -> None:
    """Write the dataset under default_schema's column names, and that schema."""
    schema = default_schema(dataset)
    doc = {
        "delimiter": schema.delimiter,
        "na_marker": schema.na_marker,
        "columns": [
            {k: v for k, v in (("name", c.name), ("role", c.role),
                               ("family", c.family),
                               ("sigma", c.sigma if c.family == "gaussian" else None))
             if v is not None}
            for c in schema.columns
        ],
    }
    if schema.population_size is not None:
        doc["population_size"] = schema.population_size
    with open(schema_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")

    # integer strata labels format as str(int(label)) under %.17g
    _write_matrix(data_path, [c.name for c in schema.columns],
                  np.column_stack([dataset.strata, dataset.pi, dataset.X, dataset.Y]))


def save_matrix_csv(M, path, prefix: str = "c") -> None:
    """Write M under the header prefix1, prefix2, ..., NaN as NA; an
    infinity, which load_matrix_csv would reject, raises InvalidInput."""
    M = real_array("M", M, 2)
    if np.isinf(M).any():
        raise InvalidInput("M contains an infinite entry")
    _write_matrix(path, [f"{prefix}{j + 1}" for j in range(M.shape[1])], M)


def _write_matrix(path, header, M: np.ndarray) -> None:
    """Write a float matrix under header with fmt per value and NA for NaN:
    the bytes of _write_csv, at one % call per row."""
    line = ",".join(["%.17g"] * M.shape[1]) + "\r\n"  # csv.writer's line end
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow(header)
        for row in M.tolist():  # only a NaN formats with "nan"; no token needs quoting
            fh.write((line % tuple(row)).replace("nan", NA))


def load_matrix_csv(path) -> np.ndarray:
    """Read a save_matrix_csv file; values must be finite or NA."""
    header, rows = _read_rows(path, ",")
    M = np.empty((len(rows), len(header)))
    for j, tokens in enumerate(zip(*rows)):
        M[:, j] = _parse_column(tokens, header[j], NA, na_ok=True)
    return M


def write_trace_csv(result, path) -> None:
    """Objective trace: iteration, objective, accepted flag (1 for k = 0)."""
    _write_csv(path, ["k", "objective", "accepted"],
               ([str(k), fmt(obj), str(1 if k == 0 else int(result.accepted[k - 1]))]
                for k, obj in enumerate(result.objective_trace)))


def write_tau_scores(result, path) -> None:
    """Cross-validation score per tau of a TuneResult."""
    _write_csv(path, ["tau", "score"],
               ([fmt(t), fmt(s)] for t, s in zip(result.taus, result.scores)))


def write_benchmark_csvs(summary, summary_path, replicates_path) -> None:
    """Aggregate table and per-replicate long table (no wall times), each
    score's rows in the order the scores hold them, in scenario xi=spec.xi."""
    scenario = f"xi={summary.spec.xi:g}"
    rows = []
    for method in summary.methods:
        for lab, (mean, se, count) in summary.aggregate.get(method, {}).items():
            rows.append([method, scenario, lab, fmt(mean), fmt(se),
                         str(count), str(summary.n_failures[method])])
    _write_csv(summary_path, ["method", "scenario", "block", "mean_re", "se_re",
                              "n_replicates", "n_failures"], rows)

    rows = []
    for rep in summary.reports:
        for method in summary.methods:
            if method not in rep.re:
                continue
            for lab, score in rep.re[method].items():
                rows.append([str(rep.replicate), str(rep.seed), fmt(rep.response_rate),
                             method, scenario, lab, fmt(score)])
    _write_csv(replicates_path, ["replicate", "seed", "response_rate", "method",
                                 "scenario", "block", "re"], rows)


def write_meta_json(doc: dict, path) -> None:
    """Canonical config echo: sorted keys, no timestamps."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def parse_tau_grid(text: str) -> tuple[float, ...]:
    """Parse grids like "2^-15..2^-1,1,2" into floats.

    Tokens are comma-separated: "2^a..2^b" expands the inclusive power range,
    "2^a" is a single power of two, anything else parses as a float.
    """
    check_type("tau grid", text, str)
    out: list[float] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            raise InvalidInput("empty token in tau grid")
        if ".." in token or token.startswith("2^"):
            lo, sep, hi = token.partition("..")
            hi = hi if sep else lo
            if not (lo.startswith("2^") and hi.startswith("2^")):
                raise InvalidInput(f"range token {token!r} must use 2^a..2^b form")
            try:
                a, b = int(lo[2:]), int(hi[2:])
            except ValueError as exc:
                raise InvalidInput(f"bad exponents in {token!r}") from exc
            if a > b:
                raise InvalidInput(f"empty range {token!r}")
            if a < -1074 or b > 1023:
                raise InvalidInput(f"{token!r} leaves float64's powers of two 2^-1074..2^1023")
            out.extend(2.0**k for k in range(a, b + 1))
        else:
            try:
                out.append(float(token))
            except ValueError as exc:
                raise InvalidInput(f"cannot parse grid token {token!r}") from exc
    return tuple(out)
