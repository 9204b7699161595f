"""The columnar table renderers against the stdlib encoders on the row-list form.

``render_json`` must write exactly what ``json.dumps(sort_keys=True, indent=2)``
writes for the report with every table expanded into row lists (non-finite
cells as the strings ``num`` gives them), and ``render_csv`` exactly what
``csv.writer`` writes for the header and those rows (non-finite cells as
``inf``/``nan``).
"""

import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boundarynoise import build_heat_neumann, sample_exact
from boundarynoise import cli, reports
from boundarynoise.modelspec import build_bundle, parse_model_dict
from boundarynoise.reports import (
    Column,
    Table,
    covariance_rows,
    num,
    path_rows,
    render_csv,
    render_json,
    repeated,
    series_rows,
    table_rows,
)
from boundarynoise.simulate import covariance_qt

HEAT = {"name": "heat-right", "modes": 8, "control": {"preset": "heat_neumann_right"}}
HEAT_FB = dict(HEAT, perturbation={"type": "rank_one", "b": "heat_neumann_left", "m": "constant_one"})
EXPLICIT = {
    "name": "two-mode", "spectrum": {"type": "explicit", "values": [-1.0, -2.0]}, "modes": 2, "noise_dim": 1,
    "control": {"type": "explicit", "beta": [[1.0], [1.0]]},
}


def write_spec(tmp_path, payload, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def expand(table: Table) -> list[list]:
    """The table as one Python list per row, each cell read through its column's map."""
    rows = np.arange(len(table))
    columns = [(c.values if c.at is None else c.values[c.at(rows)]).tolist() for c in table.columns]
    return [list(row) for row in zip(*columns)]


def json_cell(value):
    if isinstance(value, float) and not math.isfinite(value):
        return num(value, "")["value"]
    return value


def as_rows(obj):
    if isinstance(obj, Table):
        return [[json_cell(v) for v in row] for row in expand(obj)]
    if isinstance(obj, dict):
        return {k: as_rows(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [as_rows(v) for v in obj]
    return obj


def reference_json(report) -> str:
    return json.dumps(as_rows(report), sort_keys=True, indent=2) + "\n"


def reference_csv(header, table) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(expand(table))
    return buf.getvalue()


@pytest.fixture
def small_blocks(monkeypatch):
    # several blocks, and a block boundary inside a run of repeated index strings
    monkeypatch.setattr(reports, "BLOCK_ROWS", 7)


class TestRowBuilders:
    def test_covariance_rows_are_index_pairs(self):
        # symmetric, with every upper entry distinct: a cell that read another pair's value would show
        upper = np.triu(np.arange(1.0, 10.0).reshape(3, 3) / 7.0)
        matrix = upper + np.triu(upper, 1).T
        assert expand(covariance_rows(matrix)) == [[n, m, matrix[n, m]] for n in range(3) for m in range(3)]

    @pytest.mark.parametrize("matrix", [
        np.arange(9.0).reshape(3, 3),
        np.array([[1.0, 0.0], [-0.0, 1.0]]),  # equal as floats, not as bits
        np.array([[0, 0x7FF8000000000001], [0x7FF8000000000002, 0]], dtype=np.int64).view(float),  # NaN payloads
        np.ones((2, 3)),
    ], ids=["asymmetric", "signed-zero", "nan-payload", "not-square"])
    def test_covariance_rows_refuse_a_matrix_unequal_to_its_transpose(self, matrix):
        with pytest.raises(ValueError, match="transpose"):
            covariance_rows(matrix)

    def test_covariance_rows_take_mirrored_nan_and_signed_zero(self):
        matrix = np.array([[math.nan, -0.0], [-0.0, math.inf]])
        text = render_csv(["n", "m", "value"], covariance_rows(matrix))
        assert text == "n,m,value\n0,0,nan\n0,1,-0.0\n1,0,-0.0\n1,1,inf\n"

    def test_path_rows_layout(self):
        heat = build_heat_neumann("right", 3)
        ens = sample_exact(heat.model, heat.control, 1.0, 4, seed=2)
        table = path_rows(ens)
        assert len(table) == 4 * 1 * 3
        assert expand(table) == [[s, float(ens.times[t]), m, ens.values[s, t, m]]
                                 for s in range(4) for t in range(1) for m in range(3)]

    def test_series_rows_cumulate_in_order(self):
        rows = expand(series_rows([0, -1, 1], [0.5, 0.25, 0.125]))
        assert rows == [[0, 0.5, 0.5], [-1, 0.25, 0.75], [1, 0.125, 0.875]]

    def test_unequal_columns_refused(self):
        with pytest.raises(ValueError):
            table_rows([1, 2], [1.0])


class TestCliTables:
    """Every table the CLI writes, captured at the renderer and compared with the stdlib."""

    @pytest.mark.parametrize("spec, argv", [
        (HEAT, ["covariance"]),
        (HEAT, ["dyadic", "--freq-terms", "6"]),
        (EXPLICIT, ["scan-weiss", "--omega", "0.0"]),
        (HEAT_FB, ["report"]),  # tables nested a level deeper
        (EXPLICIT, ["report", "--freq-terms", "1"]),
    ])
    def test_json_matches_stdlib(self, tmp_path, capsys, monkeypatch, small_blocks, spec, argv):
        seen = []
        monkeypatch.setattr(cli, "render_json", lambda report: seen.append(report) or render_json(report))
        assert cli.main([*argv, "--model", write_spec(tmp_path, spec)]) == 0
        assert capsys.readouterr().out == reference_json(seen[0])

    @pytest.mark.parametrize("spec, argv", [
        (HEAT, ["covariance"]),
        (HEAT, ["dyadic", "--freq-terms", "6"]),
        (EXPLICIT, ["scan-weiss", "--omega", "0.0"]),
        (HEAT, ["simulate", "--samples", "3", "--dt", "0.25"]),
        (HEAT, ["check"]),
    ])
    def test_csv_matches_stdlib(self, tmp_path, capsys, monkeypatch, small_blocks, spec, argv):
        seen = []
        monkeypatch.setattr(cli, "render_csv", lambda header, rows: seen.append((header, rows)) or render_csv(header, rows))
        assert cli.main([*argv, "--model", write_spec(tmp_path, spec), "--format", "csv"]) == 0
        assert capsys.readouterr().out == reference_csv(*seen[0])

    def test_marker_text_in_name_and_model_path(self, tmp_path, capsys, monkeypatch):
        # the spec name and the --model path both look like a table placeholder
        marker = "<table 0:0>"
        monkeypatch.chdir(tmp_path)
        write_spec(tmp_path, dict(HEAT, name=marker), name=marker)
        for argv in (["covariance"], ["report"]):
            seen = []
            monkeypatch.setattr(cli, "render_json", lambda report: seen.append(report) or render_json(report))
            assert cli.main([*argv, "--model", marker]) == 0
            out = capsys.readouterr().out
            assert out == reference_json(seen[0])
            assert json.loads(out)["model"]["name"] == marker


def heat_spec(modes: int) -> dict:
    return dict(HEAT, modes=modes)


def edge_spec(modes: int) -> dict:
    """Explicit modes whose covariance has every kind of cell.

    At ``T = 1e308`` a positive pair sum makes an infinite factor: ``inf`` and
    ``-inf`` cells, and ``nan`` over a zero Gram entry.  From three modes on,
    rows 1 and 2 (``beta`` of 1e-100 with opposite signs, one eigenvalue
    -1e200) give a negative entry that underflows to ``-0.0``.
    """
    values = [0.5, -1e200, -1.0, 0.25, -0.75, -2.0, 0.125, -0.5, -3.0, 1.0, -0.25, -4.0, 0.0]
    beta = [[1.5, 0.0], [-1e-100, 0.0], [1e-100, 0.0], [0.0, 1.0], [-1.0, 0.5], [0.0, 0.0], [2.0, -1.0],
            [-0.5, 0.0], [1.0, 1.0], [0.0, -2.0], [0.25, 0.0], [-1.0, 3.0], [0.5, 0.5]]
    return {"name": f"edge-{modes}", "modes": modes, "noise_dim": 2,
            "spectrum": {"type": "explicit", "values": values[:modes]},
            "control": {"type": "explicit", "beta": beta[:modes]}}


def oracle_cells(spec: dict, T: float) -> list[list]:
    """``(n, m, Q_nm)`` read straight off ``covariance_qt``'s matrix, row by row."""
    bundle = build_bundle(parse_model_dict(spec))
    matrix = covariance_qt(bundle.model, bundle.control, T).matrix
    return [[n, m, matrix[n, m].item()] for n in range(len(matrix)) for m in range(len(matrix))]


class TestCovarianceOracle:
    """``covariance`` output against an oracle that does not read the table's pair map."""

    @pytest.mark.parametrize("modes", [1, 2, 5, 13])
    @pytest.mark.parametrize("make, T", [(heat_spec, 1.0), (heat_spec, 1e308), (edge_spec, 1.0), (edge_spec, 1e308)])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_cells(self, tmp_path, capsys, small_blocks, modes, make, T, fmt):
        # blocks of 7 rows end inside a matrix row; a positive pair sum at 1e308 takes its limits without a warning
        spec = make(modes)
        cells = oracle_cells(spec, T)
        argv = ["covariance", "--model", write_spec(tmp_path, spec), "--T", repr(T), "--format", fmt]
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        if fmt == "csv":
            buf = io.StringIO()
            csv.writer(buf, lineterminator="\n").writerows([["n", "m", "value"], *cells])
            assert out == buf.getvalue()
        else:
            # repr tells -0.0 from 0.0
            rows = json.loads(out)["results"]["entries"]["rows"]
            assert repr(rows) == repr([[n, m, json_cell(v)] for n, m, v in cells])

    def test_edge_spec_has_every_kind_of_cell(self):
        kinds = {repr(v) for _, _, v in oracle_cells(edge_spec(13), 1e308)}
        assert {"inf", "-inf", "nan", "-0.0"} <= kinds
        assert "-0.0" in {repr(v) for _, _, v in oracle_cells(edge_spec(5), 1.0)}


EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e-5, 1e-4, 1.5e300, 0.1, 2.0 / 3.0, 123456789012345.0]
EDGE_INTS = [0, -1, 2**53 + 1, 2**62, -(2**63), 2**63 - 1]


class TestCells:
    def report(self, *tables):
        return {"name": "edge", "depth": {"a": [{"rows": tables[0]}], "b": {"c": {"rows": list(tables[1:])}}}}

    def test_edge_cells(self, small_blocks):
        floats = table_rows(np.array(EDGE_FLOATS), np.array(EDGE_FLOATS[::-1]))
        ints = table_rows(np.array(EDGE_INTS, dtype=np.int64), np.array(EDGE_FLOATS[:6]))
        report = self.report(floats, ints)
        assert render_json(report) == reference_json(report)
        assert render_csv(["x", "y"], floats) == reference_csv(["x", "y"], floats)
        assert render_csv(["i", "y"], ints) == reference_csv(["i", "y"], ints)

    def test_empty_table(self):
        empty = table_rows(np.array([], dtype=int), np.array([]))
        report = self.report(empty, empty)
        assert render_json(report) == reference_json(report)
        assert '"rows": []' in render_json(report)
        assert render_csv(["a", "b"], empty) == "a,b\n"

    def test_nonfinite_cells_follow_num(self):
        table = table_rows(np.arange(3), np.array([math.inf, -math.inf, math.nan]))
        text = render_json({"rows": table})
        assert json.loads(text)["rows"] == [[0, "infinite"], [1, "-infinite"], [2, "nan"]]
        assert "Infinity" not in text and "NaN" not in text
        assert render_csv(["i", "v"], table) == "i,v\n0,inf\n1,-inf\n2,nan\n"

    def test_stray_nonfinite_scalar_raises(self):
        with pytest.raises(ValueError):
            render_json({"value": math.inf})

    def test_string_cells_keep_csv_quoting(self):
        names = ["plain", "with,comma", 'with "quote"', "two\nlines", ""]
        table = table_rows(names, np.arange(5.0))
        assert render_csv(["name", "v"], table) == reference_csv(["name", "v"], table)

    def test_nul_in_a_string_cell(self):
        # NUL pads the cells of a block's byte matrix, so CSV cannot carry one; JSON writes it as \u0000
        table = table_rows(["a\0b", "c"], np.arange(2.0))
        with pytest.raises(ValueError, match="NUL"):
            render_csv(["name", "v"], table)
        assert render_json({"rows": table}) == reference_json({"rows": table})

    def test_markers_in_every_string(self):
        marker = "<table 0:0>"
        table = covariance_rows(np.eye(2))
        report = {marker: marker, "list": [marker, '"' + marker, json.dumps(marker)],
                  "rows": table, "nested": {"rows": table, "x": "<table 1:1>"}}
        assert render_json(report) == reference_json(report)


cells = st.one_of(st.floats(width=64), st.floats(-1e6, 1e6), st.sampled_from(EDGE_FLOATS))
# text that JSON escapes: non-ASCII, quotes, backslashes and control characters
texts = st.text(st.one_of(st.characters(), st.sampled_from('"\\\n\t\x00\x1f\x7féλ€😀')), max_size=8)
leaves = st.one_of(texts, st.integers(), st.floats(allow_nan=False, allow_infinity=False), st.booleans(),
                   st.none(), st.just({}), st.just([]), st.just(()))
# nested dicts, lists and tuples, empty ones included
json_values = st.recursive(leaves, lambda inner: st.one_of(
    st.dictionaries(texts, inner, max_size=3), st.lists(inner, max_size=3), st.tuples(inner, inner)), max_leaves=8)


@st.composite
def reports_with_tables(draw):
    tables = []
    for _ in range(draw(st.integers(1, 3))):
        # a repeated column (formatted once per distinct value) fixes the length of the others
        distinct, each, times = draw(st.integers(0, 6)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
        length = distinct * each * times
        values = draw(st.one_of(
            st.lists(cells, min_size=distinct, max_size=distinct).map(np.array),
            st.lists(st.integers(-(2**63), 2**63 - 1), min_size=distinct, max_size=distinct).map(
                lambda v: np.array(v, dtype=np.int64)),
        ))
        columns = [Column(np.array(draw(st.lists(cells, min_size=length, max_size=length))))
                   for _ in range(draw(st.integers(0, 3)))]
        columns.insert(draw(st.integers(0, len(columns))), repeated(values, each=each, times=times))
        tables.append(Table(*columns))
    report = {"tables": tables[0], draw(texts): draw(json_values)}
    for depth, table in enumerate(tables[1:]):
        inner = draw(st.sampled_from([list, tuple]))([report, {"rows": table}])
        report = {"level": depth, "inner": inner, "text": draw(texts), draw(texts): draw(json_values)}
    return report, tables


@settings(derandomize=True, max_examples=80, deadline=None)
@given(reports_with_tables(), st.integers(1, 9))
def test_random_columns_match_stdlib(drawn, block_rows):
    report, tables = drawn
    saved = reports.BLOCK_ROWS
    reports.BLOCK_ROWS = block_rows
    try:
        assert render_json(report) == reference_json(report)
        for table in tables:
            header = [f"c{k}" for k in range(len(table.columns))]
            assert render_csv(header, table) == reference_csv(header, table)
    finally:
        reports.BLOCK_ROWS = saved


class TestNum:
    def test_nan_has_its_own_string(self):
        assert num(math.nan, "x") == {"value": "nan", "provenance": "x"}

    def test_infinities(self):
        assert num(math.inf, "x")["value"] == "infinite"
        assert num(-math.inf, "x")["value"] == "-infinite"
