import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from daeobs import ProblemFileError
from daeobs.cli import main
from daeobs.problem_io import (
    CSV_BLOCK_ROWS,
    dump_report,
    load_problem,
    matrix_to_json,
    write_csv,
)
from daeobs.fixtures import data_path

from .oracles import csv_rows_loop


def write_doc(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def minimal_estimation_doc():
    eye = {"rows": 1, "cols": 1, "data": [1.0]}
    return {
        "problem": "estimation",
        "matrices": {
            "F": eye, "A": {"rows": 1, "cols": 1, "data": [-1.0]},
            "H": eye, "Q": eye, "R": eye, "Q0": eye,
            "ell": {"rows": 1, "cols": 1, "data": [1.0]},
        },
    }


class TestLoadProblem:
    def test_loads_shipped_fixture(self):
        loaded = load_problem(str(data_path("est_classical.json")))
        assert loaded.kind == "estimation"
        assert loaded.problem.n == 3 and loaded.problem.p == 2
        assert loaded.options.horizon == 20.0
        assert len(loaded.digest) == 64

    def test_loads_control_fixture(self):
        loaded = load_problem(str(data_path("ctrl_rank1.json")))
        assert loaded.kind == "control"
        assert loaded.problem.sys.n == 2

    def test_missing_matrix(self, tmp_path):
        doc = minimal_estimation_doc()
        del doc["matrices"]["Q0"]
        with pytest.raises(ProblemFileError, match="missing"):
            load_problem(write_doc(tmp_path, doc))

    def test_wrong_data_length(self, tmp_path):
        doc = minimal_estimation_doc()
        doc["matrices"]["A"]["data"] = [1.0, 2.0]
        with pytest.raises(ProblemFileError, match="data length"):
            load_problem(write_doc(tmp_path, doc))

    def test_rejects_nan(self, tmp_path):
        doc = minimal_estimation_doc()
        path = tmp_path / "problem.json"
        text = json.dumps(doc).replace('"data": [-1.0]', '"data": [NaN]')
        path.write_text(text)
        with pytest.raises(ProblemFileError, match="non-finite"):
            load_problem(str(path))

    @pytest.mark.parametrize("entry", ["1.5", True, False, None, [1.0]],
                             ids=["string", "true", "false", "null", "list"])
    def test_rejects_entries_that_are_not_numbers(self, tmp_path, entry):
        doc = minimal_estimation_doc()
        doc["matrices"]["A"]["data"] = [entry]
        with pytest.raises(ProblemFileError, match="'A' has non-numeric data"):
            load_problem(write_doc(tmp_path, doc))

    def test_string_entry_exits_1(self, tmp_path, capsys):
        doc = minimal_estimation_doc()
        doc["matrices"]["A"]["data"] = ["-1.0"]
        out = str(tmp_path / "report.json")
        assert main(["synthesize-observer", write_doc(tmp_path, doc),
                     "-o", out]) == 1
        assert "non-numeric data" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["rows", "cols"])
    def test_rejects_boolean_dimensions(self, tmp_path, key):
        doc = minimal_estimation_doc()
        doc["matrices"]["A"][key] = True
        with pytest.raises(ProblemFileError, match="'A' has invalid dimensions"):
            load_problem(write_doc(tmp_path, doc))

    def test_accepts_integer_entries(self, tmp_path):
        doc = minimal_estimation_doc()
        doc["matrices"]["A"]["data"] = [-2]
        A = load_problem(write_doc(tmp_path, doc)).problem.obs.A
        assert A.dtype == float and A[0, 0] == -2.0

    def test_rejects_integer_beyond_float_range(self, tmp_path):
        doc = minimal_estimation_doc()
        doc["matrices"]["A"]["data"] = [-10 ** 400]
        with pytest.raises(ProblemFileError, match="'A' contains non-finite"):
            load_problem(write_doc(tmp_path, doc))

    @pytest.mark.parametrize("key", ["horizon", "rank_tol"])
    def test_rejects_float_option_beyond_float_range(self, tmp_path, capsys, key):
        with open(data_path("ctrl_ode.json")) as fh:
            doc = json.load(fh)
        doc.setdefault("options", {})[key] = 10 ** 400
        path = write_doc(tmp_path, doc)
        with pytest.raises(ProblemFileError, match=f"'{key}' is out of range"):
            load_problem(path)
        assert main(["solve-lq", path, "-o", str(tmp_path / "r.json")]) == 1
        assert "out of range" in capsys.readouterr().err

    def test_rejects_non_spd_q0(self, tmp_path):
        doc = minimal_estimation_doc()
        doc["matrices"]["Q0"]["data"] = [-1.0]
        with pytest.raises(ProblemFileError, match="Q0 must be symmetric positive"):
            load_problem(write_doc(tmp_path, doc))

    def test_rejects_unknown_matrices(self, tmp_path):
        doc = minimal_estimation_doc()
        doc["matrices"]["Z"] = doc["matrices"]["F"]
        with pytest.raises(ProblemFileError, match="unexpected"):
            load_problem(write_doc(tmp_path, doc))

    def test_rejects_unknown_options(self, tmp_path):
        doc = minimal_estimation_doc()
        doc["options"] = {"stepp": 0.1}
        with pytest.raises(ProblemFileError, match="unknown options"):
            load_problem(write_doc(tmp_path, doc))

    def test_rejects_negative_seed(self, tmp_path):
        doc = minimal_estimation_doc()
        doc["options"] = {"seed": -1}
        with pytest.raises(ProblemFileError, match="seed must be nonnegative"):
            load_problem(write_doc(tmp_path, doc))

    @pytest.mark.parametrize("key", ["seed", "trials"])
    def test_rejects_boolean_integer_option(self, tmp_path, key):
        doc = minimal_estimation_doc()
        doc["options"] = {key: True}
        with pytest.raises(ProblemFileError, match=f"'{key}' must be an integer"):
            load_problem(write_doc(tmp_path, doc))

    def test_rejects_bad_kind(self, tmp_path):
        doc = minimal_estimation_doc()
        doc["problem"] = "identification"
        with pytest.raises(ProblemFileError, match="'estimation' or 'control'"):
            load_problem(write_doc(tmp_path, doc))

    def test_matrix_roundtrip(self):
        rng = np.random.default_rng(0)
        M = rng.standard_normal((3, 2))
        obj = matrix_to_json(M)
        back = np.array(obj["data"]).reshape(obj["rows"], obj["cols"])
        np.testing.assert_array_equal(back, M)


class TestReports:
    def test_dump_is_deterministic_and_sorted(self):
        rep = {"b": 1.5, "a": {"y": [1.0, 2.0], "x": "s"}}
        assert dump_report(rep) == dump_report(json.loads(dump_report(rep)))

    def test_dump_rejects_nan(self):
        with pytest.raises(ValueError):
            dump_report({"v": float("nan")})


class TestCsv:
    def test_format(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_csv(str(path), ["t", "v"],
                  [np.array([0.0, 0.5]), np.array([1.0, -2.0])])
        raw = path.read_bytes()
        assert raw == (b"t,v\n"
                       b"0.000000000000e+00,1.000000000000e+00\n"
                       b"5.000000000000e-01,-2.000000000000e+00\n")

    def test_length_mismatch(self, tmp_path):
        from daeobs import InputError
        with pytest.raises(InputError):
            write_csv(str(tmp_path / "x.csv"), ["a", "b"],
                      [np.array([1.0]), np.array([1.0, 2.0])])

    def test_empty_and_header_mismatch(self, tmp_path):
        from daeobs import InputError
        with pytest.raises(InputError, match="no columns"):
            write_csv(str(tmp_path / "x.csv"), [], [])
        with pytest.raises(InputError, match="header"):
            write_csv(str(tmp_path / "x.csv"), ["a"],
                      [np.array([1.0]), np.array([2.0])])

    def test_unwritable_path_is_an_input_error(self, tmp_path):
        from daeobs import InputError
        path = str(tmp_path / "missing" / "x.csv")
        with pytest.raises(InputError, match="cannot write .*missing"):
            write_csv(path, ["a"], [np.array([1.0])])

    def test_simulate_traces_match_row_loop(self, tmp_path, monkeypatch):
        written = []

        def recorded(path, header, columns):
            written.append((path, header, columns))
            write_csv(path, header, columns)

        monkeypatch.setattr("daeobs.cli.write_csv", recorded)
        assert main(["simulate", str(data_path("est_rank1.json")), "--noisy",
                     "--runs", "2", "--output-dir", str(tmp_path)]) == 0
        assert len(written) == 2
        for path, header, columns in written:
            with open(path, "rb") as fh:
                assert fh.read() == csv_rows_loop(header, columns)

    def test_extreme_values_match_row_loop(self, tmp_path):
        special = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                   -1.7976931348623157e308, float("nan"), float("inf"),
                   -float("inf"), 1.0 / 3.0, -2.5e-300, 123456789.0]
        columns = [np.array(special), np.array(special[::-1]),
                   np.arange(-6, 6, dtype=np.int64) * 10 ** 17]
        path = tmp_path / "x.csv"
        write_csv(str(path), ["a", "b", "i"], columns)
        assert path.read_bytes() == csv_rows_loop(["a", "b", "i"], columns)

    # edges after several full blocks: one row short, exact, one row over
    @pytest.mark.parametrize("length", [
        0, 1, 4 * CSV_BLOCK_ROWS - 1, 4 * CSV_BLOCK_ROWS, 4 * CSV_BLOCK_ROWS + 1,
        12 * CSV_BLOCK_ROWS + 7])
    def test_block_edges_match_row_loop(self, tmp_path, length):
        rng = np.random.default_rng(length)
        header = ["t", "x", "y"]
        columns = [np.arange(length) * 1e-3,
                   rng.standard_normal(length) * 10.0 ** rng.integers(
                       -300, 300, length),
                   rng.integers(-1000, 1000, length)]
        path = tmp_path / "x.csv"
        write_csv(str(path), header, columns)
        assert path.read_bytes() == csv_rows_loop(header, columns)


def _written(directory, columns) -> bytes:
    path = directory / "x.csv"
    write_csv(str(path), [f"c{j}" for j in range(len(columns))], columns)
    return path.read_bytes()


def _neighbours(values) -> np.ndarray:
    """Each value with its three float neighbours on either side."""
    out = []
    for x in values:
        for toward in (-np.inf, np.inf):
            y = x
            for _ in range(3):
                y = np.nextafter(y, toward)
                out.append(y)
        out.append(x)
    return np.array(out)


class TestCsvFormat:
    """write_csv against one '%.12e' per value, on values chosen where a
    scaled, rounded 13-digit mantissa is hardest to get right."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(arrays(np.float64, array_shapes(min_dims=2, max_dims=2, max_side=12),
                  elements=st.floats(width=64)))
    def test_any_float_matches_row_loop(self, tmp_path_factory, table):
        columns = list(table.T)
        assert (_written(tmp_path_factory.mktemp("csv"), columns)
                == csv_rows_loop([f"c{j}" for j in range(len(columns))], columns))

    def assert_matches_row_loop(self, tmp_path, values):
        values = np.concatenate([values, -values])
        columns = [values, values[::-1], np.roll(values, 1)]
        assert (_written(tmp_path, columns)
                == csv_rows_loop(["c0", "c1", "c2"], columns))

    def test_exact_ties(self, tmp_path):
        mantissas = np.random.default_rng(0).integers(10 ** 12, 10 ** 13, 200)
        ties = [m + 0.5 for m in mantissas.tolist()]
        # integers whose 14th significant digit is a final 5
        ties += [float(10 * m + 5) for m in mantissas.tolist()]
        ties += [float((10 * m + 5) * 10 ** j) for m in (1234567890123, 9999999999999)
                 for j in range(2)]
        ties += [1234567890123.5, 9999999999999.5]
        self.assert_matches_row_loop(tmp_path, np.array(ties))

    def test_next_to_half_way_points(self, tmp_path):
        rng = np.random.default_rng(1)
        halves = [float(f"{m}5e{e - 13}") for m, e in zip(
            rng.integers(10 ** 12, 10 ** 13, 400).tolist(),
            rng.integers(-310, 309, 400).tolist())]
        self.assert_matches_row_loop(tmp_path, _neighbours(halves))

    def test_next_to_powers_of_ten_and_carries(self, tmp_path):
        anchors = [float(f"1e{k}") for k in range(-320, 309)]
        anchors += [float(f"9.9999999999995e{k}") for k in range(-320, 308)]
        self.assert_matches_row_loop(tmp_path, _neighbours(anchors))
