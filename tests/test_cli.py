"""CLI contract: exit codes, file formats, determinism, round-trips."""

import errno
import json
import math
import os
import subprocess
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cdfdr.cli
from cdfdr.betafit import BetaFit, smooth_pvalues
from cdfdr.density import (
    DEFAULT_FLOOR,
    CoefficientSet,
    ComparisonDensityModel,
    eval_comparison_density_many,
)
from cdfdr.cli import (
    _JSON_BLOCK,
    _default,
    _json_text,
    _parse_rows,
    _records_text,
    _write_outputs,
    main,
    parse_null_spec,
    read_input_table,
)
from cdfdr.errors import ConfigError, InputError
from cdfdr.pipeline import NullSpec, fit_cdfdr, local_fdr_many, t_to_z, to_pvalues


def _write_stats_csv(path, values, ids=None, column="stat"):
    lines = [f"id,{column}"] if ids is not None else [column]
    for i, v in enumerate(values):
        prefix = f"{ids[i]}," if ids is not None else ""
        lines.append(f"{prefix}{float(v)!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _model_from_report(report):
    """The comparison-density model and pi0 that a report.json records."""
    fit = BetaFit(
        alpha=report["beta_fit"]["alpha"], beta=report["beta_fit"]["beta"],
        log_likelihood=report["beta_fit"]["log_likelihood"],
        n=report["n"], iterations=report["beta_fit"]["iterations"],
        converged=report["beta_fit"]["converged"],
    )
    coeffs = CoefficientSet(
        m=report["coefficients"]["m"],
        theta_tilde=np.array(report["coefficients"]["theta_tilde"]),
        theta_hat=np.array(report["coefficients"]["theta_hat"]), n=report["n"],
        threshold=report["coefficients"]["threshold"],
    )
    return ComparisonDensityModel(fit=fit, coeffs=coeffs), report["pi0"]["pi0_hat"]


def _forbid_work(monkeypatch):
    """Make the fit and the replicate run raise, for a command that must refuse first."""
    def refuse(*args, **kwargs):
        raise AssertionError("the command did its work before checking its output paths")
    monkeypatch.setattr(cdfdr.cli, "fit_cdfdr", refuse)
    monkeypatch.setattr(cdfdr.cli, "run_replicates", refuse)


def _child_env():
    """This environment with the package's source directory first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(cdfdr.cli.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def _stages(directory):
    return [p for p in directory.iterdir() if p.name.startswith(".cdfdr-")]


@pytest.fixture
def mixture_csv(tmp_path):
    rng = np.random.Generator(np.random.Philox(202))
    stats = np.concatenate([rng.normal(0, 1, 1100),
                            rng.normal(3, 1, 100) + rng.normal(0, 1, 100)])
    path = tmp_path / "stats.csv"
    _write_stats_csv(path, stats, ids=[f"g{i}" for i in range(stats.size)])
    return path, stats


class TestInputTable:
    def test_reads_ids_and_values(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text("id,stat\na,1.5\nb,-0.25\n", encoding="utf-8")
        ids, values = read_input_table(str(path), "stat")
        assert ids == ["a", "b"]
        assert values.tolist() == [1.5, -0.25]

    def test_row_numbers_without_id(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text("stat\n0.3\n0.7\n", encoding="utf-8")
        ids, _ = read_input_table(str(path), "stat")
        assert ids == ["1", "2"]

    def test_missing_value_cites_row(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text("id,stat\na,1.0\nb,\n", encoding="utf-8")
        with pytest.raises(InputError, match="row 2"):
            read_input_table(str(path), "stat")

    def test_non_numeric_cites_row(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text("stat\n1.0\nNA\n", encoding="utf-8")
        with pytest.raises(InputError, match="row 2"):
            read_input_table(str(path), "stat")

    def test_nan_rejected(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text("stat\n1.0\nnan\n", encoding="utf-8")
        with pytest.raises(InputError, match="row 2"):
            read_input_table(str(path), "stat")

    def test_pvalue_range_cites_row(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text("pvalue\n0.5\n1.2\n", encoding="utf-8")
        with pytest.raises(InputError, match="row 2"):
            read_input_table(str(path), "pvalue")

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text("id,stat\na,1.0,extra\n", encoding="utf-8")
        with pytest.raises(InputError, match="row 1"):
            read_input_table(str(path), "stat")

    @pytest.mark.parametrize("text,ids", [
        ("id,stat\na,1.5\nb,-0.25\n", ["a", "b"]),
        ("stat\n1.5\n-0.25\n", ["1", "2"]),
    ], ids=["id_stat", "stat_only"])
    def test_byte_order_mark_is_dropped(self, tmp_path, text, ids):
        path = tmp_path / "in.csv"
        path.write_text(text, encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        got_ids, values = read_input_table(str(path), "stat")
        assert got_ids == ids
        assert values.tolist() == [1.5, -0.25]

    def test_whitespace_row_is_skipped_and_keeps_its_number(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text("x,stat\n1,0.5\n , \n2,0.7\n", encoding="utf-8")
        ids, values = read_input_table(str(path), "stat")
        assert ids == ["1", "3"]
        assert values.tolist() == [0.5, 0.7]
        path.write_text("id,stat\na,0.5\n , \nb,NA\n", encoding="utf-8")
        with pytest.raises(InputError, match="row 3: stat value 'NA' is not a number"):
            read_input_table(str(path), "stat")

    def test_blank_value_beside_an_id_cites_row(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text("id,stat\na,1.0\nb, \n", encoding="utf-8")
        with pytest.raises(InputError, match="row 2: missing stat value"):
            read_input_table(str(path), "stat")

    def test_missing_column(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text("id,zscore\na,1.0\n", encoding="utf-8")
        with pytest.raises(InputError, match="no 'stat' column"):
            read_input_table(str(path), "stat")

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError, match="cannot open input file"):
            read_input_table(str(tmp_path / "absent.csv"), "stat")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(InputError, match="is empty"):
            read_input_table(str(path), "stat")

    def test_header_only(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text("id,stat\n", encoding="utf-8")
        with pytest.raises(InputError, match="a header but no data rows"):
            read_input_table(str(path), "stat")

    def test_unknown_column_kind(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text("x\n1.0\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="column must be 'stat' or 'pvalue'"):
            read_input_table(str(path), "x")


class TestBulkIngestion:
    """read_input_table, whose bulk path splits plain files by str.split,
    against _parse_rows on the rows the csv reader yields."""

    cell = st.floats(allow_nan=False, allow_infinity=False).map(repr) | st.sampled_from(
        ["0", "+1", "-2.5e-3", "1E3", "1_000", ".5", "5."])
    pad = st.sampled_from(["", " ", "  ", "\t"])
    row = st.tuples(st.text("ab\u00e9 ", max_size=4), cell, pad, pad)

    @settings(max_examples=60, deadline=None)
    @given(rows=st.lists(row, min_size=1, max_size=30), blank=st.none() | st.integers(0, 30),
           with_id=st.booleans())
    def test_matches_row_parser(self, tmp_path_factory, rows, blank, with_id):
        lines = [(f"{ident}," if with_id else "") + f"{left}{cell}{right}"
                 for ident, cell, left, right in rows]
        if blank is not None:
            lines.insert(blank, "")
        path = tmp_path_factory.mktemp("bulk") / "in.csv"
        header = ["id", "stat"] if with_id else ["stat"]
        path.write_text("\n".join([",".join(header), *lines]) + "\n", encoding="utf-8")
        ids, values = read_input_table(str(path), "stat")
        table = [line.split(",") if line else [] for line in lines]
        ref_ids, ref_values = _parse_rows(str(path), table, header, "stat")
        assert ids == ref_ids
        assert values.tolist() == ref_values.tolist()

    @staticmethod
    def _outcome(path, column, monkeypatch=None):
        """read_input_table's ids and value bits, or its error's type and text;
        with ``monkeypatch``, through the csv reader alone."""
        if monkeypatch is not None:
            monkeypatch.setattr(cdfdr.cli, "_read_plain", lambda handle, column: None)
        try:
            ids, values = read_input_table(str(path), column)
        except (InputError, ConfigError) as exc:
            return type(exc), str(exc)
        finally:
            if monkeypatch is not None:
                monkeypatch.undo()
        return ids, values.tobytes()

    @staticmethod
    def _bulk(path, column):
        """What the bulk path makes of the file at ``path``."""
        with open(path, "rb") as handle:
            return cdfdr.cli._read_plain(handle, column)

    # (name, file bytes, column, whether the bulk path reads it)
    CASES = [
        ("plain", b"id,stat\na,1.5\nb,-2\n", "stat", True),
        ("quoted-id", b'id,stat\n"a",1.5\nb,2\n', "stat", False),
        ("quoted-comma-and-line-break", b'id,stat\n"a,b",1\n"c\nd",2\n', "stat", False),
        ("quoted-header", b'"id","stat"\na,1\n', "stat", False),
        ("crlf", b"id,stat\r\na,1\r\nb,2\r\n", "stat", True),
        ("lone-cr", b"id,stat\ra,1\rb,2\r", "stat", False),
        ("cr-inside-a-line", b"id,stat\na,1\rb,2\n", "stat", False),
        ("bom", b"\xef\xbb\xbfid,stat\na,1\n", "stat", True),
        ("blank-row", b"id,stat\na,1\n\nb,2\n", "stat", False),
        ("blank-rows-no-id", b"stat\n1\n\n\n2\n", "stat", False),
        ("whitespace-rows", b"id,stat\na,1\n   \n , \t\nb,2\n", "stat", False),
        ("trailing-blank-rows", b"id,stat\na,1\n\n\n", "stat", False),
        ("ragged-long", b"id,stat\na,1,x\n", "stat", False),
        ("ragged-short", b"id,stat\na,1\nb\n", "stat", False),
        ("missing-value", b"id,stat\na,1\nb,\n", "stat", False),
        ("non-ascii-ids", "id,stat\n\u00e9,1\n\u4e2d \u00e9,2\n".encode(), "stat", True),
        ("underscores-and-arabic-digits", "stat\n1_000\n\u0661\u0662\u0663\n".encode(), "stat",
         True),
        ("hex", b"stat\n0x10\n", "stat", False),
        ("nan", b"stat\n1\nnan\n", "stat", False),
        ("inf", b"stat\n-inf\n", "stat", False),
        ("overflow", b"stat\n1e400\n", "stat", False),
        ("pvalue-range", b"pvalue\n0.5\n1.5\n", "pvalue", False),
        ("pvalue-edges", b"pvalue\n-0.0\n1.0\n0\n", "pvalue", True),
        ("padded-cells", b"id,stat\n a , 1.5 \n\tb\t,\t2\t\n", "stat", True),
        ("no-final-line-break", b"id,stat\na,1\nb,2", "stat", True),
        ("header-only", b"id,stat\n", "stat", False),
        ("header-without-line-break", b"id,stat", "stat", False),
        ("empty", b"", "stat", False),
        ("missing-column", b"id,value\na,1\n", "stat", False),
        ("nul", b"id,stat\na\x00,1\n", "stat", False),
        ("not-utf8", b"id,stat\na\xff,1\n", "stat", False),
        ("long-field", b"id,stat\n" + b"a" * 131_073 + b",1\n", "stat", False),
    ]

    @pytest.mark.parametrize("name, data, column, bulk", CASES, ids=[c[0] for c in CASES])
    def test_matches_the_csv_reader(self, name, data, column, bulk, tmp_path, monkeypatch):
        path = tmp_path / "in.csv"
        path.write_bytes(data)
        assert (self._bulk(path, column) is not None) == bulk
        assert self._outcome(path, column) == self._outcome(path, column, monkeypatch)

    @pytest.mark.parametrize("chunk", [1, 9, 10, 11, 64])
    @pytest.mark.parametrize("rows", [1, 6, 7, 8, 13])
    @pytest.mark.parametrize("kind", ["plain", "crlf", "blank", "no-id", "bad"])
    def test_rows_at_chunk_edges(self, kind, rows, chunk, tmp_path, monkeypatch):
        """Files whose lines fall on either side of a chunk boundary read as
        the csv reader reads them."""
        lines = [f"c{i:02d},{i / 8!r}" for i in range(rows)]  # 9 or 10 bytes with the break
        header = "id,stat"
        if kind == "blank":
            lines.insert(rows // 2, "")
        elif kind == "no-id":
            header, lines = "stat", [line.split(",")[1] for line in lines]
        elif kind == "bad":
            lines[-1] = "c99,x"
        end = "\r\n" if kind == "crlf" else "\n"
        path = tmp_path / "in.csv"
        path.write_bytes(end.join([header, *lines, ""]).encode())
        monkeypatch.setattr(cdfdr.cli, "_PLAIN_CHUNK", chunk)
        bulk = self._outcome(path, "stat")
        assert (self._bulk(path, "stat") is not None) == (kind not in ("blank", "bad"))
        assert bulk == self._outcome(path, "stat", monkeypatch)


    @pytest.mark.parametrize("late", ['"c95"', "", "c95,x"], ids=["quote", "blank", "bad"])
    def test_late_irregular_line_is_found_before_any_split(self, late, tmp_path, monkeypatch):
        """A quote or blank row near the end sends the file to the csv
        reader before any chunk is split; a bad value is found by the split."""
        lines = [f"c{i:02d},{i / 8!r}" for i in range(100)]
        lines[95] = late + lines[95][3:] if late == '"c95"' else late
        path = tmp_path / "in.csv"
        path.write_text("\n".join(["id,stat", *lines, ""]), encoding="utf-8")
        monkeypatch.setattr(cdfdr.cli, "_PLAIN_CHUNK", 64)
        splits = []
        real = cdfdr.cli._plain_cells
        monkeypatch.setattr(cdfdr.cli, "_plain_cells",
                            lambda text, width: splits.append(text) or real(text, width))
        assert self._bulk(path, "stat") is None
        assert (splits == []) == (late != "c95,x")

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    @pytest.mark.parametrize("name", ["plain", "quoted-id", "blank-row", "nan", "not-utf8",
                                      "header-only", "empty"])
    def test_pipe_reads_as_the_csv_reader(self, name, tmp_path, monkeypatch):
        """A pipe, as ``--input <(zcat in.csv.gz)`` or ``/dev/stdin`` gives,
        can be read once only: it goes straight to the csv reader."""
        data, column = next((d, c) for n, d, c, _ in self.CASES if n == name)
        path = tmp_path / "in.csv"
        path.write_bytes(data)
        expected = self._outcome(path, column, monkeypatch)

        def refuse(handle, column):
            raise AssertionError("the bulk path read a pipe")
        monkeypatch.setattr(cdfdr.cli, "_read_plain", refuse)
        read_end, write_end = os.pipe()
        try:
            os.write(write_end, data)
            os.close(write_end)
            write_end = None
            pipe = f"/dev/fd/{read_end}"
            if isinstance(expected[1], str):  # the error text names the path read
                expected = expected[0], expected[1].replace(repr(str(path)), repr(pipe))
            assert self._outcome(pipe, column) == expected
        finally:
            os.close(read_end)
            if write_end is not None:
                os.close(write_end)


class TestNullSpecParsing:
    def test_forms(self):
        assert parse_null_spec("std-normal") == NullSpec.standard_normal()
        assert parse_null_spec("normal:1.5,2.0") == NullSpec.normal(1.5, 2.0)
        assert parse_null_spec("t:30") == NullSpec.student_t(30.0)

    def test_rejects(self):
        for text in ("gauss", "normal:1", "normal:a,b", "t:zero"):
            with pytest.raises(ConfigError):
                parse_null_spec(text)


class TestFdrCommand:
    def _run(self, csv_path, tmp_path, extra=()):
        out = tmp_path / "report.json"
        curves = tmp_path / "curves.csv"
        code = main([
            "fdr", "--input", str(csv_path), "--column", "stat",
            "--out", str(out), "--curves", str(curves), *extra,
        ])
        return code, out, curves

    def test_report_structure(self, mixture_csv, tmp_path):
        csv_path, stats = mixture_csv
        code, out, curves = self._run(csv_path, tmp_path)
        assert code == 0
        report = json.loads(out.read_text())
        assert report["n"] == stats.size
        fit = report["beta_fit"]
        assert 0.0 < fit["alpha"] and 0.0 < fit["beta"]
        assert fit["converged"] is True
        coeffs = report["coefficients"]
        assert len(coeffs["theta_tilde"]) == 6
        assert coeffs["threshold"] == pytest.approx(
            2.0 * math.log(stats.size) / stats.size
        )
        assert 0.0 < report["pi0"]["pi0_hat"] <= 1.0
        disc = report["discoveries"]
        assert disc["n_discoveries"] == disc["n_left"] + disc["n_right"]
        cases = report["cases"]
        assert list(cases) == ["id", "pvalue", "d_hat", "fdr"]
        for column in cases.values():
            assert len(column) == stats.size
        assert report["config"]["input"] == "stats.csv"

    def test_discoveries_follow_case_fdr(self, mixture_csv, tmp_path):
        csv_path, _ = mixture_csv
        code, out, _ = self._run(csv_path, tmp_path, ["--fdr-threshold", "0.3"])
        assert code == 0
        report = json.loads(out.read_text())
        fdr = np.array(report["cases"]["fdr"])
        indices = report["discoveries"]["indices"]
        assert indices == np.flatnonzero(fdr <= 0.3).tolist()
        assert indices

    def test_curves_format_and_roundtrip(self, mixture_csv, tmp_path):
        csv_path, stats = mixture_csv
        code, out, curves = self._run(csv_path, tmp_path)
        assert code == 0
        report = json.loads(out.read_text())
        text = curves.read_bytes().decode("utf-8")
        assert "\r" not in text
        lines = text.strip().split("\n")
        assert lines[0] == "t,u,v,d_hat,fdr"
        assert len(lines) == 1 + 401
        # Recomputing fdr from (pvalue, serialized parameters) must agree, at
        # both ends of the curve grid and at the last cases of the report.
        model, pi0 = _model_from_report(report)
        grid = [line.split(",") for line in lines[1:50] + lines[-50:]]
        cases = report["cases"]
        points = [(u, fdr) for _, u, _, _, fdr in grid]
        points += zip(cases["pvalue"][-50:], cases["fdr"][-50:])
        for u, fdr in points:
            recomputed = min(1.0, pi0 / eval_comparison_density_many(model, float(u))[0])
            assert recomputed == pytest.approx(float(fdr), abs=1e-9)

    def test_determinism_byte_identical(self, mixture_csv, tmp_path):
        csv_path, _ = mixture_csv
        _, out1, curves1 = self._run(csv_path, tmp_path)
        first = (out1.read_bytes(), curves1.read_bytes())
        _, out2, curves2 = self._run(csv_path, tmp_path)
        assert (out2.read_bytes(), curves2.read_bytes()) == first

    def test_report_does_not_depend_on_the_input_directory(self, mixture_csv, tmp_path):
        csv_path, _ = mixture_csv
        _, out, _ = self._run(csv_path, tmp_path)
        first = out.read_bytes()
        elsewhere = tmp_path / "a" / "longer" / "directory"
        elsewhere.mkdir(parents=True)
        moved = elsewhere / csv_path.name
        moved.write_bytes(csv_path.read_bytes())
        _, out, _ = self._run(moved, tmp_path)
        assert out.read_bytes() == first

    def test_pvalue_column_mode(self, tmp_path):
        rng = np.random.Generator(np.random.Philox(77))
        pvals = rng.random(1500)
        path = tmp_path / "p.csv"
        _write_stats_csv(path, pvals, column="pvalue")
        out = tmp_path / "r.json"
        curves = tmp_path / "c.csv"
        code = main([
            "fdr", "--input", str(path), "--column", "pvalue",
            "--out", str(out), "--curves", str(curves),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert list(report["cases"]) == ["id", "pvalue", "d_hat", "fdr"]
        assert report["cases"]["pvalue"] == pvals.tolist()
        first_row = curves.read_text().strip().split("\n")[1]
        assert first_row.startswith(",")

    def test_t_to_z_preprocessing(self, tmp_path):
        rng = np.random.Generator(np.random.Philox(78))
        t = np.concatenate([rng.standard_t(100, size=1350), rng.standard_t(100, size=150) + 3.5])
        path = tmp_path / "t.csv"
        _write_stats_csv(path, t)
        out = tmp_path / "r.json"
        curves = tmp_path / "c.csv"
        code = main([
            "fdr", "--input", str(path), "--column", "stat", "--df", "100",
            "--out", str(out), "--curves", str(curves),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        # The p-values and the discoveries' stats are those of the z-converted values.
        z = t_to_z(t, 100)
        pvalues = np.array(report["cases"]["pvalue"])
        assert pvalues.tobytes() == to_pvalues(z, NullSpec.standard_normal()).tobytes()
        disc = report["discoveries"]
        assert disc["indices"]
        assert [case["stat"] for case in disc["cases"]] == z[disc["indices"]].tolist()

    def test_out_of_range_pvalue_exits_2(self, tmp_path, capsys):
        path = tmp_path / "p.csv"
        path.write_text("pvalue\n0.4\n1.2\n", encoding="utf-8")
        code = main([
            "fdr", "--input", str(path), "--column", "pvalue",
            "--out", str(tmp_path / "r.json"), "--curves", str(tmp_path / "c.csv"),
        ])
        assert code == 2
        assert "row 2" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["fdr", "pi0"])
    @pytest.mark.parametrize("content", [
        # An id holding the Latin-1 byte 0xE9, which is not UTF-8.
        b"id,stat\n1,0.5\ncaf\xe9,1.5\n",
        # A cell longer than csv's default field_size_limit of 131,072 characters.
        b"id,stat\n1,0.5\n" + b"x" * 131_073 + b",1.5\n",
    ], ids=["not_utf8", "field_over_limit"])
    def test_unreadable_input_exits_2(self, tmp_path, capsys, command, content):
        path = tmp_path / "in.csv"
        path.write_bytes(content)
        out, curves = tmp_path / "r.json", tmp_path / "c.csv"
        code = main([command, "--input", str(path), "--column", "stat",
                     "--out", str(out), "--curves", str(curves)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("cdfdr: input error: ") and str(path) in err
        assert not out.exists() and not curves.exists()

    def test_numerical_failure_exits_3_with_step(self, tmp_path, capsys):
        path = tmp_path / "const.csv"
        _write_stats_csv(path, np.zeros(1500))
        out = tmp_path / "r.json"
        code = main([
            "fdr", "--input", str(path), "--column", "stat",
            "--out", str(out), "--curves", str(tmp_path / "c.csv"),
        ])
        assert code == 3
        assert "step 2" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_flag_exits_2(self, mixture_csv, tmp_path):
        csv_path, _ = mixture_csv
        with pytest.raises(SystemExit) as exc:
            main(["fdr", "--input", str(csv_path), "--column", "stat",
                  "--frobnicate", "--out", "x", "--curves", "y"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("target", ["out", "curves"])
    def test_unwritable_output_exits_2(self, mixture_csv, tmp_path, capsys, monkeypatch, target):
        csv_path, _ = mixture_csv
        _forbid_work(monkeypatch)
        paths = {"out": tmp_path / "r.json", "curves": tmp_path / "c.csv"}
        paths[target] = tmp_path / "missing" / "x.out"
        code = main(["fdr", "--input", str(csv_path), "--column", "stat",
                     "--out", str(paths["out"]), "--curves", str(paths["curves"])])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("cdfdr: input error: cannot write output file")
        assert str(paths[target]) in err and ".cdfdr-" not in err
        assert not [p for p in tmp_path.iterdir() if p.name.startswith(".cdfdr-")]

    def test_bad_null_spec_exits_2(self, mixture_csv, tmp_path):
        csv_path, _ = mixture_csv
        code = main([
            "fdr", "--input", str(csv_path), "--column", "stat",
            "--null", "cauchy:1", "--out", str(tmp_path / "r.json"),
            "--curves", str(tmp_path / "c.csv"),
        ])
        assert code == 2

    def test_warning_prints_message_only(self, tmp_path, capsys):
        rng = np.random.Generator(np.random.Philox(7))
        signs = np.where(rng.random(500) < 0.5, -1.0, 1.0)
        stats = np.concatenate([rng.normal(0.0, 1.0, 4500),
                                signs * 3.0 + rng.normal(0.0, 1.0, 500) + rng.normal(0.0, 1.0, 500)])
        path = tmp_path / "two_sided.csv"
        _write_stats_csv(path, stats)
        code, _, _ = self._run(path, tmp_path, ["--transform", "two-sided"])
        assert code == 0
        err = capsys.readouterr().err
        assert err.startswith("cdfdr: warning: step 2 (beta fit)")
        assert "cli.py" not in err

    def test_unconverged_fit_warns(self, tmp_path, capsys):
        path = tmp_path / "p.csv"
        _write_stats_csv(path, [1.2517002258981547e-10] + [0.0] * 123, column="pvalue")
        code = main(["fdr", "--input", str(path), "--column", "pvalue",
                     "--out", str(tmp_path / "r.json"), "--curves", str(tmp_path / "c.csv")])
        assert code == 0
        assert ("cdfdr: warning: step 2 (beta fit): the fit stopped unconverged after 200 steps"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("column,flags", [
        ("pvalue", ["--null", "garbage"]),
        ("pvalue", ["--null", "t:5"]),
        ("pvalue", ["--df", "30"]),
        ("stat", ["--df", "30", "--null", "t:30"]),
    ], ids=["pvalue-null-garbage", "pvalue-t-null", "pvalue-df", "df-with-t-null"])
    def test_flags_the_column_ignores_exit_2(self, tmp_path, capsys, column, flags):
        # A p-value column takes no null and no t-to-z conversion, and t
        # statistics converted to z by --df are not fitted under a t null.
        path = tmp_path / "in.csv"
        _write_stats_csv(path, np.random.Generator(np.random.Philox(9)).random(200), column=column)
        out, curves = tmp_path / "r.json", tmp_path / "c.csv"
        code = main(["fdr", "--input", str(path), "--column", column, *flags,
                     "--out", str(out), "--curves", str(curves)])
        assert code == 2
        assert capsys.readouterr().err.startswith("cdfdr: input error: --")
        assert not out.exists() and not curves.exists()

    @pytest.mark.parametrize("command", ["fdr", "pi0"])
    def test_two_sided_pvalues_exit_2(self, tmp_path, capsys, command):
        # Precomputed p-values skip the transform: a two-sided request is
        # refused, with no output file and no step-2 warning.
        path = tmp_path / "p.csv"
        _write_stats_csv(path, np.random.Generator(np.random.Philox(9)).random(200), column="pvalue")
        out, curves = tmp_path / "r.json", tmp_path / "c.csv"
        code = main([command, "--input", str(path), "--column", "pvalue", "--transform", "two-sided",
                     "--out", str(out), "--curves", str(curves)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("cdfdr: input error: the two-sided transform")
        assert "warning" not in err
        assert not out.exists() and not curves.exists()

    def test_t_null_cases_match_the_library(self, mixture_csv, tmp_path):
        csv_path, stats = mixture_csv
        code, out, _ = self._run(csv_path, tmp_path, ["--null", "t:5"])
        assert code == 0
        fdr = np.array(json.loads(out.read_text())["cases"]["fdr"])
        expected = local_fdr_many(fit_cdfdr(stats, NullSpec.student_t(5)), stats)
        assert fdr.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("flags", [
        ["--null", "normal:nan,1"],
        ["--null", "t:inf"],
        ["--null", "normal:0,inf"],
        ["--df", "inf"],
    ], ids=["mu-nan", "df-inf", "sigma-inf", "t-to-z-df-inf"])
    def test_nonfinite_null_parameter_exits_2(self, mixture_csv, tmp_path, capsys, flags):
        csv_path, _ = mixture_csv
        code, out, _ = self._run(csv_path, tmp_path, flags)
        assert code == 2
        err = capsys.readouterr().err
        assert "input error" in err and "finite" in err
        assert not out.exists()


def _assert_canonical_outputs(out, curves, empty=(), ints=()):
    """report.json is the stdlib indent-1 form; curves.csv fields are repr text."""
    data = out.read_bytes()
    assert data == (json.dumps(json.loads(data), indent=1) + "\n").encode("ascii")
    text = curves.read_bytes().decode("ascii")
    assert text.endswith("\n") and "\r" not in text
    lines = text[:-1].split("\n")
    header = lines[0].split(",")
    assert len(lines) > 1
    for line in lines[1:]:
        for name, field in zip(header, line.split(","), strict=True):
            if name in empty:
                assert field == ""
            elif name in ints:
                assert field == str(int(field))
            else:
                assert field == repr(float(field))


_COMMANDS = {
    "fdr-stat": (["fdr", "--column", "stat"], {}),
    "fdr-pvalue": (["fdr", "--column", "pvalue"], {"empty": {"t"}}),
    "fdr-t-null": (["fdr", "--column", "stat", "--null", "t:5"], {}),
    "fdr-normal-null": (["fdr", "--column", "stat", "--null", "normal:0.1,1.2"], {}),
    "pi0": (["pi0", "--column", "pvalue"], {"ints": {"n_lambda"}}),
    "simulate-mixnorm": (["simulate", "--design", "mixnorm", "--mu", "2", "--replicates",
                          "2", "--seed", "3", "--n", "2000", "--n-null", "1800"], {}),
    "simulate-mixunif": (["simulate", "--design", "mixunif", "--pi0", "0.9", "--a", "0.05",
                          "--replicates", "2", "--seed", "3", "--n", "2000"], {}),
}


def _command_argv(name, mixture_csv, tmp_path):
    """Arguments of command ``name`` up to its output paths, and its field kinds."""
    argv, fields = _COMMANDS[name]
    csv_path, stats = mixture_csv
    if "--column" in argv:
        if argv[-1] == "pvalue":
            csv_path = tmp_path / "p.csv"
            rng = np.random.Generator(np.random.Philox(305))
            _write_stats_csv(csv_path, rng.random(stats.size) ** 1.5, column="pvalue")
        argv = argv + ["--input", str(csv_path)]
    return argv, fields


def _run_command(name, mixture_csv, tmp_path):
    argv, fields = _command_argv(name, mixture_csv, tmp_path)
    out, curves = tmp_path / "out.json", tmp_path / "curves.csv"
    assert main(argv + ["--out", str(out), "--curves", str(curves)]) == 0
    return out, curves, fields


@pytest.mark.parametrize("name", list(_COMMANDS))
def test_outputs_are_canonical(name, mixture_csv, tmp_path):
    out, curves, fields = _run_command(name, mixture_csv, tmp_path)
    _assert_canonical_outputs(out, curves, **fields)


@pytest.mark.parametrize("name", ["fdr-stat", "fdr-pvalue"])
def test_curves_evaluate_the_fitted_model(name, mixture_csv, tmp_path):
    # The v, d_hat and fdr columns are the smooth p-value, the floored density
    # and the capped fdr at the column's u, bit for bit.
    out, curves, _ = _run_command(name, mixture_csv, tmp_path)
    model, pi0 = _model_from_report(json.loads(out.read_text()))
    rows = [line.split(",") for line in curves.read_text().splitlines()[1:]]
    u, v, d_hat, fdr = (np.array([float(row[k]) for row in rows]) for k in (1, 2, 3, 4))
    expected = eval_comparison_density_many(model, u)
    assert v.tobytes() == smooth_pvalues(u, model.fit).tobytes()
    assert d_hat.tobytes() == expected.tobytes()
    assert fdr.tobytes() == np.minimum(pi0 / expected, 1.0).tobytes()


@pytest.mark.parametrize("name", ["fdr-stat", "fdr-pvalue"])
def test_smooth_pvalues_follow_from_the_report(name, mixture_csv, tmp_path):
    # v is not written: the report's p-values and beta fit give it bit for bit.
    out, _, _ = _run_command(name, mixture_csv, tmp_path)
    report = json.loads(out.read_text())
    argv, _ = _command_argv(name, mixture_csv, tmp_path)
    column = argv[argv.index("--column") + 1]
    _, values = read_input_table(argv[argv.index("--input") + 1], column)
    null = NullSpec.standard_normal() if column == "stat" else NullSpec.precomputed()
    model, _ = _model_from_report(report)
    v = smooth_pvalues(np.array(report["cases"]["pvalue"]), model.fit)
    assert v.tobytes() == fit_cdfdr(values, null).fitted.v.tobytes()


def test_floor_hits_count_the_floored_cases(tmp_path):
    # A sparse bump at 0.6 beside signal near 0 drives the 16-term series
    # below the floor at some fitted cases.
    rng = np.random.Generator(np.random.Philox(7))
    pvalues = np.concatenate([rng.random(1200), rng.uniform(0.0, 0.02, 400),
                              rng.uniform(0.6, 0.65, 400)])
    path = tmp_path / "p.csv"
    _write_stats_csv(path, pvalues, column="pvalue")
    out, curves = tmp_path / "r.json", tmp_path / "c.csv"
    assert main(["fdr", "--input", str(path), "--column", "pvalue", "--m-density", "16",
                 "--out", str(out), "--curves", str(curves)]) == 0
    report = json.loads(out.read_text())
    hits = report["diagnostics"]["floor_hits"]
    assert type(hits) is int
    assert hits == sum(d == DEFAULT_FLOOR for d in report["cases"]["d_hat"])
    assert hits > 0


@pytest.mark.parametrize("umask", [0o022, 0o027], ids=["022", "027"])
@pytest.mark.parametrize("name", ["fdr-stat", "pi0"])
def test_outputs_take_umask(name, umask, mixture_csv, tmp_path):
    previous = os.umask(umask)
    try:
        out, curves, _ = _run_command(name, mixture_csv, tmp_path)
    finally:
        os.umask(previous)
    for path in (out, curves):
        assert os.stat(path).st_mode & 0o777 == 0o666 & ~umask


@pytest.mark.parametrize("earlier", [None, "an earlier run's report\n"],
                         ids=["no-earlier-out", "earlier-out"])
@pytest.mark.parametrize("name", ["fdr-stat", "pi0", "simulate-mixnorm"])
def test_failed_curves_write_leaves_out_as_it_was(name, earlier, mixture_csv, tmp_path, capsys):
    argv, _ = _command_argv(name, mixture_csv, tmp_path)
    out = tmp_path / "out.json"
    if earlier is not None:
        out.write_text(earlier)
    # A path in a missing directory, and a path that is a directory.
    for curves in (tmp_path / "missing" / "curves.csv", tmp_path):
        assert main(argv + ["--out", str(out), "--curves", str(curves)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"cdfdr: input error: cannot write output file {str(curves)!r}")
        if earlier is None:
            assert not out.exists()
        else:
            assert out.read_text() == earlier
        assert not [p for p in tmp_path.iterdir() if p.name.startswith(".cdfdr-")]


def _spy_renames(monkeypatch, before):
    """Call ``before(src, dst)`` ahead of every ``os.rename`` and ``os.replace``."""
    for name in ("rename", "replace"):
        def spy(src, dst, _real=getattr(os, name)):
            before(os.fspath(src), os.fspath(dst))
            return _real(src, dst)
        monkeypatch.setattr(os, name, spy)


def test_failed_curves_rename_restores_the_earlier_pair(mixture_csv, tmp_path, monkeypatch,
                                                        capsys):
    argv, _ = _command_argv("fdr-stat", mixture_csv, tmp_path)
    out, curves = tmp_path / "out.json", tmp_path / "curves.csv"
    out.write_text("an earlier run's report\n")
    curves.write_text("an earlier run's curves\n")
    failed = []

    def fail_first_onto_curves(src, dst):
        if dst == str(curves) and not failed:
            failed.append(src)
            raise OSError(errno.EIO, os.strerror(errno.EIO))

    _spy_renames(monkeypatch, fail_first_onto_curves)
    assert main(argv + ["--out", str(out), "--curves", str(curves)]) == 2
    assert capsys.readouterr().err == (
        f"cdfdr: input error: cannot write output file {str(curves)!r}: {os.strerror(errno.EIO)}\n")
    assert failed
    assert out.read_text() == "an earlier run's report\n"
    assert curves.read_text() == "an earlier run's curves\n"
    assert not _stages(tmp_path)


@pytest.mark.parametrize("name", ["fdr-stat", "simulate-mixunif"])
def test_rerun_never_renames_onto_an_existing_name(name, mixture_csv, tmp_path, monkeypatch):
    # On ext4 a rename onto an existing file writes the new file to disk at
    # once, and the next run waits for its blocks to be freed.
    argv, _ = _command_argv(name, mixture_csv, tmp_path)
    fresh_out, fresh_curves = tmp_path / "fresh.json", tmp_path / "fresh.csv"
    assert main(argv + ["--out", str(fresh_out), "--curves", str(fresh_curves)]) == 0
    out, curves, target = tmp_path / "out.json", tmp_path / "curves.csv", tmp_path / "target"
    target.write_text("the symlink's target\n")
    out.symlink_to(target)
    curves.write_text("an earlier run's curves\n")
    onto = []
    _spy_renames(monkeypatch, lambda src, dst: os.path.lexists(dst) and onto.append(dst))
    for _ in range(2):
        assert main(argv + ["--out", str(out), "--curves", str(curves)]) == 0
        assert not out.is_symlink()
        assert out.read_bytes() == fresh_out.read_bytes()
        assert curves.read_bytes() == fresh_curves.read_bytes()
    assert onto == []
    assert target.read_text() == "the symlink's target\n"
    assert not _stages(tmp_path)


_scalars = (
    st.none() | st.booleans() | st.integers(-2**70, 2**70) | st.floats()
    | st.text(max_size=6) | st.floats().map(np.float64)
    | st.integers(-2**63, 2**63 - 1).map(np.int64) | st.booleans().map(np.bool_)
)
_floats = st.lists(st.floats(), max_size=6)
_texts = st.text(alphabet="a%\u00e9\u4e2d\"\\\n\x00", max_size=5)
_field_values = [_texts, st.integers(-2**70, 2**70), st.floats(allow_nan=False, allow_infinity=False),
                 st.floats(), st.booleans()]
# Lists of records that share their keys, one kind of value to a field, as
# discoveries.cases holds them.
_records = st.lists(
    st.tuples(_texts, st.sampled_from(_field_values)), min_size=1, max_size=4,
    unique_by=lambda field: field[0],
).flatmap(lambda fields: st.lists(
    st.tuples(*(values for _, values in fields)).map(
        lambda row: dict(zip((key for key, _ in fields), row))),
    max_size=5))
_json_values = st.recursive(
    _scalars
    | _floats.map(np.array)
    | st.lists(st.text(alphabet="a\u00e9\u4e2d\"\\\n\x00", max_size=5), max_size=5)
    | _records,
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=4), children, max_size=4)),
    max_leaves=25,
)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.text(max_size=4), _json_values, max_size=6))
def test_json_writer_matches_stdlib(payload):
    assert "".join(_json_text(payload)) == json.dumps(payload, indent=1, default=_default)


@pytest.mark.parametrize("items", [
    np.linspace(-1.0, 1.0, 2 * _JSON_BLOCK + 1),
    [f"c{i}\u00e9" for i in range(2 * _JSON_BLOCK + 1)],
], ids=["floats", "strings"])
def test_json_writer_matches_stdlib_across_blocks(items):
    payload = {"outer": {"items": items, "after": [1]}}
    assert "".join(_json_text(payload)) == json.dumps(payload, indent=1, default=_default)


@pytest.mark.parametrize("records, template", [
    ([{"index": 3, "id": "g3", "stat": 2.5, "pvalue": 0.00125, "fdr": 0.1},
      {"index": 17, "id": "g\u00e917", "stat": -1e-300, "pvalue": 1.0, "fdr": 0.2}], True),
    ([{"100%": 1.0, "%s": "x"}, {"100%": 2.0, "%s": "y"}], True),
    ([{"a": 1, "b": 2.0}, {"b": 2.0, "a": 1}], False),
    ([{"a": 1.0}, {"a": math.nan}], False),
    ([{"a": 1}, {"a": 1.0}], False),
    ([{"a": True}], False),
    ([{"a": 1}, [1]], False),
    ([{}], False),
    ([], False),
], ids=["hits", "percent-keys", "key-order", "nan", "mixed-kinds", "bool", "not-a-dict",
        "empty-record", "empty"])
def test_records_match_stdlib(records, template):
    payload = {"discoveries": {"cases": records}}
    assert "".join(_json_text(payload)) == json.dumps(payload, indent=1)
    assert (_records_text(records, "  ") is not None) == template


def _float_payload(n):
    """Floats of every magnitude, nested two levels deep."""
    rng = np.random.default_rng(n)
    floats = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    return {"outer": {"floats": floats, "after": [1]}}


def _written_report(tmp_path, payload):
    args = SimpleNamespace(out=str(tmp_path / "report.json"), curves=str(tmp_path / "curves.csv"))
    _write_outputs(args, payload, ["x"], [["1.0"]])
    return (tmp_path / "report.json").read_text()


@pytest.mark.parametrize("n", [1, _JSON_BLOCK - 1, _JSON_BLOCK, _JSON_BLOCK + 1,
                               3 * _JSON_BLOCK + 1])
def test_written_report_matches_stdlib(n, tmp_path):
    payload = _float_payload(n)
    text = _written_report(tmp_path, payload)
    assert text == json.dumps(payload, indent=1, default=_default) + "\n"


def test_error_mid_write_leaves_no_stage_and_no_helper(tmp_path):
    """A write that fails on the second full float block exits 2, removes its
    stages and leaves no child process.  It runs in a child interpreter with a
    timeout, so that a deadlock fails the test instead of hanging the suite."""
    rng = np.random.Generator(np.random.Philox(23))
    csv_path = tmp_path / "in.csv"
    _write_stats_csv(csv_path, rng.normal(0, 1, _JSON_BLOCK + 1))
    out, curves = tmp_path / "out.json", tmp_path / "curves.csv"
    code = (
        "import errno, os, sys\n"
        "import cdfdr.cli\n"
        "real, blocks = cdfdr.cli._join_floats, []\n"
        "def fail_on_second_block(sep, values):\n"
        "    if len(values) == cdfdr.cli._JSON_BLOCK:\n"
        "        blocks.append(values)\n"
        "        if len(blocks) == 2:\n"
        "            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))\n"
        "    return real(sep, values)\n"
        "cdfdr.cli._join_floats = fail_on_second_block\n"
        "code = cdfdr.cli.main(sys.argv[1:])\n"
        "try:\n"
        "    os.waitpid(-1, os.WNOHANG)\n"
        "except ChildProcessError:\n"
        "    print(code, 'no child')\n"
        "else:\n"
        "    print(code, 'a child is left')\n"
    )
    env = _child_env()
    run = subprocess.run([sys.executable, "-c", code, "fdr", "--input", str(csv_path),
                          "--column", "stat", "--out", str(out), "--curves", str(curves)],
                         env=env, capture_output=True, text=True, timeout=60, check=True)
    assert run.stdout == "2 no child\n"
    assert run.stderr == (f"cdfdr: input error: cannot write output file {str(out)!r}: "
                          f"{os.strerror(errno.ENOSPC)}\n")
    assert not out.exists() and not curves.exists()
    assert not _stages(tmp_path)


def test_report_is_streamed(tmp_path):
    """The text held while report.json is written stays well below its size."""
    n = 480_000  # about the bytes of the five float columns at 300,000 cases
    rng = np.random.default_rng(7)
    payload = {"cases": {"id": [f"c{i:06d}" for i in range(n)],
                         **{key: rng.random(n) for key in ("pvalue", "d_hat", "fdr")}}}
    args = SimpleNamespace(out=str(tmp_path / "report.json"), curves=str(tmp_path / "curves.csv"))
    tracemalloc.start()
    try:
        _write_outputs(args, payload, ["x"], [["1.0"]])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < os.path.getsize(args.out) / 4


def test_fdr_run_leaves_slow_imports_alone(tmp_path):
    """A fresh `cdfdr fdr` run on tied densities, with more than one full block
    of report floats, imports neither a process pool, subprocess nor numpy.ma."""
    rng = np.random.Generator(np.random.Philox(17))
    stats = np.round(np.concatenate([rng.normal(0, 1, 59_000), rng.normal(3, 1, 6_600)]), 1)
    assert stats.size >= _JSON_BLOCK + 1
    csv_path = tmp_path / "ties.csv"
    _write_stats_csv(csv_path, stats)
    argv = ["fdr", "--input", str(csv_path), "--column", "stat",
            "--out", str(tmp_path / "out.json"), "--curves", str(tmp_path / "curves.csv")]
    code = ("import sys\nimport cdfdr.cli\ncode = cdfdr.cli.main(sys.argv[1:])\nprint(code, "
            "sorted({'concurrent.futures', 'multiprocessing', 'numpy.ma', 'subprocess'}"
            " & set(sys.modules)))")
    run = subprocess.run([sys.executable, "-c", code, *argv], env=_child_env(),
                         capture_output=True, text=True, check=True)
    assert run.stdout == "0 []\n"


def _tuning_argv(command, csv_path):
    if command == "simulate":
        return ["simulate", "--design", "mixunif", "--pi0", "0.9", "--a", "0.05",
                "--replicates", "2", "--n", "2000"]
    return [command, "--input", str(csv_path), "--column", "stat"]


@pytest.mark.parametrize("flags", [
    ["fdr", "--lambda-step", "0"],
    ["fdr", "--lambda-step", "nan"],
    ["fdr", "--m-density", "17"],
    ["fdr", "--m-mdc", "0"],
    ["pi0", "--lambda-step", "2.6"],
    ["simulate", "--lambda-step", "0"],
    ["fdr", "--lambda-step", "1e-5"],
    ["pi0", "--lambda-step", "1e-5"],
    ["simulate", "--lambda-step", "1e-5"],
], ids=lambda flags: "".join(flags))
def test_out_of_range_tuning_exits_2(flags, mixture_csv, tmp_path, capsys):
    command, *tuning = flags
    out = tmp_path / "out.json"
    code = main(_tuning_argv(command, mixture_csv[0]) + tuning
                + ["--out", str(out), "--curves", str(tmp_path / "c.csv")])
    assert code == 2
    assert capsys.readouterr().err.startswith("cdfdr: input error: ")
    assert not out.exists()


def test_mixunif_without_pi0_exits_2(tmp_path, capsys):
    out = tmp_path / "out.json"
    code = main(["simulate", "--design", "mixunif", "--a", "0.05", "--replicates", "2",
                 "--out", str(out), "--curves", str(tmp_path / "c.csv")])
    assert code == 2
    assert "--design mixunif requires --pi0 and --a" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["fdr", "pi0", "simulate"])
def test_tuning_flags_share_defaults_and_help(command, capsys):
    args = cdfdr.cli.build_parser().parse_args(_tuning_argv(command, "in.csv")
                                               + ["--out", "o", "--curves", "c"])
    assert (args.m_density, args.m_mdc, args.lambda_step) == (6, 10, 0.01)
    with pytest.raises(SystemExit):
        main([command, "--help"])
    assert "series length for the density estimate" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["fdr", "pi0", "simulate"])
def test_finest_grid_step_runs(command, mixture_csv, tmp_path):
    out = tmp_path / "out.json"
    code = main(_tuning_argv(command, mixture_csv[0]) + ["--lambda-step", "1e-4"]
                + ["--out", str(out), "--curves", str(tmp_path / "c.csv")])
    assert code == 0
    assert out.exists()


@pytest.mark.parametrize("command", ["fdr", "pi0", "simulate"])
def test_out_and_curves_naming_one_file_exits_2(command, mixture_csv, tmp_path, monkeypatch,
                                                capsys):
    # Written in turn, the curves CSV would replace the report.  The paths are
    # refused before the fit or the replicates run.
    monkeypatch.chdir(tmp_path)
    _forbid_work(monkeypatch)
    before = sorted(tmp_path.iterdir())
    code = main(_tuning_argv(command, mixture_csv[0]) + ["--out", "x", "--curves", "./x"])
    assert code == 2
    assert capsys.readouterr().err.startswith(
        "cdfdr: input error: --out and --curves name the same file")
    assert sorted(tmp_path.iterdir()) == before


class TestPi0Command:
    def test_uniform_input(self, tmp_path):
        rng = np.random.Generator(np.random.Philox(303))
        path = tmp_path / "u.csv"
        _write_stats_csv(path, rng.random(5000), column="pvalue")
        out = tmp_path / "pi0.json"
        curves = tmp_path / "path.csv"
        code = main([
            "pi0", "--input", str(path), "--column", "pvalue",
            "--out", str(out), "--curves", str(curves),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {"lambda_star", "pi0_hat"}
        assert payload["pi0_hat"] >= 0.98

    def test_path_csv_layout(self, tmp_path):
        rng = np.random.Generator(np.random.Philox(304))
        path = tmp_path / "u.csv"
        _write_stats_csv(path, rng.random(3000), column="pvalue")
        curves = tmp_path / "path.csv"
        code = main([
            "pi0", "--input", str(path), "--column", "pvalue",
            "--out", str(tmp_path / "pi0.json"), "--curves", str(curves),
        ])
        assert code == 0
        lines = curves.read_text().strip().split("\n")
        assert lines[0] == "lambda,D_lambda,n_lambda"
        rows = [line.split(",") for line in lines[1:]]
        lam = np.array([float(r[0]) for r in rows])
        counts = np.array([int(r[2]) for r in rows])
        assert np.all(np.diff(lam) > 0.0)
        assert np.all(counts > 0)
        assert len(rows) <= 251


class TestSimulateCommand:
    def test_determinism(self, tmp_path):
        args = [
            "simulate", "--design", "mixnorm", "--mu", "2", "--replicates", "1",
            "--seed", "7", "--n", "2000", "--n-null", "1800",
        ]
        outputs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{tag}.json"
            curves = tmp_path / f"{tag}.csv"
            code = main(args + ["--out", str(out), "--curves", str(curves)])
            assert code == 0
            outputs.append((out.read_bytes(), curves.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_mixnorm_report(self, tmp_path):
        out = tmp_path / "r.json"
        curves = tmp_path / "c.csv"
        code = main([
            "simulate", "--design", "mixnorm", "--mu", "2", "--replicates", "2",
            "--seed", "3", "--n", "2000", "--n-null", "1800",
            "--out", str(out), "--curves", str(curves),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["tail_mise"] is None
        assert len(payload["grid"]) == 241
        assert payload["n_replicates"] == 2
        header = curves.read_text().split("\n", 1)[0]
        assert header == "grid,true_fdr,mean_fdr,sd_fdr"

    def test_mixunif_tail_mise(self, tmp_path):
        out = tmp_path / "r.json"
        code = main([
            "simulate", "--design", "mixunif", "--pi0", "0.9", "--a", "0.02",
            "--replicates", "2", "--seed", "5", "--n", "2000",
            "--out", str(out), "--curves", str(tmp_path / "c.csv"),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["tail_mise"] is not None
        assert payload["tail_mise"] >= 0.0

    @pytest.mark.parametrize("flags", [
        ["--design", "mixunif", "--pi0", "1.5", "--a", "0.02"],
        ["--design", "mixnorm", "--mu", "2", "--n", "0", "--n-null", "0"],
        ["--design", "mixunif", "--pi0", "0.9", "--a", "0.05", "--n", "-1"],
        ["--design", "mixunif", "--pi0", "0.9", "--a", "0.05", "--n", "50"],
        ["--design", "mixunif", "--pi0", "0.9", "--a", "0.05", "--seed", "-1"],
        ["--design", "mixnorm", "--mu", "nan"],
        ["--design", "mixnorm", "--mu", "inf"],
    ], ids=["pi0-1.5", "mixnorm-n-0", "n--1", "n-50", "seed--1", "mu-nan", "mu-inf"])
    def test_invalid_design_exits_2(self, tmp_path, capsys, flags):
        out, curves = tmp_path / "r.json", tmp_path / "c.csv"
        code = main(["simulate", *flags, "--out", str(out), "--curves", str(curves)])
        assert code == 2
        assert capsys.readouterr().err.startswith("cdfdr: input error:")
        assert not out.exists() and not curves.exists()

    def test_missing_design_parameter_exits_2(self, tmp_path):
        code = main([
            "simulate", "--design", "mixnorm",
            "--out", str(tmp_path / "r.json"), "--curves", str(tmp_path / "c.csv"),
        ])
        assert code == 2
