"""Tests for cube CSV I/O and the command-line interface."""

import json
from pathlib import Path

import pytest

from repro.cli import load_project, main
from repro.errors import ModelError
from repro.model import (
    STRING,
    TIME,
    Cube,
    CubeSchema,
    Dimension,
    Frequency,
    day,
    month,
    quarter,
)
from repro.model.io import (
    cube_from_csv_text,
    cube_to_csv_text,
    format_dimtype,
    parse_dimtype,
    read_cube_csv,
    write_cube_csv,
)


@pytest.fixture
def panel_schema():
    return CubeSchema(
        "P",
        [Dimension("q", TIME(Frequency.QUARTER)), Dimension("r", STRING)],
        "v",
    )


@pytest.fixture
def panel(panel_schema):
    cube = Cube(panel_schema)
    cube.set((quarter(2020, 1), "north"), 1.5)
    cube.set((quarter(2020, 2), "south"), -2.25)
    return cube


class TestDimTypeSpecs:
    def test_parse_string(self):
        assert parse_dimtype("string") is STRING

    def test_parse_time_specs(self):
        assert parse_dimtype("time:Q") == TIME(Frequency.QUARTER)
        assert parse_dimtype("time:D") == TIME(Frequency.DAY)
        assert parse_dimtype("time:month") == TIME(Frequency.MONTH)

    def test_parse_integer(self):
        from repro.model import INTEGER

        assert parse_dimtype("int") is INTEGER

    def test_parse_unknown(self):
        with pytest.raises(ModelError):
            parse_dimtype("floaty")

    def test_parse_unknown_frequency(self):
        with pytest.raises(ModelError):
            parse_dimtype("time:X")

    def test_roundtrip_format(self):
        for spec in ("time:Q", "time:D", "string", "integer"):
            assert format_dimtype(parse_dimtype(spec)) == spec


class TestCsvRoundtrip:
    def test_text_roundtrip(self, panel_schema, panel):
        text = cube_to_csv_text(panel)
        again = cube_from_csv_text(panel_schema, text)
        assert again.approx_equals(panel)

    def test_header_written(self, panel):
        text = cube_to_csv_text(panel)
        assert text.splitlines()[0] == "q,r,v"

    def test_file_roundtrip(self, panel_schema, panel, tmp_path):
        path = tmp_path / "panel.csv"
        write_cube_csv(panel, path)
        assert read_cube_csv(panel_schema, path).approx_equals(panel)

    def test_daily_and_monthly_points(self, tmp_path):
        schema = CubeSchema("S", [Dimension("d", TIME(Frequency.DAY))], "v")
        cube = Cube(schema)
        cube.set((day(2020, 2, 29),), 1.0)
        path = tmp_path / "s.csv"
        write_cube_csv(cube, path)
        assert read_cube_csv(schema, path)[(day(2020, 2, 29),)] == 1.0

    def test_header_mismatch_rejected(self, panel_schema):
        with pytest.raises(ModelError, match="header"):
            cube_from_csv_text(panel_schema, "a,b,c\n")

    def test_empty_file_rejected(self, panel_schema):
        with pytest.raises(ModelError, match="empty"):
            cube_from_csv_text(panel_schema, "")

    def test_bad_field_count(self, panel_schema):
        with pytest.raises(ModelError, match="line 2"):
            cube_from_csv_text(panel_schema, "q,r,v\n2020Q1,north\n")

    def test_bad_value_reports_line(self, panel_schema):
        with pytest.raises(ModelError, match="line 3"):
            cube_from_csv_text(
                panel_schema, "q,r,v\n2020Q1,north,1.0\n2020Q2,south,oops\n"
            )

    def test_blank_lines_skipped(self, panel_schema):
        cube = cube_from_csv_text(panel_schema, "q,r,v\n\n2020Q1,north,1.0\n\n")
        assert len(cube) == 1

    def test_float_precision_preserved(self, panel_schema):
        cube = Cube(panel_schema)
        cube.set((quarter(2020, 1), "x"), 0.1 + 0.2)
        again = cube_from_csv_text(panel_schema, cube_to_csv_text(cube))
        assert again[(quarter(2020, 1), "x")] == 0.1 + 0.2


@pytest.fixture
def project_dir(tmp_path):
    """A minimal CLI project: one series, a two-statement program."""
    schema = CubeSchema("S", [Dimension("q", TIME(Frequency.QUARTER))], "v")
    cube = Cube.from_series(schema, quarter(2020, 1), [1.0, 2.0, 3.0, 4.0])
    write_cube_csv(cube, tmp_path / "s.csv")
    (tmp_path / "program.exl").write_text("A := S * 2\nB := cumsum(A)\n")
    spec = {
        "elementary": [
            {
                "name": "S",
                "dimensions": [["q", "time:Q"]],
                "measure": "v",
                "csv": "s.csv",
            }
        ],
        "program": "program.exl",
        "outputs": ["B"],
    }
    (tmp_path / "project.json").write_text(json.dumps(spec))
    return tmp_path


class TestCli:
    def test_load_project(self, project_dir):
        project = load_project(str(project_dir / "project.json"))
        assert [s.name for s in project.schemas] == ["S"]
        data = project.load_data()
        assert len(data["S"]) == 4

    def test_inline_program(self, tmp_path):
        spec = {
            "elementary": [
                {"name": "S", "dimensions": [["q", "time:Q"]], "measure": "v"}
            ],
            "program": "A := S * 2",
        }
        path = tmp_path / "p.json"
        path.write_text(json.dumps(spec))
        project = load_project(str(path))
        assert project.program_source == "A := S * 2"

    def test_show_prints_mapping(self, project_dir, capsys):
        code = main(["show", str(project_dir / "project.json")])
        assert code == 0
        out = capsys.readouterr().out
        assert "S(q, v) -> A(q, 2 * v)" in out or "A(q, v * 2)" in out or "-> A" in out

    def test_compile_sql(self, project_dir, capsys):
        code = main(
            ["compile", str(project_dir / "project.json"), "--target", "sql"]
        )
        assert code == 0
        assert "INSERT INTO A" in capsys.readouterr().out

    def test_compile_unknown_target(self, project_dir, capsys):
        code = main(
            ["compile", str(project_dir / "project.json"), "--target", "cobol"]
        )
        assert code == 2

    def test_explain(self, project_dir, capsys):
        code = main(["explain", str(project_dir / "project.json")])
        assert code == 0
        assert "[sql]" in capsys.readouterr().out

    def test_run_writes_outputs(self, project_dir, capsys):
        out_dir = project_dir / "results"
        code = main(
            ["run", str(project_dir / "project.json"), "--out", str(out_dir)]
        )
        assert code == 0
        written = (out_dir / "B.csv").read_text().splitlines()
        assert written[0] == "q,v"
        # B = cumsum(2 * S) = 2, 6, 12, 20
        assert [float(line.split(",")[1]) for line in written[1:]] == [
            2.0,
            6.0,
            12.0,
            20.0,
        ]

    def test_missing_program_errors(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"elementary": []}))
        code = main(["show", str(path)])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestCliUpdate:
    """``exl update``: baseline persistence and incremental reruns."""

    def _run(self, project_dir, out_dir):
        return main(
            ["run", str(project_dir / "project.json"), "--out", str(out_dir)]
        )

    def test_run_persists_a_baseline(self, project_dir, capsys):
        out_dir = project_dir / "results"
        assert self._run(project_dir, out_dir) == 0
        baseline = out_dir / "baseline"
        assert (baseline / "baseline.json").exists()
        state = json.loads((baseline / "baseline.json").read_text())
        assert set(state["cubes"]) == {"S", "A", "B"}
        assert (baseline / "S.csv").exists()
        assert state["record"]["baseline_versions"]

    def test_update_without_baseline_runs_full(self, project_dir, capsys):
        out_dir = project_dir / "results"
        code = main(
            ["update", str(project_dir / "project.json"), "--out", str(out_dir)]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "no baseline" in err
        assert (out_dir / "B.csv").exists()
        assert (out_dir / "baseline" / "baseline.json").exists()

    def test_noop_update_recomputes_nothing(self, project_dir, capsys):
        out_dir = project_dir / "results"
        assert self._run(project_dir, out_dir) == 0
        code = main(
            ["update", str(project_dir / "project.json"), "--out", str(out_dir)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "update-of" in out
        assert "affected=0 cubes in 0 subgraphs" in out

    def test_update_after_input_edit_matches_full_run(self, project_dir, capsys):
        out_dir = project_dir / "results"
        assert self._run(project_dir, out_dir) == 0
        # revise one input point and update incrementally
        schema = CubeSchema(
            "S", [Dimension("q", TIME(Frequency.QUARTER))], "v"
        )
        cube = Cube.from_series(
            schema, quarter(2020, 1), [1.0, 2.0, 10.0, 4.0]
        )
        write_cube_csv(cube, project_dir / "s.csv")
        code = main(
            ["update", str(project_dir / "project.json"), "--out", str(out_dir)]
        )
        assert code == 0
        # B = cumsum(2 * S) over the revised series
        written = (out_dir / "B.csv").read_text().splitlines()
        assert [float(line.split(",")[1]) for line in written[1:]] == [
            2.0,
            6.0,
            26.0,
            34.0,
        ]
        # the persisted baseline rolled forward to the revised state
        full_dir = project_dir / "full"
        assert self._run(project_dir, full_dir) == 0
        assert (out_dir / "B.csv").read_text() == (
            full_dir / "B.csv"
        ).read_text()

    def test_update_against_wrong_run_id(self, project_dir, capsys):
        out_dir = project_dir / "results"
        assert self._run(project_dir, out_dir) == 0
        code = main(
            [
                "update",
                str(project_dir / "project.json"),
                "--out",
                str(out_dir),
                "--against",
                "999",
            ]
        )
        assert code == 2
        assert "is run" in capsys.readouterr().err


class TestCorruptStateFiles:
    """Torn, truncated, or empty state/baseline JSON — the debris a
    hard crash leaves without atomic writes — must be reported with the
    offending path and exit code 4, never a traceback."""

    def _torn(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text('{"record": {"subgra')

    def test_resume_torn_state(self, project_dir, capsys):
        out = project_dir / "results"
        self._torn(out / "run-state.json")
        code = main(
            ["resume", str(project_dir / "project.json"), "--out", str(out)]
        )
        assert code == 4
        err = capsys.readouterr().err
        assert "corrupt run state" in err
        assert str(out / "run-state.json") in err
        assert "exl recover" in err

    def test_resume_empty_state(self, project_dir, capsys):
        out = project_dir / "results"
        (out).mkdir(parents=True)
        (out / "run-state.json").write_text("")
        code = main(
            ["resume", str(project_dir / "project.json"), "--out", str(out)]
        )
        assert code == 4

    def test_resume_state_not_a_document(self, project_dir, capsys):
        out = project_dir / "results"
        out.mkdir(parents=True)
        (out / "run-state.json").write_text('["not", "a", "run"]')
        code = main(
            ["resume", str(project_dir / "project.json"), "--out", str(out)]
        )
        assert code == 4
        assert "not a run-state document" in capsys.readouterr().err

    def test_update_torn_baseline(self, project_dir, capsys):
        out = project_dir / "results"
        self._torn(out / "baseline" / "baseline.json")
        code = main(
            ["update", str(project_dir / "project.json"), "--out", str(out)]
        )
        assert code == 4
        assert "corrupt baseline" in capsys.readouterr().err

    def test_query_torn_baseline(self, project_dir, capsys):
        out = project_dir / "results"
        self._torn(out / "baseline" / "baseline.json")
        code = main(
            [
                "query", str(project_dir / "project.json"), "B",
                "--out", str(out),
            ]
        )
        assert code == 4


@pytest.fixture
def multi_project(tmp_path):
    """Two elementary series feeding three derived cubes."""
    schema_s = CubeSchema("S", [Dimension("q", TIME(Frequency.QUARTER))], "v")
    schema_t = CubeSchema("T", [Dimension("q", TIME(Frequency.QUARTER))], "v")
    values = [float(i % 7) + 0.25 * i for i in range(100)]
    write_cube_csv(
        Cube.from_series(schema_s, quarter(2000, 1), values), tmp_path / "s.csv"
    )
    write_cube_csv(
        Cube.from_series(schema_t, quarter(2000, 1), values[::-1]),
        tmp_path / "t.csv",
    )
    spec = {
        "elementary": [
            {"name": "S", "dimensions": [["q", "time:Q"]], "measure": "v",
             "csv": "s.csv"},
            {"name": "T", "dimensions": [["q", "time:Q"]], "measure": "v",
             "csv": "t.csv"},
        ],
        "program": "A := S * 2\nB := cumsum(A)\nC := S + T\n",
        "outputs": ["A", "B", "C"],
    }
    (tmp_path / "project.json").write_text(json.dumps(spec))
    return tmp_path


def _cli(project_dir, command, *extra, out="results"):
    return main(
        [command, str(project_dir / "project.json"), *extra,
         "--out", str(project_dir / out)]
    )


def _counters(text):
    """The counters section of a ``--metrics`` dump."""
    lines = text.split("\ncounters:\n", 1)[1].splitlines()
    counters = {}
    for line in lines:
        if not line.startswith("  "):
            break
        name, value = line.split()
        counters[name] = int(value)
    return counters


def _spy(monkeypatch, module, attr):
    """Record the positional arguments of every call to ``module.attr``."""
    calls = []
    original = getattr(module, attr)

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, attr, spy)
    return calls


class TestDemandDrivenQuery:
    """``exl query`` reads the queried cube and nothing else."""

    def test_reads_only_the_queried_cube(self, multi_project, monkeypatch, capsys):
        import repro.cli

        assert _cli(multi_project, "run") == 0
        reads = _spy(monkeypatch, repro.cli, "read_cube_csv")
        assert _cli(multi_project, "query", "B", "--levels", "q=all") == 0
        assert [(schema.name, Path(path).parent.name) for schema, path in reads] == [
            ("B", "baseline")
        ]

    def test_never_attaches_a_columnar_sidecar(self, multi_project, monkeypatch, capsys):
        import repro.cli

        assert _cli(multi_project, "run") == 0
        attaches = _spy(monkeypatch, repro.cli, "attach_store_sidecar")
        for cube in ("S", "C"):
            assert _cli(multi_project, "query", cube, "--levels", "q=all") == 0
        assert attaches == []

    def test_elementary_answer_from_baseline_else_project(self, multi_project, capsys):
        assert _cli(multi_project, "run") == 0
        # revise S after the run: the baseline still holds the old copy
        schema = CubeSchema("S", [Dimension("q", TIME(Frequency.QUARTER))], "v")
        revised = read_cube_csv(schema, multi_project / "s.csv")
        revised.set((quarter(2000, 1),), 1000.0, overwrite=True)
        write_cube_csv(revised, multi_project / "s.csv")
        capsys.readouterr()
        assert _cli(multi_project, "query", "S", "--point", "q=2000Q1") == 0
        assert float(capsys.readouterr().out) == 0.0
        # no baseline in this out dir: the project CSV answers
        assert _cli(
            multi_project, "query", "S", "--point", "q=2000Q1", out="fresh"
        ) == 0
        assert float(capsys.readouterr().out) == 1000.0

    def test_derived_cube_without_baseline_has_no_data(self, multi_project, capsys):
        assert _cli(multi_project, "query", "B", out="fresh") == 2
        assert "no data" in capsys.readouterr().err

    def test_query_after_noop_update_attaches_the_lattice(self, multi_project, capsys):
        assert _cli(multi_project, "run") == 0
        capsys.readouterr()
        query = ("query", "C", "--levels", "q=year", "--metrics")
        assert _cli(multi_project, *query) == 0
        cold = _counters(capsys.readouterr().out)
        assert cold.get("olap.lattice.builds") == 1
        assert _cli(multi_project, "update") == 0
        capsys.readouterr()
        assert _cli(multi_project, *query) == 0
        warm = _counters(capsys.readouterr().out)
        assert warm.get("olap.lattice.builds", 0) == 0
        assert warm["cli.baseline.cubes_read"] == 1


class TestNoRewriteUpdate:
    """``exl update`` leaves the files of unchanged cubes in place."""

    def _baseline_files(self, out_dir):
        baseline = out_dir / "baseline"
        files = [
            *baseline.glob("*.csv"),
            *(baseline / "columnar").glob("*.json"),
            *(baseline / "olap").glob("*.json"),
            *out_dir.glob("*.csv"),
        ]
        return {
            str(path): (path.stat().st_ino, path.stat().st_mtime_ns)
            for path in files
        }

    def test_noop_update_touches_no_cube_file(self, multi_project, capsys):
        out_dir = multi_project / "results"
        assert _cli(multi_project, "run") == 0
        assert _cli(multi_project, "query", "C", "--levels", "q=year") == 0
        before = self._baseline_files(out_dir)
        # 5 baseline CSVs, 1 lattice sidecar, 3 exports, and a columnar
        # sidecar per cube unless the tuple view is forced
        assert len(before) in (5 + 1 + 3, 5 + 5 + 1 + 3)
        assert _cli(multi_project, "update", "--metrics") == 0
        assert self._baseline_files(out_dir) == before
        out = capsys.readouterr().out
        assert "baseline: 3 cube(s) read, 5 reused" in out
        counters = _counters(out)
        assert counters["cli.baseline.cubes_reused"] == 5
        # only baseline.json is rewritten
        assert counters["cli.baseline.bytes_written"] == (
            out_dir / "baseline" / "baseline.json"
        ).stat().st_size

    def test_noop_update_serializes_nothing(self, multi_project, monkeypatch, capsys):
        import repro.cli
        import repro.engine.journal

        assert _cli(multi_project, "run") == 0
        calls = _spy(monkeypatch, repro.cli, "cube_to_csv_text")
        calls += _spy(monkeypatch, repro.engine.journal, "cube_to_csv_text")
        assert _cli(multi_project, "update") == 0
        assert calls == []

    def test_deleted_or_edited_output_restored(self, multi_project, capsys):
        out_dir = multi_project / "results"
        assert _cli(multi_project, "run") == 0
        expected = {n: (out_dir / f"{n}.csv").read_bytes() for n in "ABC"}
        (out_dir / "A.csv").unlink()
        (out_dir / "B.csv").write_bytes(expected["B"].replace(b"2", b"3"))
        assert _cli(multi_project, "update") == 0
        assert {
            n: (out_dir / f"{n}.csv").read_bytes() for n in "ABC"
        } == expected

    def test_revision_update_matches_fresh_run(self, multi_project, capsys):
        out_dir = multi_project / "results"
        assert _cli(multi_project, "run") == 0
        # revise 1 of S's 100 rows
        schema = CubeSchema("S", [Dimension("q", TIME(Frequency.QUARTER))], "v")
        revised = read_cube_csv(schema, multi_project / "s.csv")
        revised.set((quarter(2010, 3),), -5.5, overwrite=True)
        write_cube_csv(revised, multi_project / "s.csv")
        assert _cli(multi_project, "update") == 0
        assert _cli(multi_project, "run", out="fresh") == 0
        fresh_dir = multi_project / "fresh"
        for relative in ("A.csv", "B.csv", "C.csv", *(
            f"baseline/{n}.csv" for n in "STABC"
        )):
            assert (out_dir / relative).read_bytes() == (
                fresh_dir / relative
            ).read_bytes(), relative
        assert (
            json.loads((out_dir / "baseline" / "baseline.json").read_text())[
                "cubes"
            ]
            == json.loads(
                (fresh_dir / "baseline" / "baseline.json").read_text()
            )["cubes"]
        )


class TestByteEqualInputShortcut:
    """An input byte-identical to its baseline copy is clean unparsed."""

    def _spies(self, monkeypatch):
        import repro.cli

        reads = _spy(monkeypatch, repro.cli, "read_cube_csv")
        deltas = _spy(monkeypatch, Cube, "delta")
        return reads, deltas

    def _baseline_reads(self, reads):
        return sorted(
            schema.name for schema, path in reads
            if Path(path).parent.name == "baseline"
        )

    def test_byte_equal_input_skips_parse_and_delta(self, multi_project, monkeypatch, capsys):
        assert _cli(multi_project, "run") == 0
        reads, deltas = self._spies(monkeypatch)
        assert _cli(multi_project, "update") == 0
        assert self._baseline_reads(reads) == ["A", "B", "C"]
        assert deltas == []
        assert "affected=0 cubes" in capsys.readouterr().out

    def test_reordered_input_is_diffed_and_clean(self, multi_project, monkeypatch, capsys):
        assert _cli(multi_project, "run") == 0
        path = multi_project / "s.csv"
        header, *rows = path.read_text().splitlines()
        path.write_text("\n".join([header, *reversed(rows)]) + "\n")
        reads, deltas = self._spies(monkeypatch)
        assert _cli(multi_project, "update") == 0
        assert self._baseline_reads(reads) == ["A", "B", "C", "S"]
        assert len(deltas) == 1
        assert "affected=0 cubes" in capsys.readouterr().out
