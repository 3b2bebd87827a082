import ast
import csv
import importlib
import io
import math
import pkgutil
from pathlib import Path

import numpy as np
import pytest

from fracheat.cli import main as cli_main
from fracheat.study import (
    ErrorRecord,
    RateEstimate,
    StudyConfig,
    StudyResult,
    _snapped_mesh,
    emit_csv,
    fit_rates,
    run_consistency_study,
    run_study,
)


def _read_report(text):
    """Rows of an emit_csv report, every column but problem and rate as a float."""
    return [{key: val if key in ("problem", "rate") else float(val) for key, val in row.items()}
            for row in csv.DictReader(io.StringIO(text))]


def _records(s, errs, hs, problem="example1"):
    return [
        ErrorRecord(problem=problem, s=s, alpha=1.0, h=h, dt=1e-3, error=e)
        for h, e in zip(hs, errs)
    ]


class TestStudyConfig:
    def test_defaults_valid(self):
        cfg = StudyConfig()
        assert cfg.problem == "example1"
        assert cfg.h_values[0] > cfg.h_values[-1]

    def test_rejects_nondecreasing_h(self):
        with pytest.raises(ValueError):
            StudyConfig(h_values=(0.1, 0.2))

    def test_rejects_window_outside_domain(self):
        with pytest.raises(ValueError):
            StudyConfig(domain=(-10.0, 10.0), window=(-20.0, 5.0))

    def test_rejects_repeated_s(self):
        # a repeated s would give the report two h-levels of equal h
        with pytest.raises(ValueError, match="s_values must not repeat"):
            StudyConfig(s_values=(0.4, 0.4))

    @pytest.mark.parametrize("field", ["s_values", "h_values"])
    def test_rejects_empty_sweep(self, field):
        # a sweep with no cells would report success having measured nothing
        with pytest.raises(ValueError, match="must not be empty"):
            StudyConfig(t_horizon=0.01, **{field: ()})

    def test_rejects_bad_workers(self):
        with pytest.raises(ValueError):
            StudyConfig(workers=0)

    @pytest.mark.parametrize("settings, message", [
        ({"dt": 0.0}, "dt must be positive"),
        ({"dt": -0.01}, "dt must be positive"),
        ({"alpha": 0.5}, "backward Euler requires alpha = 1"),
        ({"stepper": "l1_caputo"}, "the L1 scheme requires alpha < 1"),
        ({"alpha": 1.5, "stepper": "mild_reference"}, r"alpha must lie in \(0, 1\]"),
        ({"dt": 0.03, "t_horizon": 0.1}, "integer number of steps"),
        ({"problem": "example3"}, "unknown problem"),
    ])
    def test_rejects_scheme_settings_before_any_cell(self, settings, message):
        # each would fail in every cell; the sweep refuses it up front
        with pytest.raises(ValueError, match=message):
            StudyConfig(**settings)

    def test_mild_reference_ignores_dt(self):
        assert StudyConfig(stepper="mild_reference", alpha=0.5, dt=0.0).scheme().dt is None


class TestSnappedMesh:
    def test_never_widens(self):
        mesh = _snapped_mesh(0.3, -10.05, 10.05)
        assert mesh.a >= -10.05 and mesh.b <= 10.05

    def test_exact_multiple_unchanged(self):
        mesh = _snapped_mesh(0.5, -10.0, 10.0)
        assert mesh.a == -10.0 and mesh.b == 10.0

    def test_nodes_on_lattice(self):
        mesh = _snapped_mesh(0.4, -3.1, 7.7)
        assert abs(mesh.a / 0.4 - round(mesh.a / 0.4)) < 1e-12


class TestFitRates:
    def test_recovers_planted_slope(self):
        hs = (0.8, 0.4, 0.2, 0.1)
        errs = [0.5 * h ** 1.3 for h in hs]
        rates = fit_rates(_records(0.4, errs, hs))
        assert len(rates) == 1
        assert rates[0].order == pytest.approx(1.3, abs=1e-12)
        assert rates[0].residual < 1e-12

    def test_needs_three_points(self):
        assert fit_rates(_records(0.4, [0.1, 0.05], (0.4, 0.2))) == []

    def test_floor_exclusion(self):
        hs = (0.8, 0.4, 0.2, 0.1)
        errs = [0.5 * h ** 2 for h in hs[:-1]] + [4e-3]  # finest stuck at floor
        rates = fit_rates(_records(0.5, errs, hs), dt_floor={0.5: 1e-3})
        assert rates[0].n_used == 3
        assert rates[0].order == pytest.approx(2.0, abs=1e-10)

    def test_multiple_s_grouped(self):
        hs = (0.8, 0.4, 0.2)
        recs = _records(0.3, [h ** 1.0 for h in hs], hs) + \
            _records(0.7, [h ** 2.0 for h in hs], hs)
        rates = fit_rates(recs)
        assert [r.s for r in rates] == [0.3, 0.7]
        assert rates[0].order == pytest.approx(1.0, abs=1e-12)
        assert rates[1].order == pytest.approx(2.0, abs=1e-12)


class TestEmitCsv:
    def test_header_and_roundtrip(self):
        res = StudyResult(records=_records(0.4, [0.1, 0.04, 0.01], (0.4, 0.2, 0.1)))
        buf = io.StringIO()
        emit_csv(res, buf)
        text = buf.getvalue()
        assert text.splitlines()[0] == "problem,s,alpha,h,dt,error,rate,wall_ms"
        floats = ("s", "alpha", "h", "dt", "error", "wall_ms")
        assert [tuple(row[k] for k in floats) for row in _read_report(text)] == \
            [tuple(getattr(r, k) for k in floats) for r in sorted(res.records, key=lambda r: -r.h)]

    def test_rate_column(self):
        res = StudyResult(records=_records(0.4, [0.1, 0.025], (0.4, 0.2)))
        buf = io.StringIO()
        emit_csv(res, buf)
        lines = buf.getvalue().splitlines()
        first_rate = lines[1].split(",")[6]
        second_rate = float(lines[2].split(",")[6])
        assert first_rate == ""
        assert second_rate == pytest.approx(2.0, abs=1e-12)

    def test_byte_identical_rerun(self):
        res = StudyResult(records=_records(0.6, [0.2, 0.05, 0.0125], (0.4, 0.2, 0.1)))
        a, b = io.StringIO(), io.StringIO()
        emit_csv(res, a)
        emit_csv(res, b)
        assert a.getvalue() == b.getvalue()

    def test_timings_zeroed_by_default(self):
        rec = ErrorRecord(problem="example1", s=0.4, alpha=1.0, h=0.4,
                          dt=1e-3, error=0.1, wall_ms=123.4)
        buf = io.StringIO()
        emit_csv(StudyResult(records=[rec]), buf)
        assert buf.getvalue().splitlines()[1].endswith(",0")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            emit_csv(StudyResult(), io.StringIO())


class TestConsistencyStudy:
    def test_small_sweep_decreasing(self):
        res = run_consistency_study(
            s_values=(0.5,), h_values=(0.4, 0.2, 0.1),
            window=(-1.0, 1.0), domain=(-15.0, 15.0),
        )
        assert not res.failures
        errs = [r.error for r in res.records]
        assert errs[0] > errs[1] > errs[2]

    def test_records_name_the_gaussian(self):
        res = run_consistency_study((0.5,), (0.4,), window=(-1.0, 1.0), domain=(-10.0, 10.0))
        assert [r.problem for r in res.records] == ["gaussian"]

    @pytest.mark.parametrize("settings, message", [
        (dict(s_values=(0.5, 0.5), h_values=(0.4, 0.2)), "s_values must not repeat"),
        (dict(s_values=(0.5,), h_values=(0.4, 0.4)), "h_values must not repeat"),
        (dict(s_values=(0.5,), h_values=(0.4, 0.2), window=(-30.0, 30.0)),
         "window must be contained in the domain"),
        (dict(s_values=(), h_values=(0.4, 0.2)), "must not be empty"),
        (dict(s_values=(0.5,), h_values=()), "must not be empty"),
    ])
    def test_rejects_settings_before_any_cell(self, settings, message):
        with pytest.raises(ValueError, match=message):
            run_consistency_study(domain=(-10.0, 10.0), **settings)


class TestRunStudy:
    def test_tiny_example2_sweep(self):
        cfg = StudyConfig(
            problem="example2", s_values=(0.5,), h_values=(0.2, 0.1),
            dt=0.02, t_horizon=0.1, domain=(-1.0, 1.0), window=(-0.5, 0.5),
        )
        res = run_study(cfg)
        assert not res.failures
        assert len(res.records) == 2
        assert res.records[0].error > res.records[1].error

    def test_cell_isolation(self):
        # s = 0.5 is invalid for example1; the cell fails, the study survives
        cfg = StudyConfig(
            problem="example1", s_values=(0.5,), h_values=(1.0, 0.5, 0.25),
            dt=0.05, t_horizon=0.1, domain=(-20.0, 20.0), window=(-5.0, 5.0),
        )
        res = run_study(cfg)
        assert len(res.failures) == 3
        assert res.records == []

    def test_workers_do_not_change_the_report(self):
        reports = []
        for workers in (1, 2):
            cfg = StudyConfig(
                problem="example2", s_values=(0.5, 0.7), h_values=(0.2, 0.1),
                dt=0.02, t_horizon=0.1, domain=(-1.0, 1.0), window=(-0.5, 0.5),
                workers=workers,
            )
            res = run_study(cfg)
            buf = io.StringIO()
            emit_csv(res, buf)
            reports.append((buf.getvalue(), res.failures))
        assert len(reports[0][0].splitlines()) == 5
        assert reports[1] == reports[0]


class TestCli:
    def test_consistency_missing_args_exit_2(self, capsys):
        assert cli_main(["consistency"]) == 2

    @pytest.mark.parametrize("flags", [
        ["--window=-900,5"], ["--h", "0.1,0.2"],
        ["--problem", "example2", "--s", "0.5,0.5", "--h", "0.2,0.1", "--dt", "0.01",
         "--T", "0.02", "--domain=-1,1", "--window=-0.5,0.5"],
        ["--problem", "example2", "--s", ",", "--h", "0.2,0.1", "--dt", "0.01",
         "--T", "0.02", "--domain=-1,1", "--window=-0.5,0.5"],
    ])
    def test_invalid_study_settings_exit_2(self, flags, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["study", *flags])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "error:" in err

    @pytest.mark.parametrize("flags", [
        ["--s", "0.5,0.5", "--h", "0.4,0.2", "--window=-1,1", "--domain=-10,10"],
        ["--s", "0.5", "--h", "0.4,0.4", "--window=-1,1", "--domain=-10,10"],
        ["--s", "0.5", "--h", "0.4,0.2", "--window=-30,30", "--domain=-10,10"],
        ["--s", ",", "--h", "0.4,0.2"],
        ["--s", "0.5", "--h", ","],
    ])
    def test_invalid_consistency_settings_exit_2(self, flags, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["consistency", *flags])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "error: consistency:" in err

    def test_refused_dt_exits_2_and_writes_no_file(self, tmp_path, capsys):
        out_path = tmp_path / "study.csv"
        with pytest.raises(SystemExit) as exc:
            cli_main(["study", "--problem", "example2", "--s", "0.5", "--h", "0.2,0.1",
                      "--dt", "0", "--T", "0.1", "--domain=-1,1", "--window=-0.5,0.5",
                      "--out", str(out_path)])
        assert exc.value.code == 2
        assert not out_path.exists()
        assert "dt must be positive" in capsys.readouterr().err

    def test_consistency_stdout_csv(self, capsys):
        rc = cli_main([
            "consistency", "--s", "0.5", "--h", "0.4,0.2,0.1",
            "--window=-1,1", "--domain=-15,15",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "problem,s,alpha,h,dt,error,rate,wall_ms"
        assert len(out.splitlines()) == 4

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(
            "problem = example2\ns = 0.7\nh = 0.2,0.1\n"
            "dt = 0.02\nT = 0.1\ndomain = -1,1\nwindow = -0.5,0.5\n"
        )
        out_path = tmp_path / "study.csv"
        rc = cli_main(["study", "--config", str(cfgfile),
                       "--s", "0.5", "--out", str(out_path)])
        assert rc == 0
        rows = _read_report(out_path.read_text())
        assert {r["s"] for r in rows} == {0.5}  # flag overrode config file
        assert {r["problem"] for r in rows} == {"example2"}

    def test_config_file_timings_reach_the_csv(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(
            "problem = example2\ns = 0.5\nh = 0.2,0.1\ndt = 0.02\nT = 0.1\n"
            "domain = -1,1\nwindow = -0.5,0.5\ntimings = true\n"
        )
        out_path = tmp_path / "study.csv"
        assert cli_main(["study", "--config", str(cfgfile), "--out", str(out_path)]) == 0
        assert all(r["wall_ms"] > 0.0 for r in _read_report(out_path.read_text()))

    def test_timings_reach_the_stdout_csv(self, capsys):
        rc = cli_main([
            "study", "--problem", "example2", "--s", "0.5", "--h", "0.2,0.1",
            "--dt", "0.02", "--T", "0.1", "--domain=-1,1", "--window=-0.5,0.5",
            "--timings",
        ])
        assert rc == 0
        rows = _read_report(capsys.readouterr().out)
        assert len(rows) == 2 and all(r["wall_ms"] > 0.0 for r in rows)

    def test_config_key_the_subcommand_lacks_is_rejected(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("s = 0.5\nh = 0.4,0.2\nproblem = example2\ndt = 0.02\nT = 0.1\n")
        with pytest.raises(SystemExit) as exc:
            cli_main(["consistency", "--config", str(cfgfile), "--window=-1,1",
                      "--domain=-10,10"])
        assert exc.value.code == 2
        assert "--problem=example2" in capsys.readouterr().err

    def test_study_failure_exit_1(self, capsys):
        rc = cli_main([
            "study", "--problem", "example1", "--s", "0.5",
            "--h", "1.0,0.5", "--dt", "0.05", "--T", "0.1",
            "--domain=-20,20", "--window=-5,5",
        ])
        assert rc == 1

    def test_all_cells_failing_write_no_report(self, tmp_path, capsys):
        out_path = tmp_path / "study.csv"
        rc = cli_main([
            "study", "--problem", "example1", "--s", "0.5",
            "--h", "1.0,0.5", "--dt", "0.05", "--T", "0.1",
            "--domain=-20,20", "--window=-5,5", "--out", str(out_path),
        ])
        assert rc == 1
        assert not out_path.exists()
        err = capsys.readouterr().err
        assert "cell (s=0.5, h=1.0) aborted: ValueError" in err
        assert "cell (s=0.5, h=0.5) aborted: ValueError" in err

    def test_mild_reference_rows_carry_dt_zero(self, tmp_path, capsys):
        out_path = tmp_path / "study.csv"
        rc = cli_main([
            "study", "--problem", "example2", "--s", "0.5", "--h", "0.2,0.1",
            "--dt", "0.05", "--T", "0.1", "--domain=-1,1", "--window=-0.5,0.5",
            "--stepper", "mild_reference", "--out", str(out_path),
        ])
        assert rc == 0
        rows = _read_report(out_path.read_text())
        assert len(rows) == 2 and all(r["dt"] == 0.0 for r in rows)


def test_demos_import_only_existing_names():
    # the demos are not run by the test suite; this catches a demo that
    # imports a name the library no longer has
    demos = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))
    assert demos
    for demo in demos:
        for node in ast.walk(ast.parse(demo.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("fracheat"):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name), f"{demo.name}: {node.module}.{alias.name}"
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("fracheat"):
                        importlib.import_module(alias.name)


def test_exports_name_existing_objects():
    # a stale __all__ entry breaks only `from fracheat.<module> import *`,
    # and a package export missing from its module's __all__ hides it there
    package = importlib.import_module("fracheat")
    for info in pkgutil.iter_modules(package.__path__):
        module = importlib.import_module(f"fracheat.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"fracheat.{info.name}.__all__ names {name}"
    for node in ast.parse(Path(package.__file__).read_text()).body:
        if isinstance(node, ast.ImportFrom):
            module = importlib.import_module(f"fracheat.{node.module}")
            for alias in node.names:
                assert alias.name in module.__all__, f"fracheat.{node.module}.{alias.name}"
