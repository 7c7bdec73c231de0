"""End-to-end checks of the command line front end.

Most invocations go through ``cli.main`` in-process so failures carry
real tracebacks; one test drives the installed console script to prove
the packaging entry point resolves.
"""

import argparse
import base64
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from vorwave import audit, cli, continuation, laminar, solver
from vorwave.cli import main
from vorwave.config import DEFAULT_G, RunConfig
from vorwave.errors import (InputError, NoConvergenceError, NumericsError,
                            SolverError)
from vorwave.fields import CSV_COLUMNS, WaveField
from vorwave.grid import StripGrid
from vorwave.vorticity import VorticityFunction

GMEAN = 9.81 ** (2.0 / 3.0)  # critical lambda for irrotational unit flux


def write_config(path, **overrides):
    data = {
        "L": float(np.pi),
        "m": 1.0,
        "vorticity": {"kind": "constant", "gamma": 0.0},
        "grid": {"Nq": 48, "Np": 36},
        "continuation": {"steps": 5},
    }
    data.update(overrides)
    path.write_text(json.dumps(data))
    return path


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    """A 5-step pipeline in `out/`. pipeline writes only the last point's
    CSV, so `rebuilt/` holds a copy of its branch with every point's CSV
    rebuilt by `reconstruct`."""
    root = tmp_path_factory.mktemp("pipeline")
    cfg = write_config(root / "cfg.json")
    code = main(["pipeline", "--config", str(cfg), "--out",
                 str(root / "out")])
    shutil.copytree(root / "out" / "branch", root / "rebuilt" / "branch")
    main(["reconstruct", "--config", str(cfg), "--out",
          str(root / "rebuilt")])
    return root, cfg, code


class TestDispersion:
    def test_table_and_criteria(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        assert main(["dispersion", "--config", str(cfg), "--out",
                     str(tmp_path / "d")]) == 0
        data = json.loads((tmp_path / "d" / "dispersion.json").read_text())
        assert data["lambda_c"] == pytest.approx(GMEAN, rel=1e-10)
        table = data["Qtilde_table"]
        assert len(table) == 21
        assert table[-1]["lambda"] == pytest.approx(data["lambda_c"])
        assert table[-1]["Q"] == pytest.approx(1.5 * GMEAN, rel=1e-10)
        assert all(row["Q"] > 0.0 for row in table)
        for name in ("gammasmall", "gammasmallest"):
            crit = data["criteria"][name]
            assert crit["status"] == "pass"
            assert crit["margin"] > 0.0

    def test_adverse_vorticity(self, tmp_path):
        # at gamma = +0.5 lambda must exceed -2 min Gamma = 1, above
        # lambda_c / 20, so the table starts a twentieth of the way from
        # that floor to lambda_c
        cfg = write_config(tmp_path / "cfg.json",
                           vorticity={"kind": "constant", "gamma": 0.5})
        assert main(["dispersion", "--config", str(cfg), "--out",
                     str(tmp_path / "d")]) == 0
        data = json.loads((tmp_path / "d" / "dispersion.json").read_text())
        lams = [row["lambda"] for row in data["Qtilde_table"]]
        assert lams[0] == pytest.approx(1.0 + (data["lambda_c"] - 1.0) / 20)
        assert lams[-1] == data["lambda_c"]
        assert all(row["Q"] > 0.0 for row in data["Qtilde_table"])

    def test_manifest_written(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        main(["dispersion", "--config", str(cfg), "--out",
              str(tmp_path / "d")])
        man = json.loads((tmp_path / "d" / "manifest.json").read_text())
        assert man["command"] == "dispersion"
        assert man["config"] == json.loads(cfg.read_text())
        assert set(man) >= {"version", "started", "finished", "inputs"}
        digest = man["inputs"][str(cfg)]
        assert len(digest) == 64 and set(digest) <= set("0123456789abcdef")


def strict_json(path):
    """path's JSON, refusing the Infinity and NaN tokens strict JSON lacks."""
    def refuse(token):
        raise ValueError("%s holds %s" % (path, token))
    return json.loads(path.read_text(), parse_constant=refuse)


def test_every_artifact_is_strict_json(pipeline_run, tmp_path):
    # at gamma = -1.5 a radicand of gammasmallest is negative: its lhs and
    # margin are infinite and written null
    root, cfg, _ = pipeline_run
    steep = write_config(tmp_path / "steep.json",
                         vorticity={"kind": "constant", "gamma": -1.5})
    for command, config in (("dispersion", cfg), ("bifurcate", cfg),
                            ("dispersion", steep)):
        out = tmp_path / ("%s-%s" % (command, config.stem))
        assert main([command, "--config", str(config), "--out",
                     str(out)]) == 0
    assert main(["gerstner", "--out", str(tmp_path / "gerstner")]) == 0
    written = sorted((root / "out").rglob("*.json"))
    written += sorted(path for path in tmp_path.rglob("*.json")
                      if path.parent != tmp_path)
    assert len(written) > 10
    for path in written:
        strict_json(path)
    crit = strict_json(tmp_path / "dispersion-steep" / "dispersion.json")[
        "criteria"]["gammasmallest"]
    assert crit["lhs"] is None and crit["margin"] is None
    assert crit["status"] == "fail"
    assert "radicand nonpositive" in crit["note"]


class TestConfigErrors:
    def test_missing_config_file_leaves_nothing(self, tmp_path):
        out = tmp_path / "never"
        code = main(["dispersion", "--config", str(tmp_path / "no.json"),
                     "--out", str(out)])
        assert code == 2
        assert not out.exists()

    def test_malformed_json(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert main(["dispersion", "--config", str(cfg), "--out",
                     str(tmp_path / "d")]) == 2

    @pytest.mark.parametrize("overrides", [
        {"surprise": 1},
        {"grid": {"Nq": 48, "Np": 36, "refine": 2}},
        {"continuation": {"steps": 5, "Steps": 6}},
        {"tolerances": {"bernoulli": 1e-6}},
        {"L": -2.0},
        {"m": 0.0},
        {"grid": {"Nq": True}},
        {"continuation": {"steps": 2.5}},
        {"vorticity": {"kind": "constant"}},
        {"grid": {"stretching": -0.1}},
        {"tolerances": {"bern": 1e-6}},
        {"continuation": {"steps": 3, "ds_max": 0.02}},
    ])
    def test_rejected_configs(self, tmp_path, overrides):
        cfg = write_config(tmp_path / "cfg.json", **overrides)
        assert main(["dispersion", "--config", str(cfg), "--out",
                     str(tmp_path / "d")]) == 2

    @pytest.mark.parametrize("key, vorticity", [
        ("gamma", {"kind": "constant", "gamma": "x"}),
        ("gamma", {"kind": "constant", "gamma": None}),
        ("gamma", {"kind": "constant", "gamma": True}),
        ("gamma", {"kind": "constant", "gamma": float("nan")}),
        ("gamma", {"kind": "constant", "gamma": float("inf")}),
        ("coeffs", {"kind": "poly", "coeffs": []}),
        ("coeffs", {"kind": "poly", "coeffs": "ab"}),
        ("gamma[2]", {"kind": "tabulated", "psi": [0.0, 0.3, 0.6, 1.0],
                      "gamma": [-0.3, -0.3, "x", -0.3]}),
    ])
    def test_malformed_vorticity_values(self, tmp_path, capsys, key,
                                        vorticity):
        # a value that is no finite number, or an empty array, is a config
        # error (exit 2) that names its key, not a traceback or a NaN
        # further on
        cfg = write_config(tmp_path / "cfg.json", vorticity=vorticity)
        assert main(["dispersion", "--config", str(cfg), "--out",
                     str(tmp_path / "d")]) == 2
        assert "config.vorticity: %s must be" % key in capsys.readouterr().err

    @pytest.mark.parametrize("key, overrides", [
        ("tolerances", {"tolerances": {}}),
        ("ds0", {"continuation": {"steps": 3, "ds0": 0.01}}),
        ("ds_max", {"continuation": {"steps": 3, "ds_max": 0.02}}),
        ("eps_stag", {"continuation": {"steps": 3, "eps_stag": None}}),
        ("trough_margin", {"continuation": {"steps": 3,
                                            "trough_margin": 0.0}}),
    ])
    def test_tuning_keys_are_not_config(self, tmp_path, capsys, key,
                                        overrides):
        # the audit's tolerances and the continuation's step controls are
        # library constants; a config naming one is refused by name
        cfg = write_config(tmp_path / "cfg.json", **overrides)
        assert main(["dispersion", "--config", str(cfg), "--out",
                     str(tmp_path / "d")]) == 2
        assert "unknown key(s) %s" % key in capsys.readouterr().err

    def test_no_output_directory_anywhere(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        assert main(["dispersion", "--config", str(cfg)]) == 2

    def test_outdir_from_config(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path / "cfg.json", outdir="from-config")
        assert main(["dispersion", "--config", str(cfg)]) == 0
        assert (tmp_path / "from-config" / "dispersion.json").exists()

    def test_unwritable_output_directory_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json")
        (tmp_path / "plain").write_text("not a directory")
        assert main(["dispersion", "--config", str(cfg), "--out",
                     str(tmp_path / "plain" / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("vorwave: output error: ")
        assert err.count("\n") == 1


class TestPipeline:
    def test_exit_and_layout(self, pipeline_run):
        root, cfg, code = pipeline_run
        assert code == 0
        out = root / "out"
        branch = json.loads((out / "branch" / "branch.json").read_text())
        assert len(branch["points"]) == 6  # laminar start + 5 steps
        assert [f.name for f in (out / "fields").iterdir()] == \
            ["point_0005.csv"]
        for i in range(6):
            assert (out / "branch" / ("point_%04d.json" % i)).exists()
            report = json.loads(
                (out / "reports" / ("report_%04d.json" % i)).read_text())
            assert report["summary"]["fail"] == 0
        summary = json.loads((out / "pipeline.json").read_text())
        assert summary["all_pass"] is True
        assert summary["points"] == 6
        assert summary["audits_passed"] == 6
        bif = json.loads((out / "bifurcation.json").read_text())
        assert 0.0 < bif["lambda_star"] < bif["lambda_c"]

    def test_amplitudes_increase(self, pipeline_run):
        root, _, _ = pipeline_run
        branch = json.loads(
            (root / "out" / "branch" / "branch.json").read_text())
        amps = [row["amplitude"] for row in branch["points"]]
        assert amps[0] == pytest.approx(0.0, abs=1e-12)
        assert np.all(np.diff(amps) > 0.0)

    def test_last_csv_is_what_reconstruct_writes(self, pipeline_run,
                                                 tmp_path):
        root, cfg, _ = pipeline_run
        shutil.copytree(root / "out" / "branch", tmp_path / "branch")
        assert main(["reconstruct", "--config", str(cfg), "--out",
                     str(tmp_path), "--point", "5"]) == 0
        for directory in (root / "out" / "fields", tmp_path / "fields"):
            assert [f.name for f in directory.iterdir()] == \
                ["point_0005.csv"]
        assert (root / "out" / "fields" / "point_0005.csv").read_bytes() \
            == (tmp_path / "fields" / "point_0005.csv").read_bytes()

    def test_manifest_records_stage_seconds(self, pipeline_run):
        root, _, _ = pipeline_run
        man = json.loads((root / "out" / "manifest.json").read_text())
        stages = man["stage_seconds"]
        assert set(stages) == {"bifurcate", "continue", "save_branch",
                               "audit", "last_csv"}
        for seconds in stages.values():
            assert np.isfinite(seconds) and seconds >= 0.0

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json",
                           continuation={"steps": 3})
        paths = []
        for name in ("a", "b"):
            assert main(["pipeline", "--config", str(cfg), "--out",
                         str(tmp_path / name)]) == 0
            paths.append(tmp_path / name)
        first = paths[0]
        for later in paths[1:]:
            for sub in ("branch", "fields", "reports"):
                for file in sorted((first / sub).iterdir()):
                    twin = later / sub / file.name
                    assert twin.read_bytes() == file.read_bytes()
            for file in ("pipeline.json", "bifurcation.json"):
                assert (later / file).read_bytes() == \
                    (first / file).read_bytes()

    def test_one_lambda_star_with_stretched_grid(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json",
                           grid={"Nq": 24, "Np": 20, "stretching": 0.2},
                           continuation={"steps": 2})
        assert main(["pipeline", "--config", str(cfg), "--out",
                     str(tmp_path / "p")]) == 0
        assert main(["continue", "--config", str(cfg), "--out",
                     str(tmp_path / "c")]) == 0
        lam = json.loads(
            (tmp_path / "p" / "bifurcation.json").read_text())["lambda_star"]
        for path in ("p/pipeline.json", "p/branch/branch.json",
                     "c/branch/branch.json"):
            assert json.loads((tmp_path / path).read_text())[
                "lambda_star"] == lam

    def test_poly_vorticity_end_to_end(self, tmp_path):
        # the config's poly kind end to end; `audit` re-audits the stored
        # points to the same bytes
        cfg = write_config(tmp_path / "cfg.json",
                           vorticity={"kind": "poly",
                                      "coeffs": [-0.3, -0.2]},
                           grid={"Nq": 24, "Np": 20},
                           continuation={"steps": 3})
        out = tmp_path / "out"
        assert main(["pipeline", "--config", str(cfg), "--out",
                     str(out)]) == 0
        summary = json.loads((out / "pipeline.json").read_text())
        assert summary["all_pass"] is True
        assert summary["points"] == 4
        assert summary["lambda_star"] == pytest.approx(4.033209118070473,
                                                       rel=1e-9)
        reports = {f.name: f.read_bytes()
                   for f in (out / "reports").iterdir()}
        assert len(reports) == 4
        shutil.rmtree(out / "reports")
        assert main(["audit", "--config", str(cfg), "--out",
                     str(out)]) == 0
        assert {f.name: f.read_bytes()
                for f in (out / "reports").iterdir()} == reports

    def test_newton_failure_keeps_the_trivial_point(self, tmp_path,
                                                    monkeypatch):
        tried = []

        def newton_solve(*args, **kwargs):
            tried.append(kwargs["amplitude_target"])
            raise NoConvergenceError("injected")

        monkeypatch.setattr(continuation, "newton_solve", newton_solve)
        cfg = write_config(tmp_path / "cfg.json", grid={"Nq": 24, "Np": 20},
                           continuation={"steps": 3})
        out = tmp_path / "out"
        assert main(["pipeline", "--config", str(cfg), "--out",
                     str(out)]) == 0
        # the first amplitude is the departure's, DS0
        assert tried == [continuation.DS0 * 0.5 ** k
                         for k in range(continuation.MAX_RETRIES)]
        branch = json.loads((out / "branch" / "branch.json").read_text())
        assert branch["stop_reason"] == "newton-failure"
        assert [row["index"] for row in branch["points"]] == [0]
        assert [f.name for f in (out / "fields").iterdir()] == \
            ["point_0000.csv"]
        summary = json.loads((out / "pipeline.json").read_text())
        assert summary["stop_reason"] == "newton-failure"
        assert summary["points"] == 1


class TestPipelineFailures:
    """pipeline audits each stored point after continuation, and leaves a
    manifest but no summary when the run fails."""

    @staticmethod
    def run(tmp_path, steps=2):
        cfg = write_config(tmp_path / "cfg.json", grid={"Nq": 24, "Np": 20},
                           continuation={"steps": steps})
        out = tmp_path / "out"
        return main(["pipeline", "--config", str(cfg), "--out",
                     str(out)]), out

    def test_audit_error_on_one_point_exits_3(self, tmp_path, monkeypatch):
        real_audit = cli.audit_wave
        calls = []

        def audit_wave(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise SolverError("injected audit failure")
            return real_audit(*args, **kwargs)

        monkeypatch.setattr(cli, "audit_wave", audit_wave)
        code, out = self.run(tmp_path)
        assert code == 3
        assert (out / "manifest.json").is_file()
        # the branch is stored before any point is audited
        assert (out / "branch" / "branch.json").is_file()
        assert [p.name for p in (out / "reports").iterdir()] == \
            ["report_0000.json"]
        assert not (out / "pipeline.json").exists()

    def test_continuation_error_exits_3(self, tmp_path, monkeypatch):
        real_trough = continuation.trough_criterion_value
        calls = []

        def trough_criterion_value(*args):
            calls.append(None)
            if len(calls) == 2:
                raise NumericsError("injected continuation failure")
            return real_trough(*args)

        monkeypatch.setattr(continuation, "trough_criterion_value",
                            trough_criterion_value)
        code, out = self.run(tmp_path, steps=4)
        assert code == 3
        assert len(calls) == 2
        assert (out / "manifest.json").is_file()
        assert not (out / "branch").exists()
        assert not (out / "reports").exists()
        assert not (out / "pipeline.json").exists()

    def test_csv_write_error_exits_2(self, tmp_path, capsys):
        # a plain file named `fields` stands where the CSV's directory
        # goes, so the last stage fails and reaches main as an OSError
        (tmp_path / "out").mkdir()
        (tmp_path / "out" / "fields").write_text("not a directory")
        code, out = self.run(tmp_path)
        assert code == 2
        assert capsys.readouterr().err.startswith("vorwave: output error: ")
        assert (out / "manifest.json").is_file()
        assert not (out / "pipeline.json").exists()


def _count_critical_lambda(monkeypatch, modules):
    """A list that gains an entry per critical_lambda call made through
    the name in any of `modules`."""
    calls = []
    for module in modules:
        real = module.critical_lambda

        def counted(*args, _real=real, **kwargs):
            calls.append(None)
            return _real(*args, **kwargs)
        monkeypatch.setattr(module, "critical_lambda", counted)
    return calls


def test_bifurcate_computes_lambda_c_once(tmp_path, monkeypatch):
    calls = _count_critical_lambda(monkeypatch, (cli, solver))
    cfg = write_config(tmp_path / "cfg.json")
    assert main(["bifurcate", "--config", str(cfg), "--out",
                 str(tmp_path / "b")]) == 0
    assert len(calls) == 1


def test_dispersion_computes_lambda_c_once(tmp_path, monkeypatch):
    # both shear criteria take dispersion's lambda_c; gammasmallest's
    # constant-vorticity cross-check passes it on to gammasmall. The
    # criteria live in audit, so a recomputation would go through it
    calls = _count_critical_lambda(monkeypatch, (cli, audit))
    cfg = write_config(tmp_path / "cfg.json",
                       vorticity={"kind": "constant", "gamma": -0.3})
    assert main(["dispersion", "--config", str(cfg), "--out",
                 str(tmp_path / "d")]) == 0
    assert len(calls) == 1


def test_bifurcate_integrates_the_depth_once(tmp_path, monkeypatch):
    # Q_star is the head of the one depth quadrature at lambda_star
    calls = []
    real_quad = laminar._quad_checked

    def counting_quad(*args):
        calls.append(args[-1])
        return real_quad(*args)

    monkeypatch.setattr(laminar, "_quad_checked", counting_quad)
    cfg = write_config(tmp_path / "cfg.json")
    assert main(["bifurcate", "--config", str(cfg), "--out",
                 str(tmp_path / "b")]) == 0
    assert calls.count("depth") == 1


def test_uniform_p_grid_bifurcates(tmp_path):
    # stretching 0 places uniform p nodes, which StripGrid accepts
    cfg = write_config(tmp_path / "cfg.json",
                       grid={"Nq": 24, "Np": 20, "stretching": 0})
    assert main(["bifurcate", "--config", str(cfg), "--out",
                 str(tmp_path / "b")]) == 0
    bif = json.loads((tmp_path / "b" / "bifurcation.json").read_text())
    assert 0.0 < bif["lambda_star"] < bif["lambda_c"]


@pytest.mark.parametrize("command", ["dispersion", "bifurcate", "continue",
                                     "pipeline", "gerstner"])
@pytest.mark.parametrize("grid", [{"Np": 5}, {"stretching": 0.95},
                                  {"stretching": -0.1}],
                         ids=["Np5", "stretching", "negative-stretching"])
def test_invalid_grid_is_a_config_error(tmp_path, capsys, grid, command):
    # the config's grid is checked when it loads, so a grid StripGrid
    # rejects fails every subcommand the same way, before any artifact
    cfg = write_config(tmp_path / "cfg.json", grid=grid)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        "vorwave: config error: config.grid: ")
    assert not out.exists()


def test_config_keeps_the_grid_and_vorticity_it_checked(tmp_path):
    cfg = RunConfig.from_file(write_config(tmp_path / "cfg.json"))
    assert cfg.build_grid() is cfg.build_grid()
    assert cfg.build_vorticity() is cfg.build_vorticity()
    assert (cfg.build_grid().nq, cfg.build_grid().npts) == (48, 36)
    assert cfg.build_vorticity().m == cfg.m


def test_pipeline_builds_its_grid_and_vorticity_once(tmp_path, monkeypatch):
    # the config builds both while checking them, and every stage of the
    # run reads the ones it kept; find_bifurcation's own 4-column grid is
    # not the run's
    built = []
    for cls in (StripGrid, VorticityFunction):
        real = cls.__init__

        def counted(self, *args, _real=real, **kwargs):
            _real(self, *args, **kwargs)
            built.append(self)
        monkeypatch.setattr(cls, "__init__", counted)
    cfg = write_config(tmp_path / "cfg.json",
                       vorticity={"kind": "constant", "gamma": -0.3},
                       grid={"Nq": 24, "Np": 20}, continuation={"steps": 3})
    assert main(["pipeline", "--config", str(cfg), "--out",
                 str(tmp_path / "p")]) == 0
    assert [type(obj).__name__ for obj in built
            if not isinstance(obj, StripGrid) or obj.nq == 24] == [
        "VorticityFunction", "StripGrid"]


def test_every_subcommand_has_a_handler():
    parser = cli.build_parser()
    (sub,) = [action for action in parser._actions
              if isinstance(action, argparse._SubParsersAction)]
    assert set(sub.choices) == {"dispersion", "bifurcate", "continue",
                                "reconstruct", "audit", "gerstner",
                                "pipeline"}
    for name, subparser in sub.choices.items():
        assert callable(subparser.get_default("handler")), name


class TestAudit:
    def test_branch_audit_flow(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json",
                           continuation={"steps": 2})
        out = str(tmp_path / "run")
        assert main(["continue", "--config", str(cfg), "--out", out]) == 0
        assert main(["audit", "--config", str(cfg), "--out", out]) == 0
        reports = sorted((tmp_path / "run" / "reports").iterdir())
        assert [p.name for p in reports] == [
            "report_0000.json", "report_0001.json", "report_0002.json"]

    def test_single_point(self, pipeline_run, tmp_path, capsys):
        root, cfg, _ = pipeline_run
        out = root / "out"
        code = main(["audit", "--config", str(cfg), "--out", str(out),
                     "--point", "4"])
        assert code == 0
        assert main(["audit", "--config", str(cfg), "--out", str(out),
                     "--point", "99"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("vorwave: input error: branch index ")
        assert "has no point 99 (it holds 6 points)" in err

    def test_csv_input(self, pipeline_run, tmp_path):
        root, cfg, _ = pipeline_run
        field = root / "out" / "fields" / "point_0005.csv"
        out = tmp_path / "csvaudit"
        code = main(["audit", str(field), "--config", str(cfg),
                     "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["summary"]["fail"] == 0
        man = json.loads((out / "manifest.json").read_text())
        assert str(field) in man["inputs"]

    def test_csv_input_with_point_is_an_input_error(self, pipeline_run,
                                                    tmp_path, capsys):
        root, cfg, _ = pipeline_run
        field = root / "out" / "fields" / "point_0005.csv"
        out = tmp_path / "csvpoint"
        assert main(["audit", str(field), "--config", str(cfg),
                     "--out", str(out), "--point", "99"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("vorwave: input error: ")
        assert "--point 99" in err and str(field) in err
        assert not (out / "report.json").exists()

    def test_missing_csv_is_an_input_error(self, pipeline_run, tmp_path,
                                           capsys):
        # like a missing branch, a missing field CSV is bad input
        _, cfg, _ = pipeline_run
        field = tmp_path / "missing.csv"
        out = tmp_path / "csvmissing"
        assert main(["audit", str(field), "--config", str(cfg),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("vorwave: input error: field CSV ")
        assert str(field) in err
        assert not (out / "report.json").exists()

    def test_unattainable_tolerance_fails_run(self, pipeline_run, tmp_path):
        # One interior pressure cell nudged by 1e-3 moves the total head
        # there far past D-bern's tolerance; nothing else notices, and
        # the failed audit exits 1.
        root, cfg, _ = pipeline_run
        source = root / "rebuilt" / "fields" / "point_0002.csv"
        lines = source.read_text().splitlines()
        row = 2 + 24 * 36 + 18  # column 24 of 48, node 18 of 36
        cells = lines[row].split(",")
        col = CSV_COLUMNS.index("P")
        cells[col] = repr(float(cells[col]) + 1e-3)
        lines[row] = ",".join(cells)
        field = tmp_path / "nudged.csv"
        field.write_text("\n".join(lines) + "\n")
        code = main(["audit", str(field), "--config", str(cfg),
                     "--out", str(tmp_path / "strict")])
        assert code == 1
        report = json.loads(
            (tmp_path / "strict" / "report.json").read_text())
        failed = [d["id"] for d in report["diagnostics"]
                  if d["status"] == "fail"]
        assert failed == ["D-bern"]

    def test_corrupt_field_is_a_solver_error(self, pipeline_run, tmp_path):
        # Push one surface node below its neighbors' column so the height
        # loses monotonicity; field construction must refuse it.
        root, cfg, _ = pipeline_run
        source = root / "rebuilt" / "fields" / "point_0003.csv"
        lines = source.read_text().splitlines()
        cells = lines[-1].split(",")
        cells[3] = repr(float(cells[3]) - 50.0)
        lines[-1] = ",".join(cells)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        code = main(["audit", str(bad), "--config", str(cfg),
                     "--out", str(tmp_path / "bad")])
        assert code == 3

    @pytest.mark.parametrize("damage", ["truncated h", "nudged node",
                                        "cut-off file", "missing key",
                                        "non-finite h", "invalid base64",
                                        "list-format h", "non-numeric coeff",
                                        "grid too small"])
    def test_damaged_point_is_an_input_error(self, pipeline_run, tmp_path,
                                             capsys, damage):
        # A stored point is checked before it is audited: a file that does
        # not hold a solution of the discrete system, in save_branch's
        # encoding, on a valid grid and vorticity, is an InputError from
        # load_point and exits 2, not 1; both name the file.
        root, cfg, _ = pipeline_run
        out = tmp_path / "run"
        shutil.copytree(root / "out" / "branch", out / "branch")
        point = out / "branch" / "point_0003.json"
        text = point.read_text()
        data = json.loads(text)
        raw = base64.b64decode(data["h"])
        h = np.frombuffer(raw, dtype="<f8").copy()
        middle = h.size // 2
        if damage == "truncated h":
            raw = raw[:-8]
        elif damage == "nudged node":
            h[middle] += 1e-3
            raw = h.tobytes()
        elif damage == "non-finite h":
            h[middle] = np.nan
            raw = h.tobytes()
        data["h"] = base64.b64encode(raw).decode("ascii")
        if damage == "missing key":
            del data["Q"]
        elif damage == "invalid base64":
            data["h"] = data["h"][:100] + "*" + data["h"][101:]
        elif damage == "list-format h":
            # how runs before the base64 encoding stored h
            data["h"] = h.tolist()
        elif damage == "non-numeric coeff":
            data["vorticity"] = {"kind": "poly", "coeffs": ["x"]}
        elif damage == "grid too small":
            data["nq"] = 2
        point.write_text(text[:len(text) // 2] if damage == "cut-off file"
                         else json.dumps(data))
        with pytest.raises(InputError, match="point_0003.json"):
            continuation.load_point(point)
        assert main(["audit", "--config", str(cfg), "--out", str(out),
                     "--point", "3"]) == 2
        assert "point_0003.json" in capsys.readouterr().err
        assert not (out / "reports" / "report_0003.json").exists()

    @pytest.mark.parametrize("damage", ["cut-off file", "row without file"])
    def test_damaged_branch_index_is_an_input_error(self, pipeline_run,
                                                    tmp_path, capsys, damage):
        root, cfg, _ = pipeline_run
        out = tmp_path / "run"
        shutil.copytree(root / "out" / "branch", out / "branch")
        index = out / "branch" / "branch.json"
        text = index.read_text()
        if damage == "cut-off file":
            index.write_text(text[:len(text) // 2])
        else:
            data = json.loads(text)
            del data["points"][2]["file"]
            index.write_text(json.dumps(data))
        assert main(["audit", "--config", str(cfg), "--out", str(out)]) == 2
        assert "branch.json" in capsys.readouterr().err
        assert not (out / "reports").exists()

    @pytest.mark.parametrize("name", ["point_0004.json",
                                      "../branch/point_0001.json"])
    def test_index_row_naming_another_file_is_an_input_error(
            self, pipeline_run, tmp_path, capsys, name):
        # a row's file must be point_filename of its index, so a doctored
        # index cannot make point 1's report out of another file
        root, cfg, _ = pipeline_run
        out = tmp_path / "run"
        shutil.copytree(root / "out" / "branch", out / "branch")
        index = out / "branch" / "branch.json"
        data = json.loads(index.read_text())
        data["points"][1]["file"] = name
        index.write_text(json.dumps(data))
        for command in ("audit", "reconstruct"):
            assert main([command, "--config", str(cfg), "--out", str(out),
                         "--point", "1"]) == 2
            assert "branch.json" in capsys.readouterr().err
        assert not (out / "reports").exists()
        assert not (out / "fields").exists()

    def test_non_numeric_field_cell_exits_2(self, pipeline_run, tmp_path,
                                            capsys):
        root, cfg, _ = pipeline_run
        lines = (root / "rebuilt" / "fields" / "point_0003.csv") \
            .read_text().splitlines()
        cells = lines[10].split(",")
        cells[5] = "oops"
        lines[10] = ",".join(cells)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["audit", str(bad), "--config", str(cfg),
                     "--out", str(tmp_path / "bad")]) == 2
        assert "bad.csv" in capsys.readouterr().err

    def test_single_column_field_exits_2(self, pipeline_run, tmp_path,
                                         capsys):
        # one q-column of a real field: too few nodes to differentiate
        root, cfg, _ = pipeline_run
        lines = (root / "rebuilt" / "fields" / "point_0003.csv") \
            .read_text().splitlines()
        npts = 36
        bad = tmp_path / "column.csv"
        bad.write_text("\n".join(lines[:2 + npts]) + "\n")
        assert main(["audit", str(bad), "--config", str(cfg),
                     "--out", str(tmp_path / "column")]) == 2
        assert "column.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("name, value", [("m", 2.0), ("L", 3.0),
                                             ("g", 9.8)])
    def test_csv_of_another_problem_exits_2(self, pipeline_run, tmp_path,
                                            capsys, name, value):
        # the field was computed at L = pi, m = 1, g = 9.81; a config that
        # differs in one of them would judge it under another vorticity
        # and another lambda_c, so audit refuses it
        root, _, _ = pipeline_run
        field = root / "out" / "fields" / "point_0005.csv"
        cfg = write_config(tmp_path / "other.json", **{name: value})
        out = tmp_path / "other"
        assert main(["audit", str(field), "--config", str(cfg),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("vorwave: input error: field CSV %s" % field)
        assert "%s = %r but the config has %s = %r" % (
            name, {"m": 1.0, "L": float(np.pi), "g": DEFAULT_G}[name],
            name, value) in err
        assert not (out / "report.json").exists()

    def test_csv_under_its_own_config_matches_the_branch_report(
            self, pipeline_run, tmp_path):
        # the CSV of point 5 audited under the config that made it gives
        # the bytes of the pipeline's own report of point 5
        root, cfg, _ = pipeline_run
        field = root / "out" / "fields" / "point_0005.csv"
        out = tmp_path / "own"
        assert main(["audit", str(field), "--config", str(cfg),
                     "--out", str(out)]) == 0
        assert (out / "report.json").read_bytes() == \
            (root / "out" / "reports" / "report_0005.json").read_bytes()

    def test_csv_of_another_vorticity_exits_2(self, tmp_path, capsys):
        # a field computed at gamma = -0.3 under a config at gamma = -0.7
        # with the same L, m and g: its reconstructed vorticity sits a
        # median 0.4 from the config's, so audit refuses it; under its own
        # config it gives the bytes of the pipeline's report
        small = dict(grid={"Nq": 24, "Np": 20}, continuation={"steps": 3})
        own = write_config(tmp_path / "own.json", vorticity={
            "kind": "constant", "gamma": -0.3}, **small)
        other = write_config(tmp_path / "other.json", vorticity={
            "kind": "constant", "gamma": -0.7}, **small)
        run = tmp_path / "run"
        assert main(["pipeline", "--config", str(own), "--out",
                     str(run)]) == 0
        field = run / "fields" / "point_0003.csv"
        out = tmp_path / "other"
        assert main(["audit", str(field), "--config", str(other),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("vorwave: input error: field CSV %s" % field)
        assert "a median 0.4 from the config's gamma(psi)" in err
        assert not (out / "report.json").exists()
        out = tmp_path / "own"
        assert main(["audit", str(field), "--config", str(own),
                     "--out", str(out)]) == 0
        assert (out / "report.json").read_bytes() == \
            (run / "reports" / "report_0003.json").read_bytes()

    @pytest.mark.parametrize("column, value", [(7, "nan"), (-1, "inf")])
    def test_non_finite_field_nodes_exit_2(self, pipeline_run, tmp_path,
                                           capsys, column, value):
        # one q column's node set to NaN, or the last one (L) to inf
        root, cfg, _ = pipeline_run
        lines = (root / "out" / "fields" / "point_0005.csv") \
            .read_text().splitlines()
        npts = 36
        rows = list(range(2, len(lines)))
        for k in rows[column * npts:][:npts]:
            cells = lines[k].split(",")
            cells[0] = value
            lines[k] = ",".join(cells)
        bad = tmp_path / "nonfinite.csv"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(InputError, match="nonfinite.csv"):
            WaveField.from_csv(
                bad, RunConfig.from_file(cfg).build_vorticity())
        assert main(["audit", str(bad), "--config", str(cfg),
                     "--out", str(tmp_path / "nonfinite")]) == 2
        assert "nonfinite.csv" in capsys.readouterr().err

    def test_field_shifted_in_q_exits_2(self, pipeline_run, tmp_path,
                                        capsys):
        # q and x moved by 1: the nodes no longer start at q = 0, so the
        # period L = q[-1] the audit would take is wrong
        root, cfg, _ = pipeline_run
        lines = (root / "out" / "fields" / "point_0005.csv") \
            .read_text().splitlines()
        for k in range(2, len(lines)):
            cells = lines[k].split(",")
            for col in (0, 2):
                cells[col] = "%.17g" % (float(cells[col]) + 1.0)
            lines[k] = ",".join(cells)
        bad = tmp_path / "shifted.csv"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(InputError, match="shifted.csv: grid nodes must"):
            WaveField.from_csv(
                bad, RunConfig.from_file(cfg).build_vorticity())
        assert main(["audit", str(bad), "--config", str(cfg),
                     "--out", str(tmp_path / "shifted")]) == 2
        assert "shifted.csv" in capsys.readouterr().err


class TestReconstruct:
    def test_one_point(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json",
                           continuation={"steps": 2})
        out = str(tmp_path / "run")
        assert main(["continue", "--config", str(cfg), "--out", out]) == 0
        assert main(["reconstruct", "--config", str(cfg), "--out", out,
                     "--point", "1"]) == 0
        fields = list((tmp_path / "run" / "fields").iterdir())
        assert [p.name for p in fields] == ["point_0001.csv"]
        man = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert man["arguments"] == {"point": 1}

    def test_before_continue(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json")
        assert main(["reconstruct", "--config", str(cfg), "--out",
                     str(tmp_path / "empty")]) == 2
        assert capsys.readouterr().err.startswith(
            "vorwave: input error: no branch index ")

    def test_before_continue_leaves_no_fields_directory(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "empty"
        assert main(["reconstruct", "--config", str(cfg), "--out",
                     str(out)]) == 2
        assert [p.name for p in out.iterdir()] == ["manifest.json"]


class TestGerstner:
    def test_outputs(self, tmp_path):
        out = tmp_path / "g"
        assert main(["gerstner", "--k", "1.0", "--eps", "0.9",
                     "--out", str(out)]) == 0
        header = (out / "gerstner.csv").read_text().splitlines()[0]
        assert header.startswith("# vorwave gerstner k=1 eps=0.9")
        report = json.loads((out / "gerstner_report.json").read_text())
        assert report["max_slope_deg"] == pytest.approx(
            np.degrees(np.arcsin(0.9)), abs=1e-12)
        assert report["omega_positive"] is True
        assert report["overturning"]["flag"] is False
        assert report["euler_residual_max"] < 1e-6
        man = json.loads((out / "manifest.json").read_text())
        assert man["config"] is None
        assert man["arguments"] == {"k": 1.0, "eps": 0.9}

    def test_default_g_is_the_configs(self, tmp_path):
        # without --config, gerstner runs at the g of a config without "g"
        out = tmp_path / "g"
        assert main(["gerstner", "--out", str(out)]) == 0
        report = json.loads((out / "gerstner_report.json").read_text())
        cfg = RunConfig.from_dict({"L": 1.0, "m": 1.0, "vorticity": {
            "kind": "constant", "gamma": 0.0}})
        assert report["wave"]["g"] == cfg.g == DEFAULT_G
        header = (out / "gerstner.csv").read_text().splitlines()[0]
        assert header.endswith(" g=%.17g" % DEFAULT_G)

    def test_manifest_records_config_and_arguments(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", g=9.0)
        out = tmp_path / "g"
        assert main(["gerstner", "--config", str(cfg), "--k", "2",
                     "--eps", "0.8", "--out", str(out)]) == 0
        man = json.loads((out / "manifest.json").read_text())
        assert man["config"] == json.loads(cfg.read_text())
        assert man["arguments"] == {"k": 2.0, "eps": 0.8}

    @pytest.mark.parametrize("eps", ["1.0", "0.0", "1.5"])
    def test_bad_steepness(self, tmp_path, eps):
        assert main(["gerstner", "--eps", eps, "--out",
                     str(tmp_path / "g")]) == 2


class TestEntryPoint:
    def test_console_script_resolves(self):
        exe = shutil.which("vorwave")
        if exe is None:
            pytest.skip("console script not on PATH")
        proc = subprocess.run([exe, "--help"], capture_output=True,
                              text=True)
        assert proc.returncode == 0
        assert "pipeline" in proc.stdout

    def test_module_invocation(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        proc = subprocess.run(
            [sys.executable, "-m", "vorwave.cli", "dispersion",
             "--config", str(cfg), "--out", str(tmp_path / "d")],
            capture_output=True, text=True)
        assert proc.returncode == 0

    def test_import_leaves_out_unused_scipy_packages(self):
        # a run takes from scipy only its sparse and dense linear algebra;
        # these four packages would add about 0.3 s to every fresh import
        unused = ("scipy.optimize", "scipy.integrate", "scipy.interpolate",
                  "scipy.special")
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src,
                                             os.environ.get("PYTHONPATH")]))
        code = ("import sys, vorwave.cli, vorwave; "
                "print(vorwave.cli.__file__); "
                "print(*sorted(set(sys.modules) & set(%r)))" % (unused,))
        proc = subprocess.run([sys.executable, "-c", code],
                              env=dict(os.environ, PYTHONPATH=path),
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        where, loaded = proc.stdout.split("\n")[:2]
        assert Path(where).resolve().parent == Path(src) / "vorwave"
        assert loaded == ""

    def test_help_exits_clean(self, capsys):
        assert main(["--help"]) == 0
        assert "dispersion" in capsys.readouterr().out
