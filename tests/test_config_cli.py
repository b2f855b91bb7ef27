"""Scenario parsing, presets, output formats, and the command-line driver."""

import dataclasses
import hashlib
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from viscodiff import cli
from viscodiff.cli import (
    EXIT_CHECK_FAILED,
    EXIT_CONFIG_ERROR,
    EXIT_NUMERICAL_FAILURE,
    EXIT_OK,
    main,
)
from viscodiff import config as cfgmod
from viscodiff.coefficients import N_SAMPLES
from viscodiff.config import (
    _GROUP_HEADS,
    _RULES,
    PRESETS,
    ConfigError,
    build_boundary,
    build_initial,
    build_mesh_from,
    build_physical,
    parse_config,
    has_longtime,
    preset_config,
    serialize_config,
)
from viscodiff.diagnostics import CSV_COLUMNS
from viscodiff.discretization import build_mesh
from viscodiff.output import read_snapshot, write_snapshot
from viscodiff.solver import NumericalFailure, State


class TestParsing:
    def test_defaults_applied(self):
        cfg = parse_config("mesh.N = 16\n")
        assert cfg["mesh.N"] == 16
        assert cfg["mesh.L"] == 1.0
        assert cfg["time.dt"] == 1e-3
        assert cfg["model.D0"] == "constant"
        assert cfg["boundary.phi_left"] == "zero"

    def test_optional_defaults_are_read_not_stored(self):
        # an unset optional key reads its default but stays out of values,
        # so the serialized config and has_longtime do not see it
        cfg = parse_config("mesh.N = 16\n")
        assert cfg["longtime.n_samples"] == N_SAMPLES
        assert cfg["front.threshold"] == 0.5
        assert cfg["check.analytic_tol"] == 1e-2
        assert list(cfg["longtime.gamma_grid"]) == list(
            np.geomspace(0.1, 10.0, 25))
        assert cfg.get("longtime.n_samples", 4096) == 4096
        assert not has_longtime(cfg)
        assert "longtime" not in serialize_config(cfg)
        assert parse_config("longtime.n_samples = 9\n")[
            "longtime.n_samples"] == 9
        with pytest.raises(KeyError):
            cfg["no.such.key"]

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# a comment\n\nmesh.N = 8  # trailing\n")
        assert cfg["mesh.N"] == 8

    def test_value_types(self):
        cfg = parse_config(
            'mesh.N = 32\nmesh.L = 2.5\ncheck.lyapunov = true\n'
            'model.beta0 = "tanh"\nmodel.beta0.beta_R = 2.0\n'
            'model.beta0.beta_G = 1.0\nmodel.beta0.delta = 0.05\n'
            'model.beta0.u_RG = 0.5\nlongtime.gamma_grid = [0.5, 1.0, 2.0]\n'
            "model.D0.value = 2\n")
        assert cfg["check.lyapunov"] is True
        # an integer law parameter is stored as a float, like a field's
        assert type(cfg["model.D0.value"]) is float
        assert cfg["model.D0.value"] == 2.0
        assert cfg["longtime.gamma_grid"] == [0.5, 1.0, 2.0]
        assert cfg["model.beta0"] == "tanh"

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("mesh.N = 8\nmesh.badger = 1\n")
        assert exc.value.line == 2
        assert "mesh.badger" in str(exc.value)

    def test_unknown_model_name_reports_key(self):
        with pytest.raises(ConfigError) as exc:
            parse_config('model.D0 = "fancy"\n')
        assert exc.value.key == "model.D0"

    def test_negative_dt_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("time.dt = -0.1\n")

    @pytest.mark.parametrize("lines, key", [
        (['mesh.N = "many"'], "mesh.N"),
        (["mesh.N = 2.5"], "mesh.N"),
        (["model.D0.value = true"], "model.D0.value"),
        (['model.D0.value = "2.5"'], "model.D0.value"),
        (['model.D0.value = "nan"'], "model.D0.value"),
        (['preset = "sorption"', 'model.beta0.delta = "inf"'],
         "model.beta0.delta"),
        (['model.nu0 = "tanh"', "model.nu0.lo = 0.0", "model.nu0.hi = 0.1",
          "model.nu0.delta = 0.1", 'model.nu0.center = "0.4"'],
         "model.nu0.center"),
        (['model.nu0 = "polynomial"', "model.nu0.coeffs = 0.5"],
         "model.nu0.coeffs"),
        (['initial.u0 = "cosine"', "initial.u0.amplitude = 1.0",
          "initial.u0.mode = 1.5"], "initial.u0.mode")],
        ids=["N-str", "N-float", "law-bool", "law-str", "law-str-nan",
             "law-str-inf", "tanh-str", "coeffs-float", "mode-float"])
    def test_type_mismatch(self, tmp_path, capsys, lines, key):
        text = "\n".join(lines) + "\n"
        with pytest.raises(ConfigError, match="expected") as exc:
            parse_config(text)
        assert (exc.value.key, exc.value.line) == (key, len(lines))
        p = tmp_path / "bad.cfg"
        p.write_text(text)
        assert main(["run", str(p), "--out", str(tmp_path / "o"),
                     "--quiet"]) == EXIT_CONFIG_ERROR
        assert repr(key) in capsys.readouterr().err

    def test_law_error_under_a_preset_names_the_file_line(self):
        # the group head comes from the preset, so the first line the
        # file set in the group is reported
        text = 'preset = "sorption"\nmodel.D0.delta = -1.0\n'
        with pytest.raises(ConfigError, match="delta > 0") as exc:
            parse_config(text)
        assert (exc.value.key, exc.value.line) == ("model.D0", 2)
        assert "(line 2)" in str(exc.value)

    def test_missing_required_model_param(self):
        with pytest.raises(ConfigError):
            parse_config('model.beta0 = "tanh"\nmodel.beta0.delta = 0.1\n')

    def test_group_switch_drops_stale_params(self):
        # switching a group's kind must not leak the default parameters
        cfg = parse_config('initial.u0 = "cosine"\ninitial.u0.amplitude = 1.0\n')
        assert "initial.u0.value" not in cfg.values
        assert cfg["initial.u0.mean"] == 0.0

    def test_preset_expansion_with_override(self):
        cfg = parse_config('preset = "fickian"\nmesh.N = 512\n')
        assert cfg["mesh.N"] == 512
        assert cfg["initial.u0"] == "cosine"

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            parse_config('preset = "nonexistent"\n')

    def test_serialize_round_trip(self):
        for name in PRESETS:
            cfg = preset_config(name)
            again = parse_config(serialize_config(cfg))
            assert again.values == cfg.values

    @pytest.mark.parametrize("key, value", [
        ("epsilon", "nan"), ("time.dt", "inf"), ("time.dt", "nan"),
        ("time.T_end", "1e999"), ("mesh.L", "nan"),
        ("model.D0.delta", "nan"), ("longtime.box.u", "[0.0, nan]"),
        ("longtime.gamma_grid", "[1.0, -inf]")])
    def test_non_finite_number_rejected(self, key, value):
        with pytest.raises(ConfigError, match="finite") as exc:
            parse_config(f'model.D0 = "tanh"\n{key} = {value}\n')
        assert (exc.value.line, exc.value.key) == (2, key)

    def test_laws_are_built_once_per_scenario(self, monkeypatch):
        # validate builds the six laws, and the builders read them
        made = []
        make = cfgmod.make_scalar_model

        def counted(name, **params):
            made.append(name)
            return make(name, **params)
        monkeypatch.setattr(cfgmod, "make_scalar_model", counted)
        cfg = parse_config('preset = "sorption"\n')
        build_physical(cfg)
        cfgmod.build_model(cfg)
        assert len(made) == 6
        # with neither --dt nor --n-cells the CLI keeps the parsed scenario
        assert cli._override(cfg, None, None) is cfg
        assert len(made) == 6

    def test_longtime_box_x_is_checked_against_mesh_L(self):
        text = "mesh.L = 2.0\nlongtime.Gamma = 1.0\nlongtime.box.x = {}\n"
        with pytest.raises(ConfigError, match=re.escape(
                "must cover [0, mesh.L] = [0.0, 2.0], got [0.0, 1.0]")) as exc:
            parse_config(text.format("[0.0, 1.0]"))
        assert (exc.value.line, exc.value.key) == (3, "longtime.box.x")
        # a box wider than the domain covers it
        parse_config(text.format("[-0.5, 2.5]"))

    def test_preset_cache_hands_out_no_shared_list(self):
        # a preset is parsed once per process; changing one scenario's
        # values, a list included, changes no later parse of the preset
        first = parse_config('preset = "homogenize"\n')
        first.values["longtime.box.t"][1] = 7.0
        first.values["mesh.N"] = 3
        again = parse_config('preset = "homogenize"\n')
        assert again.values == preset_config("homogenize").values
        assert again["longtime.box.t"] == [0.0, 50.0]
        assert again["longtime.box.t"] is not first["longtime.box.t"]

    def test_group_reads_the_validated_params(self):
        cfg = parse_config('boundary.phi_left = "pulse"\n'
                           'boundary.phi_left.value = 2.0\n'
                           'boundary.phi_left.t_off = 0.5\n')
        name, params = cfg.group("boundary.phi_left")
        assert (name, params) == (
            "pulse", {"value": 2.0, "t_on": 0.0, "t_off": 0.5})
        params["value"] = 9.0  # a copy: the scenario keeps its value
        assert cfg.group("boundary.phi_left")[1]["value"] == 2.0
        for preset in PRESETS:
            cfg = preset_config(preset)
            for head in _GROUP_HEADS:
                prefix = head + "."
                assert cfg.group(head) == (cfg[head], {
                    k[len(prefix):]: v for k, v in cfg.values.items()
                    if k.startswith(prefix)})

    def test_all_presets_parse(self):
        for name in PRESETS:
            cfg = preset_config(name)
            build_physical(cfg)
            build_boundary(cfg)


class TestBuilders:
    def test_cosine_initial_field(self):
        cfg = parse_config(
            'mesh.N = 4\ninitial.u0 = "cosine"\ninitial.u0.mean = 0.5\n'
            'initial.u0.amplitude = 0.25\n')
        mesh = build_mesh_from(cfg)
        init = build_initial(cfg, mesh, build_physical(cfg))
        assert np.allclose(init.u0,
                           0.5 + 0.25 * np.cos(math.pi * mesh.nodes))

    def test_step_initial_field(self):
        cfg = parse_config(
            'mesh.N = 4\ninitial.u0 = "step"\ninitial.u0.left = 1.0\n'
            'initial.u0.right = 0.0\ninitial.u0.x0 = 0.6\n')
        mesh = build_mesh_from(cfg)
        init = build_initial(cfg, mesh, build_physical(cfg))
        assert np.array_equal(init.u0, [1, 1, 1, 0, 0])

    def test_boundary_kinds(self):
        cfg = parse_config(
            'boundary.phi_left = "sinusoid"\nboundary.phi_left.amplitude = 2.0\n'
            'boundary.phi_left.omega = 1.0\n'
            'boundary.phi_right = "pulse"\nboundary.phi_right.value = 3.0\n'
            'boundary.phi_right.t_off = 0.5\n')
        bd = build_boundary(cfg)
        assert bd.phi_left(math.pi / 2) == pytest.approx(2.0)
        assert bd.phi_right(0.25) == 3.0
        assert bd.phi_right(0.75) == 0.0


class TestSnapshotIO:
    def test_header_and_round_trip(self, tmp_path):
        path = tmp_path / "snap.csv"
        x = np.linspace(0, 1, 9)
        u = np.cos(x) / 3
        vs = np.sin(x) * 1e-7
        sigma = vs + 0.1 * u
        write_snapshot(path, x, u, vs, sigma)
        assert path.read_text().splitlines()[0] == "x,u,varsigma,sigma"
        back = read_snapshot(path)
        for name, arr in (("x", x), ("u", u), ("varsigma", vs),
                          ("sigma", sigma)):
            assert np.array_equal(back[name], arr)  # %.17g exact round trip

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,u,s\n0,0,0\n")
        with pytest.raises(ValueError):
            read_snapshot(path)

    @pytest.mark.parametrize("body, message", [
        ("x,u,varsigma,sigma\n0,0,0,0\n1,0,0\n",
         "line 3: expected 4 values, found 3"),
        ("x,u,varsigma,sigma\n0,0,0,0\n1,0,0,0\n",
         "has 2 nodes, mesh has 33"),
    ], ids=["bad-row", "node-count"])
    def test_bad_snapshot_file_names_its_key(self, tmp_path, capsys, body,
                                             message):
        snap = tmp_path / "snap.csv"
        snap.write_text(body)
        p = tmp_path / "s.cfg"
        p.write_text(f'mesh.N = 32\ninitial.u0 = "file"\n'
                     f'initial.u0.path = "{snap}"\n')
        assert main(["run", str(p), "--out", str(tmp_path / "o"),
                     "--quiet"]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert message in err and str(snap) in err
        assert "[key 'initial.u0.path']" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("field", ["u0", "sigma0"])
    @pytest.mark.parametrize("x1, x2", [("5", "9"), ("0.500000001", "1")],
                             ids=["far", "near-miss"])
    def test_snapshot_from_another_mesh_exit_two(self, tmp_path, capsys,
                                                 field, x1, x2):
        # as many nodes as the mesh (0, 0.5, 1), but at x = 0, x1, x2; the
        # message prints node 1 with every digit that differs
        snap = tmp_path / "snap.csv"
        snap.write_text(f"x,u,varsigma,sigma\n0,0.1,0,0.1\n{x1},0.2,0,0.2\n"
                        f"{x2},0.3,0,0.3\n")
        p = tmp_path / "s.cfg"
        p.write_text(f'mesh.N = 2\ninitial.{field} = "file"\n'
                     f'initial.{field}.path = "{snap}"\n')
        assert main(["run", str(p), "--out", str(tmp_path / "o"),
                     "--quiet"]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert f"[key 'initial.{field}.path']" in err
        assert (f"snapshot {str(snap)!r} is from another mesh: its node 1 "
                f"is at x = {float(x1)}, the mesh's at x = 0.5") in err
        assert not (tmp_path / "o").exists()

    def test_snapshot_nodes_written_by_hand_fit_the_mesh(self, tmp_path):
        # "0.3" is not linspace's 0.30000000000000004, but within round-off
        snap = tmp_path / "snap.csv"
        snap.write_text("x,u,varsigma,sigma\n" + "".join(
            f"{k / 10},{k},0,0\n" for k in range(11)))
        cfg = parse_config(f'mesh.N = 10\ninitial.u0 = "file"\n'
                           f'initial.u0.path = "{snap}"\n')
        mesh = build_mesh_from(cfg)
        assert not np.array_equal(read_snapshot(snap)["x"], mesh.nodes)
        init = build_initial(cfg, mesh, build_physical(cfg))
        assert init.u0.tolist() == list(range(11))

    def test_file_initial_data_round_trip(self, tmp_path):
        # run one step, snapshot, restart from the file: state reproduced
        out = tmp_path / "first"
        assert main(["preset", "fickian", "--out", str(out), "--quiet",
                     "--n-cells", "32", "--dt", "0.001"]) == EXIT_OK
        snaps = sorted(out.glob("snapshot_*.csv"))
        last = max(snaps, key=lambda p: int(p.stem.split("_")[1]))
        cfg = parse_config(
            f'mesh.N = 32\ninitial.u0 = "file"\ninitial.u0.path = "{last}"\n'
            f'initial.sigma0 = "file"\ninitial.sigma0.path = "{last}"\n')
        mesh = build_mesh_from(cfg)
        init = build_initial(cfg, mesh, build_physical(cfg))
        data = read_snapshot(last)
        assert np.max(np.abs(init.u0 - data["u"])) <= 1e-12
        assert np.max(np.abs(init.varsigma0 - data["varsigma"])) <= 1e-12

    @pytest.mark.parametrize("preset", ["homogenize", "sorption"])
    def test_restart_keeps_u_and_with_nu0_zero_varsigma(self, tmp_path,
                                                        preset):
        # u restarts bit for bit.  varsigma0 is sigma - int_0^u nu0 anew
        # from the file's sigma: bit for bit where nu0 = 0 (homogenize),
        # to round-off where it is not (sorption's nu0 = 0.5)
        p = tmp_path / "s.cfg"
        p.write_text(f'preset = "{preset}"\ntime.T_end = 0.05\n')
        out = tmp_path / "o"
        assert main(["run", str(p), "--out", str(out), "--quiet"]) == EXIT_OK
        snap = out / "snapshot_1.csv"
        cfg = parse_config(p.read_text() + "".join(
            f'initial.{f}0 = "file"\ninitial.{f}0.path = "{snap}"\n'
            for f in ("u", "sigma")))
        init = build_initial(cfg, build_mesh_from(cfg), build_physical(cfg))
        data = read_snapshot(snap)
        assert init.u0.tobytes() == data["u"].tobytes()
        if preset == "homogenize":
            assert init.varsigma0.tobytes() == data["varsigma"].tobytes()
        else:
            assert np.allclose(init.varsigma0, data["varsigma"],
                               rtol=0, atol=1e-15)


class TestCli:
    def test_run_fickian_exit_zero(self, tmp_path):
        assert main(["preset", "fickian", "--out", str(tmp_path / "o"),
                     "--quiet", "--n-cells", "64", "--dt", "0.001"]) == EXIT_OK

    def test_outputs_exist(self, tmp_path):
        out = tmp_path / "o"
        main(["preset", "fickian", "--out", str(out), "--quiet",
              "--n-cells", "32", "--dt", "0.01"])
        assert (out / "diagnostics.csv").exists()
        assert (out / "summary.txt").exists()
        assert (out / "snapshot_0.csv").exists()
        assert any(out.glob("flux_*.csv"))

    def test_mass_tolerance_scales_with_the_mass_reached(self, tmp_path):
        # the mass reaches 4000: a drift of 1.003e-10 at step 469, 2e-13
        # of the mass there, is round-off and passes
        p = tmp_path / "phi.cfg"
        p.write_text('mesh.N = 64\ntime.dt = 1e-3\ntime.T_end = 4.0\n'
                     'boundary.phi_left = "constant"\n'
                     'boundary.phi_left.value = 1000.0\n')
        out = tmp_path / "o"
        assert main(["run", str(p), "--out", str(out), "--quiet"]) == EXIT_OK
        assert ("check mass_balance: PASS - mass tracks influx over 4000 "
                "steps (net gain 4000.00000001, influx sum dt*phi 4000)"
                ) in (out / "summary.txt").read_text().splitlines()

    def test_reused_out_holds_only_the_latest_run(self, tmp_path):
        out = tmp_path / "o"
        for every in (100, 500):
            p = tmp_path / f"f{every}.cfg"
            p.write_text(f'preset = "fickian"\ntime.output_every = {every}\n')
            assert main(["run", str(p), "--out", str(out), "--quiet",
                         "--n-cells", "32"]) == EXIT_OK
        assert sorted(f.name for f in out.glob("snapshot_*.csv")) == [
            "snapshot_0.csv", "snapshot_1.csv", "snapshot_2.csv"]
        assert len(list(out.glob("flux_*.csv"))) == 3

    def test_reused_out_keeps_other_files_and_the_initial_data(
            self, tmp_path):
        # an exit-3 run writes no snapshot, so none of the first run's
        # stays, apart from the one the second run restarts from
        out = tmp_path / "o"
        assert main(["preset", "sorption", "--out", str(out), "--quiet",
                     "--dt", "0.05"]) == EXIT_OK
        (out / "notes.txt").write_text("kept\n")
        (out / "snapshot_best.csv").write_text("kept\n")
        p = tmp_path / "singular.cfg"
        p.write_text(f'preset = "sorption"\nmodel.beta0 = "constant"\n'
                     f'model.beta0.value = -2000.0\ninitial.u0 = "file"\n'
                     f'initial.u0.path = "{out / "snapshot_1.csv"}"\n')
        assert main(["run", str(p), "--out", str(out),
                     "--quiet"]) == EXIT_NUMERICAL_FAILURE
        assert sorted(f.name for f in out.iterdir()) == [
            "config.txt", "diagnostics.csv", "notes.txt", "snapshot_1.csv",
            "snapshot_best.csv", "summary.txt"]

    def test_reused_out_of_a_failed_eps_scan(self, tmp_path, capsys):
        out = tmp_path / "o"
        out.mkdir()
        for name in ("diagnostics_eps_0p01.csv", "summary.txt",
                     "snapshot_0.csv"):
            (out / name).write_text("old\n")
        p = tmp_path / "singular.cfg"
        p.write_text('preset = "sorption"\nmodel.beta0 = "constant"\n'
                     "model.beta0.value = -2000.0\n")
        assert main(["eps-scan", str(p), "--out", str(out),
                     "--quiet"]) == EXIT_NUMERICAL_FAILURE
        assert sorted(f.name for f in out.iterdir()) == [
            "diagnostics_eps_0.csv", "snapshot_0.csv", "summary.txt"]
        assert (out / "snapshot_0.csv").read_text() == "old\n"

    def test_output_file_that_cannot_be_removed_exits_two(self, tmp_path,
                                                          capsys):
        out = tmp_path / "o"
        (out / "summary.txt").mkdir(parents=True)
        assert main(["preset", "fickian", "--out", str(out), "--quiet",
                     "--dt", "0.05"]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert f"cannot remove {out / 'summary.txt'}: " in err
        assert "[key '--out']" in err

    def test_homogenization_line_counts_from_the_final_decay(self, tmp_path):
        # homogenize's metric first dips below 1e-4 at t=0.567, a zero
        # crossing of the u mode; it stays below only from t=2.471
        p = tmp_path / "h.cfg"
        p.write_text('preset = "homogenize"\ntime.T_end = 3.0\n')
        assert main(["run", str(p), "--out", str(tmp_path / "o"),
                     "--quiet"]) == EXIT_OK
        lines = (tmp_path / "o" / "summary.txt").read_text().splitlines()
        assert "homogenization metric stays below 1e-4 from t=2.471" in lines
        assert not any("first below" in line for line in lines)
        box = [line for line in lines if line.startswith("check longtime_box")]
        assert box == ["check longtime_box: PASS - run stays in the longtime "
                       "box: t in [0, 3], u in [0.2, 0.8], varsigma in "
                       "[0.238335, 0.261665]"]

    @pytest.mark.parametrize("lines, status, axis", [
        # homogenize starts at u in [0.2, 0.8] and varsigma = 0.25
        (["longtime.box.u = [0.49, 0.51]", "longtime.box.s = [0.9, 1.0]"],
         EXIT_CHECK_FAILED, "u range [0.2, 0.8] leaves longtime.box.u = "
                            "[0.49, 0.51]"),
        (["longtime.box.s = [0.9, 1.0]"], EXIT_CHECK_FAILED,
         "varsigma range [0.238335, 0.261665] leaves longtime.box.s = "
         "[0.9, 1]"),
        (["longtime.box.t = [0.0, 0.5]"], EXIT_CHECK_FAILED,
         "t range [0, 1] leaves longtime.box.t = [0, 0.5]"),
        # 3 steps of 0.1 end at t = 0.30000000000000004, the step time
        # that stands for T_end = 0.3, inside the box's t-range
        (["time.dt = 0.1", "time.T_end = 0.3", "longtime.box.t = [0.0, 0.3]"],
         EXIT_OK, "run stays in the longtime box: t in [0, 0.3]"),
    ])
    def test_longtime_box_check(self, tmp_path, capsys, lines, status, axis):
        p = tmp_path / "box.cfg"
        if not any(line.startswith("time.T_end") for line in lines):
            lines = ["time.T_end = 1.0", *lines]
        p.write_text("\n".join(['preset = "homogenize"', *lines]) + "\n")
        assert main(["run", str(p), "--out", str(tmp_path / "o")]) == status
        out = capsys.readouterr().out
        verdict = "PASS" if status == EXIT_OK else "FAIL"
        assert f"check longtime_box: {verdict} - {axis}" in out
        assert "check lyapunov_decay: PASS" in out

    def test_missing_config_file(self, capsys):
        assert main(["run", "/nonexistent/path.cfg"]) == EXIT_CONFIG_ERROR
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["directory", "not-utf-8"])
    def test_unreadable_config_file_exit_two(self, tmp_path, capsys, case):
        if case == "directory":
            p = tmp_path / "cfg.d"
            p.mkdir()
        else:
            p = tmp_path / "latin1.cfg"
            p.write_bytes("# r\xe9sum\xe9\nmesh.N = 16\n".encode("latin-1"))
        assert main(["run", str(p), "--out", str(tmp_path / "o"),
                     "--quiet"]) == EXIT_CONFIG_ERROR
        assert f"configuration error: cannot read {p}: " in \
            capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("verb", [["preset", "homogenize", "--dt", "0.5"],
                                      ["eps-scan"]], ids=["preset", "eps-scan"])
    def test_out_that_is_a_file_exits_two_before_any_step(
            self, tmp_path, capsys, monkeypatch, verb):
        def no_steps(*args, **kwargs):
            raise AssertionError("a step ran")

        monkeypatch.setattr(cli, "run", no_steps)
        out = tmp_path / "taken"
        out.write_text("kept\n")
        assert main([*verb, "--out", str(out),
                     "--quiet"]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert f"cannot create output directory {out}: " in err
        assert "[key '--out']" in err
        assert out.read_text() == "kept\n"

    def test_bad_config_exit_two(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text("time.dt = -1\n")
        assert main(["run", str(p)]) == EXIT_CONFIG_ERROR

    def test_numerical_failure_exit_three(self, tmp_path, capsys):
        # negative diffusivity blows the SPD solve / watchdog
        p = tmp_path / "explode.cfg"
        p.write_text('model.D0 = "constant"\nmodel.D0.value = -1.0\n'
                     'initial.u0 = "cosine"\ninitial.u0.amplitude = 1.0\n'
                     "time.T_end = 1.0\n")
        assert main(["run", str(p), "--out", str(tmp_path / "o"),
                     "--quiet"]) == EXIT_NUMERICAL_FAILURE

    def test_numerical_failure_leaves_diagnostics_and_summary(
            self, tmp_path, capsys):
        p = tmp_path / "singular.cfg"
        p.write_text('preset = "sorption"\nmodel.beta0 = "constant"\n'
                     "model.beta0.value = -2000.0\n")
        out = tmp_path / "o"
        assert main(["run", str(p), "--out", str(out),
                     "--quiet"]) == EXIT_NUMERICAL_FAILURE
        message = ("implicit stress decay singular at step 1: dt * beta1 >= 1 "
                   "with positive beta1")
        assert f"numerical failure: {message}" in capsys.readouterr().err
        lines = (out / "diagnostics.csv").read_text().splitlines()
        assert lines[0].startswith("# generated ")
        assert lines[1] == ",".join(CSV_COLUMNS)
        assert len(lines) == 3 and lines[2].startswith("0,")
        summary = (out / "summary.txt").read_text()
        assert "failed at step 1, t=0.0005" in summary
        assert message in summary
        assert parse_config((out / "config.txt").read_text())[
            "model.beta0.value"] == -2000.0

    def test_eps_scan_failure_leaves_diagnostics_and_summary(
            self, tmp_path, capsys):
        # every member fails at step 1; the eps=0 member runs first
        p = tmp_path / "singular.cfg"
        p.write_text('preset = "sorption"\nmodel.beta0 = "constant"\n'
                     "model.beta0.value = -2000.0\n")
        out = tmp_path / "o"
        assert main(["eps-scan", str(p), "--out", str(out),
                     "--quiet"]) == EXIT_NUMERICAL_FAILURE
        message = ("implicit stress decay singular at step 1: dt * beta1 >= 1 "
                   "with positive beta1")
        assert (f"numerical failure in the eps=0 member: {message}"
                in capsys.readouterr().err)
        assert sorted(f.name for f in out.iterdir()) == [
            "diagnostics_eps_0.csv", "summary.txt"]
        lines = (out / "diagnostics_eps_0.csv").read_text().splitlines()
        assert lines[0].startswith("# generated ") and "(eps=0)" in lines[0]
        assert lines[1] == ",".join(CSV_COLUMNS)
        assert len(lines) == 3 and lines[2].startswith("0,")
        assert (out / "summary.txt").read_text().splitlines()[1:] == [
            "eps=0: failed at step 1, t=0.0005",
            f"eps=0: numerical failure: {message}"]

    def test_eps_scan_failure_keeps_the_finished_members(
            self, tmp_path, capsys, monkeypatch):
        # no scenario fails at eps=1e-3 alone, so that member's run is
        # made to fail after 7 of its steps
        real_run = cli.run

        def run(init, mesh, model, bd, scfg, **kwargs):
            if scfg.epsilon != 1e-3:
                return real_run(init, mesh, model, bd, scfg, **kwargs)
            short = dataclasses.replace(scfg, T_end=6 * scfg.dt)
            exc = NumericalFailure(7, 7 * scfg.dt, "stress")
            exc.records = real_run(init, mesh, model, bd, short,
                                   **kwargs).records
            raise exc
        monkeypatch.setattr(cli, "run", run)
        p = tmp_path / "short.cfg"
        p.write_text('preset = "eps-scan"\ntime.T_end = 0.02\n')
        out = tmp_path / "o"
        assert main(["eps-scan", str(p), "--out", str(out),
                     "--quiet"]) == EXIT_NUMERICAL_FAILURE
        assert ("numerical failure in the eps=0.001 member: non-finite "
                "stress at step 7" in capsys.readouterr().err)
        rows = {f.name: len(f.read_text().splitlines()) - 2
                for f in out.glob("diagnostics_eps_*.csv")}
        assert rows == {"diagnostics_eps_0.csv": 21,
                        "diagnostics_eps_0p01.csv": 21,
                        "diagnostics_eps_0p001.csv": 7}
        summary = (out / "summary.txt").read_text().splitlines()
        assert [line.split(":")[0] for line in summary[1:]] == [
            "eps=0", "eps=0.01", "eps=0.001", "eps=0.001"]
        # a finished member's line is the one a successful scan writes
        assert "sup H1(s)=" in summary[2] and " dist_to_eps0=" in summary[2]
        assert summary[3] == "eps=0.001: failed at step 7, t=0.007"

    def test_check_failure_exit_one(self, tmp_path):
        # longtime condition cannot hold with mu0 pushing the form indefinite
        p = tmp_path / "fail.cfg"
        p.write_text('model.mu0 = "constant"\nmodel.mu0.value = 5.0\n'
                     "longtime.Gamma = 1.0\ntime.T_end = 0.01\n")
        assert main(["run", str(p), "--out", str(tmp_path / "o"),
                     "--quiet"]) == EXIT_CHECK_FAILED

    def test_determinism_modulo_timestamp(self, tmp_path):
        args = ["preset", "eps-scan", "--quiet", "--dt", "0.01"]
        main(args + ["--out", str(tmp_path / "a")])
        main(args + ["--out", str(tmp_path / "b")])

        def body(p):
            lines = (p / "diagnostics.csv").read_text().splitlines()
            return [ln for ln in lines if not ln.startswith("#")]

        assert body(tmp_path / "a") == body(tmp_path / "b")

    def test_find_gamma_verb(self, tmp_path, capsys):
        p = tmp_path / "g.cfg"
        p.write_text('model.mu0 = "constant"\nmodel.mu0.value = 0.5\n'
                     'model.E0 = "constant"\nmodel.E0.value = 0.1\n'
                     "longtime.gamma_grid = [0.5, 1.0, 2.0]\n"
                     "longtime.box.s = [0.0, 1.0]\n")
        assert main(["find-gamma", str(p)]) == EXIT_OK
        assert "Gamma_0" in capsys.readouterr().out

    def test_quiet_scans_print_nothing(self, tmp_path, capsys):
        p = tmp_path / "g.cfg"
        p.write_text("longtime.gamma_grid = [0.5, 1.0, 2.0]\n")
        for verb in ("find-gamma", "check-assumptions"):
            assert main([verb, str(p), "--quiet"]) == EXIT_OK
            assert capsys.readouterr() == ("", "")

    @pytest.mark.parametrize("verb", ["check-assumptions", "find-gamma"])
    @pytest.mark.parametrize("flag", [["--dt", "1e-3"], ["--n-cells", "64"],
                                      ["--out", "o"]])
    def test_scans_take_no_run_flags(self, tmp_path, capsys, verb, flag):
        # the scans read neither time.dt nor mesh.N, and write no files
        p = tmp_path / "g.cfg"
        p.write_text("longtime.gamma_grid = [0.5, 1.0, 2.0]\n")
        with pytest.raises(SystemExit) as exc:
            main([verb, str(p)] + flag)
        assert exc.value.code == EXIT_CONFIG_ERROR
        assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err

    def test_check_assumptions_verb(self, tmp_path, capsys):
        p = tmp_path / "c.cfg"
        p.write_text('model.D0 = "tanh"\nmodel.D0.lo = 0.2\nmodel.D0.hi = 1.0\n'
                     "model.D0.delta = 0.1\nmodel.D0.center = 0.5\n")
        assert main(["check-assumptions", str(p)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "ellipticity constant" in out

    def test_check_assumptions_violation(self, tmp_path):
        p = tmp_path / "v.cfg"
        # D0 = u vanishes at u = 0 inside the default box
        p.write_text('model.D0 = "polynomial"\nmodel.D0.coeffs = [0.0, 1.0]\n')
        assert main(["check-assumptions", str(p)]) == EXIT_CHECK_FAILED

    def test_regularized_run_passes_mass_check(self, tmp_path, capsys):
        p = tmp_path / "reg.cfg"
        p.write_text('preset = "eps-scan"\nepsilon = 1e-2\n')
        assert main(["run", str(p), "--out", str(tmp_path / "o")]) == EXIT_OK
        assert ("check mass_balance: PASS - mass tracks influx over 1000 "
                "steps (net gain 0.094277357938, influx sum dt*phi 0.1)"
                in capsys.readouterr().out)

    def test_tanh_parameter_given_twice_exit_two(self, tmp_path, capsys):
        # lo and its alias D_G would leave config.txt naming a law other
        # than the one that ran
        p = tmp_path / "twice.cfg"
        p.write_text('preset = "sorption"\nmodel.D0.D_G = 0.5\n')
        assert main(["run", str(p), "--out", str(tmp_path / "o"),
                     "--quiet"]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert "'lo' and 'D_G'" in err and "'model.D0'" in err

    @pytest.mark.parametrize("verb, calls", [("run", 1), ("eps-scan", 4)])
    def test_each_scenario_builds_its_laws_once(
            self, tmp_path, monkeypatch, verb, calls):
        count = []
        build = cfgmod.build_physical

        def counted(cfg):
            count.append(1)
            return build(cfg)
        monkeypatch.setattr(cfgmod, "build_physical", counted)
        p = tmp_path / "short.cfg"
        p.write_text('preset = "eps-scan"\ntime.T_end = 0.01\n')
        main([verb, str(p), "--out", str(tmp_path / "o"), "--quiet"])
        assert len(count) == calls

    def test_eps_scan_missing_initial_file_exit_two(self, tmp_path, capsys):
        p = tmp_path / "missing.cfg"
        p.write_text('preset = "eps-scan"\ninitial.u0 = "file"\n'
                     f'initial.u0.path = "{tmp_path / "absent.csv"}"\n')
        assert main(["eps-scan", str(p), "--out", str(tmp_path / "o"),
                     "--quiet"]) == EXIT_CONFIG_ERROR
        assert "configuration error" in capsys.readouterr().err

    def test_T_end_not_whole_steps_exit_two(self, tmp_path, capsys):
        p = tmp_path / "t.cfg"
        p.write_text('preset = "eps-scan"\ntime.dt = 0.1\ntime.T_end = 0.15\n')
        assert main(["run", str(p), "--out", str(tmp_path / "o"),
                     "--quiet"]) == EXIT_CONFIG_ERROR
        assert "time.T_end" in capsys.readouterr().err
        # the --dt override bypasses parse_config and is checked too
        assert main(["preset", "eps-scan", "--dt", "0.3", "--out",
                     str(tmp_path / "o"), "--quiet"]) == EXIT_CONFIG_ERROR
        assert "time.T_end" in capsys.readouterr().err

    def test_off_grid_pulse_override_exit_two(self, tmp_path, capsys):
        # the pulse's t_off = 0.5 lies between the steps of dt = 0.3, which
        # T_end = 0.9 is a whole number of; the --dt override and the
        # eps-scan members are held to the rule a file is
        p = tmp_path / "s.cfg"
        p.write_text('preset = "eps-scan"\ntime.T_end = 0.9\n')
        for args in (["run", str(p), "--dt", "0.3"],
                     ["eps-scan", str(p), "--dt", "0.3"]):
            assert main(args + ["--out", str(tmp_path / "o"),
                                "--quiet"]) == EXIT_CONFIG_ERROR
            assert "'boundary.phi_left.t_off'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("verb", ["run", "check-assumptions", "find-gamma"])
    def test_non_smooth_coefficient_exit_one(self, tmp_path, capsys, verb):
        # a near-step beta0 makes the h and h/2 difference stencils disagree
        p = tmp_path / "rough.cfg"
        p.write_text('model.beta0 = "tanh"\nmodel.beta0.lo = 0.5\n'
                     "model.beta0.hi = 2.0\nmodel.beta0.delta = 1e-6\n"
                     "model.beta0.center = 0.5\n"
                     'model.nu0 = "tanh"\nmodel.nu0.lo = 0.1\n'
                     "model.nu0.hi = 0.2\nmodel.nu0.delta = 0.1\n"
                     "model.nu0.center = 0.5\n"
                     "longtime.Gamma = 1.0\nlongtime.box.u = [0.49999, 0.50001]\n"
                     "time.T_end = 0.01\n")
        args = [verb, str(p)] + (["--out", str(tmp_path / "o")]
                                 if verb == "run" else [])
        assert main(args + ["--quiet"]) == EXIT_CHECK_FAILED
        assert "check failed:" in capsys.readouterr().err

    # beta0 = 1e308 (1 + u) overflows on the box, so the margin is NaN
    NAN_MARGIN = ['model.beta0 = "polynomial"',
                  "model.beta0.coeffs = [1e308, 1e308]", "time.T_end = 0.01"]

    @pytest.mark.parametrize("verb, lines, message", [
        ("find-gamma", NAN_MARGIN + ["longtime.gamma_grid = [1.0, 2.0]"],
         "all Gamma candidates failed: 1 -> nan; 2 -> nan"),
        ("run", NAN_MARGIN, "quadratic form loses definiteness for "
         "Gamma=1: min eigenvalue nan at "),
        ("check-assumptions", ['model.D0 = "polynomial"',
                               "model.D0.coeffs = [1.0, 1e308, 1e308]"],
         "K_D is not finite on the box: inf at "),
        ("check-assumptions", ['model.E0 = "polynomial"',
                               "model.E0.coeffs = [1e308, 1e308]"],
         "diffusion coefficient not uniformly positive: D=nan at "),
        # 10 * 1e308 overflows in the law's derivative as it is built
        ("run", ['model.beta0 = "polynomial"',
                 "model.beta0.coeffs = [1.0" + ", 0" * 9 + ", 1e308]",
                 "time.T_end = 0.01"],
         "quadratic form loses definiteness for Gamma=1: min eigenvalue "
         "nan at "),
    ])
    def test_non_finite_set_up_value_exit_one(self, tmp_path, verb, lines,
                                              message):
        # overflowing laws, in a child process so that any numpy
        # RuntimeWarning would reach its stderr: the one line there is
        # the program's own message
        p = tmp_path / "overflow.cfg"
        p.write_text('preset = "homogenize"\n' + "\n".join(lines) + "\n")
        out = tmp_path / "o"
        args = [verb, str(p)] + (["--out", str(out)] if verb == "run" else [])
        proc = subprocess.run(
            [sys.executable, "-m", "viscodiff.cli", *args],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert proc.returncode == EXIT_CHECK_FAILED, proc.stderr
        [line] = proc.stderr.splitlines()
        assert line.startswith(f"check failed: {message}")
        assert proc.stdout == "" and not out.exists()

    def test_non_finite_input_exit_two(self, tmp_path, capsys):
        p = tmp_path / "nan.cfg"
        p.write_text('preset = "eps-scan"\nepsilon = nan\n')
        cases = [(["run", str(p)], "epsilon"),
                 (["preset", "eps-scan", "--dt", "nan"], "time.dt"),
                 (["preset", "eps-scan", "--dt", "inf"], "time.dt"),
                 (["preset", "eps-scan", "--dt", "-1"], "time.dt"),
                 (["preset", "eps-scan", "--n-cells", "1"], "mesh.N")]
        for args, key in cases:
            assert main(args + ["--out", str(tmp_path / "o"),
                                "--quiet"]) == EXIT_CONFIG_ERROR, args
            err = capsys.readouterr().err
            assert err.startswith("configuration error:") and key in err

    def test_non_finite_nu0_integral_exit_two(self, tmp_path, capsys):
        # int_0^10 nu0 overflows, so the transformed initial stress is -inf
        p = tmp_path / "nu0.cfg"
        p.write_text('preset = "sorption"\nmodel.nu0 = "polynomial"\n'
                     "model.nu0.coeffs = [1e308, 1e308]\n"
                     "initial.u0.value = 10.0\n")
        with np.errstate(over="ignore"):
            code = main(["run", str(p), "--out", str(tmp_path / "o"), "--quiet"])
        assert code == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and "not finite" in err

    def test_large_nu0_integral_passes_round_trip(self, tmp_path):
        # int_0^1 nu0 = 1e5 against sigma0 = 0.1: the round trip of the
        # change of variables is off by round-off of 1e5, not of 0.1
        p = tmp_path / "nu0.cfg"
        p.write_text("model.nu0.value = 1e5\ninitial.u0.value = 1.0\n"
                     'initial.sigma0 = "constant"\ninitial.sigma0.value = 0.1\n'
                     "time.T_end = 0.01\n")
        assert main(["run", str(p), "--out", str(tmp_path / "o"),
                     "--quiet"]) == EXIT_OK

    @pytest.mark.parametrize("line", [
        "longtime.box.u = [1.0, 0.0]", "longtime.Gamma = -1.0",
        "longtime.gamma_grid = [-1.0, 2.0]", "longtime.gamma_grid = []",
        "longtime.n_samples = 0", "longtime.box.x = [0.1, 1.0]",
        "longtime.box.x = [0.0, 0.5]"])
    def test_bad_longtime_value_exit_two(self, tmp_path, capsys, line):
        p = tmp_path / "lt.cfg"
        p.write_text(f"time.T_end = 0.01\n{line}\n")
        assert main(["run", str(p), "--out", str(tmp_path / "o"),
                     "--quiet"]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.startswith("configuration error:")
        assert "(line 2)" in err and repr(line.split(" =")[0]) in err

    @pytest.mark.parametrize("lines, key", [
        (['check.analytic = "foo"'], "check.analytic"),
        (['preset = "sorption"', 'check.analytic = "heat-cosine"'],
         "check.analytic"),
        (['preset = "fickian"', "check.analytic_tol = -1.0"],
         "check.analytic_tol"),
        (["time.T_end = 0.01", "check.lyapunov = true"], "check.lyapunov"),
        # the decaying cosine is no solution with influx or stress coupling
        (['preset = "fickian"', 'boundary.phi_left = "constant"',
          "boundary.phi_left.value = 0.5", 'check.analytic = "heat-cosine"'],
         "check.analytic"),
        (['preset = "fickian"', "model.E0.value = 0.5", "model.mu0.value = 3.0",
          'initial.sigma0 = "cosine"', "initial.sigma0.amplitude = 0.1",
          'check.analytic = "heat-cosine"'], "check.analytic"),
        # a pulse that ends before it starts would inject nothing
        (['preset = "sorption"', "boundary.phi_left.t_on = 2.0",
          "boundary.phi_left.t_off = 1.0"], "boundary.phi_left.t_off"),
        # the Lyapunov functional need not decay with forcing or influx
        (['preset = "homogenize"', "model.M0.value = 3.0",
          "check.lyapunov = true"], "check.lyapunov"),
        (['preset = "homogenize"', 'boundary.phi_left = "constant"',
          "boundary.phi_left.value = 0.5", "check.lyapunov = true"],
         "check.lyapunov"),
        # the stress update is always the implicit decay: the key that
        # chose it is unknown, also in a config.txt that still sets it
        (['preset = "homogenize"', 'stress_scheme = "implicit-decay"'],
         "stress_scheme"),
        # no step of dt = 5e-4 lands on 1.00025, so the pulse would end
        # between two steps
        (['preset = "sorption"', "boundary.phi_left.t_off = 1.00025"],
         "boundary.phi_left.t_off")])
    def test_bad_check_input_exit_two_before_any_step(
            self, tmp_path, capsys, monkeypatch, lines, key):
        def no_run(*args, **kwargs):
            raise AssertionError("a step ran")
        monkeypatch.setattr("viscodiff.cli.run", no_run)
        p = tmp_path / "bad.cfg"
        p.write_text("\n".join(lines) + "\n")
        out = tmp_path / "o"
        assert main(["run", str(p), "--out", str(out),
                     "--quiet"]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.startswith("configuration error:")
        assert f"(line {len(lines)})" in err and repr(key) in err
        assert not out.exists()

    @pytest.mark.parametrize("lines, message", [
        (['preset = "fickian"'],
         'check.analytic = "heat-cosine" needs epsilon = 0.0, got 0.01')],
        ids=["heat-cosine"])
    def test_eps_scan_checks_every_member_before_any_runs(
            self, tmp_path, capsys, monkeypatch, lines, message):
        # the epsilon = 0 member passes on its own; the first epsilon > 0
        # member does not, and none of them may run before that is known
        def no_run(*args, **kwargs):
            raise AssertionError("a member ran")
        monkeypatch.setattr("viscodiff.cli.run", no_run)
        p = tmp_path / "scan.cfg"
        p.write_text("\n".join(lines) + "\n")
        out = tmp_path / "o"
        assert main(["eps-scan", str(p), "--out", str(out),
                     "--quiet"]) == EXIT_CONFIG_ERROR
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_zero_volume_gamma_scan_exit_two(self, tmp_path, capsys):
        flat = tmp_path / "flat.cfg"
        flat.write_text("time.T_end = 0.01\nlongtime.box.u = [0.5, 0.5]\n"
                        "longtime.gamma_grid = [1.0]\n")
        instant = tmp_path / "instant.cfg"
        instant.write_text("time.T_end = 0.0\n")
        for args in (["run", str(flat), "--out", str(tmp_path / "o")],
                     ["find-gamma", str(instant)]):
            assert main(args + ["--quiet"]) == EXIT_CONFIG_ERROR, args
            assert "longtime.box" in capsys.readouterr().err

    def test_summary_contains_signature_line(self, tmp_path):
        out = tmp_path / "o"
        main(["preset", "sorption", "--out", str(out), "--quiet",
              "--dt", "0.002", "--n-cells", "64"])
        text = (out / "summary.txt").read_text()
        assert "signature detected:" in text
        # the overshoot numbers are the u_max column of diagnostics.csv
        rows = (out / "diagnostics.csv").read_text().splitlines()[1:]
        col = rows[0].split(",").index("u_max")
        u_max = [float(r.split(",")[col]) for r in rows[1:]]
        assert (f"signature detail: peak u {max(u_max):.6g} vs terminal max "
                f"{u_max[-1]:.6g} (excess ") in text


class TestFrontTracker:
    """The front signature's tracker, fed synthetic states of a mesh of
    100 cells on [0, 1] with threshold 0.5."""

    MESH = build_mesh(1.0, 100)

    @classmethod
    def _ramp(cls, t, xf):
        """u falling linearly through 0.5 at xf, clipped to [0, 1] 0.1
        either side of it, so the cell of the crossing is on the ramp."""
        u = np.clip(0.5 + 5.0 * (xf - cls.MESH.nodes), 0.0, 1.0)
        return State(t, u, np.zeros_like(u))

    def _tracked(self, states):
        tracker = cli._FrontTracker(self.MESH, 0.5)
        for state in states:
            tracker(state)
        return tracker

    def test_linear_front_positions_and_fit(self):
        times = 0.1 * np.arange(1, 16)
        fronts = 0.12 + 0.5 * times
        tracker = self._tracked(map(self._ramp, times, fronts))
        assert tracker.times == times.tolist()
        assert np.allclose(tracker.positions, fronts, rtol=0.0, atol=1e-14)
        found, desc = tracker.fit()
        assert found is True
        assert desc.startswith("front fit residuals: linear ")
        assert desc.endswith(" over 15 samples")

    def test_sqrt_t_front_is_not_linear(self):
        times = 0.05 * np.arange(1, 16)
        fronts = 0.1 + 0.7 * np.sqrt(times)
        tracker = self._tracked(map(self._ramp, times, fronts))
        assert tracker.fit()[0] is False

    def test_skipped_states(self):
        x = self.MESH.nodes
        skipped = [
            State(0.1, np.ones_like(x), np.zeros_like(x)),  # all above
            State(0.2, np.zeros_like(x), np.zeros_like(x)),  # all below
            State(0.3, x.copy(), np.zeros_like(x)),  # rising: no front
            self._ramp(0.4, 0.0),  # the crossing at x = 0
            self._ramp(0.5, 1.0),  # u = 0.5 at x = L: all above
            self._ramp(0.0, 0.5),  # t = 0
        ]
        tracker = self._tracked(skipped)
        assert tracker.times == [] and tracker.positions == []

    def test_fewer_than_ten_samples_is_untrackable(self):
        times = 0.1 * np.arange(1, 10)
        tracker = self._tracked(map(self._ramp, times, 0.2 + 0.5 * times))
        assert tracker.fit() == (None, "front tracked at only 9 times")


def test_readme_documents_every_key():
    # a key that validate accepts but the README does not list is a key
    # a user cannot find
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = re.search(r"## Configuration format\n(.*?)\n## ", readme,
                        re.S).group(1)
    missing = [k for k in (*_RULES, *_GROUP_HEADS) if f"`{k}`" not in section]
    assert not missing
    # and a key the table lists that validate does not accept is a key
    # that exits 2 although the README offers it
    rows = re.findall(r"^\| (`.*?) \|", section, re.M)
    listed = [k for row in rows for k in re.findall(r"`([^`]+)`", row)]
    assert listed and not [k for k in listed if cfgmod._rule(k) is None]


# case -> (verb, scenario file or None for the built-in one, prefix of
# the SHA-256 of the exit code, stdout, stderr, and each file written, in
# name order, with its name and without its "# generated" line).  The
# short runs reach every summary line kind: each check, the longtime
# line, "stays below 1e-4" and each signature; the last two cases fail at
# step 1 and exit 3.
CLI_OUTPUT_SHA256 = {
    "fickian": ("run", 'preset = "fickian"\ntime.T_end = 0.01\n',
                "1b484274"),
    "homogenize": ("run", 'preset = "homogenize"\ntime.T_end = 3.0\n',
                   "cb3a3696"),
    "sorption": ("run", 'preset = "sorption"\ntime.T_end = 1.5\n',
                 "f88e8d89"),
    "desorption": ("run", 'preset = "desorption"\ntime.T_end = 0.5\n',
                   "ad1196cf"),
    "case2-front": ("run", 'preset = "case2-front"\ntime.T_end = 0.5\n',
                    "59589284"),
    "eps-scan-preset": ("run", 'preset = "eps-scan"\ntime.T_end = 0.1\n',
                        "61f70fb2"),
    "eps-scan": ("eps-scan", None, "6f4dfd4b"),
    "run-exit-3": ("run", 'preset = "fickian"\n'
                   "model.beta0.value = -20000.0\n", "824ce316"),
    "eps-scan-exit-3": ("eps-scan", 'preset = "eps-scan"\n'
                        "model.beta0.beta_G = -1500.0\n"
                        "model.beta0.beta_R = -1500.0\n", "ffb471e2"),
}


@pytest.mark.parametrize("case", list(CLI_OUTPUT_SHA256))
def test_cli_outputs_keep_their_bytes(case, tmp_path, capsys, monkeypatch):
    verb, scenario, prefix = CLI_OUTPUT_SHA256[case]
    monkeypatch.chdir(tmp_path)
    args = [verb]
    if scenario is not None:
        Path("scenario.cfg").write_text(scenario)
        args.append("scenario.cfg")
    code = main(args + ["--out", "o"])
    out, err = capsys.readouterr()
    digest = hashlib.sha256(f"{code}\n{out}\0{err}\0".encode())
    for path in sorted(Path("o").iterdir()):
        lines = path.read_bytes().splitlines(keepends=True)
        digest.update(path.name.encode() + b"\0" + b"".join(
            ln for ln in lines if not ln.startswith(b"# generated")) + b"\0")
    assert digest.hexdigest().startswith(prefix), digest.hexdigest()
