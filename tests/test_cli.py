import json
import math

import numpy as np
import pytest

from optospring.cli import main, read_table
from optospring.config import (
    build_run_config,
    env_name,
    load_run_config,
    parse_config_text,
)
from optospring.errors import ConfigError


def run(args, tmp_path, config_text=None, env=None, monkeypatch=None):
    argv = list(args)
    if config_text is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config_text)
        argv += ["--config", str(cfg)]
    if env and monkeypatch:
        for k, v in env.items():
            monkeypatch.setenv(k, v)
    return main(argv)


class TestConfig:
    def test_defaults_build(self):
        cfg = build_run_config()
        assert cfg.units == "normalized"
        assert cfg.oscillator.mass == 1.0
        assert len(cfg.points) == 1

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("oscillator.masss = 2.0")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("units = si\nunits = normalized")

    def test_point_lists_must_pair(self):
        with pytest.raises(ConfigError, match="same length"):
            build_run_config({"points.detuning": "0.0, 0.1", "points.coupling": "1.0"})

    def test_empty_points_rejected(self):
        with pytest.raises(ConfigError, match="empty"):
            build_run_config({"points.detuning": "", "points.coupling": ""})

    def test_env_override(self, monkeypatch, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("oscillator.mass = 2.0\n")
        monkeypatch.setenv(env_name("oscillator.mass"), "3.0")
        cfg = load_run_config(str(p))
        assert cfg.oscillator.mass == 3.0

    def test_flag_beats_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv(env_name("output.format"), "json")
        cfg = load_run_config(None, {"output.format": "csv"})
        assert cfg.out_format == "csv"

    def test_invalid_domain_value(self):
        with pytest.raises(ConfigError):
            build_run_config({"cavity.gamma": "2.0"})

    def test_si_units(self):
        cfg = build_run_config({"units": "si"})
        assert cfg.constants.hbar == pytest.approx(1.054571817e-34)

    def test_effective_config_round_trips(self):
        cfg = build_run_config({"cavity.gamma": "0.02", "points.detuning": "-0.04"})
        reparsed = build_run_config(parse_config_text("\n".join(cfg.param_lines())))
        assert reparsed.cavity == cfg.cavity
        assert reparsed.oscillator == cfg.oscillator
        assert reparsed.points == cfg.points
        assert reparsed.model == cfg.model


class TestSpectrumCommand:
    CFG = (
        "oscillator.damping = 0.001\n"
        "points.detuning = 0.0, -0.05\n"
        "points.coupling = 0.7071067811865476, 0.7071067811865476\n"
        "grid.lo = 0.1\ngrid.hi = 10\ngrid.points_per_decade = 50\n"
    )

    def test_writes_parseable_blocks(self, tmp_path):
        out = tmp_path / "spec.csv"
        assert run(["spectrum", "--out", str(out)], tmp_path, self.CFG) == 0
        params, columns, rows = read_table(str(out))
        assert columns == ["omega_norm", "s_sig", "s_sql", "ratio"]
        assert sum(p.startswith("point ") for p in params) == 2
        assert len(rows) == 2 * 101

    def test_ratio_column_consistent(self, tmp_path):
        out = tmp_path / "spec.csv"
        run(["spectrum", "--out", str(out)], tmp_path, self.CFG)
        _, _, rows = read_table(str(out))
        for _, s, q, ratio in rows:
            assert ratio == pytest.approx(s / q, rel=1e-12)

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["spectrum", "--out", str(a)], tmp_path, self.CFG)
        run(["spectrum", "--out", str(b)], tmp_path, self.CFG)
        assert a.read_bytes() == b.read_bytes()

    def test_json_mirror(self, tmp_path):
        out = tmp_path / "spec.json"
        run(["spectrum", "--out", str(out), "--format", "json"], tmp_path, self.CFG)
        doc = json.loads(out.read_text())
        assert doc["schema"] == "optospring.spectrum.v1"
        assert doc["columns"] == ["omega_norm", "s_sig", "s_sql", "ratio"]
        assert len(doc["blocks"]) == 2

    def test_quasistatic_model(self, tmp_path):
        out = tmp_path / "spec.csv"
        cfg = self.CFG + "spectrum.model = quasistatic\n"
        assert run(["spectrum", "--out", str(out)], tmp_path, cfg) == 0
        _, _, rows = read_table(str(out))
        assert len(rows) == 2 * 101

    def test_empty_points_exit_2(self, tmp_path):
        cfg = "points.detuning =\npoints.coupling =\n"
        assert run(["spectrum"], tmp_path, cfg) == 2

    def test_zero_coupling_exit_2(self, tmp_path):
        cfg = "points.detuning = 0.0\npoints.coupling = 0.0\n"
        assert run(["spectrum"], tmp_path, cfg) == 2

    def test_singular_point_exit_3(self, tmp_path, capsys):
        # undamped oscillator, grid starting exactly on resonance
        cfg = (
            "oscillator.damping = 0.0\n"
            "spectrum.model = quasistatic\n"
            "grid.units = rad_s\n"
            "grid.lo = 1.0\ngrid.hi = 10\ngrid.points_per_decade = 10\n"
        )
        out = tmp_path / "x.csv"
        assert run(["spectrum", "--out", str(out)], tmp_path, cfg) == 3
        assert "omega" in capsys.readouterr().err

    def test_unknown_key_exit_2(self, tmp_path):
        assert run(["spectrum"], tmp_path, "nonsense.key = 1\n") == 2


class TestOptimizeCommand:
    def test_xi_mode_recovers_sql(self, tmp_path):
        out = tmp_path / "opt.json"
        cfg = "optimize.mode = xi\noptimize.omega = 0.5\noptimize.detuning = 0.0\n"
        assert run(["optimize", "--out", str(out)], tmp_path, cfg) == 0
        doc = json.loads(out.read_text())
        assert doc["coupling2"] == pytest.approx(doc["closed_form"]["coupling2"], rel=1e-3)
        assert doc["ratio_to_sql"] == pytest.approx(1.0, rel=1e-9)
        assert doc["stability"]["static_ok"] is True

    def test_detuning_mode_on_resonance(self, tmp_path):
        out = tmp_path / "opt.json"
        cfg = (
            "oscillator.damping = 0.1\n"
            "optimize.mode = detuning\noptimize.omega = 1.0\n"
        )
        assert run(["optimize", "--out", str(out)], tmp_path, cfg) == 0
        doc = json.loads(out.read_text())
        assert abs(doc["detuning"]) < 1e-4
        assert doc["level"] == pytest.approx(doc["closed_form"]["level"], rel=1e-4)

    def test_uql_sweep_traces_dissipation_floor(self, tmp_path):
        # default sweep covers ten frequencies around the resonance
        out = tmp_path / "sweep.json"
        cfg = "oscillator.damping = 0.1\noptimize.mode = uql-sweep\n"
        assert run(["optimize", "--out", str(out)], tmp_path, cfg) == 0
        doc = json.loads(out.read_text())
        assert len(doc["sweep"]) == 10
        for row in doc["sweep"]:
            assert row["level"] == pytest.approx(row["uql_level"], rel=1e-4)

    def test_flags_override_config(self, tmp_path):
        out = tmp_path / "opt.json"
        cfg = "optimize.mode = detuning\noptimize.omega = 1.0\n"
        assert (
            run(
                ["optimize", "--out", str(out), "--mode", "xi", "--omega", "0.25",
                 "--detuning", "0.0"],
                tmp_path,
                cfg,
            )
            == 0
        )
        doc = json.loads(out.read_text())
        assert doc["mode"] == "xi"
        assert doc["omega"] == 0.25


class TestStabilityCommand:
    def test_grid_contents(self, tmp_path):
        out = tmp_path / "stab.csv"
        cfg = "stability.xi2 = 0.01:100:31\nstability.psi = -12:2:29\n"
        assert run(["stability", "--out", str(out)], tmp_path, cfg) == 0
        params, columns, rows = read_table(str(out))
        assert columns == [
            "xi2_norm", "psi_norm", "static_ok", "dynamic_ok",
            "static_margin", "dynamic_margin",
        ]
        a = np.array(rows)
        assert a.shape == (31 * 29, 6)
        zero_row = a[a[:, 1] == 0.0]
        assert zero_row.size and zero_row[:, 2].all() and zero_row[:, 3].all()
        unstable = a[a[:, 2] == 0.0]
        assert unstable.size and (unstable[:, 1] < 0).all()

    def test_invalid_bounds_exit_2(self, tmp_path):
        assert run(["stability"], tmp_path, "stability.xi2 = 5:1:10\n") == 2

    def test_window_outside_principal_interval_exit_2(self, tmp_path):
        cfg = "stability.psi = -400:0:11\n"
        assert run(["stability"], tmp_path, cfg) == 2


class TestFigureCommand:
    def test_unknown_figure_exit_2(self, tmp_path):
        assert run(["figure", "fig9", "--out", str(tmp_path)], tmp_path) == 2

    def test_si_units_rejected(self, tmp_path):
        assert run(["figure", "fig2", "--si", "--out", str(tmp_path)], tmp_path) == 2

    def test_fig2_curves_and_minimum(self, tmp_path):
        out = tmp_path / "figs"
        assert run(["figure", "fig2", "--out", str(out)], tmp_path) == 0
        manifest = json.loads((out / "fig2_manifest.json").read_text())
        assert sorted(manifest["curves"]) == ["a", "b", "c", "d"]
        assert manifest["curves"]["d"]["detuning_over_gamma"] == -10.0
        _, columns, rows = read_table(str(out / "fig2_curve_d.csv"))
        a = np.array(rows)
        i = int(np.argmin(a[:, 3]))
        assert a[i, 3] == pytest.approx(0.09901951359278449, rel=1e-3)
        assert a[i, 0] == pytest.approx(0.19611613513818404, rel=2e-2)
        # dashed (unstable) region exists only at large coupling
        assert (a[a[:, 4] == 0.0][:, 0] > a[i, 0]).all()

    def test_fig2_curve_a_touches_sql(self, tmp_path):
        out = tmp_path / "figs"
        run(["figure", "fig2", "--out", str(out)], tmp_path)
        _, _, rows = read_table(str(out / "fig2_curve_a.csv"))
        a = np.array(rows)
        i = int(np.argmin(a[:, 3]))
        assert a[i, 3] == pytest.approx(1.0, rel=1e-6)
        assert a[i, 0] == pytest.approx(1.0, rel=1e-2)

    def test_fig3_curves(self, tmp_path):
        out = tmp_path / "figs"
        assert run(["figure", "fig3", "--out", str(out)], tmp_path) == 0
        manifest = json.loads((out / "fig3_manifest.json").read_text())
        assert sorted(manifest["curves"]) == ["a", "b", "c", "d"]
        _, _, rows_a = read_table(str(out / "fig3_curve_a.csv"))
        a = np.array(rows_a)
        # resonant curve touches the SQL exactly at the balance frequency
        i = int(np.argmin(a[:, 3]))
        assert a[i, 3] == pytest.approx(1.0, rel=1e-6)
        assert a[i, 0] == pytest.approx(1.0, rel=1e-9)
        _, _, rows_d = read_table(str(out / "fig3_curve_d.csv"))
        d = np.array(rows_d)
        j = int(np.argmin(d[:, 3]))
        assert d[j, 0] == pytest.approx(2.2581008643532257, rel=1e-2)
        assert d[j, 3] == pytest.approx(0.09901951359278449, rel=1e-3)

    def test_fig4_dual_dips_on_detuned_curves(self, tmp_path):
        out = tmp_path / "figs"
        assert run(["figure", "fig4", "--out", str(out)], tmp_path) == 0
        manifest = json.loads((out / "fig4_manifest.json").read_text())
        assert manifest["curves"]["f"]["bandwidth_over_omega_sql"] == pytest.approx(1 / 3)
        # every positively detuned curve shows two minima
        for letter in "bcd":
            _, _, rows = read_table(str(out / f"fig4_curve_{letter}.csv"))
            s = np.array(rows)[:, 1]
            mins = [
                i for i in range(1, len(s) - 1) if s[i] < s[i - 1] and s[i] < s[i + 1]
            ]
            assert len(mins) == 2, f"curve {letter}"
        d = np.array(read_table(str(out / "fig4_curve_d.csv"))[2])
        s = d[:, 1]
        mins = [i for i in range(1, len(s) - 1) if s[i] < s[i - 1] and s[i] < s[i + 1]]
        assert d[mins[0], 0] == pytest.approx(math.sqrt(5.0), rel=0.05)
        assert d[mins[1], 0] == pytest.approx(2.0 * math.sqrt(101.0), rel=0.02)

    def test_custom_detunings(self, tmp_path):
        out = tmp_path / "figs"
        assert (
            run(["figure", "fig3", "--detunings", "0,4", "--out", str(out)], tmp_path)
            == 0
        )
        manifest = json.loads((out / "fig3_manifest.json").read_text())
        assert sorted(manifest["curves"]) == ["a", "b"]
        assert manifest["curves"]["b"]["detuning_over_gamma"] == 4.0

    def test_manifest_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "f1", tmp_path / "f2"
        run(["figure", "fig2", "--out", str(out1)], tmp_path)
        run(["figure", "fig2", "--out", str(out2)], tmp_path)
        assert (out1 / "fig2_manifest.json").read_bytes() == (
            out2 / "fig2_manifest.json"
        ).read_bytes()
        assert (out1 / "fig2_curve_d.csv").read_bytes() == (
            out2 / "fig2_curve_d.csv"
        ).read_bytes()


class TestGridFlag:
    # 0.1..10 at 5 points per decade: 2 decades -> 11 points
    GOOD = "0.1:10:5"
    BAD = ("10:1:5", "1:1:5", "0:1:5", "-1:1:5", "1:10:0", "1:inf:5", "1:10", "a:b:c")

    def test_spectrum_uses_grid(self, tmp_path):
        out = tmp_path / "spec.csv"
        assert run(["spectrum", "--grid", self.GOOD, "--out", str(out)], tmp_path) == 0
        params, _, rows = read_table(str(out))
        assert len(rows) == 11
        assert rows[0][0] == pytest.approx(0.1) and rows[-1][0] == pytest.approx(10.0)
        assert "grid.points_per_decade = 5" in params

    def test_figure_uses_grid(self, tmp_path):
        out = tmp_path / "figs"
        assert run(["figure", "fig3", "--grid", self.GOOD, "--out", str(out)], tmp_path) == 0
        _, _, rows = read_table(str(out / "fig3_curve_b.csv"))
        assert len(rows) == 11
        assert rows[0][0] == pytest.approx(0.1) and rows[-1][0] == pytest.approx(10.0)

    @pytest.mark.parametrize("spec", BAD)
    @pytest.mark.parametrize("command", (["spectrum"], ["figure", "fig3"]))
    def test_malformed_grid_exit_2(self, tmp_path, capsys, command, spec):
        out = tmp_path / "out"
        assert run(command + [f"--grid={spec}", "--out", str(out)], tmp_path) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()
