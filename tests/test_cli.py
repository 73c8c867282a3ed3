import contextlib
import errno
import functools
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from optospring import WorkingPoint, stability
from optospring import cli as cli_module
from optospring import floattext
from optospring import optimize as opt
from optospring.cli import main, read_table, write_datasets
from optospring.config import (
    apply_env_overrides,
    build_run_config,
    env_name,
    load_run_config,
    parse_config_text,
)
from optospring.errors import ConfigError, SingularPointError


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


def assert_csv_equals_json(csv_path, json_path):
    """The JSON mirror holds the same values as the CSV, block for block."""
    _, columns, rows = read_table(str(csv_path))
    doc = json.loads(json_path.read_text())
    assert doc["columns"] == columns
    mirrored = [row for block in doc["blocks"] for row in block["rows"]]
    np.testing.assert_array_equal(np.array(mirrored, dtype=float), np.array(rows))


def run_twice(args, tmp_path, config_text=None):
    """Run a command into two output locations, in both formats; return them."""
    outs = []
    for fmt in ("csv", "json"):
        for copy in ("1", "2"):
            out = tmp_path / f"{fmt}{copy}"
            assert run([*args, "--format", fmt, "--out", str(out)], tmp_path, config_text) == 0
            outs.append(out)
    return outs


class TestConfig:
    def test_defaults_build(self):
        cfg = build_run_config()
        assert cfg.units == "normalized"
        assert cfg.oscillator.mass == 1.0
        assert len(cfg.points) == 1

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("oscillator.masss = 2.0")

    def test_wavevector_key_is_unknown(self, tmp_path, capsys):
        # no output depends on the wavevector, so the config has no key for it
        out = str(tmp_path / "s.csv")
        assert run(["spectrum", "--out", out], tmp_path, "cavity.wavevector = 1.0\n") == 2
        assert "unknown key 'cavity.wavevector'" in capsys.readouterr().err

    def test_unknown_key_in_values_or_overrides_rejected(self):
        for values, overrides in (({"foo": "1"}, None), (None, {"foo": "1"})):
            with pytest.raises(ConfigError, match="unknown key 'foo'"):
                build_run_config(values, overrides)

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

    def test_env_values_read_only_for_prefixed_names(self):
        class Environ(dict):
            def __getitem__(self, name):
                read.append(name)
                return super().__getitem__(name)

        read = []
        environ = Environ({"HOME": "/h", env_name("units"): "si", "PATH": "/p"})
        assert apply_env_overrides({"units": "normalized"}, environ) == {"units": "si"}
        assert read == [env_name("units")]

    def test_flag_beats_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv(env_name("output.format"), "json")
        cfg = load_run_config(None, {"output.format": "csv"})
        assert cfg.output_format == "csv"

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
        csv1, csv2, json1, json2 = run_twice(["spectrum"], tmp_path, self.CFG)
        assert csv1.read_bytes() == csv2.read_bytes()
        assert json1.read_bytes() == json2.read_bytes()
        assert_csv_equals_json(csv1, json1)

    def test_json_mirror(self, tmp_path):
        out = tmp_path / "spec.json"
        run(["spectrum", "--out", str(out), "--format", "json"], tmp_path, self.CFG)
        doc = json.loads(out.read_text())
        assert doc["schema"] == "optospring.spectrum.v1"
        assert doc["columns"] == ["omega_norm", "s_sig", "s_sql", "ratio"]
        assert len(doc["blocks"]) == 2

    def test_quasistatic_model(self, tmp_path):
        out = tmp_path / "spec.csv"
        cfg = self.CFG + "cavity.round_trip = 0.0\n"
        assert run(["spectrum", "--out", str(out)], tmp_path, cfg) == 0
        _, _, rows = read_table(str(out))
        assert len(rows) == 2 * 101

    def test_one_point_grid(self, tmp_path):
        # a range under half a grid step gives one frequency, and one row
        out = tmp_path / "spec.csv"
        assert run(["spectrum", "--grid", "0.5:0.50001:3", "--out", str(out)], tmp_path) == 0
        text = out.read_text()
        assert "# grid.hi = 0.50001\n# grid.lo = 0.5\n# grid.points_per_decade = 3\n" in text
        assert text.endswith(
            "omega_norm,s_sig,s_sql,ratio\n"
            "# point detuning=0.0 coupling=0.7071067811865476 omega_sql=1.0\n"
            "0.5,1.3879218142916068,1.3333330370371357,1.040941592038982\n"
        )

    def test_grid_finer_than_floats_exit_2(self, tmp_path, capsys):
        # 11 points between two adjacent floats repeat a frequency: no strictly increasing grid
        out = tmp_path / "spec.csv"
        grid = "1:1.0000000000000002:100000000000000000"
        assert run(["spectrum", "--grid", grid, "--out", str(out)], tmp_path) == 2
        err = capsys.readouterr().err
        assert err.startswith("optospring: config error: grid.points_per_decade: ")
        assert err.count("\n") == 1 and not out.exists()

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
            "cavity.round_trip = 0.0\n"
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

    def test_detuning_mode_on_resonance(self, tmp_path, capsys):
        out = tmp_path / "opt.json"
        cfg = (
            "oscillator.damping = 0.1\n"
            "optimize.mode = detuning\noptimize.omega = 1.0\n"
        )
        # a low-Q oscillator (damping/resonance_freq = 0.1) gets an exact stability report
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["optimize", "--out", str(out)], tmp_path, cfg) == 0
        assert capsys.readouterr().err == ""
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

    def test_detuning_mode_checks_uql_before_searching(self, tmp_path, monkeypatch):
        # Im chi = 0 at omega = 0: no ultimate limit, so no search is run
        calls = []
        search = opt.minimize_over_detuning
        monkeypatch.setattr(
            opt, "minimize_over_detuning", lambda *a, **k: calls.append(a) or search(*a, **k)
        )
        args = ["optimize", "--mode", "detuning", "--omega", "0", "--out", str(tmp_path / "o")]
        assert run(args, tmp_path) == 2
        assert calls == []

    @pytest.mark.parametrize("mode", ["xi", "detuning"])
    def test_report_keeps_constraint_active(self, tmp_path, mode):
        # the benchmark reads this key; no search is constrained, so it is false.
        # The stability dict carries the two verdicts and the two margins, nothing more
        out = tmp_path / "opt.json"
        assert run(["optimize", "--mode", mode, "--out", str(out)], tmp_path) == 0
        report = json.loads(out.read_text())
        assert report["constraint_active"] is False
        assert set(report["stability"]) == {
            "static_ok", "dynamic_ok", "static_margin", "dynamic_margin"
        }

    @pytest.mark.parametrize("mode", ["xi", "detuning", "uql-sweep"])
    def test_non_convergence_exit_4(self, tmp_path, capsys, monkeypatch, mode):
        one_step = functools.partial(opt.SearchSpec, max_iter=1)
        monkeypatch.setattr("optospring.optimize.SearchSpec", one_step)
        out = tmp_path / "opt.json"
        assert run(["optimize", "--mode", mode, "--out", str(out)], tmp_path) == 4
        err = capsys.readouterr().err
        assert err.startswith("optospring: non-convergence: ")
        assert err.count("\n") == 1
        assert not out.exists()


class TestOptimizeSearchPinned:
    """The seed scan and Brent polish sequence: its evaluation count and optimum."""

    @pytest.mark.parametrize(
        "args, iterations, expected",
        [
            (
                ["--mode", "xi"],
                68,
                {"coupling2": 0.37500008590861494, "level": 1.3333330370371355},
            ),
            (
                ["--mode", "detuning"],
                6256,
                {
                    "detuning": -3.141591653589793,
                    "coupling2": 0.0023872770734342233,
                    "level": 0.004290631295104866,
                },
            ),
            (
                ["--mode", "xi", "--omega", "0.3", "--detuning", "-0.05"],
                68,
                {"coupling2": 0.1689827662499238, "level": 0.21162915269804525},
            ),
            (  # the optimum lies beyond the coupling range: the end seed wins
                ["--mode", "xi", "--si"],
                91,
                {"coupling2": 999999.9999999995, "level": 2.500000000000001e-07},
            ),
        ],
        ids=["xi-default", "detuning-default", "xi-detuned", "xi-seed-at-bound"],
    )
    def test_iterations_and_optimum(self, tmp_path, args, iterations, expected):
        out = tmp_path / "opt.json"
        assert run(["optimize", *args, "--out", str(out)], tmp_path) == 0
        doc = json.loads(out.read_text())
        assert doc["iterations"] == iterations
        for key, value in expected.items():
            assert doc[key] == pytest.approx(value, rel=1e-12)

    PSI_END = 3.141591653589793  # the detuning search range ends at +-(pi - 1e-6)
    UQL_SWEEP = [  # omega, level, uql_level, detuning, coupling2 of the default sweep
        (0.3, 0.0035072564318120543, 0.00036227504817684534, -PSI_END, 0.0028965623202825497),
        (0.38746489950446517, 0.003764562262924861, 0.0005364463623712724, -PSI_END,
         0.00270516957740368),
        (0.5004301611600176, 0.004293228391066508, 0.000890675059726425, -PSI_END,
         0.0023859072688693626),
        (0.6463304070095651, 0.005632979747300829, 0.0019064464401748048, -PSI_END,
         0.0018533457721986732),
        (0.8347678206621373, 0.012463714964761417, 0.009082615202824449, -PSI_END,
         0.0009649812030770388),
        (1.0781440991413882, 0.040880290548986224, 0.04088029054885555, 3.012486016885004,
         0.0005390720317951509),
        (1.3924766500838335, 0.0035738178712895123, 0.001579297334926229, PSI_END,
         0.0029888455496312506),
        (1.798452750956823, 0.0014473239105509174, 0.0003602171208951676, PSI_END,
         0.007112279406160383),
        (2.322791048043381, 0.0007291786405386932, 0.00012023238564845719, PSI_END,
         0.013990582739938183),
        (3.0, 0.00039926400706879583, 4.687499340820405e-05, PSI_END, 0.025464284564468052),
    ]

    def test_uql_sweep_rows(self, tmp_path):
        out = tmp_path / "opt.json"
        assert run(["optimize", "--mode", "uql-sweep", "--out", str(out)], tmp_path) == 0
        rows = json.loads(out.read_text())["sweep"]
        assert [row["omega"] for row in rows] == [r[0] for r in self.UQL_SWEEP]
        for row, expected in zip(rows, self.UQL_SWEEP):
            for key, value in zip(("level", "uql_level", "detuning", "coupling2"), expected[1:]):
                assert row[key] == pytest.approx(value, rel=1e-12)


class TestBadInputsExit2:
    @pytest.mark.parametrize(
        "args, config_text, env",
        [
            (["optimize", "--mode", "xi", "--detuning", "5"], None, None),
            (["figure", "fig2", "--detunings=400"], None, None),
            (["figure", "fig3", "--detunings=400"], None, None),
            (["figure", "fig4", "--detunings=400"], None, None),
            (["figure", "fig4", "--bandwidths=0,1,1,1,1,1"], None, None),
            (["optimize", "--mode", "detuning"], "oscillator.damping = 0.0\n", None),
            (["optimize", "--mode", "detuning", "--omega", "0"], None, None),
            (["optimize", "--omega", "nan"], None, None),
            (["optimize", "--omega", "inf"], None, None),
            (["optimize", "--mode", "bogus"], None, None),
            (["optimize"], "optimize.mode = uql-sweep\noptimize.omegas = 0.5, nan\n", None),
            (["optimize"], "optimize.mode = uql-sweep\noptimize.omegas = 0.0, 1.0\n", None),
            (["stability"], "stability.xi2 = 0.01:inf:5\n", None),
            (["spectrum"], "oscillator.damping = nan\n", None),
            (["stability"], "oscillator.mass = inf\n", None),
            (["spectrum"], "points.coupling = inf\n", None),
            (["spectrum"], "points.coupling = 1e200\n", None),
            (["spectrum"], "points.coupling = 1e-200\n", None),
            (["stability"], None, {"OPTOSPRING_OSCILATOR_MASS": "3"}),
            (["stability"], None, {"OPTOSPRING_CAVITY_WAVEVECTOR": "3.7"}),
            (["figure", "fig3", "--detunings=" + ",".join(["1"] * 27)], None, None),
            (["stability"], "oscillator.resonance_freq = 1e-200\n", None),
            (["figure", "fig2"], "oscillator.resonance_freq = 1e200\n", None),
            (["optimize", "--mode", "xi"], "oscillator.resonance_freq = 1e-200\n", None),
            (["optimize", "--mode", "detuning"], "oscillator.resonance_freq = 1e-200\n", None),
            (["optimize", "--mode", "uql-sweep"], "oscillator.resonance_freq = 1e-200\n", None),
            (["optimize", "--mode", "xi"], "oscillator.resonance_freq = 1e200\n", None),
            (["optimize", "--mode", "detuning"], "oscillator.resonance_freq = 1e200\n", None),
            (["optimize", "--mode", "uql-sweep"], "oscillator.resonance_freq = 1e200\n", None),
            (["figure", "fig2", "--grid", "1e-300:1e-299:2"], "oscillator.mass = 1e-30\n", None),
            (["figure", "fig4", "--detunings="], None, None),
            (["figure", "fig4", "--bandwidths="], None, None),
            # 10^15 points are 7.11 PiB of floats: the allocation fails at once, touching no memory
            (["spectrum", "--grid", "1:10:1000000000000000"], None, None),
            (["figure", "fig3", "--grid", "1:10:1000000000000000"], None, None),
            (["stability"], None, {"OPTOSPRING_STABILITY_XI2": "0.01:100:1000000000000000"}),
            (["figure", "fig2", "--bandwidths=1"], None, None),
            (["figure", "fig3", "--bandwidths=1"], None, None),
            (["figure", "fig4", "--detunings=2,5", "--bandwidths=1"], None, None),
            (["spectrum", "--config", os.path.join("no-such-directory", "run.cfg")], None, None),
            (["spectrum"], "oscillator.mass 2.0\n", None),
            (["spectrum"], "grid.points_per_decade = abc\n", None),
            (["spectrum"], "stability.xi2 = 1:2\n", None),
        ],
        ids=[
            "optimize-detuning-out-of-range",
            "fig2-detuning-out-of-range",
            "fig3-detuning-out-of-range",
            "fig4-detuning-out-of-range",
            "fig4-zero-bandwidth",
            "optimize-detuning-undamped",
            "optimize-detuning-zero-omega",
            "optimize-nan-omega",
            "optimize-inf-omega",
            "optimize-unknown-mode",
            "uql-sweep-nan-omega",
            "uql-sweep-zero-omega",
            "stability-inf-xi2-range",
            "spectrum-nan-damping",
            "stability-inf-mass",
            "spectrum-inf-coupling",
            "spectrum-overflowing-coupling",
            "spectrum-underflowing-coupling",
            "env-misspelt-key",
            "env-wavevector-key",
            "figure-too-many-curves",
            "stability-underflowing-resonance",
            "fig2-overflowing-resonance",
            "xi-underflowing-resonance",
            "detuning-underflowing-resonance",
            "uql-sweep-underflowing-resonance",
            "xi-overflowing-resonance",
            "detuning-overflowing-resonance",
            "uql-sweep-overflowing-resonance",
            "fig2-underflowing-coupling",
            "fig4-empty-detunings",
            "fig4-empty-bandwidths",
            "spectrum-unallocatable-grid",
            "fig3-unallocatable-grid",
            "stability-unallocatable-xi2",
            "fig2-bandwidths-do-not-apply",
            "fig3-bandwidths-do-not-apply",
            "fig4-bandwidths-must-match",
            "missing-config-file",
            "config-line-without-equals",
            "non-integer-points-per-decade",
            "two-part-range",
        ],
    )
    def test_config_error(self, tmp_path, capsys, monkeypatch, args, config_text, env):
        out = tmp_path / "out"
        assert run([*args, "--out", str(out)], tmp_path, config_text, env, monkeypatch) == 2
        err = capsys.readouterr().err
        assert err.startswith("optospring: config error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "args", [["spectrum"], ["optimize"], ["figure", "fig3"]], ids=["spectrum", "optimize", "fig3"]
    )
    def test_every_key_checked_on_every_command(self, tmp_path, capsys, args):
        # stability.xi2 is checked when the config is built, not by the stability command
        out = tmp_path / "out"
        assert run([*args, "--out", str(out)], tmp_path, "stability.xi2 = 0:1:11\n") == 2
        err = capsys.readouterr().err
        assert err.startswith("optospring: config error: stability.xi2") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "args, env, key",
        [
            (["spectrum", "--grid", "1:10:1000000000000000"], None, "grid.points_per_decade"),
            (["figure", "fig3", "--grid", "1:10:1000000000000000"], None, "grid.points_per_decade"),
            (["stability"], {"OPTOSPRING_STABILITY_XI2": "0.01:100:1000000000000000"}, "stability.xi2"),
            (["stability"], {"OPTOSPRING_STABILITY_PSI": "-1:1:1000000000000000"}, "stability.psi"),
        ],
        ids=["spectrum-grid", "fig3-grid", "stability-xi2", "stability-psi"],
    )
    def test_unallocatable_axis_names_its_key(self, tmp_path, capsys, monkeypatch, args, env, key):
        # numpy refuses the 7.11-PiB axis before touching any memory
        out = tmp_path / "out"
        assert run([*args, "--out", str(out)], tmp_path, None, env, monkeypatch) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"optospring: config error: {key}: too many points: ")
        assert err.count("\n") == 1 and not out.exists()

    @pytest.mark.parametrize(
        "args, config_text, message",
        [
            (
                ["spectrum"],
                "points.detuning = 4\n",
                "points.detuning must lie in (-pi, pi], got 4.0",
            ),
            (
                ["figure", "fig3"],
                "cavity.gamma = 0.35\n",
                "fig3 default detuning/gamma ratios times cavity.gamma must lie in (-pi, pi], "
                "got 3.5",
            ),
            (
                ["figure", "fig3", "--detunings=0,20"],
                "cavity.gamma = 0.35\n",
                "--detunings times gamma must lie in (-pi, pi], got 7.0",
            ),
        ],
        ids=["points-detuning", "figure-default-ratios", "figure-detunings-flag"],
    )
    def test_detuning_error_names_its_source(self, tmp_path, capsys, args, config_text, message):
        out = tmp_path / "out"
        assert run([*args, "--out", str(out)], tmp_path, config_text) == 2
        assert capsys.readouterr().err == f"optospring: config error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "gamma, args",
        [
            (0.5, ["spectrum"]),
            (0.5, ["optimize"]),
            (0.5, ["figure", "fig3", "--detunings=0,2,5"]),
            (0.3, ["figure", "fig3"]),
        ],
        ids=["spectrum", "optimize", "fig3-detunings", "fig3"],
    )
    def test_psi_window_checked_only_by_stability(self, tmp_path, capsys, gamma, args):
        # the default window -12:2 times a gamma above pi/12 leaves (-pi, pi]: a rule
        # of two keys, refused by the one command that reads the window
        config_text = f"cavity.gamma = {gamma}\n"
        assert run([*args, "--out", str(tmp_path / "out")], tmp_path, config_text) == 0
        capsys.readouterr()
        out = tmp_path / "stability.csv"
        assert run(["stability", "--out", str(out)], tmp_path, config_text) == 2
        err = capsys.readouterr().err
        assert err.startswith("optospring: config error: stability.psi") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "args, out, named",
        [
            (["figure", "fig3"], "file", "file"),
            (["spectrum"], "file/x.csv", "file"),
            (["spectrum"], "dir", "dir"),
        ],
        ids=["figure-out-is-file", "spectrum-out-under-file", "spectrum-out-is-dir"],
    )
    def test_unwritable_output(self, tmp_path, capsys, args, out, named):
        (tmp_path / "file").write_text("kept\n")
        (tmp_path / "dir").mkdir()
        assert run([*args, "--out", str(tmp_path / out)], tmp_path) == 2
        err = capsys.readouterr().err
        assert err.startswith("optospring: cannot write output: ")
        assert err.count("\n") == 1
        # the message names the --out path (or the file that blocks it), never a temp file
        assert err.endswith(f": {str(tmp_path / named)!r}\n")
        assert ".optospring-" not in err
        assert (tmp_path / "file").read_text() == "kept\n"
        assert not list(tmp_path.rglob(".optospring-*"))

    def test_write_error_naming_no_file(self, tmp_path, capsys, monkeypatch):
        # an error that names no file, such as a full disk, is passed on as it is,
        # and the temp file is removed
        def full(src, dst):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(os, "replace", full)
        out = tmp_path / "noise.csv"
        assert run(["spectrum", "--out", str(out)], tmp_path) == 2
        message = f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
        assert capsys.readouterr().err == f"optospring: cannot write output: {message}\n"
        assert not out.exists() and not list(tmp_path.rglob(".optospring-*"))


NAN_NOISE = (
    "oscillator.mass = 1e300\noscillator.resonance_freq = 0.5\noscillator.damping = 0.0005\n"
)


class TestBadInputsExit3:
    @pytest.mark.parametrize(
        "args",
        [["spectrum"], ["figure", "fig2"], ["figure", "fig3"], ["figure", "fig4"]],
        ids=["spectrum", "fig2", "fig3", "fig4"],
    )
    def test_gamma_underflow(self, tmp_path, capsys, args):
        # gamma^2 + detuning^2 underflows to 0 at the zero-detuning point or curve
        out = tmp_path / "out"
        assert run([*args, "--out", str(out)], tmp_path, "cavity.gamma = 1e-300\n") == 3
        err = capsys.readouterr().err
        assert err.startswith("optospring: singular point: ") and err.count("\n") == 1
        assert "gamma=1e-300" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "args, config_text, named",
        [
            (["spectrum"], "oscillator.mass = 1e-300\n", "out"),
            (["spectrum"], "cavity.gamma = 1e-160\n", "out"),
            (["spectrum"], "points.coupling = 1e150\n", "out"),
            (["spectrum"], "cavity.round_trip = 1e300\n", "out"),
            (["spectrum"], "oscillator.damping = 1e300\n", "out"),
            (["spectrum"], "oscillator.resonance_freq = 1e200\n", "out"),
        ],
        ids=[
            "spectrum-tiny-mass",
            "spectrum-subnormal-u2",
            "spectrum-huge-coupling",
            "spectrum-huge-round-trip",
            "spectrum-huge-damping",
            "spectrum-huge-resonance",
        ],
    )
    def test_non_finite_result(self, tmp_path, capsys, args, config_text, named):
        # finite inputs whose noise overflows: refused by name before any file is written
        out = tmp_path / "out"
        assert run([*args, "--out", str(out)], tmp_path, config_text) == 3
        err = capsys.readouterr().err
        assert err.startswith("optospring: singular point: non-finite result in ")
        assert err.count("\n") == 1
        assert f"{named}: column 's_sig', data row 1\n" in err
        assert not out.exists()

    def test_fig2_tiny_mass(self, tmp_path, capsys):
        # the zero-frequency noise denominator underflows to 0: named at omega, no file written
        out = tmp_path / "out"
        assert run(["figure", "fig2", "--out", str(out)], tmp_path, "oscillator.mass = 1e-300\n") == 3
        err = capsys.readouterr().err
        assert err == "optospring: singular point: noise denominator is 0 at omega=0.0\n"
        assert not out.exists() and not list(tmp_path.rglob(".optospring-*"))

    @pytest.mark.parametrize(
        "mode, config_text, named",
        [
            ("detuning", "cavity.gamma = 1e-160\n", "report.json\n"),
            ("uql-sweep", "cavity.gamma = 1e-160\n", "report.json\n"),
            ("xi", "oscillator.mass = 1e-300\n", "at omega=0.5\n"),
            ("detuning", "oscillator.mass = 1e-300\n", "at omega=0.5\n"),
            ("uql-sweep", "oscillator.mass = 1e-300\n", "at omega=0.3\n"),
            # M Gamma omega overflows: hbar |chi| = 0 has no balance coupling
            ("xi", "oscillator.mass = 1e200\noscillator.damping = 1e200\n", "= 0.0 at omega=0.5\n"),
            # (M Gamma omega)^2 overflows, so the noise is inf / inf = nan at every coupling
            ("xi", NAN_NOISE, "non-finite noise nan at omega=0.5\n"),
            ("detuning", NAN_NOISE, "non-finite noise nan at omega=0.5\n"),
            ("uql-sweep", NAN_NOISE, "non-finite noise nan at omega=0.15\n"),
        ],
        ids=[
            "detuning-infinite-level",
            "uql-sweep-infinite-level",
            "xi-tiny-mass",
            "detuning-tiny-mass",
            "uql-sweep-tiny-mass",
            "xi-zero-sql-level",
            "xi-nan-noise",
            "detuning-nan-noise",
            "uql-sweep-nan-noise",
        ],
    )
    def test_optimize_singular(self, tmp_path, capsys, mode, config_text, named):
        # an inf in the report, a scalar noise whose denominator underflows to 0, or a
        # noise that is nan at every coupling, which no search can minimize
        out = tmp_path / "report.json"
        assert run(["optimize", "--mode", mode, "--out", str(out)], tmp_path, config_text) == 3
        err = capsys.readouterr().err
        assert err.startswith("optospring: singular point: ") and err.count("\n") == 1
        assert named in err and "Traceback" not in err
        assert not list(tmp_path.glob("*.json")) and not list(tmp_path.glob(".optospring-*"))

    @pytest.mark.parametrize(
        "config_text",
        ["cavity.gamma = 1e-200\n", "cavity.round_trip = 1e300\noscillator.resonance_freq = 1e8\n"],
        ids=["u2-underflow", "rate-overflow"],
    )
    def test_stability_margin_out_of_float_range(self, tmp_path, capsys, config_text):
        # the dynamic margin divides by u^2 = gamma^2 + psi^2 and scales with tau Omega^2
        out = tmp_path / "out"
        assert run(["stability", "--out", str(out)], tmp_path, config_text) == 3
        err = capsys.readouterr().err
        column = "column 'dynamic_margin', data row 1"
        assert err == f"optospring: singular point: non-finite result in {out}: {column}\n"
        assert not out.exists()


# Every number key of the config, with the commands that read it, on small grids.
NUMBER_KEYS = [
    "oscillator.mass",
    "oscillator.resonance_freq",
    "oscillator.damping",
    "cavity.gamma",
    "cavity.round_trip",
    "points.detuning",
    "points.coupling",
    "optimize.omega",
    "optimize.detuning",
    "grid.lo",
    "grid.hi",
]
SIGNED_KEYS = {"points.detuning", "optimize.detuning"}
COMMANDS = [
    ["spectrum"],
    ["stability"],
    ["figure", "fig2"],
    ["figure", "fig3"],
    ["figure", "fig4"],
    ["optimize", "--mode", "xi"],
    ["optimize", "--mode", "detuning"],
    ["optimize", "--mode", "uql-sweep"],
]
SMALL_RUN = "stability.xi2 = 0.01:100:4\nstability.psi = -12:2:3\noptimize.omegas = 0.5, 1.5\n"
NON_FINITE = re.compile(r"\b(inf|infinity|nan)\b", re.IGNORECASE)


class TestEveryNumberKey:
    """Any one number key over 1e-300..1e300 ends in a clean exit: no traceback,
    one stderr line on failure, no file left behind and no non-finite number written."""

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(
        command=st.sampled_from(COMMANDS),
        key=st.sampled_from(NUMBER_KEYS),
        log_value=st.floats(-300.0, 300.0),
        negative=st.booleans(),
    )
    @example(command=COMMANDS[6], key="oscillator.damping", log_value=-300.0, negative=False)
    @example(command=COMMANDS[7], key="oscillator.damping", log_value=-300.0, negative=False)
    def test_clean_exit(self, command, key, log_value, negative):
        value = 10.0**log_value * (-1.0 if negative and key in SIGNED_KEYS else 1.0)
        lo, hi = {"grid.lo": (value, 2.0), "grid.hi": (0.5, value)}.get(key, (0.5, 2.0))
        config_text = SMALL_RUN + ("" if key.startswith("grid.") else f"{key} = {value!r}\n")
        with tempfile.TemporaryDirectory() as work:
            work = pathlib.Path(work)
            (work / "run.cfg").write_text(config_text)
            argv = [*command, "--config", str(work / "run.cfg"), "--grid", f"{lo!r}:{hi!r}:3"]
            err = io.StringIO()
            with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(
                err
            ), contextlib.redirect_stdout(io.StringIO()):
                warnings.simplefilter("always")
                code = main([*argv, "--out", str(work / "out")])
            written = [p for p in work.rglob("*") if p.is_file() and p.name != "run.cfg"]
            texts = [p.read_text() for p in written]
        assert [str(w.message) for w in caught] == []
        assert code in (0, 2, 3, 4)
        if code == 0:
            assert err.getvalue() == ""
        else:
            lines = err.getvalue().splitlines(keepends=True)
            assert len(lines) == 1 and lines[0].startswith("optospring: "), err.getvalue()
            assert written == []
        for path, text in zip(written, texts):
            assert NON_FINITE.search(text) is None, path.name


class TestQuasistaticCavity:
    """``cavity.round_trip = 0`` is the quasi-static cavity, which every command takes."""

    @pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
    def test_every_command_runs(self, tmp_path, capsys, command):
        config_text = SMALL_RUN + "cavity.round_trip = 0.0\n"
        out = tmp_path / "out"
        argv = [*command, "--grid", "0.5:2.0:3", "--out", str(out)]
        assert run(argv, tmp_path, config_text) == 0
        assert capsys.readouterr().err == ""
        written = [p for p in tmp_path.rglob("*") if p.is_file() and p.name != "run.cfg"]
        assert written
        for path in written:
            assert NON_FINITE.search(path.read_text()) is None, path.name

    @pytest.mark.parametrize(
        "config_text, env, named",
        [
            ("spectrum.model = quasistatic\n", None, "unknown key 'spectrum.model'"),
            (None, {"OPTOSPRING_SPECTRUM_MODEL": "quasistatic"}, "'OPTOSPRING_SPECTRUM_MODEL'"),
        ],
        ids=["file", "env"],
    )
    def test_model_key_is_unknown(self, tmp_path, capsys, monkeypatch, config_text, env, named):
        # the cavity is the one regime switch: no second key selects the quasi-static noise
        out = tmp_path / "spec.csv"
        argv = ["spectrum", "--out", str(out)]
        assert run(argv, tmp_path, config_text, env, monkeypatch) == 2
        err = capsys.readouterr().err
        assert err.startswith("optospring: config error: ") and err.count("\n") == 1
        assert named in err and not out.exists()


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

    def test_deterministic_bytes(self, tmp_path):
        csv1, csv2, json1, json2 = run_twice(["stability"], tmp_path)
        assert csv1.read_bytes() == csv2.read_bytes()
        assert json1.read_bytes() == json2.read_bytes()
        assert_csv_equals_json(csv1, json1)

    def test_invalid_bounds_exit_2(self, tmp_path):
        assert run(["stability"], tmp_path, "stability.xi2 = 5:1:10\n") == 2

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("stability.xi2", "1:1.0000000000000002:11", "more points than floats in its range"),
            ("stability.psi", "0:5e-324:3", "more points than floats in its range"),
            ("stability.psi", "-1e308:1e308:3", "need lo < hi, hi - lo finite and n >= 2"),
        ],
        ids=["xi2-finer-than-floats", "psi-finer-than-floats", "psi-span-overflows"],
    )
    def test_axis_of_repeated_values_exit_2(self, tmp_path, capsys, key, value, message):
        # an axis that would repeat rows, or hold NaN from an overflowing span, names its key
        out = tmp_path / "stab.csv"
        assert run(["stability", "--out", str(out)], tmp_path, f"{key} = {value}\n") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"optospring: config error: {key}: {message}")
        assert err.count("\n") == 1 and not out.exists()

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

    def test_fig2_flags_equal_stability_per_cell(self, tmp_path):
        out = tmp_path / "figs"
        assert run(["figure", "fig2", "--out", str(out)], tmp_path) == 0
        cfg = build_run_config()
        manifest = json.loads((out / "fig2_manifest.json").read_text())
        xi_sql2 = manifest["normalization"]["xi_sql2"]
        cells, unstable = 0, 0
        for entry in manifest["curves"].values():
            psi = entry["detuning_over_gamma"] * cfg.cavity.gamma
            _, columns, rows = read_table(str(out / entry["file"]))
            assert columns[-2:] == ["static_ok", "dynamic_ok"]
            for x, *_, static_ok, dynamic_ok in rows:
                wp = WorkingPoint(psi, math.sqrt(x * xi_sql2))
                rep = stability(cfg.oscillator, cfg.cavity, wp, cfg.constants)
                assert (static_ok, dynamic_ok) == (rep.static_ok, rep.dynamic_ok)
                cells += 1
                unstable += not rep.static_ok
        assert cells == 4 * 801 and unstable > 0

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

    @pytest.mark.parametrize(
        "detunings, bandwidths",
        [("2,5", (2.0, 2.0)), ("0,2,5,10,-10,-10", (2.0, 2.0, 2.0, 2.0, 2.0, 1.0 / 3.0))],
        ids=["custom", "default-ratios"],
    )
    def test_fig4_detunings_without_bandwidths(self, tmp_path, detunings, bandwidths):
        # custom ratios give each curve bandwidth 2; the default ratios, written out,
        # keep the default bandwidths
        out = tmp_path / "figs"
        assert run(["figure", "fig4", f"--detunings={detunings}", "--out", str(out)], tmp_path) == 0
        curves = json.loads((out / "fig4_manifest.json").read_text())["curves"]
        assert tuple(c["bandwidth_over_omega_sql"] for c in curves.values()) == bandwidths

    def test_manifest_deterministic(self, tmp_path):
        # every file of every figure, in both formats, repeats byte for byte
        for figure, letters in (("fig2", "abcd"), ("fig3", "abcd"), ("fig4", "abcdef")):
            csv1, csv2, json1, json2 = run_twice(["figure", figure], tmp_path / figure)
            for one, two in ((csv1, csv2), (json1, json2)):
                assert sorted(p.name for p in one.iterdir()) == sorted(
                    p.name for p in two.iterdir()
                )
                for path in one.iterdir():
                    assert path.read_bytes() == (two / path.name).read_bytes(), path.name
            for letter in letters:
                name = f"{figure}_curve_{letter}"
                assert_csv_equals_json(csv1 / f"{name}.csv", json1 / f"{name}.json")

    @pytest.mark.parametrize("figure", ["fig2", "fig3", "fig4"])
    def test_grid_finer_than_floats_exit_2(self, tmp_path, capsys, figure):
        # refused as spectrum refuses it, with the same line, before any curve is written
        grid = "1:1.0000000000000002:100000000000000000"
        assert run(["spectrum", "--grid", grid, "--out", str(tmp_path / "s.csv")], tmp_path) == 2
        spectrum_err = capsys.readouterr().err
        out = tmp_path / "figs"
        assert run(["figure", figure, "--grid", grid, "--out", str(out)], tmp_path) == 2
        assert capsys.readouterr().err == spectrum_err
        assert spectrum_err.startswith("optospring: config error: grid.points_per_decade: ")
        assert not out.exists()

    def test_fig2_boundary_cell_is_finite(self, tmp_path):
        # at detuning -4 gamma, xi2_norm = 0.5 sits exactly on the static
        # boundary: that cell holds the finite limit hbar^2 xi^2 |chi(0)|^2
        # and static_ok = 0 marks it
        args = ["figure", "fig2", "--detunings=-4", "--grid", "0.5:50:10"]
        csv1, _, json1, _ = run_twice(args, tmp_path)
        lines = (csv1 / "fig2_curve_a.csv").read_text().splitlines()
        assert lines[3] == "0.5,0.25,1.0,0.25,0,1"
        assert all("inf" not in line for line in lines[3:])
        text = (json1 / "fig2_curve_a.json").read_text()
        assert '"rows": [[0.5, 0.25, 1.0, 0.25, false, true], [' in text
        assert "Infinity" not in text
        assert_csv_equals_json(csv1 / "fig2_curve_a.csv", json1 / "fig2_curve_a.json")


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

    @pytest.mark.parametrize("command", (["spectrum"], ["figure", "fig3"]), ids=" ".join)
    def test_grid_of_600_decades_exits_cleanly(self, tmp_path, capsys, command):
        # 1e300 / 1e-300 overflows to inf: the grid still has its 601 points, and the
        # run ends in an exit code, with one stderr line when it fails
        out = tmp_path / "out"
        code = run(command + ["--grid", "1e-300:1e300:1", "--out", str(out)], tmp_path)
        err = capsys.readouterr().err
        assert code in (0, 2, 3) and "Traceback" not in err
        if code:
            assert err.startswith("optospring: ") and err.count("\n") == 1

    @pytest.mark.parametrize("spec", BAD)
    @pytest.mark.parametrize("command", (["spectrum"], ["figure", "fig3"]))
    def test_malformed_grid_exit_2(self, tmp_path, capsys, command, spec):
        out = tmp_path / "out"
        assert run(command + [f"--grid={spec}", "--out", str(out)], tmp_path) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()


def _per_row_cell(value) -> str:
    """The per-row CSV cell formatter the columnar writer replaced."""
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    return repr(float(value))


def _per_row_table(kind, out_format, param_lines, columns, blocks) -> str:
    """Text of the per-row writer, for (label, rows) blocks."""
    if out_format == "csv":
        lines = [f"# optospring {kind} v1"] + [f"# {p}" for p in param_lines]
        lines.append(",".join(columns))
        for label, rows in blocks:
            if label:
                lines.append(f"# {label}")
            for row in rows:
                lines.append(",".join(_per_row_cell(v) for v in row))
        return "\n".join(lines) + "\n"
    doc = {
        "schema": f"optospring.{kind}.v1",
        "params": param_lines,
        "columns": columns,
        "blocks": [
            {
                "label": label,
                "rows": [
                    [bool(v) if isinstance(v, (bool, np.bool_)) else float(v) for v in row]
                    for row in rows
                ],
            }
            for label, rows in blocks
        ],
    }
    return json.dumps(doc, sort_keys=True) + "\n"


def _table(rows, dtypes) -> np.ndarray:
    """A structured array of ``rows``, one field per dtype; no rows gives an empty table."""
    cols = list(zip(*rows)) or [()] * len(dtypes)
    return np.rec.fromarrays([np.array(col, dtype=t) for col, t in zip(cols, dtypes)])


@pytest.fixture
def format_calls(monkeypatch):
    """The ``out_format`` of every distinct column ``cli._cells`` formats, one entry per column.

    Columns that share their cells share one matrix, so the distinct
    matrices it returns are the columns it formatted.
    """
    calls = []
    cells = cli_module._cells

    def counting(tables, fmt):
        out = cells(tables, fmt)
        calls.extend([fmt] * len({id(col) for row in out for col in row}))
        return out

    monkeypatch.setattr(cli_module, "_cells", counting)
    return calls


@pytest.fixture
def float_reprs(monkeypatch):
    """Every array handed to ``floattext.reprs``, the one formatter of ``cli``'s floats.

    Its values are the floats formatted, the few that it renders by ``repr``
    itself (zeros, subnormals, inf and nan) among them.
    """
    calls = []
    reprs = floattext.reprs

    def counting(values):
        calls.append(values)
        return reprs(values)

    monkeypatch.setattr(floattext, "reprs", counting)
    return calls


class TestColumnarWriter:
    SPECIALS = (-0.0, 5e-324, 0.1, 1e16, -2.5e-300)
    COLUMNS = ["x", "flag", "y"]

    def _blocks(self):
        rng = np.random.default_rng(7)
        specials = list(self.SPECIALS)
        first = [
            (v, bool(i % 2), np.float64(-v))  # Python and numpy floats, bools
            for i, v in enumerate(specials)
        ]
        second = [
            (np.float64(x), np.bool_(x > 0.5), float(x) * 1e-300)
            for x in rng.random(50)
        ]
        return [("", first), ("block two", second)]

    @pytest.mark.parametrize("out_format", ["csv", "json"])
    def test_same_bytes_as_per_row_writer(self, tmp_path, out_format):
        blocks = self._blocks()
        tables = [
            (label, np.rec.fromarrays([np.array(col) for col in zip(*rows)]))
            for label, rows in blocks
        ]
        path = tmp_path / f"t.{out_format}"
        params = ["a = 1", "b = inf"]
        write_datasets(out_format, [(str(path), "test", params, self.COLUMNS, tables)])
        expected = _per_row_table("test", out_format, params, self.COLUMNS, blocks)
        assert path.read_text() == expected

    def test_integer_column_refused(self, tmp_path):
        # a cell is a float or a flag: an integer column is refused before any write
        table = np.rec.fromarrays([np.array([0.5, 1.5]), np.array([1, 0])])
        path = str(tmp_path / "t.csv")
        with pytest.raises(TypeError, match="float or bool, not int64"):
            write_datasets("csv", [(path, "test", [], ["x", "n"], [("", table)])])
        assert list(tmp_path.iterdir()) == []

    def test_datasets_checked_before_any_write(self, tmp_path):
        # a non-finite cell in the last block of the last file: nothing is written
        good = np.rec.fromarrays([np.array([1.0, 2.0, 3.0]), np.array([True, False, True])])
        bad = np.rec.fromarrays([np.array([1.0, 2.0]), np.array([0.5, np.inf])])
        files = [
            (str(tmp_path / "a.csv"), "test", [], ["x", "flag"], [("", good)]),
            (str(tmp_path / "b.csv"), "test", [], ["x", "y"], [("", good), ("two", bad)]),
        ]
        with pytest.raises(SingularPointError, match=r"b\.csv: column 'y', data row 5$"):
            write_datasets("csv", files)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("out_format", ["csv", "json"])
    def test_shared_columns_and_escaped_text(self, tmp_path, out_format):
        # two files in one call share the x column; -0.0 and 0.0 columns side by side
        x = [0.1 * i for i in range(5)]
        first = [
            ("label \"a\" \\ ψ", [(v, 0.0, -0.0, i % 2 == 0) for i, v in enumerate(x)]),
            ("empty ψ", []),
            ("", [(v, -0.0, 0.0, False) for v in x[:2]]),
        ]
        second = [("b", [(v, v * v) for v in x])]
        files, expected = [], []
        for name, columns, dtypes, blocks in (
            ("a", ["x", "pos", "neg", "flag"], [float, float, float, bool], first),
            ("b", ["x", "y"], [float, float], second),
        ):
            tables = [(label, _table(rows, dtypes)) for label, rows in blocks]
            params = [f'quote " backslash \\ psi ψ in {name}']
            path = tmp_path / f"{name}.{out_format}"
            files.append((str(path), "test", params, columns, tables))
            expected.append((path, _per_row_table("test", out_format, params, columns, blocks)))
        write_datasets(out_format, files)
        for path, text in expected:
            assert path.read_text(encoding="utf-8") == text

    @pytest.mark.parametrize("out_format", ["csv", "json"])
    @pytest.mark.parametrize("figure, formatted", [("fig4", 14), ("fig3", 10)])
    def test_each_distinct_column_formatted_once(
        self, tmp_path, format_calls, out_format, figure, formatted
    ):
        # fig4: 6 curves x 4 columns, of which omega and s_sql are shared; fig3: 4 curves
        argv = ["figure", figure, "--grid", "0.5:50:10", "--format", out_format]
        assert run([*argv, "--out", str(tmp_path / "out")], tmp_path) == 0
        assert format_calls == [out_format] * formatted

    def test_no_memo_shared_between_calls(self, tmp_path, format_calls):
        rows = [(0.5, True), (-0.0, False)]
        table = np.rec.fromarrays([np.array(col) for col in zip(*rows)])
        for out_format in ("csv", "json"):
            path = tmp_path / f"t.{out_format}"
            write_datasets(out_format, [(str(path), "test", [], ["x", "flag"], [("", table)])])
            expected = _per_row_table("test", out_format, [], ["x", "flag"], [("", rows)])
            assert path.read_text() == expected
        assert format_calls == ["csv", "csv", "json", "json"]

    @pytest.mark.parametrize("out_format", ["csv", "json"])
    def test_repeated_and_special_values(self, tmp_path, float_reprs, out_format):
        # each distinct bit pattern is formatted once: -0.0 and 0.0, and ±5e-324, apart
        specials = [-0.0, 0.0, 5e-324, -5e-324, 1e16, -2.5e-300]
        rows = [(specials[i % 6], i % 3 == 0, 0.5 * i) for i in range(30)]
        blocks = [("", rows), ("empty", []), ("one", rows[:1])]
        tables = [(label, _table(r, [float, bool, float])) for label, r in blocks]
        columns = ["special", "flag", "x"]
        path = tmp_path / f"t.{out_format}"
        write_datasets(out_format, [(str(path), "test", [], columns, tables)])
        assert path.read_text() == _per_row_table("test", out_format, [], columns, blocks)
        # 6 specials, 30 distinct x and the one-row block's 2 floats, in one call;
        # flags are never floats, in either format
        assert [len(values) for values in float_reprs] == [6 + 30 + 2]


class TestParser:
    ARGVS = (
        ["figure", "fig4", "--detunings", "2,5", "--bandwidths", "1,1", "--format", "json"],
        ["figure", "fig4"],
        ["stability", "--si"],
        ["stability"],
        ["stability", "--mode", "xi"],  # a flag of another subcommand: argparse exits 2
        ["figure", "fig2", "--format", "json"],
    )

    @staticmethod
    def _tree(path: pathlib.Path) -> dict:
        if path.is_file():
            return {"": path.read_bytes()}
        return {str(p.relative_to(path)): p.read_bytes() for p in path.rglob("*") if p.is_file()}

    def test_built_once_per_process(self, tmp_path, capsys):
        assert cli_module.build_parser() is cli_module.build_parser()
        src = str(pathlib.Path(cli_module.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        for i, argv in enumerate(self.ARGVS):
            here, fresh = tmp_path / f"here{i}", tmp_path / f"fresh{i}"
            try:
                code = main([*argv, "--out", str(here)])
            except SystemExit as exc:
                code = exc.code
            err = capsys.readouterr().err
            proc = subprocess.run(
                [sys.executable, "-m", "optospring.cli", *argv, "--out", str(fresh)],
                env=env, capture_output=True, text=True, check=False,
            )
            assert (code, err) == (proc.returncode, proc.stderr)
            if code == 0:
                assert self._tree(here) == self._tree(fresh) != {}
            else:
                assert code == 2 and not here.exists() and not fresh.exists()


@pytest.mark.parametrize(
    "argv, formatted",
    [
        (["spectrum"], 8004),
        (["stability", "--format", "json"], 6952),
        (["stability"], 6952),
        (["figure", "fig2"], 3899),
        (["figure", "fig3"], 8010),
        (["figure", "fig4"], 28014),
    ],
    ids=["spectrum", "stability.json", "stability.csv", "fig2", "fig3", "fig4"],
)
def test_float_reprs_per_default_command(tmp_path, float_reprs, argv, formatted):
    # a count of work, not of time: each distinct float of a command is formatted
    # once, in one call however many files the command writes
    assert main([*argv, "--out", str(tmp_path / "out")]) == 0
    assert len(float_reprs) == 1
    assert sum(map(len, float_reprs)) == formatted
    assert all(values.dtype == np.float64 for values in float_reprs)
