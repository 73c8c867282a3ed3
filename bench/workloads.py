"""The benchmark workloads: seeded inputs, operations and output checks.

A workload is a cycle of operations that ``run.py`` repeats. Every input
is drawn once per run from the seed, so each operation of the cycle
repeats with identical inputs and must write identical bytes. An
operation is either one in-process CLI invocation (``cli.main(argv)``)
or one group of library calls. Checks compare outputs against the
program's independent routes (linear-solve oracle, quasi-static closed
form, closed-form optima); they run outside the timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import optospring
from optospring import cli
from optospring import finite_bandwidth as fb
from optospring import quasistatic as qs
from optospring.config import build_run_config
from optospring.errors import SingularPointError
from optospring.optimize import SearchSpec
from tracer import coupling_at_bound, detuning_at_bound

# tolerances of the repository's own tests for the same comparisons
FINITE_REL = 1e-9  # kernel vs full_transfer_by_solve
QUASI_REL = 1e-12  # coefficient route vs quasi-static closed form
XI_REL = 1e-6  # numeric coupling optimum vs closed form
UQL_REL = 1e-4  # numeric joint optimum vs closed form, inside the bracket
FLOOR_SLACK = 1e-12  # rounding allowance below the UQL floor
SAMPLED_ROWS = 6  # random rows checked per block, besides the first and last

CURVES = {"fig2": 4, "fig3": 4, "fig4": 6}
FIG_GRIDS = {"fig2": (1e-2, 1e2, 200), "fig3": (1e-1, 1e1, 400), "fig4": (1e-2, 1e3, 400)}
# cli_datasets runs every command as CSV and these also as JSON: four
# operations cheaper and four costlier than the two stability runs, which
# then hold the median
JSON_SHARE = {"spectrum_points.json", "stability.json", "fig2.json", "fig4.json"}
LIB_SIZES = (1_000, 10_000, 100_000, 1_000_000)
# library groups per cycle at each size: the median falls on 10^4 points and
# the 10^6 groups occur often enough to hold the tail (see README)
LIB_PER_CYCLE = (4, 3, 2, 2)


class CheckError(Exception):
    """An output failed a correctness check."""


def _grid_size(lo: float, hi: float, ppd: int) -> int:
    return int(round(math.log10(hi / lo) * ppd)) + 1


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def _coherent_noise(t) -> float:
    return float((abs(t.c_q) ** 2 + abs(t.c_p) ** 2) / abs(t.c_sig) ** 2)


def _sample(rng: random.Random, n: int) -> list[int]:
    picks = {0, n - 1}
    picks.update(rng.randrange(n) for _ in range(SAMPLED_ROWS))
    return sorted(picks)


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _check_finite_row(osc, cav, wp, omega, s_sig) -> None:
    ref = _coherent_noise(fb.full_transfer_by_solve(osc, cav, wp, omega))
    _expect(
        _rel(s_sig, ref) <= FINITE_REL,
        f"finite row omega={omega!r}: {s_sig!r} vs solve {ref!r}",
    )


def _check_quasi_row(osc, cav, wp, omega, s_sig) -> None:
    try:
        ref = qs.equivalent_input_noise_closed_form(osc, cav, wp, omega)
    except SingularPointError:
        _expect(not math.isfinite(s_sig), f"finite value {s_sig!r} at a singular point")
        return
    _expect(
        _rel(s_sig, ref) <= QUASI_REL,
        f"quasi-static row omega={omega!r}: {s_sig!r} vs closed form {ref!r}",
    )


def _read_rows(path: Path, fmt: str, columns: list[str]) -> list[list[float]]:
    """Re-parse a CLI table (CSV via cli.read_table, or JSON) as float rows."""
    if fmt == "csv":
        _, cols, rows = cli.read_table(str(path))
    else:
        doc = json.loads(path.read_text(encoding="utf-8"))
        cols = doc["columns"]
        rows = [[float(v) for v in row] for block in doc["blocks"] for row in block["rows"]]
    _expect(cols == columns, f"{path.name}: columns {cols}")
    return rows


def _values_digest(rows) -> str:
    return hashlib.sha256(np.asarray(rows, dtype=float).tobytes()).hexdigest()


@dataclass
class Checked:
    """What a check learned from one operation's output."""

    rows: int
    values: str = ""  # digest of the parsed values, equal across formats
    optima: list = field(default_factory=list)


class CliOp:
    """One in-process CLI invocation writing known output files."""

    def __init__(self, key, argv, outputs, check):
        self.key, self.argv, self.outputs, self._check = key, argv, outputs, check

    def run(self):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(self.argv)
        if code != 0:
            raise RuntimeError(f"exit code {code}")

    def digest(self, result) -> str:
        h = hashlib.sha256()
        for path in self.outputs:
            h.update(path.name.encode())
            h.update(path.read_bytes())
        return h.hexdigest()

    def check(self, result) -> Checked:
        return self._check()


class LibraryOp:
    """One library call group: spectrum + dip_analysis + array noise."""

    def __init__(self, key, osc, cav, wp, grid, seed):
        self.key, self.osc, self.cav, self.wp, self.grid = key, osc, cav, wp, grid
        self.seed = seed

    def run(self):
        sp = optospring.spectrum(self.osc, self.cav, self.wp, self.grid)
        dips = optospring.dip_analysis(sp, self.osc, self.cav, self.wp)
        noise = optospring.equivalent_input_noise(self.osc, self.cav, self.wp, self.grid)
        return sp, dips, noise

    def digest(self, result) -> str:
        sp, dips, noise = result
        h = hashlib.sha256()
        for arr in (sp.s_sig, sp.s_sql, noise):
            h.update(np.ascontiguousarray(arr).tobytes())
        h.update(repr(dips).encode())
        return h.hexdigest()

    def check(self, result) -> Checked:
        sp, dips, noise = result
        n = self.grid.size
        _expect(sp.s_sig.shape == (n,) and np.shape(noise) == (n,), "wrong result length")
        _expect(dips.count >= 1, "no dip reported")
        rng = random.Random(f"{self.seed}:{self.key}")
        for i in _sample(rng, n):
            om = float(self.grid[i])
            _check_finite_row(self.osc, self.cav, self.wp, om, float(sp.s_sig[i]))
            _check_quasi_row(self.osc, self.cav, self.wp, om, float(noise[i]))
        return Checked(rows=2 * n)


@dataclass
class Workload:
    name: str
    cycle: list
    # whole cycles per run at least, so that the costliest operation of the
    # cycle occurs >= 11 times and always holds the tail percentile
    min_cycles: int
    setup_code: str


def _write_config(path: Path, values: dict[str, str]) -> Path:
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()), encoding="utf-8")
    return path


def _floats(values) -> str:
    return ", ".join(repr(float(v)) for v in values)


def _setup_code(src: Path, configs: list) -> str:
    return (
        f"import sys; sys.path.insert(0, {str(src)!r}); import optospring.cli as cli\n"
        f"for p in {configs!r}: cli.load_run_config(p)\n"
    )


# -- cli_datasets -----------------------------------------------------------


def _table_check(out: Path, fmt: str, columns, expected_rows: int, row_check, seed, key):
    def check() -> Checked:
        rows = _read_rows(out, fmt, columns)
        _expect(len(rows) == expected_rows, f"{out.name}: {len(rows)} rows, not {expected_rows}")
        rng = random.Random(f"{seed}:{key}")
        row_check(rows, rng)
        return Checked(rows=len(rows), values=_values_digest(rows))

    return check


def _spectrum_rows(cfg):
    n = _grid_size(cfg.grid_lo, cfg.grid_hi, cfg.grid_points_per_decade)
    hbar = cfg.constants.hbar

    def row_check(rows, rng):
        for k, wp in enumerate(cfg.points):
            omega_sql = math.sqrt(2.0 * hbar * wp.coupling**2 / cfg.oscillator.mass)
            block = rows[k * n : (k + 1) * n]
            for i in _sample(rng, n):
                om_norm, s, q, ratio = block[i]
                _expect(ratio == s / q, f"ratio column at row {i}")
                _check_finite_row(cfg.oscillator, cfg.cavity, wp, om_norm * omega_sql, s)

    return n * len(cfg.points), row_check


def _stability_rows(rows, rng):
    for xi2, psi, s_ok, d_ok, s_margin, d_margin in rows:
        _expect(s_ok == float(s_margin > 0), f"static_ok at xi2={xi2!r} psi={psi!r}")
        _expect(d_ok == float(d_margin > 0), f"dynamic_ok at xi2={xi2!r} psi={psi!r}")


def _figure_check(fig: str, out_dir: Path, fmt: str, cfg, seed, key):
    lo, hi, ppd = FIG_GRIDS[fig]
    n = _grid_size(lo, hi, ppd)
    gamma, hbar = cfg.cavity.gamma, cfg.constants.hbar
    osc_cfg = cfg.oscillator
    chi0 = 1.0 / (osc_cfg.mass * osc_cfg.resonance_freq**2)
    xi_sql2 = 1.0 / (2.0 * hbar * chi0)
    free = fb.quasi_free_oscillator(1.0)
    xi_free = math.sqrt(0.5 / hbar)

    def check() -> Checked:
        manifest = json.loads((out_dir / f"{fig}_manifest.json").read_text(encoding="utf-8"))
        curves = manifest["curves"]
        _expect(len(curves) == CURVES[fig], f"{fig}: {len(curves)} curves")
        rng = random.Random(f"{seed}:{key}")
        all_rows = []
        for letter in sorted(curves):
            entry = curves[letter]
            r = entry["detuning_over_gamma"]
            path = out_dir / entry["file"]
            if fig == "fig2":
                columns = ["xi2_norm", "s_sig", "s_sql", "ratio", "static_ok", "dynamic_ok"]
            else:
                columns = ["omega_norm", "s_sig", "s_sql", "ratio"]
            rows = _read_rows(path, fmt, columns)
            _expect(len(rows) == n, f"{path.name}: {len(rows)} rows, not {n}")
            picks = set(_sample(rng, n))
            picks.update(i for i, row in enumerate(rows) if not math.isfinite(row[1]))
            for i in sorted(picks):
                x, s, q, ratio = rows[i][:4]
                if math.isfinite(s):
                    _expect(ratio == s / q, f"{path.name}: ratio column at row {i}")
                if fig == "fig2":
                    wp = optospring.WorkingPoint(r * gamma, math.sqrt(x * xi_sql2))
                    _check_quasi_row(osc_cfg, cfg.cavity, wp, 0.0, s)
                elif fig == "fig3":
                    wp = optospring.WorkingPoint(r * gamma, xi_free)
                    _check_quasi_row(free, cfg.cavity, wp, x, s)
                else:
                    cav = optospring.OpticalCavity(
                        gamma=gamma,
                        round_trip=gamma / entry["bandwidth_over_omega_sql"],
                        wavevector=cfg.cavity.wavevector,
                    )
                    wp = optospring.WorkingPoint(r * gamma, xi_free)
                    _check_finite_row(free, cav, wp, x, s)
            all_rows += rows
        return Checked(rows=len(all_rows), values=_values_digest(all_rows))

    return check


def cli_datasets(seed: int, out: Path, src: Path) -> Workload:
    rng = random.Random(seed)
    defaults = build_run_config()
    gamma = defaults.cavity.gamma
    points = [
        (gamma * rng.uniform(-10.0, 10.0), math.sqrt(0.5) * 10.0 ** rng.uniform(-0.5, 0.5))
        for _ in range(3)
    ]
    values = {
        "points.detuning": _floats(p[0] for p in points),
        "points.coupling": _floats(p[1] for p in points),
    }
    seeded_cfg = _write_config(out / "points.cfg", values)
    seeded = build_run_config(values)
    _, _, nx = defaults.stability_xi2
    _, _, npsi = defaults.stability_psi
    spectrum_columns = ["omega_norm", "s_sig", "s_sql", "ratio"]
    stability_columns = [
        "xi2_norm", "psi_norm", "static_ok", "dynamic_ok", "static_margin", "dynamic_margin"
    ]
    ops = []

    def add(fmt, key, argv, outputs, check):
        if fmt == "csv" or key in JSON_SHARE:
            ops.append(CliOp(key, [*argv, "--format", fmt], outputs, check))

    for fmt in ("csv", "json"):
        for name, cfg, extra in (
            ("spectrum_default", defaults, []),
            ("spectrum_points", seeded, ["--config", str(seeded_cfg)]),
        ):
            key = f"{name}.{fmt}"
            path = out / key
            rows, row_check = _spectrum_rows(cfg)
            check = _table_check(path, fmt, spectrum_columns, rows, row_check, seed, key)
            add(fmt, key, ["spectrum", *extra, "--out", str(path)], [path], check)
        key = f"stability.{fmt}"
        path = out / key
        check = _table_check(
            path, fmt, stability_columns, nx * npsi, _stability_rows, seed, key
        )
        add(fmt, key, ["stability", "--out", str(path)], [path], check)
        for fig in ("fig2", "fig3", "fig4"):
            key = f"{fig}.{fmt}"
            fig_dir = out / key
            files = [fig_dir / f"{fig}_manifest.json"] + [
                fig_dir / f"{fig}_curve_{letter}.{fmt}" for letter in "abcdef"[: CURVES[fig]]
            ]
            check = _figure_check(fig, fig_dir, fmt, defaults, seed, key)
            add(fmt, key, ["figure", fig, "--out", str(fig_dir)], files, check)
    rng.shuffle(ops)
    return Workload(
        name="cli_datasets",
        cycle=ops,
        # fig2, the costliest, runs twice per cycle (CSV and JSON): 6 cycles give 12
        min_cycles=6,
        setup_code=_setup_code(src, [None, str(seeded_cfg)]),
    )


# -- cli_optimize -----------------------------------------------------------


def _omega_inside(osc, gamma: float, psi: float) -> float:
    """The frequency whose closed-form optimal detuning is ``psi``."""
    g, om = osc.damping, osc.resonance_freq
    return (g * psi + math.sqrt((g * psi) ** 2 + 16.0 * gamma**2 * om**2)) / (4.0 * gamma)


def _omega_outside(rng: random.Random, osc, gamma: float) -> float:
    """A frequency of the sweep decade whose optimal detuning is past +-pi."""
    while True:
        omega = 0.3 * osc.resonance_freq * 10.0 ** rng.uniform(0.0, 1.0)
        if abs(qs.ultimate_quantum_limit(osc, omega, gamma).detuning) > 1.1 * math.pi:
            return omega


def _optimum_record(cfg, omega: float, level: float, psi: float, key: str) -> dict:
    """Check one joint optimum and describe it, at a bound or not."""
    uql = qs.ultimate_quantum_limit(cfg.oscillator, omega, cfg.cavity.gamma, cfg.constants)
    floor, psi_cf = uql.level, uql.detuning
    _expect(level >= floor * (1.0 - FLOOR_SLACK), f"{key}: level {level!r} below UQL {floor!r}")
    lo, hi = SearchSpec().psi_bounds
    inside = lo < psi_cf < hi
    if inside:
        _expect(_rel(level, floor) <= UQL_REL, f"{key}: level {level!r} vs closed form {floor!r}")
    return {
        "op": key,
        "omega": omega,
        "detuning": psi,
        "closed_form_detuning": psi_cf,
        "closed_form_inside": inside,
        "level_over_uql": level / floor,
        "at_bound": detuning_at_bound(psi, SearchSpec()),
    }


def _optimize_check(path: Path, cfg, mode: str, key: str, omega=None, detuning=None, omegas=()):
    def check() -> Checked:
        report = json.loads(path.read_text(encoding="utf-8"))
        _expect(report["mode"] == mode, f"{key}: mode {report['mode']!r}")
        if mode == "xi":
            _expect(report["omega"] == omega and report["detuning"] == detuning, f"{key}: inputs")
            _expect(report["converged"] is True, f"{key}: not converged")
            closed = qs.coupling_optimum(
                cfg.oscillator, omega, detuning, cfg.cavity.gamma, cfg.constants
            )
            _expect(_rel(report["level"], closed.level) <= XI_REL,
                    f"{key}: level {report['level']!r} vs closed form {closed.level!r}")
            at = report["constraint_active"] or coupling_at_bound(report["coupling2"], SearchSpec())
            return Checked(rows=1, optima=[{"op": key, "omega": omega, "at_bound": at}])
        if mode == "detuning":
            _expect(report["omega"] == omega, f"{key}: omega {report['omega']!r}")
            rec = _optimum_record(cfg, omega, report["level"], report["detuning"], key)
            return Checked(rows=1, optima=[rec])
        sweep = report["sweep"]
        _expect([row["omega"] for row in sweep] == list(omegas), f"{key}: sweep omegas")
        optima = [
            _optimum_record(cfg, row["omega"], row["level"], row["detuning"], key)
            for row in sweep
        ]
        return Checked(rows=len(sweep), optima=optima)

    return check


def cli_optimize(seed: int, out: Path, src: Path) -> Workload:
    rng = random.Random(seed)
    cfg = build_run_config()
    osc, gamma = cfg.oscillator, cfg.cavity.gamma
    ops = []

    def optimize_op(key, mode, args, **expect):
        path = out / f"{key}.json"
        argv = ["optimize", *args, "--mode", mode, "--out", str(path)]
        ops.append(CliOp(key, argv, [path], _optimize_check(path, cfg, mode, key, **expect)))

    def inside():
        return _omega_inside(osc, gamma, rng.uniform(-0.9, 0.9) * math.pi)

    # per cycle: 2 xi runs and 1 detuning run inside the bracket are faster
    # than the 2 detuning runs stopped at a bound, and 3 sweeps are slower,
    # so the median falls in the middle of the bound-stopped runs

    for key, sign in (("xi_neg", -1.0), ("xi_pos", 1.0)):
        omega = 0.3 * osc.resonance_freq * 10.0 ** rng.uniform(0.0, 1.0)
        psi = sign * gamma * rng.uniform(0.5, 10.0)
        optimize_op(key, "xi", ["--omega", repr(omega), "--detuning", repr(psi)],
                    omega=omega, detuning=psi)
    optimize_op("detuning_default", "detuning", [], omega=cfg.optimize_omega)
    for key, omega in (("detuning_inside", inside()),
                       ("detuning_outside", _omega_outside(rng, osc, gamma))):
        optimize_op(key, "detuning", ["--omega", repr(omega)], omega=omega)
    configs = []
    for key in ("uql_sweep_a", "uql_sweep_b", "uql_sweep_c"):
        omegas = (inside(), _omega_outside(rng, osc, gamma))
        path = _write_config(out / f"{key}.cfg", {"optimize.omegas": _floats(omegas)})
        configs.append(str(path))
        optimize_op(key, "uql-sweep", ["--config", str(path)], omegas=omegas)
    rng.shuffle(ops)
    return Workload(
        name="cli_optimize",
        cycle=ops,
        # the three sweeps are the costliest operations: 4 cycles give 12
        min_cycles=4,
        setup_code=_setup_code(src, [None, *configs]),
    )


# -- library_spectra --------------------------------------------------------


def library_spectra(seed: int, out: Path, src: Path) -> Workload:
    rng = random.Random(seed)
    osc = fb.quasi_free_oscillator(1.0)
    gamma = 0.01
    xi = math.sqrt(0.5)  # omega_sql = 1 with hbar = 1
    ops = []
    for size, count in zip(LIB_SIZES, LIB_PER_CYCLE):
        for j in range(count):
            ratio = rng.choice((-1.0, 1.0)) * rng.uniform(2.0, 10.0)
            bandwidth = 10.0 ** rng.uniform(-math.log10(3.0), math.log10(3.0))
            cav = optospring.OpticalCavity(gamma, round_trip=gamma / bandwidth, wavevector=1.0)
            wp = optospring.WorkingPoint(detuning=ratio * gamma, coupling=xi)
            lo, hi = 10.0 ** rng.uniform(-2.2, -1.8), 10.0 ** rng.uniform(2.8, 3.2)
            grid = np.geomspace(lo, hi, size)
            ops.append(LibraryOp(f"n{size}_{j}", osc, cav, wp, grid, seed))
    rng.shuffle(ops)
    return Workload(
        name="library_spectra",
        cycle=ops,
        # two 10^6-point groups per cycle: 6 cycles give 12
        min_cycles=6,
        setup_code=(
            f"import sys; sys.path.insert(0, {str(src)!r}); import optospring\n"
            "optospring.quasi_free_oscillator(1.0)\n"
        ),
    )


WORKLOADS = {
    "cli_datasets": cli_datasets,
    "cli_optimize": cli_optimize,
    "library_spectra": library_spectra,
}
