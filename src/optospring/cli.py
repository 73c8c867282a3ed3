"""Command-line front end.

Subcommands: ``spectrum`` (equivalent-input noise tables), ``optimize``
(numeric optima with closed-form comparisons), ``stability`` (working-
point stability grid) and ``figure`` (named benchmark datasets fig2,
fig3, fig4). Outputs are bit-stable: no timestamps, floats written with
full round-trip precision, each file written atomically (``figure``
writes its files one by one: a failed write keeps those written before).

Exit codes: 0 success, 2 configuration error (or no dissipation to
optimize against, or an output path that cannot be written), 3
numerical singularity or a non-finite result, 4 non-convergence.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import asdict, replace

import numpy as np

from . import core
from . import finite_bandwidth as fb
from . import floattext
from . import optimize as opt
from . import quasistatic as qs
from .config import KNOWN_KEYS, RunConfig, load_run_config
from .core import WorkingPoint, stability
from .errors import (
    ConfigError,
    ConvergenceError,
    DegenerateDissipationError,
    NoMeasurementError,
    SingularPointError,
)

SCHEMA_VERSION = "v1"

# figure id -> (log grid lo, hi, points per decade; detuning/gamma per curve;
# bandwidth/omega_sql per curve, or None for a quasi-static figure)
FIGURES = {
    "fig2": ((1e-2, 1e2, 200), (0.0, -2.0, -5.0, -10.0), None),
    "fig3": ((1e-1, 1e1, 400), (0.0, 2.0, 5.0, 10.0), None),
    "fig4": (
        (1e-2, 1e3, 400),
        (0.0, 2.0, 5.0, 10.0, -10.0, -10.0),
        (2.0, 2.0, 2.0, 2.0, 2.0, 1.0 / 3.0),
    ),
}
CURVE_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".optospring-{os.urandom(8).hex()}")
    try:  # mode 0o666 less the umask, as a plain open gives; mkstemp would give 0o600
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.filename == tmp:  # name the target, not tmp
            raise OSError(exc.errno, exc.strerror, path) from None
        raise


def _write_json(path: str, doc: dict) -> None:
    try:
        text = json.dumps(doc, sort_keys=True, allow_nan=False)
    except ValueError:  # an inf or nan anywhere in a report or manifest: refused before any write
        raise SingularPointError(f"non-finite result in {path}") from None
    _atomic_write(path, text + "\n")


# a flag's two cells, false then true, as NUL-padded byte rows
_FLAG_WORDS = {
    fmt: np.array(words, dtype="S").view(np.uint8).reshape(2, -1)
    for fmt, words in (("csv", ["0", "1"]), ("json", ["false", "true"]))
}


def _distinct(col: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """A column's distinct values by bits, and where each cell is among them.

    -0.0 and 0.0 are told apart. A column of distinct values is its own
    answer, with ``None`` for the index; any other has its sorted distinct
    bits found again by a binary search.
    """
    bits = col.view(f"u{col.dtype.itemsize}")
    ordered = np.sort(bits)
    new = ordered[1:] != ordered[:-1]
    if new.all():  # also a column of fewer than two cells
        return col, None
    distinct = ordered[np.concatenate(([True], new))]
    return distinct.view(col.dtype), np.searchsorted(distinct, bits)


def _column_key(col: np.ndarray) -> tuple[str, bytes]:
    """Equal keys are equal bits, so equal cells; -0.0 and 0.0 differ."""
    return col.dtype.str, col.tobytes()


def _cells(tables: list[np.ndarray], out_format: str) -> list[list[np.ndarray]]:
    """The cells of every field of every table, each a NUL-padded byte matrix, one row per cell.

    Columns with equal bits, in any tables, share one matrix, made once.
    A float is its shortest round-trip ``repr``: each distinct value of
    each distinct float column goes to one :func:`floattext.reprs` call.
    A flag indexes two constant words, 0/1 in CSV and false/true in JSON.
    """
    keys = [[_column_key(t[name]) for name in t.dtype.names] for t in tables]
    columns = {key: t[n] for t, row in zip(tables, keys) for key, n in zip(row, t.dtype.names)}
    floats = {key: _distinct(col) for key, col in columns.items() if col.dtype.kind == "f"}
    text = floattext.reprs(np.concatenate([np.empty(0)] + [v for v, _ in floats.values()]))
    cells, start = {}, 0
    for key, col in columns.items():
        if key in floats:
            values, index = floats[key]
            part, start = text[start : start + len(values)], start + len(values)
            cells[key] = part if index is None else part[index]
        elif col.dtype.kind == "b":
            cells[key] = _FLAG_WORDS[out_format][col.view(np.uint8)]
        else:
            raise TypeError(f"a data column is float or bool, not {col.dtype}")
    return [[cells[key] for key in row] for row in keys]


def _joined(cells: list[np.ndarray], start: bytes, sep: bytes, end: bytes) -> str:
    """Each row's cells joined by ``sep`` between ``start`` and ``end``, rows run together.

    The cell matrices are set side by side with the separators as
    columns between them, and the NUL padding is dropped.
    """
    pieces = [start] + [piece for col in cells for piece in (col, sep)]
    pieces[-1] = end
    pieces = [np.frombuffer(p, np.uint8) if isinstance(p, bytes) else p for p in pieces]
    table = np.empty((len(cells[0]), sum(p.shape[-1] for p in pieces)), np.uint8)
    at = 0
    for piece in pieces:
        table[:, at : at + piece.shape[-1]] = piece
        at += piece.shape[-1]
    return table[table != 0].tobytes().decode("ascii")


def write_table(
    path: str,
    kind: str,
    out_format: str,
    param_lines: list[str],
    columns: list[str],
    blocks: list[tuple[str, np.ndarray]],
    cells: list[list[np.ndarray]],
) -> None:
    """Emit a dataset as CSV (comment header + rows) or its JSON mirror.

    Each block is a ``(label, table)`` pair: ``table`` is a numpy
    structured array, one row per data row and one field per entry of
    ``columns``, in order, as built by ``np.rec.fromarrays(columns)``.
    ``cells`` holds each block's fields as :func:`_cells` formats them,
    and both formats are joined from those cells: a JSON number is the
    CSV's ``repr`` cell, and only the text fields (schema, params,
    columns, labels) go through ``json.dumps``, so the JSON equals
    ``json.dumps(doc, sort_keys=True)`` of the same document.
    """
    if out_format == "csv":
        lines = [f"# optospring {kind} {SCHEMA_VERSION}"]
        lines += [f"# {p}" for p in param_lines]
        lines.append(",".join(columns))
        texts = ["\n".join(lines) + "\n"]
        for (label, table), row in zip(blocks, cells):
            if label:
                texts.append(f"# {label}\n")
            if len(table):
                texts.append(_joined(row, b"", b",", b"\n"))
        _atomic_write(path, "".join(texts))
    else:
        # the keys in sort_keys order with json.dumps' default separators
        texts = []
        for (label, table), row in zip(blocks, cells):
            rows = f"[{_joined(row, b'[', b', ', b'], ')[:-2]}]" if len(table) else "[]"
            texts.append(f'{{"label": {json.dumps(label)}, "rows": {rows}}}')
        schema = f"optospring.{kind}.{SCHEMA_VERSION}"
        text = (
            f'{{"blocks": [{", ".join(texts)}], "columns": {json.dumps(columns)}, '
            f'"params": {json.dumps(param_lines)}, "schema": {json.dumps(schema)}}}\n'
        )
        _atomic_write(path, text)


def write_datasets(out_format: str, files: list[tuple]) -> None:
    """Write ``(path, kind, param_lines, columns, blocks)`` files once all are finite.

    Every float column of every file is checked first: a non-finite cell
    raises :class:`SingularPointError` naming the file, the column and
    the first such data row (counted from 1 over all blocks), and no file
    is written. Then one :func:`_cells` call formats the columns of every
    file, each distinct column once, and each file joins its rows.
    """
    for path, _, _, columns, blocks in files:
        row = 0
        for _, table in blocks:
            floats = [(c, table[n]) for c, n in zip(columns, table.dtype.names)]
            floats = [(c, col) for c, col in floats if col.dtype.kind == "f"]
            finite = np.isfinite(np.column_stack([col for _, col in floats]))
            if not finite.all():  # row-major: the first bad row, then its first bad column
                first, j = np.argwhere(~finite)[0]
                raise SingularPointError(
                    f"non-finite result in {path}: "
                    f"column {floats[j][0]!r}, data row {row + first + 1}"
                )
            row += len(table)
    cells = iter(_cells([t for *_, blocks in files for _, t in blocks], out_format))
    for path, kind, param_lines, columns, blocks in files:
        file_cells = [next(cells) for _ in blocks]
        write_table(path, kind, out_format, param_lines, columns, blocks, file_cells)


def read_table(path: str):
    """Re-parse an emitted CSV dataset: (params, columns, rows)."""
    params, columns, rows = [], None, []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                params.append(line[1:].strip())
                continue
            if not line:
                continue
            if columns is None:
                columns = line.split(",")
            else:
                rows.append([float(x) for x in line.split(",")])
    return params, columns, rows


def _out_path(cfg: RunConfig, default_stem: str) -> str:
    return cfg.output_path or f"{default_stem}.{cfg.output_format}"


def _axis(key: str, build, *args) -> np.ndarray:
    """``build(*args)``, the axis that config ``key`` sizes, if allocatable and strictly increasing.

    A range finer than the floats repeats a value.
    """
    try:
        axis = build(*args)
    except MemoryError as exc:
        raise ConfigError(f"{key}: too many points: {exc}") from None
    if not np.all(axis[1:] > axis[:-1]):
        raise ConfigError(f"{key}: more points than floats in its range")
    return axis


def cmd_spectrum(cfg: RunConfig) -> int:
    """Equivalent-input noise tables, one block per working point."""
    blocks = []
    for wp in cfg.points:
        psi, xi = wp.detuning, wp.coupling
        try:  # a zero coupling raises ValueError; one past ~1e154 gives omega_sql = inf
            omega_sql = qs.sql_frequency(cfg.oscillator, xi, cfg.constants)
        except ValueError:
            omega_sql = math.nan
        scale = omega_sql if cfg.grid_units == "omega_sql" else 1.0
        lo, hi = cfg.grid_lo * scale, cfg.grid_hi * scale
        if not (0 < omega_sql < math.inf and 0 < lo < hi < math.inf):
            raise ConfigError(f"coupling {xi!r} gives no balance frequency or grid in float range")
        grid = _axis("grid.points_per_decade", fb.log_grid, lo, hi, cfg.grid_points_per_decade)
        sp = fb.spectrum(cfg.oscillator, cfg.cavity, wp, grid, cfg.constants)
        table = np.rec.fromarrays([sp.omega / scale, sp.s_sig, sp.s_sql, sp.ratio])
        label = f"point detuning={psi!r} coupling={xi!r} omega_sql={omega_sql!r}"
        blocks.append((label, table))
    path = _out_path(cfg, "spectrum")
    columns = ["omega_norm", "s_sig", "s_sql", "ratio"]
    write_datasets(cfg.output_format, [(path, "spectrum", cfg.param_lines(), columns, blocks)])
    print(path)
    return 0


def _converged(res: opt.OptimResult, unconverged: str) -> opt.OptimResult:
    """``res`` if its search converged, else exit 4."""
    if not res.converged:
        raise ConvergenceError(unconverged)
    return res


def _detuning_optimum(cfg: RunConfig, omega: float, spec: opt.SearchSpec):
    """The closed-form UQL at one frequency, then the detuning search it checks."""
    osc, gamma = cfg.oscillator, cfg.cavity.gamma
    uql = qs.ultimate_quantum_limit(osc, omega, gamma, cfg.constants)
    res = opt.minimize_over_detuning(osc, gamma, omega, spec, cfg.constants)
    return uql, _converged(res, f"detuning search did not converge at omega={omega!r}")


def cmd_optimize(cfg: RunConfig) -> int:
    """Numeric optimum report (JSON), with closed-form comparison."""
    osc, gamma, spec = cfg.oscillator, cfg.cavity.gamma, opt.SearchSpec()
    _static_sql(osc, cfg.constants)  # a static response outside float range is a config error
    report: dict = {"mode": cfg.optimize_mode, "units": cfg.units}
    if cfg.optimize_mode == "uql-sweep":
        rows = []
        for omega in cfg.optimize_omegas:
            uql, res = _detuning_optimum(cfg, omega, spec)
            rows.append(
                {
                    "omega": omega,
                    "level": res.level,
                    "uql_level": uql.level,
                    "detuning": res.detuning,
                    "coupling2": res.coupling2,
                }
            )
        report["sweep"] = rows
    else:
        omega, closed_form = cfg.optimize_omega, {}
        if cfg.optimize_mode == "xi":
            res = opt.minimize_xi_quasistatic(
                osc, gamma, cfg.optimize_detuning, omega, spec, constants=cfg.constants
            )
            res = _converged(res, "coupling search did not converge")
            closed = qs.coupling_optimum(osc, omega, res.detuning, gamma, cfg.constants)
        else:
            closed, res = _detuning_optimum(cfg, omega, spec)
            closed_form["detuning"] = closed.detuning
        closed_form.update(
            coupling2=closed.coupling**2, level=closed.level, ratio_to_sql=closed.ratio_to_sql
        )
        wp_min = WorkingPoint(res.detuning, math.sqrt(res.coupling2))
        report.update(
            omega=omega,
            detuning=res.detuning,
            coupling2=res.coupling2,
            level=res.level,
            ratio_to_sql=res.ratio_to_sql,
            iterations=res.iterations,
            converged=res.converged,
            constraint_active=res.constraint_active,
            closed_form=closed_form,
            stability=asdict(stability(osc, cfg.cavity, wp_min, cfg.constants)),
        )
    path = cfg.output_path or "optimize.json"
    _write_json(path, report)
    print(path)
    return 0


def _static_sql(osc, constants) -> tuple[float, float]:
    """Static response chi0 = 1 / (M Omega^2) and its SQL coupling^2 1 / (2 hbar chi0)."""
    try:  # an M Omega^2 that underflows to 0 or overflows to inf divides by 0
        chi0 = core.static_susceptibility(osc)
        xi_sql2 = 1.0 / (2.0 * constants.hbar * chi0)
        if 0 < chi0 < math.inf and 0 < xi_sql2 < math.inf:
            return chi0, xi_sql2
    except ZeroDivisionError:
        pass
    raise ConfigError(
        f"oscillator mass {osc.mass!r} and resonance_freq {osc.resonance_freq!r} "
        "give no static response or SQL coupling in float range"
    )


def cmd_stability(cfg: RunConfig) -> int:
    """Stability grid over (coupling^2, detuning), normalized axes."""
    xi_sql2 = _static_sql(cfg.oscillator, cfg.constants)[1]
    gamma = cfg.cavity.gamma
    xi2_norm = _axis("stability.xi2", np.geomspace, *cfg.stability_xi2)
    psi_norm = _axis("stability.psi", np.linspace, *cfg.stability_psi)
    try:  # stability_map checks the window times gamma against (-pi, pi]
        grid = core.stability_map(
            cfg.oscillator, cfg.cavity, xi2_norm * xi_sql2, psi_norm * gamma, cfg.constants
        )
    except ValueError as exc:
        raise ConfigError(f"stability.psi times cavity.gamma: {exc}") from None
    # rows run over psi, then xi2; the flags stay bool, as in fig2
    maps = (grid.static_ok, grid.dynamic_ok, grid.static_margin, grid.dynamic_margin)
    axes = [np.tile(xi2_norm, psi_norm.size), np.repeat(psi_norm, xi2_norm.size)]
    table = np.rec.fromarrays(axes + [a.ravel() for a in maps])
    path = _out_path(cfg, "stability")
    params = cfg.param_lines() + [f"xi2_norm unit = {xi_sql2!r}", f"psi_norm unit = {gamma!r}"]
    columns = ["xi2_norm", "psi_norm", "static_ok", "dynamic_ok", "static_margin", "dynamic_margin"]
    write_datasets(cfg.output_format, [(path, "stability", params, columns, [("", table)])])
    print(path)
    return 0


def cmd_figure(
    cfg: RunConfig,
    figure: str,
    detunings: tuple[float, ...] | None,
    bandwidths: tuple[float, ...] | None,
    out_dir: str,
    grid_flag: str | None,
) -> int:
    """Emit one dataset file per curve of a named figure, plus a manifest."""
    if figure not in FIGURES:
        raise ConfigError(f"unknown figure id {figure!r} (expected fig2, fig3 or fig4)")
    if cfg.units != "normalized":
        raise ConfigError("figure datasets are defined in normalized units")
    gamma = cfg.cavity.gamma
    grid_spec, default_ratios, default_bws = FIGURES[figure]
    ratios = detunings or default_ratios
    if default_bws is None:
        if bandwidths:
            raise ConfigError(f"--bandwidths does not apply to {figure}")
        bws = (None,) * len(ratios)
    else:
        bws = bandwidths or (default_bws if ratios == default_ratios else (2.0,) * len(ratios))
        if len(bws) != len(ratios):
            raise ConfigError("--bandwidths must match --detunings in length")
        if not all(0 < b < math.inf for b in bws):
            raise ConfigError(f"--bandwidths must be finite and > 0, got {bws!r}")
    # without the flag, the ratios out of range are the figure's own
    name = "--detunings times gamma"
    if detunings is None:
        name = f"{figure} default detuning/gamma ratios times cavity.gamma"
    try:
        core.check_detuning(name, [r * gamma for r in ratios])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if len(ratios) > len(CURVE_LETTERS):
        raise ConfigError(f"a figure has at most {len(CURVE_LETTERS)} curves")
    if grid_flag is not None:  # the flag went through the config checks as grid.* overrides
        grid_spec = (cfg.grid_lo, cfg.grid_hi, cfg.grid_points_per_decade)
    grid = _axis("grid.points_per_decade", fb.log_grid, *grid_spec)

    osc = cfg.oscillator
    if figure == "fig2":
        chi0, xi_sql2 = _static_sql(osc, cfg.constants)
        s_sql = cfg.constants.hbar * chi0
        columns = ["xi2_norm", "s_sig", "s_sql", "ratio", "static_ok", "dynamic_ok"]
        normalization = {
            "x": "coupling^2 over the zero-frequency SQL coupling^2",
            "xi_sql2": xi_sql2,
            "s_sql": s_sql,
            "frequency": 0.0,
        }
        coupling2 = grid * xi_sql2
        xi, psis = np.sqrt(coupling2), np.array(ratios) * gamma
        flags = core.stability_map(osc, cfg.cavity, coupling2, psis, cfg.constants)
        sql_col = np.full(grid.shape, s_sql)
        quasi = replace(cfg.cavity, round_trip=0.0)
        noise = qs.noise_over_coupling(osc, quasi, psis[:, None], 0.0, cfg.constants)(xi)
        tables = [
            np.rec.fromarrays([grid, s, sql_col, s / s_sql, static, dynamic])
            for s, static, dynamic in zip(noise, flags.static_ok, flags.dynamic_ok)
        ]
    else:
        omega_sql = 1.0
        xi = math.sqrt(0.5 / cfg.constants.hbar)  # makes omega_sql exactly 1
        osc = fb.quasi_free_oscillator(omega_sql)
        columns = ["omega_norm", "s_sig", "s_sql", "ratio"]
        normalization = {
            "x": "frequency over the balance frequency omega_sql",
            "omega_sql": omega_sql,
            "s_ref": qs.free_mass_sql_level(osc, omega_sql, cfg.constants),
            "coupling2": xi**2,
        }
        tables = []
        for r, bw in zip(ratios, bws):  # a bandwidth makes the curve finite-bandwidth
            cavity = replace(cfg.cavity, round_trip=gamma / (bw * omega_sql) if bw else 0.0)
            sp = fb.spectrum(osc, cavity, WorkingPoint(r * gamma, xi), grid, cfg.constants)
            tables.append(np.rec.fromarrays([grid, sp.s_sig, sp.s_sql, sp.ratio]))

    manifest: dict = {
        "schema": f"optospring.figure.{SCHEMA_VERSION}",
        "figure": figure,
        "units": "normalized",
        "format": cfg.output_format,
        "normalization": normalization,
        "parameters": {"gamma": gamma, "oscillator": asdict(osc)},
        "curves": {},
    }
    files = []
    for letter, r, bw, table in zip(CURVE_LETTERS, ratios, bws, tables):
        entry = {"file": f"{figure}_curve_{letter}.{cfg.output_format}", "detuning_over_gamma": r}
        label = f"curve {letter}: detuning_over_gamma={r!r}"
        if bw is not None:
            entry["bandwidth_over_omega_sql"] = bw
            label += f" bandwidth_over_omega_sql={bw!r}"
        path = os.path.join(out_dir, entry["file"])
        files.append((path, f"{figure}-curve", [label], columns, [("", table)]))
        manifest["curves"][letter] = entry
    write_datasets(cfg.output_format, files)
    manifest_path = os.path.join(out_dir, f"{figure}_manifest.json")
    _write_json(manifest_path, manifest)
    print(manifest_path)
    return 0


def _parse_ratio(text: str) -> float:
    """A float, allowing a simple fraction like 1/3."""
    text = text.strip()
    num, slash, den = text.partition("/")
    try:
        return float(num) / float(den) if slash else float(num)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad ratio {text!r}: {exc}") from None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The flags; each one that sets a config key has that key as its ``dest``.

    Built on the first call and shared after it: :func:`main` parses every
    argv of a process with one parser, since ``parse_args`` keeps no state
    on it and returns a fresh namespace each time.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="configuration file")
    common.add_argument("--out", metavar="PATH", help="output path (or directory for figure)")
    common.add_argument("--format", dest="output.format", help="output format: csv or json")
    common.add_argument("--grid", metavar="LO:HI:PPD", help="log grid spec")
    units = common.add_mutually_exclusive_group()
    units.add_argument(
        "--normalized", dest="units", action="store_const", const="normalized",
        help="normalized units (hbar = 1)",
    )
    units.add_argument("--si", dest="units", action="store_const", const="si", help="SI units")

    parser = argparse.ArgumentParser(
        prog="optospring",
        description="Quantum-noise-limited sensitivity of a detuned cavity "
        "with a movable mirror",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("spectrum", parents=[common], help="equivalent-input noise tables")
    p_opt = sub.add_parser("optimize", parents=[common], help="numeric optimum report")
    p_opt.add_argument("--mode", dest="optimize.mode", help="xi, detuning or uql-sweep")
    p_opt.add_argument("--omega", dest="optimize.omega", help="evaluation frequency (rad/s)")
    p_opt.add_argument("--detuning", dest="optimize.detuning", help="fixed detuning, xi mode (rad)")
    sub.add_parser("stability", parents=[common], help="stability grid")
    p_fig = sub.add_parser("figure", parents=[common], help="benchmark figure datasets")
    p_fig.add_argument("figure_id", help="fig2, fig3 or fig4")
    p_fig.add_argument("--detunings", help="comma list of detuning/gamma ratios")
    p_fig.add_argument("--bandwidths", help="comma list of bandwidth/omega_sql ratios (fig4)")
    return parser


def _config_overrides(args) -> dict[str, str]:
    """The flags as config text, parsed by the config like file and env values."""
    overrides = {k: v for k, v in vars(args).items() if k in KNOWN_KEYS and v is not None}
    if args.out and args.command != "figure":
        overrides["output.path"] = args.out
    if args.grid is not None:
        parts = args.grid.split(":")
        if len(parts) != 3:
            raise ConfigError(f"--grid expects lo:hi:points-per-decade, got {args.grid!r}")
        overrides["grid.lo"], overrides["grid.hi"] = parts[0], parts[1]
        overrides["grid.points_per_decade"] = parts[2]
    return overrides


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with np.errstate(all="ignore"):  # a non-finite cell is refused by name, not warned of
            cfg = load_run_config(args.config, _config_overrides(args))
            if args.command == "spectrum":
                return cmd_spectrum(cfg)
            if args.command == "optimize":
                return cmd_optimize(cfg)
            if args.command == "stability":
                return cmd_stability(cfg)
            detunings, bandwidths = (  # a flag given empty is a bad ratio, not unset
                None if text is None else tuple(_parse_ratio(x) for x in text.split(","))
                for text in (args.detunings, args.bandwidths)
            )
            return cmd_figure(
                cfg, args.figure_id, detunings, bandwidths, args.out or "figures", args.grid
            )
    # every array the CLI allocates scales with a config axis: too large a one is a config error
    except (ConfigError, DegenerateDissipationError, NoMeasurementError, MemoryError) as exc:
        print(f"optospring: config error: {exc}", file=sys.stderr)
        return 2
    except SingularPointError as exc:
        print(f"optospring: singular point: {exc}", file=sys.stderr)
        return 3
    except ConvergenceError as exc:
        print(f"optospring: non-convergence: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:  # config reads are ConfigError; only output writes get here
        print(f"optospring: cannot write output: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
