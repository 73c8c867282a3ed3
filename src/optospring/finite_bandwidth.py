"""Exact frequency response of the detuned cavity, no bandwidth limit.

Covers signal frequencies of the order of (or beyond) the cavity
bandwidth: the output phase-quadrature transfer, the equivalent input
noise spectrum, and the location and depth of the dual sensitivity dips
that a detuned finite-bandwidth cavity develops.

The noise is :func:`optospring.quasistatic.noise_over_coupling` on the
cavity, the one real formula, which on a cavity with ``round_trip = 0`` is
the quasi-static chain. The transfer coefficients come from a per-frequency
linear solve over the intracavity quadratures, kept as the independent
validation oracle of that formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    NORMALIZED,
    Constants,
    MechanicalOscillator,
    OpticalCavity,
    QuadratureTransfer,
    WorkingPoint,
    kappa_for_coupling,
    mech_susceptibility,
)
from .errors import NoDipFoundError
from .quasistatic import free_mass_sql_level, noise_over_coupling, sql_frequency, sql_level

DEFAULT_GRID_DECADES = (1e-2, 1e3)
DEFAULT_POINTS_PER_DECADE = 400

# Fig-4-style runs model an essentially free mirror; a small but nonzero
# resonance frequency and damping regularize the static response and the
# spring pole without visible effect on the spectra.
FREE_MASS_RESONANCE_RATIO = 1e-4
FREE_MASS_DAMPING_RATIO = 1e-6


@dataclass(frozen=True)
class NoiseSpectrum:
    """Equivalent-input noise on a frequency grid, with its SQL curve."""

    omega: np.ndarray
    s_sig: np.ndarray
    s_sql: np.ndarray

    @property
    def ratio(self) -> np.ndarray:
        return self.s_sig / self.s_sql


@dataclass(frozen=True)
class DipReport:
    """Positions and depths of the sensitivity dips of one spectrum.

    Depths are referenced to the SQL level at the balance frequency
    ``omega_sql``; ``ratio_local_plus`` compares the loop (plus) dip
    against the SQL at the dip itself, and ``below_sql_plus`` says whether
    it lies below it. Predicted values are the large-detuning asymptotics:
    the spring dip at omega_sql * sqrt(detuning / 2 gamma) (positive
    detuning only), the optical dip at the loop resonance
    bandwidth * sqrt(1 + (detuning/gamma)^2), and a common depth
    2 (gamma / detuning)^2.
    """

    omega_sql: float
    count: int
    omega_minus: float | None
    omega_plus: float | None
    depth_minus: float | None
    depth_plus: float | None
    ratio_local_plus: float | None
    below_sql_plus: bool | None
    predicted_omega_minus: float | None
    predicted_omega_plus: float
    predicted_depth: float


def quasi_free_oscillator(omega_sql: float) -> MechanicalOscillator:
    """Unit-mass oscillator that behaves as a free mass over a spectrum grid.

    Resonance and damping sit FREE_MASS_RESONANCE_RATIO and
    FREE_MASS_DAMPING_RATIO times the balance frequency, so the response
    is -1/omega^2 everywhere the spectrum is evaluated while both the
    static response and the spring pole stay regular.
    """
    return MechanicalOscillator(
        mass=1.0,
        resonance_freq=FREE_MASS_RESONANCE_RATIO * omega_sql,
        damping=FREE_MASS_DAMPING_RATIO * omega_sql,
    )


def full_transfer_by_solve(
    osc: MechanicalOscillator,
    cavity: OpticalCavity,
    wp: WorkingPoint,
    omega: float,
    constants: Constants = NORMALIZED,
) -> QuadratureTransfer:
    """Validation oracle: solve the raw linear system per frequency.

    Unknowns are the intracavity quadratures and the mirror displacement;
    the output quadrature is then formed from the input-output relation.
    Independent of the hand-eliminated noise formula it checks; at omega =
    0 it is the quasi-static chain.
    """
    hbar = constants.hbar
    g, tau = cavity.gamma, cavity.round_trip
    psi, xi = wp.detuning, wp.coupling
    kappa = kappa_for_coupling(cavity, psi, xi)
    r = math.hypot(g, psi)
    cth, sth = g / r, psi / r  # cos/sin of the input mean-field phase
    chi = mech_susceptibility(osc, omega)
    root2g = math.sqrt(2.0 * g)
    a = np.array(
        [
            [g - 1j * omega * tau, psi, 0.0],
            [-psi, g - 1j * omega * tau, -2.0 * kappa],
            [-hbar * kappa * chi, 0.0, 1.0],
        ],
        dtype=complex,
    )
    # one right-hand side column per unit input (p_in, q_in, x_sig); rot holds the
    # input quadratures (p, q) they give at the mean-field phase
    rot = np.array([[cth, sth, 0.0], [-sth, cth, 0.0]])
    b = np.zeros((3, 3), dtype=complex)
    b[:2] = root2g * rot
    b[1, 2] = 2.0 * kappa  # the signal enters the phase quadrature
    p_c, q_c, _ = np.linalg.solve(a, b)
    # output field = -input + sqrt(2 gamma) * intracavity, rotated to
    # the output mean-field phase (the opposite of the input phase)
    v1, v2 = root2g * np.array([p_c, q_c]) - rot
    c_p, c_q, c_sig = -sth * v1 + cth * v2
    return QuadratureTransfer(c_q=c_q, c_p=c_p, c_sig=c_sig)


def log_grid(lo: float, hi: float, points_per_decade: int) -> np.ndarray:
    """Logarithmic frequency grid with a fixed density per decade."""
    if not (0 < lo < hi < math.inf):
        raise ValueError("need 0 < lo < hi < inf")
    if points_per_decade < 1:
        raise ValueError("points_per_decade must be >= 1")
    # a difference of logs, since hi / lo overflows past about 308 decades
    n = int(round((math.log10(hi) - math.log10(lo)) * points_per_decade)) + 1
    return np.geomspace(lo, hi, n)


def default_grid(omega_sql: float) -> np.ndarray:
    """Default spectrum grid around the balance frequency."""
    lo, hi = DEFAULT_GRID_DECADES
    return log_grid(lo * omega_sql, hi * omega_sql, DEFAULT_POINTS_PER_DECADE)


def spectrum(
    osc: MechanicalOscillator,
    cavity: OpticalCavity,
    wp: WorkingPoint,
    grid: np.ndarray,
    constants: Constants = NORMALIZED,
) -> NoiseSpectrum:
    """Exact equivalent-input noise over a frequency grid.

    Coherent input light: :func:`optospring.quasistatic.noise_over_coupling` on
    ``cavity``, quasi-static if its ``round_trip`` is 0, the noise of the transfer that
    :func:`full_transfer_by_solve` solves for, with the SQL curve
    :func:`optospring.quasistatic.sql_level` on the same grid. The grid must be strictly
    increasing and positive, of one point or more. At a real pole of chi_eff the noise
    takes its finite limit. A long grid runs in fixed blocks with bit-identical results.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 1:
        raise ValueError("grid must be a 1-d array with at least 1 point")
    if grid[0] <= 0 or np.any(grid[1:] <= grid[:-1]):
        raise ValueError("grid must be strictly increasing and positive")
    s_sig = noise_over_coupling(osc, cavity, wp.detuning, grid, constants)(wp.coupling)
    return NoiseSpectrum(omega=grid, s_sig=s_sig, s_sql=sql_level(osc, grid, constants))


def _parabolic_refine(x: np.ndarray, y: np.ndarray, i: int) -> tuple[float, float]:
    """Refine a grid minimum by a parabola through three log-log points."""
    lx = np.log(x[i - 1 : i + 2])
    ly = np.log(y[i - 1 : i + 2])
    curv = ly[0] - 2.0 * ly[1] + ly[2]
    if curv <= 0:
        return float(x[i]), float(y[i])
    d = 0.5 * (ly[0] - ly[2]) / curv
    return (
        float(np.exp(lx[1] + d * (lx[1] - lx[0]))),
        float(np.exp(ly[1] - 0.25 * (ly[0] - ly[2]) * d)),
    )


def dip_analysis(
    noise_spectrum: NoiseSpectrum,
    osc: MechanicalOscillator,
    cavity: OpticalCavity,
    wp: WorkingPoint,
    constants: Constants = NORMALIZED,
) -> DipReport:
    """Locate and characterize the sensitivity dips of a spectrum.

    A dip is a strict local minimum of the equivalent-input noise that
    lies below the zero-detuning reference noise at the same coupling;
    the reference is evaluated only at the spectrum's local minima.
    Positions and values are refined by a log-log parabola. Found dips
    are assigned to the mechanical-resonance dip (lower frequency,
    positive detuning only) and the cavity-loop dip by proximity to the
    asymptotic predictions. Raises ``NoDipFoundError`` when the spectrum
    has no minima below the reference (e.g. at zero detuning).
    """
    if wp.coupling <= 0:
        raise ValueError("dip analysis needs a positive coupling")
    grid, s = np.asarray(noise_spectrum.omega), noise_spectrum.s_sig
    g, xi = cavity.gamma, wp.coupling
    inner = s[1:-1]
    minima = np.flatnonzero((inner < s[:-2]) & (inner < s[2:])) + 1
    # the noise is elementwise: the reference at the minima has the whole grid's bits
    reference = noise_over_coupling(osc, cavity, 0.0, grid[minima], constants)(xi)
    found = [_parabolic_refine(grid, s, i) for i in minima[s[minima] < reference]]
    if not found:
        raise NoDipFoundError(
            "no sensitivity dip below the zero-detuning reference on this grid"
        )

    omega_sql = sql_frequency(osc, xi, constants)
    psi = wp.detuning
    beta = 0.5 * psi / g
    pred_minus = omega_sql * math.sqrt(beta) if psi > 0 else None
    pred_plus = cavity.bandwidth * math.sqrt(1.0 + (psi / g) ** 2)
    pred_depth = 2.0 * (g / psi) ** 2 if psi != 0 else math.inf
    s_ref = free_mass_sql_level(osc, omega_sql, constants)

    def distance(cand, pred):  # pred is inf for the loop dip of a quasi-static cavity
        return abs(math.log(cand[0]) - math.log(pred))

    minus = plus = None
    if pred_minus is None:
        # no spring dip expected: the loop dip is the one nearest its prediction
        plus = min(found, key=lambda cand: distance(cand, pred_plus))
    elif len(found) >= 2:
        minus, plus = found[0], found[-1]
    elif distance(found[0], pred_plus) < distance(found[0], pred_minus):
        plus = found[0]
    else:
        minus = found[0]

    ratio_plus = plus[1] / sql_level(osc, plus[0], constants) if plus else None
    return DipReport(
        omega_sql=omega_sql,
        count=len(found),
        omega_minus=minus[0] if minus else None,
        omega_plus=plus[0] if plus else None,
        depth_minus=minus[1] / s_ref if minus else None,
        depth_plus=plus[1] / s_ref if plus else None,
        ratio_local_plus=ratio_plus,
        below_sql_plus=(ratio_plus < 1.0) if plus else None,
        predicted_omega_minus=pred_minus,
        predicted_omega_plus=pred_plus,
        predicted_depth=pred_depth,
    )
