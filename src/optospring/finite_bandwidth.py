"""Exact frequency response of the detuned cavity, no bandwidth limit.

Covers signal frequencies of the order of (or beyond) the cavity
bandwidth: the output phase-quadrature transfer, the equivalent input
noise spectrum, and the location and depth of the dual sensitivity dips
that a detuned finite-bandwidth cavity develops.

The transfer coefficients come from the response kernel
:func:`optospring.core.spring_response`, the same kernel that runs the
quasi-static chain at omega * tau = 0; the mirror coordinate is folded
in through the effective susceptibility. A redundant per-frequency
linear solve over the intracavity quadratures is kept as an independent
validation oracle.
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
    spring_response,
)
from .errors import NoDipFoundError, SingularPointError
from .quasistatic import sql_frequency

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
    ``omega_sql``; ``ratio_local_*`` compare against the SQL at the dip
    itself. Predicted values are the large-detuning asymptotics: the
    spring dip at omega_sql * sqrt(detuning / 2 gamma) (positive detuning
    only), the optical dip at the loop resonance
    bandwidth * sqrt(1 + (detuning/gamma)^2), and a common depth
    2 (gamma / detuning)^2.
    """

    omega_sql: float
    count: int
    omega_minus: float | None
    omega_plus: float | None
    depth_minus: float | None
    depth_plus: float | None
    ratio_local_minus: float | None
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


def full_transfer(
    osc: MechanicalOscillator,
    cavity: OpticalCavity,
    wp: WorkingPoint,
    omega,
    constants: Constants = NORMALIZED,
) -> QuadratureTransfer:
    """Exact output phase-quadrature coefficients at ``omega``.

    The response kernel at omega * tau; reduces to the quasi-static
    transfer as omega * round_trip -> 0. Raises if the effective
    susceptibility diverges at a real grid frequency.
    """
    omega = np.asarray(omega, dtype=float)
    chi, omtau = mech_susceptibility(osc, omega), omega * cavity.round_trip
    psi, xi = wp.detuning, wp.coupling
    return spring_response(chi, cavity.gamma, omtau, psi, xi, constants.hbar)[1]


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
    Independent of the hand-eliminated closed form used by
    :func:`full_transfer`.
    """
    hbar = constants.hbar
    g, tau, k = cavity.gamma, cavity.round_trip, cavity.wavevector
    psi, xi = wp.detuning, wp.coupling
    kappa = kappa_for_coupling(cavity, psi, xi)
    r = math.hypot(g, psi)
    cth, sth = g / r, psi / r  # cos/sin of the input mean-field phase
    chi = mech_susceptibility(osc, omega)
    root2g = math.sqrt(2.0 * g)

    coeffs = []
    for p_in, q_in, x_sig in np.eye(3):
        a = np.array(
            [
                [g - 1j * omega * tau, psi, 0.0],
                [-psi, g - 1j * omega * tau, -2.0 * kappa],
                [-hbar * kappa * chi, 0.0, 1.0],
            ],
            dtype=complex,
        )
        b = np.array(
            [
                root2g * (cth * p_in + sth * q_in),
                root2g * (cth * q_in - sth * p_in) + 2.0 * kappa * x_sig,
                0.0,
            ],
            dtype=complex,
        )
        p_c, q_c, _ = np.linalg.solve(a, b)
        # output field = -input + sqrt(2 gamma) * intracavity, rotated to
        # the output mean-field phase (the opposite of the input phase)
        v1 = -(cth * p_in + sth * q_in) + root2g * p_c
        v2 = -(cth * q_in - sth * p_in) + root2g * q_c
        coeffs.append(-sth * v1 + cth * v2)
    c_p, c_q, c_sig = coeffs
    return QuadratureTransfer(c_q=c_q, c_p=c_p, c_sig=c_sig)


def log_grid(lo: float, hi: float, points_per_decade: int) -> np.ndarray:
    """Logarithmic frequency grid with a fixed density per decade."""
    if not (0 < lo < hi):
        raise ValueError("need 0 < lo < hi")
    if points_per_decade < 1:
        raise ValueError("points_per_decade must be >= 1")
    n = int(round(math.log10(hi / lo) * points_per_decade)) + 1
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

    Coherent input light: the output noise |c_q|^2 + |c_p|^2 over the
    signal transduction |c_sig|^2 of :func:`full_transfer`. Also
    evaluates the SQL reference curve hbar |chi| on the same grid. The
    grid must be strictly increasing and positive. Singularities are
    reported with the offending frequency.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValueError("grid must be a 1-d array with at least 2 points")
    if grid[0] <= 0 or np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing and positive")
    t = full_transfer(osc, cavity, wp, grid, constants)
    power = np.abs(t.c_q) ** 2 + np.abs(t.c_p) ** 2
    sig2 = np.abs(t.c_sig) ** 2
    if np.any(sig2 == 0):
        bad = grid[np.nonzero(sig2 == 0)][0]
        raise SingularPointError(f"no signal transduction at omega={bad!r}")
    s_sql = constants.hbar * np.abs(mech_susceptibility(osc, grid))
    return NoiseSpectrum(omega=grid, s_sig=power / sig2, s_sql=s_sql)


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

    A dip is a local minimum of the equivalent-input noise that lies
    below the zero-detuning reference spectrum at the same coupling;
    positions and values are refined by a log-log parabola. Found dips
    are assigned to the mechanical-resonance dip (lower frequency,
    positive detuning only) and the cavity-loop dip by proximity to the
    asymptotic predictions. Raises ``NoDipFoundError`` when the spectrum
    has no minima below the reference (e.g. at zero detuning).
    """
    if wp.coupling <= 0:
        raise ValueError("dip analysis needs a positive coupling")
    grid, s = noise_spectrum.omega, noise_spectrum.s_sig
    reference = spectrum(
        osc,
        cavity,
        WorkingPoint(detuning=0.0, coupling=wp.coupling),
        grid,
        constants=constants,
    ).s_sig

    found = []
    for i in range(1, len(grid) - 1):
        if s[i] < s[i - 1] and s[i] < s[i + 1] and s[i] < reference[i]:
            found.append(_parabolic_refine(grid, s, i))
    if not found:
        raise NoDipFoundError(
            "no sensitivity dip below the zero-detuning reference on this grid"
        )

    omega_sql = sql_frequency(osc, wp.coupling, constants)
    g, psi = cavity.gamma, wp.detuning
    beta = 0.5 * psi / g
    pred_minus = omega_sql * math.sqrt(beta) if psi > 0 else None
    pred_plus = cavity.bandwidth * math.sqrt(1.0 + (psi / g) ** 2)
    pred_depth = 2.0 * (g / psi) ** 2 if psi != 0 else math.inf
    s_ref = constants.hbar / (osc.mass * omega_sql**2)

    def distance(cand, pred):
        return abs(math.log(cand[0] / pred))

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

    def local_ratio(dip):
        chi = mech_susceptibility(osc, dip[0])
        return dip[1] / (constants.hbar * abs(chi))

    return DipReport(
        omega_sql=omega_sql,
        count=len(found),
        omega_minus=minus[0] if minus else None,
        omega_plus=plus[0] if plus else None,
        depth_minus=minus[1] / s_ref if minus else None,
        depth_plus=plus[1] / s_ref if plus else None,
        ratio_local_minus=local_ratio(minus) if minus else None,
        ratio_local_plus=local_ratio(plus) if plus else None,
        below_sql_plus=(local_ratio(plus) < 1.0) if plus else None,
        predicted_omega_minus=pred_minus,
        predicted_omega_plus=pred_plus,
        predicted_depth=pred_depth,
    )
