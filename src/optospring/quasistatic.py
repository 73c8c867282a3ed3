"""Measurement chain in the quasi-static (infinite-bandwidth) regime.

Valid for signal frequencies well below the cavity bandwidth: the output
phase quadrature carries the signal amplified by the mirror dynamics on
top of the incident phase and radiation-pressure noises, through the
static spring hbar xi^2 psi / gamma. The one real noise formula
:func:`noise_over_coupling` is this chain at omega * tau = 0 and also runs
the finite-bandwidth spectrum. This module provides the equivalent-input
noise spectrum and its closed form, the standard quantum limit,
closed-form optimal working points at low and high frequency, and the
dissipation-set ultimate limit.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import core
from .core import (
    NORMALIZED,
    Constants,
    MechanicalOscillator,
    OpticalCavity,
    WorkingPoint,
    invert_susceptibility,
    mech_susceptibility,
)
from .errors import (
    DegenerateDissipationError,
    NoMeasurementError,
    SingularPointError,
    StabilityBoundaryError,
)

_NO_SIGNAL = "coupling is zero: the output carries no signal"


@dataclass(frozen=True)
class SqlPoint:
    """Standard-quantum-limit reference at one frequency."""

    coupling: float
    level: float


@dataclass(frozen=True)
class OptimumPoint:
    """An optimal working point and the noise it achieves.

    ``ratio_to_sql`` is referenced to the SQL at ``omega`` when a
    frequency is part of the optimum (the high-frequency case), and to
    the SQL at the evaluation frequency otherwise. ``balanced_*`` carry
    the simpler equal-noise point (phase noise = back-action noise) when
    one exists; the true optimum is slightly better.
    """

    coupling: float | None
    detuning: float | None
    omega: float | None
    level: float
    ratio_to_sql: float
    balanced_coupling: float | None = None
    balanced_ratio: float | None = None


def noise_over_coupling(
    osc: MechanicalOscillator,
    gamma: float,
    detuning: float,
    omega,
    constants: Constants = NORMALIZED,
    round_trip: float = 0.0,
):
    """Equivalent-input noise as a function of the coupling, at any bandwidth.

    Maps a coupling, or an array of couplings broadcast with omega, to the coherent-input
    noise (|c_q|^2 + |c_p|^2) / |c_sig|^2 at omega tau = omega * round_trip. Each
    output coefficient times chi_eff^-1 Delta / u^2 gives real cavity factors,
    exactly 1 or 0 at omega tau = 0: the quasi-static |chi|^2 (|chi_eff^-1|^2 /
    (4 xi^2) + hbar^2 xi^2). Only +, -, * and / enter, so a float and an array
    give the same bits, and the noise stays finite at a real pole of chi_eff.
    A zero coupling, scalar or in an array, raises ``NoMeasurementError``; a
    gamma^2 + detuning^2 underflowing to 0 raises ``SingularPointError`` at the build.
    A float omega is set up and checked at the build, an array omega at the call, in blocks
    (:func:`core.blockwise`), with an array coupling broadcast to its shape. A noise denominator
    of 0, at an undamped resonance or by underflow, raises ``SingularPointError`` naming the
    first omega where it occurs.
    """
    if not 0 < gamma < 1:
        raise ValueError(f"gamma must be in (0, 1), got {gamma!r}")
    psi = WorkingPoint(detuning, 0.0).detuning
    u2 = gamma * gamma + psi * psi
    if not u2 > 0:
        raise SingularPointError(f"gamma^2 + detuning^2 underflows to 0 (gamma={gamma!r})")
    if np.ndim(omega) == 0:  # a scalar frequency stays a Python float for the scalar Brent polish
        return _noise_closure(osc, gamma, psi, u2, float(omega), constants, round_trip)
    omega = np.asarray(omega, dtype=float)
    def block(w, xi):
        return _noise_closure(osc, gamma, psi, u2, w, constants, round_trip)(xi)
    return lambda xi: core.blockwise(block, omega, xi)


def _noise_closure(osc, gamma, psi, u2, omega, constants, round_trip):
    """The setup of :func:`noise_over_coupling` at a float or an array omega, and its closure."""
    re0 = osc.mass * (osc.resonance_freq * osc.resonance_freq - omega * omega)
    im0 = osc.mass * osc.damping * omega  # 1/chi = re0 - i im0
    mag2 = re0 * re0 + im0 * im0  # 1/|chi|^2
    hbar, spring = constants.hbar, constants.hbar * psi / gamma
    hbar2 = hbar * hbar  # the same bits as hbar * hbar * xi2 per call
    # at omega tau = 0 the cavity factors below stay floats (exactly 1 or 0), not
    # grid arrays; the -0.0 of omega * 0.0 at omega < 0 would only enter squared
    w = omega * round_trip if round_trip else 0.0
    gw = gamma * w / u2  # gain Delta / u^2 = 1 - i gw
    # Delta / u^2 = dr + i di; dr in this form stays accurate where Delta is near 0
    dr, di = (gamma * gamma + (psi - w) * (psi + w)) / u2, -2.0 * gw
    a_q = dr + 2.0 * gw * gw  # a_q Delta / u^2
    a_p = -gw * w * psi / (u2 * hbar)  # a_p Delta / (2 hbar u^2)
    jr0, ji = dr * re0 + di * im0, di * re0 - dr * im0  # Delta / (u^2 chi)
    lag = 2.0 * hbar * psi * w / u2  # the phase-lag term of c_q, over xi^2
    # qr + i qi = c_q chi_eff^-1 (Delta / u^2)^2, pr + i pi the same of c_p over 2 hbar xi^2
    qr0, qr1, qi0 = a_q * jr0, a_q * spring - lag * gw, a_q * ji
    pr0, pr1, pi0 = a_p * jr0, a_p * spring + (1.0 - gw * gw), a_p * ji
    den = (dr * dr + di * di) * (1.0 + gw * gw) * mag2
    if not (den if type(den) is float else np.all(den)):  # a float skips numpy
        bad = omega if type(omega) is float else omega[den == 0][0]
        raise SingularPointError(f"noise denominator is 0 at omega={float(bad)!r}")

    def noise_at(xi):
        xi2 = xi * xi
        # a Python float, as the scalar Brent polish passes, is checked without numpy
        if not (xi2 if type(xi2) is float else np.all(xi2)):
            raise NoMeasurementError(_NO_SIGNAL)
        qr, qi = qr0 + qr1 * xi2, qi0 - lag * xi2  # qr = Re chi_eff^-1 at omega tau = 0
        pr, pi = pr0 / xi2 + pr1, pi0 / xi2 + di
        return ((qr * qr + qi * qi) / (4.0 * xi2) + hbar2 * xi2 * (pr * pr + pi * pi)) / den

    return noise_at


def equivalent_input_noise(
    osc: MechanicalOscillator,
    cavity: OpticalCavity,
    wp: WorkingPoint,
    omega,
    constants: Constants = NORMALIZED,
):
    """Equivalent-input noise spectrum of the length measurement.

    Output noise power of coherent input light referred to an apparent
    cavity-length change, (|c_q|^2 + |c_p|^2) / |c_sig|^2, evaluated by
    :func:`noise_over_coupling`; its closed form is
    :func:`equivalent_input_noise_closed_form`.
    """
    return noise_over_coupling(osc, cavity.gamma, wp.detuning, omega, constants)(wp.coupling)


def equivalent_input_noise_closed_form(
    osc: MechanicalOscillator,
    cavity: OpticalCavity,
    wp: WorkingPoint,
    omega,
    constants: Constants = NORMALIZED,
):
    """Closed form of the coherent-input equivalent noise.

    hbar |chi| |chi/chi_eff| (zeta + 1/zeta)/2 with zeta = 2 hbar xi^2 |chi_eff|
    and chi_eff = 1 / (1/chi + hbar xi^2 psi / gamma), which raises where it
    diverges. Kept as an independent route for validating the noise.
    """
    if wp.coupling == 0:
        raise NoMeasurementError(_NO_SIGNAL)
    chi, psi, xi = mech_susceptibility(osc, omega), wp.detuning, wp.coupling
    chi_eff = invert_susceptibility(1.0 / chi + constants.hbar * xi**2 * psi / cavity.gamma)
    zeta = 2.0 * constants.hbar * wp.coupling**2 * np.abs(chi_eff)
    out = (
        constants.hbar
        * np.abs(chi)
        * np.abs(chi / chi_eff)
        * 0.5
        * (zeta + 1.0 / zeta)
    )
    return float(out) if np.asarray(out).ndim == 0 else out


def sql_level(osc: MechanicalOscillator, omega, constants: Constants = NORMALIZED):
    """SQL level hbar |chi| at ``omega``, a frequency or an array of them.

    The one |chi| arithmetic, numpy's complex abs for a float and an array
    alike, so a point and a grid give the same bits. A 1-d array longer than
    ``core.BLOCK`` runs in blocks (:func:`core.blockwise`).
    """
    out = core.blockwise(lambda w: constants.hbar * np.abs(mech_susceptibility(osc, w)), omega)
    return float(out) if np.ndim(out) == 0 else out


def free_mass_sql_level(osc: MechanicalOscillator, omega, constants: Constants = NORMALIZED):
    """SQL level hbar / (M omega^2) of a free mass, the reference of the free-mass regime."""
    return constants.hbar / (osc.mass * (omega * omega))


def sql_point(
    osc: MechanicalOscillator, omega, constants: Constants = NORMALIZED
) -> SqlPoint:
    """Standard quantum limit at ``omega`` for a resonant cavity.

    The coupling at which phase and back-action noises balance, and the
    corresponding minimum noise level :func:`sql_level`.
    """
    level = sql_level(osc, omega, constants)
    return SqlPoint(coupling=1.0 / math.sqrt(2.0 * level), level=level)


def sql_frequency(
    osc: MechanicalOscillator, coupling: float, constants: Constants = NORMALIZED
) -> float:
    """Frequency where a fixed coupling reaches the SQL (free-mass regime).

    In the regime well above the mechanical resonance the balance
    condition picks the single frequency with M omega^2 = 2 hbar xi^2.
    """
    if coupling <= 0:
        raise ValueError("coupling must be > 0")
    return math.sqrt(2.0 * constants.hbar * (coupling * coupling) / osc.mass)


def amplification_factor(
    osc: MechanicalOscillator,
    cavity: OpticalCavity,
    wp: WorkingPoint,
    omega,
    constants: Constants = NORMALIZED,
):
    """Signal amplification |chi_eff / chi| by the mirror dynamics.

    Greater than 1 when the mirror motion adds constructively to the
    signal. Diverges exactly on the static stability boundary.
    """
    chi = mech_susceptibility(osc, omega)
    # the order and products of the static margin in core.stability_margins
    term = 1.0 + constants.hbar * (wp.coupling * wp.coupling) * (wp.detuning / cavity.gamma) * chi
    mag = np.abs(term)
    if np.any(mag == 0):
        raise StabilityBoundaryError(
            "amplification diverges: working point on the static stability boundary"
        )
    out = 1.0 / mag
    return float(out) if np.asarray(out).ndim == 0 else out


def lowfreq_optimum(
    osc: MechanicalOscillator,
    gamma: float,
    detuning: float,
    constants: Constants = NORMALIZED,
) -> OptimumPoint:
    """Best coupling and noise at zero frequency for a given detuning.

    :func:`coupling_optimum` at omega = 0 and the balanced-noise point.
    Negative detuning amplifies the signal here (the static response is
    positive); a positive detuning is accepted but cannot beat the SQL.
    """
    if detuning > 0:
        warnings.warn(
            "positive detuning does not improve the low-frequency sensitivity",
            stacklevel=2,
        )
    best = coupling_optimum(osc, 0.0, detuning, gamma, constants)
    beta = 0.5 * detuning / gamma
    if beta >= 1:  # the balanced (equal-noise) point only exists for beta < 1
        return best
    ref = sql_point(osc, 0.0, constants)
    return replace(
        best,
        balanced_coupling=ref.coupling / math.sqrt(1.0 - beta),
        balanced_ratio=1.0 / (1.0 - beta),
    )


def highfreq_optimum(
    osc: MechanicalOscillator,
    coupling: float,
    detuning: float,
    gamma: float,
    constants: Constants = NORMALIZED,
) -> OptimumPoint:
    """Best frequency for fixed coupling in the free-mass regime.

    For a stiffness-free response (frequencies far above resonance) the
    noise dips below the SQL at a single frequency; positive detuning is
    the amplifying sign here. ``ratio_to_sql`` is referenced to the SQL
    evaluated at the optimal frequency.
    """
    if detuning < 0:
        warnings.warn(
            "negative detuning does not improve the high-frequency sensitivity",
            stacklevel=2,
        )
    beta = 0.5 * detuning / gamma
    root = math.sqrt(1.0 + beta * beta)
    omega_ref = sql_frequency(osc, coupling, constants)
    omega_min = omega_ref * root**0.5
    ratio = root - beta
    level = ratio * free_mass_sql_level(osc, omega_min, constants)
    return OptimumPoint(
        coupling=coupling,
        detuning=detuning,
        omega=omega_min,
        level=level,
        ratio_to_sql=ratio,
    )


def coupling_optimum(
    osc: MechanicalOscillator,
    omega,
    detuning: float,
    gamma: float,
    constants: Constants = NORMALIZED,
) -> OptimumPoint:
    """Optimal coupling at fixed frequency and detuning, any response.

    Valid for an arbitrary complex susceptibility; reduces to the low-
    and high-frequency forms when the response is purely real. The
    improvement term scales with Re(chi)/|chi|, so detuning cannot help
    exactly on the mechanical resonance.
    """
    chi = mech_susceptibility(osc, omega)
    beta = 0.5 * detuning / gamma
    root = math.sqrt(1.0 + beta * beta)
    ref = sql_point(osc, omega, constants)
    ratio = root + beta * chi.real / float(np.abs(chi))  # the |chi| of sql_level
    return OptimumPoint(
        coupling=ref.coupling / root**0.5,
        detuning=detuning,
        omega=None,
        level=ratio * ref.level,
        ratio_to_sql=ratio,
    )


def ultimate_quantum_limit(
    osc: MechanicalOscillator,
    omega,
    gamma: float,
    constants: Constants = NORMALIZED,
) -> OptimumPoint:
    """Joint optimum over coupling and detuning at one frequency.

    The noise floor reachable by detuning is set solely by mechanical
    dissipation: hbar |Im chi|, reached at a finite optimal detuning.
    Requires damping > 0; an undamped oscillator has no such floor off
    resonance.
    """
    if osc.damping == 0:
        raise DegenerateDissipationError(
            "ultimate limit undefined for an undamped oscillator"
        )
    chi = mech_susceptibility(osc, omega)
    if chi.imag == 0:
        raise DegenerateDissipationError(f"no ultimate limit where Im chi = 0 (omega={omega!r})")
    detuning_min = 2.0 * gamma * (-chi.real / abs(chi.imag))
    return replace(
        coupling_optimum(osc, omega, detuning_min, gamma, constants),
        level=constants.hbar * abs(chi.imag),
        ratio_to_sql=abs(chi.imag) / float(np.abs(chi)),
    )
