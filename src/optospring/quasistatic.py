"""Measurement chain in the quasi-static (infinite-bandwidth) regime.

Valid for signal frequencies well below the cavity bandwidth: the output
phase quadrature carries the signal amplified by the mirror dynamics on
top of the incident phase and radiation-pressure noises. The transfer is
the response kernel :func:`optospring.core.spring_response` at omega *
tau = 0 (static spring hbar xi^2 psi / gamma); the noise is its real
inverse form. This module provides the output-quadrature transfer, the
equivalent-input noise spectrum, the standard quantum limit, closed-form
optimal working points at low and high frequency, and the
dissipation-set ultimate limit.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import (
    NORMALIZED,
    Constants,
    MechanicalOscillator,
    OpticalCavity,
    QuadratureTransfer,
    WorkingPoint,
    mech_susceptibility,
    spring_response,
)
from .errors import (
    DegenerateDissipationError,
    NoMeasurementError,
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


def quadrature_transfer(
    osc: MechanicalOscillator,
    cavity: OpticalCavity,
    wp: WorkingPoint,
    omega,
    constants: Constants = NORMALIZED,
) -> QuadratureTransfer:
    """Output phase-quadrature coefficients at ``omega``.

    The incident phase noise passes through unchanged; the incident
    amplitude noise drives the mirror through radiation pressure; and the
    signal is transduced with the mirror-dynamics amplification factor
    chi_eff / chi. Caller is responsible for omega << cavity bandwidth
    (see :mod:`optospring.finite_bandwidth` for the general case).
    """
    chi, psi, xi = mech_susceptibility(osc, omega), wp.detuning, wp.coupling
    return spring_response(chi, cavity.gamma, 0.0, psi, xi, constants.hbar)[1]


def noise_over_coupling(
    osc: MechanicalOscillator,
    gamma: float,
    detuning: float,
    omega,
    constants: Constants = NORMALIZED,
):
    """Quasi-static equivalent-input noise as a function of the coupling.

    Maps a coupling, or an array of couplings elementwise, to the noise of
    :func:`equivalent_input_noise` for coherent input: the kernel's noise
    at omega tau = 0 in real inverse form, |chi|^2 (|chi_eff^-1|^2 / (4
    xi^2) + hbar^2 xi^2) with chi_eff^-1 = chi^-1 + hbar xi^2 psi / gamma.
    Only +, -, * and / enter, so a Python float and a numpy array give the
    same bits, and the noise stays finite on the static boundary. A zero
    Python-float coupling raises ``NoMeasurementError``.
    """
    if not 0 < gamma < 1:
        raise ValueError(f"gamma must be in (0, 1), got {gamma!r}")
    psi = WorkingPoint(detuning, 0.0).detuning
    # a scalar frequency stays a Python float, so the scalar Brent polish runs on floats
    omega = float(omega) if np.ndim(omega) == 0 else np.asarray(omega, dtype=float)
    re0 = osc.mass * (osc.resonance_freq * osc.resonance_freq - omega * omega)
    im0 = osc.mass * osc.damping * omega  # 1/chi = re0 - i im0
    mag2 = re0 * re0 + im0 * im0  # 1/|chi|^2
    if np.any(mag2 == 0):
        mech_susceptibility(osc, omega)  # names the singular frequency
    hbar, spring = constants.hbar, constants.hbar * psi / gamma

    def noise_at(xi):
        xi2 = xi * xi
        re = re0 + spring * xi2  # Re chi_eff^-1
        try:
            phase = (re * re + im0 * im0) / (4.0 * xi2)
        except ZeroDivisionError:
            raise NoMeasurementError(_NO_SIGNAL) from None
        return (phase + hbar * hbar * xi2) / mag2

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
    if wp.coupling == 0:
        raise NoMeasurementError(_NO_SIGNAL)
    noise_at = noise_over_coupling(osc, cavity.gamma, wp.detuning, omega, constants)
    return noise_at(wp.coupling)


def equivalent_input_noise_closed_form(
    osc: MechanicalOscillator,
    cavity: OpticalCavity,
    wp: WorkingPoint,
    omega,
    constants: Constants = NORMALIZED,
):
    """Closed form of the coherent-input equivalent noise.

    hbar |chi| |chi/chi_eff| (zeta + 1/zeta)/2 with
    zeta = 2 hbar xi^2 |chi_eff|. Kept as an independent route for
    validating the coefficient-based computation.
    """
    if wp.coupling == 0:
        raise NoMeasurementError(_NO_SIGNAL)
    chi, psi, xi = mech_susceptibility(osc, omega), wp.detuning, wp.coupling
    chi_eff = spring_response(chi, cavity.gamma, 0.0, psi, xi, constants.hbar)[0]
    zeta = 2.0 * constants.hbar * wp.coupling**2 * np.abs(chi_eff)
    out = (
        constants.hbar
        * np.abs(chi)
        * np.abs(chi / chi_eff)
        * 0.5
        * (zeta + 1.0 / zeta)
    )
    return float(out) if np.asarray(out).ndim == 0 else out


def sql_point(
    osc: MechanicalOscillator, omega, constants: Constants = NORMALIZED
) -> SqlPoint:
    """Standard quantum limit at ``omega`` for a resonant cavity.

    The coupling at which phase and back-action noises balance, and the
    corresponding minimum noise level hbar |chi|.
    """
    chi = mech_susceptibility(osc, omega)
    mag = abs(chi)
    return SqlPoint(
        coupling=1.0 / math.sqrt(2.0 * constants.hbar * mag),
        level=constants.hbar * mag,
    )


def sql_frequency(
    osc: MechanicalOscillator, coupling: float, constants: Constants = NORMALIZED
) -> float:
    """Frequency where a fixed coupling reaches the SQL (free-mass regime).

    In the regime well above the mechanical resonance the balance
    condition picks the single frequency with M omega^2 = 2 hbar xi^2.
    """
    if coupling <= 0:
        raise ValueError("coupling must be > 0")
    return math.sqrt(2.0 * constants.hbar * coupling**2 / osc.mass)


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
    term = 1.0 + constants.hbar * wp.coupling**2 * (wp.detuning / cavity.gamma) * chi
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

    Closed forms for the true optimum and for the balanced-noise point.
    Negative detuning amplifies the signal here (the static response is
    positive); a positive detuning is accepted but cannot beat the SQL.
    """
    if detuning > 0:
        warnings.warn(
            "positive detuning does not improve the low-frequency sensitivity",
            stacklevel=2,
        )
    beta = 0.5 * detuning / gamma
    root = math.sqrt(1.0 + beta**2)
    ref = sql_point(osc, 0.0, constants)
    ratio = root + beta
    # the balanced (equal-noise) point only exists for beta < 1
    balanced_coupling = ref.coupling / math.sqrt(1.0 - beta) if beta < 1 else None
    balanced_ratio = 1.0 / (1.0 - beta) if beta < 1 else None
    return OptimumPoint(
        coupling=ref.coupling / root**0.5,
        detuning=detuning,
        omega=None,
        level=ratio * ref.level,
        ratio_to_sql=ratio,
        balanced_coupling=balanced_coupling,
        balanced_ratio=balanced_ratio,
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
    root = math.sqrt(1.0 + beta**2)
    omega_ref = sql_frequency(osc, coupling, constants)
    omega_min = omega_ref * root**0.5
    ratio = root - beta
    level = ratio * constants.hbar / (osc.mass * omega_min**2)
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
    mag = abs(chi)
    beta = 0.5 * detuning / gamma
    root = math.sqrt(1.0 + beta**2)
    ref = sql_point(osc, omega, constants)
    ratio = root + beta * chi.real / mag
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
    beta_min = -chi.real / abs(chi.imag)
    detuning_min = 2.0 * gamma * beta_min
    inner = coupling_optimum(osc, omega, detuning_min, gamma, constants)
    level = constants.hbar * abs(chi.imag)
    return OptimumPoint(
        coupling=inner.coupling,
        detuning=detuning_min,
        omega=None,
        level=level,
        ratio_to_sql=abs(chi.imag) / abs(chi),
    )
