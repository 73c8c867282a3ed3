"""Measurement chain in the quasi-static (infinite-bandwidth) regime.

Valid for signal frequencies well below the cavity bandwidth: the output
phase quadrature carries the signal amplified by the mirror dynamics on
top of the incident phase and radiation-pressure noises, through the
static spring hbar xi^2 psi / gamma: the cavity with ``round_trip = 0``,
on which the one noise formula :func:`noise_over_coupling` runs this chain
(on any other, the finite-bandwidth spectrum). This module provides the
equivalent-input noise spectrum and its closed form, the standard quantum
limit, closed-form optimal working points at low and high frequency, and
the dissipation-set ultimate limit.
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
    cavity: OpticalCavity,
    detuning: float,
    omega,
    constants: Constants = NORMALIZED,
):
    """Equivalent-input noise of a cavity as a function of the coupling.

    Maps a coupling to the coherent-input noise (|c_q|^2 + |c_p|^2) / |c_sig|^2 at
    x = omega tau = omega * ``cavity.round_trip``: the quasi-static noise on a cavity with
    ``round_trip = 0``. With C = 1/chi = X - i Y, X = M (Omega^2 - omega^2), Y = M Gamma omega
    and u^2 = gamma^2 + psi^2 for the detuning psi, the output coefficients are

        c_q/c_sig = (C gamma (u^4 + x^2 (gamma^2 - psi^2)) + hbar psi xi^2 u^4)
                    / (2 gamma xi C u^2 (u^2 - i gamma x)),
        c_p/c_sig = (hbar xi^2 u^4 - gamma psi x^2 C) / (xi C u^2 (u^2 - i gamma x)),

    so the noise is four real squares over a real denominator:

        [(a X + b xi^2)^2 + (a Y)^2 + (hbar xi^2 - d X)^2 + (d Y)^2] / (xi^2 (X^2 + Y^2) g),

    a = 1/2 + x^2 (gamma - psi)(gamma + psi) / (2 u^4), d = gamma psi x^2 / u^4,
    g = 1 + gamma^2 x^2 / u^4, b = hbar psi / (2 gamma). Each u^4 enters as a product of
    x gamma / u^2, x psi / u^2 or their like, never as u^4 itself. At omega tau = 0 (a = 1/2,
    d = 0, g = 1) the kernel folds it to the quasi-static |chi|^2 (|chi_eff^-1|^2 / (4 xi^2)
    + hbar^2 xi^2). Only +, -, * and / enter, so a float and an array give the same bits,
    and the noise stays finite at a real pole of chi_eff. At omega tau > 0 the square of
    hbar xi^2 - d X overflows to inf once hbar xi^2 passes about 1.3e154, though the noise
    is finite there. The coupling-free setup and the coupling tail are each written once;
    the routes differ only in how they run them. A zero coupling, scalar or in an array,
    raises ``NoMeasurementError``; a gamma^2 + detuning^2 underflowing to 0 raises
    ``SingularPointError`` at the build. A float omega is set up and checked at the build,
    and its closure runs the tail on a coupling or an array of them. An array omega takes
    one coupling (a float, numpy scalar or 0-d array; an array raises ``ValueError``) and is
    checked at the call: first the coupling, then setup and tail run block by block
    (:func:`core.blockwise`); a blocked and a single call raise the same error. A noise
    denominator of 0, where X^2 + Y^2 is 0 at an undamped resonance or by underflow, raises
    ``SingularPointError`` naming the first omega where it occurs. An array detuning takes a
    float omega only (else ``ValueError``) and broadcasts against the coupling, each cell
    the bits of its scalar detuning's closure: ``detuning[:, None]`` and a coupling row give
    one scan per detuning.
    """
    # a float detuning and omega stay Python floats for the scalar Brent polish; the type
    # tests first, since np.ndim of a float costs about 1 us on every build
    float_omega = type(omega) is float or np.ndim(omega) == 0
    if type(detuning) is float or np.ndim(detuning) == 0:
        psi = float(detuning)
    elif float_omega:
        psi = np.asarray(detuning, dtype=float)
    else:
        raise ValueError("an array detuning needs a float omega")
    core.check_detuning("detuning", psi)
    gamma, tau, hbar = cavity.gamma, cavity.round_trip, constants.hbar
    u2 = gamma * gamma + psi * psi
    if not (u2 > 0 if type(u2) is float else np.all(u2 > 0)):
        raise SingularPointError(f"gamma^2 + detuning^2 underflows to 0 (gamma={gamma!r})")
    b = hbar * psi / (2.0 * gamma if tau else gamma)  # 2 b at omega tau = 0, where a = 1/2
    if float_omega:
        return _noise_closure(osc, cavity, psi, u2, float(omega), b, hbar)
    omega = np.asarray(omega, dtype=float)

    def noise_at(xi):
        if np.ndim(xi):
            raise ValueError("a frequency grid takes one coupling, got an array")
        xi2 = _coupling_squared(xi)  # before any block runs
        kernel = lambda w, out, s: _noise_block(osc, cavity, psi, u2, w, b, hbar, xi2, out, s)
        return core.blockwise(kernel, omega, (float,) * (5 if tau else 3))

    return noise_at


def _coupling_squared(xi):
    """xi^2 for a coupling or an array of them; a zero raises ``NoMeasurementError``. A Python
    float, as the scalar Brent polish passes, is checked without numpy."""
    xi2 = xi * xi
    if not (xi2 if type(xi2) is float else np.all(xi2)):
        raise NoMeasurementError(_NO_SIGNAL)
    return xi2


def _noise_setup(osc, cavity, psi, u2, w, ops, s):
    """The omega-dependent, coupling-free part of the noise of :func:`noise_over_coupling`.

    One IEEE order for a float ``w``, with :data:`core.SCALAR_OPS` and slots of ``None``,
    and for a block, with :data:`core.ARRAY_OPS` and ``out`` buffers ``s``. Returns a X,
    (a Y)^2 + (d Y)^2, d X and (X^2 + Y^2) g; at omega tau = 0, X, Y^2, None and X^2 + Y^2.
    A noise denominator of 0 raises ``SingularPointError`` naming the first omega with it.
    """
    mul, add, _, _ = ops
    gamma, tau = cavity.gamma, cavity.round_trip
    re0, im0 = core.inverse_susceptibility(osc, w, ops, s[0], s[1])  # X and -Y
    y2 = mul(im0, im0, s[3])
    den = add(mul(re0, re0, s[2]), y2, s[2])  # 1/|chi|^2
    if tau:
        x = mul(w, tau, s[3])
        xg = mul(x, gamma / u2, s[4])
        den = mul(den, add(1.0, mul(xg, xg, s[5]), s[5]), s[2])
    if not (den if type(den) is float else np.all(den)):  # a float skips numpy
        bad = w if type(w) is float else float(w[den == 0][0])
        raise SingularPointError(f"noise denominator is 0 at omega={bad!r}")
    if not tau:
        return re0, y2, None, den
    d = mul(xg, mul(x, psi / u2, s[5]), s[4])
    am = mul(x, (gamma - psi) / u2, s[5])
    a = add(0.5, mul(am, mul(x, 0.5 * (gamma + psi) / u2, s[3]), s[3]), s[3])
    ay, dy = mul(a, im0, s[5]), mul(d, im0, s[1])
    y2 = add(mul(ay, ay, s[5]), mul(dy, dy, s[1]), s[5])
    return mul(a, re0, s[1]), y2, mul(d, re0, s[0]), den


def _noise_tail(setup, b, hbar, xi2, ops):
    """The coupling-dependent tail of the noise on :func:`_noise_setup`'s output, over ``ops``.

    The four squares (y2 + q^2 + p^2) / xi^2 / den, q = a X + b xi^2, p = hbar xi^2 - d X, or at
    omega tau = 0 (``dx`` None, ``b`` = 2 b) their fold ((qr^2 + Y^2) / (4 xi^2) + hbar^2 xi^2) /
    den, qr = X + 2 b xi^2. Each operation writes into an operand, the ufunc ``out`` that
    :data:`core.SCALAR_OPS` ignores, so a float closure never writes into its cached setup.
    """
    x0, y2, dx, den = setup
    mul, add, sub, div = ops
    if dx is None:
        qr = add(x0, b * xi2, x0)
        q2 = div(add(mul(qr, qr, qr), y2, qr), 4.0 * xi2, qr)
        return div(add(q2, hbar * hbar * xi2, q2), den, q2)
    p = sub(hbar * xi2, dx, dx)
    q = add(x0, b * xi2, x0)
    total = add(add(y2, mul(q, q, q), y2), mul(p, p, p), p)  # (a Y)^2 + (d Y)^2 first
    return div(div(total, xi2, total), den, total)


def _noise_closure(osc, cavity, psi, u2, omega, b, hbar):
    """The float-omega route: :func:`_noise_setup` once, and a closure of :func:`_noise_tail`."""
    ops = core.SCALAR_OPS
    setup = _noise_setup(osc, cavity, psi, u2, omega, ops, (None,) * 6)
    return lambda xi: _noise_tail(setup, b, hbar, _coupling_squared(xi), ops)


def _noise_block(osc, cavity, psi, u2, w, b, hbar, xi2, out, s):
    """The array-omega route on a block ``w``, into ``out`` (the setup's first slot) and ``s``:
    five buffers at omega tau > 0, where the four squares take 33 passes, three at 0."""
    setup = _noise_setup(osc, cavity, psi, u2, w, core.ARRAY_OPS, (out, *s))
    return _noise_tail(setup, b, hbar, xi2, core.ARRAY_OPS)


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
    :func:`noise_over_coupling` with ``cavity.round_trip`` set to 0, whatever it is:
    quasi-static. Its closed form is :func:`equivalent_input_noise_closed_form`.
    """
    quasi = replace(cavity, round_trip=0.0)
    return noise_over_coupling(osc, quasi, wp.detuning, omega, constants)(wp.coupling)


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
    inv = np.asarray(1.0 / chi + constants.hbar * xi**2 * psi / cavity.gamma)
    if (inv == 0).any():
        at = f" at grid index {int(np.argmax(inv == 0))}" if inv.ndim else ""
        raise SingularPointError(f"effective susceptibility diverges{at} (stability boundary)")
    chi_eff = 1.0 / inv if inv.ndim else complex(1.0 / inv)
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

    The kernel of :func:`mech_susceptibility`, numpy's complex abs and the factor hbar,
    run by :func:`core.blockwise` for a float and an array alike, so a point and a grid
    give the same bits; chi takes one complex buffer, the level the output.
    """
    def level(w, out, s):  # out and s[0] are None for a float
        chi = core.susceptibility_into(osc, w, s[0])
        return np.multiply(constants.hbar, np.abs(chi, out=out), out=out)

    out = core.blockwise(level, omega, (complex,))
    return out if out.ndim else float(out)


def free_mass_sql_level(osc: MechanicalOscillator, omega, constants: Constants = NORMALIZED):
    """SQL level hbar / (M omega^2) of a free mass, the reference of the free-mass regime."""
    return constants.hbar / (osc.mass * (omega * omega))


def sql_point(
    osc: MechanicalOscillator, omega, constants: Constants = NORMALIZED
) -> SqlPoint:
    """Standard quantum limit at ``omega`` for a resonant cavity.

    The coupling at which phase and back-action noises balance, and the
    corresponding minimum noise level :func:`sql_level`. A level of 0, inf
    or nan, where |chi| leaves the float range, or one whose double
    overflows, where 1 / sqrt(2 level) underflows to 0, has no balance
    coupling and raises :class:`SingularPointError`.
    """
    level = sql_level(osc, omega, constants)
    if not 0 < 2.0 * level < math.inf:
        raise SingularPointError(f"SQL level hbar |chi| = {level!r} at omega={omega!r}")
    return SqlPoint(coupling=1.0 / math.sqrt(2.0 * level), level=level)


def sql_frequency(
    osc: MechanicalOscillator, coupling: float, constants: Constants = NORMALIZED
) -> float:
    """Frequency where a fixed coupling reaches the SQL (free-mass regime).

    In the regime well above the mechanical resonance the balance
    condition picks the single frequency with M omega^2 = 2 hbar xi^2.
    A zero coupling carries no signal and raises ``NoMeasurementError``.
    """
    if not coupling > 0:
        raise ValueError("coupling must be > 0") if coupling else NoMeasurementError(_NO_SIGNAL)
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
    ratio = 1.0 / (root + beta) if beta > 0 else root - beta  # root - beta cancels for beta > 0
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
    mag = float(np.abs(chi))  # the |chi| of sql_level
    bc = beta * chi.real / mag
    if bc < 0:  # root + bc cancels; rationalised with root^2 - bc^2 = 1 + (beta Im chi/|chi|)^2
        bs = beta * chi.imag / mag
        ratio = (1.0 + bs * bs) / (root - bc)
    else:
        ratio = root + bc
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
