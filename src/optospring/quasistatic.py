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
    cavity: OpticalCavity,
    detuning: float,
    omega,
    constants: Constants = NORMALIZED,
):
    """Equivalent-input noise of a cavity as a function of the coupling.

    Maps a coupling to the coherent-input noise (|c_q|^2 + |c_p|^2) / |c_sig|^2 at
    omega tau = omega * ``cavity.round_trip``: the quasi-static noise on a cavity with
    ``round_trip = 0``. Each output coefficient times chi_eff^-1 Delta / u^2 gives real cavity
    factors, exactly 1 or 0 at omega tau = 0: the quasi-static |chi|^2 (|chi_eff^-1|^2 /
    (4 xi^2) + hbar^2 xi^2). Only +, -, * and / enter, so a float and an array give the same
    bits, and the noise stays finite at a real pole of chi_eff. A zero coupling, scalar or in
    an array, raises ``NoMeasurementError``; a gamma^2 + detuning^2 underflowing to 0 raises
    ``SingularPointError`` at the build. A float omega is set up and checked at the build and
    takes a coupling or an array of them. An array omega takes one coupling (a float, numpy
    scalar or 0-d array; an array raises ``ValueError``) and is checked at the call: first the
    coupling, then the noise denominator block by block (:func:`core.blockwise`); a blocked
    and a single call raise the same error. A noise denominator of 0, at an undamped resonance
    or by underflow, raises ``SingularPointError`` naming the first omega where it occurs. An
    array detuning takes a float omega only (else ``ValueError``) and broadcasts against the
    coupling, each cell the bits of its scalar detuning's closure: ``detuning[:, None]`` and a
    coupling row give one scan per detuning.
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
    u2 = cavity.gamma * cavity.gamma + psi * psi
    if not (u2 > 0 if type(u2) is float else np.all(u2 > 0)):
        raise SingularPointError(f"gamma^2 + detuning^2 underflows to 0 (gamma={cavity.gamma!r})")
    if float_omega:
        return _noise_closure(osc, cavity, psi, u2, float(omega), constants)
    omega = np.asarray(omega, dtype=float)

    def noise_at(xi):
        if np.ndim(xi):
            raise ValueError("a frequency grid takes one coupling, got an array")
        xi2 = xi * xi
        if not xi2:  # before any block runs
            raise NoMeasurementError(_NO_SIGNAL)
        scratch = []  # the kernel's buffers, made by the first block and reused by the rest
        return core.blockwise(
            lambda w: _noise_block(osc, cavity, psi, u2, w, constants, xi2, scratch), omega
        )

    return noise_at


def _cavity_factors(gamma, psi, u2, hbar, w):
    """The cavity factors of the noise at omega tau = ``w``, a float.

    Floats, or arrays of the shape of an array ``psi``: (dr, di, a_q, a_p, lag, qr1, pr1,
    dfac) of :func:`_noise_closure`, where ``dfac`` times 1/|chi|^2 is the noise denominator.
    At ``w = 0.0`` they are exactly 1 or 0 factors: dr = 1, di = a_p = lag = 0.
    """
    gw = gamma * w / u2  # gain Delta / u^2 = 1 - i gw
    # Delta / u^2 = dr + i di; dr in this form stays accurate where Delta is near 0
    dr, di = (gamma * gamma + (psi - w) * (psi + w)) / u2, -2.0 * gw
    a_q = dr + 2.0 * gw * gw  # a_q Delta / u^2
    a_p = -gw * w * psi / (u2 * hbar)  # a_p Delta / (2 hbar u^2)
    lag = 2.0 * hbar * psi * w / u2  # the phase-lag term of c_q, over xi^2
    spring = hbar * psi / gamma
    qr1, pr1 = a_q * spring - lag * gw, a_p * spring + (1.0 - gw * gw)
    return dr, di, a_q, a_p, lag, qr1, pr1, (dr * dr + di * di) * (1.0 + gw * gw)


def _noise_closure(osc, cavity, psi, u2, omega, constants):
    """The setup of :func:`noise_over_coupling` at a float omega, and its closure.

    ``psi`` is a float, or an array of detunings. On a cavity with ``round_trip = 0`` the
    closure is the fold of :func:`_noise_block`: the cavity factors are exactly 1 or 0, so
    it returns ((qr^2 + im0^2) / (4 xi^2) + hbar^2 xi^2) / |chi|^-2 with
    qr = re0 + qr1 xi^2, which for finite operands has the bits of the general formula.
    """
    re0 = osc.mass * (osc.resonance_freq * osc.resonance_freq - omega * omega)
    im0 = osc.mass * osc.damping * omega  # 1/chi = re0 - i im0
    mag2 = re0 * re0 + im0 * im0  # 1/|chi|^2
    hbar = constants.hbar
    hbar2 = hbar * hbar  # the same bits as hbar * hbar * xi2 per call
    fold = not cavity.round_trip
    w = 0.0 if fold else omega * cavity.round_trip
    dr, di, a_q, a_p, lag, qr1, pr1, dfac = _cavity_factors(cavity.gamma, psi, u2, hbar, w)
    den = mag2 if fold else dfac * mag2
    if not (den if type(den) is float else np.all(den)):  # a float skips numpy
        raise SingularPointError(f"noise denominator is 0 at omega={omega!r}")
    if fold:
        im2 = im0 * im0
    else:
        jr0, ji = dr * re0 + di * im0, di * re0 - dr * im0  # Delta / (u^2 chi)
        # qr + i qi = c_q chi_eff^-1 (Delta / u^2)^2, pr + i pi the same of c_p over 2 hbar xi^2
        qr0, qi0, pr0, pi0 = a_q * jr0, a_q * ji, a_p * jr0, a_p * ji

    def noise_at(xi):
        xi2 = xi * xi
        # a Python float, as the scalar Brent polish passes, is checked without numpy
        if not (xi2 if type(xi2) is float else np.all(xi2)):
            raise NoMeasurementError(_NO_SIGNAL)
        if fold:
            qr = re0 + qr1 * xi2  # Re chi_eff^-1
            return ((qr * qr + im2) / (4.0 * xi2) + hbar2 * xi2) / den
        qr, qi = qr0 + qr1 * xi2, qi0 - lag * xi2
        pr, pi = pr0 / xi2 + pr1, pi0 / xi2 + di
        return ((qr * qr + qi * qi) / (4.0 * xi2) + hbar2 * xi2 * (pr * pr + pi * pi)) / den

    return noise_at


def _noise_block(osc, cavity, psi, u2, w, constants, xi2, scratch):
    """The noise on a block ``w`` of an array omega at a scalar ``xi2`` = xi^2, for a float ``psi``.

    :func:`_noise_closure`'s IEEE operations on the same operands, each written into one
    of the arrays in ``scratch`` instead of a fresh temporary. The first call makes them,
    of its block's shape; later blocks, none longer, reuse their leading rows. Returns one.
    At omega tau = 0 the cavity factors are exactly 1 or 0, so their products are dropped:
    for finite operands jr0 = re0, qi^2 = im0^2, pr = 1, pi = 0 and den = mag2.
    """
    mul, add, sub, div = np.multiply, np.add, np.subtract, np.divide
    if not scratch:
        scratch += [np.empty(w.shape) for _ in range(12 if cavity.round_trip else 4)]
    s = [a if len(a) == len(w) else a[: len(w)] for a in scratch]
    m, om, hbar = osc.mass, osc.resonance_freq, constants.hbar
    re0 = mul(m, sub(om * om, mul(w, w, out=s[0]), out=s[0]), out=s[0])
    im0 = mul(m * osc.damping, w, out=s[1])
    den = mag2 = add(mul(re0, re0, out=s[2]), mul(im0, im0, out=s[3]), out=s[2])
    if cavity.round_trip:  # _cavity_factors at w = omega tau, in s[3:]
        wt = mul(w, cavity.round_trip, out=s[5])
        gw = div(mul(cavity.gamma, wt, out=s[3]), u2, out=s[3])
        pw = mul(sub(psi, wt, out=s[6]), add(psi, wt, out=s[7]), out=s[6])
        dr = div(add(cavity.gamma * cavity.gamma, pw, out=s[6]), u2, out=s[6])
        di = mul(-2.0, gw, out=s[7])
        a_q = add(dr, mul(mul(2.0, gw, out=s[8]), gw, out=s[8]), out=s[8])
        a_p = mul(mul(np.negative(gw, out=s[9]), wt, out=s[9]), psi, out=s[9])
        a_p = div(a_p, u2 * hbar, out=s[9])
        lag = div(mul(2.0 * hbar * psi, wt, out=s[5]), u2, out=s[5])
        dd = add(mul(dr, dr, out=s[4]), mul(di, di, out=s[10]), out=s[4])
        dfac = mul(dd, add(1.0, mul(gw, gw, out=s[10]), out=s[10]), out=s[4])
        spring = hbar * psi / cavity.gamma
        qr1 = sub(mul(a_q, spring, out=s[10]), mul(lag, gw, out=s[11]), out=s[10])
        g1 = sub(1.0, mul(gw, gw, out=s[3]), out=s[3])  # 1 - gw^2, written over gw: its last use
        pr1 = add(mul(a_p, spring, out=s[11]), g1, out=s[11])
        den = mul(dfac, mag2, out=s[2])
    if not np.all(den):
        bad = w[den == 0][0]
        raise SingularPointError(f"noise denominator is 0 at omega={float(bad)!r}")
    if not cavity.round_trip:  # (qr^2 + im0^2) / (4 xi^2) + hbar^2 xi^2 over mag2; s[3] = im0^2
        qr1 = _cavity_factors(cavity.gamma, psi, u2, hbar, 0.0)[5]  # the other factors are 1 or 0
        qr = add(re0, qr1 * xi2, out=s[0])
        q2 = div(add(mul(qr, qr, out=s[0]), s[3], out=s[0]), 4.0 * xi2, out=s[0])
        return div(add(q2, hbar * hbar * xi2, out=s[0]), den, out=s[0])
    jr0 = add(mul(dr, re0, out=s[3]), mul(di, im0, out=s[4]), out=s[3])
    ji = sub(mul(di, re0, out=s[0]), mul(dr, im0, out=s[1]), out=s[0])
    qr = add(mul(a_q, jr0, out=s[1]), mul(qr1, xi2, out=s[4]), out=s[1])
    qi = sub(mul(a_q, ji, out=s[4]), mul(lag, xi2, out=s[5]), out=s[4])
    q2 = add(mul(qr, qr, out=s[1]), mul(qi, qi, out=s[4]), out=s[1])
    q2 = div(q2, 4.0 * xi2, out=s[1])
    pr = add(div(mul(a_p, jr0, out=s[3]), xi2, out=s[3]), pr1, out=s[3])
    pi = add(div(mul(a_p, ji, out=s[0]), xi2, out=s[0]), di, out=s[0])
    p2 = add(mul(pr, pr, out=s[3]), mul(pi, pi, out=s[0]), out=s[3])
    p2 = mul(hbar * hbar * xi2, p2, out=s[3])
    return div(add(q2, p2, out=s[1]), den, out=s[1])


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
    alike, so a point and a grid give the same bits. An array runs through
    :func:`_sql_block`, in blocks (:func:`core.blockwise`) when it is 1-d and
    longer than ``core.BLOCK``.
    """
    if type(omega) is float or np.ndim(omega) == 0:
        return float(constants.hbar * np.abs(mech_susceptibility(osc, omega)))
    scratch = []  # the kernel's buffers, made by the first block and reused by the rest
    return core.blockwise(lambda w: _sql_block(osc, constants.hbar, w, scratch), omega)


def _sql_block(osc, hbar, w, scratch):
    """hbar |chi| on a block ``w`` of an array omega.

    :func:`core.mech_susceptibility`'s complex operations in its order, numpy's complex
    abs and the factor hbar, written into a complex and a real array in ``scratch``
    instead of fresh temporaries; the first call makes them, as in :func:`_noise_block`.
    Returns the real one.
    """
    mul, sub = np.multiply, np.subtract
    w = np.asarray(w, dtype=float)
    if not scratch:
        scratch += [np.empty(w.shape, dtype=complex), np.empty(w.shape)]
    c, r = (a if len(a) == len(w) else a[: len(w)] for a in scratch)
    om = osc.resonance_freq
    den = sub(om * om, mul(w, w, out=r), out=r)
    den = mul(osc.mass, sub(den, mul(1j * osc.damping, w, out=c), out=c), out=c)
    if not np.all(den):
        mech_susceptibility(osc, w)  # raises its SingularPointError at the first zero
    return mul(hbar, np.abs(np.divide(1.0, den, out=c), out=r), out=r)


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
