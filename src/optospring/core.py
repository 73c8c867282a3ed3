"""Core model of a single-ended cavity with a movable mirror.

Parameter records (oscillator, cavity, working point), the free mechanical
susceptibility, the cavity steady state including radiation-pressure recoil
(bistability), and the static and dynamic stability tests at a working point
or over a grid, exact by the Routh-Hurwitz conditions on the quartic whose
roots are the poles of the effective susceptibility.

Conventions
-----------
* Fourier transform with d/dt -> -i*omega, so a decaying mode has its
  pole in the lower half of the complex frequency plane.
* The mean intracavity field is taken real and non-negative; input and
  output mean fields then carry the phases ``theta_in``/``theta_out``.
* Field amplitudes are normalized so that |amplitude|^2 is a photon flux.
* Detunings are round-trip phases in (-pi, pi]; reduction is the caller's
  job; :func:`check_detuning` checks it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularPointError

# A cubic root is accepted as real when |Im| < REAL_ROOT_TOL * (1 + |Re|).
REAL_ROOT_TOL = 1e-10

# Points per block of a long frequency array in :func:`blockwise`: a grid call holds its
# output and a few block-sized buffers, reused from block to block, instead of grid-sized
# temporaries: none for chi, one complex for the SQL, 3 or 5 for the noise setup and tail.
BLOCK = 1 << 14


def check_detuning(name: str, value) -> None:
    """Raise ``ValueError`` unless ``value``, or each element of an array, lies in (-pi, pi].

    The one range check of a detuning.
    A Python float in range, as the scalar Brent polish passes, skips numpy.
    """
    if type(value) is float and -math.pi < value <= math.pi:
        return
    value = np.asarray(value, dtype=float)
    bad = value[~((-math.pi < value) & (value <= math.pi))].tolist()
    if bad:
        raise ValueError(f"{name} must lie in (-pi, pi], got {bad[0]!r}")


@dataclass(frozen=True)
class Constants:
    """Unit-system record. ``hbar`` is 1 in normalized mode, J*s in SI."""

    hbar: float = 1.0

    def __post_init__(self):
        if not self.hbar > 0:
            raise ValueError(f"hbar must be positive, got {self.hbar!r}")


NORMALIZED = Constants(hbar=1.0)
SI = Constants(hbar=1.054571817e-34)


@dataclass(frozen=True)
class MechanicalOscillator:
    """Single-mode mirror: mass, resonance frequency and damping rate.

    ``damping = 0`` is allowed for analytic limits, but operations that
    depend on the dissipative (imaginary) part of the response refuse to
    run on such an oscillator instead of silently returning zero.
    """

    mass: float
    resonance_freq: float
    damping: float

    def __post_init__(self):
        if not self.mass > 0:
            raise ValueError(f"mass must be positive, got {self.mass!r}")
        if not self.resonance_freq > 0:
            raise ValueError(
                f"resonance_freq must be positive, got {self.resonance_freq!r}"
            )
        if not self.damping >= 0:
            raise ValueError(f"damping must be >= 0, got {self.damping!r}")


@dataclass(frozen=True)
class OpticalCavity:
    """Single-ended cavity: damping rate, round-trip time, wavevector.

    ``gamma`` is the (dimensionless) amplitude damping rate per round
    trip, assumed small compared to 1; ``round_trip = 0`` is quasi-static.
    """

    gamma: float
    round_trip: float
    wavevector: float

    def __post_init__(self):
        if not 0 < self.gamma < 1:
            raise ValueError(f"gamma must be in (0, 1), got {self.gamma!r}")
        if not self.round_trip >= 0:
            raise ValueError(f"round_trip must be >= 0, got {self.round_trip!r}")
        if not self.wavevector > 0:
            raise ValueError(f"wavevector must be positive, got {self.wavevector!r}")

    @property
    def bandwidth(self) -> float:
        """Cavity bandwidth gamma / round_trip (rad/s), inf at round_trip = 0."""
        return self.gamma / self.round_trip if self.round_trip else math.inf


@dataclass(frozen=True)
class WorkingPoint:
    """Mean detuning and optomechanical coupling, the two free knobs.

    The coupling parameter combines cavity finesse, detuning and input
    power into a single scalar that sets how strongly a length change
    imprints on the output phase quadrature. Both are stored as Python
    floats, so a numpy scalar input gives the same bits downstream (numpy
    and Python divide complex numbers with different roundings).
    """

    detuning: float
    coupling: float

    def __post_init__(self):
        object.__setattr__(self, "detuning", float(self.detuning))
        object.__setattr__(self, "coupling", float(self.coupling))
        check_detuning("detuning", self.detuning)
        if not self.coupling >= 0:
            raise ValueError(f"coupling must be >= 0, got {self.coupling!r}")


@dataclass(frozen=True)
class SteadyState:
    """Mean-field steady state of the driven cavity.

    ``a_bar`` is the (real, non-negative) intracavity amplitude,
    ``a_in``/``a_out`` the complex input/output mean fields, and
    ``kappa = 2 k a_bar`` the frequency pulled per unit mirror motion.
    """

    a_bar: float
    a_in: complex
    a_out: complex
    theta_in: float
    theta_out: float
    intensity: float
    kappa: float


@dataclass(frozen=True)
class DetuningBranch:
    """One self-consistent detuning root with its steady state."""

    detuning: float
    state: SteadyState
    static_ok: bool


@dataclass(frozen=True)
class StabilityReport:
    """Static (bistability) and dynamic (Routh-Hurwitz) stability.

    Margins are the left-hand sides of the respective conditions; a
    working point is stable when both are strictly positive. Fields are
    scalars at one working point and arrays over a grid.
    """

    static_ok: bool
    dynamic_ok: bool
    static_margin: float
    dynamic_margin: float


@dataclass(frozen=True)
class QuadratureTransfer:
    """Coefficients of the measured output phase quadrature.

    ``q_out = c_q * q_in + c_p * p_in + c_sig * X_sig``.
    """

    c_q: complex
    c_p: complex
    c_sig: complex


def blockwise(f, omega, buffers, dtype=float):
    """``f`` over ``omega`` in fixed blocks: the one owner of grid memory.

    An array omega gets its output, of ``dtype``, and one buffer per dtype in ``buffers``,
    allocated once. ``f(w, out, bufs)`` writes its elementwise result at ``w`` into ``out``,
    with ``bufs`` as scratch, for blocks of at most BLOCK elements and their slices of the
    output, so no result is copied. A float or 0-d omega runs ``f`` once on a numpy float,
    with ``out`` and the buffers None, and returns its value. The bits, and the frequency an
    error names, are those of a single call. A check that does not depend on omega belongs
    to the caller, before this call: in ``f`` a block could raise it ahead of an error that
    one call raises first.
    """
    omega = np.asarray(omega, dtype=float)
    if not omega.ndim:
        return f(omega[()], None, (None,) * len(buffers))
    out = np.empty(omega.shape, dtype)
    flat, result = omega.reshape(-1), out.reshape(-1)
    bufs = [np.empty(min(flat.size, BLOCK), kind) for kind in buffers]
    for start in range(0, flat.size, BLOCK):
        w = flat[start : start + BLOCK]
        f(w, result[start : start + BLOCK], [buf[: w.size] for buf in bufs])
    return out


# (mul, add, sub, div) for a float, ignoring the ufuncs' ``out``, and for an array
SCALAR_OPS = (
    lambda p, q, _: p * q, lambda p, q, _: p + q, lambda p, q, _: p - q, lambda p, q, _: p / q
)
ARRAY_OPS = (np.multiply, np.add, np.subtract, np.divide)


def inverse_susceptibility(osc: MechanicalOscillator, omega, ops, re, im):
    """Re and Im of 1/chi, M (Omega^2 - omega^2) and -(M Gamma) omega, written once.

    Run by the noise and :func:`susceptibility_into`; ``ops`` is :data:`ARRAY_OPS` with the
    real arrays ``re`` and ``im`` to write, or :data:`SCALAR_OPS` with None for a float.
    """
    mul, _, sub, _ = ops
    om = osc.resonance_freq
    x = mul(osc.mass, sub(om * om, mul(omega, omega, re), re), re)
    return x, mul(-(osc.mass * osc.damping), omega, im)


def susceptibility_into(osc: MechanicalOscillator, omega, chi):
    """chi = 1 / (Re + i Im) of :func:`inverse_susceptibility`, the parts written into ``chi``.

    An array ``omega`` fills the views ``chi.real`` and ``chi.imag`` and divides in place;
    a numpy float, with ``chi`` None, divides a numpy complex, rounding as the ufuncs do
    (not as Python's complex). Raises ``SingularPointError`` at the first undamped resonance.
    """
    if chi is None:
        den = np.complex128(complex(*inverse_susceptibility(osc, omega, SCALAR_OPS, None, None)))
    else:
        den = chi
        inverse_susceptibility(osc, omega, ARRAY_OPS, chi.real, chi.imag)
    if not (den if chi is None else den.all()):
        bad = omega if chi is None else omega[den == 0][0]
        raise SingularPointError(
            f"undamped oscillator driven exactly on resonance (omega={float(bad)!r})"
        )
    return 1.0 / den if chi is None else np.divide(1.0, chi, out=chi)


def mech_susceptibility(osc: MechanicalOscillator, omega):
    """Free mechanical susceptibility of the mirror at ``omega``.

    Returns 1 / (M (Omega_M^2 - omega^2 - i Gamma omega)), a complex for a scalar and an
    array for an array: :func:`susceptibility_into` run by :func:`blockwise`.
    """
    chi = blockwise(lambda w, chi, _: susceptibility_into(osc, w, chi), omega, (), complex)
    return chi if isinstance(chi, np.ndarray) else complex(chi)


def static_susceptibility(osc: MechanicalOscillator) -> float:
    """Static response chi(0) = 1 / (M Omega^2), the square written as a product."""
    return 1.0 / (osc.mass * (osc.resonance_freq * osc.resonance_freq))


def steady_state(
    cavity: OpticalCavity, detuning: float, input_magnitude: float
) -> SteadyState:
    """Mean fields of the cavity driven at a fixed mean detuning.

    The global phase is chosen so that the intracavity field is real and
    non-negative; for a lossless single-ended cavity the output magnitude
    equals the input magnitude and only the phases differ.
    """
    if not input_magnitude >= 0:
        raise ValueError("input_magnitude must be >= 0")
    g = cavity.gamma
    norm = math.hypot(g, detuning)
    a_bar = math.sqrt(2.0 * g) * input_magnitude / norm
    theta_in = math.atan2(detuning, g)
    theta_out = -theta_in
    a_in = input_magnitude * complex(math.cos(theta_in), math.sin(theta_in))
    a_out = input_magnitude * complex(math.cos(theta_out), math.sin(theta_out))
    return SteadyState(
        a_bar=a_bar,
        a_in=a_in,
        a_out=a_out,
        theta_in=theta_in,
        theta_out=theta_out,
        intensity=a_bar**2,
        kappa=2.0 * cavity.wavevector * a_bar,
    )


def kappa_for_coupling(cavity: OpticalCavity, detuning, coupling):
    """Frequency-pull rate kappa corresponding to a coupling value; broadcasts."""
    g = cavity.gamma
    return coupling * np.sqrt((g * g + detuning * detuning) / (2.0 * g))


def solve_self_consistent_detuning(
    cavity: OpticalCavity,
    osc: MechanicalOscillator,
    bare_detuning: float,
    input_magnitude: float,
    constants: Constants = NORMALIZED,
) -> list[DetuningBranch]:
    """All steady-state detunings for a given drive, with stability flags.

    Radiation pressure shifts the mean detuning by the static mirror
    recoil, which closes into a cubic for the detuning. The cubic is
    solved via the companion matrix (robust near degenerate
    discriminants); roots with |Im| below ``REAL_ROOT_TOL * (1 + |Re|)``
    count as real. One or three branches come back, sorted by detuning;
    with three, the middle branch fails the static test.
    """
    if not input_magnitude >= 0:
        raise ValueError("input_magnitude must be >= 0")
    g = cavity.gamma
    chi0 = static_susceptibility(osc)
    drive = 8.0 * constants.hbar * chi0 * cavity.wavevector**2 * g * input_magnitude**2
    # (psi - psi0)(gamma^2 + psi^2) = drive  ->  monic cubic in psi
    coeffs = [1.0, -bare_detuning, g**2, -(bare_detuning * g**2 + drive)]
    roots = np.roots(coeffs)
    real = sorted(
        r.real for r in roots if abs(r.imag) < REAL_ROOT_TOL * (1.0 + abs(r.real))
    )
    if not 1 <= len(real) <= 3:  # pragma: no cover - real cubic guarantee
        raise RuntimeError(f"cubic solver returned {len(real)} real roots")
    branches = []
    for psi in real:
        state = steady_state(cavity, psi, input_magnitude)
        margin = (
            g**2
            + psi**2
            + 2.0 * constants.hbar * state.kappa**2 * chi0 * psi
        )
        branches.append(DetuningBranch(detuning=psi, state=state, static_ok=margin > 0))
    return branches


def effective_susceptibility_poles(
    osc: MechanicalOscillator,
    cavity: OpticalCavity,
    detuning: float,
    kappa: float,
    constants: Constants = NORMALIZED,
) -> np.ndarray:
    """Complex-frequency poles of the effective susceptibility.

    Zeros of the inverse susceptibility continued to complex frequency:
    the roots of a quartic whose factors are the mechanical response and
    the cavity loop denominator. With the d/dt -> -i*omega convention
    every decaying mode has Im(pole) < 0, so the sign of the largest
    imaginary part is an oracle for stability that is independent of the
    Routh-Hurwitz margins of :func:`stability_margins`.
    """
    m, om, g = osc.mass, osc.resonance_freq, osc.damping
    gamma, tau = cavity.gamma, cavity.round_trip
    chi_inv = np.array([-m, -1j * m * g, m * om**2])  # coefficients in omega
    cav = np.array([-(tau**2), -2j * gamma * tau, gamma**2 + detuning**2])
    poly = np.polymul(chi_inv, cav).astype(complex)
    poly[-1] += 2.0 * constants.hbar * kappa**2 * detuning
    return np.roots(poly)


def stability_margins(
    osc: MechanicalOscillator,
    cavity: OpticalCavity,
    detuning,
    coupling,
    constants: Constants = NORMALIZED,
):
    """Static and dynamic stability margins ``(static, dynamic)``; broadcasts.

    The poles of the effective susceptibility are the roots in s = -i omega of
    P(s) = M (s^2 + Gamma s + Omega^2)((gamma + tau s)^2 + psi^2) + 2 hbar kappa^2 psi,
    a4 = M tau^2, a3 = M (2 gamma tau + Gamma tau^2), a2 = M (u^2 + 2 gamma tau Gamma +
    Omega^2 tau^2), a1 = M (Gamma u^2 + 2 gamma tau Omega^2), a0 = M Omega^2 u^2 +
    2 hbar kappa^2 psi, u^2 = gamma^2 + psi^2. For tau > 0, a4..a1 and a3 a2 - a4 a1 are
    positive, so by Routh-Hurwitz every pole decays exactly where both margins are (at
    tau = 0, P is quadratic and the dynamic condition is Gamma > 0):

    * static = a0 / (M Omega^2) = u^2 (1 + hbar xi^2 chi[0] psi / gamma), squares written
      as products in the order of the signal amplification factor, so its zero set is
      that factor's divergence at omega = 0 bit for bit;
    * dynamic = (a3 a2 a1 - a4 a1^2 - a3^2 a0) / (a3 a2 M u^2), a rate, evaluated as
      p (1 - r u^2 p / b2) - b3 Omega^2 f / b2 with p = a1 / (M u^2), r = a4 / a3,
      bi = ai / M and f = static / u^2, each factor over 1 + tau so that no tau^2 or p^2
      overflows: a margin beyond the float range is inf of its sign, not nan. At tau = 0
      it is Gamma bit for bit.

    Detuning and coupling broadcast against each other, so one call covers a whole
    working-point grid.
    """
    gamma, tau, damping = cavity.gamma, cavity.round_trip, osc.damping
    om2 = osc.resonance_freq * osc.resonance_freq
    chi0 = static_susceptibility(osc)
    factor = 1.0 + constants.hbar * (coupling * coupling) * (detuning / gamma) * chi0
    u2 = gamma * gamma + detuning * detuning
    static = u2 * factor
    s = 1.0 / (1.0 + tau)
    t = tau * s
    # p and b3 / tau over 1 + tau, b2 over (1 + tau)^2
    ps, ds = damping * s + 2.0 * gamma * t * om2 / u2, 2.0 * gamma * s + damping * t
    a2s = u2 * s * s + 2.0 * gamma * damping * t * s + om2 * (t * t)
    dynamic = ps / s * (1.0 - (t / ds) * u2 * ps * s / a2s) - ds * t * om2 * factor / a2s
    return static, dynamic


def static_coupling2_bound(
    osc: MechanicalOscillator,
    gamma: float,
    detuning: float,
    constants: Constants = NORMALIZED,
) -> float:
    """Largest statically stable coupling^2 at a detuning (inf if none)."""
    if detuning >= 0:
        return math.inf
    return gamma / (constants.hbar * static_susceptibility(osc) * abs(detuning))


def _stability_report(static, dynamic) -> StabilityReport:
    """The one stability rule: stable where a margin is strictly positive.

    A margin of exactly zero lies on the boundary and reads unstable.
    """
    return StabilityReport(
        static_ok=static > 0,
        dynamic_ok=dynamic > 0,
        static_margin=static,
        dynamic_margin=dynamic,
    )


def stability(
    osc: MechanicalOscillator,
    cavity: OpticalCavity,
    wp: WorkingPoint,
    constants: Constants = NORMALIZED,
) -> StabilityReport:
    """Both stability conditions at a working point, from :func:`stability_margins`."""
    static, dynamic = stability_margins(osc, cavity, wp.detuning, wp.coupling, constants)
    return _stability_report(float(static), float(dynamic))


def stability_map(
    osc: MechanicalOscillator,
    cavity: OpticalCavity,
    coupling2: np.ndarray,
    detunings: np.ndarray,
    constants: Constants = NORMALIZED,
) -> StabilityReport:
    """Stability flags and margins over a working-point grid, as arrays.

    One call of :func:`stability_margins` broadcasts the detunings (rows)
    against the couplings (columns), so each cell equals :func:`stability`
    at coupling sqrt(coupling2) bit for bit. The static boundary in closed
    form is :func:`static_coupling2_bound`.
    """
    coupling2 = np.asarray(coupling2, dtype=float)
    detunings = np.asarray(detunings, dtype=float)
    check_detuning("detunings", detunings)
    if not np.all(coupling2 >= 0):
        raise ValueError("coupling2 must be >= 0")
    margins = stability_margins(osc, cavity, detunings[:, None], np.sqrt(coupling2), constants)
    return _stability_report(*margins)
