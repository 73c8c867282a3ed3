"""The noise kernel against an exact evaluation from the same float inputs.

:func:`exact_noise` forms (|c_q|^2 + |c_p|^2) / |c_sig|^2 from the transfer ratios
c_q/c_sig and c_p/c_sig in integer arithmetic, with no rounding at all: every float
is n 2^e, so sums and products of them are exact, and the one division is left to
the comparison. It calls no kernel function, so it checks the kernel's rounding, not
its physics: the physics is checked against ``full_transfer_by_solve``. The property
bounds every route of ``noise_over_coupling`` (a float omega over an array of
couplings, an array omega, and a column of detunings) at omega tau > 0 and at
omega tau = 0 by ``ULP_BOUND``.

Its sample keeps omega at least 10^-2 relative away from the mechanical resonance:
closer in, the rounding of Omega^2 - omega^2 alone costs about (Omega^2 + omega^2) /
|Omega^2 - omega^2| ulp, a loss that the kernel does not yet avoid. At 10^-2 that
factor is about 100, and where the optical spring cancels most of 1/chi it is
amplified again, so the bound is over a hundred ulp; the median error is below 2 ulp.

:func:`exact_sql` is the same check of the SQL level hbar |chi| = hbar / sqrt(X^2 + Y^2):
X^2 + Y^2 exact, its root and the division in 50-digit decimal. The property bounds
``sql_level`` at a float omega and on a grid by ``SQL_ULP_BOUND`` on the same kind of
frequency sample, where |chi| carries the relative error of Omega^2 - omega^2.
"""

import decimal
import itertools
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from optospring import (
    Constants,
    MechanicalOscillator,
    OpticalCavity,
    WorkingPoint,
    full_transfer_by_solve,
    noise_over_coupling,
    sql_level,
)

# The worst of the sample below: 123.4 ulp at omega tau = 0, 84.7 at omega tau > 0
# (median 0.66 and 1.35). The kernel before the four-squares form: 123.4 and 66.7
# (median 0.66 and 1.81).
ULP_BOUND = 160
# Omega^2 and omega^2 each round by up to 2^-53 of themselves, and 1.001e-2 above the
# resonance their difference is 1/100.5 of their sum, so X and |chi| can err by about
# 100 ulp; the product by M, the division, the modulus and hbar add a few. The worst of
# the SQL sample below is 48.8 ulp (median 0.67).
SQL_ULP_BOUND = 110
DECIMAL = decimal.Context(prec=50)


class Dyadic:
    """An exact n * 2^e, as every float is: sums and products without a gcd."""

    def __init__(self, n: int, e: int):
        self.n, self.e = n, e

    @classmethod
    def of(cls, value: float) -> "Dyadic":
        n, d = value.as_integer_ratio()  # d is a power of two
        return cls(n, 1 - d.bit_length())

    def __add__(self, other):
        e = min(self.e, other.e)
        return Dyadic((self.n << (self.e - e)) + (other.n << (other.e - e)), e)

    def __neg__(self):
        return Dyadic(-self.n, self.e)

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        return Dyadic(self.n * other.n, self.e + other.e)


def ratio(num: Dyadic, den: Dyadic) -> float:
    """num / den correctly rounded: Python divides two ints that way."""
    shift = num.e - den.e
    return (num.n << shift) / den.n if shift >= 0 else num.n / (den.n << -shift)


def exact_noise(mass, resonance, damping, gamma, round_trip, psi, omega, hbar):
    """The exact noise of the float inputs as a function of a float coupling xi, from

    c_q/c_sig = (C gamma (u^4 + x^2 (gamma^2 - psi^2)) + hbar psi xi^2 u^4)
                / (2 gamma xi C u^2 (u^2 - i gamma x)),
    c_p/c_sig = (hbar xi^2 u^4 - gamma psi x^2 C) / (xi C u^2 (u^2 - i gamma x)),

    with C = 1/chi = X - i Y, x = omega round_trip and u^2 = gamma^2 + psi^2: the
    pair (numerator, denominator) of (|c_q|^2 + |c_p|^2) / |c_sig|^2, each exact.
    """
    m, om, dmp, g, tau, p, w, h = map(
        Dyadic.of, (mass, resonance, damping, gamma, round_trip, psi, omega, hbar)
    )
    big_x, big_y = m * (om * om - w * w), m * dmp * w
    x2, u2 = w * tau * w * tau, g * g + p * p
    u4, four_g2 = u2 * u2, Dyadic(4, 0) * g * g
    s = g * (u4 + x2 * (g * g - p * p))
    den = four_g2 * (big_x * big_x + big_y * big_y) * u4 * (u4 + g * g * x2)

    def at(xi):
        k2 = Dyadic.of(xi) * Dyadic.of(xi)
        q, qi = big_x * s + h * p * k2 * u4, big_y * s  # the numerator of c_q
        c, ci = h * k2 * u4 - g * p * x2 * big_x, g * p * x2 * big_y  # that of c_p
        return q * q + qi * qi + four_g2 * (c * c + ci * ci), k2 * den

    return at


def exact_sql(mass, resonance, damping, omega, hbar) -> decimal.Decimal:
    """hbar |chi| = hbar / sqrt(X^2 + Y^2) of the float inputs to 50 digits, with X =
    M (Omega^2 - omega^2) and Y = M Gamma omega exact."""
    m, om, dmp, w = map(Dyadic.of, (mass, resonance, damping, omega))
    big_x, big_y = m * (om * om - w * w), m * dmp * w
    d = big_x * big_x + big_y * big_y
    root = DECIMAL.sqrt(DECIMAL.multiply(d.n, DECIMAL.power(2, d.e)))
    return DECIMAL.divide(decimal.Decimal(hbar), root)


def sql_ulps(value: float, exact: decimal.Decimal) -> float:
    """|value - exact| in units of the last place of exact rounded to a float."""
    error = DECIMAL.subtract(decimal.Decimal(value), exact).copy_abs()
    return float(DECIMAL.divide(error, decimal.Decimal(math.ulp(float(exact)))))


def ulps(value: float, exact) -> float:
    """|value - num / den| in units of the last place of num / den rounded to a float."""
    num, den = exact
    return abs(ratio(Dyadic.of(value) * den - num, den)) / math.ulp(ratio(num, den))


def log_uniform(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


# a frequency over the resonance: 1 + r above it, 1 - r below it, r from 1.001e-2 up
NEAR_RESONANCE = st.one_of(
    st.floats(math.log10(1.001e-2), 4.0).map(lambda e: 1.0 + 10.0**e),
    st.floats(math.log10(1.001e-2), math.log10(0.999)).map(lambda e: 1.0 - 10.0**e),
)


def oscillator(draw):
    """An oscillator of Q from 1 to 10^8."""
    resonance = draw(log_uniform(-1.0, 1.0))
    return MechanicalOscillator(
        draw(log_uniform(-2.0, 2.0)), resonance, resonance / draw(log_uniform(0.0, 8.0))
    )


@st.composite
def models(draw):
    """An oscillator of Q from 1 to 10^8, a cavity, three detunings, three couplings and
    four frequencies at least 10^-2 relative away from the resonance."""
    osc = oscillator(draw)
    resonance = osc.resonance_freq
    gamma = draw(log_uniform(-3.0, -0.1))
    round_trip = draw(log_uniform(-3.0, 1.0)) / resonance
    psis = draw(st.lists(st.floats(-math.pi, math.pi), min_size=3, max_size=3))
    xis = draw(st.lists(log_uniform(-3.0, 3.0), min_size=3, max_size=3))
    ratios = draw(st.lists(NEAR_RESONANCE, min_size=4, max_size=4))
    omegas = sorted(resonance * r for r in ratios)
    return osc, gamma, round_trip, psis, xis, omegas, draw(log_uniform(-2.0, 1.0))


@st.composite
def oscillators(draw):
    """An oscillator, four frequencies of the noise sample's kind, and an hbar."""
    osc = oscillator(draw)
    ratios = draw(st.lists(NEAR_RESONANCE, min_size=4, max_size=4))
    omegas = sorted(osc.resonance_freq * r for r in ratios)
    return osc, omegas, draw(log_uniform(-2.0, 1.0))


class TestExactOracle:
    def test_oracle_is_the_noise(self):
        # the four real squares of the kernel are these ratios: one point in closed form
        osc, psi, omega, xi = MechanicalOscillator(1.0, 1.0, 0.0), 0.5, 2.0, 1.0
        exact = exact_noise(1.0, 1.0, 0.0, 0.5, 1.0, psi, omega, 1.0)(xi)
        # u^2 = 1/2, x = 2, X = -3: a = 1/2 + 4 * 0 = 1/2, d = 1/2 * 1/2 * 4 / (1/4) = 4,
        # g = 1 + 4, b = 1/2; [(-3/2 + 1/2)^2 + (1 + 12)^2] / (9 * 5) = 170 / 45
        num, den = exact
        assert (num * Dyadic(45, 0) - den * Dyadic(170, 0)).n == 0
        cavity = OpticalCavity(0.5, 1.0, 1.0)
        t = full_transfer_by_solve(osc, cavity, WorkingPoint(psi, xi), omega)
        solved = (abs(t.c_q) ** 2 + abs(t.c_p) ** 2) / abs(t.c_sig) ** 2
        assert math.isclose(solved, 170 / 45, rel_tol=1e-12)
        noise = noise_over_coupling(osc, cavity, psi, omega)(xi)
        assert ulps(noise, exact) <= 4

    @settings(derandomize=True, deadline=None, max_examples=100, database=None)
    @given(models())
    def test_every_route_within_bound(self, model):
        osc, gamma, round_trip, psis, xis, omegas, hbar = model
        constants, shape = Constants(hbar), (len(psis), len(omegas), len(xis))
        for tau in (0.0, round_trip):
            cavity = OpticalCavity(gamma, tau, 1.0)
            # each route's noise at [detuning, frequency, coupling]
            routes = {name: np.empty(shape) for name in ("float omega", "column", "array omega")}
            for j, w in enumerate(omegas):
                column = noise_over_coupling(osc, cavity, np.array(psis)[:, None], w, constants)
                routes["column"][:, j] = column(np.array(xis))
                for i, p in enumerate(psis):
                    noise = noise_over_coupling(osc, cavity, p, w, constants)
                    routes["float omega"][i, j] = noise(np.array(xis))
            for i, p in enumerate(psis):
                noise = noise_over_coupling(osc, cavity, p, np.array(omegas), constants)
                for k, xi in enumerate(xis):
                    routes["array omega"][i, :, k] = noise(xi)
            for (i, p), (j, w) in itertools.product(enumerate(psis), enumerate(omegas)):
                args = (osc.mass, osc.resonance_freq, osc.damping, gamma, tau, p, w, hbar)
                exact = exact_noise(*args)
                for k, xi in enumerate(xis):
                    for name, values in routes.items():
                        assert ulps(values[i, j, k], exact(xi)) <= ULP_BOUND, (name, args, xi)


class TestExactSql:
    def test_oracle_is_the_sql(self):
        # X = 1 * (4 - 1) = 3 and Y = 1 * 4 * 1 = 4, so hbar |chi| = 1 / 5
        exact = exact_sql(1.0, 2.0, 4.0, 1.0, 1.0)
        assert exact == decimal.Decimal("0.2")
        assert sql_ulps(sql_level(MechanicalOscillator(1.0, 2.0, 4.0), 1.0), exact) <= 1

    @settings(derandomize=True, deadline=None, max_examples=150, database=None)
    @given(oscillators())
    def test_float_and_grid_within_bound(self, model):
        osc, omegas, hbar = model
        constants = Constants(hbar)
        grid = sql_level(osc, np.array(omegas), constants).tolist()
        for w, on_grid in zip(omegas, grid):
            exact = exact_sql(osc.mass, osc.resonance_freq, osc.damping, w, hbar)
            for name, value in (("float", sql_level(osc, w, constants)), ("grid", on_grid)):
                assert sql_ulps(value, exact) <= SQL_ULP_BOUND, (name, osc, w, hbar)
