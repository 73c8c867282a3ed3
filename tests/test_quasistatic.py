import itertools
import math
import re
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest

from optospring import (
    Constants,
    DegenerateDissipationError,
    MechanicalOscillator,
    NoMeasurementError,
    OpticalCavity,
    SingularPointError,
    StabilityBoundaryError,
    WorkingPoint,
    amplification_factor,
    coupling_optimum,
    equivalent_input_noise,
    equivalent_input_noise_closed_form,
    full_transfer_by_solve,
    highfreq_optimum,
    lowfreq_optimum,
    mech_susceptibility,
    noise_over_coupling,
    sql_frequency,
    sql_point,
    stability,
    ultimate_quantum_limit,
)
from optospring.core import BLOCK, NORMALIZED

SQRT26_M5 = 0.09901951359278449  # sqrt(26) - 5


def cav(gamma, round_trip=0.0):
    """The cavity of damping ``gamma``, quasi-static unless given a round trip."""
    return OpticalCavity(gamma, round_trip, wavevector=1.0)


class TestQuadratureTransfer:
    """The solve at omega = 0, where it is the quasi-static chain (no cavity phase)."""

    def test_dark_port(self, osc, cavity):
        t = full_transfer_by_solve(osc, cavity, WorkingPoint(0.0, 0.0), 0.0)
        assert t.c_q == 1.0 and t.c_p == 0.0 and t.c_sig == 0.0

    def test_resonant_cavity(self, osc, cavity):
        xi = 0.8
        t = full_transfer_by_solve(osc, cavity, WorkingPoint(0.0, xi), 0.0)
        chi = mech_susceptibility(osc, 0.0)
        assert t.c_q == 1.0
        assert t.c_p == pytest.approx(2.0 * xi**2 * chi, rel=1e-14)
        assert t.c_sig == pytest.approx(2.0 * xi, rel=1e-14)

    def test_amplified_signal(self, high_q_osc, cavity):
        # chi_eff/chi = 2 at xi^2 = 0.5, detuning = -gamma
        xi = math.sqrt(0.5)
        t = full_transfer_by_solve(high_q_osc, cavity, WorkingPoint(-cavity.gamma, xi), 0.0)
        assert t.c_sig == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-12)


class TestNoiseScalarArrayBitEqual:
    """``noise_over_coupling`` on an array equals its per-element scalar calls, on a
    quasi-static cavity and at a finite phase lag omega * round_trip."""

    def test_random_models(self, rng):
        cells = mismatches = 0
        for _ in range(200):
            osc = MechanicalOscillator(
                10 ** rng.uniform(-2, 2), 10 ** rng.uniform(-1, 1), 10 ** rng.uniform(-4, 0.5)
            )
            gamma, psi = 10 ** rng.uniform(-3, -0.1), rng.uniform(-3.14, 3.14)
            constants = Constants(10 ** rng.uniform(-2, 1))
            omega = rng.choice([0.0, rng.uniform(0.0, 3.0) * osc.resonance_freq])
            # the quasi-static chain, then a finite omega tau up to ~30
            for round_trip in (0.0, 10 ** rng.uniform(-3, 1) / osc.resonance_freq):
                noise_at = noise_over_coupling(osc, cav(gamma, round_trip), psi, omega, constants)
                xi = 10 ** rng.uniform(-3, 3, size=60)
                batch = noise_at(xi)
                scalar = [noise_at(x) for x in xi.tolist()]
                assert all(type(v) is float for v in scalar)
                cells += xi.size
                mismatches += int(np.count_nonzero(batch != np.array(scalar)))
        assert cells >= 10_000 and mismatches == 0

    def test_array_over_frequency(self, high_q_osc, rng):
        omega = np.geomspace(0.01, 10.0, 500)
        for psi in rng.uniform(-0.5, 0.5, size=20):
            for tau in (0.0, 10 ** rng.uniform(-4, -1)):  # bandwidth 0.01 / tau
                noise_at = noise_over_coupling(high_q_osc, cav(0.01, tau), psi, omega)
                batch = noise_at(0.7)
                scalar = [
                    noise_over_coupling(high_q_osc, cav(0.01, tau), psi, w)(0.7)
                    for w in omega
                ]
                assert np.array_equal(batch, scalar)
        # random models, two couplings per grid, signed frequencies and zeros:
        # each cell the bits of the float-omega closure at its frequency and coupling
        cells = 0
        for psi in [0.0, -0.0, math.pi, *rng.uniform(-3.14, 3.14, size=5)]:
            osc = MechanicalOscillator(
                10 ** rng.uniform(-2, 2), 10 ** rng.uniform(-1, 1), 10 ** rng.uniform(-4, 0.5)
            )
            gamma, constants = 10 ** rng.uniform(-3, -0.1), Constants(10 ** rng.uniform(-2, 1))
            omega = osc.resonance_freq * rng.uniform(-3.0, 3.0, size=64)
            omega[rng.choice(omega.size, size=4, replace=False)] = [0.0, -0.0, 0.0, -0.0]
            for round_trip in (0.0, 10 ** rng.uniform(-3, 1) / osc.resonance_freq):
                noise_at = noise_over_coupling(osc, cav(gamma, round_trip), psi, omega, constants)
                for xi in (10 ** rng.uniform(-3, 3, size=2)).tolist():
                    scalar = [
                        noise_over_coupling(osc, cav(gamma, round_trip), psi, w, constants)(xi)
                        for w in omega.tolist()
                    ]
                    assert noise_at(xi).tobytes() == np.array(scalar).tobytes()
                    cells += omega.size
        assert cells >= 2_000
        # extreme frequencies, where a dropped 0 * x or 1 * x would differ (0 * inf = nan)
        extreme = [5e-324, 1e-300, 1e154, 1e300, math.inf]
        omega = np.array([*extreme, *(-w for w in extreme), math.nan, 0.0, -0.0])
        for damping in (0.0, 0.1):
            osc = MechanicalOscillator(1.0, 1.0, damping)
            for psi, tau, xi in itertools.product((0.1, -0.0), (0.0, 1e-3), (0.7, 1e200)):
                with np.errstate(all="ignore"):
                    batch = noise_over_coupling(osc, cav(0.01, tau), psi, omega)(xi)
                    scalar = [
                        noise_over_coupling(osc, cav(0.01, tau), psi, w)(xi)
                        for w in omega.tolist()
                    ]
                assert batch.tobytes() == np.array(scalar).tobytes()

    @pytest.mark.parametrize("psi", [-0.02, 0.03])
    def test_quasistatic_signed_frequencies(self, high_q_osc, psi):
        # at omega tau = 0 the fold's factors are floats; negative frequencies, -0.0
        # and 0.0 in one array still give the bits of the per-element scalar calls
        up = np.geomspace(0.01, 10.0, 60)
        omega = np.concatenate([-up[::-1], [-0.0, 0.0], up, [-0.5, 0.0, -0.0, 0.5]])
        batch = noise_over_coupling(high_q_osc, cav(0.01), psi, omega)(0.7)
        scalar = [noise_over_coupling(high_q_osc, cav(0.01), psi, w)(0.7) for w in omega.tolist()]
        assert batch.tobytes() == np.array(scalar).tobytes()


def _unfolded_noise(osc, gamma, psi, omega, xi, constants=NORMALIZED):
    """The complex-product noise formula at omega tau = 0, every product of its cavity
    factors (exactly 1 or 0 there) kept; the kernel's fold drops them."""
    u2 = gamma * gamma + psi * psi
    hbar, w = constants.hbar, 0.0
    gw = gamma * w / u2  # Delta / u^2 = dr + i di, Delta = gamma^2 + psi^2 - w^2 - 2 i gamma w
    dr, di = (gamma * gamma + (psi - w) * (psi + w)) / u2, -2.0 * gw
    a_q, a_p = dr + 2.0 * gw * gw, -gw * w * psi / (u2 * hbar)
    lag, spring = 2.0 * hbar * psi * w / u2, hbar * psi / gamma
    qr1, pr1 = a_q * spring - lag * gw, a_p * spring + (1.0 - gw * gw)
    dfac = (dr * dr + di * di) * (1.0 + gw * gw)
    re0 = osc.mass * (osc.resonance_freq * osc.resonance_freq - omega * omega)
    im0 = osc.mass * osc.damping * omega
    jr0, ji = dr * re0 + di * im0, di * re0 - dr * im0
    qr0, qi0, pr0, pi0 = a_q * jr0, a_q * ji, a_p * jr0, a_p * ji
    xi2 = xi * xi
    qr, qi = qr0 + qr1 * xi2, qi0 - lag * xi2
    pr, pi = pr0 / xi2 + pr1, pi0 / xi2 + di
    q2, p2 = qr * qr + qi * qi, pr * pr + pi * pi
    return (q2 / (4.0 * xi2) + hbar * hbar * xi2 * p2) / (dfac * (re0 * re0 + im0 * im0))


class TestQuasistaticFold:
    """At omega tau = 0 the float-omega closure and the grid kernel fold the noise; the
    complex-product formula computed here keeps its factors, exactly 1 or 0 there, and
    gives the same bits."""

    def test_fold_equals_general_formula(self, rng):
        cells = 0
        for _ in range(100):
            osc = MechanicalOscillator(
                10 ** rng.uniform(-2, 2), 10 ** rng.uniform(-1, 1), 10 ** rng.uniform(-4, 0.5)
            )
            gamma, constants = 10 ** rng.uniform(-3, -0.1), Constants(10 ** rng.uniform(-2, 1))
            psi = [0.0, -0.0, math.pi, *rng.uniform(-3.14, 3.14, size=3)]
            omega = osc.resonance_freq * rng.uniform(-3.0, 3.0, size=40)
            omega[:2] = [0.0, -0.0]
            for p in psi:
                xi = float(10 ** rng.uniform(-3, 3))
                general = _unfolded_noise(osc, gamma, p, omega, xi, constants)
                grid = noise_over_coupling(osc, cav(gamma), p, omega, constants)(xi)
                points = [
                    noise_over_coupling(osc, cav(gamma), p, w, constants)(xi)
                    for w in omega.tolist()
                ]
                assert np.all(np.isfinite(general))
                assert grid.tobytes() == general.tobytes() == np.array(points).tobytes()
                cells += omega.size
        assert cells >= 20_000

    def test_extreme_frequencies(self):
        # the extreme list of TestNoiseScalarArrayBitEqual: on its non-finite operands
        # both give NaN, with the same bits, and the same finite values elsewhere
        extreme = [5e-324, 1e-300, 1e154, 1e300, math.inf]
        omega = np.array([*extreme, *(-w for w in extreme), math.nan, 0.0, -0.0])
        overflows = np.isnan(omega) | (np.abs(omega) >= 1e154)  # re0^2 is inf
        for damping in (0.0, 0.1):
            osc = MechanicalOscillator(1.0, 1.0, damping)
            for psi, xi in itertools.product((0.1, -0.0), (0.7, 1e200)):
                with np.errstate(all="ignore"):
                    folded = noise_over_coupling(osc, cav(0.01), psi, omega)(xi)
                    general = _unfolded_noise(osc, 0.01, psi, omega, xi)
                assert folded.tobytes() == general.tobytes()
                nan = overflows if xi == 0.7 else np.ones(omega.shape, bool)  # xi^2 = inf
                assert np.array_equal(np.isnan(folded), nan)
                assert np.all(np.isfinite(folded[~nan]))


class TestNoiseOverDetuningColumn:
    """An array detuning at a float omega, broadcast against the coupling: each
    cell has the bits of its scalar detuning's closure, as a detuning search needs."""

    def test_rows_equal_scalar_closures(self, rng):
        cells = 0
        for _ in range(50):
            osc = MechanicalOscillator(
                10 ** rng.uniform(-2, 2), 10 ** rng.uniform(-1, 1), 10 ** rng.uniform(-4, 0.5)
            )
            gamma, constants = 10 ** rng.uniform(-3, -0.1), Constants(10 ** rng.uniform(-2, 1))
            omega = float(rng.choice([0.0, rng.uniform(0.0, 3.0) * osc.resonance_freq]))
            psi = np.concatenate([rng.uniform(-3.14, 3.14, size=20), [-0.0, 0.0, math.pi]])
            xi = 10 ** rng.uniform(-3, 3, size=60)
            for round_trip in (0.0, 10 ** rng.uniform(-3, 1) / osc.resonance_freq):
                cavity = cav(gamma, round_trip)
                grid = noise_over_coupling(osc, cavity, psi[:, None], omega, constants)
                rows = [
                    noise_over_coupling(osc, cavity, p, omega, constants)(xi)
                    for p in psi.tolist()
                ]
                out = grid(xi)
                assert out.shape == (psi.size, xi.size)
                assert out.tobytes() == np.array(rows).tobytes()
                cells += out.size
        assert cells >= 100_000

    def test_array_omega_refused(self, high_q_osc):
        with pytest.raises(ValueError, match="array detuning needs a float omega"):
            noise_over_coupling(
                high_q_osc, cav(0.01), np.array([[0.0], [0.1]]), np.array([0.5, 1.0])
            )

    def test_checks_every_detuning(self, high_q_osc):
        with pytest.raises(ValueError, match=r"detuning must lie in \(-pi, pi\], got 4.0"):
            noise_over_coupling(high_q_osc, cav(0.01), np.array([0.1, 4.0]), 0.5)
        with pytest.raises(SingularPointError, match=r"gamma=1e-300"):
            noise_over_coupling(high_q_osc, cav(1e-300), np.array([0.1, 0.0]), 0.5)

    @pytest.mark.parametrize("psi", [0.3, np.float64(0.3), -0.0])
    def test_scalar_detuning_skips_numpy_checks(self, high_q_osc, monkeypatch, psi):
        # a scalar detuning at a float omega is built on Python floats: no check calls np.all
        calls = []
        np_all = np.all
        monkeypatch.setattr(np, "all", lambda *a, **k: calls.append(a) or np_all(*a, **k))
        noise_over_coupling(high_q_osc, cav(0.01), psi, 0.5)
        assert calls == []
        noise_over_coupling(high_q_osc, cav(0.01), np.array([psi]), 0.5)
        assert calls != []


class TestEquivalentInputNoise:
    def test_no_measurement(self, osc, cavity):
        with pytest.raises(NoMeasurementError):
            equivalent_input_noise(osc, cavity, WorkingPoint(0.1, 0.0), 0.5)

    def test_zero_coupling_in_noise_over_coupling(self, osc, cavity):
        with pytest.raises(NoMeasurementError) as direct:
            noise_over_coupling(osc, cav(cavity.gamma), 0.1, 0.5)(0.0)
        with pytest.raises(NoMeasurementError) as via_point:
            equivalent_input_noise(osc, cavity, WorkingPoint(0.1, 0.0), 0.5)
        with pytest.raises(NoMeasurementError) as balance:  # no signal, so no balance frequency
            sql_frequency(osc, 0.0)
        assert str(direct.value) == str(via_point.value) == str(balance.value)

    @pytest.mark.parametrize("omega", [0.5, np.array([0.3, 0.5])], ids=["float", "array"])
    @pytest.mark.parametrize("round_trip", [0.0, 1e-3])
    def test_gamma_underflow_raises(self, osc, omega, round_trip):
        # gamma^2 + detuning^2 underflows to 0: a named error, not 0/0 or nan cells
        with pytest.raises(SingularPointError, match=r"gamma=1e-300"):
            noise_over_coupling(osc, cav(1e-300, round_trip), 0.0, omega)

    @pytest.mark.parametrize("round_trip", [0.0, 1e-3])
    @pytest.mark.parametrize(
        "omega",
        [1.0, np.array([1.0]), np.linspace(0.0, 2.0, BLOCK + 1)],  # the grid holds 1.0
        ids=["float", "1-point", "long-grid"],
    )
    def test_undamped_resonance_named_alike(self, omega, round_trip):
        undamped = MechanicalOscillator(1.0, 1.0, 0.0)
        with pytest.raises(SingularPointError) as err:
            noise_over_coupling(undamped, cav(0.01, round_trip), 0.005, omega)(0.7)
        assert str(err.value) == "noise denominator is 0 at omega=1.0"

    @pytest.mark.parametrize("omega", [0.5, np.array([0.5])], ids=["float", "1-point"])
    def test_underflowing_denominator_named_alike(self, osc, omega):
        # 1/|chi|^2 ~ M^2 underflows to 0 at M = 1e-300: named, not an inf cell
        tiny = MechanicalOscillator(1e-300, osc.resonance_freq, osc.damping)
        with pytest.raises(SingularPointError) as err:
            noise_over_coupling(tiny, cav(0.01), 0.005, omega)(0.7)
        assert str(err.value) == "noise denominator is 0 at omega=0.5"

    @pytest.mark.parametrize("n", [1, 3, BLOCK + 1])
    def test_array_omega_checked_at_call(self, n):
        undamped = MechanicalOscillator(1.0, 1.0, 0.0)
        with pytest.raises(SingularPointError):  # a float frequency is checked at the build
            noise_over_coupling(undamped, cav(0.01), 0.005, 1.0)
        noise = noise_over_coupling(undamped, cav(0.01), 0.005, np.full(n, 1.0))
        with pytest.raises(SingularPointError):
            noise(0.7)

    @pytest.mark.parametrize(
        "xi, omega",
        [
            (0.0, 0.5),
            (np.float64(0.0), 0.5),
            (np.array([0.7, 0.0]), 0.5),
            (0.0, np.array([0.3, 0.5])),
        ],
        ids=["float", "numpy-scalar", "array", "float-with-array-omega"],
    )
    def test_every_zero_coupling_raises(self, osc, cavity, xi, omega):
        with pytest.raises(NoMeasurementError):
            noise_over_coupling(osc, cav(cavity.gamma), 0.1, omega)(xi)
        if np.ndim(xi) == 0:  # the closed form refuses a zero working-point coupling alike
            with pytest.raises(NoMeasurementError):
                equivalent_input_noise_closed_form(osc, cavity, WorkingPoint(0.1, xi), omega)

    def test_matches_closed_form(self, osc, cavity, rng):
        for _ in range(200):
            psi = rng.uniform(-0.5, 0.5)
            xi = 10 ** rng.uniform(-1.5, 1.5)
            omega = rng.uniform(0.0, 3.0)
            wp = WorkingPoint(psi, xi)
            a = equivalent_input_noise(osc, cavity, wp, omega)
            b = equivalent_input_noise_closed_form(osc, cavity, wp, omega)
            assert abs(a - b) <= 1e-12 * b

    @pytest.mark.parametrize(
        "omega, at",
        [(0.0, " "), (np.array([0.0, 0.5]), " at grid index 0 ")],
        ids=["float", "array"],
    )
    def test_closed_form_singular_on_boundary(self, high_q_osc, omega, at):
        # binary-exact parameters make the spring term exactly -1 at
        # omega = 0, so the inverse effective susceptibility is exactly zero
        cav = OpticalCavity(gamma=0.0625, round_trip=1e-3, wavevector=1.0)
        wp = WorkingPoint(-0.0625, 1.0)
        msg = f"effective susceptibility diverges{at}(stability boundary)"
        with pytest.raises(SingularPointError, match=f"^{re.escape(msg)}$"):
            equivalent_input_noise_closed_form(high_q_osc, cav, wp, omega)

    def test_sql_attained_at_balance(self, osc, cavity, rng):
        for omega in rng.uniform(0.05, 3.0, size=10):
            ref = sql_point(osc, omega)
            wp = WorkingPoint(0.0, ref.coupling)
            got = equivalent_input_noise(osc, cavity, wp, omega)
            assert got == pytest.approx(ref.level, rel=1e-12)

    def test_half_balance_penalty(self, osc, cavity):
        # zeta = 1/2 costs a factor (2 + 1/2)/2 = 1.25 over the SQL
        ref = sql_point(osc, 0.3)
        wp = WorkingPoint(0.0, ref.coupling / math.sqrt(2.0))
        got = equivalent_input_noise(osc, cavity, wp, 0.3)
        assert got == pytest.approx(1.25 * ref.level, rel=1e-12)

    def test_detuned_optimum_reaches_closed_form(self, high_q_osc, cavity):
        best = lowfreq_optimum(high_q_osc, cavity.gamma, -10.0 * cavity.gamma)
        wp = WorkingPoint(-10.0 * cavity.gamma, best.coupling)
        got = equivalent_input_noise(high_q_osc, cavity, wp, 0.0)
        ref = sql_point(high_q_osc, 0.0)
        assert got / ref.level == pytest.approx(SQRT26_M5, rel=1e-9)

    def test_vectorized_over_frequency(self, osc, cavity):
        omega = np.geomspace(0.01, 3.0, 40)
        wp = WorkingPoint(-0.03, 0.6)
        s = equivalent_input_noise(osc, cavity, wp, omega)
        assert s.shape == omega.shape
        assert s[7] == pytest.approx(equivalent_input_noise(osc, cavity, wp, omega[7]))

    def test_sign_rule(self, osc, cavity, rng):
        # beating the SQL requires the detuning sign opposite to Re(chi)
        for _ in range(300):
            psi = rng.uniform(-0.5, 0.5)
            xi = 10 ** rng.uniform(-1.0, 1.0)
            omega = rng.uniform(0.0, 3.0)
            s = equivalent_input_noise(osc, cavity, WorkingPoint(psi, xi), omega)
            ref = sql_point(osc, omega)
            if s < ref.level:
                chi = mech_susceptibility(osc, omega)
                assert np.sign(psi) == -np.sign(chi.real)

    def test_uql_floor(self, osc, cavity, rng):
        chi0 = 1.0
        floor_slack = 1e-12
        for _ in range(300):
            psi = rng.uniform(-0.5, 0.5)
            if psi == 0.0:
                continue
            cap = cavity.gamma / (chi0 * abs(psi)) if psi < 0 else 100.0
            xi = math.sqrt(rng.uniform(1e-4, 0.95) * cap)
            omega = rng.uniform(0.01, 3.0)
            s = equivalent_input_noise(osc, cavity, WorkingPoint(psi, xi), omega)
            chi = mech_susceptibility(osc, omega)
            assert s >= abs(chi.imag) - floor_slack


class TestSql:
    def test_static_reference(self, osc):
        ref = sql_point(osc, 0.0)
        assert ref.coupling**2 == pytest.approx(0.5, rel=1e-14)
        assert ref.level == pytest.approx(1.0, rel=1e-14)

    def test_on_resonance(self, osc):
        # |chi| = 1/(Gamma Omega_M) on resonance
        ref = sql_point(osc, 1.0)
        assert ref.level == pytest.approx(1.0 / osc.damping, rel=1e-12)

    def test_balance_frequency(self, osc):
        assert sql_frequency(osc, math.sqrt(0.5)) == pytest.approx(1.0, rel=1e-14)

    def test_degenerate_without_damping(self):
        free = MechanicalOscillator(1.0, 1.0, 0.0)
        with pytest.raises(SingularPointError):
            sql_point(free, 1.0)

    @pytest.mark.parametrize(
        "mass, damping, level",
        [(1e200, 1e200, "0.0"), (1e-310, 1e-3, "inf"), (1e-308, 1e-3, "1.3333330370371353e\\+308")],
        ids=["0", "inf", "double-overflows"],
    )
    def test_level_out_of_float_range(self, mass, damping, level):
        # M Gamma omega overflows, or a subnormal M leaves 1 / |M (...)| to overflow, or
        # the level is finite but 2 level is not, so 1 / sqrt(2 level) would be a 0 coupling
        error = pytest.raises(SingularPointError, match=f"SQL level hbar \\|chi\\| = {level} ")
        with np.errstate(over="ignore"), error:
            sql_point(MechanicalOscillator(mass, 1.0, damping), 0.5)


class TestAmplification:
    def test_resonant_cavity(self, osc, cavity):
        assert amplification_factor(osc, cavity, WorkingPoint(0.0, 3.0), 0.2) == 1.0

    def test_softened_spring(self, high_q_osc, cavity):
        wp = WorkingPoint(-cavity.gamma, math.sqrt(0.5))
        assert amplification_factor(high_q_osc, cavity, wp, 0.0) == pytest.approx(2.0)

    def test_highfreq_positive_detuning_amplifies(self, high_q_osc, cavity):
        wp = WorkingPoint(0.05, 1.0)
        assert amplification_factor(high_q_osc, cavity, wp, 3.0) > 1.0

    def test_divergence_on_boundary(self, cavity):
        # binary-exact boundary: chi[0] = 2, xi^2 = 0.25, detuning = -2 gamma
        soft = MechanicalOscillator(mass=0.5, resonance_freq=1.0, damping=1e-3)
        wp = WorkingPoint(-2.0 * cavity.gamma, 0.5)
        with pytest.raises(StabilityBoundaryError):
            amplification_factor(soft, cavity, wp, 0.0)

    @pytest.mark.parametrize("om", [0.19587630973323938, 0.9129130701075421])
    def test_divergence_exactly_at_zero_static_margin(self, om):
        # psi = -gamma and xi = Omega put the point on the boundary up to rounding. With
        # Omega^2 as pow in one route and as a product in the other, the routes disagree
        # here: margin 5.6e-17 with a divergence at the first Omega, 0 without one at the second
        osc = MechanicalOscillator(mass=1.0, resonance_freq=om, damping=0.01)
        cavity = OpticalCavity(gamma=0.5, round_trip=1e-3, wavevector=1.0)
        wp = WorkingPoint(-0.5, om)
        on_boundary = stability(osc, cavity, wp).static_margin == 0
        try:
            amplification_factor(osc, cavity, wp, 0.0)
            diverges = False
        except StabilityBoundaryError:
            diverges = True
        assert diverges == on_boundary


class TestLowFreqOptimum:
    def test_resonant(self, high_q_osc, cavity):
        best = lowfreq_optimum(high_q_osc, cavity.gamma, 0.0)
        assert best.ratio_to_sql == pytest.approx(1.0)
        assert best.coupling == pytest.approx(sql_point(high_q_osc, 0.0).coupling)

    def test_balanced_point_halves_at_minus_two_gamma(self, high_q_osc, cavity):
        best = lowfreq_optimum(high_q_osc, cavity.gamma, -2.0 * cavity.gamma)
        assert best.balanced_ratio == pytest.approx(0.5, rel=1e-12)

    def test_factor_ten(self, high_q_osc, cavity):
        best = lowfreq_optimum(high_q_osc, cavity.gamma, -10.0 * cavity.gamma)
        assert best.ratio_to_sql == pytest.approx(SQRT26_M5, rel=1e-12)
        assert best.balanced_ratio == pytest.approx(1.0 / 6.0, rel=1e-12)

    def test_warns_on_positive_detuning(self, high_q_osc, cavity):
        with pytest.warns(UserWarning):
            lowfreq_optimum(high_q_osc, cavity.gamma, 0.05)


class TestHighFreqOptimum:
    def test_resonant(self, high_q_osc, cavity):
        xi = math.sqrt(0.5)
        best = highfreq_optimum(high_q_osc, xi, 0.0, cavity.gamma)
        assert best.omega == pytest.approx(sql_frequency(high_q_osc, xi))
        assert best.ratio_to_sql == pytest.approx(1.0)

    def test_ten_gamma(self, high_q_osc, cavity):
        best = highfreq_optimum(high_q_osc, math.sqrt(0.5), 0.1, cavity.gamma)
        assert best.omega == pytest.approx(2.2581008643532257, rel=1e-12)
        assert best.ratio_to_sql == pytest.approx(SQRT26_M5, rel=1e-12)

    def test_large_detuning_asymptote(self, high_q_osc, cavity):
        g = cavity.gamma
        best = highfreq_optimum(high_q_osc, 1.0, 100.0 * g, g)
        assert best.ratio_to_sql == pytest.approx(g / (100.0 * g), rel=1e-3)

    def test_warns_on_negative_detuning(self, high_q_osc, cavity):
        with pytest.warns(UserWarning):
            highfreq_optimum(high_q_osc, 1.0, -0.05, cavity.gamma)


class TestCouplingOptimum:
    def test_recovers_lowfreq_form_for_real_response(self, cavity):
        # Gamma = 0 keeps chi real below resonance
        free = MechanicalOscillator(1.0, 1.0, 0.0)
        g = cavity.gamma
        got = coupling_optimum(free, 0.3, -5.0 * g, g)
        ref = lowfreq_optimum(MechanicalOscillator(1.0, 1.0, 1e-9), g, -5.0 * g)
        # same beta, chi real positive: identical ratio formula
        assert got.ratio_to_sql == pytest.approx(ref.ratio_to_sql, rel=1e-9)

    def test_recovers_highfreq_form_for_negative_response(self, cavity):
        free = MechanicalOscillator(1.0, 1.0, 0.0)
        g = cavity.gamma
        got = coupling_optimum(free, 4.0, 10.0 * g, g)  # chi < 0 above resonance
        ref = highfreq_optimum(free, 1.0, 10.0 * g, g)
        assert got.ratio_to_sql == pytest.approx(ref.ratio_to_sql, rel=1e-9)

    def test_frozen_point(self, osc, cavity):
        got = coupling_optimum(osc, 0.5, -10.0 * cavity.gamma, cavity.gamma)
        assert got.ratio_to_sql == pytest.approx(0.11009372430974, rel=1e-9)

    def test_on_resonance_detuning_cannot_help(self, osc, cavity, rng):
        for psi in rng.uniform(-0.5, 0.5, size=10):
            got = coupling_optimum(osc, 1.0, psi, cavity.gamma)
            beta = 0.5 * psi / cavity.gamma
            assert got.ratio_to_sql == pytest.approx(math.sqrt(1.0 + beta**2), rel=1e-12)
            assert got.ratio_to_sql >= 1.0


class TestCancellingClosedForms:
    """root -/+ beta c at |beta| = 1e6 and 1e8 against a 50-digit decimal oracle."""

    BETAS = (1e6, -1e6, 1e8, -1e8)
    GAMMA = 0.01

    @staticmethod
    def _oracle(beta: float, re: float = -1.0, im: float = 0.0) -> float:
        """sqrt(1 + beta^2) + beta re / |re + i im|, in 50 digits."""
        with localcontext() as ctx:
            ctx.prec = 50
            b, re, im = Decimal(beta), Decimal(re), Decimal(im)
            return float((1 + b * b).sqrt() + b * re / (re * re + im * im).sqrt())

    @pytest.mark.parametrize("beta", BETAS)
    def test_highfreq_optimum(self, beta):
        osc = MechanicalOscillator(1.0, 1e-6, 1e-9)
        detuning = 2.0 * self.GAMMA * beta
        with warnings.catch_warnings():  # a negative detuning warns; its ratio is checked too
            warnings.simplefilter("ignore", UserWarning)
            best = highfreq_optimum(osc, 1.0, detuning, self.GAMMA)
        ratio = self._oracle(0.5 * detuning / self.GAMMA)  # root - beta: c = -1
        assert best.ratio_to_sql == pytest.approx(ratio, rel=1e-12)
        free_mass_sql = 1.0 / (osc.mass * (best.omega * best.omega))
        assert best.level == pytest.approx(ratio * free_mass_sql, rel=1e-12)

    @pytest.mark.parametrize("damping", (0.0, 1e-9))
    @pytest.mark.parametrize("omega", (0.5, 2.0))  # Re chi > 0, then Re chi < 0
    @pytest.mark.parametrize("beta", BETAS)
    def test_coupling_optimum(self, beta, omega, damping):
        osc = MechanicalOscillator(1.0, 1.0, damping)
        detuning = 2.0 * self.GAMMA * beta
        got = coupling_optimum(osc, omega, detuning, self.GAMMA)
        chi = complex(mech_susceptibility(osc, omega))
        ratio = self._oracle(0.5 * detuning / self.GAMMA, chi.real, chi.imag)
        assert got.ratio_to_sql == pytest.approx(ratio, rel=1e-12)
        assert got.level == pytest.approx(ratio * sql_point(osc, omega).level, rel=1e-12)


class TestUltimateQuantumLimit:
    def test_meets_sql_on_resonance(self, osc, cavity):
        best = ultimate_quantum_limit(osc, 1.0, cavity.gamma)
        assert best.detuning == pytest.approx(0.0, abs=1e-15)
        assert best.level == pytest.approx(sql_point(osc, 1.0).level, rel=1e-12)

    def test_frozen_point(self, osc, cavity):
        best = ultimate_quantum_limit(osc, 0.5, cavity.gamma)
        assert best.detuning / (2.0 * cavity.gamma) == pytest.approx(-15.0, rel=1e-12)
        assert best.level == pytest.approx(0.08849557522123894, rel=1e-12)

    def test_floor_below_sql(self, osc, cavity, rng):
        for omega in rng.uniform(0.05, 3.0, size=20):
            best = ultimate_quantum_limit(osc, omega, cavity.gamma)
            assert best.ratio_to_sql <= 1.0 + 1e-12

    def test_degenerate_without_damping(self, cavity):
        free = MechanicalOscillator(1.0, 1.0, 0.0)
        with pytest.raises(DegenerateDissipationError):
            ultimate_quantum_limit(free, 0.5, cavity.gamma)
