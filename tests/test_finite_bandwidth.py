import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from optospring import (
    MechanicalOscillator,
    NoDipFoundError,
    OpticalCavity,
    WorkingPoint,
    default_grid,
    dip_analysis,
    equivalent_input_noise,
    full_transfer,
    full_transfer_by_solve,
    log_grid,
    mech_susceptibility,
    quadrature_transfer,
    quasi_free_oscillator,
    spectrum,
)


def fig4_setup(detuning_ratio, bandwidth_ratio):
    """Free-mass-regime working point with the balance frequency at 1."""
    gamma = 0.01
    osc = quasi_free_oscillator(1.0)
    cavity = OpticalCavity(
        gamma=gamma, round_trip=gamma / bandwidth_ratio, wavevector=1.0
    )
    wp = WorkingPoint(detuning=detuning_ratio * gamma, coupling=math.sqrt(0.5))
    return osc, cavity, wp


def _uniform(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


class TestFullTransfer:
    @settings(derandomize=True, deadline=None)
    @given(
        log_resonance=_uniform(-4, 0),
        log_damping=_uniform(-6, -2),
        gamma=_uniform(0.005, 0.05),
        log_round_trip=_uniform(-4, -2),
        psi=_uniform(-0.5, 0.5),
        log_xi=_uniform(-1, 1),
        log_omega=_uniform(-3, 2),
    )
    def test_matches_linear_solve(
        self, log_resonance, log_damping, gamma, log_round_trip, psi, log_xi, log_omega
    ):
        # the response kernel against the raw 3x3 solve
        osc = MechanicalOscillator(1.0, 10**log_resonance, 10**log_damping)
        cavity = OpticalCavity(gamma=gamma, round_trip=10**log_round_trip, wavevector=1.0)
        wp = WorkingPoint(psi, 10**log_xi)
        omega = 10**log_omega
        a = full_transfer(osc, cavity, wp, omega)
        b = full_transfer_by_solve(osc, cavity, wp, omega)
        assert a.c_q == pytest.approx(b.c_q, rel=1e-9)
        assert a.c_p == pytest.approx(b.c_p, rel=1e-9)
        assert a.c_sig == pytest.approx(b.c_sig, rel=1e-9)

    def test_vacuum_unitarity_without_light(self, high_q_osc, rng):
        # a lossless cavity rotates vacuum noise but cannot create it
        for _ in range(20):
            cavity = OpticalCavity(
                gamma=rng.uniform(0.005, 0.05),
                round_trip=10 ** rng.uniform(-4, -2),
                wavevector=1.0,
            )
            wp = WorkingPoint(rng.uniform(-0.5, 0.5), 0.0)
            omega = np.geomspace(1e-3, 1e3, 60)
            t = full_transfer(high_q_osc, cavity, wp, omega)
            assert np.allclose(
                np.abs(t.c_q) ** 2 + np.abs(t.c_p) ** 2, 1.0, rtol=0, atol=1e-12
            )

    def test_quasistatic_reduction_of_coefficients(self, high_q_osc):
        for ratio in (1.5, -2.0):
            cavity = OpticalCavity(gamma=0.01, round_trip=1e-3, wavevector=1.0)
            wp = WorkingPoint(ratio * cavity.gamma, 0.4)
            omega = 1e-6 * cavity.bandwidth
            full = full_transfer(high_q_osc, cavity, wp, omega)
            quasi = quadrature_transfer(high_q_osc, cavity, wp, omega)
            assert abs(full.c_q - quasi.c_q) / abs(quasi.c_q) < 1e-6
            assert abs(full.c_p - quasi.c_p) / abs(quasi.c_p) < 1e-6
            assert abs(full.c_sig - quasi.c_sig) / abs(quasi.c_sig) < 1e-6

    def test_signal_lowpass_on_resonance(self, high_q_osc, cavity):
        # detuning 0: |c_sig| scales as gamma/|gamma - i omega tau|
        wp = WorkingPoint(0.0, 0.8)
        omega = np.geomspace(0.1, 1e3, 50)
        t = full_transfer(high_q_osc, cavity, wp, omega)
        g, tau = cavity.gamma, cavity.round_trip
        expected = 2.0 * wp.coupling * g / np.hypot(g, omega * tau)
        assert np.allclose(np.abs(t.c_sig), expected, rtol=1e-12)

    def test_reality_symmetry(self, high_q_osc, cavity, rng):
        wp = WorkingPoint(0.08, 1.2)
        omega = rng.uniform(0.1, 100.0, size=20)
        t = full_transfer(high_q_osc, cavity, wp, omega)
        s = full_transfer(high_q_osc, cavity, wp, -omega)
        for a, b in ((t.c_q, s.c_q), (t.c_p, s.c_p), (t.c_sig, s.c_sig)):
            assert np.allclose(b, np.conj(a), rtol=1e-12)


class TestSpectrum:
    def test_grid_validation(self, high_q_osc, cavity):
        wp = WorkingPoint(0.0, 1.0)
        with pytest.raises(ValueError):
            spectrum(high_q_osc, cavity, wp, np.array([1.0, 0.5, 2.0]))
        with pytest.raises(ValueError):
            spectrum(high_q_osc, cavity, wp, np.array([-1.0, 1.0]))

    def test_log_grid(self):
        g = log_grid(0.01, 1000.0, 400)
        assert g.size == 2001
        assert g[0] == pytest.approx(0.01) and g[-1] == pytest.approx(1000.0)
        assert np.all(np.diff(g) > 0)

    def test_sql_curve_attached(self):
        osc, cavity, wp = fig4_setup(0.0, 2.0)
        sp = spectrum(osc, cavity, wp, default_grid(1.0))
        expected = np.abs(mech_susceptibility(osc, sp.omega))
        assert np.allclose(sp.s_sql, expected, rtol=1e-14)

    def test_resonant_curve_rises_above_sql_beyond_bandwidth(self):
        osc, cavity, wp = fig4_setup(0.0, 2.0)
        sp = spectrum(osc, cavity, wp, default_grid(1.0))
        tail = sp.omega > 10.0 * cavity.bandwidth
        assert np.all(np.diff(sp.s_sig[tail]) > 0)
        assert np.all(sp.ratio[tail] > 1.0)

    def test_positive_detuning_dual_dips(self):
        osc, cavity, wp = fig4_setup(10.0, 2.0)
        sp = spectrum(osc, cavity, wp, default_grid(1.0))
        rep = dip_analysis(sp, osc, cavity, wp)
        assert rep.omega_minus is not None and rep.omega_plus is not None
        assert rep.omega_plus > rep.omega_minus

    def test_negative_detuning_single_dip(self):
        for bandwidth, below in ((2.0, False), (1.0 / 3.0, True)):
            osc, cavity, wp = fig4_setup(-10.0, bandwidth)
            sp = spectrum(osc, cavity, wp, default_grid(1.0))
            rep = dip_analysis(sp, osc, cavity, wp)
            assert rep.count == 1
            assert rep.omega_minus is None
            assert rep.omega_plus is not None
            assert rep.below_sql_plus is below

    def test_negative_detuning_extra_minimum_not_a_spring_dip(self):
        # a synthetic second minimum below the loop dip: no spring dip is
        # predicted at negative detuning, so nothing may land in omega_minus
        osc, cavity, wp = fig4_setup(-10.0, 2.0)
        sp = spectrum(osc, cavity, wp, default_grid(1.0))
        loop = dip_analysis(sp, osc, cavity, wp).omega_plus
        reference = spectrum(osc, cavity, WorkingPoint(0.0, wp.coupling), sp.omega)
        s_sig = sp.s_sig.copy()
        k = int(np.searchsorted(sp.omega, 1.0))
        s_sig[k] = 0.5 * reference.s_sig[k]
        rep = dip_analysis(dataclasses.replace(sp, s_sig=s_sig), osc, cavity, wp)
        assert rep.count == 2
        assert rep.omega_minus is None
        assert rep.omega_plus == loop


class TestDipAnalysis:
    def test_no_dip_at_zero_detuning(self):
        osc, cavity, wp = fig4_setup(0.0, 2.0)
        sp = spectrum(osc, cavity, wp, default_grid(1.0))
        with pytest.raises(NoDipFoundError):
            dip_analysis(sp, osc, cavity, wp)

    def test_spring_dip_tracks_infinite_bandwidth_position(self):
        # the finite bandwidth leaves the mechanical-resonance dip in
        # place: compare against the numeric infinite-bandwidth minimum
        for ratio in (5.0, 10.0):
            osc, cavity, wp = fig4_setup(ratio, 2.0)
            sp = spectrum(osc, cavity, wp, default_grid(1.0))
            rep = dip_analysis(sp, osc, cavity, wp)
            res = minimize_scalar(
                lambda lw: equivalent_input_noise(
                    osc, cavity, wp, math.exp(lw)
                ),
                bounds=(math.log(0.5), math.log(5.0)),
                method="bounded",
                options={"xatol": 1e-12},
            )
            infinite_bw_dip = math.exp(res.x)
            assert abs(rep.omega_minus / infinite_bw_dip - 1.0) < 0.05

    def test_spring_dip_near_ratio_optimum_at_large_detuning(self):
        osc, cavity, wp = fig4_setup(10.0, 2.0)
        sp = spectrum(osc, cavity, wp, default_grid(1.0))
        rep = dip_analysis(sp, osc, cavity, wp)
        omega_min = (1.0 + 5.0**2) ** 0.25  # closed-form ratio optimum
        assert abs(rep.omega_minus / omega_min - 1.0) < 0.05

    def test_depths_match_large_detuning_asymptote(self):
        for ratio in (5.0, 10.0):
            osc, cavity, wp = fig4_setup(ratio, 2.0)
            sp = spectrum(osc, cavity, wp, default_grid(1.0))
            rep = dip_analysis(sp, osc, cavity, wp)
            for depth in (rep.depth_minus, rep.depth_plus):
                assert abs(depth / rep.predicted_depth - 1.0) < 0.15

    def test_predictions_attached(self):
        osc, cavity, wp = fig4_setup(10.0, 2.0)
        sp = spectrum(osc, cavity, wp, default_grid(1.0))
        rep = dip_analysis(sp, osc, cavity, wp)
        assert rep.predicted_omega_minus == pytest.approx(math.sqrt(5.0))
        assert rep.predicted_omega_plus == pytest.approx(2.0 * math.sqrt(101.0))
        assert rep.predicted_depth == pytest.approx(0.02)

    def test_quasistatic_limit_of_spectrum(self, rng):
        # the exact spectrum reduces to the quasi-static closed chain
        # well below the cavity bandwidth
        osc = MechanicalOscillator(mass=1.0, resonance_freq=5e-4, damping=1e-5)
        chi0 = 1.0 / (osc.mass * osc.resonance_freq**2)
        for _ in range(10):
            gamma = rng.uniform(0.005, 0.05)
            cavity = OpticalCavity(gamma=gamma, round_trip=gamma / 10.0, wavevector=1.0)
            psi = rng.uniform(-0.3, 0.3)
            cap = gamma / (chi0 * abs(psi)) if psi < 0 else 10.0
            wp = WorkingPoint(psi, math.sqrt(rng.uniform(0.01, 0.8) * cap))
            grid = np.geomspace(1e-6, 1e-4, 7) * cavity.bandwidth
            sp = spectrum(osc, cavity, wp, grid)
            quasi = equivalent_input_noise(osc, cavity, wp, grid)
            assert np.all(np.abs(sp.s_sig - quasi) / quasi < 1e-6)
