import math

import numpy as np
import pytest

from optospring import (
    MechanicalOscillator,
    OpticalCavity,
    SingularPointError,
    WorkingPoint,
    effective_damping,
    effective_susceptibility,
    effective_susceptibility_poles,
    kappa_for_coupling,
    loop_denominator,
    mech_susceptibility,
    solve_self_consistent_detuning,
    stability,
    steady_state,
    wrap_phase,
)


class TestTypes:
    def test_validation(self):
        with pytest.raises(ValueError):
            MechanicalOscillator(mass=0.0, resonance_freq=1.0, damping=0.1)
        with pytest.raises(ValueError):
            MechanicalOscillator(mass=1.0, resonance_freq=-1.0, damping=0.1)
        with pytest.raises(ValueError):
            OpticalCavity(gamma=1.5, round_trip=1e-3, wavevector=1.0)
        with pytest.raises(ValueError):
            WorkingPoint(detuning=0.0, coupling=-1.0)
        with pytest.raises(ValueError):
            WorkingPoint(detuning=-3.5, coupling=1.0)

    def test_wrap_phase(self):
        assert wrap_phase(0.3) == pytest.approx(0.3)
        assert wrap_phase(0.3 + 2 * math.pi) == pytest.approx(0.3)
        assert wrap_phase(-math.pi) == pytest.approx(math.pi)
        assert -math.pi < wrap_phase(123.456) <= math.pi

    def test_bandwidth(self, cavity):
        assert cavity.bandwidth == pytest.approx(10.0)


class TestSusceptibility:
    def test_static_limit(self, osc):
        assert mech_susceptibility(osc, 0.0) == pytest.approx(1.0 + 0.0j)

    def test_on_resonance(self, osc):
        # 1/(-i Gamma Omega_M) evaluated by hand
        assert mech_susceptibility(osc, 1.0) == pytest.approx(10.0j)

    def test_off_resonance_value(self, osc):
        got = mech_susceptibility(osc, 2.0)
        assert got == pytest.approx(-0.331858407079646 + 0.0221238938053097j, rel=1e-12)

    def test_undamped_resonance_is_singular(self):
        free = MechanicalOscillator(mass=1.0, resonance_freq=1.0, damping=0.0)
        with pytest.raises(SingularPointError):
            mech_susceptibility(free, 1.0)

    def test_reality_symmetry(self, osc, rng):
        omega = rng.uniform(0.01, 5.0, size=50)
        chi = mech_susceptibility(osc, omega)
        assert np.allclose(mech_susceptibility(osc, -omega), np.conj(chi), rtol=1e-14)

    def test_vectorized(self, osc):
        omega = np.array([0.0, 1.0, 2.0])
        chi = mech_susceptibility(osc, omega)
        assert chi.shape == (3,)
        assert chi[2] == pytest.approx(mech_susceptibility(osc, 2.0))


class TestSteadyState:
    def test_resonant_drive(self, cavity):
        ss = steady_state(cavity, 0.0, 1.0)
        assert ss.a_bar == pytest.approx(math.sqrt(200.0), rel=1e-12)
        assert ss.theta_in == 0.0 and ss.theta_out == 0.0
        assert ss.intensity == pytest.approx(200.0, rel=1e-12)

    def test_detuned_drive_phases(self, cavity):
        ss = steady_state(cavity, 0.01, 1.0)
        assert ss.a_bar == pytest.approx(10.0, rel=1e-12)
        assert ss.theta_in == pytest.approx(math.pi / 4)
        assert ss.theta_out == pytest.approx(-math.pi / 4)

    def test_lossless_flux(self, cavity, rng):
        for _ in range(100):
            psi = rng.uniform(-3.0, 3.0)
            amp = rng.uniform(0.0, 10.0)
            ss = steady_state(cavity, psi, amp)
            assert abs(ss.a_out) == pytest.approx(abs(ss.a_in), rel=1e-12, abs=1e-300)
            assert abs(ss.a_in) == pytest.approx(amp, rel=1e-12, abs=1e-300)

    def test_kappa(self, cavity):
        ss = steady_state(cavity, 0.0, 2.0)
        assert ss.kappa == pytest.approx(2.0 * cavity.wavevector * ss.a_bar)


class TestLoopDenominator:
    def test_zero_frequency(self):
        cav = OpticalCavity(gamma=0.01, round_trip=1e-8, wavevector=1.0)
        assert loop_denominator(cav, 0.1, 0.0) == pytest.approx(0.0101)

    def test_hand_expansion(self):
        cav = OpticalCavity(gamma=0.01, round_trip=1e-8, wavevector=1.0)
        got = loop_denominator(cav, 0.02, 1e6)
        assert got == pytest.approx(4e-4 - 2e-4j, rel=1e-12)

    def test_conjugate_symmetry(self, cavity, rng):
        omega = rng.uniform(0.01, 100.0, size=20)
        d = loop_denominator(cavity, 0.05, omega)
        assert np.allclose(loop_denominator(cavity, 0.05, -omega), np.conj(d), rtol=1e-14)


class TestCoupling:
    def test_kappa_for_coupling_matches_steady_state(self, cavity, rng):
        for _ in range(20):
            psi = rng.uniform(-1.0, 1.0)
            amp = rng.uniform(0.1, 5.0)
            g = cavity.gamma
            xi = 4.0 * cavity.wavevector * g * amp / (g**2 + psi**2)
            ss = steady_state(cavity, psi, amp)
            assert kappa_for_coupling(cavity, psi, xi) == pytest.approx(ss.kappa, rel=1e-12)


class TestEffectiveSusceptibility:
    def test_resonant_cavity_unchanged(self, osc, cavity, rng):
        for omega in rng.uniform(0.0, 5.0, size=10):
            chi = mech_susceptibility(osc, omega)
            chi_eff = effective_susceptibility(osc, cavity, 0.0, 3.0, omega)
            assert chi_eff == pytest.approx(chi, rel=1e-14)

    def test_quasistatic_softening(self, high_q_osc, cavity):
        # hbar=1, chi[0]=1, xi^2=0.5, detuning/gamma = -1  ->  chi_eff[0] = 2
        kappa = kappa_for_coupling(cavity, -cavity.gamma, math.sqrt(0.5))
        got = effective_susceptibility(high_q_osc, cavity, -cavity.gamma, kappa, 0.0)
        assert got == pytest.approx(2.0 + 0.0j, rel=1e-12)

    def test_quasistatic_stiffening(self, high_q_osc, cavity):
        kappa = kappa_for_coupling(cavity, cavity.gamma, math.sqrt(0.5))
        got = effective_susceptibility(high_q_osc, cavity, cavity.gamma, kappa, 0.0)
        assert got == pytest.approx(2.0 / 3.0 + 0.0j, rel=1e-12)

    def test_quasistatic_limit_of_full_form(self, high_q_osc, rng):
        # the full expression converges to the quasi-static one as
        # omega/bandwidth -> 0; at omega/bandwidth <= 1e-7 with moderate
        # spring strength the relative gap is below 1e-6
        for _ in range(20):
            gamma = rng.uniform(0.005, 0.05)
            cav = OpticalCavity(gamma=gamma, round_trip=10 ** rng.uniform(-5, -3),
                                wavevector=1.0)
            psi = rng.uniform(-0.3, 0.3)
            xi2 = rng.uniform(0.01, 0.45) * (
                gamma / abs(psi) if psi < 0 else 1.0
            )
            kappa = kappa_for_coupling(cav, psi, math.sqrt(xi2))
            omega = rng.uniform(1e-9, 1e-7) * cav.bandwidth
            full = effective_susceptibility(high_q_osc, cav, psi, kappa, omega)
            chi = mech_susceptibility(high_q_osc, omega)
            quasi = 1.0 / (1.0 / chi + xi2 * psi / gamma)
            assert abs(full - quasi) / abs(full) < 1e-6

    def test_reality_symmetry(self, osc, cavity, rng):
        omega = rng.uniform(0.01, 20.0, size=20)
        ce = effective_susceptibility(osc, cavity, 0.07, 2.0, omega)
        ce_m = effective_susceptibility(osc, cavity, 0.07, 2.0, -omega)
        assert np.allclose(ce_m, np.conj(ce), rtol=1e-13)

    def test_singular_on_boundary(self, high_q_osc):
        # binary-exact parameters make the spring term exactly -1 at
        # omega = 0, so the inverse susceptibility is exactly zero
        cav = OpticalCavity(gamma=0.0625, round_trip=1e-3, wavevector=1.0)
        with pytest.raises(SingularPointError):
            effective_susceptibility(high_q_osc, cav, -0.0625, 0.25, 0.0)


class TestEffectiveDamping:
    def test_resonant_cavity(self, high_q_osc, cavity):
        assert effective_damping(high_q_osc, cavity, 0.0, 5.0) == high_q_osc.damping

    def test_sign_rule(self, high_q_osc, cavity):
        widened = effective_damping(high_q_osc, cavity, -0.05, 1.0)
        narrowed = effective_damping(high_q_osc, cavity, 0.05, 1.0)
        assert widened > high_q_osc.damping > narrowed

    def test_numeric_point_against_pole_shift(self, high_q_osc):
        cav = OpticalCavity(gamma=0.01, round_trip=0.01 / 10.0, wavevector=1.0)
        kappa = math.sqrt(1e-4)  # hbar kappa^2 = 1e-4
        got = effective_damping(high_q_osc, cav, 0.05, kappa)
        assert got == pytest.approx(9.703931829711655e-4, rel=1e-12)
        poles = effective_susceptibility_poles(high_q_osc, cav, 0.05, kappa)
        mech = sorted(poles, key=lambda z: abs(abs(z.real) - 1.0))[:2]
        for p in mech:
            assert -2.0 * p.imag == pytest.approx(got, rel=1e-4)

    def test_low_q_warns(self, cavity):
        heavy = MechanicalOscillator(mass=1.0, resonance_freq=1.0, damping=0.5)
        with pytest.warns(UserWarning):
            effective_damping(heavy, cavity, 0.01, 1.0)


class TestPoles:
    def test_resonant_cavity_pole_positions(self, high_q_osc, cavity):
        poles = effective_susceptibility_poles(high_q_osc, cavity, 0.0, 0.7)
        mech = sorted(poles, key=lambda z: abs(abs(z.real) - 1.0))[:2]
        g = high_q_osc.damping
        expected_re = math.sqrt(1.0 - g**2 / 4.0)
        for p in sorted(mech, key=lambda z: z.real):
            assert p.imag == pytest.approx(-g / 2.0, rel=1e-9)
            assert abs(p.real) == pytest.approx(expected_re, rel=1e-9)

    def test_pole_locus_matches_damping_sign(self, cavity, rng):
        # independent dynamic-stability oracle in the high-Q regime
        agree = 0
        total = 0
        while total < 60:
            osc = MechanicalOscillator(1.0, 1.0, 10 ** rng.uniform(-6, -3))
            gamma = rng.uniform(0.005, 0.05)
            cav = OpticalCavity(gamma=gamma, round_trip=gamma / 10 ** rng.uniform(-0.5, 1.5),
                                wavevector=1.0)
            psi = rng.uniform(-0.6, 0.6)
            if abs(psi) < 1e-3:
                continue
            delta = loop_denominator(cav, psi, 1.0)
            k2_crit = osc.damping * cav.bandwidth * abs(delta) ** 2 / (
                4.0 * gamma**2 * abs(psi)
            )
            k2 = k2_crit * 10 ** rng.uniform(-1.5, 1.5)
            if abs((2.0 * k2 * psi / delta).real) > 0.02:
                continue
            total += 1
            ge = effective_damping(osc, cav, psi, math.sqrt(k2))
            poles = effective_susceptibility_poles(osc, cav, psi, math.sqrt(k2))
            stable = max(p.imag for p in poles) < 0
            agree += stable == (ge > 0)
        assert agree == total


class TestStability:
    def test_resonant(self, high_q_osc, cavity):
        rep = stability(high_q_osc, cavity, WorkingPoint(0.0, 5.0))
        assert rep.static_ok and rep.dynamic_ok
        assert rep.static_margin == pytest.approx(cavity.gamma**2)
        assert rep.dynamic_margin == pytest.approx(high_q_osc.damping)

    def test_negative_detuning_always_dynamically_stable(self, high_q_osc, cavity, rng):
        for _ in range(50):
            wp = WorkingPoint(rng.uniform(-3.0, -1e-4), rng.uniform(0.0, 50.0))
            assert stability(high_q_osc, cavity, wp).dynamic_ok

    def test_static_boundary_flagged(self, cavity):
        # binary-exact boundary: chi[0] = 2, xi^2 = 0.25, detuning = -2 gamma
        soft = MechanicalOscillator(mass=0.5, resonance_freq=1.0, damping=1e-3)
        wp = WorkingPoint(-2.0 * cavity.gamma, 0.5)
        rep = stability(soft, cavity, wp)
        assert rep.static_margin == pytest.approx(0.0, abs=1e-18)
        assert not rep.static_ok


class TestSelfConsistentDetuning:
    def test_no_light(self, high_q_osc, cavity):
        branches = solve_self_consistent_detuning(cavity, high_q_osc, 0.3, 0.0)
        assert len(branches) == 1
        assert branches[0].detuning == pytest.approx(0.3, rel=1e-12)
        assert branches[0].static_ok

    def test_weak_drive_perturbative(self, high_q_osc, cavity):
        psi0 = -0.02
        amp = 1e-3
        branches = solve_self_consistent_detuning(cavity, high_q_osc, psi0, amp)
        assert len(branches) == 1
        # first-order recoil shift computed from the bare-detuning state
        kappa0 = steady_state(cavity, psi0, amp).kappa
        first_order = psi0 + kappa0**2  # hbar = chi[0] = 1
        assert branches[0].detuning == pytest.approx(first_order, rel=1e-3)

    def test_self_consistency_residual(self, high_q_osc, cavity, rng):
        for _ in range(20):
            psi0 = rng.uniform(-1.0, 1.0)
            amp = rng.uniform(0.0, 0.02)
            for b in solve_self_consistent_detuning(cavity, high_q_osc, psi0, amp):
                residual = b.detuning - psi0 - b.state.kappa**2  # hbar = chi0 = 1
                assert abs(residual) < 1e-9 * (1.0 + abs(b.detuning))

    def test_bistability_window_and_vieta(self, high_q_osc, cavity):
        psi0 = -0.05
        g = cavity.gamma
        # locate the multistable window by scanning the drive upward
        branches = None
        for amp in np.geomspace(1e-3, 1e-1, 200):
            found = solve_self_consistent_detuning(cavity, high_q_osc, psi0, amp)
            if len(found) == 3:
                branches = found
                drive = amp
                break
        assert branches is not None, "no bistable drive found in scan"
        assert [b.static_ok for b in branches] == [True, False, True]
        # Vieta: compare symmetric functions of the roots to the cubic coefficients
        r = [b.detuning for b in branches]
        c = 8.0 * g * drive**2  # hbar = chi0 = wavevector = 1
        assert sum(r) == pytest.approx(psi0, rel=1e-9)
        assert r[0] * r[1] + r[0] * r[2] + r[1] * r[2] == pytest.approx(g**2, rel=1e-9)
        assert r[0] * r[1] * r[2] == pytest.approx(psi0 * g**2 + c, rel=1e-9)
