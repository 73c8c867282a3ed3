import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import optospring
from optospring import core
from optospring import (
    Constants,
    MechanicalOscillator,
    OpticalCavity,
    SingularPointError,
    StabilityBoundaryError,
    StabilityReport,
    WorkingPoint,
    amplification_factor,
    effective_susceptibility_poles,
    kappa_for_coupling,
    mech_susceptibility,
    solve_self_consistent_detuning,
    spectrum,
    sql_frequency,
    stability,
    stability_map,
    static_coupling2_bound,
    steady_state,
)
from optospring.config import build_run_config

OSC = MechanicalOscillator(mass=1.0, resonance_freq=1.0, damping=1e-3)
CAVITY = OpticalCavity(gamma=0.01, round_trip=1e-3, wavevector=1.0)


def _uniform(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


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
        with pytest.raises(ValueError, match="hbar must be positive"):
            Constants(hbar=0.0)
        with pytest.raises(ValueError, match="wavevector must be positive"):
            OpticalCavity(gamma=0.01, round_trip=1e-3, wavevector=0.0)

    @pytest.mark.parametrize("bad", [-1.0, math.nan])
    @pytest.mark.parametrize(
        "refused, message",
        [
            (lambda bad: MechanicalOscillator(1.0, 1.0, damping=bad), "damping must be >= 0"),
            (lambda bad: WorkingPoint(0.0, coupling=bad), "coupling must be >= 0"),
            (lambda bad: steady_state(CAVITY, 0.01, bad), "input_magnitude must be >= 0"),
            (
                lambda bad: solve_self_consistent_detuning(CAVITY, OSC, 0.01, bad),
                "input_magnitude must be >= 0",
            ),
            (
                lambda bad: stability_map(OSC, CAVITY, np.array([1.0, bad]), np.zeros(1)),
                "coupling2 must be >= 0",
            ),
            (
                lambda bad: spectrum(OSC, CAVITY, WorkingPoint(0.0, 1.0), np.array([0.5, bad, 2])),
                "grid must be strictly increasing and positive",
            ),
            (lambda bad: sql_frequency(OSC, bad), "coupling must be > 0"),
        ],
        ids=[
            "damping", "coupling", "steady_state", "self_consistent", "coupling2", "grid",
            "sql_frequency",
        ],
    )
    def test_sign_checks_refuse_nan(self, refused, message, bad):
        # each sign check is written in the positive form, so nan fails it as -1 does
        with pytest.raises(ValueError, match=message):
            refused(bad)

    def test_bandwidth(self, cavity):
        assert cavity.bandwidth == pytest.approx(10.0)


class TestQuasistaticCavity:
    """``round_trip = 0`` is the quasi-static cavity: infinite bandwidth, no delay."""

    def test_bandwidth_is_infinite(self):
        assert OpticalCavity(gamma=0.01, round_trip=0.0, wavevector=1.0).bandwidth == math.inf

    @pytest.mark.parametrize("round_trip", [-1e-3, math.nan])
    def test_negative_and_nan_refused(self, round_trip):
        with pytest.raises(ValueError, match="round_trip must be >= 0"):
            OpticalCavity(gamma=0.01, round_trip=round_trip, wavevector=1.0)

    def test_no_delay_no_antidamping(self, rng):
        # the optical spring changes the damping only through the delay
        for _ in range(200):
            osc = MechanicalOscillator(10 ** rng.uniform(-2, 2), 1.0, 10 ** rng.uniform(-6, -2))
            cav = OpticalCavity(gamma=10 ** rng.uniform(-3, -0.1), round_trip=0.0, wavevector=1.0)
            wp = WorkingPoint(rng.uniform(-3.1, 3.1), 10 ** rng.uniform(-3, 3))
            assert stability(osc, cav, wp).dynamic_margin == osc.damping

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(
        log_damping=_uniform(-6, -2),
        log_gamma=_uniform(-3, -0.1),
        psi=_uniform(-3.1, 3.1),
        log_xi=_uniform(-2, 2),
    )
    def test_verdict_matches_poles(self, log_damping, log_gamma, psi, log_xi):
        # stable by the report exactly where every pole decays
        osc = MechanicalOscillator(1.0, 1.0, 10**log_damping)
        cav = OpticalCavity(gamma=10**log_gamma, round_trip=0.0, wavevector=1.0)
        wp = WorkingPoint(psi, 10**log_xi)
        rep = stability(osc, cav, wp)
        if abs(rep.static_margin) < 1e-9 * (cav.gamma**2 + psi**2):
            return  # on the static boundary up to rounding: no verdict to compare
        kappa = kappa_for_coupling(cav, psi, wp.coupling)
        poles = effective_susceptibility_poles(osc, cav, psi, kappa)
        assert (rep.static_ok and rep.dynamic_ok) == (max(p.imag for p in poles) < 0)


class TestCheckDetuning:
    """``core.check_detuning``: the one (-pi, pi] check, for scalars and arrays alike."""

    PI = math.pi
    INSIDE = [math.nextafter(-PI, 0.0), 0.0, -0.0, PI, math.nextafter(PI, 0.0)]
    OUTSIDE = [-PI, math.nextafter(-PI, -4.0), math.nextafter(PI, 4.0), 4.0, math.nan, math.inf]

    @pytest.mark.parametrize("value", INSIDE)
    @pytest.mark.parametrize("kind", [float, np.float64, np.array])
    def test_accepts_inside(self, kind, value):
        assert core.check_detuning("psi", kind(value)) is None

    @pytest.mark.parametrize("value", OUTSIDE)
    @pytest.mark.parametrize("kind", [float, np.float64, np.array])
    def test_rejects_outside_naming_it(self, kind, value):
        with pytest.raises(ValueError, match=re.escape(f"psi must lie in (-pi, pi], got {value!r}")):
            core.check_detuning("psi", kind(value))

    def test_array_names_first_value_outside(self):
        core.check_detuning("psi", np.array(self.INSIDE).reshape(5, 1))
        core.check_detuning("psi", tuple(self.INSIDE))
        values = np.array([[0.5, -self.PI], [4.0, self.PI]])
        with pytest.raises(ValueError, match=re.escape("got -3.141592653589793")):
            core.check_detuning("psi", values)
        with pytest.raises(ValueError, match="got 4.0"):
            core.check_detuning("psi", [0.5, 4.0, math.nan])


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


class TestCoupling:
    def test_kappa_for_coupling_matches_steady_state(self, cavity, rng):
        for _ in range(20):
            psi = rng.uniform(-1.0, 1.0)
            amp = rng.uniform(0.1, 5.0)
            g = cavity.gamma
            xi = 4.0 * cavity.wavevector * g * amp / (g**2 + psi**2)
            ss = steady_state(cavity, psi, amp)
            assert kappa_for_coupling(cavity, psi, xi) == pytest.approx(ss.kappa, rel=1e-12)


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
        # the Hurwitz verdict against the independent pole oracle, at high and low Q, for
        # springs on both sides of the Lorentzian anti-damping threshold
        # kappa^2 = Gamma (gamma / tau) |delta|^2 / (4 gamma^2 |psi|), delta the loop at omega = 1
        for _ in range(60):
            osc = MechanicalOscillator(1.0, 1.0, 10 ** rng.uniform(-6, 0.5))
            gamma = rng.uniform(0.005, 0.05)
            cav = OpticalCavity(gamma=gamma, round_trip=gamma / 10 ** rng.uniform(-0.5, 1.5),
                                wavevector=1.0)
            psi = rng.uniform(-0.6, 0.6)
            lag = gamma - 1j * cav.round_trip
            k2_crit = osc.damping * cav.bandwidth * abs(lag * lag + psi * psi) ** 2 / (
                4.0 * gamma**2 * abs(psi)
            )
            xi2 = 2.0 * gamma * k2_crit / (gamma**2 + psi**2) * 10 ** rng.uniform(-1.5, 1.5)
            rep = stability(osc, cav, WorkingPoint(psi, math.sqrt(xi2)))
            kappa = kappa_for_coupling(cav, psi, math.sqrt(xi2))
            poles = effective_susceptibility_poles(osc, cav, psi, kappa)
            assert (rep.static_ok and rep.dynamic_ok) == (max(p.imag for p in poles) < 0)

    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(
        log_mass=_uniform(-2.0, 2.0),
        log_freq=_uniform(-1.0, 1.0),
        log_q_inv=_uniform(-6.0, math.log10(3.0)),
        log_gamma=_uniform(-3.0, math.log10(0.8)),
        tau=st.one_of(st.just(0.0), _uniform(-5.0, 0.0).map(lambda x: 10.0**x)),
        psi=_uniform(-math.pi, math.pi).filter(lambda x: x > -math.pi),
        log_xi=_uniform(-3.0, 2.0),
    )
    def test_hurwitz_verdict_matches_poles(
        self, log_mass, log_freq, log_q_inv, log_gamma, tau, psi, log_xi
    ):
        # stable by both margins exactly where every pole decays, and Gamma at tau = 0
        osc = MechanicalOscillator(10**log_mass, 10**log_freq, 10 ** (log_freq + log_q_inv))
        cav = OpticalCavity(10**log_gamma, tau, 1.0)
        rep = stability(osc, cav, WorkingPoint(psi, 10**log_xi))
        kappa = kappa_for_coupling(cav, psi, 10**log_xi)
        poles = effective_susceptibility_poles(osc, cav, psi, kappa)
        assert (rep.static_ok and rep.dynamic_ok) == (max(p.imag for p in poles) < 0)
        if tau == 0.0:
            assert rep.dynamic_margin == osc.damping


class TestStability:
    def test_resonant(self, high_q_osc, cavity):
        rep = stability(high_q_osc, cavity, WorkingPoint(0.0, 5.0))
        assert rep.static_ok and rep.dynamic_ok
        assert rep.static_margin == pytest.approx(cavity.gamma**2)
        quasi = OpticalCavity(cavity.gamma, 0.0, cavity.wavevector)
        assert stability(high_q_osc, quasi, WorkingPoint(0.0, 5.0)).dynamic_margin == 1e-3

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

    def test_map_is_a_report_of_arrays(self, high_q_osc, cavity):
        xi2, psis = np.geomspace(0.01, 50.0, 9), np.linspace(-0.1, 0.1, 5)
        m = stability_map(high_q_osc, cavity, xi2, psis)
        assert isinstance(m, StabilityReport)
        for field in (m.static_ok, m.dynamic_ok, m.static_margin, m.dynamic_margin):
            assert field.shape == (5, 9)
        rep = stability(high_q_osc, cavity, WorkingPoint(psis[1], math.sqrt(xi2[2])))
        assert rep.dynamic_margin == m.dynamic_margin[1, 2]

    def test_map_reads_a_zero_margin_as_unstable(self, cavity):
        # the binary-exact boundary of test_static_boundary_flagged, as a grid
        soft = MechanicalOscillator(mass=0.5, resonance_freq=1.0, damping=1e-3)
        m = stability_map(soft, cavity, np.array([0.25]), np.array([-2.0 * cavity.gamma]))
        rep = stability(soft, cavity, WorkingPoint(-2.0 * cavity.gamma, 0.5))
        assert m.static_margin[0, 0] == rep.static_margin
        assert not m.static_ok[0, 0] and not rep.static_ok


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


class TestStabilityMap:
    def test_nonnegative_detunings_statically_stable(self, high_q_osc, cavity):
        m = stability_map(
            high_q_osc, cavity, np.geomspace(0.005, 50.0, 20), np.linspace(0.0, 0.1, 5)
        )
        assert m.static_ok.all()
        for psi in (0.0, 0.1):  # and no static bound on the coupling there
            assert static_coupling2_bound(high_q_osc, cavity.gamma, psi) == math.inf

    def test_boundary_location_on_a_row(self, high_q_osc, cavity):
        psi = -2.0 * cavity.gamma
        xi2 = np.geomspace(0.005, 50.0, 40)
        m = stability_map(high_q_osc, cavity, xi2, np.array([psi]))
        bound = static_coupling2_bound(high_q_osc, cavity.gamma, psi)
        assert xi2[0] < bound < xi2[-1]
        np.testing.assert_array_equal(m.static_ok[0], xi2 < bound)

    def test_boundary_coincides_with_amplification_divergence(self, high_q_osc, cavity):
        xi2 = np.geomspace(0.005, 50.0, 30)
        psis = np.linspace(-0.1, -0.01, 7)
        m = stability_map(high_q_osc, cavity, xi2, psis)
        for row, psi in zip(m.static_ok, psis):
            cross = static_coupling2_bound(high_q_osc, cavity.gamma, psi)
            assert xi2[0] < cross < xi2[-1]
            np.testing.assert_array_equal(row, xi2 < cross)
            # just inside: finite amplification; at the crossing: divergent
            # (an exact hit raises, a rounded one returns a huge value)
            inside = amplification_factor(
                high_q_osc, cavity, WorkingPoint(psi, math.sqrt(0.99 * cross)), 0.0
            )
            try:
                at_edge = amplification_factor(
                    high_q_osc, cavity, WorkingPoint(psi, math.sqrt(cross)), 0.0
                )
            except StabilityBoundaryError:
                at_edge = math.inf
            assert at_edge > 1e6
            assert inside < at_edge

    def test_flags_match_margin_signs(self, high_q_osc, cavity, rng):
        xi2 = np.geomspace(0.01, 20.0, 10)
        psis = rng.uniform(-0.2, 0.2, size=6)
        m = stability_map(high_q_osc, cavity, xi2, psis)
        assert ((m.static_margin > 0) == m.static_ok).all()
        assert ((m.dynamic_margin > 0) == m.dynamic_ok).all()


class TestStabilityMapMatchesCells:
    """The broadcast map against per-cell ``stability()``, within ULPS ulp.

    A tolerance check of the margins and flags over random
    oscillators and constants; :class:`TestStabilityMapBitEqual` asserts
    that the margins are in fact equal bit for bit.
    """

    ULPS = 8

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(
        log_mass=_uniform(-2.0, 2.0),
        log_freq=_uniform(-1.0, 1.0),
        log_damping=_uniform(-4.0, 0.5),
        log_gamma=_uniform(-3.0, -0.1),
        log_tau=_uniform(-5.0, 0.0),
        log_hbar=_uniform(-2.0, 1.0),
        psis=st.lists(_uniform(-math.pi + 1e-9, math.pi), min_size=1, max_size=8),
        log_xi2=st.lists(_uniform(-4.0, 4.0), min_size=1, max_size=8),
    )
    def test_matches_per_cell_stability(
        self, log_mass, log_freq, log_damping, log_gamma, log_tau, log_hbar, psis, log_xi2
    ):
        osc = MechanicalOscillator(10**log_mass, 10**log_freq, 10**log_damping)
        cav = OpticalCavity(10**log_gamma, 10**log_tau, 1.0)
        constants = optospring.Constants(10**log_hbar)
        psis, xi2 = np.array(psis), np.sort(10.0 ** np.array(log_xi2))
        tol = self.ULPS * np.finfo(float).eps
        m = stability_map(osc, cav, xi2, psis, constants)
        for a, psi in enumerate(psis):
            for b, x in enumerate(xi2):
                rep = stability(osc, cav, WorkingPoint(psi, math.sqrt(x)), constants)
                u2 = cav.gamma**2 + psi**2
                s_tol = tol * (u2 + abs(rep.static_margin - u2))
                d_tol = tol * (osc.damping + abs(osc.damping - rep.dynamic_margin))
                assert abs(m.static_margin[a, b] - rep.static_margin) <= s_tol
                assert abs(m.dynamic_margin[a, b] - rep.dynamic_margin) <= d_tol
                if abs(rep.static_margin) > s_tol:
                    assert m.static_ok[a, b] == rep.static_ok
                if abs(rep.dynamic_margin) > d_tol:
                    assert m.dynamic_ok[a, b] == rep.dynamic_ok

    def test_rejects_out_of_range_inputs(self, high_q_osc, cavity):
        with pytest.raises(ValueError, match="detunings"):
            stability_map(high_q_osc, cavity, np.array([1.0]), np.array([-math.pi]))
        with pytest.raises(ValueError, match="coupling2"):
            stability_map(high_q_osc, cavity, np.array([-1.0, 1.0]), np.array([0.0]))


class TestStabilityMapBitEqual:
    """``stability_map`` equals ``stability()`` per cell, bit for bit."""

    @staticmethod
    def _mismatches(osc, cav, xi2, psis, constants=optospring.NORMALIZED):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # low-Q oscillators
            m = stability_map(osc, cav, xi2, psis, constants)
            bad = 0
            for a, psi in enumerate(psis.tolist()):
                for b, x in enumerate(xi2.tolist()):
                    rep = stability(osc, cav, WorkingPoint(psi, math.sqrt(x)), constants)
                    cell = (m.static_margin[a, b], m.dynamic_margin[a, b])
                    bad += cell != (rep.static_margin, rep.dynamic_margin)
                    bad += (m.static_ok[a, b], m.dynamic_ok[a, b]) != (
                        rep.static_ok, rep.dynamic_ok
                    )
        return bad

    def test_default_cli_grid(self):
        # the grid of `optospring stability` on the default config
        cfg = build_run_config()
        osc, cav = cfg.oscillator, cfg.cavity
        (xlo, xhi, nx), (plo, phi, npsi) = cfg.stability_xi2, cfg.stability_psi
        chi0 = 1.0 / (osc.mass * osc.resonance_freq**2)
        xi_sql2 = 1.0 / (2.0 * cfg.constants.hbar * chi0)
        xi2 = np.geomspace(xlo, xhi, nx) * xi_sql2
        psis = np.linspace(plo, phi, npsi) * cav.gamma
        assert xi2.size * psis.size == 3477
        assert self._mismatches(osc, cav, xi2, psis) == 0

    def test_random_grids(self, rng):
        cells = bad = 0
        for _ in range(40):
            osc = MechanicalOscillator(
                10 ** rng.uniform(-2, 2), 10 ** rng.uniform(-1, 1), 10 ** rng.uniform(-4, 0.5)
            )
            cav = OpticalCavity(10 ** rng.uniform(-3, -0.1), 10 ** rng.uniform(-5, 0), 1.0)
            constants = optospring.Constants(10 ** rng.uniform(-2, 1))
            xi2 = np.sort(10 ** rng.uniform(-4, 4, size=16))
            psis = rng.uniform(-math.pi + 1e-9, math.pi, size=16)
            cells += xi2.size * psis.size
            bad += self._mismatches(osc, cav, xi2, psis, constants)
        assert cells >= 10_000 and bad == 0
