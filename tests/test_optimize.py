import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

import optospring
from optospring import (
    DegenerateDissipationError,
    MechanicalOscillator,
    OpticalCavity,
    SearchSpec,
    StabilityBoundaryError,
    WorkingPoint,
    amplification_factor,
    coupling_optimum,
    equivalent_input_noise,
    full_transfer,
    highfreq_optimum,
    lowfreq_optimum,
    mech_susceptibility,
    minimize_over_detuning,
    minimize_over_xi,
    minimize_xi_quasistatic,
    noise_over_coupling,
    quasi_free_oscillator,
    sql_point,
    stability,
    stability_map,
    static_coupling2_bound,
    ultimate_quantum_limit,
)
from optospring.config import build_run_config
from optospring.optimize import _bounded_brent

GAMMA = 0.01


def _uniform(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _objective(kind, c, w):
    """Smooth, spiky, stepped or NaN test objectives with centre c and scale w."""
    if kind == "quadratic":
        return lambda x: w * (x - c) ** 2
    if kind == "quartic":
        return lambda x: (x - c) ** 4 - w * (x - c) ** 2
    if kind == "spiky":
        return lambda x: (x - c) ** 2 + 0.5 * math.sin(8.0 * w * x) ** 2
    if kind == "kink":
        return lambda x: abs(x - c) + w * math.floor(4.0 * x)
    if kind == "steps":  # plateaus: exact ties between evaluations
        return lambda x: float(math.floor(w * abs(x - c)))
    return lambda x: math.nan if x > c else (x - c) ** 2


class TestBoundedBrent:
    """The in-house polish against SciPy's bounded minimizer, bit for bit."""

    @staticmethod
    def _both(make, a, b, xatol, maxiter):
        """Run both minimizers, each on a fresh ``make()``; log every call."""
        ours, theirs = [], []
        f, g = make(), make()
        got = _bounded_brent(lambda x: ours.append(x) or f(x), a, b, xatol, maxiter)
        res = minimize_scalar(
            lambda x: theirs.append(x) or g(x), bounds=(a, b), method="bounded",
            options={"xatol": xatol, "maxiter": maxiter},
        )
        ref = (float(res.x), float(res.fun), int(res.nfev), bool(res.success))
        assert list(map(repr, map(float, ours))) == list(map(repr, map(float, theirs)))
        assert list(map(repr, got)) == list(map(repr, ref))
        return got

    @settings(derandomize=True, deadline=None, max_examples=1000)
    @given(
        kind=st.sampled_from(["quadratic", "quartic", "spiky", "kink", "steps", "nan"]),
        a=_uniform(-20.0, 20.0),
        width=st.floats(1e-9, 40.0),
        c=_uniform(-25.0, 25.0),
        log_w=_uniform(-3.0, 3.0),
        xatol=st.sampled_from([1e-14, 1e-8, 1e-5, 1e-2]),
        maxiter=st.sampled_from([1, 2, 5, 200, 500]),
    )
    def test_matches_scipy(self, kind, a, width, c, log_w, xatol, maxiter):
        self._both(lambda: _objective(kind, c, 10**log_w), a, a + width, xatol, maxiter)

    def test_maxiter_one_stops_unconverged(self):
        got = self._both(lambda: lambda x: (x - 0.3) ** 2, -1.0, 2.0, 1e-8, 1)
        assert got[2] == 2 and not got[3]

    def test_nan_objective_not_converged(self):
        got = self._both(lambda: lambda x: math.nan, -1.0, 2.0, 1e-8, 200)
        assert not got[3]

    def test_late_nan_not_converged(self):
        # finite for the first calls, then NaN: the best value stays finite
        # but the last one is NaN, which also counts as not converged
        def make():
            calls = iter(range(10**9))
            return lambda x: (x - 0.3) ** 2 if next(calls) < 5 else math.nan

        got = self._both(make, -1.0, 2.0, 1e-8, 200)
        assert math.isfinite(got[1]) and not got[3]


class TestBatchedSeedScan:
    @settings(derandomize=True, deadline=None)
    @given(
        log_omega=_uniform(-2.0, 1.0),
        psi=_uniform(-3.14, 3.14),
        log_gamma=_uniform(-3.0, -0.5),
        log_damping=_uniform(-4.0, -0.3),
    )
    def test_matches_scalar_noise(self, log_omega, psi, log_gamma, log_damping):
        # the one-call seed scan equals the per-point equivalent_input_noise
        osc = MechanicalOscillator(1.0, 1.0, 10**log_damping)
        gamma, omega = 10**log_gamma, 10**log_omega
        cavity = _cavity_for(gamma)
        spec = SearchSpec()
        t = np.linspace(*map(math.log, spec.xi2_bounds), spec.seed_points)
        seed_xi = [math.sqrt(math.exp(u)) for u in t]
        objective = noise_over_coupling(osc, gamma, psi, omega)
        batch = objective(np.array(seed_xi))
        for xi, value in zip(seed_xi, batch):
            point = equivalent_input_noise(osc, cavity, WorkingPoint(psi, xi), omega)
            assert objective(xi) == point
            assert abs(value - point) <= 1e-14 * point

    def test_cli_import_leaves_scipy_out(self):
        src = Path(optospring.__file__).parents[1]
        code = "import sys, optospring.cli; print('scipy' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert out.stdout.strip() == "False"


class TestSearchSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            SearchSpec(xi2_bounds=(1.0, 1.0))
        with pytest.raises(ValueError):
            SearchSpec(rel_tol=0.0)
        with pytest.raises(ValueError):
            SearchSpec(seed_points=2)


class TestMinimizeOverXi:
    def test_recovers_sql(self, osc):
        for omega in np.geomspace(0.05, 5.0, 8):
            res = minimize_xi_quasistatic(osc, GAMMA, 0.0, omega)
            ref = sql_point(osc, omega)
            assert res.converged
            assert res.level == pytest.approx(ref.level, rel=1e-9)
            assert res.coupling2 == pytest.approx(ref.coupling**2, rel=1e-4)

    def test_matches_lowfreq_closed_form(self, high_q_osc):
        res = minimize_xi_quasistatic(high_q_osc, GAMMA, -10.0 * GAMMA, 0.0)
        best = lowfreq_optimum(high_q_osc, GAMMA, -10.0 * GAMMA)
        assert res.level == pytest.approx(best.level, rel=1e-6)
        assert res.coupling2 == pytest.approx(best.coupling**2, rel=1e-3)
        assert res.ratio_to_sql == pytest.approx(best.ratio_to_sql, rel=1e-6)

    def test_full_bandwidth_objective_beats_sql_at_spring_dip(self):
        # minimize the exact spectrum over the coupling at the spring-dip
        # frequency: the result sits below the local quasi-static SQL
        osc = quasi_free_oscillator(1.0)
        cavity = OpticalCavity(gamma=GAMMA, round_trip=GAMMA / 2.0, wavevector=1.0)
        omega = 2.2957  # spring dip of the detuning = 10 gamma spectrum

        def objective(xi):
            t = full_transfer(osc, cavity, WorkingPoint(10.0 * GAMMA, xi), omega)
            return (abs(t.c_q) ** 2 + abs(t.c_p) ** 2) / abs(t.c_sig) ** 2

        res = minimize_over_xi(np.vectorize(objective))
        assert res.converged
        assert res.level < sql_point(osc, omega).level

    def test_seed_fallback_never_worse_than_scan(self):
        # a deliberately spiky objective: the polish must not return a
        # value above the best seed sample
        def objective(xi):
            t = math.log(xi**2)
            return (t - 0.3) ** 2 + 0.5 * math.sin(8.0 * t) ** 2

        res = minimize_over_xi(np.vectorize(objective), SearchSpec(xi2_bounds=(1e-3, 1e3)))
        seeds = [
            objective(math.sqrt(math.exp(u)))
            for u in np.linspace(math.log(1e-3), math.log(1e3), 60)
        ]
        assert res.level <= min(seeds) + 1e-15

    def test_non_convergence_flagged(self, osc):
        spec = SearchSpec(max_iter=1)
        res = minimize_xi_quasistatic(osc, GAMMA, 0.0, 0.5, spec)
        assert not res.converged

    def test_constraint_clamp_and_flag(self):
        # monotone-decreasing objective pushes against the stability clamp
        res = minimize_over_xi(lambda xi: 1.0 / xi, xi2_max_stable=10.0)
        assert res.constraint_active and res.at_bound
        assert res.coupling2 <= 10.0
        assert res.coupling2 == pytest.approx(10.0, rel=1e-4)

    def test_optimum_at_range_end_flagged(self):
        res = minimize_over_xi(lambda xi: 1.0 / xi)
        assert res.at_bound and res.converged
        assert res.coupling2 == pytest.approx(SearchSpec().xi2_bounds[1], rel=1e-6)

    def test_interior_optimum_not_at_bound(self, osc):
        res = minimize_xi_quasistatic(osc, GAMMA, -0.05, 0.5)
        assert res.converged and not res.at_bound

    def test_interior_optimum_not_flagged(self, high_q_osc):
        spec = SearchSpec(stability_constrained=True)
        res = minimize_xi_quasistatic(high_q_osc, GAMMA, -10.0 * GAMMA, 0.0, spec)
        free = minimize_xi_quasistatic(high_q_osc, GAMMA, -10.0 * GAMMA, 0.0)
        assert not res.constraint_active
        assert res.level == pytest.approx(free.level, rel=1e-9)
        bound = static_coupling2_bound(high_q_osc, GAMMA, -10.0 * GAMMA)
        assert res.coupling2 < bound


class TestMinimizeOverDetuning:
    def test_zero_detuning_on_resonance(self, osc):
        res = minimize_over_detuning(osc, GAMMA, 1.0)
        assert res.converged
        assert abs(res.detuning) < 1e-4
        assert res.level == pytest.approx(sql_point(osc, 1.0).level, rel=1e-6)

    def test_matches_closed_form_point(self, osc):
        res = minimize_over_detuning(osc, GAMMA, 0.5)
        best = ultimate_quantum_limit(osc, 0.5, GAMMA)
        assert not res.at_bound
        assert res.level == pytest.approx(best.level, rel=1e-6)
        assert res.detuning == pytest.approx(best.detuning, rel=1e-4)

    def test_traces_dissipation_floor_over_a_decade(self, osc):
        for omega in np.geomspace(0.3, 3.0, 7):
            res = minimize_over_detuning(osc, GAMMA, omega)
            chi = mech_susceptibility(osc, omega)
            assert res.level == pytest.approx(abs(chi.imag), rel=1e-4)

    def test_optimum_beyond_bracket_at_bound(self, high_q_osc):
        # the closed-form detuning lies far outside (-pi, pi]: the search
        # stops at -pi, converged but flagged at_bound
        res = minimize_over_detuning(high_q_osc, GAMMA, omega=0.5)
        assert ultimate_quantum_limit(high_q_osc, 0.5, GAMMA).detuning < -math.pi
        assert res.converged and res.at_bound
        assert res.detuning == pytest.approx(SearchSpec().psi_bounds[0], abs=1e-9)

    def test_degenerate_without_damping(self):
        free = MechanicalOscillator(1.0, 1.0, 0.0)
        with pytest.raises(DegenerateDissipationError):
            minimize_over_detuning(free, GAMMA, 0.5)


class TestClosedFormOracleEquivalence:
    """Every closed-form optimum is matched by an independent numeric search."""

    def test_balanced_point_by_root_finding(self, high_q_osc, cavity):
        # the equal-noise coupling solves zeta = 1; find it numerically
        from scipy.optimize import brentq

        for ratio in (-0.5, -2.0, -10.0):
            psi = ratio * GAMMA
            best = lowfreq_optimum(high_q_osc, GAMMA, psi)

            def zeta_minus_one(xi2):
                chi0 = 1.0
                chi_eff = 1.0 / (1.0 / chi0 + xi2 * psi / GAMMA)
                return 2.0 * xi2 * abs(chi_eff) - 1.0

            # bracket inside the statically stable region, where the
            # balance parameter grows monotonically through 1
            hi = 0.999 * static_coupling2_bound(high_q_osc, GAMMA, psi)
            root = brentq(zeta_minus_one, 1e-6, hi, xtol=1e-15)
            assert root == pytest.approx(best.balanced_coupling**2, rel=1e-9)

    def test_frequency_optimum_by_scalar_search(self, cavity):
        # numeric minimum of the noise-to-SQL ratio over frequency matches
        # the closed-form optimal frequency in the free-mass regime
        from scipy.optimize import minimize_scalar

        osc = quasi_free_oscillator(1.0)
        xi = math.sqrt(0.5)
        for ratio in (2.0, 5.0, 10.0):
            wp = WorkingPoint(ratio * GAMMA, xi)

            def noise_ratio(logw):
                omega = math.exp(logw)
                s = equivalent_input_noise(osc, _cavity_for(GAMMA), wp, omega)
                return s / sql_point(osc, omega).level

            res = minimize_scalar(
                noise_ratio, bounds=(math.log(0.3), math.log(10.0)),
                method="bounded", options={"xatol": 1e-12},
            )
            best = highfreq_optimum(osc, xi, ratio * GAMMA, GAMMA)
            assert math.exp(res.x) == pytest.approx(best.omega, rel=1e-6)
            assert res.fun == pytest.approx(best.ratio_to_sql, rel=1e-6)

    def test_coupling_optimum_on_random_samples(self, rng):
        for _ in range(50):
            osc = MechanicalOscillator(
                1.0, rng.uniform(0.3, 3.0), 10 ** rng.uniform(-3, -0.5)
            )
            omega = 10 ** rng.uniform(-1.5, 0.7)
            psi = rng.uniform(-0.3, 0.3)
            res = minimize_xi_quasistatic(osc, GAMMA, psi, omega)
            closed = coupling_optimum(osc, omega, psi, GAMMA)
            assert res.level == pytest.approx(closed.level, rel=1e-6)

    def test_joint_optimum_on_random_samples(self, rng):
        for _ in range(20):
            osc = MechanicalOscillator(1.0, 1.0, 10 ** rng.uniform(-1.5, -0.5))
            omega = 10 ** rng.uniform(-0.5, 0.5)
            res = minimize_over_detuning(osc, GAMMA, omega)
            closed = ultimate_quantum_limit(osc, omega, GAMMA)
            assert res.level == pytest.approx(closed.level, rel=1e-4)
            scale = max(abs(closed.detuning), 2.0 * GAMMA)
            assert abs(res.detuning - closed.detuning) / scale < 1e-3


def _cavity_for(gamma):
    return OpticalCavity(gamma=gamma, round_trip=1e-9, wavevector=1.0)


class TestMonotonicity:
    def test_deeper_detuning_always_helps_at_zero_frequency(self, high_q_osc):
        ladder = -GAMMA * np.linspace(1.0, 19.0, 10)
        levels = [
            minimize_xi_quasistatic(high_q_osc, GAMMA, psi, 0.0).level
            for psi in ladder
        ]
        assert all(a > b for a, b in zip(levels, levels[1:]))
        closed = [lowfreq_optimum(high_q_osc, GAMMA, psi).level for psi in ladder]
        assert np.allclose(levels, closed, rtol=1e-6)


class TestStabilityMap:
    def test_nonnegative_detunings_statically_stable(self, high_q_osc, cavity):
        m = stability_map(
            high_q_osc, cavity, np.geomspace(0.005, 50.0, 20), np.linspace(0.0, 0.1, 5)
        )
        assert m.static_ok.all()

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
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # low-Q oscillators
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

    def test_low_q_warning_reaches_the_map(self, osc, cavity):
        # damping / resonance = 0.1 leaves the Lorentzian picture
        with pytest.warns(UserWarning, match="high-Q"):
            stability_map(osc, cavity, np.geomspace(0.01, 1.0, 3), np.array([-0.02, 0.0]))

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


class TestLowfreqCurveMinimum:
    def test_resonant(self, high_q_osc):
        res = minimize_xi_quasistatic(high_q_osc, GAMMA, 0.0, 0.0)
        ref = sql_point(high_q_osc, 0.0)
        assert res.coupling2 == pytest.approx(ref.coupling**2, rel=1e-4)
        assert res.level == pytest.approx(ref.level, rel=1e-9)

    def test_minus_five_gamma(self, high_q_osc):
        res = minimize_xi_quasistatic(high_q_osc, GAMMA, -5.0 * GAMMA, 0.0)
        ref = sql_point(high_q_osc, 0.0)
        assert res.coupling2 / ref.coupling**2 == pytest.approx(0.3713906763541037, rel=1e-4)
        assert res.level / ref.level == pytest.approx(0.19258240356725187, rel=1e-6)

    def test_minus_ten_gamma(self, high_q_osc):
        res = minimize_xi_quasistatic(high_q_osc, GAMMA, -10.0 * GAMMA, 0.0)
        assert res.level == pytest.approx(0.09901951359278449, rel=1e-6)
