import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from optospring import (
    Constants,
    MechanicalOscillator,
    NoDipFoundError,
    NoMeasurementError,
    NoiseSpectrum,
    OpticalCavity,
    SingularPointError,
    WorkingPoint,
    default_grid,
    dip_analysis,
    equivalent_input_noise,
    full_transfer_by_solve,
    log_grid,
    mech_susceptibility,
    noise_over_coupling,
    quasi_free_oscillator,
    spectrum,
    sql_level,
    sql_point,
)
from optospring import core
from optospring import finite_bandwidth as fb


def cav(gamma, round_trip=0.0):
    """The cavity of damping ``gamma``, quasi-static unless given a round trip."""
    return OpticalCavity(gamma, round_trip, wavevector=1.0)


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


def _solve_noise(t):
    """Coherent-input noise of a solved transfer."""
    return (abs(t.c_q) ** 2 + abs(t.c_p) ** 2) / abs(t.c_sig) ** 2


class TestFullTransfer:
    """The raw 3x3 solve, the oracle of noise_over_coupling, one frequency per call."""

    def test_vacuum_unitarity_without_light(self, high_q_osc, rng):
        # a lossless cavity rotates vacuum noise but cannot create it
        for _ in range(20):
            cavity = OpticalCavity(
                gamma=rng.uniform(0.005, 0.05),
                round_trip=10 ** rng.uniform(-4, -2),
                wavevector=1.0,
            )
            wp = WorkingPoint(rng.uniform(-0.5, 0.5), 0.0)
            for omega in np.geomspace(1e-3, 1e3, 60):
                t = full_transfer_by_solve(high_q_osc, cavity, wp, omega)
                assert np.allclose(abs(t.c_q) ** 2 + abs(t.c_p) ** 2, 1.0, rtol=0, atol=1e-12)

    def test_quasistatic_reduction_of_coefficients(self, high_q_osc):
        # the solve's noise at omega tau -> 0 is the quasi-static noise (omega tau = 0)
        for ratio in (1.5, -2.0):
            cavity = OpticalCavity(gamma=0.01, round_trip=1e-3, wavevector=1.0)
            wp = WorkingPoint(ratio * cavity.gamma, 0.4)
            omega = 1e-6 * cavity.bandwidth
            full = _solve_noise(full_transfer_by_solve(high_q_osc, cavity, wp, omega))
            quasi = noise_over_coupling(high_q_osc, cav(cavity.gamma), wp.detuning, omega)(0.4)
            assert abs(full - quasi) / abs(quasi) < 1e-6

    def test_signal_lowpass_on_resonance(self, high_q_osc, cavity):
        # detuning 0: |c_sig| scales as gamma/|gamma - i omega tau|
        wp = WorkingPoint(0.0, 0.8)
        g, tau = cavity.gamma, cavity.round_trip
        for omega in np.geomspace(0.1, 1e3, 50):
            t = full_transfer_by_solve(high_q_osc, cavity, wp, omega)
            expected = 2.0 * wp.coupling * g / math.hypot(g, omega * tau)
            assert np.allclose(abs(t.c_sig), expected, rtol=1e-12)

    def test_reality_symmetry(self, high_q_osc, cavity, rng):
        wp = WorkingPoint(0.08, 1.2)
        for omega in rng.uniform(0.1, 100.0, size=20):
            t = full_transfer_by_solve(high_q_osc, cavity, wp, omega)
            s = full_transfer_by_solve(high_q_osc, cavity, wp, -omega)
            for a, b in ((t.c_q, s.c_q), (t.c_p, s.c_p), (t.c_sig, s.c_sig)):
                assert np.allclose(b, np.conj(a), rtol=1e-12)


class TestSpectrum:
    def test_sql_column_is_sql_point(self):
        # one |chi| arithmetic for points and grids: Python's complex abs rounds
        # apart from numpy's at hundreds of the default fig4 grid's points
        osc, cavity, wp = fig4_setup(5.0, 2.0)
        grid = log_grid(1e-2, 1e3, 400)
        s_sql = spectrum(osc, cavity, wp, grid).s_sql
        assert [sql_point(osc, w).level for w in grid.tolist()] == s_sql.tolist()

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
        # spectrum runs on noise_over_coupling: on random models it equals the
        # noise of the raw 3x3 solve
        osc = MechanicalOscillator(1.0, 10**log_resonance, 10**log_damping)
        cavity = OpticalCavity(gamma=gamma, round_trip=10**log_round_trip, wavevector=1.0)
        wp = WorkingPoint(psi, 10**log_xi)
        omega = 10**log_omega
        expected = _solve_noise(full_transfer_by_solve(osc, cavity, wp, omega))
        got = spectrum(osc, cavity, wp, np.array([omega, 2.0 * omega])).s_sig[0]
        assert got == pytest.approx(expected, rel=1e-9)

    @settings(derandomize=True, deadline=None)
    @given(
        log_mass=_uniform(-2, 2),
        log_resonance=_uniform(-2, 2),
        log_damping=_uniform(-4, 1),
        log_gamma=_uniform(-3, -0.05),
        log_omega=_uniform(-2, 2),
        log_lag=_uniform(-3, 1),
    )
    def test_uql_floor_past_quasistatic(
        self, log_mass, log_resonance, log_damping, log_gamma, log_omega, log_lag
    ):
        # acceptance 10's floor hbar |Im chi| holds at every (psi, xi) cell also
        # at a finite phase lag, omega tau / gamma = 10**log_lag
        osc = MechanicalOscillator(10**log_mass, 10**log_resonance, 10**log_damping)
        gamma, omega = 10**log_gamma, 10**log_resonance * 10**log_omega
        chi = mech_susceptibility(osc, omega)
        xi = np.geomspace(1e-2, 1e2, 41) / math.sqrt(2.0 * abs(chi))  # around the SQL coupling
        tau = 10**log_lag * gamma / omega
        for psi in np.linspace(-3.1, 3.1, 41):
            noise = noise_over_coupling(osc, cav(gamma, tau), psi, omega)(xi)
            assert np.all(noise >= abs(chi.imag) * (1.0 - 1e-12))

    def test_grid_validation(self, high_q_osc, cavity):
        wp = WorkingPoint(0.0, 1.0)
        with pytest.raises(ValueError):
            spectrum(high_q_osc, cavity, wp, np.array([1.0, 0.5, 2.0]))
        with pytest.raises(ValueError):
            spectrum(high_q_osc, cavity, wp, np.array([-1.0, 1.0]))
        with pytest.raises(ValueError, match="at least 1 point"):
            spectrum(high_q_osc, cavity, wp, np.array([]))

    def test_one_point_grid(self, high_q_osc, cavity):
        # a grid of one frequency, as log_grid gives for a range under half a step
        grid = log_grid(0.5, 0.50001, 3)
        assert grid.tolist() == [0.5]
        wp = WorkingPoint(-0.05, 0.7)
        sp = spectrum(high_q_osc, cavity, wp, grid)
        assert sp.s_sig.tolist() == [noise_over_coupling(high_q_osc, cavity, -0.05, 0.5)(0.7)]
        assert sp.s_sql.tolist() == [sql_level(high_q_osc, 0.5)]

    def test_quasistatic_cavity(self, high_q_osc, cavity, rng):
        # round_trip = 0: the quasi-static noise, bit for bit, beside the same SQL
        quasi = cav(cavity.gamma)
        grid = np.geomspace(1e-2, 1e2, 301)
        for psi in rng.uniform(-0.5, 0.5, size=10):
            wp = WorkingPoint(psi, 10 ** rng.uniform(-1, 1))
            sp = spectrum(high_q_osc, quasi, wp, grid)
            assert np.array_equal(sp.s_sig, equivalent_input_noise(high_q_osc, cavity, wp, grid))
            assert np.array_equal(sp.s_sql, sql_level(high_q_osc, grid))

    def test_log_grid(self):
        g = log_grid(0.01, 1000.0, 400)
        assert g.size == 2001
        assert g[0] == pytest.approx(0.01) and g[-1] == pytest.approx(1000.0)
        assert np.all(np.diff(g) > 0)
        for lo, hi in ((0.0, 1.0), (2.0, 1.0), (1.0, math.inf), (1.0, math.nan)):
            with pytest.raises(ValueError, match="need 0 < lo < hi < inf"):
                log_grid(lo, hi, 10)
        with pytest.raises(ValueError, match="points_per_decade must be >= 1"):
            log_grid(0.01, 1000.0, 0)

    def test_log_grid_wider_than_the_float_ratio(self):
        # hi / lo overflows to inf past about 308 decades; the count comes from the logs
        g = log_grid(1e-300, 1e300, 1)
        assert g.size == 601 and g[0] == 1e-300 and g[-1] == 1e300
        assert np.all(np.diff(g) > 0)
        for lo, hi, ppd in ((0.01, 1000.0, 400), (0.1, 10.0, 400), (1e-2, 1e2, 200), (3.0, 7.0, 9)):
            assert log_grid(lo, hi, ppd).size == int(round(math.log10(hi / lo) * ppd)) + 1

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

    def test_dip_mask_matches_per_point_loop(self, monkeypatch):
        # random spectra and references with ties and NaN cells, on grids of
        # 2 to 40 points; the per-point loop the mask replaced is the oracle
        rng = np.random.default_rng(20261018)
        osc, cavity, wp = fig4_setup(5.0, 2.0)
        case = {}

        def refine(x, y, i):
            case["seen"].append(i)
            return float(x[i]), float(y[i])

        def reference(osc, cavity, detuning, omega, constants):
            # the case's reference at the grid indices of the frequencies asked for
            return lambda xi: case["ref"][np.searchsorted(case["grid"], omega)]

        monkeypatch.setattr(fb, "_parabolic_refine", refine)
        monkeypatch.setattr(fb, "noise_over_coupling", reference)
        tried = 0
        for n in [2, 3] * 10 + rng.integers(2, 40, size=300).tolist():
            s = rng.integers(1, 5, size=n).astype(float)  # four levels: many ties
            ref = rng.integers(1, 6, size=n).astype(float)
            s[rng.random(n) < 0.1] = np.nan
            ref[rng.random(n) < 0.1] = np.nan
            expected = [
                i
                for i in range(1, n - 1)
                if s[i] < s[i - 1] and s[i] < s[i + 1] and s[i] < ref[i]
            ]
            grid = np.geomspace(0.1, 100.0, n)
            case.update(seen=[], ref=ref, grid=grid)
            sp = NoiseSpectrum(grid, s, s)
            try:
                assert dip_analysis(sp, osc, cavity, wp).count == len(expected)
            except NoDipFoundError:
                assert expected == []
            assert case["seen"] == expected
            tried += bool(expected)
        assert tried > 100

    def test_dip_reference_read_only_at_minima(self, monkeypatch):
        # a count, not a timing: the zero-detuning reference runs only at the
        # spectrum's strict local minima, not over the whole grid
        osc, cavity, wp = fig4_setup(5.0, 2.0)
        sp = spectrum(osc, cavity, wp, np.geomspace(1e-2, 1e3, 200_000))
        points = []

        def counted(osc, cavity, detuning, omega, *args):
            points.append(np.size(omega))
            return noise_over_coupling(osc, cavity, detuning, omega, *args)

        monkeypatch.setattr(fb, "noise_over_coupling", counted)
        report = dip_analysis(sp, osc, cavity, wp)
        s = sp.s_sig
        minima = np.count_nonzero((s[1:-1] < s[:-2]) & (s[1:-1] < s[2:]))
        assert sum(points) == minima >= report.count == 2

    @pytest.mark.parametrize("ratio", [5.0, 10.0])
    def test_quasistatic_cavity_has_the_spring_dip_only(self, ratio):
        # no loop dip at infinite bandwidth: the one dip found is the spring dip
        osc, cavity, wp = fig4_setup(ratio, 2.0)
        quasi = cav(cavity.gamma)
        rep = dip_analysis(spectrum(osc, quasi, wp, default_grid(1.0)), osc, quasi, wp)
        assert rep.count == 1 and rep.omega_plus is None
        assert rep.predicted_omega_plus == math.inf
        assert abs(rep.omega_minus / (1.0 + (0.5 * ratio) ** 2) ** 0.25 - 1.0) < 0.05

    def test_zero_coupling_refused(self):
        osc, cavity, wp = fig4_setup(10.0, 2.0)
        sp = spectrum(osc, cavity, wp, default_grid(1.0))
        with pytest.raises(ValueError, match="positive coupling"):
            dip_analysis(sp, osc, cavity, WorkingPoint(wp.detuning, 0.0))

    @pytest.mark.parametrize("y", [[1.0, 2.0, 3.0], [2.0, 2.0, 2.0], [1.0, 3.0, 1.0]])
    def test_refine_keeps_a_point_without_upward_curvature(self, y):
        # a flat or concave log-log parabola has no minimum to refine to
        x = np.array([0.5, 1.0, 2.0])
        assert fb._parabolic_refine(x, np.array(y), 1) == (1.0, y[1])

    def test_predictions_attached(self):
        osc, cavity, wp = fig4_setup(10.0, 2.0)
        sp = spectrum(osc, cavity, wp, default_grid(1.0))
        rep = dip_analysis(sp, osc, cavity, wp)
        assert rep.predicted_omega_minus == pytest.approx(math.sqrt(5.0))
        assert rep.predicted_omega_plus == pytest.approx(2.0 * math.sqrt(101.0))
        assert rep.predicted_depth == pytest.approx(0.02)

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(gamma=_uniform(0.005, 0.05), psi=_uniform(-0.3, 0.3), load=_uniform(0.01, 0.8))
    def test_quasistatic_limit_of_spectrum(self, gamma, psi, load):
        # the exact spectrum reduces to the quasi-static closed chain well below the
        # cavity bandwidth, at a coupling^2 a fraction ``load`` of the static bound, or of
        # 10 where that bound is larger or infinite (psi > -1.25e-9 here)
        osc = MechanicalOscillator(mass=1.0, resonance_freq=5e-4, damping=1e-5)
        chi0 = 1.0 / (osc.mass * osc.resonance_freq**2)
        cavity = OpticalCavity(gamma=gamma, round_trip=gamma / 10.0, wavevector=1.0)
        cap = min(gamma / (chi0 * abs(psi)), 10.0) if psi < 0 else 10.0
        wp = WorkingPoint(psi, math.sqrt(load * cap))
        grid = np.geomspace(1e-6, 1e-4, 7) * cavity.bandwidth
        sp = spectrum(osc, cavity, wp, grid)
        quasi = equivalent_input_noise(osc, cavity, wp, grid)
        assert np.all(np.abs(sp.s_sig - quasi) / quasi < 1e-6)


BLOCK = core.BLOCK


def block_edges(n):
    """Indices on both sides of every block boundary of an n-point array."""
    edges = {0, n - 1}
    for start in range(BLOCK, n, BLOCK):
        edges |= {start - 1, start, start + 1}
    return sorted(i for i in edges if i < n)


class TestBlocks:
    """Long arrays run in fixed blocks and keep the bits of one whole-array call."""

    @pytest.mark.parametrize("n", [BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7])
    @pytest.mark.parametrize("lag", [False, True])  # omega tau = 0, or > 0
    def test_same_bits_as_one_call(self, n, lag, monkeypatch):
        osc, cavity, wp = fig4_setup(5.0, 2.0)
        g, psi, xi = cavity.gamma, wp.detuning, wp.coupling
        tau = cavity.round_trip if lag else 0.0
        grid = np.geomspace(1e-2, 1e3, n)
        noise = noise_over_coupling(osc, cav(g, tau), psi, grid)(xi)
        blocked = [(noise, sql_level(osc, grid))]
        if lag:
            sp = spectrum(osc, cavity, wp, grid)
            blocked.append((sp.s_sig, sp.s_sql))
        else:  # the quasi-static noise has no SQL column of its own
            blocked.append((equivalent_input_noise(osc, cavity, wp, grid), blocked[0][1]))
        with monkeypatch.context() as one_call:  # a block as long as the grid: a single call
            one_call.setattr(core, "BLOCK", n)
            s_sig = noise_over_coupling(osc, cav(g, tau), psi, grid)(xi)
            s_sql = sql_level(osc, grid)
            reference = noise_over_coupling(osc, cav(g, tau), 0.0, grid)(xi)
        assert np.array_equal(s_sql, np.abs(mech_susceptibility(osc, grid)))
        for sig, sql in blocked:
            assert np.array_equal(sig, s_sig) and np.array_equal(sql, s_sql)
            for i in block_edges(n):
                om = float(grid[i])
                assert sig[i] == noise_over_coupling(osc, cav(g, tau), psi, om)(xi)
                assert sql[i] == sql_level(osc, om)
        if lag:  # the dips of the whole-grid mask, its reference from one call
            s, inner = sp.s_sig, sp.s_sig[1:-1]
            mask = (inner < s[:-2]) & (inner < s[2:]) & (inner < reference[1:-1])
            seen, refine = [], fb._parabolic_refine

            def recorded(x, y, i):
                seen.append(i)
                return refine(x, y, i)

            monkeypatch.setattr(fb, "_parabolic_refine", recorded)
            report = dip_analysis(sp, osc, cavity, wp)
            assert seen == (np.flatnonzero(mask) + 1).tolist() and report.count == len(seen)

    @pytest.mark.parametrize("n", [BLOCK + 1, 3 * BLOCK + 7])
    def test_errors_as_one_call(self, n, monkeypatch):
        _, cavity, wp = fig4_setup(5.0, 2.0)
        psi, xi = wp.detuning, wp.coupling
        grid = np.geomspace(1e-2, 1e3, n)
        # an undamped resonance on a grid point of the last block
        osc = MechanicalOscillator(1.0, resonance_freq=float(grid[-2]), damping=0.0)
        with monkeypatch.context() as one_call, pytest.raises(SingularPointError) as whole:
            one_call.setattr(core, "BLOCK", n)  # a block as long as the grid: a single call
            noise_over_coupling(osc, cavity, psi, grid)(xi)
        for call in (
            lambda: noise_over_coupling(osc, cavity, psi, grid)(xi),
            lambda: spectrum(osc, cavity, wp, grid),
            lambda: equivalent_input_noise(osc, cavity, wp, grid),
        ):
            with pytest.raises(SingularPointError) as blocked:
                call()
            assert str(blocked.value) == str(whole.value)
        with pytest.raises(SingularPointError) as point:  # a float omega raises at the build
            noise_over_coupling(osc, cavity, psi, float(grid[-2]))
        assert str(point.value) == str(whole.value)
        osc, off = quasi_free_oscillator(1.0), WorkingPoint(psi, 0.0)
        with pytest.raises(NoMeasurementError):
            spectrum(osc, cavity, off, grid)
        with pytest.raises(NoMeasurementError):
            equivalent_input_noise(osc, cavity, off, grid)
        # both faults at once, the resonance in the first block or the last: the
        # coupling is checked for the whole call before any block runs
        for at in (1, -2):
            osc = MechanicalOscillator(1.0, resonance_freq=float(grid[at]), damping=0.0)
            for call in (
                lambda: noise_over_coupling(osc, cavity, psi, grid)(0.0),
                lambda: noise_over_coupling(osc, cav(cavity.gamma), psi, grid)(0.0),
                lambda: spectrum(osc, cavity, off, grid),
                lambda: equivalent_input_noise(osc, cavity, off, grid),
            ):
                with pytest.raises(NoMeasurementError):
                    call()
                with monkeypatch.context() as one_call, pytest.raises(NoMeasurementError):
                    one_call.setattr(core, "BLOCK", n)
                    call()
            # the SQL has no coupling: it names the resonance, as one call does
            with monkeypatch.context() as one_call, pytest.raises(SingularPointError) as whole:
                one_call.setattr(core, "BLOCK", n)
                sql_level(osc, grid)
            with pytest.raises(SingularPointError) as blocked:
                sql_level(osc, grid)
            assert str(blocked.value) == str(whole.value)
            assert repr(float(grid[at])) in str(whole.value)

    def test_sql_level_as_points(self, rng):
        # the in-place SQL kernel keeps the bits of hbar |mech_susceptibility| and of
        # per-point float calls: damped and undamped, signed frequencies and zeros
        for n in (1, 2, BLOCK, BLOCK + 1, 2 * BLOCK + 11, *rng.integers(3, 2 * BLOCK, size=2)):
            damping = rng.choice([0.0, 10 ** rng.uniform(-4, 0.5)])
            osc = MechanicalOscillator(10 ** rng.uniform(-2, 2), 10 ** rng.uniform(-1, 1), damping)
            constants = Constants(10 ** rng.uniform(-2, 1))
            grid = osc.resonance_freq * rng.uniform(-3.0, 3.0, size=n)
            grid[rng.choice(n, size=min(n, 2), replace=False)] = [-0.0, 0.0][: min(n, 2)]
            blocked = sql_level(osc, grid, constants).tobytes()
            assert blocked == (constants.hbar * np.abs(mech_susceptibility(osc, grid))).tobytes()
            points = [sql_level(osc, w, constants) for w in grid.tolist()]
            assert blocked == np.array(points).tobytes()

    @pytest.mark.parametrize(
        "omega",
        [
            0.5,
            np.float64(0.5),
            np.array(0.5),
            [0.5, 2.0, 3.0],
            np.geomspace(1e-2, 1e3, BLOCK + 1).tolist(),
            np.arange(1, BLOCK + 2),
            np.arange(1, 4),
            3,
        ],
        ids=["float", "float64", "0-d", "list", "long-list", "long-int", "int", "py-int"],
    )
    def test_result_types_kept(self, omega, monkeypatch):
        osc, cavity, wp = fig4_setup(5.0, 2.0)
        with monkeypatch.context() as one_call:  # a block as long as the grid: a single call
            one_call.setattr(core, "BLOCK", max(np.size(omega), BLOCK))
            whole = noise_over_coupling(osc, cav(cavity.gamma), wp.detuning, omega)(wp.coupling)
        blocked = equivalent_input_noise(osc, cavity, wp, omega)
        assert type(blocked) is type(whole)
        assert np.asarray(blocked).dtype == np.asarray(whole).dtype
        assert np.array_equal(blocked, whole)
        sql = sql_level(osc, omega)
        assert type(sql) is (float if np.ndim(omega) == 0 else np.ndarray)
        assert np.asarray(sql).dtype == np.float64
        assert np.array_equal(sql, np.abs(mech_susceptibility(osc, omega)))

    @pytest.mark.parametrize("n", [BLOCK, 3 * BLOCK + 7])
    def test_array_coupling_refused(self, n, monkeypatch):
        # a grid takes one coupling: an array of them is refused before any block or
        # coupling check runs, in one call or in blocks; any scalar type gives one result
        osc, cavity, wp = fig4_setup(5.0, 2.0)
        grid = np.geomspace(1e-2, 1e3, n)
        xi = wp.coupling
        for tau in (0.0, cavity.round_trip):
            noise = noise_over_coupling(osc, cav(cavity.gamma, tau), wp.detuning, grid)
            for block in (BLOCK, n):
                with monkeypatch.context() as blocks:
                    blocks.setattr(core, "BLOCK", block)
                    for bad in (np.full(n, xi), np.zeros(n), np.array([xi]), [xi], [[xi]]):
                        with pytest.raises(ValueError, match="a frequency grid takes one coupling"):
                            noise(bad)
            whole = noise(xi)
            for same in (np.float64(xi), np.array(xi)):
                assert noise(same).tobytes() == whole.tobytes()

    @pytest.mark.parametrize("name", ["spectrum", "dip_analysis", "equivalent_input_noise"])
    def test_peak_memory_near_output_size(self, name):
        # a tracemalloc count, not a timing: whole-grid temporaries took 20x the grid
        osc, cavity, wp = fig4_setup(5.0, 2.0)
        grid = np.geomspace(1e-2, 1e3, 200_000)
        sp = spectrum(osc, cavity, wp, grid)
        call = {
            "spectrum": lambda: spectrum(osc, cavity, wp, grid),
            "dip_analysis": lambda: dip_analysis(sp, osc, cavity, wp),
            "equivalent_input_noise": lambda: equivalent_input_noise(osc, cavity, wp, grid),
        }[name]
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * grid.nbytes, peak / grid.nbytes

    # the noise at omega tau > 0, at omega tau = 0, or (None) the SQL
    @pytest.mark.parametrize("lag, arrays", [(True, 5), (False, 3), (None, 2)])
    def test_working_set_in_blocks(self, lag, arrays):
        # a tracemalloc count, not a timing: beyond the output, only the block-sized
        # buffers that core.blockwise reuses from block to block (a complex one counts 2)
        grid = np.geomspace(1e-2, 1e3, 3 * BLOCK + 7)
        osc, cavity, wp = fig4_setup(5.0, 2.0)
        tau = cavity.round_trip if lag else 0.0
        noise = noise_over_coupling(osc, cav(cavity.gamma, tau), wp.detuning, grid)
        tracemalloc.start()
        try:
            out = sql_level(osc, grid) if lag is None else noise(wp.coupling)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        blocks = (peak - out.nbytes) / (BLOCK * out.itemsize)
        assert round(blocks) <= arrays, blocks

    def test_susceptibility_in_blocks(self, rng):
        # a grid's chi holds no block-sized scratch beyond its complex output, and keeps
        # the bits of per-point calls across every block edge
        osc = MechanicalOscillator(2.0, 1.0, 1e-3)
        grid = rng.uniform(-3.0, 3.0, 3 * BLOCK + 7)
        tracemalloc.start()
        try:
            chi = mech_susceptibility(osc, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert round((peak - chi.nbytes) / (BLOCK * grid.itemsize)) == 0
        points = [mech_susceptibility(osc, w) for w in grid.tolist()]
        assert chi.tobytes() == np.array(points).tobytes()
