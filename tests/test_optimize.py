import math
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

import optospring
from optospring import (
    DegenerateDissipationError,
    MechanicalOscillator,
    OpticalCavity,
    SearchSpec,
    WorkingPoint,
    coupling_optimum,
    equivalent_input_noise,
    highfreq_optimum,
    lowfreq_optimum,
    mech_susceptibility,
    minimize_over_detuning,
    minimize_over_xi,
    minimize_xi_quasistatic,
    noise_over_coupling,
    quasi_free_oscillator,
    sql_point,
    static_coupling2_bound,
    ultimate_quantum_limit,
)
from optospring.optimize import AT_BOUND_TOL, OptimResult, _brent, _lockstep, _run

GAMMA = 0.01


def cav(gamma, round_trip=0.0):
    """The cavity of damping ``gamma``, quasi-static unless given a round trip."""
    return OpticalCavity(gamma, round_trip, wavevector=1.0)


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
    """The in-house polish, run alone, against SciPy's bounded minimizer, bit for bit."""

    @staticmethod
    def _both(make, a, b, xatol, maxiter):
        """Run both minimizers, each on a fresh ``make()``; log every call."""
        ours, theirs = [], []
        f, g = make(), make()
        got = _run(_brent(a, b, xatol, maxiter), lambda x: ours.append(x) or f(x))
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


_LANE = st.tuples(
    st.sampled_from(["quadratic", "quartic", "spiky", "kink", "steps", "nan"]),
    _uniform(-20.0, 20.0),
    st.floats(1e-9, 40.0),
    _uniform(-25.0, 25.0),
    _uniform(-3.0, 3.0),
)


class TestLockstepBrent:
    """Searches driven in lockstep against each run alone, lane by lane, repr for repr."""

    @staticmethod
    def _lanes_equal_scalar(lanes, xatol, maxiter):
        """Run the lanes in one lockstep call and each alone; return the evaluation counts."""
        objectives = [_objective(kind, c, 10**log_w) for kind, _, _, c, log_w in lanes]
        a = [lane[1] for lane in lanes]
        b = [lane[1] + lane[2] for lane in lanes]

        def f(points):
            assert len(points) == len(lanes)
            return [g(v) for g, v in zip(objectives, points)]

        got = _lockstep([_brent(a[k], b[k], xatol, maxiter) for k in range(len(lanes))], f)
        for k, g in enumerate(objectives):
            ref = _run(_brent(a[k], b[k], xatol, maxiter), g)
            lane = (float(got[k][0]), float(got[k][1]), int(got[k][2]), bool(got[k][3]))
            assert list(map(repr, lane)) == list(map(repr, ref)), k
        return [res[2] for res in got]

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(
        lanes=st.lists(_LANE, min_size=1, max_size=8),
        xatol=st.sampled_from([1e-14, 1e-8, 1e-5, 1e-2]),
        maxiter=st.sampled_from([1, 2, 5, 200, 500]),
    )
    # a lane whose |e| <= tol1 takes the golden step though its parabola would fit
    @example(
        lanes=[("spiky", 0.0, 1.0, 0.5, -2.0), ("kink", 1.0, 1e-9, 0.0, 0.0)],
        xatol=1e-14,
        maxiter=200,
    )
    def test_each_lane_is_the_scalar_run(self, lanes, xatol, maxiter):
        self._lanes_equal_scalar(lanes, xatol, maxiter)

    @pytest.mark.parametrize("maxiter", [12, 500])
    def test_lanes_stop_at_different_steps(self, maxiter):
        # a bracket narrower than its tolerance stops before its first step, the
        # others on their own test or, at maxiter = 12, some of them at maxiter
        lanes = [
            ("quadratic", 0.0, 1e-9, 0.3, 0.0),
            ("nan", -2.0, 4.0, -1.5, 0.0),
            ("quadratic", -1.0, 3.0, 0.3, 1.0),
            ("quartic", -3.0, 6.0, 0.5, 0.5),
            ("spiky", -5.0, 10.0, 1.0, 1.0),
            ("steps", -4.0, 8.0, 0.0, 0.0),
        ]
        counts = self._lanes_equal_scalar(lanes, 1e-8, maxiter)
        assert len(set(counts)) >= 3 and max(counts) <= maxiter


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
        cavity = cav(gamma)
        spec = SearchSpec()
        t = np.linspace(*map(math.log, spec.xi2_bounds), spec.seed_points)
        seed_xi = [math.sqrt(math.exp(u)) for u in t]
        objective = noise_over_coupling(osc, cavity, psi, omega)
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
        for bad in (
            {"xi2_bounds": (1.0, 1.0)},
            {"rel_tol": 0.0},
            {"seed_points": 2},
            {"xi2_bounds": (0.0, 1.0)},  # searched in log(coupling^2)
            {"xi2_bounds": (-1.0, 1.0)},
            {"psi_bounds": (-4.0, 4.0)},  # outside the principal interval (-pi, pi]
            {"psi_bounds": (-math.pi, 0.0)},
            {"psi_bounds": (0.0, math.nextafter(math.pi, 4.0))},
        ):
            with pytest.raises(ValueError):
                SearchSpec(**bad)
        assert SearchSpec(psi_bounds=(math.nextafter(-math.pi, 0.0), math.pi))

    def test_detuning_search_runs_spec_bounds_as_given(self, high_q_osc):
        # the search holds no clamp of its own: an optimum beyond the range
        # stops at the spec's end, closer to -pi than the old 1e-9 clamp
        lo = math.nextafter(-math.pi, 0.0)
        res = minimize_over_detuning(high_q_osc, GAMMA, 0.5, SearchSpec(psi_bounds=(lo, math.pi)))
        assert res.at_bound and res.detuning < -math.pi + 1e-9


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
        omega = 2.2957  # spring dip of the detuning = 10 gamma spectrum
        objective = noise_over_coupling(osc, cav(GAMMA, GAMMA / 2.0), 10.0 * GAMMA, omega)
        res = minimize_over_xi(objective)
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

    def test_optimum_at_range_end_flagged(self):
        res = minimize_over_xi(lambda xi: 1.0 / xi)
        assert res.at_bound and res.converged
        assert res.coupling2 == pytest.approx(SearchSpec().xi2_bounds[1], rel=1e-6)

    def test_interior_optimum_not_at_bound(self, osc):
        res = minimize_xi_quasistatic(osc, GAMMA, -0.05, 0.5)
        assert res.converged and not res.at_bound


def _per_seed_detuning_search(osc, gamma, omega, spec=SearchSpec()):
    """Reference route: each seed detuning runs its own coupling seed scan, and
    the detuning polish runs between numpy-scalar seed nodes."""
    evals = 0

    def level(psi):
        nonlocal evals
        res = minimize_over_xi(noise_over_coupling(osc, cav(gamma), psi, omega), spec)
        evals += res.iterations
        return res.level

    lo, hi = spec.psi_bounds
    p = np.linspace(lo, hi, spec.seed_points)
    seed_vals = np.array([level(psi) for psi in p])
    j = int(np.argmin(seed_vals))
    i = min(max(j, 1), len(p) - 2)
    psi, fx, _, ok = _run(_brent(p[i - 1], p[i + 1], spec.rel_tol, spec.max_iter), level)
    psi = float(p[j] if seed_vals[j] < fx else psi)
    best = minimize_xi_quasistatic(osc, gamma, psi, omega, spec)
    return replace(
        best,
        iterations=evals + best.iterations,
        converged=ok and best.converged,
        at_bound=min(psi - lo, hi - psi) <= AT_BOUND_TOL * (hi - lo),
    )


class TestMinimizeOverDetuning:
    @pytest.mark.parametrize(
        "omega, spec",
        [
            (0.5, SearchSpec()),  # the closed-form detuning lies outside (-pi, pi)
            (2.0, SearchSpec()),
            (0.95, SearchSpec()),  # inside
            (1.05, SearchSpec()),
            (0.97, SearchSpec(psi_bounds=(-0.5, 1.0), seed_points=17)),
            (0.7, SearchSpec(max_iter=3)),  # polishes stop at max_iter; some lose to their seed
            (0.7, SearchSpec(max_iter=8)),  # some polishes stop at max_iter, some converge first
            (1.05, SearchSpec(seed_points=3)),  # one shared coupling bracket
            (0.5, SearchSpec(rel_tol=1e-3, seed_points=7)),
        ],
    )
    def test_equals_per_seed_route(self, high_q_osc, omega, spec):
        # the one-call seed scan and the Python-float bracket give every field of
        # the per-seed route, iterations and types included
        got = minimize_over_detuning(high_q_osc, GAMMA, omega, spec)
        ref = _per_seed_detuning_search(high_q_osc, GAMMA, omega, spec)
        for field in fields(OptimResult):
            a, b = getattr(got, field.name), getattr(ref, field.name)
            assert a == b and type(a) is type(b), field.name

    def test_polish_bracket_is_python_floats(self, high_q_osc, monkeypatch):
        # the seed detunings' coupling polishes are one lockstep call; every polish runs
        # on a Python-float bracket, and the solo runs are the outer detuning polish, one
        # coupling polish per outer evaluation and the final coupling search
        brackets, finished, lockstep = [], [], []
        depth = 0

        def bracketed(a, b, *args, **kwargs):
            brackets.append((type(a), type(b)))
            return _brent(a, b, *args, **kwargs)

        def recorded(search, f):
            nonlocal depth
            depth += 1
            res = _run(search, f)
            depth -= 1
            finished.append((depth, res[2]))
            return res

        def counted(*args):
            lockstep.append(args)
            return _lockstep(*args)

        monkeypatch.setattr(optospring.optimize, "_brent", bracketed)
        monkeypatch.setattr(optospring.optimize, "_run", recorded)
        monkeypatch.setattr(optospring.optimize, "_lockstep", counted)
        minimize_over_detuning(high_q_osc, GAMMA, 0.95)
        assert len(lockstep) == 1
        outer = [nfev for d, nfev in finished if d == 0]  # the detuning polish, then the final
        inner = [nfev for d, nfev in finished if d == 1]
        assert len(outer) == 2 and len(inner) == outer[0]
        assert set(brackets) == {(float, float)} and len(brackets) == 60 + len(finished)

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

    def test_sql_reference_computed_once(self, osc, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return sql_point(*args, **kwargs)

        monkeypatch.setattr(optospring.optimize, "sql_point", counted)
        res = minimize_over_detuning(osc, GAMMA, 0.5)
        assert len(calls) == 1
        assert res.ratio_to_sql == res.level / sql_point(osc, 0.5).level


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
                s = equivalent_input_noise(osc, cav(GAMMA), wp, omega)
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
