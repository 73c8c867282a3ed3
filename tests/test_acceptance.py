"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines alongside the pytest report.
"""

import math

import numpy as np

from optospring import (
    MechanicalOscillator,
    OpticalCavity,
    WorkingPoint,
    amplification_factor,
    default_grid,
    dip_analysis,
    effective_susceptibility_poles,
    equivalent_input_noise,
    highfreq_optimum,
    kappa_for_coupling,
    lowfreq_optimum,
    mech_susceptibility,
    minimize_over_detuning,
    minimize_xi_quasistatic,
    quasi_free_oscillator,
    solve_self_consistent_detuning,
    spectrum,
    sql_point,
    stability,
    stability_map,
    steady_state,
    ultimate_quantum_limit,
)

GAMMA = 0.01
SQRT26_M5 = 0.09901951359278449  # sqrt(26) - 5


def _report(number: int, name: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {name}: {verdict} ({detail})")
    assert ok, f"criterion {number} ({name}): {detail}"


def fig4_setup(detuning_ratio, bandwidth_ratio):
    osc = quasi_free_oscillator(1.0)
    cavity = OpticalCavity(
        gamma=GAMMA, round_trip=GAMMA / bandwidth_ratio, wavevector=1.0
    )
    wp = WorkingPoint(detuning=detuning_ratio * GAMMA, coupling=math.sqrt(0.5))
    return osc, cavity, wp


def test_criterion_1_sql_baseline():
    osc = MechanicalOscillator(mass=1.0, resonance_freq=1.0, damping=0.1)
    worst = 0.0
    for omega in np.geomspace(0.05, 5.0, 10):
        res = minimize_xi_quasistatic(osc, GAMMA, 0.0, float(omega))
        ref = sql_point(osc, float(omega))
        worst = max(worst, abs(res.level / ref.level - 1.0))
    _report(1, "SQL baseline", worst < 1e-9, f"worst rel err {worst:.2e} < 1e-9")


def test_criterion_2_lowfreq_factor_ten():
    osc = MechanicalOscillator(mass=1.0, resonance_freq=1.0, damping=1e-3)
    res = minimize_xi_quasistatic(osc, GAMMA, -10.0 * GAMMA, 0.0)
    err_opt = abs(res.ratio_to_sql / SQRT26_M5 - 1.0)
    b10 = lowfreq_optimum(osc, GAMMA, -10.0 * GAMMA).balanced_ratio
    b2 = lowfreq_optimum(osc, GAMMA, -2.0 * GAMMA).balanced_ratio
    err_b10 = abs(b10 / (1.0 / 6.0) - 1.0)
    err_b2 = abs(b2 / 0.5 - 1.0)
    ok = err_opt < 1e-6 and err_b10 < 1e-9 and err_b2 < 1e-9
    _report(
        2,
        "low-frequency factor 10",
        ok,
        f"optimum rel err {err_opt:.2e} < 1e-6; balanced-point rel errs "
        f"{err_b10:.2e}, {err_b2:.2e} < 1e-9",
    )


def test_criterion_3_highfreq_optimum():
    osc = MechanicalOscillator(mass=1.0, resonance_freq=1.0, damping=1e-3)
    best = highfreq_optimum(osc, math.sqrt(0.5), 10.0 * GAMMA, GAMMA)
    err_omega = abs(best.omega / 26.0**0.25 - 1.0)
    err_ratio = abs(best.ratio_to_sql / SQRT26_M5 - 1.0)
    ok = err_omega < 1e-6 and err_ratio < 1e-6
    _report(
        3,
        "high-frequency optimum",
        ok,
        f"omega rel err {err_omega:.2e}, ratio rel err {err_ratio:.2e} < 1e-6",
    )


def test_criterion_4_ultimate_quantum_limit():
    osc = MechanicalOscillator(mass=1.0, resonance_freq=1.0, damping=0.1)
    worst_level = worst_detuning = 0.0
    for omega in (0.5, 0.8, 1.0, 1.25, 2.0):
        res = minimize_over_detuning(osc, GAMMA, omega)
        closed = ultimate_quantum_limit(osc, omega, GAMMA)
        worst_level = max(worst_level, abs(res.level / closed.level - 1.0))
        scale = max(abs(closed.detuning), 2.0 * GAMMA)
        worst_detuning = max(worst_detuning, abs(res.detuning - closed.detuning) / scale)
    ok = worst_level < 1e-4 and worst_detuning < 1e-3
    _report(
        4,
        "ultimate quantum limit",
        ok,
        f"level rel err {worst_level:.2e} < 1e-4; "
        f"detuning err {worst_detuning:.2e} < 1e-3 (relative to max(|psi|, 2 gamma))",
    )


def test_criterion_5_quasistatic_consistency():
    rng = np.random.default_rng(5)
    osc = MechanicalOscillator(mass=1.0, resonance_freq=5e-4, damping=1e-5)
    chi0 = 1.0 / (osc.mass * osc.resonance_freq**2)
    worst = 0.0
    accepted = 0
    while accepted < 20:
        gamma = rng.uniform(0.005, 0.05)
        cavity = OpticalCavity(gamma=gamma, round_trip=gamma / 10.0, wavevector=1.0)
        psi = rng.uniform(-0.3, 0.3)
        if psi == 0.0:
            continue
        cap = gamma / (chi0 * abs(psi)) if psi < 0 else 4.0 / chi0
        wp = WorkingPoint(psi, math.sqrt(rng.uniform(0.01, 0.8) * cap))
        rep = stability(osc, cavity, wp)
        if not (rep.static_ok and rep.dynamic_ok):
            continue
        accepted += 1
        grid = np.geomspace(1e-6, 1e-4, 5) * cavity.bandwidth
        full = spectrum(osc, cavity, wp, grid).s_sig
        quasi = equivalent_input_noise(osc, cavity, wp, grid)
        worst = max(worst, float(np.max(np.abs(full - quasi) / quasi)))
    _report(
        5,
        "quasi-static limit consistency",
        worst < 1e-6,
        f"20 stable working points, omega <= 1e-4 bandwidth, "
        f"worst rel err {worst:.2e} < 1e-6",
    )


def test_criterion_6_dual_dips():
    osc, cavity, wp = fig4_setup(10.0, 2.0)
    rep = dip_analysis(spectrum(osc, cavity, wp, default_grid(1.0)), osc, cavity, wp)
    err_minus = abs(rep.omega_minus / (math.sqrt(5.0) * rep.omega_sql) - 1.0)
    err_plus = abs(rep.omega_plus / (2.0 * math.sqrt(101.0) * rep.omega_sql) - 1.0)
    err_dm = abs(rep.depth_minus / 0.02 - 1.0)
    err_dp = abs(rep.depth_plus / 0.02 - 1.0)
    ok = (
        rep.count == 2
        and err_minus < 0.05
        and err_plus < 0.02
        and err_dm < 0.15
        and err_dp < 0.15
    )
    _report(
        6,
        "dual dips",
        ok,
        f"count {rep.count} == 2; position errs {err_minus:.3f} < 0.05, "
        f"{err_plus:.3f} < 0.02; depth errs {err_dm:.3f}, {err_dp:.3f} < 0.15",
    )


def test_criterion_7_second_dip_sql_crossing():
    details = []
    ok = True
    for bandwidth_ratio, below_expected in ((2.0, False), (1.0 / 3.0, True)):
        osc, cavity, wp = fig4_setup(-10.0, bandwidth_ratio)
        rep = dip_analysis(
            spectrum(osc, cavity, wp, default_grid(1.0)), osc, cavity, wp
        )
        # the dip level referred to the SQL at the asymptotic dip frequency
        ratio = rep.depth_plus * (rep.predicted_omega_plus / rep.omega_sql) ** 2
        target = 2.0 * bandwidth_ratio**2
        err = abs(ratio / target - 1.0)
        ok = ok and rep.below_sql_plus is below_expected and err < 0.20
        details.append(
            f"bandwidth {bandwidth_ratio:.3g}: below_sql={rep.below_sql_plus} "
            f"(expected {below_expected}), ratio {ratio:.4f} vs {target:.4f} "
            f"(err {err:.3f} < 0.20)"
        )
    _report(7, "second-dip SQL crossing", ok, "; ".join(details))


def test_criterion_8_stability_properties():
    rng = np.random.default_rng(8)
    # (a) lossless photon flux
    worst_flux = 0.0
    cavity = OpticalCavity(gamma=GAMMA, round_trip=1e-3, wavevector=1.0)
    for _ in range(200):
        ss = steady_state(cavity, rng.uniform(-3.0, 3.0), rng.uniform(0.0, 10.0))
        if abs(ss.a_in) > 0:
            worst_flux = max(worst_flux, abs(abs(ss.a_out) / abs(ss.a_in) - 1.0))
    ok_a = worst_flux < 1e-12

    # (b) static boundary vs amplification divergence, within one grid cell
    osc = MechanicalOscillator(mass=1.0, resonance_freq=1.0, damping=1e-3)
    xi2 = np.geomspace(0.01, 50.0, 60)
    psis = np.linspace(-0.12, -0.02, 11)
    grid = stability_map(osc, cavity, xi2, psis)
    ok_b = True
    for a, psi in enumerate(psis):
        flag_cells = [
            b
            for b in range(xi2.size - 1)
            if grid.static_ok[a, b] != grid.static_ok[a, b + 1]
        ]
        amp = np.array(
            [
                amplification_factor(osc, cavity, WorkingPoint(psi, math.sqrt(x)), 0.0)
                for x in xi2
            ]
        )
        div_cell = int(np.argmax(amp))
        ok_b = ok_b and len(flag_cells) == 1 and abs(flag_cells[0] - div_cell) <= 1

    # (c) dynamic stability always holds for negative detunings
    ok_c = all(
        stability(osc, cavity, WorkingPoint(rng.uniform(-3.0, -1e-6), rng.uniform(0.0, 50.0))).dynamic_ok
        for _ in range(100)
    )

    # (d) pole-locus oracle vs the Hurwitz verdict, at high and low Q, for springs on both
    # sides of the Lorentzian anti-damping threshold (delta: the loop at omega = 1)
    agree, total = 0, 100
    for _ in range(total):
        osc_d = MechanicalOscillator(1.0, 1.0, 10 ** rng.uniform(-6, 0.5))
        g = rng.uniform(0.005, 0.05)
        cav = OpticalCavity(
            gamma=g, round_trip=g / 10 ** rng.uniform(-0.5, 1.5), wavevector=1.0
        )
        psi = rng.uniform(-0.6, 0.6)
        lag = g - 1j * cav.round_trip
        k2_crit = osc_d.damping * cav.bandwidth * abs(lag * lag + psi * psi) ** 2 / (
            4.0 * g**2 * abs(psi)
        )
        xi2 = 2.0 * g * k2_crit / (g**2 + psi**2) * 10 ** rng.uniform(-1.5, 1.5)
        rep = stability(osc_d, cav, WorkingPoint(psi, math.sqrt(xi2)))
        kappa = kappa_for_coupling(cav, psi, math.sqrt(xi2))
        poles = effective_susceptibility_poles(osc_d, cav, psi, kappa)
        agree += (max(p.imag for p in poles) < 0) == (rep.static_ok and rep.dynamic_ok)
    ok_d = agree == total

    _report(
        8,
        "stability properties",
        ok_a and ok_b and ok_c and ok_d,
        f"(a) flux err {worst_flux:.2e} < 1e-12; (b) boundary within one cell "
        f"on {len(psis)} rows: {ok_b}; (c) 100/100 negative detunings "
        f"dynamically stable: {ok_c}; (d) pole oracle agreement {agree}/{total}",
    )


def test_criterion_9_bistability():
    osc = MechanicalOscillator(mass=1.0, resonance_freq=1.0, damping=1e-3)
    cavity = OpticalCavity(gamma=GAMMA, round_trip=1e-3, wavevector=1.0)
    psi0 = -0.05
    branches = drive = None
    for amp in np.geomspace(1e-3, 1e-1, 200):
        found = solve_self_consistent_detuning(cavity, osc, psi0, float(amp))
        if len(found) == 3:
            branches, drive = found, float(amp)
            break
    ok_found = branches is not None
    ok_middle = ok_found and [b.static_ok for b in branches] == [True, False, True]
    vieta = math.inf
    if ok_found:
        r = [b.detuning for b in branches]
        c = 8.0 * GAMMA * drive**2  # hbar = chi[0] = wavevector = 1
        vieta = max(
            abs(sum(r) / psi0 - 1.0),
            abs((r[0] * r[1] + r[0] * r[2] + r[1] * r[2]) / GAMMA**2 - 1.0),
            abs(r[0] * r[1] * r[2] / (psi0 * GAMMA**2 + c) - 1.0),
        )
    ok = ok_found and ok_middle and vieta < 1e-9
    _report(
        9,
        "bistability",
        ok,
        f"3 roots above threshold: {ok_found}; middle branch unstable: "
        f"{ok_middle}; worst Vieta residual {vieta:.2e} < 1e-9",
    )


def test_criterion_10_uql_floor_property():
    rng = np.random.default_rng(10)
    osc = MechanicalOscillator(mass=1.0, resonance_freq=1.0, damping=0.05)
    cavity = OpticalCavity(gamma=GAMMA, round_trip=1e-3, wavevector=1.0)
    chi0 = 1.0
    checked = 0
    worst_violation = -math.inf
    while checked < 1000:
        psi = rng.uniform(-0.3, 0.3)
        if psi == 0.0:
            continue
        cap = GAMMA / (chi0 * abs(psi)) if psi < 0 else 100.0
        wp = WorkingPoint(psi, math.sqrt(rng.uniform(1e-4, 0.99) * cap))
        omega = float(10 ** rng.uniform(math.log10(0.05), math.log10(5.0)))
        rep = stability(osc, cavity, wp)
        if not (rep.static_ok and rep.dynamic_ok):
            continue
        checked += 1
        s = equivalent_input_noise(osc, cavity, wp, omega)
        floor = abs(mech_susceptibility(osc, omega).imag)
        worst_violation = max(worst_violation, floor - s)
    ok = worst_violation <= 1e-12
    _report(
        10,
        "UQL floor property",
        ok,
        f"1000 stable samples, worst (floor - S) = {worst_violation:.2e} <= 1e-12",
    )
