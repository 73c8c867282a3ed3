"""Numeric minimization of the equivalent-input noise.

Serves two purposes: a user-facing optimum finder over the working-point
parameters, and an independent numeric oracle for every closed-form
optimum in :mod:`optospring.quasistatic`. Searches are deterministic
(fixed seeding, no randomness): a coarse logarithmic pre-scan brackets
the minimum, then a golden-section/parabolic polish runs inside the
bracket. The polish is Brent's bounded minimizer (Brent 1973,
*Algorithms for Minimization without Derivatives*), implemented here
step for step as SciPy's ``minimize_scalar(method="bounded")``, so the
package needs only numpy. The coupling is searched in log(coupling^2),
where the objective spans decades but is nearly quadratic around its
minimum. A coupling objective must broadcast over an array of couplings
(wrap a scalar-only one in ``np.vectorize``), so each pre-scan is one
call; the quasi-static noise gives the same bits on arrays and scalars.
A detuning search makes the coupling pre-scans of all its seed detunings
in one call, on a column of detunings, and polishes each one alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .core import NORMALIZED, Constants, MechanicalOscillator, OpticalCavity, check_detuning
from .errors import DegenerateDissipationError
from .quasistatic import noise_over_coupling, sql_point

# an optimum this close to an end of its search range, relative to the
# range width, is reported as stopped at a bound
AT_BOUND_TOL = 1e-6

_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))


@dataclass(frozen=True)
class SearchSpec:
    """Bounds and tolerances for the working-point searches; the one place a range is checked."""

    xi2_bounds: tuple[float, float] = (1e-6, 1e6)
    psi_bounds: tuple[float, float] = (-math.pi + 1e-6, math.pi - 1e-6)
    rel_tol: float = 1e-8
    max_iter: int = 200
    seed_points: int = 60

    def __post_init__(self):
        for name in ("xi2_bounds", "psi_bounds"):
            lo, hi = getattr(self, name)
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ValueError(f"{name} must be finite and ordered, got {lo, hi}")
        if not self.xi2_bounds[0] > 0:
            raise ValueError(f"xi2_bounds must be positive, got {self.xi2_bounds}")
        check_detuning("psi_bounds", self.psi_bounds)
        if not self.rel_tol > 0:
            raise ValueError("rel_tol must be > 0")
        if self.max_iter < 1 or self.seed_points < 3:
            raise ValueError("max_iter >= 1 and seed_points >= 3 required")


@dataclass(frozen=True)
class OptimResult:
    """Outcome of one numeric search.

    ``converged`` says the polish met its tolerance; ``at_bound`` says the optimum
    sits at an end of the range searched, where the true minimum may lie beyond
    it. ``constraint_active`` is always false; it stays only as the benchmark reads it.
    """

    coupling2: float
    detuning: float | None
    level: float
    ratio_to_sql: float | None
    iterations: int
    converged: bool
    at_bound: bool
    constraint_active: bool = False


def _bounded_brent(f, a: float, b: float, xatol: float, maxiter: int):
    """Minimize a scalar function on [a, b] by Brent's bounded method.

    Golden-section steps, accepted parabolic steps and the stopping rule
    of Brent's FMIN, written step for step as SciPy's
    ``_minimize_scalar_bounded``, so its iterates, tolerances and
    evaluation count are those of ``minimize_scalar(method="bounded")``.
    Returns ``(x, f(x), evaluations, converged)``; a run that reaches
    ``maxiter`` evaluations or meets a NaN has not converged.
    """
    fulc = a + _GOLDEN * (b - a)
    nfc = xf = x = fulc
    rat = e = 0.0
    fx = f(x)
    num = 1
    fu = math.inf
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    stopped = False
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # parabola through the three best points
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = -tol1 if xm - xf < 0 else tol1
            else:
                golden = True
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = _GOLDEN * e
        x = xf + (-1.0 if rat < 0 else 1.0) * max(abs(rat), tol1)
        fu = f(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= maxiter:
            stopped = True
            break
    ok = not (stopped or math.isnan(xf) or math.isnan(fx) or math.isnan(fu))
    return xf, fx, num, ok


def _at_bound(x: float, lo: float, hi: float) -> bool:
    """Whether ``x`` lies within AT_BOUND_TOL of the width from an end of [lo, hi]."""
    return min(x - lo, hi - x) <= AT_BOUND_TOL * (hi - lo)


def _seeded_search(f, nodes, seed_vals, spec: SearchSpec):
    """Polish the best seed node with Brent between its neighbours.

    ``seed_vals`` holds ``f`` at ``nodes``; the best node is clipped to
    an interior one to bracket the polish. Returns ``(x, f(x),
    evaluations, converged)``; when the polish loses to the best seed,
    that seed wins with its scan value.
    """
    j = int(np.argmin(seed_vals))
    i = min(max(j, 1), len(nodes) - 2)
    # a Python-float bracket keeps the polish off numpy scalar arithmetic (same bits)
    a, b = float(nodes[i - 1]), float(nodes[i + 1])
    x, fx, nfev, ok = _bounded_brent(f, a, b, spec.rel_tol, spec.max_iter)
    if seed_vals[j] < fx:  # polish must never lose to its own seed
        return nodes[j], seed_vals[j], nfev, ok
    return x, fx, nfev, ok


@functools.lru_cache(maxsize=16)
def _seed_couplings(lo: float, hi: float, n: int):
    """Seed nodes in log(coupling^2) and their couplings, read-only, shared per bounds."""
    t = np.linspace(math.log(lo), math.log(hi), n)
    seed_xi = np.array([math.sqrt(math.exp(u)) for u in t])
    t.flags.writeable = seed_xi.flags.writeable = False
    return t, seed_xi


def minimize_over_xi(objective, spec: SearchSpec = SearchSpec(), *, seed_vals=None) -> OptimResult:
    """Minimize a noise objective over the coupling.

    ``objective`` maps a coupling value to a noise level (quasi-static or
    full-bandwidth, at fixed frequency and detuning), and an array of
    couplings elementwise: the seed scan is one call on all seed
    couplings, while the polish calls it on scalars (a winning seed keeps
    its scan value). Wrap a scalar-only objective in ``np.vectorize``.
    ``seed_vals``, when given, is that seed scan computed by the caller:
    ``objective`` at the ``spec.seed_points`` seed couplings, which a
    detuning search takes for all its detunings in one call.
    The search runs on log(coupling^2): a deterministic seed scan
    brackets the minimum, then a bounded Brent polish finishes.
    ``at_bound`` flags an optimum at either end of the log(coupling^2) range.
    """
    t, seed_xi = _seed_couplings(*spec.xi2_bounds, spec.seed_points)
    seed_vals = np.asarray(objective(seed_xi) if seed_vals is None else seed_vals, dtype=float)
    if seed_vals.shape != t.shape:
        raise ValueError(f"seed_vals must hold {t.size} values, got shape {seed_vals.shape}")

    def scalar(u):
        return objective(math.sqrt(math.exp(u)))

    u, level, nfev, ok = _seeded_search(scalar, t, seed_vals, spec)
    return OptimResult(
        coupling2=float(math.exp(u)),
        detuning=None,
        level=float(level),
        ratio_to_sql=None,
        iterations=spec.seed_points + nfev,
        converged=ok,
        at_bound=_at_bound(u, t[0], t[-1]),
    )


def minimize_xi_quasistatic(
    osc: MechanicalOscillator,
    gamma: float,
    detuning: float,
    omega: float,
    spec: SearchSpec = SearchSpec(),
    constants: Constants = NORMALIZED,
) -> OptimResult:
    """Numeric coupling optimum of the quasi-static noise (a cavity of ``round_trip = 0``)."""
    cavity = OpticalCavity(gamma, round_trip=0.0, wavevector=1.0)
    objective = noise_over_coupling(osc, cavity, detuning, omega, constants)
    res = minimize_over_xi(objective, spec)
    ratio = res.level / sql_point(osc, omega, constants).level
    return replace(res, detuning=detuning, ratio_to_sql=ratio)


def minimize_over_detuning(
    osc: MechanicalOscillator,
    gamma: float,
    omega: float,
    spec: SearchSpec = SearchSpec(),
    constants: Constants = NORMALIZED,
) -> OptimResult:
    """Joint numeric optimum over detuning and coupling at one frequency.

    Nested search: an outer scan-plus-Brent over the detuning, each step
    minimizing over the coupling. Requires mechanical dissipation, since
    otherwise no finite optimum exists off resonance. ``at_bound`` flags
    a detuning at either end of the searched detuning range.
    """
    if osc.damping == 0:
        raise DegenerateDissipationError(
            "detuning optimization undefined for an undamped oscillator"
        )
    cavity = OpticalCavity(gamma, round_trip=0.0, wavevector=1.0)
    evals = 0

    def level(psi: float, seed_vals=None) -> float:
        nonlocal evals
        objective = noise_over_coupling(osc, cavity, psi, omega, constants)
        r = minimize_over_xi(objective, spec, seed_vals=seed_vals)
        evals += r.iterations
        return r.level

    lo, hi = spec.psi_bounds
    p = np.linspace(lo, hi, spec.seed_points)
    # the coupling seed scans of all seed detunings in one call, row i at p[i]
    _, seed_xi = _seed_couplings(*spec.xi2_bounds, spec.seed_points)
    scans = noise_over_coupling(osc, cavity, p[:, None], omega, constants)(seed_xi)
    seed_vals = np.array([level(psi, row) for psi, row in zip(p.tolist(), scans)])
    psi_opt, _, _, ok = _seeded_search(level, p, seed_vals, spec)
    psi_opt = float(psi_opt)
    # the SQL reference is read only at the optimum
    best = minimize_xi_quasistatic(osc, gamma, psi_opt, omega, spec, constants)
    return replace(
        best,
        iterations=evals + best.iterations,
        converged=ok and best.converged,
        at_bound=_at_bound(psi_opt, lo, hi),
    )
