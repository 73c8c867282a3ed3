"""Numeric minimization of the equivalent-input noise.

Serves two purposes: a user-facing optimum finder over the working-point
parameters, and an independent numeric oracle for every closed-form
optimum in :mod:`optospring.quasistatic`. Searches are deterministic
(fixed seeding, no randomness): a coarse logarithmic pre-scan brackets
the minimum, then a golden-section/parabolic polish runs inside the
bracket. The polish is Brent's bounded minimizer (Brent 1973,
*Algorithms for Minimization without Derivatives*), implemented here
once, step for step as SciPy's ``minimize_scalar(method="bounded")``, so
the package needs only numpy. It is a generator that yields each point
and is sent its value, so one search runs alone on a scalar objective or
many run in lockstep on one array call. The coupling is searched in
log(coupling^2), where the objective spans decades but is nearly
quadratic around its minimum. A coupling objective must broadcast over
an array of couplings (wrap a scalar-only one in ``np.vectorize``), so
each pre-scan is one call; the quasi-static noise gives the same bits on
arrays and scalars. A detuning search makes the coupling pre-scans of
all its seed detunings in one call, on a column of detunings, then runs
their scalar polishes in lockstep: each step evaluates every polish's
point with one call of that column, and each polish is its scalar run.
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


def _brent(a: float, b: float, xatol: float, maxiter: int, seed=None):
    """Brent's bounded method on [a, b], as a generator of the points it evaluates.

    Golden-section steps, accepted parabolic steps and the stopping rule
    of Brent's FMIN, written step for step as SciPy's
    ``_minimize_scalar_bounded``, so its iterates, tolerances and
    evaluation count are those of ``minimize_scalar(method="bounded")``.
    Each point is yielded and must be sent its value; the generator returns
    ``(x, f(x), evaluations, converged)``. A run that reaches ``maxiter``
    evaluations or meets a NaN has not converged. ``seed``, a point and its
    value, wins when the run ends above it, keeping the run's count and flag.
    """
    fulc = a + _GOLDEN * (b - a)
    nfc = xf = x = fulc
    rat = e = 0.0
    fx = yield x
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
        fu = yield x
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
    if seed is not None and seed[1] < fx:  # a polish must never lose to its own seed
        return seed[0], seed[1], num, ok
    return xf, fx, num, ok


def _run(search, f):
    """Drive one search with the scalar objective ``f``; return what it returns."""
    send = search.send
    x = next(search)
    while True:
        fx = f(x)
        try:
            x = send(fx)
        except StopIteration as done:
            return done.value


def _lockstep(searches, f):
    """Drive the searches together, one call ``f(points)`` per step.

    ``f`` maps the list of every search's current point to their values; each
    live search is sent its own. A finished search keeps its last point, so ``f``
    sees one point per search on every call. Returns the searches' results in order.
    """
    sends = [search.send for search in searches]
    points = [next(search) for search in searches]
    results = [None] * len(searches)
    live = range(len(searches))
    while live:
        values = f(points)
        running = []
        for k in live:
            try:
                points[k] = sends[k](values[k])
                running.append(k)
            except StopIteration as done:
                results[k] = done.value
        live = running
    return results


def _at_bound(x: float, lo: float, hi: float) -> bool:
    """Whether ``x`` lies within AT_BOUND_TOL of the width from an end of [lo, hi]."""
    return min(x - lo, hi - x) <= AT_BOUND_TOL * (hi - lo)


def _seeded_search(nodes, seed_vals, spec: SearchSpec):
    """The Brent polish of the best seed node between its neighbours, as a search to drive.

    ``seed_vals``, an array, holds the objective at ``nodes``; the best node
    is clipped to an interior one to bracket the polish, and wins with its
    scan value when the polish ends above it.
    """
    j = int(seed_vals.argmin())
    i = min(max(j, 1), len(nodes) - 2)
    # a Python-float bracket keeps the polish off numpy scalar arithmetic (same bits)
    a, b = float(nodes[i - 1]), float(nodes[i + 1])
    return _brent(a, b, spec.rel_tol, spec.max_iter, seed=(nodes[j], seed_vals[j]))


def _xi(u: float) -> float:
    """The coupling at u = log(coupling^2), by libm."""
    return math.sqrt(math.exp(u))


@functools.lru_cache(maxsize=16)
def _seed_couplings(lo: float, hi: float, n: int):
    """Seed nodes in log(coupling^2) and their couplings, read-only, shared per bounds."""
    t = np.linspace(math.log(lo), math.log(hi), n)
    seed_xi = np.array([_xi(u) for u in t])
    t.flags.writeable = seed_xi.flags.writeable = False
    return t, seed_xi


def minimize_over_xi(objective, spec: SearchSpec = SearchSpec()) -> OptimResult:
    """Minimize a noise objective over the coupling.

    ``objective`` maps a coupling value to a noise level (quasi-static or
    full-bandwidth, at fixed frequency and detuning), and an array of
    couplings elementwise: the seed scan is one call on all seed
    couplings, while the polish calls it on scalars (a winning seed keeps
    its scan value). Wrap a scalar-only objective in ``np.vectorize``.
    The search runs on log(coupling^2): a deterministic seed scan
    brackets the minimum, then a bounded Brent polish finishes.
    ``at_bound`` flags an optimum at either end of the log(coupling^2) range.
    """
    t, seed_xi = _seed_couplings(*spec.xi2_bounds, spec.seed_points)
    search = _seeded_search(t, np.asarray(objective(seed_xi), dtype=float), spec)
    u, level, nfev, ok = _run(search, lambda u: objective(_xi(u)))
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

    def level(psi: float) -> float:
        nonlocal evals
        objective = noise_over_coupling(osc, cavity, psi, omega, constants)
        r = minimize_over_xi(objective, spec)
        evals += r.iterations
        return r.level

    lo, hi = spec.psi_bounds
    p = np.linspace(lo, hi, spec.seed_points)
    # the coupling searches of all seed detunings, row k at p[k]: their seed scans in
    # one call, then their polishes in lockstep, one call of the column per step
    t, seed_xi = _seed_couplings(*spec.xi2_bounds, spec.seed_points)
    column = noise_over_coupling(osc, cavity, p[:, None], omega, constants)
    scans = column(seed_xi)

    def lanes(points):
        return column(np.array([_xi(u) for u in points])[:, None])[:, 0].tolist()

    seeds = _lockstep([_seeded_search(t, row, spec) for row in scans], lanes)
    evals = sum(spec.seed_points + nfev for _, _, nfev, _ in seeds)
    search = _seeded_search(p, np.array([fx for _, fx, _, _ in seeds]), spec)
    psi_opt, _, _, ok = _run(search, level)
    psi_opt = float(psi_opt)
    # the SQL reference is read only at the optimum
    best = minimize_xi_quasistatic(osc, gamma, psi_opt, omega, spec, constants)
    return replace(
        best,
        iterations=evals + best.iterations,
        converged=ok and best.converged,
        at_bound=_at_bound(psi_opt, lo, hi),
    )
