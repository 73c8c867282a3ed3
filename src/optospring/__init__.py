"""Quantum-noise-limited sensitivity of a detuned cavity with a movable mirror.

A library and CLI for the frequency-domain quantum noise budget of a
high-finesse single-ended Fabry-Perot cavity whose end mirror moves:
optical-spring-modified mechanical response, equivalent-input noise
spectra in the quasi-static and finite-bandwidth regimes, standard and
ultimate quantum limits, stability domains, and optimal working points.
"""

from .core import (
    NORMALIZED,
    SI,
    Constants,
    DetuningBranch,
    MechanicalOscillator,
    OpticalCavity,
    QuadratureTransfer,
    StabilityReport,
    SteadyState,
    WorkingPoint,
    effective_susceptibility_poles,
    kappa_for_coupling,
    mech_susceptibility,
    solve_self_consistent_detuning,
    stability,
    stability_margins,
    stability_map,
    static_coupling2_bound,
    steady_state,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    DegenerateDissipationError,
    NoDipFoundError,
    NoMeasurementError,
    OptospringError,
    SingularPointError,
    StabilityBoundaryError,
)
from .finite_bandwidth import (
    DipReport,
    NoiseSpectrum,
    default_grid,
    dip_analysis,
    full_transfer_by_solve,
    log_grid,
    quasi_free_oscillator,
    spectrum,
)
from .optimize import (
    OptimResult,
    SearchSpec,
    minimize_over_detuning,
    minimize_over_xi,
    minimize_xi_quasistatic,
)
from .quasistatic import (
    OptimumPoint,
    SqlPoint,
    amplification_factor,
    coupling_optimum,
    equivalent_input_noise,
    equivalent_input_noise_closed_form,
    highfreq_optimum,
    lowfreq_optimum,
    noise_over_coupling,
    sql_frequency,
    sql_level,
    sql_point,
    ultimate_quantum_limit,
)

__version__ = "0.1.0"
