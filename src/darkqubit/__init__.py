"""Continuously driven multi-level qubits with decoherence-protected
subspaces: constructions, robustness budgets, effective gates, and AC
magnetometry.

The library is organized bottom-up: exact angular-momentum algebra
(`angular`), level schemes (`levels`), driven constructions and rotating
frames (`driving`), protected-subspace extraction (`subspace`), dynamics
and noise averaging (`dynamics`, `noise`), closed-form error budgets with
numerical cross-checks (`budget`), effective qubit gates (`gates`), and
sensing protocols (`sensing`).  The `cli` module runs scenario files.
"""

from .angular import clebsch_gordan, jminus, jplus, jx, jy, jz
from .budget import (ErrorBudget, MechanismBudget, magnetic_shift_budget,
                     polarization_budget, relative_amplitude_budget,
                     total_budget)
from .driving import (Construction, DriveField, DroppedTerm, Harmonic,
                      TimeDependentHamiltonian, build_lab_hamiltonian,
                      compact_construction, hyperfine_construction,
                      ideal_construction, to_rotating_frame)
from .dynamics import (FitResult, NumericalError, SimulationTrace,
                       evolve_lindblad, evolve_stroboscopic, evolve_unitary,
                       expectation, fit_decay, liouvillian,
                       overlap_population, propagator)
from .gates import (EffectiveQubitOp, extract_effective_hamiltonian,
                    microwave_sigma_y, prepare_initial_state,
                    protected_report, raman_sigma_x)
from .levels import (DecayChannel, LevelScheme, Manifold, ca40_dp, ca40_sdp,
                     d52_p32, hyperfine_f0f1, hyperfine_f1f2, preset)
from .noise import (NoiseProcess, evolve_noisy, sample_trajectories,
                    spectral_density)
from .scenario import Scenario, ScenarioError, load_scenario, parse_frequency
from .sensing import (SensitivityReport, coherence_comparison,
                      frequency_window, hyperfine_signal_operator,
                      run_ac_sensing, run_hyperfine_sensing,
                      sensitivity_compare)
from .subspace import (ProtectionError, SubspaceReport, canonical_order,
                       find_protected_subspace)

__version__ = "0.1.0"

__all__ = [
    "clebsch_gordan", "jx", "jy", "jz", "jplus", "jminus",
    "Manifold", "DecayChannel", "LevelScheme",
    "ca40_dp", "ca40_sdp", "d52_p32", "hyperfine_f1f2", "hyperfine_f0f1",
    "preset",
    "DriveField", "Harmonic", "TimeDependentHamiltonian", "DroppedTerm",
    "Construction", "build_lab_hamiltonian", "to_rotating_frame",
    "ideal_construction", "compact_construction", "hyperfine_construction",
    "SubspaceReport", "ProtectionError",
    "find_protected_subspace", "canonical_order",
    "SimulationTrace", "FitResult", "NumericalError",
    "evolve_unitary", "evolve_stroboscopic", "evolve_lindblad",
    "liouvillian", "propagator", "expectation", "overlap_population",
    "fit_decay",
    "NoiseProcess", "spectral_density", "sample_trajectories",
    "evolve_noisy",
    "MechanismBudget", "ErrorBudget", "magnetic_shift_budget",
    "relative_amplitude_budget", "polarization_budget", "total_budget",
    "EffectiveQubitOp", "protected_report", "prepare_initial_state",
    "extract_effective_hamiltonian", "microwave_sigma_y", "raman_sigma_x",
    "SensitivityReport", "run_ac_sensing",
    "frequency_window", "hyperfine_signal_operator",
    "run_hyperfine_sensing", "coherence_comparison", "sensitivity_compare",
    "Scenario", "ScenarioError", "load_scenario", "parse_frequency",
    "__version__",
]
