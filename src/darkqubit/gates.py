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

evolve_dark_pair follows the pair with no gate drive, with or without
field noise.  Extracted rates are authoritative everywhere: every
closed-form coefficient is reported as a ratio against the numerics,
never substituted for them.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .driving import Construction
from .dynamics import (NumericalError, SimulationTrace, evolve_stroboscopic,
                       evolve_unitary, expectation, overlap_population,
                       propagator)
from .noise import NoiseProcess, evolve_noisy
from .subspace import SubspaceReport, find_protected_subspace

__all__ = [
    "EffectiveQubitOp",
    "prepare_initial_state",
    "evolve_dark_pair",
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
# |l+ - l-| / |l+ + l-| below which the logarithm's slope is a series.
_LOG_SERIES = 1e-2


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


def evolve_dark_pair(con: Construction, initial: str, duration: float,
                     points: int = 400, noise: NoiseProcess | None = None,
                     n_traj: int = 256) -> tuple[dict, SimulationTrace]:
    """Free evolution of the dark pair from "D1", "D2" or "superposition"
    ((D1 + D2)/sqrt 2), prepared ideally, at points times on [0, duration].

    Without noise the state evolves unitarily, and the trace holds the D1,
    D2 and upper-manifold populations.  With noise on the Zeeman generator,
    n_traj trajectories are averaged, and the trace holds the D1 and D2
    populations and the pair's coherence magnitude.  The noise is held
    constant over each grid step, so under OU noise a step above tau_c
    raises ValueError, naming the points needed.  Returns ({"final": each
    population at duration, "noise_averaged": noise given}, trace).
    """
    if noise is not None and noise.kind == "ornstein-uhlenbeck":
        needed = math.ceil(duration / noise.tau_c) + 1
        if points < needed:
            raise ValueError(
                f"points: {points} step above tau_c = {noise.tau_c:.6g}; "
                f"OU noise needs at least {needed}")
    report = protected_report(con)
    psi0 = ((report.dark_states[0] + report.dark_states[1]) / np.sqrt(2.0)
            if initial == "superposition"
            else prepare_initial_state(report, initial))
    times = np.linspace(0.0, duration, points)
    basis = np.column_stack(report.dark_states[:2])
    if noise is not None:
        rho = evolve_noisy(con.ip, psi0, noise, con.scheme.zeeman_generator(),
                           times, n_traj=n_traj)
        p1, p2 = (np.einsum("i,tij,j->t", vec.conj(), rho, vec).real
                  for vec in basis.T)
        coh = np.abs(np.einsum("i,tij,j->t", basis[:, 0].conj(), rho,
                               basis[:, 1]))
        trace = SimulationTrace(times=times,
                                populations={"D1": p1, "D2": p2},
                                coherences={"pair": coh})
    else:
        states = evolve_unitary(con.ip, psi0, times)
        trace = SimulationTrace(times=times, populations={
            "D1": overlap_population(states, basis[:, 0]),
            "D2": overlap_population(states, basis[:, 1]),
            "upper": expectation(states,
                                 con.scheme.projector(con.upper)).real})
    return {"final": {k: float(v[-1]) for k, v in trace.populations.items()},
            "noise_averaged": noise is not None}, trace


def _axis_fidelity(matrix: np.ndarray, axis: np.ndarray) -> float:
    """|overlap| of the traceless part with a Pauli axis (Frobenius)."""
    traceless = matrix - np.trace(matrix) / 2.0 * np.eye(2)
    norm = np.linalg.norm(traceless)
    if norm == 0:
        return 0.0
    return float(abs(np.trace(axis.conj().T @ traceless)) /
                 (norm * np.linalg.norm(axis)))


def _log_2x2(mat: np.ndarray) -> np.ndarray:
    """Principal logarithm of a 2x2 matrix with no eigenvalue on (-inf, 0].

    With mu = tr/2, (M - mu I)^2 = d^2 I for the eigenvalues l+- = mu +- d,
    so any function of M is (f(l+) + f(l-))/2 I + slope (M - mu I), slope
    = (f(l+) - f(l-)) / (2d).  Near l+ = l- the log's slope is taken from
    atanh(z) / (z mu) = (1 + z^2/3 + z^4/5 + ...) / mu, z = d / mu, which
    also covers a Jordan block (d = 0).
    """
    mu = (mat[0, 0] + mat[1, 1]) / 2.0
    half = (mat[0, 0] - mat[1, 1]) / 2.0
    d = cmath.sqrt(half * half + mat[0, 1] * mat[1, 0])
    log_p, log_m = cmath.log(mu + d), cmath.log(mu - d)
    if abs(d) < _LOG_SERIES * abs(mu):
        z2 = (d / mu) ** 2
        series = 1.0 + z2 * (1 / 3 + z2 * (1 / 5 + z2 * (1 / 7 + z2 / 9)))
        slope = series / mu
    else:
        slope = (log_p - log_m) / (2.0 * d)
    return slope * (mat - mu * np.eye(2)) + (log_p + log_m) / 2.0 * np.eye(2)


def _pair_generator(proj: np.ndarray, t_probe: float,
                    ) -> tuple[np.ndarray, float]:
    """(H_eff, defect) of a pair-projected propagator proj over t_probe.

    defect = 1 - proj's smallest singular value, the population leaving
    the pair; above LEAKAGE_TOL it raises.  H_eff = i log(proj) / t_probe
    on the principal branch, made Hermitian.
    """
    smin = np.linalg.svd(proj, compute_uv=False).min()
    defect = float(1.0 - smin)
    if defect > LEAKAGE_TOL:
        raise NumericalError(
            f"subspace leakage {defect:.3g} over t_probe exceeds "
            f"{LEAKAGE_TOL}; the subspace is not preserved")
    gen = 1j * _log_2x2(proj) / t_probe
    return (gen + gen.conj().T) / 2.0, defect


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
    return _pair_generator(basis.conj().T @ u_full @ basis, t_probe)


def microwave_sigma_y(omega_g: float, con: Construction) -> EffectiveQubitOp:
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


def raman_sigma_x(omega_g: float, delta_r: float,
                  con: Construction) -> EffectiveQubitOp:
    """Far-detuned Raman gate through one excited state.

    Both legs (the two lower states that share the chosen excited state
    across the two Lambda systems) are driven with the same effective
    amplitude omega_g, detuned by delta_r from the excited state.  The
    second-order coupling rotates D1 into D2; the pair's effective
    Hamiltonian is taken from its stroboscopically sampled propagator and
    its rate compared to 3 omega_g^2 / (4 delta_r) in
    details["expected_second_order"].
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

    # The pair's generator over the whole number of drive periods nearest
    # 0.3 / expected, and the leakage at every such step over 1.4 pi /
    # expected (1.4 periods of the D1 <-> D2 transfer).
    period = 2.0 * np.pi / delta_r
    stride = max(1, round(0.3 / expected / period))
    n_periods = int(np.ceil(1.4 * np.pi / expected / period))
    _, states = evolve_stroboscopic(ham, basis, period, n_periods,
                                    stride=stride)
    proj = basis.conj().T @ states
    h_eff, defect = _pair_generator(proj[1], stride * period)
    rate = float(abs(h_eff[0, 1]))
    leakage = float(np.max(1.0 - np.sum(np.abs(proj) ** 2, axis=1)))

    return EffectiveQubitOp(
        "hamiltonian", h_eff, rate, leakage,
        _axis_fidelity(h_eff, SIGMA_X),
        {"expected_second_order": expected,
         "probe_defect": defect,
         "rate_over_expected": rate / expected,
         "hierarchy_warnings": tuple(hierarchy)})
