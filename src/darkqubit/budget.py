"""Closed-form error budgets for the protected qubit, with cross-checks.

Three mechanisms limit the coherence of the dark-state pair:

* magnetic offset Delta_b: second-order repulsion from the dressed states
  shifts the two protected states by -/+ (4/125) b Delta_b^2 / Omega^2
  (their gap opens by twice that) and admixes excited character
  p_exc = (12/25) (Delta_b / Omega)^2, which decays at Gamma p_exc;
* relative amplitude error eps between the two driving fields: the dark
  states tilt by ~ sqrt(3) eps / 4, each acquires <Jz> ~ 3 eps / 4, and the
  differential (qubit-frequency) shift is ~ 3 eps^2 / 4, limiting T2 to
  ~ T2*_bare / eps^2;
* polarization leakage eps_pol: the leaked component is detuned by
  Delta = 2 g_lower b and weakly repopulates the excited states,
  p_exc ~ (3/4) (eps_pol Delta / Omega)^2.

Every analytic number is returned next to a numeric cross-check computed
from exact diagonalization (or time-domain integration) of the same
construction, so the formulas are never trusted blindly.  All frequencies
are angular (rad/s); b is the Zeeman energy mu_B B with g-factors applied
by the operators, and Delta_b likewise.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .driving import compact_construction
from .dynamics import evolve_unitary, overlap_population
from .levels import ca40_dp
from .subspace import canonical_order

__all__ = [
    "MechanismBudget",
    "ErrorBudget",
    "magnetic_shift_budget",
    "relative_amplitude_budget",
    "polarization_budget",
    "total_budget",
]

MAGNETIC_GAP_COEFF = 8.0 / 125.0  # per-state shift is half of this
MAGNETIC_PEXC_COEFF = 12.0 / 25.0
AMPLITUDE_MIXING_COEFF = math.sqrt(3.0) / 4.0
AMPLITUDE_PER_STATE_COEFF = 3.0 / 4.0
AMPLITUDE_DIFFERENTIAL_COEFF = 3.0 / 4.0
POLARIZATION_PEXC_COEFF = 3.0 / 4.0


@dataclass(frozen=True)
class MechanismBudget:
    mechanism: str
    gap_shift: float  # rad/s
    excited_population: float
    t1_limit: float  # s
    t2_limit: float  # s
    cross_check: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ErrorBudget:
    inputs: dict
    mechanisms: tuple[MechanismBudget, ...]
    gap_shift_total: float
    t1_limit: float
    t2_limit: float
    coherence_gain_orders: float


def _reference_scheme(omega: float, b: float):
    # Line center only needs to clear the RWA cutoff by a wide margin.
    omega0 = 1000.0 * max(abs(omega), abs(b), 1e-30)
    return ca40_dp(omega0=omega0)


def _check_omega(omega: float) -> None:
    if omega == 0:
        raise ValueError("omega must be nonzero: the budget divides by it")


def _ip_static(scheme, b, omega, **kwargs) -> np.ndarray:
    con = compact_construction(scheme, b, omega, **kwargs)
    if not con.ip.is_static:
        raise RuntimeError("expected a static interaction picture here")
    return con.ip.static


def _dark_pair(scheme, ham: np.ndarray, omega: float) -> np.ndarray:
    """The two zero-eigenvalue states of a driven Hamiltonian, canonical."""
    vals, vecs = np.linalg.eigh(ham)
    tol = 1e-9 * max(abs(omega), np.abs(vals).max())
    zero = np.abs(vals) <= tol
    if zero.sum() != 2:
        raise RuntimeError(
            f"expected exactly 2 zero modes, found {int(zero.sum())}")
    return canonical_order(vecs[:, zero], scheme)


def magnetic_shift_budget(omega: float, b: float, delta_b: float,
                          gamma: float, cross_check: bool = True,
                          ) -> MechanismBudget:
    """Budget for a static magnetic offset delta_b (rad/s Zeeman units).

    gap_shift = (8/125) b delta_b^2 / omega^2 (leading perturbation
    theory; the numeric gap in cross_check adjudicates the prefactor),
    p_exc = (12/25) (delta_b/omega)^2, T1 = 1/(gamma p_exc).

    The offset also shifts the excited-state detunings through their own
    g-factor, which refines the gap to (8/125)(b - 5 delta_b) delta_b^2
    / omega^2; cross_check reports agreement against both forms, and the
    refined one should track the diagonalization until delta_b stops
    being small against b/15.  gap_numeric is the difference of two
    near-zero eigenvalues of a matrix of scale omega, so cross_check also
    reports its relative rounding scale, gap_numeric_rounding = eps *
    max|eigenvalue| / gap_numeric.
    """
    _check_omega(omega)
    if delta_b / omega > 0.1:
        warnings.warn("delta_b/omega above 0.1; perturbative budget is "
                      "unreliable", stacklevel=2)
    gap = MAGNETIC_GAP_COEFF * abs(b) * delta_b ** 2 / omega ** 2
    p_exc = MAGNETIC_PEXC_COEFF * (delta_b / omega) ** 2
    t1 = 1.0 / (gamma * p_exc) if gamma * p_exc > 0 else math.inf
    t2 = 1.0 / gap if gap > 0 else math.inf
    check: dict = {}
    if cross_check and delta_b != 0 and b != 0:
        scheme = _reference_scheme(omega, b)
        ham = _ip_static(scheme, b, omega)
        perturbed = ham + delta_b * scheme.zeeman_generator()
        vals = np.linalg.eigvalsh(perturbed)
        pair = vals[np.argsort(np.abs(vals))[:2]]
        numeric = float(abs(pair[0] - pair[1]))
        refined = MAGNETIC_GAP_COEFF * abs(b - 5.0 * delta_b) \
            * delta_b ** 2 / omega ** 2
        check = {"gap_numeric": numeric,
                 "gap_numeric_rounding":
                     float(np.finfo(float).eps * np.abs(vals).max() / numeric),
                 "gap_analytic": gap,
                 "gap_analytic_refined": refined,
                 "agreement": numeric / gap if gap else math.nan,
                 "agreement_refined":
                     numeric / refined if refined else math.nan,
                 "worst_zero_distance": float(abs(pair[1]))}
    return MechanismBudget("magnetic-offset", gap, p_exc, t1, t2, check)


def relative_amplitude_budget(epsilon: float, t2star_bare: float,
                              omega: float = 1.0, cross_check: bool = True,
                              ) -> MechanismBudget:
    """Budget for a relative amplitude error between the two drive fields.

    The dark states survive (still at zero energy) but tilt; the recomputed
    <Jz> values in cross_check come from exact diagonalization with the
    sigma+ field scaled by (1 + epsilon).
    """
    if not abs(epsilon) < 0.3:
        raise ValueError("relative amplitude error must satisfy |eps| < 0.3")
    mixing = AMPLITUDE_MIXING_COEFF * epsilon
    per_state = AMPLITUDE_PER_STATE_COEFF * epsilon
    differential = AMPLITUDE_DIFFERENTIAL_COEFF * epsilon ** 2
    t2 = t2star_bare / epsilon ** 2 if epsilon != 0 else math.inf
    check: dict = {}
    if cross_check and epsilon != 0:
        scheme = _reference_scheme(omega, 0.0)
        ham = _ip_static(scheme, 0.0, omega, amp_error=epsilon)
        dark = _dark_pair(scheme, ham, omega)
        jz_d = scheme.spin_operator("D3/2", "z")
        z1 = float((dark[:, 0].conj() @ jz_d @ dark[:, 0]).real)
        z2 = float((dark[:, 1].conj() @ jz_d @ dark[:, 1]).real)
        check = {"per_state_numeric_1": z1,
                 "per_state_numeric_2": z2,
                 "per_state_analytic": per_state,
                 "differential_numeric": z1 - z2,
                 "differential_analytic": differential}
    return MechanismBudget("relative-amplitude", gap_shift=differential,
                           excited_population=0.0, t1_limit=math.inf,
                           t2_limit=t2, cross_check=check)


def polarization_budget(eps_pol: float, b: float, omega: float,
                        gamma: float, cross_check: bool = True,
                        ) -> MechanismBudget:
    """Budget for polarization leakage between the two circular fields.

    The leaked component is off-resonant by Delta = 2 g_lower b and drives
    weak excitation, p_exc ~ (3/4) (eps_pol Delta / omega)^2 in steady
    response (transients reach ~4x).  cross_check integrates the leaky
    construction from a dark state and records the max excited population.
    """
    if not 0 <= eps_pol < 0.1:
        raise ValueError("polarization leakage must satisfy 0 <= eps < 0.1")
    _check_omega(omega)
    scheme = _reference_scheme(omega, b)
    g_lower = scheme.manifold("D3/2").g
    delta = 2.0 * g_lower * abs(b)
    p_exc = POLARIZATION_PEXC_COEFF * (eps_pol * delta / omega) ** 2
    t1 = 1.0 / (gamma * p_exc) if gamma * p_exc > 0 else math.inf
    check: dict = {}
    if cross_check and eps_pol > 0 and delta > 0:
        con = compact_construction(scheme, b, omega, pol_leak=eps_pol)
        dark = _dark_pair(scheme, con.coupling_part, omega)
        horizon = max(30.0 / omega, 3.0 * 2.0 * np.pi / delta)
        times = np.linspace(0.0, horizon, 1500)
        states = evolve_unitary(con.ip, dark[:, 0], times)
        p_states = [scheme.basis_state("P1/2", m)
                    for m in scheme.manifold("P1/2").m_values]
        excited = sum(overlap_population(states, p) for p in p_states)
        check = {"max_excited_numeric": float(np.max(excited)),
                 "p_exc_analytic": p_exc,
                 "delta": delta}
    return MechanismBudget("polarization-leakage", gap_shift=0.0,
                           excited_population=p_exc, t1_limit=t1,
                           t2_limit=math.inf, cross_check=check)


def total_budget(omega: float, b: float, delta_b: float, epsilon: float,
                 eps_pol: float, gamma: float, t2star_bare: float,
                 cross_check: bool = False) -> ErrorBudget:
    """Combine all mechanisms: decay rates add, gap shifts in quadrature.

    coherence_gain_orders = log10(min(T1, T2) / T2*_bare), the improvement
    over the bare (unprotected) qubit; inf inputs propagate as inf.
    """
    if not t2star_bare > 0:
        raise ValueError("t2star_bare must be positive")
    mechanisms = (
        magnetic_shift_budget(omega, b, delta_b, gamma, cross_check),
        relative_amplitude_budget(epsilon, t2star_bare, omega, cross_check),
        polarization_budget(eps_pol, b, omega, gamma, cross_check),
    )
    gap_total = math.sqrt(sum(m.gap_shift ** 2 for m in mechanisms))
    inv_t1 = sum(1.0 / m.t1_limit for m in mechanisms if m.t1_limit < math.inf)
    inv_t2 = sum(1.0 / m.t2_limit for m in mechanisms if m.t2_limit < math.inf)
    t1 = 1.0 / inv_t1 if inv_t1 > 0 else math.inf
    t2 = 1.0 / inv_t2 if inv_t2 > 0 else math.inf
    limit = min(t1, t2)
    gain = math.log10(limit / t2star_bare) if limit < math.inf else math.inf
    return ErrorBudget(
        inputs={"omega": omega, "b": b, "delta_b": delta_b,
                "epsilon": epsilon, "eps_pol": eps_pol, "gamma": gamma,
                "t2star_bare": t2star_bare},
        mechanisms=mechanisms, gap_shift_total=gap_total,
        t1_limit=t1, t2_limit=t2, coherence_gain_orders=gain)
