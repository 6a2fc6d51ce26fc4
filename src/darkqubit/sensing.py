"""AC magnetometry on the protected qubit.

A transverse AC field resonant with the lower manifold's Zeeman gap turns,
in the rotating frame, into a static (Omega_g/2)(cos(phi) Jx + sin(phi) Jy)
term.  Only the Jy quadrature rotates the dark pair (Jx has no matrix
elements inside it), so a signal of unknown phase is attenuated: averaging
the squared rate ratio over uniform phase gives exactly 1/2.

The detectable band is set from below by the noise floor at the qubit gap
(the transition rate ~ S_BB(gap) must not spoil a target T1) and from
above by the largest Zeeman splitting one can apply.

The hyperfine variant carries the same physics at the hyperfine frequency:
a magnetic-dipole signal operator S_x (Delta m = +/-1 elements from CG
recoupling, normalized so the stretched element is 1) driven near
omega_HF - 3 g b couples the two protected states through exactly one
resonant element, at rate (Omega_g/2) |<D2|2,-2><1,-1|D1>|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .angular import clebsch_gordan
from .driving import (Construction, TimeDependentHamiltonian,
                      to_rotating_frame)
from .dynamics import (SimulationTrace, evolve_unitary, fit_decay,
                       overlap_population)
from .gates import extract_effective_hamiltonian, protected_report
from .levels import LevelScheme
from .noise import NoiseProcess, evolve_noisy, spectral_density
from .subspace import SubspaceReport

__all__ = [
    "SensingProtocol",
    "SensitivityReport",
    "run_ac_sensing",
    "frequency_window",
    "hyperfine_signal_operator",
    "run_hyperfine_sensing",
    "coherence_comparison",
    "sensitivity_compare",
]

PHASE_POLICIES = ("locked", "random-averaged")
SENSING_SCHEMES = ("optical-D32", "hyperfine")
READOUT_BASES = ("x", "y", "z")
DEFAULT_MAX_ZEEMAN = 2.0 * np.pi * 100e6  # rad/s
DEFAULT_T1_TARGET = 1.0  # s
DEFAULT_THRESHOLD = 0.1  # dimensionless S_BB(gap) * T1_target bound


@dataclass(frozen=True)
class SensingProtocol:
    scheme: str  # "optical-D32" or "hyperfine"
    signal_freq: float  # rad/s
    signal_rabi: float  # rad/s
    phase_policy: str = "locked"
    interrogation_time: float = 1.0  # s
    readout_basis: str = "z"
    n_draws: int = 1024
    seed: int = 0

    def __post_init__(self):
        if self.scheme not in SENSING_SCHEMES:
            raise ValueError(f"scheme must be one of {SENSING_SCHEMES}")
        if self.phase_policy not in PHASE_POLICIES:
            raise ValueError(f"phase_policy must be one of {PHASE_POLICIES}")
        if self.readout_basis not in READOUT_BASES:
            raise ValueError(f"readout_basis must be one of {READOUT_BASES}")
        if self.interrogation_time <= 0:
            raise ValueError("interrogation_time must be positive")
        if self.signal_rabi < 0:
            raise ValueError("signal_rabi must be nonnegative")
        if self.n_draws < 1:
            raise ValueError("n_draws must be positive")


@dataclass(frozen=True)
class SensitivityReport:
    effective_rabi: float  # rad/s
    t2_used: float  # s
    sensitivity: float  # convention: 1 / (gamma_eff sqrt(T2)), see docs
    attenuation_factor: float
    details: dict = field(default_factory=dict)


def _signal_static(con: Construction, rabi: float, phase: float) -> np.ndarray:
    jx = con.scheme.spin_operator(con.lower, "x")
    jy = con.scheme.spin_operator(con.lower, "y")
    return (rabi / 2.0) * (np.cos(phase) * jx + np.sin(phase) * jy)


def _qubit_rate(con: Construction, basis: np.ndarray, rabi: float,
                phase: float, probe_scale: float) -> float:
    ham = con.ip.plus_static(_signal_static(con, rabi, phase))
    h_eff, _ = extract_effective_hamiltonian(ham, basis, 0.3 / probe_scale)
    return float(abs(h_eff[0, 1]))


def run_ac_sensing(protocol: SensingProtocol, con: Construction,
                   noise: NoiseProcess | None = None,
                   report: SubspaceReport | None = None, n_traj: int = 256,
                   ) -> tuple[SensitivityReport, SimulationTrace]:
    """Signal-induced rotation of the dark pair, with phase statistics.

    The signal must sit at the lower manifold's Zeeman gap; a detuning
    beyond the effective linewidth is flagged (zero-rotation regime) in
    the report details rather than raised.  With noise given, T2 is fitted
    from the mutual coherence of the pair under that noise; otherwise the
    protocol's interrogation_time stands in as the coherence window.
    """
    if report is None:
        report = protected_report(con)
    basis = np.column_stack(report.dark_states[:2])
    gap = abs(con.scheme.manifold(con.lower).g * con.b)
    detuning = protocol.signal_freq - gap

    jy = con.scheme.spin_operator(con.lower, "y")
    element = abs(basis[:, 1].conj() @ jy @ basis[:, 0])
    probe_scale = (protocol.signal_rabi / 2.0) * element

    if protocol.signal_rabi == 0.0:
        empty = SimulationTrace(times=np.array([0.0]))
        return (SensitivityReport(0.0, protocol.interrogation_time,
                                  math.inf, 1.0,
                                  {"flag": "zero signal"}), empty)

    off_resonant = abs(detuning) > 3.0 * probe_scale
    locked_rate = _qubit_rate(con, basis, protocol.signal_rabi, np.pi / 2.0,
                              probe_scale)

    attenuation = 1.0
    effective = locked_rate
    phase_rates = None
    if protocol.phase_policy == "random-averaged" and not off_resonant:
        rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(entropy=protocol.seed)))
        phases = rng.uniform(0.0, 2.0 * np.pi, protocol.n_draws)
        # |H_eff[0,1]| = locked_rate * |sin(phase)| exactly: the Jx
        # quadrature has no elements inside the pair, and its second-order
        # correction through the complement cancels between the +Omega and
        # -Omega dressed states.  The draw loop therefore reduces to the
        # matrix element; a handful of full extractions guard the shortcut.
        phase_rates = locked_rate * np.abs(np.sin(phases))
        for check_phase in phases[:4]:
            direct = _qubit_rate(con, basis, protocol.signal_rabi,
                                 check_phase, probe_scale)
            expected = locked_rate * abs(np.sin(check_phase))
            if abs(direct - expected) > 1e-3 * locked_rate + 1e-12:
                raise RuntimeError(
                    "phase shortcut disagrees with full extraction; "
                    f"{direct:.6g} vs {expected:.6g}")
        attenuation = float(np.mean((phase_rates / locked_rate) ** 2))
        effective = locked_rate * math.sqrt(attenuation)

    # Reference trace at locked phase over one transfer period.  Off
    # resonance the signal enters as a harmonic at the residual detuning
    # instead of a static term.
    horizon = np.pi / locked_rate
    times = np.linspace(0.0, horizon, 400)
    if abs(detuning) <= 1e-9 * max(1.0, gap):
        ham = con.ip.plus_static(
            _signal_static(con, protocol.signal_rabi, np.pi / 2.0))
    else:
        jplus = con.scheme.spin_operator(con.lower, "x") \
            + 1j * con.scheme.spin_operator(con.lower, "y")
        raising = 0.5 * jplus  # J+ / 2, the co-rotating part of Jx
        amp = protocol.signal_rabi / 2.0
        phase = np.pi / 2.0
        if detuning > 0:
            mat = amp * np.exp(-1j * phase) * raising
        else:
            mat = amp * np.exp(1j * phase) * raising.conj().T
        ham = con.ip.plus_harmonic(mat, abs(detuning))
    states = evolve_unitary(ham, basis[:, 0], times)
    trace = _readout_trace(times, states, basis, protocol.readout_basis)

    t2 = protocol.interrogation_time
    t2_details = {}
    if noise is not None:
        t2, bounded, final = _fit_pair_coherence(
            con, basis, noise, n_traj, 3.0 * _bare_dephasing_time(con, noise))
        t2_details = {"t2_bounded_below": bounded, "final_coherence": final}

    if off_resonant:
        effective = 0.0
    sensitivity = 1.0 / (effective * math.sqrt(t2)) if effective > 0 \
        else math.inf
    details = {
        "locked_rate": locked_rate,
        "expected_rate": probe_scale,
        "detuning": detuning,
        "n_draws": protocol.n_draws if phase_rates is not None else 0,
        "max_transfer": float(np.max(
            overlap_population(states, basis[:, 1]))),
        **t2_details,
    }
    if protocol.signal_freq > DEFAULT_MAX_ZEEMAN:
        details["window_flag"] = "signal above the default Zeeman ceiling"
    if off_resonant:
        details["flag"] = "signal off-resonant beyond linewidth; " \
                          "zero-rotation regime"
    report_out = SensitivityReport(effective, t2, sensitivity, attenuation,
                                   details)
    return report_out, trace


def _readout_trace(times, states, basis, readout_basis) -> SimulationTrace:
    p1 = overlap_population(states, basis[:, 0])
    p2 = overlap_population(states, basis[:, 1])
    a1 = states @ basis[:, 0].conj()  # <D1|psi(t)>
    a2 = states @ basis[:, 1].conj()
    rho12 = a1 * a2.conj()
    coherences = {}
    if readout_basis == "x":
        coherences["x"] = 2.0 * rho12.real
    elif readout_basis == "y":
        coherences["y"] = -2.0 * rho12.imag
    return SimulationTrace(times=times,
                           populations={"D1": p1, "D2": p2},
                           coherences=coherences)


def _fit_pair_coherence(con, basis, noise, n_traj, horizon):
    """T2 of the pair's mutual coherence under Zeeman noise.

    Returns (t2, bounded, final coherence): t2 is the first grid time at
    which the coherence drops below 1/e, or the horizon with bounded set
    (a lower bound) if it never does.
    """
    psi0 = (basis[:, 0] + basis[:, 1]) / np.sqrt(2.0)
    times = np.linspace(0.0, horizon, 160)
    rho = evolve_noisy(con.ip, psi0, noise, con.scheme.zeeman_generator(),
                       times, n_traj=n_traj)
    coh = np.abs(np.einsum("i,tij,j->t", basis[:, 0].conj(), rho,
                           basis[:, 1]))
    coh = coh / coh[0]
    below = np.nonzero(coh < np.exp(-1.0))[0]
    if below.size:
        return float(times[below[0]]), False, float(coh[-1])
    return float(times[-1]), True, float(coh[-1])


def _bare_dephasing_time(con: Construction, noise: NoiseProcess,
                         delta_m: float = 2.0) -> float:
    """Gaussian dephasing time of an undriven lower-manifold sublevel pair.

    The pair's gap moves by |g| delta_m b under the Zeeman noise b(t);
    a pair that does not dephase has no such time (ValueError).
    """
    sigma_gap = abs(con.scheme.manifold(con.lower).g) * delta_m * noise.sigma
    if sigma_gap <= 0:
        raise ValueError(
            f"noise.sigma: the bare {con.lower} pair does not dephase "
            f"(|g| * delta_m * sigma = 0 at sigma = {noise.sigma}); "
            "coherence times need a positive dephasing rate")
    return math.sqrt(2.0) / sigma_gap


def frequency_window(noise: NoiseProcess | None = None,
                     t1_target: float = DEFAULT_T1_TARGET,
                     min_gap: float = 0.0,
                     construction: Construction | None = None) -> dict:
    """Detectable signal band for the Zeeman-gap sensing scheme.

    lower: smallest gap nu with S_BB(nu) * t1_target < DEFAULT_THRESHOLD
    (noise-driven depolarization leaves the target T1 intact); upper:
    DEFAULT_MAX_ZEEMAN, the largest Zeeman splitting the apparatus
    supports.  With a construction given, its actual gap is checked
    against the window.
    """
    lower = min_gap
    rationale_low = "configured minimum gap (no noise floor)"
    if noise is not None and noise.sigma > 0:
        if noise.kind == "ornstein-uhlenbeck":
            # Solve S(nu) = threshold / t1_target exactly.
            arg = 2.0 * noise.sigma ** 2 * noise.tau_c * t1_target \
                / DEFAULT_THRESHOLD - 1.0
            if arg > 0:
                lower = max(lower, math.sqrt(arg) / noise.tau_c)
                rationale_low = ("smallest gap with "
                                 "S_BB(gap) * T1_target < threshold")
        else:
            # All power at DC: any finite gap clears the threshold.
            rationale_low = ("quasi-static noise: power confined to DC, "
                             "configured minimum gap applies")
    out = {
        "lower": lower,
        "upper": DEFAULT_MAX_ZEEMAN,
        "rationale": {
            "lower": rationale_low,
            "upper": "largest applicable Zeeman splitting",
        },
        "threshold": DEFAULT_THRESHOLD,
        "t1_target": t1_target,
    }
    if construction is not None:
        gap = abs(construction.scheme.manifold(construction.lower).g
                  * construction.b)
        out["current_gap"] = gap
        out["in_window"] = bool(lower <= gap <= DEFAULT_MAX_ZEEMAN)
    if noise is not None:
        out["noise_power_at_lower"] = float(
            spectral_density(noise, np.array([lower]))[0])
    return out


def hyperfine_signal_operator(scheme: LevelScheme, lower: str = "F1",
                              upper: str = "F2") -> np.ndarray:
    """Transverse magnetic-dipole signal operator between two F manifolds.

    Built from the rank-1 spherical components T_q with elements
    <F_u, m+q| T_q |F_l, m> given by the CG recoupling coefficient, combined
    as S_x = (T_{-1} - T_{+1}) / sqrt(2) + h.c., then rescaled so the
    stretched element |<F_u, -F_u| S_x |F_l, -F_l>| equals 1.  The overall
    normalization of such an operator is conventional; this definition is
    the single point where it is fixed.
    """
    f_l = scheme.manifold(lower)
    f_u = scheme.manifold(upper)
    dim = scheme.dim
    t_comp = {}
    for q in (-1, 1):
        op = np.zeros((dim, dim), dtype=complex)
        for m in f_l.m_values:
            target = m + q
            if abs(target) > f_u.j:
                continue
            amp = clebsch_gordan(f_l.j, m, 1, q, f_u.j, target)
            if amp:
                op[scheme.index(upper, target), scheme.index(lower, m)] = amp
        t_comp[q] = op
    raising = (t_comp[-1] - t_comp[+1]) / np.sqrt(2.0)
    s_x = raising + raising.conj().T
    ref = abs(s_x[scheme.index(upper, -f_u.j), scheme.index(lower, -f_l.j)])
    if ref == 0:
        raise ValueError("stretched element vanished; cannot normalize")
    return s_x / ref


def run_hyperfine_sensing(protocol: SensingProtocol, con: Construction,
                          detuning: float = 0.0,
                          report: SubspaceReport | None = None,
                          ) -> tuple[SensitivityReport, SimulationTrace]:
    """Signal-driven rotation of the hyperfine protected pair.

    The signal drives the S_x operator at the stretched-transition
    frequency (omega_HF shifted by three Zeeman spacings for the F1/F2
    pair) plus the given detuning.  Exactly one S_x element is resonant;
    its rate is extracted from the D1 <-> D2 population transfer and
    reported against (Omega_g/2) x (the dark-state amplitude product).
    """
    if report is None:
        report = protected_report(con)
    basis = np.column_stack(report.dark_states[:2])
    scheme = con.scheme
    s_x = hyperfine_signal_operator(scheme, con.lower, con.upper)

    f_l = scheme.manifold(con.lower)
    f_u = scheme.manifold(con.upper)
    energies = np.diag(scheme.static_hamiltonian(con.b)).real
    resonance = energies[scheme.index(con.upper, -f_u.j)] \
        - energies[scheme.index(con.lower, -f_l.j)]

    # Expected coupling: the resonant (stretched) element weighted by the
    # dark-state amplitudes it connects.
    iu = scheme.index(con.upper, -f_u.j)
    il = scheme.index(con.lower, -f_l.j)
    expected = (protocol.signal_rabi / 2.0) * abs(basis[iu, 1]) \
        * abs(basis[il, 0]) * abs(s_x[iu, il])

    if protocol.signal_rabi == 0.0:
        empty = SimulationTrace(times=np.array([0.0]))
        return (SensitivityReport(0.0, protocol.interrogation_time,
                                  math.inf, 1.0, {"flag": "zero signal"}),
                empty)

    # In the construction's frame each signal element lands at its own
    # residual frequency; slow ones join the static interaction picture.
    signal = TimeDependentHamiltonian(np.diag(con.frame)).plus_harmonic(
        (protocol.signal_rabi / 2.0) * s_x, resonance + detuning)
    rotated = to_rotating_frame(signal, con.frame,
                                rwa_cutoff=10.0 * con.omega)
    signal = rotated.hamiltonian
    ham = TimeDependentHamiltonian(con.ip.static + signal.static,
                                   con.ip.harmonics + signal.harmonics)

    rate_scale = max(expected, 1e-12)
    horizon = 1.2 * np.pi / rate_scale
    times = np.linspace(0.0, horizon, 900)
    states = evolve_unitary(ham, basis[:, 0], times)
    p2 = overlap_population(states, basis[:, 1])
    p1 = overlap_population(states, basis[:, 0])

    if detuning == 0.0:
        fit = fit_decay(times, p2, "sin2")
        rate = float(abs(fit.params["rate"]))
        fit_info = {"fit_rms": fit.rms_residual}
    else:
        rate = float("nan")
        fit_info = {}
    max_transfer = float(np.max(p2))

    t2 = protocol.interrogation_time
    sensitivity = 1.0 / (rate * math.sqrt(t2)) \
        if rate and not math.isnan(rate) else math.inf
    details = {
        "expected_rate": expected,
        "coefficient_vs_rabi": (rate / protocol.signal_rabi
                                if not math.isnan(rate) else math.nan),
        "resonance": resonance,
        "detuning": detuning,
        "max_transfer": max_transfer,
        "leakage": float(np.max(1.0 - p1 - p2)),
        "dropped_terms": len(rotated.dropped),
        "rwa_worst_ratio": max((term.ratio for term in rotated.dropped),
                               default=0.0),
        **fit_info,
    }
    trace = SimulationTrace(times=times,
                            populations={"D1": p1, "D2": p2})
    return (SensitivityReport(rate if not math.isnan(rate) else 0.0, t2,
                              sensitivity, 1.0, details), trace)


def coherence_comparison(con: Construction, noise: NoiseProcess,
                         n_traj: int = 512,
                         horizon_in_bare_t2: float = 100.0) -> dict:
    """Bare vs protected coherence under the same Zeeman noise.

    The bare arm is the lower manifold's outermost sublevel pair with no
    drive; its quasi-static Gaussian dephasing sets the time unit.  The
    protected arm runs the full construction to horizon_in_bare_t2 bare
    dephasing times; if its coherence never reaches 1/e, T2 is reported as
    a lower bound (the honest desk-scale outcome for a protected qubit).
    """
    scheme = con.scheme
    zee = scheme.zeeman_generator()
    report = protected_report(con)
    basis = np.column_stack(report.dark_states[:2])

    d_man = scheme.manifold(con.lower)
    m_lo, m_hi = d_man.m_values[0], d_man.m_values[-1]
    # Bare pair: the dark states' main support pair (adjacent-but-one), so
    # the comparison is against the same stored information.
    bare_a = scheme.basis_state(con.lower, m_lo + 1) \
        if len(d_man.m_values) > 3 else scheme.basis_state(con.lower, m_lo)
    bare_b = scheme.basis_state(con.lower, m_hi)
    delta_m = float(m_hi - (m_lo + 1 if len(d_man.m_values) > 3 else m_lo))
    t2_bare_analytic = _bare_dephasing_time(con, noise, delta_m)

    times_bare = np.linspace(0.0, 3.0 * t2_bare_analytic, 120)
    psi_bare = (bare_a + bare_b) / np.sqrt(2.0)
    rho_bare = evolve_noisy(np.zeros((scheme.dim, scheme.dim)), psi_bare,
                            noise, zee, times_bare, n_traj=n_traj)
    coh_bare = np.abs(np.einsum("i,tij,j->t", bare_a.conj(), rho_bare,
                                bare_b))
    coh_bare = coh_bare / coh_bare[0]
    fit = fit_decay(times_bare, coh_bare, "gaussian")
    t2_bare = float(abs(fit.params["tau"]))

    t2_prot, bounded, final = _fit_pair_coherence(
        con, basis, noise, n_traj, horizon_in_bare_t2 * t2_bare_analytic)

    gains = sensitivity_compare(t2_bare, t2_prot)
    return {
        "t2_bare": t2_bare,
        "t2_bare_analytic": t2_bare_analytic,
        "t2_protected": t2_prot,
        "t2_protected_bounded_below": bounded,
        "final_protected_coherence": final,
        **gains,
    }


def sensitivity_compare(t2_bare: float, t2_protected: float) -> dict:
    """Coherence and sensitivity gains, in orders of magnitude.

    Sensitivity scales as 1/sqrt(T2) at fixed rate, so its gain is half
    the coherence gain identically.
    """
    coherence_orders = math.log10(t2_protected / t2_bare)
    return {"coherence_gain_orders": coherence_orders,
            "gain_orders": 0.5 * coherence_orders}
