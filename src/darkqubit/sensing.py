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

The coherence comparison and noisy optical sensing read the protected
pair's coherence from gates.evolve_dark_pair, the package's one noisy run
of the dark pair; the comparison takes the bare pair's T2 in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .driving import (Construction, TimeDependentHamiltonian,
                      to_rotating_frame)
from .dynamics import (NumericalError, SimulationTrace, evolve_unitary,
                       overlap_population)
from .gates import (evolve_dark_pair, extract_effective_hamiltonian,
                    protected_report)
from .levels import LevelScheme
from .noise import NoiseProcess, spectral_density

__all__ = [
    "SensitivityReport",
    "run_ac_sensing",
    "frequency_window",
    "hyperfine_signal_operator",
    "run_hyperfine_sensing",
    "coherence_comparison",
    "sensitivity_compare",
]

PHASE_POLICIES = ("locked", "random-averaged")
DEFAULT_MAX_ZEEMAN = 2.0 * np.pi * 100e6  # rad/s
DEFAULT_T1_TARGET = 1.0  # s
DEFAULT_THRESHOLD = 0.1  # dimensionless S_BB(gap) * T1_target bound
# Most points _fit_pair_coherence takes to keep OU steps within tau_c;
# compare's default horizon on compact ca40_dp (b = 0.05, sigma = 5e-4,
# tau_c = 100) takes 15726.
MAX_PAIR_POINTS = 2 ** 14


@dataclass(frozen=True)
class SensitivityReport:
    effective_rabi: float  # rad/s
    t2_used: float  # s
    sensitivity: float  # convention: 1 / (gamma_eff sqrt(T2)), see docs
    attenuation_factor: float
    details: dict = field(default_factory=dict)


def _with_signal(con: Construction, operator: np.ndarray, rabi: float,
                 freq: float, phase: float, rwa_cutoff: float,
                 freq_atol: float | None = None):
    """con.ip plus the lab field rabi cos(freq t + phase) operator.

    to_rotating_frame moves the field into the construction's frame.
    Returns the Hamiltonian and the ledger of the terms it dropped.
    """
    lab = TimeDependentHamiltonian(np.diag(con.frame)).plus_harmonic(
        (rabi / 2.0) * operator, freq, phase)
    rotated = to_rotating_frame(lab, con.frame, rwa_cutoff=rwa_cutoff,
                                freq_atol=freq_atol)
    signal = rotated.hamiltonian
    ham = TimeDependentHamiltonian(con.ip.static + signal.static,
                                   con.ip.harmonics + signal.harmonics)
    ratios = [term.ratio for term in rotated.dropped]
    return ham, {"dropped_terms": len(ratios),
                 "rwa_worst_ratio": max(ratios, default=0.0)}


def _optical_signal(con: Construction, rabi: float, freq: float,
                    phase: float):
    """_with_signal for the field rabi cos(freq t + phase) Jx_lower.

    Its co-rotating part sits at |freq - gap| and stays; the
    counter-rotating part at freq + gap is dropped.  A residual within
    1e-9 of the gap counts as resonant.
    """
    gap = abs(con.scheme.manifold(con.lower).g * con.b)
    return _with_signal(con, con.scheme.spin_operator(con.lower, "x"), rabi,
                        freq, phase, rwa_cutoff=max(freq, gap),
                        freq_atol=1e-9 * max(1.0, gap))


def _report(rate: float, t2: float, attenuation: float,
            details: dict) -> SensitivityReport:
    """Report with sensitivity 1 / (rate sqrt(T2)); infinite at rate 0."""
    sensitivity = 1.0 / (rate * math.sqrt(t2)) if rate > 0 else math.inf
    return SensitivityReport(rate, t2, sensitivity, attenuation, details)


def _check_signal(signal_rabi: float, interrogation_time: float) -> None:
    if interrogation_time <= 0:
        raise ValueError("interrogation_time must be positive")
    if signal_rabi < 0:
        raise ValueError("signal_rabi must be nonnegative")


def _zero_signal(interrogation_time: float):
    return (_report(0.0, interrogation_time, 1.0, {"flag": "zero signal"}),
            SimulationTrace(times=np.array([0.0])))


def run_ac_sensing(con: Construction, signal_freq: float, signal_rabi: float,
                   phase_policy: str = "locked",
                   interrogation_time: float = 1.0,
                   noise: NoiseProcess | None = None, n_traj: int = 256,
                   ) -> tuple[SensitivityReport, SimulationTrace]:
    """Signal-induced rotation of the dark pair, with phase statistics.

    The signal is the lab field signal_rabi cos(signal_freq t + phase) Jx
    on the lower manifold, taken into the construction's frame with its
    counter-rotating part dropped (and reported in the RWA ledger).  It
    must sit at the lower manifold's Zeeman gap; a detuning beyond the
    effective linewidth is flagged (zero-rotation regime) in the report
    details rather than raised.  With noise given, T2 is fitted from the
    mutual coherence of the pair under that noise; otherwise the
    interrogation_time stands in as the coherence window.  With
    phase_policy "random-averaged" the attenuation on resonance is the
    mean of sin^2 over a uniform phase, exactly 1/2, once four full
    extractions confirm the |sin(phase)| law it rests on (NumericalError
    if they do not).  The trace holds the D1 and D2 populations.
    """
    if phase_policy not in PHASE_POLICIES:
        raise ValueError(f"phase_policy must be one of {PHASE_POLICIES}")
    _check_signal(signal_rabi, interrogation_time)
    report = protected_report(con)
    if signal_rabi == 0.0:
        return _zero_signal(interrogation_time)
    basis = np.column_stack(report.dark_states[:2])
    gap = abs(con.scheme.manifold(con.lower).g * con.b)
    if gap == 0.0:
        raise ValueError("optical sensing needs a finite Zeeman gap (b != 0)")
    detuning = signal_freq - gap

    jy = con.scheme.spin_operator(con.lower, "y")
    element = abs(basis[:, 1].conj() @ jy @ basis[:, 0])
    probe_scale = (signal_rabi / 2.0) * element

    def rate_at_gap(phase):
        ham = _optical_signal(con, signal_rabi, gap, phase)[0]
        h_eff, _ = extract_effective_hamiltonian(ham, basis,
                                                 0.3 / probe_scale)
        return float(abs(h_eff[0, 1]))

    off_resonant = abs(detuning) > 3.0 * probe_scale
    locked_rate = rate_at_gap(np.pi / 2.0)

    attenuation = 1.0
    effective = locked_rate
    if phase_policy == "random-averaged" and not off_resonant:
        # |H_eff[0,1]| = locked_rate * |sin(phase)| exactly: the Jx
        # quadrature has no elements inside the pair, and its second-order
        # correction through the complement cancels between the +Omega and
        # -Omega dressed states.  The phase average of the squared ratio is
        # then the mean of sin^2, 1/2.  Full extractions guard the law at
        # one phase per quadrant, none a multiple of pi/2, so that both
        # quadratures enter every check.
        for check_phase in (0.3, 2.0, 3.6, 5.5):
            direct = rate_at_gap(check_phase)
            expected = locked_rate * abs(math.sin(check_phase))
            if abs(direct - expected) > 1e-3 * locked_rate + 1e-12:
                raise NumericalError(
                    "phase shortcut disagrees with full extraction; "
                    f"{direct:.6g} vs {expected:.6g}")
        attenuation = 0.5
        effective = locked_rate * math.sqrt(attenuation)

    # Reference trace at locked phase over one transfer period.  Off
    # resonance the signal enters as a harmonic at the residual detuning.
    ham, ledger = _optical_signal(con, signal_rabi, signal_freq, np.pi / 2.0)
    times = np.linspace(0.0, np.pi / locked_rate, 400)
    states = evolve_unitary(ham, basis[:, 0], times)
    trace = SimulationTrace(times=times, populations={
        "D1": overlap_population(states, basis[:, 0]),
        "D2": overlap_population(states, basis[:, 1])})

    t2 = interrogation_time
    t2_details = {}
    if noise is not None:
        t2, bounded, final = _fit_pair_coherence(
            con, noise, n_traj, 3.0 * _bare_dephasing_time(con, noise))
        t2_details = {"t2_bounded_below": bounded, "final_coherence": final}

    details = {
        "locked_rate": locked_rate,
        "expected_rate": probe_scale,
        "detuning": detuning,
        "max_transfer": float(np.max(trace.populations["D2"])),
        **ledger,
        **t2_details,
    }
    if signal_freq > DEFAULT_MAX_ZEEMAN:
        details["window_flag"] = "signal above the default Zeeman ceiling"
    if off_resonant:
        effective = 0.0
        details["flag"] = "signal off-resonant beyond linewidth; " \
                          "zero-rotation regime"
    return _report(effective, t2, attenuation, details), trace


def _fit_pair_coherence(con, noise, n_traj, horizon):
    """T2 of the dark pair's coherence under con.ip and the Zeeman noise,
    read from evolve_dark_pair's "superposition" run and divided by its
    value at t = 0, on 160 times to the horizon, or under OU noise on as
    many more as keep the step within tau_c.  NumericalError, before any
    trajectory is drawn, if that needs more than MAX_PAIR_POINTS.

    Returns (t2, bounded, final coherence): t2 is the first grid time at
    which the coherence drops below 1/e, or the horizon with bounded set
    (a lower bound) if it never does.
    """
    points = 160
    if noise.kind == "ornstein-uhlenbeck":
        points = max(points, math.ceil(horizon / noise.tau_c) + 1)
        if points > MAX_PAIR_POINTS:
            raise NumericalError(
                f"a horizon of {horizon:.6g} at tau_c = {noise.tau_c:.6g} "
                f"needs {points} grid points, above {MAX_PAIR_POINTS}")
    _, trace = evolve_dark_pair(con, "superposition", horizon, points, noise,
                                n_traj)
    times, coh = trace.times, trace.coherences["pair"]
    coh = coh / coh[0]
    below = np.nonzero(coh < np.exp(-1.0))[0]
    if below.size:
        return float(times[below[0]]), False, float(coh[-1])
    return float(times[-1]), True, float(coh[-1])


def _kubo(x: float) -> float:
    """x - 1 + e^{-x}; below x = 1, where that cancels, its series."""
    return (x - 1.0 + math.exp(-x) if x >= 1.0 else
            sum((-x) ** n / math.factorial(n) for n in range(20, 1, -1)))


def _bare_dephasing_time(con: Construction, noise: NoiseProcess,
                         delta_m: float = 2.0) -> float:
    """Exact 1/e time of an undriven lower-manifold sublevel pair.

    Its gap moves by sigma_gap = |g| delta_m sigma under the noise, so its
    coherence is exp(-(sigma_gap t)^2 / 2) under quasi-static noise and
    Kubo's exp(-(sigma_gap tau_c)^2 (x - 1 + e^{-x})), x = t/tau_c, under
    OU noise (J. Phys. Soc. Jpn. 9, 935 (1954)): 1/e where x - 1 + e^{-x}
    = c = (sigma_gap tau_c)^-2, which Newton's method reaches from
    x = c + 1, falling monotonically.  A pair that does not dephase has
    none (ValueError).
    """
    sigma_gap = abs(con.scheme.manifold(con.lower).g) * delta_m * noise.sigma
    if sigma_gap <= 0:
        raise ValueError(
            f"noise.sigma: the bare {con.lower} pair does not dephase "
            f"(|g| * delta_m * sigma = 0 at sigma = {noise.sigma}); "
            "coherence times need a positive dephasing rate")
    if noise.kind != "ornstein-uhlenbeck":
        return math.sqrt(2.0) / sigma_gap
    c = (sigma_gap * noise.tau_c) ** -2
    x, last = c + 1.0, math.inf
    while x < last:  # until rounding stops the fall
        x, last = x - (_kubo(x) - c) / -math.expm1(-x), x
    return noise.tau_c * last


def frequency_window(noise: NoiseProcess | None = None,
                     construction: Construction | None = None) -> dict:
    """Detectable signal band for the Zeeman-gap sensing scheme.

    lower: smallest gap nu with S_BB(nu) * DEFAULT_T1_TARGET <
    DEFAULT_THRESHOLD (noise-driven depolarization leaves the target T1
    intact), 0 when every gap does; upper: DEFAULT_MAX_ZEEMAN, the largest
    Zeeman splitting the apparatus supports.  With a construction given,
    its actual gap is checked against the window.
    """
    lower = 0.0
    rationale_low = "no noise floor"
    if noise is not None and noise.sigma > 0:
        if noise.kind == "ornstein-uhlenbeck":
            # Solve S(nu) = threshold / t1_target exactly.
            arg = 2.0 * noise.sigma ** 2 * noise.tau_c * DEFAULT_T1_TARGET \
                / DEFAULT_THRESHOLD - 1.0
            if arg > 0:
                lower = math.sqrt(arg) / noise.tau_c
                rationale_low = ("smallest gap with "
                                 "S_BB(gap) * T1_target < threshold")
        else:
            # All power at DC: any finite gap clears the threshold.
            rationale_low = "quasi-static noise: power confined to DC"
    out = {
        "lower": lower,
        "upper": DEFAULT_MAX_ZEEMAN,
        "rationale": {
            "lower": rationale_low,
            "upper": "largest applicable Zeeman splitting",
        },
        "threshold": DEFAULT_THRESHOLD,
        "t1_target": DEFAULT_T1_TARGET,
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

    T_{+1} and T_{-1} are the scheme's sigma+ and sigma- dipole couplings
    (memoised and read-only; elements <F_l m; 1 q | F_u m+q>), combined as
    S_x = (T_{-1} - T_{+1}) / sqrt(2) + h.c., then rescaled so the
    stretched element |<F_u, -F_u| S_x |F_l, -F_l>| equals 1.  The overall
    normalization of such an operator is conventional; this definition is
    the single point where it is fixed.
    """
    f_l = scheme.manifold(lower)
    f_u = scheme.manifold(upper)
    raising = (scheme.dipole_coupling(lower, upper, "sigma-")
               - scheme.dipole_coupling(lower, upper, "sigma+")) / np.sqrt(2.0)
    s_x = raising + raising.conj().T
    ref = abs(s_x[scheme.index(upper, -f_u.j), scheme.index(lower, -f_l.j)])
    if ref == 0:
        raise ValueError("stretched element vanished; cannot normalize")
    return s_x / ref


def run_hyperfine_sensing(con: Construction, signal_rabi: float,
                          detuning: float = 0.0,
                          interrogation_time: float = 1.0,
                          ) -> tuple[SensitivityReport, SimulationTrace]:
    """Signal-driven rotation of the hyperfine protected pair.

    The signal drives the S_x operator at the stretched-transition
    frequency (omega_HF shifted by three Zeeman spacings for the F1/F2
    pair) plus the given detuning.  Exactly one S_x element is resonant;
    on resonance its rate is the pair's effective-Hamiltonian coupling,
    reported against (Omega_g/2) x (the dark-state amplitude product).
    NumericalError when no resonant element couples the pair.
    interrogation_time stands in as the coherence window.
    """
    _check_signal(signal_rabi, interrogation_time)
    report = protected_report(con)
    if signal_rabi == 0.0:
        return _zero_signal(interrogation_time)
    basis = np.column_stack(report.dark_states[:2])
    scheme = con.scheme
    s_x = hyperfine_signal_operator(scheme, con.lower, con.upper)

    iu = scheme.index(con.upper, -scheme.manifold(con.upper).j)
    il = scheme.index(con.lower, -scheme.manifold(con.lower).j)
    energies = np.diag(scheme.static_hamiltonian(con.b)).real
    resonance = energies[iu] - energies[il]

    # Expected coupling: the resonant (stretched) element weighted by the
    # dark-state amplitudes it connects.
    expected = (signal_rabi / 2.0) * abs(basis[iu, 1]) \
        * abs(basis[il, 0]) * abs(s_x[iu, il])
    if expected == 0.0:
        raise NumericalError("no resonant signal element couples the "
                             "protected pair; there is no rate to extract")

    # In the construction's frame each signal element lands at its own
    # residual frequency; slow ones join the static interaction picture.
    ham, ledger = _with_signal(con, s_x, signal_rabi,
                                resonance + detuning, 0.0,
                                rwa_cutoff=10.0 * con.omega)

    # Off resonance no rate is extracted; the report carries rate 0.  On
    # resonance the rate comes first: a pair that leaks raises here,
    # before the trace.
    rate, probe = 0.0, {"coefficient_vs_rabi": math.nan}
    if detuning == 0.0:
        h_eff, defect = extract_effective_hamiltonian(ham, basis,
                                                      0.3 / expected)
        rate = float(abs(h_eff[0, 1]))
        probe = {"coefficient_vs_rabi": rate / signal_rabi,
                 "probe_defect": defect}

    times = np.linspace(0.0, 1.2 * np.pi / expected, 900)
    states = evolve_unitary(ham, basis[:, 0], times)
    p2 = overlap_population(states, basis[:, 1])
    p1 = overlap_population(states, basis[:, 0])

    details = {
        "expected_rate": expected,
        "resonance": resonance,
        "detuning": detuning,
        "max_transfer": float(np.max(p2)),
        "leakage": float(np.max(1.0 - p1 - p2)),
        **ledger,
        **probe,
    }
    trace = SimulationTrace(times=times,
                            populations={"D1": p1, "D2": p2})
    return (_report(rate, interrogation_time, 1.0, details),
            trace)


def coherence_comparison(con: Construction, noise: NoiseProcess,
                         n_traj: int = 512,
                         horizon_in_bare_t2: float = 100.0) -> dict:
    """Bare vs protected coherence under the same Zeeman noise.

    The bare arm is an undriven sublevel pair of the lower manifold; its
    T2 is the closed form of _bare_dephasing_time, exact for either noise
    kind, and sets the time unit.  The protected arm is evolve_dark_pair's
    noisy run of the full construction to horizon_in_bare_t2 bare T2s
    (_fit_pair_coherence); if its coherence never reaches 1/e, T2 is
    reported as a lower bound (the honest desk-scale outcome for a
    protected qubit), and the coherence gain is then exactly
    log10(horizon_in_bare_t2).
    """
    if not horizon_in_bare_t2 > 0:
        raise ValueError("horizon_in_bare_t2 must be positive")
    d_man = con.scheme.manifold(con.lower)
    m_lo, m_hi = d_man.m_values[0], d_man.m_values[-1]
    # Bare pair: the dark states' main support pair (adjacent-but-one), so
    # the comparison is against the same stored information.
    m_a = m_lo + 1 if len(d_man.m_values) > 3 else m_lo
    t2_bare = _bare_dephasing_time(con, noise, float(m_hi - m_a))
    t2_prot, bounded, final = _fit_pair_coherence(
        con, noise, n_traj, horizon_in_bare_t2 * t2_bare)

    gains = sensitivity_compare(t2_bare, t2_prot)
    return {
        "t2_bare": t2_bare,
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
