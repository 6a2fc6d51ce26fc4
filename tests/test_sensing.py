from __future__ import annotations

import math
import pathlib
import warnings
from decimal import Decimal, localcontext
from unittest import mock

import numpy as np
import pytest

from darkqubit import cli, dynamics, gates, sensing
from darkqubit.angular import clebsch_gordan
from darkqubit.driving import (compact_construction, hyperfine_construction,
                               ideal_construction)
from darkqubit.gates import protected_report
from darkqubit.levels import ca40_dp, d52_p32, hyperfine_f1f2
from darkqubit.noise import NoiseProcess, evolve_noisy, spectral_density
from darkqubit.sensing import (
    DEFAULT_MAX_ZEEMAN,
    coherence_comparison,
    frequency_window,
    hyperfine_signal_operator,
    run_ac_sensing,
    run_hyperfine_sensing,
    sensitivity_compare,
)

GAP = 0.8 * 0.3  # lower-manifold Zeeman gap at b = 0.3


@pytest.fixture(scope="module")
def optical():
    return compact_construction(ca40_dp(), 0.3, 1.0)


@pytest.fixture(scope="module")
def hyperfine():
    # Zeeman splitting far above the drive so the counter-rotating ladder
    # term is dropped and the interaction picture is static
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return hyperfine_construction(hyperfine_f1f2(), 30.0, 1.0)


def test_protocol_validation(optical, hyperfine):
    with pytest.raises(ValueError, match="phase_policy"):
        run_ac_sensing(optical, 1.0, 0.01, phase_policy="chaotic")
    with pytest.raises(ValueError, match="interrogation_time"):
        run_ac_sensing(optical, 1.0, 0.01, interrogation_time=0.0)
    with pytest.raises(ValueError, match="signal_rabi"):
        run_ac_sensing(optical, 1.0, -0.01)
    with pytest.raises(ValueError, match="interrogation_time"):
        run_hyperfine_sensing(hyperfine, 0.02, interrogation_time=0.0)
    with pytest.raises(ValueError, match="signal_rabi"):
        run_hyperfine_sensing(hyperfine, -0.02)


def test_locked_phase_rate(optical):
    # the J_y quadrature drives the pair at (rabi/2)|<D2|J_y|D1>| = 3 rabi/4
    rep, trace = run_ac_sensing(optical, GAP, 0.01, interrogation_time=2.0)
    assert rep.effective_rabi == pytest.approx(0.75 * 0.01, rel=1e-9)
    assert rep.attenuation_factor == 1.0
    assert rep.details["detuning"] == pytest.approx(0.0, abs=1e-15)
    assert rep.details["locked_rate"] == rep.effective_rabi
    assert rep.details["max_transfer"] == pytest.approx(1.0, abs=1e-3)
    assert rep.sensitivity == pytest.approx(
        1.0 / (rep.effective_rabi * math.sqrt(2.0)), rel=1e-12
    )
    assert trace.populations["D1"][0] == pytest.approx(1.0, abs=1e-12)


def test_random_phase_attenuation(optical):
    # mean of sin^2 over uniform phase is exactly 1/2, once full
    # extractions at four phases besides the locked one confirm the
    # |sin(phase)| law
    with mock.patch.object(sensing, "extract_effective_hamiltonian",
                           wraps=sensing.extract_effective_hamiltonian) as spy:
        rep, _ = run_ac_sensing(optical, GAP, 0.01,
                                phase_policy="random-averaged")
    assert spy.call_count == 5
    assert rep.attenuation_factor == 0.5
    assert rep.effective_rabi == \
        rep.details["locked_rate"] * math.sqrt(0.5)


def test_broken_phase_law_is_a_numerical_failure(optical, tmp_path,
                                                 monkeypatch, capsys):
    # a rate that ignores the signal's phase breaks the |sin(phase)| law
    # the exact attenuation rests on: the library raises NumericalError,
    # and the CLI reports it with exit code 3 and writes no summary
    def phase_blind(ham, basis, t_probe):
        return np.array([[0.0, 0.0075], [0.0075, 0.0]], complex), 0.0

    monkeypatch.setattr(sensing, "extract_effective_hamiltonian",
                        phase_blind)
    with pytest.raises(dynamics.NumericalError, match="phase shortcut"):
        run_ac_sensing(optical, GAP, 0.01, phase_policy="random-averaged")
    scenario = pathlib.Path(__file__).resolve().parents[1] / "scenarios" \
        / "sense_optical_noise.yaml"
    out = tmp_path / "out"
    assert cli.main(["sense", "--scenario", str(scenario),
                     "--out", str(out)]) == 3
    assert "numerical failure: phase shortcut" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


def test_off_resonant_signal_flagged(optical):
    rep, _ = run_ac_sensing(optical, GAP + 0.1, 0.01)
    assert rep.effective_rabi == 0.0
    assert rep.sensitivity == math.inf
    assert "off-resonant" in rep.details["flag"]
    # the reference trace still shows the suppressed transfer
    assert rep.details["max_transfer"] < 0.01


def _hand_built_signal(con, rabi, freq, phase):
    # The optical signal as it used to be written out: static on
    # resonance, otherwise the co-rotating half of Jx, J+/2 above the gap
    # and J-/2 below it, as one harmonic at |detuning|.
    gap = abs(con.scheme.manifold(con.lower).g * con.b)
    detuning = freq - gap
    jx = con.scheme.spin_operator(con.lower, "x")
    jy = con.scheme.spin_operator(con.lower, "y")
    if abs(detuning) <= 1e-9 * max(1.0, gap):
        return con.ip.plus_static(
            (rabi / 2.0) * (np.cos(phase) * jx + np.sin(phase) * jy))
    raising = 0.5 * (jx + 1j * jy)
    if detuning > 0:
        mat = (rabi / 2.0) * np.exp(-1j * phase) * raising
    else:
        mat = (rabi / 2.0) * np.exp(1j * phase) * raising.conj().T
    return con.ip.plus_harmonic(mat, abs(detuning))


@pytest.mark.parametrize("build, lower, upper", [
    (lambda: compact_construction(ca40_dp(), 0.3, 1.0), "D3/2", "P1/2"),
    (lambda: ideal_construction(ca40_dp(), 0.3, 1.0), "D3/2", "P1/2"),
    (lambda: compact_construction(d52_p32(), 0.3, 1.0, lower="D5/2",
                                  upper="P3/2"), "D5/2", "P3/2"),
], ids=["compact", "ideal", "d52_p32"])
def test_optical_signal_matches_hand_built_hamiltonian(build, lower, upper):
    # the signal now goes through to_rotating_frame; the hand-built form
    # it replaced is the reference, on resonance, above and below it, and
    # at a detuning larger than the gap itself
    con = build()
    assert (con.lower, con.upper) == (lower, upper)
    gap = abs(con.scheme.manifold(lower).g * con.b)
    for freq in (gap, gap + 0.005, gap - 0.005, 0.3 * gap, 3.5 * gap):
        for phase in (0.0, 0.4, np.pi / 2.0, 2.2, -1.0):
            ham, ledger = sensing._optical_signal(con, 0.01, freq, phase)
            want = _hand_built_signal(con, 0.01, freq, phase)
            assert np.abs(ham.static - want.static).max() < 1e-12
            assert len(ham.harmonics) == len(want.harmonics)
            for got, ref in zip(ham.harmonics, want.harmonics):
                assert abs(got.frequency - ref.frequency) < 1e-12
                assert np.abs(got.matrix - ref.matrix).max() < 1e-12
            # the counter-rotating half, one bucket at freq + gap
            peak = 0.005 * np.abs(con.scheme.spin_operator(lower, "x")).max()
            assert ledger == {"dropped_terms": 1, "rwa_worst_ratio":
                              pytest.approx(peak / (freq + gap), rel=1e-12)}


def test_optical_sensing_reports_rwa_ledger(optical):
    # the harmonic-dynamics benchmark's point: the counter-rotating half of
    # the signal, (rabi/2) max|Jx| = 0.005 at 0.245 + 0.24 rad/s, is dropped
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep, _ = run_ac_sensing(optical, GAP + 0.005, 0.01)
    assert rep.details["dropped_terms"] == 1
    assert rep.details["rwa_worst_ratio"] == pytest.approx(
        0.005 / (2.0 * GAP + 0.005), rel=1e-12)


def test_zero_signal(optical):
    rep, trace = run_ac_sensing(optical, GAP, 0.0)
    assert rep.effective_rabi == 0.0
    assert rep.sensitivity == math.inf
    assert rep.details["flag"] == "zero signal"
    assert trace.times.shape == (1,)


def test_noise_fitted_t2(optical):
    con = compact_construction(ca40_dp(), 0.05, 1.0)
    noise = NoiseProcess("quasi-static-gaussian", sigma=5e-4, tau_c=0.0,
                         seed=11)
    # the weak field b = 0.05 leaves the counter-rotating signal term at
    # 1/16 of its frequency, above the rotating-wave warning threshold
    with pytest.warns(UserWarning, match="rotating-wave"):
        rep, _ = run_ac_sensing(con, 0.8 * 0.05, 0.01, noise=noise,
                                n_traj=64)
    # dark-pair coherence survives the whole horizon: T2 reported as a
    # lower bound, at the horizon of 3 bare dephasing times
    assert rep.details["t2_bounded_below"] is True
    t2_bare = math.sqrt(2.0) / (0.8 * 2.0 * 5e-4)
    assert rep.t2_used == pytest.approx(3.0 * t2_bare, rel=1e-9)
    assert rep.details["final_coherence"] > 0.99


def test_frequency_window_ou_closed_form():
    sigma, tau = 2.0 * np.pi * 700.0, 1e-3
    noise = NoiseProcess("ornstein-uhlenbeck", sigma=sigma, tau_c=tau)
    win = frequency_window(noise)
    # S(nu) = threshold / t1_target solved on the Lorentzian:
    # nu = sqrt(2 sigma^2 tau t1 / threshold - 1) / tau
    want = math.sqrt(2.0 * sigma**2 * tau * 1.0 / 0.1 - 1.0) / tau
    assert win["lower"] == pytest.approx(want, rel=1e-12)
    assert win["lower"] / (2.0 * np.pi) == pytest.approx(99.0e3, rel=0.01)
    assert win["upper"] == DEFAULT_MAX_ZEEMAN
    # at the reported edge the noise power meets the threshold exactly
    assert win["noise_power_at_lower"] == pytest.approx(0.1, rel=1e-9)
    assert spectral_density(noise, np.array([win["lower"]]))[0] == \
        pytest.approx(0.1, rel=1e-9)


def test_frequency_window_quasi_static_and_construction(optical):
    noise = NoiseProcess("quasi-static-gaussian", sigma=1.0, tau_c=0.0)
    win = frequency_window(noise, construction=optical)
    assert win["lower"] == 0.0
    assert win["rationale"]["lower"] == \
        "quasi-static noise: power confined to DC"
    assert win["current_gap"] == pytest.approx(GAP, rel=1e-12)
    assert win["in_window"] is True
    assert frequency_window()["rationale"]["lower"] == "no noise floor"
    # OU noise at sigma = tau_c = 1 puts the lower edge at sqrt(19) = 4.36,
    # above the construction's gap of 0.24
    ou = NoiseProcess("ornstein-uhlenbeck", sigma=1.0, tau_c=1.0)
    narrow = frequency_window(ou, construction=optical)
    assert narrow["lower"] == pytest.approx(math.sqrt(19.0), rel=1e-12)
    assert narrow["in_window"] is False


def test_hyperfine_signal_operator_structure():
    scheme = hyperfine_f1f2()
    s_x = hyperfine_signal_operator(scheme)
    assert np.abs(s_x - s_x.conj().T).max() == 0.0
    states = scheme.states()
    for a in range(scheme.dim):
        for c in range(scheme.dim):
            if s_x[a, c] != 0:
                assert abs(float(states[a][1] - states[c][1])) == 1.0
    # stretched elements normalized to 1 at both ends
    assert abs(s_x[scheme.index("F2", -2), scheme.index("F1", -1)]) == \
        pytest.approx(1.0, abs=1e-14)
    assert abs(s_x[scheme.index("F2", 2), scheme.index("F1", 1)]) == \
        pytest.approx(1.0, abs=1e-14)
    # interior element keeps its CG weight relative to the stretched one
    mid = abs(s_x[scheme.index("F2", 0), scheme.index("F1", -1)])
    assert mid == pytest.approx(
        abs(clebsch_gordan(1, -1, 1, 1, 2, 0)), abs=1e-14
    )


def test_hyperfine_sensing_rate(hyperfine):
    rep, trace = run_hyperfine_sensing(hyperfine, 0.02)
    # one resonant element: (rabi/2) x |<D2|2,-2>| x |<1,-1|D1>| x 1
    #                     = (rabi/2) sqrt(3/8) (1/sqrt2) = sqrt(3)/8 rabi
    assert rep.details["coefficient_vs_rabi"] == pytest.approx(
        math.sqrt(3.0) / 8.0, rel=1e-3
    )
    assert rep.details["expected_rate"] == pytest.approx(
        math.sqrt(3.0) / 8.0 * 0.02, rel=1e-12
    )
    assert rep.details["max_transfer"] == pytest.approx(1.0, abs=1e-3)
    assert rep.details["leakage"] < 1e-3
    assert rep.details["probe_defect"] < 1e-3
    assert trace.populations["D2"].max() == rep.details["max_transfer"]


@pytest.mark.parametrize("rabi", [0.005, 0.01, 0.02, 0.04])
def test_hyperfine_rate_predicts_the_trace(hyperfine, rabi):
    # the 900-point trace is a propagation of its own; its D1 -> D2
    # transfer over 1.2 periods follows sin^2(rate t) with the rate
    # read from one probe propagator, to twice the run's leakage (0.8-0.9
    # of it here; a relative rate error e would add up to about 3.6 e)
    rep, trace = run_hyperfine_sensing(hyperfine, rabi)
    got = trace.populations["D2"]
    want = np.sin(rep.effective_rabi * trace.times) ** 2
    assert np.abs(got - want).max() < 2.0 * rep.details["leakage"]


def test_hyperfine_sensing_raises_where_the_pair_is_not_preserved():
    # at b = 2 the signal drives the pair out of itself: 53% leaves it
    # over the probe, and the run has no rate to report
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        con = hyperfine_construction(hyperfine_f1f2(), 2.0, 1.0)
    with pytest.raises(dynamics.NumericalError, match="not preserved"):
        run_hyperfine_sensing(con, 0.02)


@pytest.mark.parametrize("mult,law", [(4.0, 1.0 / 5.0), (10.0, 1.0 / 26.0)])
def test_hyperfine_detuned_suppression(hyperfine, mult, law):
    on_res, _ = run_hyperfine_sensing(hyperfine, 0.02)
    rate = on_res.effective_rabi
    detuned, _ = run_hyperfine_sensing(hyperfine, 0.02, detuning=mult * rate)
    # two-level transfer: max p = 1 / (1 + (delta / 2 rate)^2)
    assert detuned.details["max_transfer"] == pytest.approx(law, rel=0.01)
    assert detuned.effective_rabi == 0.0
    assert detuned.sensitivity == math.inf


def test_hyperfine_detuned_runs_match_dop853(hyperfine):
    # criterion 9's four detunings: the signal element (3, 0) links the F1
    # and F2 blocks, which the static part leaves uncoupled, so a diagonal
    # frame makes the run static and it takes the spectral path.  The
    # forced DOP853 run is the reference.  D1 lies in F1 and D2 in F2, so
    # (D1 + D2)/sqrt(2) on a grid shifted off t = 0 also checks the frame's
    # relative phase at the first time.
    rate = run_hyperfine_sensing(hyperfine, 0.02)[0].effective_rabi
    runs = []

    def spy(ham, psi0, times):
        runs.append((ham, times))
        return dynamics.evolve_unitary(ham, psi0, times)

    with mock.patch.object(sensing, "evolve_unitary", spy):
        for mult in (4.0, 10.0, 20.0, 32.0):
            run_hyperfine_sensing(hyperfine, 0.02, detuning=mult * rate)
    dark = protected_report(hyperfine).dark_states
    psi0 = (dark[0] + dark[1]) / math.sqrt(2.0)
    for ham, times in runs:
        assert not ham.is_static
        assert dynamics._static_frame(ham) is not None
        shifted = times + 0.29 * times[-1]
        fast = dynamics.evolve_unitary(ham, psi0, shifted)
        with mock.patch.object(dynamics, "_static_frame", return_value=None):
            ref = dynamics.evolve_unitary(ham, psi0, shifted)
        assert np.abs(fast - ref).max() < 1e-9


def test_hyperfine_sensing_reports_rwa_ledger(hyperfine):
    # criterion 9's point: the signal's rotation into the construction
    # frame drops seven buckets above 10 omega, and the summary says so
    rep, _ = run_hyperfine_sensing(hyperfine, 0.02)
    assert rep.details["dropped_terms"] == 7
    assert rep.details["rwa_worst_ratio"] == pytest.approx(2.36e-4, rel=5e-3)


def test_coherence_comparison_protected_vs_bare():
    con = compact_construction(ca40_dp(), 0.05, 1.0)
    noise = NoiseProcess("quasi-static-gaussian", sigma=5e-4, tau_c=0.0,
                         seed=11)
    out = coherence_comparison(con, noise, n_traj=96, horizon_in_bare_t2=30.0)
    t2_analytic = math.sqrt(2.0) / (0.8 * 2.0 * 5e-4)
    assert out["t2_bare"] == pytest.approx(t2_analytic, rel=1e-12)
    # protected coherence never decays inside the horizon
    assert out["t2_protected_bounded_below"] is True
    assert out["t2_protected"] == pytest.approx(30.0 * t2_analytic, rel=1e-9)
    assert out["final_protected_coherence"] > 0.99
    assert out["coherence_gain_orders"] > 1.4
    assert out["gain_orders"] == 0.5 * out["coherence_gain_orders"]


def test_coherence_comparison_bare_t2_under_ou_noise():
    # Kubo's form at sigma_gap tau_c = 0.08: x - 1 + e^{-x} = 156.25 puts
    # the bare T2 at tau_c x = 15725, nine quasi-static T2s; a fit over
    # the first three of them read 4547
    con = compact_construction(ca40_dp(), 0.05, 1.0)
    noise = NoiseProcess("ornstein-uhlenbeck", sigma=5e-4, tau_c=100.0,
                         seed=3)
    out = coherence_comparison(con, noise, n_traj=16, horizon_in_bare_t2=2.0)
    assert out["t2_bare"] == pytest.approx(15725.0, rel=1e-12)
    assert out["t2_protected"] == pytest.approx(2.0 * 15725.0, rel=1e-12)


def test_coherence_comparison_keeps_ou_steps_within_tau_c():
    # the case above: a horizon of 31450 at tau_c = 100 takes 316 points,
    # steps of 0.998 tau_c, where 160 points stepped by 1.98 tau_c
    con = compact_construction(ca40_dp(), 0.05, 1.0)
    noise = NoiseProcess("ornstein-uhlenbeck", sigma=5e-4, tau_c=100.0,
                         seed=3)
    with mock.patch.object(gates, "evolve_noisy",
                           wraps=gates.evolve_noisy) as spy:
        coherence_comparison(con, noise, n_traj=16, horizon_in_bare_t2=2.0)
    times = spy.call_args.args[4]
    assert len(times) == 316
    assert np.diff(times).max() <= 100.0


def test_coherence_comparison_refuses_an_ou_grid_past_its_cap():
    # at tau_c = 1 the bare T2 is 1562501 tau_c, so two of them need
    # 3125003 points, far past MAX_PAIR_POINTS; nothing is run
    con = compact_construction(ca40_dp(), 0.05, 1.0)
    noise = NoiseProcess("ornstein-uhlenbeck", sigma=5e-4, tau_c=1.0, seed=3)
    with mock.patch.object(gates, "evolve_noisy",
                           side_effect=AssertionError("ran")) as spy, \
            pytest.raises(dynamics.NumericalError,
                          match="needs 3125003 grid points"):
        coherence_comparison(con, noise, n_traj=64, horizon_in_bare_t2=2.0)
    spy.assert_not_called()


def _bare_pair(con):
    """(delta m, Zeeman generator) of the compare arm's bare pair on con's
    lower manifold, the generator restricted to the pair: it is diagonal,
    so the pair evolves on its own."""
    m_values = con.scheme.manifold(con.lower).m_values
    pair = np.column_stack([con.scheme.basis_state(con.lower, m)
                            for m in (m_values[1], m_values[-1])])
    zeeman = pair.conj().T @ con.scheme.zeeman_generator() @ pair
    return float(m_values[-1] - m_values[1]), zeeman


@pytest.mark.parametrize("kind, tau_c", [("quasi-static-gaussian", None),
                                         ("ornstein-uhlenbeck", 1e2),
                                         ("ornstein-uhlenbeck", 1e5)])
def test_bare_t2_matches_the_noise_engine(kind, tau_c):
    # the undriven pair's coherence over 4096 trajectories, at 0.5, 1 and
    # 1.5 closed-form T2s, against its closed form exp(-Var/2): within 4
    # standard errors of the mean of e^{i phase}, sqrt(((1 + C^4)/2 - C^2)
    # / n).  Under OU noise the grid step is an eighth of tau_c, where
    # holding b(t) constant over a step moves Var by about
    # (step / tau_c)^2 / 12
    con = compact_construction(ca40_dp(), 0.05, 1.0)
    noise = NoiseProcess(kind, sigma=5e-4, tau_c=tau_c, seed=1)
    delta_m, zeeman = _bare_pair(con)
    t2 = sensing._bare_dephasing_time(con, noise, delta_m)
    sigma_gap = 0.8 * delta_m * 5e-4
    steps = 30 if tau_c is None else 3 * math.ceil(4.0 * t2 / tau_c)
    times = np.linspace(0.0, 1.5 * t2, steps + 1)
    n = 4096
    rho = evolve_noisy(np.zeros((2, 2)), np.array([1.0, 1.0]) / math.sqrt(2),
                       noise, zeeman, times, n_traj=n)
    coh = 2.0 * np.abs(rho[:, 0, 1])

    def closed_form(t):
        if tau_c is None:
            return math.exp(-(sigma_gap * t) ** 2 / 2.0)
        x = t / tau_c
        return math.exp(-(sigma_gap * tau_c) ** 2 * (x - 1.0 + math.exp(-x)))

    assert closed_form(t2) == pytest.approx(math.exp(-1.0), rel=1e-12)
    for t in (0.5 * t2, t2, 1.5 * t2):
        want = closed_form(t)
        got = coh[np.argmin(np.abs(times - t))]
        stderr = math.sqrt(((1.0 + want ** 4) / 2.0 - want ** 2) / n)
        assert abs(got - want) < 4.0 * stderr, (t / t2, got, want)


def test_ou_bare_t2_solves_kubo_to_rounding():
    # (sigma_gap tau_c)^2 (x - 1 + e^{-x}) = 1 at x = T2 / tau_c, evaluated
    # at 60 digits, for tau_c from 1e-3 to 1e6 quasi-static T2s: Newton
    # converges at both limits, and x - 1 + e^{-x} does not cancel where
    # x << 1
    con = compact_construction(ca40_dp(), 0.05, 1.0)
    sigma_gap = abs(con.scheme.manifold(con.lower).g) * 2.0 * 5e-4
    t2_star = math.sqrt(2.0) / sigma_gap
    for exponent in np.linspace(-3.0, 6.0, 37):
        tau_c = t2_star * 10.0 ** exponent
        noise = NoiseProcess("ornstein-uhlenbeck", sigma=5e-4, tau_c=tau_c)
        t2 = sensing._bare_dephasing_time(con, noise)
        with localcontext() as ctx:
            ctx.prec = 60
            x = Decimal(t2) / Decimal(tau_c)
            excess = (Decimal(sigma_gap) * Decimal(tau_c)) ** 2 \
                * (x - 1 + (-x).exp()) - 1
        assert abs(float(excess)) <= 4.0 * np.finfo(float).eps, exponent


def test_sensitivity_compare_identity():
    out = sensitivity_compare(1.0, 100.0)
    assert out == {"coherence_gain_orders": 2.0, "gain_orders": 1.0}
    out = sensitivity_compare(2.0, 2.0e3)
    assert out["gain_orders"] == pytest.approx(1.5, abs=1e-12)
