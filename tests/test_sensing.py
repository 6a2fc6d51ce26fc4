from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from darkqubit.angular import clebsch_gordan
from darkqubit.driving import compact_construction, hyperfine_construction
from darkqubit.levels import ca40_dp, hyperfine_f1f2
from darkqubit.noise import NoiseProcess, spectral_density
from darkqubit.sensing import (
    DEFAULT_MAX_ZEEMAN,
    SensingProtocol,
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


def test_protocol_validation():
    with pytest.raises(ValueError, match="scheme"):
        SensingProtocol("nope", 1.0, 0.01)
    with pytest.raises(ValueError, match="phase_policy"):
        SensingProtocol("optical-D32", 1.0, 0.01, phase_policy="chaotic")
    with pytest.raises(ValueError, match="readout_basis"):
        SensingProtocol("optical-D32", 1.0, 0.01, readout_basis="w")
    with pytest.raises(ValueError, match="interrogation_time"):
        SensingProtocol("optical-D32", 1.0, 0.01, interrogation_time=0.0)
    with pytest.raises(ValueError, match="signal_rabi"):
        SensingProtocol("optical-D32", 1.0, -0.01)
    with pytest.raises(ValueError, match="n_draws"):
        SensingProtocol("optical-D32", 1.0, 0.01, n_draws=0)


def test_locked_phase_rate(optical):
    # the J_y quadrature drives the pair at (rabi/2)|<D2|J_y|D1>| = 3 rabi/4
    proto = SensingProtocol("optical-D32", GAP, 0.01,
                            interrogation_time=2.0)
    rep, trace = run_ac_sensing(proto, optical)
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
    # mean of sin^2 over uniform phase is 1/2; the sampled estimate must
    # land inside the binomial-ish band around it
    proto = SensingProtocol("optical-D32", GAP, 0.01,
                            phase_policy="random-averaged", n_draws=1024,
                            seed=0)
    rep, _ = run_ac_sensing(proto, optical)
    assert rep.attenuation_factor == pytest.approx(0.5, abs=0.03)
    assert rep.effective_rabi == pytest.approx(
        rep.details["locked_rate"] * math.sqrt(rep.attenuation_factor),
        rel=1e-12,
    )
    assert rep.details["n_draws"] == 1024
    # deterministic given the seed
    rep2, _ = run_ac_sensing(proto, optical)
    assert rep2.attenuation_factor == rep.attenuation_factor


def test_off_resonant_signal_flagged(optical):
    proto = SensingProtocol("optical-D32", GAP + 0.1, 0.01)
    rep, _ = run_ac_sensing(proto, optical)
    assert rep.effective_rabi == 0.0
    assert rep.sensitivity == math.inf
    assert "off-resonant" in rep.details["flag"]
    # the reference trace still shows the suppressed transfer
    assert rep.details["max_transfer"] < 0.01


def test_zero_signal(optical):
    proto = SensingProtocol("optical-D32", GAP, 0.0)
    rep, trace = run_ac_sensing(proto, optical)
    assert rep.effective_rabi == 0.0
    assert rep.sensitivity == math.inf
    assert rep.details["flag"] == "zero signal"
    assert trace.times.shape == (1,)


def test_noise_fitted_t2(optical):
    con = compact_construction(ca40_dp(), 0.05, 1.0)
    noise = NoiseProcess("quasi-static-gaussian", sigma=5e-4, tau_c=0.0,
                         seed=11)
    proto = SensingProtocol("optical-D32", 0.8 * 0.05, 0.01)
    rep, _ = run_ac_sensing(proto, con, noise=noise, n_traj=64)
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
    win = frequency_window(noise, min_gap=0.01, construction=optical)
    assert win["lower"] == 0.01
    assert "quasi-static" in win["rationale"]["lower"]
    assert win["current_gap"] == pytest.approx(GAP, rel=1e-12)
    assert win["in_window"] is True
    narrow = frequency_window(noise, min_gap=0.5, construction=optical)
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
    proto = SensingProtocol("hyperfine", 1.0, 0.02)
    rep, trace = run_hyperfine_sensing(proto, hyperfine)
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
    assert rep.details["fit_rms"] < 1e-3
    assert trace.populations["D2"].max() == rep.details["max_transfer"]


@pytest.mark.parametrize("mult,law", [(4.0, 1.0 / 5.0), (10.0, 1.0 / 26.0)])
def test_hyperfine_detuned_suppression(hyperfine, mult, law):
    proto = SensingProtocol("hyperfine", 1.0, 0.02)
    on_res, _ = run_hyperfine_sensing(proto, hyperfine)
    rate = on_res.effective_rabi
    detuned, _ = run_hyperfine_sensing(proto, hyperfine, detuning=mult * rate)
    # two-level transfer: max p = 1 / (1 + (delta / 2 rate)^2)
    assert detuned.details["max_transfer"] == pytest.approx(law, rel=0.01)
    assert detuned.effective_rabi == 0.0
    assert detuned.sensitivity == math.inf


def test_hyperfine_sensing_reports_rwa_ledger(hyperfine):
    # criterion 9's point: the signal's rotation into the construction
    # frame drops seven buckets above 10 omega, and the summary says so
    proto = SensingProtocol("hyperfine", 1.0, 0.02)
    rep, _ = run_hyperfine_sensing(proto, hyperfine)
    assert rep.details["dropped_terms"] == 7
    assert rep.details["rwa_worst_ratio"] == pytest.approx(2.36e-4, rel=5e-3)


def test_coherence_comparison_protected_vs_bare():
    con = compact_construction(ca40_dp(), 0.05, 1.0)
    noise = NoiseProcess("quasi-static-gaussian", sigma=5e-4, tau_c=0.0,
                         seed=11)
    out = coherence_comparison(con, noise, n_traj=96, horizon_in_bare_t2=30.0)
    t2_analytic = math.sqrt(2.0) / (0.8 * 2.0 * 5e-4)
    assert out["t2_bare_analytic"] == pytest.approx(t2_analytic, rel=1e-12)
    assert out["t2_bare"] == pytest.approx(t2_analytic, rel=0.1)
    # protected coherence never decays inside the horizon
    assert out["t2_protected_bounded_below"] is True
    assert out["t2_protected"] == pytest.approx(30.0 * t2_analytic, rel=1e-9)
    assert out["final_protected_coherence"] > 0.99
    assert out["coherence_gain_orders"] > 1.4
    assert out["gain_orders"] == 0.5 * out["coherence_gain_orders"]


def test_sensitivity_compare_identity():
    out = sensitivity_compare(1.0, 100.0)
    assert out == {"coherence_gain_orders": 2.0, "gain_orders": 1.0}
    out = sensitivity_compare(2.0, 2.0e3)
    assert out["gain_orders"] == pytest.approx(1.5, abs=1e-12)
