"""Acceptance gate: the ten headline checks, one test per criterion.

Each test prints a single [criterion N] PASS/FAIL line (visible with -s or
on failure) and asserts every sub-check.  Sub-checks carry their own
labels so a failure names the piece that broke.  Tolerances are part of
the contract and are not to be loosened here.
"""

from __future__ import annotations

import math
import time
import warnings

import numpy as np
import pytest

import darkqubit as dq
from darkqubit.angular import clebsch_gordan
from darkqubit.budget import (magnetic_shift_budget, polarization_budget,
                              relative_amplitude_budget, total_budget)
from darkqubit.driving import (compact_construction, hyperfine_construction,
                               ideal_construction)
from darkqubit.dynamics import evolve_lindblad, evolve_unitary, fit_decay
from darkqubit.gates import microwave_sigma_y, protected_report, raman_sigma_x
from darkqubit.levels import ca40_dp, hyperfine_f1f2
from darkqubit.noise import NoiseProcess, evolve_noisy, spectral_density
from darkqubit.sensing import (coherence_comparison, frequency_window,
                               run_ac_sensing, run_hyperfine_sensing,
                               sensitivity_compare)

TWO_PI = 2.0 * math.pi


def _verdict(criterion, checks):
    """checks: list of (label, ok, detail). Prints one line, then asserts."""
    failed = [(label, detail) for label, ok, detail in checks if not ok]
    status = "PASS" if not failed else "FAIL"
    summary = "; ".join(f"{label} {detail}" for label, _, detail in checks)
    print(f"[criterion {criterion:2d}] {status}: {summary}", flush=True)
    assert not failed, f"criterion {criterion} failed: {failed}"


def test_criterion_01_dark_state_construction():
    t0 = time.monotonic()
    scheme = ca40_dp()
    con = ideal_construction(scheme, 0.3, 1.0)
    report = protected_report(con)
    norms = [float(np.linalg.norm(con.ip.static @ d))
             for d in report.dark_states]
    vals = np.sort(np.linalg.eigvalsh(con.ip.static))
    want = np.array([-1.0, -1.0, 0.0, 0.0, 1.0, 1.0])
    spec_err = float(np.abs(vals - want).max())
    elapsed = time.monotonic() - t0
    _verdict(1, [
        ("H|D> norms", max(norms) < 1e-12 * 1.0, f"max {max(norms):.2e}"),
        ("spectrum {0,0,+-Omega,+-Omega}", spec_err < 1e-12,
         f"max dev {spec_err:.2e}"),
        ("runtime", elapsed < 1.0, f"{elapsed:.2f}s"),
    ])


def test_criterion_02_cg_ratios_and_compact_equivalence():
    # strong/weak leg ratio inside each Lambda: stretched over inner CG
    r1 = abs(clebsch_gordan(1.5, -1.5, 1, 1, 0.5, -0.5)
             / clebsch_gordan(1.5, 0.5, 1, -1, 0.5, -0.5))
    r2 = abs(clebsch_gordan(1.5, 1.5, 1, -1, 0.5, 0.5)
             / clebsch_gordan(1.5, -0.5, 1, 1, 0.5, 0.5))
    ratio_err = max(abs(r1 - math.sqrt(3.0)), abs(r2 - math.sqrt(3.0)))

    scheme = ca40_dp()
    worst = 0.0
    for b in (0.15, 0.45, 0.75):  # delta/Omega = b/15 up to 0.05
        ideal = protected_report(ideal_construction(scheme, b, 1.0))
        compact = protected_report(compact_construction(scheme, b, 1.0))
        pi = sum(np.outer(d, d.conj()) for d in ideal.dark_states)
        pc = sum(np.outer(d, d.conj()) for d in compact.dark_states)
        worst = max(worst, float(np.linalg.norm(pi - pc)))
    _verdict(2, [
        ("CG ratios sqrt(3)", ratio_err < 1e-14, f"max dev {ratio_err:.2e}"),
        ("compact == ideal darks", worst < 2e-12,
         f"worst projector dist {worst:.2e} over delta/Omega <= 0.05"),
    ])


def test_criterion_03_protected_subspace_conditions():
    scheme = ca40_dp()
    optical = protected_report(ideal_construction(scheme, 0.3, 1.0))
    hf_scheme = hyperfine_f1f2()
    hf = protected_report(hyperfine_construction(hf_scheme, 30.0, 1.0))

    # mutual coherence under a global amplitude modulation of all drives:
    # lambda(t) H has the same zero modes for every lambda, so the pair
    # coherence cannot move
    con = ideal_construction(scheme, 0.3, 1.0)
    psi = (optical.dark_states[0] + optical.dark_states[1]) / np.sqrt(2.0)
    ham = con.ip.plus_harmonic(0.1 * con.ip.static, 0.003)
    times = np.linspace(0.0, 1000.0, 201)  # 1e3 / Omega
    states = evolve_unitary(ham, psi, times)
    a1 = states @ optical.dark_states[0].conj()
    a2 = states @ optical.dark_states[1].conj()
    coh = a1 * a2.conj()
    drift = float(np.abs(coh - coh[0]).max())
    _verdict(3, [
        ("optical Jz residual", optical.jz_residual < 1e-13,
         f"{optical.jz_residual:.2e}"),
        ("hyperfine Fz residual", hf.jz_residual < 1e-13,
         f"{hf.jz_residual:.2e}"),
        ("coherence under amplitude noise", drift < 1e-6,
         f"drift {drift:.2e} over 1e3/Omega"),
    ])


def test_criterion_04_magnetic_shift_budget():
    t0 = time.monotonic()
    # quadratic scaling of the numeric gap; b >> delta_b keeps the cubic
    # (b - 5 delta_b) correction from biasing the fit
    b = 2.0
    deltas = np.logspace(-3, -2, 7)
    gaps = [magnetic_shift_budget(1.0, b, d, 0.1).cross_check["gap_numeric"]
            for d in deltas]
    slope = float(np.polyfit(np.log(deltas), np.log(gaps), 1)[0])
    # prefactor from the low end of the window, where the correction is
    # 0.25%: decides between the single and doubled gap readings
    prefactor = gaps[0] / (b * deltas[0] ** 2)
    doubled = 8.0 / 125.0

    headline = total_budget(
        omega=TWO_PI * 100e6, b=TWO_PI * 6.25e6, delta_b=TWO_PI * 50e3,
        epsilon=1e-2, eps_pol=1e-3, gamma=TWO_PI * 10e6, t2star_bare=20e-6)
    t1_mag = {m.mechanism: m for m in headline.mechanisms}[
        "magnetic-offset"].t1_limit

    # scaled Lindblad validation of Gamma * p_exc
    gamma = 0.1
    scheme = ca40_dp(gamma=gamma)
    con = compact_construction(scheme, 0.3, 1.0)
    rep = protected_report(con)
    collapse = scheme.all_collapse_operators()
    rho0 = np.outer(rep.dark_states[0], rep.dark_states[0].conj())
    worst_ratio = 1.0
    for db in (0.02, 0.05, 0.1):
        pert = con.ip.static + db * scheme.zeeman_generator()
        t1_pred = 1.0 / (gamma * (12.0 / 25.0) * db**2)
        ts = np.linspace(0.0, 2.0 * t1_pred, 40)
        rhot = evolve_lindblad(pert, rho0, collapse, ts)
        surv = np.einsum("i,tij,j->t", rep.dark_states[0].conj(), rhot,
                         rep.dark_states[0]).real
        fit = fit_decay(ts, surv, "exponential")
        ratio = float(fit.params["tau"]) / t1_pred
        if abs(ratio - 1.0) > abs(worst_ratio - 1.0):
            worst_ratio = ratio
    elapsed = time.monotonic() - t0
    _verdict(4, [
        ("gap exponent", abs(slope - 2.0) < 0.05, f"{slope:.4f}"),
        ("prefactor (doubled reading)",
         abs(prefactor / doubled - 1.0) < 0.05
         and prefactor / (4.0 / 125.0) > 1.8,
         f"{prefactor:.5f} vs 8/125 = {doubled:.5f}"),
        ("headline T1", 0.1 / 3.0 < t1_mag < 0.1 * 3.0, f"{t1_mag:.3f} s"),
        ("Lindblad decay vs Gamma*p_exc", abs(worst_ratio - 1.0) < 0.2,
         f"worst ratio {worst_ratio:.3f}"),
        ("runtime", elapsed < 120.0, f"{elapsed:.1f}s"),
    ])


def test_criterion_05_relative_amplitude_budget():
    eps = 0.05
    cc = relative_amplitude_budget(eps, 1.0, cross_check=True).cross_check
    per_state_ratio = cc["per_state_numeric_1"] / (0.75 * eps)
    diff_ratio = cc["differential_numeric"] / (0.75 * eps**2)

    grid = np.logspace(np.log10(5e-3), np.log10(5e-2), 6)
    per, diff = [], []
    for e in grid:
        c = relative_amplitude_budget(e, 1.0, cross_check=True).cross_check
        per.append(c["per_state_numeric_1"])
        diff.append(c["differential_numeric"])
    s1 = float(np.polyfit(np.log(grid), np.log(per), 1)[0])
    s2 = float(np.polyfit(np.log(grid), np.log(diff), 1)[0])
    _verdict(5, [
        ("per-state 3eps/4", abs(per_state_ratio - 1.0) < 0.05,
         f"ratio {per_state_ratio:.4f}"),
        ("differential 3eps^2/4", abs(diff_ratio - 1.0) < 0.10,
         f"ratio {diff_ratio:.4f}"),
        ("linear exponent", abs(s1 - 1.0) < 0.05, f"{s1:.3f}"),
        ("quadratic exponent", abs(s2 - 2.0) < 0.10, f"{s2:.3f}"),
    ])


def test_criterion_06_polarization_budget():
    grid = np.logspace(-4, -2, 5)
    maxima = [polarization_budget(e, 0.0625, 1.0, 0.1).cross_check[
        "max_excited_numeric"] for e in grid]
    slope = float(np.polyfit(np.log(grid), np.log(maxima), 1)[0])
    # reference operating values: eps_pol = 0.5%, Delta = 0.02 Omega
    b_ref = 0.02 / 1.6  # Delta = 2 g_lower b
    ref = polarization_budget(5e-3, b_ref, 1.0, 0.1, cross_check=False)
    _verdict(6, [
        ("eps_pol exponent", abs(slope - 2.0) < 0.10, f"{slope:.3f}"),
        ("p_exc order 1e-9", 1e-10 < ref.excited_population < 1e-8,
         f"{ref.excited_population:.2e}"),
    ])


def test_criterion_07_gates():
    t0 = time.monotonic()
    scheme = ca40_dp()
    con = ideal_construction(scheme, 0.3, 1.0)
    rep = protected_report(con)

    omegas = np.logspace(-3, -2, 5)
    rates = [microwave_sigma_y(w, con).rate for w in omegas]
    s_y = float(np.polyfit(np.log(omegas), np.log(rates), 1)[0])

    raman = raman_sigma_x(0.05, 20.0, con)  # omega_g = Omega/20
    raman_ratio = raman.details["rate_over_expected"]

    detunings = np.array([15.0, 20.0, 30.0, 40.0, 60.0])
    drates = [raman_sigma_x(0.05, d, con).rate for d in detunings]
    s_d = float(np.polyfit(np.log(detunings), np.log(drates), 1)[0])
    elapsed = time.monotonic() - t0
    _verdict(7, [
        ("sigma_y exponent", abs(s_y - 1.0) < 0.02, f"{s_y:.4f}"),
        ("Raman rate 3w^2/(4d)", abs(raman_ratio - 1.0) < 0.10,
         f"ratio {raman_ratio:.4f} (numeric resolves the factor-2 "
         "question: no extra 2)"),
        ("delta_R exponent", abs(s_d + 1.0) < 0.05, f"{s_d:.4f}"),
        ("leakage bound", raman.leakage < 10.0 * 0.05**2,
         f"{raman.leakage:.2e} < {10 * 0.05**2:.2e}"),
        ("runtime", elapsed < 120.0, f"{elapsed:.1f}s"),
    ])


def test_criterion_08_sensing():
    scheme = ca40_dp()
    con = compact_construction(scheme, 0.3, 1.0)
    rep, _ = run_ac_sensing(con, 0.8 * 0.3, 0.01,
                            phase_policy="random-averaged")

    win = frequency_window(NoiseProcess(
        "ornstein-uhlenbeck", sigma=TWO_PI * 700.0, tau_c=1e-3))
    lower_khz = win["lower"] / TWO_PI / 1e3
    upper_mhz = win["upper"] / TWO_PI / 1e6

    ident = sensitivity_compare(3.0, 7.0e3)
    ident_err = abs(ident["gain_orders"]
                    - 0.5 * ident["coherence_gain_orders"])

    noise = NoiseProcess("quasi-static-gaussian", sigma=5e-4, tau_c=0.0,
                         seed=0)
    weak = compact_construction(scheme, 0.05, 1.0)
    comp = coherence_comparison(weak, noise, n_traj=512,
                                horizon_in_bare_t2=120.0)
    _verdict(8, [
        ("phase attenuation 0.50", abs(rep.attenuation_factor - 0.5) < 0.03,
         f"{rep.attenuation_factor:.4f} exact"),
        ("window lower ~0.1 MHz", 80.0 < lower_khz < 120.0,
         f"{lower_khz:.1f} kHz"),
        ("window upper 100 MHz", abs(upper_mhz - 100.0) < 1e-9,
         f"{upper_mhz:.1f} MHz"),
        ("gain identity", ident_err < 0.1 and ident_err < 1e-12,
         f"dev {ident_err:.1e}"),
        ("end-to-end gain >= 2 orders",
         comp["coherence_gain_orders"] >= 2.0
         and comp["gain_orders"] == 0.5 * comp["coherence_gain_orders"],
         f"{comp['coherence_gain_orders']:.3f} orders at sigma/Omega=5e-4"),
    ])


def test_criterion_09_hyperfine_scheme():
    scheme = hyperfine_f1f2()
    con = hyperfine_construction(scheme, 30.0, 1.0)
    rep = protected_report(con)
    vals = np.sort(np.linalg.eigvalsh(con.ip.static))
    want = np.array([-2.0, -1.0, -1.0, 0.0, 0.0, 1.0, 1.0, 2.0])
    spec_err = float(np.abs(vals - want).max())

    on_res, _ = run_hyperfine_sensing(con, 0.02)
    rate = on_res.effective_rabi
    coeff = on_res.details["coefficient_vs_rabi"]

    rabis = np.logspace(np.log10(5e-3), np.log10(4e-2), 5)
    rr = [run_hyperfine_sensing(con, w)[0].effective_rabi for w in rabis]
    s_g = float(np.polyfit(np.log(rabis), np.log(rr), 1)[0])

    # detuned suppression: two-level transfer obeys 1 + (delta/2r)^2,
    # which reaches 26 at delta = 10 r, far short of the required 1e3
    # (1e3 needs delta ~ 63 r); reported across several detunings
    print("[criterion  9] detuned-transfer suppression factors:", flush=True)
    suppression_at_10 = None
    for mult in (4.0, 10.0, 20.0, 32.0):
        det, _ = run_hyperfine_sensing(con, 0.02, detuning=mult * rate)
        factor = on_res.details["max_transfer"] / det.details["max_transfer"]
        law = 1.0 + (mult / 2.0) ** 2
        print(f"    delta = {mult:4.0f} x rate: factor {factor:8.1f}  "
              f"(1 + (delta/2r)^2 = {law:.1f})", flush=True)
        if mult == 10.0:
            suppression_at_10 = factor
    _verdict(9, [
        ("dressed eigenvalues", spec_err < 1e-12, f"max dev {spec_err:.2e}"),
        ("Fz residual", rep.jz_residual < 1e-13, f"{rep.jz_residual:.2e}"),
        ("resonant rotation present",
         on_res.details["max_transfer"] > 0.99 and rate > 0,
         f"max transfer {on_res.details['max_transfer']:.4f}"),
        ("coupling exponent", abs(s_g - 1.0) < 0.02, f"{s_g:.4f}"),
        ("coefficient vs sqrt(3)/8",
         abs(coeff / (math.sqrt(3.0) / 8.0) - 1.0) < 0.01,
         f"{coeff:.5f} (ratio {coeff / (math.sqrt(3.0) / 8.0):.5f})"),
        ("suppression > 1e3 at 10x rate", suppression_at_10 > 1e3,
         f"measured {suppression_at_10:.1f}, the 1/(1+(delta/2r)^2) law "
         "caps 10x detuning at 26"),
    ])


def test_criterion_10_noise_engine():
    t0 = time.monotonic()
    # quasi-static Gaussian dephasing of an undriven sublevel pair
    scheme = ca40_dp()
    noise = NoiseProcess("quasi-static-gaussian", sigma=0.02, seed=7)
    zee = scheme.zeeman_generator()
    a = scheme.basis_state("D3/2", "-1/2")
    b = scheme.basis_state("D3/2", "3/2")
    psi = (a + b) / np.sqrt(2.0)
    sigma_gap = 0.02 * (4.0 / 5.0) * 2.0
    times = np.linspace(0.0, 3.0 * math.sqrt(2.0) / sigma_gap, 60)
    rho = evolve_noisy(np.zeros((6, 6)), psi, noise, zee, times,
                       n_traj=4096, threads=4)
    coh = 2.0 * np.abs(np.einsum("i,tij,j->t", a.conj(), rho, b))
    gauss_dev = float(np.abs(
        coh - np.exp(-sigma_gap**2 * times**2 / 2.0)).max())

    ou = NoiseProcess("ornstein-uhlenbeck", sigma=1.3, tau_c=0.7)
    omegas = np.linspace(0.0, 40.0, 401)
    lorentz_dev = float(np.abs(
        spectral_density(ou, omegas)
        - 2.0 * 1.3**2 * 0.7 / (1.0 + (omegas * 0.7) ** 2)).max())

    # transverse-noise relaxation vs the golden rule at slow, matched and
    # fast correlation times; grids resolve tau_c and the Larmor period
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex) / 2.0
    omega0 = 5.0
    h = np.diag([omega0 / 2.0, -omega0 / 2.0]).astype(complex)
    worst = 1.0
    for x, sigma, n_traj in ((0.1, 1.2, 384), (1.0, 0.4, 512),
                             (10.0, 0.25, 384)):
        tau = x / omega0
        proc = NoiseProcess("ornstein-uhlenbeck", sigma=sigma, tau_c=tau,
                            seed=23)
        rate = sigma**2 * tau / (1.0 + x**2)  # S(omega0) / 2
        dt = min(tau / 8.0, TWO_PI / omega0 / 8.0)
        horizon = 1.2 / rate
        times = np.linspace(0.0, horizon, int(math.ceil(horizon / dt)) + 1)
        rhos = evolve_noisy(h, np.array([1.0, 0.0], complex), proc, sx,
                            times, n_traj=n_traj, threads=4)
        sz = 2.0 * rhos[:, 0, 0].real - 1.0
        fit = fit_decay(times, sz, "exponential", p0=(1.0, 1.0 / rate, 0.0))
        ratio = (1.0 / float(fit.params["tau"])) / rate
        if abs(ratio - 1.0) > abs(worst - 1.0):
            worst = ratio
    elapsed = time.monotonic() - t0
    _verdict(10, [
        ("Gaussian dephasing 2%", gauss_dev < 0.02,
         f"max dev {gauss_dev:.4f} at 4096 trajectories"),
        ("OU Lorentzian", lorentz_dev < 1e-12, f"max dev {lorentz_dev:.1e}"),
        ("golden rule 30% at x in {0.1,1,10}", abs(worst - 1.0) < 0.3,
         f"worst ratio {worst:.3f}"),
        ("runtime", elapsed < 300.0, f"{elapsed:.1f}s"),
    ])
