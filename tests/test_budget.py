from __future__ import annotations

import numpy as np
import pytest

from darkqubit.budget import (
    AMPLITUDE_DIFFERENTIAL_COEFF,
    AMPLITUDE_PER_STATE_COEFF,
    MAGNETIC_GAP_COEFF,
    MAGNETIC_PEXC_COEFF,
    POLARIZATION_PEXC_COEFF,
    magnetic_shift_budget,
    polarization_budget,
    relative_amplitude_budget,
    total_budget,
)

TWO_PI = 2 * np.pi


def test_magnetic_closed_forms():
    omega, b, delta_b, gamma = 1.0, 0.3, 1e-3, 0.1
    m = magnetic_shift_budget(omega, b, delta_b, gamma, cross_check=True)
    assert m.mechanism == "magnetic-offset"
    want_shift = MAGNETIC_GAP_COEFF * b * delta_b**2 / omega**2
    assert m.gap_shift == pytest.approx(want_shift, rel=1e-12)
    # next-order form: the offset also detunes the excited states, which
    # linearly shifts the dark eigenvalues
    want_refined = MAGNETIC_GAP_COEFF * (b - 5 * delta_b) * delta_b**2 / omega**2
    assert m.cross_check["gap_analytic_refined"] == pytest.approx(
        want_refined, rel=1e-12
    )
    assert m.excited_population == pytest.approx(
        MAGNETIC_PEXC_COEFF * (delta_b / omega) ** 2, rel=1e-12
    )
    assert m.t1_limit == pytest.approx(1 / (gamma * m.excited_population), rel=1e-12)
    assert m.t2_limit == pytest.approx(1 / m.gap_shift, rel=1e-12)


def test_magnetic_cross_check_tracks_eigensolver():
    # the refined closed form has to match a direct diagonalization at the
    # sub-percent level even where the leading form is visibly off
    tight = magnetic_shift_budget(1.0, 0.3, 1e-3, 0.1, cross_check=True).cross_check
    assert tight["agreement_refined"] == pytest.approx(1.0, abs=1e-3)
    coarse = magnetic_shift_budget(1.0, 0.2, 5e-3, 0.1, cross_check=True).cross_check
    assert coarse["agreement_refined"] == pytest.approx(1.0, abs=1e-3)
    # leading order alone misses the (1 - 5 delta_b / b) factor: 7/8 here
    assert coarse["agreement"] == pytest.approx(0.875, abs=0.01)
    assert coarse["worst_zero_distance"] < 2 * coarse["gap_numeric"]


@pytest.mark.parametrize("delta_khz", [30.0, 50.0, 70.0])
def test_magnetic_numeric_gap_reports_its_rounding(delta_khz):
    # gap_numeric is a difference of two near-zero eigenvalues at scale
    # omega; one ulp of delta_b moves it by less than the rounding scale
    # reported beside it (the headline point of the error-budget scenarios)
    omega, b, gamma = TWO_PI * 100e6, TWO_PI * 6.25e6, TWO_PI * 10e6
    delta_b = TWO_PI * delta_khz * 1e3
    check = magnetic_shift_budget(omega, b, delta_b, gamma).cross_check
    bumped = magnetic_shift_budget(omega, b, np.nextafter(delta_b, np.inf),
                                   gamma).cross_check
    scale = check["gap_numeric_rounding"]
    assert 1e-9 < scale < 1e-5
    move = abs(bumped["gap_numeric"] - check["gap_numeric"])
    assert move / check["gap_numeric"] < scale


def test_magnetic_numeric_gap_quadratic_in_offset():
    # slope of the numerically extracted dark-level splitting vs offset;
    # b >> delta_b keeps the cubic correction out of the fit window
    b = 2.0
    deltas = np.logspace(-3, -2, 5)
    gaps = [
        magnetic_shift_budget(1.0, b, d, 0.1, cross_check=True).cross_check[
            "gap_numeric"
        ]
        for d in deltas
    ]
    slope = np.polyfit(np.log(deltas), np.log(gaps), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.05)


def test_amplitude_closed_forms():
    eps, t2s = 0.05, 1.0
    a = relative_amplitude_budget(eps, t2s, cross_check=True)
    assert a.mechanism == "relative-amplitude"
    assert a.gap_shift == pytest.approx(AMPLITUDE_DIFFERENTIAL_COEFF * eps**2, rel=1e-12)
    assert a.excited_population == 0.0
    assert a.t1_limit == float("inf")
    assert a.t2_limit == pytest.approx(t2s / eps**2, rel=1e-12)
    cc = a.cross_check
    # exact mixing angles of the two perturbed dark states
    want1 = 3 * eps * (1 + eps / 2) / (4 + 2 * eps + eps**2)
    want2 = 3 * eps * (1 + eps / 2) / (4 + 6 * eps + 3 * eps**2)
    assert cc["per_state_numeric_1"] == pytest.approx(want1, rel=1e-9)
    assert cc["per_state_numeric_2"] == pytest.approx(want2, rel=1e-9)
    assert cc["differential_numeric"] == pytest.approx(want1 - want2, rel=1e-6)
    # analytic leading forms stay inside the advertised windows at eps = 0.05
    per_state_analytic = AMPLITUDE_PER_STATE_COEFF * eps
    assert cc["per_state_numeric_1"] / per_state_analytic == pytest.approx(1.0, abs=0.05)
    assert cc["differential_numeric"] / cc["differential_analytic"] == pytest.approx(
        1.0, abs=0.10
    )


def test_amplitude_scaling_exponents():
    epss = np.logspace(-3, np.log10(0.05), 6)
    per_state = []
    differential = []
    for eps in epss:
        cc = relative_amplitude_budget(eps, 1.0, cross_check=True).cross_check
        per_state.append(cc["per_state_numeric_1"])
        differential.append(cc["differential_numeric"])
    s1 = np.polyfit(np.log(epss), np.log(per_state), 1)[0]
    s2 = np.polyfit(np.log(epss), np.log(differential), 1)[0]
    assert s1 == pytest.approx(1.0, abs=0.05)
    assert s2 == pytest.approx(2.0, abs=0.1)


def test_polarization_closed_forms():
    eps_pol, b, omega, gamma = 1e-3, 0.0625, 1.0, 0.1
    p = polarization_budget(eps_pol, b, omega, gamma, cross_check=True)
    assert p.mechanism == "polarization-leakage"
    delta = 2 * 0.8 * b  # opposite-circular light is detuned by twice g_d b
    assert p.cross_check["delta"] == pytest.approx(delta, rel=1e-12)
    want = POLARIZATION_PEXC_COEFF * (eps_pol * delta / omega) ** 2
    assert p.excited_population == pytest.approx(want, rel=1e-12)
    assert p.t1_limit == pytest.approx(1 / (gamma * want), rel=1e-12)
    assert p.gap_shift == 0.0
    # transient excursions overshoot the steady value by a finite factor
    ratio = p.cross_check["max_excited_numeric"] / p.excited_population
    assert 3.0 < ratio < 4.5


def test_polarization_scaling_exponent():
    epss = np.logspace(-4, -2, 5)
    maxima = [
        polarization_budget(e, 0.0625, 1.0, 0.1, cross_check=True).cross_check[
            "max_excited_numeric"
        ]
        for e in epss
    ]
    slope = np.polyfit(np.log(epss), np.log(maxima), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.1)


def test_total_budget_headline_point():
    # strong-drive operating point: a 2pi x 100 MHz dressing field, slow
    # magnetic noise of 2pi x 50 kHz, ten-percent-of-drive decay, 1e-2
    # amplitude imbalance, 1e-3 polarization leakage
    out = total_budget(
        omega=TWO_PI * 100e6,
        b=TWO_PI * 6.25e6,
        delta_b=TWO_PI * 50e3,
        epsilon=1e-2,
        eps_pol=1e-3,
        gamma=TWO_PI * 10e6,
        t2star_bare=20e-6,
    )
    by_name = {m.mechanism: m for m in out.mechanisms}
    assert set(by_name) == {
        "magnetic-offset",
        "relative-amplitude",
        "polarization-leakage",
    }
    assert by_name["magnetic-offset"].t1_limit == pytest.approx(0.1326, rel=1e-3)
    assert by_name["relative-amplitude"].t2_limit == pytest.approx(0.2, rel=1e-9)
    assert by_name["polarization-leakage"].excited_population == pytest.approx(
        7.5e-9, rel=1e-9
    )
    # combined limits: harmonic sums over mechanisms
    t1s = [m.t1_limit for m in out.mechanisms if np.isfinite(m.t1_limit)]
    assert out.t1_limit == pytest.approx(1 / sum(1 / t for t in t1s), rel=1e-12)
    t2s = [m.t2_limit for m in out.mechanisms if np.isfinite(m.t2_limit)]
    assert out.t2_limit == pytest.approx(1 / sum(1 / t for t in t2s), rel=1e-12)
    assert out.gap_shift_total == pytest.approx(
        np.sqrt(sum(m.gap_shift**2 for m in out.mechanisms)), rel=1e-12
    )
    want_orders = np.log10(min(out.t1_limit, out.t2_limit) / 20e-6)
    assert out.coherence_gain_orders == pytest.approx(want_orders, abs=1e-9)
    assert out.coherence_gain_orders == pytest.approx(3.795, abs=0.01)


def test_magnetic_t1_scales_with_drive_squared():
    weak = total_budget(
        omega=TWO_PI * 100e6,
        b=TWO_PI * 6.25e6,
        delta_b=TWO_PI * 50e3,
        epsilon=1e-2,
        eps_pol=1e-3,
        gamma=TWO_PI * 10e6,
        t2star_bare=20e-6,
    )
    strong = total_budget(
        omega=TWO_PI * 1e9,
        b=TWO_PI * 6.25e6,
        delta_b=TWO_PI * 50e3,
        epsilon=1e-2,
        eps_pol=1e-3,
        gamma=TWO_PI * 10e6,
        t2star_bare=20e-6,
    )
    get = lambda o: {m.mechanism: m for m in o.mechanisms}["magnetic-offset"].t1_limit
    assert get(strong) / get(weak) == pytest.approx(100.0, rel=1e-9)
    assert get(strong) == pytest.approx(13.26, rel=1e-3)


def test_budget_inputs_recorded():
    out = total_budget(
        omega=1.0, b=0.1, delta_b=1e-3, epsilon=1e-2, eps_pol=1e-3, gamma=0.1,
        t2star_bare=1.0,
    )
    assert out.inputs == {
        "omega": 1.0,
        "b": 0.1,
        "delta_b": 1e-3,
        "epsilon": 1e-2,
        "eps_pol": 1e-3,
        "gamma": 0.1,
        "t2star_bare": 1.0,
    }
    for m in out.mechanisms:
        assert m.cross_check == {}
