from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from darkqubit.driving import (
    DriveField,
    Harmonic,
    TimeDependentHamiltonian,
    build_lab_hamiltonian,
    compact_construction,
    hyperfine_construction,
    ideal_construction,
    to_rotating_frame,
)
from darkqubit.gates import protected_report
from darkqubit.levels import ca40_dp, hyperfine_f1f2, preset


def _manual_evaluate(ham: TimeDependentHamiltonian, t: float) -> np.ndarray:
    total = ham.static.astype(complex).copy()
    for h in ham.harmonics:
        total += h.matrix * np.exp(-1j * h.frequency * t)
        total += h.matrix.conj().T * np.exp(1j * h.frequency * t)
    return total


def test_evaluate_definition():
    rng = np.random.default_rng(4)
    static = rng.normal(size=(3, 3))
    static = static + static.T
    m1 = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    ham = TimeDependentHamiltonian(
        static.astype(complex), (Harmonic(m1, 2.0), Harmonic(0.5 * m1, 7.3))
    )
    for t in (0.0, 0.17, 3.9):
        assert np.allclose(ham.evaluate(t), _manual_evaluate(ham, t), atol=1e-15)
        h = ham.evaluate(t)
        assert np.allclose(h, h.conj().T, atol=1e-15)
    assert ham.dim == 3
    assert not ham.is_static
    assert TimeDependentHamiltonian(static.astype(complex), ()).is_static


def test_plus_static_plus_harmonic_do_not_mutate():
    ham = TimeDependentHamiltonian(np.zeros((2, 2), complex), ())
    extra = np.eye(2, dtype=complex)
    h2 = ham.plus_static(extra)
    h3 = h2.plus_harmonic(extra, 3.0)
    assert np.allclose(ham.static, 0.0, atol=0)
    assert ham.harmonics == ()
    assert np.allclose(h2.static, extra, atol=0)
    assert len(h3.harmonics) == 1 and h3.harmonics[0].frequency == 3.0


def test_lab_hamiltonian_structure():
    s = ca40_dp(omega0=10.0)
    drive = DriveField("D3/2", "P1/2", "sigma+", frequency=10.26, rabi=0.2)
    ham = build_lab_hamiltonian(s, 0.3, [drive])
    assert np.allclose(ham.static, s.static_hamiltonian(0.3), atol=0)
    assert len(ham.harmonics) == 1
    h = ham.harmonics[0]
    assert h.frequency == 10.26
    want = 0.1 * (lambda c: c + c.conj().T)(s.dipole_coupling("D3/2", "P1/2", "sigma+"))
    assert np.allclose(h.matrix, want, atol=1e-16)


def test_drive_phase_convention():
    # a phase phi multiplies the e^{-i omega t} matrix by e^{-i phi}, so the
    # drive reads rabi * cos(omega t + phi)
    s = ca40_dp(omega0=10.0)
    d0 = DriveField("D3/2", "P1/2", "sigma+", frequency=10.0, rabi=0.2)
    dp = DriveField("D3/2", "P1/2", "sigma+", frequency=10.0, rabi=0.2, phase=0.7)
    m0 = build_lab_hamiltonian(s, 0.0, [d0]).harmonics[0].matrix
    mp = build_lab_hamiltonian(s, 0.0, [dp]).harmonics[0].matrix
    assert np.allclose(mp, m0 * np.exp(-0.7j), atol=1e-15)


def test_drive_amp_error_scales_rabi():
    s = ca40_dp(omega0=10.0)
    base = DriveField("D3/2", "P1/2", "sigma+", frequency=10.0, rabi=0.2)
    bumped = DriveField(
        "D3/2", "P1/2", "sigma+", frequency=10.0, rabi=0.2, amp_error=0.1
    )
    m0 = build_lab_hamiltonian(s, 0.0, [base]).harmonics[0].matrix
    m1 = build_lab_hamiltonian(s, 0.0, [bumped]).harmonics[0].matrix
    assert np.allclose(m1, 1.1 * m0, atol=1e-15)


def test_drive_pol_leak_mixes_opposite_circular():
    s = ca40_dp(omega0=10.0)
    eps = 0.05
    leaky = DriveField(
        "D3/2", "P1/2", "sigma+", frequency=10.0, rabi=0.2, pol_leak=eps
    )
    ham = build_lab_hamiltonian(s, 0.0, [leaky])
    assert len(ham.harmonics) == 2
    main, leak = ham.harmonics
    assert main.frequency == leak.frequency == 10.0
    sym = lambda c: c + c.conj().T
    assert np.allclose(
        main.matrix, (1 - eps) * 0.1 * sym(s.dipole_coupling("D3/2", "P1/2", "sigma+")),
        atol=1e-16,
    )
    assert np.allclose(
        leak.matrix, eps * 0.1 * sym(s.dipole_coupling("D3/2", "P1/2", "sigma-")),
        atol=1e-16,
    )


def test_drive_validation():
    with pytest.raises(ValueError):
        DriveField("D3/2", "P1/2", "sigma+", frequency=-1.0, rabi=0.1)
    with pytest.raises(ValueError):
        build_lab_hamiltonian(
            ca40_dp(),
            0.1,
            [DriveField("D3/2", "P1/2", "zeta", frequency=1.0, rabi=0.1)],
        )
    with pytest.raises(KeyError):
        build_lab_hamiltonian(
            ca40_dp(),
            0.1,
            [DriveField("D3/2", "X", "sigma+", frequency=1.0, rabi=0.1)],
        )


def test_rotating_frame_is_exact_frame_transformation():
    # with no cutoff the rotated Hamiltonian must satisfy the frame identity
    # H_rot(t) = e^{+iGt} H_lab(t) e^{-iGt} - G at every instant
    s = ca40_dp(omega0=7.0)
    con = ideal_construction(s, b=0.3, omega=1.0, rwa_cutoff=np.inf)
    assert con.dropped == ()
    lab = build_lab_hamiltonian(s, 0.3, con.drives)
    g = np.asarray(con.frame)
    for t in (0.0, 0.21, 1.7, 4.03):
        w = np.exp(1j * g * t)
        want = (w[:, None] * lab.evaluate(t) * w.conj()[None, :]) - np.diag(g)
        assert np.allclose(con.ip.evaluate(t), want, atol=1e-12)


# Level energies and drive frequencies on a half-integer grid hit exact
# resonances and degenerate levels; the float draws hit neither.
_LEVELS = st.integers(-6, 6).map(lambda k: 0.5 * k) | st.floats(-5.0, 5.0)
_DRIVES = st.integers(1, 12).map(lambda k: 0.5 * k) | st.floats(0.01, 10.0)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 4),
       levels=st.lists(_LEVELS, min_size=4, max_size=4),
       freqs=st.lists(_DRIVES, min_size=1, max_size=2),
       t=st.floats(-10.0, 10.0))
def test_rotating_frame_round_trip(seed, dim, levels, freqs, t):
    # H_rot(t) = e^{+iGt} H_lab(t) e^{-iGt} - G for a random Hermitian static
    # part, random harmonics and a random diagonal generator
    rng = np.random.default_rng(seed)

    def cplx():
        return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))

    static = cplx()
    lab = TimeDependentHamiltonian(static + static.conj().T,
                                   tuple(Harmonic(cplx(), w) for w in freqs))
    g = np.array(levels[:dim])
    rot = to_rotating_frame(lab, g, rwa_cutoff=None)
    assert rot.dropped == ()
    w = np.exp(1j * g * t)
    want = w[:, None] * lab.evaluate(t) * w.conj()[None, :] - np.diag(g)
    # residuals within freq_atol = 1e-9 * scale are folded into the static
    # part; that is the only approximation, and it is bounded here
    scale = max(1.0, np.abs(g).max(), *freqs)
    amp = np.abs(lab.static).sum() + sum(2.0 * np.abs(h.matrix).sum()
                                         for h in lab.harmonics)
    tol = 1e-12 * amp + 1e-9 * scale * abs(t) * amp
    assert np.abs(rot.hamiltonian.evaluate(t) - want).max() <= tol


def test_rotating_frame_folds_resonant_buckets_to_static():
    m = np.zeros((2, 2), complex)
    m[1, 0] = 0.3
    ham = TimeDependentHamiltonian(
        np.diag([0.0, 5.0]).astype(complex), (Harmonic(m, 5.0), Harmonic(0.1 * m, 80.0))
    )
    rot = to_rotating_frame(ham, np.array([0.0, 5.0]))
    assert np.allclose(rot.hamiltonian.static, m + m.conj().T, atol=1e-15)
    assert [h.frequency for h in rot.hamiltonian.harmonics] == [75.0]
    assert rot.dropped == ()


def test_rotating_frame_freq_atol():
    m = np.zeros((2, 2), complex)
    m[1, 0] = 0.3
    # residual of 1e-10 against a default tolerance scaled to the largest
    # frequency present: folded into the static part
    ham = TimeDependentHamiltonian(
        np.diag([0.0, 5.0]).astype(complex), (Harmonic(m, 5.0 + 1e-10),)
    )
    rot = to_rotating_frame(ham, np.array([0.0, 5.0]))
    assert rot.hamiltonian.harmonics == ()
    # an explicit tighter tolerance keeps the slow beat note
    rot2 = to_rotating_frame(ham, np.array([0.0, 5.0]), freq_atol=1e-12)
    assert len(rot2.hamiltonian.harmonics) == 1
    assert rot2.hamiltonian.harmonics[0].frequency == pytest.approx(1e-10, rel=1e-3)


def test_rwa_cutoff_dropped_ledger():
    m = np.zeros((2, 2), complex)
    m[1, 0] = 0.3
    ham = TimeDependentHamiltonian(
        np.diag([0.0, 5.0]).astype(complex), (Harmonic(m, 5.0), Harmonic(0.1 * m, 80.0))
    )
    rot = to_rotating_frame(ham, np.array([0.0, 5.0]), rwa_cutoff=20.0)
    assert rot.hamiltonian.harmonics == ()
    assert len(rot.dropped) == 1
    term = rot.dropped[0]
    assert term.frequency == pytest.approx(75.0)
    assert term.max_amplitude == pytest.approx(0.03)
    assert term.ratio == pytest.approx(0.03 / 75.0)


def test_rwa_warning_on_marginal_drop():
    m = np.zeros((2, 2), complex)
    m[1, 0] = 2.0
    ham = TimeDependentHamiltonian(
        np.zeros((2, 2), complex), (Harmonic(m, 30.0),)
    )
    with pytest.warns(UserWarning):
        to_rotating_frame(ham, np.zeros(2), rwa_cutoff=20.0)


def test_ideal_construction_layout():
    s = ca40_dp(omega0=1000.0)
    con = ideal_construction(s, b=0.3, omega=1.0)
    freqs = sorted(d.frequency for d in con.drives)
    # per-transition resonances: carrier shifted by the Zeeman splittings
    assert freqs == pytest.approx([999.74, 999.78, 1000.22, 1000.26])
    for d in con.drives:
        assert d.rabi == pytest.approx(np.sqrt(6), abs=1e-14)
        assert len(d.transitions) == 1
    assert con.ip.is_static
    assert np.allclose(con.detuning_part, 0.0, atol=1e-13)
    eigs = np.linalg.eigvalsh(con.ip.static)
    assert np.allclose(eigs, [-1, -1, 0, 0, 1, 1], atol=1e-12)
    # effective couplings: sqrt(3)/2 on stretched transitions, 1/2 inner
    mags = np.abs(con.coupling_part[4:, :4])
    assert mags[0, 0] == pytest.approx(np.sqrt(3) / 2, abs=1e-14)
    assert mags[1, 1] == pytest.approx(0.5, abs=1e-14)
    assert mags[0, 2] == pytest.approx(0.5, abs=1e-14)
    assert mags[1, 3] == pytest.approx(np.sqrt(3) / 2, abs=1e-14)
    # counter-rotating terms near twice the carrier went to the ledger
    assert len(con.dropped) == 4
    for term in con.dropped:
        assert 1999.0 < term.frequency < 2001.0
        assert term.ratio < 1e-3


def test_compact_construction_layout():
    s = ca40_dp(omega0=1000.0)
    b = 0.3
    con = compact_construction(s, b=b, omega=1.0)
    by_pol = {d.polarization: d for d in con.drives}
    assert set(by_pol) == {"sigma+", "sigma-"}
    assert by_pol["sigma+"].frequency == pytest.approx(1000.0 + 0.8 * b, abs=1e-12)
    assert by_pol["sigma-"].frequency == pytest.approx(1000.0 - 0.8 * b, abs=1e-12)
    # the frame rotates the upper manifold with the lower-manifold slope, so
    # a single residual detuning of delta = b/15 per upper state survives
    delta = b / 15
    assert np.allclose(
        np.diag(con.detuning_part).real, [0, 0, 0, 0, delta, -delta], atol=1e-15
    )
    ideal = ideal_construction(s, b=b, omega=1.0)
    assert np.allclose(con.coupling_part, ideal.coupling_part, atol=1e-15)
    assert con.ip.is_static
    # each three-state chain is a Lambda system with the residual detuning on
    # its upper state, so the exact bright energies are +-delta/2 +-
    # sqrt(omega^2 + delta^2/4) and the protection gap is their closest
    # approach to zero
    eigs = np.sort(np.linalg.eigvalsh(con.ip.static))
    root = np.sqrt(1 + delta**2 / 4)
    want = [-root - delta / 2, -root + delta / 2, 0, 0, root - delta / 2, root + delta / 2]
    assert np.allclose(eigs, sorted(want), atol=1e-13)


def test_hyperfine_construction_layout():
    omega = 0.05
    b = 0.4
    con = hyperfine_construction(hyperfine_f1f2(), b=b, omega=omega)
    s = hyperfine_f1f2()
    from darkqubit.angular import jx

    want = np.zeros((8, 8), complex)
    want[:3, :3] = -omega * jx(1)
    want[3:, 3:] = omega * jx(2)
    assert np.allclose(con.ip.static, want, atol=1e-13)
    assert np.allclose(
        np.linalg.eigvalsh(con.ip.static) / omega,
        [-2, -1, -1, 0, 0, 1, 1, 2],
        atol=1e-12,
    )
    # counter-rotating component at twice the rf frequency stays below the
    # default cutoff here and is kept
    assert [h.frequency for h in con.ip.harmonics] == pytest.approx([b])
    assert np.abs(con.ip.harmonics[0].matrix).max() == pytest.approx(
        omega * np.sqrt(1.5), abs=1e-14
    )
    assert con.dropped == ()


def test_hyperfine_construction_drops_fast_counter_term():
    omega = 0.05
    with pytest.warns(UserWarning):
        con = hyperfine_construction(hyperfine_f1f2(), b=1.0, omega=omega)
    assert con.ip.is_static
    assert len(con.dropped) == 1
    assert con.dropped[0].frequency == pytest.approx(1.0)
    assert con.dropped[0].ratio == pytest.approx(omega * np.sqrt(1.5), rel=1e-12)


# Every preset with the manifolds the constructions drive on it and its
# line offsets, and the constructions that keep the ideal dark pair there.
# compact on a hyperfine preset is left out: no state of the lower
# manifold alone is dark to both of its fields, so its dark pair lies
# almost wholly on the upper manifold, where its leftover detuning acts
# (weight 0.993-1 at b/omega = 0.1).  That pair is not the ideal one
# (overlap singular values 0.971-0.998 at b/omega = 0.1-0.3),
# coupling_part moves it by about 0.7 b/omega of its norm, and
# common-mode drive noise acts on it at first order.
_DRIVEN = {"ca40_dp": ("D3/2", "P1/2", {"omega0": 1000.0}),
           "ca40_sdp": ("D3/2", "P1/2",
                        {"omega0": 1000.0, "omega_s": -1500.0}),
           "d52_p32": ("D5/2", "P3/2", {"omega0": 1000.0}),
           "hyperfine_f1f2": ("F1", "F2", {"omega_hf": 1000.0}),
           "hyperfine_f0f1": ("F0", "F1", {"omega_hf": 1000.0})}
_KEEP_PAIR = {"optical": (ideal_construction, compact_construction),
              "hyperfine": (ideal_construction, hyperfine_construction)}


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(sorted(_DRIVEN)), which=st.integers(0, 1),
       log_scale=st.floats(-6.0, 9.0), ratio=st.floats(0.02, 0.5))
def test_drive_couplings_annihilate_the_dark_pair(name, which, log_scale,
                                                  ratio):
    # the paper's claim that drive-power fluctuations do not act within
    # the robust qubit subspace: coupling_part, on which common-mode
    # amplitude noise acts, sends each dark state to zero relative to its
    # own largest element, at scales s from 1e-6 to 1e9 with the presets'
    # line offsets scaled by s as well.  The hyperfine construction takes
    # its field 100 times higher, b/omega = 2-50, as its Zeeman spacing
    # must sit well above the drive (and warns of its dropped counter term)
    lower, upper, offsets = _DRIVEN[name]
    family = "hyperfine" if name.startswith("hyperfine") else "optical"
    build = _KEEP_PAIR[family][which]
    s = 10.0 ** log_scale
    scheme = preset(name, **{key: value * s for key, value in offsets.items()})
    b = (100.0 if build is hyperfine_construction else 1.0) * ratio * s
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        con = build(scheme, b, s, lower=lower, upper=upper)
    coupling = con.coupling_part
    for dark in protected_report(con).dark_states[:2]:
        assert np.abs(coupling @ dark).max() <= 1e-14 * np.abs(coupling).max()
