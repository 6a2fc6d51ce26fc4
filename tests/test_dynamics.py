from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.linalg import expm, schur

from darkqubit import dynamics, subspace
from darkqubit.budget import polarization_budget
from darkqubit.driving import (
    Harmonic,
    TimeDependentHamiltonian,
    compact_construction,
    ideal_construction,
)
from darkqubit.dynamics import (
    NumericalError,
    evolve_lindblad,
    evolve_stroboscopic,
    evolve_unitary,
    expectation,
    fit_decay,
    liouvillian,
    overlap_population,
    propagator,
)
from darkqubit.gates import protected_report, raman_sigma_x
from darkqubit.levels import ca40_dp
from darkqubit.sensing import run_ac_sensing


def _random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2


def test_static_evolution_matches_expm():
    rng = np.random.default_rng(3)
    h = _random_hermitian(rng, 5)
    psi0 = rng.normal(size=5) + 1j * rng.normal(size=5)
    psi0 /= np.linalg.norm(psi0)
    times = np.linspace(0.0, 4.0, 9)
    states = evolve_unitary(TimeDependentHamiltonian(h, ()), psi0, times)
    for t, psi in zip(times, states):
        want = expm(-1j * h * t) @ psi0
        assert np.allclose(psi, want, atol=1e-9)


def test_static_evolution_accepts_plain_matrix():
    rng = np.random.default_rng(5)
    h = _random_hermitian(rng, 3)
    psi0 = np.array([1.0, 0, 0], complex)
    times = np.linspace(0.0, 2.0, 5)
    a = evolve_unitary(h, psi0, times)
    b = evolve_unitary(TimeDependentHamiltonian(h, ()), psi0, times)
    assert np.allclose(a, b, atol=1e-10)


def test_norm_drift_names_the_drift_and_norm_tol_only():
    # a static run takes the spectral path, which has no DOP853 tolerances
    # to quote; a drift forced onto its states names only what was checked
    real = dynamics._integrate

    def drifting(ham, y0, times):
        return (1.0 + 1e-6) * real(ham, y0, times)

    ham = np.diag([0.0, 1.0]).astype(complex)
    with mock.patch.object(dynamics, "_integrate", drifting):
        with pytest.raises(NumericalError) as err:
            evolve_unitary(ham, np.array([1.0, 0.0]), np.linspace(0, 1, 5))
    assert str(err.value) == (f"norm drift {1e-6:.3e} exceeds "
                              f"{dynamics.NORM_TOL:.0e}")


def test_harmonic_evolution_analytic_rabi():
    # a one-sided harmonic is exactly the co-rotating drive, so resonant
    # transfer is sin^2(A t) with no approximation involved
    omega = 7.0
    amp = 0.31
    m = np.zeros((2, 2), complex)
    m[1, 0] = amp
    ham = TimeDependentHamiltonian(np.diag([0.0, omega]).astype(complex), (Harmonic(m, omega),))
    psi0 = np.array([1.0, 0.0], complex)
    times = np.linspace(0.0, 6.0, 41)
    states = evolve_unitary(ham, psi0, times)
    pops = np.abs(states[:, 1]) ** 2
    assert np.allclose(pops, np.sin(amp * times) ** 2, atol=1e-8)


def test_propagator_unitarity_and_composition():
    m = np.zeros((3, 3), complex)
    m[1, 0] = 0.4
    m[2, 1] = 0.2
    ham = TimeDependentHamiltonian(np.diag([0.0, 1.0, 3.0]).astype(complex), (Harmonic(m, 1.0),))
    u10 = propagator(ham, 1.3)
    u21 = propagator(ham, 2.9, 1.3)
    u20 = propagator(ham, 2.9)
    assert np.allclose(u10 @ u10.conj().T, np.eye(3), atol=1e-9)
    assert np.allclose(u21 @ u10, u20, atol=1e-8)


def _two_block(harmonic_at):
    # levels {0, 1} and {2} share no static coupling; one harmonic element
    # (2, 0) at 0.7 makes the frame g = (0, 0, 0.7) static, a diagonal
    # element or a second frequency on the same link does not
    static = np.diag([0.0, 0.3, 1.1]).astype(complex)
    static[0, 1] = static[1, 0] = 0.4
    terms = []
    for (a, b), w in harmonic_at:
        m = np.zeros((3, 3), complex)
        m[a, b] = 0.2
        terms.append(Harmonic(m, w))
    return TimeDependentHamiltonian(static, tuple(terms))


@pytest.mark.parametrize("ham", [
    _two_block([]),
    _two_block([((2, 0), 0.7)]),
    _two_block([((2, 0), 0.7), ((2, 1), 0.9)]),
], ids=["static", "static-frame", "dop853"])
def test_one_point_grid_returns_initial_state(ham):
    psi0 = np.array([0.6, 0.8j, 0.0])
    states = evolve_unitary(ham, psi0, [1.5])
    assert states.shape == (1, 3)
    assert np.array_equal(states[0], psi0)


def test_all_zero_harmonic_takes_the_spectral_path():
    # a harmonic with no nonzero element and a diagonal static part leave
    # no link equation at all: the frame g = 0 makes the run static
    static = np.diag([0.0, 0.4, 1.3]).astype(complex)
    ham = TimeDependentHamiltonian(static, (Harmonic(np.zeros((3, 3)), 2.0),))
    psi0 = np.array([0.6, 0.8j, 0.0])
    times = np.linspace(0.5, 3.0, 5)
    with mock.patch.object(integrate, "solve_ivp") as solver:
        states = evolve_unitary(ham, psi0, times)
    assert not solver.called
    want = np.exp(-1j * np.outer(times - times[0], np.diag(static).real)) \
        * psi0
    assert np.abs(states - want).max() < 1e-12


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 8),
       n_harmonics=st.integers(1, 2),
       defect=st.sampled_from([None, "cycle", "diagonal"]),
       t0=st.floats(0.3, 4.0), span=st.floats(0.5, 3.0))
def test_static_frame_path_matches_dop853(seed, dim, n_harmonics, defect,
                                          t0, span):
    # Levels fall into blocks with no static coupling between them, each
    # block at a frame potential p.  A harmonic linking block B to block A
    # at w = p_A - p_B > 0 is static in that frame.  A second link between
    # the same blocks at another frequency (a cycle), or a diagonal
    # harmonic element, leaves no static frame: DOP853 must run.
    rng = np.random.default_rng(seed)
    block = rng.integers(0, 3, size=dim)
    block[:2] = [0, 1]
    pots = rng.uniform(-3.0, 3.0, size=3)
    static = np.diag(rng.normal(size=dim)).astype(complex)
    for a in range(dim):
        for b in range(a + 1, dim):
            if block[a] == block[b]:
                static[a, b] = rng.normal() + 1j * rng.normal()
                static[b, a] = np.conj(static[a, b])

    terms = []
    for _ in range(n_harmonics):
        while True:
            a, b = rng.integers(0, dim, size=2)
            if pots[block[a]] > pots[block[b]]:
                break
        m = np.zeros((dim, dim), complex)
        for i in np.nonzero(block == block[a])[0]:
            for j in np.nonzero(block == block[b])[0]:
                if rng.random() < 0.7:
                    m[i, j] = 0.5 * (rng.normal() + 1j * rng.normal())
        m[a, b] = 0.5
        terms.append(Harmonic(m, pots[block[a]] - pots[block[b]]))
    if defect == "cycle":
        m = np.zeros((dim, dim), complex)
        m[a, b] = 0.3
        terms.append(Harmonic(m, terms[-1].frequency + rng.uniform(0.1, 1.0)))
    elif defect == "diagonal":
        m = np.zeros((dim, dim), complex)
        m[a, a] = 0.3
        terms.append(Harmonic(m, rng.uniform(0.5, 3.0)))
    ham = TimeDependentHamiltonian(static, tuple(terms))

    psi0 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi0 /= np.linalg.norm(psi0)
    times = t0 + np.linspace(0.0, span, 7)
    with mock.patch.object(integrate, "solve_ivp",
                           wraps=integrate.solve_ivp) as solver:
        states = evolve_unitary(ham, psi0, times)
        u = propagator(ham, t0 + span, t0)
    assert solver.called == (defect is not None)
    if defect is not None:
        assert dynamics._static_frame(ham) is None
        return
    with mock.patch.object(dynamics, "_static_frame", return_value=None):
        ref_states = evolve_unitary(ham, psi0, times)
        ref_u = propagator(ham, t0 + span, t0)
    assert np.abs(states - ref_states).max() < 1e-9
    assert np.abs(u - ref_u).max() < 1e-9


def _tight_dop853(ham, y0, times):
    # The reference for the Floquet path: DOP853 at rtol 1e-13, atol
    # 1e-15.  At the default tolerances its long propagators are good to
    # only about 5e-9.
    with mock.patch.object(dynamics, "_floquet", return_value=None), \
            mock.patch.object(dynamics, "RTOL", 1e-13), \
            mock.patch.object(dynamics, "ATOL", 1e-15):
        return dynamics._integrate(ham, y0, times)


def _pol_leak_evolve():
    con = compact_construction(ca40_dp(), 0.3, 1.0, pol_leak=0.01)
    dark = protected_report(con).dark_states[0]
    evolve_unitary(con.ip, dark, np.linspace(0.0, 300.0, 400))


_TWO_PI = 2.0 * np.pi
# The single-harmonic runs of the benchmark's harmonic-dynamics workload.
HARMONIC_RUNS = {
    "sense_optical": lambda: run_ac_sensing(
        compact_construction(ca40_dp(), 0.3, 1.0), 0.8 * 0.3 + 0.005, 0.01),
    "pol_leak": _pol_leak_evolve,
    "budget_cross_check": lambda: polarization_budget(
        1e-3, _TWO_PI * 6.25e6, _TWO_PI * 100e6, _TWO_PI * 10e6),
    **{f"raman_{delta_r:g}": lambda delta_r=delta_r: raman_sigma_x(
        0.05, delta_r, ideal_construction(ca40_dp(), 0.3, 1.0))
       for delta_r in (15.0, 30.0, 60.0)},
}


class _EighSpy:
    """np.linalg.eigh, or the given stand-in, that records the size and
    dtype of each matrix."""

    def __init__(self, eigh=None):
        self.calls = []
        self.eigh = eigh or np.linalg.eigh

    def __call__(self, a, *args, **kwargs):
        self.calls.append((a.shape[-1], a.dtype))
        return self.eigh(a, *args, **kwargs)


# The Sambe dimension of each eigh on those runs: one solve each.
# pol_leak's near-resonant sidebands lift its start from the Bessel
# tail's N = 5, whose bound is 1e-9, to N = 6.
SAMBE_SIZES = {"sense_optical": [174], "pol_leak": [78],
               "budget_cross_check": [66], "raman_15": [54],
               "raman_30": [54], "raman_60": [54]}


@pytest.mark.parametrize("name", HARMONIC_RUNS)
def test_floquet_path_matches_dop853_on_benchmark_runs(name):
    # every propagation of the run that no static frame covers takes the
    # Floquet path with SAMBE_SIZES' solves, and agrees with
    # tight-tolerance DOP853
    calls = []
    real = dynamics._integrate

    def spy(ham, y0, times):
        if not ham.is_static and dynamics._static_frame(ham) is None:
            calls.append((ham, y0, times))
        return real(ham, y0, times)

    with mock.patch.object(dynamics, "_integrate", spy), \
            mock.patch.object(np.linalg, "eigh", _EighSpy()) as eigh, \
            mock.patch.object(integrate, "solve_ivp") as solver:
        HARMONIC_RUNS[name]()
    assert not solver.called
    (ham, y0, times), = calls
    # H0 is real and M real up to a phase on all of these: the sideband
    # gauge makes every Sambe matrix real symmetric
    sambe = [(size, dtype) for size, dtype in eigh.calls if size > ham.dim]
    assert sambe == [(size, np.float64) for size in SAMBE_SIZES[name]]
    got = dynamics._integrate(ham, y0, times)
    assert np.abs(got - _tight_dop853(ham, y0, times)).max() < 1e-10


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 8),
       log_ratio=st.floats(-3.0, np.log10(3.0)),
       diagonal=st.booleans(),
       gauge=st.sampled_from([None, "0", "pi/2", "uniform"]),
       grid=st.sampled_from(["propagator", "uniform", "long uniform",
                             "nonuniform"]),
       t0=st.floats(0.3, 4.0), span=st.floats(0.2, 2.0))
# a unitarity defect that rises before it falls: 2.07e-5 at N = 14,
# 2.83e-4 at N = 15, and a pass at N = 21
@example(seed=871, dim=7, log_ratio=0.0, diagonal=False, gauge=None,
         grid="propagator", t0=1.0, span=1.0)
def test_floquet_path_matches_dop853(seed, dim, log_ratio, diagonal, gauge,
                                     grid, t0, span):
    # H0 + M e^{-iwt} + h.c. with a dense H0 and M, |M| / w from 1e-3 to
    # 3: no diagonal frame makes it static.  With a gauge, H0 is real
    # symmetric and M = e^{i phi} R with R real: the sideband gauge makes
    # the Sambe matrix real, and its eigh runs in float64.  The size cap,
    # a cost choice tested below, is lifted so that every example takes
    # the Floquet path; a fall back to DOP853 raises.
    rng = np.random.default_rng(seed)
    freq = rng.uniform(0.5, 2.0)
    h0 = _random_hermitian(rng, dim)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    if gauge is not None:
        phi = {"0": 0.0, "pi/2": np.pi / 2,
               "uniform": rng.uniform(0.0, 2.0 * np.pi)}[gauge]
        h0, m = h0.real, m.real * np.exp(1j * phi)
    if not diagonal:
        np.fill_diagonal(m, 0.0)
    m *= 10.0 ** log_ratio * freq / np.linalg.norm(m, 2)
    ham = TimeDependentHamiltonian(h0, (Harmonic(m, freq),))
    if grid == "propagator":
        times = np.array([t0, t0 + span])
        y0 = np.eye(dim, dtype=complex)
    else:
        times = t0 + {
            "uniform": np.linspace(0.0, span, 7),
            "long uniform": np.linspace(0.0, span, 150),
            "nonuniform": np.append(0.0, np.sort(rng.uniform(0, span, 20))),
        }[grid]
        y0 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        y0 /= np.linalg.norm(y0)
    with mock.patch.object(integrate, "solve_ivp", side_effect=AssertionError(
            "the Floquet path gave up: DOP853 was called")), \
            mock.patch.object(np.linalg, "eigh", _EighSpy()) as eigh, \
            mock.patch.object(dynamics, "FLOQUET_MAX_DIM", 10**4):
        if grid == "propagator":
            got = propagator(ham, times[-1], t0)[None]
        else:
            got = evolve_unitary(ham, y0, times)
    sambe = float if gauge is not None else complex
    assert eigh.calls and all(dtype == sambe for _, dtype in eigh.calls)
    want = _tight_dop853(ham, y0, times)[-len(got):]
    assert np.abs(got - want).max() < 1e-10


class _ScrambledEigh:
    """np.linalg.eigh that turns each degenerate cluster of eigenvectors
    (eigenvalues within 1e-12 of the spectral scale) by a random unitary,
    orthogonal for a real matrix: a basis as valid as eigh's own."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.eigh = np.linalg.eigh
        self.turned = 0

    def __call__(self, a, *args, **kwargs):
        vals, vecs = self.eigh(a, *args, **kwargs)
        tol = 1e-12 * max(1.0, np.abs(vals).max())
        bounds = subspace._cluster_bounds(vals, tol)
        for lo, hi in zip(bounds, bounds[1:]):
            if hi - lo > 1:
                shape = (hi - lo, hi - lo)
                turn = self.rng.normal(size=shape)
                if np.iscomplexobj(vecs):
                    turn = turn + 1j * self.rng.normal(size=shape)
                vecs[:, lo:hi] = vecs[:, lo:hi] @ np.linalg.qr(turn)[0]
                self.turned += 1
        return vals, vecs


def _degenerate_sidebands(phi):
    """(H0, M, w): levels 2 and 3 at 0 and w, coupled to nothing, beside
    a driven pair {0, 1} with a diagonal harmonic element."""
    freq = 1.3
    h0 = np.diag([0.2, -0.5, 0.0, freq]).astype(complex)
    h0[0, 1] = h0[1, 0] = 0.3
    m = np.zeros((4, 4), complex)
    m[0, 0], m[1, 0] = 0.25, 0.4
    return h0, m * np.exp(1j * phi), freq


_DEGENERATE_TIMES = 0.4 + np.linspace(0.0, 3.0, 31)
_DEGENERATE_Y0 = np.array([0.6, 0.0, 0.48, 0.64j])


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("phi", [0.0, 0.7])
@pytest.mark.parametrize("rotate", [True, False])
def test_floquet_modes_survive_scrambled_degenerate_clusters(seed, phi,
                                                             rotate):
    # Levels 2 and 3, at 0 and w and coupled to nothing, make the Sambe
    # states (2, n) and (3, n + 1) exactly degenerate: eigh may return any
    # mix of the two sidebands, whose centre is then anywhere in [n, n+1].
    # The driven pair {0, 1} has a diagonal harmonic element, so no static
    # frame applies.  Rotating each cluster to a diagonal band index gives
    # translates again and the right answer; without the rotation the
    # selection or the unitarity of P(t0) must fail and give None, never
    # a wrong number.
    h0, m, freq = _degenerate_sidebands(phi)
    ham = TimeDependentHamiltonian(h0, (Harmonic(m, freq),))
    assert dynamics._static_frame(ham) is None
    times, y0 = _DEGENERATE_TIMES, _DEGENERATE_Y0
    scrambled = _ScrambledEigh(seed)
    with mock.patch.object(np.linalg, "eigh", _EighSpy(scrambled)) as eigh:
        if rotate:
            got = dynamics._floquet(h0, m, freq, y0, times)
        else:
            with mock.patch.object(dynamics, "_split_degenerate",
                                   lambda vecs, *_: [vecs]):
                got = dynamics._floquet(h0, m, freq, y0, times)
    assert scrambled.turned
    if rotate:
        assert got is not None
    else:  # two defects in a row set no new low within a few solves
        assert len(eigh.calls) <= 5
    if got is not None:
        want = _tight_dop853(ham, y0, times)
        assert np.abs(got - want).max() < 1e-10


def _turned_clusters(schedule, eigh):
    """dynamics._split_degenerate, then every other cluster's first two
    columns turned by schedule[k] in the (k + 1)-th Sambe solve (the last
    entry from then on; the split's own eighs are 2 x 2).  Translates of
    different modes mixed by different angles leave P(t0) off unitarity
    by a defect that grows with the angle; no turn gives the modes
    back."""
    split, clusters = dynamics._split_degenerate, []

    def turned(vecs, *args):
        cols = np.hstack(split(vecs, *args))
        clusters.append(None)
        solves = sum(size > 4 for size, _ in eigh.calls)
        angle = schedule[min(solves, len(schedule)) - 1] * (len(clusters) % 2)
        turn = np.array([[np.cos(angle), -np.sin(angle)],
                         [np.sin(angle), np.cos(angle)]])
        cols[:, :2] = cols[:, :2] @ turn
        return [cols]
    return turned


@pytest.mark.parametrize("phi", [0.0, 0.7])
def test_floquet_grows_one_band_pair_per_solve_when_the_defect_fails(phi):
    # a failed unitarity check says nothing of the truncation tail, so
    # each solve adds one band pair (2 dim); the second solve in a row
    # whose defect is not below the lowest so far, or the size cap
    # (lowered here to keep the solves small), gives the run up to
    # DOP853, and a solve whose defect clears returns the modes.  One
    # defect above the lowest does not end the attempt: the defect need
    # not fall monotonically.  A quarter turn mixes two translates evenly
    # and fails the mode selection, which gives no defect to compare: N
    # grows by one, and the run of defects without a new low starts over
    quarter = np.pi / 4
    h0, m, freq = _degenerate_sidebands(phi)
    ham = TimeDependentHamiltonian(h0, (Harmonic(m, freq),))
    for schedule, solves, clears in (([0.3, 0.1, 0.0], 3, True),
                                     ([0.3, 0.1, 0.03, 0.01, 0.03], 6,
                                      False),
                                     ([0.1, 0.3], 3, False),
                                     ([0.1, 0.3, 0.03, 0.0], 4, True),
                                     ([0.1, 0.3, quarter, 0.3], 5, False),
                                     ([0.3 / 2**k for k in range(12)], 8,
                                      False),
                                     ([0.3, quarter, 0.1, 0.0], 4, True),
                                     ([quarter, quarter, 0.0], 3, True)):
        with mock.patch.object(np.linalg, "eigh", _EighSpy()) as eigh, \
                mock.patch.object(dynamics, "FLOQUET_MAX_DIM", 140):
            with mock.patch.object(dynamics, "_split_degenerate",
                                   _turned_clusters(schedule, eigh)):
                got = dynamics._floquet(h0, m, freq, _DEGENERATE_Y0,
                                        _DEGENERATE_TIMES)
        sizes = [size for size, _ in eigh.calls if size > 4]
        assert len(sizes) == solves and sizes[-1] <= 140
        assert np.all(np.diff(sizes) == 2 * 4)
        assert (got is not None) == clears
        if clears:
            want = _tight_dop853(ham, _DEGENERATE_Y0, _DEGENERATE_TIMES)
            assert np.abs(got - want).max() < 1e-10


@pytest.mark.parametrize("seed", range(6))
def test_floquet_mode_split_between_two_sidebands_takes_one_solve(seed):
    # levels 0 and 1 at exact sideband resonance, coupled by the harmonic:
    # each dressed mode is split evenly between two sidebands, so its two
    # nearest translates are centred at -1/2 and 1/2 up to rounding.
    # Exactly one of them is kept, at the first cutoff.  Level 2's
    # diagonal harmonic element rules out a static frame.
    rng = np.random.default_rng(seed)
    freq = rng.uniform(0.5, 2.0)
    h0 = np.diag([0.0, freq, rng.uniform(-1.0, 1.0)]).astype(complex)
    m = np.zeros((3, 3), complex)
    m[1, 0], m[2, 2] = rng.uniform(0.05, 0.5, size=2)
    ham = TimeDependentHamiltonian(h0, (Harmonic(m, freq),))
    times = np.linspace(0.0, rng.uniform(1.0, 10.0), 11)
    y0 = np.array([1.0, 0.0, 0.0], complex)
    with mock.patch.object(np.linalg, "eigh", _EighSpy()) as eigh:
        got = dynamics._floquet(h0, m, freq, y0, times)
    assert len(eigh.calls) == 1
    assert np.abs(got - _tight_dop853(ham, y0, times)).max() < 1e-10


def test_strong_slow_drive_goes_straight_to_dop853():
    # criterion 3's global amplitude modulation, 0.1 H0 at w = 0.003
    # (x = 2|M|/w of about 67): the Bessel tail rules the Sambe space out
    # before any eigh, and DOP853 is reached
    con = ideal_construction(ca40_dp(), 0.3, 1.0)
    dark = protected_report(con).dark_states
    ham = con.ip.plus_harmonic(0.1 * con.ip.static, 0.003)

    class Reached(Exception):
        pass

    with mock.patch.object(np.linalg, "eigh", _EighSpy()) as eigh, \
            mock.patch.object(integrate, "solve_ivp", side_effect=Reached):
        with pytest.raises(Reached):
            evolve_unitary(ham, (dark[0] + dark[1]) / np.sqrt(2.0),
                           np.linspace(0.0, 1000.0, 201))
    assert max((size for size, _ in eigh.calls), default=0) <= ham.dim


def test_stroboscopic_matches_dense_sampling():
    m = np.zeros((2, 2), complex)
    m[1, 0] = 0.25
    ham = TimeDependentHamiltonian(np.diag([0.0, 5.0]).astype(complex), (Harmonic(m, 5.0),))
    psi0 = np.array([1.0, 0.0], complex)
    period = 2 * np.pi / 5.0
    n = 40
    times, states = evolve_stroboscopic(ham, psi0, period, n)
    assert len(times) == n + 1
    assert np.allclose(times, period * np.arange(n + 1), atol=1e-12)
    dense = evolve_unitary(ham, psi0, times)
    assert np.allclose(states, dense, atol=1e-7)


def test_stroboscopic_columns_match_single_state_runs():
    # a [dim, 2] psi0 samples each column bit for bit as a run of that
    # column alone does, whatever the layout it comes in
    rng = np.random.default_rng(3)
    m = 0.2 * (rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
    ham = TimeDependentHamiltonian(_random_hermitian(rng, 5),
                                   (Harmonic(m, 2.0),))
    psi0 = np.linalg.qr(rng.normal(size=(5, 2))
                        + 1j * rng.normal(size=(5, 2)))[0]
    times, states = evolve_stroboscopic(ham, psi0, np.pi, 30, stride=3)
    assert states.shape == (len(times), 5, 2)
    for k in range(2):
        for col in (psi0[:, k], psi0[:, k].copy()):
            single_times, single = evolve_stroboscopic(ham, col, np.pi, 30,
                                                       stride=3)
            assert np.array_equal(single_times, times)
            assert np.array_equal(single, states[:, :, k])


def _random_unitary(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.mark.parametrize("levels", [[0.0, 5.0, 10.0, -5.0],
                                    [0.0, 2.5, 5.0, 7.5]],
                         ids=["identity", "plus-minus-one"])
def test_stroboscopic_degenerate_period_propagator(levels):
    # every level a multiple of 2 pi / period (identity), or of half of
    # it (a +-1 spectrum): one or two exactly degenerate eigenspaces,
    # each spanned by non-orthogonal eig vectors before the QR
    rng = np.random.default_rng(5)
    q = _random_unitary(rng, len(levels))
    ham = (q * np.array(levels)) @ q.conj().T
    psi0 = rng.normal(size=len(levels)) + 1j * rng.normal(size=len(levels))
    psi0 /= np.linalg.norm(psi0)
    times, states = evolve_stroboscopic(ham, psi0, 2 * np.pi / 5.0, 40)
    dense = evolve_unitary(ham, psi0, times)
    assert np.abs(states - dense).max() < 1e-12


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 8),
       cluster=st.integers(1, 8), split=st.sampled_from([0.0, 1e-12, 1e-9,
                                                         1e-6]))
def test_stroboscopic_matches_schur_reference(seed, dim, cluster, split):
    # a period propagator with one cluster of `cluster` eigenphases, equal
    # or split by `split`; the Schur factorization is the reference
    rng = np.random.default_rng(seed)
    q = _random_unitary(rng, dim)
    phases = rng.uniform(-np.pi, np.pi, dim)
    size = min(cluster, dim)
    phases[:size] = phases[0] + split * np.arange(size)
    u = (q * np.exp(1j * phases)) @ q.conj().T
    psi0 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi0 /= np.linalg.norm(psi0)
    with mock.patch.object(dynamics, "propagator", return_value=u):
        _, states = evolve_stroboscopic(np.zeros((dim, dim), complex), psi0,
                                        1.0, 50)
    tri, z = schur(u, output="complex")
    want = np.einsum("ij,kj->ki", z, np.exp(1j * np.outer(
        np.arange(51), np.angle(np.diag(tri)))) * (z.conj().T @ psi0))
    assert np.abs(states - want).max() < 1e-12


@pytest.mark.parametrize("u", [[[1.0, 0.5], [0.0, 1.0]],
                               [[1.0, 5e-8], [0.0, 1j]]],
                         ids=["defective", "triangular"])
def test_stroboscopic_rejects_non_normal_period_propagator(u):
    # a defective one, and a triangular one within propagator's own
    # unitarity bound (1e-7) whose orthonormalized eigenbasis leaves
    # 5e-8 off the diagonal
    u = np.array(u, dtype=complex)
    with mock.patch.object(dynamics, "propagator", return_value=u), \
            pytest.raises(NumericalError, match="not normal"):
        evolve_stroboscopic(np.zeros((2, 2), complex),
                            np.array([1.0, 0.0], complex), 1.0, 10)


def test_stroboscopic_stride():
    h = np.diag([0.0, 1.0]).astype(complex)
    times, states = evolve_stroboscopic(h, np.array([1.0, 0], complex), 0.5, 10, stride=5)
    assert np.allclose(times, [0.0, 2.5, 5.0], atol=1e-12)
    assert states.shape == (3, 2)


def test_lindblad_amplitude_damping_closed_form():
    gamma = 0.37
    collapse = [np.sqrt(gamma) * np.array([[0.0, 1.0], [0.0, 0.0]], complex)]
    rho0 = np.array([[0.3, 0.4], [0.4, 0.7]], complex)
    times = np.linspace(0.0, 8.0, 17)
    rhos = evolve_lindblad(np.zeros((2, 2), complex), rho0, collapse, times)
    for t, rho in zip(times, rhos):
        assert rho[1, 1].real == pytest.approx(0.7 * np.exp(-gamma * t), abs=1e-9)
        assert abs(rho[0, 1]) == pytest.approx(0.4 * np.exp(-gamma * t / 2), abs=1e-9)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 8),
       n_collapse=st.integers(0, 4), repeat_steps=st.booleans(),
       span=st.floats(0.1, 20.0))
def test_lindblad_preserves_trace_and_positivity(seed, dim, n_collapse,
                                                 repeat_steps, span):
    # random Hamiltonian, collapse set and mixed initial state; a uniform
    # grid reuses one step propagator, a random grid builds one per step
    rng = np.random.default_rng(seed)
    h = _random_hermitian(rng, dim)
    collapse = [rng.uniform(0.0, 1.5) * (rng.normal(size=(dim, dim))
                                         + 1j * rng.normal(size=(dim, dim)))
                for _ in range(n_collapse)]
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho0 = a @ a.conj().T
    rho0 /= np.trace(rho0).real
    if repeat_steps:
        times = np.linspace(0.0, span, 9)
    else:
        times = np.concatenate([[0.0], np.sort(rng.uniform(0.0, span, 8))])
    rhos = evolve_lindblad(h, rho0, collapse, times)
    assert rhos.shape == (len(times), dim, dim)
    assert np.abs(np.einsum("tii->t", rhos) - 1.0).max() < 1e-9
    assert np.abs(rhos - rhos.conj().transpose(0, 2, 1)).max() < 1e-10
    assert np.linalg.eigvalsh(rhos).min() > -1e-9


def test_liouvillian_spectrum_two_level():
    omega = 1.9
    gamma = 0.37
    h = np.diag([0.0, omega]).astype(complex)
    collapse = [np.sqrt(gamma) * np.array([[0.0, 1.0], [0.0, 0.0]], complex)]
    eigs = np.linalg.eigvals(liouvillian(h, collapse))
    want = np.array([0.0, -gamma, -gamma / 2 + 1j * omega, -gamma / 2 - 1j * omega])
    for w in want:
        assert np.min(np.abs(eigs - w)) < 1e-10


def test_liouvillian_generates_lindblad_evolution():
    rng = np.random.default_rng(9)
    h = _random_hermitian(rng, 3)
    c = rng.normal(size=(3, 3)) * 0.4
    rho0 = np.diag([1.0, 0.0, 0.0]).astype(complex)
    lv = liouvillian(h, [c.astype(complex)])
    t = 1.7
    want = (expm(lv * t) @ rho0.reshape(-1)).reshape(3, 3)
    got = evolve_lindblad(h, rho0, [c.astype(complex)], np.array([0.0, t]))[-1]
    assert np.allclose(got, want, atol=1e-8)


def _assert_expm_matches_scipy(a):
    want = expm(a)
    scale = max(1.0, np.abs(want).max())
    assert np.abs(dynamics._expm(a) - want).max() < 1e-12 * scale


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 8),
       n_collapse=st.integers(0, 4), log_norm=st.floats(-3.0, 3.0))
def test_expm_matches_scipy_on_liouvillians(seed, dim, n_collapse, log_norm):
    # dt scaled so that dt * ||L||_1 spans 1e-3 to 1e3: no squaring up to
    # about 5.4, and up to 8 squarings above it
    rng = np.random.default_rng(seed)
    collapse = [rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
                for _ in range(n_collapse)]
    lv = liouvillian(_random_hermitian(rng, dim), collapse)
    _assert_expm_matches_scipy(lv * (10.0 ** log_norm
                                     / np.abs(lv).sum(axis=0).max()))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 40),
       log_norm=st.floats(-3.0, 1.5))
def test_expm_matches_scipy_on_generic_matrices(seed, dim, log_norm):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    _assert_expm_matches_scipy(a * (10.0 ** log_norm
                                    / np.abs(a).sum(axis=0).max()))


BAD_GRIDS = {"empty": [], "two-d": [[0.0, 1.0], [2.0, 3.0]],
             "decreasing": [1.0, 0.5, 0.0], "nan": [0.0, np.nan, 1.0],
             "inf": [0.0, np.inf]}


@pytest.mark.parametrize("times", BAD_GRIDS.values(), ids=BAD_GRIDS.keys())
def test_propagation_rejects_bad_grids(times):
    # evolve_lindblad used to raise a bare IndexError on an empty grid and
    # a positivity NumericalError on a decreasing one
    h = np.diag([0.5, -0.5]).astype(complex)
    with pytest.raises(ValueError, match="non-empty ascending 1-d grid"):
        evolve_unitary(h, np.array([1.0, 0.0], complex), times)
    with pytest.raises(ValueError, match="non-empty ascending 1-d grid"):
        evolve_lindblad(h, np.diag([0.0, 1.0]).astype(complex),
                        [np.array([[0.0, 1.0], [0.0, 0.0]], complex)], times)


HUGE = np.diag([1e308, -1e308]).astype(complex)  # phases overflow to NaN
UP = np.array([1.0, 0.0], complex)


@pytest.mark.parametrize("call, error, match", [
    (lambda: propagator(np.diag([1.0, -1.0]), np.inf), ValueError,
     "propagator times must be finite"),
    (lambda: propagator(np.diag([1.0, -1.0]), 1.0, np.nan), ValueError,
     "propagator times must be finite"),
    (lambda: evolve_unitary(np.diag([np.nan, 0.0]), UP, [0.0, 1.0]),
     ValueError, "static part is not Hermitian"),
    (lambda: evolve_unitary([[0.0, np.inf], [np.inf, 0.0]], UP, [0.0, 1.0]),
     ValueError, "static part is not Hermitian"),
    (lambda: evolve_unitary(HUGE, UP, [0.0, 10.0]), NumericalError,
     "norm drift nan"),
    (lambda: propagator(HUGE, 10.0), NumericalError,
     "unitarity defect nan"),
    (lambda: evolve_lindblad(HUGE, np.diag([1.0, 0.0]).astype(complex), [],
                             [0.0, 10.0]), NumericalError, "trace drift"),
], ids=["propagator-inf-t1", "propagator-nan-t0", "nan-hamiltonian",
        "inf-hamiltonian", "unitary-nan-states", "propagator-nan",
        "lindblad-nan"])
def test_non_finite_numbers_fail_loudly(call, error, match):
    # each of these returned NaN, or a matrix full of it, without raising
    with np.errstate(all="ignore"):
        with pytest.raises(error, match=match):
            call()


def test_expectation_shapes():
    states = np.array([[1.0, 0.0], [0.0, 1.0]], complex)
    sz = np.diag([1.0, -1.0]).astype(complex)
    assert np.allclose(expectation(states, sz), [1.0, -1.0], atol=0)
    rhos = np.stack([np.diag([1.0, 0.0]), np.diag([0.25, 0.75])]).astype(complex)
    assert np.allclose(expectation(rhos, sz), [1.0, -0.5], atol=1e-15)
    with pytest.raises(ValueError):
        expectation(np.zeros((2, 2, 2, 2)), sz)


def test_overlap_population():
    states = np.array([[1.0, 0.0], [np.sqrt(0.5), np.sqrt(0.5)]], complex)
    target = np.array([1.0, 0.0], complex)
    assert np.allclose(overlap_population(states, target), [1.0, 0.5], atol=1e-15)


def test_fit_decay_exponential():
    rng = np.random.default_rng(2)
    t = np.linspace(0.0, 10.0, 200)
    y = 0.8 * np.exp(-t / 2.5) + 0.1 + rng.normal(scale=1e-3, size=t.size)
    fit = fit_decay(t, y, "exponential")
    assert fit.params["tau"] == pytest.approx(2.5, rel=0.01)
    assert fit.params["amplitude"] == pytest.approx(0.8, rel=0.02)
    assert fit.params["offset"] == pytest.approx(0.1, abs=0.005)
    assert fit.rms_residual < 5e-3


def test_fit_decay_unknown_model():
    with pytest.raises(ValueError):
        fit_decay(np.arange(4.0), np.ones(4), "nope")


@pytest.mark.parametrize("model", ["exponential"])
def test_fit_does_not_wobble_with_the_data(model):
    # criterion 10's shape (a noisy decay over 1.2 lifetimes, fitted from
    # a given guess): a 1e-11 relative change of the data, what a change
    # of propagation path leaves, moves the fit by less than 1e-9
    rng = np.random.default_rng(7)
    t = np.linspace(0.0, 24.0, 3001)
    y = np.exp(-t / 20.0) + 0.01 * rng.normal(size=t.size)
    p0 = (1.0, 20.0, 0.0)
    base = fit_decay(t, y, model, p0=p0)
    for _ in range(4):
        moved = fit_decay(t, y * (1.0 + 1e-11 * rng.normal(size=t.size)),
                          model, p0=p0)
        for key in ("amplitude", "tau"):
            assert moved.params[key] == pytest.approx(base.params[key],
                                                      rel=1e-9)
