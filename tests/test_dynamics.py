from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.linalg import expm

from darkqubit import dynamics
from darkqubit.driving import Harmonic, TimeDependentHamiltonian
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


def test_fit_decay_gaussian_and_sin2():
    t = np.linspace(0.0, 5.0, 300)
    fit = fit_decay(t, np.exp(-((t / 1.7) ** 2)), "gaussian")
    assert fit.params["tau"] == pytest.approx(1.7, rel=1e-6)
    y = 0.9 * np.sin(0.8 * t) ** 2
    fit2 = fit_decay(t, y, "sin2")
    assert fit2.params["rate"] == pytest.approx(0.8, rel=1e-6)
    assert fit2.params["amplitude"] == pytest.approx(0.9, rel=1e-6)


def test_fit_decay_damped_cosine():
    t = np.linspace(0.0, 20.0, 600)
    y = 0.5 * np.exp(-t / 6.0) * np.cos(2.3 * t + 0.4) + 0.2
    fit = fit_decay(t, y, "damped-cosine")
    assert fit.params["tau"] == pytest.approx(6.0, rel=1e-4)
    assert fit.params["omega"] == pytest.approx(2.3, rel=1e-5)


def test_fit_decay_unknown_model():
    with pytest.raises(ValueError):
        fit_decay(np.arange(4.0), np.ones(4), "nope")
