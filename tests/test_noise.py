from __future__ import annotations

import inspect
import math
import os
import re
import signal
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from darkqubit import noise as noise_mod
from darkqubit.driving import compact_construction
from darkqubit.gates import protected_report
from darkqubit.levels import ca40_dp
from darkqubit.noise import (
    KINDS,
    NoiseProcess,
    evolve_noisy,
    sample_trajectories,
    spectral_density,
)

SZ = np.diag([0.5, -0.5]).astype(complex)
SX = np.array([[0.0, 0.5], [0.5, 0.0]], complex)


def _generator(noise, index):
    """Trajectory index's generator, built the documented way: the
    reference for the batch-seeded generators."""
    seq = np.random.SeedSequence(entropy=noise.seed, spawn_key=(index,))
    return np.random.Generator(np.random.PCG64(seq))


def test_process_validation():
    assert KINDS == ("ornstein-uhlenbeck", "quasi-static-gaussian")
    with pytest.raises(ValueError):
        NoiseProcess("pink", sigma=0.1)
    with pytest.raises(ValueError):
        NoiseProcess("ornstein-uhlenbeck", sigma=0.1)  # needs tau_c
    for sigma in (-0.5, np.nan, np.inf):
        with pytest.raises(ValueError, match="sigma must be finite"):
            NoiseProcess("quasi-static-gaussian", sigma=sigma)
    for tau_c in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="finite tau_c > 0"):
            NoiseProcess("ornstein-uhlenbeck", sigma=0.1, tau_c=tau_c)


def test_ou_spectral_density_is_lorentzian():
    sigma, tau = 0.5, 2.0
    p = NoiseProcess("ornstein-uhlenbeck", sigma=sigma, tau_c=tau)
    w = np.array([0.0, 0.3, 0.5, 2.0, 17.0])
    want = 2 * sigma**2 * tau / (1 + (w * tau) ** 2)
    assert np.allclose(spectral_density(p, w), want, atol=1e-12)
    assert spectral_density(p, 0.0) == pytest.approx(2 * sigma**2 * tau, abs=1e-15)


def test_quasi_static_spectral_density():
    p = NoiseProcess("quasi-static-gaussian", sigma=0.5)
    s = spectral_density(p, np.array([0.0, 1.0]))
    assert s[0] == pytest.approx(0.25)
    assert s[1] == 0.0


def test_quasi_static_trajectories():
    p = NoiseProcess("quasi-static-gaussian", sigma=0.7, seed=11)
    t = np.linspace(0.0, 5.0, 64)
    traj = sample_trajectories(p, t, 4096)
    assert traj.shape == (4096, 64)
    # each trajectory is a frozen offset
    assert np.abs(traj - traj[:, :1]).max() == 0.0
    draws = traj[:, 0]
    assert draws.mean() == pytest.approx(0.0, abs=0.05)
    assert draws.std() == pytest.approx(0.7, rel=0.05)


@pytest.mark.parametrize("seed", [0, 3, 11, 2024, 99991])
def test_quasi_static_value_is_first_normal_of_each_stream(seed):
    p = NoiseProcess("quasi-static-gaussian", sigma=0.7, seed=seed)
    t = np.linspace(0.0, 5.0, 37)
    first = np.stack([_generator(p, k).standard_normal(len(t))
                      for k in range(24)])[:, :1]
    want = 0.7 * np.repeat(first, len(t), axis=1)
    assert np.array_equal(sample_trajectories(p, t, 24), want)


@settings(max_examples=60, deadline=None)
@given(seed=st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1),
                      st.integers(2**64, 2**128),
                      st.integers(2**128 + 1, 2**256)),
       n=st.integers(1, 1024))
def test_batch_seed_words_match_seed_sequence(seed, n):
    want = np.array([np.random.SeedSequence(entropy=seed, spawn_key=(k,))
                     .generate_state(4, np.uint64) for k in range(n)])
    got = noise_mod._seed_words(seed, n)
    assert got.dtype == np.uint64
    assert np.array_equal(got, want)


@pytest.mark.parametrize("seed", [0, 23, 2**40 + 7, 2**150 + 9])
def test_batch_generators_give_the_reference_streams(seed):
    p = NoiseProcess("ornstein-uhlenbeck", sigma=0.5, tau_c=1.0, seed=seed)
    got = [gen.standard_normal(4) for gen in noise_mod._generators(p, 300)]
    want = [_generator(p, k).standard_normal(4) for k in range(300)]
    assert np.array_equal(got, want)


@pytest.mark.parametrize("dtype", [np.int64, np.uint64])
def test_numpy_integer_seeds_match_the_python_int(dtype):
    seed = 2**40 + 7
    assert np.array_equal(noise_mod._seed_words(dtype(seed), 64),
                          noise_mod._seed_words(seed, 64))

    def process(seed):
        return NoiseProcess("ornstein-uhlenbeck", sigma=0.5, tau_c=1.0,
                            seed=seed)

    got = [gen.standard_normal(4)
           for gen in noise_mod._generators(process(dtype(seed)), 64)]
    want = [_generator(process(seed), k).standard_normal(4)
            for k in range(64)]
    assert np.array_equal(got, want)


@pytest.mark.parametrize("kind", KINDS)
def test_negative_seed_raises_as_seed_sequence_does(kind):
    with pytest.raises(ValueError) as raised:
        np.random.SeedSequence(entropy=-1, spawn_key=(0,))
    p = NoiseProcess(kind, sigma=0.5, tau_c=1.0, seed=-1)
    with pytest.raises(ValueError, match=f"^{re.escape(str(raised.value))}$"):
        sample_trajectories(p, np.linspace(0.0, 1.0, 5), 4)


def test_seed_words_serve_only_pcg64s_request():
    words = noise_mod._seed_words(5, 1)[0]
    seq = noise_mod._seed_words_type()(words)
    assert seq.generate_state(4, np.uint64) is words
    for args in ((4,), (4, np.uint32), (8, np.uint64), (2, np.uint64)):
        with pytest.raises(ValueError, match="holds 4 uint64 words"):
            seq.generate_state(*args)


def test_trajectory_seed_determinism():
    t = np.linspace(0.0, 5.0, 32)
    for kind, kw in (
        ("quasi-static-gaussian", {}),
        ("ornstein-uhlenbeck", {"tau_c": 1.3}),
    ):
        a = sample_trajectories(NoiseProcess(kind, sigma=0.4, seed=3, **kw), t, 16)
        b = sample_trajectories(NoiseProcess(kind, sigma=0.4, seed=3, **kw), t, 16)
        c = sample_trajectories(NoiseProcess(kind, sigma=0.4, seed=4, **kw), t, 16)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


def test_ou_trajectory_statistics():
    sigma, tau = 0.6, 1.5
    p = NoiseProcess("ornstein-uhlenbeck", sigma=sigma, tau_c=tau, seed=7)
    t = np.linspace(0.0, 30.0, 601)
    traj = sample_trajectories(p, t, 800)
    # stationary from the start
    assert traj[:, 0].std() == pytest.approx(sigma, rel=0.1)
    assert traj.std() == pytest.approx(sigma, rel=0.05)
    assert abs(traj.mean()) < 0.05
    # autocorrelation decays with the advertised correlation time
    dt = t[1] - t[0]
    for lag in (4, 10, 20):
        corr = np.mean(traj[:, :-lag] * traj[:, lag:]) / traj.var()
        assert corr == pytest.approx(np.exp(-lag * dt / tau), abs=0.05)


def test_evolve_noisy_quasi_static_gaussian_decay():
    # frozen Gaussian detunings dephase the pair as exp(-sigma^2 t^2 / 2);
    # this closed form is exact, so only sampling error remains
    sigma = 0.4
    p = NoiseProcess("quasi-static-gaussian", sigma=sigma, seed=7)
    psi0 = np.array([1.0, 1.0], complex) / np.sqrt(2)
    times = np.linspace(0.0, 6.0 / sigma, 40)
    rhos = evolve_noisy(np.zeros((2, 2), complex), psi0, p, SZ, times, n_traj=4096)
    coh = 2 * rhos[:, 0, 1].real
    want = np.exp(-(sigma**2) * times**2 / 2)
    # tolerance is sampling error: ~1/sqrt(n_traj) per point, worst of 40
    assert np.abs(coh - want).max() < 0.03


def test_evolve_noisy_ou_dephasing_closed_form():
    # classical Gaussian dephasing by an OU process:
    # |<coh>| = exp(-sigma^2 tau^2 (t/tau - 1 + exp(-t/tau)))
    sigma, tau = 0.5, 1.0
    p = NoiseProcess("ornstein-uhlenbeck", sigma=sigma, tau_c=tau, seed=13)
    psi0 = np.array([1.0, 1.0], complex) / np.sqrt(2)
    times = np.linspace(0.0, 12.0, 241)  # dt = tau/20
    rhos = evolve_noisy(np.zeros((2, 2), complex), psi0, p, SZ, times, n_traj=8192)
    coh = 2 * rhos[:, 0, 1].real
    x = times / tau
    want = np.exp(-(sigma**2) * tau**2 * (x - 1 + np.exp(-x)))
    assert np.abs(coh - want).max() < 0.03


def test_evolve_noisy_transverse_golden_rule():
    # fast transverse noise flips the qubit at S(omega0)/4 per direction, so
    # <sz> relaxes at S(omega0)/2
    omega0, sigma, tau = 5.0, 0.4, 0.2  # omega0 * tau = 1
    p = NoiseProcess("ornstein-uhlenbeck", sigma=sigma, tau_c=tau, seed=23)
    rate = (2 * sigma**2 * tau / (1 + (omega0 * tau) ** 2)) / 2
    h = np.diag([omega0 / 2, -omega0 / 2]).astype(complex)
    t_end = 1.5 / rate
    times = np.linspace(0.0, t_end, 1501)
    rhos = evolve_noisy(h, np.array([1.0, 0.0], complex), p, SX, times, n_traj=512)
    sz = 2 * rhos[:, 0, 0].real - 1
    # fit the exponential rate over the simulated window
    from darkqubit.dynamics import fit_decay

    fit = fit_decay(times, sz, "exponential", p0=(1.0, 1 / rate, 0.0))
    assert 1 / fit.params["tau"] == pytest.approx(rate, rel=0.3)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("times", [[], [[0.0, 1.0], [2.0, 3.0]],
                                   [1.0, 0.5, 0.0], [0.0, np.nan]],
                         ids=["empty", "two-d", "decreasing", "nan"])
def test_evolve_noisy_rejects_bad_grids(kind, times):
    # a decreasing OU grid used to give NaN density matrices, an empty one
    # a bare IndexError
    p = NoiseProcess(kind, sigma=0.5, tau_c=1.0, seed=3)
    with pytest.raises(ValueError, match="non-empty ascending 1-d grid"):
        evolve_noisy(np.zeros((2, 2), complex), np.array([1.0, 0.0], complex),
                     p, SZ, times, n_traj=4)


@pytest.mark.parametrize("kind", KINDS)
def test_noise_takes_uniform_grids_only(kind):
    # a ragged grid is refused by both entry points; one point and a zero
    # span are uniform grids of step 0, on which no time passes
    p = NoiseProcess(kind, sigma=0.3, tau_c=1.0, seed=5)
    h = np.diag([0.7, -0.7]).astype(complex)
    psi0 = np.array([1.0, 1.0], complex) / np.sqrt(2)
    ragged = np.cumsum(np.linspace(0.05, 0.15, 41)) - 0.05
    with pytest.raises(ValueError, match="uniform time grid"):
        sample_trajectories(p, ragged, 4)
    with pytest.raises(ValueError, match="uniform time grid"):
        evolve_noisy(h, psi0, p, SX, ragged, n_traj=4)
    for times in ([0.3], [0.3, 0.3, 0.3]):
        traj = sample_trajectories(p, times, 4)
        assert np.array_equal(traj, np.repeat(traj[:, :1], len(times), 1))
        rho = evolve_noisy(h, psi0, p, SX, times, n_traj=4)
        assert rho.shape == (len(times), 2, 2)
        assert np.abs(rho - np.outer(psi0, psi0.conj())).max() < 1e-15


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("times, n_traj, match", [
    ([], 4, "non-empty ascending 1-d grid"),
    ([[0.0, 0.1]], 4, "non-empty ascending 1-d grid"),
    ([1.0, 0.5, 0.0], 4, "non-empty ascending 1-d grid"),
    ([0.0, 1.0], 0, "n_traj"),
], ids=["empty", "two-d", "decreasing", "no-trajectories"])
def test_sample_trajectories_rejects_bad_input(kind, times, n_traj, match):
    # a decreasing OU grid used to give NaN after the first column, and a
    # 2-d one an array of the wrong shape, as evolve_noisy's inputs did
    p = NoiseProcess(kind, sigma=0.5, tau_c=1.0, seed=3)
    with pytest.raises(ValueError, match=match):
        sample_trajectories(p, times, n_traj)


@pytest.mark.parametrize("ham, noise_op, what", [
    ([[0.0, 1.0], [0.0, 0.0]], SZ, "static part"),
    (np.zeros((2, 2)), [[0.0, 1.0], [0.0, 0.0]], "noise_op"),
], ids=["ham", "noise_op"])
def test_evolve_noisy_rejects_non_hermitian_operators(ham, noise_op, what):
    # both used to be read from their lower triangle: the upper coupling
    # of ham was dropped and the population stayed 1.0
    p = NoiseProcess("quasi-static-gaussian", sigma=0.5, seed=3)
    with pytest.raises(ValueError, match=f"{what} is not Hermitian"):
        evolve_noisy(ham, np.array([1.0, 0.0], complex), p, noise_op,
                     np.linspace(0.0, 1.0, 5), n_traj=4)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("psi0, noise_op, match", [
    ([2.0, 0.0], SZ, "psi0 must be normalized"),
    ([1.0, 2e-4], SZ, "psi0 must be normalized"),
    ([1.0, 0.0, 0.0], SZ, r"psi0 has shape \(3,\)"),
    ([[1.0, 0.0]], SZ, r"psi0 has shape \(1, 2\)"),
    ([1.0, 0.0], np.eye(3), r"noise_op has shape \(3, 3\), ham has \(2, 2\)"),
], ids=["trace-4", "off-by-2e-8", "long", "two-d", "noise-op-3x3"])
def test_evolve_noisy_rejects_bad_state_and_noise_op(kind, psi0, noise_op,
                                                     match):
    # psi0 = [2, 0] used to give density matrices of trace 4, and a 3x3
    # noise_op a broadcast error from inside numpy
    p = NoiseProcess(kind, sigma=0.5, tau_c=1.0, seed=3)
    with pytest.raises(ValueError, match=match):
        evolve_noisy(np.zeros((2, 2), complex), np.array(psi0, complex), p,
                     noise_op, np.linspace(0.0, 1.0, 5), n_traj=4)


def test_evolve_noisy_threads_do_not_change_result():
    p = NoiseProcess("ornstein-uhlenbeck", sigma=0.3, tau_c=1.0, seed=5)
    psi0 = np.array([1.0, 1.0], complex) / np.sqrt(2)
    times = np.linspace(0.0, 4.0, 33)
    a = evolve_noisy(np.zeros((2, 2), complex), psi0, p, SZ, times, n_traj=64, threads=1)
    b = evolve_noisy(np.zeros((2, 2), complex), psi0, p, SZ, times, n_traj=64, threads=4)
    assert np.array_equal(a, b)


def _ou_reference(noise, times, n_traj):
    """The step-by-step OU recurrence on the same unit draws."""
    draws = np.array([_generator(noise, k).standard_normal(len(times))
                      for k in range(n_traj)])
    decay = np.exp(-np.diff(times) / noise.tau_c)
    kick = noise.sigma * np.sqrt(1.0 - decay**2)
    traj = np.empty_like(draws)
    traj[:, 0] = noise.sigma * draws[:, 0]
    for k in range(len(times) - 1):
        traj[:, k + 1] = traj[:, k] * decay[k] + kick[k] * draws[:, k + 1]
    return traj


def _one_shot_blocked(noise, times, n_traj):
    """The sampler before streaming: one draw per trajectory, then blocked
    Toeplitz GEMMs from column 1 over the whole [n_traj, nt] array."""
    draws = np.array([_generator(noise, k).standard_normal(len(times))
                      for k in range(n_traj)])
    draws[:, 0] *= noise.sigma
    block = noise_mod._BLOCK
    dt = noise_mod._grid_step(times)
    decay = math.exp(-dt / noise.tau_c)
    kick = noise.sigma * math.sqrt(1.0 - decay**2)
    lag = np.subtract.outer(np.arange(block), np.arange(block))
    toeplitz = np.where(lag >= 0, kick * decay ** np.maximum(lag, 0), 0.0)
    carry = decay ** np.arange(1, block + 1)
    for start in range(1, len(times), block):
        width = min(block, len(times) - start)
        out = draws[:, start:start + width] @ toeplitz[:width, :width].T
        out += draws[:, start - 1, None] * carry[:width]
        draws[:, start:start + width] = out
    return draws


CHUNK = noise_mod._CHUNK


@pytest.mark.parametrize("nt", sorted({1, 2, 63, 64, 65, 130, 1001, CHUNK,
                                       CHUNK + 1, CHUNK + 2, 2 * CHUNK + 1,
                                       2048, 2049, 2050, 3000, 4097}))
def test_blocked_ou_sampler_matches_recurrence(nt):
    # the streamed sampler gives the one-shot values bit for bit, whichever
    # chunk the grid ends in
    p = NoiseProcess("ornstein-uhlenbeck", sigma=0.8, tau_c=0.3, seed=19)
    times = np.linspace(0.0, 0.01 * nt, nt)
    got = sample_trajectories(p, times, 24)
    if nt > 1:
        assert np.array_equal(got, _one_shot_blocked(p, times, 24))
    assert np.abs(got - _ou_reference(p, times, 24)).max() < 1e-12


def test_uniform_grid_detection():
    assert noise_mod._grid_step(np.linspace(0.0, 1197.3, 16836)) == \
        pytest.approx(1197.3 / 16835, rel=1e-14)
    assert noise_mod._grid_step(np.arange(5) * 0.1 + 3.0) == pytest.approx(0.1)
    # one point and a zero span are uniform, with step 0
    for times in ([0.0], [0.0, 0.0], [2.5, 2.5, 2.5]):
        assert noise_mod._grid_step(np.array(times)) == 0.0
    bumped = np.linspace(0.0, 1.0, 101)
    bumped[50] += 1e-8
    for times in ([0.0, 0.1, 0.3], [0.0, 0.0, 1.0], bumped):
        with pytest.raises(ValueError, match="uniform time grid"):
            noise_mod._grid_step(np.array(times))


@pytest.mark.parametrize("off, uniform", [(0.5e-9, True), (-0.5e-9, True),
                                         (2e-9, False), (-2e-9, False)])
def test_uniform_grid_tolerance_boundary(off, uniform):
    # one step longer or shorter by |off| relative: it lies 0.99 |off|
    # from the mean step, which the rule allows within _UNIFORM_RTOL = 1e-9
    times = np.linspace(0.0, 1.0, 101)
    times[51:] += off * 0.01
    if uniform:
        assert noise_mod._grid_step(times) == pytest.approx(0.01, rel=1e-10)
    else:
        with pytest.raises(ValueError, match="uniform time grid"):
            noise_mod._grid_step(times)


def _kernel_run(advance, traj, psi0):
    """Average state of one advance(amps, psi, out) over all of traj."""
    n = len(traj)
    rho = np.empty((traj.shape[1], len(psi0), len(psi0)), dtype=complex)
    rho[0] = n * np.outer(psi0, psi0.conj())
    advance(traj[:, :-1], np.repeat(psi0[:, None], n, axis=1), rho[1:])
    return rho / n


def _eigh_reference(static, noise_op, traj, psi0, times):
    """Per-step exact propagation: the reference for every other path."""
    def advance(amps, psi, out):
        noise_mod._propagate_eigh(static, noise_op, amps,
                                  noise_mod._grid_step(times), psi, out)
    return _kernel_run(advance, traj, psi0)


def _table_vs_eigh(static, noise_op, psi0, proc, times, n_traj):
    traj = sample_trajectories(proc, times, n_traj)
    table = noise_mod._StepTable(static, noise_op,
                                 noise_mod._grid_step(times), n_traj)
    assert table.cover(float(np.abs(traj).max()))
    fast = _kernel_run(table.advance, traj, psi0)
    exact = _eigh_reference(static, noise_op, traj, psi0, times)
    return len(table.coeffs), float(np.abs(fast - exact).max())


# criterion 10's transverse-OU ensembles: x = omega0 tau_c, sigma, n_traj
GOLDEN_RULE_ENSEMBLES = [(0.1, 1.2, 384), (1.0, 0.4, 512), (10.0, 0.25, 384)]


def _golden_rule_case(x, sigma):
    """Hamiltonian, process and grid of criterion 10's ensemble at x."""
    omega0 = 5.0
    tau = x / omega0
    proc = NoiseProcess("ornstein-uhlenbeck", sigma=sigma, tau_c=tau, seed=23)
    rate = sigma**2 * tau / (1.0 + x**2)
    dt = min(tau / 8.0, 2.0 * math.pi / omega0 / 8.0)
    horizon = 1.2 / rate
    times = np.linspace(0.0, horizon, int(math.ceil(horizon / dt)) + 1)
    return np.diag([omega0 / 2.0, -omega0 / 2.0]).astype(complex), proc, times


@pytest.mark.parametrize("x, sigma, n_traj", GOLDEN_RULE_ENSEMBLES)
def test_step_table_matches_eigh_on_golden_rule_ensembles(x, sigma, n_traj):
    # cut to their first 2000 steps
    h, proc, times = _golden_rule_case(x, sigma)
    order, dev = _table_vs_eigh(h, SX, np.array([1.0, 0.0], complex), proc,
                                times[:2001], n_traj)
    assert 2 <= order <= 16
    assert dev <= 1e-10


def _compact_ca40_case():
    """Static part, Zeeman generator and dark superposition at d = 6."""
    scheme = ca40_dp()
    con = compact_construction(scheme, 0.3, 1.0)
    report = protected_report(con)
    psi0 = (report.dark_states[0] + report.dark_states[1]) / np.sqrt(2.0)
    return con.ip.static, scheme.zeeman_generator(), psi0


def test_step_table_matches_eigh_on_compact_ca40():
    static, zeeman, psi0 = _compact_ca40_case()
    proc = NoiseProcess("ornstein-uhlenbeck", sigma=0.02, tau_c=2.0, seed=5)
    times = np.linspace(0.0, 200.0, 1001)
    order, dev = _table_vs_eigh(static, zeeman, psi0, proc, times, 64)
    assert order >= 2
    assert dev <= 1e-10


_REF_BLOCK = 64


def _ref_advance(self, amps, psi, out):
    """Table propagation in fixed 64-step blocks with a fresh array per
    step: the reference that _StepTable.advance matches bit for bit.  It
    makes the buffers that a table of 64-step blocks would hold."""
    n, nt = amps.shape
    coeffs, beta = self.coeffs, self.beta
    order, dim = len(coeffs), psi.shape[0]
    cheb = np.empty((order, _REF_BLOCK * n))
    props_buf = np.empty((_REF_BLOCK * n, 2 * dim * dim))
    states_buf = np.empty((_REF_BLOCK, dim, n), dtype=complex)
    bras_buf = np.empty_like(states_buf)
    for start in range(0, nt, _REF_BLOCK):
        steps = min(_REF_BLOCK, nt - start)
        poly = cheb[:order, :steps * n]
        poly[0] = 1.0
        if order > 1:
            np.divide(amps[:, start:start + steps].T, beta,
                      out=poly[1].reshape(steps, n))
        for k in range(2, order):
            np.multiply(poly[1], poly[k - 1], out=poly[k])
            poly[k] *= 2.0
            poly[k] -= poly[k - 2]
        props = np.matmul(poly.T, coeffs, out=props_buf[:steps * n])
        props = props.view(complex).reshape(
            steps, n, dim, dim).transpose(0, 2, 3, 1)
        states = states_buf[:steps]
        for m in range(steps):
            psi = (props[m] * psi).sum(axis=1)
            states[m] = psi
        bras = np.conj(states, out=bras_buf[:steps])
        np.matmul(states, bras.transpose(0, 2, 1),
                  out=out[start:start + steps])
    return psi


def _random_table(dim, n, seed):
    """A _StepTable over random Hermitian operators for n trajectories,
    covering |b| <= 3."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(2, dim, dim)) + 1j * rng.normal(size=(2, dim, dim))
    static, noise_op = a + a.conj().transpose(0, 2, 1)
    table = noise_mod._StepTable(static, noise_op / 4.0, 0.05, n)
    assert table.cover(3.0)
    psi0 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return table, psi0 / np.linalg.norm(psi0), rng


@pytest.mark.parametrize("dim", [2, 6])
@pytest.mark.parametrize("n", [1, 5, 384, 1024])
def test_cache_sized_blocks_match_64_step_blocks(dim, n):
    # every grid length around the derived block and past one chunk gives
    # the 64-step reference's density matrices and states bit for bit
    table, psi0, rng = _random_table(dim, n, seed=10 * dim + n)
    block = table.block
    assert 1 <= block <= 64
    psi = np.repeat(psi0[:, None], n, axis=1)
    for nt in sorted({1, max(1, block - 1), block, block + 1, CHUNK + 1}):
        amps = rng.uniform(-3.0, 3.0, size=(n, nt))
        want = np.empty((nt, dim, dim), dtype=complex)
        got = np.empty_like(want)
        want_psi = _ref_advance(table, amps, psi, want)
        got_psi = table.advance(amps, psi, got)
        assert np.array_equal(got, want)
        assert np.array_equal(got_psi, want_psi)


def _one_cpu(monkeypatch):
    """Make the fork rule see one CPU, so that every half of an ensemble
    is summed in this process."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})


@pytest.mark.parametrize("dim", [2, 6])
def test_rebuilt_table_run_matches_64_step_blocks(monkeypatch, dim):
    # a run long enough for later chunks to raise the peak and rebuild
    # the table gives what 64-step blocks give, bit for bit
    if dim == 2:
        h, op, psi0 = (np.diag([2.5, -2.5]).astype(complex), SX,
                       np.array([1.0, 0.0], complex))
        p = NoiseProcess("ornstein-uhlenbeck", sigma=0.4, tau_c=0.2, seed=23)
        n_traj, dt = 128, 0.025
    else:
        h, op, psi0 = _compact_ca40_case()
        p = NoiseProcess("ornstein-uhlenbeck", sigma=0.02, tau_c=2.0, seed=5)
        n_traj, dt = 32, 0.2
    times = np.linspace(0.0, dt * 4 * CHUNK, 4 * CHUNK + 1)
    _one_cpu(monkeypatch)  # so that both halves' builds are recorded here
    builds = _record_builds(monkeypatch)
    got = evolve_noisy(h, psi0, p, op, times, n_traj=n_traj)
    # one first build per half of the ensemble, and at least one rebuild
    halves = 2 if n_traj >= noise_mod._SPLIT else 1
    assert len(builds) >= halves + 1
    assert all(table is not None for _, table in builds)
    assert noise_mod._table_block(n_traj, dim, len(builds[-1][1])) < 64
    monkeypatch.setattr(noise_mod._StepTable, "advance", _ref_advance)
    want = evolve_noisy(h, psi0, p, op, times, n_traj=n_traj)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("n, dim", [(1024, 6), (384, 2)])
def test_step_table_work_buffers_fit_the_byte_budget(n, dim):
    # all that a table holds fits _TABLE_BYTES unless one step alone does
    # not, a block one step longer would not fit, and advancing keeps
    # nothing but the state it returns (numpy's iterators still take
    # scratch memory for the strided operands while a step runs)
    budget = noise_mod._TABLE_BYTES
    _random_table(dim, 1, seed=0)  # numpy.linalg allocates on first use
    tracemalloc.start()
    try:
        table, psi0, rng = _random_table(dim, n, seed=n)
        held = tracemalloc.get_traced_memory()[0]
        amps = rng.uniform(-3.0, 3.0, size=(n, 3 * table.block + 1))
        psi = np.repeat(psi0[:, None], n, axis=1)
        out = np.empty((amps.shape[1], dim, dim), dtype=complex)
        before = tracemalloc.get_traced_memory()[0]
        last = table.advance(amps, psi, out)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    per_step = sum(buf.nbytes for buf in (table.cheb, table.props,
                                          table.states, table.bras)) \
        // table.block
    assert held <= budget or table.block == 1
    assert held + per_step > budget
    assert kept <= last.nbytes + 1024
    # 1024 six-level trajectories take the minimum block
    assert table.block == 1 if dim == 6 else table.block > 1


def test_table_block_rule():
    # between 1 and 64 steps, fewer as trajectories or levels are added
    ns = [1, 2, 5, 32, 128, 384, 1024, 4096, 65536]
    dims = [1, 2, 4, 6, 8, 16, 32]
    blocks = np.array([[noise_mod._table_block(n, dim, 8) for dim in dims]
                       for n in ns])
    assert blocks.min() == 1 and blocks.max() == 64
    assert np.all(np.diff(blocks, axis=0) <= 0)
    assert np.all(np.diff(blocks, axis=1) <= 0)
    assert noise_mod._table_block(1, 2, 8) == 64
    assert noise_mod._table_block(1024, 6, 8) == 1


def test_evolve_noisy_chooses_path_by_grid(monkeypatch):
    # a uniform grid whose |b| dt the table covers never reaches eigh
    p = NoiseProcess("ornstein-uhlenbeck", sigma=0.3, tau_c=1.0, seed=5)
    h = np.diag([0.7, -0.7]).astype(complex)
    psi0 = np.array([1.0, 1.0], complex) / np.sqrt(2)
    uniform = np.linspace(0.0, 4.0, 41)

    def forbidden(*args):
        raise AssertionError("wrong propagation path")

    monkeypatch.setattr(noise_mod, "_propagate_eigh", forbidden)
    fast = evolve_noisy(h, psi0, p, SX, uniform, n_traj=32)
    monkeypatch.undo()
    traj = sample_trajectories(p, uniform, 32)
    assert np.abs(fast - _eigh_reference(h, SX, traj, psi0, uniform)).max() < 1e-12


def test_step_table_gives_way_to_eigh_when_b_dt_is_large():
    h = np.diag([0.5, -0.5]).astype(complex)
    assert noise_mod._chebyshev_table(h, SX, 3000.0, 1.0) is None
    p = NoiseProcess("ornstein-uhlenbeck", sigma=800.0, tau_c=5.0, seed=2)
    times = np.linspace(0.0, 10.0, 11)
    psi0 = np.array([1.0, 0.0], complex)
    got = evolve_noisy(h, psi0, p, SX, times, n_traj=8)
    traj = sample_trajectories(p, times, 8)
    assert np.array_equal(got, _eigh_reference(h, SX, traj, psi0, times))


def _record_builds(monkeypatch):
    """Wrap _chebyshev_table so each build's beta and result are kept."""
    builds = []
    build = noise_mod._chebyshev_table

    def recorded(static, noise_op, beta, dt):
        table = build(static, noise_op, beta, dt)
        builds.append((beta, table))
        return table
    monkeypatch.setattr(noise_mod, "_chebyshev_table", recorded)
    return builds


def test_table_is_rebuilt_when_a_later_chunk_raises_the_peak(monkeypatch):
    builds = _record_builds(monkeypatch)
    p = NoiseProcess("ornstein-uhlenbeck", sigma=0.4, tau_c=0.2, seed=23)
    h = np.diag([2.5, -2.5]).astype(complex)
    psi0 = np.array([1.0, 0.0], complex)
    times = np.linspace(0.0, 0.025 * 4 * CHUNK, 4 * CHUNK + 1)
    got = evolve_noisy(h, psi0, p, SX, times, n_traj=16)
    traj = sample_trajectories(p, times, 16)
    # one build per chunk that set a new running maximum of |b|, the last
    # at the ensemble's peak
    betas = [beta for beta, _ in builds]
    assert len(betas) >= 2 and betas == sorted(set(betas))
    assert betas[-1] == np.abs(traj).max()
    assert np.abs(got - _eigh_reference(h, SX, traj, psi0, times)).max() < 1e-10


def test_table_gives_way_to_eigh_mid_run(monkeypatch):
    # the first chunk's |b| dt fits the table, a later chunk's does not:
    # the rest of the run continues with eigh from the propagated states
    h = np.diag([0.5, -0.5]).astype(complex)
    builds = _record_builds(monkeypatch)
    p = NoiseProcess("ornstein-uhlenbeck", sigma=100.0, tau_c=0.5, seed=7)
    psi0 = np.array([1.0, 0.0], complex)
    times = np.arange(4097, dtype=float)
    got = evolve_noisy(h, psi0, p, SX, times, n_traj=4)
    assert len(builds) >= 2
    assert builds[0][1] is not None and builds[-1][1] is None
    traj = sample_trajectories(p, times, 4)
    assert np.abs(got - _eigh_reference(h, SX, traj, psi0, times)).max() < 1e-10


@pytest.mark.parametrize("kind", KINDS)
def test_noise_memory_does_not_grow_with_n_traj_times_nt(kind):
    # a [n_traj, nt] float array of this run would take 21 MB; the OU
    # engine holds one chunk of it, the quasi-static one a value per
    # trajectory, each plus the [nt, 2, 2] result
    n_traj, nt = 96, 27307
    p = NoiseProcess(kind, sigma=0.4, tau_c=0.2, seed=5)
    h = np.diag([2.5, -2.5]).astype(complex)
    times = np.linspace(0.0, 0.025 * (nt - 1), nt)
    full = n_traj * nt * 8
    assert full > 20e6
    tracemalloc.start()
    try:
        rho = evolve_noisy(h, np.array([1.0, 0.0], complex), p, SX, times,
                           n_traj=n_traj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rho.shape == (nt, 2, 2)
    assert peak < full / 3


@pytest.mark.parametrize("chunk", [256, 2048])
def test_ou_values_do_not_depend_on_the_chunk_width(monkeypatch, chunk):
    # the blocks start at 1 + 64 j whatever the width, so every chunk
    # holds the one-shot values bit for bit
    p = NoiseProcess("ornstein-uhlenbeck", sigma=0.8, tau_c=0.3, seed=19)
    times = np.linspace(0.0, 30.0, 3001)
    want = sample_trajectories(p, times, 24)
    monkeypatch.setattr(noise_mod, "_CHUNK", chunk)
    start = 0
    for values in noise_mod._ou_chunks(p, times, 24):
        assert values.shape[1] <= chunk + 1
        assert np.array_equal(values, want[:, start:start + values.shape[1]])
        start += values.shape[1] - 1
    assert start == len(times) - 1


@pytest.mark.parametrize("x, sigma, n_traj", GOLDEN_RULE_ENSEMBLES)
def test_512_step_chunks_match_2048_step_chunks(monkeypatch, x, sigma,
                                                n_traj):
    # against 2048-step chunks the OU values are the same and only the
    # tables' rebuild points move, by their 1e-13 coefficient truncation:
    # 2.4e-12 at most, measured at x = 1
    h, proc, times = _golden_rule_case(x, sigma)
    psi0 = np.array([1.0, 0.0], complex)
    assert CHUNK == 512 and len(times) > 2048
    got = evolve_noisy(h, psi0, proc, SX, times, n_traj=n_traj)
    monkeypatch.setattr(noise_mod, "_CHUNK", 2048)
    want = evolve_noisy(h, psi0, proc, SX, times, n_traj=n_traj)
    assert np.abs(got - want).max() < 1e-11


def test_sampler_buffer_holds_one_512_step_chunk(monkeypatch):
    # 4096 trajectories summed here as two halves of 2048, one after the
    # other: each half's sampler holds 2048 x 513 floats (8.4 MB), not the
    # 2048 x 2049 of 2048-step chunks (34 MB), nor the 4096 rows of both
    _one_cpu(monkeypatch)
    held = []
    chunks = noise_mod._ou_chunks

    def traced(*args, **kwargs):
        tracemalloc.start()
        try:
            stream = chunks(*args, **kwargs)
            first = next(stream)
            largest = max(trace.size
                          for trace in tracemalloc.take_snapshot().traces)
        finally:
            tracemalloc.stop()
        held.append((len(first), largest))
        yield first
        yield from stream
    monkeypatch.setattr(noise_mod, "_ou_chunks", traced)
    p = NoiseProcess("ornstein-uhlenbeck", sigma=0.4, tau_c=0.2, seed=3)
    times = np.linspace(0.0, 0.025 * 1024, 1025)
    evolve_noisy(np.diag([2.5, -2.5]).astype(complex),
                 np.array([1.0, 0.0], complex), p, SX, times, n_traj=4096)
    assert [rows for rows, _ in held] == [2048, 2048]
    assert all(largest <= 2048 * 513 * 8 for _, largest in held)


def _quasi_static_per_time(static, noise_op, traj, psi0, times):
    # the per-time loop that the blocked quasi-static branch replaced
    vals, vecs = np.linalg.eigh(static[None] + traj[:, 0, None, None]
                                * noise_op)
    amps = np.einsum("nji,j->ni", vecs.conj(), psi0)
    rho_sum = np.empty((len(times),) + static.shape, dtype=complex)
    for k, t in enumerate(times):
        psi = np.einsum("nij,nj->ni", vecs,
                        np.exp(-1j * vals * (t - times[0])) * amps)
        rho_sum[k] = np.einsum("ni,nj->ij", psi, psi.conj())
    return rho_sum


def _quasi_static_deviation(static, noise_op, psi0, proc, times, n_traj):
    """Largest deviation of the blocked quasi-static branch from the
    per-time loop, per trajectory."""
    traj = sample_trajectories(proc, times, n_traj)
    got = np.empty((len(times),) + static.shape, dtype=complex)
    got[0] = n_traj * np.outer(psi0, psi0.conj())
    noise_mod._propagate_quasi_static(static, noise_op, traj[:, 0], psi0,
                                      times, got[1:])
    want = _quasi_static_per_time(static, noise_op, traj, psi0, times)
    return np.abs(got - want).max() / n_traj


@pytest.mark.parametrize("n_traj", [32, 1024])
def test_quasi_static_blocks_match_per_time_loop(n_traj):
    con = compact_construction(ca40_dp(), 0.3, 1.0)
    report = protected_report(con)
    psi0 = (report.dark_states[0] + report.dark_states[1]) / np.sqrt(2.0)
    zeeman = con.scheme.zeeman_generator()
    proc = NoiseProcess("quasi-static-gaussian", sigma=0.05, seed=3)
    assert not (con.ip.static.imag.any() or zeeman.imag.any())  # real eigh
    # blocks of this many times (one for 1024 trajectories) start at 1: a
    # grid shorter than one block, one ending on a block edge, one a step
    # past it, and many; on grids from t0 = 0.7 the averaged density
    # matrices agree to 1e-12
    block = max(1, noise_mod._QUASI_STATIC_BLOCK // (n_traj * con.dim))
    for nt in (2, block + 1, block + 2, 200):
        times = 0.7 + np.linspace(0.0, 150.0, nt)
        assert _quasi_static_deviation(con.ip.static, zeeman, psi0, proc,
                                       times, n_traj) < 1e-12
    # a complex Hermitian static part takes the complex eigh
    rng = np.random.default_rng(n_traj)
    a = rng.normal(size=(con.dim, con.dim)) \
        + 1j * rng.normal(size=(con.dim, con.dim))
    twisted = con.ip.static + 0.1 * (a + a.conj().T)
    times = 0.7 + np.linspace(0.0, 150.0, 200)
    assert _quasi_static_deviation(twisted, zeeman, psi0, proc, times,
                                   n_traj) < 1e-12
    # a horizon where max |lambda t| is about 1e4: each phase, here and in
    # the loop, is off by a few eps |lambda t| (about 1e-12), so the bound
    # is 16 eps max |lambda t|
    times = 0.7 + np.linspace(0.0, 1e4, 400)
    phase = np.abs(np.linalg.eigvalsh(con.ip.static)).max() * 1e4
    assert 0.9e4 < phase < 1.1e4
    assert _quasi_static_deviation(con.ip.static, zeeman, psi0, proc, times,
                                   n_traj) < 16 * np.finfo(float).eps * phase


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


def _split_case(dim):
    """Hamiltonian, noise operator, state, process and grid of a split
    ensemble: at d = 2 a transverse OU run past one chunk, at d = 6 the
    compact Ca-40 dark pair under Zeeman noise."""
    if dim == 2:
        p = NoiseProcess("ornstein-uhlenbeck", sigma=0.4, tau_c=0.2, seed=23)
        return (np.diag([2.5, -2.5]).astype(complex), SX,
                np.array([1.0, 0.0], complex), p,
                np.linspace(0.0, 0.025 * (CHUNK + 64), CHUNK + 65))
    static, zeeman, psi0 = _compact_ca40_case()
    p = NoiseProcess("ornstein-uhlenbeck", sigma=0.02, tau_c=2.0, seed=5)
    return static, zeeman, psi0, p, np.linspace(0.0, 60.0, 301)


def _forks(monkeypatch, always=True):
    """Record each os.fork call made in this process; with always, fork
    for any split ensemble, whatever its work, CPUs or threads."""
    if always:
        monkeypatch.setattr(noise_mod, "_FORK_WORK", 0)
        monkeypatch.setattr(noise_mod, "_can_fork", lambda: True)
    calls = []
    fork = os.fork

    def counted():
        calls.append(os.getpid())
        return fork()
    monkeypatch.setattr(os, "fork", counted)
    return calls


def _reaped(monkeypatch):
    """Record the exit code of each child that os.waitpid reaps (minus
    the signal number for a killed one)."""
    codes = []
    waitpid = os.waitpid

    def recorded(pid, options):
        got = waitpid(pid, options)
        if got[0]:
            codes.append(os.waitstatus_to_exitcode(got[1]))
        return got
    monkeypatch.setattr(os, "waitpid", recorded)
    return codes


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _in_process(monkeypatch, case, n_traj):
    """evolve_noisy(*case) summed in this process alone."""
    h, op, psi0, p, times = case
    with monkeypatch.context() as m:
        _one_cpu(m)
        forks = _forks(m, always=False)
        rho = evolve_noisy(h, psi0, p, op, times, n_traj=n_traj)
    assert forks == []
    return rho


def _forked(monkeypatch, case, n_traj):
    """evolve_noisy(*case) with a forked child wherever the ensemble is
    split; the child is reaped, having exited cleanly, before it returns."""
    h, op, psi0, p, times = case
    with monkeypatch.context() as m:
        forks, reaped = _forks(m), _reaped(m)
        rho = evolve_noisy(h, psi0, p, op, times, n_traj=n_traj)
    split = n_traj >= noise_mod._SPLIT
    assert len(forks) == reaped.count(0) == len(reaped) == split
    _assert_no_child()
    return rho


@needs_fork
@pytest.mark.parametrize("dim", [2, 6])
@pytest.mark.parametrize("n_traj", [127, 128, 129, 384, 512])
def test_forked_half_gives_the_in_process_bits(monkeypatch, dim, n_traj):
    # the upper half summed in a child adds the same bits as the same
    # call made here, for equal halves and for odd n_traj, where the upper
    # half is one trajectory short; below _SPLIT nothing is split
    case = _split_case(dim)
    assert np.array_equal(_forked(monkeypatch, case, n_traj),
                          _in_process(monkeypatch, case, n_traj))


def _overflow_case():
    # at 128 trajectories each half's first chunk keeps |b| dt within what
    # a table of 256 nodes covers (about 397 here), and a later chunk
    # does not: the halves' chunk peaks are 377, 411, 374, 316 and 359,
    # 364, 418, 367
    p = NoiseProcess("ornstein-uhlenbeck", sigma=90.0, tau_c=5.0, seed=10)
    return (np.diag([0.5, -0.5]).astype(complex), SX,
            np.array([1.0, 0.0], complex), p,
            np.arange(3 * CHUNK + 33, dtype=float))


def _spy_ou(monkeypatch):
    """Record each _propagate_ou call made in this process as its
    (n_traj, first) and the calls to _StepTable.advance and
    _propagate_eigh that it made."""
    calls = []
    propagate, advance = noise_mod._propagate_ou, noise_mod._StepTable.advance
    eigh = noise_mod._propagate_eigh

    def spied(*args, **kwargs):
        bound = inspect.signature(propagate).bind(*args, **kwargs)
        bound.apply_defaults()
        calls.append({"n_traj": bound.arguments["n_traj"],
                      "first": bound.arguments["first"],
                      "advance": 0, "eigh": 0})
        return propagate(*args, **kwargs)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[-1][name] += 1
            return fn(*args, **kwargs)
        return wrapper
    monkeypatch.setattr(noise_mod, "_propagate_ou", spied)
    monkeypatch.setattr(noise_mod._StepTable, "advance",
                        counted("advance", advance))
    monkeypatch.setattr(noise_mod, "_propagate_eigh", counted("eigh", eigh))
    return calls


def test_overflow_case_hands_each_half_from_table_to_eigh(monkeypatch):
    # each half of _overflow_case starts on its table and goes on with
    # eigh: of its four chunks (512, 512, 512 and 32 steps), the lower
    # half's first and the upper half's first two take the table
    h, op, psi0, p, times = _overflow_case()
    _one_cpu(monkeypatch)
    calls = _spy_ou(monkeypatch)
    evolve_noisy(h, psi0, p, op, times, n_traj=128)
    assert calls == [{"n_traj": 64, "first": 0, "advance": 1, "eigh": 3},
                     {"n_traj": 128, "first": 64, "advance": 2, "eigh": 2}]


@needs_fork
@pytest.mark.parametrize("case", [_overflow_case])
def test_halves_that_leave_the_table_give_the_forked_bits(monkeypatch, case):
    # where a half's table gives way to eigh, the halves run here one
    # after the other, with the forked child's bits
    case = case()
    assert np.array_equal(_forked(monkeypatch, case, 128),
                          _in_process(monkeypatch, case, 128))


@pytest.mark.parametrize("n_traj", [noise_mod._SPLIT - 1, noise_mod._SPLIT,
                                    noise_mod._SPLIT + 1])
def test_unforked_halves_make_the_forked_childs_call(monkeypatch, n_traj):
    # summed here, a split ensemble makes two single-output calls: the
    # lower half's, then the upper half's as the forked child makes it;
    # an ensemble below _SPLIT makes one
    h, op, psi0, p, times = _split_case(2)
    _one_cpu(monkeypatch)
    calls = _spy_ou(monkeypatch)
    evolve_noisy(h, psi0, p, op, times, n_traj=n_traj)
    half = -(-n_traj // 2)
    want = ([(half, 0), (n_traj, half)] if n_traj >= noise_mod._SPLIT
            else [(n_traj, 0)])
    assert [(c["n_traj"], c["first"]) for c in calls] == want


def test_split_sum_matches_one_pass_to_roundoff(monkeypatch):
    # two halves, each with its own table, against all trajectories in one
    # pass: the same trajectories, so only roundoff and the tables' own
    # truncation (1e-13 per coefficient) separate them
    h, op, psi0, p, times = _split_case(2)
    _one_cpu(monkeypatch)
    split = evolve_noisy(h, psi0, p, op, times, n_traj=512)
    whole = np.empty((len(times) - 1, 2, 2), dtype=complex)
    noise_mod._propagate_ou(h, op, p, 512, psi0, times, whole)
    assert np.abs(split[1:] - whole / 512).max() < 1e-11


def test_fork_wants_two_cpus_and_no_other_thread(monkeypatch):
    # the CPUs os.sched_getaffinity gives, Python's threads, and the
    # native threads listed in /proc/self/task (a BLAS pool among them)
    # each rule a fork out
    if not hasattr(os, "fork"):
        pytest.skip("needs os.fork")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    with monkeypatch.context() as m:
        m.setattr(os, "listdir", lambda path: ["1"])
        assert noise_mod._can_fork()
        m.setattr(os, "listdir", lambda path: ["1", "2"])
        assert not noise_mod._can_fork()
        m.setattr(os, "sched_getaffinity", lambda pid: {0})
        m.setattr(os, "listdir", lambda path: ["1"])
        assert not noise_mod._can_fork()
    stop = threading.Event()
    waiter = threading.Thread(target=stop.wait)
    waiter.start()
    try:
        assert not noise_mod._can_fork()
        if os.path.isdir("/proc/self/task"):  # seen as a native thread too
            monkeypatch.setattr(threading, "active_count", lambda: 1)
            assert not noise_mod._can_fork()
    finally:
        stop.set()
        waiter.join()


@needs_fork
def test_only_ensembles_with_enough_work_fork(monkeypatch):
    # a fork costs milliseconds: an ensemble below _FORK_WORK, n_traj
    # (nt - 1) (d^2 + 4), sums both halves here
    h, op, psi0, p, _ = _split_case(2)
    monkeypatch.setattr(noise_mod, "_can_fork", lambda: True)
    forks = _forks(monkeypatch, always=False)
    steps = -(-noise_mod._FORK_WORK // (128 * 8))
    for nt, forked in ((steps, 0), (steps + 1, 1)):
        times = np.linspace(0.0, 0.025 * (nt - 1), nt)
        evolve_noisy(h, psi0, p, op, times, n_traj=128)
        assert len(forks) == forked
    _assert_no_child()


def _patch_advance(monkeypatch, fail):
    """Make _StepTable.advance call fail() first, in parent and child."""
    advance = noise_mod._StepTable.advance

    def patched(self, *args):
        fail()
        return advance(self, *args)
    monkeypatch.setattr(noise_mod._StepTable, "advance", patched)


@needs_fork
def test_half_that_fails_in_the_child_is_summed_here(monkeypatch):
    parent = os.getpid()

    def in_child():
        if os.getpid() != parent:
            raise RuntimeError("fails in the child only")
    case = _split_case(2)
    want = _in_process(monkeypatch, case, 384)
    h, op, psi0, p, times = case
    _forks(monkeypatch)
    reaped = _reaped(monkeypatch)
    _patch_advance(monkeypatch, in_child)
    got = evolve_noisy(h, psi0, p, op, times, n_traj=384)
    assert reaped == [1]
    _assert_no_child()
    assert np.array_equal(got, want)


@needs_fork
def test_child_ends_when_its_parent_is_gone(monkeypatch):
    # a child that finds another parent at its first chunk exits, and its
    # half is summed here
    case = _split_case(2)
    want = _in_process(monkeypatch, case, 128)
    h, op, psi0, p, times = case
    _forks(monkeypatch)
    reaped = _reaped(monkeypatch)
    monkeypatch.setattr(os, "getppid", lambda: 1)  # read in the child only
    got = evolve_noisy(h, psi0, p, op, times, n_traj=128)
    assert reaped == [1]
    assert np.array_equal(got, want)


class _BatchError(Exception):
    pass


@pytest.mark.parametrize("cpus", [1, 2])
def test_batch_that_fails_everywhere_raises_its_own_error(monkeypatch, cpus):
    def everywhere():
        raise _BatchError("fails in every process")
    if cpus == 2 and not hasattr(os, "fork"):
        pytest.skip("needs os.fork")
    h, op, psi0, p, times = _split_case(2)
    forks = _forks(monkeypatch, always=cpus == 2)
    if cpus == 1:
        _one_cpu(monkeypatch)
    _patch_advance(monkeypatch, everywhere)
    with pytest.raises(_BatchError, match="every process"):
        evolve_noisy(h, psi0, p, op, times, n_traj=128)
    assert len(forks) == cpus - 1
    _assert_no_child()


@needs_fork
def test_interrupted_parent_kills_and_reaps_its_child(monkeypatch):
    parent = os.getpid()

    def interrupt_parent():
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(30.0)  # the child would outlast the test
    h, op, psi0, p, times = _split_case(2)
    _forks(monkeypatch)
    reaped = _reaped(monkeypatch)
    _patch_advance(monkeypatch, interrupt_parent)
    with pytest.raises(KeyboardInterrupt):
        evolve_noisy(h, psi0, p, op, times, n_traj=128)
    assert reaped == [-signal.SIGKILL]
    _assert_no_child()
