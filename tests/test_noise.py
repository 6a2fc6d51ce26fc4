from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

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


def test_process_validation():
    assert KINDS == ("ornstein-uhlenbeck", "quasi-static-gaussian")
    with pytest.raises(ValueError):
        NoiseProcess("pink", sigma=0.1)
    with pytest.raises(ValueError):
        NoiseProcess("ornstein-uhlenbeck", sigma=0.1)  # needs tau_c
    with pytest.raises(ValueError):
        NoiseProcess("quasi-static-gaussian", sigma=-0.5)


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
    first = np.stack([noise_mod._generator(p, k).standard_normal(len(t))
                      for k in range(24)])[:, :1]
    want = 0.7 * np.repeat(first, len(t), axis=1)
    assert np.array_equal(sample_trajectories(p, t, 24), want)


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
                                   [1.0, 0.5, 0.0]],
                         ids=["empty", "two-d", "decreasing"])
def test_evolve_noisy_rejects_bad_grids(kind, times):
    # a decreasing OU grid used to give NaN density matrices, an empty one
    # a bare IndexError
    p = NoiseProcess(kind, sigma=0.5, tau_c=1.0, seed=3)
    with pytest.raises(ValueError, match="non-empty ascending 1-d grid"):
        evolve_noisy(np.zeros((2, 2), complex), np.array([1.0, 0.0], complex),
                     p, SZ, times, n_traj=4)


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


def test_evolve_noisy_threads_do_not_change_result():
    p = NoiseProcess("ornstein-uhlenbeck", sigma=0.3, tau_c=1.0, seed=5)
    psi0 = np.array([1.0, 1.0], complex) / np.sqrt(2)
    times = np.linspace(0.0, 4.0, 33)
    a = evolve_noisy(np.zeros((2, 2), complex), psi0, p, SZ, times, n_traj=64, threads=1)
    b = evolve_noisy(np.zeros((2, 2), complex), psi0, p, SZ, times, n_traj=64, threads=4)
    assert np.array_equal(a, b)


def _ou_reference(noise, times, n_traj):
    """The step-by-step OU recurrence on the same unit draws."""
    draws = np.array([noise_mod._generator(noise, k).standard_normal(len(times))
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
    draws = np.array([noise_mod._generator(noise, k).standard_normal(len(times))
                      for k in range(n_traj)])
    draws[:, 0] *= noise.sigma
    block = noise_mod._BLOCK
    dt = noise_mod._uniform_step(times)
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


@pytest.mark.parametrize("nt", [1, 2, 63, 64, 65, 130, 1001, CHUNK, CHUNK + 1,
                                CHUNK + 2, 2 * CHUNK + 1, 3000])
def test_blocked_ou_sampler_matches_recurrence(nt):
    # the streamed sampler gives the one-shot values bit for bit, whichever
    # chunk the grid ends in
    p = NoiseProcess("ornstein-uhlenbeck", sigma=0.8, tau_c=0.3, seed=19)
    times = np.linspace(0.0, 0.01 * nt, nt)
    got = sample_trajectories(p, times, 24)
    if nt > 1:
        assert np.array_equal(got, _one_shot_blocked(p, times, 24))
    assert np.abs(got - _ou_reference(p, times, 24)).max() < 1e-12


def test_ou_sampler_on_nonuniform_grid_is_the_recurrence():
    p = NoiseProcess("ornstein-uhlenbeck", sigma=0.8, tau_c=0.3, seed=19)
    times = np.cumsum(np.linspace(0.01, 0.03, 200)) - 0.01
    assert noise_mod._uniform_step(times) is None
    assert np.array_equal(sample_trajectories(p, times, 16),
                          _ou_reference(p, times, 16))


def test_uniform_grid_detection():
    assert noise_mod._uniform_step(np.linspace(0.0, 1197.3, 16836)) == \
        pytest.approx(1197.3 / 16835, rel=1e-14)
    assert noise_mod._uniform_step(np.arange(5) * 0.1 + 3.0) == pytest.approx(0.1)
    for times in ([0.0], [0.0, 0.1, 0.3], [0.0, 0.0], [1.0, 0.5, 0.0]):
        assert noise_mod._uniform_step(np.array(times)) is None
    bumped = np.linspace(0.0, 1.0, 101)
    bumped[50] += 1e-8
    assert noise_mod._uniform_step(bumped) is None


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
        noise_mod._propagate_eigh(static, noise_op, amps, np.diff(times),
                                  psi, out)
    return _kernel_run(advance, traj, psi0)


def _table_vs_eigh(static, noise_op, psi0, proc, times, n_traj):
    traj = sample_trajectories(proc, times, n_traj)
    table = noise_mod._StepTable(static, noise_op,
                                 noise_mod._uniform_step(times), n_traj)
    assert table.cover(float(np.abs(traj).max()))
    fast = _kernel_run(table.advance, traj, psi0)
    exact = _eigh_reference(static, noise_op, traj, psi0, times)
    return len(table.coeffs), float(np.abs(fast - exact).max())


@pytest.mark.parametrize("x, sigma, n_traj", [(0.1, 1.2, 384), (1.0, 0.4, 512),
                                              (10.0, 0.25, 384)])
def test_step_table_matches_eigh_on_golden_rule_ensembles(x, sigma, n_traj):
    # criterion 10's transverse-OU ensembles, cut to their first 2000 steps
    omega0 = 5.0
    tau = x / omega0
    proc = NoiseProcess("ornstein-uhlenbeck", sigma=sigma, tau_c=tau, seed=23)
    rate = sigma**2 * tau / (1.0 + x**2)
    dt = min(tau / 8.0, 2.0 * math.pi / omega0 / 8.0)
    horizon = 1.2 / rate
    times = np.linspace(0.0, horizon, int(math.ceil(horizon / dt)) + 1)[:2001]
    h = np.diag([omega0 / 2.0, -omega0 / 2.0]).astype(complex)
    order, dev = _table_vs_eigh(h, SX, np.array([1.0, 0.0], complex), proc,
                                times, n_traj)
    assert 2 <= order <= 16
    assert dev <= 1e-10


def test_step_table_matches_eigh_on_compact_ca40():
    scheme = ca40_dp()
    con = compact_construction(scheme, 0.3, 1.0)
    report = protected_report(con)
    psi0 = (report.dark_states[0] + report.dark_states[1]) / np.sqrt(2.0)
    proc = NoiseProcess("ornstein-uhlenbeck", sigma=0.02, tau_c=2.0, seed=5)
    times = np.linspace(0.0, 200.0, 1001)
    order, dev = _table_vs_eigh(con.ip.static, scheme.zeeman_generator(),
                                psi0, proc, times, 64)
    assert order >= 2
    assert dev <= 1e-10


def test_evolve_noisy_chooses_path_by_grid(monkeypatch):
    p = NoiseProcess("ornstein-uhlenbeck", sigma=0.3, tau_c=1.0, seed=5)
    h = np.diag([0.7, -0.7]).astype(complex)
    psi0 = np.array([1.0, 1.0], complex) / np.sqrt(2)
    uniform = np.linspace(0.0, 4.0, 41)
    ragged = np.cumsum(np.linspace(0.05, 0.15, 41)) - 0.05

    def forbidden(*args):
        raise AssertionError("wrong propagation path")

    monkeypatch.setattr(noise_mod._StepTable, "advance", forbidden)
    got = evolve_noisy(h, psi0, p, SX, ragged, n_traj=32)
    traj = sample_trajectories(p, ragged, 32)
    assert np.array_equal(got, _eigh_reference(h, SX, traj, psi0, ragged))

    monkeypatch.undo()
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
    times = np.arange(2 * CHUNK + 1, dtype=float)
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


@pytest.mark.parametrize("n_traj", [32, 1024])
def test_quasi_static_blocks_match_per_time_loop(n_traj):
    con = compact_construction(ca40_dp(), 0.3, 1.0)
    report = protected_report(con)
    psi0 = (report.dark_states[0] + report.dark_states[1]) / np.sqrt(2.0)
    zeeman = con.scheme.zeeman_generator()
    proc = NoiseProcess("quasi-static-gaussian", sigma=0.05, seed=3)
    # blocks of this many times (one for 1024 trajectories) start at 1: a
    # grid shorter than one block, one ending on a block edge, one a step
    # past it, and many; the averaged density matrices agree to 1e-12
    block = max(1, noise_mod._QUASI_STATIC_BLOCK // (n_traj * con.dim))
    for nt in (2, block + 1, block + 2, 200):
        times = 0.7 + np.linspace(0.0, 150.0, nt)
        traj = sample_trajectories(proc, times, n_traj)
        got = np.empty((nt, con.dim, con.dim), dtype=complex)
        got[0] = n_traj * np.outer(psi0, psi0.conj())
        noise_mod._propagate_quasi_static(con.ip.static, zeeman, traj[:, 0],
                                          psi0, times[1:] - times[0], got[1:])
        want = _quasi_static_per_time(con.ip.static, zeeman, traj, psi0,
                                      times)
        assert np.abs(got - want).max() / n_traj < 1e-12
