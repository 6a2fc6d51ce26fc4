"""Classical magnetic-field noise: processes, spectra, averaged evolution.

The field enters as a scalar b(t) multiplying a caller-supplied operator
(typically the scheme-wide Zeeman generator; the drive coupling matrix for
amplitude noise).  Two processes are supported:

* ornstein-uhlenbeck: correlation time tau_c, rms sigma, two-sided spectrum
  S(w) = 2 sigma^2 tau_c / (1 + w^2 tau_c^2).  Trajectories use the exact
  discrete update, so statistics are independent of the grid step.
* quasi-static-gaussian: one Gaussian draw per trajectory, constant in time
  (the tau_c -> infinity limit).

Per-trajectory generators are derived from the master seed with a
counter-keyed SeedSequence, so trajectory k is reproducible in isolation
and the ensemble does not depend on execution order.

Propagation holds b(t) piecewise constant over each grid interval and
takes one of three paths:

* quasi-static noise: one diagonalization per trajectory, exact phases.
* OU noise on a uniform grid: a step-propagator table.  U(b) =
  exp(-i (H + b V) dt) is expanded in Chebyshev polynomials of b / beta,
  beta = max |b| over the ensemble (Tal-Ezer & Kosloff, J. Chem. Phys. 81,
  3967 (1984), applied to the noise amplitude rather than to time).  The
  coefficients come from exact propagators at Chebyshev nodes, and the
  propagators of a block of steps come from one real GEMM over the table.
* OU noise on any other grid, or with b * dt too large for the table: one
  batched diagonalization per step, the exact reference for the table.

The averaged density matrix is reduced in fixed trajectory and step order
in one thread, so runs with the same seed agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .driving import TimeDependentHamiltonian

__all__ = [
    "NoiseProcess",
    "spectral_density",
    "sample_trajectories",
    "evolve_noisy",
]

KINDS = ("ornstein-uhlenbeck", "quasi-static-gaussian")

# A grid is uniform when every step matches the mean step to this relative
# tolerance; np.linspace deviates by a few 1e-12.
_UNIFORM_RTOL = 1e-9
# Time steps per block, both for OU sampling and for table propagation on
# uniform grids.
_BLOCK = 64
# Complex entries of each [n_traj, dim, block] temporary of the
# quasi-static branch: 64 kB, under the allocator's mmap threshold, so the
# blocks reuse heap memory instead of raising peak RSS.
_QUASI_STATIC_BLOCK = 4096
# The table grows until its trailing coefficients fall below _TABLE_TOL;
# then the longest tail whose sizes sum below _TABLE_FLOOR (roundoff from
# the node propagators and the DCT) is dropped.
_TABLE_TOL = 1e-13
_TABLE_FLOOR = 1e-14
_TABLE_MIN_NODES = 8
_TABLE_MAX_NODES = 256


@dataclass(frozen=True)
class NoiseProcess:
    kind: str
    sigma: float  # rms of b(t) in rad/s (Zeeman-energy units)
    tau_c: float | None = None  # correlation time, s (OU only)
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}; have {KINDS}")
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")
        if self.kind == "ornstein-uhlenbeck":
            if self.tau_c is None or self.tau_c <= 0:
                raise ValueError("ornstein-uhlenbeck noise needs tau_c > 0")


def spectral_density(noise: NoiseProcess, omega) -> np.ndarray:
    """Two-sided power spectral density of b(t) at angular frequency omega.

    The quasi-static process is a spectral delta at zero; it is reported as
    the band power sigma^2 at omega = 0 and zero elsewhere.
    """
    omega = np.asarray(omega, dtype=float)
    if noise.kind == "ornstein-uhlenbeck":
        return 2.0 * noise.sigma ** 2 * noise.tau_c / (
            1.0 + (omega * noise.tau_c) ** 2)
    return np.where(omega == 0.0, noise.sigma ** 2, 0.0)


def _generator(noise: NoiseProcess, index: int) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=noise.seed, spawn_key=(index,))
    return np.random.Generator(np.random.PCG64(seq))


def _uniform_step(times: np.ndarray) -> float | None:
    """The common step of a uniform grid of at least two points, else None."""
    if len(times) < 2:
        return None
    dt = (times[-1] - times[0]) / (len(times) - 1)
    if dt > 0 and np.allclose(np.diff(times), dt, rtol=_UNIFORM_RTOL, atol=0.0):
        return float(dt)
    return None


def sample_trajectories(noise: NoiseProcess, times: np.ndarray,
                        n_traj: int) -> np.ndarray:
    """Draw b(t) realizations on the given grid; returns [n_traj, nt]."""
    times = np.asarray(times, dtype=float)
    nt = len(times)
    if noise.kind == "quasi-static-gaussian":
        # One value per trajectory: the first normal of its stream.
        first = np.empty((n_traj, 1))
        for k in range(n_traj):
            first[k] = _generator(noise, k).standard_normal()
        return noise.sigma * np.repeat(first, nt, axis=1)

    draws = np.empty((n_traj, nt))
    for k in range(n_traj):
        draws[k] = _generator(noise, k).standard_normal(nt)

    # The OU update overwrites the unit draws in place, column by column.
    draws[:, 0] *= noise.sigma  # stationary start
    dt = _uniform_step(times)
    if dt is None:
        decay = np.exp(-np.diff(times) / noise.tau_c)
        kick = noise.sigma * np.sqrt(1.0 - decay ** 2)
        for k in range(nt - 1):
            draws[:, k + 1] = draws[:, k] * decay[k] + kick[k] * draws[:, k + 1]
        return draws

    # Uniform grid: within a block the update is linear in the unit draws,
    # x[s+i] = a^(i+1) x[s-1] + kick * sum_{j<=i} a^(i-j) w[s+j], so each
    # block is one GEMM with a lower-triangular Toeplitz matrix of decays.
    decay = math.exp(-dt / noise.tau_c)
    kick = noise.sigma * math.sqrt(1.0 - decay ** 2)
    lag = np.subtract.outer(np.arange(_BLOCK), np.arange(_BLOCK))
    toeplitz = np.where(lag >= 0, kick * decay ** np.maximum(lag, 0), 0.0)
    carry = decay ** np.arange(1, _BLOCK + 1)
    for start in range(1, nt, _BLOCK):
        width = min(_BLOCK, nt - start)
        block = draws[:, start:start + width] @ toeplitz[:width, :width].T
        block += draws[:, start - 1, None] * carry[:width]
        draws[:, start:start + width] = block
    return draws


def _step_propagators(static: np.ndarray, noise_op: np.ndarray,
                      amplitudes: np.ndarray, dt: float) -> np.ndarray:
    """Exact exp(-i (static + b noise_op) dt) for each b; returns [n, d, d]."""
    hams = static[None, :, :] + amplitudes[:, None, None] * noise_op
    vals, vecs = np.linalg.eigh(hams)
    return (vecs * np.exp(-1j * vals * dt)[:, None, :]) @ \
        vecs.conj().transpose(0, 2, 1)


def _chebyshev_table(static: np.ndarray, noise_op: np.ndarray,
                     beta: float, dt: float) -> np.ndarray | None:
    """Coefficients C_k with U(beta z) = sum_k C_k T_k(z) on [-1, 1].

    Exact propagators at K Chebyshev nodes are transformed by a DCT; K
    doubles from 8 until the two trailing coefficients are below
    _TABLE_TOL, then the roundoff tail is dropped.  Returns [K, d, d], or
    None when beta * dt is too large for _TABLE_MAX_NODES nodes.
    """
    nodes = _TABLE_MIN_NODES
    while True:
        theta = np.pi * (np.arange(nodes) + 0.5) / nodes
        values = _step_propagators(static, noise_op, beta * np.cos(theta), dt)
        dct = np.cos(np.outer(np.arange(nodes), theta)) * (2.0 / nodes)
        dct[0] /= 2.0
        coeffs = np.tensordot(dct, values, axes=1)
        size = np.abs(coeffs).max(axis=(1, 2))
        if size[-2:].max() < _TABLE_TOL:
            break
        if nodes >= _TABLE_MAX_NODES:
            return None
        nodes *= 2
    # Dropping C_k onwards moves each propagator entry by at most the sum
    # of their sizes.
    tail = np.cumsum(size[::-1])[::-1]
    return coeffs[:max(1, int(np.count_nonzero(tail >= _TABLE_FLOOR)))]


def _propagate_table(table: np.ndarray, beta: float, traj: np.ndarray,
                     psi0: np.ndarray) -> np.ndarray:
    """Sum of |psi><psi| on a uniform grid, via the Chebyshev step table.

    Steps are processed in blocks: T_k(b / beta) by the three-term
    recurrence, every propagator of the block from one real GEMM against
    the table (real and imaginary parts interleaved), the states step by
    step in a [d, n] layout, and the block's density matrices in one
    batched matmul.  Returns [nt, d, d].
    """
    n, nt = traj.shape
    order, dim = table.shape[:2]
    table = np.ascontiguousarray(table.reshape(order, dim * dim)).view(float)

    rho_sum = np.empty((nt, dim, dim), dtype=complex)
    rho_sum[0] = n * np.outer(psi0, psi0.conj())
    psi = np.repeat(psi0[:, None], n, axis=1)
    cheb = np.empty((order, _BLOCK * n))
    for start in range(0, nt - 1, _BLOCK):
        steps = min(_BLOCK, nt - 1 - start)
        poly = cheb[:, :steps * n]
        poly[0] = 1.0
        if order > 1:
            poly[1] = (traj[:, start:start + steps].T / beta).ravel()
        for k in range(2, order):
            np.multiply(poly[1], poly[k - 1], out=poly[k])
            poly[k] *= 2.0
            poly[k] -= poly[k - 2]
        props = (poly.T @ table).view(complex).reshape(
            steps, n, dim, dim).transpose(0, 2, 3, 1)
        states = np.empty((steps, dim, n), dtype=complex)
        for m in range(steps):
            psi = (props[m] * psi).sum(axis=1)
            states[m] = psi
        rho_sum[start + 1:start + 1 + steps] = \
            states @ states.conj().transpose(0, 2, 1)
    return rho_sum


def _propagate_eigh(static: np.ndarray, noise_op: np.ndarray,
                    traj: np.ndarray, psi0: np.ndarray,
                    times: np.ndarray, constant: bool) -> np.ndarray:
    """Sum of |psi><psi| by exact diagonalization; returns [nt, d, d]."""
    n, nt = traj.shape
    dim = static.shape[0]
    rho_sum = np.zeros((nt, dim, dim), dtype=complex)
    psi = np.broadcast_to(psi0, (n, dim)).copy()
    rho_sum[0] = n * np.outer(psi0, psi0.conj())

    if constant:
        # One diagonalization per trajectory, exact phases on the grid;
        # the states of a block of times come from one batched product.
        hams = static[None, :, :] + traj[:, 0, None, None] * noise_op
        vals, vecs = np.linalg.eigh(hams)
        amps = np.einsum("nji,j->ni", vecs.conj(), psi0)
        block = max(1, _QUASI_STATIC_BLOCK // (n * dim))
        for start in range(1, nt, block):
            elapsed = times[start:start + block] - times[0]
            phases = np.exp(-1j * vals[:, :, None] * elapsed)
            states = (vecs @ (phases * amps[:, :, None])).transpose(2, 1, 0)
            rho_sum[start:start + len(elapsed)] = \
                states @ states.conj().transpose(0, 2, 1)
        return rho_sum

    for k in range(1, nt):
        dt = times[k] - times[k - 1]
        hams = static[None, :, :] + traj[:, k - 1, None, None] * noise_op
        vals, vecs = np.linalg.eigh(hams)
        amps = np.einsum("nji,nj->ni", vecs.conj(), psi)
        psi = np.einsum("nij,nj->ni", vecs, np.exp(-1j * vals * dt) * amps)
        rho_sum[k] = np.einsum("ni,nj->ij", psi, psi.conj())
    return rho_sum


def evolve_noisy(ham, psi0: np.ndarray, noise: NoiseProcess,
                 noise_op: np.ndarray, times: np.ndarray,
                 n_traj: int = 1024, threads: int = 1) -> np.ndarray:
    """Trajectory-averaged density matrix under H + b(t) * noise_op.

    b(t) is held piecewise constant over each grid interval (exact for the
    quasi-static process; for OU keep the grid step below tau_c and the
    relevant dynamical periods).  OU noise on a uniform grid is propagated
    with the Chebyshev step table, on any other grid (or when the table
    would need more than _TABLE_MAX_NODES nodes) with exact per-step
    diagonalization.  ``threads`` is accepted for compatibility and does
    not change the work or the result.  Returns [nt, dim, dim].
    """
    if isinstance(ham, TimeDependentHamiltonian):
        if not ham.is_static:
            raise NotImplementedError(
                "evolve_noisy requires a static base Hamiltonian")
        static = ham.static
    else:
        static = np.asarray(ham, dtype=complex)
    psi0 = np.asarray(psi0, dtype=complex)
    times = np.asarray(times, dtype=float)
    noise_op = np.asarray(noise_op, dtype=complex)
    if n_traj < 1:
        raise ValueError("n_traj must be at least 1")

    traj = sample_trajectories(noise, times, n_traj)
    constant = noise.kind == "quasi-static-gaussian"
    dt = None if constant else _uniform_step(times)
    if dt is not None:
        beta = max(float(traj.max()), -float(traj.min())) or 1.0
        table = _chebyshev_table(static, noise_op, beta, dt)
        if table is not None:
            return _propagate_table(table, beta, traj, psi0) / n_traj
    return _propagate_eigh(static, noise_op, traj, psi0, times,
                           constant) / n_traj
