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

OU trajectories are streamed: each generator fills its row of one reused
buffer with the next _CHUNK unit normals, the OU update runs on the
buffer, and the chunk's steps are propagated before the next chunk is
drawn.  A generator's normals do not depend on how they are split into
draws, so the values are those of one draw per trajectory, bit for bit,
and ``sample_trajectories`` collects the same stream.  Memory is
O(n_traj * _CHUNK + nt * d^2) whatever the horizon.

Propagation holds b(t) piecewise constant over each grid interval and
takes one of three paths:

* quasi-static noise: one diagonalization per trajectory, exact phases.
* OU noise on a uniform grid: a step-propagator table.  U(b) =
  exp(-i (H + b V) dt) is expanded in Chebyshev polynomials of b / beta,
  beta = max |b| over the chunks drawn so far (Tal-Ezer & Kosloff, J.
  Chem. Phys. 81, 3967 (1984), applied to the noise amplitude rather than
  to time); a chunk that raises the maximum rebuilds the table.  The
  coefficients come from exact propagators at Chebyshev nodes, and the
  propagators of a block of steps come from one real GEMM over the table.
* OU noise on any other grid, or once b * dt grows too large for the
  table: one batched diagonalization per step, the exact reference for
  the table.

The averaged density matrix is reduced in fixed trajectory and step order
in one thread, so runs with the same seed agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .driving import _check_hermitian
from .dynamics import _as_hamiltonian, time_grid

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
# Time steps per streamed chunk.  A multiple of _BLOCK, so the sampling
# blocks start at 1 + 64 j and the propagation blocks at 64 j across the
# whole grid, whatever the chunking.  At 384 trajectories its buffer takes
# 6 MB.  At 1024 steps, glibc's dynamic trim threshold (twice the largest
# buffer freed) stayed below what one call frees, so every call faulted
# its buffers in afresh: 2.3k page faults and about 4% more time per
# criterion-10 ensemble.
_CHUNK = 32 * _BLOCK
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


def _ou_chunks(noise: NoiseProcess, times: np.ndarray, n_traj: int):
    """Yield the OU ensemble on the grid chunk by chunk.

    Each chunk is a view [n_traj, 1 + width] of one reused buffer, width
    <= _CHUNK: column 0 holds b at the last time of the previous chunk
    (in the first chunk, the stationary start b(t0)) and the others b at
    the next width times.  The next chunk overwrites the view.
    """
    nt = len(times)
    gens = [_generator(noise, k) for k in range(n_traj)]
    buf = np.empty((n_traj, 1 + _CHUNK))
    dt = _uniform_step(times)
    if dt is None:
        decay = np.exp(-np.diff(times) / noise.tau_c)
        kick = noise.sigma * np.sqrt(1.0 - decay ** 2)
    else:
        # Within a block the update is linear in the unit draws,
        # x[s+i] = a^(i+1) x[s-1] + kick * sum_{j<=i} a^(i-j) w[s+j], so
        # each block is one GEMM with a lower-triangular Toeplitz matrix.
        a = math.exp(-dt / noise.tau_c)
        lag = np.subtract.outer(np.arange(_BLOCK), np.arange(_BLOCK))
        toeplitz = np.where(lag >= 0, noise.sigma * math.sqrt(1.0 - a ** 2)
                            * a ** np.maximum(lag, 0), 0.0)
        carry = a ** np.arange(1, _BLOCK + 1)

    for start in range(0, max(nt - 1, 1), _CHUNK):
        width = min(_CHUNK, nt - 1 - start)
        if start:  # the previous chunk's last value leads this one
            buf[:, 0] = buf[:, _CHUNK]
        first = 1 if start else 0
        for k, gen in enumerate(gens):
            gen.standard_normal(out=buf[k, first:1 + width])
        if not start:
            buf[:, 0] *= noise.sigma  # stationary start
        # The update overwrites the unit draws in place, column by column.
        if dt is None:
            for k in range(1, width + 1):
                buf[:, k] = buf[:, k - 1] * decay[start + k - 1] \
                    + kick[start + k - 1] * buf[:, k]
        else:
            for s in range(1, width + 1, _BLOCK):
                w = min(_BLOCK, width + 1 - s)
                block = buf[:, s:s + w] @ toeplitz[:w, :w].T
                block += buf[:, s - 1, None] * carry[:w]
                buf[:, s:s + w] = block
        yield buf[:, :1 + width]


def sample_trajectories(noise: NoiseProcess, times: np.ndarray,
                        n_traj: int) -> np.ndarray:
    """Draw b(t) realizations on an ascending 1-d grid; [n_traj, nt]."""
    times = time_grid(times)
    if n_traj < 1:
        raise ValueError("n_traj must be at least 1")
    nt = len(times)
    if noise.kind == "quasi-static-gaussian":
        # One value per trajectory: the first normal of its stream.
        first = np.empty((n_traj, 1))
        for k in range(n_traj):
            first[k] = _generator(noise, k).standard_normal()
        return noise.sigma * np.repeat(first, nt, axis=1)

    traj = np.empty((n_traj, nt))
    start = 0
    for chunk in _ou_chunks(noise, times, n_traj):
        traj[:, start:start + chunk.shape[1]] = chunk
        start += chunk.shape[1] - 1
    return traj


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


class _StepTable:
    """Chebyshev step propagators for n trajectories on a uniform grid.

    The table covers |b| <= beta, and ``cover`` rebuilds it when a chunk
    raises the peak.  The work buffers live as long as the object, so
    chunks and blocks allocate nothing large: allocated per chunk, they
    were handed back to the system and faulted in again (7x the page
    faults of a criterion-10 ensemble).
    """

    def __init__(self, static: np.ndarray, noise_op: np.ndarray, dt: float,
                 n: int):
        dim = static.shape[0]
        self.static, self.noise_op, self.dt = static, noise_op, dt
        self.beta, self.coeffs = 0.0, None
        self.cheb = np.empty((0, _BLOCK * n))
        self.props = np.empty((_BLOCK * n, 2 * dim * dim))
        self.states = np.empty((_BLOCK, dim, n), dtype=complex)
        self.bras = np.empty_like(self.states)

    def cover(self, peak: float) -> bool:
        """Make the table valid for |b| <= peak; False if it cannot be."""
        if self.coeffs is not None and peak <= self.beta:
            return True
        self.beta = max(peak, self.beta) or 1.0
        table = _chebyshev_table(self.static, self.noise_op, self.beta,
                                 self.dt)
        if table is None:
            return False
        order = len(table)
        self.coeffs = np.ascontiguousarray(table.reshape(order, -1)).view(float)
        if len(self.cheb) < order:
            self.cheb = np.empty((order, self.cheb.shape[1]))
        return True

    def advance(self, amps: np.ndarray, psi: np.ndarray,
                out: np.ndarray) -> np.ndarray:
        """Advance psi [d, n] through one step per column of amps [n, steps].

        Writes the sum of |psi><psi| after each step to out [steps, d, d].
        Steps are processed in blocks: T_k(b / beta) by the three-term
        recurrence, every propagator of the block from one real GEMM
        against the table (real and imaginary parts interleaved), the
        states step by step, and the block's density matrices in one
        batched matmul.  Returns psi.
        """
        n, nt = amps.shape
        order, dim = len(self.coeffs), psi.shape[0]
        for start in range(0, nt, _BLOCK):
            steps = min(_BLOCK, nt - start)
            poly = self.cheb[:order, :steps * n]
            poly[0] = 1.0
            if order > 1:
                np.divide(amps[:, start:start + steps].T, self.beta,
                          out=poly[1].reshape(steps, n))
            for k in range(2, order):
                np.multiply(poly[1], poly[k - 1], out=poly[k])
                poly[k] *= 2.0
                poly[k] -= poly[k - 2]
            props = np.matmul(poly.T, self.coeffs, out=self.props[:steps * n])
            props = props.view(complex).reshape(
                steps, n, dim, dim).transpose(0, 2, 3, 1)
            states = self.states[:steps]
            for m in range(steps):
                psi = (props[m] * psi).sum(axis=1)
                states[m] = psi
            bras = np.conj(states, out=self.bras[:steps])
            np.matmul(states, bras.transpose(0, 2, 1),
                      out=out[start:start + steps])
        return psi


def _propagate_eigh(static: np.ndarray, noise_op: np.ndarray,
                    amps: np.ndarray, steps: np.ndarray, psi: np.ndarray,
                    out: np.ndarray) -> np.ndarray:
    """Advance psi [d, n] by exact diagonalization, one step per column.

    Step m lasts steps[m] under the amplitudes amps[:, m]; the sum of
    |psi><psi| after it goes to out[m].  Returns psi.
    """
    for m in range(amps.shape[1]):
        props = _step_propagators(static, noise_op, amps[:, m], steps[m])
        psi = np.einsum("nij,jn->in", props, psi)
        out[m] = psi @ psi.conj().T
    return psi


def _propagate_quasi_static(static: np.ndarray, noise_op: np.ndarray,
                            values: np.ndarray, psi0: np.ndarray,
                            elapsed: np.ndarray, out: np.ndarray) -> None:
    """Sum of |psi><psi| under the frozen amplitudes values [n].

    One diagonalization per trajectory, exact phases: the sums at each
    elapsed time go to out [len(elapsed), d, d], and the states of a block
    of times come from one batched product.
    """
    n, dim = len(values), static.shape[0]
    hams = static[None, :, :] + values[:, None, None] * noise_op
    vals, vecs = np.linalg.eigh(hams)
    amps = np.einsum("nji,j->ni", vecs.conj(), psi0)
    block = max(1, _QUASI_STATIC_BLOCK // (n * dim))
    for start in range(0, len(elapsed), block):
        phases = np.exp(-1j * vals[:, :, None] * elapsed[start:start + block])
        states = (vecs @ (phases * amps[:, :, None])).transpose(2, 1, 0)
        out[start:start + block] = states @ states.conj().transpose(0, 2, 1)


def _propagate_ou(static: np.ndarray, noise_op: np.ndarray,
                  noise: NoiseProcess, n_traj: int, psi0: np.ndarray,
                  times: np.ndarray, out: np.ndarray) -> None:
    """Sum of |psi><psi| over OU trajectories; into out [nt - 1, d, d].

    Each chunk is propagated before the next is drawn.  A chunk whose
    table would need more than _TABLE_MAX_NODES nodes hands the rest of
    the run to per-step diagonalization, from the states reached.
    """
    psi = np.repeat(psi0[:, None], n_traj, axis=1)
    steps = np.diff(times)
    dt = _uniform_step(times)
    table = None if dt is None else _StepTable(static, noise_op, dt, n_traj)
    done = 0
    for chunk in _ou_chunks(noise, times, n_traj):
        amps = chunk[:, :-1]  # b on each of the chunk's steps
        here = slice(done, done + amps.shape[1])
        if table is not None and not table.cover(
                max(float(chunk.max()), -float(chunk.min()))):
            table = None
        if table is not None:
            psi = table.advance(amps, psi, out[here])
        else:
            psi = _propagate_eigh(static, noise_op, amps, steps[here], psi,
                                  out[here])
        done = here.stop


def evolve_noisy(ham, psi0: np.ndarray, noise: NoiseProcess,
                 noise_op: np.ndarray, times: np.ndarray,
                 n_traj: int = 1024, threads: int = 1) -> np.ndarray:
    """Trajectory-averaged density matrix under H + b(t) * noise_op.

    b(t) is held piecewise constant over each grid interval (exact for the
    quasi-static process; for OU keep the grid step below tau_c and the
    relevant dynamical periods).  OU trajectories are drawn and propagated
    _CHUNK steps at a time, so memory does not grow with n_traj * nt.  On
    a uniform grid they are propagated with the Chebyshev step table, on
    any other grid (and from the first chunk whose table would need more
    than _TABLE_MAX_NODES nodes) with exact per-step diagonalization.
    ``threads`` is accepted for compatibility and does not change the
    work or the result.  Returns [nt, dim, dim]; ValueError if ham or
    noise_op is not Hermitian.
    """
    ham = _as_hamiltonian(ham)
    if not ham.is_static:
        raise NotImplementedError(
            "evolve_noisy requires a static base Hamiltonian")
    static = ham.static
    psi0 = np.asarray(psi0, dtype=complex)
    times = time_grid(times)
    noise_op = _check_hermitian(noise_op, "noise_op")
    if n_traj < 1:
        raise ValueError("n_traj must be at least 1")

    dim = static.shape[0]
    rho_sum = np.empty((len(times), dim, dim), dtype=complex)
    rho_sum[0] = n_traj * np.outer(psi0, psi0.conj())
    if noise.kind == "quasi-static-gaussian":
        values = sample_trajectories(noise, times[:1], n_traj)[:, 0]
        _propagate_quasi_static(static, noise_op, values, psi0,
                                times[1:] - times[0], rho_sum[1:])
    else:
        _propagate_ou(static, noise_op, noise, n_traj, psi0, times,
                      rho_sum[1:])
    rho_sum /= n_traj
    return rho_sum
