"""Classical magnetic-field noise: processes, spectra, averaged evolution.

The field enters as a scalar b(t) multiplying a caller-supplied operator
(typically the scheme-wide Zeeman generator; the drive coupling matrix for
amplitude noise).  Two processes are supported:

* ornstein-uhlenbeck: correlation time tau_c, rms sigma, two-sided spectrum
  S(w) = 2 sigma^2 tau_c / (1 + w^2 tau_c^2).  Trajectories use the exact
  discrete update, so statistics are independent of the grid step.
* quasi-static-gaussian: one Gaussian draw per trajectory, constant in time
  (the tau_c -> infinity limit).

Trajectory k draws from Generator(PCG64(SeedSequence(entropy=seed,
spawn_key=(k,)))), NumPy's policy for independent streams (NEP 19), so
trajectory k is reproducible in isolation and the ensemble does not
depend on execution order.  The SeedSequences are not built one by one
(about 12 us per trajectory with its PCG64): the seed words of all n
trajectories come from one pass of SeedSequence's hashing (O'Neill,
HMC-CS-2014-0905).  Its pool does not involve k, so it is
SeedSequence(seed)'s own; only the key word's and the output hashing
run here, on uint32 arrays over k.  Each PCG64 is built from its row of
words, so every stream is the SeedSequence's, bit for bit.

OU trajectories are streamed: each generator fills its row of one reused
buffer with the next _CHUNK unit normals, the OU update runs on the
buffer, and the chunk's steps are propagated before the next chunk is
drawn.  A generator's normals do not depend on how they are split into
draws, so the values are those of one draw per trajectory, bit for bit,
and ``sample_trajectories`` collects the same stream.  Memory is
O(n_traj * _CHUNK + nt * d^2) whatever the horizon: a chunk of 512 steps
takes 4 kB a trajectory.

Propagation holds b(t) piecewise constant over each grid interval and
takes one of three paths:

* quasi-static noise: one diagonalization per trajectory, in real
  arithmetic when H + b V is real, and exact phases.  On a uniform grid
  the phases of a block of times are e^{-i lambda t} at the block's first
  time times one table of e^{-i lambda j dt}: one exp per eigenvalue and
  block, not per eigenvalue and time.
* OU noise on a uniform grid: a step-propagator table.  U(b) =
  exp(-i (H + b V) dt) is expanded in Chebyshev polynomials of b / beta,
  beta = max |b| over the chunks drawn so far (Tal-Ezer & Kosloff, J.
  Chem. Phys. 81, 3967 (1984), applied to the noise amplitude rather than
  to time); a chunk that raises the maximum rebuilds the table.  The
  coefficients come from exact propagators at Chebyshev nodes, and the
  propagators of a block of steps come from one real GEMM over the table.
  A block takes as many steps as keep its work buffers within
  _TABLE_BYTES, so that they stay in cache from the GEMM to the step
  loop, and the steps update the states in place.  Every value is
  computed the same way whatever block its step falls in, so the block
  size moves no result.
* OU noise on any other grid, or once b * dt grows too large for the
  table: one batched diagonalization per step, the exact reference for
  the table.

The averaged density matrix is reduced in fixed trajectory and step order,
so runs with the same seed agree bit for bit.  An OU ensemble of _SPLIT
or more trajectories is summed as two fixed halves, trajectories [0, h)
and [h, n) with h = ceil(n / 2), each with its own step table, and the
upper half's sum is added to the lower's.  The upper half runs in a
child made by os.fork, which writes its sums into shared anonymous
memory, when the ensemble holds _FORK_WORK, os.sched_getaffinity gives
the process two CPUs or more, and no other thread is running: no Python
thread (a fork copies only the calling thread, and locks held by the
others stay held in the child) and no native one, such as a BLAS pool.
Otherwise both halves run in this process, the lower and then the
upper, the upper through the very call that the child would make.
Either way the same operations run on the same values, so the result
does not depend on the CPU count.  A child that fails leaves its half to
the parent, so a real error surfaces here with its own traceback; a
child whose parent is gone ends itself at its next chunk.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .driving import _check_hermitian
from .dynamics import NORM_TOL, _as_hamiltonian, time_grid

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
# Time steps per block of OU sampling on a uniform grid: one Toeplitz GEMM
# each.  Table propagation sizes its own blocks (_table_block).
_BLOCK = 64
# Time steps per streamed chunk.  A multiple of _BLOCK, so the sampling
# blocks start at 1 + 64 j across the whole grid, whatever the chunking.
# Its buffer takes 4 kB a trajectory: 1 MB for criterion 10's halves of
# 256, against 4.2 MB at 2048 steps.  Narrower rows cost more per normal
# drawn: 19, 21-22 and 27 ns in rows of 2048, 512 and 256 (2-vCPU Xeon,
# one generator per row).  Per warm criterion-10 ensemble each process
# took 1.4-1.8k minor page faults (ru_minflt) at 512 steps, 2.0-2.4k at
# 2048.
_CHUNK = 8 * _BLOCK
# OU ensembles of this many trajectories or more are summed in two halves,
# the upper one in a forked child when a second CPU is free (_sum_ou).
# Smaller ones keep the one-pass sums, bit for bit.
_SPLIT = 128
# The child pays for itself only on enough work.  On a 2-vCPU Xeon a fork
# and join cost 5-11 ms, two processes ran the halves in about 0.7 of the
# one-process time, and a trajectory step took about (d^2 + 4) x 10 ns.
# So the child starts only from n_traj (nt - 1) (d^2 + 4) = _FORK_WORK on,
# about 50 ms of work in one process.  The rule moves no value.
_FORK_WORK = 5_000_000
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
# Bytes of a _StepTable's work buffers.  Each block of table propagation
# takes as many steps as fit, so that the block's Chebyshev values,
# propagators and states stay in a core's L2 cache between the GEMM that
# writes them and the step loop and density products that read them.  On
# a 2-vCPU Xeon with 2 MB of L2 per core, criterion 10's three ensembles
# took 1.25 s in 64-step blocks, 1.09-1.16 s at budgets of 0.75-3 MB,
# 1.19 s at 4 MB and 1.38 s at 256 kB; 128 trajectories at d = 6 were
# fastest at 1 MB (47 ms, 57 ms in 64-step blocks).
_TABLE_BYTES = 1 << 20


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


# NumPy's SeedSequence (numpy/random/bit_generator.pyx), after O'Neill,
# HMC-CS-2014-0905: hash constants and multipliers of the pool and of the
# output, and the mix multipliers.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_POOL = 4  # pool words; generate_state(4, uint64) reads each twice


def _constants(const: int, mult: int, count: int) -> list[int]:
    """const and the count hash constants after it, each the last * mult."""
    out = [const]
    for _ in range(count):
        out.append(out[-1] * mult & _MASK32)
    return out


def _hash(value, xor, mul):
    """One hash of uint32 words: XOR with the current constant, multiply
    by the next, fold the high half down."""
    value = (value ^ xor) * mul & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    """SeedSequence's mix of two uint32 words."""
    result = ((_MIX_L * x & _MASK32) - _MIX_R * y) & _MASK32
    return result ^ result >> 16


def _seed_words(seed, n: int) -> np.ndarray:
    """Row k is SeedSequence(entropy=seed, spawn_key=(k,)).generate_state(
    4, np.uint64), for k < n; [n, 4].

    The seed's words fill and mix the pool the same way for every k, so
    the pool is SeedSequence(seed)'s own.  Only the key word k, mixed into
    each pool word last, and the output hashing run here, on uint32
    arrays over k.
    """
    seed = operator.index(seed)
    pool = np.random.SeedSequence(seed).pool
    # The pool took _POOL hashes per seed word, the seed padded with zeros
    # to _POOL words; the key word is hashed under the next _POOL
    # constants, one for each pool word it is mixed into.
    hashes = _POOL * max(-(-seed.bit_length() // 32), _POOL)
    keyed = np.array(_constants(_INIT_A * pow(_MULT_A, hashes, 1 << 32)
                                & _MASK32, _MULT_A, _POOL), dtype=np.uint32)
    keys = np.arange(n, dtype=np.uint32)[:, None]
    pool = _mix(pool, _hash(keys, keyed[:-1], keyed[1:]))
    out = np.array(_constants(_INIT_B, _MULT_B, 2 * _POOL), dtype=np.uint32)
    words = _hash(np.concatenate((pool, pool), axis=1), out[:-1], out[1:])
    # Pairs of 32-bit words, little end first, as generate_state joins them.
    return words.astype("<u4", copy=False).view("<u8").astype(np.uint64,
                                                             copy=False)


@functools.cache
def _seed_words_type() -> type:
    """The seed sequence that hands PCG64 precomputed words.  Built on
    first use, because numpy imports numpy.random only when it is first
    used, and a run without noise should not pay for it."""

    class SeedWords(np.random.bit_generator.ISeedSequence):
        """Words for PCG64, which asks for generate_state(4, uint64) once,
        when it is built."""

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != len(self.words) or np.dtype(dtype) != np.uint64:
                raise ValueError(f"holds {len(self.words)} uint64 words, "
                                 f"not {n_words} of {np.dtype(dtype)}")
            return self.words

    return SeedWords


def _generators(noise: NoiseProcess, n: int,
                first: int = 0) -> list[np.random.Generator]:
    """The generators of trajectories first to n - 1: trajectory k's is
    Generator(PCG64(SeedSequence(entropy=noise.seed, spawn_key=(k,))))."""
    seed_words = _seed_words_type()
    return [np.random.Generator(np.random.PCG64(seed_words(words)))
            for words in _seed_words(noise.seed, n)[first:]]


def _uniform_step(times: np.ndarray) -> float | None:
    """The common step of a uniform grid of at least two points, else None."""
    if len(times) < 2:
        return None
    dt = (times[-1] - times[0]) / (len(times) - 1)
    steps = np.diff(times)
    if dt > 0 and steps.max() - dt <= _UNIFORM_RTOL * dt \
            and dt - steps.min() <= _UNIFORM_RTOL * dt:
        return float(dt)
    return None


def _ou_chunks(noise: NoiseProcess, times: np.ndarray, n_traj: int,
               first: int = 0):
    """Yield trajectories first to n_traj - 1 of the OU ensemble on the
    grid, chunk by chunk.

    Each chunk is a view [n_traj - first, 1 + width] of one reused
    buffer, width <= _CHUNK: column 0 holds b at the last time of the
    previous chunk (in the first chunk, the stationary start b(t0)) and
    the others b at the next width times.  The next chunk overwrites the
    view.
    """
    nt = len(times)
    gens = _generators(noise, n_traj, first)
    buf = np.empty((len(gens), 1 + _CHUNK))
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
        drawn = 1 if start else 0
        for k, gen in enumerate(gens):
            gen.standard_normal(out=buf[k, drawn:1 + width])
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
        first = [gen.standard_normal() for gen in _generators(noise, n_traj)]
        return noise.sigma * np.repeat(np.array(first)[:, None], nt, axis=1)

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


def _table_block(n: int, dim: int, order: int) -> int:
    """Steps per block of table propagation for n trajectories.

    A block of s steps holds s * n Chebyshev rows of order + 1 values and
    s propagators, states and bras of n trajectories; the table and one
    step's products take (order + n) * dim^2 complex entries more.  The
    block is the most steps that keep all of it within _TABLE_BYTES, at
    least 1 and at most 64: past 64 steps the per-block work is already a
    small share of the step loop's.
    """
    per_step = n * (8 * (order + 1) + 16 * dim * dim + 32 * dim)
    fixed = 16 * dim * dim * (order + n)
    return max(1, min(64, (_TABLE_BYTES - fixed) // per_step))


class _StepTable:
    """Chebyshev step propagators for n trajectories on a uniform grid.

    The table covers |b| <= beta with coefficients coeffs, and ``cover``
    rebuilds it when a chunk raises the peak.  The work buffers live as
    long as the object, so chunks, blocks and steps allocate nothing
    large: allocated per chunk, they were handed back to the system and
    faulted in again (7x the page faults of a criterion-10 ensemble).
    They are sized for the table's order at _table_block steps, and only
    a rebuild that changes that order resizes them.
    """

    def __init__(self, static: np.ndarray, noise_op: np.ndarray, dt: float,
                 n: int):
        dim = static.shape[0]
        self.static, self.noise_op, self.dt, self.n = static, noise_op, dt, n
        self.beta, self.coeffs = 0.0, None
        self.block, self.cheb = 0, np.empty((0, 0))
        # One step's products props[m][i, j] * psi[j], in C order as numpy
        # lays out the fresh product props[m] * psi, so that their sum over
        # j adds in the order that (props[m] * psi).sum(axis=1) does.
        self.terms = np.empty((dim, dim, n), dtype=complex)

    def cover(self, peak: float) -> bool:
        """Make the table valid for |b| <= peak; False if it cannot be."""
        if self.coeffs is not None and peak <= self.beta:
            return True
        self.beta = max(peak, self.beta) or 1.0
        table = _chebyshev_table(self.static, self.noise_op, self.beta,
                                 self.dt)
        if table is None:
            return False
        self.coeffs = np.ascontiguousarray(
            table.reshape(len(table), -1)).view(float)
        order, dim = len(table), self.static.shape[0]
        if len(self.cheb) != order + 1:
            block = self.block = _table_block(self.n, dim, order)
            # Rows 0 to order - 1 hold T_k(b / beta), the last 2 b / beta.
            self.cheb = np.empty((order + 1, block * self.n))
            self.props = np.empty((block * self.n, 2 * dim * dim))
            self.states = np.empty((block, dim, self.n), dtype=complex)
            self.bras = np.empty_like(self.states)
        return True

    def advance(self, amps: np.ndarray, psi: np.ndarray,
                out: np.ndarray) -> np.ndarray:
        """Advance psi [d, n] through one step per column of amps [n, steps].

        Writes the sum of |psi><psi| after each step to out [steps, d, d].
        Steps are processed in blocks of self.block: T_k(b / beta) by the
        three-term recurrence, every propagator of the block from one real
        GEMM against the table (real and imaginary parts interleaved), the
        states step by step in place, and the density matrices in one
        batched matmul.  Returns psi in an array of its own, which later
        calls do not overwrite.
        """
        n, nt = amps.shape
        order, dim = len(self.coeffs), psi.shape[0]
        for start in range(0, nt, self.block):
            steps = min(self.block, nt - start)
            poly = self.cheb[:order, :steps * n]
            poly[0] = 1.0
            if order > 1:
                np.divide(amps[:, start:start + steps].T, self.beta,
                          out=poly[1].reshape(steps, n))
                # Doubling is exact, so 2z T_{k-1} is 2 (z T_{k-1}).
                twice = np.multiply(poly[1], 2.0,
                                    out=self.cheb[order, :steps * n])
            for k in range(2, order):
                np.multiply(twice, poly[k - 1], out=poly[k])
                poly[k] -= poly[k - 2]
            props = np.matmul(poly.T, self.coeffs, out=self.props[:steps * n])
            props = props.view(complex).reshape(
                steps, n, dim, dim).transpose(0, 2, 3, 1)
            states = self.states[:steps]
            for s in range(steps):
                np.multiply(props[s], psi, out=self.terms)
                psi = np.add.reduce(self.terms, axis=1, out=states[s])
            bras = np.conj(states, out=self.bras[:steps])
            np.matmul(states, bras.transpose(0, 2, 1),
                      out=out[start:start + steps])
        return psi.copy()


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
                            times: np.ndarray, out: np.ndarray) -> None:
    """Sum of |psi><psi| under the frozen amplitudes values [n].

    One diagonalization per trajectory, real when H + b V has no
    imaginary part, and exact phases: the sums at times[1:] go to out
    [nt - 1, d, d], and the states of a block of times come from one
    batched product.  On a uniform grid of step dt, a block's phases are
    e^{-i lambda t} at its first time t times one table of
    e^{-i lambda j dt}, j below the block length.
    """
    n, dim = len(values), static.shape[0]
    if static.imag.any() or noise_op.imag.any():
        vals, vecs = np.linalg.eigh(static + values[:, None, None] * noise_op)
    else:
        vals, vecs = np.linalg.eigh(static.real + values[:, None, None]
                                    * noise_op.real)
        vecs = vecs.astype(complex)
    amps = np.einsum("nji,j->ni", vecs.conj(), psi0)[:, :, None]
    elapsed = times[1:] - times[0]
    block = max(1, _QUASI_STATIC_BLOCK // (n * dim))
    dt = _uniform_step(times)
    if dt is not None:
        lags = dt * np.arange(min(block, len(elapsed)))
        within = amps * np.exp(-1j * vals[:, :, None] * lags)
    for start in range(0, len(elapsed), block):
        stop = min(start + block, len(elapsed))
        if dt is None:
            states = vecs @ (amps * np.exp(-1j * vals[:, :, None]
                                           * elapsed[start:stop]))
        else:  # the lead phases scale the columns of vecs
            lead = np.exp(-1j * elapsed[start] * vals)[:, None, :]
            states = (vecs * lead) @ within[:, :, :stop - start]
        states = states.transpose(2, 1, 0)
        np.matmul(states, states.conj().transpose(0, 2, 1),
                  out=out[start:stop])


def _propagate_ou(static: np.ndarray, noise_op: np.ndarray,
                  noise: NoiseProcess, n_traj: int, psi0: np.ndarray,
                  times: np.ndarray, out: np.ndarray, first: int = 0,
                  watch=None) -> None:
    """Sum of |psi><psi| over OU trajectories first to n_traj - 1; into
    out [nt - 1, d, d].

    Each chunk is propagated before the next is drawn, after a call to
    watch, if given.  On a uniform grid the chunks go through one
    _StepTable; from the first chunk whose table would need more than
    _TABLE_MAX_NODES nodes, and on any other grid, per-step
    diagonalization takes over from the states reached.
    """
    steps = np.diff(times)
    dt = _uniform_step(times)
    table = None if dt is None else _StepTable(static, noise_op, dt,
                                               n_traj - first)
    psi = np.repeat(psi0[:, None], n_traj - first, axis=1)
    done = 0
    for chunk in _ou_chunks(noise, times, n_traj, first):
        if watch is not None:
            watch()
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


def _can_fork() -> bool:
    """Whether a forked child may take half of an ensemble: os.fork
    exists, the process may run on two CPUs or more, and no other thread
    runs.  That is no other Python thread, as a fork copies only the
    calling thread, and no native one either, such as a BLAS pool: two
    processes that each keep one spinning oversubscribe the CPUs
    (criterion 10's ensembles ran 2-4x slower under OpenBLAS's default
    threads).  Without /proc, Python's threads are all it can count."""
    import os
    import threading

    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2
            and threading.active_count() == 1):
        return False
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return True


def _exit_if_orphaned(parent: int) -> None:
    """End this forked child if its parent is gone."""
    import os

    if os.getppid() != parent:
        os._exit(1)


class _Child:
    """One forked process that runs work(out, watch=...) into shared memory.

    out is a complex array in anonymous shared memory, and watch, called
    once per chunk, ends the child if the parent is gone.  ``join``
    returns out once the child has exited cleanly; ``kill`` ends and
    reaps a child not yet joined.  The child's body runs under
    try/finally and always ends in os._exit, so it never returns into the
    parent's callers.
    """

    def __init__(self):
        self.pid, self.out = None, None

    def start(self, work, shape: tuple[int, ...]) -> None:
        import mmap
        import os
        import signal

        parent, status = os.getpid(), 1
        # SIGINT waits until the parent holds the pid that it must reap
        # and the child is inside the try that ends in os._exit.
        held = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            count = math.prod(shape)
            self.out = np.frombuffer(mmap.mmap(-1, 16 * count or 1),
                                     dtype=complex, count=count).reshape(shape)
            self.pid = os.fork()
            if self.pid == 0:
                signal.pthread_sigmask(signal.SIG_SETMASK, held)
                work(self.out,
                     watch=functools.partial(_exit_if_orphaned, parent))
                status = 0
        except OSError:  # no memory or process to spare: nothing to join
            self.pid = None
        finally:
            if os.getpid() != parent:
                os._exit(status)
            signal.pthread_sigmask(signal.SIG_SETMASK, held)

    def join(self) -> np.ndarray | None:
        """Wait for the child; its sums, or None if it failed or never
        started."""
        import os

        if self.pid is None:
            return None
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        return None if status else self.out

    def kill(self) -> None:
        import os
        import signal

        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None


def _sum_ou(static: np.ndarray, noise_op: np.ndarray, noise: NoiseProcess,
            n_traj: int, psi0: np.ndarray, times: np.ndarray,
            out: np.ndarray) -> None:
    """Sum of |psi><psi| over the OU ensemble; into out [nt - 1, d, d].

    From _SPLIT trajectories on, the upper half [h, n_traj), h =
    ceil(n_traj / 2), is summed apart from the lower half and added to
    it.  It runs in a forked child while this process sums the lower
    half, if the ensemble holds _FORK_WORK and _can_fork(); here, after
    the lower half, otherwise or if the child failed.  Either way each
    half is one _propagate_ou call, the same call in every process.
    """
    args = (static, noise_op, noise, n_traj, psi0, times)
    if n_traj < _SPLIT:
        _propagate_ou(*args, out)
        return
    half = -(-n_traj // 2)
    upper = functools.partial(_propagate_ou, *args, first=half)
    work = n_traj * out.shape[0] * (out.shape[1] ** 2 + 4)
    child = _Child()
    try:
        if work >= _FORK_WORK and _can_fork():
            child.start(upper, out.shape)
        _propagate_ou(static, noise_op, noise, half, psi0, times, out)
        total = child.join()
    finally:
        child.kill()
    if total is None:  # no child, or it failed: its half runs here
        total = np.empty_like(out)
        upper(total)
    out += total


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
    From 128 (_SPLIT) OU trajectories on, the ensemble is summed in two
    halves.  The upper half is summed in a forked child process if the
    ensemble holds about 50 ms of work (_FORK_WORK), os.sched_getaffinity
    gives two CPUs or more and no other thread, Python or native (a BLAS
    pool), is running, and in this process after the lower half
    otherwise; each half is the same call either way, so the result is
    the same bits, and no child outlives the call.  ``threads`` is
    accepted for compatibility and does not change the work or the
    result.  Returns [nt, dim, dim]; ValueError if ham or noise_op is not
    Hermitian, if noise_op's shape differs from ham's, or if psi0 is not a
    state of length dim normalized to NORM_TOL.
    """
    ham = _as_hamiltonian(ham)
    if not ham.is_static:
        raise NotImplementedError(
            "evolve_noisy requires a static base Hamiltonian")
    static = ham.static
    dim = static.shape[0]
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (dim,):
        raise ValueError(f"psi0 has shape {psi0.shape}; ham needs ({dim},)")
    if abs(np.linalg.norm(psi0) - 1.0) > NORM_TOL:
        raise ValueError("psi0 must be normalized")
    times = time_grid(times)
    noise_op = np.asarray(noise_op, dtype=complex)
    if noise_op.shape != static.shape:
        raise ValueError(f"noise_op has shape {noise_op.shape}, ham has "
                         f"{static.shape}")
    noise_op = _check_hermitian(noise_op, "noise_op")
    if n_traj < 1:
        raise ValueError("n_traj must be at least 1")

    rho_sum = np.empty((len(times), dim, dim), dtype=complex)
    rho_sum[0] = n_traj * np.outer(psi0, psi0.conj())
    if noise.kind == "quasi-static-gaussian":
        values = sample_trajectories(noise, times[:1], n_traj)[:, 0]
        _propagate_quasi_static(static, noise_op, values, psi0, times,
                                rho_sum[1:])
    else:
        _sum_ou(static, noise_op, noise, n_traj, psi0, times, rho_sum[1:])
    rho_sum /= n_traj
    return rho_sum
