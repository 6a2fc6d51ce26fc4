"""State and density-matrix propagation, plus decay-curve fitting.

Unitary evolution has four paths, chosen from the Hamiltonian alone and
tried in this order:

* spectral, for static Hamiltonians: one Hermitian diagonalization, then
  exact phases on the grid;
* static-frame, for harmonic Hamiltonians that a diagonal frame G makes
  static: the spectral path in that frame, and elementwise phases
  e^{-iGt} back to the lab.  G is one least-squares solve of the link
  equations g_a = g_b (each static coupling) and g_a - g_b = w (each
  harmonic element at w), kept when it meets all of them;
* Floquet, for any other Hamiltonian with exactly one harmonic term: one
  eigh of the static Sambe-space Hamiltonian of its sidebands |n| <= N,
  whose dim Floquet modes of one Brillouin zone then carry the state:
  (2N + 1) dim^2 work per output time, not ((2N + 1) dim)^2.  N grows
  until a bound on what the cut sidebands feed back, plus the unitarity
  defect of the modes at t0, is below FLOQUET_TOL.  A sideband gauge
  takes the phase of the harmonic's largest element into the sideband
  phases; when H0 and the gauged harmonic are real, the Sambe matrix is
  real symmetric and its eigh runs in float64.  It gives way when
  (2N + 1) dim would pass FLOQUET_MAX_DIM, where one complex eigh costs
  as much as a typical DOP853 run (a strong, slow drive);
* DOP853 for every other harmonic Hamiltonian (several harmonics, or one
  the Floquet path gave up on), an adaptive integration whose maximum
  step is capped at a quarter period of the fastest harmonic so
  micromotion cannot be stepped over when the state itself is slow.

Open-system evolution builds the Liouvillian as a dense superoperator
(row-major vec(rho), so vec(A rho B) = (A kron B^T) vec(rho)) and
exponentiates it per unique time step (Pade-13 with scaling and
squaring); system dimensions here are small enough that this is both
exact and fast.

Decay fits use variable projection: the model is amplitude * column
+ offset with one nonlinear parameter, the linear ones are solved
exactly at each value of it, and a bracketing secant search finds the
zero of the residual's derivative to rounding.  Only DOP853 imports
scipy, on first use.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .driving import TimeDependentHamiltonian, to_rotating_frame
from .subspace import _cluster_bounds, _split_degenerate

__all__ = [
    "SimulationTrace",
    "FitResult",
    "NumericalError",
    "evolve_unitary",
    "propagator",
    "evolve_stroboscopic",
    "liouvillian",
    "evolve_lindblad",
    "fit_decay",
    "expectation",
    "overlap_population",
]

# DOP853 tolerances of every harmonic (non-spectral) propagation.
RTOL = 1e-10
ATOL = 1e-12
NORM_TOL = 1e-8
TRACE_TOL = 1e-8
POSITIVITY_TOL = 1e-8
# Floquet path: bound on the sideband-truncation error of each propagated
# unit-norm column (DOP853's RTOL), and the largest Sambe dimension worth
# one eigh.  The bound runs 6-650x (median 22x) above the error against
# DOP853 at rtol 1e-13 wherever truncation, not rounding, sets that error
# (1e-11 and up: the benchmark's runs and random ones, at looser
# tolerances).  At 500, one complex eigh takes about 0.2 s
# (2-vCPU Xeon, one BLAS thread), as long as DOP853 took on the
# benchmark's long harmonic runs (0.12-0.25 s); a real one (real H0 and
# gauged harmonic) takes 0.04 s.  The cap stays at 500 for real inputs
# too: past it lie strong, slow drives such as criterion 3's, whose
# Floquet cost and bound at that size have not been measured.
FLOQUET_TOL = 1e-10
FLOQUET_MAX_DIM = 500
_EPS = np.finfo(float).eps


class NumericalError(RuntimeError):
    """Propagation failed its accuracy guarantees (CLI exit code 3)."""


@dataclass
class SimulationTrace:
    """Time grid plus labeled observables extracted from a propagation."""

    times: np.ndarray
    populations: dict[str, np.ndarray] = field(default_factory=dict)
    coherences: dict[str, np.ndarray] = field(default_factory=dict)


@dataclass(frozen=True)
class FitResult:
    model: str
    params: dict[str, float]
    stderr: dict[str, float]
    rms_residual: float


def _as_hamiltonian(ham) -> TimeDependentHamiltonian:
    if isinstance(ham, TimeDependentHamiltonian):
        return ham
    return TimeDependentHamiltonian(np.asarray(ham, dtype=complex))


def _static_frame(ham: TimeDependentHamiltonian) -> np.ndarray | None:
    """Diagonal generator g whose rotating frame makes ham static, or None.

    Each nonzero static coupling (a, b) asks for g_a = g_b, and each
    nonzero element (a, b) of a harmonic at w for g_a - g_b = w.  One
    least-squares solve of these link equations gives g, kept only if it
    meets every equation to 1e-9 of the fastest harmonic: a cycle of
    mismatched frequencies, or a diagonal harmonic element (a zero row
    asking for w), has no solution.
    """
    eye = np.eye(ham.dim)
    rows, want = [], []
    terms = [(0.0, np.triu(ham.static, 1))]
    terms += [(term.frequency, term.matrix) for term in ham.harmonics]
    for freq, mat in terms:
        a, b = np.nonzero(mat)
        rows.append(eye[a] - eye[b])
        want.append(np.full(len(a), freq))
    rows, want = np.concatenate(rows), np.concatenate(want)
    g = np.linalg.lstsq(rows, want, rcond=None)[0]
    tol = 1e-9 * max(term.frequency for term in ham.harmonics)
    return g if np.abs(rows @ g - want).max(initial=0.0) <= tol else None


def _floquet(h0: np.ndarray, m: np.ndarray, freq: float, y0: np.ndarray,
             times: np.ndarray) -> np.ndarray | None:
    """Floquet-mode propagation of H0 + M e^{-iwt} + M^dag e^{iwt}.

    With y(t) = sum_n e^{-inwt} c_n(t), the sideband amplitudes obey
    i dc_n/dt = (H0 - n w) c_n + M c_{n-1} + M^dag c_{n+1}: one static
    block-tridiagonal H_F, here truncated to |n| <= N (Shirley, Phys.
    Rev. 138, B979 (1965); Sambe, Phys. Rev. A 7, 2203 (1973)).  Each
    eigenvector v_a of H_F, at quasienergy e_a, is a Floquet mode
    P_a(t) = sum_n e^{-inwt} v_{a,n}, and its translate by k sidebands
    is the same mode at e_a + k w.  One translate per mode suffices:
    the dim eigenvectors whose sideband centre sum_n n |v_{a,n}|^2 lies
    in [-1/2, 1/2) give
    y(t) = sum_a e^{-ie_a(t - t0)} P_a(t) <P_a(t0)|y0>,
    dim modes per output time instead of every Sambe eigenvector.
    Centres are rounded to 1e-6: a mode split evenly between two
    sidebands sits at +-1/2 up to rounding, and keeps one translate, not
    both or none.  Each exactly degenerate cluster (eigenvalues within
    size eps max|e|, their own rounding) is first rotated to diagonalize
    the band index in it: eigh may return any mix of translates of
    different modes there, whose centres say nothing.  On the optical AC
    signal (D = 174, 400 times) the path takes 6 ms, 3.7 of them in the
    eigh (2-vCPU Xeon, one BLAS thread).

    Sideband gauge: with phi the phase of M's largest entry and
    R = e^{-i phi} M, H_F is built with R in place of M and
    P_a(t) = sum_n e^{-in(wt - phi)} v_{a,n}.  When H0 is real and R is
    real to rounding (4 eps |M|, dropped), H_F is real symmetric: its
    eigh runs in float64, 2-3x faster than the complex one, and the real
    modes meet the sideband phases in one real GEMM on their interleaved
    float view.

    N starts as the smallest n whose Bessel tail (x/2)^n / n!, x = 2|M|/w,
    times max(1, |M| span) and the nearest sideband resonance's lift is
    below FLOQUET_TOL: H0's levels E_i put sideband k's denominator k w at
    hypot(d_k, 2|M|), d_k = min |E_i - E_j - k w|, and the lift is the
    largest k w / hypot(d_k, 2|M|) for k <= n (44 on pol_leak, whose plain
    tail fell 23x short of its bound).  Truncation feeds back
    at most |M| (|v_{a,N}| + |v_{a,-N}|) |<P_a(t0)|y0>| per unit time
    through mode a, and the selected P(t0) must be unitary; N grows until
    that bound over max(span, 1/w), plus the unitarity defect of P(t0),
    is below FLOQUET_TOL: as the tail predicts from the bound when
    truncation failed the check, by one when the defect or the selection
    did.  Returns None when no Sambe dimension
    (2N + 1) dim up to FLOQUET_MAX_DIM selects exactly dim modes that
    pass, or as soon as two solves in a row fail on a defect that is not
    below the attempt's lowest (the defect need not fall monotonically).
    """
    dim = h0.shape[0]
    norm_m = np.linalg.norm(m, 2)
    phi = np.angle(m.flat[np.abs(m).argmax()])
    r = m * np.exp(-1j * phi)
    real = not np.any(h0.imag) and np.abs(r.imag).max() <= 4 * _EPS * norm_m
    if real:
        h0, r = h0.real, r.real
    span = times[-1] - times[0]
    reach = max(span, 1.0 / freq)
    top = (FLOQUET_MAX_DIM // dim - 1) // 2  # the largest N that fits
    tail, cutoff, lift = max(1.0, norm_m * span), 0, 1.0
    gaps = np.subtract.outer(*[np.linalg.eigvalsh(h0)] * 2).ravel()
    # The lifted start stops at top; the plain tail goes on past it below.
    while tail * lift >= FLOQUET_TOL and cutoff < top:
        cutoff += 1
        tail *= norm_m / freq / cutoff
        lift = max(lift, cutoff * freq / np.hypot(
            np.abs(gaps - cutoff * freq).min(), 2.0 * norm_m))
    low, misses = np.inf, 0  # lowest failed defect; solves in a row above it
    while True:
        while tail >= FLOQUET_TOL and cutoff <= top:
            cutoff += 1
            tail *= norm_m / freq / cutoff
        if cutoff > top:
            return None
        bands = 2 * cutoff + 1
        size = bands * dim
        h_f = np.zeros((size, size), dtype=r.dtype)
        blocks = h_f.reshape(bands, dim, bands, dim)
        for k in range(bands):
            blocks[k, :, k] = h0
            if k:
                blocks[k, :, k - 1] = r
                blocks[k - 1, :, k] = r.conj().T
        orders = np.arange(-cutoff, cutoff + 1)
        band = np.repeat(orders, dim)
        h_f[np.diag_indices(size)] -= band * freq
        vals, vecs = np.linalg.eigh(h_f)
        del h_f, blocks  # peak memory: keep only the eigenvectors

        bounds = _cluster_bounds(vals, size * _EPS * np.abs(vals).max())
        for lo, hi in zip(bounds, bounds[1:]):
            if hi - lo > 1:  # its columns rotated, whatever their grouping
                vecs[:, lo:hi] = np.hstack(
                    _split_degenerate(vecs[:, lo:hi], band, 0.5))
        weight = np.abs(vecs) ** 2
        centre = np.round(band @ weight, 6)
        keep = (centre >= -0.5) & (centre < 0.5)
        tail, defect = 0.0, None
        if np.count_nonzero(keep) == dim:
            quasi, modes = vals[keep], vecs[:, keep].reshape(bands, dim * dim)
            lift = np.exp(-1j * orders * (freq * times[0] - phi))
            start = (lift @ modes).reshape(dim, dim)
            coef = start.conj().T @ y0
            edge = (np.sqrt(weight[:dim, keep].sum(axis=0))
                    + np.sqrt(weight[-dim:, keep].sum(axis=0)))
            defect = np.abs(start.conj().T @ start - np.eye(dim)).max()
            truncation = (edge @ np.abs(coef)).max() * norm_m * reach
            if truncation + defect <= FLOQUET_TOL:
                break
            if defect <= truncation:
                tail, defect = truncation + defect, None
        del vals, vecs, weight  # and none of them into the next round
        # Past N a truncation bound falls about as the tail does.  A failed
        # selection or unitarity check says nothing of the tail, and a
        # defect of order 1 read as one would jump N by several: N grows
        # by one, until two defects in a row set no new low.
        misses = 0 if defect is None or defect < low else misses + 1
        if misses == 2:
            return None
        low = low if defect is None else min(low, defect)
        cutoff += 1
        tail *= norm_m / freq / cutoff

    # The sideband phases e^{-in(wt - phi)} as powers of n = 1's, then P(t)
    # for every time in one GEMM over the sidebands, and each time's
    # dim x dim mode matrix on its phased coefficients.
    side = np.ones((bands, len(times)), dtype=complex)
    side[cutoff + 1] = np.exp(-1j * (freq * times - phi))
    for k in range(cutoff + 2, bands):
        side[k] = side[k - 1] * side[cutoff + 1]
    side[:cutoff] = side[:cutoff:-1].conj()
    if real:
        mode_t = (modes.T @ side.view(float)).view(complex)
    else:
        mode_t = modes.T @ side
    phases = np.exp(-1j * np.outer(times - times[0], quasi))
    out = np.einsum("dat,tak->tdk", mode_t.reshape(dim, dim, -1),
                    phases[:, :, None] * coef.reshape(dim, -1))
    return out.reshape(len(times), *y0.shape)


def _integrate(ham: TimeDependentHamiltonian, y0: np.ndarray,
               times: np.ndarray) -> np.ndarray:
    """U(t <- times[0]) y0 at every time of the grid; [nt, *y0.shape].

    y0 is a state vector or a matrix whose columns are propagated
    together.  Static Hamiltonians take the spectral path.  A harmonic
    one that a diagonal frame G makes static takes it too, in that frame:
    y(t) = e^{-iGt} e^{-iH'(t - t0)} e^{iGt0} y0.  Any other with one
    harmonic term takes the Floquet path when its Sambe space fits
    FLOQUET_MAX_DIM; the rest are integrated with DOP853 at RTOL/ATOL.
    """
    if len(times) == 1:
        return y0[None].copy()
    if not ham.is_static:
        gen = _static_frame(ham)
        if gen is not None:
            # Static: the default freq_atol covers _static_frame's tolerance.
            rotated = to_rotating_frame(ham, gen).hamiltonian
            lift = np.exp(1j * gen * times[0])
            back = np.exp(-1j * np.outer(times, gen))
            if y0.ndim == 2:
                lift, back = lift[:, None], back[:, :, None]
            return back * _integrate(rotated, lift * y0, times)
        if len(ham.harmonics) == 1:
            (term,) = ham.harmonics
            states = _floquet(ham.static, term.matrix, term.frequency, y0,
                              times)
            if states is not None:
                return states

    if ham.is_static:
        vals, vecs = np.linalg.eigh(ham.static)
        amps = vecs.conj().T @ y0
        phases = np.exp(-1j * np.outer(times - times[0], vals))
        if y0.ndim == 1:
            return (phases * amps) @ vecs.T
        return (vecs * phases[:, None, :]) @ amps

    from scipy.integrate import solve_ivp

    def rhs(t, y):
        return (-1j * (ham.evaluate(t) @ y.reshape(y0.shape))).ravel()

    # A two-point grid needs no dense output: its ends are step ends.
    t_eval = times if len(times) > 2 else None
    fastest = max(term.frequency for term in ham.harmonics)
    sol = solve_ivp(rhs, (times[0], times[-1]), y0.ravel(), t_eval=t_eval,
                    method="DOP853", rtol=RTOL, atol=ATOL,
                    max_step=0.25 * 2.0 * np.pi / fastest)
    if not sol.success:
        raise NumericalError(f"integration failed: {sol.message}")
    ys = sol.y if t_eval is not None else sol.y[:, [0, -1]]
    return ys.T.reshape(len(times), *y0.shape)


def time_grid(times) -> np.ndarray:
    """float times; ValueError unless a finite non-empty ascending 1-d grid."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0 or np.any(np.diff(times) < 0) \
            or not np.isfinite(times).all():
        raise ValueError("times must be a finite non-empty ascending 1-d grid")
    return times


def evolve_unitary(ham, psi0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Propagate a pure state over an ascending time grid; returns [nt, dim].

    psi0 is the state at times[0].  Raises NumericalError if the norm
    drifts beyond NORM_TOL anywhere on the grid.
    """
    ham = _as_hamiltonian(ham)
    times = time_grid(times)
    psi0 = np.asarray(psi0, dtype=complex)
    if abs(np.linalg.norm(psi0) - 1.0) > 1e-9:
        raise ValueError("psi0 must be normalized")

    states = _integrate(ham, psi0, times)
    drift = np.abs(np.linalg.norm(states, axis=1) - 1.0).max()
    if not drift <= NORM_TOL:
        raise NumericalError(f"norm drift {drift:.3e} exceeds {NORM_TOL:.0e}")
    return states


def propagator(ham, t1: float, t0: float = 0.0) -> np.ndarray:
    """Time-evolution operator U(t1 <- t0); ValueError on a non-finite time."""
    if not np.isfinite([t0, t1]).all():
        raise ValueError(f"propagator times must be finite: {t0}, {t1}")
    ham = _as_hamiltonian(ham)
    u = _integrate(ham, np.eye(ham.dim, dtype=complex),
                   np.array([t0, t1], dtype=float))[-1]
    defect = np.abs(u.conj().T @ u - np.eye(ham.dim)).max()
    if not defect <= 10 * NORM_TOL:
        raise NumericalError(f"propagator unitarity defect {defect:.3e}")
    return u


def evolve_stroboscopic(ham, psi0: np.ndarray, period: float,
                        n_periods: int, stride: int = 1,
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Sample a time-periodic evolution at multiples of its period.

    One period is integrated once; later samples are powers of the
    single-period propagator, so the cost is independent of n_periods.
    The powers come from the propagator's spectral decomposition with
    eigenvalues clamped to the unit circle: arbitrary period counts
    without norm drift.  A unitary is normal, so its distinct
    eigenspaces are orthogonal: a QR of eig's eigenvectors only
    orthonormalizes within a degenerate cluster, and every column of Z
    stays an eigenvector.  Z^H U Z must then be diagonal; an off-diagonal
    above 1e-8 means unitarity was lost.  stride keeps every stride-th
    period only.  psi0 is a state or a [dim, n] matrix of states as
    columns.  Returns (times, states [nt, *psi0.shape]), times[0] = 0.
    """
    ham = _as_hamiltonian(ham)
    psi0 = np.asarray(psi0, dtype=complex)
    u_period = propagator(ham, period, 0.0)
    z = np.linalg.qr(np.linalg.eig(u_period)[1])[0]
    tri = z.conj().T @ u_period @ z
    if np.abs(tri - np.diag(np.diag(tri))).max() > 1e-8:
        raise NumericalError("period propagator is not normal; "
                             "unitarity was lost")
    theta = np.angle(np.diag(tri))
    ks = np.arange(0, n_periods + 1, stride)
    phases = np.exp(1j * np.outer(ks, theta))
    z_h = z.conj().T
    # One contiguous column at a time, so that a column's bits depend on
    # nothing else: a BLAS product may round a matrix, a vector and a
    # strided vector each its own way.
    cols = np.array(psi0.T, order="C", ndmin=2)
    states = np.stack([np.einsum("ij,kj->ki", z, phases * (z_h @ col))
                       for col in cols], axis=-1)
    return ks * period, states.reshape(len(ks), *psi0.shape)


# Higham's degree-13 Pade coefficients b_0..b_13 of exp, and the 1-norm
# up to which that approximant meets double precision without scaling
# (SIAM J. Matrix Anal. Appl. 26, 1179 (2005), table 2.3).
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def _expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential: the Pade-13 approximant of exp(a / 2^s), with
    s the fewest halvings that bring ||a||_1 to _THETA13, squared s times.
    """
    norm = np.abs(a).sum(axis=0).max()
    squarings = int(np.ceil(np.log2(norm / _THETA13))) \
        if norm > _THETA13 else 0
    a = a * 2.0 ** -squarings
    b = _PADE13
    eye = np.eye(a.shape[0])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    out = np.linalg.solve(v - u, v + u)
    for _ in range(squarings):
        out = out @ out
    return out


def liouvillian(ham_static: np.ndarray,
                collapse: list[np.ndarray] | tuple) -> np.ndarray:
    """Dense Lindblad generator acting on row-major vec(rho)."""
    h = np.asarray(ham_static, dtype=complex)
    dim = h.shape[0]
    eye = np.eye(dim)
    sup = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for op in collapse:
        op = np.asarray(op, dtype=complex)
        anti = op.conj().T @ op
        sup += np.kron(op, op.conj())
        sup -= 0.5 * (np.kron(anti, eye) + np.kron(eye, anti.T))
    return sup


def evolve_lindblad(ham, rho0: np.ndarray, collapse, times: np.ndarray,
                    ) -> np.ndarray:
    """Propagate a density matrix under static H + Lindblad decay.

    Returns [nt, dim, dim].  Trace and positivity are monitored at every
    output; violations raise NumericalError.  Harmonic Hamiltonians are not
    supported here: move to a frame where the generator is static first.
    """
    ham = _as_hamiltonian(ham)
    if not ham.is_static:
        raise NotImplementedError(
            "evolve_lindblad requires a static Hamiltonian; transform to a "
            "rotating frame first")
    rho0 = np.asarray(rho0, dtype=complex)
    dim = ham.dim
    if np.abs(rho0 - rho0.conj().T).max() > 1e-10:
        raise ValueError("rho0 must be Hermitian")
    if abs(np.trace(rho0).real - 1.0) > 1e-9:
        raise ValueError("rho0 must have unit trace")
    if np.linalg.eigvalsh(rho0).min() < -POSITIVITY_TOL:
        raise ValueError("rho0 must be positive semidefinite")
    times = time_grid(times)

    sup = liouvillian(ham.static, collapse)
    out = np.empty((len(times), dim, dim), dtype=complex)
    out[0] = rho0
    vec = rho0.ravel().copy()
    cache: dict[float, np.ndarray] = {}
    for k in range(1, len(times)):
        dt = times[k] - times[k - 1]
        key = float(f"{dt:.12e}")
        step = cache.get(key)
        if step is None:
            step = _expm(sup * dt)
            cache[key] = step
        vec = step @ vec
        out[k] = vec.reshape(dim, dim)

    traces = np.einsum("tii->t", out).real
    if not np.abs(traces - traces[0]).max() <= TRACE_TOL:
        raise NumericalError("Lindblad trace drift exceeds tolerance")
    adjoint = out.conj().transpose(0, 2, 1)
    herm = np.abs(out - adjoint).max()
    if not herm <= 1e-10:
        raise NumericalError("Lindblad output lost Hermiticity")
    min_eig = np.linalg.eigvalsh((out + adjoint) / 2).min()
    if not min_eig >= -POSITIVITY_TOL:
        raise NumericalError(f"Lindblad positivity violated: {min_eig:.3e}")
    return out


# ------------------------------------------------------------ observables


def expectation(states_or_rho: np.ndarray, operator: np.ndarray) -> np.ndarray:
    """<O> over a trajectory of pure states [nt, d] or density matrices."""
    arr = np.asarray(states_or_rho)
    op = np.asarray(operator, dtype=complex)
    if arr.ndim == 2 and arr.shape[1] == op.shape[0]:
        return np.einsum("ti,ij,tj->t", arr.conj(), op, arr)
    if arr.ndim == 3:
        return np.einsum("tij,ji->t", arr, op)
    raise ValueError("expected [nt, d] states or [nt, d, d] density matrices")


def overlap_population(states: np.ndarray, target: np.ndarray) -> np.ndarray:
    """|<target|psi(t)>|^2 over a pure-state trajectory."""
    amps = states @ np.asarray(target, dtype=complex).conj()
    return np.abs(amps) ** 2


# ------------------------------------------------------------ curve fitting


def _guess_tau(times: np.ndarray, values: np.ndarray) -> float:
    """Where |values - baseline| first falls below 1/e of its peak, the
    baseline being the mean of the last fifth of the values."""
    tail = values[int(0.8 * len(values)):]
    base = float(tail.mean()) if tail.size else float(values[-1])
    envelope = np.abs(values - base)
    peak = envelope.max()
    if peak <= 0:
        return times[-1] - times[0] or 1.0
    below = np.nonzero(envelope < peak / np.e)[0]
    if below.size:
        return max(times[below[0]] - times[0], (times[1] - times[0]))
    return times[-1] - times[0]


def _exponential_basis(t, tau):
    """exp(-t / tau) and its derivative in tau."""
    col = np.exp(t * (-1.0 / tau))
    return col, col * t * tau ** -2


_PARAMS = ("amplitude", "tau", "offset")
# The secant search stops where dphi/dtau is at its rounding level,
# FIT_GTOL times 2 eps |amp| |dA/dtau| (|y| + |amp A|), what rounding
# the residual carries into it (0.4-3 times that on the benchmark's
# fits), or where a step moves tau by no more than FIT_XTOL of it.  A
# column that meets the constant at a squared sine below FIT_SINGULAR
# (an exponential decaying by 3e-4 over the window) leaves amplitude and
# offset undetermined.
FIT_GTOL = 8.0
FIT_XTOL = 4.0 * _EPS
FIT_SINGULAR = 1e-8
FIT_MAX_EVALS = 100


def _secant_minimum(grad, x0: float, g0: float, step: float,
                    ) -> float | None:
    """A zero of grad = dphi/dtheta where phi has a local minimum.

    Starts from x0, where grad is g0, with a downhill step; then secant
    steps on the last two points.  Until grad changes sign the search
    walks downhill, each step at most half of theta, so theta keeps its
    sign; where the secant points uphill the step doubles instead.  Once
    grad changes sign, the two points bracket a minimum (grad < 0 below
    it, > 0 above it), and a secant step that would leave the bracket
    bisects it instead: the search keeps the basin it started in.  grad
    returns 0 where it is indistinguishable from rounding.  Returns the
    last point evaluated, or None after FIT_MAX_EVALS evaluations.
    """
    if g0 == 0.0:
        return x0
    bracket = None  # [lo, hi] with grad(lo) < 0 < grad(hi)
    for _ in range(FIT_MAX_EVALS - 1):
        x1 = x0 + step
        g1 = grad(x1)
        if g1 == 0.0 or abs(step) <= FIT_XTOL * abs(x1):
            return x1
        if bracket is not None:
            bracket[int(g1 > 0.0)] = x1
        elif (g1 > 0.0) != (g0 > 0.0):
            bracket = sorted((x0, x1))
        secant = -g1 * (x1 - x0) / (g1 - g0) if g1 != g0 else np.nan
        if bracket is None:
            if not secant * step > 0.0:
                secant = 2.0 * step
            step = np.copysign(min(abs(secant), 0.5 * abs(x1)), step)
        else:
            lo, hi = bracket
            step = secant if lo < x1 + secant < hi else 0.5 * (lo + hi) - x1
        x0, g0 = x1, g1
    return None


def _dot(a: np.ndarray, b: np.ndarray) -> np.float64:
    """a . b of 1-d arrays by numpy's pairwise sum: BLAS would split a long
    sum across its threads, and each thread count adds in its own order."""
    return np.add.reduce(a * b)


def _covariance_stderr(jac_t: np.ndarray, ssq: float) -> np.ndarray:
    """sqrt(diag(inv(J^T J) ssq / (m - n))) from J^T, [n, m]; inf if J^T J
    is singular.  J^T J is summed as in _dot."""
    n, m = jac_t.shape
    jtj = np.array([[_dot(row, col) for col in jac_t] for row in jac_t])
    scale = np.sqrt(np.diag(jtj))
    if m <= n or not np.all(scale > 0.0):
        return np.full(n, np.inf)
    vals, vecs = np.linalg.eigh(jtj / np.outer(scale, scale))
    if not vals[0] > n * _EPS * vals[-1]:
        return np.full(n, np.inf)
    var = ((vecs / vals) @ vecs.T).diagonal() / scale ** 2
    return np.sqrt(var * ssq / (m - n))


def fit_decay(times: np.ndarray, values: np.ndarray, model: str,
              p0: tuple | None = None) -> FitResult:
    """Least-squares fit of amplitude * exp(-t / tau) + offset, the one
    model ("exponential"): tau is its one nonlinear parameter.

    Variable projection (Golub & Pereyra, SIAM J. Numer. Anal. 10, 413
    (1973)): at each tau amplitude and offset solve their linear
    least-squares problem exactly, and phi(tau), the squared residual
    left, is minimised over tau alone.  Its derivative is
    -2 r^T (dA/dtau) c for residual r, basis A and linear parameters c;
    its zero is found by _secant_minimum from the guess, or from p0
    ((amplitude, tau, offset); only tau is read from it).  stderr is
    curve_fit's sqrt(diag(inv(J^T J) ssq / (m - n))) at the minimum.

    Raises ValueError on non-finite data or too few points, and
    NumericalError when the search does not converge or the data show no
    decay (the basis turns singular, or the amplitude is rounding), with
    the residual of the best attempt in the message.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if model != "exponential":
        raise ValueError(f"unknown model {model!r}; have ['exponential']")
    if not (times.ndim == 1 and times.shape == values.shape
            and times.size > len(_PARAMS)):
        raise ValueError(f"times and values must be 1-d of equal length, "
                         f"more than {len(_PARAMS)} points")
    if not (np.all(np.isfinite(times)) and np.all(np.isfinite(values))):
        raise ValueError("times and values must be finite")
    # The column is centred, so the 2x2 normal equations reduce to one
    # division; the residual r is the same.
    target = values - values.mean()
    target_norm = np.sqrt(_dot(target, target))
    best = [np.inf]  # smallest squared residual seen
    last = {}

    def rms(ssq):
        return float(np.sqrt(ssq / times.size))

    def failed(reason):
        return NumericalError(f"{model} fit {reason} "
                              f"(best rms {rms(best[0]):.3e})")

    def grad(tau):
        raw, dcol = _exponential_basis(times, tau)
        mean = raw.sum() / raw.size
        col = raw - mean
        norm2 = _dot(col, col)
        raw2 = norm2 + col.size * mean ** 2  # raw @ raw
        if not norm2 > FIT_SINGULAR * raw2:
            raise failed(f"met a singular basis at tau = {tau:.6g}: the "
                         f"data show no {model} decay")
        amp = _dot(col, target) / norm2
        resid = target - amp * col
        best[0] = min(best[0], _dot(resid, resid))
        last.update(raw=raw, col=col, dcol=dcol, norm2=norm2, amp=amp,
                    mean=mean, resid=resid)
        slope = -2.0 * amp * _dot(resid, dcol)
        noise = 2.0 * abs(amp) * _EPS * np.sqrt(_dot(dcol, dcol)) * (
            target_norm + abs(amp) * np.sqrt(raw2))
        return 0.0 if abs(slope) <= FIT_GTOL * noise else slope

    tau = float(p0[1] if p0 is not None else _guess_tau(times, values))
    g0 = grad(tau)
    # First step: Gauss-Newton on phi, whose curvature it takes as
    # 2 |P dA c|^2 with P the projector off the basis (Kaufman, BIT 15,
    # 49 (1975)), at most half of tau.
    col, dcol = last["col"], last["dcol"]
    perp2 = _dot(dcol, dcol) - _dot(col, dcol) ** 2 / last["norm2"]
    perp2 -= dcol.sum() ** 2 / dcol.size
    newton = g0 / (2.0 * last["amp"] ** 2 * perp2) if g0 else 0.0
    step = -np.copysign(np.fmin(abs(newton), 0.5 * abs(tau)), g0)
    tau = _secant_minimum(grad, tau, g0, step)
    if tau is None:
        raise failed(f"did not converge in {FIT_MAX_EVALS} evaluations")
    amp, mean, resid = last["amp"], last["mean"], last["resid"]
    if not abs(amp) * np.sqrt(last["norm2"]) > FIT_GTOL * _EPS * np.sqrt(
            _dot(values, values)):
        raise failed(f"found no amplitude above rounding at tau = "
                     f"{tau:.6g}: the data show no {model} decay")
    params = [amp, tau, values.mean() - amp * mean]
    jac = [last["raw"], amp * last["dcol"], np.ones_like(resid)]
    ssq = float(_dot(resid, resid))
    err = _covariance_stderr(np.array(jac), ssq)
    return FitResult(model=model,
                     params=dict(zip(_PARAMS, map(float, params))),
                     stderr=dict(zip(_PARAMS, map(float, err))),
                     rms_residual=rms(ssq))
