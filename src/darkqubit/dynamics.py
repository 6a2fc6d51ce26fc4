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
* Floquet, for any other Hamiltonian with exactly one harmonic term: the
  spectral path on the static Sambe-space Hamiltonian of its sidebands
  |n| <= N, with N grown until a truncation bound is below FLOQUET_TOL.
  It gives way when (2N + 1) dim would pass FLOQUET_MAX_DIM, where one
  eigh costs more than a typical DOP853 run (a strong, slow drive);
* DOP853 for every other harmonic Hamiltonian (several harmonics, or one
  the Floquet path gave up on), an adaptive integration whose maximum
  step is capped at a quarter period of the fastest harmonic so
  micromotion cannot be stepped over when the state itself is slow.

Open-system evolution builds the Liouvillian as a dense superoperator
(row-major vec(rho), so vec(A rho B) = (A kron B^T) vec(rho)) and
exponentiates it per unique time step; system dimensions here are small
enough that this is both exact and fast.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .driving import TimeDependentHamiltonian, to_rotating_frame

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
# unit-norm column (DOP853's RTOL; the bound runs 100-1000x above the
# error measured against DOP853 at rtol 1e-13), and the largest Sambe
# dimension worth one eigh.  At 500, one complex eigh takes about 0.19 s
# (2-vCPU Xeon, one BLAS thread), as long as DOP853 took on the
# benchmark's long harmonic runs (0.12-0.25 s).
FLOQUET_TOL = 1e-10
FLOQUET_MAX_DIM = 500
# Output times formed per block on the Floquet path.
_TIME_BLOCK = 64


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
    """Sambe-space propagation of H0 + M e^{-iwt} + M^dag e^{iwt}.

    With y(t) = sum_n e^{-inwt} c_n(t), the sideband amplitudes obey
    i dc_n/dt = (H0 - n w) c_n + M c_{n-1} + M^dag c_{n+1}: one static
    block-tridiagonal H_F, here truncated to |n| <= N and solved on the
    spectral path from c_n(t0) = delta_{n0} y0 (Shirley, Phys. Rev. 138,
    B979 (1965); Sambe, Phys. Rev. A 7, 2203 (1973)).

    N starts as the smallest n whose Bessel tail (x/2)^n / n!, x = 2|M|/w,
    times max(1, |M| span) is below FLOQUET_TOL.  Truncation feeds back at
    most |M| (|c_N| + |c_{-N}|) per unit time, and the edge amplitudes are
    bounded by sum_a |amp_a| |V[edge rows, a]| at all times; N grows until
    that bound over max(span, 1/w) is below FLOQUET_TOL.  Returns None
    when the Sambe dimension (2N + 1) dim would pass FLOQUET_MAX_DIM.
    """
    dim = h0.shape[0]
    norm_m = np.linalg.norm(m, 2)
    span = times[-1] - times[0]
    tail, cutoff = max(1.0, norm_m * span), 0
    while tail >= FLOQUET_TOL and (2 * cutoff + 1) * dim <= FLOQUET_MAX_DIM:
        cutoff += 1
        tail *= norm_m / freq / cutoff
    while (2 * cutoff + 1) * dim <= FLOQUET_MAX_DIM:
        bands = 2 * cutoff + 1
        size = bands * dim
        h_f = np.zeros((size, size), dtype=complex)
        blocks = h_f.reshape(bands, dim, bands, dim)
        for k in range(bands):
            blocks[k, :, k] = h0
            if k:
                blocks[k, :, k - 1] = m
                blocks[k - 1, :, k] = m.conj().T
        sidebands = np.arange(-cutoff, cutoff + 1) * freq
        h_f[np.diag_indices(size)] -= np.repeat(sidebands, dim)
        vals, vecs = np.linalg.eigh(h_f)
        del h_f, blocks  # peak memory: keep only the eigenvectors

        amps = vecs[cutoff * dim:(cutoff + 1) * dim].conj().T @ y0
        edge = (np.linalg.norm(vecs[:dim], axis=0)
                + np.linalg.norm(vecs[-dim:], axis=0))
        bound = (edge @ np.abs(amps)).max() * norm_m * max(span, 1.0 / freq)
        if bound <= FLOQUET_TOL:
            break
        del vals, vecs  # and none of them into the next, larger round
        # Past N the bound falls about as the tail x^n / n! does.  N grows
        # by at least one, also when the bound is not a number.
        while True:
            cutoff += 1
            bound *= 2.0 * norm_m / freq / cutoff
            if not bound > FLOQUET_TOL:
                break
    else:
        return None

    # c(t) = V e^{-iE(t - t0)} amps, then y(t) = sum_n e^{-inwt} c_n(t);
    # formed per time block to keep memory O(size^2 + block * size).
    amps = amps.reshape(size, 1, -1)
    out = np.empty((len(times), dim, amps.shape[2]), dtype=complex)
    for start in range(0, len(times), _TIME_BLOCK):
        t = times[start:start + _TIME_BLOCK]
        coef = np.exp(-1j * np.outer(vals, t - times[0]))[:, :, None] * amps
        sambe = (vecs @ coef.reshape(size, -1)).reshape(bands, dim, len(t), -1)
        out[start:start + len(t)] = np.einsum(
            "tn,ndtk->tdk", np.exp(-1j * np.outer(t, sidebands)), sambe)
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

    if y0.ndim == 1:
        def rhs(t, y):
            return -1j * (ham.evaluate(t) @ y)
    else:
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
    """times as floats; ValueError unless a non-empty ascending 1-d grid."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0 or np.any(np.diff(times) < 0):
        raise ValueError("times must be a non-empty ascending 1-d grid")
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
    if drift > NORM_TOL:
        raise NumericalError(
            f"norm drift {drift:.3e} exceeds {NORM_TOL:.0e} at "
            f"rtol {RTOL:.0e}, atol {ATOL:.0e}")
    return states


def propagator(ham, t1: float, t0: float = 0.0) -> np.ndarray:
    """Time-evolution operator U(t1 <- t0)."""
    ham = _as_hamiltonian(ham)
    u = _integrate(ham, np.eye(ham.dim, dtype=complex),
                   np.array([t0, t1], dtype=float))[-1]
    defect = np.abs(u.conj().T @ u - np.eye(ham.dim)).max()
    if defect > 10 * NORM_TOL:
        raise NumericalError(f"propagator unitarity defect {defect:.3e}")
    return u


def evolve_stroboscopic(ham, psi0: np.ndarray, period: float,
                        n_periods: int, stride: int = 1,
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Sample a time-periodic evolution at multiples of its period.

    One period is integrated once; later samples are powers of the
    single-period propagator, so the cost is independent of n_periods.
    The powers come from the propagator's spectral decomposition (a
    unitary is normal, so a Schur factorization diagonalizes it) with
    eigenvalues clamped to the unit circle: arbitrary period counts
    without norm drift.  stride keeps every stride-th period only.
    Returns (times, states), times[0] = 0.
    """
    from scipy.linalg import schur

    ham = _as_hamiltonian(ham)
    psi0 = np.asarray(psi0, dtype=complex)
    u_period = propagator(ham, period, 0.0)
    tri, z = schur(u_period, output="complex")
    if np.abs(tri - np.diag(np.diag(tri))).max() > 1e-8:
        raise NumericalError("period propagator is not normal; "
                             "unitarity was lost")
    theta = np.angle(np.diag(tri))
    ks = np.arange(0, n_periods + 1, stride)
    amps = z.conj().T @ psi0
    states = np.einsum("ij,kj->ki", z,
                       np.exp(1j * np.outer(ks, theta)) * amps)
    return ks * period, states


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

    from scipy.linalg import expm

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
            step = expm(sup * dt)
            cache[key] = step
        vec = step @ vec
        out[k] = vec.reshape(dim, dim)

    traces = np.einsum("tii->t", out).real
    if np.abs(traces - traces[0]).max() > TRACE_TOL:
        raise NumericalError("Lindblad trace drift exceeds tolerance")
    herm = max(np.abs(r - r.conj().T).max() for r in out)
    if herm > 1e-10:
        raise NumericalError("Lindblad output lost Hermiticity")
    min_eig = min(np.linalg.eigvalsh((r + r.conj().T) / 2).min() for r in out)
    if min_eig < -POSITIVITY_TOL:
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


def _guess_baseline(values: np.ndarray) -> float:
    tail = values[int(0.8 * len(values)):]
    return float(tail.mean()) if tail.size else float(values[-1])


def _guess_rate(times: np.ndarray, values: np.ndarray, base: float) -> float:
    envelope = np.abs(values - base)
    peak = envelope.max()
    if peak <= 0:
        return times[-1] - times[0] or 1.0
    below = np.nonzero(envelope < peak / np.e)[0]
    if below.size:
        return max(times[below[0]] - times[0], (times[1] - times[0]))
    return times[-1] - times[0]


def _guess_frequency(times: np.ndarray, values: np.ndarray) -> float:
    dt = times[1] - times[0]
    spectrum = np.fft.rfft(values - values.mean())
    freqs = np.fft.rfftfreq(len(values), dt)
    peak = np.argmax(np.abs(spectrum[1:])) + 1
    return 2.0 * np.pi * freqs[peak]


def _exponential(times, values):
    base = _guess_baseline(values)
    p0 = (values[0] - base, _guess_rate(times, values, base), base)

    def fn(t, amp, tau, off):
        return amp * np.exp(-t / tau) + off
    return fn, p0, ("amplitude", "tau", "offset")


def _gaussian(times, values):
    base = _guess_baseline(values)
    p0 = (values[0] - base, _guess_rate(times, values, base), base)

    def fn(t, amp, tau, off):
        return amp * np.exp(-((t / tau) ** 2)) + off
    return fn, p0, ("amplitude", "tau", "offset")


def _sin2(times, values):
    # Population-transfer model p(t) = amp * sin^2(rate * t); the dominant
    # FFT component sits at 2*rate.
    rate = _guess_frequency(times, values) / 2.0
    p0 = (values.max() or 1.0, rate or 1.0 / (times[-1] - times[0] or 1.0))

    def fn(t, amp, rate):
        return amp * np.sin(rate * t) ** 2
    return fn, p0, ("amplitude", "rate")


_MODELS = {"exponential": _exponential, "gaussian": _gaussian,
           "sin2": _sin2}


def _gauss_newton_polish(fn, times, values, params):
    """Two Gauss-Newton steps from curve_fit's answer.

    curve_fit stops at relative tolerances of 1.5e-8, up to about 1e-6
    relative from the minimum, wherever the data happen to put its last
    iteration.  Gauss-Newton steps with a complex-step Jacobian (exact to
    rounding: every model is analytic in its parameters) land on the
    minimum, so data that move by 1e-11 move the fit by about as little.
    The steps are dropped if they raise the residual beyond rounding.
    """
    def ssq(p):
        return np.sum((values - fn(times, *p)) ** 2)

    polished = params
    for _ in range(2):
        jac = np.column_stack([fn(times, *(polished + 1e-20j * unit)).imag
                               for unit in np.eye(len(params))]) / 1e-20
        resid = values - fn(times, *polished)
        polished = polished + np.linalg.solve(jac.T @ jac, jac.T @ resid)
    slack = 1e-14 * (ssq(params) + np.sum(values ** 2))
    return polished if ssq(polished) <= ssq(params) + slack else params


def fit_decay(times: np.ndarray, values: np.ndarray, model: str,
              p0: tuple | None = None) -> FitResult:
    """Least-squares fit of a named decay model; see _MODELS for choices.

    Raises NumericalError on non-convergence, with the residual of the
    best attempt in the message.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if model not in _MODELS:
        raise ValueError(f"unknown model {model!r}; have {sorted(_MODELS)}")
    from scipy.optimize import curve_fit

    fn, guess, names = _MODELS[model](times, values)
    if p0 is not None:
        guess = p0
    try:
        popt, pcov = curve_fit(fn, times, values, p0=guess, maxfev=20000)
    except RuntimeError as exc:
        resid = np.sqrt(np.mean((fn(times, *guess) - values) ** 2))
        raise NumericalError(
            f"{model} fit did not converge (guess rms {resid:.3e})") from exc
    popt = _gauss_newton_polish(fn, times, values, popt)
    resid = float(np.sqrt(np.mean((fn(times, *popt) - values) ** 2)))
    err = np.sqrt(np.abs(np.diag(pcov)))
    return FitResult(model=model,
                     params=dict(zip(names, map(float, popt))),
                     stderr=dict(zip(names, map(float, err))),
                     rms_residual=resid)
