"""Driving fields, rotating frames, and protected-qubit constructions.

Time dependence is kept symbolic: a Hamiltonian is a static Hermitian matrix
plus a list of harmonic terms (M, w) standing for  M e^{-iwt} + M^dag e^{+iwt}
with w > 0.  A frame transform with diagonal generator G acts element-wise,

    (e^{+iGt} M e^{-iGt})_ab = M_ab e^{i(g_a - g_b) t},

so moving to a rotating frame is exact bookkeeping: every matrix element is
re-binned by its residual frequency.  The rotating-wave approximation is then
a visible truncation step; dropped terms are returned with their frequency,
amplitude, and amplitude/frequency ratio instead of silently vanishing.

The construction helpers assemble the driven Lambda systems whose null space
hosts the protected (dark) qubit:

* :func:`ideal_construction` - one resonant field per transition,
* :func:`compact_construction` - one sigma+ and one sigma- field spaced by the
  lower-manifold Zeeman splitting; the leftover detunings reappear as a small
  static shift of the excited states and leave the dark states untouched,
* :func:`hyperfine_construction` - the F / F' analogue driven by a single
  oscillating transverse field.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .levels import LevelScheme, POLARIZATIONS

__all__ = [
    "DriveField",
    "Harmonic",
    "TimeDependentHamiltonian",
    "DroppedTerm",
    "RotatedHamiltonian",
    "Construction",
    "build_lab_hamiltonian",
    "to_rotating_frame",
    "ideal_construction",
    "compact_construction",
    "hyperfine_construction",
    "RWA_RATIO_WARN",
]

# Dropped counter-rotating terms with amplitude/frequency above this ratio
# are questionable; to_rotating_frame emits a warning for them.
RWA_RATIO_WARN = 0.05

_HERM_TOL = 1e-10


def _check_hermitian(mat: np.ndarray, what: str) -> np.ndarray:
    mat = np.asarray(mat, dtype=complex)
    scale = max(1.0, np.abs(mat).max())
    if np.abs(mat - mat.conj().T).max() > _HERM_TOL * scale:
        raise ValueError(f"{what} is not Hermitian")
    return mat


@dataclass(frozen=True)
class DriveField:
    """One classical driving field on a dipole transition.

    rabi is the field amplitude in rad/s: the lab Hamiltonian term is
    rabi * cos(frequency*t + phase) * (O + O^dag) where O carries the raw
    Clebsch-Gordan matrix elements of the polarization.  amp_error is a
    relative amplitude miscalibration; pol_leak moves that fraction of the
    amplitude into the opposite circular polarization at the same frequency.
    transitions optionally restricts the field to specific lower-m values.
    """

    lower: str
    upper: str
    polarization: str
    frequency: float
    rabi: float
    phase: float = 0.0
    amp_error: float = 0.0
    pol_leak: float = 0.0
    transitions: tuple | None = None

    def __post_init__(self):
        if self.polarization not in POLARIZATIONS:
            raise ValueError(f"unknown polarization {self.polarization!r}")
        if self.frequency <= 0:
            raise ValueError("drive frequency must be positive")
        if not 0.0 <= self.pol_leak < 1.0:
            raise ValueError("pol_leak must be in [0, 1)")
        if self.pol_leak > 0 and self.polarization == "pi":
            raise ValueError("pol_leak is defined for circular polarizations only")


@dataclass(frozen=True)
class Harmonic:
    """One harmonic term: matrix * e^{-i frequency t} + h.c., frequency > 0."""

    matrix: np.ndarray
    frequency: float

    def __post_init__(self):
        if self.frequency <= 0:
            raise ValueError("harmonic frequency must be positive")
        object.__setattr__(self, "matrix", np.asarray(self.matrix, dtype=complex))


@dataclass(frozen=True)
class TimeDependentHamiltonian:
    static: np.ndarray
    harmonics: tuple[Harmonic, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "static", _check_hermitian(self.static, "static part"))

    @property
    def dim(self) -> int:
        return self.static.shape[0]

    @property
    def is_static(self) -> bool:
        return not self.harmonics

    def evaluate(self, t: float) -> np.ndarray:
        out = self.static.copy()
        for term in self.harmonics:
            phase = np.exp(-1j * term.frequency * t)
            out += term.matrix * phase + term.matrix.conj().T * np.conj(phase)
        return out

    def plus_static(self, mat: np.ndarray) -> "TimeDependentHamiltonian":
        return TimeDependentHamiltonian(self.static + mat, self.harmonics)

    def plus_harmonic(self, mat: np.ndarray, frequency: float,
                      phase: float = 0.0) -> "TimeDependentHamiltonian":
        """Add mat * e^{-i(frequency t + phase)} + h.c. as a harmonic term."""
        return TimeDependentHamiltonian(
            self.static, self.harmonics + (_phased(mat, frequency, phase),))


def _phased(mat: np.ndarray, frequency: float, phase: float) -> Harmonic:
    """The harmonic mat * e^{-i(frequency t + phase)} + h.c."""
    return Harmonic(np.asarray(mat, dtype=complex) * np.exp(-1j * phase),
                    frequency)


@dataclass(frozen=True)
class DroppedTerm:
    """Record of a harmonic removed by the rotating-wave approximation."""

    frequency: float
    max_amplitude: float
    ratio: float  # max_amplitude / frequency


@dataclass(frozen=True)
class RotatedHamiltonian:
    hamiltonian: TimeDependentHamiltonian
    generator: np.ndarray  # diagonal entries of the frame generator
    dropped: tuple[DroppedTerm, ...] = field(default_factory=tuple)


def build_lab_hamiltonian(scheme: LevelScheme, b: float,
                          drives: tuple[DriveField, ...] | list[DriveField],
                          ) -> TimeDependentHamiltonian:
    """Static Zeeman/offset Hamiltonian plus one harmonic per drive component."""
    harmonics = []
    for drive in drives:
        amp = drive.rabi * (1.0 + drive.amp_error)
        parts = [(drive.polarization, amp * (1.0 - drive.pol_leak))]
        if drive.pol_leak > 0.0:
            flipped = "sigma-" if drive.polarization == "sigma+" else "sigma+"
            parts.append((flipped, amp * drive.pol_leak))
        for pol, part_amp in parts:
            if part_amp == 0.0:
                continue
            op = scheme.dipole_coupling(drive.lower, drive.upper, pol,
                                        transitions=drive.transitions)
            if not np.any(op):
                continue
            harmonics.append(_phased((part_amp / 2.0) * (op + op.conj().T),
                                     drive.frequency, drive.phase))
    return TimeDependentHamiltonian(scheme.static_hamiltonian(b),
                                    tuple(harmonics))


# ------------------------------------------------------------ frame algebra


def _bucket_insert(buckets: list, freq: float, row: int, col: int,
                   value: complex, dim: int, merge_tol: float) -> None:
    for k, (bf, mat) in enumerate(buckets):
        if abs(bf - freq) <= merge_tol:
            mat[row, col] += value
            return
    mat = np.zeros((dim, dim), dtype=complex)
    mat[row, col] = value
    buckets.append((freq, mat))


def to_rotating_frame(ham: TimeDependentHamiltonian, generator: np.ndarray,
                      rwa_cutoff: float | None = None,
                      freq_atol: float | None = None) -> RotatedHamiltonian:
    """Transform to the frame of a diagonal generator G: H -> U^dag H U - G.

    generator is G's 1-d diagonal.  Residual frequencies within freq_atol
    of zero become static; the rest are grouped into harmonics.  With
    rwa_cutoff set, harmonics above the cutoff are dropped and reported in
    the result's ledger (warning if any dropped term has
    amplitude/frequency above RWA_RATIO_WARN).

    The default freq_atol is 1e-9 of the largest frequency in the problem,
    which absorbs float rounding of optical-scale energies; when residuals
    finer than that are physical (sub-ppb-of-carrier sidebands), pass
    freq_atol explicitly.
    """
    gen = np.asarray(generator).real.astype(float)
    dim = ham.dim
    if gen.shape != (dim,):
        raise ValueError("generator dimension mismatch")

    scale = max([1.0, np.abs(gen).max()]
                + [term.frequency for term in ham.harmonics])
    if freq_atol is None:
        freq_atol = 1e-9 * scale

    static = np.diag(np.diag(ham.static))
    buckets: list[tuple[float, np.ndarray]] = []

    # Each element of a term's stored (e^{-iwt}) side lands at its own
    # residual frequency; the h.c. side follows automatically.  The static
    # part's upper triangle is the w = 0 term, and its diagonal survives
    # untouched.
    terms = [(0.0, np.triu(ham.static, 1))]
    terms += [(term.frequency, term.matrix) for term in ham.harmonics]
    for freq, mat in terms:
        for a, col in zip(*np.nonzero(mat)):
            x = mat[a, col]
            nu = freq - (gen[a] - gen[col])
            if abs(nu) <= freq_atol:
                static[a, col] += x
                static[col, a] += np.conj(x)
            elif nu > 0:
                _bucket_insert(buckets, nu, a, col, x, dim, freq_atol)
            else:
                _bucket_insert(buckets, -nu, col, a, np.conj(x), dim, freq_atol)

    static -= np.diag(gen)

    kept: list[Harmonic] = []
    dropped: list[DroppedTerm] = []
    for freq, mat in sorted(buckets, key=lambda item: item[0]):
        peak = np.abs(mat).max()
        if rwa_cutoff is not None and freq > rwa_cutoff:
            dropped.append(DroppedTerm(freq, peak, peak / freq))
        else:
            kept.append(Harmonic(mat, freq))
    for term in dropped:
        if term.ratio > RWA_RATIO_WARN:
            warnings.warn(
                f"dropped term at {term.frequency:.6g} rad/s has amplitude "
                f"ratio {term.ratio:.3g}; rotating-wave approximation is "
                "questionable", stacklevel=2)

    rotated = TimeDependentHamiltonian(static, tuple(kept))
    return RotatedHamiltonian(rotated, gen, tuple(dropped))


# ------------------------------------------------------------ constructions


@dataclass(frozen=True)
class Construction:
    """A driven scheme together with its interaction-picture Hamiltonian.

    ip.static splits as detuning_part (diagonal leftovers of the frame
    choice) + coupling_part (the drive-induced couplings); the split is what
    drive-amplitude noise acts on.  omega is the Lambda coupling unit: the
    weakest driven transition has interaction-picture amplitude omega/2.
    """

    scheme: LevelScheme
    b: float
    omega: float
    lower: str
    upper: str
    drives: tuple[DriveField, ...]
    frame: np.ndarray
    ip: TimeDependentHamiltonian
    detuning_part: np.ndarray
    coupling_part: np.ndarray
    dropped: tuple[DroppedTerm, ...]

    @property
    def dim(self) -> int:
        return self.scheme.dim


def _reference_coupling(scheme: LevelScheme, lower: str, upper: str) -> float:
    """Smallest nonzero |CG| among the driven sigma transitions."""
    smallest = None
    for pol in ("sigma+", "sigma-"):
        op = scheme.dipole_coupling(lower, upper, pol)
        mags = np.abs(op[op != 0])
        if mags.size:
            low = mags.min()
            smallest = low if smallest is None else min(smallest, low)
    if smallest is None:
        raise ValueError(f"no sigma transitions between {lower} and {upper}")
    return float(smallest)


def _default_cutoff(scheme: LevelScheme, b: float, omega: float) -> float:
    zeeman = np.abs(np.diag(scheme.zeeman_generator())).max() * abs(b)
    return 10.0 * max(abs(omega), zeeman)


def _finish_construction(scheme, b, omega, lower, upper, drives, lab,
                         generator, rwa_cutoff) -> Construction:
    if rwa_cutoff is None:
        rwa_cutoff = _default_cutoff(scheme, b, omega)
    rotated = to_rotating_frame(lab, generator, rwa_cutoff=rwa_cutoff)
    detuning = np.diag(np.diag(lab.static) - rotated.generator).astype(complex)
    coupling = rotated.hamiltonian.static - detuning
    return Construction(
        scheme=scheme, b=b, omega=omega, lower=lower, upper=upper,
        drives=tuple(drives), frame=rotated.generator,
        ip=rotated.hamiltonian, detuning_part=detuning,
        coupling_part=coupling, dropped=rotated.dropped)


def ideal_construction(scheme: LevelScheme, b: float, omega: float,
                       lower: str = "D3/2", upper: str = "P1/2",
                       rwa_cutoff: float | None = None) -> Construction:
    """One resonant field per sigma transition, individually addressed.

    Every field has the same amplitude omega / min|CG|; the Clebsch-Gordan
    coefficients then set the coupling ratios inside each Lambda system and
    the interaction picture (in the bare-energy frame) is fully static.
    """
    c_ref = _reference_coupling(scheme, lower, upper)
    # The bare energies are both the drive resonances and the frame.
    energies = np.diag(scheme.static_hamiltonian(b)).real
    drives = []
    for pol, q in (("sigma+", 1), ("sigma-", -1)):
        for m in scheme.manifold(lower).m_values:
            mu = m + q
            if abs(mu) > scheme.manifold(upper).j:
                continue
            op = scheme.dipole_coupling(lower, upper, pol, transitions=(m,))
            if not np.any(op):
                continue
            freq = energies[scheme.index(upper, mu)] - energies[scheme.index(lower, m)]
            if freq <= 0:
                raise ValueError("upper manifold must lie above the lower one")
            drives.append(DriveField(lower, upper, pol, frequency=freq,
                                     rabi=omega / c_ref, transitions=(m,)))
    return _finish_construction(scheme, b, omega, lower, upper, drives,
                                build_lab_hamiltonian(scheme, b, drives),
                                energies, rwa_cutoff)


def compact_construction(scheme: LevelScheme, b: float, omega: float,
                         lower: str = "D3/2", upper: str = "P1/2",
                         amp_error: float = 0.0, pol_leak: float = 0.0,
                         rwa_cutoff: float | None = None) -> Construction:
    """Two-field construction: sigma+/- at the line center +/- g_lower * b.

    In the frame that rotates the upper manifold with the lower manifold's
    g-factor, all driven transitions are simultaneously resonant and the
    only leftover is the static detuning  b (g_upper - g_lower) Jz_upper,
    which acts on the excited states alone: on the optical presets the
    dark states are exactly those of the ideal construction.  On a
    hyperfine preset no state of the lower manifold alone is dark to both
    fields, so the dark pair lies almost wholly on the upper manifold,
    where the detuning moves it off the ideal pair.  amp_error perturbs the sigma+ field's
    amplitude; pol_leak leaks each field into the opposite polarization.
    """
    low = scheme.manifold(lower)
    up = scheme.manifold(upper)
    if up.offset <= low.offset:
        raise ValueError("upper manifold must lie above the lower one")
    center = up.offset - low.offset
    c_ref = _reference_coupling(scheme, lower, upper)
    rabi = omega / c_ref
    drives = [
        DriveField(lower, upper, "sigma+", frequency=center + low.g * b,
                   rabi=rabi, amp_error=amp_error, pol_leak=pol_leak),
        DriveField(lower, upper, "sigma-", frequency=center - low.g * b,
                   rabi=rabi, pol_leak=pol_leak),
    ]
    lab = build_lab_hamiltonian(scheme, b, drives)
    # Frame: true Zeeman everywhere except the upper manifold, which rotates
    # with the lower manifold's g-factor.
    generator = np.diag(lab.static).real.copy()
    m_up = np.array([float(m) for m in up.m_values])
    generator[scheme.slice(upper)] = up.offset + b * low.g * m_up
    return _finish_construction(scheme, b, omega, lower, upper, drives, lab,
                                generator, rwa_cutoff)


def hyperfine_construction(scheme: LevelScheme, b: float, omega: float,
                           lower: str = "F1", upper: str = "F2",
                           rwa_cutoff: float | None = None) -> Construction:
    """Transverse-field construction on a hyperfine F / F' pair.

    Lab Hamiltonian: Zeeman splitting plus 2*omega*(Fx_upper - Fx_lower)
    cos(nu t) with nu equal to the upper manifold's Zeeman spacing.  In the
    rotating frame this leaves the static  omega * (Fx_upper - Fx_lower);
    its doubly degenerate zero eigenspace is the protected pair.
    """
    g_up = scheme.manifold(upper).g
    nu = abs(g_up) * abs(b)
    if nu <= 0:
        raise ValueError("hyperfine construction needs a finite Zeeman spacing")
    fx = scheme.spin_operator(upper, "x") - scheme.spin_operator(lower, "x")
    lab = TimeDependentHamiltonian(scheme.static_hamiltonian(b))
    lab = lab.plus_harmonic(omega * fx, nu)
    if rwa_cutoff is None:
        # Counter-rotating terms sit at 2 nu; the cutoff must stay below
        # that, so only the coupling strength sets the default here.
        rwa_cutoff = 10.0 * abs(omega)
    return _finish_construction(scheme, b, omega, lower, upper, (), lab,
                                np.diag(lab.static).real, rwa_cutoff)
