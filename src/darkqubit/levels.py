"""Level schemes for multi-level ions and hyperfine systems.

A :class:`LevelScheme` is an ordered collection of angular-momentum manifolds
(fine-structure levels or hyperfine F levels).  It owns the state bookkeeping
and builds the operators everything else consumes:

* the static Hamiltonian  offsets + b * Z  where Z is the Zeeman generator
  (g-factor weighted Jz over all manifolds) and b = mu_B * B in rad/s,
* dipole coupling operators between manifolds with exact Clebsch-Gordan
  matrix elements,
* embedded single-manifold spin operators.

All energies and rates are angular frequencies (rad/s).  Nothing in this
module fixes a unit scale; tests and scenarios typically run with the drive
Rabi frequency of order one.

What is shared, and how widely:

* per j, one tuple of m values (``Manifold.m_values``);
* per scheme, the Zeeman generator (read-only), the diagonals of offsets
  and Zeeman slopes that ``static_hamiltonian`` adds up into a fresh,
  writable matrix on every call, and the name -> position table behind
  ``index`` and ``slice``;
* per structure (manifold names and j), the dipole matrices (read-only).

State lookups work in doubled-integer m; an m a caller passes in is still
validated by ``angular.as_half_int``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from . import angular

__all__ = [
    "Manifold",
    "DecayChannel",
    "LevelScheme",
    "POLARIZATIONS",
    "ca40_dp",
    "ca40_sdp",
    "d52_p32",
    "hyperfine_f1f2",
    "hyperfine_f0f1",
    "preset",
]

# Photon spherical component q for each polarization label: the coupled
# lower-state m changes by q on absorption.
POLARIZATIONS = {"sigma+": 1, "pi": 0, "sigma-": -1}

# Dipole matrices by structure: the manifolds' (name, 2j) in order, lower,
# upper, polarization and the addressed set of 2m.  Offsets and g-factors
# never enter the matrix, so schemes of one preset share entries; the key
# space is bounded by the schemes in use.
_DIPOLE_CACHE: dict[tuple, np.ndarray] = {}


def _read_only(arr: np.ndarray) -> np.ndarray:
    """arr, frozen: a shared cache entry no caller can mutate."""
    arr.flags.writeable = False
    return arr


def _twice(m) -> int:
    """2m as an int, for an m that as_half_int validates."""
    mm = angular.as_half_int(m)
    return 2 * mm.numerator // mm.denominator


@lru_cache(maxsize=None)
def _m_values(j: Fraction) -> tuple[Fraction, ...]:
    return tuple(-j + k for k in range(int(2 * j) + 1))


@dataclass(frozen=True)
class Manifold:
    """One angular-momentum manifold: name, j, Lande factor, energy offset."""

    name: str
    j: Fraction
    g: float
    offset: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "j", angular.as_half_int(self.j))

    @cached_property
    def two_j(self) -> int:
        return 2 * self.j.numerator // self.j.denominator

    @cached_property
    def dim(self) -> int:
        return self.two_j + 1

    @cached_property
    def m_values(self) -> tuple[Fraction, ...]:
        """m = -j ... j ascending; one tuple shared by every manifold of this j."""
        return _m_values(self.j)


@dataclass(frozen=True)
class DecayChannel:
    """Spontaneous decay upper -> lower with total rate (rad/s) per upper state."""

    upper: str
    lower: str
    rate: float


@dataclass(frozen=True)
class LevelScheme:
    manifolds: tuple[Manifold, ...]
    decays: tuple[DecayChannel, ...] = field(default_factory=tuple)

    def __post_init__(self):
        names = [man.name for man in self.manifolds]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate manifold names: {names}")
        for chan in self.decays:
            for name in (chan.upper, chan.lower):
                if name not in names:
                    raise ValueError(f"decay references unknown manifold {name!r}")

    # ---------------------------------------------------------------- lookup

    @property
    def dim(self) -> int:
        return sum(man.dim for man in self.manifolds)

    @cached_property
    def _places(self) -> dict[str, tuple[int, Manifold]]:
        """Manifold name -> (index of its m = -j state, manifold)."""
        places, base = {}, 0
        for man in self.manifolds:
            places[man.name] = (base, man)
            base += man.dim
        return places

    def _place(self, name: str) -> tuple[int, Manifold]:
        try:
            return self._places[name]
        except KeyError:
            raise KeyError(f"no manifold named {name!r}") from None

    def manifold(self, name: str) -> Manifold:
        return self._place(name)[1]

    def states(self) -> list[tuple[str, Fraction]]:
        """All (manifold name, m) labels in basis order (manifold, then m ascending)."""
        out = []
        for man in self.manifolds:
            out.extend((man.name, m) for m in man.m_values)
        return out

    def index(self, name: str, m) -> int:
        two_m = _twice(m)
        base, man = self._place(name)
        if abs(two_m) > man.two_j:
            raise ValueError(
                f"|m|={Fraction(two_m, 2)} exceeds j={man.j} in {name}")
        return base + (two_m + man.two_j) // 2

    def basis_state(self, name: str, m) -> np.ndarray:
        vec = np.zeros(self.dim, dtype=complex)
        vec[self.index(name, m)] = 1.0
        return vec

    def slice(self, name: str) -> slice:
        base, man = self._place(name)
        return slice(base, base + man.dim)

    def projector(self, *names: str) -> np.ndarray:
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for name in names:
            sl = self.slice(name)
            out[sl, sl] = np.eye(self.manifold(name).dim)
        return out

    # ------------------------------------------------------------- operators

    def _embed(self, name: str, block: np.ndarray) -> np.ndarray:
        out = np.zeros((self.dim, self.dim), dtype=complex)
        sl = self.slice(name)
        out[sl, sl] = block
        return out

    def jz_total(self) -> np.ndarray:
        """Plain m on the diagonal, all manifolds (no g weighting)."""
        return np.diag([float(m) for _, m in self.states()]).astype(complex)

    def zeeman_generator(self) -> np.ndarray:
        """dH/db: g-weighted Jz over all manifolds.  Multiply by b = mu_B*B.

        Built once per scheme and shared, so the array is read-only.
        """
        return self._zeeman

    @cached_property
    def _zeeman(self) -> np.ndarray:
        return _read_only(np.diag(self._zeeman_diagonal).astype(complex))

    @cached_property
    def _zeeman_diagonal(self) -> np.ndarray:
        return _read_only(np.array([man.g * float(m) for man in self.manifolds
                                    for m in man.m_values]))

    @cached_property
    def _offsets(self) -> np.ndarray:
        return _read_only(np.concatenate(
            [np.full(man.dim, man.offset) for man in self.manifolds]))

    def static_hamiltonian(self, b: float) -> np.ndarray:
        """Manifold offsets plus Zeeman splitting at field b = mu_B*B (rad/s).

        A fresh array on every call; the diagonals it is built from are
        computed once per scheme.
        """
        return np.diag(self._offsets + b * self._zeeman_diagonal).astype(complex)

    def spin_operator(self, name: str, component: str) -> np.ndarray:
        """Embedded single-manifold spin matrix; component in {x, y, z, +, -}."""
        j = self.manifold(name).j
        ops = {"x": angular.jx, "y": angular.jy, "z": angular.jz,
               "+": angular.jplus, "-": angular.jminus}
        try:
            block = ops[component](j)
        except KeyError:
            raise ValueError(f"unknown component {component!r}") from None
        return self._embed(name, block)

    def dipole_coupling(self, lower: str, upper: str, polarization: str,
                        transitions=None) -> np.ndarray:
        """Raising part of the dipole operator for one polarization.

        Matrix elements <upper, m+q | lower, m> are the Clebsch-Gordan
        coefficients <j_l m; 1 q | j_u m+q>, nothing renormalized, so the
        largest entry equals the largest coefficient of the family.

        transitions, if given, restricts the operator to the listed lower-m
        values (idealized per-transition addressing).  The matrix is
        memoised by structure and shared, so it is read-only.
        """
        try:
            q = POLARIZATIONS[polarization]
        except KeyError:
            raise ValueError(f"unknown polarization {polarization!r}") from None
        allowed = None
        if transitions is not None:
            allowed = frozenset(_twice(m) for m in transitions)
        key = (self._structure, lower, upper, polarization, allowed)
        out = _DIPOLE_CACHE.get(key)
        if out is not None:
            return out
        low_base, low = self._place(lower)
        up_base, up = self._place(upper)
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for k, m in enumerate(low.m_values):
            two_m = 2 * k - low.two_j
            if allowed is not None and two_m not in allowed:
                continue
            two_mu = two_m + 2 * q
            if abs(two_mu) > up.two_j:
                continue
            coeff = angular.clebsch_gordan(low.j, m, 1, q, up.j, m + q)
            if coeff != 0.0:
                out[up_base + (two_mu + up.two_j) // 2, low_base + k] = coeff
        _DIPOLE_CACHE[key] = _read_only(out)
        return out

    @cached_property
    def _structure(self) -> tuple[tuple[str, int], ...]:
        return tuple((man.name, man.two_j) for man in self.manifolds)

    def collapse_operators(self, channel: DecayChannel) -> list[np.ndarray]:
        """Lindblad jump operators (one per photon polarization) for a decay channel.

        Branching within the channel follows the squared Clebsch-Gordan
        coefficients; the operators sum to the full channel rate, i.e.
        sum_q L_q^dag L_q = rate * P_upper.
        """
        ops = []
        for pol in POLARIZATIONS:
            raising = self.dipole_coupling(channel.lower, channel.upper, pol)
            jump = np.sqrt(channel.rate) * raising.conj().T
            if np.any(jump):
                ops.append(jump)
        return ops

    def all_collapse_operators(self) -> list[np.ndarray]:
        out = []
        for chan in self.decays:
            out.extend(self.collapse_operators(chan))
        return out


# ------------------------------------------------------------------ presets
#
# Lande g-factors are the pure-LS values for a single valence electron
# (s=1/2): g(S1/2)=2, g(P1/2)=2/3, g(P3/2)=4/3, g(D3/2)=4/5, g(D5/2)=6/5.
# Optical offsets are free parameters at desk scale; they cancel in the
# interaction picture and only set where counter-rotating terms land.


def ca40_dp(omega0: float = 1000.0, gamma: float = 0.0) -> LevelScheme:
    """D3/2 + P1/2 subsystem of a Ca40-like ion; gamma is the P->D decay rate."""
    decays = (DecayChannel("P1/2", "D3/2", gamma),) if gamma > 0 else ()
    return LevelScheme(
        manifolds=(
            Manifold("D3/2", Fraction(3, 2), 0.8),
            Manifold("P1/2", Fraction(1, 2), 2.0 / 3.0, offset=omega0),
        ),
        decays=decays,
    )


def ca40_sdp(omega0: float = 1000.0, gamma_s: float = 0.0,
             gamma_d: float = 0.0, omega_s: float = -1500.0) -> LevelScheme:
    """S1/2 + D3/2 + P1/2 scheme with configurable P-decay branches."""
    decays = []
    if gamma_s > 0:
        decays.append(DecayChannel("P1/2", "S1/2", gamma_s))
    if gamma_d > 0:
        decays.append(DecayChannel("P1/2", "D3/2", gamma_d))
    return LevelScheme(
        manifolds=(
            Manifold("S1/2", Fraction(1, 2), 2.0, offset=omega_s),
            Manifold("D3/2", Fraction(3, 2), 0.8),
            Manifold("P1/2", Fraction(1, 2), 2.0 / 3.0, offset=omega0),
        ),
        decays=tuple(decays),
    )


def d52_p32(omega0: float = 1000.0, gamma: float = 0.0) -> LevelScheme:
    """D5/2 + P3/2 variant (same construction recipe, different manifolds)."""
    decays = (DecayChannel("P3/2", "D5/2", gamma),) if gamma > 0 else ()
    return LevelScheme(
        manifolds=(
            Manifold("D5/2", Fraction(5, 2), 1.2),
            Manifold("P3/2", Fraction(3, 2), 4.0 / 3.0, offset=omega0),
        ),
        decays=decays,
    )


def hyperfine_f1f2(omega_hf: float = 1000.0, g2: float = 0.5) -> LevelScheme:
    """Ground hyperfine F=1 / F=2 pair; g_F1 = -g_F2 as for I=3/2, J=1/2."""
    return LevelScheme(
        manifolds=(
            Manifold("F1", Fraction(1), -g2),
            Manifold("F2", Fraction(2), g2, offset=omega_hf),
        ),
    )


def hyperfine_f0f1(omega_hf: float = 1000.0, g1: float = 0.5) -> LevelScheme:
    """Clock-type F=0 / F=1 pair (F=0 is field free)."""
    return LevelScheme(
        manifolds=(
            Manifold("F0", Fraction(0), 0.0),
            Manifold("F1", Fraction(1), g1, offset=omega_hf),
        ),
    )


_PRESETS = {
    "ca40_dp": ca40_dp,
    "ca40_sdp": ca40_sdp,
    "d52_p32": d52_p32,
    "hyperfine_f1f2": hyperfine_f1f2,
    "hyperfine_f0f1": hyperfine_f0f1,
}


def preset(name: str, **kwargs) -> LevelScheme:
    """Build a named preset scheme; see _PRESETS for the catalogue."""
    try:
        builder = _PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown preset {name!r}; available: {sorted(_PRESETS)}") from None
    return builder(**kwargs)
