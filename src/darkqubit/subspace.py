"""Protected-subspace discovery: the dark-pair finder and its canonical basis.

A protected qubit subspace is a set of eigenstates of the (static,
interaction-picture) Hamiltonian that share one eigenvalue and on which the
projected magnetic moment operator vanishes as a block:

    <D_i| H |D_j> = lambda_D delta_ij   and   <D_i| Jz |D_j> = 0  for all i, j.

The first condition removes sensitivity to global drive-amplitude errors
(no relative dynamical phase), the second removes first-order magnetic
sensitivity.  The search is exhaustive: eigenvalues are clustered, Jz is
projected once into the whole eigenbasis, and every cluster's diagonal
block of that projection is searched for zero directions (read off the
diagonal for a single eigenvalue, diagonalized for a degenerate cluster).
Inside degenerate blocks the basis returned by the eigensolver is
arbitrary, so candidates are canonicalized against two diagonal
bookkeeping operators (manifold ordinal, then the parity of m within its
manifold) before a deterministic phase and ordering convention is
applied.  This makes golden-file comparisons meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .driving import _check_hermitian
from .levels import LevelScheme

__all__ = [
    "SubspaceReport",
    "ProtectionError",
    "find_protected_subspace",
    "canonical_order",
]

# Dimension of the protected subspace: the dark qubit pair.
PAIR_DIM = 2
DEGENERACY_RTOL = 1e-9
JZ_TOL = 1e-10
_BLOCK_TOL = 1e-8


class ProtectionError(RuntimeError):
    """No qualifying subspace; carries the best candidate found.

    Attributes: report (SubspaceReport of the best candidate, possibly of
    smaller dimension than requested) and diagnostics (per-cluster summary).
    """

    def __init__(self, message: str, report: "SubspaceReport | None",
                 diagnostics: list):
        super().__init__(message)
        self.report = report
        self.diagnostics = diagnostics


@dataclass(frozen=True)
class SubspaceReport:
    dark_states: tuple[np.ndarray, ...]
    dark_eigenvalue: float
    gap: float
    jz_residual: float
    degeneracy_residual: float
    complement: tuple[tuple[float, np.ndarray], ...] = field(default_factory=tuple)

    @property
    def dim(self) -> int:
        return len(self.dark_states)


def _cluster_bounds(sorted_values: np.ndarray, tol: float) -> list[int]:
    """Start of each cluster of ascending values, then len(values).

    A value joins the current cluster when it lies within tol of the
    previous one.
    """
    vals = sorted_values.tolist()
    return [0, *[k for k in range(1, len(vals)) if vals[k] - vals[k - 1] > tol],
            len(vals)]


def _split_degenerate(vectors: np.ndarray, diagonal: np.ndarray,
                      tol: float) -> list[np.ndarray]:
    """Rotate columns to diagonalize a projected diagonal operator; group
    by eigenvalue.  A single column is returned as it is."""
    if vectors.shape[1] == 1:
        return [vectors]
    proj = (vectors.conj().T * diagonal) @ vectors
    proj = (proj + proj.conj().T) / 2.0
    vals, rot = np.linalg.eigh(proj)
    rotated = vectors @ rot
    bounds = _cluster_bounds(vals, tol * max(1.0, *np.abs(vals).tolist()))
    return [rotated[:, lo:hi] for lo, hi in zip(bounds, bounds[1:])]


@lru_cache(maxsize=None)
def _bookkeeping_diagonals(dims: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """Manifold ordinal and parity of m within the manifold, per basis
    state, for manifolds of these dimensions in order."""
    ordinal = np.repeat(np.arange(len(dims), dtype=float), dims)
    parity = np.concatenate([1.0 - 2.0 * (np.arange(d) % 2) for d in dims])
    for shared in (ordinal, parity):
        shared.flags.writeable = False
    return ordinal, parity


def canonical_order(vectors: np.ndarray, scheme: LevelScheme | None = None,
                    ) -> np.ndarray:
    """Deterministic basis for a degenerate block of column vectors.

    Successively diagonalizes the projected manifold-ordinal and
    chain-parity operators, then fixes each vector's phase (largest
    component real positive) and sorts by dominant basis index.
    """
    blocks = [vectors]
    if scheme is not None:
        dims = tuple(man.dim for man in scheme.manifolds)
        for diagonal in _bookkeeping_diagonals(dims):
            blocks = [sub for blk in blocks
                      for sub in _split_degenerate(blk, diagonal, _BLOCK_TOL)]
    cols = [_fix_phase(blk[:, j]) for blk in blocks
            for j in range(blk.shape[1])]
    cols.sort(key=_lead_index)
    return np.column_stack(cols)


def _lead_index(vec: np.ndarray) -> int:
    # Lowest index within rounding of the largest magnitude, so exact ties
    # (symmetric superpositions) break deterministically.
    mags = np.abs(vec)
    return int(np.nonzero(mags >= mags.max() * (1.0 - 1e-9))[0][0])


def _fix_phase(vec: np.ndarray) -> np.ndarray:
    lead = _lead_index(vec)
    phase = vec[lead] / abs(vec[lead])
    return vec / phase


def _pair_states(vectors: np.ndarray, mu: np.ndarray, needed: int,
                 ) -> list[np.ndarray]:
    """Combine opposite-sign projected-Jz eigenvectors into Jz-dark states.

    For mu_+ > 0 > mu_-, the combination sqrt(-mu_-) u_+ + sqrt(mu_+) u_-
    (normalized) has exactly zero Jz expectation, and states built from
    distinct eigen-pairs have zero mutual Jz elements.  Largest magnitudes
    are paired first and each u gets _fix_phase's phase before it is
    combined, so the output does not depend on the eigensolver's basis.
    """
    pos = sorted([i for i in range(len(mu)) if mu[i] > 0],
                 key=lambda i: -mu[i])
    neg = sorted([i for i in range(len(mu)) if mu[i] < 0],
                 key=lambda i: mu[i])
    out = []
    for ip, im in zip(pos, neg):
        if len(out) >= needed:
            break
        wp, wm = mu[ip], -mu[im]
        vec = (np.sqrt(wm) * _fix_phase(vectors[:, ip])
               + np.sqrt(wp) * _fix_phase(vectors[:, im]))
        out.append(vec / np.linalg.norm(vec))
    return out


def _square_operator(mat, what: str) -> np.ndarray:
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or not mat.size:
        raise ValueError(
            f"{what} must be a non-empty square matrix, got shape {mat.shape}")
    return _check_hermitian(mat, what)


def find_protected_subspace(hamiltonian: np.ndarray, jz: np.ndarray,
                            scheme: LevelScheme | None = None,
                            ) -> SubspaceReport:
    """Locate the protected subspace of a static Hamiltonian.

    Returns all zero directions of the projected Jz inside the best
    degenerate eigenvalue cluster (at least PAIR_DIM of them, else
    opposite-sign pairs are combined to reach PAIR_DIM; ProtectionError if
    that fails too).  Eigenvalues within DEGENERACY_RTOL of the spectral
    scale count as degenerate, |projected Jz| within JZ_TOL as zero.
    Passing the scheme enables the canonical basis/order inside degenerate
    blocks; jz is typically scheme.zeeman_generator(), the g-weighted Jz
    that field noise couples to.  ValueError if either matrix is empty,
    not square, not Hermitian, or of a different shape from the other.
    """
    ham = _square_operator(hamiltonian, "hamiltonian")
    jz = _square_operator(jz, "jz")
    if jz.shape != ham.shape:
        raise ValueError(f"jz has shape {jz.shape}, the hamiltonian "
                         f"{ham.shape}")
    vals, vecs = np.linalg.eigh(ham)  # eigenvalues ascending
    deg_tol = max(DEGENERACY_RTOL * np.abs(vals).max(), 1e-12)
    bounds = _cluster_bounds(vals, deg_tol)
    # Jz in the eigenbasis; each cluster's block sits on its diagonal.
    jz_eig = vecs.conj().T @ jz @ vecs

    clusters = []  # (lo, hi, lambda, mu, dark states)
    candidates = []  # (states, lambda, gap, lo, hi)
    for lo, hi in zip(bounds, bounds[1:]):
        if hi - lo == 1:
            mu = jz_eig[lo:hi, lo].real
            lam = float(vals[lo])
            states = [vecs[:, lo]] if abs(mu[0]) <= JZ_TOL else []
        else:
            proj = jz_eig[lo:hi, lo:hi]
            mu, rot = np.linalg.eigh((proj + proj.conj().T) / 2.0)
            rotated = vecs[:, lo:hi] @ rot
            zero = np.abs(mu) <= JZ_TOL
            states = [rotated[:, j] for j in np.flatnonzero(zero)]
            if len(states) < PAIR_DIM:
                states += _pair_states(rotated[:, ~zero], mu[~zero],
                                       PAIR_DIM - len(states))
            lam = float(np.mean(vals[lo:hi]))
        clusters.append((lo, hi, lam, mu, states))
        if states:
            # The nearest other eigenvalues are the sorted neighbours.
            near = [abs(float(vals[k]) - lam) for k in (lo - 1, hi)
                    if 0 <= k < len(vals)]
            candidates.append((states, lam, min(near, default=0.0), lo, hi))

    def finish(states, lam, gap, lo, hi):
        basis = np.column_stack(states)
        if scheme is not None:
            basis = canonical_order(basis, scheme)
        else:
            basis = np.column_stack([_fix_phase(basis[:, j])
                                     for j in range(basis.shape[1])])
        dark = tuple(basis[:, j] for j in range(basis.shape[1]))
        jz_block = basis.conj().T @ jz @ basis
        h_block = basis.conj().T @ ham @ basis
        complement = tuple((float(vals[j]), vecs[:, j])
                           for j in [*range(lo), *range(hi, len(vals))])
        return SubspaceReport(
            dark_states=dark, dark_eigenvalue=lam, gap=gap,
            jz_residual=float(np.abs(jz_block).max()),
            degeneracy_residual=float(
                np.abs(h_block - lam * np.eye(len(dark))).max()),
            complement=complement)

    qualifying = [c for c in candidates if len(c[0]) >= PAIR_DIM]
    if qualifying:
        # Prefer the best-protected cluster: largest gap to the rest of the
        # spectrum, then the one closest to zero energy.  Gaps within
        # deg_tol of the largest count as tied, so rounding noise cannot
        # decide between clusters with exactly equal gaps.
        widest = max(c[2] for c in qualifying)
        tied = [c for c in qualifying if c[2] >= widest - deg_tol]
        best = min(tied, key=lambda c: abs(c[1]))
        return finish(*best)

    best_report = None
    if candidates:
        best = max(candidates, key=lambda c: len(c[0]))
        best_report = finish(*best)
    diagnostics = [
        {"eigenvalue": lam, "size": hi - lo, "jz_dark": len(states),
         "min_abs_mu": float(np.abs(mu).min())}
        for lo, hi, lam, mu, states in clusters]
    raise ProtectionError(
        f"no degenerate cluster supports a {PAIR_DIM}-dimensional Jz-dark "
        f"subspace; cluster summary: {diagnostics}",
        best_report, diagnostics)
