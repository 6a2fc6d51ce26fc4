"""Protected-subspace discovery and dressed-state decomposition.

A protected qubit subspace is a set of eigenstates of the (static,
interaction-picture) Hamiltonian that share one eigenvalue and on which the
projected magnetic moment operator vanishes as a block:

    <D_i| H |D_j> = lambda_D delta_ij   and   <D_i| Jz |D_j> = 0  for all i, j.

The first condition removes sensitivity to global drive-amplitude errors
(no relative dynamical phase), the second removes first-order magnetic
sensitivity.  The search is exhaustive: eigenvalues are clustered, the
projected Jz is diagonalized inside every cluster, and its zero directions
are collected.  Inside degenerate blocks the basis returned by the
eigensolver is arbitrary, so candidates are canonicalized against two
diagonal bookkeeping operators (manifold ordinal, then the parity of m
within its manifold) before a deterministic phase and ordering convention
is applied.  This makes golden-file comparisons meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .levels import LevelScheme

__all__ = [
    "SubspaceReport",
    "DressedState",
    "ProtectionError",
    "find_protected_subspace",
    "dressed_decomposition",
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

    def projector(self) -> np.ndarray:
        basis = np.column_stack(self.dark_states)
        return basis @ basis.conj().T


@dataclass(frozen=True)
class DressedState:
    eigenvalue: float
    state: np.ndarray
    excited_fraction: float | None = None
    bright_component: np.ndarray | None = None


def _cluster(values: np.ndarray, tol: float) -> list[np.ndarray]:
    order = np.argsort(values)
    clusters: list[list[int]] = [[order[0]]]
    for idx in order[1:]:
        if values[idx] - values[clusters[-1][-1]] <= tol:
            clusters[-1].append(idx)
        else:
            clusters.append([idx])
    return [np.array(c) for c in clusters]


def _split_degenerate(vectors: np.ndarray, operator: np.ndarray,
                      tol: float) -> list[np.ndarray]:
    """Rotate columns to diagonalize a projected operator; group by eigenvalue."""
    proj = vectors.conj().T @ operator @ vectors
    proj = (proj + proj.conj().T) / 2.0
    vals, rot = np.linalg.eigh(proj)
    rotated = vectors @ rot
    scale = max(1.0, np.abs(vals).max()) if vals.size else 1.0
    return [rotated[:, idx] for idx in _cluster(vals, tol * scale)]


def _bookkeeping_operators(scheme: LevelScheme | None,
                           dim: int) -> list[np.ndarray]:
    if scheme is None:
        return []
    manifold_ord = np.zeros(dim)
    parity = np.zeros(dim)
    for k, man in enumerate(scheme.manifolds):
        sl = scheme.slice(man.name)
        manifold_ord[sl] = k
        parity[sl] = [(-1) ** i for i in range(man.dim)]
    return [np.diag(manifold_ord), np.diag(parity)]


def canonical_order(vectors: np.ndarray, scheme: LevelScheme | None = None,
                    ) -> np.ndarray:
    """Deterministic basis for a degenerate block of column vectors.

    Successively diagonalizes the projected manifold-ordinal and
    chain-parity operators, then fixes each vector's phase (largest
    component real positive) and sorts by dominant basis index.
    """
    blocks = [vectors]
    for op in _bookkeeping_operators(scheme, vectors.shape[0]):
        blocks = [sub for blk in blocks
                  for sub in _split_degenerate(blk, op, _BLOCK_TOL)]
    cols = []
    for blk in blocks:
        for j in range(blk.shape[1]):
            cols.append(_fix_phase(blk[:, j]))
    cols.sort(key=lambda v: (_lead_index(v),))
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
    are paired first so the output is reproducible.
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
        vec = (np.sqrt(wm) * vectors[:, ip] + np.sqrt(wp) * vectors[:, im])
        out.append(vec / np.linalg.norm(vec))
    return out


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
    blocks; jz is typically scheme.jz_total().
    """
    ham = np.asarray(hamiltonian, dtype=complex)
    vals, vecs = np.linalg.eigh(ham)
    scale = np.abs(vals).max() if vals.size else 0.0
    deg_tol = max(DEGENERACY_RTOL * scale, 1e-12)

    clusters = _cluster(vals, deg_tol)
    candidates = []  # (states, lambda_d, gap, cluster_index)
    diagnostics = []
    for ci, idx in enumerate(clusters):
        block = vecs[:, idx]
        proj = block.conj().T @ jz @ block
        proj = (proj + proj.conj().T) / 2.0
        mu, rot = np.linalg.eigh(proj)
        rotated = block @ rot
        zero = np.abs(mu) <= JZ_TOL
        states = [rotated[:, j] for j in range(len(mu)) if zero[j]]
        n_zero = len(states)
        if n_zero < PAIR_DIM:
            states += _pair_states(rotated[:, ~zero], mu[~zero],
                                   PAIR_DIM - n_zero)
        lam = float(np.mean(vals[idx]))
        diagnostics.append({
            "eigenvalue": lam, "size": len(idx), "jz_dark": len(states),
            "min_abs_mu": float(np.abs(mu).min()) if len(mu) else 0.0})
        if states:
            others = np.delete(vals, idx)
            gap = float(np.abs(others - lam).min()) if others.size else 0.0
            candidates.append((states, lam, gap, ci))

    def finish(states, lam, gap, ci):
        basis = np.column_stack(states)
        if scheme is not None:
            basis = canonical_order(basis, scheme)
        else:
            basis = np.column_stack([_fix_phase(basis[:, j])
                                     for j in range(basis.shape[1])])
        dark = tuple(basis[:, j] for j in range(basis.shape[1]))
        jz_block = basis.conj().T @ jz @ basis
        h_block = basis.conj().T @ ham @ basis
        comp_idx = [j for cj, idx in enumerate(clusters) if cj != ci
                    for j in idx]
        complement = tuple((float(vals[j]), vecs[:, j]) for j in comp_idx)
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
    raise ProtectionError(
        f"no degenerate cluster supports a {PAIR_DIM}-dimensional Jz-dark "
        f"subspace; cluster summary: {diagnostics}",
        best_report, diagnostics)


def dressed_decomposition(hamiltonian: np.ndarray,
                          excited_projector: np.ndarray | None = None,
                          ) -> list[DressedState]:
    """Full eigendecomposition, sorted by eigenvalue.

    With an excited-state projector, each eigenstate is annotated with its
    excited population and the normalized ground-manifold component (the
    bright state for the h/l dressed pairs of a Lambda block).
    """
    ham = np.asarray(hamiltonian, dtype=complex)
    vals, vecs = np.linalg.eigh(ham)
    out = []
    for j in range(len(vals)):
        vec = _fix_phase(vecs[:, j])
        if excited_projector is None:
            out.append(DressedState(float(vals[j]), vec))
            continue
        upper = excited_projector @ vec
        frac = float(np.vdot(upper, upper).real)
        ground = vec - upper
        norm = np.linalg.norm(ground)
        bright = ground / norm if norm > 1e-12 else None
        out.append(DressedState(float(vals[j]), vec, frac, bright))
    return out
