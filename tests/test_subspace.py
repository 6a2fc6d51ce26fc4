from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import null_space

from darkqubit.driving import (
    compact_construction,
    hyperfine_construction,
    ideal_construction,
)
from darkqubit.gates import protected_report
from darkqubit.levels import LevelScheme, ca40_dp, d52_p32, hyperfine_f1f2, preset
from darkqubit.subspace import (
    DEGENERACY_RTOL,
    JZ_TOL,
    PAIR_DIM,
    _BLOCK_TOL,
    ProtectionError,
    SubspaceReport,
    canonical_order,
    find_protected_subspace,
)


def _report(con, scheme):
    return find_protected_subspace(con.ip.static, scheme.jz_total(), scheme=scheme)


def _projector(vectors):
    p = np.zeros((len(vectors[0]), len(vectors[0])), complex)
    for v in vectors:
        p += np.outer(v, v.conj())
    return p


def test_dark_pair_spans_svd_nullspace():
    # oracle: the SVD nullspace of the dressing Hamiltonian
    s = ca40_dp(omega0=1000.0)
    con = ideal_construction(s, b=0.3, omega=1.0)
    rep = _report(con, s)
    null = null_space(con.ip.static, rcond=1e-12)
    assert null.shape[1] == 2
    p_null = null @ null.conj().T
    assert np.linalg.norm(_projector(rep.dark_states) - p_null) < 1e-12
    assert rep.dark_eigenvalue == pytest.approx(0.0, abs=1e-13)
    assert rep.gap == pytest.approx(1.0, abs=1e-12)


def test_dark_state_closed_forms():
    s = ca40_dp(omega0=1000.0)
    rep = _report(ideal_construction(s, b=0.3, omega=1.0), s)
    d1, d2 = rep.dark_states
    want1 = np.zeros(6)
    want1[1] = np.sqrt(3) / 2  # m = -1/2
    want1[3] = -0.5  # m = +3/2
    want2 = np.zeros(6)
    want2[0] = -0.5  # m = -3/2
    want2[2] = np.sqrt(3) / 2  # m = +1/2
    assert np.allclose(d1, want1, atol=1e-14)
    assert np.allclose(d2, want2, atol=1e-14)
    # no excited-state admixture at all
    assert np.abs(d1[4:]).max() < 1e-15
    assert np.abs(d2[4:]).max() < 1e-15
    assert abs(np.vdot(d1, d2)) < 1e-14


def test_residuals_are_machine_level():
    s = ca40_dp(omega0=1000.0)
    for builder in (ideal_construction, compact_construction):
        rep = _report(builder(s, b=0.3, omega=1.0), s)
        assert rep.jz_residual < 1e-13
        assert rep.degeneracy_residual < 1e-13


def test_compact_darks_match_ideal():
    s = ca40_dp(omega0=1000.0)
    ideal = _report(ideal_construction(s, b=0.3, omega=1.0), s)
    for b in (0.15, 0.3, 0.45, 0.6, 0.75):  # delta/omega up to 0.05
        rep = _report(compact_construction(s, b=b, omega=1.0), s)
        for got, want in zip(rep.dark_states, ideal.dark_states):
            assert abs(np.vdot(got, want)) > 1 - 1e-12


def test_compact_gap_closed_form():
    s = ca40_dp(omega0=1000.0)
    for b, omega in ((0.3, 1.0), (0.75, 1.0), (0.3, 2.0)):
        delta = b / 15
        rep = _report(compact_construction(s, b=b, omega=omega), s)
        assert rep.gap == pytest.approx(
            np.sqrt(omega**2 + delta**2 / 4) - delta / 2, abs=1e-13
        )


def test_complement_lists_bright_states():
    s = ca40_dp(omega0=1000.0)
    rep = _report(ideal_construction(s, b=0.3, omega=1.0), s)
    eigs = sorted(e for e, _ in rep.complement)
    assert np.allclose(eigs, [-1, -1, 1, 1], atol=1e-12)
    for e, v in rep.complement:
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-13)


def test_canonical_order_undoes_arbitrary_mixing():
    s = ca40_dp(omega0=1000.0)
    rep = _report(ideal_construction(s, b=0.3, omega=1.0), s)
    ref = np.stack(rep.dark_states, axis=1)  # column convention
    rng = np.random.default_rng(12)
    for _ in range(20):
        th = rng.uniform(0, 2 * np.pi)
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=2))
        u = np.array(
            [[np.cos(th), np.sin(th)], [-np.sin(th), np.cos(th)]], complex
        ) @ np.diag(phases)
        out = canonical_order(ref @ u.T, scheme=s)
        assert np.allclose(out, ref, atol=1e-12)


def test_canonical_order_deterministic_on_exact_ties():
    # the hyperfine pair has components of equal magnitude, which once made
    # the leading-entry choice fall to float noise
    hs = hyperfine_f1f2()
    con = hyperfine_construction(hs, b=0.4, omega=0.05)
    ref = None
    for _ in range(5):
        rep = find_protected_subspace(con.ip.static, hs.jz_total(), scheme=hs)
        v = np.stack(rep.dark_states)
        if ref is None:
            ref = v
        assert np.array_equal(v, ref)


def test_hyperfine_dark_closed_forms():
    hs = hyperfine_f1f2()
    rep = find_protected_subspace(
        hyperfine_construction(hs, b=0.4, omega=0.05).ip.static,
        hs.jz_total(),
        scheme=hs,
    )
    d1, d2 = rep.dark_states
    want1 = np.zeros(8)
    want1[0] = 1 / np.sqrt(2)  # |1,-1>
    want1[2] = -1 / np.sqrt(2)  # |1,+1>
    want2 = np.zeros(8)
    want2[3] = np.sqrt(3 / 8)  # |2,-2>
    want2[5] = -0.5  # |2,0>
    want2[7] = np.sqrt(3 / 8)  # |2,+2>
    assert np.allclose(d1, want1, atol=1e-12)
    assert np.allclose(d2, want2, atol=1e-12)
    assert rep.gap == pytest.approx(0.05, abs=1e-13)
    assert rep.jz_residual < 1e-13


@pytest.mark.filterwarnings("ignore:dropped term")
@settings(max_examples=200, deadline=None)
@given(omega=st.floats(0.05, 10.0), ratio=st.floats(20.0, 60.0))
def test_hyperfine_dark_pair_is_the_zero_cluster(omega, ratio):
    # the zero pair and the +-omega pairs have exactly equal gaps here;
    # the tie must go to the cluster closest to zero energy
    hs = hyperfine_f1f2()
    con = hyperfine_construction(hs, b=ratio * omega, omega=omega)
    rep = _report(con, hs)
    assert abs(rep.dark_eigenvalue) < 1e-9 * omega
    assert rep.gap == pytest.approx(omega, rel=1e-9)
    assert rep.jz_residual < 1e-12


# Every (preset, construction) cell the benchmark's analyze runs cover, with
# the manifolds each one drives.
LOWER_UPPER = {
    "ca40_dp": ("D3/2", "P1/2"),
    "ca40_sdp": ("D3/2", "P1/2"),
    "d52_p32": ("D5/2", "P3/2"),
    "hyperfine_f1f2": ("F1", "F2"),
    "hyperfine_f0f1": ("F0", "F1"),
}
ANALYZE_CELLS = [(p, k) for p in LOWER_UPPER for k in ("ideal", "compact")] \
    + [("hyperfine_f0f1", "hyperfine")]
BUILDERS = {"ideal": ideal_construction, "compact": compact_construction,
            "hyperfine": hyperfine_construction}


@pytest.mark.filterwarnings("ignore:dropped term")
@pytest.mark.parametrize("name, kind", ANALYZE_CELLS)
@settings(max_examples=25, deadline=None)
@given(omega=st.floats(0.5, 2.0), fraction=st.floats(0.0, 1.0))
def test_dark_state_conditions_across_cells(name, kind, omega, fraction):
    # b/omega in [20, 60] for the hyperfine construction (its
    # counter-rotating terms must clear the 10 omega cutoff), else in
    # [0.02, 0.5]; the bounds are the benchmark's analyze checks
    lo, hi = (20.0, 60.0) if kind == "hyperfine" else (0.02, 0.5)
    lower, upper = LOWER_UPPER[name]
    con = BUILDERS[kind](preset(name), (lo + fraction * (hi - lo)) * omega,
                         omega, lower=lower, upper=upper)
    rep = protected_report(con)
    assert abs(rep.dark_eigenvalue) <= 1e-12 * omega
    assert rep.jz_residual < 1e-13


def test_d52_dark_closed_forms():
    s = d52_p32(omega0=500.0)
    con = ideal_construction(s, b=0.2, omega=1.0, lower="D5/2", upper="P3/2")
    rep = _report(con, s)
    d1, d2 = rep.dark_states
    want1 = np.zeros(10)
    want1[0] = -0.25  # m=-5/2
    want1[2] = np.sqrt(5 / 8)  # m=-1/2
    want1[4] = -np.sqrt(5 / 16)  # m=+3/2
    assert np.allclose(d1, want1, atol=1e-12)
    # the partner is the m -> -m mirror within the lower manifold
    assert np.allclose(d2[:6], want1[:6][::-1], atol=1e-12)
    assert np.abs(np.stack(rep.dark_states)[:, 6:]).max() < 1e-14
    assert rep.jz_residual < 1e-13


def test_protection_error_when_no_dark_pair():
    h = np.diag([0.0, 1.0, 2.0, 3.0]).astype(complex)
    jz = np.diag([1.0, -1.0, 1.0, -1.0]).astype(complex)
    with pytest.raises(ProtectionError):
        find_protected_subspace(h, jz)
    # a degenerate pair that Jz mixes is not protected either
    h2 = np.diag([0.0, 0.0, 1.0, -1.0]).astype(complex)
    jz2 = np.zeros((4, 4), complex)
    jz2[0, 1] = jz2[1, 0] = 1.0
    with pytest.raises(ProtectionError):
        find_protected_subspace(h2, jz2)


# ------------------------------------------------------------ bad input


@pytest.mark.parametrize("which", ["hamiltonian", "jz"])
def test_non_square_input_is_rejected(which):
    h, jz = np.eye(4, dtype=complex), np.diag([1.0, -1.0, 0.0, 0.0])
    args = {"hamiltonian": h, "jz": jz}
    args[which] = args[which][:, :3]
    with pytest.raises(ValueError, match=f"{which} must be a non-empty square"):
        find_protected_subspace(**args)


@pytest.mark.parametrize("which", ["hamiltonian", "jz"])
def test_empty_input_is_rejected(which):
    args = {"hamiltonian": np.zeros((2, 2)), "jz": np.zeros((2, 2))}
    args[which] = np.zeros((0, 0))
    with pytest.raises(ValueError, match=f"{which} must be a non-empty square"):
        find_protected_subspace(**args)


def test_mismatched_shapes_are_rejected():
    with pytest.raises(ValueError, match="jz has shape"):
        find_protected_subspace(np.diag([0.0, 0.0, 1.0, -1.0]),
                                np.diag([1.0, -1.0, 0.0]))


@pytest.mark.parametrize("which", ["hamiltonian", "jz"])
def test_non_hermitian_input_is_rejected(which):
    # eigh reads one triangle only: unchecked, the hamiltonian below gives
    # the pair {0, 1} with gap 1 and a zero degeneracy residual
    args = {"hamiltonian": np.diag([0.0, 0.0, 1.0, -1.0]).astype(complex),
            "jz": np.diag([0.0, 0.0, 1.0, -1.0]).astype(complex)}
    args[which][0, 2] = 0.7
    with pytest.raises(ValueError, match=f"{which} is not Hermitian"):
        find_protected_subspace(**args)
    # asymmetry at rounding level, relative to the largest entry, passes
    args[which][0, 2] = 0.0
    args[which][2, 0] = 1e-12
    assert find_protected_subspace(**args).dim == 2


def test_paired_dark_states_do_not_depend_on_the_eigensolver_basis():
    # a 4-fold cluster whose projected Jz is (2, 1, -1, -2) has no exactly
    # dark direction, so the pair combines the +-2 and the +-1 projected-Jz
    # eigenvectors.  Their relative phase used to be whatever eigh
    # returned, and a 1e-11 perturbation of H moved the dark states by up
    # to 1.19 and the pair's projector by up to 0.70.
    worst_states = worst_projector = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)

        def unitary(n):
            q, _ = np.linalg.qr(rng.normal(size=(n, n))
                                + 1j * rng.normal(size=(n, n)))
            return q

        u = unitary(6)
        h = u @ np.diag([0.0, 0.0, 0.0, 0.0, 1.5, 2.5]) @ u.conj().T
        j = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        j = j + j.conj().T
        w = unitary(4)
        j[:4, :4] = w @ np.diag([2.0, 1.0, -1.0, -2.0]) @ w.conj().T
        jz = u @ j @ u.conj().T
        e = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        base = find_protected_subspace((h + h.conj().T) / 2.0,
                                       (jz + jz.conj().T) / 2.0)
        moved = find_protected_subspace(
            (h + h.conj().T) / 2.0 + 1e-11 * (e + e.conj().T) / 2.0,
            (jz + jz.conj().T) / 2.0)
        assert base.dim == moved.dim == 2
        worst_states = max(worst_states, *(
            np.abs(a - b).max()
            for a, b in zip(base.dark_states, moved.dark_states)))
        worst_projector = max(worst_projector, np.abs(
            _projector(base.dark_states)
            - _projector(moved.dark_states)).max())
    assert worst_states < 1e-9
    assert worst_projector < 1e-9


# ------------------------------------------------------------ eigh count


class _EighSpy:
    """np.linalg.eigh that records the size of each matrix."""

    def __init__(self):
        self.sizes = []
        self.eigh = np.linalg.eigh

    def __call__(self, a, *args, **kwargs):
        self.sizes.append(a.shape[-1])
        return self.eigh(a, *args, **kwargs)


ALL_CELLS = ANALYZE_CELLS + [("hyperfine_f1f2", "hyperfine")]


@pytest.mark.filterwarnings("ignore:dropped term")
@pytest.mark.parametrize("name, kind", ALL_CELLS)
def test_finder_diagonalizes_only_degenerate_blocks(name, kind):
    # one eigh of H, one per degenerate cluster, and at most one per
    # bookkeeping operator while canonical_order splits the pair; a single
    # eigenvalue or column needs none
    omega = 1.3
    ratio = 35.0 if kind == "hyperfine" else 0.2
    lower, upper = LOWER_UPPER[name]
    con = BUILDERS[kind](preset(name), ratio * omega, omega, lower=lower,
                         upper=upper)
    vals = np.linalg.eigvalsh(con.ip.static)
    tol = max(DEGENERACY_RTOL * np.abs(vals).max(), 1e-12)
    sizes = np.diff([0, *np.flatnonzero(np.diff(vals) > tol) + 1, len(vals)])
    spy = _EighSpy()
    with mock.patch.object(np.linalg, "eigh", spy):
        rep = protected_report(con)
    assert rep.dim == PAIR_DIM
    assert spy.sizes[0] == con.dim
    assert 1 not in spy.sizes
    assert len(spy.sizes) <= 1 + np.count_nonzero(sizes > 1) + 2


# ------------------------------------------- differential: per-cluster finder
#
# The finder as it was when it projected Jz into each cluster on its own
# and diagonalized every projection, 1x1 blocks included, with dense
# bookkeeping matrices.  Kept verbatim (names prefixed) as the reference
# for the one-projection finder.


def _ref_cluster(values: np.ndarray, tol: float) -> list[np.ndarray]:
    order = np.argsort(values)
    clusters: list[list[int]] = [[order[0]]]
    for idx in order[1:]:
        if values[idx] - values[clusters[-1][-1]] <= tol:
            clusters[-1].append(idx)
        else:
            clusters.append([idx])
    return [np.array(c) for c in clusters]


def _ref_split_degenerate(vectors: np.ndarray, operator: np.ndarray,
                          tol: float) -> list[np.ndarray]:
    proj = vectors.conj().T @ operator @ vectors
    proj = (proj + proj.conj().T) / 2.0
    vals, rot = np.linalg.eigh(proj)
    rotated = vectors @ rot
    scale = max(1.0, np.abs(vals).max()) if vals.size else 1.0
    return [rotated[:, idx] for idx in _ref_cluster(vals, tol * scale)]


def _ref_bookkeeping_operators(scheme: LevelScheme | None,
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


def _ref_canonical_order(vectors: np.ndarray,
                         scheme: LevelScheme | None = None) -> np.ndarray:
    blocks = [vectors]
    for op in _ref_bookkeeping_operators(scheme, vectors.shape[0]):
        blocks = [sub for blk in blocks
                  for sub in _ref_split_degenerate(blk, op, _BLOCK_TOL)]
    cols = []
    for blk in blocks:
        for j in range(blk.shape[1]):
            cols.append(_ref_fix_phase(blk[:, j]))
    cols.sort(key=lambda v: (_ref_lead_index(v),))
    return np.column_stack(cols)


def _ref_lead_index(vec: np.ndarray) -> int:
    mags = np.abs(vec)
    return int(np.nonzero(mags >= mags.max() * (1.0 - 1e-9))[0][0])


def _ref_fix_phase(vec: np.ndarray) -> np.ndarray:
    lead = _ref_lead_index(vec)
    phase = vec[lead] / abs(vec[lead])
    return vec / phase


def _ref_pair_states(vectors: np.ndarray, mu: np.ndarray, needed: int,
                     ) -> list[np.ndarray]:
    pos = sorted([i for i in range(len(mu)) if mu[i] > 0],
                 key=lambda i: -mu[i])
    neg = sorted([i for i in range(len(mu)) if mu[i] < 0],
                 key=lambda i: mu[i])
    out = []
    for ip, im in zip(pos, neg):
        if len(out) >= needed:
            break
        wp, wm = mu[ip], -mu[im]
        vec = (np.sqrt(wm) * _ref_fix_phase(vectors[:, ip])
               + np.sqrt(wp) * _ref_fix_phase(vectors[:, im]))
        out.append(vec / np.linalg.norm(vec))
    return out


def _ref_find_protected_subspace(hamiltonian: np.ndarray, jz: np.ndarray,
                                 scheme: LevelScheme | None = None,
                                 ) -> SubspaceReport:
    ham = np.asarray(hamiltonian, dtype=complex)
    vals, vecs = np.linalg.eigh(ham)
    scale = np.abs(vals).max() if vals.size else 0.0
    deg_tol = max(DEGENERACY_RTOL * scale, 1e-12)

    clusters = _ref_cluster(vals, deg_tol)
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
            states += _ref_pair_states(rotated[:, ~zero], mu[~zero],
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
            basis = _ref_canonical_order(basis, scheme)
        else:
            basis = np.column_stack([_ref_fix_phase(basis[:, j])
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


def _outcome(finder, h, jz, scheme):
    try:
        return finder(h, jz, scheme), None
    except ProtectionError as exc:
        return exc.report, exc.diagnostics


def _assert_reports_agree(got, want, tol=1e-13):
    assert (got is None) == (want is None)
    if got is None:
        return
    assert got.dim == want.dim
    for g, w in zip(got.dark_states, want.dark_states):
        assert np.abs(g - w).max() <= tol
    for field in ("dark_eigenvalue", "gap", "jz_residual",
                  "degeneracy_residual"):
        assert abs(getattr(got, field) - getattr(want, field)) <= tol, field
    assert len(got.complement) == len(want.complement)
    for (ge, gv), (we, wv) in zip(got.complement, want.complement):
        assert abs(ge - we) <= tol
        assert np.abs(gv - wv).max() <= tol


PRESETS = ["ca40_dp", "ca40_sdp", "d52_p32", "hyperfine_f1f2",
           "hyperfine_f0f1"]


@st.composite
def _finder_inputs(draw):
    name = draw(st.one_of(st.none(), st.sampled_from(PRESETS)))
    scheme = None if name is None else preset(name)
    dim = scheme.dim if scheme else draw(st.integers(1, 10))
    sizes = []
    while sum(sizes) < dim:
        sizes.append(draw(st.integers(1, min(4, dim - sum(sizes)))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spacing = draw(st.sampled_from(["random", "equal", "symmetric"]))
    n = len(sizes)
    if spacing == "random":
        centers = np.sort(rng.uniform(-3.0, 3.0, n))
    elif spacing == "equal":  # equal gaps between neighbouring clusters
        centers = rng.uniform(-2.0, 2.0) + 0.7 * np.arange(n)
    else:  # equal gaps and clusters at +-lambda: the tie-break decides
        centers = 0.7 * (np.arange(n) - (n - 1) / 2.0)
    ties = draw(st.sampled_from(["exact", "near"]))
    scale = max(np.abs(centers).max(), 1.0)
    vals, zero_dims = [], []
    for size, center in zip(sizes, centers):
        spread = 0.3 * DEGENERACY_RTOL * scale if ties == "near" else 0.0
        vals.extend(center + spread * rng.uniform(-1.0, 1.0, size))
        # Without a scheme, the basis inside two or more exactly Jz-dark
        # directions is the eigensolver's choice, so plant at most one.
        zero_dims.append(draw(st.integers(0, size if scheme else min(size, 1))))
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    u, _ = np.linalg.qr(a)
    h = u @ np.diag(vals) @ u.conj().T
    h = (h + h.conj().T) / 2.0
    kind = draw(st.sampled_from(["planted", "planted", "diagonal",
                                 "positive"]))
    if kind == "planted":
        # full Hermitian Jz whose block on each cluster has zero_dims exact
        # zero directions in the eigenbasis
        j = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        j = j + j.conj().T
        lo = 0
        for size, zeros in zip(sizes, zero_dims):
            w, _ = np.linalg.qr(rng.normal(size=(size, size))
                                + 1j * rng.normal(size=(size, size)))
            # the others alternate in sign, so that pairs can form
            signs = (-1.0) ** np.arange(size - zeros)
            mu = np.concatenate([np.zeros(zeros), signs * rng.uniform(
                0.2, 2.0, size - zeros)])
            j[lo:lo + size, lo:lo + size] = w @ np.diag(mu) @ w.conj().T
            lo += size
        jz = u @ j @ u.conj().T
        jz = (jz + jz.conj().T) / 2.0
    else:
        diag = rng.uniform(-2.0, 2.0, dim)
        if kind == "positive":  # never dark: ProtectionError every time
            diag = np.abs(diag) + 0.1
        jz = np.diag(diag).astype(complex)
    return h, jz, scheme


def _amplification(h, jz, scheme, eps=1e-11):
    """How far the reference's dark states move per unit of a random
    Hermitian perturbation of jz of size eps; inf if its outcome changes."""
    e = np.random.default_rng(0).normal(size=(2,) + jz.shape)
    e = e[0] + 1j * e[1]
    base, base_diag = _outcome(_ref_find_protected_subspace, h, jz, scheme)
    moved, moved_diag = _outcome(_ref_find_protected_subspace, h,
                                 jz + eps * (e + e.conj().T) / 2.0, scheme)
    if (base is None) != (moved is None) \
            or (base_diag is None) != (moved_diag is None):
        return np.inf
    if base is None:
        return 0.0
    return max(np.abs(a - b).max() for a, b in
               zip(base.dark_states, moved.dark_states)) / eps


@settings(max_examples=300, deadline=None)
@given(case=_finder_inputs())
def test_finder_matches_per_cluster_reference(case):
    h, jz, scheme = case
    # Both finders round differently inside the Jz projection.  An input
    # whose dark basis amplifies a perturbation more than 100-fold (nearly
    # equal projected Jz or bookkeeping eigenvalues) would turn that
    # rounding into differences above the 1e-13 compared here.
    assume(_amplification(h, jz, scheme) < 100.0)
    got, got_diag = _outcome(find_protected_subspace, h, jz, scheme)
    want, want_diag = _outcome(_ref_find_protected_subspace, h, jz, scheme)
    assert (got_diag is None) == (want_diag is None)
    if want_diag is not None:
        assert len(got_diag) == len(want_diag)
        for g, w in zip(got_diag, want_diag):
            assert g.keys() == w.keys()
            assert (g["size"], g["jz_dark"]) == (w["size"], w["jz_dark"])
            assert abs(g["eigenvalue"] - w["eigenvalue"]) <= 1e-13
            assert abs(g["min_abs_mu"] - w["min_abs_mu"]) <= 1e-13
    _assert_reports_agree(got, want)


@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from(PRESETS), seed=st.integers(0, 2**32 - 1),
       k=st.integers(1, 4))
def test_canonical_order_matches_reference(name, seed, k):
    scheme = preset(name)
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(scheme.dim, k)) + 1j * rng.normal(size=(scheme.dim, k))
    vectors, _ = np.linalg.qr(a)
    got = canonical_order(vectors, scheme)
    assert np.abs(got - _ref_canonical_order(vectors, scheme)).max() <= 1e-13
