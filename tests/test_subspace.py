from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import null_space

from darkqubit.driving import (
    compact_construction,
    hyperfine_construction,
    ideal_construction,
)
from darkqubit.gates import protected_report
from darkqubit.levels import ca40_dp, d52_p32, hyperfine_f1f2, preset
from darkqubit.subspace import (
    ProtectionError,
    canonical_order,
    dressed_decomposition,
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


def test_dressed_decomposition_structure():
    s = ca40_dp(omega0=1000.0)
    con = compact_construction(s, b=0.3, omega=1.0)
    states = dressed_decomposition(con.ip.static, s.projector("P1/2"))
    eigs = [st.eigenvalue for st in states]
    assert eigs == sorted(eigs)
    delta = 0.3 / 15
    root = np.sqrt(1 + delta**2 / 4)
    assert np.allclose(
        eigs,
        [-root - delta / 2, -root + delta / 2, 0, 0, root - delta / 2, root + delta / 2],
        atol=1e-12,
    )
    for st in states:
        if abs(st.eigenvalue) < 1e-9:
            assert st.excited_fraction < 1e-15
        else:
            # bright states split their weight evenly up to O(delta)
            assert st.excited_fraction == pytest.approx(0.5, abs=delta)
        assert np.linalg.norm(st.bright_component) == pytest.approx(1.0, abs=1e-12)


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
