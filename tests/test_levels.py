from __future__ import annotations

import dataclasses
import itertools
from fractions import Fraction

import numpy as np
import pytest

from darkqubit.angular import clebsch_gordan, jx
from darkqubit.levels import (
    POLARIZATIONS,
    DecayChannel,
    LevelScheme,
    Manifold,
    ca40_dp,
    ca40_sdp,
    d52_p32,
    hyperfine_f0f1,
    hyperfine_f1f2,
    preset,
)


def test_preset_registry():
    for name, builder in [
        ("ca40_dp", ca40_dp),
        ("ca40_sdp", ca40_sdp),
        ("d52_p32", d52_p32),
        ("hyperfine_f1f2", hyperfine_f1f2),
        ("hyperfine_f0f1", hyperfine_f0f1),
    ]:
        assert preset(name).states() == builder().states()
    with pytest.raises(ValueError):
        preset("nope")


def test_preset_g_factors():
    # Lande values for pure-L,S terms; the protection analysis depends on the
    # exact rationals, so pin them
    dp = {m.name: m.g for m in ca40_dp().manifolds}
    assert dp["D3/2"] == pytest.approx(4 / 5, abs=0)
    assert dp["P1/2"] == pytest.approx(2 / 3, abs=1e-15)
    sdp = {m.name: m.g for m in ca40_sdp().manifolds}
    assert sdp["S1/2"] == pytest.approx(2.0, abs=0)
    d52 = {m.name: m.g for m in d52_p32().manifolds}
    assert d52["D5/2"] == pytest.approx(6 / 5, abs=0)
    assert d52["P3/2"] == pytest.approx(4 / 3, abs=1e-15)
    hf = {m.name: m.g for m in hyperfine_f1f2().manifolds}
    assert hf["F1"] == pytest.approx(-1 / 2, abs=0)
    assert hf["F2"] == pytest.approx(1 / 2, abs=0)


def test_state_ordering_and_indexing():
    s = ca40_dp()
    want = [
        ("D3/2", Fraction(-3, 2)),
        ("D3/2", Fraction(-1, 2)),
        ("D3/2", Fraction(1, 2)),
        ("D3/2", Fraction(3, 2)),
        ("P1/2", Fraction(-1, 2)),
        ("P1/2", Fraction(1, 2)),
    ]
    assert s.states() == want
    assert s.dim == 6
    assert s.slice("D3/2") == slice(0, 4)
    assert s.slice("P1/2") == slice(4, 6)
    for k, (name, m) in enumerate(want):
        assert s.index(name, m) == k
        vec = s.basis_state(name, m)
        assert vec[k] == 1.0 and np.count_nonzero(vec) == 1
    # string m works too
    assert s.index("P1/2", "1/2") == 5


def test_static_hamiltonian_decomposition():
    # H0(b) must be exactly (manifold offsets) + b * (Zeeman slope matrix)
    s = ca40_dp(omega0=100.0)
    gen = s.zeeman_generator()
    offsets = s.static_hamiltonian(0.0)
    for b in (0.0, 0.3, -1.7):
        assert np.allclose(s.static_hamiltonian(b), offsets + b * gen, atol=0)
    assert np.allclose(np.diag(offsets), [0, 0, 0, 0, 100.0, 100.0], atol=0)


def test_zeeman_generator_slopes():
    s = ca40_dp()
    diag = np.diag(s.zeeman_generator()).real
    want = [0.8 * m for m in (-1.5, -0.5, 0.5, 1.5)] + [
        (2 / 3) * m for m in (-0.5, 0.5)
    ]
    assert np.allclose(diag, want, atol=1e-15)
    assert np.allclose(s.zeeman_generator(), np.diag(diag), atol=0)
    hf = hyperfine_f1f2()
    diag = np.diag(hf.zeeman_generator()).real
    want = [-0.5 * m for m in (-1, 0, 1)] + [0.5 * m for m in (-2, -1, 0, 1, 2)]
    assert np.allclose(diag, want, atol=0)


def test_jz_total():
    s = d52_p32()
    diag = np.diag(s.jz_total()).real
    want = [-2.5, -1.5, -0.5, 0.5, 1.5, 2.5, -1.5, -0.5, 0.5, 1.5]
    assert np.allclose(diag, want, atol=0)


@pytest.mark.parametrize("pol", ["sigma+", "pi", "sigma-"])
def test_dipole_coupling_is_cg_table(pol):
    s = ca40_dp()
    q = POLARIZATIONS[pol]
    op = s.dipole_coupling("D3/2", "P1/2", pol)
    for il, (ln, lm) in enumerate(s.states()[:4]):
        for iu, (un, um) in enumerate(s.states()[4:], start=4):
            want = 0.0
            if um == lm + q:
                want = clebsch_gordan(1.5, lm, 1, q, 0.5, um)
            assert op[iu, il] == pytest.approx(want, abs=1e-15)
    # raising part only: nothing outside the upper-lower block
    assert np.allclose(op[:4, :], 0.0, atol=0)
    assert np.allclose(op[:, 4:], 0.0, atol=0)


def test_dipole_stretched_to_inner_ratio():
    op = ca40_dp().dipole_coupling("D3/2", "P1/2", "sigma+")
    stretched = abs(op[4, 0])  # D(-3/2) -> P(-1/2)
    inner = abs(op[5, 1])  # D(-1/2) -> P(+1/2)
    assert stretched / inner == pytest.approx(np.sqrt(3), abs=1e-14)


def test_collapse_operators_total_rate():
    # summed over emission polarizations, every upper state decays at the
    # channel rate regardless of m
    for scheme in (ca40_dp(gamma=0.5), d52_p32(gamma=0.25)):
        ops = scheme.all_collapse_operators()
        assert len(ops) == 3
        total = sum(c.conj().T @ c for c in ops)
        upper = scheme.manifolds[-1].name
        rate = scheme.decays[0].rate
        assert np.allclose(total, rate * scheme.projector(upper), atol=1e-14)


def test_collapse_operators_change_m_by_polarization():
    s = ca40_dp(gamma=1.0)
    ms = [float(m) for _, m in s.states()]
    for op, q in zip(s.all_collapse_operators(), (1, 0, -1)):
        rows, cols = np.nonzero(np.abs(op) > 1e-15)
        assert len(rows) > 0
        for r, c in zip(rows, cols):
            assert ms[c] - ms[r] == q  # lower m = upper m - q


def test_no_decay_without_rate():
    assert ca40_dp().decays == ()
    assert ca40_dp().all_collapse_operators() == []
    s = ca40_dp(gamma=0.5)
    assert s.decays == (DecayChannel(upper="P1/2", lower="D3/2", rate=0.5),)


def test_spin_operator_embedding():
    s = ca40_dp()
    op = s.spin_operator("P1/2", "x")
    assert np.allclose(op[4:, 4:], jx(0.5), atol=0)
    mask = np.ones((6, 6), bool)
    mask[4:, 4:] = False
    assert np.allclose(op[mask], 0.0, atol=0)


def test_projector():
    s = ca40_sdp()
    p = s.projector("S1/2", "P1/2")
    assert np.allclose(np.diag(p), [1, 1, 0, 0, 0, 0, 1, 1], atol=0)


def test_scheme_validation():
    with pytest.raises(ValueError):
        LevelScheme((Manifold("A", "1/2", 2.0, 0.0), Manifold("A", "1/2", 2.0, 1.0)))
    with pytest.raises(ValueError):
        LevelScheme((Manifold("A", "1/2", 2.0, 0.0),), (DecayChannel("B", "A", 0.1),))
    with pytest.raises(ValueError):
        Manifold("A", "0.3", 2.0, 0.0)


# ------------------------------------------------------ memoised structure


PRESETS = ("ca40_dp", "ca40_sdp", "d52_p32", "hyperfine_f1f2",
           "hyperfine_f0f1")


def _uncached_dipole(scheme, lower, upper, q, transitions):
    low, up = scheme.manifold(lower), scheme.manifold(upper)
    out = np.zeros((scheme.dim, scheme.dim), dtype=complex)
    for m in low.m_values:
        mu = m + q
        if (transitions is None or m in transitions) and abs(mu) <= up.j:
            out[scheme.index(upper, mu), scheme.index(lower, m)] = \
                clebsch_gordan(low.j, m, 1, q, up.j, mu)
    return out


def _reshifted(scheme):
    """The same structure with other offsets and g-factors."""
    return LevelScheme(tuple(
        dataclasses.replace(man, g=1.5 * man.g + 0.1,
                            offset=man.offset + 7.0)
        for man in scheme.manifolds), scheme.decays)


@pytest.mark.parametrize("name", PRESETS)
def test_memoised_dipole_coupling_matches_an_uncached_build(name):
    first = preset(name)
    second = _reshifted(first)
    names = [man.name for man in first.manifolds]
    for lower, upper in itertools.product(names, repeat=2):
        m_lower = first.manifold(lower).m_values
        for pol, q in POLARIZATIONS.items():
            for transitions in [None] + [(m,) for m in m_lower]:
                want = _uncached_dipole(first, lower, upper, q, transitions)
                got = first.dipole_coupling(lower, upper, pol, transitions)
                assert got.tobytes() == want.tobytes()
                again = second.dipole_coupling(lower, upper, pol, transitions)
                assert again is got
                assert _uncached_dipole(second, lower, upper, q,
                                        transitions).tobytes() == want.tobytes()
                if transitions is not None:
                    # another spelling of the same m set: the same entry
                    spelled = [float(m) for m in transitions]
                    assert first.dipole_coupling(lower, upper, pol,
                                                 spelled) is got


def test_shared_structure_arrays_are_read_only():
    s = ca40_sdp(gamma_s=0.3, gamma_d=0.2)
    for arr in (s.dipole_coupling("D3/2", "P1/2", "sigma+"),
                s.dipole_coupling("S1/2", "P1/2", "pi", transitions=("1/2",)),
                s.zeeman_generator()):
        with pytest.raises(ValueError):
            arr[0, 0] = 1.0
        with pytest.raises(ValueError):
            arr += 1.0
    assert s.zeeman_generator() is s.zeeman_generator()
    assert np.diag(s.zeeman_generator()).real == pytest.approx(
        [-1.0, 1.0, -1.2, -0.4, 0.4, 1.2, -1.0 / 3.0, 1.0 / 3.0], abs=1e-15)


def test_collapse_operators_unchanged_by_memoisation():
    for scheme in (ca40_sdp(gamma_s=0.3, gamma_d=0.2), d52_p32(gamma=0.25),
                   ca40_dp(gamma=0.5)):
        want = []
        for chan in scheme.decays:
            for q in POLARIZATIONS.values():
                raising = _uncached_dipole(scheme, chan.lower, chan.upper, q,
                                           None)
                jump = np.sqrt(chan.rate) * raising.conj().T
                if np.any(jump):
                    want.append(jump)
        got = scheme.all_collapse_operators()
        assert [op.tobytes() for op in got] == [op.tobytes() for op in want]


def test_static_hamiltonian_is_a_fresh_array_over_shared_diagonals():
    s = ca40_sdp()
    want = np.diag(s.static_hamiltonian(0.4)).copy()
    first = s.static_hamiltonian(0.4)
    assert first.flags.writeable
    first[:] = 5.0
    second = s.static_hamiltonian(0.4)
    assert second is not first
    assert np.array_equal(np.diag(second), want)
    assert np.count_nonzero(second - np.diag(want)) == 0
    # b = 0 leaves the offsets alone
    assert np.array_equal(np.diag(s.static_hamiltonian(0.0)).real,
                          [-1500.0] * 2 + [0.0] * 4 + [1000.0] * 2)


@pytest.mark.parametrize("m", [Fraction(1, 3), 1.0 / 3.0, "1/3", 0.25])
def test_index_rejects_m_off_the_half_integers(m):
    with pytest.raises(ValueError, match="multiple of 1/2"):
        ca40_dp().index("D3/2", m)


@pytest.mark.parametrize("name, m", [("D3/2", Fraction(5, 2)),
                                     ("D3/2", -2.5), ("P1/2", "3/2"),
                                     ("P1/2", 1)])
def test_index_rejects_m_beyond_j(name, m):
    with pytest.raises(ValueError, match="exceeds j"):
        ca40_dp().index(name, m)
