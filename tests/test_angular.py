from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from darkqubit.angular import (
    as_half_int,
    cg_signed_square,
    clebsch_gordan,
    jminus,
    jplus,
    jx,
    jy,
    jz,
)

# Every coupled-basis check below is done against an oracle that never calls
# into darkqubit.angular: ladder matrices from the sqrt(j(j+1)-m(m+1)) rule,
# coupled states from diagonalizing J^2 in the product basis, phases fixed by
# the Condon-Shortley convention.  Agreement is required to near machine
# precision because the package computes coefficients in exact rational
# arithmetic.

PAIRS = [
    (0.5, 0.5),
    (1.0, 0.5),
    (1.0, 1.0),
    (1.5, 1.0),
    (2.0, 1.0),
    (2.5, 1.0),
    (1.5, 1.5),
    (2.0, 2.0),
]


def _ladder_up(j: float) -> np.ndarray:
    dim = int(round(2 * j)) + 1
    m = -j + np.arange(dim - 1)
    op = np.zeros((dim, dim))
    op[np.arange(1, dim), np.arange(dim - 1)] = np.sqrt(j * (j + 1) - m * (m + 1))
    return op


def _coupled_states(j1: float, j2: float) -> dict[tuple[float, float], np.ndarray]:
    """|j3 m3> expanded over |m1> x |m2>, phases per Condon-Shortley."""
    d1 = int(round(2 * j1)) + 1
    d2 = int(round(2 * j2)) + 1
    jp = np.kron(_ladder_up(j1), np.eye(d2)) + np.kron(np.eye(d1), _ladder_up(j2))
    jm = jp.T
    z_tot = np.kron(np.diag(-j1 + np.arange(d1)), np.eye(d2)) + np.kron(
        np.eye(d1), np.diag(-j2 + np.arange(d2))
    )
    j_sq = jm @ jp + z_tot @ (z_tot + np.eye(d1 * d2))

    out: dict[tuple[float, float], np.ndarray] = {}
    two_j3_min = int(round(2 * abs(j1 - j2)))
    two_j3_max = int(round(2 * (j1 + j2)))
    for two_j3 in range(two_j3_min, two_j3_max + 1, 2):
        j3 = two_j3 / 2
        # the m3 = j3 sector holds one state per total j >= j3, so the
        # eigenvalue j3(j3+1) is simple there
        sel = np.isclose(np.diag(z_tot), j3)
        basis = np.eye(d1 * d2)[:, sel]
        block = basis.T @ j_sq @ basis
        w, v = np.linalg.eigh(block)
        vec = basis @ v[:, np.argmin(np.abs(w - j3 * (j3 + 1)))]
        top = (d1 - 1) * d2 + int(round(j3 - j1 + j2))
        if vec[top] < 0:
            vec = -vec
        m3 = j3
        while True:
            out[(j3, m3)] = vec
            if m3 <= -j3:
                break
            vec = jm @ vec
            vec = vec / np.linalg.norm(vec)
            m3 -= 1
    return out


@pytest.mark.parametrize("j1,j2", PAIRS)
def test_cg_matches_ladder_oracle(j1, j2):
    d2 = int(round(2 * j2)) + 1
    states = _coupled_states(j1, j2)
    for (j3, m3), vec in states.items():
        for i1, m1 in enumerate(np.arange(-j1, j1 + 1)):
            for i2, m2 in enumerate(np.arange(-j2, j2 + 1)):
                got = clebsch_gordan(j1, m1, j2, m2, j3, m3)
                assert got == pytest.approx(vec[i1 * d2 + i2], abs=1e-13)


@pytest.mark.parametrize("j1,j2", PAIRS)
def test_cg_orthogonality(j1, j2):
    # rows of the coupling matrix are orthonormal: sum over (m1, m2) of
    # products for two coupled labels gives a Kronecker delta
    labels = []
    two_j3_min = int(round(2 * abs(j1 - j2)))
    two_j3_max = int(round(2 * (j1 + j2)))
    for two_j3 in range(two_j3_min, two_j3_max + 1, 2):
        j3 = two_j3 / 2
        for m3 in np.arange(-j3, j3 + 1):
            labels.append((j3, m3))
    for ja, ma in labels:
        for jb, mb in labels:
            acc = 0.0
            for m1 in np.arange(-j1, j1 + 1):
                for m2 in np.arange(-j2, j2 + 1):
                    acc += clebsch_gordan(j1, m1, j2, m2, ja, ma) * clebsch_gordan(
                        j1, m1, j2, m2, jb, mb
                    )
            want = 1.0 if (ja, ma) == (jb, mb) else 0.0
            assert acc == pytest.approx(want, abs=1e-13)


@settings(max_examples=60, deadline=None)
@given(two_j1=st.integers(0, 6), two_j2=st.integers(0, 6))
def test_cg_orthogonality_random_j(two_j1, two_j2):
    # the coupling matrix C[(j3, m3), (m1, m2)] is orthogonal: both sums of
    # CG * CG (over product labels, and over coupled labels) are deltas
    j1, j2 = two_j1 / 2, two_j2 / 2
    two_j3s = range(abs(two_j1 - two_j2), two_j1 + two_j2 + 1, 2)
    coupled = [(two_j3 / 2, -two_j3 / 2 + k)
               for two_j3 in two_j3s for k in range(two_j3 + 1)]
    product = [(-j1 + a, -j2 + b)
               for a in range(two_j1 + 1) for b in range(two_j2 + 1)]
    c = np.array([[clebsch_gordan(j1, m1, j2, m2, j3, m3)
                   for m1, m2 in product] for j3, m3 in coupled])
    assert c.shape == (len(product), len(product))
    eye = np.eye(len(product))
    assert np.abs(c @ c.T - eye).max() <= 1e-12
    assert np.abs(c.T @ c - eye).max() <= 1e-12


def test_cg_selection_rules():
    assert clebsch_gordan(1.5, 0.5, 1, 1, 0.5, 0.5) == 0.0
    assert clebsch_gordan(1.5, 0.5, 1, 0, 3.5, 0.5) == 0.0
    with pytest.raises(ValueError):
        clebsch_gordan(1.5, 0.5, 1, 0, 0.25, 0.5)


def test_cg_known_values():
    # two-spin singlet/triplet
    assert clebsch_gordan(0.5, 0.5, 0.5, -0.5, 1, 0) == pytest.approx(
        1 / math.sqrt(2), abs=1e-15
    )
    assert clebsch_gordan(0.5, 0.5, 0.5, -0.5, 0, 0) == pytest.approx(
        1 / math.sqrt(2), abs=1e-15
    )
    assert clebsch_gordan(0.5, -0.5, 0.5, 0.5, 0, 0) == pytest.approx(
        -1 / math.sqrt(2), abs=1e-15
    )
    # j=3/2 coupled to a photon (j=1) down to j=1/2: the stretched sigma
    # element exceeds the inner one by exactly sqrt(3)
    stretched = clebsch_gordan(1.5, -1.5, 1, 1, 0.5, -0.5)
    inner = clebsch_gordan(1.5, 0.5, 1, -1, 0.5, -0.5)
    assert stretched == pytest.approx(1 / math.sqrt(2), abs=1e-15)
    assert abs(stretched / inner) == pytest.approx(math.sqrt(3), abs=1e-14)
    assert clebsch_gordan(1.5, -0.5, 1, 0, 0.5, -0.5) == pytest.approx(
        -1 / math.sqrt(3), abs=1e-15
    )


def test_cg_swap_symmetry():
    for j1, j2 in PAIRS:
        two_j3_min = int(round(2 * abs(j1 - j2)))
        two_j3_max = int(round(2 * (j1 + j2)))
        for two_j3 in range(two_j3_min, two_j3_max + 1, 2):
            j3 = two_j3 / 2
            phase = (-1) ** int(round(j1 + j2 - j3))
            for m1 in np.arange(-j1, j1 + 1):
                for m2 in np.arange(-j2, j2 + 1):
                    m3 = m1 + m2
                    if abs(m3) > j3:
                        continue
                    a = clebsch_gordan(j1, m1, j2, m2, j3, m3)
                    b = clebsch_gordan(j2, m2, j1, m1, j3, m3)
                    assert a == pytest.approx(phase * b, abs=1e-14)


def test_cg_signed_square_is_exact():
    for j1, j2 in PAIRS:
        two_j3_min = int(round(2 * abs(j1 - j2)))
        two_j3_max = int(round(2 * (j1 + j2)))
        for two_j3 in range(two_j3_min, two_j3_max + 1, 2):
            j3 = two_j3 / 2
            for m1 in np.arange(-j1, j1 + 1):
                for m2 in np.arange(-j2, j2 + 1):
                    m3 = m1 + m2
                    if abs(m3) > j3:
                        continue
                    sign, square = cg_signed_square(j1, m1, j2, m2, j3, m3)
                    assert isinstance(square, Fraction)
                    assert square >= 0
                    val = sign * math.sqrt(square)
                    assert val == pytest.approx(
                        clebsch_gordan(j1, m1, j2, m2, j3, m3), abs=1e-15
                    )


@pytest.mark.parametrize("j", [0.5, 1.0, 1.5, 2.0, 2.5])
def test_su2_algebra(j):
    x, y, z = jx(j), jy(j), jz(j)
    assert np.allclose(x @ y - y @ x, 1j * z, atol=1e-14)
    assert np.allclose(y @ z - z @ y, 1j * x, atol=1e-14)
    assert np.allclose(z @ x - x @ z, 1j * y, atol=1e-14)
    assert np.allclose(jplus(j), x + 1j * y, atol=1e-14)
    assert np.allclose(jminus(j), x - 1j * y, atol=1e-14)
    dim = int(round(2 * j)) + 1
    casimir = x @ x + y @ y + z @ z
    assert np.allclose(casimir, j * (j + 1) * np.eye(dim), atol=1e-13)
    assert np.allclose(np.diag(z), -j + np.arange(dim), atol=0)


def test_as_half_int_coercions():
    assert as_half_int(1.5) == Fraction(3, 2)
    assert as_half_int(Fraction(-1, 2)) == Fraction(-1, 2)
    assert as_half_int("3/2") == Fraction(3, 2)
    assert as_half_int("-1/2") == Fraction(-1, 2)
    assert as_half_int(2) == Fraction(2)
    with pytest.raises(ValueError):
        as_half_int(0.3)
