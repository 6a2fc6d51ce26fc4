"""Angular momentum primitives: exact Clebsch-Gordan coefficients and spin matrices.

Conventions used throughout the package:

* quantum numbers j, m are integers or half-integers (accepted as int, float,
  or Fraction; validated to be multiples of 1/2),
* matrices are written in the basis m = -j, -j+1, ..., +j (ascending),
* Condon-Shortley phases, so all ladder matrix elements are real positive.

Clebsch-Gordan coefficients are evaluated from the closed-form Racah sum with
`fractions.Fraction` arithmetic.  The square of a coefficient is an exact
rational; the public float value is sign(CG) * sqrt(that rational), so ratios
such as sqrt(3) between coupling strengths are exact to the final rounding.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

__all__ = [
    "as_half_int",
    "clebsch_gordan",
    "cg_signed_square",
    "jz",
    "jplus",
    "jminus",
    "jx",
    "jy",
]


def as_half_int(value) -> Fraction:
    """Coerce a quantum number to an exact multiple of 1/2.

    Raises ValueError if the value is not within 1e-9 of n/2 for integer n.
    """
    if isinstance(value, str):
        value = Fraction(value)  # accepts "3/2", "-1/2", "2"
    if isinstance(value, Fraction):
        if value.denominator not in (1, 2):  # 2 * value is not an integer
            raise ValueError(f"not a multiple of 1/2: {value}")
        return value
    doubled = 2.0 * float(value)
    nearest = round(doubled)
    if abs(doubled - nearest) > 1e-9:
        raise ValueError(f"not a multiple of 1/2: {value}")
    return Fraction(nearest, 2)


def _int(value: Fraction, what: str) -> int:
    if value.denominator != 1:
        raise ValueError(f"{what} must be an integer, got {value}")
    return value.numerator


def _fact(n: int) -> int:
    if n < 0:
        raise ValueError("negative factorial")
    return math.factorial(n)


@lru_cache(maxsize=None)
def _cg_cached(j1: Fraction, m1: Fraction, j2: Fraction, m2: Fraction,
               j3: Fraction, m3: Fraction) -> tuple[int, Fraction]:
    # Selection rules first; identically zero coefficients short-circuit.
    if m3 != m1 + m2:
        return 0, Fraction(0)
    if abs(m1) > j1 or abs(m2) > j2 or abs(m3) > j3:
        return 0, Fraction(0)
    if j3 < abs(j1 - j2) or j3 > j1 + j2:
        return 0, Fraction(0)
    if (j1 + j2 + j3).denominator != 1:
        return 0, Fraction(0)
    for q in (j1 + m1, j1 - m1, j2 + m2, j2 - m2, j3 + m3, j3 - m3):
        if q.denominator != 1:
            return 0, Fraction(0)

    # Racah's single-sum form.  Every factorial argument below is a plain
    # integer once the selection rules hold, so the sum is an exact rational.
    a = _int(j1 + j2 - j3, "j1+j2-j3")
    b = _int(j1 - j2 + j3, "j1-j2+j3")
    c = _int(-j1 + j2 + j3, "-j1+j2+j3")
    d = _int(j1 + j2 + j3 + 1, "j1+j2+j3+1")

    prefactor = Fraction(
        _int(2 * j3 + 1, "2j3+1")
        * _fact(a) * _fact(b) * _fact(c)
        * _fact(_int(j1 + m1, "")) * _fact(_int(j1 - m1, ""))
        * _fact(_int(j2 + m2, "")) * _fact(_int(j2 - m2, ""))
        * _fact(_int(j3 + m3, "")) * _fact(_int(j3 - m3, "")),
        _fact(d),
    )

    k_min = max(0, _int(j2 - j3 - m1, ""), _int(j1 - j3 + m2, ""))
    k_max = min(a, _int(j1 - m1, ""), _int(j2 + m2, ""))
    total = Fraction(0)
    for k in range(k_min, k_max + 1):
        term = Fraction(
            (-1) ** k,
            _fact(k) * _fact(a - k)
            * _fact(_int(j1 - m1, "") - k) * _fact(_int(j2 + m2, "") - k)
            * _fact(_int(j3 - j2 + m1, "") + k) * _fact(_int(j3 - j1 - m2, "") + k),
        )
        total += term
    if total == 0:
        return 0, Fraction(0)
    sign = 1 if total > 0 else -1
    return sign, total * total * prefactor


def cg_signed_square(j1, m1, j2, m2, j3, m3) -> tuple[int, Fraction]:
    """Exact Clebsch-Gordan data: (sign, CG**2) with CG**2 a Fraction.

    sign is -1, 0, or +1; the coefficient itself is sign * sqrt(CG**2).
    """
    return _cg_cached(as_half_int(j1), as_half_int(m1), as_half_int(j2),
                      as_half_int(m2), as_half_int(j3), as_half_int(m3))


def clebsch_gordan(j1, m1, j2, m2, j3, m3) -> float:
    """<j1 m1; j2 m2 | j3 m3> as a float (Condon-Shortley convention)."""
    sign, square = cg_signed_square(j1, m1, j2, m2, j3, m3)
    if sign == 0:
        return 0.0
    return sign * math.sqrt(square.numerator / square.denominator)


def _dim(j) -> int:
    jj = as_half_int(j)
    return _int(2 * jj + 1, "2j+1")


def _m_values(j) -> list[Fraction]:
    jj = as_half_int(j)
    return [-jj + k for k in range(_dim(j))]


def jz(j) -> np.ndarray:
    """J_z in the ascending-m basis (diagonal of m values)."""
    return np.diag([float(m) for m in _m_values(j)]).astype(complex)


def jplus(j) -> np.ndarray:
    """Raising operator: <m+1|J+|m> = sqrt(j(j+1) - m(m+1))."""
    jj = as_half_int(j)
    n = _dim(j)
    out = np.zeros((n, n), dtype=complex)
    for k, m in enumerate(_m_values(j)[:-1]):
        out[k + 1, k] = math.sqrt(float(jj * (jj + 1) - m * (m + 1)))
    return out


def jminus(j) -> np.ndarray:
    return jplus(j).conj().T


def jx(j) -> np.ndarray:
    jp = jplus(j)
    return (jp + jp.conj().T) / 2.0


def jy(j) -> np.ndarray:
    jp = jplus(j)
    return (jp - jp.conj().T) / 2.0j
