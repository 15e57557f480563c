"""Angle arithmetic, 2x2 cell products and ZYZ Euler extraction for
single-qubit unitaries.

Angles are normalized to (-pi, pi] and snapped exactly onto the pi/2 lattice
when within SNAP_TOL = 1e-9 of a lattice point; exact lattice membership is
what the stabilizer backend and ``decompose.retarget_1q`` key on.

An angle meets a sum only through :func:`reduce_angle`: a huge angle would
round a smaller one away, and every gate matrix reduces by 2*pi exactly. The
cut is 2*pi so that the angles of ordinary circuits keep their bits. Only
this module calls ``fmod``, ``atan2`` or ``remainder``.
"""

from __future__ import annotations

import cmath
import math

__all__ = [
    "reduce_angle",
    "normalize_angle",
    "snap_angle",
    "zyz_from_cells",
    "u3_cells",
    "mul2",
    "IDENTITY_CELLS",
    "SNAP_TOL",
]

SNAP_TOL = 1e-9
_HALF_PI = math.pi / 2
_TWO_PI = 2 * math.pi
_FMOD_TURNS = 2**20
_FMOD_LIMIT = _FMOD_TURNS * _TWO_PI

# |sin(theta/2)| (resp. |cos|) below this selects the gimbal-degenerate branch
_DEGENERATE_TOL = 1e-12


def reduce_angle(a: float) -> float:
    """``a`` if |a| <= 2*pi, else its exact remainder mod 2*pi in [-pi, pi]:
    its sine and cosine reduce by 2*pi exactly, as every gate matrix does."""
    if -_TWO_PI <= a <= _TWO_PI:
        return a
    return math.atan2(math.sin(a), math.cos(a))


def normalize_angle(a: float) -> float:
    """Wrap into (-pi, pi]. ``fmod`` by the double nearest 2*pi drifts from
    the angle by about 2.4e-16 per turn, so an angle of more turns than
    ``_FMOD_TURNS`` is reduced by :func:`reduce_angle` instead."""
    if -_FMOD_LIMIT < a < _FMOD_LIMIT:
        a = math.fmod(a, _TWO_PI)
    else:
        a = reduce_angle(a)
    if a > math.pi:
        a -= _TWO_PI
    elif a <= -math.pi:
        a += _TWO_PI
    return a


def snap_angle(a: float) -> float:
    """Normalize, then snap to an exact multiple of pi/2 when within SNAP_TOL."""
    a = normalize_angle(a)
    k = round(a / _HALF_PI)
    lattice = k * _HALF_PI
    if abs(a - lattice) <= SNAP_TOL:
        return normalize_angle(lattice) if k == -2 else lattice + 0.0
    return a


def zyz_from_cells(
    a00: complex, a01: complex, a10: complex, a11: complex
) -> tuple[float, float, float]:
    """ZYZ extraction on row-major matrix cells (allocation-free hot path)."""
    c = abs(a00)
    s = abs(a10)
    if s <= _DEGENERATE_TOL:
        return 0.0, normalize_angle(cmath.phase(a11) - cmath.phase(a00)), 0.0
    if c <= _DEGENERATE_TOL:
        return math.pi, normalize_angle(cmath.phase(a10) - cmath.phase(-a01)), 0.0
    theta = 2.0 * math.atan2(s, c)
    phi = normalize_angle(cmath.phase(a10) - cmath.phase(a00))
    lam = normalize_angle(cmath.phase(-a01) - cmath.phase(a00))
    return theta, phi, lam


# A 2x2 matrix as its row-major cells (a00, a01, a10, a11): merging runs of
# one-qubit gates this way needs no numpy arrays.
IDENTITY_CELLS = (1.0, 0.0, 0.0, 1.0)


def u3_cells(t: float, p: float, l: float) -> tuple:
    """Row-major cells of U3(t, p, l)."""
    c = math.cos(t / 2.0)
    s = math.sin(t / 2.0)
    return (c, -cmath.exp(1j * l) * s, cmath.exp(1j * p) * s,
            cmath.exp(1j * (reduce_angle(p) + reduce_angle(l))) * c)


def mul2(m2: tuple, m1: tuple) -> tuple:
    """Row-major 2x2 product m2 @ m1."""
    a2, b2, c2, d2 = m2
    a1, b1, c1, d1 = m1
    return (
        a2 * a1 + b2 * c1,
        a2 * b1 + b2 * d1,
        c2 * a1 + d2 * c1,
        c2 * b1 + d2 * d1,
    )
