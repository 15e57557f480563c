"""Builtin gate library: names, arities, unitaries, Clifford classification.

Single-qubit unitaries follow the OpenQASM 2.0 convention

    U(theta, phi, lam) = [[cos(t/2),            -e^{i lam} sin(t/2)],
                          [e^{i phi} sin(t/2),  e^{i(phi+lam)} cos(t/2)]]

and every named gate equals its standard qelib1 definition in terms of U and
CX (up to global phase, which the IR never tracks).

Two-qubit matrices are written in the local basis |first second> with the
first operand as the high bit of the 4-dimensional index, so cx maps
|10> <-> |11> (control = first operand). Simulators translate this local
ordering onto global little-endian wires.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from numbers import Real
from typing import Callable

import numpy as np

from .errors import QFlowError
from .euler import u3_cells
from .qelib1 import QELIB1_DEFS

__all__ = [
    "GateSpec",
    "BasisSet",
    "LIBRARY",
    "unitary_of",
    "parameter_error",
    "u3_matrix",
    "gate_manifest",
]


def parameter_error(p) -> str | None:
    """Why ``p`` cannot be a gate parameter, or None: a parameter is a
    finite real equal to the double it converts to."""
    if type(p) is float and not p - p:  # a finite float, the common case
        return None
    try:
        if isinstance(p, Real) and math.isfinite(p):
            return None if float(p) == p else f"parameter {p!r} is not equal to a double"
    except OverflowError:  # a number too large for a double
        pass
    return f"parameter {p!r} is not a finite real number"


def u3_matrix(theta: float, phi: float, lam: float) -> np.ndarray:
    a, b, c, d = u3_cells(theta, phi, lam)
    return np.array([[a, b], [c, d]], dtype=complex)


def _rz(a: float) -> np.ndarray:
    return np.array([[cmath.exp(-0.5j * a), 0], [0, cmath.exp(0.5j * a)]], dtype=complex)


def _rx(a: float) -> np.ndarray:
    c, s = math.cos(a / 2.0), math.sin(a / 2.0)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def _ry(a: float) -> np.ndarray:
    c, s = math.cos(a / 2.0), math.sin(a / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _phase(a: float) -> np.ndarray:
    return np.array([[1, 0], [0, cmath.exp(1j * a)]], dtype=complex)


def _controlled(u: np.ndarray) -> np.ndarray:
    """Block-diagonal [I, u] with the control as the local high bit."""
    out = np.eye(4, dtype=complex)
    out[2:, 2:] = u
    return out


_I2 = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_S = np.array([[1, 0], [0, 1j]], dtype=complex)
_SDG = _S.conj()
_T = _phase(math.pi / 4)
_TDG = _T.conj()
_SX = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex)
_SXDG = _SX.conj()
_SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


@dataclass(frozen=True)
class GateSpec:
    """One builtin gate: arity, parameter count, unitary, Clifford flag."""

    name: str
    arity: int
    param_count: int
    matrix_builder: Callable[..., np.ndarray]
    is_clifford: bool = False
    qelib1_def: str | None = None

    def matrix(self, params=()) -> np.ndarray:
        if not isinstance(params, tuple):
            raise QFlowError(f"gate '{self.name}': parameters must be a tuple, "
                             f"got {type(params).__name__}")
        if len(params) != self.param_count:
            raise QFlowError(
                f"gate '{self.name}' takes {self.param_count} parameter(s), got {len(params)}"
            )
        for p in params:
            why = parameter_error(p)
            if why is not None:
                raise QFlowError(f"gate '{self.name}': {why}")
        return self.matrix_builder(*params)


def _spec(name, arity, nparams, builder, clifford=False):
    return GateSpec(name, arity, nparams, builder, clifford, QELIB1_DEFS.get(name))

LIBRARY: dict[str, GateSpec] = {}
for spec in [
    # one-qubit, parameter-free
    _spec("id", 1, 0, lambda: _I2.copy(), clifford=True),
    _spec("x", 1, 0, lambda: _X.copy(), clifford=True),
    _spec("y", 1, 0, lambda: _Y.copy(), clifford=True),
    _spec("z", 1, 0, lambda: _Z.copy(), clifford=True),
    _spec("h", 1, 0, lambda: _H.copy(), clifford=True),
    _spec("s", 1, 0, lambda: _S.copy(), clifford=True),
    _spec("sdg", 1, 0, lambda: _SDG.copy(), clifford=True),
    _spec("t", 1, 0, lambda: _T.copy()),
    _spec("tdg", 1, 0, lambda: _TDG.copy()),
    _spec("sx", 1, 0, lambda: _SX.copy(), clifford=True),
    _spec("sxdg", 1, 0, lambda: _SXDG.copy(), clifford=True),
    # one-qubit, parameterized
    _spec("u3", 1, 3, u3_matrix),
    _spec("u", 1, 3, u3_matrix),
    _spec("u2", 1, 2, lambda phi, lam: u3_matrix(math.pi / 2, phi, lam)),
    _spec("u1", 1, 1, _phase),
    _spec("p", 1, 1, _phase),
    _spec("u0", 1, 1, lambda gamma: _I2.copy()),
    _spec("rx", 1, 1, _rx),
    _spec("ry", 1, 1, _ry),
    _spec("rz", 1, 1, _rz),
    # two-qubit, parameter-free
    _spec("cx", 2, 0, lambda: _controlled(_X), clifford=True),
    _spec("cz", 2, 0, lambda: _controlled(_Z), clifford=True),
    _spec("cy", 2, 0, lambda: _controlled(_Y), clifford=True),
    _spec("ch", 2, 0, lambda: _controlled(_H)),
    _spec("swap", 2, 0, lambda: _SWAP.copy(), clifford=True),
    # two-qubit, parameterized
    _spec("crx", 2, 1, lambda a: _controlled(_rx(a))),
    _spec("cry", 2, 1, lambda a: _controlled(_ry(a))),
    _spec("crz", 2, 1, lambda a: _controlled(_rz(a))),
    _spec("cu1", 2, 1, lambda a: _controlled(_phase(a))),
    _spec("cp", 2, 1, lambda a: _controlled(_phase(a))),
    _spec("cu3", 2, 3, lambda t, p, l: _controlled(u3_matrix(t, p, l))),
    _spec(
        "rxx",
        2,
        1,
        lambda a: np.array(
            [
                [math.cos(a / 2), 0, 0, -1j * math.sin(a / 2)],
                [0, math.cos(a / 2), -1j * math.sin(a / 2), 0],
                [0, -1j * math.sin(a / 2), math.cos(a / 2), 0],
                [-1j * math.sin(a / 2), 0, 0, math.cos(a / 2)],
            ],
            dtype=complex,
        ),
    ),
    _spec(
        "rzz",
        2,
        1,
        lambda a: np.diag(
            [
                cmath.exp(-0.5j * a),
                cmath.exp(0.5j * a),
                cmath.exp(0.5j * a),
                cmath.exp(-0.5j * a),
            ]
        ).astype(complex),
    ),
]:
    LIBRARY[spec.name] = spec


def unitary_of(gate: str, params=()) -> np.ndarray:
    """Unitary matrix of a builtin gate for the given parameters."""
    spec = LIBRARY.get(gate)
    if spec is None:
        raise QFlowError(f"unknown gate '{gate}'")
    return spec.matrix(params)


@dataclass(frozen=True)
class BasisSet:
    """Device basis vocabulary split by arity."""

    one_qubit: frozenset
    two_qubit: frozenset

    @classmethod
    def from_names(cls, names) -> "BasisSet":
        one, two = set(), set()
        for name in names:
            spec = LIBRARY.get(name)
            if spec is None:
                raise QFlowError(f"basis gate '{name}' is not in the gate library")
            (one if spec.arity == 1 else two).add(name)
        if not one or not two:
            raise QFlowError("basis gate set needs at least one 1q and one 2q gate")
        return cls(frozenset(one), frozenset(two))


def gate_manifest() -> list[dict]:
    """Machine-readable gate table: matrices for parameter-free gates,
    qelib1 definition strings for parameterized ones."""
    entries = []
    for name in sorted(LIBRARY):
        spec = LIBRARY[name]
        entry: dict = {
            "name": name,
            "arity": spec.arity,
            "params": spec.param_count,
            "clifford": spec.is_clifford,
        }
        if spec.param_count == 0:
            m = spec.matrix()
            entry["matrix"] = [[z.real, z.imag] for z in m.flatten()]
        if spec.qelib1_def is not None:
            entry["definition"] = spec.qelib1_def
        entries.append(entry)
    return entries
