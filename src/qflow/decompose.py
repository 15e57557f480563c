"""Gate decomposition into the {u3, cx} intermediate form and retargeting to
device basis families.

The intermediate form mirrors the standard qelib1 definitions: every
one-qubit builtin collapses to a single u3, every two-qubit builtin to a
fixed u3/cx template. Retargeting realizes u3 in one of three supported
one-qubit families and cx natively or via cz:

    {u3} or {u}    identity retarget
    {rz, sx, x}    U3(t,p,l) = RZ(p+pi) SX RZ(t+pi) SX RZ(l)   (up to phase)
    {rz, rx}       U3(t,p,l) = RZ(p+pi/2) RX(t) RZ(l-pi/2)
    {rz, ry}       U3(t,p,l) = RZ(p) RY(t) RZ(l)

with rz(0) removed and the sx form collapsed at theta in {0, +-pi/2, pi}.
Native sets needing two-qubit resynthesis (iswap, Molmer-Sorensen) are out
of scope. Phi and lam, and the cu3 and rxx angles, meet a sum only after
``euler.reduce_angle``, so a huge angle rounds no smaller one away, and an
angle of at most 2*pi keeps its bits.
"""

from __future__ import annotations

import math

from .circuit import Instruction
from .errors import QFlowError, UnsupportedBasisError
from .euler import reduce_angle, snap_angle
from .gates import BasisSet, LIBRARY

__all__ = [
    "decompose_to_u_cx",
    "retarget_1q",
    "retarget_2q",
    "resolve_1q_family",
]

_PI = math.pi
_H3 = (_PI / 2, 0.0, _PI)  # u3 parameters of the Hadamard


# u3 parameters of the one-qubit gates without parameters of their own
_FIXED_U3 = {
    "x": (_PI, 0.0, _PI),
    "y": (_PI, _PI / 2, _PI / 2),
    "z": (0.0, 0.0, _PI),
    "h": _H3,
    "s": (0.0, 0.0, _PI / 2),
    "sdg": (0.0, 0.0, -_PI / 2),
    "t": (0.0, 0.0, _PI / 4),
    "tdg": (0.0, 0.0, -_PI / 4),
    "sx": (_PI / 2, -_PI / 2, _PI / 2),
    "sxdg": (_PI / 2, _PI / 2, -_PI / 2),
}


def _one_q_u3_params(opcode: str, p: tuple) -> tuple:
    fixed = _FIXED_U3.get(opcode)
    if fixed is not None:
        return fixed
    if opcode in ("u3", "u"):
        return (p[0], p[1], p[2])
    if opcode == "u2":
        return (_PI / 2, p[0], p[1])
    if opcode in ("u1", "p", "rz"):
        return (0.0, 0.0, p[0])
    if opcode in ("id", "u0"):
        return (0.0, 0.0, 0.0)
    if opcode == "rx":
        return (p[0], -_PI / 2, _PI / 2)
    return (p[0], 0.0, 0.0)  # ry


def _two_q_template(opcode: str, p: tuple) -> list[tuple]:
    """(opcode, params, operand slots) triples; slot 0 = first operand."""
    cx = ("cx", (), (0, 1))
    if opcode == "cx":
        return [cx]
    if opcode == "cz":
        return [("u3", _H3, (1,)), cx, ("u3", _H3, (1,))]
    if opcode == "cy":
        return [("u3", (0.0, 0.0, -_PI / 2), (1,)), cx, ("u3", (0.0, 0.0, _PI / 2), (1,))]
    if opcode == "swap":
        return [cx, ("cx", (), (1, 0)), cx]
    if opcode == "ch":
        # qelib1: h b; sdg b; cx; h b; t b; cx; t b; h b; s b; x b; s a;
        seq = [
            ("u3", _H3, (1,)),
            ("u3", (0.0, 0.0, -_PI / 2), (1,)),
            cx,
            ("u3", _H3, (1,)),
            ("u3", (0.0, 0.0, _PI / 4), (1,)),
            cx,
            ("u3", (0.0, 0.0, _PI / 4), (1,)),
            ("u3", _H3, (1,)),
            ("u3", (0.0, 0.0, _PI / 2), (1,)),
            ("u3", (_PI, 0.0, _PI), (1,)),
            ("u3", (0.0, 0.0, _PI / 2), (0,)),
        ]
        return seq
    if opcode == "crx":
        lam = p[0]
        return [
            ("u3", (0.0, 0.0, _PI / 2), (1,)),
            cx,
            ("u3", (-lam / 2, 0.0, 0.0), (1,)),
            cx,
            ("u3", (lam / 2, -_PI / 2, 0.0), (1,)),
        ]
    if opcode == "cry":
        lam = p[0]
        return [("u3", (lam / 2, 0.0, 0.0), (1,)), cx, ("u3", (-lam / 2, 0.0, 0.0), (1,)), cx]
    if opcode == "crz":
        lam = p[0]
        return [("u3", (0.0, 0.0, lam / 2), (1,)), cx, ("u3", (0.0, 0.0, -lam / 2), (1,)), cx]
    if opcode in ("cu1", "cp"):
        lam = p[0]
        return [
            ("u3", (0.0, 0.0, lam / 2), (0,)),
            cx,
            ("u3", (0.0, 0.0, -lam / 2), (1,)),
            cx,
            ("u3", (0.0, 0.0, lam / 2), (1,)),
        ]
    if opcode == "cu3":
        theta, phi, lam = p[0], reduce_angle(p[1]), reduce_angle(p[2])
        return [
            ("u3", (0.0, 0.0, (lam + phi) / 2), (0,)),
            ("u3", (0.0, 0.0, (lam - phi) / 2), (1,)),
            cx,
            ("u3", (-theta / 2, 0.0, -(phi + lam) / 2), (1,)),
            cx,
            ("u3", (theta / 2, phi, 0.0), (1,)),
        ]
    if opcode == "rzz":
        return [cx, ("u3", (0.0, 0.0, p[0]), (1,)), cx]
    if opcode == "rxx":
        theta = reduce_angle(p[0])
        return [
            ("u3", (_PI / 2, theta, 0.0), (0,)),
            ("u3", _H3, (1,)),
            cx,
            ("u3", (0.0, 0.0, -theta), (1,)),
            cx,
            ("u3", _H3, (1,)),
            ("u3", (_PI / 2, -_PI, _PI - theta), (0,)),
        ]
    raise QFlowError(f"no u3/cx template for gate '{opcode}'")


def decompose_to_u_cx(instr: Instruction) -> list[Instruction]:
    """Rewrite one builtin gate instruction as a u3/cx sequence equal to it up
    to global phase. Conditions are carried onto every emitted instruction."""
    spec = LIBRARY.get(instr.opcode)
    if spec is None:
        raise QFlowError(f"'{instr.opcode}' is not a builtin gate")
    if spec.arity == 1:
        params = _one_q_u3_params(instr.opcode, instr.params)
        return [Instruction("u3", params, instr.qubits, (), instr.condition)]
    out = []
    for opcode, params, slots in _two_q_template(instr.opcode, instr.params):
        qubits = tuple(instr.qubits[s] for s in slots)
        out.append(Instruction(opcode, params, qubits, (), instr.condition))
    return out


# -- one-qubit retarget -------------------------------------------------------

_FAMILIES = ("u3", "u", "zsx", "zxz", "zyz")


def resolve_1q_family(basis: BasisSet) -> str:
    one = basis.one_qubit
    if "u3" in one:
        return "u3"
    if "u" in one:
        return "u"
    if {"rz", "sx", "x"} <= one:
        return "zsx"
    if {"rz", "rx"} <= one:
        return "zxz"
    if {"rz", "ry"} <= one:
        return "zyz"
    raise UnsupportedBasisError(
        f"one-qubit basis {sorted(one)} is not a supported retarget family "
        "(need u3/u, {rz,sx,x}, {rz,rx}, or {rz,ry})"
    )


def retarget_1q(u3_params: tuple, family: str) -> list[tuple]:
    """Minimal-length realization of U3(u3_params) in a one-qubit basis
    family (a name that :func:`resolve_1q_family` gives), as (opcode, params)
    pairs in circuit order, equal up to global phase."""
    if family not in _FAMILIES:
        raise UnsupportedBasisError(f"unknown retarget family '{family}'")

    theta = snap_angle(u3_params[0])
    phi, lam = reduce_angle(u3_params[1]), reduce_angle(u3_params[2])
    if theta < 0:  # U3(-t,p,l) = U3(t, p+pi, l+pi) exactly
        theta = -theta
        phi += _PI
        lam += _PI

    seq: list[tuple] = []

    def rz(a: float):
        a = snap_angle(a)
        if a != 0.0:
            seq.append(("rz", (a,)))

    if family in ("u3", "u"):
        if theta == 0.0 and snap_angle(phi + lam) == 0.0:
            return []
        return [(family, (theta, snap_angle(phi), snap_angle(lam)))]

    if theta == 0.0:
        rz(phi + lam)
        return seq

    if family == "zsx":
        if theta == _PI / 2:
            rz(lam - _PI / 2)
            seq.append(("sx", ()))
            rz(phi + _PI / 2)
        elif theta == _PI:
            seq.append(("x", ()))
            rz(phi - lam + _PI)
        else:
            rz(lam)
            seq.append(("sx", ()))
            rz(theta + _PI)
            seq.append(("sx", ()))
            rz(phi + _PI)
        return seq

    if family == "zxz":
        rz(lam - _PI / 2)
        seq.append(("rx", (theta,)))
        rz(phi + _PI / 2)
        return seq

    # zyz
    rz(lam)
    seq.append(("ry", (theta,)))
    rz(phi)
    return seq


# -- two-qubit retarget -------------------------------------------------------

def retarget_2q(basis: BasisSet) -> str:
    """The native two-qubit gate that realizes cx on the device: "cx", or
    "cz" (cx = H(target) cz H(target), as the transpiler emits it)."""
    for native in ("cx", "cz"):
        if native in basis.two_qubit:
            return native
    raise UnsupportedBasisError(f"two-qubit basis {sorted(basis.two_qubit)} must contain cx or cz")
