"""Gate decomposition into the {u3, cx} intermediate form and retargeting to
device basis families.

The intermediate form is read from the standard qelib1 definitions: a
builtin becomes the u3/cx gates of its qelib1 line, as
``qflow.parser.gate_template`` flattens it. Every one-qubit builtin is a
single u3: the line of each is one gate, but for ``sx`` and ``sxdg``,
whose lines are three gates and which keep a stated one-u3 form here.
Retargeting realizes u3 in one of three supported one-qubit families and
cx natively or via cz:

    {u3} or {u}    identity retarget
    {rz, sx, x}    U3(t,p,l) = RZ(p+pi) SX RZ(t+pi) SX RZ(l)   (up to phase)
    {rz, rx}       U3(t,p,l) = RZ(p+pi/2) RX(t) RZ(l-pi/2)
    {rz, ry}       U3(t,p,l) = RZ(p) RY(t) RZ(l)

with rz(0) removed and the sx form collapsed at theta in {0, +-pi/2, pi}.
Native sets needing two-qubit resynthesis (iswap, Molmer-Sorensen) are out
of scope. Phi and lam meet a sum only after ``euler.reduce_angle``, as
the cu3 and rxx angles do in their templates, so a huge angle rounds no
smaller one away, and an angle of at most 2*pi keeps its bits.

The public functions check what they are given and raise
:class:`QasmError`; the transpiler calls their unchecked forms on a
circuit that ``Circuit.resolve`` has accepted.
"""

from __future__ import annotations

import math

from .circuit import Instruction, instruction_error
from .errors import QasmError, UnsupportedBasisError
from .euler import reduce_angle, snap_angle
from .gates import BasisSet, LIBRARY
from .parser import gate_template

__all__ = [
    "decompose_to_u_cx",
    "retarget_1q",
    "retarget_2q",
    "resolve_1q_family",
]

_PI = math.pi

# sx and sxdg as one u3 each; their qelib1 lines are three gates
_ONE_U3 = {"sx": (_PI / 2, -_PI / 2, _PI / 2), "sxdg": (_PI / 2, _PI / 2, -_PI / 2)}


def decompose_to_u_cx(instr: Instruction) -> list[Instruction]:
    """Rewrite one builtin gate instruction as a u3/cx sequence equal to it up
    to global phase. Conditions are carried onto every emitted instruction.
    An instruction that ``Circuit.resolve`` would refuse for its own shape,
    parameters or condition raises :class:`QasmError`."""
    why = instruction_error(instr)
    if why is None and instr.opcode not in LIBRARY:
        why = f"'{instr.opcode}' is not a builtin gate"
    if why is not None:
        raise QasmError(why)
    return _decompose(instr)


def _decompose(instr: Instruction) -> list[Instruction]:
    """decompose_to_u_cx of a library gate instruction that is not checked."""
    opcode, qubits, condition = instr.opcode, instr.qubits, instr.condition
    if len(qubits) == 1:  # the one u3 of its template, or a stated form
        u3 = _ONE_U3.get(opcode) or gate_template(opcode, instr.params)[0][1]
        return [Instruction("u3", u3, qubits, (), condition)]
    return [Instruction(op, params, tuple([qubits[s] for s in slots]), (), condition)
            for op, params, slots in gate_template(opcode, instr.params)]


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
    pairs in circuit order, equal up to global phase. ``u3_params`` must be
    a tuple of three finite reals, or :class:`QasmError` is raised."""
    if family not in _FAMILIES:
        raise UnsupportedBasisError(f"unknown retarget family '{family}'")
    why = instruction_error(Instruction("u3", u3_params, (("q", 0),)))
    if why is not None:
        raise QasmError(f"u3 parameters {u3_params!r}: {why}")
    return _retarget_1q(u3_params, family)


def _retarget_1q(u3_params: tuple, family: str) -> list[tuple]:
    """retarget_1q on parameters and a family that are not checked."""
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
    if not isinstance(basis, BasisSet):
        raise UnsupportedBasisError(f"basis must be a BasisSet, got {type(basis).__name__}")
    for native in ("cx", "cz"):
        if native in basis.two_qubit:
            return native
    raise UnsupportedBasisError(f"two-qubit basis {sorted(basis.two_qubit)} must contain cx or cz")
