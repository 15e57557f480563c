"""Logical-to-physical compilation pipeline.

Stages: flatten -> decompose to {u3, cx} -> initial mapping -> swap routing
-> retarget to the device basis -> one-qubit peephole (opt level 1) ->
ASAP scheduling. The output circuit uses only device basis gates plus
measure/barrier/reset/delay, every two-qubit gate acts on a coupled pair,
and the whole pipeline is deterministic for a fixed (circuit, device).

Swaps cost exactly three cx (no two-qubit resynthesis). A cx whose operands
are coupled only in the opposite direction is reversed with the standard
four-Hadamard template; on cz-native devices cx becomes H(target) cz
H(target), with the Hadamards realized in the device's one-qubit family.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .circuit import Circuit, Instruction
from .decompose import (
    decompose_to_u_cx,
    resolve_1q_family,
    retarget_1q,
    retarget_2q,
)
from .device import DeviceConfig
from .errors import TranspileError
from .euler import zyz_from_cells
from .flatten import flatten
from .gates import BasisSet, LIBRARY
from .layout import initial_mapping
from .metrics import circuit_depth
from .routing import route
from .schedule import schedule_asap

__all__ = ["transpile", "peephole_1q", "TranspileReport"]

_H3 = (math.pi / 2, 0.0, math.pi)


@dataclass(frozen=True)
class TranspileReport:
    basis_histogram: dict
    n_1q: int
    n_2q: int
    n_swap: int
    depth_in: int
    depth_out: int
    layout_initial: tuple
    layout_final: tuple
    makespan_ns: float

    def to_dict(self) -> dict:
        return {
            "basis_histogram": dict(sorted(self.basis_histogram.items())),
            "n_1q": self.n_1q,
            "n_2q": self.n_2q,
            "n_swap": self.n_swap,
            "depth_in": self.depth_in,
            "depth_out": self.depth_out,
            "layout_initial": list(self.layout_initial),
            "layout_final": list(self.layout_final),
            "makespan_ns": self.makespan_ns,
        }


# -- one-qubit peephole --------------------------------------------------------

def _u3_cells(t: float, p: float, l: float) -> tuple:
    c = math.cos(t / 2.0)
    s = math.sin(t / 2.0)
    return (c, -cmath.exp(1j * l) * s, cmath.exp(1j * p) * s, cmath.exp(1j * (p + l)) * c)


def _mul2(m2: tuple, m1: tuple) -> tuple:
    """Row-major 2x2 product m2 @ m1."""
    a2, b2, c2, d2 = m2
    a1, b1, c1, d1 = m1
    return (
        a2 * a1 + b2 * c1,
        a2 * b1 + b2 * d1,
        c2 * a1 + d2 * c1,
        c2 * b1 + d2 * d1,
    )


def peephole_1q(circuit: Circuit, basis: BasisSet | str | None = None) -> Circuit:
    """Merge adjacent unconditioned one-qubit gates per wire via their matrix
    product and re-emit the merged unitary in the target family (single u3
    when no basis is given). Identity products vanish; the result equals the
    input up to global phase."""
    family = "u3"
    if isinstance(basis, str):
        family = basis
    elif basis is not None:
        family = resolve_1q_family(basis)

    from .decompose import _one_q_u3_params  # same-module-family helper

    offsets = circuit.qubit_offsets()
    wire_operand: dict[int, tuple] = {}
    for reg in circuit.registers:
        if reg.kind == "q":
            for k in range(reg.size):
                wire_operand[offsets[reg.name] + k] = (reg.name, k)

    pending: dict[int, tuple] = {}
    out: list[Instruction] = []

    def flush(w: int):
        cells = pending.pop(w, None)
        if cells is None:
            return
        t, p, l = zyz_from_cells(*cells)
        for name, params in retarget_1q((t, p, l), family):
            out.append(Instruction(name, params, (wire_operand[w],)))

    for instr in circuit.instructions:
        spec = LIBRARY.get(instr.opcode)
        wires = [offsets[r] + i for r, i in instr.qubits]
        if spec is not None and spec.arity == 1 and instr.condition is None:
            w = wires[0]
            cells = _u3_cells(*_one_q_u3_params(instr.opcode, instr.params))
            pending[w] = _mul2(cells, pending.get(w, (1.0, 0.0, 0.0, 1.0)))
            continue
        for w in wires:
            flush(w)
        out.append(instr)
    for w in sorted(pending):
        flush(w)

    return circuit.with_instructions(out)


# -- pipeline ------------------------------------------------------------------

def _retarget(routed: Circuit, device: DeviceConfig, basis: BasisSet, family: str) -> Circuit:
    directed = device.directed_edges()
    two_q = retarget_2q(basis)
    h_seq = retarget_1q(_H3, family)
    qreg = next(r.name for r in routed.registers if r.kind == "q")

    out: list[Instruction] = []

    def emit_1q(seq, wire: int, condition):
        for name, params in seq:
            out.append(Instruction(name, params, ((qreg, wire),), (), condition))

    def emit_cx(a: int, b: int, condition):
        if two_q["target"] == "cx":
            if (a, b) in directed:
                out.append(Instruction("cx", (), ((qreg, a), (qreg, b)), (), condition))
            elif (b, a) in directed:
                emit_1q(h_seq, a, condition)
                emit_1q(h_seq, b, condition)
                out.append(Instruction("cx", (), ((qreg, b), (qreg, a)), (), condition))
                emit_1q(h_seq, a, condition)
                emit_1q(h_seq, b, condition)
            else:
                raise TranspileError(f"cx on uncoupled physical pair ({a}, {b})")
        else:  # cz native
            pair = (a, b) if (a, b) in directed else (b, a)
            if pair not in directed:
                raise TranspileError(f"cz on uncoupled physical pair ({a}, {b})")
            emit_1q(two_q["pre"], b, condition)
            out.append(
                Instruction("cz", (), ((qreg, pair[0]), (qreg, pair[1])), (), condition)
            )
            emit_1q(two_q["post"], b, condition)

    for instr in routed.instructions:
        op = instr.opcode
        if op == "u3":
            emit_1q(retarget_1q(instr.params, family), instr.qubits[0][1], instr.condition)
        elif op == "cx":
            emit_cx(instr.qubits[0][1], instr.qubits[1][1], instr.condition)
        elif op == "swap":
            a, b = instr.qubits[0][1], instr.qubits[1][1]
            emit_cx(a, b, instr.condition)
            emit_cx(b, a, instr.condition)
            emit_cx(a, b, instr.condition)
        elif op in ("measure", "barrier", "reset", "delay"):
            out.append(instr)
        else:
            raise TranspileError(f"unexpected opcode '{op}' after routing")
    return routed.with_instructions(out)


def transpile(
    circuit: Circuit,
    device: DeviceConfig,
    seed: int = 42,
    opt_level: int = 1,
) -> tuple[Circuit, TranspileReport]:
    """Compile a logical circuit into a device-compliant physical circuit.

    Returns the physical circuit and a report (gate histogram, counts,
    depths, layouts, makespan). Raises :class:`TranspileError` when the
    circuit needs more qubits than the device has, the topology cannot host
    it, or the basis is unsupported. The output does not depend on ``seed``,
    which is kept so that callers can pass one seed to every stage.
    """
    if opt_level not in (0, 1):
        raise TranspileError(f"unsupported opt_level {opt_level}")
    flat = flatten(circuit)
    if flat.n_qubits > device.num_qubits:
        raise TranspileError(
            f"too many qubits: circuit has {flat.n_qubits}, "
            f"device '{device.name}' has {device.num_qubits}"
        )
    basis = BasisSet.from_names(device.basis_gates)
    family = resolve_1q_family(basis)
    depth_in = circuit_depth(flat)

    decomposed_instrs: list[Instruction] = []
    for instr in flat.instructions:
        if instr.opcode in LIBRARY:
            decomposed_instrs.extend(decompose_to_u_cx(instr))
        else:
            decomposed_instrs.append(instr)
    decomposed = flat.with_instructions(decomposed_instrs)

    topology = device.topology()
    layout0 = initial_mapping(decomposed, topology)
    routed, layout_final = route(decomposed, layout0, topology)
    n_swap = sum(1 for i in routed.instructions if i.opcode == "swap")

    physical = _retarget(routed, device, basis, family)
    if opt_level >= 1:
        physical = peephole_1q(physical, family)

    sched = schedule_asap(physical, device)

    histogram: dict[str, int] = {}
    n_1q = n_2q = 0
    for instr in physical.instructions:
        if instr.opcode == "barrier":
            continue
        histogram[instr.opcode] = histogram.get(instr.opcode, 0) + 1
        spec = LIBRARY.get(instr.opcode)
        if spec is not None:
            if spec.arity == 1:
                n_1q += 1
            else:
                n_2q += 1

    report = TranspileReport(
        basis_histogram=histogram,
        n_1q=n_1q,
        n_2q=n_2q,
        n_swap=n_swap,
        depth_in=depth_in,
        depth_out=circuit_depth(physical),
        layout_initial=layout0.logical_to_physical,
        layout_final=layout_final.logical_to_physical,
        makespan_ns=sched.makespan_ns,
    )
    return physical, report
