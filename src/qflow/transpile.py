"""Logical-to-physical compilation pipeline.

Stages: flatten -> decompose to {u3, cx} -> initial mapping -> swap routing
-> retarget to the device basis -> ASAP scheduling. The output circuit uses
only device basis gates plus measure/barrier/reset/delay, every two-qubit
gate acts on a coupled pair, and the whole pipeline is deterministic for a
fixed (circuit, device).

At opt level 1 the one-qubit peephole is folded into the retarget pass:
each wire keeps one pending 2x2 product, fed by the routed u3s and by the
Hadamards of the cx templates, and a two-qubit gate, measure, reset,
barrier, delay or conditioned op on the wire flushes it as one retargeted
run. The result has the gate counts and depth of ``peephole_1q`` applied to
the opt-level-0 output (which is left as it was); angles may differ in
their last bits. The schedule walk also gives the output depth.

Swaps cost exactly three cx (no two-qubit resynthesis). A cx whose operands
are coupled only in the opposite direction is reversed with the standard
four-Hadamard template; on cz-native devices cx becomes H(target) cz
H(target), with the Hadamards realized in the device's one-qubit family.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .circuit import Circuit, Instruction
from .decompose import (
    _H3,
    _one_q_u3_params,
    decompose_to_u_cx,
    resolve_1q_family,
    retarget_1q,
    retarget_2q,
)
from .device import DeviceConfig
from .errors import TranspileError
from .euler import IDENTITY_CELLS, mul2, u3_cells, zyz_from_cells
from .flatten import flatten
from .gates import BasisSet, LIBRARY
from .layout import initial_mapping
from .metrics import circuit_depth
from .routing import route
from .schedule import schedule_asap

__all__ = ["transpile", "peephole_1q", "TranspileReport"]

_H_CELLS = u3_cells(*_H3)


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


# -- one-qubit runs ------------------------------------------------------------

class _Runs:
    """Output under construction with one pending one-qubit product per wire.

    ``merge`` multiplies a gate's 2x2 cells into its wire's pending product;
    ``emit`` flushes the wires an instruction touches, then appends it; a
    flush emits the product once, as its ZYZ angles retargeted to the
    family. Identity products vanish. ``operand_of`` maps a global wire to
    its ``(register, index)`` operand.
    """

    def __init__(self, family: str, operand_of):
        self.family = family
        self.operand_of = operand_of
        self.pending: dict[int, tuple] = {}
        self.out: list[Instruction] = []

    def merge(self, w: int, cells: tuple):
        pending = self.pending
        pending[w] = mul2(cells, pending.get(w, IDENTITY_CELLS))

    def flush(self, w: int):
        cells = self.pending.pop(w, None)
        if cells is not None:
            operand = (self.operand_of[w],)
            for name, params in retarget_1q(zyz_from_cells(*cells), self.family):
                self.out.append(Instruction(name, params, operand))

    def emit(self, instr: Instruction, wires):
        if self.pending:
            for w in wires:
                self.flush(w)
        self.out.append(instr)

    def finish(self) -> list[Instruction]:
        for w in sorted(self.pending):
            self.flush(w)
        return self.out


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

    operand_of: dict[int, tuple] = {}
    runs = _Runs(family, operand_of)
    for instr, wires in zip(circuit.instructions, circuit.resolve().wires):
        spec = LIBRARY.get(instr.opcode)
        if spec is not None and spec.arity == 1 and instr.condition is None:
            operand_of[wires[0]] = instr.qubits[0]
            runs.merge(wires[0], u3_cells(*_one_q_u3_params(instr.opcode, instr.params)))
        else:
            runs.emit(instr, wires)
    return circuit.with_instructions(runs.finish())


# -- pipeline ------------------------------------------------------------------

def _retarget(
    routed: Circuit, device: DeviceConfig, basis: BasisSet, family: str, fold: bool
) -> Circuit:
    """Realize the routed u3/cx/swap circuit in the device basis. With
    ``fold`` the one-qubit peephole runs in the same pass: unconditioned u3s
    and the Hadamards of the cx templates go into per-wire pending products
    as 2x2 cells, never as instructions, and each run is emitted once."""
    directed = device.directed_edges()
    native_cx = retarget_2q(basis)["target"] == "cx"
    h_seq = retarget_1q(_H3, family)
    qreg = next(r.name for r in routed.registers if r.kind == "q")
    operands = [(qreg, w) for w in range(routed.n_qubits)]
    runs = _Runs(family, operands)
    emit = runs.emit

    def emit_1q(seq, w: int, condition):
        operand = (operands[w],)
        wires = (w,)
        for name, params in seq:
            emit(Instruction(name, params, operand, (), condition), wires)

    def emit_h(w: int, condition):
        if fold and condition is None:
            runs.merge(w, _H_CELLS)
        else:
            emit_1q(h_seq, w, condition)

    def emit_2q(name: str, a: int, b: int, condition):
        emit(Instruction(name, (), (operands[a], operands[b]), (), condition), (a, b))

    def emit_cx(a: int, b: int, condition):
        if native_cx:
            if (a, b) in directed:
                emit_2q("cx", a, b, condition)
            elif (b, a) in directed:
                emit_h(a, condition)
                emit_h(b, condition)
                emit_2q("cx", b, a, condition)
                emit_h(a, condition)
                emit_h(b, condition)
            else:
                raise TranspileError(f"cx on uncoupled physical pair ({a}, {b})")
        else:  # cz native: cx = H(target) cz H(target)
            pair = (a, b) if (a, b) in directed else (b, a)
            if pair not in directed:
                raise TranspileError(f"cz on uncoupled physical pair ({a}, {b})")
            emit_h(b, condition)
            emit_2q("cz", pair[0], pair[1], condition)
            emit_h(b, condition)

    for instr in routed.instructions:
        op = instr.opcode
        if op == "u3":
            w = instr.qubits[0][1]
            if fold and instr.condition is None:
                runs.merge(w, u3_cells(*instr.params))
            else:
                emit_1q(retarget_1q(instr.params, family), w, instr.condition)
        elif op == "cx":
            emit_cx(instr.qubits[0][1], instr.qubits[1][1], instr.condition)
        elif op == "swap":
            a, b = instr.qubits[0][1], instr.qubits[1][1]
            emit_cx(a, b, instr.condition)
            emit_cx(b, a, instr.condition)
            emit_cx(a, b, instr.condition)
        else:  # measure, barrier, reset or delay
            emit(instr, [w for _, w in instr.qubits])
    return routed.with_instructions(runs.finish())


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

    physical = _retarget(routed, device, basis, family, fold=opt_level >= 1)
    sched = schedule_asap(physical, device)

    histogram = Counter(instr.opcode for instr in physical.instructions)
    histogram.pop("barrier", None)
    n_1q = n_2q = 0
    for opcode, count in histogram.items():
        spec = LIBRARY.get(opcode)
        if spec is not None:
            if spec.arity == 1:
                n_1q += count
            else:
                n_2q += count

    report = TranspileReport(
        basis_histogram=dict(histogram),
        n_1q=n_1q,
        n_2q=n_2q,
        n_swap=n_swap,
        depth_in=depth_in,
        depth_out=sched.depth,
        layout_initial=layout0.logical_to_physical,
        layout_final=layout_final.logical_to_physical,
        makespan_ns=sched.makespan_ns,
    )
    return physical, report
