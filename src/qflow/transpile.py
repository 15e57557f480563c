"""Logical-to-physical compilation pipeline.

Stages: check -> decompose to {u3, cx} -> initial mapping -> swap routing
-> swap merge -> retarget to the device basis -> ASAP scheduling. The
output circuit uses only device basis gates plus measure/barrier/reset/
delay, every two-qubit gate acts on a coupled pair, and the whole pipeline
is deterministic for a fixed (circuit, device).

The input is checked once, by ``Circuit.resolve``. The
stages then build three circuits from it, each instruction once: the
decomposed circuit, whose wires are its gate's wires in template order;
the routed circuit, on one physical register; and the output, whose wires
the retarget pass records as it emits. The decomposed circuit and the
output get those wires through ``circuit.derived``, which checks only
their registers and the instructions with clbits or an ``if``. Layout,
routing, scheduling, ``print_qasm`` and ``encode_binary`` read that
resolution; ``decode_binary`` checks what it reads in full.

At opt level 1 the one-qubit peephole is folded into the retarget pass:
each wire keeps one pending 2x2 product, fed by the routed u3s and by the
Hadamards of the cx templates, and a two-qubit gate, measure, reset,
barrier, delay or conditioned op on the wire flushes it as one retargeted
run. The result has the gate counts and depth of the opt-level-0 output
(which is left as it was) with each such run of unconditioned one-qubit
gates merged into one product and retargeted; angles may differ in their
last bits. The schedule walk also gives the output depth.

A swap costs three cx, except where it merges into the cx before it: an
unconditioned swap(a, b) whose wires last met in an unconditioned cx on
{a, b}, with only unconditioned u3s on a or b since, turns
``cx(c,t); u3s; swap(c,t)`` into ``cx(t,c); cx(c,t)`` followed by the u3s
on the other wire, the same unitary and final layout for 2 cx instead of 4.
This pass runs at both opt levels; there is no other two-qubit
resynthesis. A cx whose operands are coupled only in the opposite
direction is reversed with the standard four-Hadamard template; on
cz-native devices cx becomes H(target) cz H(target), with the Hadamards
realized in the device's one-qubit family.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .circuit import Circuit, Instruction, derived
from .decompose import _decompose, _retarget_1q, resolve_1q_family, retarget_2q
from .device import DeviceConfig
from .errors import DeviceConfigError, TranspileError
from .euler import IDENTITY_CELLS, mul2, u3_cells, zyz_from_cells
from .gates import BasisSet, LIBRARY
from .layout import initial_mapping
from .metrics import circuit_depth, gate_counts
from .parser import gate_template
from .routing import route
from .schedule import schedule_asap

__all__ = ["transpile", "TranspileReport"]

_H3 = gate_template("h", ())[0][1]  # u3 parameters of the Hadamard
_H_CELLS = u3_cells(*_H3)


@dataclass(frozen=True)
class TranspileReport:
    """What a transpile produced. ``n_1q`` and ``n_2q`` count the output's
    one- and two-qubit gates. ``n_swap`` counts the swaps the router
    inserted, merged ones included: a merged swap adds one two-qubit gate
    to ``n_2q``, any other swap three."""

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
        return {**asdict(self), "basis_histogram": dict(sorted(self.basis_histogram.items())),
                "layout_initial": list(self.layout_initial),
                "layout_final": list(self.layout_final)}


# -- one-qubit runs ------------------------------------------------------------

class _Runs:
    """Output under construction with one pending one-qubit product per wire.

    ``merge`` multiplies a gate's 2x2 cells into its wire's pending product;
    ``emit`` flushes the wires an instruction touches, then appends it; a
    flush emits the product once, as its ZYZ angles retargeted to the
    family. Identity products vanish. ``operand_of`` maps a global wire to
    its ``(register, index)`` operand; ``wires`` holds each output
    instruction's global wires.
    """

    def __init__(self, family: str, operand_of):
        self.family = family
        self.operand_of = operand_of
        self.pending: dict[int, tuple] = {}
        self.out: list[Instruction] = []
        self.wires: list[tuple] = []

    def merge(self, w: int, cells: tuple):
        pending = self.pending
        pending[w] = mul2(cells, pending.get(w, IDENTITY_CELLS))

    def flush(self, w: int):
        cells = self.pending.pop(w, None)
        if cells is not None:
            operand, wires = (self.operand_of[w],), (w,)
            for name, params in _retarget_1q(zyz_from_cells(*cells), self.family):
                self.out.append(Instruction(name, params, operand))
                self.wires.append(wires)

    def emit(self, instr: Instruction, wires: tuple):
        if self.pending:
            for w in wires:
                self.flush(w)
        self.out.append(instr)
        self.wires.append(wires)

    def finish(self) -> list[Instruction]:
        for w in sorted(self.pending):
            self.flush(w)
        return self.out


# -- pipeline ------------------------------------------------------------------

def _merge_swaps(routed: Circuit) -> Circuit:
    """Merge each unconditioned swap into the cx before it: when wires a
    and b last met in an unconditioned cx on {a, b}, with only unconditioned
    u3s on a or b since, ``cx(c,t); u3s; swap(c,t)`` becomes ``cx(t,c);
    cx(c,t)`` followed by the u3s on the other wire. The unitary and the
    final layout are unchanged, and the pair costs 2 cx instead of 4."""
    out: list = []
    since: dict[int, tuple] = {}  # wire -> (index in out of its last cx, its u3s since)
    for instr in routed.instructions:
        op = instr.opcode
        if instr.condition is not None or op not in ("u3", "cx", "swap"):
            for _, w in instr.qubits:
                since.pop(w, None)
            out.append(instr)
            continue
        if op == "u3":
            mark = since.get(instr.qubits[0][1])
            if mark is not None:
                mark[1].append(len(out))
            out.append(instr)
            continue
        (_, a), (_, b) = instr.qubits
        moved = []
        if op == "swap":
            mark, mark_b = since.pop(a, None), since.pop(b, None)
            if mark is None or mark is not mark_b:
                out.append(instr)
                continue
            instr = out[mark[0]]  # the cx(c,t) the swap merges into
            out[mark[0]] = Instruction("cx", (), instr.qubits[::-1])
            other = {instr.qubits[0]: instr.qubits[1], instr.qubits[1]: instr.qubits[0]}
            for k in mark[1]:
                moved.append(Instruction("u3", out[k].params, (other[out[k].qubits[0]],)))
                out[k] = None
        mark = (len(out), [])
        since[a] = since[b] = mark
        out.append(instr)
        for u3 in moved:
            mark[1].append(len(out))
            out.append(u3)
    return routed.with_instructions([i for i in out if i is not None])


def _retarget(
    routed: Circuit, device: DeviceConfig, basis: BasisSet, family: str, fold: bool
) -> Circuit:
    """Realize the routed u3/cx/swap circuit in the device basis. With
    ``fold`` the one-qubit peephole runs in the same pass: unconditioned u3s
    and the Hadamards of the cx templates go into per-wire pending products
    as 2x2 cells, never as instructions, and each run is emitted once."""
    directed = device.directed_edges()
    native_cx = retarget_2q(basis) == "cx"
    h_seq = _retarget_1q(_H3, family)
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
                emit_1q(_retarget_1q(instr.params, family), w, instr.condition)
        elif op == "cx":
            emit_cx(instr.qubits[0][1], instr.qubits[1][1], instr.condition)
        elif op == "swap":
            a, b = instr.qubits[0][1], instr.qubits[1][1]
            emit_cx(a, b, instr.condition)
            emit_cx(b, a, instr.condition)
            emit_cx(a, b, instr.condition)
        else:  # measure, barrier, reset or delay
            emit(instr, tuple([w for _, w in instr.qubits]))
    # the routed circuit's one quantum register numbers the wires from 0
    return derived(routed.with_instructions(runs.finish()), runs.wires)


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
    it, or the basis is unsupported, and :class:`DeviceConfigError` for a
    ``device`` that is not a :class:`DeviceConfig`. The output does not
    depend on ``seed``, which is kept so that callers can pass one seed to
    every stage.
    """
    if not isinstance(device, DeviceConfig):
        raise DeviceConfigError(f"device must be a DeviceConfig, got {type(device).__name__}")
    if opt_level not in (0, 1):
        raise TranspileError(f"unsupported opt_level {opt_level}")
    resolution = circuit.resolve()
    if circuit.n_qubits > device.num_qubits:
        raise TranspileError(
            f"too many qubits: circuit has {circuit.n_qubits}, "
            f"device '{device.name}' has {device.num_qubits}"
        )
    basis = BasisSet.from_names(device.basis_gates)
    family = resolve_1q_family(basis)
    depth_in = circuit_depth(circuit)

    # each template gate acts on operands of its gate, so on their wires
    decomposed_instrs: list[Instruction] = []
    wires: list[tuple] = []
    for instr, ws in zip(circuit.instructions, resolution.wires):
        if instr.opcode not in LIBRARY:
            decomposed_instrs.append(instr)
            wires.append(ws)
            continue
        parts = _decompose(instr)
        decomposed_instrs += parts
        if len(ws) == 1:
            wires += [ws] * len(parts)
            continue
        first, (a, b) = instr.qubits[0], ws
        for part in parts:
            qubits = part.qubits
            if len(qubits) == 2:
                wires.append(ws if qubits[0] == first else (b, a))
            else:
                wires.append((a,) if qubits[0] == first else (b,))
    decomposed = derived(circuit.with_instructions(decomposed_instrs), wires)

    topology = device.topology()
    layout0 = initial_mapping(decomposed, topology)
    routed, layout_final = route(decomposed, layout0, topology)
    n_swap = sum(1 for i in routed.instructions if i.opcode == "swap")

    physical = _retarget(_merge_swaps(routed), device, basis, family, fold=opt_level >= 1)
    sched = schedule_asap(physical, device)

    histogram, n_1q, n_2q = gate_counts(physical)

    report = TranspileReport(
        basis_histogram=histogram,
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
