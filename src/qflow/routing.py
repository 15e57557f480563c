"""Swap routing with a front-layer + lookahead heuristic.

Instructions execute as soon as their per-qubit (and per-classical-register)
dependencies are met: one-qubit gates, measure, reset, delay, and barrier
immediately, two-qubit gates once their operands sit on coupled physical
qubits. When every ready two-qubit gate is blocked, the router inserts the
swap minimizing

    H = sum over blocked front gates of dist(operands after swap)
      + 0.5 * sum over the next 20 two-qubit gates (program order)
      + 0.001 * (recent swap count on each swapped qubit)

with candidate swaps drawn from coupling edges incident to blocked-gate
qubits and ties broken by lexicographic edge order. The decay counters reset
whenever a gate executes.

A release valve (SABRE, arXiv:1809.02573; LightSABRE, arXiv:2409.08368)
guarantees progress: once as many swaps as the device has qubits pass with
no gate executing, the router takes those swaps back and walks the first
operand of the oldest blocked gate along a shortest path until the gate's
operands are coupled. Every firing executes a gate, so routing ends on any
connected device.

Swaps appear in the routed circuit as literal ``swap`` gates; the transpile
pipeline expands each into three cx, or merges it into the cx before it on
the same pair (see ``qflow.transpile``).
"""

from __future__ import annotations

import heapq

from .circuit import Circuit, Instruction, Register
from .device import Topology
from .errors import TranspileError
from .gates import LIBRARY
from .layout import Layout

__all__ = ["route"]

LOOKAHEAD_GATES = 20
LOOKAHEAD_WEIGHT = 0.5
DECAY_STEP = 0.001


def _physical_register_name(circuit: Circuit) -> str:
    """Name for the output physical register, avoiding classical collisions."""
    taken = {r.name for r in circuit.registers if r.kind == "c"}
    name = "q"
    while name in taken:
        name = "_" + name
    return name


def _dependencies(instrs: tuple, wires_of: tuple) -> tuple[list, list]:
    """Each instruction's successors and in-degree in the dependency graph."""
    n = len(instrs)
    succs: list[list[int]] = [[] for _ in range(n)]
    in_deg = [0] * n
    last_on_wire: dict[int, int] = {}
    last_creg_event: dict[str, int] = {}

    def add_edge(src: int, dst: int):
        succs[src].append(dst)
        in_deg[dst] += 1

    for i, instr in enumerate(instrs):
        for w in wires_of[i]:
            prev = last_on_wire.get(w)
            if prev is not None:
                add_edge(prev, i)
            last_on_wire[w] = i
        # serialize everything touching a classical register: measures that
        # write it and conditionals that read it must keep program order
        touched = set()
        if instr.opcode == "measure":
            touched.add(instr.clbits[0][0])
        if instr.condition is not None:
            touched.add(instr.condition[0])
        for creg in touched:
            prev = last_creg_event.get(creg)
            if prev is not None and prev != i:
                add_edge(prev, i)
            last_creg_event[creg] = i
    return succs, in_deg


def route(circuit: Circuit, layout: Layout, topology: Topology) -> tuple[Circuit, Layout]:
    """Route a decomposed circuit onto the topology.

    Returns the physical circuit (single quantum register over all physical
    qubits, classical registers preserved) and the final layout. Routing is
    deterministic.
    """
    n_phys = topology.n
    instrs, wires_of = circuit.instructions, circuit.resolve().wires
    succs, in_deg = _dependencies(instrs, wires_of)
    dist = topology.dist

    l2p = list(layout.logical_to_physical[: layout.n_logical])
    p2l = [-1] * n_phys
    for logical, phys in enumerate(l2p):
        p2l[phys] = logical

    qreg_name = _physical_register_name(circuit)
    operand = [(qreg_name, p) for p in range(n_phys)]
    out: list[Instruction] = []

    def emit(instr: Instruction, wires):
        qubits = tuple([operand[l2p[w]] for w in wires])
        out.append(Instruction(instr.opcode, instr.params, qubits, instr.clbits, instr.condition))

    def exchange(a: int, b: int):
        la, lb = p2l[a], p2l[b]
        p2l[a], p2l[b] = lb, la
        if la >= 0:
            l2p[la] = b
        if lb >= 0:
            l2p[lb] = a

    def swap(a: int, b: int):
        out.append(Instruction("swap", (), (operand[a], operand[b])))
        exchange(a, b)

    # two-qubit gates in program order; the lookahead window starts at the
    # cursor, which never passes an unfinished gate
    two_q_indices = [
        i
        for i, ins in enumerate(instrs)
        if len(wires_of[i]) == 2 and ins.opcode in LIBRARY
    ]
    cursor = 0
    done = [False] * len(instrs)

    heap = [i for i in range(len(instrs)) if in_deg[i] == 0]
    heapq.heapify(heap)
    blocked: dict[int, None] = {}
    decay: dict[int, float] = {}
    stalled = 0  # swaps since a gate last executed
    moved = list(range(n_phys))  # where each physical qubit goes under a trial swap

    def mark_done(i: int):
        done[i] = True
        for s in succs[i]:
            in_deg[s] -= 1
            if in_deg[s] == 0:
                heapq.heappush(heap, s)

    def executable(i: int) -> bool:
        ws = wires_of[i]
        if len(ws) != 2 or instrs[i].opcode not in LIBRARY:
            return True
        return dist[l2p[ws[0]]][l2p[ws[1]]] == 1

    def lookahead() -> list[tuple[int, int]]:
        nonlocal cursor
        while cursor < len(two_q_indices) and done[two_q_indices[cursor]]:
            cursor += 1
        pairs = []
        for k in range(cursor, len(two_q_indices)):
            i = two_q_indices[k]
            if done[i] or i in blocked:
                continue
            pairs.append((l2p[wires_of[i][0]], l2p[wires_of[i][1]]))
            if len(pairs) >= LOOKAHEAD_GATES:
                break
        return pairs

    while heap or blocked:
        for i in sorted(blocked):
            if executable(i):
                del blocked[i]
                heapq.heappush(heap, i)
        progressed = False
        while heap:
            i = heapq.heappop(heap)
            if executable(i):
                emit(instrs[i], wires_of[i])
                mark_done(i)
                progressed = True
            else:
                blocked[i] = None
        if progressed:
            stalled = 0
            decay.clear()
        if not blocked:
            continue

        # front layer = blocked two-qubit gates, in program order
        front = [(l2p[wires_of[i][0]], l2p[wires_of[i][1]]) for i in sorted(blocked)]
        for pa, pb in front:
            if dist[pa][pb] < 0:
                raise TranspileError(
                    f"no path between physical qubits {pa} and {pb}: disconnected topology"
                )

        if stalled >= n_phys:
            # release valve: take back the swaps since the last executed
            # gate, then walk the oldest blocked gate's first operand toward
            # its second, one hop closer each step (lowest-index neighbour);
            # the gate then executes, which resets the counter and the decay
            for _ in range(stalled):
                (_, a), (_, b) = out.pop().qubits
                exchange(a, b)
            wa, wb = wires_of[min(blocked)]
            target = l2p[wb]
            while dist[l2p[wa]][target] > 1:
                p = l2p[wa]
                step = dist[p][target] - 1
                swap(p, next(nb for nb in topology.adjacency[p] if dist[nb][target] == step))
            continue

        candidates = set()
        for pa, pb in front:
            for p in (pa, pb):
                for nb in topology.adjacency[p]:
                    candidates.add((p, nb) if p < nb else (nb, p))

        future = lookahead()

        def score(edge: tuple[int, int]) -> float:
            a, b = edge
            moved[a], moved[b] = b, a
            total = 0.0
            for pa, pb in front:
                total += dist[moved[pa]][moved[pb]]
            for pa, pb in future:
                total += LOOKAHEAD_WEIGHT * dist[moved[pa]][moved[pb]]
            moved[a], moved[b] = a, b
            return total + decay.get(a, 0.0) + decay.get(b, 0.0)

        a, b = min(sorted(candidates), key=score)
        swap(a, b)
        decay[a] = decay.get(a, 0.0) + DECAY_STEP
        decay[b] = decay.get(b, 0.0) + DECAY_STEP
        stalled += 1

    registers = [Register(qreg_name, "q", n_phys)]
    registers.extend(r for r in circuit.registers if r.kind == "c")
    routed = Circuit(registers=tuple(registers), instructions=tuple(out))
    final = Layout(tuple(l2p) + (-1,) * (n_phys - len(l2p)), layout.n_logical)
    return routed, final
