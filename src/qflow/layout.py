"""Initial qubit placement.

Greedy interaction-graph mapping: logical qubits are sorted by two-qubit
interaction degree (descending, ties by index), the busiest qubit lands on
the physical qubit of highest topology degree, and each following qubit
takes the free physical qubit minimizing the summed distance to its already
placed interaction partners. All ties break toward the lowest physical
index, so the result is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .circuit import Circuit
from .device import Topology
from .errors import TranspileError
from .gates import LIBRARY

__all__ = ["Layout", "initial_mapping"]


@dataclass(frozen=True)
class Layout:
    """Logical-to-physical assignment, padded with -1 up to the physical
    qubit count (entries past n_logical are unused physical capacity)."""

    logical_to_physical: tuple
    n_logical: int

    def __post_init__(self):
        used = [p for p in self.logical_to_physical[: self.n_logical]]
        if len(set(used)) != len(used) or any(p < 0 for p in used):
            raise TranspileError("layout is not injective over logical qubits")


def initial_mapping(circuit: Circuit, topology: Topology) -> Layout:
    """Choose an initial layout for a flattened, decomposed circuit.

    Falls back to the identity layout when the circuit has no two-qubit
    gates. The placement is deterministic.
    """
    n_logical = circuit.n_qubits
    n_physical = topology.n
    if n_logical > n_physical:
        raise TranspileError(
            f"circuit needs {n_logical} qubits but device has {n_physical}"
        )

    partners: list[set] = [set() for _ in range(n_logical)]  # the interaction graph
    for instr, wires in zip(circuit.instructions, circuit.resolve().wires):
        if len(wires) == 2 and instr.opcode in LIBRARY:
            a, b = wires
            partners[a].add(b)
            partners[b].add(a)
    assignment = [-1] * n_logical
    if any(partners[q] for q in range(n_logical)):
        order = sorted(range(n_logical), key=lambda q: (-len(partners[q]), q))
        free = set(range(n_physical))

        hub = max(range(n_physical), key=lambda p: (len(topology.adjacency[p]), -p))
        assignment[order[0]] = hub
        free.discard(hub)

        for logical in order[1:]:
            placed = [assignment[j] for j in partners[logical] if assignment[j] >= 0]
            if placed:
                def cost(p: int) -> tuple:
                    total = 0.0
                    for pj in placed:
                        d = topology.dist[p][pj]
                        total += d if d >= 0 else float(n_physical * n_physical)
                    return (total, p)

                best = min(free, key=cost)
            else:
                best = min(free)
            assignment[logical] = best
            free.discard(best)
    else:
        assignment = list(range(n_logical))

    padded = tuple(assignment) + (-1,) * (n_physical - n_logical)
    return Layout(padded, n_logical)
