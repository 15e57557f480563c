"""Initial qubit placement.

Greedy interaction-graph mapping: logical qubits are sorted by two-qubit
interaction degree (descending, ties by index), the busiest qubit lands on
the physical qubit of highest topology degree, and each following qubit
takes the free physical qubit minimizing the summed distance to its already
placed interaction partners. All ties break toward the lowest physical
index, so the result is deterministic.

When that placement leaves some interacting pair uncoupled, a subgraph
search (the depth-first matching of VF2, Cordella et al., IEEE TPAMI 2004)
looks for a placement that puts every interacting pair on a coupled pair,
so that routing inserts no swap. The next logical qubit is the one with the
most placed partners, then the highest degree, then the lowest index; this
order depends only on the interaction graph, so it is fixed before the
search. Its candidates are the free neighbours of a placed partner that
neighbour every other placed partner, in ascending order (every free
physical qubit for the first qubit of a component). A degree-sequence check
refuses a graph that cannot fit before the search starts, and a candidate
needs at least its logical qubit's degree. The search stops after
``SEARCH_CAP`` placements; if it finds nothing by then, the greedy
placement stands. Qubits with no partner take the lowest free physical
qubits, in index order, either way.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .circuit import Circuit
from .device import Topology
from .errors import TranspileError
from .gates import LIBRARY

__all__ = ["Layout", "initial_mapping"]

# placements one search may try before the greedy placement stands
SEARCH_CAP = 10_000


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


def _greedy(partners: list, topology: Topology) -> list:
    """The greedy placement of the interacting qubits and their partners."""
    n_physical = topology.n
    assignment = [-1] * len(partners)
    order = sorted(range(len(partners)), key=lambda q: (-len(partners[q]), q))
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
    return assignment


def _search_order(partners: list) -> list:
    """The interacting logical qubits in search order, each with its
    partners placed before it."""
    count = [0] * len(partners)  # placed partners
    heap = [(0, -len(s), q) for q, s in enumerate(partners) if s]
    heapq.heapify(heap)
    order, done = [], set()
    while heap:
        _, _, q = heapq.heappop(heap)
        if q in done:
            continue
        done.add(q)
        order.append((q, [j for j in partners[q] if j in done]))
        for j in partners[q]:
            if j not in done:
                count[j] += 1
                heapq.heappush(heap, (-count[j], -len(partners[j]), j))
    return order


def _embedding(partners: list, topology: Topology) -> list | None:
    """A placement that puts every interacting pair on a coupled pair, or
    None when none exists or the search passes ``SEARCH_CAP`` placements."""
    adjacency, dist = topology.adjacency, topology.dist
    degree = [len(s) for s in partners]
    capacity = sorted((len(a) for a in adjacency), reverse=True)
    if any(d > c for d, c in zip(sorted(degree, reverse=True), capacity)):
        return None
    order = _search_order(partners)
    assignment = [-1] * len(partners)
    used = [False] * topology.n

    def candidates(depth: int) -> list:
        q, before = order[depth]
        need = degree[q]
        if not before:
            pool = range(topology.n)
        else:
            anchors = [assignment[j] for j in before]
            pool = [p for p in adjacency[anchors[0]]
                    if all(dist[p][a] == 1 for a in anchors[1:])]
        return [p for p in pool if not used[p] and len(adjacency[p]) >= need]

    stack = [iter(candidates(0))]  # per placed depth, its untried candidates
    budget = SEARCH_CAP
    while stack:
        q = order[len(stack) - 1][0]
        if assignment[q] >= 0:  # take back the last try at this depth
            used[assignment[q]] = False
            assignment[q] = -1
        p = next(stack[-1], None)
        if p is None:
            stack.pop()
            continue
        if budget == 0:
            return None
        budget -= 1
        assignment[q] = p
        used[p] = True
        if len(stack) == len(order):
            return assignment
        stack.append(iter(candidates(len(stack))))
    return None


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
    if any(partners):
        assignment = _greedy(partners, topology)
        dist = topology.dist
        if any(dist[assignment[a]][assignment[b]] != 1
               for a in range(n_logical) for b in partners[a]):
            found = _embedding(partners, topology)
            if found is not None:
                free = iter(sorted(set(range(n_physical)) - set(found)))
                assignment = [p if p >= 0 else next(free) for p in found]
    else:
        assignment = list(range(n_logical))

    padded = tuple(assignment) + (-1,) * (n_physical - n_logical)
    return Layout(padded, n_logical)
