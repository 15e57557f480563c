"""Initial qubit placement, in up to three stages.

1. Greedy interaction-graph mapping: logical qubits are sorted by
   two-qubit interaction degree (descending, ties by index), the busiest
   qubit lands on the physical qubit of highest topology degree, and each
   following qubit takes the free physical qubit minimizing the summed
   distance to its already placed interaction partners. All ties break
   toward the lowest physical index, so the result is deterministic. When
   every interacting pair lands on a coupled pair, this placement stands.

2. Otherwise a subgraph search (the depth-first matching of VF2, Cordella
   et al., IEEE TPAMI 2004) looks for a placement that puts every
   interacting pair on a coupled pair, so that routing inserts no swap. It
   takes the graph's components by edge count, most first, so that the
   least flexible fails early. Within a component the next logical qubit
   is the one with the most placed partners, then the highest degree, then
   the lowest index; this order depends only on the interaction graph, so
   it is fixed before the search. Its candidates are the free neighbours
   of a placed partner that neighbour every other placed partner, in
   ascending order (every free physical qubit for the first qubit of a
   component). A degree-sequence check refuses a graph that cannot fit
   before the search starts, and a candidate needs at least its logical
   qubit's degree.

3. When the whole graph does not embed, the same search places the
   longest prefix of the circuit's two-qubit gates whose graph does
   (GraphPlacement in t|ket>, Sivarajah et al., arXiv:2003.10611, also
   embeds the earliest gates first), found by binary search over the
   prefix length, since a prefix's graph is a subgraph of every longer
   prefix's. The other qubits then take their places by the greedy rule
   of stage 1 around it.

All searches of one placement share a budget of ``SEARCH_CAP`` placements;
a search that runs it out counts as finding nothing, and if no prefix was
placed by then the greedy placement stands. Qubits with no partner take
the lowest free physical qubits, in index order, whatever the stage.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .circuit import Circuit
from .device import Topology
from .errors import TranspileError
from .gates import LIBRARY

__all__ = ["Layout", "initial_mapping"]

# placements all the searches of one placement may try together
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


def _greedy(partners: list, topology: Topology, assignment: list) -> list:
    """``assignment`` completed by the greedy rule: the unplaced logical
    qubits in order of interaction degree (descending, ties by index) each
    take the free physical qubit with the least summed distance to their
    placed partners, else the lowest free one; when nothing is placed yet,
    the first takes the physical qubit of highest degree."""
    n_physical = topology.n
    order = sorted(range(len(partners)), key=lambda q: (-len(partners[q]), q))
    free = set(range(n_physical)) - set(assignment)
    if all(p < 0 for p in assignment):
        hub = max(range(n_physical), key=lambda p: (len(topology.adjacency[p]), -p))
        assignment[order[0]] = hub
        free.discard(hub)

    for logical in order:
        if assignment[logical] >= 0:
            continue
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
    partners placed before it: component by component, the components by
    edge count (descending, ties in the order they are reached)."""
    count = [0] * len(partners)  # placed partners
    heap = [(0, -len(s), q) for q, s in enumerate(partners) if s]
    heapq.heapify(heap)
    components, done = [], set()
    while heap:
        _, _, q = heapq.heappop(heap)
        if q in done:
            continue
        done.add(q)
        before = [j for j in partners[q] if j in done]
        if not before:  # no placed partner: a new component starts
            components.append([])
        components[-1].append((q, before))
        for j in partners[q]:
            if j not in done:
                count[j] += 1
                heapq.heappush(heap, (-count[j], -len(partners[j]), j))
    components.sort(key=lambda c: -sum(len(before) for _, before in c))
    return [entry for c in components for entry in c]


def _embedding(partners: list, topology: Topology, budget: int) -> tuple:
    """(a placement that puts every interacting pair on a coupled pair, or
    None when none exists or the search would pass ``budget`` placements;
    the placements left of ``budget``)."""
    adjacency, dist = topology.adjacency, topology.dist
    degree = [len(s) for s in partners]
    capacity = sorted((len(a) for a in adjacency), reverse=True)
    if any(d > c for d, c in zip(sorted(degree, reverse=True), capacity)):
        return None, budget
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
            return None, 0
        budget -= 1
        assignment[q] = p
        used[p] = True
        if len(stack) == len(order):
            return assignment, budget
        stack.append(iter(candidates(len(stack))))
    return None, budget


def _partners(n_logical: int, pairs) -> list:
    """The interaction graph of ``pairs`` as each logical qubit's partners."""
    partners: list[set] = [set() for _ in range(n_logical)]
    for a, b in pairs:
        partners[a].add(b)
        partners[b].add(a)
    return partners


def _prefix_placement(pairs: list, n_logical: int, topology: Topology) -> list:
    """A swap-free placement of the longest prefix of ``pairs`` whose
    interaction graph embeds, the whole list first; -1 for each qubit
    outside it. ``pairs`` are the interacting pairs in order of first
    appearance, so their prefixes have the graphs of the gates' prefixes.
    Every search draws on one budget of ``SEARCH_CAP`` placements; a
    prefix whose search runs out counts as not embedding."""
    found, budget = _embedding(_partners(n_logical, pairs), topology, SEARCH_CAP)
    if found is not None:
        return found
    # a prefix's graph is a subgraph of every longer prefix's, so whether
    # it embeds falls from true to false once along the list
    best, lo, hi = [-1] * n_logical, 0, len(pairs)  # lo embeds, hi does not
    while hi - lo > 1 and budget:
        mid = (lo + hi) // 2
        found, budget = _embedding(_partners(n_logical, pairs[:mid]), topology, budget)
        if found is None:
            hi = mid
        else:
            best, lo = found, mid
    return best


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

    pairs: dict = {}  # the interacting pairs, in order of first appearance
    for instr, wires in zip(circuit.instructions, circuit.resolve().wires):
        if len(wires) == 2 and instr.opcode in LIBRARY:
            pairs.setdefault((min(wires), max(wires)))
    if pairs:
        partners = _partners(n_logical, pairs)
        assignment = _greedy(partners, topology, [-1] * n_logical)
        dist = topology.dist
        if any(dist[assignment[a]][assignment[b]] != 1 for a, b in pairs):
            assignment = _greedy(partners, topology,
                                 _prefix_placement(list(pairs), n_logical, topology))
    else:
        assignment = list(range(n_logical))

    padded = tuple(assignment) + (-1,) * (n_physical - n_logical)
    return Layout(padded, n_logical)
