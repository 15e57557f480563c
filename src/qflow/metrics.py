"""Circuit characterization statistics.

``analyze`` reports the structural metrics shown after transpilation: gate
counts, unit-duration ASAP depth, gate density, retention lifespan,
entanglement variance, and measurement density.

Definitions (documented here because several are convention choices):

    depth                  number of ASAP layers with every instruction
                           counted as duration 1; barriers synchronize their
                           wires but occupy no layer
    gate_density           n_gates / (depth * n_qubits)
    retention_lifespan     max over active qubits of
                           (last_layer - first_layer + 1) / depth
    entanglement_variance  population variance over all qubits of the
                           per-qubit count of two-qubit-gate incidences
    measurement_density    n_measure / n_qubits

Barriers are synchronization only: they are excluded from n_gates and the
histogram. Delay and reset count as instructions (the "other" bucket), not
as 1q gates. Qubits with no operations contribute zero entanglement
incidences and are excluded from the retention maximum.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass

from .circuit import Circuit
from .gates import LIBRARY

__all__ = ["MetricsReport", "analyze", "circuit_depth", "gate_counts"]


@dataclass(frozen=True)
class MetricsReport:
    n_qubits: int
    n_gates: int
    n_1q: int
    n_2q: int
    n_measure: int
    depth: int
    gate_density: float
    retention_lifespan: float
    entanglement_variance: float
    measurement_density: float
    basis_histogram: dict

    def to_dict(self) -> dict:
        return {**asdict(self), "basis_histogram": dict(sorted(self.basis_histogram.items()))}


def _layering(circuit: Circuit):
    """Per-instruction ASAP layer (unit durations), plus per-wire first/last.

    Returns (depth, first_layer, last_layer) with wire dicts keyed by global
    qubit index. Barrier entries get layer 0 and do not advance levels.
    """
    level: dict[int, int] = {}
    first: dict[int, int] = {}
    last: dict[int, int] = {}
    depth = 0
    for instr, wires in zip(circuit.instructions, circuit.resolve().wires):
        if instr.opcode == "barrier":
            sync = max((level.get(w, 0) for w in wires), default=0)
            for w in wires:
                level[w] = sync
            continue
        layer = max((level.get(w, 0) for w in wires), default=0) + 1
        for w in wires:
            level[w] = layer
            if w not in first:
                first[w] = layer
            last[w] = layer
        depth = max(depth, layer)
    return depth, first, last


def circuit_depth(circuit: Circuit) -> int:
    """Unit-duration ASAP layer count (barriers synchronize, zero duration)."""
    depth, _, _ = _layering(circuit)
    return depth


def gate_counts(circuit: Circuit) -> tuple[dict, int, int]:
    """(histogram of the opcodes but barriers, count of one-qubit library
    gates, count of two-qubit library gates)."""
    histogram = Counter(instr.opcode for instr in circuit.instructions)
    histogram.pop("barrier", None)
    n_1q = n_2q = 0
    for opcode, count in histogram.items():
        spec = LIBRARY.get(opcode)
        if spec is not None:
            if spec.arity == 1:
                n_1q += count
            else:
                n_2q += count
    return dict(histogram), n_1q, n_2q


def analyze(circuit: Circuit) -> MetricsReport:
    """Compute the metrics report of a circuit."""
    n_qubits = circuit.n_qubits
    depth, first, last = _layering(circuit)
    histogram, n_1q, n_2q = gate_counts(circuit)
    n_measure = histogram.get("measure", 0)

    incidence = [0] * n_qubits
    for instr, wires in zip(circuit.instructions, circuit.resolve().wires):
        if len(wires) == 2 and instr.opcode in LIBRARY:
            for w in wires:
                incidence[w] += 1

    n_gates = sum(histogram.values())
    cells = depth * n_qubits
    gate_density = n_gates / cells if cells else 0.0
    if depth and first:
        retention = max((last[w] - first[w] + 1) / depth for w in first)
    else:
        retention = 0.0
    if n_qubits:
        mean = sum(incidence) / n_qubits
        variance = sum((c - mean) ** 2 for c in incidence) / n_qubits
        meas_density = n_measure / n_qubits
    else:
        variance = 0.0
        meas_density = 0.0

    return MetricsReport(
        n_qubits=n_qubits,
        n_gates=n_gates,
        n_1q=n_1q,
        n_2q=n_2q,
        n_measure=n_measure,
        depth=depth,
        gate_density=gate_density,
        retention_lifespan=retention,
        entanglement_variance=variance,
        measurement_density=meas_density,
        basis_histogram=histogram,
    )
