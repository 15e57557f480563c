"""ASAP list scheduling over device gate durations.

Each instruction starts as early as its operand qubits allow. Delay occupies
cycles * cycle_time_ns, barrier synchronizes its wires at zero duration, and
everything else takes its duration-table entry (with per-operand overrides).

The same walk counts the unit-duration ASAP layers, the depth that
``metrics.circuit_depth`` reports: every instruction but a barrier takes
one layer, and a barrier synchronizes its wires without taking one.
Durations are looked up once per (opcode, wires). A schedule whose
makespan overflows a double is refused with ``TranspileError``, so no
report holds an infinite time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .circuit import Circuit
from .device import DeviceConfig
from .errors import TranspileError

__all__ = ["Schedule", "schedule_asap"]


@dataclass(frozen=True)
class Schedule:
    """Per-instruction (start_ns, duration_ns), aligned with the circuit's
    instruction tuple, plus the total makespan and the unit-duration layer
    count (``depth``)."""

    entries: tuple
    makespan_ns: float
    depth: int


def instruction_duration_ns(instr, wires, device: DeviceConfig) -> float:
    """The duration of a delay or a gate; a barrier has none, and its
    callers handle it first."""
    if instr.opcode == "delay":
        return float(instr.params[0]) * device.cycle_time_ns
    return device.duration_of(instr.opcode, wires)


def schedule_asap(circuit: Circuit, device: DeviceConfig) -> Schedule:
    """Schedule a physical circuit; raises if a gate has no duration entry
    or the makespan is not finite."""
    n = circuit.n_qubits
    avail = [0.0] * n        # per wire: time it is free
    level = [0] * n          # per wire: unit-duration layer of its last op
    durations: dict[tuple, float] = {}
    entries = []
    makespan = 0.0
    depth = 0
    for instr, wires in zip(circuit.instructions, circuit.resolve().wires):
        opcode = instr.opcode
        if len(wires) == 1:
            (w,) = wires
            start = avail[w]
            layer = level[w]
        elif len(wires) == 2:
            a, b = wires
            start, layer = avail[a], level[a]
            if avail[b] > start:
                start = avail[b]
            if level[b] > layer:
                layer = level[b]
        else:
            start = max((avail[w] for w in wires), default=0.0)
            layer = max((level[w] for w in wires), default=0)
        if opcode == "barrier":
            for w in wires:
                avail[w] = start
                level[w] = layer
            entries.append((start, 0.0))
            continue
        if opcode == "delay":
            dur = instruction_duration_ns(instr, wires, device)
        else:
            key = (opcode, wires)
            dur = durations.get(key)
            if dur is None:
                dur = durations[key] = instruction_duration_ns(instr, wires, device)
        end = start + dur
        layer += 1
        for w in wires:
            avail[w] = end
            level[w] = layer
        entries.append((start, dur))
        if end > makespan:
            makespan = end
        if layer > depth:
            depth = layer
    if not math.isfinite(makespan):
        raise TranspileError("schedule makespan overflows a double (over 1.8e308 ns)")
    return Schedule(tuple(entries), makespan, depth)
