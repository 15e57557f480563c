"""Circuits resolved once for the simulator backends.

A :class:`Program` is a flattened circuit with global qubit wires, global
clbit indices and classical conditions resolved to (offset, mask, value)
over one integer that holds every classical bit. It knows the two run-mode
facts every backend chooses by:

  * ``terminal``: nothing is conditioned and no qubit is touched after it
    is measured, so one evolution with measurements read off the end gives
    the outcome distribution (a ``reset`` still counts as touching);
  * ``unitary``: terminal and without ``reset``, so the evolution is a pure
    state.

Backends supply a state with ``apply(op)``, ``measure(op, rng) -> bit``,
``reset(op, rng)``, ``copy()``, ``sample_all(rng) -> basis index`` and, for
terminal sampling, ``probabilities()``. This module drives them: one
evolution for terminal programs (:func:`evolve`, then
:func:`sample_terminal`) and one per-shot trajectory loop
(:func:`run_shots`). Counts are keyed by clbit strings (bit 0 rightmost), or
by basis index over all qubits when the circuit never measures.
"""

from __future__ import annotations

import os

import numpy as np

from .circuit import Circuit
from .errors import SimulationError
from .flatten import flatten
from .gates import unitary_of
from .noise import readout_matrix
from .results import bitstring, sample_counts

__all__ = ["Op", "Program", "evolve", "run_shots", "sample_terminal"]

_NON_UNITARY = frozenset({"measure", "reset", "barrier", "delay"})


class Op:
    """One flattened instruction on global wires. ``clbit`` is the global
    clbit a measure writes, ``condition`` an (offset, mask, value) test on
    the classical integer, ``gate`` whether the op is a unitary gate."""

    __slots__ = ("instr", "opcode", "wires", "clbit", "condition", "gate", "_matrix")

    def __init__(self, instr, wires: tuple, clbit: int | None, condition):
        self.instr = instr
        self.opcode = instr.opcode
        self.wires = wires
        self.clbit = clbit
        self.condition = condition
        self.gate = instr.opcode not in _NON_UNITARY
        self._matrix = None

    @property
    def matrix(self) -> np.ndarray:
        """The gate's unitary, built on first use and kept with the program."""
        if self._matrix is None:
            self._matrix = unitary_of(self.opcode, self.instr.params)
        return self._matrix


class Program:
    """A circuit resolved for simulation; see the module docstring."""

    def __init__(self, circuit: Circuit):
        flat = flatten(circuit)
        self.n = flat.n_qubits
        self.n_clbits = flat.n_clbits
        qoff = flat.qubit_offsets()
        coff = flat.clbit_offsets()
        sizes = {r.name: r.size for r in flat.classical_registers()}
        self.ops: list[Op] = []
        self.clbit_qubit: dict[int, int] = {}  # last writer wins
        terminal = True
        has_reset = False
        measured: set[int] = set()
        for instr in flat.instructions:
            wires = tuple(qoff[r] + i for r, i in instr.qubits)
            clbit = coff[instr.clbits[0][0]] + instr.clbits[0][1] if instr.clbits else None
            condition = None
            if instr.condition is not None:
                reg, value = instr.condition
                condition = (coff[reg], (1 << sizes[reg]) - 1, value)
                terminal = False
            if instr.opcode == "reset":
                has_reset = True
            if instr.opcode not in ("barrier", "delay") and measured.intersection(wires):
                terminal = False
            if instr.opcode == "measure":
                measured.add(wires[0])
                self.clbit_qubit[clbit] = wires[0]
            self.ops.append(Op(instr, wires, clbit, condition))
        # the ops before the first measure, reset or condition draw no random numbers
        self.prefix = next((i for i, op in enumerate(self.ops) if op.condition is not None
                            or op.opcode in ("measure", "reset")), len(self.ops))
        self.terminal = terminal
        self.unitary = terminal and not has_reset
        # counts are keyed over classical bits, or over all qubits when the
        # circuit never measures
        self.n_bits = self.n_clbits if self.clbit_qubit else self.n

    def check_limits(self, kind: str, cap: int | None, default_cap: int,
                     env: str | None = None, shots: int = 1) -> None:
        """Reject a run wider than the backend's qubit cap (``cap``, else the
        ``env`` variable, else ``default_cap``) or with fewer than one shot."""
        if cap is None:
            text = os.environ.get(env, "") if env else ""
            try:
                cap = int(text) if text else default_cap
            except ValueError:
                cap = -1
            if cap < 0:
                raise SimulationError(f"{env} must be a non-negative integer, got {text!r}")
        if self.n > cap:
            raise SimulationError(f"{self.n} qubits exceeds {kind} cap {cap}")
        if shots < 1:
            raise SimulationError(f"shots must be >= 1, got {shots}")


def evolve(program: Program, state) -> None:
    """Run a terminal program once, leaving its measurements to the end."""
    for op in program.ops:
        if op.opcode == "reset":
            state.reset(op, None)
        elif op.opcode != "measure":
            state.apply(op)


def _keyed(values: dict[int, int], n_bits: int) -> dict[str, int]:
    return {bitstring(v, n_bits): values[v] for v in sorted(values)}


def sample_terminal(program: Program, probs: np.ndarray, shots: int, seed: int,
                    readout=None) -> dict[str, int]:
    """Counts of a terminal program from its final basis distribution.

    The distribution is reduced to the measured qubits (all qubits when
    nothing is measured), passed through per-qubit readout confusion when
    ``readout`` lists (P(0|0), P(1|1)) per qubit, sampled by
    :func:`results.sample_counts`, and each outcome's bits are moved to the
    clbits their qubits were measured into.
    """
    n = program.n
    if program.clbit_qubit:
        qubits = sorted(set(program.clbit_qubit.values()))
        moves = [(qubits.index(q), c) for c, q in program.clbit_qubit.items()]
    else:
        qubits = list(range(n))
        moves = [(q, q) for q in qubits]
        readout = None
    # axis a of the reshaped vector is qubit n-1-a
    dropped = tuple(n - 1 - q for q in range(n) if q not in qubits)
    t = np.reshape(probs, (2,) * n).sum(axis=dropped)
    for j, q in enumerate(qubits if readout else ()):
        axis = len(qubits) - 1 - j
        t = np.moveaxis(np.tensordot(readout_matrix(*readout[q]), t, axes=([1], [axis])), 0, axis)
    # bits already in their clbit's position are masked through, the rest moved
    kept = sum(1 << j for j, c in moves if j == c)
    moves = [(j, c) for j, c in moves if j != c]
    values: dict[int, int] = {}
    for key, count in sample_counts(t.reshape(-1), shots, seed, n_bits=len(qubits)).items():
        i = int(key, 2)
        v = i & kept
        for j, c in moves:
            v |= ((i >> j) & 1) << c
        values[v] = values.get(v, 0) + count
    return _keyed(values, program.n_bits)


def run_shots(program: Program, state, shots: int, rng) -> dict[str, int]:
    """Per-shot trajectories. The prefix before the first measure, reset or
    condition draws no random numbers, so it runs once on ``state``; each
    shot then runs the rest on a copy of it."""
    for op in program.ops[:program.prefix]:
        state.apply(op)
    rest = program.ops[program.prefix:]
    values: dict[int, int] = {}
    for _ in range(shots):
        shot = state.copy()
        clbits = 0
        for op in rest:
            if op.condition is not None:
                offset, mask, want = op.condition
                if (clbits >> offset) & mask != want:
                    continue
            if op.opcode == "measure":
                bit = shot.measure(op, rng)
                clbits = (clbits & ~(1 << op.clbit)) | (bit << op.clbit)
            elif op.opcode == "reset":
                shot.reset(op, rng)
            else:
                shot.apply(op)
        value = clbits if program.clbit_qubit else shot.sample_all(rng)
        values[value] = values.get(value, 0) + 1
    return _keyed(values, program.n_bits)
