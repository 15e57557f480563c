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
``reset(op, rng)``, ``copy()``, ``sample_all(rng) -> basis index``, for
terminal sampling ``probabilities()``, and ``fuses``: whether it takes the
program with each run of one-qubit gates on a wire folded into one gate
(the dense backends without noise) or every gate as written (the tableau,
which applies gates by name, and noisy ``dm``, whose noise follows each
gate). A run ends where a multi-qubit gate, measure, reset, barrier, delay
or conditioned op touches its wire. This module drives them: one evolution
for terminal programs (:func:`evolve`, then :func:`sample_terminal`) and
one per-shot trajectory loop (:func:`run_shots`), which the tableau uses
only for conditioned programs (it samples the others from one symbolic
pass; see qflow.stabilizer). Counts are keyed by clbit strings (bit 0
rightmost), or by basis index over all qubits when the circuit never
measures.
"""

from __future__ import annotations

import os

import numpy as np

from .circuit import NON_GATE_OPCODES, Circuit
from .errors import SimulationError
from .flatten import flatten
from .gates import unitary_of
from .noise import readout_matrix
from .results import bitstring, sample_counts

__all__ = ["Op", "Program", "evolve", "run_shots", "sample_terminal"]

_MAX_SHOTS = (1 << 63) - 1  # the multinomial draw counts in int64


class Op:
    """One flattened instruction on global wires. ``clbit`` is the global
    clbit a measure writes, ``condition`` an (offset, mask, value) test on
    the classical integer, ``gate`` whether the op is a unitary gate and
    ``kernel`` the state-vector kernel of its matrix, set on first use."""

    __slots__ = ("instr", "opcode", "wires", "clbit", "condition", "gate", "_matrix", "kernel")

    def __init__(self, instr, wires: tuple, clbit: int | None, condition):
        self.instr = instr
        self.opcode = instr.opcode
        self.wires = wires
        self.clbit = clbit
        self.condition = condition
        self.gate = instr.opcode not in NON_GATE_OPCODES
        self._matrix = None
        self.kernel = None

    @property
    def matrix(self) -> np.ndarray:
        """The gate's unitary, built on first use and kept with the program."""
        if self._matrix is None:
            self._matrix = unitary_of(self.opcode, self.instr.params)
        return self._matrix

    @property
    def key(self) -> tuple:
        """What the op does, for caches shared by ops that repeat it."""
        return (self.opcode, self.instr.params, self.wires)


class _Fused(Op):
    """A run of unconditioned one-qubit gates on one wire, as one gate whose
    matrix is their product."""

    __slots__ = ("run", "_key")

    def __init__(self, run: list[Op]):
        self.run = run
        self.instr = None
        self.opcode = "fused"
        self.wires = run[0].wires
        self.clbit = None
        self.condition = None
        self.gate = True
        self._matrix = None
        self.kernel = None
        self._key = ("fused", tuple((op.opcode, op.instr.params) for op in run), self.wires)

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            m = self.run[0].matrix
            for op in self.run[1:]:
                m = op.matrix @ m
            self._matrix = m
        return self._matrix

    @property
    def key(self) -> tuple:
        return self._key


def _fuse(ops: list[Op]) -> list[Op]:
    """ops with each run of unconditioned one-qubit gates on a wire folded
    into one op. A multi-qubit gate, measure, reset, barrier, delay or
    conditioned op that touches the wire ends its run (the rule of
    transpile._Runs); the runs still open at the end follow in wire order."""
    out: list[Op] = []
    runs: dict[int, list[Op]] = {}

    def flush(w: int) -> None:
        run = runs.pop(w, None)
        if run is not None:
            out.append(run[0] if len(run) == 1 else _Fused(run))

    for op in ops:
        if op.gate and op.condition is None and len(op.wires) == 1:
            runs.setdefault(op.wires[0], []).append(op)
            continue
        if runs:
            for w in op.wires:
                flush(w)
        out.append(op)
    for w in sorted(runs):
        flush(w)
    return out


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
        wires_of: dict[tuple, tuple] = {}
        for instr in flat.instructions:
            wires = wires_of.get(instr.qubits)
            if wires is None:
                wires = wires_of[instr.qubits] = tuple(qoff[r] + i for r, i in instr.qubits)
            clbit = coff[instr.clbits[0][0]] + instr.clbits[0][1] if instr.clbits else None
            condition = None
            if instr.condition is not None:
                reg, value = instr.condition
                condition = (coff[reg], (1 << sizes[reg]) - 1, value)
                terminal = False
            if instr.opcode == "reset":
                has_reset = True
            if (measured and instr.opcode not in ("barrier", "delay")
                    and measured.intersection(wires)):
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
        self._fused = None

    def run_ops(self, fuse: bool) -> tuple[list[Op], int]:
        """The ops a backend runs and the length of their random-free prefix.
        With ``fuse``, each run of one-qubit gates is one op (see
        :func:`_fuse`), fused on the first request; a run never crosses the
        prefix boundary."""
        if not fuse:
            return self.ops, self.prefix
        if self._fused is None:
            head = _fuse(self.ops[:self.prefix])
            self._fused = (head + _fuse(self.ops[self.prefix:]), len(head))
        return self._fused

    def check_limits(self, kind: str, cap: int | None, default_cap: int,
                     env: str | None = None, shots: int = 1, seed: int = 0) -> None:
        """Reject a run wider than the backend's qubit cap (``cap``, else the
        ``env`` variable, else ``default_cap``), with a shot count outside
        [1, 2**63 - 1] or with a negative seed."""
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
        if not 1 <= shots <= _MAX_SHOTS:
            raise SimulationError(f"shots must be in [1, {_MAX_SHOTS}], got {shots}")
        if seed < 0:
            raise SimulationError(f"seed must be a non-negative integer, got {seed}")


def evolve(program: Program, state) -> None:
    """Run a terminal program once, leaving its measurements to the end."""
    for op in program.run_ops(state.fuses)[0]:
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
    ops, prefix = program.run_ops(state.fuses)
    for op in ops[:prefix]:
        state.apply(op)
    rest = ops[prefix:]
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
