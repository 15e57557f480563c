"""Circuits resolved once for the simulator backends, and the one shot
walker that runs them.

A :class:`Program` is a circuit read through its resolution
(``Circuit.resolve``): global wires and clbits, and each condition as
(offset, mask, value) over one integer holding every classical bit. A
measure is *deferred* when no later op but a barrier or delay touches its
qubit and no later condition reads its clbit; measuring it at the end
changes nothing. (A later measure counts: each measure has its own readout
confusion, which one leaf draw cannot give.) A program is ``unitary`` when
it has no reset or condition and defers every measure. Counts are keyed by
clbit strings (bit 0 rightmost), or by basis index over all qubits when
nothing is measured.

Held wires: ``wires`` lists, ascending, the wires some op other than a
barrier touches; every other wire stays |0>. Both dense states hold only
these, each as a one-qubit factor until an op needs it in the state's
array; once settled, position i holds wires[i] and ``expand`` turns the
held amplitudes into a vector over all n qubits. Ops keep global wires for
device lookups.
The qubit caps still judge the declared width, so no run is refused or
allowed that was not before. The tableau keeps the declared width (its
cost barely depends on idle wires, and a lookup per op would slow its
hottest loop), as does ``dm_evolve``, which returns the full matrix.

:func:`walk` works depth first over (op index, state, clbits, count). At a
measure, or a reset where the state splits resets, with probability p of
reading 1 and 0 < p < 1, it draws k = binomial(count, p), p rounded to
30 significant bits as qflow.results rounds every draw, and copies the
state only when both outcomes get shots; a readout confusion splits the
reported bit again, and the flipped part gets its own copy, since a later
condition may read it. The walk goes on with the side with fewer shots and
pushes the other, so at most min(random outcomes on the path, floor(log2
shots)) states are pending besides the one being run. A leaf draws its
shots from the branch's marginal over the deferred measures' qubits (the
held wires when nothing is measured, so an idle qubit reads 0) and moves
each bit to the clbit its qubit was last measured into. A program that
defers every measure is one leaf that draws nothing before it: one
evolution sampled once. Leaves never outnumber shots; a walk past
ALWAYS_RUN = 2**20 leaves is refused with SimulationError.

A state supplies ``apply(op)``; ``p_one(op)``, the probability that the
op's qubit reads 1, then ``collapse(op, bit)``, which projects onto bit (and
for a reset flips it back to 0); ``copy()``; ``sample(qubits, count, rng,
readout)``, a leaf's counts by value (bit j is qubits[j]); ``splits_reset``,
false where a reset is a channel; and ``fuses``, whether it takes each run
of one-qubit gates on a wire as one gate (both dense backends, the density
matrix under noise too, where a run's channel is the product of its gates'
noisy channels; not the tableau, which applies gates by name). A run ends
where a multi-qubit gate, measure, reset, barrier, delay or conditioned op
touches its wire. A run is one :class:`Op` like any other, of opcode
``fused``, whose ``run`` lists its gates.
"""

from __future__ import annotations

import os
from functools import reduce

import numpy as np

from .circuit import Circuit
from .errors import SimulationError
from .gates import LIBRARY, unitary_of
from .results import _EPS, _round30_float

__all__ = ["Op", "Program", "evolve", "walk"]

_MAX_SHOTS = (1 << 63) - 1  # the multinomial draw counts in int64
# up to this many shots always run: a walk has at most as many leaves, and a
# stabilizer leaf draws exactly from at most as many outcome values
ALWAYS_RUN = 1 << 20


class Op:
    """One instruction on global wires. ``clbit`` is the global clbit a
    measure writes, ``condition`` an (offset, mask, value) test on the
    classical integer, ``gate`` whether the op is a unitary gate and
    ``deferred`` whether it is a measure drawn at the leaves. A ``fused`` op
    has no instruction; its ``run`` holds the ops it multiplies (see
    :func:`_fuse`), and ``run`` is None for any other op. An op holds only
    what its circuit determines; a kernel depends on the wires a state holds
    too, so each state keeps its own, by ``key``."""

    __slots__ = ("instr", "opcode", "wires", "clbit", "condition", "gate", "deferred", "run",
                 "_matrix", "_key")

    def __init__(self, instr, wires: tuple, clbit: int | None = None, condition=None, run=None):
        self.instr = instr
        self.opcode = "fused" if run else instr.opcode
        self.wires = wires
        self.clbit = clbit
        self.condition = condition
        self.gate = bool(run) or instr.opcode in LIBRARY
        self.deferred = False
        self.run = run
        self._matrix = None
        self._key = None

    @property
    def matrix(self) -> np.ndarray:
        """The gate's unitary, or the product of the run's, built on first
        use and kept with the program."""
        if self._matrix is None:
            self._matrix = (unitary_of(self.opcode, self.instr.params) if self.run is None else
                            reduce(lambda m, op: op.matrix @ m, self.run[1:], self.run[0].matrix))
        return self._matrix

    @property
    def key(self) -> tuple:
        """What the op does, for caches shared by ops that repeat it: the
        opcode, the parameters (for a run, each op's opcode and parameters)
        and the wires. Built when a state first asks; the tableau never does."""
        if self._key is None:
            params = self.instr.params if self.run is None else tuple(
                (op.opcode, op.instr.params) for op in self.run)
            self._key = (self.opcode, params, self.wires)
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
            out.append(run[0] if len(run) == 1 else Op(None, run[0].wires, run=run))

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
        resolution = circuit.resolve()
        self.n = circuit.n_qubits
        self.n_clbits = circuit.n_clbits
        self.ops: list[Op] = []
        last: dict[int, Op] = {}  # the measure that writes each clbit last
        for k, (instr, wires) in enumerate(zip(circuit.instructions, resolution.wires)):
            clbits = resolution.clbits.get(k)
            op = Op(instr, wires, clbits[0] if clbits else None, resolution.conditions.get(k))
            if op.opcode == "measure":
                last[op.clbit] = op
            self.ops.append(op)
        touched: set[int] = set()
        read = 0
        for op in reversed(self.ops):
            if op.opcode == "measure" and op.condition is None:
                op.deferred = op.wires[0] not in touched and not (read >> op.clbit) & 1
            if op.condition is not None:
                read |= op.condition[1] << op.condition[0]
            if op.opcode not in ("barrier", "delay"):
                touched.update(op.wires)
        self.unitary = all(op.condition is None and op.opcode != "reset"
                           and (op.opcode != "measure" or op.deferred) for op in self.ops)
        self.measures = bool(last)
        self.n_bits = self.n_clbits if last else self.n
        self.wires = tuple(sorted({w for op in self.ops if op.opcode != "barrier"
                                   for w in op.wires}))
        # a leaf samples these qubits, keeps the bits of a sample in place
        # (kept) or moves bit j to clbit c, and clears the clbits it writes
        moved = {c: op.wires[0] for c, op in last.items() if op.deferred}
        if not last:
            moved = {q: q for q in self.wires}
        qubits = sorted(set(moved.values()))
        moves = [(qubits.index(q), c) for c, q in moved.items()]
        self.leaf = (qubits, sum(1 << j for j, c in moves if j == c),
                     [(j, c) for j, c in moves if j != c], ~sum(1 << c for c in moved))
        self._fused = None

    def run_ops(self, fuse: bool) -> list[Op]:
        """The ops a backend runs: with ``fuse``, each run of one-qubit
        gates is one op (see :func:`_fuse`), fused on the first request."""
        if fuse and self._fused is None:
            self._fused = _fuse(self.ops)
        return self._fused if fuse else self.ops

    def expand(self, amps: np.ndarray) -> np.ndarray:
        """Amplitudes over ``wires`` as a vector over all n qubits."""
        if len(self.wires) == self.n:
            return amps
        full = np.zeros(1 << self.n, dtype=amps.dtype)
        # axis a of a reshaped vector is its qubit n-1-a (held wire m-1-a)
        index = tuple(slice(None) if q in self.wires else 0 for q in reversed(range(self.n)))
        full.reshape((2,) * self.n)[index] = amps.reshape((2,) * len(self.wires))
        return full

    def check_limits(self, kind: str, default_cap: int, env: str | None = None,
                     shots: int = 1, seed: int = 0) -> None:
        """Reject a run wider than the backend's qubit cap (the ``env``
        variable, else ``default_cap``), with a shot count outside
        [1, 2**63 - 1] or with a negative seed. ``shots`` and ``seed`` must
        be of type ``int``: a bool or a numpy integer is refused too."""
        for name, value in (("shots", shots), ("seed", seed)):
            if type(value) is not int:
                raise SimulationError(f"{name} must be an int, got {type(value).__name__}")
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
    """Run a program once without measuring; only a density matrix takes a
    reset here, as its channel."""
    for op in program.run_ops(state.fuses):
        if op.opcode != "measure":
            state.apply(op)


def refusal(shots: int, why: str) -> SimulationError:
    """The error that refuses a run of ``shots`` shots for ``why``."""
    return SimulationError(f"refusing {shots} shots: {why} "
                           f"(up to 2**{ALWAYS_RUN.bit_length() - 1} shots always run)")


def _keyed(values: dict[int, int], n_bits: int) -> dict[str, int]:
    spec = f"0{max(n_bits, 1)}b"
    return {format(v, spec): values[v] for v in sorted(values)}


def walk(program: Program, state, shots: int, seed: int, readout=None) -> dict[str, int]:
    """Counts of ``shots`` runs of the program from ``state``, which the
    walk consumes, as one depth-first walk of the tree of outcomes (see the
    module docstring). ``readout`` lists (P(0|0), P(1|1)) per qubit."""
    ops = program.run_ops(state.fuses)
    qubits, kept, moves, clear = program.leaf
    readout = readout if program.measures else None
    rng = np.random.default_rng(seed)
    # (op index, state, clbits, shots, outcome of that op or None)
    pending = [(0, state, 0, shots, None)]
    values: dict[int, int] = {}
    leaves = 0

    def fork(p: float, count: int, state, entry) -> tuple[int, int]:
        """Give binomial(count, p) shots to side 1 and the rest to side 0.
        Returns the side with fewer shots and its shots; the other side, if
        it has any, is pushed on a copy of the state as entry(side, shots,
        copy). p is rounded to 30 significant bits first, as draw_counts
        rounds its vector."""
        p = _round30_float(p)
        k = count if p > 1.0 - _EPS else 0 if p < _EPS else int(rng.binomial(count, p))
        if 0 < k < count:
            side = int(2 * k <= count)
            pending.append(entry(1 - side, count - k if side else k, state.copy()))
            return side, k if side else count - k
        return int(k > 0), count

    while pending:
        start, state, clbits, count, bit = pending.pop()
        for i in range(start, len(ops)):
            op = ops[i]
            if bit is None:
                if op.deferred or op.condition is not None and (
                        (clbits >> op.condition[0]) & op.condition[1] != op.condition[2]):
                    continue
                if op.opcode != "measure" and (op.opcode != "reset" or not state.splits_reset):
                    state.apply(op)
                    continue
                bit, count = fork(state.p_one(op), count, state,
                                  lambda b, c, s: (i, s, clbits, c, b))
            state.collapse(op, bit)
            if op.opcode == "measure":
                if readout is not None:
                    p00, p11 = readout[op.wires[0]]
                    flip, count = fork(1.0 - (p11 if bit else p00), count, state,
                                       lambda f, c, s: (i + 1, s, clbits & ~(1 << op.clbit)
                                                        | (bit ^ f) << op.clbit, c, None))
                    bit ^= flip
                clbits = clbits & ~(1 << op.clbit) | bit << op.clbit
            bit = None
        leaves += 1
        if leaves > ALWAYS_RUN:
            raise refusal(shots, f"they branch into more than {ALWAYS_RUN} outcome histories")
        if not qubits:
            values[clbits] = values.get(clbits, 0) + count
            continue
        base = clbits & clear
        for i, k in state.sample(qubits, count, rng, readout).items():
            v = base | i & kept
            for j, c in moves:
                v |= ((i >> j) & 1) << c
            values[v] = values.get(v, 0) + k
    return _keyed(values, program.n_bits)
