"""Dense state-vector simulation.

A state holds ``amps``, a complex array of length 2**m over the m wires a
run holds (see "Held wires" in qflow.program), little-endian (qubit 0 is
the least significant bit of a basis index). One entry point, apply_gate,
applies a :class:`Kernel` (a matrix on fixed wires of an n-qubit state) in
place; the density-matrix state is a subclass, rho its ``amps`` of 2m qubits.

A kernel is classified once, when it is built, by the exact-zero pattern of
its matrix, so fused products and superoperators are classified like named
gates:

  * diagonal: each slice of the state with a fixed value of the wires is
    multiplied in place by its phase, and slices whose phase is exactly 1
    are left alone (z, t, rz, u1, cz, cu1, crz, ...);
  * monomial, one nonzero per row and column (a permutation with phases):
    only the slices that change are written, each cycle of the permutation
    saving one slice first, and fixed slices are scaled as for a diagonal
    (x, y, cx, cy, swap, ...);
  * general on one wire w, with lo = 2**w amplitudes below it: one matmul
    over contiguous memory, written back in place. For lo <= _RIGHT_MAX
    (16) the state viewed as rows of 2*lo is right-multiplied by
    (m (x) I_lo)^T, one zgemm; above it, m left-multiplies each (2, lo)
    block of the state viewed as (-1, 2, lo), one batched matmul. The
    right product costs 2*lo multiplies per amplitude, the batched one a
    call per block, and they cross at w = 4 to 5 from 12 to 16 qubits
    (one BLAS thread, 2-vCPU Xeon VM, best of 30): at 16 qubits 0.20-0.41
    ms right for w <= 4 and 0.26-0.71 ms batched for w >= 5, against
    0.31-1.43 ms for moving the axis to the front;
  * general on several wires: the state viewed with the wires' axes between
    blocks of the other qubits (as for the slices below) is transposed to
    bring the wires' axes first and copied into a work buffer; one matmul of
    the matrix against its (2**k, rest) form writes a second buffer, which is
    copied back. The two state-sized buffers belong to the state and its
    copies, allocated by its first such kernel, so a call allocates nothing:
    fresh state-sized temporaries were page-faulted in again on every call
    (a noisy dm run of qft9 on alltoall11 in a fresh process took 94k-100k
    minor faults with them, 2.3k without).

The slices are index tuples into that view, built once per kernel.

Each run of one-qubit gates on a wire reaches a kernel as one 2x2 product
(see qflow.program). A kernel depends on the wires the state holds, so the
state keeps it by op key, built on first use and shared with branch copies.

Every run goes through the shot walker of qflow.program: ``p_one`` is the
squared norm of the slice where the qubit reads 1, ``collapse`` zeroes the
other slice and renormalizes (a reset onto 1 then moves the |1> slice onto
|0>, as an x would), and a leaf samples the marginal of |amps|^2. A unitary
program is one leaf.
A circuit wider than the qubit cap, ``QFLOW_QUBIT_CAP_SV`` if set, else
DEFAULT_SV_CAP, raises SimulationError.
"""

from __future__ import annotations

import functools
import math
import time

import numpy as np

from .circuit import Circuit
from .errors import SimulationError
from .program import Program, evolve, walk
from .results import RunResult, sample_marginal

__all__ = ["sv_run", "sv_statevector", "DEFAULT_SV_CAP"]

DEFAULT_SV_CAP = 26


# -- kernels --------------------------------------------------------------------

# a general kernel on wire w right-multiplies rows of 2 * 2**w amplitudes
# when 2**w is at most this, else it left-multiplies each (2, 2**w) block
_RIGHT_MAX = 16


class Kernel:
    """A 2**k x 2**k matrix on k distinct wires of an n-qubit state, local-
    ordered with the first wire as the high bit, classified once (see the
    module docstring).

    ``kind`` is "diagonal", "monomial" or "general". A structured kernel
    views the state as ``shape`` and holds ``scales``, (slice, phase) pairs
    multiplied in place, and ``cycles``, (saved slice, moves) pairs whose
    moves write ``dst = phase * src`` in order, ``src`` None standing for
    the saved copy. A general kernel holds the matrix and views the state
    as ``shape``; on one wire it holds ``right``, (matrix (x) I)^T for a low
    wire, else None; on several wires ``axes`` transposes the view to put
    the wires' axes first, in order, then the blocks.
    """

    __slots__ = ("n", "wires", "matrix", "kind", "shape", "scales", "cycles", "axes", "right")

    def __init__(self, matrix: np.ndarray, n: int, wires):
        self.n = n
        self.wires = wires = tuple(wires)
        self.matrix = matrix
        size = 1 << len(wires)
        rows, cols = np.nonzero(matrix)
        # row-major order: one nonzero per row is rows == 0..size-1, and
        # then one per column is cols being a permutation
        if (rows.size != size or rows.tolist() != list(range(size))
                or len(set(cols.tolist())) != size):
            self.kind = "general"
            self.axes = self.right = None
            if len(wires) > 1:
                # _slices puts the wires in descending order on the odd axes
                self.shape = _slices(n, wires)[0]
                high = sorted(wires, reverse=True)
                self.axes = (tuple(2 * high.index(w) + 1 for w in wires)
                             + tuple(range(0, len(self.shape), 2)))
            elif (lo := 1 << wires[0]) <= _RIGHT_MAX:
                self.shape = (-1, 2 * lo)
                # (matrix (x) I_lo)^T: entry [i*lo + k, j*lo + k] is matrix[j, i];
                # einsum's repeated index is a writeable view of those entries
                # (np.kron builds the same about ten times slower)
                right = np.zeros((2, lo, 2, lo), dtype=complex)
                np.einsum("ikjk->ijk", right)[...] = matrix.T[:, :, None]
                self.right = right.reshape(2 * lo, 2 * lo)
            else:
                self.shape = (-1, 2, lo)
            return
        # column j goes to row dest[j] times phase[j]
        dest = [0] * size
        phase = [0j] * size
        for i, j, value in zip(rows.tolist(), cols.tolist(), matrix[rows, cols].tolist()):
            dest[j], phase[j] = i, value
        self.kind = "diagonal" if dest == list(range(size)) else "monomial"
        self.shape, index = _slices(n, wires)
        self.scales = []
        self.cycles = []
        seen = [False] * size
        for start in range(size):
            if seen[start]:
                continue
            cycle = [start]
            seen[start] = True
            while dest[cycle[-1]] != start:
                cycle.append(dest[cycle[-1]])
                seen[cycle[-1]] = True
            if len(cycle) == 1:
                if phase[start] != 1:
                    self.scales.append((index[start], phase[start]))
                continue
            # new[dest[j]] = phase[j] * old[j]: save the last, then write backwards
            moves = [(index[cycle[t + 1]], index[cycle[t]], phase[cycle[t]])
                     for t in range(len(cycle) - 2, -1, -1)]
            moves.append((index[start], None, phase[cycle[-1]]))
            self.cycles.append((index[cycle[-1]], moves))


@functools.lru_cache(maxsize=4096)
def _slices(n: int, wires: tuple) -> tuple[tuple, tuple]:
    """The shape that views an n-qubit state with each wire on an axis of its
    own between blocks of the other qubits (axis order is qubit n-1 first),
    and the index tuple of each local basis value of the wires (first wire
    the high bit). Blocks of size 1 stay, so no slice is ever 0-d."""
    shape = []
    axis_of = {}
    block = 1
    for q in range(n - 1, -1, -1):
        if q in wires:
            shape += [block, 2]
            axis_of[q] = len(shape) - 1
            block = 1
        else:
            block <<= 1
    shape.append(block)
    k = len(wires)
    index = []
    for j in range(1 << k):
        idx = [slice(None)] * len(shape)
        for pos, w in enumerate(wires):
            idx[axis_of[w]] = (j >> (k - 1 - pos)) & 1
        index.append(tuple(idx))
    return tuple(shape), tuple(index)


def apply_gate(state: np.ndarray, kernel: Kernel, work: list) -> None:
    """Apply a kernel to a flat state of kernel.n qubits, in place. ``work``
    is the state's list of the two buffers of a general kernel on several
    wires, filled on first use."""
    if kernel.kind == "general":
        if kernel.axes is None:  # one wire: one matmul over contiguous blocks
            view = state.reshape(kernel.shape)
            if kernel.right is None:
                np.matmul(kernel.matrix, view, out=view)
            else:
                np.matmul(view, kernel.right, out=view)
            return
        if not work:
            work += (np.empty_like(state), np.empty_like(state))
        a, b = work
        view = state.reshape(kernel.shape).transpose(kernel.axes)
        np.copyto(a.reshape(view.shape), view)
        rows = 1 << len(kernel.wires)
        np.matmul(kernel.matrix, a.reshape(rows, -1), out=b.reshape(rows, -1))
        np.copyto(view, b.reshape(view.shape))
        return
    view = state.reshape(kernel.shape)
    for index, phase in kernel.scales:
        view[index] *= phase
    for saved, moves in kernel.cycles:
        saved = view[saved].copy()
        for dst, src, phase in moves:
            src = saved if src is None else view[src]
            if phase == 1:
                view[dst] = src
            else:
                np.multiply(src, phase, out=view[dst])


# -- state ---------------------------------------------------------------------

class _SVState:
    """Amplitudes ``amps`` of one branch, ``qubits_per_wire`` qubits per
    given wire (ascending), driven op by op by qflow.program's walker over
    its fused ops. A copy owns only its array and shares every other
    attribute, ``kernels`` (the kernel of each op key) and ``work`` (the
    buffers of apply_gate) among them."""

    fuses = True
    splits_reset = True
    qubits_per_wire = 1

    def __init__(self, wires):
        self.wires = tuple(wires)
        self.pos = {w: i for i, w in enumerate(self.wires)}
        self.n = len(self.wires)
        self.amps = np.zeros(1 << (self.qubits_per_wire * self.n), dtype=complex)
        self.amps[0] = 1.0
        self.kernels = {}
        self.work = []

    def copy(self) -> "_SVState":
        new = object.__new__(type(self))
        new.wires = self.wires
        new.pos = self.pos
        new.n = self.n
        new.kernels = self.kernels
        new.work = self.work
        new.amps = self.amps.copy()
        return new

    def apply(self, op) -> None:
        if op.gate:
            key = op.key
            kernel = self.kernels.get(key)
            if kernel is None:
                kernel = self.kernels[key] = Kernel(op.matrix, self.n,
                                                    [self.pos[w] for w in op.wires])
            apply_gate(self.amps, kernel, self.work)

    def p_one(self, op) -> float:
        ones = self.amps.reshape(-1, 2, 1 << self.pos[op.wires[0]])[:, 1]  # axis 1: the qubit
        return float(np.vdot(ones, ones).real)

    def collapse(self, op, bit: int) -> None:
        view = self.amps.reshape(-1, 2, 1 << self.pos[op.wires[0]])
        view[:, 1 - bit] = 0.0
        self.amps *= 1.0 / math.sqrt(np.vdot(view[:, bit], view[:, bit]).real)
        if bit and op.opcode == "reset":
            view[:, 0] = view[:, 1]
            view[:, 1] = 0.0

    def sample(self, qubits, count: int, rng, readout) -> dict[int, int]:
        p = np.abs(self.amps)
        return sample_marginal(np.square(p, out=p), self.wires, qubits, count, rng, readout)


def sv_statevector(circuit: Circuit) -> np.ndarray:
    """Final amplitudes of the unitary part of a circuit (measurements are
    ignored; reset and classical conditions are rejected)."""
    program = Program(circuit)
    program.check_limits("state-vector", DEFAULT_SV_CAP, "QFLOW_QUBIT_CAP_SV")
    for op in program.ops:
        if op.condition is not None or op.opcode == "reset":
            raise SimulationError("sv_statevector requires a purely unitary circuit (found "
                                  f"'{op.opcode}'{' with condition' if op.condition else ''})")
    state = _SVState(program.wires)
    evolve(program, state)
    return program.expand(state.amps)


def sv_run(circuit: Circuit, seed: int = 42, shots: int = 1024) -> RunResult:
    """Ideal state-vector run: evolve, then sample `shots` outcomes.

    Delay is an identity here (no noise model). Counts come from the shot
    walker of qflow.program; a unitary program is one leaf, and its final
    amplitudes over all qubits are attached.
    """
    t0 = time.perf_counter()
    program = Program(circuit)
    program.check_limits("state-vector", DEFAULT_SV_CAP, "QFLOW_QUBIT_CAP_SV", shots, seed)
    state = _SVState(program.wires)
    counts = walk(program, state, shots, seed)
    wall = (time.perf_counter() - t0) * 1000.0
    return RunResult(
        backend="sv",
        n_qubits=program.n,
        shots=shots,
        seed=seed,
        counts=counts,
        wall_time_ms=wall,
        mem_bytes_estimate=state.amps.nbytes,
        amplitudes=program.expand(state.amps) if program.unitary else None,
    )
