"""Dense state-vector simulation.

A state of the m wires a run holds (see "Held wires" in qflow.program)
keeps each wire as a one-qubit factor, a 2-vector, until an op needs it in
``amps``, a complex array over the wires folded in so far, little-endian
(position 0 is the least significant bit of an index), the leading part of
``buffer``, which is allocated once at the size of every held wire, as the
whole state was before factors. ``pos`` maps each folded wire to its
position. A one-qubit gate on a factor multiplies the factor and runs no
kernel. An op on several wires, or a measure, first folds in those of its
wires that are still factors, by one outer product that puts them on top,
in the op's order, written in place into ``buffer``, so positions follow
the order in which wires were folded in. A swap relabels: the two wires
trade positions or factors, and no amplitude moves. ``settle()`` folds in
every factor and transposes ``amps`` once, only when it is not already so,
into basis order over the held wires (position i holds wires[i]); it runs
before anything reads amplitudes in that order: a leaf's sample, the
amplitudes of a unitary ``sv_run``, ``sv_statevector``, and on rho
``matrix()`` and the fidelity reference. Nothing else depends on the
order. A product state costs nothing until it entangles: a 16-qubit QFT
prepares each wire alone, folds wire after wire into a growing array and
swaps by relabelling.

One entry point, apply_gate, applies a :class:`Kernel` (a matrix on fixed
qubits of a state) in place; the density-matrix state is a subclass, rho its
``amps`` with two qubits per position.

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
    copied back. The two buffers belong to the state and its copies,
    allocated at the size of its ``buffer`` when it builds its first such
    kernel (a call on fewer folded wires uses their leading part), so a
    call allocates nothing:
    fresh state-sized temporaries were page-faulted in again on every call
    (a noisy dm run of qft9 on alltoall11 in a fresh process took 94k-100k
    minor faults with them, 2.3k without).

The slices are index tuples into that view, built once per kernel.

Each run of one-qubit gates on a wire reaches a kernel, or a factor, as one
2x2 product (see qflow.program). A kernel depends on the positions of its
wires, not on how many wires are folded in (the block above its highest
qubit is -1 in its view), so the state keeps it by (op key, positions),
built on first use and shared with branch copies.

Every run goes through the shot walker of qflow.program: ``p_one`` and
``collapse`` fold the measured wire in, ``p_one`` is the squared norm of
the slice where its qubit reads 1, ``collapse`` zeroes the other slice and
renormalizes (a reset onto 1 then moves the |1> slice onto |0>, as an x
would), and a leaf settles and samples the marginal of |amps|^2. A unitary
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
    """A 2**k x 2**k matrix on k distinct qubits (``wires``) of a state of n
    or more qubits, local-ordered with the first wire as the high bit,
    classified once (see the module docstring).

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
                self.shape = _slices(wires)[0]
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
        self.shape, index = _slices(wires)
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
def _slices(wires: tuple) -> tuple[tuple, tuple]:
    """The shape that views a state with each wire on an axis of its own
    between blocks of the other qubits (axis order is the highest qubit
    first), and the index tuple of each local basis value of the wires
    (first wire the high bit). The block above the highest wire is -1, so
    one view fits a state of any width that holds the wires; blocks of size
    1 stay, so no slice is ever 0-d."""
    shape = []
    axis_of = {}
    block = -1
    for q in range(max(wires), -1, -1):
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


@functools.lru_cache(maxsize=4096)
def _basis_view(order: tuple, base: int) -> tuple[tuple, tuple] | None:
    """The shape and axes that transpose a state whose wire i is at
    position order[i] into basis order, None when it is already in it."""
    m = len(order)
    if order == tuple(range(m)):
        return None
    # axis a of the (base,) * m view is position m-1-a
    return (base,) * m, tuple(m - 1 - p for p in reversed(order))


def apply_gate(state: np.ndarray, kernel: Kernel, work: list) -> None:
    """Apply a kernel to a flat state that holds its qubits, in place.
    ``work`` is the state's list of the two buffers of a general kernel on
    several wires, filled on first use; a call uses their leading part."""
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
        a, b = work[0][:state.size], work[1][:state.size]
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
    """One branch: ``amps`` over the wires folded in so far, position i
    (qubit i of ``amps``) holding the wire w with ``pos[w] == i``, and
    ``factors``, the one-qubit state of each held wire not folded in yet
    (see the module docstring). Driven op by op by qflow.program's walker
    over its fused ops. A copy owns its ``buffer`` (so ``amps``), ``pos``
    and ``factors`` and shares every other attribute, ``kernels`` (each
    kernel by op key and positions) and ``work`` (the buffers of
    apply_gate, allocated at the size of ``buffer``) among them."""

    fuses = True
    splits_reset = True
    base = 2  # a factor's length: the basis values of one position

    def __init__(self, wires):
        self.wires = tuple(wires)
        zero = np.zeros(self.base, dtype=complex)
        zero[0] = 1.0
        self.factors = dict.fromkeys(self.wires, zero)  # replaced, never written in place
        self.pos = {}
        self.buffer = np.zeros(self.base ** len(self.wires), dtype=complex)
        self.amps = self.buffer[:1]
        self.amps[0] = 1.0
        self.kernels = {}
        self.work = []

    def copy(self) -> "_SVState":
        new = object.__new__(type(self))
        new.wires = self.wires
        new.kernels = self.kernels
        new.work = self.work
        new.buffer = self.buffer.copy()
        new.amps = new.buffer[:self.amps.size]
        new.pos = self.pos.copy()
        new.factors = self.factors.copy()
        return new

    def _fold(self, wires) -> None:
        """Fold the factors of those of ``wires`` that have one into amps by
        one outer product, each on top of the ones before it. amps grows in
        place at the front of ``buffer``, which holds every wire."""
        top = None
        for w in wires:
            f = self.factors.pop(w, None)
            if f is not None:
                top = f if top is None else np.multiply.outer(f, top).ravel()
                self.pos[w] = len(self.pos)
        if top is not None:
            size = self.amps.size
            grown = self.buffer[:top.size * size]
            # block i of the grown array is top[i] * amps; block 0 is amps itself
            np.multiply.outer(top[1:], self.amps, out=grown[size:].reshape(-1, size))
            if top[0] != 1:  # a wire still |0> scales nothing
                self.amps *= top[0]
            self.amps = grown

    def settle(self) -> None:
        """Fold in every factor and put amps in basis order over ``wires``
        (position i holds wires[i]), transposing only when it is not."""
        if self.factors:
            self._fold(sorted(self.factors))
        view = _basis_view(tuple(map(self.pos.get, self.wires)), self.base)
        if view is not None:
            self.buffer = self.amps = self.amps.reshape(view[0]).transpose(view[1]).reshape(-1)
            self.pos = {w: i for i, w in enumerate(self.wires)}

    def _qubits(self, places: tuple) -> tuple[int, tuple]:
        """The qubit count of amps and a kernel's qubits on wires at places."""
        return len(self.pos), places

    def _kernel(self, op, matrix: np.ndarray | None = None) -> Kernel | None:
        """``matrix`` (by default the op's) on the op's wires as the kernel
        at their positions, their factors folded in first; None when the
        op's one wire is a factor, which then takes the matrix itself."""
        wires = op.wires
        factors = self.factors
        if factors:
            if len(wires) == 1:
                f = factors.get(wires[0])
                if f is not None:
                    factors[wires[0]] = (op.matrix if matrix is None else matrix).dot(f)
                    return None
            else:
                self._fold(wires)
        pos = self.pos
        key = (op.key, *[pos[w] for w in wires])
        kernel = self.kernels.get(key)
        if kernel is None:
            kernel = self.kernels[key] = Kernel(op.matrix if matrix is None else matrix,
                                                *self._qubits(key[1:]))
            if kernel.kind == "general" and len(kernel.wires) > 1 and not self.work:
                # the buffers of apply_gate, sized for every wire at once
                self.work += (np.empty_like(self.buffer), np.empty_like(self.buffer))
        return kernel

    def apply(self, op) -> None:
        if op.gate:
            if op.opcode == "swap":  # a relabel: the wires trade positions or factors
                a, b = op.wires
                for table in (self.pos, self.factors):
                    at_a, at_b = table.pop(a, None), table.pop(b, None)
                    if at_a is not None:
                        table[b] = at_a
                    if at_b is not None:
                        table[a] = at_b
                return
            kernel = self._kernel(op)
            if kernel is not None:
                apply_gate(self.amps, kernel, self.work)

    def p_one(self, op) -> float:
        w = op.wires[0]
        self._fold((w,))
        ones = self.amps.reshape(-1, 2, 1 << self.pos[w])[:, 1]  # axis 1: the qubit
        return float(np.vdot(ones, ones).real)

    def collapse(self, op, bit: int) -> None:
        w = op.wires[0]
        self._fold((w,))
        view = self.amps.reshape(-1, 2, 1 << self.pos[w])
        view[:, 1 - bit] = 0.0
        self.amps *= 1.0 / math.sqrt(np.vdot(view[:, bit], view[:, bit]).real)
        if bit and op.opcode == "reset":
            view[:, 0] = view[:, 1]
            view[:, 1] = 0.0

    def sample(self, qubits, count: int, rng, readout) -> dict[int, int]:
        self.settle()
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
    state.settle()
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
    if program.unitary:
        state.settle()
    wall = (time.perf_counter() - t0) * 1000.0
    return RunResult(
        backend="sv",
        n_qubits=program.n,
        shots=shots,
        seed=seed,
        counts=counts,
        wall_time_ms=wall,
        mem_bytes_estimate=16 << len(program.wires),
        amplitudes=program.expand(state.amps) if program.unitary else None,
    )
