"""Density-matrix simulation with device noise.

rho over m wires (``dm_run`` the program's, ``dm_evolve`` all; see "Held
wires" in qflow.program) is the state-vector state with 4 basis values per
position: each held wire is a one-qubit factor, vec of its 2x2 rho (index
2 * ket + bra), until an op needs it, and ``amps`` holds the wires folded in
so far, a flat vector of 4**k complex numbers whose position i is the ket
qubit 2i + 1 and the bra qubit 2i, a wire's two qubits next to each other.
A one-wire channel on a factor, noise, ``delay`` and ``reset`` included,
multiplies the factor by its 4x4 superoperator. Folding a wire in is the
state vector's outer product, on 4-vectors. A channel with Kraus operators
K on some wires is the one matrix sum K (x) conj(K) on (ket wires..., bra
wires...), applied by the state-vector kernel. ``matrix()`` settles the
state and returns rho as the row-major (2**m, 2**m) matrix in basis order,
a transposed copy. ``p_one`` and ``collapse`` fold the measured wire in
and read the diagonal by position, gathered through one index array per
width, and a leaf settles before it samples. rho holds 16 * 4**m bytes
once every wire is folded in. Ket and bra side by side beat the ket bits
above all the bra bits on a 7-wire rho (one BLAS thread, 2-vCPU Xeon VM,
best of 7): a 16x16 channel on each of seven wire pairs took x0.87 the
time in total, and a 4x4 one-wire channel x0.63-0.93 by wire (x0.76 in
total).

Per gate, with a device attached: unitary, then a depolarizing channel with
the gate's error probability on its operands (joint two-qubit channel for
two-qubit gates), then thermal relaxation on each operand for the gate's
duration. A delay applies relaxation only, for cycles * cycle_time_ns. The
noise is one superoperator per noise stage, keyed by (opcode, wires,
duration), built from the closed forms of qflow.noise rather than from
Kraus lists, with each operand's 4x4 relaxation placed on its own (ket,
bra) pair; a gate's channel is that stage times the gate's superoperator,
built once per (opcode, params, wires). Every channel and stage is built
once per run and shared by every op that repeats it and by every branch.

Runs of one-qubit gates are fused, as for the state vector (see
qflow.program). A run's channel is the product of its gates' 4x4 channels,
each with its noise composed after it, so noise still follows each original
gate and the result is exact. Each channel becomes one state-vector kernel
on (ket wires..., bra wires...) per position of its wires, when it is
first needed there, and inherits its
class from its zero pattern: the superoperator of a diagonal unitary is
diagonal and that of a permutation with phases is a permutation with phases
on (ket, bra), so both run as slice updates. A noiseless one-wire channel
U (x) conj(U) is one 4x4 kernel too, not U on the ket then conj(U) on the
bra: the two in-place one-wire matmuls, each making a hidden rho-sized
copy, took 1.1-1.4x as long per gate as the buffered kernel at 5-10 wires
(2-vCPU Xeon VM, OpenBLAS on two threads; 1.0-1.3x on one).

Every run goes through the shot walker of qflow.program: ``p_one`` reads
the diagonal and ``collapse`` zeroes the other outcome on ket and bra; a
reset stays its Kraus channel and never branches. With a device, readout
confusion splits the reported bit of a mid-circuit measure, and a leaf
samples the diagonal's marginal through it.

Pure runs: ``dm_run`` with no device walks a state vector of the held wires
instead of rho, unless the program resets; like rho it keeps factors until
an op needs a wire, and it also relabels on a swap, which rho applies as a
channel since a device's swap is noisy. With no device there is no
noise, so every channel is U (x) conj(U); measures are projective and a
conditioned op is unitary, so each branch stays rho = |psi><psi| and the
walker forks at the same ops with the same p_one up to rounding, which the
30-bit rounding of each draw absorbs: the counts are rho's, from 2**m
amplitudes instead of 4**m entries and their two work buffers. A reset is
a channel on rho that never branches, while the state vector splits it into
two branches, which would change the draws, so a program that resets stays
on rho. ``dm_evolve`` always evolves rho.

The reported fidelity is <psi|rho|psi> against the ideal state-vector run of
the same program with noise disabled, over the same wires, for a unitary
program (no reset, condition or mid-circuit measure) run on a device; the
field is omitted elsewhere. A circuit wider than the qubit cap,
``QFLOW_QUBIT_CAP_DM`` if set, else DEFAULT_DM_CAP, raises SimulationError,
as does an op on a qubit the device lacks.
"""

from __future__ import annotations

import functools
import math
import time

import numpy as np

from .circuit import Circuit
from .device import DeviceConfig
from .errors import DeviceConfigError, SimulationError
from .noise import depolarizing_superop, thermal_relaxation_superop
from .program import Program, evolve, walk
from .results import RunResult, sample_marginal
from .schedule import instruction_duration_ns
from .statevector import _SVState, apply_gate

__all__ = ["dm_run", "dm_evolve", "fidelity", "DEFAULT_DM_CAP"]

DEFAULT_DM_CAP = 13

_RESET_KRAUS = (
    np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex),  # keep |0>
    np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex),  # |1> -> |0>
)
_IDENTITY = np.eye(4, dtype=complex)  # the superoperator of no noise on one qubit


def _superop(kraus) -> np.ndarray:
    """sum K (x) conj(K) over the Kraus operators, in one contraction."""
    k = np.asarray(kraus)
    d = k.shape[-1]
    return np.einsum("kij,kab->iajb", k, k.conj()).reshape(d * d, d * d)


def _noise_stage(device: DeviceConfig, opcode: str, wires: tuple,
                 dur: float) -> np.ndarray | None:
    """The noise after an op of ``opcode`` on ``wires`` lasting ``dur`` ns,
    as one superoperator on (ket wires..., bra wires...): depolarizing with
    the op's error, then each operand's thermal relaxation on its own (ket,
    bra) pair. None when there is no noise."""
    k = len(wires)
    s = None
    p = device.error_of(opcode, wires)
    if p > 0.0:
        s = depolarizing_superop(p, k)
    relax = []
    for w in wires if dur > 0.0 else ():
        t1_ns, t2_ns = device.t1_us[w] * 1000.0, device.t2_us[w] * 1000.0
        relax.append(_IDENTITY if math.isinf(t1_ns) and math.isinf(t2_ns)
                     else thermal_relaxation_superop(dur, t1_ns, t2_ns))
    if any(one is not _IDENTITY for one in relax):
        # operand j's 4x4 takes row axes (j, k + j) and column axes (2k + j, 3k + j)
        terms = []
        for j, one in enumerate(relax):
            terms += [one.reshape(2, 2, 2, 2), [j, k + j, 2 * k + j, 3 * k + j]]
        joint = np.einsum(*terms, list(range(4 * k))).reshape(1 << (2 * k), 1 << (2 * k))
        s = joint if s is None else joint @ s
    return s


@functools.lru_cache(maxsize=None)
def _diagonal_index(m: int) -> np.ndarray:
    """Where each diagonal entry of rho over m positions lies in amps, in
    basis order: a position's digit is 2 * ket + bra, so 0 or 3 there."""
    index = np.zeros(1, dtype=np.intp)
    for i in range(m):
        index = np.concatenate([index, index + (3 << 2 * i)])
    return index


class _DensityState(_SVState):
    """rho of one run or branch: the state-vector state with a 4-entry
    factor per wire, vec of its 2x2 one-qubit rho, and amps whose position
    i is the ket qubit 2i + 1 and the bra qubit 2i (see the module
    docstring). A copy also shares ``device`` and ``superops``, the channel
    of each op key and the noise stage of each ("noise", opcode, wires,
    duration). ``apply`` is its own, so ``bench/tracer.py`` counts its
    kernel calls as density's."""

    splits_reset = False
    base = 4

    def __init__(self, wires, device: DeviceConfig | None):
        super().__init__(wires)
        self.device = device
        self.superops = {}

    def copy(self) -> "_DensityState":
        new = super().copy()
        new.device = self.device
        new.superops = self.superops
        return new

    def matrix(self) -> np.ndarray:
        """rho over ``wires`` as a (2**m, 2**m) matrix in basis order."""
        self.settle()
        m = len(self.wires)
        # the ket bit of position i is axis 2(m-1-i) of the (2,) * 2m view, its bra bit the next
        axes = tuple(range(0, 2 * m, 2)) + tuple(range(1, 2 * m, 2))
        return self.amps.reshape((2,) * 2 * m).transpose(axes).reshape(1 << m, 1 << m)

    def _qubits(self, places: tuple) -> tuple[int, tuple]:
        return (2 * len(self.pos), tuple(2 * i + 1 for i in places)
                + tuple(2 * i for i in places))

    def apply(self, op) -> None:
        key = op.key
        s = self.superops[key] if key in self.superops else self._channel(op)
        if s is not None:
            kernel = self._kernel(op, s)
            if kernel is not None:
                apply_gate(self.amps, kernel, self.work)

    def _channel(self, op) -> np.ndarray | None:
        """The op's superoperator with its noise composed after it, or None
        when the op leaves rho unchanged; built once per op key, and each
        noise stage once per ("noise", opcode, wires, duration). A fused
        run is the product of its gates' channels, so noise still follows
        each of them."""
        key = op.key
        if key in self.superops:
            return self.superops[key]
        if op.opcode == "fused":
            s = self._channel(op.run[0])
            for gate in op.run[1:]:
                s = self._channel(gate) @ s
        else:
            s = None
            if op.gate:
                s = _superop([op.matrix])
            elif op.opcode == "reset":
                s = _superop(_RESET_KRAUS)
            if self.device is not None and op.opcode != "barrier":
                dur = instruction_duration_ns(op.instr, op.wires, self.device)
                stage = ("noise", op.opcode, op.wires, dur)
                if stage not in self.superops:
                    self.superops[stage] = _noise_stage(self.device, *stage[1:])
                noise = self.superops[stage]
                if noise is not None:
                    s = noise if s is None else noise @ s
        self.superops[key] = s
        return s

    def _diagonal(self) -> np.ndarray:
        """The diagonal over the folded positions, position i its bit i."""
        return self.amps[_diagonal_index(len(self.pos))].real

    def p_one(self, op) -> float:
        w = op.wires[0]
        self._fold((w,))
        ones = float(self._diagonal().reshape(-1, 2, 1 << self.pos[w])[:, 1].sum())
        return min(max(ones, 0.0), 1.0)

    def collapse(self, op, bit: int) -> None:
        w = op.wires[0]
        self._fold((w,))
        # zero the other outcome on the ket (qubit 2i + 1) and bra (qubit 2i) side
        i = self.pos[w]
        for b in (2 * i + 1, 2 * i):
            self.amps.reshape(-1, 2, 1 << b)[:, 1 - bit] = 0.0
        self.amps /= max(float(self._diagonal().sum()), 1e-300)

    def sample(self, qubits, count: int, rng, readout) -> dict[int, int]:
        self.settle()
        p = np.maximum(self._diagonal(), 0.0)
        return sample_marginal(p / p.sum(), self.wires, qubits, count, rng, readout)


def _program(circuit: Circuit, device: DeviceConfig | None, shots: int = 1,
             seed: int = 0) -> Program:
    """The circuit's program, checked for a run of ``shots`` on ``device``."""
    if device is not None and not isinstance(device, DeviceConfig):
        raise DeviceConfigError(f"device must be a DeviceConfig, got {type(device).__name__}")
    program = Program(circuit)
    program.check_limits("density-matrix", DEFAULT_DM_CAP, "QFLOW_QUBIT_CAP_DM", shots, seed)
    if device is not None and program.wires and program.wires[-1] >= device.num_qubits:
        raise SimulationError(f"qubit {program.wires[-1]} is not on device '{device.name}'")
    return program


def dm_evolve(circuit: Circuit, device: DeviceConfig | None = None) -> np.ndarray:
    """Final density matrix of a condition-free circuit (measurements are
    not collapsed). Useful for analytic noise checks."""
    program = _program(circuit, device)
    if any(op.condition is not None for op in program.ops):
        raise SimulationError("dm_evolve does not evaluate classical conditions")
    state = _DensityState(range(program.n), device)
    evolve(program, state)
    return state.matrix()


def fidelity(rho: np.ndarray, psi: np.ndarray) -> float:
    """State fidelity <psi|rho|psi>, clamped into [0, 1]. An input that is
    not a numeric array of matching shape, or a value outside [0, 1] by more
    than 1e-10 (NaN included), raises SimulationError."""
    try:
        rho = np.asarray(rho, dtype=complex)
        psi = np.asarray(psi, dtype=complex).reshape(-1)
    except (TypeError, ValueError, OverflowError) as e:
        raise SimulationError(f"fidelity needs numeric arrays: {e}") from None
    if rho.shape != (psi.size, psi.size):
        raise SimulationError(
            f"dimension mismatch: rho is {rho.shape}, psi has length {psi.size}"
        )
    with np.errstate(invalid="ignore", over="ignore"):  # NaN is refused below
        value = float(np.real(np.vdot(psi, rho @ psi)))
    if not -1e-10 <= value <= 1.0 + 1e-10:
        raise SimulationError(f"fidelity {value} outside [0, 1] tolerance")
    return min(max(value, 0.0), 1.0)


def dm_run(circuit: Circuit, device: DeviceConfig | None = None, seed: int = 42,
           shots: int = 1024) -> RunResult:
    """Noisy (or noiseless) density-matrix run.

    With a device, gate errors, T1/T2 relaxation, delay decoherence, and
    readout confusion all apply; an op on a qubit the device lacks raises
    SimulationError. Counts come from the shot walker of qflow.program.
    With no device and no reset nothing can mix the state, so the walk runs
    on a state vector and gives rho's counts; a reset, a channel on rho that
    the state vector would split into branches, keeps rho (see "Pure runs"
    in the module docstring). ``mem_bytes_estimate`` is 16 per entry of rho
    either way. The fidelity needs a device and a pure reference state, so
    the result has one only for unitary programs (no reset, condition or
    mid-circuit measurement), which the walker runs as one leaf."""
    t0 = time.perf_counter()
    program = _program(circuit, device, shots, seed)
    if device is None and all(op.opcode != "reset" for op in program.ops):
        state = _SVState(program.wires)  # nothing mixes it: rho stays |psi><psi|
    else:
        state = _DensityState(program.wires, device)
    counts = walk(program, state, shots, seed, device.readout if device is not None else None)
    fid = None
    if device is not None and program.unitary:
        reference = _SVState(program.wires)
        evolve(program, reference)
        reference.settle()
        fid = fidelity(state.matrix(), reference.amps)

    wall = (time.perf_counter() - t0) * 1000.0
    return RunResult(
        backend="dm",
        n_qubits=program.n,
        shots=shots,
        seed=seed,
        counts=counts,
        fidelity=fid,
        wall_time_ms=wall,
        mem_bytes_estimate=16 * 4 ** len(program.wires),
    )
