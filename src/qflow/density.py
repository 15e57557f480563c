"""Density-matrix simulation with device noise.

rho is held as a flat vector of 4**m complex numbers (16 * 4**m bytes) over
the m wires a run touches, the row-major (2**m, 2**m) matrix read as a state
of 2m qubits: the ket bit of the wire at position i is qubit m+i and its bra
bit is qubit i. A channel with Kraus operators K on some wires is then the
one matrix sum K (x) conj(K) on (ket wires..., bra wires...), applied by the
state-vector kernel.

Touched wires: ``dm_run`` holds rho over the wires some op other than a
barrier touches, in ascending order, since every other wire stays |0>. Ops
keep their global wires, so device lookups (errors, T1/T2, durations,
readout) use them, while kernels, ``p_one``, ``collapse`` and the leaf
draw use positions. When nothing is measured a leaf still keys its counts
over all qubits, and the untouched ones read 0. ``dm_evolve`` holds every
wire, since it returns the full matrix.

Per gate, with a device attached: unitary, then a depolarizing channel with
the gate's error probability on its operands (joint two-qubit channel for
two-qubit gates), then thermal relaxation on each operand for the gate's
duration. A delay applies relaxation only, for cycles * cycle_time_ns. The
noise is one superoperator per noise stage, keyed by (opcode, wires,
duration), with each operand's 4x4 relaxation placed on its own (ket, bra)
pair; a gate's channel is that stage times the gate's superoperator, built
once per (opcode, params, wires). Every channel and stage is built once per
run and shared by every op that repeats it and by every branch.
Measurement probabilities pass through each qubit's readout confusion.

Runs of one-qubit gates are fused, as for the state vector (see
qflow.program). A run's channel is the product of its gates' 4x4 channels,
each with its noise composed after it, so noise still follows each original
gate and the result is exact. Each channel becomes a state-vector kernel
once, when it is built, and inherits its class from its zero pattern: the
superoperator of a diagonal unitary is diagonal and that of a permutation
with phases is a permutation with phases on (ket, bra), so both run as
slice updates.

Every run goes through the shot walker of qflow.program: ``p_one`` reads
the diagonal and ``collapse`` zeroes the other outcome on ket and bra; a
reset stays its Kraus channel and never branches. With a device, readout
confusion splits the reported bit of a mid-circuit measure, and a leaf
samples the diagonal's marginal through it.

The reported fidelity is <psi|rho|psi> against the ideal state-vector run of
the same program with noise disabled, read on the touched wires. It needs
that pure reference, so it is computed only for unitary programs (no reset,
condition or mid-circuit measure); the field is omitted elsewhere.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .circuit import Circuit
from .device import DeviceConfig
from .errors import SimulationError
from .noise import depolarizing_kraus, thermal_relaxation_kraus
from .program import Program, evolve, walk
from .results import RunResult, sample_marginal
from .schedule import instruction_duration_ns
from .statevector import Kernel, _SVState, apply_gate

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
        s = _superop(depolarizing_kraus(p, k))
    relax = []
    for w in wires if dur > 0.0 else ():
        t1_ns, t2_ns = device.t1_us[w] * 1000.0, device.t2_us[w] * 1000.0
        relax.append(_IDENTITY if math.isinf(t1_ns) and math.isinf(t2_ns)
                     else _superop(thermal_relaxation_kraus(dur, t1_ns, t2_ns)))
    if any(one is not _IDENTITY for one in relax):
        # operand j's 4x4 takes row axes (j, k + j) and column axes (2k + j, 3k + j)
        terms = []
        for j, one in enumerate(relax):
            terms += [one.reshape(2, 2, 2, 2), [j, k + j, 2 * k + j, 3 * k + j]]
        joint = np.einsum(*terms, list(range(4 * k))).reshape(1 << (2 * k), 1 << (2 * k))
        s = joint if s is None else joint @ s
    return s


class _DensityState:
    """rho of one run or branch over the given global wires (ascending),
    driven op by op by qflow.program's walker over its fused ops. Ops keep
    their global wires; a wire's position in ``wires`` is its qubit in rho.
    Copies share two caches: ``superops``, the channel of each op key and
    the noise stage of each ("noise", opcode, wires, duration), and
    ``kernels``, the kernel of each op key."""

    fuses = True
    splits_reset = False

    def __init__(self, wires, device: DeviceConfig | None, rho: np.ndarray | None = None,
                 superops: dict | None = None, kernels: dict | None = None):
        self.wires = tuple(wires)
        self.pos = {w: i for i, w in enumerate(self.wires)}
        self.n = len(self.wires)
        self.device = device
        if rho is None:
            rho = np.zeros(1 << (2 * self.n), dtype=complex)
            rho[0] = 1.0
        self.rho = rho
        self.superops = {} if superops is None else superops
        self.kernels = {} if kernels is None else kernels

    def copy(self) -> "_DensityState":
        return _DensityState(self.wires, self.device, self.rho.copy(), self.superops,
                             self.kernels)

    def matrix(self) -> np.ndarray:
        return self.rho.reshape(1 << self.n, 1 << self.n)

    def apply(self, op) -> None:
        key = op.key
        if key not in self.kernels:
            s = self._channel(op)
            if s is None:  # a barrier's wires may be ones rho does not hold
                self.kernels[key] = None
            else:
                local = tuple(self.pos[w] for w in op.wires)
                self.kernels[key] = Kernel(s, 2 * self.n, tuple(self.n + q for q in local) + local)
        kernel = self.kernels[key]
        if kernel is not None:
            apply_gate(self.rho, kernel)

    def _channel(self, op) -> np.ndarray | None:
        """The op's superoperator with its noise composed after it, or None
        when the op leaves rho unchanged; built once per op key. A fused
        run is the product of its gates' channels, so noise still follows
        each of them."""
        key = op.key
        if key in self.superops:
            return self.superops[key]
        device = self.device
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
            if device is not None and op.opcode != "barrier":
                dur = instruction_duration_ns(op.instr, op.wires, device)
                stage = ("noise", op.opcode, op.wires, dur)
                if stage not in self.superops:
                    self.superops[stage] = _noise_stage(device, *stage[1:])
                noise = self.superops[stage]
                if noise is not None:
                    s = noise if s is None else noise @ s
        self.superops[key] = s
        return s

    def _diagonal(self) -> np.ndarray:
        return self.rho[::(1 << self.n) + 1].real

    def p_one(self, op) -> float:
        q = self.pos[op.wires[0]]
        ones = float(self._diagonal().reshape(-1, 2, 1 << q)[:, 1].sum())
        return min(max(ones, 0.0), 1.0)

    def collapse(self, op, bit: int) -> None:
        # zero the other outcome on the ket (qubit n+q) and bra (qubit q) side
        q = self.pos[op.wires[0]]
        for b in (self.n + q, q):
            self.rho.reshape(-1, 2, 1 << b)[:, 1 - bit] = 0.0
        self.rho /= max(float(self._diagonal().sum()), 1e-300)

    def sample(self, qubits, count: int, rng, readout) -> dict[int, int]:
        p = np.maximum(self._diagonal(), 0.0)
        held = [j for j, q in enumerate(qubits) if q in self.pos]
        counts = sample_marginal(p / p.sum(), self.n, [self.pos[qubits[j]] for j in held], count,
                                 rng, readout and [readout[w] for w in self.wires])
        if len(held) == len(qubits):
            return counts
        # a qubit rho does not hold reads 0: bit i of a draw is bit held[i]
        return {sum(((v >> i) & 1) << j for i, j in enumerate(held)): k
                for v, k in counts.items()}


def dm_evolve(circuit: Circuit, device: DeviceConfig | None = None,
              qubit_cap: int | None = None) -> np.ndarray:
    """Final density matrix of a condition-free circuit (measurements are
    not collapsed). Useful for analytic noise checks."""
    program = Program(circuit)
    program.check_limits("density-matrix", qubit_cap, DEFAULT_DM_CAP, "QFLOW_QUBIT_CAP_DM")
    if any(op.condition is not None for op in program.ops):
        raise SimulationError("dm_evolve does not evaluate classical conditions")
    state = _DensityState(range(program.n), device)
    evolve(program, state)
    return state.matrix()


def fidelity(rho: np.ndarray, psi: np.ndarray) -> float:
    """State fidelity <psi|rho|psi>, clamped into [0, 1]."""
    rho = np.asarray(rho)
    psi = np.asarray(psi).reshape(-1)
    if rho.shape != (psi.size, psi.size):
        raise SimulationError(
            f"dimension mismatch: rho is {rho.shape}, psi has length {psi.size}"
        )
    value = float(np.real(np.vdot(psi, rho @ psi)))
    if value < -1e-10 or value > 1.0 + 1e-10:
        raise SimulationError(f"fidelity {value} outside [0, 1] tolerance")
    return min(max(value, 0.0), 1.0)


def dm_run(
    circuit: Circuit,
    device: DeviceConfig | None = None,
    seed: int = 42,
    shots: int = 1024,
    compute_fidelity: bool | None = None,
    qubit_cap: int | None = None,
) -> RunResult:
    """Noisy (or noiseless) density-matrix run.

    With a device, gate errors, T1/T2 relaxation, delay decoherence, and
    readout confusion all apply. Counts come from the shot walker of
    qflow.program. The fidelity needs a pure reference state, so it exists
    only for unitary programs (no reset, condition or mid-circuit
    measurement), which the walker runs as one leaf: compute_fidelity
    defaults to "device given and the program is unitary", and
    compute_fidelity=True on any other program raises SimulationError.
    rho holds only the touched wires (see the module docstring), and
    mem_bytes_estimate is its size; n_qubits and the qubit cap keep the
    declared width."""
    t0 = time.perf_counter()
    program = Program(circuit)
    program.check_limits("density-matrix", qubit_cap, DEFAULT_DM_CAP, "QFLOW_QUBIT_CAP_DM", shots,
                         seed)
    if compute_fidelity and not program.unitary:
        raise SimulationError(
            "fidelity is unavailable for circuits with reset, classical conditions "
            "or mid-circuit measurement"
        )
    # the wires some op other than a barrier touches; the others stay |0>
    state = _DensityState(sorted({w for op in program.ops if op.opcode != "barrier"
                                  for w in op.wires}), device)
    counts = walk(program, state, shots, seed, device.readout if device is not None else None)
    fid = None
    if compute_fidelity or (compute_fidelity is None and device is not None and program.unitary):
        reference = _SVState(program.n)
        evolve(program, reference)
        # the reference's amplitudes with every wire rho does not hold at 0
        index = np.zeros(1, dtype=np.intp)
        for w in state.wires:
            index = np.concatenate([index, index + (1 << w)])
        fid = fidelity(state.matrix(), reference.amps[index])

    wall = (time.perf_counter() - t0) * 1000.0
    return RunResult(
        backend="dm",
        n_qubits=program.n,
        shots=shots,
        seed=seed,
        counts=counts,
        fidelity=fid,
        wall_time_ms=wall,
        mem_bytes_estimate=16 * (1 << (2 * state.n)),
    )
