"""Density-matrix simulation with device noise.

rho is held as a flat vector of 4**n complex numbers (16 * 4**n bytes), the
row-major (2**n, 2**n) matrix read as a state of 2n qubits: ket bit w is
qubit n+w and bra bit w is qubit w. A channel with Kraus operators K on some
wires is then the one matrix sum K (x) conj(K) on (ket wires..., bra
wires...), applied by the state-vector kernel.

Per gate, with a device attached: unitary, then a depolarizing channel with
the gate's error probability on its operands (joint two-qubit channel for
two-qubit gates), then thermal relaxation on each operand for the gate's
duration. A delay applies relaxation only, for cycles * cycle_time_ns.
These compose into one superoperator per distinct (opcode, params, wires),
built once per run and shared by every op that repeats it and by every
branch. Measurement probabilities pass through each qubit's readout
confusion.

Each superoperator becomes a state-vector kernel once, when it is built, and
inherits its class from its zero pattern: the superoperator of a diagonal
unitary is diagonal and that of a permutation with phases is a permutation
with phases on (ket, bra), so both run as slice updates. Without a device,
runs of one-qubit gates are fused first, as for the state vector; with one,
never, since noise follows each original gate.

Every run goes through the shot walker of qflow.program: ``p_one`` reads
the diagonal and ``collapse`` zeroes the other outcome on ket and bra; a
reset stays its Kraus channel and never branches. With a device, readout
confusion splits the reported bit of a mid-circuit measure, and a leaf
samples the diagonal's marginal through it.

The reported fidelity is <psi|rho|psi> against the ideal state-vector run of
the same program with noise disabled. It needs that pure reference, so it is
computed only for unitary programs (no reset, condition or mid-circuit
measure); the field is omitted elsewhere.
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


def _superop(kraus) -> np.ndarray:
    """sum K (x) conj(K) over the Kraus operators, in one contraction."""
    k = np.asarray(kraus)
    d = k.shape[-1]
    return np.einsum("kij,kab->iajb", k, k.conj()).reshape(d * d, d * d)


class _DensityState:
    """rho of one run or branch, driven op by op by qflow.program's walker;
    with a device every gate, delay and reset is followed by its noise, and
    without one the program's one-qubit runs are fused. Copies share the
    cache of superoperator kernels, keyed by the op's key."""

    splits_reset = False

    def __init__(self, n: int, device: DeviceConfig | None, rho: np.ndarray | None = None,
                 superops: dict | None = None):
        self.n = n
        self.device = device
        self.fuses = device is None
        if rho is None:
            rho = np.zeros(1 << (2 * n), dtype=complex)
            rho[0] = 1.0
        self.rho = rho
        self.superops = {} if superops is None else superops

    def copy(self) -> "_DensityState":
        return _DensityState(self.n, self.device, self.rho.copy(), self.superops)

    def matrix(self) -> np.ndarray:
        return self.rho.reshape(1 << self.n, 1 << self.n)

    def apply(self, op) -> None:
        key = op.key
        if key not in self.superops:
            s = self._channel(op)
            self.superops[key] = None if s is None else Kernel(
                s, 2 * self.n, tuple(self.n + w for w in op.wires) + op.wires)
        kernel = self.superops[key]
        if kernel is not None:
            apply_gate(self.rho, kernel)

    def _channel(self, op) -> np.ndarray | None:
        """The op's superoperator with its noise composed after it, or None
        when the op leaves rho unchanged."""
        s = None
        if op.gate:
            s = _superop([op.matrix])
        elif op.opcode == "reset":
            s = _superop(_RESET_KRAUS)
        device = self.device
        if device is None or op.opcode == "barrier":
            return s
        stages = []
        k = len(op.wires)
        p = device.error_of(op.opcode, op.wires)
        if p > 0.0:
            stages.append(_superop(depolarizing_kraus(p, k)))
        dur = instruction_duration_ns(op.instr, op.wires, device)
        for j, w in enumerate(op.wires if dur > 0.0 else ()):
            t1_ns, t2_ns = device.t1_us[w] * 1000.0, device.t2_us[w] * 1000.0
            if math.isinf(t1_ns) and math.isinf(t2_ns):
                continue
            # the one-qubit operators on operand j of the op (operand 0 is the high bit)
            left, right = np.eye(1 << j), np.eye(1 << (k - 1 - j))
            stages.append(_superop([np.kron(np.kron(left, a), right)
                                    for a in thermal_relaxation_kraus(dur, t1_ns, t2_ns)]))
        for stage in stages:
            s = stage if s is None else stage @ s
        return s

    def _diagonal(self) -> np.ndarray:
        return self.rho[::(1 << self.n) + 1].real

    def p_one(self, op) -> float:
        ones = float(self._diagonal().reshape(-1, 2, 1 << op.wires[0])[:, 1].sum())
        return min(max(ones, 0.0), 1.0)

    def collapse(self, op, bit: int) -> None:
        # zero the other outcome on the ket (qubit n+wire) and bra (qubit wire) side
        for q in (self.n + op.wires[0], op.wires[0]):
            self.rho.reshape(-1, 2, 1 << q)[:, 1 - bit] = 0.0
        self.rho /= max(float(self._diagonal().sum()), 1e-300)

    def sample(self, qubits, count: int, rng, readout) -> dict[int, int]:
        p = np.maximum(self._diagonal(), 0.0)
        return sample_marginal(p / p.sum(), self.n, qubits, count, rng, readout)


def dm_evolve(circuit: Circuit, device: DeviceConfig | None = None,
              qubit_cap: int | None = None) -> np.ndarray:
    """Final density matrix of a condition-free circuit (measurements are
    not collapsed). Useful for analytic noise checks."""
    program = Program(circuit)
    program.check_limits("density-matrix", qubit_cap, DEFAULT_DM_CAP, "QFLOW_QUBIT_CAP_DM")
    if any(op.condition is not None for op in program.ops):
        raise SimulationError("dm_evolve does not evaluate classical conditions")
    state = _DensityState(program.n, device)
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
    compute_fidelity=True on any other program raises SimulationError."""
    t0 = time.perf_counter()
    program = Program(circuit)
    program.check_limits("density-matrix", qubit_cap, DEFAULT_DM_CAP, "QFLOW_QUBIT_CAP_DM", shots,
                         seed)
    if compute_fidelity and not program.unitary:
        raise SimulationError(
            "fidelity is unavailable for circuits with reset, classical conditions "
            "or mid-circuit measurement"
        )
    state = _DensityState(program.n, device)
    counts = walk(program, state, shots, seed, device.readout if device is not None else None)
    fid = None
    if compute_fidelity or (compute_fidelity is None and device is not None and program.unitary):
        reference = _SVState(program.n)
        evolve(program, reference)
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
        mem_bytes_estimate=16 * (1 << (2 * program.n)),
    )
