"""Density-matrix simulation with device noise.

rho is a dense 2**n x 2**n complex matrix (16 * 4**n bytes). Unitaries act
by the shared pair-update kernels on the ket side and conjugated on the bra
side; Kraus channels sum the conjugated updates per operator.

Per gate, with a device attached: unitary, then a depolarizing channel with
the gate's error probability on its operands (joint two-qubit channel for
two-qubit gates), then thermal relaxation on each operand for the gate's
duration. A delay applies relaxation only, for cycles * cycle_time_ns.
Measurement probabilities pass through each qubit's readout confusion.

A terminal program (no condition, nothing after a qubit's measurement; see
qflow.program) is evolved once, reset included as a Kraus channel, and its
counts come from the final diagonal. Anything else runs per-shot
trajectories: the prefix before the first measure, reset or condition is
evolved once, then each shot collapses a copy with seeded outcomes.

The reported fidelity is <psi|rho|psi> against the ideal state-vector run of
the same circuit with noise disabled. It needs that pure reference, so it is
computed only for unitary programs (terminal, no reset); the field is
omitted elsewhere.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .circuit import Circuit
from .device import DeviceConfig
from .errors import SimulationError
from .noise import thermal_relaxation_kraus
from .program import Program, evolve, run_shots, sample_terminal
from .results import RunResult
from .schedule import instruction_duration_ns
from .statevector import apply_gate, sv_statevector

__all__ = ["dm_run", "dm_evolve", "fidelity", "DEFAULT_DM_CAP"]

DEFAULT_DM_CAP = 13

_RESET_KRAUS = (
    np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex),  # keep |0>
    np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex),  # |1> -> |0>
)


class _DensityState:
    """rho of one run or trajectory, driven op by op by qflow.program; with a
    device every gate, delay and reset is followed by its noise."""

    def __init__(self, n: int, device: DeviceConfig | None, rho: np.ndarray | None = None):
        self.n = n
        self.device = device
        if rho is None:
            rho = np.zeros((1 << n, 1 << n), dtype=complex)
            rho[0, 0] = 1.0
        self.rho = rho

    def copy(self) -> "_DensityState":
        return _DensityState(self.n, self.device, self.rho.copy())

    def apply(self, op) -> None:
        if op.gate:
            self.apply_unitary(op.wires, op.matrix)
        self._noise(op)

    def reset(self, op, rng) -> None:
        self.apply_kraus(_RESET_KRAUS, op.wires)
        self._noise(op)

    def _noise(self, op) -> None:
        device = self.device
        if device is None or op.opcode == "barrier":
            return
        p = device.error_of(op.opcode, op.wires)
        if p > 0.0:
            self.depolarize(op.wires, p)
        dur = instruction_duration_ns(op.instr, op.wires, device)
        if dur > 0.0:
            for w in op.wires:
                self.thermal(w, dur, device.t1_us[w] * 1000.0, device.t2_us[w] * 1000.0)

    def apply_unitary(self, wires, m):
        apply_gate(self.rho, self.n, wires, m)            # ket side (rows)
        apply_gate(self.rho.T, self.n, wires, np.conj(m))  # bra side

    def apply_kraus(self, ops, wires):
        acc = np.zeros_like(self.rho)
        for k in ops:
            term = self.rho.copy()
            apply_gate(term, self.n, wires, k)
            apply_gate(term.T, self.n, wires, np.conj(k))
            acc += term
        self.rho = acc

    def depolarize(self, wires, p: float):
        """rho -> (1-p) rho + p * (I/2**k (x) tr_wires rho), done in place via
        the partial trace rather than 4**k Kraus terms."""
        if p <= 0.0:
            return
        n = self.n
        t = self.rho.reshape((2,) * (2 * n))
        if len(wires) == 1:
            ka, ba = n - 1 - wires[0], 2 * n - 1 - wires[0]
            tr = np.trace(t, axis1=ka, axis2=ba)
            mixed = np.zeros_like(t)
            view = np.moveaxis(mixed, (ka, ba), (0, 1))
            view[0, 0] = tr / 2.0
            view[1, 1] = tr / 2.0
        else:
            wa, wb = wires
            ka, kb = n - 1 - wa, n - 1 - wb
            baa, bab = 2 * n - 1 - wa, 2 * n - 1 - wb
            labels = list(range(2 * n))
            labels[baa] = labels[ka]
            labels[bab] = labels[kb]
            out_labels = [l for i, l in enumerate(labels) if i not in (ka, kb, baa, bab)]
            tr = np.einsum(t, labels, out_labels)
            mixed = np.zeros_like(t)
            view = np.moveaxis(mixed, (ka, kb, baa, bab), (0, 1, 2, 3))
            for i in (0, 1):
                for j in (0, 1):
                    view[i, j, i, j] = tr / 4.0
        self.rho = ((1.0 - p) * self.rho + p * mixed.reshape(self.rho.shape))

    def thermal(self, wire: int, t_ns: float, t1_ns: float, t2_ns: float):
        if t_ns <= 0.0 or (math.isinf(t1_ns) and math.isinf(t2_ns)):
            return
        self.apply_kraus(thermal_relaxation_kraus(t_ns, t1_ns, t2_ns), (wire,))

    def probabilities(self) -> np.ndarray:
        p = np.real(np.diag(self.rho)).copy()
        p[p < 0.0] = 0.0
        return p / p.sum()

    def sample_all(self, rng) -> int:
        return int(rng.choice(1 << self.n, p=self.probabilities()))

    def measure(self, op, rng) -> int:
        """Collapse onto a seeded outcome; with a device, then flip the
        reported bit with the qubit's readout error."""
        wire = op.wires[0]
        idx = np.arange(1 << self.n)
        one = (idx >> wire) & 1 == 1
        probs = np.real(np.diag(self.rho))
        p1 = float(probs[one].sum())
        p1 = min(max(p1, 0.0), 1.0)
        bit = 1 if rng.random() < p1 else 0
        keep = one if bit else ~one
        mask = np.zeros(1 << self.n, dtype=float)
        mask[keep] = 1.0
        self.rho = self.rho * np.outer(mask, mask)
        norm = max(p1 if bit else 1.0 - p1, 1e-300)
        self.rho /= norm
        if self.device is not None:
            p00, p11 = self.device.readout[wire]
            if rng.random() >= (p11 if bit else p00):
                bit ^= 1
        return bit


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
    return state.rho


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
    readout confusion all apply. A terminal program (see qflow.program) is
    evolved once and sampled from its final diagonal; anything else runs
    per-shot trajectories. The fidelity needs a pure reference state, so it
    exists only for unitary programs (no reset, condition or mid-circuit
    measurement): compute_fidelity defaults to "device given and the program
    is unitary", and compute_fidelity=True on any other program raises
    SimulationError."""
    t0 = time.perf_counter()
    program = Program(circuit)
    program.check_limits("density-matrix", qubit_cap, DEFAULT_DM_CAP, "QFLOW_QUBIT_CAP_DM", shots)
    if compute_fidelity and not program.unitary:
        raise SimulationError(
            "fidelity is unavailable for circuits with reset, classical conditions "
            "or mid-circuit measurement"
        )
    state = _DensityState(program.n, device)
    fid = None
    if program.terminal:
        evolve(program, state)
        readout = device.readout if device is not None else None
        counts = sample_terminal(program, state.probabilities(), shots, seed, readout)
        if compute_fidelity or (compute_fidelity is None and device is not None
                                and program.unitary):
            fid = fidelity(state.rho, sv_statevector(circuit, qubit_cap=program.n))
    else:
        counts = run_shots(program, state, shots, np.random.default_rng(seed))

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
