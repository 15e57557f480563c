"""Dense state-vector simulation.

The state is a complex array of length 2**n in little-endian wire order
(qubit 0 is the least significant bit of a basis index); memory is exactly
16 * 2**n bytes. Gate kernels update amplitude pairs in place over the first
array axis, so the same kernels drive the density-matrix backend.

A unitary program (measurements all terminal, no reset, no classical
condition; see qflow.program) runs in a single pass with counts drawn from
the final probability vector; anything else runs shot-by-shot trajectories
with seeded measurement collapse, the gate prefix before the first
measure, reset or condition evolved once and copied per shot.
"""

from __future__ import annotations

import time

import numpy as np

from .circuit import Circuit
from .errors import SimulationError
from .gates import unitary_of
from .program import Program, evolve, run_shots, sample_terminal
from .results import RunResult

__all__ = ["sv_run", "sv_statevector", "DEFAULT_SV_CAP"]

DEFAULT_SV_CAP = 26

_X = unitary_of("x")


# -- kernels (operate on the first axis; state may be 1-D or 2-D) -------------

def apply_1q(state: np.ndarray, n: int, w: int, m) -> None:
    idx = np.arange(1 << n)
    i0 = idx[(idx >> w) & 1 == 0]
    i1 = i0 | (1 << w)
    a = state[i0]
    b = state[i1]
    state[i0] = m[0][0] * a + m[0][1] * b
    state[i1] = m[1][0] * a + m[1][1] * b


def apply_2q(state: np.ndarray, n: int, wa: int, wb: int, m) -> None:
    """m is local-ordered with the first operand (wa) as the high bit."""
    idx = np.arange(1 << n)
    base = idx[((idx >> wa) & 1 == 0) & ((idx >> wb) & 1 == 0)]
    i = (base, base | (1 << wb), base | (1 << wa), base | (1 << wa) | (1 << wb))
    v = [state[j] for j in i]
    for row in range(4):
        state[i[row]] = m[row][0] * v[0] + m[row][1] * v[1] + m[row][2] * v[2] + m[row][3] * v[3]


def apply_gate(state: np.ndarray, n: int, wires, m) -> None:
    if len(wires) == 1:
        apply_1q(state, n, wires[0], m)
    else:
        apply_2q(state, n, wires[0], wires[1], m)


# -- state ---------------------------------------------------------------------

def _measure_probability_one(state: np.ndarray, n: int, w: int) -> float:
    idx = np.arange(1 << n)
    sel = (idx >> w) & 1 == 1
    return float(np.sum(np.abs(state[sel]) ** 2))


def _collapse(state: np.ndarray, n: int, w: int, bit: int, prob: float) -> None:
    idx = np.arange(1 << n)
    kill = (idx >> w) & 1 != bit
    state[kill] = 0.0
    state /= np.sqrt(prob)


class _SVState:
    """Amplitudes of one trajectory, driven op by op by qflow.program."""

    def __init__(self, n: int, amps: np.ndarray | None = None):
        self.n = n
        if amps is None:
            amps = np.zeros(1 << n, dtype=complex)
            amps[0] = 1.0
        self.amps = amps

    def copy(self) -> "_SVState":
        return _SVState(self.n, self.amps.copy())

    def apply(self, op) -> None:
        if op.gate:
            apply_gate(self.amps, self.n, op.wires, op.matrix)

    def measure(self, op, rng) -> int:
        w = op.wires[0]
        p1 = _measure_probability_one(self.amps, self.n, w)
        bit = 1 if rng.random() < p1 else 0
        _collapse(self.amps, self.n, w, bit, p1 if bit else 1.0 - p1)
        return bit

    def reset(self, op, rng) -> None:
        if self.measure(op, rng):
            apply_1q(self.amps, self.n, op.wires[0], _X)

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amps) ** 2

    def sample_all(self, rng) -> int:
        probs = self.probabilities()
        return int(rng.choice(probs.size, p=probs / probs.sum()))


def sv_statevector(circuit: Circuit, qubit_cap: int | None = None) -> np.ndarray:
    """Final amplitudes of the unitary part of a circuit (measurements are
    ignored; reset and classical conditions are rejected)."""
    program = Program(circuit)
    program.check_limits("state-vector", qubit_cap, DEFAULT_SV_CAP, "QFLOW_QUBIT_CAP_SV")
    for op in program.ops:
        if op.condition is not None or op.opcode == "reset":
            raise SimulationError(
                "sv_statevector requires a purely unitary circuit "
                f"(found '{op.opcode}'{' with condition' if op.condition else ''})"
            )
    state = _SVState(program.n)
    evolve(program, state)
    return state.amps


def sv_run(
    circuit: Circuit,
    seed: int = 42,
    shots: int = 1024,
    qubit_cap: int | None = None,
) -> RunResult:
    """Ideal state-vector run: evolve, then sample `shots` outcomes.

    Delay is an identity here (no noise model). A unitary program (see
    qflow.program) runs once and its counts come from the final
    probabilities, with the final amplitudes attached; anything else runs
    per-shot trajectories with seeded collapse.
    """
    t0 = time.perf_counter()
    program = Program(circuit)
    program.check_limits("state-vector", qubit_cap, DEFAULT_SV_CAP, "QFLOW_QUBIT_CAP_SV", shots)
    state = _SVState(program.n)
    if program.unitary:
        evolve(program, state)
        counts = sample_terminal(program, state.probabilities(), shots, seed)
        amplitudes = state.amps
    else:
        counts = run_shots(program, state, shots, np.random.default_rng(seed))
        amplitudes = None
    wall = (time.perf_counter() - t0) * 1000.0
    return RunResult(
        backend="sv",
        n_qubits=program.n,
        shots=shots,
        seed=seed,
        counts=counts,
        wall_time_ms=wall,
        mem_bytes_estimate=16 * (1 << program.n),
        amplitudes=amplitudes,
    )
