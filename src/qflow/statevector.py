"""Dense state-vector simulation.

The state is a complex array of length 2**n in little-endian wire order
(qubit 0 is the least significant bit of a basis index); memory is exactly
16 * 2**n bytes. One kernel, apply_gate, applies a matrix to any wires of a
flat state in place; the density-matrix backend drives it too, with rho as
a vector of 2n qubits.

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


# -- kernel ---------------------------------------------------------------------

def apply_gate(state: np.ndarray, n: int, wires, m) -> None:
    """Apply the 2**k x 2**k matrix m to wires of a 1-D state of n qubits, in
    place. m is local-ordered with the first wire as the high bit.

    Axis a of the reshaped state is qubit n-1-a. The wires' axes are moved to
    the front and one matmul of m against the (2**k, rest) block does the
    work (measured faster than moving them last, most of all on low wires).
    """
    k = len(wires)
    view = np.moveaxis(state.reshape((2,) * n), [n - 1 - w for w in wires], range(k))
    view[...] = (m @ view.reshape(1 << k, -1)).reshape(view.shape)


# -- state ---------------------------------------------------------------------

def _measure_probability_one(state: np.ndarray, w: int) -> float:
    # axis 1 of this view is qubit w
    return float(np.sum(np.abs(state.reshape(-1, 2, 1 << w)[:, 1]) ** 2))


def _collapse(state: np.ndarray, w: int, bit: int, prob: float) -> None:
    state.reshape(-1, 2, 1 << w)[:, 1 - bit] = 0.0
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
        p1 = _measure_probability_one(self.amps, w)
        bit = 1 if rng.random() < p1 else 0
        _collapse(self.amps, w, bit, p1 if bit else 1.0 - p1)
        return bit

    def reset(self, op, rng) -> None:
        if self.measure(op, rng):
            apply_gate(self.amps, self.n, op.wires, _X)

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
