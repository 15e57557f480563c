"""Stabilizer tableau simulation of Clifford circuits.

The tableau is the standard binary-symplectic layout: rows 0..n-1 are
destabilizers, rows n..2n-1 stabilizers, row 2n is scratch; each row holds
x bits, z bits, and a sign bit. h, s, and cx update the tableau directly;
every other Clifford gate is applied as a short generator word, e.g.
sdg = s s s, x = h s s h, swap = three cx. Parameterized gates are accepted
when their angles sit exactly on the pi/2 lattice (within 1e-9, the same
snap tolerance the transpiler emits), so rz(k*pi/2) becomes a power of s;
anything else raises NonCliffordError naming the gate and angle.

Measurement follows the usual deterministic/random split: if some
stabilizer anticommutes with Z_q the outcome is a fresh random bit and the
tableau is updated by row sums; otherwise the scratch row accumulates the
forced sign. Counts always come from per-shot trajectories driven by
qflow.program: the gate prefix before the first measure, reset or condition
runs once, and each shot replays the rest on a copy of that tableau.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .circuit import Circuit
from .decompose import _two_q_template
from .errors import NonCliffordError, SimulationError
from .euler import lattice_power
from .gates import LIBRARY
from .program import Program, run_shots
from .results import RunResult

__all__ = ["StabilizerTableau", "stab_run", "stab_evolve", "tableau_to_statevector",
           "DEFAULT_STAB_CAP", "STATEVECTOR_CAP"]

DEFAULT_STAB_CAP = 10_000
STATEVECTOR_CAP = 12


class StabilizerTableau:
    """Aaronson-Gottesman tableau for n qubits."""

    def __init__(self, n: int):
        self.n = n
        self.x = np.zeros((2 * n + 1, n), dtype=np.uint8)
        self.z = np.zeros((2 * n + 1, n), dtype=np.uint8)
        self.r = np.zeros(2 * n + 1, dtype=np.uint8)
        for i in range(n):
            self.x[i, i] = 1          # destabilizer X_i
            self.z[n + i, i] = 1      # stabilizer Z_i

    def copy(self) -> "StabilizerTableau":
        t = StabilizerTableau.__new__(StabilizerTableau)
        t.n = self.n
        t.x = self.x.copy()
        t.z = self.z.copy()
        t.r = self.r.copy()
        return t

    # -- primitive updates ---------------------------------------------------

    def h(self, q: int):
        xq = self.x[:, q].copy()
        zq = self.z[:, q]
        self.r ^= xq & zq
        self.x[:, q] = zq
        self.z[:, q] = xq

    def s(self, q: int):
        self.r ^= self.x[:, q] & self.z[:, q]
        self.z[:, q] ^= self.x[:, q]

    def cx(self, c: int, t: int):
        self.r ^= self.x[:, c] & self.z[:, t] & (self.x[:, t] ^ self.z[:, c] ^ 1)
        self.x[:, t] ^= self.x[:, c]
        self.z[:, c] ^= self.z[:, t]

    def _rowsum(self, h: int, i: int):
        """Row h := row h * row i with sign tracking (phases mod 4)."""
        x1 = self.x[i].astype(np.int16)
        z1 = self.z[i].astype(np.int16)
        x2 = self.x[h].astype(np.int16)
        z2 = self.z[h].astype(np.int16)
        g = (
            x1 * z1 * (z2 - x2)
            + x1 * (1 - z1) * (z2 * (2 * x2 - 1))
            + (1 - x1) * z1 * (x2 * (1 - 2 * z2))
        )
        total = 2 * int(self.r[h]) + 2 * int(self.r[i]) + int(g.sum())
        self.r[h] = 1 if total % 4 == 2 else 0
        self.x[h] ^= self.x[i]
        self.z[h] ^= self.z[i]

    # -- measurement -----------------------------------------------------------

    def measure(self, q: int, rng, force: int | None = None) -> tuple[int, bool]:
        """Measure qubit q in Z. Returns (outcome, was_random)."""
        n = self.n
        p = -1
        for i in range(n, 2 * n):
            if self.x[i, q]:
                p = i
                break
        if p >= 0:
            for i in range(2 * n):
                if i != p and self.x[i, q]:
                    self._rowsum(i, p)
            self.x[p - n] = self.x[p]
            self.z[p - n] = self.z[p]
            self.r[p - n] = self.r[p]
            self.x[p] = 0
            self.z[p] = 0
            self.z[p, q] = 1
            outcome = int(rng.integers(2)) if force is None else force
            self.r[p] = outcome
            return outcome, True
        # deterministic: accumulate destabilizer rows into scratch
        self.x[2 * n] = 0
        self.z[2 * n] = 0
        self.r[2 * n] = 0
        for i in range(n):
            if self.x[i, q]:
                self._rowsum(2 * n, i + n)
        return int(self.r[2 * n]), False

    def reset(self, q: int, rng):
        outcome, _ = self.measure(q, rng)
        if outcome:
            self.apply("x", (), (q,))

    # -- gate dispatch -----------------------------------------------------------

    _WORDS = {
        "id": (), "u0": (),
        "h": ("h",), "s": ("s",), "sdg": ("s", "s", "s"),
        "z": ("s", "s"), "x": ("h", "s", "s", "h"),
        "y": ("h", "s", "s", "h", "s", "s"),
        "sx": ("s", "s", "s", "h", "s", "s", "s"),
        "sxdg": ("s", "h", "s"),
    }

    def _word_1q(self, word, q: int):
        for prim in word:
            if prim == "h":
                self.h(q)
            else:
                self.s(q)

    def _z_power(self, k: int, q: int):
        for _ in range(k % 4):
            self.s(q)

    def apply(self, opcode: str, params: tuple, wires: tuple):
        word = self._WORDS.get(opcode)
        if word is not None:
            self._word_1q(word, wires[0])
            return
        if opcode == "cx":
            self.cx(wires[0], wires[1])
            return
        if opcode == "cz":
            self.h(wires[1])
            self.cx(wires[0], wires[1])
            self.h(wires[1])
            return
        if opcode == "cy":
            self._word_1q(("s", "s", "s"), wires[1])
            self.cx(wires[0], wires[1])
            self.s(wires[1])
            return
        if opcode == "swap":
            self.cx(wires[0], wires[1])
            self.cx(wires[1], wires[0])
            self.cx(wires[0], wires[1])
            return
        if opcode in ("rz", "u1", "p"):
            self._z_power(self._lattice(opcode, params[0]), wires[0])
            return
        if opcode == "rx":
            q = wires[0]
            self.h(q)
            self._z_power(self._lattice(opcode, params[0]), q)
            self.h(q)
            return
        if opcode == "ry":
            q = wires[0]
            k = self._lattice(opcode, params[0])
            self._word_1q(("s", "s", "s", "h"), q)
            self._z_power(k, q)
            self._word_1q(("h", "s"), q)
            return
        if opcode in ("u3", "u", "u2"):
            if opcode == "u2":
                theta, phi, lam = math.pi / 2, params[0], params[1]
            else:
                theta, phi, lam = params
            q = wires[0]
            self._z_power(self._lattice(opcode, lam), q)
            k = self._lattice(opcode, theta)
            self._word_1q(("s", "s", "s", "h"), q)
            self._z_power(k, q)
            self._word_1q(("h", "s"), q)
            self._z_power(self._lattice(opcode, phi), q)
            return
        spec = LIBRARY.get(opcode)
        if spec is not None and spec.arity == 2:
            # parameterized two-qubit gates reduce to u3/cx pieces; each piece
            # must itself be Clifford
            try:
                for sub_op, sub_params, slots in _two_q_template(opcode, params):
                    self.apply(sub_op, sub_params, tuple(wires[s] for s in slots))
                return
            except NonCliffordError:
                raise self._reject(opcode, params) from None
        raise self._reject(opcode, params)

    def _lattice(self, opcode: str, angle: float) -> int:
        k = lattice_power(angle)
        if k is None:
            raise self._reject(opcode, (angle,))
        return k

    @staticmethod
    def _reject(opcode: str, params: tuple) -> NonCliffordError:
        if params:
            angles = ", ".join(repr(float(p)) for p in params)
            return NonCliffordError(
                f"non-Clifford gate '{opcode}' (angle {angles} is not a multiple of pi/2)"
            )
        return NonCliffordError(f"non-Clifford gate '{opcode}'")


def tableau_to_statevector(tab: StabilizerTableau) -> np.ndarray:
    """The unique state (up to global phase) stabilized by the tableau's
    stabilizer rows, via the projector product prod_i (I + S_i)/2 applied to
    a basis seed found by simulated measurement."""
    n = tab.n
    if n > STATEVECTOR_CAP:
        raise SimulationError(
            f"{n} qubits exceeds the tableau-to-statevector cap {STATEVECTOR_CAP}"
        )
    probe = tab.copy()
    seed_bits = 0
    for q in range(n):
        outcome, _ = probe.measure(q, rng=None, force=0)
        seed_bits |= outcome << q

    dim = 1 << n
    idx = np.arange(dim)
    psi = np.zeros(dim, dtype=complex)
    psi[seed_bits] = 1.0
    for row in range(n, 2 * n):
        xmask = 0
        zmask = 0
        y_count = 0
        for q in range(n):
            if tab.x[row, q]:
                xmask |= 1 << q
            if tab.z[row, q]:
                zmask |= 1 << q
            if tab.x[row, q] and tab.z[row, q]:
                y_count += 1
        parity = np.zeros(dim, dtype=np.int64)
        rest = zmask
        while rest:
            b = rest & -rest
            parity ^= (idx // b) & 1
            rest ^= b
        phase = ((-1.0) ** int(tab.r[row])) * (1j ** (y_count % 4))
        s_psi = np.empty_like(psi)
        s_psi[idx ^ xmask] = phase * np.where(parity, -1.0, 1.0) * psi
        psi = 0.5 * (psi + s_psi)
    norm = np.linalg.norm(psi)
    if norm < 1e-12:
        raise SimulationError("projector product annihilated the seed state")
    return psi / norm


# -- running circuits ------------------------------------------------------------

class _StabState:
    """A tableau driven op by op by qflow.program."""

    def __init__(self, tab: StabilizerTableau):
        self.tab = tab

    def copy(self) -> "_StabState":
        return _StabState(self.tab.copy())

    def apply(self, op) -> None:
        if op.gate:
            self.tab.apply(op.opcode, op.instr.params, op.wires)

    def measure(self, op, rng) -> int:
        return self.tab.measure(op.wires[0], rng)[0]

    def reset(self, op, rng) -> None:
        self.tab.reset(op.wires[0], rng)

    def sample_all(self, rng) -> int:
        """Measure every qubit in turn; this consumes the shot's tableau."""
        value = 0
        for q in range(self.tab.n):
            value |= self.tab.measure(q, rng)[0] << q
        return value


def stab_evolve(circuit: Circuit, seed: int = 42) -> StabilizerTableau:
    """Run the gate portion of a Clifford circuit once (measure and reset use
    the seeded generator; conditions are rejected)."""
    program = Program(circuit)
    rng = np.random.default_rng(seed)
    state = _StabState(StabilizerTableau(program.n))
    for op in program.ops:
        if op.condition is not None:
            raise SimulationError("stab_evolve does not evaluate classical conditions")
        if op.opcode == "measure":
            state.measure(op, rng)
        elif op.opcode == "reset":
            state.reset(op, rng)
        else:
            state.apply(op)
    return state.tab


def stab_run(
    circuit: Circuit,
    seed: int = 42,
    shots: int = 1024,
    qubit_cap: int = DEFAULT_STAB_CAP,
) -> RunResult:
    """Clifford run with per-shot trajectory sampling.

    The gate prefix before the first measure, reset or condition runs once;
    each shot replays the rest of the circuit on a copy of that tableau, so
    every reset and random measurement draws afresh per shot. A circuit
    without measurements is sampled by measuring every qubit.
    """
    t0 = time.perf_counter()
    program = Program(circuit)
    program.check_limits("stabilizer", qubit_cap, DEFAULT_STAB_CAP, shots=shots)
    state = _StabState(StabilizerTableau(program.n))
    counts = run_shots(program, state, shots, np.random.default_rng(seed))
    wall = (time.perf_counter() - t0) * 1000.0
    return RunResult(
        backend="stab",
        n_qubits=program.n,
        shots=shots,
        seed=seed,
        counts=counts,
        wall_time_ms=wall,
        mem_bytes_estimate=base_mem(program.n),
    )


def base_mem(n: int) -> int:
    # x and z blocks plus the sign column
    return 2 * (2 * n + 1) * n + (2 * n + 1)
