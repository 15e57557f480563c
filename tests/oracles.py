"""Independent reference implementations used to check the library.

Everything here recomputes results without the code under test: the dense
unitary builder contracts each gate into every column of the identity with
tensordot, and embed_slow builds a gate's full matrix one basis state at a
time, sharing no code with the simulator's in-place kernel (the two
oracles are cross-checked in test_gates); distances come from
Floyd-Warshall instead of BFS, and so on.
"""

from __future__ import annotations

import numpy as np

from qflow.flatten import flatten
from qflow.gates import unitary_of

NON_UNITARY = ("measure", "barrier", "delay", "reset")


def apply_to_columns(arr: np.ndarray, m, wires, n: int) -> np.ndarray:
    """Apply a gate matrix (first operand = high local bit) to every column
    of a (2**n, B) array over little-endian global wires."""
    k = len(wires)
    shape = arr.shape
    t = arr.reshape((2,) * n + (-1,))
    axes_in = [n - 1 - w for w in wires]
    mt = np.asarray(m, complex).reshape((2,) * (2 * k))
    res = np.tensordot(mt, t, axes=(list(range(k, 2 * k)), axes_in))
    rest = [a for a in range(n + 1) if a not in axes_in]
    perm = [0] * (n + 1)
    for pos, a in enumerate(axes_in):
        perm[a] = pos
    for pos, a in enumerate(rest):
        perm[a] = k + pos
    return res.transpose(perm).reshape(shape)


def embed_slow(u, wires, n: int) -> np.ndarray:
    """Literal basis-state embedding of a gate matrix (small n only)."""
    arity = len(wires)
    size = 1 << n
    out = np.zeros((size, size), complex)
    for g_col in range(size):
        local_col = 0
        for w in wires:
            local_col = (local_col << 1) | ((g_col >> w) & 1)
        base = g_col
        for w in wires:
            base &= ~(1 << w)
        for local_row in range(1 << arity):
            amp = u[local_row, local_col]
            if amp != 0:
                g_row = base
                for pos, w in enumerate(wires):
                    if (local_row >> (arity - 1 - pos)) & 1:
                        g_row |= 1 << w
                out[g_row, g_col] += amp
    return out


def circuit_unitary(circuit) -> np.ndarray:
    """Dense unitary of a circuit's gate portion."""
    flat = flatten(circuit)
    n = flat.n_qubits
    offsets = flat.qubit_offsets()
    u = np.eye(1 << n, dtype=complex)
    for instr in flat.instructions:
        if instr.opcode in NON_UNITARY:
            continue
        wires = [offsets[r] + i for r, i in instr.qubits]
        u = apply_to_columns(u, unitary_of(instr.opcode, instr.params), wires, n)
    return u


def phase_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Max elementwise deviation after aligning b's global phase to a's."""
    a = np.asarray(a)
    b = np.asarray(b)
    idx = np.unravel_index(np.argmax(np.abs(a)), a.shape)
    if abs(a[idx]) < 1e-14:
        return float(np.max(np.abs(a - b)))
    phase = b[idx] / a[idx]
    mag = abs(phase)
    if abs(mag - 1.0) > 1e-6:
        return float("inf")
    return float(np.max(np.abs(phase * a - b)))


def floyd_warshall(n: int, edges) -> list[list[float]]:
    inf = float("inf")
    d = [[inf] * n for _ in range(n)]
    for i in range(n):
        d[i][i] = 0
    for a, b in edges:
        d[a][b] = 1
        d[b][a] = 1
    for k in range(n):
        for i in range(n):
            dik = d[i][k]
            if dik == inf:
                continue
            row_k = d[k]
            row_i = d[i]
            for j in range(n):
                alt = dik + row_k[j]
                if alt < row_i[j]:
                    row_i[j] = alt
    return d


def check_transpiled(circuit, physical, report, device, tol=1e-8):
    """Soundness + compliance assertion for a transpile result.

    The physical unitary, restricted to the active wires at the initial and
    final layouts, must equal the logical unitary up to global phase; every
    two-qubit gate must sit on a coupling edge and every opcode in the
    device basis (or measure/barrier/reset/delay).
    """
    from qflow.gates import LIBRARY

    u_in = circuit_unitary(circuit)
    u_out = circuit_unitary(physical)
    k = flatten(circuit).n_qubits
    lay_i = report.layout_initial[:k]
    lay_f = report.layout_final[:k]

    def embed_bits(x: int, lay) -> int:
        y = 0
        for i in range(k):
            if (x >> i) & 1:
                y |= 1 << lay[i]
        return y

    rows_f = [embed_bits(y, lay_f) for y in range(1 << k)]
    m = np.zeros((1 << k, 1 << k), complex)
    for x in range(1 << k):
        col = u_out[:, embed_bits(x, lay_i)]
        mask = np.ones(col.size, dtype=bool)
        mask[rows_f] = False
        if mask.any():
            assert np.max(np.abs(col[mask])) < tol, "amplitude escaped the active wires"
        m[:, x] = col[rows_f]
    dist = phase_distance(u_in, m)
    assert dist < tol, f"unitary mismatch: {dist}"

    directed = device.directed_edges()
    allowed = set(device.basis_gates) | {"measure", "barrier", "reset", "delay"}
    for instr in physical.instructions:
        assert instr.opcode in allowed, f"non-basis opcode {instr.opcode}"
        spec = LIBRARY.get(instr.opcode)
        if spec is not None and spec.arity == 2:
            pair = (instr.qubits[0][1], instr.qubits[1][1])
            assert pair in directed, f"two-qubit gate on uncoupled pair {pair}"
    return dist
