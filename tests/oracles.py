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

from qflow.circuit import Instruction
from qflow.decompose import retarget_1q
from qflow.euler import zyz_from_cells
from qflow.gates import LIBRARY, unitary_of

NON_UNITARY = ("measure", "barrier", "delay", "reset")
STATEVECTOR_CAP = 12  # tableau_to_statevector holds a 2**n vector


def offsets(circuit, kind: str) -> dict[str, int]:
    """Global index of each register's bit 0 over the registers of one kind
    ("q" or "c"), numbered in declaration order."""
    out, k = {}, 0
    for reg in circuit.registers:
        if reg.kind == kind:
            out[reg.name], k = k, k + reg.size
    return out


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


def circuit_unitary(circuit, wires=None) -> np.ndarray:
    """Dense unitary of a circuit's gate portion, over the global qubits
    ``wires`` (local qubit j is ``wires[j]``; all of them by default), which
    must hold every qubit a gate acts on."""
    qoff = offsets(circuit, "q")
    local = {w: j for j, w in enumerate(range(circuit.n_qubits) if wires is None else wires)}
    n = len(local)
    u = np.eye(1 << n, dtype=complex)
    for instr in circuit.instructions:
        if instr.opcode in NON_UNITARY:
            continue
        ws = [local[qoff[r] + i] for r, i in instr.qubits]
        u = apply_to_columns(u, unitary_of(instr.opcode, instr.params), ws, n)
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
    final layouts, must equal the logical unitary up to global phase (it is
    built over the wires that a gate or a layout names, since every other
    wire carries the identity and starts and ends in |0>); every
    two-qubit gate must sit on a coupling edge and every opcode in the
    device basis (or measure/barrier/reset/delay).
    """
    from qflow.gates import LIBRARY

    u_in = circuit_unitary(circuit)
    k = circuit.n_qubits
    # the physical unitary over the wires that a gate or a layout names:
    # every other wire carries the identity
    qoff = offsets(physical, "q")
    active = sorted(set(report.layout_initial[:k]) | set(report.layout_final[:k]) | {
        qoff[r] + i for instr in physical.instructions if instr.opcode not in NON_UNITARY
        for r, i in instr.qubits})
    u_out = circuit_unitary(physical, active)
    local = {w: j for j, w in enumerate(active)}
    lay_i = [local[w] for w in report.layout_initial[:k]]
    lay_f = [local[w] for w in report.layout_final[:k]]

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


def exact_distribution(circuit, readout=None) -> dict[int, float]:
    """Exact distribution of a circuit's counts key by branch enumeration:
    every measure and reset splits each branch into its two projections
    (unnormalized, so a branch's weight is its squared norm), a condition
    is tested per classical value and each gate is contracted into the
    branches' states with apply_to_columns. ``readout`` lists (P(0|0),
    P(1|1)) per qubit: each measure then splits again into the bit read
    right and the bit read wrong, with the amplitudes scaled by the root of
    each chance. The branches of one classical value are the columns of one
    (2**n, B) array A; only A A^dagger matters, so once B passes 2**n, A is
    replaced by R^dagger from the QR of A^dagger, which has the same A A^dagger
    and 2**n columns. The key is the classical integer (bit c is clbit c,
    last writer wins) or, when nothing is measured, the basis index over all
    qubits, as in the simulators' counts."""
    n = circuit.n_qubits
    qoff, coff = offsets(circuit, "q"), offsets(circuit, "c")
    width = {r.name: r.size for r in circuit.registers if r.kind == "c"}
    psi = np.zeros((1 << n, 1), complex)
    psi[0, 0] = 1.0
    branches = {0: psi}
    for instr in circuit.instructions:
        wires = [qoff[r] + i for r, i in instr.qubits]
        if instr.opcode in ("barrier", "delay"):
            continue
        out: dict[int, list] = {}
        for clbits, psi in branches.items():
            if instr.condition is not None:
                reg, value = instr.condition
                if (clbits >> coff[reg]) & ((1 << width[reg]) - 1) != value:
                    out.setdefault(clbits, []).append(psi)
                    continue
            if instr.opcode not in ("measure", "reset"):
                out.setdefault(clbits, []).append(
                    apply_to_columns(psi, unitary_of(instr.opcode, instr.params), wires, n))
                continue
            ones = (np.arange(1 << n) >> wires[0]) & 1
            for bit in (0, 1):
                part = np.where((ones == bit)[:, None], psi, 0)
                if np.vdot(part, part).real < 1e-14:
                    continue
                if instr.opcode == "reset":
                    if bit:
                        part = apply_to_columns(part, unitary_of("x"), wires, n)
                    out.setdefault(clbits, []).append(part)
                    continue
                c = coff[instr.clbits[0][0]] + instr.clbits[0][1]
                right = 1.0 if readout is None else readout[wires[0]][bit]
                for read, chance in ((bit, right), (1 - bit, 1.0 - right)):
                    if chance > 0:
                        out.setdefault(clbits & ~(1 << c) | read << c, []).append(
                            part * np.sqrt(chance))
        branches = {}
        for clbits, parts in out.items():
            psi = np.hstack(parts)
            if psi.shape[1] > psi.shape[0]:
                psi = np.linalg.qr(psi.conj().T, mode="r").conj().T
            branches[clbits] = psi
    measures = any(i.opcode == "measure" for i in circuit.instructions)
    dist: dict[int, float] = {}
    for clbits, psi in branches.items():
        probs = np.einsum("ij,ij->i", psi, psi.conj()).real
        if measures:
            dist[clbits] = float(probs.sum())
        else:
            for index in np.nonzero(probs > 1e-14)[0].tolist():
                dist[index] = float(probs[index])
    return dist


def distribution_problem(counts: dict, exact: dict, shots: int) -> str | None:
    """None when counts look drawn from ``exact`` (value -> probability):
    no outcome of probability 0, and a total variation distance within
    0.5 * sum_k sqrt(p_k (1 - p_k) / N) + 3.5 / sqrt(N). The first term
    bounds its mean; by McDiarmid's inequality the TV exceeds the mean by
    3.5 / sqrt(N) with probability at most exp(-2 * 3.5**2), about 2e-11."""
    seen = {int(key, 2): count / shots for key, count in counts.items()}
    stray = [v for v in seen if exact.get(v, 0.0) < 1e-12]
    if stray:
        return f"outcomes of probability 0: {stray}"
    tv = 0.5 * sum(abs(seen.get(v, 0.0) - exact.get(v, 0.0)) for v in set(seen) | set(exact))
    p = np.clip(list(exact.values()), 0.0, 1.0)
    bound = 0.5 * float(np.sqrt(p * (1 - p) / shots).sum()) + 3.5 / np.sqrt(shots)
    return None if tv <= bound else f"total variation {tv:.3f} > bound {bound:.3f}"


def per_shot_counts(circuit, seed: int, shots: int) -> dict[str, int]:
    """Counts of a Clifford circuit from one trajectory per shot: each shot
    replays every op on a fresh tableau and draws each random measurement
    outcome with one rng.integers(2); a circuit that measures nothing then
    measures every qubit in turn. Draw for draw, the reference for the
    stabilizer backend's symbolic sampling."""
    from qflow.program import Program
    from qflow.stabilizer import StabilizerTableau

    program = Program(circuit)
    rng = np.random.default_rng(seed)

    def measure(tab, q: int) -> int:
        forms: list[int] = []
        outcome, _ = tab.measure(q, forms)
        if forms:  # random: the tableau holds outcome 0 until row forms[0] flips
            outcome = int(rng.integers(2))
            tab.R ^= forms[0] if outcome else 0
        return outcome

    values: dict[int, int] = {}
    for _ in range(shots):
        tab = StabilizerTableau(program.n)
        clbits = 0
        for op in program.ops:
            if op.condition is not None:
                offset, mask, want = op.condition
                if (clbits >> offset) & mask != want:
                    continue
            if op.opcode == "measure":
                clbits = clbits & ~(1 << op.clbit) | measure(tab, op.wires[0]) << op.clbit
            elif op.opcode == "reset" and measure(tab, op.wires[0]):
                tab.R ^= tab.Z[op.wires[0]]
            elif op.gate:
                tab.apply(op.opcode, op.instr.params, op.wires)
        if not program.measures:
            clbits = sum(measure(tab, q) << q for q in range(program.n))
        values[clbits] = values.get(clbits, 0) + 1
    return {format(v, f"0{max(program.n_bits, 1)}b"): values[v] for v in sorted(values)}


def peephole_1q(circuit, family: str):
    """Merge each run of unconditioned one-qubit gates on a wire into the
    product of their matrices, re-emitted by ``retarget_1q`` in the family;
    an identity product vanishes and the result equals the input up to
    global phase. Any other instruction ends the runs on its wires. The
    reference for the transpiler's fold at opt level 1, which merges the
    same runs as u3 cells in its retarget pass."""
    out = []
    pending = {}  # wire -> (operand, product so far)

    def flush(w):
        if w in pending:
            operand, u = pending.pop(w)
            for name, params in retarget_1q(zyz_from_cells(*u.ravel().tolist()), family):
                out.append(Instruction(name, params, (operand,)))

    for instr, wires in zip(circuit.instructions, circuit.resolve().wires):
        spec = LIBRARY.get(instr.opcode)
        if spec is not None and spec.arity == 1 and instr.condition is None:
            operand, u = pending.get(wires[0], (instr.qubits[0], np.eye(2)))
            pending[wires[0]] = (operand, unitary_of(instr.opcode, instr.params) @ u)
        else:
            for w in wires:
                flush(w)
            out.append(instr)
    for w in sorted(pending):
        flush(w)
    return circuit.with_instructions(out)


def tableau_to_statevector(tab) -> np.ndarray:
    """The unique state (up to global phase) stabilized by the tableau's
    stabilizer rows, via the projector product prod_i (I + S_i)/2 applied to
    a basis seed: the outcome of measuring every qubit with each random
    outcome taken as 0."""
    n = tab.n
    if n > STATEVECTOR_CAP:
        raise ValueError(f"{n} qubits exceeds the tableau-to-statevector cap {STATEVECTOR_CAP}")
    probe = tab.copy()
    forms: list[int] = []
    seed_bits = 0
    for q in range(n):
        outcome, _ = probe.measure(q, forms)
        seed_bits |= outcome << q

    dim = 1 << n
    idx = np.arange(dim)
    psi = np.zeros(dim, dtype=complex)
    psi[seed_bits] = 1.0
    for row in range(n, 2 * n):
        xmask = sum(((tab.X[q] >> row) & 1) << q for q in range(n))
        zmask = sum(((tab.Z[q] >> row) & 1) << q for q in range(n))
        y_count = (xmask & zmask).bit_count()
        parity = np.zeros(dim, dtype=np.int64)
        rest = zmask
        while rest:
            b = rest & -rest
            parity ^= (idx // b) & 1
            rest ^= b
        phase = ((-1.0) ** ((tab.R >> row) & 1)) * (1j ** (y_count % 4))
        s_psi = np.empty_like(psi)
        s_psi[idx ^ xmask] = phase * np.where(parity, -1.0, 1.0) * psi
        psi = 0.5 * (psi + s_psi)
    norm = np.linalg.norm(psi)
    assert norm >= 1e-12, "projector product annihilated the seed state"
    return psi / norm
