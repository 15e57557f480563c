"""Stabilizer tableau simulation of Clifford circuits.

The tableau is the Aaronson-Gottesman layout (arXiv:quant-ph/0406196) packed
by column: rows 0..n-1 are destabilizers and rows n..2n-1 stabilizers, and
for each qubit q the Python int ``X[q]`` holds bit i = row i's x bit on q,
``Z[q]`` its z bit, while the int ``R`` holds bit i = row i's sign. A gate
therefore updates every row at once with a few integer operations. cx, cz
and swap combine two columns; every other two-qubit gate runs as its u3/cx
template from qflow.decompose. A one-qubit gate U needs no table of names:
U X U^dag, U Z U^dag and U Y U^dag are each a sign times a Pauli, so a row's
(x, z) bits on the wire map linearly, and the rows holding X, Z or Y there
flip sign by the matching sign. These seven bits are read off U's matrix
and cached per (opcode, params). U is rejected with NonCliffordError when a
conjugated Pauli lies further than 3e-9 from every signed Pauli, entry by
entry; so an angle within about 3e-9 of the pi/2 lattice is accepted, and
so is an off-lattice u3 that is Clifford, such as u3(0,pi/4,-pi/4).

Measurement keeps the usual deterministic/random split. If stabilizer p
anticommutes with Z_q, the outcome is a fresh random bit: one pass over the
columns multiplies every other anticommuting row by row p, counting each
row's phase exponent mod 4 in two bit-sliced ints, then moves row p to
destabilizer p-n and makes it Z_q. Otherwise the outcome is the sign of the
product of the stabilizers that the destabilizers anticommuting with Z_q
select; a prefix xor over those rows gives that product's phase per column.

Which measurements are random depends only on the x and z columns, never on
earlier outcomes: an outcome only moves signs. So a circuit without
classical conditions runs once, with each row sign an affine form over
GF(2) in the random outcomes r_0..r_{k-1} (the reference-sample idea of
Stim, Gidney arXiv:2103.02202). Gates add constants to R, a random
measurement adds a variable, a deterministic one reads a constant xor some
variables, and a reset flips signs by the same. Each counted bit is then a
constant xor a subset of the r_j, and every shot's r is drawn in one
shot-major block: the same draws, in the same order, as one
``rng.integers(2)`` per random outcome per shot, so seeded counts equal
those of a per-shot run.

A conditioned circuit goes through the shot walker of qflow.program:
``p_one`` runs the row elimination once, leaving a random outcome's tableau
at outcome 0, and ``collapse`` sets the new stabilizer row's sign for 1. A
leaf draws its shots from the deferred qubits' affine outcomes.
"""

from __future__ import annotations

import functools
import time

import numpy as np

from .circuit import Circuit
from .decompose import _two_q_template
from .errors import NonCliffordError, QFlowError, SimulationError
from .euler import SNAP_TOL, lattice_power
from .gates import unitary_of
from .program import ALWAYS_RUN, Program, _keyed, refusal, walk
from .results import RunResult

__all__ = ["StabilizerTableau", "stab_run", "stab_evolve", "tableau_to_statevector",
           "DEFAULT_STAB_CAP", "STATEVECTOR_CAP"]

DEFAULT_STAB_CAP = 10_000
STATEVECTOR_CAP = 12
# one sampling block holds at most this many random bits and as many outcome bits
_BLOCK_BITS = 1 << 20
# X, Z and Y, each with its (x, z) bits in a tableau row
_PAULIS = (((1, 0), unitary_of("x")), ((0, 1), unitary_of("z")), ((1, 1), unitary_of("y")))


class StabilizerTableau:
    """Aaronson-Gottesman tableau for n qubits, packed by column."""

    __slots__ = ("n", "X", "Z", "R")

    def __init__(self, n: int):
        self.n = n
        self.X = [1 << q for q in range(n)]        # destabilizer q is X_q
        self.Z = [1 << (n + q) for q in range(n)]  # stabilizer q is Z_q
        self.R = 0

    def copy(self) -> "StabilizerTableau":
        t = StabilizerTableau.__new__(StabilizerTableau)
        t.n = self.n
        t.X = self.X.copy()
        t.Z = self.Z.copy()
        t.R = self.R
        return t

    # -- Clifford gates: each conjugates every row at once ---------------------

    def cx(self, c: int, t: int):
        X, Z = self.X, self.Z
        self.R ^= X[c] & Z[t] & ~(X[t] ^ Z[c])
        X[t] ^= X[c]
        Z[c] ^= Z[t]

    def cz(self, a: int, b: int):
        X, Z = self.X, self.Z
        self.R ^= X[a] & X[b] & (Z[a] ^ Z[b])
        Z[a] ^= X[b]
        Z[b] ^= X[a]

    def swap(self, a: int, b: int):
        X, Z = self.X, self.Z
        X[a], X[b] = X[b], X[a]
        Z[a], Z[b] = Z[b], Z[a]

    # -- measurement -----------------------------------------------------------

    def measure(self, q: int, forms: list[int]) -> tuple[int, int]:
        """Measure qubit q in Z with the row signs affine over GF(2) in
        random bits r_0, r_1, ...: row i's sign is bit i of R xor every r_j
        for which bit i of forms[j] is set. The forms are updated along with
        R, and a random outcome becomes a new bit r_k (forms gains one
        entry). Returns (c, deps): the outcome is c xor every r_j whose bit
        j is set in deps.
        """
        n = self.n
        X, Z = self.X, self.Z
        xq = X[q]
        stabs = xq >> n
        if stabs:
            # row p: the first stabilizer that anticommutes with Z_q
            p = n + (stabs & -stabs).bit_length() - 1
            bit = 1 << p
            dest = 1 << (p - n)
            keep = ~(bit | dest)
            rows = xq ^ bit  # every other row that anticommutes with Z_q
            # each row's phase exponent mod 4 as lo + 2*hi, per bit
            lo = hi = 0
            for j in range(n):
                x, z = X[j], Z[j]
                xp, zp = x & bit, z & bit
                if xp or zp:
                    # rows whose Pauli on j anticommutes with row p's, and
                    # those where row p times the row gains -i there, not +i
                    if not zp:              # row p has X
                        odd = z & rows
                        minus = odd & ~x
                    elif not xp:            # row p has Z
                        odd = x & rows
                        minus = odd & z
                    else:                   # row p has Y
                        odd = (x ^ z) & rows
                        minus = odd & x
                    hi ^= minus ^ (lo & odd)
                    lo ^= odd
                # multiply the rows by row p, then copy row p to row p-n and clear it
                X[j] = ((x ^ rows) & keep) | dest if xp else x & keep
                Z[j] = ((z ^ rows) & keep) | dest if zp else z & keep
            Z[q] |= bit
            # every row but p-n commutes with row p, so its exponent is 2*hi:
            # a sign flip where hi is set (row p-n is overwritten)
            R = self.R
            R ^= hi ^ (rows if R & bit else 0)
            # the same row moves on each form, which gains no hi
            for j, f in enumerate(forms):
                if f & (bit | dest):
                    forms[j] = ((f ^ rows) & keep) | dest if f & bit else f & keep
            forms.append(bit)
            self.R = (R & keep) | (dest if R & bit else 0)
            return 0, 1 << (len(forms) - 1)
        # deterministic: the outcome is the sign of the product of the
        # stabilizers whose destabilizers anticommute with Z_q. Write a
        # one-qubit Pauli as i^(xz) X^x Z^z. Multiplying row k onto a running
        # product with bits x, z (giving x', z') gains i^(x_k z_k + xz - x'z'
        # + 2 z_k x) on each qubit; over all rows this telescopes to the rows'
        # Y count minus the product's, plus twice the pairs i < k with z_k x_i.
        sel = (xq & ((1 << n) - 1)) << n
        span = sel.bit_length() - (sel & -sel).bit_length() + 1
        shifts = [1 << k for k in range((span - 1).bit_length())]
        y_count = 0
        cross = 0
        for j in range(n):
            xs = X[j] & sel
            zs = Z[j] & sel
            if xs and zs:
                y_count += (xs & zs).bit_count() - (xs.bit_count() & zs.bit_count() & 1)
                before = xs  # becomes the xor of the x bits at or below each bit
                for shift in shifts:
                    before ^= before << shift
                cross ^= zs & (before << 1)
        outcome = ((self.R & sel).bit_count() + (y_count >> 1) + cross.bit_count()) & 1
        deps = 0
        for j, f in enumerate(forms):
            if (f & sel).bit_count() & 1:
                deps |= 1 << j
        return outcome, deps

    def reset(self, q: int, forms: list[int]):
        """Measure q and flip it back to 0, symbolically (see
        :meth:`measure`). An x on q flips every row with a z bit there: in R
        by the outcome's constant, and in each random bit's form that the
        outcome depends on."""
        outcome, deps = self.measure(q, forms)
        z = self.Z[q]
        if outcome:
            self.R ^= z
        while deps:
            j = deps.bit_length() - 1
            forms[j] ^= z
            deps ^= 1 << j

    # -- gate dispatch -----------------------------------------------------------

    _GATES_2Q = {"cx": cx, "cz": cz, "swap": swap}

    def apply(self, opcode: str, params: tuple, wires: tuple):
        if len(wires) == 1:
            xx, zx, xz, zz, sx, sz, sy = _one_q_rule(opcode, params)
            q = wires[0]
            x, z = self.X[q], self.Z[q]
            self.R ^= (x if sx else 0) ^ (z if sz else 0) ^ (x & z if sy else 0)
            self.X[q] = (x if xx else 0) ^ (z if zx else 0)
            self.Z[q] = (x if xz else 0) ^ (z if zz else 0)
            return
        gate = self._GATES_2Q.get(opcode)
        if gate is not None:
            gate(self, wires[0], wires[1])
            return
        # every other gate reduces to u3/cx pieces, each of which must be Clifford
        try:
            for sub_op, sub_params, slots in _two_q_template(opcode, params):
                self.apply(sub_op, sub_params, tuple(wires[s] for s in slots))
        except QFlowError:
            raise _reject(opcode, params) from None


@functools.lru_cache(maxsize=4096)
def _one_q_rule(opcode: str, params: tuple) -> tuple[int, ...]:
    """How a one-qubit gate U moves the (x, z) bits of a row on its wire, as
    seven bits (xx, zx, xz, zz, sx, sz, sy): U X U^dag = (-1)^sx P(xx, xz)
    and U Z U^dag = (-1)^sz P(zx, zz), so the new x bit is x xx ^ z zx and the
    new z bit x xz ^ z zz. A row flips sign by sx where it holds X (x ^ y,
    for y = x & z), by sz where it holds Z (z ^ y) and by the sign of U Y
    U^dag where it holds Y (y): that is x sx ^ z sz ^ y sy, with sy the xor
    of all three signs."""
    u = unitary_of(opcode, params)
    images = []
    for _, pauli in _PAULIS:
        image = u @ pauli @ u.conj().T
        for bits, target in _PAULIS:
            sign = int(np.vdot(target, image).real < 0)
            if np.abs(image - (1 - 2 * sign) * target).max() <= 3 * SNAP_TOL:
                images.append((*bits, sign))
                break
        else:
            raise _reject(opcode, params)
    (xx, xz, sx), (zx, zz, sz), (_, _, sy) = images
    return xx, zx, xz, zz, sx, sz, sx ^ sz ^ sy


def _reject(opcode: str, params: tuple) -> NonCliffordError:
    """Name the first angle off the pi/2 lattice, if any: on the lattice a
    gate can still be non-Clifford (crx(pi/2)), and no angle is to blame."""
    for angle in params:
        if lattice_power(angle) is None:
            return NonCliffordError(f"non-Clifford gate '{opcode}' "
                                    f"(angle {float(angle)!r} is not a multiple of pi/2)")
    return NonCliffordError(f"non-Clifford gate '{opcode}'")


def tableau_to_statevector(tab: StabilizerTableau) -> np.ndarray:
    """The unique state (up to global phase) stabilized by the tableau's
    stabilizer rows, via the projector product prod_i (I + S_i)/2 applied to
    a basis seed: the outcome of measuring every qubit with each random
    outcome taken as 0."""
    n = tab.n
    if n > STATEVECTOR_CAP:
        raise SimulationError(
            f"{n} qubits exceeds the tableau-to-statevector cap {STATEVECTOR_CAP}"
        )
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
    if norm < 1e-12:
        raise SimulationError("projector product annihilated the seed state")
    return psi / norm


# -- running circuits ------------------------------------------------------------

class _StabState:
    """A tableau driven op by op by qflow.program's walker; its gates stay
    unfused, since the tableau applies them by name. ``row`` is the sign
    bit that makes the last random outcome 1, or 0 after a fixed one;
    ``shots`` is the run's, which a leaf's refusal names."""

    fuses = False
    splits_reset = True

    def __init__(self, tab: StabilizerTableau, shots: int = 1, row: int = 0):
        self.tab = tab
        self.shots = shots
        self.row = row

    def copy(self) -> "_StabState":
        return _StabState(self.tab.copy(), self.shots, self.row)

    def apply(self, op) -> None:
        if op.gate:
            self.tab.apply(op.opcode, op.instr.params, op.wires)

    def p_one(self, op) -> float:
        forms: list[int] = []
        outcome, _ = self.tab.measure(op.wires[0], forms)
        self.row = forms[0] if forms else 0
        return 0.5 if forms else float(outcome)

    def collapse(self, op, bit: int) -> None:
        if bit:
            self.tab.R ^= self.row
            if op.opcode == "reset":
                # x on the qubit flips every row with a z bit there
                self.tab.R ^= self.tab.Z[op.wires[0]]

    def sample(self, qubits, count: int, rng, readout) -> dict[int, int]:
        """Draw count shots of the qubits' outcomes, measured symbolically."""
        forms: list[int] = []
        bits = [self.tab.measure(q, forms) for q in qubits]
        return _sample_affine(bits, len(forms), count, rng, self.shots)


def _affine_outcomes(program: Program, tab: StabilizerTableau) -> tuple[list, int]:
    """Run an unconditioned program once with symbolic signs. Returns each
    counted bit's (constant, deps) pair, as StabilizerTableau.measure gives
    it, and the number of random bits. Unmeasured clbits read (0, 0); a
    clbit measured twice keeps its last outcome."""
    forms: list[int] = []
    bits = [(0, 0)] * program.n_bits
    for op in program.ops:
        if op.opcode == "measure":
            bits[op.clbit] = tab.measure(op.wires[0], forms)
        elif op.opcode == "reset":
            tab.reset(op.wires[0], forms)
        elif op.gate:
            tab.apply(op.opcode, op.instr.params, op.wires)
    if not program.measures:
        bits = [tab.measure(q, forms) for q in range(program.n)]
    return bits, len(forms)


def _sample_affine(bits: list, k: int, shots: int, rng, asked: int = 0) -> dict[int, int]:
    """Counts of the value whose bit i is c_i xor the random bits in deps_i,
    for bits[i] = (c_i, deps_i), over shots draws of k random bits. The draws
    are shot-major, in blocks of at most _BLOCK_BITS, so a shot takes the
    same k values from rng as k calls of rng.integers(2) would. Above
    ALWAYS_RUN shots one multinomial draw covers the exact distribution,
    uniform over const xor the span of what the random bits flip; a span of
    more points is refused, naming the run's ``asked`` shots (else shots)."""
    const = sum(c << i for i, (c, _) in enumerate(bits))
    if k == 0:
        return {const: shots}
    if shots > ALWAYS_RUN:
        span: list[int] = []  # a basis with distinct leading bits, in falling order
        for j in range(k):
            f = sum(((d >> j) & 1) << i for i, (_, d) in enumerate(bits))
            for b in span:
                f = min(f, f ^ b)
            if f:
                span = sorted(span + [f], reverse=True)
        if 1 << len(span) > ALWAYS_RUN:
            raise refusal(asked or shots, f"their outcomes take 2**{len(span)} values")
        points = [0]
        for b in span:
            points += [p ^ b for p in points]
        draws = rng.multinomial(shots, np.full(len(points), 1.0 / len(points))).tolist()
        return {const ^ p: n for p, n in zip(points, draws) if n}
    width = len(bits)
    words = (width + 63) // 64
    # flips[j]: the value bits that random bit j flips, as little-endian words
    deps = b"".join(d.to_bytes((k + 7) // 8, "little") for _, d in bits)
    matrix = np.unpackbits(np.frombuffer(deps, np.uint8).reshape(width, -1), axis=1,
                           count=k, bitorder="little")
    flips = np.zeros((k, 8 * words), np.uint8)
    flips[:, :(width + 7) // 8] = np.packbits(matrix.T, axis=1, bitorder="little")
    flips = flips.view("<u8")
    block = max(1, _BLOCK_BITS // max(k, width))
    values: dict[int, int] = {}
    for start in range(0, shots, block):
        r = rng.integers(2, size=(min(block, shots - start), k)).view(np.uint64)
        out = np.zeros((len(r), words), "<u8")
        for j in range(k):
            out ^= r[:, j, None] * flips[j]
        # one word sorts as uint64, tens of times faster than as bytes
        keys, counts = np.unique(out.view(f"V{8 * words}").ravel() if words > 1 else out.ravel(),
                                 return_counts=True)
        for key, count in zip(keys, counts.tolist()):
            v = const ^ int.from_bytes(key.tobytes(), "little")
            values[v] = values.get(v, 0) + count
    return values


def stab_evolve(circuit: Circuit, seed: int = 42) -> StabilizerTableau:
    """Run the gate portion of a Clifford circuit once (measure and reset use
    the seeded generator; conditions are rejected)."""
    program = Program(circuit)
    rng = np.random.default_rng(seed)
    state = _StabState(StabilizerTableau(program.n))
    for op in program.ops:
        if op.condition is not None:
            raise SimulationError("stab_evolve does not evaluate classical conditions")
        if op.opcode in ("measure", "reset"):
            p = state.p_one(op)
            state.collapse(op, int(rng.integers(2)) if p == 0.5 else int(p))
        else:
            state.apply(op)
    return state.tab


def stab_run(
    circuit: Circuit,
    seed: int = 42,
    shots: int = 1024,
    qubit_cap: int = DEFAULT_STAB_CAP,
) -> RunResult:
    """Clifford run with seeded counts.

    A circuit without classical conditions runs once symbolically (see the
    module docstring) and its shots are drawn from its affine outcomes; a
    conditioned one goes through the shot walker of qflow.program. A
    circuit without measurements is sampled by measuring every qubit.
    """
    t0 = time.perf_counter()
    program = Program(circuit)
    program.check_limits("stabilizer", qubit_cap, DEFAULT_STAB_CAP, shots=shots, seed=seed)
    tab = StabilizerTableau(program.n)
    if any(op.condition is not None for op in program.ops):
        counts = walk(program, _StabState(tab, shots), shots, seed)
    else:
        counts = _keyed(_sample_affine(*_affine_outcomes(program, tab), shots,
                                       np.random.default_rng(seed)), program.n_bits)
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
