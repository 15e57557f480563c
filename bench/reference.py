"""Independent correctness checks for benchmark outputs.

Nothing here imports qflow. A small QASM reader turns both the generated
circuits and qflow's printed output into operation lists, and a tensor
contraction simulator with its own gate matrices gives exact references:

* ``equivalent_up_to_layout`` contracts the unitary part of a logical and a
  physical circuit with the same random inputs, placed by the transpiler's
  initial and final layouts;
* ``exact_factors`` enumerates measurement, reset and condition branches
  and returns the exact distribution of the counts keys, split into
  independent factors (qubits joined by no gate, condition or clbit);
* ``counts_problem`` holds observed counts against those factors with a
  total-variation bound that a correct sampler exceeds with probability
  below about 1e-10 per test (McDiarmid; looser than six sigma).
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# -- gate matrices (qelib1 semantics, up to a global phase per 1q gate) -------

_I = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.diag([1, -1]).astype(complex)
_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


def _u3(t, p, l):
    c, s = math.cos(t / 2), math.sin(t / 2)
    return np.array([[c, -cmath.exp(1j * l) * s],
                     [cmath.exp(1j * p) * s, cmath.exp(1j * (p + l)) * c]])


def _phase(l):
    return np.diag([1, cmath.exp(1j * l)])


def _rz(a):
    return np.diag([cmath.exp(-0.5j * a), cmath.exp(0.5j * a)])


def _ctrl(u):
    m = np.eye(4, dtype=complex)
    m[2:, 2:] = u
    return m


_SX = np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]]) / 2
_CCX = np.eye(8, dtype=complex)
_CCX[[6, 7]] = _CCX[[7, 6]]

GATES = {
    "id": lambda: _I, "x": lambda: _X, "y": lambda: _Y, "z": lambda: _Z,
    "h": lambda: _H, "s": lambda: _phase(math.pi / 2),
    "sdg": lambda: _phase(-math.pi / 2), "t": lambda: _phase(math.pi / 4),
    "tdg": lambda: _phase(-math.pi / 4), "sx": lambda: _SX,
    "sxdg": lambda: _SX.conj(),
    "u3": _u3, "u": _u3, "u2": lambda p, l: _u3(math.pi / 2, p, l),
    "u1": _phase, "p": _phase, "rz": _rz,
    "rx": lambda a: _u3(a, -math.pi / 2, math.pi / 2),
    "ry": lambda a: _u3(a, 0, 0),
    "cx": lambda: _ctrl(_X), "cz": lambda: _ctrl(_Z), "cy": lambda: _ctrl(_Y),
    "swap": lambda: np.eye(4, dtype=complex)[[0, 2, 1, 3]],
    "cu1": lambda l: _ctrl(_phase(l)), "cp": lambda l: _ctrl(_phase(l)),
    "crz": lambda l: _ctrl(_rz(l)), "ccx": lambda: _CCX,
}

# -- reader ------------------------------------------------------------------


class Op(NamedTuple):
    name: str
    params: tuple
    qubits: tuple
    clbits: tuple = ()
    cond: tuple | None = None   # (first clbit, width, value)


@dataclass
class Program:
    n_qubits: int
    n_clbits: int
    ops: list

    @property
    def measured(self) -> bool:
        return any(op.name == "measure" for op in self.ops)


_PARAM_OK = re.compile(r"^[0-9eE.+\-*/() pi]*$")
_ARG = re.compile(r"^([A-Za-z_]\w*)(?:\[(\d+)\])?$")
_STMT = re.compile(r"^(?:if\((\w+)==(\d+)\)\s*)?([A-Za-z_]\w*)\s*(?:\(([^)]*)\))?\s*(.*)$")


def _param(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        pass
    text = text.strip()
    if not _PARAM_OK.match(text):
        raise ValueError(f"unsupported parameter expression {text!r}")
    return float(eval(text, {"__builtins__": {}}, {"pi": math.pi}))


def read_qasm(text: str) -> Program:
    """Read the QASM subset the generators and qflow's printer emit."""
    qregs: dict[str, tuple[int, int]] = {}
    cregs: dict[str, tuple[int, int]] = {}
    nq = nc = 0
    ops: list[Op] = []

    seen: dict[tuple, list[int]] = {}

    def operands(arg: str, regs: dict) -> list[int]:
        key = (arg, id(regs))
        if key not in seen:
            seen[key] = _operands(arg, regs)
        return seen[key]

    def _operands(arg: str, regs: dict) -> list[int]:
        m = _ARG.match(arg.strip())
        if not m or m.group(1) not in regs:
            raise ValueError(f"bad operand {arg!r}")
        off, size = regs[m.group(1)]
        if m.group(2) is None:
            return list(range(off, off + size))
        if int(m.group(2)) >= size:
            raise ValueError(f"index out of range in {arg!r}")
        return [off + int(m.group(2))]

    for stmt in text.split(";"):
        stmt = stmt.strip()
        if not stmt or stmt.startswith(("OPENQASM", "include", "//")):
            continue
        head = stmt.split(None, 1)
        if head[0] in ("qreg", "creg"):
            m = _ARG.match(head[1])
            size = int(m.group(2))
            if head[0] == "qreg":
                qregs[m.group(1)] = (nq, size)
                nq += size
            else:
                cregs[m.group(1)] = (nc, size)
                nc += size
            continue
        m = _STMT.match(stmt)
        if not m:
            raise ValueError(f"cannot read statement {stmt!r}")
        creg, value, name, params, rest = m.groups()
        cond = None
        if creg is not None:
            off, size = cregs[creg]
            cond = (off, size, int(value))
        if name == "barrier":
            continue
        if name == "measure":
            qarg, carg = rest.split("->")
            qs, cs = operands(qarg, qregs), operands(carg, cregs)
            if len(qs) != len(cs):
                raise ValueError(f"measure size mismatch in {stmt!r}")
            ops += [Op("measure", (), (q,), (c,), cond) for q, c in zip(qs, cs)]
            continue
        pvals = tuple(_param(p) for p in params.split(",")) if params else ()
        args = [operands(a, qregs) for a in rest.split(",")]
        if name == "delay":
            continue  # identity in every simulator without a device
        if name != "reset" and name not in GATES:
            raise ValueError(f"unknown gate {name!r}")
        width = max(len(a) for a in args)
        for k in range(width):  # register broadcast
            qs = tuple(a[k] if len(a) > 1 else a[0] for a in args)
            ops.append(Op(name, pvals, qs, (), cond))
    return Program(nq, nc, ops)


# -- tensor contraction ------------------------------------------------------
#
# A state is an array of shape (2,) * n, optionally followed by one batch
# axis; axis q is qubit q.

def _sub(state: np.ndarray, q: int, bit: int) -> tuple:
    index = [slice(None)] * state.ndim
    index[q] = bit
    return tuple(index)


def apply_op(state: np.ndarray, op: "Op") -> np.ndarray:
    """Apply one gate; cx and cz, most of a physical circuit, by slicing."""
    if op.name == "cx":
        c, t = op.qubits
        out = state.copy()
        out[_sub(state, c, 1)] = np.flip(state[_sub(state, c, 1)], axis=t - (t > c))
        return out
    if op.name == "cz":
        out = state.copy()
        index = list(_sub(state, op.qubits[0], 1))
        index[op.qubits[1]] = 1
        out[tuple(index)] *= -1
        return out
    return apply_matrix(state, matrix_of(op), op.qubits)


def apply_matrix(state: np.ndarray, m: np.ndarray, qubits) -> np.ndarray:
    k = len(qubits)
    t = m.reshape((2,) * (2 * k))
    out = np.tensordot(t, state, axes=(list(range(k, 2 * k)), list(qubits)))
    return np.moveaxis(out, list(range(k)), list(qubits))


def matrix_of(op: Op) -> np.ndarray:
    return np.asarray(GATES[op.name](*op.params), dtype=complex)


class _Fuser:
    """Multiplies runs of unconditioned one-qubit gates before applying."""

    def __init__(self):
        self.pending: dict[int, np.ndarray] = {}

    def add(self, q: int, m: np.ndarray):
        prev = self.pending.get(q)
        self.pending[q] = m if prev is None else m @ prev

    def flush(self, states: list, qubits=None) -> list:
        for q in list(self.pending) if qubits is None else qubits:
            m = self.pending.pop(q, None)
            if m is not None:
                states = [apply_matrix(s, m, (q,)) for s in states]
        return states


def evolve_unitary(state: np.ndarray, ops) -> np.ndarray:
    """Apply the gates of ``ops``; measure and barrier are skipped."""
    fuser = _Fuser()
    states = [state]
    for op in ops:
        if op.name == "measure":
            continue
        if op.name == "reset" or op.cond is not None:
            raise ValueError("unitary evolution got a reset or a condition")
        if len(op.qubits) == 1:
            fuser.add(op.qubits[0], matrix_of(op))
        else:
            states = fuser.flush(states, op.qubits)
            states = [apply_op(states[0], op)]
    return fuser.flush(states)[0]


def _embed(psi: np.ndarray, l2p, n_phys: int) -> np.ndarray:
    """Place logical qubit i of ``psi`` (batched) on physical l2p[i]; every
    other physical qubit is |0>."""
    n = len(l2p)
    t = np.zeros((2,) * n_phys + psi.shape[-1:], dtype=complex)
    t[(slice(None),) * n + (0,) * (n_phys - n)] = psi
    where = {p: i for i, p in enumerate(l2p)}
    spare = iter(range(n, n_phys))
    axes = [where[p] if p in where else next(spare) for p in range(n_phys)]
    return np.transpose(t, axes + [n_phys])


def equivalent_up_to_layout(logical: Program, physical: Program,
                            layout_in, layout_out, rng, batch: int = 2) -> str | None:
    """Return None when the physical unitary equals the logical one, placed
    by the layouts, up to one global phase; otherwise say what differs."""
    n, big_n = logical.n_qubits, physical.n_qubits
    l0 = [int(p) for p in layout_in[:n]]
    l1 = [int(p) for p in layout_out[:n]]
    psi = rng.normal(size=(2,) * n + (batch,)) + 1j * rng.normal(size=(2,) * n + (batch,))
    psi /= np.sqrt(np.sum(np.abs(psi) ** 2, axis=tuple(range(n))))
    want = _embed(evolve_unitary(psi, logical.ops), l1, big_n)
    got = evolve_unitary(_embed(psi, l0, big_n), physical.ops)
    axes = tuple(range(big_n))
    overlap = np.sum(np.conj(want) * got, axis=axes)
    if np.any(np.abs(np.abs(overlap) - 1.0) > 1e-8):
        return f"unitary mismatch: |overlap| = {np.abs(overlap).round(6).tolist()}"
    phases = overlap / np.abs(overlap)
    if np.any(np.abs(phases - phases[0]) > 1e-7):
        return "unitary mismatch: input-dependent phase"
    return None


# -- exact output distributions ----------------------------------------------

MAX_BRANCHES = 4096


def _components(prog: Program) -> list[list[int]]:
    parent = list(range(prog.n_qubits))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    writers: dict[int, list[int]] = {}
    for op in prog.ops:
        if op.name == "measure":
            writers.setdefault(op.clbits[0], []).append(op.qubits[0])
    for op in prog.ops:
        linked = list(op.qubits)
        if op.cond is not None:
            off, width, _ = op.cond
            for c in range(off, off + width):
                linked += writers.get(c, [])
        for c in op.clbits:
            linked += writers.get(c, [])
        for q in linked[1:]:
            parent[find(q)] = find(linked[0])
    groups: dict[int, list[int]] = {}
    for q in range(prog.n_qubits):
        groups.setdefault(find(q), []).append(q)
    return list(groups.values())


def _project(state: np.ndarray, q: int, bit: int) -> np.ndarray:
    out = np.zeros_like(state)
    out[_sub(state, q, bit)] = state[_sub(state, q, bit)]
    return out


def _cond_holds(cond, record: dict) -> bool:
    if cond is None:
        return True
    off, width, value = cond
    return sum(record.get(off + k, 0) << k for k in range(width)) == value


def _simulate(n: int, ops: list, keys: list[int], measured: bool) -> np.ndarray:
    """Exact distribution over the key bits ``keys`` (clbits if the program
    measures, else qubits) for a component with local qubits 0..n-1."""
    pos = {k: i for i, k in enumerate(keys)}
    last_writer = {op.clbits[0]: i for i, op in enumerate(ops) if op.name == "measure"}
    terminal = set()
    touched, read = set(), set()
    for i in range(len(ops) - 1, -1, -1):
        op = ops[i]
        if op.name == "measure":
            if op.qubits[0] not in touched and op.clbits[0] not in read:
                terminal.add(i)
            else:
                touched.add(op.qubits[0])
            continue
        touched.update(op.qubits)
        if op.cond is not None:
            read.update(range(op.cond[0], op.cond[0] + op.cond[1]))

    state = np.zeros((2,) * n, dtype=complex)
    state[(0,) * n] = 1.0
    branches = [(state, {})]
    fuser = _Fuser()

    def flush(qubits=None):
        nonlocal branches
        states = fuser.flush([s for s, _ in branches], qubits)
        branches = [(s, r) for s, (_, r) in zip(states, branches)]

    for i, op in enumerate(ops):
        if op.name == "measure" and i in terminal:
            continue
        if op.name in ("measure", "reset"):
            flush(op.qubits)
            q = op.qubits[0]
            split = []
            for s, rec in branches:
                for bit in (0, 1):
                    part = _project(s, q, bit)
                    if np.vdot(part, part).real < 1e-13:
                        continue
                    if op.name == "measure":
                        split.append((part, {**rec, op.clbits[0]: bit}))
                    else:
                        split.append((apply_matrix(part, _X, (q,)) if bit else part, rec))
            branches = split
            if len(branches) > MAX_BRANCHES:
                raise ValueError("reference needs too many measurement branches")
            continue
        if op.cond is None and len(op.qubits) == 1:
            fuser.add(op.qubits[0], matrix_of(op))
            continue
        flush(op.qubits)
        branches = [(apply_op(s, op) if _cond_holds(op.cond, r) else s, r)
                    for s, r in branches]
    flush()

    final = [(ops[i].qubits[0], ops[i].clbits[0]) for i in sorted(terminal)
             if last_writer[ops[i].clbits[0]] == i]
    if not measured:
        final = [(q, q) for q in range(n)]
    deferred = sorted({q for q, _ in final})
    acc = np.zeros(1 << len(keys))
    idx = np.arange(1 << len(deferred))
    for s, rec in branches:
        probs = np.abs(s) ** 2
        others = tuple(q for q in range(n) if q not in deferred)
        marg = probs.sum(axis=others).reshape(-1) if others else probs.reshape(-1)
        base = 0
        for c, bit in rec.items():
            if c in pos and last_writer[c] not in terminal:
                base |= bit << pos[c]
        vals = np.full(idx.shape, base)
        for q, c in final:
            j = deferred.index(q)
            vals |= ((idx >> (len(deferred) - 1 - j)) & 1) << pos[c]
        np.add.at(acc, vals, marg)
    return acc


def exact_factors(prog: Program) -> list[tuple[tuple, np.ndarray]]:
    """Exact distribution of the counts key as independent factors.

    Each factor is (key bit positions, probabilities indexed by the value
    of those bits, first position least significant). Key bits are clbits
    when the program measures and qubits otherwise, as in qflow's counts.
    """
    measured = prog.measured
    factors = []
    written = set()
    for comp in _components(prog):
        local = {q: i for i, q in enumerate(comp)}
        ops = [Op(op.name, op.params, tuple(local[q] for q in op.qubits), op.clbits, op.cond)
               for op in prog.ops if op.qubits[0] in local]
        if measured:
            keys = sorted({op.clbits[0] for op in ops if op.name == "measure"})
            if not keys:
                continue
            written.update(keys)
            factors.append((tuple(keys), _simulate(len(comp), ops, keys, True)))
        else:
            factors.append((tuple(comp), _simulate(len(comp), ops, list(range(len(comp))), False)))
    if measured:
        unwritten = tuple(c for c in range(prog.n_clbits) if c not in written)
        if unwritten:
            dist = np.zeros(1 << len(unwritten))
            dist[0] = 1.0
            factors.append((unwritten, dist))
    return factors


def joint_distribution(factors, width: int) -> np.ndarray:
    """Materialise the full key distribution (for small widths only)."""
    joint = np.ones(1)
    joint_bits: list[int] = []
    for bits, probs in factors:
        joint = np.outer(probs, joint).reshape(-1)
        joint_bits = joint_bits + list(bits)  # new factor takes the high bits
    idx = np.arange(joint.size)
    out = np.zeros(1 << width)
    vals = np.zeros(idx.shape, dtype=np.int64)
    for j, b in enumerate(joint_bits):
        vals |= ((idx >> j) & 1) << b
    np.add.at(out, vals, joint)
    return out


# -- checks ------------------------------------------------------------------

TAIL = 3.5  # McDiarmid: P(TV > E[TV] + TAIL/sqrt(N)) <= exp(-2 TAIL^2) ~ 2e-11
CHUNK = 6


def _project_counts(counts: dict, bits, width: int) -> np.ndarray:
    emp = np.zeros(1 << len(bits))
    for key, n in counts.items():
        v = 0
        for j, b in enumerate(bits):
            if key[width - 1 - b] == "1":
                v |= 1 << j
        emp[v] += n
    return emp


def _marginal(probs: np.ndarray, k: int, keep) -> np.ndarray:
    t = probs.reshape((2,) * k)  # C order: axis j is bit k-1-j
    axes = tuple(k - 1 - j for j in range(k) if j not in keep)
    m = t.sum(axis=axes) if axes else t
    # remaining axes are bits in descending order of j
    return m.reshape(-1)


def tv_bound(probs: np.ndarray, shots: int) -> float:
    return 0.5 * float(np.sum(np.sqrt(probs * (1 - probs) / shots))) + TAIL / math.sqrt(shots)


def counts_problem(counts: dict, shots: int, width: int, factors) -> str | None:
    """None when the counts are consistent with the exact factors."""
    if sum(counts.values()) != shots:
        return f"counts sum to {sum(counts.values())}, expected {shots}"
    for key in counts:
        if len(key) != max(width, 1) or set(key) - {"0", "1"}:
            return f"bad counts key {key!r} for width {width}"
    for bits, probs in factors:
        emp = _project_counts(counts, bits, max(width, 1))
        if np.any((emp > 0) & (probs < 1e-12)):
            return f"outcome of probability 0 on bits {list(bits)}"
        k = len(bits)
        groups = [list(range(k))] if k <= 2 * CHUNK else []
        if k > CHUNK:
            groups += [list(range(i, min(i + CHUNK, k))) for i in range(0, k, CHUNK)]
        for g in groups:
            p = _marginal(probs, k, set(g))
            e = _marginal(emp, k, set(g)) / shots
            tv = 0.5 * float(np.abs(p - e).sum())
            bound = tv_bound(p, shots)
            if tv > bound:
                return (f"total variation {tv:.3f} > bound {bound:.3f} "
                        f"on bits {[bits[j] for j in g]}")
    return None


def compliance_problem(prog: Program, basis, coupling, n_device: int) -> str | None:
    """None when every operation is a device basis gate (or measure/reset)
    and every two-qubit gate sits on a coupled pair in a native direction
    (cz is symmetric)."""
    if prog.n_qubits != n_device:
        return f"physical register has {prog.n_qubits} qubits, device {n_device}"
    allowed = set(basis) | {"measure", "reset"}
    edges = {tuple(e) for e in coupling}
    for op in prog.ops:
        if op.name not in allowed:
            return f"gate {op.name} is not in the device basis"
        if len(op.qubits) > 2:
            return f"{op.name} acts on {len(op.qubits)} qubits"
        if len(op.qubits) == 2:
            a, b = op.qubits
            if (a, b) not in edges and not (op.name == "cz" and (b, a) in edges):
                return f"{op.name} on uncoupled pair ({a}, {b})"
    return None
