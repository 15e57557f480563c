"""Seeded OpenQASM 2.0 generators for the benchmark.

Every generator takes a ``random.Random`` and returns QASM text, so one seed
always gives byte-identical circuits whatever the numpy version. qflow only
ever sees this text.
"""

from __future__ import annotations

import math

ONE_Q_FIXED = ("h", "x", "y", "z", "s", "sdg", "t", "tdg", "sx")
ONE_Q_ROT = ("rx", "ry", "rz", "u1")
TWO_Q_FIXED = ("cx", "cz", "cy", "swap")
TWO_Q_ROT = ("cu1", "crz")
CLIFFORD_1Q = ("h", "s", "sdg", "x", "y", "z", "sx")
CLIFFORD_2Q = ("cx", "cz", "swap")
Z_PRESERVING_1Q = ("x", "y", "z", "s", "sdg")  # Clifford gates mapping Z-basis states to Z-basis states


class Qasm:
    """Line-by-line QASM writer over one quantum register ``q``."""

    def __init__(self, n: int, cregs=()):
        self.lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{n}];"]
        self.lines += [f"creg {name}[{size}];" for name, size in cregs]

    def op(self, name: str, *qubits: int, params=(), cond=None):
        prefix = f"if({cond[0]}=={cond[1]}) " if cond else ""
        args = f"({','.join(params)})" if params else ""
        ops = ",".join(f"q[{q}]" for q in qubits)
        self.lines.append(f"{prefix}{name}{args} {ops};")

    def measure(self, q: int, creg: str, index: int):
        self.lines.append(f"measure q[{q}] -> {creg}[{index}];")

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def angle(rng) -> str:
    """A generic angle, or now and then a pi fraction the parser must fold."""
    if rng.random() < 0.2:
        return f"{rng.choice(('', '-'))}pi/{rng.choice((2, 4, 8, 16))}"
    return f"{rng.uniform(-math.pi, math.pi):.12g}"


def random_general(rng, n: int, depth: int, measure: bool = False) -> str:
    """``depth`` gates drawn from the qelib1 set, including ccx macros."""
    w = Qasm(n, [("c", n)] if measure else ())
    for _ in range(depth):
        r = rng.random()
        if n >= 3 and r < 0.03:
            w.op("ccx", *rng.sample(range(n), 3))
        elif n >= 2 and r < 0.33:
            a, b = rng.sample(range(n), 2)
            if rng.random() < 0.6:
                w.op(rng.choice(TWO_Q_FIXED), a, b)
            else:
                w.op(rng.choice(TWO_Q_ROT), a, b, params=(angle(rng),))
        elif r < 0.55:
            w.op(rng.choice(ONE_Q_FIXED), rng.randrange(n))
        elif r < 0.8:
            w.op(rng.choice(ONE_Q_ROT), rng.randrange(n), params=(angle(rng),))
        else:
            w.op("u3", rng.randrange(n), params=(angle(rng), angle(rng), angle(rng)))
    if measure:
        w.lines.append("measure q -> c;")
    return w.text()


def qft(rng, n: int, measure: bool = True) -> str:
    """Random product-state preparation, then the textbook QFT."""
    w = Qasm(n, [("c", n)] if measure else ())
    for q in range(n):
        w.op("ry", q, params=(angle(rng),))
        w.op("rz", q, params=(angle(rng),))
    for i in range(n):
        w.op("h", i)
        for j in range(i + 1, n):
            w.op("cu1", j, i, params=(f"pi/{1 << (j - i)}",))
    for i in range(n // 2):
        w.op("swap", i, n - 1 - i)
    if measure:
        w.lines.append("measure q -> c;")
    return w.text()


def ghz(n: int, measure: bool = True, mid: bool = False) -> str:
    """GHZ chain. With ``mid``, qubit 0 is measured mid-circuit into ``m``
    and then reused (h) before the terminal measures."""
    cregs = ([("m", 1)] if mid else []) + ([("c", n)] if measure else [])
    w = Qasm(n, cregs)
    w.op("h", 0)
    for i in range(n - 1):
        w.op("cx", i, i + 1)
    if mid:
        w.measure(0, "m", 0)
        w.op("h", 0)
    if measure:
        w.lines.append("measure q -> c;")
    return w.text()


def random_clifford(rng, n: int, depth: int, block: int = 5) -> str:
    """Clifford gates inside blocks of at most ``block`` qubits whose wires
    are interleaved across the register. Every gate still updates the full
    n-qubit tableau, but the exact output distribution factors into blocks
    small enough to contract."""
    wires = list(range(n))
    rng.shuffle(wires)
    blocks = [wires[i:i + block] for i in range(0, n, block)]
    w = Qasm(n, [("c", n)])
    for b in blocks:
        w.op("h", b[0])
    for _ in range(depth):
        b = rng.choice(blocks)
        if len(b) > 1 and rng.random() < 0.4:
            w.op(rng.choice(CLIFFORD_2Q), *rng.sample(b, 2))
        else:
            w.op(rng.choice(CLIFFORD_1Q), rng.choice(b))
    w.lines.append("measure q -> c;")
    return w.text()


def teleport(rng, hops: int) -> str:
    """Teleport a random one-qubit state along ``hops`` Bell pairs with
    classically conditioned corrections."""
    n = 2 * hops + 1
    cregs = [(f"a{k}", 1) for k in range(hops)] + [(f"b{k}", 1) for k in range(hops)]
    w = Qasm(n, cregs + [("out", 1)])
    w.op("u3", 0, params=(angle(rng), angle(rng), angle(rng)))
    for k in range(hops):
        s, a, b = 2 * k, 2 * k + 1, 2 * k + 2
        w.op("h", a)
        w.op("cx", a, b)
        w.op("cx", s, a)
        w.op("h", s)
        w.measure(s, f"a{k}", 0)
        w.measure(a, f"b{k}", 0)
        w.op("x", b, cond=(f"b{k}", 1))
        w.op("z", b, cond=(f"a{k}", 1))
    w.measure(n - 1, "out", 0)
    return w.text()


def syndrome_rounds(rng, d: int, rounds: int, clifford: bool) -> str:
    """Repetition-code ZZ checks: ``d`` data qubits, ``d-1`` ancillas that
    are measured and reset every round, an error between rounds, and a
    terminal data readout."""
    anc = [d + i for i in range(d - 1)]
    w = Qasm(2 * d - 1, [(f"s{r}", d - 1) for r in range(rounds)] + [("data", d)])
    for q in range(d):
        if clifford:
            w.op(rng.choice(("h", "x", "s")), q)
        else:
            w.op("ry", q, params=(angle(rng),))
    if clifford and d > 1:
        w.op("cx", 0, 1)
    for r in range(rounds):
        for i, a in enumerate(anc):
            w.op("cx", i, a)
            w.op("cx", i + 1, a)
            w.measure(a, f"s{r}", i)
            w.op("reset", a)
        q = rng.randrange(d)
        if clifford:
            w.op(rng.choice(("x", "z", "y")), q)
        else:
            w.op("rx", q, params=(f"{rng.uniform(0.1, 0.6):.12g}",))
    for q in range(d):
        w.measure(q, "data", q)
    return w.text()


def qubit_reuse(rng, n: int, clifford: bool = True, measure: bool = True) -> str:
    """Qubit 0 is entangled with each other qubit in turn and reset before
    its next use, so every reset hits an entangled qubit. The partner then
    gets a gate that maps Z-basis states to Z-basis states, so which branch
    each reset took always shows in the terminal counts."""
    w = Qasm(n, [("c", n)] if measure else ())
    for k in range(1, n):
        w.op("h", 0)
        if not clifford:
            w.op("ry", 0, params=(angle(rng),))
        w.op("cx", 0, k)
        w.op(rng.choice(Z_PRESERVING_1Q), k)
        w.op("reset", 0)
    w.op("h", 0)
    if measure:
        w.lines.append("measure q -> c;")
    return w.text()
