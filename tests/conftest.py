"""Shared fixtures: the circuit corpus and device configurations."""

from __future__ import annotations

import math

import numpy as np
import pytest

from qflow.parser import parse_qasm


def bell_qasm() -> str:
    return (
        "OPENQASM 2.0;\n"
        'include "qelib1.inc";\n'
        "qreg q[2];\n"
        "creg c[2];\n"
        "h q[0];\n"
        "cx q[0],q[1];\n"
        "measure q -> c;\n"
    )


def ghz_qasm(n: int, measure: bool = False) -> str:
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{n}];"]
    if measure:
        lines.append(f"creg c[{n}];")
    lines.append("h q[0];")
    for i in range(n - 1):
        lines.append(f"cx q[{i}],q[{i + 1}];")
    if measure:
        lines.append("measure q -> c;")
    return "\n".join(lines) + "\n"


def qft_qasm(n: int) -> str:
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{n}];"]
    for i in range(n):
        lines.append(f"h q[{i}];")
        for j in range(i + 1, n):
            lines.append(f"cu1(pi/{1 << (j - i)}) q[{j}],q[{i}];")
    for i in range(n // 2):
        lines.append(f"swap q[{i}],q[{n - 1 - i}];")
    return "\n".join(lines) + "\n"


def adder4_qasm() -> str:
    # one-bit full adder: q0,q1 inputs, q2 carry-in, q3 carry-out
    return (
        "OPENQASM 2.0;\n"
        'include "qelib1.inc";\n'
        "qreg q[4];\n"
        "creg c[4];\n"
        "x q[0];\n"
        "x q[1];\n"
        "ccx q[0],q[1],q[3];\n"
        "cx q[0],q[1];\n"
        "ccx q[1],q[2],q[3];\n"
        "cx q[1],q[2];\n"
        "cx q[0],q[1];\n"
        "measure q -> c;\n"
    )


_CLIFFORD_1Q = ("h", "s", "sdg", "x", "y", "z", "sx", "sxdg")
_CLIFFORD_2Q = ("cx", "cz", "swap")


def random_clifford_qasm(n: int, depth: int, seed: int) -> str:
    rng = np.random.default_rng(seed)
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{n}];"]
    for _ in range(depth):
        if n > 1 and rng.random() < 0.35:
            a, b = (int(v) for v in rng.choice(n, 2, replace=False))
            g = _CLIFFORD_2Q[int(rng.integers(len(_CLIFFORD_2Q)))]
            lines.append(f"{g} q[{a}],q[{b}];")
        else:
            g = _CLIFFORD_1Q[int(rng.integers(len(_CLIFFORD_1Q)))]
            lines.append(f"{g} q[{int(rng.integers(n))}];")
    return "\n".join(lines) + "\n"


def random_clifford_t_qasm(n: int, depth: int, seed: int) -> str:
    rng = np.random.default_rng(seed)
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{n}];"]
    gates_1q = _CLIFFORD_1Q + ("t", "tdg")
    for _ in range(depth):
        if n > 1 and rng.random() < 0.3:
            a, b = (int(v) for v in rng.choice(n, 2, replace=False))
            g = _CLIFFORD_2Q[int(rng.integers(len(_CLIFFORD_2Q)))]
            lines.append(f"{g} q[{a}],q[{b}];")
        else:
            g = gates_1q[int(rng.integers(len(gates_1q)))]
            lines.append(f"{g} q[{int(rng.integers(n))}];")
    return "\n".join(lines) + "\n"


def random_general_qasm(n: int, depth: int, seed: int) -> str:
    """Non-Clifford circuits with generic rotation angles."""
    rng = np.random.default_rng(seed)
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{n}];"]
    for _ in range(depth):
        r = rng.random()
        if n > 1 and r < 0.3:
            a, b = (int(v) for v in rng.choice(n, 2, replace=False))
            choice = int(rng.integers(3))
            if choice == 0:
                lines.append(f"cx q[{a}],q[{b}];")
            elif choice == 1:
                lines.append(f"cz q[{a}],q[{b}];")
            else:
                lines.append(f"crz({rng.uniform(-math.pi, math.pi)}) q[{a}],q[{b}];")
        elif r < 0.65:
            t, p, l = rng.uniform(-math.pi, math.pi, 3)
            lines.append(f"u3({t},{p},{l}) q[{int(rng.integers(n))}];")
        else:
            g = ("rx", "ry", "rz")[int(rng.integers(3))]
            lines.append(f"{g}({rng.uniform(-math.pi, math.pi)}) q[{int(rng.integers(n))}];")
    return "\n".join(lines) + "\n"


def corpus_sources() -> list[tuple[str, str]]:
    """Named QASM sources: Bell, GHZ 3-6, QFT 3-6, adder, random Clifford+T."""
    entries = [("bell", bell_qasm()), ("adder4", adder4_qasm())]
    for n in range(3, 7):
        entries.append((f"ghz{n}", ghz_qasm(n)))
        entries.append((f"qft{n}", qft_qasm(n)))
    for k in range(12):
        n = 3 + k % 4
        entries.append((f"cliffordt{k}", random_clifford_t_qasm(n, 20 + 3 * k, seed=100 + k)))
    for k in range(8):
        n = 3 + k % 3
        entries.append((f"general{k}", random_general_qasm(n, 15 + 2 * k, seed=200 + k)))
    return entries


@pytest.fixture(scope="session")
def corpus():
    return [(name, parse_qasm(src)) for name, src in corpus_sources()]


@pytest.fixture(scope="session")
def bell():
    return parse_qasm(bell_qasm())


@pytest.fixture(scope="session")
def devices():
    from qflow.device import load_bundled_device

    return {
        name: load_bundled_device(name)
        for name in ("line5", "heavyhex7", "grid9", "alltoall11")
    }


def noiseless_device_json(n: int, basis=("rz", "sx", "x", "cx"), edges=None) -> str:
    import json

    if edges is None:
        edges = [[i, j] for i in range(n) for j in range(n) if i != j]
    durations = {g: 0.0 for g in basis}
    durations.update({"h": 0.0, "measure": 0.0, "reset": 0.0, "u3": 0.0, "cz": 0.0})
    return json.dumps(
        {
            "name": f"ideal{n}",
            "num_qubits": n,
            "basis_gates": list(basis),
            "coupling_map": edges,
            "gate_durations_ns": durations,
            "cycle_time_ns": 1.0,
        }
    )
