"""The stabilizer tableau: seeded counts on registers wider than one machine
word, the symbolic run against per-shot trajectories, agreement with the
state vector, measurement kinds and the rejection of non-Clifford gates."""

from __future__ import annotations

import functools
import itertools
import math
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qflow import stabilizer
from qflow.cli import main
from qflow.errors import NonCliffordError
from qflow.gates import LIBRARY, unitary_of
from qflow.parser import parse_qasm
from qflow.program import Program
from qflow.stabilizer import StabilizerTableau, _reject, _StabState, stab_run
from qflow.statevector import sv_statevector

from conftest import corpus_sources, ghz_qasm, random_clifford_qasm
from oracles import per_shot_counts, tableau_to_statevector

HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'


def midcircuit_clifford(n: int, seed: int, condition: bool = True) -> str:
    """A random Clifford circuit, a mid-circuit measure of q[0], a reset of
    q[1], a gate conditioned on the measured bit (unless not ``condition``),
    more random Clifford gates and a terminal measure of every qubit."""
    before = random_clifford_qasm(n, 4 * n, seed).splitlines()[3:]
    after = random_clifford_qasm(n, 4 * n, seed + 1).splitlines()[3:]
    lines = [HEADER + f"qreg q[{n}];", "creg m[1];", f"creg c[{n}];", *before,
             "measure q[0] -> m[0];", "reset q[1];", *["if(m==1) x q[2];"] * condition,
             *after, "measure q -> c;"]
    return "\n".join(lines) + "\n"


# Counts at seed 11, 32 shots: every outcome was drawn once. A tableau
# column of these circuits holds 66 or 140 rows, more than one 64-bit word.
# The condition sends them through the shot walker; re-pinned when it
# replaced per-shot trajectories, after a forced replay showed each outcome
# possible. At 34 and 71 bits they are too wide for the exact-distribution
# TV check that the narrower conditioned pin, stab teleport, passes.
PINNED_WIDE = {
    (33, 5): [
        "0000011111001001010000001010010100",
        "0000110101001110011110001001110011",
        "0000111101001001000000011010001100",
        "0010000011000100001010011010010111",
        "0010010001111110010010110000001100",
        "0010010111001111011000101111000011",
        "0010100001011101000110101100001100",
        "0010100101100111000110110111111000",
        "0010110011110000010000100001101000",
        "0100000101001100011010000011110011",
        "0100010101101010010100000100001100",
        "0100100001010111000000101101110000",
        "0100111001010100010010111101110000",
        "0110001011101010010100101010111100",
        "0110001111100100001000000100011111",
        "0110101001101011010010001100000100",
        "0110111001100100011110101100101111",
        "0110111111010010011000101000011111",
        "1000011011001000010000110110001100",
        "1000100101110101010000001011001000",
        "1000100111001011010110011110000100",
        "1000101111100100010100001101010000",
        "1000110001010100001100101110110111",
        "1010000101111100000100110110010100",
        "1010010111011000001000110011110011",
        "1010101001110111001100110000011111",
        "1010111111011101000100000010100100",
        "1100000101110110001100000010011111",
        "1100010011001011010110101100001100",
        "1110000101000110000100101101000000",
        "1110000111000100001000010000101111",
        "1110010111000011011110110100100111",
    ],
    (70, 6): [
        "00000010010000011000011010010100000101100110110011010010001111001010000",
        "00000010100110111110011010111010010101111100010100100001001001000001000",
        "00001101100011011001100011100011001101110011101101110000101101000111000",
        "00001111010110101100011011011001001101100100011111100011110101001000000",
        "00001111110111101101010010110010000101111010101101000000011001001110011",
        "00011001000110101101001010011000000101100011011000001110101111000110011",
        "00011100110101011001111011101001011101111100000011001101110011001111000",
        "00100010001111011111100111111100010101010011011011111111101101001010000",
        "00100011111110001001010110101101000101011110000110010010001001001001000",
        "00100101101011111010010110111110010101011000011100101110010111000101011",
        "00101010111011001111100111001111000101001000010001001101000011001100011",
        "00101100011100011000111111011001010101001100110011110010000001000010011",
        "00101110011101101001100111101111011101011000010011000011111011001110011",
        "00110100111100011100101111011010011101000000001111110001100101001011000",
        "00111010011001001001110111111101000101010001000111011111111101001111000",
        "00111010101000011001000110110111001101010100110100011101110011000011011",
        "00111010101111101010111111001000011101000110010001100010101111000111011",
        "00111111001111001010111110100110011101011010110100000011110001001011011",
        "00111111001111001100100110110000011101010010010101110001001011000001000",
        "00111111111001101010100111111010011101010111100011001100000011000001011",
        "10000001000101111100100010000110011101100110000110001101011111001011011",
        "10000101110101101110001011111000000101110000101010100010010111001011000",
        "10001111010110111000100010011000010101101100000011100011100011000010011",
        "10011000000010111011111011001010010101100000110010011111000001001000000",
        "10100011001001011010100111110011010101010000000100100011001111000101000",
        "10100100001110101010011110010110000101000100010100011100100101000000000",
        "10100110101111101001010110000101000101001010111100010010000011001001000",
        "10101010111001101000011111001011010101000110101010100010100101001000000",
        "10101011101100011111111110110010001101011010011111010011000011001101011",
        "10101111001100111111100111100100001101010010100101101111010011001111000",
        "10110000001001101110000111011111011101001100001011101110101101001010000",
        "10111011011110011000101110010010001101000110111100000000011001001111000",
    ],
}


@pytest.mark.parametrize("n, seed", sorted(PINNED_WIDE))
def test_seeded_counts_on_wide_registers_are_pinned(n, seed):
    counts = stab_run(parse_qasm(midcircuit_clifford(n, seed)), seed=11, shots=32).counts
    assert counts == dict.fromkeys(PINNED_WIDE[n, seed], 1)


# The same circuits without the condition, which stab_run samples from one
# symbolic pass, and a 200-qubit random Clifford circuit that measures
# nothing (every qubit is sampled). Counts at seed 11, recorded with the
# per-shot trajectory loop before the symbolic pass replaced it.
PINNED_AFFINE = {
    (33, 5): [
        "0000001101111000000110111110001100",
        "0010010001111110010010110000001111",
        "0010010011001101010100110000010100",
        "0010011111101100000100111000010100",
        "0100010001011010010110010010001100",
        "0100010101110000000000111001111000",
        "0100011001001111000010011000101111",
        "0100011001010111010010111001011011",
        "0100011101001101000110001110100111",
        "0100100111111101000110000010110100",
        "0100111001010100010010111101110000",
        "0110000011000001000000100101100011",
        "0110001001001101010110001000000111",
        "0110010111011000000010111000010100",
        "0110101101001111010000001100000111",
        "1000001011101101000100011010000100",
        "1000100011111111000110000110001100",
        "1000101111011101000110010100100111",
        "1010000001010000010010101001001011",
        "1010010001110101000100110101000011",
        "1010010011111101010010011110000100",
        "1010110111110011010110011001010011",
        "1100000111010000000010001101110011",
        "1110000001100000010100100111001011",
        "1110001001100101000010011001001000",
        "1110001101001011000000101010111111",
        "1110010011101001010000100010100111",
        "1110010111001011010110110100100111",
        "1110011001000011000100111011100011",
        "1110100101010100010110111101101000",
        "1110110101001000000010001110111100",
        "1110111011100101000000001101010011",
    ],
    (70, 6): [
        "00000001110010011011100011111011001101111101001001000010001101001001000",
        "00000010110000111110001010110000000101110011011110011111110011000000000",
        "00001001010001111111001010010001011101101101011110001110010001000001000",
        "00001011100001001001001010000101001101101010100110100001101111000010000",
        "00010000000100011001001011000111010101101000010001111100110111001010011",
        "00010001010011101101110010100101010101111111011010100000011001001001011",
        "00010100100001101010101011011000010101101001100111110010100011001111000",
        "00010110100000111111110011101000010101110100111110101110000111001010000",
        "00010111000101111101111011001010000101100011001010110000000111001001011",
        "00011011110101001000000011110001011101110101011100000011101111001000000",
        "00100101101011101011110110010111010101000100001000100010100001001110000",
        "00100101111000111001001110110110001101011000010001101110000011001010011",
        "00101001001011111011000110010010001101000011010000010001101101000110011",
        "00101110111001111111101111011101001101001001100101111110110001000000000",
        "00110101111011001100101110100010011101010110000111011110100011000001000",
        "10000001000101111100100010000110011101100110000110001101011111001011011",
        "10000001010100011010001010101000010101111001101001111110101111001111000",
        "10000010100011001001010011011001000101100111010011000001110011000110000",
        "10001001100011001101101011110110001101111110001101010010100111000111000",
        "10001100110010001111111010001011010101101000100110011100010101000000011",
        "10001101100101011111101010000010011101100010110110101110100001000111011",
        "10011000010110111001111011000000001101101100001111111100110001000101011",
        "10011100100011101010010010001111011101101100011001100011110101000000000",
        "10011111010111011101010010001110010101101001100100110011100111001011000",
        "10100011101000101010000110100000010101010111110011100010010011001011000",
        "10101101101111101101010110110111011101011000111100001110000101001010011",
        "10110000001001001001101110101010001101011110100110001110010001001100011",
        "10110011011111111101010111000010010101001110101011010000000111000011011",
        "10110101001101011001010110010110000101000011100000101100010101000011011",
        "10110110101010111101110110101110001101011111011000010001100011001111000",
        "10111000011100101010001110101000000101011110111001000010101011000010000",
        "10111111101110111001010111011000010101000100100110101100000011000001000",
    ],
}
PINNED_WIDE_UNMEASURED = [
    "00010010010000101110101101010000000001110101101001011100001001000101000101111010100101101000110000110101011011101011100000010000101010000100001100111100011101001010001010010110000011110110100001000101",
    "00010011110001111110101100010001100001110100101101010010001000010110111101011010110110101000110100000111000011001011100000000000001010100110100011111100001000101010001010011110010011110110100001000100",
    "00011011100000111110101101111000000011111111101101011000011000000001011101011010100101110100111001000110011011100111000000001000111110000100000110111000010100101110001010010111000011110111011000000100",
    "00111001000101101110100011110000001001111100101001011100010001000111110101001000110011100000111001100111001010101011000000000000011110100110000010111101011000101011001010011110000011110101100000000100",
    "01000011010100111110100011011001001100110111001001010110010011010100011001011000110111110110110000010100111010000111100010010000111110100100000110111001001000011111001110110111010011110000110000000101",
    "01001011100100101110100000010001000100111111101101011000010011000011110101101010100111100000111100010100000010001010000010001000101110000100000100111100000100111011001010011110000011110110100000000101",
    "01011010010000101111110011100001101100101101001101010010001010000011101001101010110010000000110101000111110010001011000010010000011110100110000101111101000001001010001100010111000011110010100000000100",
    "01110001000000111111101111000000100010100101001101011100001011000000110001011000110011111100111101010101010010001111100010011000011010100100001011111001001101111011001010110110000011110011101000000100",
]


@pytest.mark.parametrize("n, seed", sorted(PINNED_AFFINE))
def test_seeded_counts_of_unconditioned_wide_registers_are_pinned(n, seed):
    counts = stab_run(parse_qasm(midcircuit_clifford(n, seed, condition=False)), seed=11,
                      shots=32).counts
    assert list(counts.items()) == [(key, 1) for key in PINNED_AFFINE[n, seed]]


def test_seeded_counts_of_a_wide_unmeasured_register_are_pinned():
    counts = stab_run(parse_qasm(random_clifford_qasm(200, 800, seed=17)), seed=11,
                      shots=8).counts
    assert list(counts.items()) == [(key, 1) for key in PINNED_WIDE_UNMEASURED]


@st.composite
def _programs(draw):
    """Random Clifford programs on up to 8 qubits with mid-circuit measures
    (several into one clbit), resets, barriers and clbits left unmeasured;
    some measure nothing."""
    n = draw(st.integers(1, 8))
    n_clbits = draw(st.integers(1, 4))
    lines = [HEADER + f"qreg q[{n}];", f"creg c[{n_clbits}];"]
    qubit = st.integers(0, n - 1)
    kinds = ["1q", "1q", "2q", "measure", "reset", "barrier"] if n > 1 else ["1q", "measure"]
    for _ in range(draw(st.integers(0, 24))):
        kind = draw(st.sampled_from(kinds))
        if kind == "1q":
            gate = draw(st.sampled_from(["h", "s", "sdg", "x", "y", "z", "sx", "sxdg"]))
            lines.append(f"{gate} q[{draw(qubit)}];")
        elif kind == "2q":
            a, b = draw(st.lists(qubit, min_size=2, max_size=2, unique=True))
            lines.append(f"{draw(st.sampled_from(['cx', 'cz', 'swap']))} q[{a}],q[{b}];")
        elif kind == "measure":
            lines.append(f"measure q[{draw(qubit)}] -> c[{draw(st.integers(0, n_clbits - 1))}];")
        elif kind == "reset":
            lines.append(f"reset q[{draw(qubit)}];")
        else:
            lines.append("barrier q;")
    return "\n".join(lines) + "\n"


@settings(max_examples=80, deadline=None)
@given(_programs(), st.integers(0, 2**32), st.integers(1, 40), st.sampled_from([1, 5, 1 << 20]))
def test_symbolic_run_equals_per_shot_trajectories(source, seed, shots, block_bits):
    # small blocks split the shots, so draws cross block boundaries
    with mock.patch.object(stabilizer, "_BLOCK_BITS", block_bits):
        counts = stab_run(parse_qasm(source), seed=seed, shots=shots).counts
    assert list(counts.items()) == list(per_shot_counts(parse_qasm(source), seed, shots).items())


@pytest.mark.parametrize("measure", [True, False])
def test_symbolic_run_equals_per_shot_trajectories_past_one_word(measure):
    body = random_clifford_qasm(70, 280, seed=3).splitlines()[3:]
    lines = [HEADER + "qreg q[70];", "creg c[70];", *body[:140], "measure q[65] -> c[3];",
             "reset q[66];", "measure q[0] -> c[3];", *body[140:]]
    if measure:
        lines += ["barrier q;", *[f"measure q[{q}] -> c[{q}];" for q in range(0, 70, 3)]]
    source = "\n".join(lines) + "\n"
    for block_bits in (64, 1 << 20):
        with mock.patch.object(stabilizer, "_BLOCK_BITS", block_bits):
            counts = stab_run(parse_qasm(source), seed=5, shots=24).counts
        assert list(counts.items()) == list(per_shot_counts(parse_qasm(source), 5, 24).items())


def test_sampling_memory_does_not_grow_with_shots():
    circuit = parse_qasm(ghz_qasm(20))
    tracemalloc.start()
    try:
        counts = stab_run(circuit, seed=3, shots=1 << 22).counts
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sorted(counts) == ["0" * 20, "1" * 20] and sum(counts.values()) == 1 << 22
    # drawing every shot at once would hold 2**22 int64 draws (32 MiB)
    assert peak < 16 << 20


def test_deterministic_program_draws_nothing_for_any_shot_count():
    source = HEADER + "qreg q[2];\ncreg c[2];\nx q[0];\nmeasure q[0] -> c[0];\n"
    t0 = time.perf_counter()
    assert stab_run(parse_qasm(source), shots=2**63 - 1).counts == {"01": 2**63 - 1}
    assert time.perf_counter() - t0 < 5.0


def counting(monkeypatch, name: str) -> list:
    """Count the calls of StabilizerTableau.<name>."""
    calls = []
    original = getattr(StabilizerTableau, name)

    def wrapper(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(StabilizerTableau, name, wrapper)
    return calls


@pytest.mark.parametrize("source, n_measure", [
    (midcircuit_clifford(33, 5, condition=False), 1 + 1 + 33),  # measure, reset, measure q
    (random_clifford_qasm(12, 48, seed=2), 12),                 # every qubit sampled
])
def test_unconditioned_program_measures_once_per_op_and_never_copies(monkeypatch, source,
                                                                    n_measure):
    copies = counting(monkeypatch, "copy")
    measures = counting(monkeypatch, "measure")
    monkeypatch.setattr(stabilizer, "walk", None)
    stab_run(parse_qasm(source), shots=256)
    assert (len(copies), len(measures)) == (0, n_measure)


def test_conditioned_program_copies_a_tableau_per_extra_leaf(monkeypatch):
    copies = counting(monkeypatch, "copy")
    leaves = []
    sample = _StabState.sample
    monkeypatch.setattr(_StabState, "sample",
                        lambda self, *args: leaves.append(args[1]) or sample(self, *args))
    counts = stab_run(parse_qasm(midcircuit_clifford(33, 5)), seed=11, shots=32).counts
    assert sum(leaves) == 32 and len(copies) <= len(leaves) - 1
    assert counts == dict.fromkeys(PINNED_WIDE[33, 5], 1)


# Lattice angles of every parameterized form the tableau accepts, including a
# two-qubit gate that runs through the decomposition template.
LATTICE = (HEADER + "qreg q[3];\nrx(pi/2) q[0];\nry(-pi/2) q[1];\nu3(pi/2,pi,-pi/2) q[2];\n"
           "u2(0,pi) q[0];\ncy q[0],q[1];\nrz(3*pi/2) q[2];\np(pi) q[1];\nu1(pi/2) q[0];\n"
           "crz(pi) q[1],q[2];\ncry(pi) q[0],q[2];\nh q[1];\ncz q[1],q[0];\n")

_UNITARY_CLIFFORD = (
    [(name, src) for name, src in corpus_sources() if name.startswith("ghz")]
    + [(f"clifford_n{n}", random_clifford_qasm(n, 12 * n, seed=400 + n)) for n in range(1, 9)]
    + [("lattice", LATTICE)]
)


def evolve(c) -> StabilizerTableau:
    """The tableau after each gate of a unitary circuit, applied in order."""
    program = Program(c)
    tab = StabilizerTableau(program.n)
    for op in program.ops:
        if op.gate:
            tab.apply(op.opcode, op.instr.params, op.wires)
    return tab


def assert_tableau_is_the_statevector(c):
    psi = sv_statevector(c)
    phi = tableau_to_statevector(evolve(c))
    k = int(np.argmax(np.abs(psi)))
    np.testing.assert_allclose(phi * (psi[k] / phi[k]), psi, atol=1e-10)


@pytest.mark.parametrize("name, source", _UNITARY_CLIFFORD)
def test_tableau_state_is_the_statevector(name, source):
    assert_tableau_is_the_statevector(parse_qasm(source))


def test_ghz_measurements_are_random_then_deterministic():
    tab = evolve(parse_qasm(ghz_qasm(5)))
    forms: list[int] = []
    results = [tab.measure(q, forms) for q in range(5)]
    # the first outcome is a new random bit r_0; the others read it
    assert results == [(0, 1)] * 5 and len(forms) == 1


@pytest.mark.parametrize("gate", [
    "u3(0,pi/4,-pi/4)",       # the identity
    "u3(pi,pi/4,pi/4)",       # Y up to phase
    "u3(2*pi,pi/4,-pi/4)",    # the identity, theta past the canonical range
    "u3(-pi,pi/8,5*pi/8)",    # X times a power of s
    "u(pi,3*pi/4,-pi/4)",
])
def test_clifford_u3_off_the_lattice_is_accepted(gate):
    source = HEADER + f"qreg q[2];\nh q[0];\ncx q[0],q[1];\n{gate} q[0];\nh q[1];\n"
    assert_tableau_is_the_statevector(parse_qasm(source))


@pytest.mark.parametrize("gate, message", [
    ("t q[0];", "non-Clifford gate 't'$"),
    # sv and noiseless dm fuse h; t; h into one gate, the tableau never does
    ("t q[0];\nh q[0];", "non-Clifford gate 't'$"),
    ("rz(0.3) q[0];", r"non-Clifford gate 'rz' \(angle 0.3 is not a multiple of pi/2\)"),
    ("u3(pi/2,0.7,0) q[0];", r"non-Clifford gate 'u3' \(angle 0.7 is not a multiple of pi/2\)"),
    ("crz(0.3) q[0],q[1];", r"non-Clifford gate 'crz' \(angle 0.3 is not a multiple of pi/2\)"),
    # judged by its remainder mod 2*pi, off the lattice
    ("rz(1e300) q[0];", r"non-Clifford gate 'rz' \(angle 1e\+300 is not a multiple of pi/2\)"),
])
def test_non_clifford_gates_are_rejected(gate, message):
    with pytest.raises(NonCliffordError, match=message):
        stab_run(parse_qasm(HEADER + "qreg q[2];\nh q[0];\n" + gate + "\n"), shots=4)


@pytest.mark.parametrize("gate, message", [
    # on the lattice, yet not Clifford: no angle is to blame
    ("crx(pi/2) q[0],q[1];", "non-Clifford gate 'crx'$"),
    ("cu1(pi/2) q[0],q[1];", "non-Clifford gate 'cu1'$"),
    ("cu3(pi/2,0,pi) q[0],q[1];", "non-Clifford gate 'cu3'$"),
    # the first angle off the lattice, in the order the gate is written
    ("u3(0.1,0.2,0.3) q[0];", r"non-Clifford gate 'u3' \(angle 0.1 is not a multiple of pi/2\)$"),
    ("cu3(pi,0.2,0.3) q[0],q[1];",
     r"non-Clifford gate 'cu3' \(angle 0.2 is not a multiple of pi/2\)$"),
])
def test_rejection_names_only_an_angle_off_the_lattice(gate, message):
    with pytest.raises(NonCliffordError, match=message):
        stab_run(parse_qasm(HEADER + "qreg q[2];\nh q[0];\n" + gate + "\n"), shots=4)


@pytest.mark.parametrize("shots", [1, 64])
@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("body", [
    # the walker meets the t only on the branches that read 1
    "h q[0];\nmeasure q[0] -> c[0];\nif(c==1) t q[0];\nmeasure q[0] -> c[0];\n",
    # an if that never holds
    "measure q[0] -> c[0];\nif(c==1) t q[0];\n",
    # the first in program order, though each branch meets only one of them
    "h q[0];\nmeasure q[0] -> c[0];\nif(c==0) t q[0];\nif(c==1) rz(0.3) q[0];\n",
])
def test_a_conditioned_non_clifford_gate_is_refused_at_every_seed(body, seed, shots):
    source = HEADER + "qreg q[1];\ncreg c[1];\n" + body
    with pytest.raises(NonCliffordError, match="^non-Clifford gate 't'$"):
        stab_run(parse_qasm(source), seed=seed, shots=shots)


@pytest.mark.parametrize("n, size", [(1, 1), (50, 1263)])
@pytest.mark.parametrize("condition", ["", "if(c==1) "])
def test_a_run_reports_the_bytes_of_its_tableau(n, size, condition):
    """2n rows of n x bits, n z bits and a sign, rounded up to whole bytes."""
    source = HEADER + f"qreg q[{n}];\ncreg c[1];\nh q[0];\n{condition}x q[0];\n"
    result = stab_run(parse_qasm(source), shots=4)
    assert result.mem_bytes_estimate == size == math.ceil(2 * n * (2 * n + 1) / 8)


@pytest.mark.parametrize("angle, on_lattice", [
    (0.0, True), (math.pi / 2, True), (math.pi, True), (-math.pi / 2, True),
    (2 * math.pi, True), (math.pi / 2 + 5e-10, True), (math.pi / 4, False),
    # 4300000 * pi/2 past the fmod range, and two huge angles off the
    # lattice that a check without normalizing took for multiples of pi/2
    (6754424.205218055, True), (1e16, False), (1e300, False),
])
def test_the_lattice_check_snaps_an_angle_first(angle, on_lattice):
    message = str(_reject("rz", (angle,)))
    assert ("is not a multiple of pi/2" not in message) == on_lattice


def one_gate_tableau(opcode: str, params: tuple) -> tuple:
    tab = StabilizerTableau(1)
    tab.apply(opcode, params, (0,))
    return tab.X, tab.Z, tab.R


@pytest.mark.parametrize("offset, accepted", [
    (5e-10, True), (5e-9, False), (5e-8, False), (1e-5, False)])
def test_accept_boundary_of_a_single_angle(offset, accepted):
    if accepted:
        assert one_gate_tableau("rz", (math.pi / 2 + offset,)) == one_gate_tableau("s", ())
    else:
        with pytest.raises(NonCliffordError, match=r"'rz' \(angle 1.57"):
            one_gate_tableau("rz", (math.pi / 2 + offset,))


def test_u3_near_every_lattice_point_is_accepted():
    for ks in itertools.product(range(4), repeat=3):
        exact = one_gate_tableau("u3", tuple(k * math.pi / 2 for k in ks))
        for offsets in itertools.product((1e-9, -1e-9), repeat=3):
            params = tuple(k * math.pi / 2 + d for k, d in zip(ks, offsets))
            assert one_gate_tableau("u3", params) == exact, params


def maps_paulis_to_paulis(u: np.ndarray) -> bool:
    """Whether u conjugates X and Z on each of its wires to a signed Pauli
    string: the definition of a Clifford gate."""
    paulis = [np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
              np.diag([1, -1])]
    k = u.shape[0].bit_length() - 1
    strings = [functools.reduce(np.kron, ps) for ps in itertools.product(paulis, repeat=k)]
    for w, g in itertools.product(range(k), (paulis[1], paulis[3])):
        image = u @ functools.reduce(np.kron, [g if i == w else paulis[0] for i in range(k)])
        image = image @ u.conj().T
        if not any(np.allclose(image, sign * p, atol=1e-9) for p in strings for sign in (1, -1)):
            return False
    return True


_LATTICE_GATES = [(name, params) for name, spec in sorted(LIBRARY.items())
                  for params in itertools.product((0.0, math.pi / 2, math.pi, 3 * math.pi / 2),
                                                  repeat=spec.param_count)]


@pytest.mark.parametrize("name, params", _LATTICE_GATES,
                         ids=[f"{n}{[round(p / math.pi * 2) for p in ps]}" for n, ps in _LATTICE_GATES])
def test_every_library_gate_on_the_lattice_matches_the_statevector(name, params):
    """Each wire the gate acts on starts as half of a Bell pair, so the state
    fixes the gate up to phase: the whole map on X, Y and Z, signs included."""
    k = LIBRARY[name].arity
    prep = "".join(f"h q[{i}];\ncx q[{i}],q[{i + k}];\n" for i in range(k))
    args = f"({','.join(map(repr, params))})" if params else ""
    gate = f"{name}{args} {','.join(f'q[{i}]' for i in range(k))};\n"
    c = parse_qasm(HEADER + f"qreg q[{2 * k}];\n" + prep + gate)
    if maps_paulis_to_paulis(unitary_of(name, params)):
        assert_tableau_is_the_statevector(c)
    else:
        with pytest.raises(NonCliffordError, match=f"non-Clifford gate '{name}'"):
            stab_run(c, shots=4)


def test_cli_refuses_non_clifford_circuit(tmp_path, capsys):
    path = tmp_path / "t.qasm"
    path.write_text(HEADER + "qreg q[1];\nh q[0];\nt q[0];\n")
    assert main(["simulate", "stab", str(path)]) == 4
    assert "non-Clifford gate 't'" in capsys.readouterr().err
