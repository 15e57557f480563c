"""The stabilizer tableau: seeded counts on registers wider than one machine
word, agreement with the state vector, measurement kinds and the rejection
of non-Clifford gates."""

from __future__ import annotations

import numpy as np
import pytest

from qflow.cli import main
from qflow.errors import NonCliffordError
from qflow.parser import parse_qasm
from qflow.stabilizer import stab_evolve, stab_run, tableau_to_statevector
from qflow.statevector import sv_statevector

from conftest import corpus_sources, ghz_qasm, random_clifford_qasm

HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'


def midcircuit_clifford(n: int, seed: int) -> str:
    """A random Clifford circuit, a mid-circuit measure of q[0], a reset of
    q[1], a gate conditioned on the measured bit, more random Clifford gates
    and a terminal measure of every qubit."""
    before = random_clifford_qasm(n, 4 * n, seed).splitlines()[3:]
    after = random_clifford_qasm(n, 4 * n, seed + 1).splitlines()[3:]
    lines = [HEADER + f"qreg q[{n}];", "creg m[1];", f"creg c[{n}];", *before,
             "measure q[0] -> m[0];", "reset q[1];", "if(m==1) x q[2];", *after,
             "measure q -> c;"]
    return "\n".join(lines) + "\n"


# Counts at seed 11, 32 shots: every outcome was drawn once. A tableau
# column of these circuits holds 66 or 140 rows, more than one 64-bit word.
# Recorded with the uint8-array tableau, before rows were packed into ints.
PINNED_WIDE = {
    (33, 5): [
        "0000001101111000000110111110001100",
        "0010010001110110011010110000001111",
        "0010010011001101010100110000010100",
        "0010011111101100000100111000010100",
        "0100010001011010010110010010001100",
        "0100010101110000000000111001111000",
        "0100011001000111001010011000101111",
        "0100011001011111011010111001011011",
        "0100011101000101001110001110100111",
        "0100100111111101000110000010110100",
        "0100111001010100010010111101110000",
        "0110000011001001001000100101100011",
        "0110001001000101011110001000000111",
        "0110010111011000000010111000010100",
        "0110101101000111011000001100000111",
        "1000001011101101000100011010000100",
        "1000100011111111000110000110001100",
        "1000101111010101001110010100100111",
        "1010000001011000011010101001001011",
        "1010010001111101001100110101000011",
        "1010010011111101010010011110000100",
        "1010110111111011011110011001010011",
        "1100000111011000001010001101110011",
        "1110000001101000011100100111001011",
        "1110001001100101000010011001001000",
        "1110001101000011001000101010111111",
        "1110010011100001011000100010100111",
        "1110010111000011011110110100100111",
        "1110011001001011001100111011100011",
        "1110100101010100010110111101101000",
        "1110110101001000000010001110111100",
        "1110111011101101001000001101010011",
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


@pytest.mark.parametrize("n, seed", sorted(PINNED_WIDE))
def test_seeded_counts_on_wide_registers_are_pinned(n, seed):
    counts = stab_run(parse_qasm(midcircuit_clifford(n, seed)), seed=11, shots=32).counts
    assert counts == dict.fromkeys(PINNED_WIDE[n, seed], 1)


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


@pytest.mark.parametrize("name, source", _UNITARY_CLIFFORD)
def test_tableau_state_is_the_statevector(name, source):
    c = parse_qasm(source, source_name=name)
    psi = sv_statevector(c)
    phi = tableau_to_statevector(stab_evolve(c))
    k = int(np.argmax(np.abs(psi)))
    np.testing.assert_allclose(phi * (psi[k] / phi[k]), psi, atol=1e-10)


def test_ghz_measurements_are_random_then_deterministic():
    tab = stab_evolve(parse_qasm(ghz_qasm(5)))
    rng = np.random.default_rng(3)
    results = [tab.measure(q, rng) for q in range(5)]
    assert [was_random for _, was_random in results] == [True, False, False, False, False]
    assert len({outcome for outcome, _ in results}) == 1


@pytest.mark.parametrize("gate", [
    "u3(0,pi/4,-pi/4)",       # the identity
    "u3(pi,pi/4,pi/4)",       # Y up to phase
    "u3(2*pi,pi/4,-pi/4)",    # the identity, theta past the canonical range
    "u3(-pi,pi/8,5*pi/8)",    # X times a power of s
    "u(pi,3*pi/4,-pi/4)",
])
def test_clifford_u3_off_the_lattice_is_accepted(gate):
    source = HEADER + f"qreg q[2];\nh q[0];\ncx q[0],q[1];\n{gate} q[0];\nh q[1];\n"
    c = parse_qasm(source)
    psi = sv_statevector(c)
    phi = tableau_to_statevector(stab_evolve(c))
    k = int(np.argmax(np.abs(psi)))
    np.testing.assert_allclose(phi * (psi[k] / phi[k]), psi, atol=1e-10)


@pytest.mark.parametrize("gate, message", [
    ("t q[0];", "non-Clifford gate 't'$"),
    # sv and noiseless dm fuse h; t; h into one gate, the tableau never does
    ("t q[0];\nh q[0];", "non-Clifford gate 't'$"),
    ("rz(0.3) q[0];", r"non-Clifford gate 'rz' \(angle 0.3 is not a multiple of pi/2\)"),
    ("u3(pi/2,0.7,0) q[0];", r"non-Clifford gate 'u3' \(angle 0.7 is not a multiple of pi/2\)"),
    ("crz(0.3) q[0],q[1];", r"non-Clifford gate 'crz' \(angle 0.3 is not a multiple of pi/2\)"),
])
def test_non_clifford_gates_are_rejected(gate, message):
    with pytest.raises(NonCliffordError, match=message):
        stab_run(parse_qasm(HEADER + "qreg q[2];\nh q[0];\n" + gate + "\n"), shots=4)


def test_cli_refuses_non_clifford_circuit(tmp_path, capsys):
    path = tmp_path / "t.qasm"
    path.write_text(HEADER + "qreg q[1];\nh q[0];\nt q[0];\n")
    assert main(["simulate", "stab", str(path)]) == 4
    assert "non-Clifford gate 't'" in capsys.readouterr().err
