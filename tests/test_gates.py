"""Gate library: unitary definitions, Clifford flags, manifest."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qflow.circuit import Circuit, Instruction, Register
from qflow.errors import QFlowError
from qflow.gates import LIBRARY, BasisSet, gate_manifest, u3_matrix, unitary_of
from qflow.parser import parse_qasm
from qflow.qelib1 import QELIB1_INC

from oracles import apply_to_columns, circuit_unitary, embed_slow, phase_distance


def test_u_identity():
    assert np.allclose(u3_matrix(0, 0, 0), np.eye(2), atol=0)


def test_u_gives_hadamard():
    # evaluate the 2x2 convention formula numerically: with lam = pi the
    # upper-right entry is -e^{i pi} sin = +sin, lower-right is -cos
    t = math.pi / 2
    expected = np.array(
        [
            [math.cos(t / 2), math.sin(t / 2)],
            [math.sin(t / 2), -math.cos(t / 2)],
        ]
    )
    got = u3_matrix(math.pi / 2, 0.0, math.pi)
    assert np.max(np.abs(got - expected)) < 1e-15
    assert np.max(np.abs(got - unitary_of("h"))) < 1e-15


def test_cx_permutation():
    cx = unitary_of("cx")
    expected = np.zeros((4, 4))
    expected[0, 0] = expected[1, 1] = 1  # control 0 untouched
    expected[3, 2] = expected[2, 3] = 1  # |10> <-> |11>
    assert np.array_equal(cx.real, expected)
    assert np.array_equal(cx.imag, np.zeros((4, 4)))


def test_unitarity_random_parameters():
    rng = np.random.default_rng(12)
    for name, spec in LIBRARY.items():
        draws = 1000 if spec.param_count else 1
        for _ in range(draws):
            params = tuple(rng.uniform(-2 * math.pi, 2 * math.pi, spec.param_count))
            u = spec.matrix(params)
            dim = 2 ** spec.arity
            err = np.max(np.abs(u.conj().T @ u - np.eye(dim)))
            assert err < 1e-12, f"{name}{params}: {err}"


@pytest.mark.parametrize("name", [g for g in sorted(LIBRARY) if LIBRARY[g].param_count])
@given(angles=st.lists(st.floats(-1.7976931348623157e308, 1.7976931348623157e308),
                       min_size=3, max_size=3))
@settings(max_examples=40, deadline=None)
def test_every_gate_is_unitary_at_every_finite_angle(name, angles):
    """A huge angle meets a sum only after its exact reduction mod 2*pi,
    so no smaller angle is rounded away in a matrix cell."""
    spec = LIBRARY[name]
    u = unitary_of(name, tuple(angles[: spec.param_count]))
    err = np.max(np.abs(u.conj().T @ u - np.eye(2 ** spec.arity)))
    assert err <= 1e-14, f"{name}{angles}: {err}"


def _definition_unitary(name: str, params: tuple) -> np.ndarray:
    """Unitary of a qelib1 definition expanded down to U/CX: every gate the
    text of qelib1.inc defines is a macro that shadows the library gate."""
    arity = LIBRARY[name].arity
    args = f"({','.join(repr(float(p)) for p in params)})" if params else ""
    wires = ",".join(f"q[{j}]" for j in range(arity))
    flat = parse_qasm(f"OPENQASM 2.0;\n{QELIB1_INC}qreg q[{arity}];\n{name}{args} {wires};\n")
    assert {instr.opcode for instr in flat.instructions} <= {"u3", "cx"}
    return circuit_unitary(flat)


def test_library_matches_qelib1_bodies():
    """Each builtin with a qelib1 definition equals the unitary of that
    definition expanded to U/CX, up to global phase."""
    rng = np.random.default_rng(5)
    for name, spec in LIBRARY.items():
        if spec.qelib1_def is None or name in ("u3", "cx"):
            continue
        for _ in range(5 if spec.param_count else 1):
            params = tuple(rng.uniform(-2 * math.pi, 2 * math.pi, spec.param_count))
            lib = circuit_unitary(Circuit((Register("q", "q", spec.arity),), (
                Instruction(name, params, tuple(("q", j) for j in range(spec.arity))),)))
            dist = phase_distance(lib, _definition_unitary(name, params))
            assert dist < 1e-10, f"{name}{params}: {dist}"


def test_clifford_classification():
    expected_clifford = {"id", "x", "y", "z", "h", "s", "sdg", "sx", "sxdg",
                         "cx", "cz", "cy", "swap"}
    assert {e["name"] for e in gate_manifest() if e["clifford"]} == expected_clifford
    assert not LIBRARY["t"].is_clifford
    assert not LIBRARY["ch"].is_clifford
    assert not LIBRARY["rz"].is_clifford  # parameterized: never flagged


def test_unknown_gate_and_bad_params():
    with pytest.raises(QFlowError, match="unknown gate"):
        unitary_of("nope")
    with pytest.raises(QFlowError, match="parameter"):
        unitary_of("u3", (1.0,))


@pytest.mark.parametrize("gate, params, why", [
    ("rz", ("a",), "parameter 'a' is not a finite real number"),
    ("u3", (math.inf, 0.0, 0.0), "parameter inf is not a finite real number"),
    ("cu1", (10**400,), "parameter 1000+ is not a finite real number"),
    ("rz", (math.nan,), "parameter nan is not a finite real number"),
    ("rz", (2**53 + 1,), "parameter 9007199254740993 is not equal to a double"),
])
def test_a_parameter_the_circuit_rule_refuses_is_a_qflow_error(gate, params, why):
    """unitary_of and GateSpec.matrix take the parameters that
    Circuit.resolve takes, and refuse any other with QFlowError."""
    for matrix in (lambda: unitary_of(gate, params), lambda: LIBRARY[gate].matrix(params)):
        with pytest.raises(QFlowError, match=f"gate '{gate}': {why}"):
            matrix()


@pytest.mark.parametrize("params", [None, 0.5, [0.5], np.array([0.5])],
                         ids=["none", "float", "list", "array"])
def test_a_parameter_container_that_is_not_a_tuple_is_a_qflow_error(params):
    for matrix in (lambda: unitary_of("rz", params), lambda: LIBRARY["rz"].matrix(params)):
        with pytest.raises(QFlowError, match="gate 'rz': parameters must be a tuple, got "):
            matrix()


def test_basis_set():
    b = BasisSet.from_names(["rz", "sx", "x", "cx"])
    assert b.one_qubit == {"rz", "sx", "x"}
    assert b.two_qubit == {"cx"}
    with pytest.raises(QFlowError, match="not in the gate library"):
        BasisSet.from_names(["rz", "frobnicate"])
    with pytest.raises(QFlowError, match="1q and one 2q"):
        BasisSet.from_names(["rz", "sx"])


def test_manifest_shape():
    manifest = gate_manifest()
    names = {entry["name"] for entry in manifest}
    assert names == set(LIBRARY)
    cx_entry = next(e for e in manifest if e["name"] == "cx")
    assert cx_entry["arity"] == 2
    assert len(cx_entry["matrix"]) == 16
    rz_entry = next(e for e in manifest if e["name"] == "rz")
    assert "matrix" not in rz_entry and "definition" in rz_entry


def test_fast_oracle_matches_literal_embedding():
    """apply_to_columns (the dense oracle used throughout the suite) agrees
    with a direct basis-state embedding on every gate, n <= 3."""
    rng = np.random.default_rng(3)
    for n in (1, 2, 3):
        for name, spec in LIBRARY.items():
            if spec.arity > n:
                continue
            params = tuple(rng.uniform(-2, 2, spec.param_count))
            m = spec.matrix(params)
            for _ in range(4):
                wires = [int(w) for w in rng.choice(n, spec.arity, replace=False)]
                fast = apply_to_columns(np.eye(1 << n, dtype=complex), m, wires, n)
                slow = embed_slow(m, wires, n)
                assert np.max(np.abs(fast - slow)) < 1e-14, (name, wires)
